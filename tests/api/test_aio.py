"""The asyncio client tier, differentially pinned against the sync API.

Every behavior of the synchronous session layer (``tests/api/``) is
replayed here through ``repro.api.aio`` against a deployment built from
identical seeds, and the outputs are compared row for row: prepare /
execute / fetch / iteration / errors / statement cache.  Tests run over
both the in-process backend and a live TCP daemon (where the async tier
drives the sync wire client from its worker thread).
"""

import asyncio
import datetime

import pytest

import repro.api as api
import repro.api.aio as aio
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng

COLUMNS = [
    ("id", ValueType.int_()),
    ("dept", ValueType.string(8)),
    ("sal", ValueType.decimal(2)),
    ("hired", ValueType.date()),
]

ROWS = [
    (1, "eng", 100.00, datetime.date(2020, 1, 15)),
    (2, "ops", 80.50, datetime.date(2021, 6, 1)),
    (3, "eng", 120.25, datetime.date(2019, 3, 15)),
    (4, "sales", 95.00, datetime.date(2022, 11, 30)),
    (5, "eng", 64.75, datetime.date(2023, 2, 2)),
    (6, "ops", 110.00, datetime.date(2018, 8, 20)),
]


def _load(conn) -> None:
    conn.proxy.create_table(
        "pay", COLUMNS, ROWS, sensitive=["sal", "dept"], rng=seeded_rng(502)
    )


class Pair:
    """One sync and one async session over twin deployments."""

    def __init__(self, sync_conn, async_conn):
        self.sync = sync_conn
        self.aio = async_conn

    async def rows(self, sql, params=()):
        """Run on both tiers; assert identical rows; return them."""
        sync_rows = self.sync.cursor().execute(sql, params).fetchall()
        cursor = await self.aio.execute(sql, params)
        async_rows = await cursor.fetchall()
        assert async_rows == sync_rows
        return async_rows


@pytest.fixture(params=["inprocess", "remote"])
def make_pair(request):
    """An async factory for a :class:`Pair`, plus deterministic teardown."""
    cleanup = []

    async def build() -> Pair:
        if request.param == "remote":
            from repro.net import RemoteServer, start_server

            daemons = []
            for _ in range(2):
                net_server, _thread = start_server(sdb_server=SDBServer())
                daemons.append(net_server)
                cleanup.append(
                    lambda s=net_server: (s.shutdown(), s.server_close())
                )
            sync_conn = api.connect(
                server=RemoteServer.connect("127.0.0.1", daemons[0].port),
                modulus_bits=256, value_bits=64, rng=seeded_rng(501),
            )
            async_conn = await aio.aconnect(
                host="127.0.0.1", port=daemons[1].port,
                modulus_bits=256, value_bits=64, rng=seeded_rng(501),
            )
        else:
            sync_conn = api.connect(
                server=SDBServer(), modulus_bits=256, value_bits=64,
                rng=seeded_rng(501),
            )
            async_conn = await aio.aconnect(
                server=SDBServer(), modulus_bits=256, value_bits=64,
                rng=seeded_rng(501),
            )
        _load(sync_conn)
        await async_conn.run_sync(_load)
        pair = Pair(sync_conn, async_conn)
        cleanup.append(sync_conn.close)
        return pair

    yield build
    for fn in reversed(cleanup):
        try:
            fn()
        except Exception:
            pass


def run_pair(make_pair, body):
    """Build the pair, run ``await body(pair)``, close the async side."""

    async def main():
        pair = await make_pair()
        try:
            await body(pair)
        finally:
            await pair.aio.close()

    asyncio.run(main())


# -- module shape ------------------------------------------------------------


def test_async_exceptions_are_the_sync_exceptions():
    assert aio.AsyncConnection.ProgrammingError is api.ProgrammingError
    assert aio.AsyncConnection.OperationalError is api.OperationalError
    assert issubclass(aio.AsyncConnection.DatabaseError, api.Error)


# -- fetch surface, row for row ----------------------------------------------


def test_execute_and_fetchall_parity(make_pair):
    async def body(pair):
        rows = await pair.rows("SELECT id FROM pay WHERE dept = 'eng'")
        assert rows == [(1,), (3,), (5,)]

    run_pair(make_pair, body)


def test_fetchone_parity_and_exhaustion(make_pair):
    async def body(pair):
        sync_cur = pair.sync.cursor().execute("SELECT id FROM pay WHERE id = 2")
        async_cur = await pair.aio.execute("SELECT id FROM pay WHERE id = 2")
        assert await async_cur.fetchone() == sync_cur.fetchone() == (2,)
        assert await async_cur.fetchone() is None is sync_cur.fetchone()

    run_pair(make_pair, body)


def test_async_iteration_parity(make_pair):
    async def body(pair):
        sync_rows = [
            row[0]
            for row in pair.sync.cursor().execute("SELECT id FROM pay WHERE id <= 3")
        ]
        cursor = await pair.aio.execute("SELECT id FROM pay WHERE id <= 3")
        async_rows = [row[0] async for row in cursor]
        assert async_rows == sync_rows == [1, 2, 3]

    run_pair(make_pair, body)


def test_fetchmany_parity(make_pair):
    async def body(pair):
        sync_cur = pair.sync.cursor()
        sync_cur.arraysize = 2
        sync_cur.execute("SELECT id FROM pay")
        async_cur = pair.aio.cursor()
        async_cur.arraysize = 2
        await async_cur.execute("SELECT id FROM pay")
        for size in (None, 3, 10, 10):
            assert await async_cur.fetchmany(size) == sync_cur.fetchmany(size)

    run_pair(make_pair, body)


def test_rowcount_and_description_parity(make_pair):
    async def body(pair):
        sync_cur = pair.sync.cursor().execute(
            "SELECT id, dept, sal, hired FROM pay"
        )
        async_cur = await pair.aio.execute("SELECT id, dept, sal, hired FROM pay")
        assert async_cur.rowcount == sync_cur.rowcount == -1  # pipelined
        assert async_cur.description == sync_cur.description
        assert [d[0] for d in async_cur.description] == [
            "id", "dept", "sal", "hired"
        ]
        await async_cur.fetchall()
        sync_cur.fetchall()
        sync_cur.execute("SELECT dept, COUNT(*) AS n FROM pay GROUP BY dept")
        await async_cur.execute(
            "SELECT dept, COUNT(*) AS n FROM pay GROUP BY dept"
        )
        assert async_cur.rowcount == sync_cur.rowcount == 3

    run_pair(make_pair, body)


def test_sensitive_aggregation_parity(make_pair):
    async def body(pair):
        rows = await pair.rows(
            "SELECT dept, SUM(sal) AS total FROM pay GROUP BY dept ORDER BY dept"
        )
        assert rows == [("eng", 285.0), ("ops", 190.5), ("sales", 95.0)]

    run_pair(make_pair, body)


# -- prepared statements ------------------------------------------------------


def test_prepared_statement_parity(make_pair):
    async def body(pair):
        sync_st = pair.sync.prepare("SELECT COUNT(*) AS c FROM pay WHERE sal > ?")
        async_st = await pair.aio.prepare(
            "SELECT COUNT(*) AS c FROM pay WHERE sal > ?"
        )
        sync_cur = pair.sync.cursor()
        async_cur = pair.aio.cursor()
        for threshold in (100.0, 90.0, 200.0):
            sync_row = sync_cur.execute(sync_st, [threshold]).fetchone()
            await async_cur.execute(async_st, [threshold])
            assert await async_cur.fetchone() == sync_row
        assert async_st.plan_variants == sync_st.plan_variants == 1
        assert async_st.signatures() == sync_st.signatures()

    run_pair(make_pair, body)


def test_prepared_type_signatures_parity(make_pair):
    async def body(pair):
        sql = "SELECT SUM(sal * ?) AS s FROM pay WHERE dept = 'eng'"
        sync_st = pair.sync.prepare(sql)
        async_st = await pair.aio.prepare(sql)
        for value in (2, 0.5):
            sync_row = pair.sync.cursor().execute(sync_st, [value]).fetchone()
            cursor = await pair.aio.execute(async_st, [value])
            assert await cursor.fetchone() == sync_row
        # int and decimal parameters need different ring scales
        assert async_st.plan_variants == sync_st.plan_variants == 2

    run_pair(make_pair, body)


def test_parameter_count_mismatch_parity(make_pair):
    async def body(pair):
        sync_st = pair.sync.prepare("SELECT id FROM pay WHERE sal > ?")
        async_st = await pair.aio.prepare("SELECT id FROM pay WHERE sal > ?")
        with pytest.raises(api.ProgrammingError):
            pair.sync.cursor().execute(sync_st, [])
        with pytest.raises(api.ProgrammingError):
            await pair.aio.cursor().execute(async_st, [])

    run_pair(make_pair, body)


def test_null_parameter_parity(make_pair):
    async def body(pair):
        rows = await pair.rows("SELECT id FROM pay WHERE sal > ?", [None])
        assert rows == []

    run_pair(make_pair, body)


# -- DML ----------------------------------------------------------------------


def test_dml_parity(make_pair):
    async def body(pair):
        insert = "INSERT INTO pay (id, dept, sal, hired) VALUES (?, ?, ?, ?)"
        params = [7, "hr", 70.0, datetime.date(2024, 1, 1)]
        sync_cur = pair.sync.cursor().execute(insert, params)
        async_cur = await pair.aio.execute(insert, params)
        assert async_cur.rowcount == sync_cur.rowcount == 1
        assert async_cur.description is None is sync_cur.description
        assert await pair.rows("SELECT COUNT(*) AS c FROM pay") == [(7,)]
        sync_cur.execute("DELETE FROM pay WHERE id = ?", [7])
        await async_cur.execute("DELETE FROM pay WHERE id = ?", [7])
        assert async_cur.rowcount == sync_cur.rowcount == 1

    run_pair(make_pair, body)


def test_executemany_parity(make_pair):
    async def body(pair):
        insert = "INSERT INTO pay (id, dept, sal, hired) VALUES (?, ?, ?, ?)"
        batch = [
            [10, "hr", 50.0, datetime.date(2024, 1, 1)],
            [11, "hr", 52.0, datetime.date(2024, 2, 1)],
        ]
        sync_cur = pair.sync.cursor().executemany(insert, batch)
        async_cur = await pair.aio.executemany(insert, batch)
        assert async_cur.rowcount == sync_cur.rowcount == 2
        assert await pair.rows(
            "SELECT COUNT(*) AS c FROM pay WHERE dept = 'hr'"
        ) == [(2,)]

    run_pair(make_pair, body)


def test_executemany_rejects_select_identically(make_pair):
    async def body(pair):
        with pytest.raises(api.ProgrammingError) as sync_err:
            pair.sync.cursor().executemany("SELECT id FROM pay", [[]])
        with pytest.raises(api.ProgrammingError) as async_err:
            await pair.aio.cursor().executemany("SELECT id FROM pay", [[]])
        assert str(async_err.value) == str(sync_err.value)
        assert "select statement" in str(async_err.value)

    run_pair(make_pair, body)


# -- transactions --------------------------------------------------------------


def test_transaction_parity(make_pair):
    async def body(pair):
        pair.sync.begin()
        pair.sync.cursor().execute("DELETE FROM pay WHERE dept = 'eng'")
        pair.sync.rollback()
        await pair.aio.begin()
        await (pair.aio.cursor()).execute("DELETE FROM pay WHERE dept = 'eng'")
        await pair.aio.rollback()
        assert await pair.rows("SELECT COUNT(*) AS c FROM pay") == [(6,)]

        pair.sync.begin()
        pair.sync.cursor().execute("DELETE FROM pay WHERE id = 6")
        pair.sync.commit()
        await pair.aio.begin()
        await (pair.aio.cursor()).execute("DELETE FROM pay WHERE id = 6")
        await pair.aio.commit()
        assert await pair.rows("SELECT COUNT(*) AS c FROM pay") == [(5,)]

    run_pair(make_pair, body)


# -- errors --------------------------------------------------------------------


@pytest.mark.parametrize("sql,expected", [
    ("SELEKT id FROM pay", api.ProgrammingError),
    ("SELECT id FROM missing", api.ProgrammingError),
    ("SELECT sal FROM pay WHERE sal LIKE 'x%'", api.NotSupportedError),
])
def test_error_class_parity(make_pair, sql, expected):
    async def body(pair):
        with pytest.raises(expected) as sync_err:
            pair.sync.cursor().execute(sql)
        with pytest.raises(expected) as async_err:
            await pair.aio.cursor().execute(sql)
        assert type(async_err.value) is type(sync_err.value)
        assert str(async_err.value) == str(sync_err.value)

    run_pair(make_pair, body)


# -- lifecycle -----------------------------------------------------------------


def test_closed_handles_raise_interface_error(make_pair):
    async def body(pair):
        cursor = pair.aio.cursor()
        await cursor.close()
        with pytest.raises(api.InterfaceError):
            await cursor.execute("SELECT id FROM pay")
        with pytest.raises(api.InterfaceError):
            await pair.aio.cursor().fetchone()

    run_pair(make_pair, body)


def test_close_then_cursor_raises(make_pair):
    async def body(pair):
        async with pair.aio as conn:
            cursor = await conn.execute("SELECT id FROM pay WHERE id = 1")
            assert await cursor.fetchone() == (1,)
        with pytest.raises(api.InterfaceError):
            pair.aio.cursor()

    run_pair(make_pair, body)


# -- statement cache -----------------------------------------------------------


def test_statement_cache_parity(make_pair):
    async def body(pair):
        for _ in range(3):
            await pair.rows("SELECT id FROM pay WHERE id = 1")
        sync_info = pair.sync.cache_info()
        async_info = pair.aio.cache_info()
        assert (async_info.hits, async_info.misses) == (
            sync_info.hits, sync_info.misses
        )
        assert pair.aio.cached_statements() == pair.sync.cached_statements()

    run_pair(make_pair, body)


# -- session context -----------------------------------------------------------


def test_context_accumulates_leakage_and_epoch(make_pair):
    async def body(pair):
        await pair.rows("SELECT SUM(sal) AS s FROM pay")
        context = pair.aio.context
        assert context.executions >= 1
        assert any("sum" in entry.lower() for entry in context.leakage_report())
        sync_context = pair.sync.context
        assert sync_context.session_id != context.session_id

    run_pair(make_pair, body)


# -- concurrency ---------------------------------------------------------------


def test_gathered_sessions_return_identical_results(make_pair):
    """N concurrent async sessions see exactly the single-session answer."""

    async def body(pair):
        expected = await pair.rows(
            "SELECT dept, SUM(sal) AS t FROM pay GROUP BY dept ORDER BY dept"
        )

        async def one_session():
            cursor = await pair.aio.execute(
                "SELECT dept, SUM(sal) AS t FROM pay GROUP BY dept ORDER BY dept"
            )
            return await cursor.fetchall()

        results = await asyncio.gather(*[one_session() for _ in range(4)])
        assert all(result == expected for result in results)

    run_pair(make_pair, body)
