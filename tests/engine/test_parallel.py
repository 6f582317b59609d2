"""Partial/merge parallel execution on the cluster tier.

Section 2.2's parallelism and fault tolerance come from the engine under
the UDFs: an in-process :class:`~repro.cluster.Coordinator` hash-partitions
encrypted tables over shard servers, runs the :mod:`repro.engine.partial`
split (a partial query per shard plus a merge over the union of partials)
and retries reads on a surviving replica when a shard member dies.  Every
answer is pinned against the serial plaintext engine; queries the split
cannot express fall back with a stated reason.
"""

import pytest

import repro.api as api
from repro.cluster import Coordinator, ShardGroup
from repro.cluster.faults import FaultInjector, FaultyBackend
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.core.udfs import register_sdb_udfs
from repro.crypto.prf import seeded_rng
from repro.engine import Catalog, ColumnSpec, DataType, Engine, Schema, Table
from repro.engine.partial import ineligibility
from repro.engine.udf import UDFRegistry
from repro.sql.parser import parse

REGIONS = ["east", "west", "north", "south"]

SALES_COLUMNS = [
    ("id", ValueType.int_()),
    ("region", ValueType.string(8)),
    ("qty", ValueType.int_()),
    ("price", ValueType.decimal(2)),
]


def _sales_rows(rows=60) -> list:
    return [
        (i, REGIONS[i % 4], (i * 7) % 13 + 1, float((i * 31) % 97) + 0.5)
        for i in range(rows)
    ]


def _sales_table(rows=60) -> Table:
    schema = Schema(
        (
            ColumnSpec("id", DataType.INT),
            ColumnSpec("region", DataType.STRING),
            ColumnSpec("qty", DataType.INT),
            ColumnSpec("price", DataType.DECIMAL, scale=2),
        )
    )
    return Table.from_rows(schema, _sales_rows(rows))


def _cluster(shards, rows=60, **kwargs):
    conn = api.connect(
        shards=shards, modulus_bits=256, value_bits=64, rng=seeded_rng(61),
        **kwargs,
    )
    conn.proxy.create_table(
        "sales", SALES_COLUMNS, _sales_rows(rows), sensitive=["qty"],
        rng=seeded_rng(62), shard_by="id",
    )
    return conn


@pytest.fixture(scope="module")
def engines():
    catalog = Catalog()
    catalog.create("sales", _sales_table())
    conn = _cluster(4)
    yield conn, Engine(catalog)
    conn.close()


def assert_equivalent(engines, sql, ordered=False):
    """Cluster answer == serial plaintext answer; returns the route report."""
    cluster, serial = engines
    expected = serial.execute(sql)
    cursor = cluster.cursor().execute(sql)
    actual_rows = cursor.fetchall()
    assert tuple(d[0] for d in cursor.description) == tuple(expected.schema.names)
    expected_rows = list(expected.rows())
    if not ordered:
        expected_rows = sorted(expected_rows, key=repr)
        actual_rows = sorted(actual_rows, key=repr)
    assert len(actual_rows) == len(expected_rows)
    for e, a in zip(expected_rows, actual_rows):
        for ev, av in zip(e, a):
            if isinstance(ev, float):
                assert av == pytest.approx(ev, rel=1e-9)
            else:
                assert av == ev
    return cursor.report.scatter


def _shard_rows(conn, name="sales") -> list[int]:
    return [
        shard.catalog.get(name).num_rows if name in shard.catalog.names() else 0
        for shard in conn.proxy.server.shards
    ]


# -- partitioning -------------------------------------------------------------


def test_partition_preserves_rows():
    conn = _cluster(5, rows=17)
    try:
        assert sum(_shard_rows(conn)) == 17
        rows = conn.cursor().execute("SELECT id FROM sales").fetchall()
        assert sorted(r[0] for r in rows) == list(range(17))
    finally:
        conn.close()


def test_partition_more_than_rows():
    conn = _cluster(8, rows=2)
    try:
        sizes = _shard_rows(conn)
        assert sum(sizes) == 2
        assert sum(1 for size in sizes if size) <= 2
    finally:
        conn.close()


def test_partition_empty_table():
    conn = _cluster(4, rows=0)
    try:
        assert _shard_rows(conn) == [0, 0, 0, 0]
        count = conn.cursor().execute("SELECT COUNT(*) AS c FROM sales")
        assert count.fetchall() == [(0,)]
    finally:
        conn.close()


def test_partition_rejects_zero():
    from repro.cluster.coordinator import ShardError

    with pytest.raises(ShardError):
        Coordinator([])


# -- partial/merge == serial ------------------------------------------------------


def test_scan_filter_project(engines):
    route = assert_equivalent(
        engines, "SELECT id, qty * 2 AS dqty FROM sales WHERE qty > 5"
    )
    assert route.mode == "scatter"
    assert route.shards == 4


def test_global_sum(engines):
    route = assert_equivalent(engines, "SELECT SUM(qty) AS total FROM sales")
    assert route.mode == "scatter"


def test_global_count_star(engines):
    assert_equivalent(engines, "SELECT COUNT(*) AS c FROM sales")


def test_global_min_max(engines):
    assert_equivalent(
        engines, "SELECT MIN(price) AS lo, MAX(price) AS hi FROM sales"
    )


def test_global_avg(engines):
    assert_equivalent(engines, "SELECT AVG(qty) AS mean FROM sales")


def test_grouped_aggregates(engines):
    route = assert_equivalent(
        engines,
        "SELECT region, COUNT(*) AS c, SUM(qty) AS q, AVG(price) AS p "
        "FROM sales GROUP BY region",
    )
    assert route.mode == "scatter"


def test_grouped_with_having(engines):
    assert_equivalent(
        engines,
        "SELECT region, SUM(qty) AS q FROM sales GROUP BY region "
        "HAVING SUM(qty) > 50",
    )


def test_grouped_with_order_and_limit(engines):
    assert_equivalent(
        engines,
        "SELECT region, SUM(qty) AS q FROM sales GROUP BY region "
        "ORDER BY q DESC LIMIT 2",
        ordered=True,
    )


def test_aggregate_expression_of_aggregates(engines):
    assert_equivalent(
        engines,
        "SELECT SUM(price) / COUNT(*) AS unit FROM sales WHERE qty >= 3",
    )


def test_scan_order_by_selected_column(engines):
    route = assert_equivalent(
        engines,
        "SELECT id, price FROM sales WHERE region = 'east' ORDER BY price DESC",
        ordered=True,
    )
    assert route.mode == "scatter"


def test_distinct_scan(engines):
    assert_equivalent(engines, "SELECT DISTINCT region FROM sales")


def test_empty_result(engines):
    assert_equivalent(engines, "SELECT SUM(qty) AS t FROM sales WHERE qty > 999")


def test_aggregate_over_empty_group_count_is_zero(engines):
    cluster, _ = engines
    cursor = cluster.cursor().execute("SELECT COUNT(*) AS c FROM sales WHERE id < 0")
    assert cursor.fetchall() == [(0,)]


# -- fallback --------------------------------------------------------------------


def _reason(sql):
    udfs = UDFRegistry()
    register_sdb_udfs(udfs)
    return ineligibility(parse(sql), udfs, {"sales", "sales2"})


def test_join_falls_back():
    reason = _reason("SELECT s.id FROM sales s, sales2 t WHERE s.id = t.id")
    assert "single base table" in reason


def test_subquery_falls_back():
    reason = _reason(
        "SELECT id FROM sales WHERE qty > (SELECT AVG(qty) FROM sales)"
    )
    assert "subquery" in reason


def test_distinct_aggregate_falls_back():
    assert "DISTINCT" in _reason("SELECT COUNT(DISTINCT region) AS c FROM sales")


def test_unresolvable_order_by_falls_back():
    assert _reason("SELECT id FROM sales ORDER BY qty * price") is not None


def test_fallback_matches_serial(engines):
    # fallback results must still be correct
    route = assert_equivalent(
        engines, "SELECT COUNT(DISTINCT region) AS c FROM sales"
    )
    assert route.mode != "scatter"


# -- fault tolerance ----------------------------------------------------------------


def _replicated(injector):
    groups = [
        ShardGroup(
            [
                FaultyBackend(SDBServer(shard_id=g), f"s{g}r{o}", injector)
                for o in range(2)
            ]
        )
        for g in range(4)
    ]
    conn = api.connect(
        server=Coordinator(groups), modulus_bits=256, value_bits=64,
        rng=seeded_rng(63),
    )
    conn.proxy.create_table(
        "sales", SALES_COLUMNS, _sales_rows(40), sensitive=["qty"],
        rng=seeded_rng(64), shard_by="id",
    )
    return conn


def test_injected_failures_are_retried():
    injector = FaultInjector()
    conn = _replicated(injector)
    try:
        injector.kill("s0r0")
        injector.kill("s2r1")
        expected = sum(qty for _, _, qty, _ in _sales_rows(40))
        events = []
        # reads rotate over a group's members: a few queries hit both kills
        for _ in range(4):
            cursor = conn.execute("SELECT SUM(qty) AS total FROM sales")
            assert cursor.fetchall() == [(expected,)]
            assert cursor.report.scatter.mode == "scatter"
            events += cursor.report.failover
        assert any("promote" in event for event in events)
    finally:
        conn.close()


def test_exhausted_retries_raise():
    injector = FaultInjector()
    conn = _replicated(injector)
    try:
        injector.kill("s1r0")
        injector.kill("s1r1")
        with pytest.raises(api.ShardUnavailableError):
            conn.execute("SELECT SUM(qty) AS total FROM sales").fetchall()
    finally:
        conn.close()


# -- encrypted parallel execution ------------------------------------------------------


def test_sdb_share_sums_parallelize():
    """Encrypted SUM must produce identical plaintext on one SP and on shards."""
    rows = [(i, float(i)) for i in range(1, 41)]
    results = {}
    for shards in (None, 4):
        conn = api.connect(shards=shards, modulus_bits=256, value_bits=64,
                           rng=seeded_rng(77))
        conn.proxy.create_table(
            "pay",
            [("id", ValueType.int_()), ("amount", ValueType.decimal(2))],
            rows,
            sensitive=["amount"],
            rng=seeded_rng(78),
            shard_by="id" if shards else None,
        )
        cursor = conn.execute("SELECT SUM(amount) AS total FROM pay")
        results[shards] = cursor.fetchone()[0]
        if shards:
            assert cursor.report.scatter.mode == "scatter"
        conn.close()
    assert results[4] == pytest.approx(results[None])
    assert results[None] == pytest.approx(sum(v for _, v in rows))
