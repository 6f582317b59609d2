"""The connection's LRU statement cache and plan invalidation."""

import pytest

import repro.api as api
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


@pytest.fixture()
def conn():
    connection = api.connect(
        server=SDBServer(), modulus_bits=256, value_bits=64,
        rng=seeded_rng(601), statement_cache_size=3,
    )
    connection.proxy.create_table(
        "t",
        [("id", ValueType.int_()), ("v", ValueType.decimal(2))],
        [(i, 10.0 * i) for i in range(1, 9)],
        sensitive=["v"],
        rng=seeded_rng(602),
    )
    yield connection
    connection.close()


def test_hit_and_miss_counters(conn):
    cur = conn.cursor()
    assert conn.cache_info() == (0, 0, 3, 0, 0)
    cur.execute("SELECT id FROM t WHERE v > 20").fetchall()
    assert conn.cache_info().misses == 1
    assert conn.cache_info().hits == 0
    cur.execute("SELECT id FROM t WHERE v > 20").fetchall()
    cur.execute("SELECT id FROM t WHERE v > 20").fetchall()
    info = conn.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def test_prepare_populates_the_same_cache(conn):
    st = conn.prepare("SELECT id FROM t WHERE v > ?")
    assert conn.cache_info().misses == 1
    again = conn.prepare("SELECT id FROM t WHERE v > ?")
    assert again is st
    assert conn.cache_info().hits == 1


def test_eviction_order_is_lru(conn):
    a, b, c = ("SELECT id FROM t WHERE id = 1", "SELECT id FROM t WHERE id = 2",
               "SELECT id FROM t WHERE id = 3")
    sa = conn.statement(a)
    conn.statement(b)
    conn.statement(c)
    assert conn.cached_statements() == [a, b, c]
    conn.statement(a)  # touch a: b becomes least recently used
    assert conn.cached_statements() == [b, c, a]
    conn.statement("SELECT id FROM t WHERE id = 4")  # evicts b
    cached = conn.cached_statements()
    assert b not in cached
    assert a in cached and c in cached
    assert not sa.closed


def test_evicted_statement_stays_usable_while_held(conn):
    """Eviction drops the cache's reference only: a statement the
    application still holds (e.g. from prepare) keeps executing, and its
    server-side handles are released when it is garbage-collected."""
    held = conn.prepare("SELECT id FROM t WHERE v > ?")
    held.execute((30.0,)).fetch_rest()
    for i in range(2, 7):  # overflow the 3-slot cache
        conn.statement(f"SELECT id FROM t WHERE id = {i}")
    assert held.sql not in conn.cached_statements()
    assert not held.closed
    rows = conn.cursor().execute(held, [30.0]).fetchall()
    assert rows == [(4,), (5,), (6,), (7,), (8,)]

    stmt_ids = [stmt_id for _, stmt_id in held._server_handles]
    assert stmt_ids and all(
        sid in conn.proxy.server._prepared for sid in stmt_ids
    )
    del held
    import gc

    gc.collect()
    assert all(sid not in conn.proxy.server._prepared for sid in stmt_ids)


def test_sql_level_begin_is_seen_by_connection_commit(conn):
    """BEGIN issued through a cursor must make Connection.commit() real."""
    cur = conn.cursor()
    cur.execute("BEGIN")
    cur.execute("UPDATE t SET v = v + 1.0 WHERE id = 1")
    conn.commit()  # must actually COMMIT, not no-op
    assert not conn.proxy.server.in_transaction
    # a rollback after the commit must not revert the committed change
    conn.begin()
    conn.rollback()
    assert conn.cursor().execute("SELECT v FROM t WHERE id = 1").fetchone() \
        == (11.0,)


def test_fetch_table_after_fetchone_returns_buffered_rows(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM t WHERE id <= 4")
    assert cur.fetchone() == (1,)  # small result: refill consumes it all
    table = cur.fetch_table()
    assert list(table.rows()) == [(2,), (3,), (4,)]
    assert table.schema.names == ("id",) or list(table.schema.names) == ["id"]


def test_reexecution_skips_parse_and_rewrite(conn):
    cur = conn.cursor()
    cur.execute("SELECT SUM(v) AS s FROM t").fetchall()
    first = cur.report.cost
    assert first.parse_s > 0 or first.rewrite_s > 0
    cur.execute("SELECT SUM(v) AS s FROM t").fetchall()
    second = cur.report.cost
    assert second.parse_s == 0.0
    assert second.rewrite_s < max(first.rewrite_s, 1e-4)


def test_plan_variants_per_type_signature(conn):
    st = conn.prepare("SELECT SUM(v * ?) AS s FROM t")
    cur = conn.cursor()
    cur.execute(st, [2]).fetchall()
    cur.execute(st, [3]).fetchall()
    assert st.plan_variants == 1
    cur.execute(st, [0.5]).fetchall()
    assert st.plan_variants == 2


# -- invalidation ------------------------------------------------------------


def test_rotate_column_key_invalidates_cached_plan(conn):
    """A cached rewrite embeds key-update parameters of the old column key;
    after rotation the statement must re-rewrite -- and the re-bound plan
    must decrypt correctly."""
    st = conn.prepare("SELECT SUM(v) AS s FROM t WHERE v > ?")
    cur = conn.cursor()
    assert cur.execute(st, [35.0]).fetchone() == (300.0,)
    old_plan = st._variants[next(iter(st._variants))].plan

    conn.proxy.rotate_column_key("t", "v")

    assert cur.execute(st, [35.0]).fetchone() == (300.0,)
    new_plan = st._variants[next(iter(st._variants))].plan
    assert new_plan is not old_plan  # plan was rebuilt, not reused
    # and different parameters still bind correctly against the new plan
    assert cur.execute(st, [65.0]).fetchone() == (150.0,)


def test_rotate_aux_key_invalidates_too(conn):
    st = conn.prepare("SELECT SUM(v) AS s FROM t")
    cur = conn.cursor()
    before = cur.execute(st, ()).fetchone()
    conn.proxy.rotate_aux_key("t")
    assert cur.execute(st, ()).fetchone() == before


def test_views_reject_parameter_markers(conn):
    from repro.core.rewriter import RewriteError

    with pytest.raises(RewriteError, match="unbound parameter"):
        conn.proxy.create_view("leaky", "SELECT id FROM t WHERE v > ?")
    assert not conn.proxy.store.is_view("leaky")


def test_view_change_invalidates_cached_plan(conn):
    conn.proxy.create_view("big", "SELECT id, v FROM t WHERE v > 40")
    st = conn.prepare("SELECT COUNT(*) AS c FROM big")
    cur = conn.cursor()
    assert cur.execute(st, ()).fetchone() == (4,)
    conn.proxy.create_view("big", "SELECT id, v FROM t WHERE v > 60",
                           replace=True)
    assert cur.execute(st, ()).fetchone() == (2,)


def test_parameterized_plan_declares_mask_reuse(conn):
    """Caching trades freshness of comparison masks for speed; the plan
    must say so, the way every other leakage source is declared."""
    cur = conn.cursor()
    cur.execute(conn.prepare("SELECT id FROM t WHERE v > ?"), [30.0])
    assert any(entry.startswith("prepared:") for entry in cur.report.leakage)
    # a parameterless statement has nothing reused worth declaring beyond
    # its ordinary per-query leakage
    cur.execute("SELECT id FROM t WHERE v > 30")
    assert not any(entry.startswith("prepared:") for entry in cur.report.leakage)


def test_rebinding_remasks_the_wire_literals(conn):
    """Two binds of one cached plan must be unlinkable at the SP.

    Deferred mask sites re-draw their comparison masks / equality tokens
    per bind, so even identical parameter values produce different wire
    literals -- while the decrypted answers stay identical."""
    server = conn.proxy.server
    seen = []
    original = server.execute_prepared

    def spy(stmt_id, literals, **kwargs):
        seen.append(tuple(literals))
        return original(stmt_id, literals, **kwargs)

    server.execute_prepared = spy
    try:
        cur = conn.cursor()
        for sql in ("SELECT id FROM t WHERE v > ?",
                    "SELECT id FROM t WHERE v = ?"):
            seen.clear()
            st = conn.prepare(sql)
            first = cur.execute(st, [30.0]).fetchall()
            second = cur.execute(st, [30.0]).fetchall()
            assert first == second
            assert st.plan_variants == 1  # one cached plan, re-bound
            assert len(seen) == 2
            assert seen[0] != seen[1], f"binds of {sql!r} are linkable"
    finally:
        server.execute_prepared = original


def test_parameterless_cached_plans_remask_too(conn):
    """String re-execution of an unparameterized sensitive query reuses the
    cached plan -- its masks must still differ between executions."""
    server = conn.proxy.server
    seen = []
    original = server.execute_prepared

    def spy(stmt_id, literals, **kwargs):
        seen.append(tuple(literals))
        return original(stmt_id, literals, **kwargs)

    server.execute_prepared = spy
    try:
        cur = conn.cursor()
        first = cur.execute("SELECT id FROM t WHERE v > 30").fetchall()
        second = cur.execute("SELECT id FROM t WHERE v > 30").fetchall()
    finally:
        server.execute_prepared = original
    assert first == second
    assert conn.cache_info().hits >= 1
    assert len(seen) == 2
    assert seen[0] and seen[0] != seen[1]


def test_abandoned_result_sets_are_released_on_gc(conn):
    """A cursor dropped mid-fetch must not pin its encrypted result at the
    SP: the execution's finalizer closes the server-side result set."""
    import gc

    server = conn.proxy.server
    for _ in range(4):
        cur = conn.cursor()
        cur.execute("SELECT id, v FROM t")
        cur.fetchone()  # reads one chunk... then the cursor is abandoned
        del cur
    gc.collect()
    assert server._results == {}


def test_unbound_dml_parameters_raise_cleanly(conn):
    import repro.api as api

    with pytest.raises(api.ProgrammingError, match="parameter"):
        conn.cursor().execute("DELETE FROM t WHERE v = ?", [1.0, 2.0])
    # the raw proxy path gets the same clean error, not an AttributeError
    from repro.core.rewriter import RewriteError

    for sql in ("DELETE FROM t WHERE v = ?",
                "UPDATE t SET v = ? WHERE id = 1",
                "INSERT INTO t (id, v) VALUES (?, ?)"):
        with pytest.raises(RewriteError, match="unbound parameter"):
            conn.proxy.execute(sql)


def test_close_rolls_back_open_transaction():
    """PEP-249: closing a connection with work pending rolls it back --
    and must free the server's single-writer transaction slot."""
    server = SDBServer()
    conn = api.connect(server=server, modulus_bits=256, value_bits=64,
                       rng=seeded_rng(621))
    conn.proxy.create_table(
        "t", [("a", ValueType.int_())], [(1,), (2,)], sensitive=["a"],
        rng=seeded_rng(622),
    )
    conn.begin()
    conn.cursor().execute("DELETE FROM t")
    conn.close()
    assert not server.in_transaction
    other = api.connect(proxy=_reattach(conn, server))
    assert other.cursor().execute("SELECT COUNT(*) AS c FROM t").fetchone() \
        == (2,)
    other.begin()  # the transaction slot must be free again
    other.rollback()


def _reattach(closed_conn, server):
    # the key store survives the closed connection; reuse its proxy
    return closed_conn.proxy


def test_plan_variants_are_capped(conn):
    st = conn.prepare("SELECT SUM(v * ?) AS s FROM t")
    cur = conn.cursor()
    # one signature per float precision: 0.5, 0.25, 0.125, ...
    for i in range(st.MAX_PLAN_VARIANTS + 4):
        cur.execute(st, [1 / (2 ** (i + 1))]).fetchall()
    assert st.plan_variants <= st.MAX_PLAN_VARIANTS
    # evicted variants released their server-side handles
    assert len(st._server_handles) <= st.MAX_PLAN_VARIANTS


def test_store_version_counter_moves():
    connection = api.connect(
        server=SDBServer(), modulus_bits=256, value_bits=64, rng=seeded_rng(611)
    )
    store = connection.proxy.store
    v0 = store.version
    connection.proxy.create_table(
        "x", [("a", ValueType.int_())], [(1,)], sensitive=["a"],
        rng=seeded_rng(612),
    )
    assert store.version > v0
    v1 = store.version
    connection.proxy.rotate_column_key("x", "a")
    assert store.version > v1
    connection.close()
