"""Scatter-gather coordination over in-process shards."""

import pytest

import repro.api as api
from repro.cluster import Coordinator, ShardError
from repro.cluster.coordinator import MATERIALIZED_PREFIX
from repro.core import security
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng

from tests.cluster.conftest import ROWS


def rows_of(conn, sql):
    cur = conn.cursor()
    cur.execute(sql)
    return cur.fetchall()


def normalized(rows):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )


# -- placement ----------------------------------------------------------------


def test_placement_splits_every_row_once(cluster):
    _, coord = cluster
    counts = [status["tables"]["pay"] for status in coord.shard_status()]
    assert sum(counts) == len(ROWS)
    # a PRF split of 60 rows over 4 shards should touch every shard
    assert all(count > 0 for count in counts)
    assert coord.shard_column("pay") == "id"


def test_unsharded_tables_live_on_the_primary(cluster):
    conn, coord = cluster
    conn.proxy.create_table(
        "dim", [("k", ValueType.int_())], [(1,), (2,)], rng=seeded_rng(8)
    )
    statuses = coord.shard_status()
    assert statuses[0]["tables"]["dim"] == 2
    assert all("dim" not in s["tables"] for s in statuses[1:])


def test_shard_placement_metadata_recorded(cluster):
    _, coord = cluster
    for index, status in enumerate(coord.shard_status()):
        placed = status["placements"]["pay"]
        assert placed["index"] == index
        assert placed["of"] == 4
        assert placed["shard_by"] == "id"


# -- query routing -------------------------------------------------------------


@pytest.mark.parametrize("sql", [
    "SELECT SUM(amount) AS total FROM pay",
    "SELECT COUNT(*) AS n FROM pay WHERE id <= 30",
    "SELECT region, SUM(amount) AS t, COUNT(*) AS n, AVG(amount) AS a "
    "FROM pay GROUP BY region ORDER BY region",
    "SELECT MIN(id) AS lo, MAX(id) AS hi FROM pay",
    # MIN/MAX over a *sensitive* column rewrites to sdb_agg_min/max, whose
    # partials re-merge by comparing per-shard (token, share) winners
    "SELECT MIN(amount) AS lo, MAX(amount) AS hi FROM pay",
    "SELECT MIN(amount) AS lo FROM pay WHERE id <= 40",
    "SELECT id, amount FROM pay WHERE id BETWEEN 5 AND 25 ORDER BY id",
    "SELECT id FROM pay WHERE region = 'east' ORDER BY id DESC LIMIT 4",
])
def test_scatter_matches_single_node(single, cluster, sql):
    conn, coord = cluster
    assert normalized(rows_of(conn, sql)) == normalized(rows_of(single, sql))
    assert coord.last_scatter.mode == "scatter"
    assert coord.last_scatter.shards == 4


@pytest.mark.parametrize("sql", [
    # self join off the shard key (the + 0 defeats the equi-edge)
    "SELECT COUNT(*) AS n FROM pay a, pay b WHERE a.id = b.id + 0",
    # DISTINCT aggregate: partials do not merge
    "SELECT COUNT(DISTINCT region) AS n FROM pay",
    # subquery
    "SELECT COUNT(*) AS n FROM pay WHERE amount > "
    "(SELECT AVG(amount) FROM pay)",
])
def test_fallback_matches_single_node(single, cluster, sql):
    conn, coord = cluster
    assert normalized(rows_of(conn, sql)) == normalized(rows_of(single, sql))
    assert coord.last_scatter.mode == "fallback"


def test_coshard_self_join_matches_single_node(single, cluster):
    """A self-join on the shard key runs shard-local, never gathered."""
    sql = "SELECT COUNT(*) AS n FROM pay a, pay b WHERE a.id = b.id"
    conn, coord = cluster
    assert normalized(rows_of(conn, sql)) == normalized(rows_of(single, sql))
    assert coord.last_scatter.mode == "coshard"
    assert (MATERIALIZED_PREFIX + "pay") not in coord.primary.catalog


def test_primary_route_for_unsharded_tables(cluster):
    conn, coord = cluster
    from repro.core.meta import ValueType

    conn.proxy.create_table(
        "tiny", [("k", ValueType.int_())], [(1,), (2,), (3,)], rng=seeded_rng(9)
    )
    assert rows_of(conn, "SELECT COUNT(*) AS n FROM tiny") == [(3,)]
    assert coord.last_scatter.mode == "primary"


def test_fallback_materialization_is_cached_and_invalidated(cluster):
    conn, coord = cluster
    sql = "SELECT COUNT(*) AS n FROM pay a, pay b WHERE a.id = b.id + 0"
    assert rows_of(conn, sql) == [(60,)]
    primary = coord.primary
    assert (MATERIALIZED_PREFIX + "pay") in primary.catalog
    # cached: a second fallback reuses the gathered copy
    assert rows_of(conn, sql) == [(60,)]
    # DML invalidates it
    conn.execute("DELETE FROM pay WHERE id = 60")
    assert (MATERIALIZED_PREFIX + "pay") not in primary.catalog
    assert rows_of(conn, sql) == [(59,)]


def test_unknown_table_error_parity(cluster):
    conn, _ = cluster
    with pytest.raises(api.exceptions.ProgrammingError):
        conn.execute("SELECT * FROM nope")


# -- DML -----------------------------------------------------------------------


def test_insert_routes_by_prf_bucket(cluster):
    conn, coord = cluster
    before = [s["tables"]["pay"] for s in coord.shard_status()]
    cur = conn.cursor()
    cur.executemany(
        "INSERT INTO pay VALUES (?, ?, ?, ?)",
        [[100 + i, "east", 10.0, None] for i in range(8)],
    )
    assert cur.rowcount == 8
    after = [s["tables"]["pay"] for s in coord.shard_status()]
    assert sum(after) - sum(before) == 8
    assert after != before
    # re-inserting an existing key value must land on the same shard as
    # the upload put it (deterministic routing)
    assert rows_of(conn, "SELECT COUNT(*) AS n FROM pay") == [(68,)]


def test_insert_leakage_declares_shard_routing(cluster):
    conn, _ = cluster
    result = conn.proxy.execute(
        "INSERT INTO pay VALUES (200, 'west', 5.0, DATE '2024-03-01')"
    )
    assert any("shard: PRF bucket" in entry for entry in result.leakage)


def test_update_delete_scatter_and_sum_counts(single, cluster):
    conn, coord = cluster
    sql = "UPDATE pay SET amount = amount + 1 WHERE id <= 20"
    single_cur = single.cursor()
    single_cur.execute(sql)
    cur = conn.cursor()
    cur.execute(sql)
    assert cur.rowcount == single_cur.rowcount == 20
    assert normalized(
        rows_of(conn, "SELECT SUM(amount) AS t FROM pay")
    ) == normalized(rows_of(single, "SELECT SUM(amount) AS t FROM pay"))
    cur.execute("DELETE FROM pay WHERE id > 50")
    assert cur.rowcount == 10
    assert coord.last_scatter.mode == "scatter"  # the follow-up SELECT


def test_unrouted_insert_into_sharded_table_is_refused(cluster):
    _, coord = cluster
    from repro.sql import ast

    statement = ast.Insert(
        table="pay", columns=None, rows=((ast.Literal(1),),)
    )
    with pytest.raises(ShardError):
        coord.execute_dml(statement)


def test_transactions_broadcast_and_rollback(cluster):
    conn, _ = cluster
    conn.begin()
    conn.execute(
        "INSERT INTO pay VALUES (300, 'west', 5.0, DATE '2024-03-01')"
    )
    assert rows_of(conn, "SELECT COUNT(*) AS n FROM pay") == [(61,)]
    conn.rollback()
    assert rows_of(conn, "SELECT COUNT(*) AS n FROM pay") == [(60,)]


def test_failed_autocommit_dml_does_not_bump_epoch(cluster, monkeypatch):
    """Only a *successful* apply advances the snapshot epoch.

    A bumped epoch invalidates every session's prepared-plan routing and
    cached cardinalities; a DML that failed before touching any shard
    must not pay (or hide behind) that cost.
    """
    conn, coord = cluster
    # an unsharded table: its DML takes the single-primary branch
    conn.proxy.create_table(
        "ledger",
        [("id", ValueType.int_()), ("note", ValueType.string(8))],
        [(1, "a"), (2, "b")],
        rng=seeded_rng(9),
    )
    applied = coord.epoch

    def refuse(*args, **kwargs):
        raise RuntimeError("injected: apply failed")

    monkeypatch.setattr(coord.primary, "execute_dml", refuse)
    with pytest.raises(api.OperationalError):
        conn.execute("UPDATE ledger SET note = 'x' WHERE id = 1")
    assert coord.epoch == applied


def test_successful_autocommit_dml_bumps_epoch_once(cluster):
    conn, coord = cluster
    before = coord.epoch
    conn.execute(
        "UPDATE pay SET amount = amount + 1.0 WHERE id = 1"
    )
    assert coord.epoch == before + 1


# -- prepared statements --------------------------------------------------------


def test_prepared_scatter_caches_per_shard_plans(cluster):
    conn, coord = cluster
    statement = conn.prepare("SELECT SUM(amount) AS t FROM pay WHERE id < ?")
    first = conn.cursor().execute(statement, [20]).fetchall()
    cluster_statement = next(iter(coord._prepared.values()))
    assert cluster_statement.forwardable
    assert cluster_statement.shard_handles is not None
    handles = list(cluster_statement.shard_handles)
    second = conn.cursor().execute(statement, [20]).fetchall()
    assert first == second
    assert cluster_statement.shard_handles == handles  # reused, not re-prepared
    bigger = conn.cursor().execute(statement, [100]).fetchall()
    assert bigger[0][0] > first[0][0]


def test_prepared_plans_invalidate_on_keystore_version(cluster):
    conn, _ = cluster
    statement = conn.prepare("SELECT SUM(amount) AS t FROM pay WHERE id < ?")
    before = conn.cursor().execute(statement, [30]).fetchall()
    conn.proxy.store.bump_version()  # table change / key rotation
    after = conn.cursor().execute(statement, [30]).fetchall()
    assert normalized(before) == normalized(after)


def test_select_leakage_includes_cluster_routing(cluster):
    conn, _ = cluster
    cur = conn.cursor()
    cur.execute("SELECT SUM(amount) AS t FROM pay")
    assert any("cluster:" in entry for entry in cur.report.leakage)


# -- DDL -----------------------------------------------------------------------


def test_create_table_shard_by_roundtrip(cluster):
    conn, coord = cluster
    cur = conn.cursor()
    cur.execute(
        "CREATE TABLE ledger (k INT, note STRING(8), v DECIMAL(2) ENCRYPTED) "
        "SHARD BY (k)"
    )
    assert coord.shard_column("ledger") == "k"
    cur.executemany(
        "INSERT INTO ledger VALUES (?, ?, ?)",
        [[i, f"n{i}", float(i)] for i in range(20)],
    )
    counts = [s["tables"].get("ledger", 0) for s in coord.shard_status()]
    assert sum(counts) == 20 and max(counts) < 20
    assert rows_of(conn, "SELECT SUM(v) AS s FROM ledger") == [(190.0,)]


def test_create_table_shard_by_requires_cluster():
    conn = api.connect(modulus_bits=256, value_bits=64, rng=seeded_rng(11))
    with pytest.raises(api.exceptions.ProgrammingError):
        conn.execute("CREATE TABLE t (k INT) SHARD BY (k)")
    conn.close()


def test_create_table_without_sharding_works_anywhere():
    conn = api.connect(modulus_bits=256, value_bits=64, rng=seeded_rng(12))
    conn.execute("CREATE TABLE t (k INT, v DECIMAL(2) ENCRYPTED)")
    conn.execute("INSERT INTO t VALUES (1, 2.5), (2, 3.5)")
    cur = conn.cursor()
    cur.execute("SELECT SUM(v) AS s FROM t")
    assert cur.fetchall() == [(6.0,)]
    conn.close()


# -- security audit -------------------------------------------------------------


def test_declared_leakage_lists_shard_routing():
    assert any("shard-routing" in entry for entry in security.DECLARED_LEAKAGE)


def test_shard_routing_leakage_report(cluster):
    _, coord = cluster
    entries = security.shard_routing_leakage(coord)
    assert len(entries) == 1
    assert "'pay'" in entries[0] and "PRF bucket" in entries[0]


def test_coordinator_requires_a_shard():
    with pytest.raises(ShardError):
        Coordinator([])


def test_single_shard_cluster_behaves_like_single_node(single):
    conn = api.connect(shards=1, modulus_bits=256, value_bits=64, rng=seeded_rng(13))
    from tests.cluster.conftest import load_pay

    load_pay(conn, shard_by="id")
    for sql in (
        "SELECT SUM(amount) AS t FROM pay",
        "SELECT COUNT(*) AS n FROM pay a, pay b WHERE a.id = b.id",
    ):
        assert normalized(rows_of(conn, sql)) == normalized(rows_of(single, sql))
    conn.close()


def test_shards_spec_accepts_server_objects():
    shards = [SDBServer(shard_id=0), SDBServer(shard_id=1)]
    conn = api.connect(
        shards=shards, modulus_bits=256, value_bits=64, rng=seeded_rng(14)
    )
    assert conn.proxy.server.num_shards == 2
    conn.close()


def test_prepared_with_merge_side_parameter_binds_per_execution(cluster):
    """A marker outside the partial query disables handle forwarding."""
    conn, coord = cluster
    statement = conn.prepare("SELECT SUM(amount) + ? AS t FROM pay")
    base = conn.cursor().execute(statement, [0]).fetchall()[0][0]
    shifted = conn.cursor().execute(statement, [100]).fetchall()[0][0]
    assert shifted == pytest.approx(base + 100)
    cluster_statement = next(iter(coord._prepared.values()))
    assert cluster_statement.route[0] == "scatter"
    assert not cluster_statement.forwardable
    assert coord.last_scatter.mode == "scatter"


def test_recreate_sharded_table_as_primary_then_reshard(cluster):
    """Placement transitions must not leave stale slices on other shards."""
    conn, coord = cluster
    proxy = conn.proxy
    columns = [("k", ValueType.int_()), ("v", ValueType.decimal(2))]
    rows = [(i, float(i)) for i in range(1, 13)]
    proxy.create_table("flip", columns, rows, sensitive=["v"],
                       rng=seeded_rng(15), shard_by="k")
    # re-create unsharded: old slices must vanish from the other shards
    proxy.create_table("flip", columns, rows, sensitive=["v"],
                       rng=seeded_rng(16), replace=True)
    assert all("flip" not in s["tables"] for s in coord.shard_status()[1:])
    proxy.drop_table("flip")
    # ...so a later sharded re-creation starts clean
    proxy.create_table("flip", columns, rows, sensitive=["v"],
                       rng=seeded_rng(17), shard_by="k")
    assert sum(s["tables"]["flip"] for s in coord.shard_status()) == 12
    assert rows_of(conn, "SELECT SUM(v) AS s FROM flip") == [(78.0,)]


def test_new_coordinator_bootstraps_placements_from_shards(cluster):
    """Reattaching to loaded shards must route like the original session."""
    conn, coord = cluster
    expected = rows_of(conn, "SELECT SUM(amount) AS t FROM pay")
    reattached = Coordinator(coord.shards)
    assert reattached.shard_column("pay") == "id"
    table = reattached.execute("SELECT COUNT(*) AS n FROM pay")
    assert next(iter(table.rows()))[0] == len(ROWS)
    assert reattached.last_scatter.mode == "scatter"
    # full scatter through the old proxy still matches (same key store)
    assert rows_of(conn, "SELECT SUM(amount) AS t FROM pay") == expected


def test_durable_shards_recover_placement_after_restart(tmp_path):
    """Placement metadata must survive a shard-daemon restart."""
    from repro.storage.durable import DurableServer

    dirs = [tmp_path / f"shard{i}" for i in range(3)]
    conn = api.connect(
        shards=[DurableServer(d) for d in dirs],
        modulus_bits=256, value_bits=64, rng=seeded_rng(18),
    )
    conn.proxy.create_table(
        "t",
        [("k", ValueType.int_()), ("v", ValueType.int_())],
        [(i, i) for i in range(1, 10)],
        rng=seeded_rng(19), shard_by="k",
    )
    conn.close()

    # "restart": fresh server instances over the same directories
    restarted = Coordinator([DurableServer(d) for d in dirs])
    assert restarted.shard_column("t") == "k"
    counts = [s["tables"]["t"] for s in restarted.shard_status()]
    assert sum(counts) == 9 and all(c > 0 for c in counts)
    # COUNT over an insensitive table is plaintext end to end: the
    # reattached coordinator must scatter and see every slice, not just
    # the primary's (the pre-fix silent failure mode)
    table = restarted.execute("SELECT COUNT(*) AS n FROM t")
    assert restarted.last_scatter.mode == "scatter"
    assert next(iter(table.rows()))[0] == 9


def test_dml_subquery_over_sharded_table_sees_whole_table(single, cluster):
    """A primary-routed DML's subquery must read all slices, not one."""
    for conn in (single, cluster[0]):
        conn.proxy.create_table(
            "dim", [("k", ValueType.int_())],
            [(i,) for i in range(1, 61)], rng=seeded_rng(20), replace=True,
        )
    sql = ("DELETE FROM dim WHERE k IN "
           "(SELECT id FROM pay WHERE region = 'east')")
    single_cur = single.cursor()
    single_cur.execute(sql)
    cluster_cur = cluster[0].cursor()
    cluster_cur.execute(sql)
    assert cluster_cur.rowcount == single_cur.rowcount == 15


def test_scattered_dml_with_self_referencing_subquery(single, cluster):
    """Scattered DELETE subqueries evaluate over the full table."""
    sql = "DELETE FROM pay WHERE amount > (SELECT AVG(amount) FROM pay)"
    single_cur = single.cursor()
    single_cur.execute(sql)
    cluster_cur = cluster[0].cursor()
    cluster_cur.execute(sql)
    assert cluster_cur.rowcount == single_cur.rowcount > 0
    assert normalized(
        rows_of(cluster[0], "SELECT COUNT(*) AS n FROM pay")
    ) == normalized(rows_of(single, "SELECT COUNT(*) AS n FROM pay"))


def test_scattered_dml_with_unsharded_subquery(single, cluster):
    """Scattered DML reading a primary-resident table works on every shard."""
    for conn in (single, cluster[0]):
        conn.proxy.create_table(
            "keep", [("k", ValueType.int_())],
            [(i,) for i in range(1, 31)], rng=seeded_rng(21), replace=True,
        )
    sql = "DELETE FROM pay WHERE id IN (SELECT k FROM keep)"
    single_cur = single.cursor()
    single_cur.execute(sql)
    cluster_cur = cluster[0].cursor()
    cluster_cur.execute(sql)
    assert cluster_cur.rowcount == single_cur.rowcount == 30
    # the broadcast temporaries were cleaned up everywhere (checked on the
    # raw shard catalogs: shard_status filters internals out by design)
    coord = cluster[1]
    for shard in coord.shards:
        assert not any(name.startswith("__cluster_bcast__")
                       for name in shard.catalog.names())


def test_cross_coordinator_dml_invalidates_materialization(cluster):
    """Coordinator B's DML must not leave A's cached gather copy stale."""
    conn, coord = cluster
    join = "SELECT COUNT(*) AS n FROM pay a, pay b WHERE a.id = b.id + 0"
    assert rows_of(conn, join) == [(60,)]  # A caches the gathered copy
    second = Coordinator(coord.shards)  # another session, same shards
    from repro.sql.parser import parse_statement

    second.execute_dml(parse_statement("DELETE FROM pay WHERE id > 50"))
    assert rows_of(conn, join) == [(50,)]  # A re-gathers, no stale copy


def test_shard_status_hides_internal_temporaries(cluster):
    conn, coord = cluster
    rows_of(
        conn, "SELECT COUNT(*) AS n FROM pay a, pay b WHERE a.id = b.id + 0"
    )
    assert (MATERIALIZED_PREFIX + "pay") in coord.primary.catalog
    for status in coord.shard_status():
        assert not any(name.startswith("__cluster") for name in status["tables"])
