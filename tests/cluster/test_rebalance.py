"""Elastic resharding: online topology changes keep every answer identical.

Covers the rebalance subsystem end to end on in-process shards: grow and
shrink, SQL / api / shell entry points, re-keying of migrated rows
(unlinkability + replay rejection), concurrent sessions during the
migration, prepared-statement invalidation across the topology epoch, and
the per-rebalance leakage report.
"""

import datetime
import threading

import pytest

import repro.api as api
from repro.cluster.rebalance import RebalancePlan, RowRekeyer
from repro.cluster.router import ROUTING_SPACE
from repro.core.encryptor import ROWID_COLUMN
from repro.core.meta import ValueType
from repro.crypto.encoding import decode_signed
from repro.crypto.prf import seeded_rng
from repro.crypto.secret_sharing import item_key
from repro.crypto.sies import SIESCipher

COLUMNS = [
    ("id", ValueType.int_()),
    ("region", ValueType.string(8)),
    ("amount", ValueType.decimal(2)),
    ("day", ValueType.date()),
]

REGIONS = ["east", "west", "north", "south"]

ROWS = [
    (
        i,
        REGIONS[i % 4],
        float((i * 37) % 500) + 0.25,
        datetime.date(2024, 1, 1) + datetime.timedelta(days=i % 90),
    )
    for i in range(1, 81)
]

QUERIES = [
    "SELECT COUNT(*), SUM(amount) FROM pay",
    "SELECT region, COUNT(*), SUM(amount) FROM pay GROUP BY region "
    "ORDER BY region",
    "SELECT id, amount FROM pay WHERE amount > 250 ORDER BY id",
    "SELECT AVG(amount) FROM pay WHERE region = 'east'",
]


def build_cluster(num_shards, rows=ROWS, seed=42):
    conn = api.connect(
        shards=num_shards, modulus_bits=256, value_bits=64,
        rng=seeded_rng(seed),
    )
    conn.proxy.create_table(
        "pay", COLUMNS, rows, sensitive=["amount"], rng=seeded_rng(7),
        shard_by="id",
    )
    return conn


def results(conn):
    out = []
    for sql in QUERIES:
        table = conn.proxy.query(sql).table
        out.append(sorted(tuple(r) for r in table.rows()))
    return out


# -- grow / shrink ------------------------------------------------------------


@pytest.mark.parametrize("old,new", [(2, 4), (4, 2), (1, 3), (3, 1), (2, 5)])
def test_rebalance_preserves_every_answer(old, new):
    conn = build_cluster(old)
    want = results(conn)
    report = conn.rebalance(new)
    assert report.old_count == old and report.new_count == new
    assert report.epoch == 1
    assert conn.proxy.server.num_shards == new
    assert len(conn.proxy.server.shards) == new
    assert results(conn) == want
    if new > 1:
        counts = [
            status["tables"].get("pay", 0)
            for status in conn.proxy.server.shard_status()
        ]
        assert sum(counts) == len(ROWS)
        assert sum(1 for c in counts if c > 0) >= 2
    conn.close()


def test_rebalanced_matches_from_scratch_cluster():
    grown = build_cluster(2)
    grown.rebalance(4)
    scratch = build_cluster(4, seed=99)
    assert results(grown) == results(scratch)
    grown.close()
    scratch.close()


def test_rebalance_noop_and_validation():
    conn = build_cluster(2)
    report = conn.rebalance(2)
    assert report.rows_moved == 0 and "topology unchanged" in report.notes
    with pytest.raises(api.Error):
        conn.rebalance(0)
    conn.close()


def test_inserts_after_rebalance_route_on_new_topology():
    conn = build_cluster(2)
    conn.rebalance(4)
    cur = conn.cursor()
    cur.execute("INSERT INTO pay VALUES (500, 'east', 123.25, DATE '2024-03-01')")
    assert cur.rowcount == 1
    got = conn.proxy.query("SELECT amount FROM pay WHERE id = 500").table
    assert list(got.rows()) == [(123.25,)]
    # the row landed on exactly one shard, per the new modulus
    counts = [
        status["tables"].get("pay", 0)
        for status in conn.proxy.server.shard_status()
    ]
    assert sum(counts) == len(ROWS) + 1
    conn.close()


# -- SQL / shell entry points --------------------------------------------------


def test_alter_cluster_sql_roundtrip():
    conn = build_cluster(2)
    want = results(conn)
    cur = conn.cursor()
    cur.execute("ALTER CLUSTER ADD SHARD")
    assert conn.proxy.server.num_shards == 3
    assert cur.rowcount > 0  # rows migrated
    assert any("rebalance:" in entry for entry in cur.report.leakage)
    cur.execute("ALTER CLUSTER REMOVE SHARD")
    assert conn.proxy.server.num_shards == 2
    assert results(conn) == want
    conn.close()


def test_alter_cluster_parses_endpoint_and_rejects_garbage():
    from repro.sql import ast
    from repro.sql.parser import ParseError, parse_statement

    statement = parse_statement("ALTER CLUSTER ADD SHARD '127.0.0.1:9999'")
    assert isinstance(statement, ast.AlterCluster)
    assert statement.action == "add"
    assert statement.endpoint == "127.0.0.1:9999"
    assert parse_statement("ALTER CLUSTER REMOVE SHARD").action == "remove"
    with pytest.raises(ParseError):
        parse_statement("ALTER CLUSTER FROBNICATE SHARD")


def test_shell_rebalance_command():
    from repro.cli.shell import SDBShell

    conn = build_cluster(2)
    shell = SDBShell(conn.proxy)
    output = shell.execute_line("\\rebalance 4")
    assert "2 -> 4 shard(s)" in output
    assert "leakage" in output
    assert "(not a cluster" not in output
    assert "4 shard(s)" in shell.execute_line("\\shards")
    conn.close()


def test_alter_cluster_requires_a_cluster():
    conn = api.connect(modulus_bits=256, value_bits=64, rng=seeded_rng(3))
    with pytest.raises(api.ProgrammingError):
        conn.cursor().execute("ALTER CLUSTER ADD SHARD")
    conn.close()


# -- re-keying: unlinkability and replay rejection ----------------------------


def _decrypt_amount(store, share, rowid_cipher):
    """Decrypt one 'amount' share the way the result decryptor would."""
    keys = store.keys
    meta = store.table("pay")
    row_id = SIESCipher(store.sies_key).decrypt(rowid_cipher)
    vk = item_key(keys, row_id, meta.column("amount").key)
    ring = decode_signed(share * vk % keys.n, keys.n)
    return meta.column("amount").vtype.decode(ring)


def _rows_by_id(table):
    ids = table.column("id")
    shares = table.column("amount")
    rowids = table.column(ROWID_COLUMN)
    return {i: (s, r) for i, s, r in zip(ids, shares, rowids)}


def test_migrated_rows_are_rekeyed_and_replay_is_rejected():
    conn = build_cluster(2)
    store = conn.proxy.store
    coordinator = conn.proxy.server
    before = {}
    for shard in coordinator.shards:
        before.update(_rows_by_id(shard.shard_dump("pay")))
    plain = {row[0]: row[2] for row in ROWS}
    # sanity: the pre-migration ciphertexts decrypt under the current keys
    some_id = next(iter(before))
    assert _decrypt_amount(store, *before[some_id]) == plain[some_id]

    conn.rebalance(4)  # default: in-flight re-key + column-key rotation

    moved = 0
    for index, shard in enumerate(coordinator.shards):
        after = _rows_by_id(shard.shard_dump("pay"))
        for row_id, (share, rowid_cipher) in after.items():
            old_share, old_rowid = before[row_id]
            if index >= 2:
                moved += 1
                # migrated row: fresh row id and a fresh share -- the old
                # shard cannot recognize its row on the new shard
                assert (rowid_cipher.value, rowid_cipher.nonce) != (
                    old_rowid.value, old_rowid.nonce
                )
                assert share != old_share
            # every row decrypts correctly under the post-rebalance keys
            assert _decrypt_amount(store, share, rowid_cipher) == plain[row_id]
            # replaying the old-topology ciphertext is rejected: under the
            # post-rebalance key material it decrypts to garbage, whether
            # paired with the new row id or its own old one
            assert _decrypt_amount(store, old_share, rowid_cipher) != plain[row_id]
            assert _decrypt_amount(store, old_share, old_rowid) != plain[row_id]
    assert moved > 0
    conn.close()


def test_in_flight_rekey_without_rotation_still_unlinkable():
    """Even with rekey_columns=False, movers get fresh row ids + shares."""
    conn = build_cluster(2)
    store = conn.proxy.store
    coordinator = conn.proxy.server
    before = {}
    for shard in coordinator.shards:
        before.update(_rows_by_id(shard.shard_dump("pay")))
    plain = {row[0]: row[2] for row in ROWS}
    conn.rebalance(4, rekey_columns=False)
    for index, shard in enumerate(coordinator.shards[2:], start=2):
        after = _rows_by_id(shard.shard_dump("pay"))
        assert after  # both new shards received rows
        for row_id, (share, rowid_cipher) in after.items():
            old_share, old_rowid = before[row_id]
            assert share != old_share
            assert (rowid_cipher.value, rowid_cipher.nonce) != (
                old_rowid.value, old_rowid.nonce
            )
            assert _decrypt_amount(store, share, rowid_cipher) == plain[row_id]
            # the old share bound to the *new* row id decrypts to garbage:
            # substituting the source shard's ciphertext on the new shard
            # cannot reproduce the value
            assert _decrypt_amount(store, old_share, rowid_cipher) != plain[row_id]
    conn.close()


def test_shards_never_see_plaintext_or_raw_routing_keys():
    """Shard catalogs hold shares/residues only -- audited post-migration."""
    from repro.core.security import scan_for_plaintext

    conn = build_cluster(2)
    conn.rebalance(4)
    ring_values = [
        COLUMNS[2][1].encode(row[2]) for row in ROWS
    ]  # encoded sensitive plaintexts
    for shard in conn.proxy.server.shards:
        assert scan_for_plaintext(shard, ring_values) == []
        # the stored residues are reduced buckets, never the 64-bit PRF
        # output (a full bucket would be a deterministic token)
        table = shard.catalog.get("pay")
        assert all(0 <= r < ROUTING_SPACE for r in table.column("__bucket"))
    conn.close()


# -- concurrent sessions during migration -------------------------------------


def test_rebalance_under_concurrent_insert_stream():
    """The acceptance scenario: 2 -> 4 while a session streams INSERTs."""
    conn = build_cluster(2)
    inserter = api.connect(proxy=conn.proxy)
    stop = threading.Event()
    inserted = []
    errors = []

    def stream():
        cursor = inserter.cursor()
        next_id = 1000
        while not stop.is_set():
            try:
                cursor.execute(
                    "INSERT INTO pay VALUES (?, 'east', 7.25, DATE '2024-06-01')",
                    (next_id,),
                )
                inserted.append(next_id)
                next_id += 1
            except api.Error as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
                return

    thread = threading.Thread(target=stream)
    thread.start()
    try:
        report = conn.rebalance(4)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not errors
    assert report.new_count == 4
    assert len(inserted) > 0

    # identical to the 1-shard oracle over the same final data
    oracle = build_cluster(1, seed=77)
    oracle_cursor = oracle.cursor()
    for i in inserted:
        oracle_cursor.execute(
            "INSERT INTO pay VALUES (?, 'east', 7.25, DATE '2024-06-01')", (i,)
        )
    assert results(conn) == results(oracle)

    # ...and to a from-scratch 4-shard cluster over the same data
    scratch = build_cluster(4, seed=88)
    scratch_cursor = scratch.cursor()
    for i in inserted:
        scratch_cursor.execute(
            "INSERT INTO pay VALUES (?, 'east', 7.25, DATE '2024-06-01')", (i,)
        )
    assert results(conn) == results(scratch)
    # no row lost or duplicated anywhere
    counts = [
        status["tables"].get("pay", 0)
        for status in conn.proxy.server.shard_status()
    ]
    assert sum(counts) == len(ROWS) + len(inserted)
    for c in (oracle, scratch, inserter, conn):
        c.close()


def test_concurrent_reads_during_migration_see_consistent_answers():
    conn = build_cluster(2)
    reader = api.connect(proxy=conn.proxy)
    want = results(conn)
    stop = threading.Event()
    bad = []

    def read_loop():
        while not stop.is_set():
            got = results(reader)
            if got != want:
                bad.append(got)
                return

    thread = threading.Thread(target=read_loop)
    thread.start()
    try:
        conn.rebalance(4, rekey_columns=False)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not bad
    assert results(conn) == want
    reader.close()
    conn.close()


# -- prepared statements across the topology epoch ----------------------------


def test_prepared_statement_survives_topology_change():
    conn = build_cluster(2)
    statement = conn.prepare("SELECT COUNT(*), SUM(amount) FROM pay WHERE amount > ?")
    cur = conn.cursor()
    cur.execute(statement, (100,))
    want = cur.fetchall()
    conn.rebalance(4)
    cur.execute(statement, (100,))
    assert cur.fetchall() == want
    # and the session statement cache was invalidated by the epoch bump
    assert conn.proxy.store.routing_epoch == 1
    conn.close()


def test_rebalance_report_recorded_on_session_context():
    conn = build_cluster(2)
    report = conn.rebalance(4)
    session_leakage = conn.context.leakage_report()
    assert any("reassignment cardinalities" in e for e in report.leakage)
    assert set(report.leakage) <= set(session_leakage)
    conn.close()


# -- plan / topology unit checks ----------------------------------------------


def test_rebalance_plan_moves_whole_residue_classes():
    plan = RebalancePlan(old_count=2, new_count=4, num_chunks=16)
    for residue in range(0, ROUTING_SPACE, 97):
        if plan.residue_moves(residue):
            assert residue % 2 != residue % 4
        else:
            assert residue % 2 == residue % 4
    assert 0 < plan.moving_fraction() < 1
    assert plan.moved_chunks()  # something moves 2 -> 4


def test_rekeyer_preserves_schema_and_counts():
    conn = build_cluster(2)
    shard = conn.proxy.server.shards[0]
    slice_table = shard.shard_dump("pay")
    rekeyer = RowRekeyer(conn.proxy.store, rng=seeded_rng(5))
    rekeyed = rekeyer.rekey_slice("pay", slice_table)
    assert rekeyed.schema.names == slice_table.schema.names
    assert rekeyed.num_rows == slice_table.num_rows
    assert rekeyer.rows_rekeyed == slice_table.num_rows
    # residues and insensitive values unchanged; shares and rowids fresh
    assert rekeyed.column("__bucket") == slice_table.column("__bucket")
    assert rekeyed.column("id") == slice_table.column("id")
    assert rekeyed.column("amount") != slice_table.column("amount")
    conn.close()


def test_roll_forward_preserves_epoch_monotonicity():
    """Recovery after N committed rebalances must not reset the epoch."""
    from repro.cluster import Coordinator, ShardTopology
    from repro.core.server import SDBServer

    conn = build_cluster(2)
    conn.rebalance(3, rekey_columns=False)  # epoch 1
    conn.rebalance(2, rekey_columns=False)  # epoch 2
    coordinator = conn.proxy.server
    plan = RebalancePlan(old_count=2, new_count=3, num_chunks=4)
    rekeyer = RowRekeyer(conn.proxy.store, rng=seeded_rng(5))
    coordinator.begin_rebalance(plan, incoming=[SDBServer()])
    for table, chunk in coordinator.migration_pending():
        coordinator.copy_chunk(table, chunk, rekeyer.rekey_slice)

    class Crash(RuntimeError):
        pass

    def failpoint(label):
        if label.startswith("commit:purge:"):
            raise Crash(label)

    with pytest.raises(Crash):
        coordinator.commit_rebalance(rekeyer.rekey_slice, on_step=failpoint)
    # a fresh coordinator rolls the commit forward *from* the persisted
    # epoch 2 -- never back to 1
    fresh = Coordinator(list(coordinator.shards))
    assert fresh.topology == ShardTopology(epoch=3, shard_count=3)
    conn.close()


def test_durable_shards_recover_committed_topology(tmp_path):
    """A rebalance over durable shards survives a full-cluster restart."""
    from repro.cluster import Coordinator
    from repro.storage.durable import DurableServer

    dirs = [tmp_path / f"shard{i}" for i in range(4)]
    servers = [DurableServer(dirs[i]) for i in range(2)]
    for index, server in enumerate(servers):
        server.shard_id = index
    conn = api.connect(
        server=Coordinator(servers), modulus_bits=256, value_bits=64,
        rng=seeded_rng(42),
    )
    conn.proxy.create_table(
        "pay", COLUMNS, ROWS, sensitive=["amount"], rng=seeded_rng(7),
        shard_by="id",
    )
    want = results(conn)
    incoming = [DurableServer(dirs[i]) for i in (2, 3)]
    conn.rebalance(4, endpoints=incoming, rekey_columns=False)
    assert results(conn) == want
    for server in servers + incoming:
        server.checkpoint()

    # "restart": fresh DurableServers over the same directories; a fresh
    # coordinator adopts the committed topology from the primary
    reopened = [DurableServer(path) for path in dirs]
    recovered = Coordinator(reopened)
    assert recovered.topology.epoch == 1
    assert recovered.topology.shard_count == 4
    conn.proxy.server = recovered
    assert results(conn) == want
    conn.close()


def test_security_declares_topology_leakage():
    from repro.core import security

    declared = "\n".join(security.DECLARED_LEAKAGE)
    assert "routing-residues" in declared
    assert "rebalance" in declared
    conn = build_cluster(2)
    conn.rebalance(4)
    entries = security.shard_routing_leakage(conn.proxy.server)
    assert any("topology epoch 1" in entry for entry in entries)
    conn.close()
