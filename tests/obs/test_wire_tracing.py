"""Trace context over the wire: daemon spans stitch into the client trace.

A live TCP daemon serves a tracing session: every request carries
``{"trace": {...}}``, the daemon opens ``sp:<op>`` spans under that
context and piggybacks them on the response, and the client's tracer
absorbs them -- one trace, client and daemon origins interleaved.  A
context-less (legacy) client on the same daemon sees byte-identical
behavior with no tracing fields at all.  The daemon-side observability
surface (metrics snapshot, Prometheus text, slow-query log) is exercised
over its wire ops.
"""

import datetime

import pytest

import repro.api as api
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.net import RemoteServer, start_server
from repro.net import protocol
from repro.obs.trace import SPANS_KEY

COLUMNS = [
    ("id", ValueType.int_()),
    ("grp", ValueType.string(6)),
    ("amt", ValueType.decimal(2)),
    ("day", ValueType.date()),
]

ROWS = [
    (
        i,
        ["red", "green", "blue"][i % 3],
        float((i * 13) % 90) + 0.5,
        datetime.date(2024, 1, 1) + datetime.timedelta(days=i),
    )
    for i in range(1, 25)
]


@pytest.fixture(scope="module")
def daemon():
    net_server, _ = start_server(sdb_server=SDBServer(), slow_query_s=0.0)
    yield net_server
    net_server.shutdown()
    net_server.server_close()


def _connect(daemon, **kwargs):
    conn = api.connect(
        host="127.0.0.1", port=daemon.port, modulus_bits=256,
        value_bits=64, rng=seeded_rng(51), **kwargs,
    )
    conn.proxy.create_table(
        "t", COLUMNS, ROWS, sensitive=["amt"], rng=seeded_rng(52),
        replace=True,
    )
    return conn


def test_one_stitched_trace_with_client_and_daemon_spans(daemon):
    conn = _connect(daemon, tracing=True)
    rows = conn.cursor().execute(
        "SELECT grp, SUM(amt) AS s FROM t GROUP BY grp"
    ).fetchall()
    assert len(rows) == 3
    spans = conn.trace_spans()  # defaults to the last trace
    assert spans, "tracing connection recorded no spans"
    trace_ids = {s.trace_id for s in spans}
    assert len(trace_ids) == 1  # ONE stitched trace
    origins = {s.origin for s in spans}
    assert origins == {"client", "daemon"}
    daemon_spans = [s for s in spans if s.origin == "daemon"]
    assert all(s.name.startswith("sp:") for s in daemon_spans)
    # daemon spans hang off a client span: their parents are in the set
    client_ids = {s.span_id for s in spans if s.origin == "client"}
    assert any(s.parent_id in client_ids for s in daemon_spans)
    # and the rendered tree marks the trust-domain crossing
    assert "[daemon]" in conn.span_tree()
    conn.close()


def test_legacy_contextless_client_works_unchanged(daemon):
    conn = _connect(daemon)  # tracing off: requests carry no trace field
    rows = conn.cursor().execute(
        "SELECT COUNT(*) AS c FROM t WHERE amt > ?", [10.0]
    ).fetchall()
    assert rows[0][0] > 0
    assert conn.trace_spans() == []
    conn.close()


def test_contextless_response_carries_no_span_payload(daemon):
    import socket

    # a frame without an id goes through the same session dispatch and
    # is answered with the id echoed as None
    frames = [{"op": "ping", "id": 1, "session": "legacy"}, {"op": "ping"}]
    with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
        for frame in frames:
            protocol.send_message(sock, frame)
            response, _ = protocol.recv_message(sock)
            assert response["ok"] == "pong"
            assert response["id"] == frame.get("id")
            assert SPANS_KEY not in response  # legacy frames stay legacy


def test_asyncio_wire_session_stitches_daemon_spans(daemon):
    import asyncio

    import repro.api.aio as aio

    async def run():
        conn = await aio.aconnect(
            host="127.0.0.1", port=daemon.port, modulus_bits=256,
            value_bits=64, rng=seeded_rng(53), tracing=True,
        )
        try:
            await conn.run_sync(lambda c: c.proxy.create_table(
                "t_aio", COLUMNS, ROWS, sensitive=["amt"],
                rng=seeded_rng(54), replace=True,
            ))
            cur = await conn.execute(
                "SELECT grp, SUM(amt) AS s FROM t_aio GROUP BY grp"
            )
            assert len(await cur.fetchall()) == 3
            return conn.trace_spans()
        finally:
            await conn.close()

    spans = asyncio.run(run())
    assert len({s.trace_id for s in spans}) == 1
    daemon_spans = [s for s in spans if s.origin == "daemon"]
    assert daemon_spans
    assert all(s.name.startswith("sp:") for s in daemon_spans)


def test_daemon_metrics_ops_over_the_wire(daemon):
    wire = RemoteServer.connect("127.0.0.1", daemon.port)
    snapshot = wire.metrics()
    assert "sdb_server_op_seconds" in snapshot
    assert snapshot["sdb_server_op_seconds"]["type"] == "histogram"
    text = wire.metrics_text()
    assert "# TYPE sdb_server_op_seconds histogram" in text
    assert "sdb_server_op_seconds_bucket" in text
    wire.close()


def test_daemon_slow_query_log_fires_at_zero_threshold(daemon):
    wire = RemoteServer.connect("127.0.0.1", daemon.port)
    wire.ping()
    entries = wire.slow_queries()
    assert entries, "zero-threshold daemon slowlog recorded nothing"
    assert any(e["kind"].startswith("op-") for e in entries)
    wire.close()


def test_four_shard_scatter_stitches_all_daemon_spans():
    """The acceptance trace: a 4-shard scattered query yields ONE trace
    holding the client lifecycle spans AND a daemon span per shard RPC."""
    backends = [SDBServer(shard_id=i) for i in range(4)]
    daemons = [start_server(sdb_server=backend)[0] for backend in backends]
    endpoints = [f"127.0.0.1:{d.port}" for d in daemons]
    conn = api.connect(
        shards=endpoints, modulus_bits=256, value_bits=64,
        rng=seeded_rng(53), tracing=True,
    )
    try:
        conn.proxy.create_table(
            "t", COLUMNS, ROWS, sensitive=["amt"], rng=seeded_rng(54),
            shard_by="id",
        )
        cursor = conn.cursor().execute("SELECT COUNT(*) AS c FROM t")
        assert cursor.fetchall() == [(len(ROWS),)]

        spans = conn.trace_spans()
        assert len({s.trace_id for s in spans}) == 1
        names = {s.name for s in spans if s.origin == "client"}
        # the full client lifecycle is present...
        assert {"query", "bind", "route", "scatter", "merge",
                "decrypt", "shard"} <= names
        # ...with one shard span per scatter leg, each carrying a
        # daemon-origin child for the RPC the daemon executed
        shard_spans = [s for s in spans if s.name == "shard"]
        assert len(shard_spans) == 4
        daemon_parents = {
            s.parent_id for s in spans if s.origin == "daemon"
        }
        assert {s.span_id for s in shard_spans} <= daemon_parents
        tree = conn.span_tree()
        assert tree.count("[daemon]") >= 4
    finally:
        conn.close()
        conn.proxy.server.close()
        for daemon in daemons:
            daemon.shutdown()
            daemon.server_close()
