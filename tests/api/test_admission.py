"""Admission control: session pools are bounded, overflow fails fast.

PR 4 left session dispatch queues unbounded: a client pipelining faster
than the server drains (or a scatter storm on the coordinator) grew
threads/queues without limit.  Now both the net daemon and the
coordinator bound per-session in-flight work; the overflow statement is
answered immediately with a typed ``ServerBusyError`` -- surfaced to
applications as ``api.OperationalError("server busy ...")`` -- instead of
queueing.
"""

import socket
import threading
import time

import repro.api as api
from repro.api.exceptions import OperationalError, map_exception
from repro.cluster import Coordinator
from repro.core.meta import ValueType
from repro.core.server import SDBServer, ServerBusyError
from repro.crypto.prf import seeded_rng
from repro.net import protocol
from repro.net.server import start_server

QUEUE_LIMIT = 2
FLOOD = 24


def test_server_busy_maps_to_operational_error():
    mapped = map_exception(ServerBusyError("server busy: session 7"))
    assert isinstance(mapped, OperationalError)
    assert "server busy" in str(mapped)


def test_net_daemon_bounds_per_session_queue():
    """Flood one session while the engine is wedged: overflow is rejected."""
    sdb = SDBServer()
    server, _thread = start_server(
        sdb_server=sdb, max_session_queue=QUEUE_LIMIT
    )
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            # wedge the engine: every execute blocks on the read lock, so
            # admitted requests stay in flight and the queue fills
            sdb._lock.acquire_write()
            try:
                for request_id in range(1, FLOOD + 1):
                    protocol.send_message(sock, {
                        "op": "execute",
                        "sql": "SELECT 1",
                        "id": request_id,
                        "session": 99,
                    })
                busy = []
                for _ in range(FLOOD - QUEUE_LIMIT):
                    response, _ = protocol.recv_message(sock)
                    assert response.get("error_type") == "ServerBusyError", response
                    assert "server busy" in response["error_message"]
                    busy.append(response["id"])
                assert len(busy) == FLOOD - QUEUE_LIMIT
            finally:
                sdb._lock.release_write()
            # the admitted requests complete once the engine unwedges...
            completed = [protocol.recv_message(sock)[0] for _ in range(QUEUE_LIMIT)]
            assert all("ok" in response for response in completed)
            # ...and the session is immediately admissible again
            protocol.send_message(sock, {
                "op": "execute", "sql": "SELECT 1",
                "id": FLOOD + 1, "session": 99,
            })
            response, _ = protocol.recv_message(sock)
            assert "ok" in response and response["id"] == FLOOD + 1
            # slots release on task completion (a whisker after the
            # response hits the wire): poll for the drain
            deadline = time.monotonic() + 10
            while server._session_pending and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not server._session_pending  # fully drained
        finally:
            sock.close()
    finally:
        server.shutdown()
        server.server_close()


def test_net_daemon_sessions_are_isolated():
    """One session's full queue never blocks or rejects another session."""
    sdb = SDBServer()
    server, _thread = start_server(
        sdb_server=sdb, max_session_queue=QUEUE_LIMIT
    )
    try:
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            sdb._lock.acquire_write()
            try:
                for request_id in range(1, FLOOD + 1):
                    protocol.send_message(sock, {
                        "op": "execute", "sql": "SELECT 1",
                        "id": request_id, "session": 1,
                    })
                # a different session on the same socket is still admitted
                protocol.send_message(sock, {
                    "op": "ping", "id": 1000, "session": 2,
                })
                responses = {}
                for _ in range(FLOOD - QUEUE_LIMIT):
                    response, _ = protocol.recv_message(sock)
                    responses[response["id"]] = response
                assert all(
                    r.get("error_type") == "ServerBusyError"
                    for r in responses.values()
                )
                assert 1000 not in responses  # session 2 was not rejected
            finally:
                sdb._lock.release_write()
        finally:
            sock.close()
    finally:
        server.shutdown()
        server.server_close()


def _loaded_coordinator(max_session_inflight):
    coordinator = Coordinator(
        [SDBServer(shard_id=i) for i in range(2)],
        max_session_inflight=max_session_inflight,
    )
    conn = api.connect(
        server=coordinator, modulus_bits=256, value_bits=64,
        rng=seeded_rng(11),
    )
    conn.proxy.create_table(
        "pay",
        [("id", ValueType.int_()), ("amount", ValueType.decimal(2))],
        [(i, float(i)) for i in range(1, 21)],
        sensitive=["amount"],
        rng=seeded_rng(12),
        shard_by="id",
    )
    return conn, coordinator


def test_coordinator_bounds_per_session_inflight():
    from repro.sql.parser import parse

    conn, coordinator = _loaded_coordinator(QUEUE_LIMIT)
    rewritten = conn.proxy.rewriter.rewrite(
        parse("SELECT COUNT(*) FROM pay")
    ).query
    results = []
    coordinator._lock.acquire_write()  # wedge: reads queue behind the writer
    threads = [
        threading.Thread(
            target=lambda: results.append(
                _try_execute(coordinator, rewritten, session=7)
            )
        )
        for _ in range(FLOOD)
    ]
    for thread in threads:
        thread.start()
    # wait until every overflow thread was rejected (the admitted ones
    # stay blocked on the wedged lock, holding their slots)
    deadline = time.monotonic() + 30
    while len(results) < FLOOD - QUEUE_LIMIT and time.monotonic() < deadline:
        time.sleep(0.005)
    busy = [r for r in results if r == "busy"]
    coordinator._lock.release_write()
    for thread in threads:
        thread.join(timeout=30)
    ok = [r for r in results if r == "ok"]
    assert len(busy) == FLOOD - QUEUE_LIMIT
    assert len(ok) == QUEUE_LIMIT  # the admitted ones completed after release
    assert coordinator.session_inflight() == {}  # slots all released
    # anonymous work (no session tag) is never admission-limited
    assert coordinator.execute(rewritten).num_rows == 1
    conn.close()


def _try_execute(coordinator, query, session):
    try:
        coordinator.execute(query, session=session)
        return "ok"
    except ServerBusyError:
        return "busy"


def test_coordinator_admission_off_by_default_for_normal_sessions():
    """The default bound is far above anything a sane session reaches."""
    conn, coordinator = _loaded_coordinator(32)
    cursor = conn.cursor()
    for _ in range(8):
        cursor.execute("SELECT COUNT(*) FROM pay")
        assert cursor.fetchone() == (20,)
    assert coordinator.session_inflight() == {}
    conn.close()
