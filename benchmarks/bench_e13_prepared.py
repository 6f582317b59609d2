"""E13 -- prepared statements vs. string re-execution (session layer).

The proxy's per-query cost splits into a client share (parse + rewrite +
bind + decrypt) and a server share (the secure scan itself).  A prepared
statement amortizes the client share: parse happens once, the rewritten
query + decryption plan are cached per parameter type signature, and each
execution only binds a few masked ring literals.  The server share is
identical by construction -- both paths submit the same rewritten query --
so the headline metric here is the *client-side* amortization on a
repeated parameterized Q6-style workload, asserted at >= 5x (the
acceptance bar), with end-to-end wall clock and per-execution wire bytes
reported alongside.

Scenario A (in-process): N executions of a parameterized Q6-style query
through a prepared statement vs. ``SDBProxy.query`` on freshly formatted
SQL strings; results must match row for row.

Scenario B (remote TCP): the same comparison across a live daemon, where
PREPARE ships the rewritten SQL once and EXECUTE carries only bindings --
measured in bytes on the wire per execution.
"""

import datetime
import time

import pytest

import repro.api as api
from repro.bench.harness import (
    ResultTable,
    bench_smoke,
    smoke_scaled,
    write_bench_json,
)
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng

ROWS = smoke_scaled(96, 24)
MODULUS_BITS = smoke_scaled(512, 256)
EXECUTIONS = smoke_scaled(12, 3)
#: acceptance bar on the amortized client share (parse+rewrite+bind+decrypt)
MIN_CLIENT_SPEEDUP = 5.0
#: acceptance bar on per-execution wire bytes (prepared vs string, remote)
MIN_WIRE_FACTOR = 5.0

Q6_PREPARED = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= ? AND l_shipdate < ? "
    "AND l_discount BETWEEN ? AND ? AND l_quantity < ?"
)

Q6_TEMPLATE = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= DATE '{d1}' AND l_shipdate < DATE '{d2}' "
    "AND l_discount BETWEEN {low} AND {high} AND l_quantity < {qty}"
)


def _lineitem_rows():
    base = datetime.date(1994, 1, 1)
    return [
        (
            i,
            base + datetime.timedelta(days=(i * 17) % 720),
            float((i * 37) % 90 + 10) + 0.99,
            ((i * 7) % 9) / 100.0,
            (i * 13) % 49 + 1,
        )
        for i in range(1, ROWS + 1)
    ]


def _workload():
    base = datetime.date(1994, 1, 1)
    return [
        (
            base + datetime.timedelta(days=45 * i),
            base + datetime.timedelta(days=45 * i + 90),
            round(0.02 + 0.001 * i, 3),
            round(0.06 + 0.001 * i, 3),
            20 + i,
        )
        for i in range(EXECUTIONS)
    ]


def _deploy(server):
    conn = api.connect(
        server=server, modulus_bits=MODULUS_BITS, value_bits=64,
        rng=seeded_rng(131),
    )
    conn.proxy.create_table(
        "lineitem",
        [
            ("l_orderkey", ValueType.int_()),
            ("l_shipdate", ValueType.date()),
            ("l_extendedprice", ValueType.decimal(2)),
            ("l_discount", ValueType.decimal(2)),
            ("l_quantity", ValueType.int_()),
        ],
        _lineitem_rows(),
        sensitive=["l_extendedprice", "l_discount", "l_quantity"],
        rng=seeded_rng(132),
    )
    return conn


def test_prepared_amortizes_client_share():
    conn = _deploy(SDBServer())
    proxy = conn.proxy
    statement = conn.prepare(Q6_PREPARED)
    cursor = conn.cursor()
    workload = _workload()

    # warm both paths once so key generation / first-parse jitter is out
    cursor.execute(statement, workload[0]).fetchall()

    prepared_rows, prepared_client, t0 = [], 0.0, time.perf_counter()
    for params in workload:
        cursor.execute(statement, params)
        prepared_rows.append(cursor.fetchall())
        prepared_client += cursor.report.cost.client_s
    prepared_wall = time.perf_counter() - t0

    string_rows, string_client, t0 = [], 0.0, time.perf_counter()
    for d1, d2, low, high, qty in workload:
        result = proxy.query(
            Q6_TEMPLATE.format(d1=d1, d2=d2, low=low, high=high, qty=qty)
        )
        string_rows.append(list(result.table.rows()))
        string_client += result.cost.client_s
    string_wall = time.perf_counter() - t0

    assert prepared_rows == string_rows  # identical results, row for row

    client_speedup = string_client / max(prepared_client, 1e-9)
    wall_speedup = string_wall / max(prepared_wall, 1e-9)

    table = ResultTable(
        title=f"E13: prepared vs string re-execution "
              f"({ROWS} rows, {MODULUS_BITS}-bit, {EXECUTIONS} executions)",
        columns=["path", "client ms/exec", "wall ms/exec"],
    )
    table.add("SDBProxy.query (string)",
              1000 * string_client / EXECUTIONS,
              1000 * string_wall / EXECUTIONS)
    table.add("prepared statement",
              1000 * prepared_client / EXECUTIONS,
              1000 * prepared_wall / EXECUTIONS)
    table.note(f"client-share speedup: {client_speedup:.1f}x "
               f"(bar: {MIN_CLIENT_SPEEDUP}x); end-to-end: {wall_speedup:.2f}x")
    table.note("server share is identical by construction; the client share "
               "is exactly the work PEP-249 prepare/bind amortizes")
    table.emit()

    payload = {
        "rows": ROWS,
        "modulus_bits": MODULUS_BITS,
        "executions": EXECUTIONS,
        "string_client_ms": 1000 * string_client / EXECUTIONS,
        "prepared_client_ms": 1000 * prepared_client / EXECUTIONS,
        "string_wall_ms": 1000 * string_wall / EXECUTIONS,
        "prepared_wall_ms": 1000 * prepared_wall / EXECUTIONS,
        "client_speedup": client_speedup,
        "wall_speedup": wall_speedup,
    }

    if not bench_smoke():
        assert client_speedup >= MIN_CLIENT_SPEEDUP, (
            f"client share amortized only {client_speedup:.1f}x "
            f"(< {MIN_CLIENT_SPEEDUP}x): prepared "
            f"{prepared_client * 1000:.2f} ms vs string "
            f"{string_client * 1000:.2f} ms over {EXECUTIONS} executions"
        )
        # the end-to-end path must never be slower than string re-execution
        assert wall_speedup > 1.0

    globals().setdefault("_payload", {}).update(payload)
    conn.close()


def test_prepared_shrinks_the_wire():
    from repro.net import RemoteServer, start_server

    sdb = SDBServer()
    net_server, _ = start_server(sdb_server=sdb)
    remote = RemoteServer.connect("127.0.0.1", net_server.port)
    conn = _deploy(remote)
    proxy = conn.proxy
    statement = conn.prepare(Q6_PREPARED)
    cursor = conn.cursor()
    workload = _workload()

    cursor.execute(statement, workload[0]).fetchall()  # PREPARE + first EXECUTE

    sent_before = remote.bytes_sent
    prepared_rows = []
    for params in workload:
        prepared_rows.append(cursor.execute(statement, params).fetchall())
    prepared_bytes = (remote.bytes_sent - sent_before) / EXECUTIONS

    sent_before = remote.bytes_sent
    string_rows = []
    for d1, d2, low, high, qty in workload:
        result = proxy.query(
            Q6_TEMPLATE.format(d1=d1, d2=d2, low=low, high=high, qty=qty)
        )
        string_rows.append(list(result.table.rows()))
    string_bytes = (remote.bytes_sent - sent_before) / EXECUTIONS

    assert prepared_rows == string_rows
    wire_factor = string_bytes / max(prepared_bytes, 1e-9)

    table = ResultTable(
        title="E13: wire bytes per execution (remote deployment)",
        columns=["path", "bytes/exec"],
    )
    table.add("string (ships rewritten SQL)", string_bytes)
    table.add("prepared (ships bindings only)", prepared_bytes)
    table.note(f"wire reduction: {wire_factor:.0f}x (bar: {MIN_WIRE_FACTOR}x)")
    table.emit()

    if not bench_smoke():
        assert wire_factor >= MIN_WIRE_FACTOR

    payload = globals().get("_payload", {})
    payload.update(
        {
            "string_wire_bytes": string_bytes,
            "prepared_wire_bytes": prepared_bytes,
            "wire_factor": wire_factor,
        }
    )
    write_bench_json("e13_prepared", payload)

    conn.close()
    remote.close()
    net_server.shutdown()
    net_server.server_close()


if __name__ == "__main__":
    pytest.main([__file__, "-q", "-s"])
