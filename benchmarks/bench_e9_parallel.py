"""E9 -- Architecture claim: parallel execution and fault tolerance.

Section 2.2: the new architecture "enjoys all the benefits such as
fault-tolerance, parallel-execution, and scalability provided by the
underlying Spark SQL engine".  The cluster tier delivers both halves: an
in-process :class:`~repro.cluster.Coordinator` hash-partitions the
encrypted table over shard servers and runs the partial/merge split of
:mod:`repro.engine.partial`, and replica groups absorb a dead member by
retrying the read on a survivor.  This bench shows

* eligible encrypted queries scatter over every shard and produce the same
  answers as one SP (correctness is in tests/engine/test_parallel.py),
* killed replicas (:class:`repro.cluster.faults.FaultInjector`) are
  absorbed by failover: no query is lost,
* the partial/merge plan touches each shard independently (the
  scalability mechanism; in-process shards share the GIL, so the bench
  reports plan shape and failover events, not a speedup claim).
"""

import pytest

import repro.api as api
from repro.bench.harness import ResultTable, smoke_scaled
from repro.cluster import Coordinator, ShardGroup
from repro.cluster.faults import FaultInjector, FaultyBackend
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng

ROWS = smoke_scaled(2000, 400)
SQL = "SELECT region, SUM(amount) AS total FROM pay GROUP BY region"
QUERIES_PER_RUN = 4


def _rows():
    regions = ["east", "west", "north", "south"]
    return [
        (i, regions[i % 4], float((i * 37) % 500) + 0.25) for i in range(ROWS)
    ]


def _deployment(shards: int, injector=None):
    """One SP (``shards=0``) or a Coordinator over ``shards`` shards; with an
    ``injector`` every shard is a two-member replica group."""
    if not shards:
        server = SDBServer()
    elif injector is None:
        server = Coordinator([SDBServer(shard_id=i) for i in range(shards)])
    else:
        server = Coordinator([
            ShardGroup([
                FaultyBackend(SDBServer(shard_id=g), f"s{g}r{o}", injector)
                for o in range(2)
            ])
            for g in range(shards)
        ])
    conn = api.connect(server=server, modulus_bits=256, value_bits=64,
                       rng=seeded_rng(41))
    conn.proxy.create_table(
        "pay",
        [("id", ValueType.int_()), ("region", ValueType.string(8)),
         ("amount", ValueType.decimal(2))],
        _rows(),
        sensitive=["amount"],
        rng=seeded_rng(42),
        shard_by="id" if shards else None,
    )
    return conn


def _run(conn):
    """(region -> total, scatter report) for one execution of SQL."""
    cursor = conn.execute(SQL)
    got = {row[0]: row[1] for row in cursor.fetchall()}
    return got, cursor.report.scatter


def _matches(got, expected) -> bool:
    return len(got) == len(expected) and all(
        abs(got[k] - v) < 1e-6 for k, v in expected.items()
    )


@pytest.fixture(scope="module")
def serial_result():
    conn = _deployment(0)
    got, _ = _run(conn)
    conn.close()
    return got


def test_parallel_plan_report(serial_result):
    table = ResultTable(
        "E9: shard-parallel encrypted aggregation",
        ["shards", "route", "plan", "matches serial"],
    )
    for shards in (2, 4, 8):
        conn = _deployment(shards)
        got, route = _run(conn)
        conn.close()
        matches = _matches(got, serial_result)
        table.add(shards, route.mode, route.reason, matches)
        assert route.mode == "scatter"
        assert route.shards == shards
        assert matches
    table.note("encrypted SUM merges because partial share-sums stay in the ring")
    table.emit()


def test_fault_tolerance_report(serial_result):
    table = ResultTable(
        "E9b: replica failures absorbed by failover",
        ["killed replicas", "failover events", "queries answered", "matches serial"],
    )
    for failures in (0, 1, 3):
        injector = FaultInjector()
        conn = _deployment(4, injector=injector)
        for group in range(failures):
            injector.kill(f"s{group}r0")
        # reads rotate over a group's members: a few queries make sure
        # every killed member is hit at least once
        events, answered, matches = 0, 0, True
        for _ in range(QUERIES_PER_RUN):
            got, route = _run(conn)
            assert route.mode == "scatter"
            events += len(route.failover)
            answered += 1
            matches = matches and _matches(got, serial_result)
        conn.close()
        table.add(failures, events, answered, matches)
        assert bool(events) == bool(failures)
        assert matches
    table.note("a dead replica costs a retry on its survivor, not a lost query")
    table.emit()


def test_parallel_query_speed(benchmark):
    conn = _deployment(4)
    _, route = benchmark(_run, conn)
    conn.close()
    assert route.mode == "scatter"


def test_serial_query_speed(benchmark):
    conn = _deployment(0)
    benchmark(_run, conn)
    conn.close()
