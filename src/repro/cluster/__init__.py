"""Sharded cluster execution: scatter-gather over encrypted shards.

The paper's architecture inherits distributed execution from the
underlying engine (Section 2.2); this package builds that tier from first
principles on top of the existing single-node substrate:

* :class:`~repro.cluster.coordinator.Coordinator` -- a data-owner-side
  scatter-gather executor that presents the :class:`SDBServer` surface to
  the proxy while hash-partitioning encrypted tables across N shard
  backends (in-process servers or ``sdb-server`` daemons over
  :mod:`repro.net`);
* :mod:`~repro.cluster.router` -- PRF row routing: the shard a row lands
  on is a keyed PRF of its shard-key plaintext, computed at the proxy, so
  no service provider ever learns the key value -- only the bucket;
* :mod:`~repro.cluster.local` -- subprocess shard daemons for benches and
  demos (separate interpreters, so scatter really runs in parallel);
* :mod:`~repro.cluster.rebalance` -- elastic resharding: online shard
  topology changes (grow/shrink/reweight) that stream re-keyed encrypted
  rows shard to shard via the key-update protocol, with a crash-safe
  commit record (old topology wins until it exists);
* :mod:`~repro.cluster.replica` -- per-shard replica sets
  (:class:`ShardGroup`): synchronous write fan-out, weighted read
  scale-out, and online replica catch-up via the streaming-copy path;
* :mod:`~repro.cluster.failover` -- failure detection and the durable
  promotion record that lets a restarted coordinator adopt promoted
  primaries;
* :mod:`~repro.cluster.faults` -- deterministic fault injection
  (kill/drop/delay) for the crash suites and failover demos.

Because sensitive cells are secret shares in a ring, a partial
``sdb_agg_sum`` computed on one shard is itself a valid share: merging
shards is just more ring addition (the partial/merge split lives in
:mod:`repro.engine.partial`).
"""

from repro.cluster.coordinator import Coordinator, Placement, ScatterReport, ShardError
from repro.cluster.failover import (
    REPLICAS_TABLE,
    FailoverEvent,
    FailoverManager,
    FailureDetector,
)
from repro.cluster.faults import FaultInjector, FaultyBackend
from repro.cluster.local import LocalShardCluster, launch_local_shards
from repro.cluster.rebalance import (
    RateLimiter,
    RebalanceError,
    RebalancePlan,
    RebalanceReport,
    ShardTopology,
    rebalance_cluster,
)
from repro.cluster.replica import ShardGroup
from repro.cluster.router import ShardMap, shard_bucket, shard_map_for

__all__ = [
    "Coordinator",
    "FailoverEvent",
    "FailoverManager",
    "FailureDetector",
    "FaultInjector",
    "FaultyBackend",
    "LocalShardCluster",
    "Placement",
    "REPLICAS_TABLE",
    "RateLimiter",
    "RebalanceError",
    "RebalancePlan",
    "RebalanceReport",
    "ScatterReport",
    "ShardError",
    "ShardGroup",
    "ShardMap",
    "ShardTopology",
    "launch_local_shards",
    "rebalance_cluster",
    "shard_bucket",
    "shard_map_for",
]
