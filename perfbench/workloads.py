"""The three benchmark workloads: set-up, warm-up, measured loop, checks.

Load shape (every workload): one client thread, one session, closed
loop -- the next operation starts when the previous one returns.  Keys
are ``MODULUS_BITS``-bit with ``value_bits=64``.  The seed drives the
data generator, the key RNG and the TPC-C schedule; the program only
ever receives the generated inputs.  The first pass (or batch) after the
first set-up is a warm-up: it fills the 64-entry statement cache and is
not timed, but its answers are checked like every other.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import repro.api as api
from repro.cluster import launch_local_shards
from repro.crypto.prf import seeded_rng
from repro.workloads import tpcc
from repro.workloads.tpch.dbgen import generate as tpch_generate
from repro.workloads.tpch.loader import (
    DEFAULT_SHARD_COLUMNS,
    load_encrypted,
    load_plain,
)
from repro.workloads.tpch.queries import QUERIES

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

MODULUS_BITS = 256
VALUE_BITS = 64
SHARDS = 2
#: set-ups per untraced run; setup_s is the median of their normalized
#: CPU seconds, and olap times one pass on each
SETUP_REPEATS = 3
#: one calibration slice: fixed work in builtins only (dict updates and
#: 256-bit modexps, the mix the SP's row path runs), never program code
CAL_MODULUS = (1 << 255) + 95
CAL_STEPS = 2500
#: normalized times are CPU seconds scaled to a host on which one
#: calibration slice takes this long
CAL_NOMINAL_S = 0.020
#: calibration slices before and after each set-up
SETUP_CAL_SLICES = 3


def calibration_slice() -> float:
    """CPU seconds this process spends on one fixed slice of work.

    Slices run between the measured operations, so they see the same
    host phases: the shared host's speed drifts by a fifth or more over
    minutes, and dividing by the slices' time takes that drift out of
    the normalized metrics (see README.md)."""
    start = time.process_time()
    acc: dict = {}
    for step in range(CAL_STEPS):
        acc[step & 255] = pow(acc.get(step & 255, 3), 65537, CAL_MODULUS)
    return time.process_time() - start


@dataclass(frozen=True)
class Sizes:
    """The data and batch sizes; the benchmark's own test shrinks them."""

    tpch_sf: float = 0.0005
    tpcc: tuple = (("warehouses", 2), ("districts", 2), ("customers", 8), ("items", 16))
    #: transactions per oltp batch (the oltp "pass")
    txn_batch: int = 16
    #: transactions in each of the untraced and traced oltp trace phases
    traced_txns: int = 48


WORKLOADS = ("olap-1sp", "olap-2shard-wire", "oltp-2shard-wire")


@dataclass
class Result:
    """What one run measured, before it is reduced to metrics."""

    workload: str
    #: CPU seconds of the client and the shard daemons, per set-up
    setup_cpu_s: list = field(default_factory=list)
    setup_wall_s: list = field(default_factory=list)
    #: mean calibration slice around each set-up
    setup_cal_s: list = field(default_factory=list)
    #: kind -> latencies (s) of measured operations
    latencies: dict = field(default_factory=dict)
    passes_s: list = field(default_factory=list)
    #: CPU seconds of the client and the shard daemons, per measured pass
    passes_cpu_s: list = field(default_factory=list)
    #: calibration slices run during the measured passes
    passes_cal_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    exec_paths: dict = field(default_factory=dict)
    retries: int = 0
    setup_modexp: int = 0
    #: trace mode: wall of the untraced and of the traced phase
    untraced_s: float = 0.0
    traced_s: float = 0.0
    cache_hit_ratio: float = 0.0
    daemon_ops: dict = field(default_factory=dict)

    def record(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


# -- shared helpers -------------------------------------------------------------

def _sub_seed(seed: int, stream: int) -> int:
    return seed * 1_000_003 + stream


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so the peak
    leaves out the harness's data generation and plaintext oracle."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def _peak_rss_mb(cluster) -> float:
    pids = [os.getpid()]
    if cluster is not None:
        pids += [proc.pid for proc in cluster.processes]
    return sum(_vm_hwm_mb(pid) for pid in pids)


def _daemon_op_seconds(cluster) -> dict:
    """op -> (count, seconds) summed over the shard daemons."""
    totals: dict = {}
    handles = cluster.connect()
    try:
        for handle in handles:
            histogram = handle.metrics().get("sdb_server_op_seconds", {})
            for series in histogram.get("values", ()):
                op = series["labels"].get("op", "?")
                count, seconds = totals.get(op, (0, 0.0))
                totals[op] = (count + series["count"], seconds + series["sum"])
    finally:
        for handle in handles:
            handle.close()
    return totals


def _daemon_delta(before: dict, after: dict) -> dict:
    delta = {}
    for op, (count, seconds) in after.items():
        count0, seconds0 = before.get(op, (0, 0.0))
        if op != "metrics" and count > count0:
            delta[op] = (count - count0, seconds - seconds0)
    return delta


class _Deployment:
    """One client connection, over shard daemons or one in-process SP."""

    def __init__(self, wire: bool):
        self.wire = wire
        self.cluster = None
        self.conn = None

    def fresh(self, key_seed: int):
        """Close what is open, start empty daemons; returns a connect thunk
        so the caller times key drawing and upload but not daemon launch."""
        self.close()
        gc.collect()
        if self.wire:
            self.cluster = launch_local_shards(SHARDS)
            shards = [f"{host}:{port}" for host, port in self.cluster.endpoints]
            # a fresh daemon's first request pays its lazy start-up:
            # that belongs to the launch, not to the timed set-up
            for handle in self.cluster.connect():
                handle.ping()
                handle.close()
        rng = seeded_rng(key_seed)

        def connect():
            if self.wire:
                self.conn = api.connect(
                    shards=shards, modulus_bits=MODULUS_BITS,
                    value_bits=VALUE_BITS, rng=rng,
                )
            else:
                self.conn = api.connect(
                    modulus_bits=MODULUS_BITS, value_bits=VALUE_BITS, rng=rng,
                )
            return self.conn

        return connect

    def cpu_seconds(self) -> float:
        """CPU time (user + system) used so far by this process and by the
        shard daemons now running."""
        total = time.process_time()
        for proc in self.cluster.processes if self.cluster is not None else ():
            with open(f"/proc/{proc.pid}/stat") as stat:
                # utime and stime: fields 14 and 15, after "pid (comm)"
                fields = stat.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        return total

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None


def _set_up(result, deployment, repeats, key_seed, load, tracer, after=None):
    """Draw keys, encrypt and upload ``repeats`` times into empty SPs,
    calling ``after(conn, repeat)`` while each deployment is up; the last
    one stays up for the measured loop.  Each set-up draws its own keys:
    what a pass costs depends on the key draw (see README.md).  A traced
    run sets up once, as the tracer's first operation."""
    _reset_peak_rss()
    for repeat in range(repeats):
        # no local reference may outlive a repeat: fresh() must be able to
        # collect the previous deployment before the next one is built
        repeat_seed = _sub_seed(key_seed, repeat)
        connect = deployment.fresh(repeat_seed)
        slices = [] if tracer is not None else [
            calibration_slice() for _ in range(SETUP_CAL_SLICES)
        ]
        with _traced(tracer, "setup"):
            cpu0 = deployment.cpu_seconds()
            start = time.perf_counter()
            load(connect(), _sub_seed(repeat_seed, 1))
            result.setup_wall_s.append(time.perf_counter() - start)
            result.setup_cpu_s.append(deployment.cpu_seconds() - cpu0)
        if tracer is None:
            slices += [calibration_slice() for _ in range(SETUP_CAL_SLICES)]
            result.setup_cal_s.append(statistics.mean(slices))
        if after is not None:
            after(deployment.conn, repeat)
    if tracer is not None:
        result.setup_modexp = tracer.take_modexps()
    return deployment.conn


def _traced(tracer, name: str):
    """One traced operation, or nothing when ``tracer`` is None."""
    return contextlib.nullcontext() if tracer is None else tracer.op(name)


# -- olap -----------------------------------------------------------------------

def _same_answer(got, want) -> bool:
    """Ordered rows, floats equal within rel=abs=1e-6: the tolerance of
    ``tests/workloads/test_tpch_end_to_end.py``.  That test also rounds
    floats to 4 places first; this check does not, because rounding
    splits values that straddle a 4th-decimal boundary (seed 3, Q1 on 2
    shards: AVG(l_discount) 0.05375 against 0.05375000000000001)."""
    if len(got) != len(want):
        return False
    for row_got, row_want in zip(got, want):
        if len(row_got) != len(row_want):
            return False
        for value_got, value_want in zip(row_got, row_want):
            if isinstance(value_got, float) or isinstance(value_want, float):
                if value_got is None or value_want is None:
                    if value_got is not value_want:
                        return False
                elif not math.isclose(value_got, value_want, rel_tol=1e-6, abs_tol=1e-6):
                    return False
            elif value_got != value_want:
                return False
    return True


def _olap_pass(result, cursor, oracle, engine, cpu, record: bool, tracer=None):
    """Run Q1..Q22 once, checking each answer.  Returns the pass's summed
    latency and CPU time (execute + fetch + decrypt, not the check)."""
    total = busy_cpu = 0.0
    for number, sql in QUERIES.items():
        if record:
            result.passes_cal_s.append(calibration_slice())
        result.attempted += 1
        try:
            cpu0 = cpu()
            with _traced(tracer, f"Q{number}"):
                start = time.perf_counter()
                cursor.execute(sql)
                rows = cursor.fetchall()
                elapsed = time.perf_counter() - start
            busy_cpu += cpu() - cpu0
        except Exception as error:  # counted, reported, never fatal
            result.fail(f"Q{number}: {type(error).__name__}: {error}")
            continue
        total += elapsed
        if engine is not None:
            result.exec_paths[f"Q{number}"] = engine.last_exec_path
        if not _same_answer(rows, oracle[number]):
            result.fail(f"Q{number}: wrong answer")
        elif record:
            result.record(f"Q{number}", elapsed)
    if record:
        result.passes_s.append(total)
        result.passes_cpu_s.append(busy_cpu)
    return total


def run_olap(workload, seed, seconds, sizes: Sizes, tracer=None) -> Result:
    wire = workload == "olap-2shard-wire"
    result = Result(workload)
    data = tpch_generate(scale_factor=sizes.tpch_sf, seed=seed)
    plain = load_plain(data)
    oracle = {n: list(plain.execute(sql).rows()) for n, sql in QUERIES.items()}
    del plain

    def load(conn, upload_seed):
        load_encrypted(
            conn.proxy, data, rng=seeded_rng(upload_seed),
            shard_by=DEFAULT_SHARD_COLUMNS if wire else None,
        )

    deployment = _Deployment(wire)
    cpu = deployment.cpu_seconds

    def session(conn):
        # the in-process SP's engine reports the path of each query
        return conn.cursor(), None if wire else conn.proxy.server.engine

    def measure(conn, repeat):
        """One timed pass on each set-up's keys.  The first set-up's
        warm-up is a full pass; later ones only refill the statement
        cache, as one process's lazy start-up is paid once."""
        cursor, engine = session(conn)
        if repeat == 0:
            _olap_pass(result, cursor, oracle, engine, cpu, record=False)
        else:
            for sql in QUERIES.values():
                conn.prepare(sql)
        _olap_pass(result, cursor, oracle, engine, cpu, record=True)

    try:
        key_seed = _sub_seed(seed, 2)
        if tracer is None:
            conn = _set_up(
                result, deployment, SETUP_REPEATS, key_seed, load, None, after=measure
            )
            cursor, engine = session(conn)
            while sum(result.passes_s) < seconds:
                _olap_pass(result, cursor, oracle, engine, cpu, record=True)
        else:
            conn = _set_up(result, deployment, 1, key_seed, load, tracer)
            cursor, engine = session(conn)
            _olap_pass(result, cursor, oracle, engine, cpu, record=False)
            result.untraced_s = _olap_pass(result, cursor, oracle, engine, cpu, record=False)
            before = _daemon_op_seconds(deployment.cluster) if wire else {}
            result.traced_s = _olap_pass(
                result, cursor, oracle, engine, cpu, record=False, tracer=tracer
            )
            if wire:
                result.daemon_ops = _daemon_delta(before, _daemon_op_seconds(deployment.cluster))
            info = conn.cache_info()
            result.cache_hit_ratio = info.hits / max(1, info.hits + info.misses)
        result.peak_rss_mb = _peak_rss_mb(deployment.cluster)
    finally:
        deployment.close()
    return result


# -- oltp -----------------------------------------------------------------------

def run_oltp(workload, seed, seconds, sizes: Sizes, tracer=None) -> Result:
    result = Result(workload)
    data = tpcc.generate(**dict(sizes.tpcc), seed=_sub_seed(seed, 3))
    committed = []

    def load(conn, upload_seed):
        tpcc.load_encrypted(conn.proxy, data, rng=seeded_rng(upload_seed), shard=True)

    deployment = _Deployment(wire=True)
    try:
        repeats = 1 if tracer is not None else SETUP_REPEATS
        conn = _set_up(result, deployment, repeats, _sub_seed(seed, 4), load, tracer)
        before = tpcc.checksum(conn)
        schedule = _schedule_stream(data, _sub_seed(seed, 5))

        def run(count, record, traced=None):
            elapsed_total = 0.0
            # drawn first: building the schedule is harness work, not the
            # batch's
            txns = list(itertools.islice(schedule, count))
            if record:
                result.passes_cal_s.append(calibration_slice())
            cpu0 = deployment.cpu_seconds()
            for txn in txns:
                result.attempted += 1
                try:
                    with _traced(traced, txn["kind"]):
                        start = time.perf_counter()
                        retries = tpcc.run_txn(conn, txn)
                        elapsed = time.perf_counter() - start
                except Exception as error:  # counted, reported, never fatal
                    result.fail(f"{txn['kind']}: {type(error).__name__}: {error}")
                    continue
                committed.append(txn)
                result.retries += retries
                elapsed_total += elapsed
                if record:
                    result.record(txn["kind"], elapsed)
            if record:
                result.passes_s.append(elapsed_total)
                result.passes_cpu_s.append(deployment.cpu_seconds() - cpu0)
            return elapsed_total

        run(sizes.txn_batch, record=False)
        if tracer is None:
            start = time.perf_counter()
            while not result.passes_s or time.perf_counter() - start < seconds:
                run(sizes.txn_batch, record=True)
        else:
            result.untraced_s = run(sizes.traced_txns, record=False)
            daemons0 = _daemon_op_seconds(deployment.cluster)
            result.traced_s = run(sizes.traced_txns, record=False, traced=tracer)
            result.daemon_ops = _daemon_delta(daemons0, _daemon_op_seconds(deployment.cluster))
            info = conn.cache_info()
            result.cache_hit_ratio = info.hits / max(1, info.hits + info.misses)

        got = tpcc.delta(tpcc.checksum(conn), before)
        want = tpcc.expected_delta(data, [committed])
        if got != want:
            # which transaction went wrong is unknowable from a checksum:
            # every committed one counts as failed
            result.failed += len(committed)
            result.errors.append(f"checksum delta {got} != expected {want}")
        result.peak_rss_mb = _peak_rss_mb(deployment.cluster)
    finally:
        deployment.close()
    return result


def _schedule_stream(data, seed: int):
    """An endless 50/50 NewOrder/Payment schedule for one session, built
    in chunks with disjoint order ids."""
    chunk = 256
    for index in itertools.count():
        yield from tpcc.build_schedule(
            data, sessions=1, transactions=chunk, seed=seed + index,
            payment_fraction=0.5, o_id_base=index * chunk,
        )[0]


# -- end-to-end metrics -----------------------------------------------------------

def _percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fast_median(values) -> float:
    """The median of the fastest fifth of ``values``, at least two of them.

    The reference host is a shared 2-vCPU VM whose speed drifts, and its
    slow phases often outlast a run; the fast fifth of a run's samples is
    what repeats best (see README.md).  With two samples this is their
    mean."""
    ordered = sorted(values)
    keep = max(2, math.ceil(len(ordered) / 5))
    return statistics.median(ordered[:keep])


def end_to_end(result: Result) -> dict:
    """The gated end-to-end metrics, the same three on every workload, as
    ``name -> (value, unit)``.  The times are normalized: CPU seconds
    scaled by ``CAL_NOMINAL_S`` over the calibration slices run beside
    them."""
    setups = [
        cpu * CAL_NOMINAL_S / cal
        for cpu, cal in zip(result.setup_cpu_s, result.setup_cal_s)
    ]
    pass_scale = CAL_NOMINAL_S / statistics.mean(result.passes_cal_s)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "pass_cpu_norm_s": (statistics.mean(result.passes_cpu_s) * pass_scale, "s"),
    }


def workload_report(result: Result) -> dict:
    """Wall-clock and workload-specific figures, printed but not gated
    (see README.md for why), as ``name -> (value, unit)``.  An olap query
    is a read-only autocommit transaction, so ``txn_per_s`` counts
    queries there."""
    kinds = result.latencies
    out = {
        "error_rate": (result.failed / max(1, result.attempted), "ratio"),
        "setup_wall_s": (fast_median(result.setup_wall_s), "s"),
        "setup_cpu_s": (statistics.median(result.setup_cpu_s), "s"),
    }
    if result.passes_cpu_s:
        out["pass_cpu_s"] = (statistics.mean(result.passes_cpu_s), "s")
    if result.passes_cal_s:
        out["cal_slice_ms"] = (statistics.mean(result.passes_cal_s) * 1e3, "ms")
    latencies = [v for values in kinds.values() for v in values]
    if latencies:
        out["pass_s"] = (fast_median(result.passes_s), "s")
        out["txn_per_s"] = (len(latencies) / sum(latencies), "1/s")
    if result.workload.startswith("olap"):
        medians = {kind: statistics.median(v) for kind, v in kinds.items()}
        if medians:
            out["query_geomean_ms"] = (_geomean(medians.values()) * 1e3, "ms")
        for kind, median in medians.items():
            out[f"{kind}_ms"] = (median * 1e3, "ms")
        return out
    for kind, values in sorted(kinds.items()):
        label = kind.replace("_", "")
        out[f"{label}_p50_ms"] = (statistics.median(values) * 1e3, "ms")
        out[f"{label}_p90_ms"] = (_percentile(values, 0.9) * 1e3, "ms")
        out[f"{label}_samples"] = (len(values), "count")
    return out


def run(workload, seed, seconds, sizes: Sizes = Sizes(), tracer=None) -> Result:
    runner = run_oltp if workload.startswith("oltp") else run_olap
    return runner(workload, seed, seconds, sizes, tracer)
