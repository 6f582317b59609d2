"""Outside-in tracing for the benchmark's traced run.

Nothing under ``src/`` is edited: :func:`install` wraps the public entry
points of each layer in place (class attributes and module globals) and
shadows the builtin ``pow`` in the modules that do modular
exponentiation.  Every wrapped call records one :class:`Span` (name,
start, end, parent, op id) in memory; ``pow`` calls are counted and timed
per call site instead, because there are tens of thousands per pass.

The benchmark opens one root span per operation with :meth:`Tracer.op`;
spans started outside any operation (setup is its own root) are dropped.
A span started on a worker thread (the coordinator's scatter pool) whose
own stack is empty takes the innermost open span of the main thread as
its parent, so scatter RPCs nest under the coordinator call that issued
them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict

#: modules that call ``pow(base, exp, mod)``, by metric site name
POW_SITES = {
    "secret_sharing": "repro.crypto.secret_sharing",
    "keyops": "repro.crypto.keyops",
    "udfs": "repro.core.udfs",
    "ntheory": "repro.crypto.ntheory",
}

#: SDB UDF names -> per-UDF metric names (the rest are summed as "other")
UDF_NAMES = {
    "sdb_keyupdate": "keyupdate",
    "sdb_mul": "mul",
    "sdb_mul_plain": "mul_plain",
    "sdb_add": "add",
    "sdb_agg_sum": "agg_sum",
    "sdb_sign": "sign",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = None

    def set(self, key, value):
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value


class Tracer:
    """In-memory span recorder plus per-site modexp counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op_id = 0
        self.modexp = defaultdict(int)
        self.modexp_s = defaultdict(float)
        self.modinv = 0
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_ident = threading.main_thread().ident
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str):
        """Open a span under the calling thread's innermost span."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            return None  # outside every operation: not recorded
        span = Span(name, time.perf_counter(), parent, self.op_id)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, name: str):
        """One benchmark operation: a root span, and the only time the
        wrappers and ``pow`` counters record anything."""
        self.op_id += 1
        span = Span(name, time.perf_counter(), None, self.op_id)
        self._main_stack.append(span)
        self.active = True
        try:
            yield span
        finally:
            self.active = False
            self.finish(span)

    def take_modexps(self) -> int:
        """All modexps counted so far; the per-site counters restart."""
        total = sum(self.modexp.values())
        self.modexp.clear()
        self.modexp_s.clear()
        self.modinv = 0
        return total


# -- wrapping -----------------------------------------------------------------

def _wrap(tracer: Tracer, name: str, fn, post=None, pre=None, on_exit=None):
    """``fn`` recording a span named ``name`` while the tracer is active.

    ``post(span, args, kwargs, result)`` runs after a call that returned;
    ``pre(span, args)`` and ``on_exit(span, args)`` run before and after
    every call, raising or not.  They attach counts (rows, bytes, exec
    path) as span attributes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.start(name)
        if span is None:
            return fn(*args, **kwargs)
        if pre is not None:
            pre(span, args)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.set("error", True)
            raise
        else:
            if post is not None:
                post(span, args, kwargs, result)
            return result
        finally:
            if on_exit is not None:
                on_exit(span, args)
            tracer.finish(span)

    return traced


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro.*`` module global bound to ``original`` (e.g.
    by ``from x import f``) at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _patch_function(tracer, module, attr, name, **hooks) -> None:
    original = getattr(module, attr)
    _rebind_everywhere(original, _wrap(tracer, name, original, **hooks))


def _patch_method(tracer, cls, attr, name, **hooks) -> None:
    setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr], **hooks))


def _public_methods(cls) -> list[str]:
    return [
        attr for attr, value in vars(cls).items()
        if not attr.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def _shadow_pow(tracer: Tracer, module, site: str) -> None:
    builtin_pow = pow
    perf_counter = time.perf_counter
    lock = tracer._lock

    def traced_pow(base, exp, mod=None):
        if not tracer.active:
            return builtin_pow(base, exp, mod)
        start = perf_counter()
        result = builtin_pow(base, exp, mod)
        elapsed = perf_counter() - start
        with lock:
            if exp == -1:
                tracer.modinv += 1
            else:
                tracer.modexp[site] += 1
                tracer.modexp_s[site] += elapsed
        return result

    module.pow = traced_pow


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points for ``tracer``.

    Call before any deployment is built: the SP registers its UDFs when
    it is constructed, and only wrapped UDFs are registered then.
    """
    import importlib

    from repro.api.connection import Connection
    from repro.api.cursor import Cursor
    from repro.cluster.coordinator import Coordinator
    from repro.core import decryptor, encryptor, plan, rewriter, server, udfs
    from repro.engine.executor import Engine
    from repro.net.client import RemoteServer
    from repro.sql import parser

    for site, module_name in POW_SITES.items():
        _shadow_pow(tracer, importlib.import_module(module_name), site)

    # api: the session surface the benchmark drives
    for attr in ("execute", "fetchall", "fetchone"):
        _patch_method(tracer, Cursor, attr, "api." + attr)
    for attr in ("begin", "commit", "rollback"):
        _patch_method(tracer, Connection, attr, "api." + attr)

    # sql
    _patch_function(tracer, parser, "parse", "sql.parse")
    _patch_function(tracer, parser, "parse_statement", "sql.parse")

    # core.rewriter / core.plan
    _patch_method(tracer, rewriter.Rewriter, "rewrite", "core.rewriter.rewrite")
    for attr in ("rewrite_update", "rewrite_delete"):
        _patch_method(tracer, rewriter.Rewriter, attr, "core.rewriter.rewrite_dml")
    _patch_method(tracer, plan.RewrittenQuery, "bind_slots", "core.plan.bind")

    # core.encryptor / core.decryptor
    def encrypted_rows(span, args, kwargs, result):
        span.set("rows", len(result))

    _patch_function(tracer, encryptor, "encrypt_table", "core.encryptor.encrypt_table")
    _patch_function(tracer, encryptor, "encrypt_rows", "core.encryptor.encrypt_rows",
                    post=encrypted_rows)

    def decrypted_rows(span, args, kwargs, result):
        span.set("rows", result.num_rows)

    _patch_method(tracer, decryptor.Decryptor, "decrypt", "core.decryptor.decrypt",
                  post=decrypted_rows)

    # core.server (the in-process SP's prepared-statement surface)
    for attr in ("execute_prepared", "fetch_rows"):
        _patch_method(tracer, server.SDBServer, attr, "core.server." + attr)

    # engine: top-level executions carry the path they took
    def exec_path(span, args, kwargs, result):
        top_level = len(args) < 3 and kwargs.get("outer_scope") is None
        if top_level:
            span.set("path", args[0].last_exec_path)

    _patch_method(tracer, Engine, "execute", "engine.execute", post=exec_path)

    def udf_rows(rows_of):
        def post(span, args, kwargs, result):
            span.set("rows", rows_of(args))
        return post

    for udf, func in list(udfs.SCALAR_UDFS.items()):
        label = "engine.udf." + UDF_NAMES.get(udf, "other")
        udfs.SCALAR_UDFS[udf] = _wrap(tracer, label, func, post=udf_rows(lambda a: 1))
    for udf, func in list(udfs.BATCH_UDFS.items()):
        label = "engine.udf." + UDF_NAMES.get(udf, "other")
        udfs.BATCH_UDFS[udf] = _wrap(tracer, label, func, post=udf_rows(lambda a: a[0]))
    for udf, cls in udfs.AGGREGATE_UDFS.items():
        label = "engine.udf." + UDF_NAMES.get(udf, "other")
        if "step" in vars(cls):
            _patch_method(tracer, cls, "step", label, post=udf_rows(lambda a: 1))
        if "fold" in vars(cls):
            _patch_method(tracer, cls, "fold", label, post=udf_rows(lambda a: len(a[2])))

    # net: one span per RPC, with the frame bytes it moved
    def bytes_before(span, args):
        span.set("sent", -args[0].bytes_sent)
        span.set("received", -args[0].bytes_received)

    def bytes_after(span, args):
        span.attrs["sent"] += args[0].bytes_sent
        span.attrs["received"] += args[0].bytes_received

    for attr in _public_methods(RemoteServer):
        if attr not in ("connect", "close"):
            _patch_method(tracer, RemoteServer, attr, "net." + attr,
                          pre=bytes_before, on_exit=bytes_after)

    # cluster: every public coordinator call; prepared reads carry a route
    report_of = Coordinator.scatter_report

    def route(span, args, kwargs, result):
        report = report_of(args[0], result[0])
        if report is not None:
            span.set("route", report.mode)

    for attr in _public_methods(Coordinator):
        post = route if attr == "execute_prepared" else None
        _patch_method(tracer, Coordinator, attr, "cluster." + attr, post=post)


# -- per-layer metrics ------------------------------------------------------------

#: RemoteServer methods the workloads call, one metric triple each; any
#: other method is summed under "other"
NET_OPS = (
    "execute", "execute_partial", "execute_prepared", "fetch_rows",
    "close_result", "catalog_names", "execute_dml", "begin", "txn_prepare",
    "txn_finalize", "store_table", "drop_table",
)

#: daemon op labels (``sdb_server_op_seconds{op}``) that differ from the
#: RemoteServer method sending them.  ``txn`` carries begin, commit and
#: rollback alike; cluster commits travel as txn_prepare/txn_finalize, so
#: on these workloads ``txn`` is almost only BEGIN.
_DAEMON_OP_NAMES = {
    "shard_partial": "execute_partial",
    "prepare": "prepare_query",
    "fetch": "fetch_rows",
    "catalog": "catalog_names",
    "insert_rows": "execute_dml",
    "txn": "begin",
}

#: self time is reported per layer; a span belongs to the longest match
LAYERS = (
    "api", "sql", "core.rewriter", "core.plan", "core.encryptor",
    "core.decryptor", "core.server", "engine", "engine.udf", "net", "cluster",
)

UDF_METRICS = tuple(UDF_NAMES.values()) + ("other",)
ROUTES = ("scatter", "coshard", "primary", "fallback")


def _layer(name: str) -> str:
    matches = [
        layer for layer in LAYERS
        if name == layer or name.startswith(layer + ".")
    ]
    return max(matches, key=len, default="bench")


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


class SpanTree:
    """Self times and ancestry over a list of finished spans."""

    def __init__(self, spans):
        self.spans = spans
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        self.self_s = {
            id(span): (span.end - span.start) - _union_length(
                [(c.start, c.end) for c in children[id(span)]]
            )
            for span in spans
        }

    @staticmethod
    def has_ancestor(span, predicate) -> bool:
        parent = span.parent
        while parent is not None:
            if predicate(parent):
                return True
            parent = parent.parent
        return False

    def outermost(self, prefix: str) -> list:
        """Spans named ``prefix``/``prefix.*`` not nested in another one."""
        def match(span):
            return span.name == prefix or span.name.startswith(prefix + ".")
        return [
            s for s in self.spans
            if match(s) and not self.has_ancestor(s, match)
        ]


def _duration(spans) -> float:
    return sum(s.end - s.start for s in spans)


def _attr_sum(spans, key) -> int:
    return sum((s.attrs or {}).get(key, 0) for s in spans)


def layer_metrics(tracer: Tracer, result) -> dict:
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``.

    Counts and times cover the traced phase (one 22-query pass, or
    ``traced_txns`` transactions); ``encrypt_table_s`` and
    ``crypto.modexp.setup`` cover the one traced set-up."""
    setup = [s for s in tracer.spans if s.op == 1 and s.name != "setup"]
    spans = [s for s in tracer.spans if s.op > 1]
    tree = SpanTree(spans)
    roots = [s for s in spans if s.parent is None]
    wall = _duration(roots)
    ops = len(roots)
    m = {}

    def add(name, value, unit):
        m[name] = (value, unit)

    def named(name):
        return [s for s in spans if s.name == name]

    add("api.stmt_cache_hit_ratio", result.cache_hit_ratio, "ratio")
    for name in (
        "sql.parse", "core.rewriter.rewrite", "core.rewriter.rewrite_dml",
        "core.plan.bind",
    ):
        calls = [s for s in tree.outermost(name) if s.name == name]
        add(name + "_s", _duration(calls), "s")
        add(name + "_calls", len(calls), "count")
    add("core.encryptor.encrypt_table_s",
        _duration(s for s in setup if s.name == "core.encryptor.encrypt_table"), "s")
    encrypt = named("core.encryptor.encrypt_rows")
    add("core.encryptor.encrypt_rows_s", _duration(encrypt), "s")
    add("core.encryptor.rows", _attr_sum(encrypt, "rows"), "count")
    decrypt = named("core.decryptor.decrypt")
    add("core.decryptor.decrypt_s", _duration(decrypt), "s")
    add("core.decryptor.rows", _attr_sum(decrypt, "rows"), "count")

    for site in POW_SITES:
        add(f"crypto.modexp.{site}", tracer.modexp.get(site, 0), "count")
        add(f"crypto.modexp_s.{site}", tracer.modexp_s.get(site, 0.0), "s")
    add("crypto.modinv", tracer.modinv, "count")
    add("crypto.modexp.setup", result.setup_modexp, "count")

    add("core.server.execute_s", _duration(tree.outermost("core.server")), "s")

    def in_cluster(span):
        return span.name.startswith("cluster.")

    engine = named("engine.execute")
    # the SP's engine only: on the wire workloads the client-side engine
    # runs the coordinator's merge step, inside a Coordinator call
    sp_paths = [
        s for s in engine
        if s.attrs and s.attrs.get("path") and not tree.has_ancestor(s, in_cluster)
    ]
    paths = {"batch": 0, "row": 0}
    for root in roots:
        taken = {s.attrs["path"] for s in sp_paths if s.op == root.op}
        if taken:
            paths["row" if "row" in taken else "batch"] += 1
    add("engine.exec_path.batch", paths["batch"], "count")
    add("engine.exec_path.row", paths["row"], "count")
    add("engine.batch_ratio", paths["batch"] / max(1, sum(paths.values())), "ratio")
    add("engine.execute_self_s", sum(tree.self_s[id(s)] for s in engine), "s")
    for udf in UDF_METRICS:
        calls = named("engine.udf." + udf)
        add(f"engine.udf.{udf}.rows", _attr_sum(calls, "rows"), "count")
        add(f"engine.udf.{udf}.s", _duration(calls), "s")

    rpcs = tree.outermost("net")
    by_op = defaultdict(list)
    for span in rpcs:
        op = span.name[len("net."):]
        by_op[op if op in NET_OPS else "other"].append(span)
    daemon_s = defaultdict(float)
    for op, (_count, seconds) in result.daemon_ops.items():
        op = _DAEMON_OP_NAMES.get(op, op)
        daemon_s[op if op in NET_OPS else "other"] += seconds
    for op in NET_OPS + ("other",):
        add(f"net.rpcs.{op}", len(by_op[op]), "count")
        add(f"net.rpc_s.{op}", _duration(by_op[op]), "s")
        add(f"net.sp_op_s.{op}", daemon_s[op], "s")
    add("net.rpcs_per_op", len(rpcs) / max(1, ops), "count")
    add("net.bytes_sent", _attr_sum(rpcs, "sent"), "bytes")
    add("net.bytes_received", _attr_sum(rpcs, "received"), "bytes")
    add("net.wire_overhead_s", _duration(rpcs) - sum(daemon_s.values()), "s")

    cluster = [s for s in spans if in_cluster(s)]
    outer_cluster = tree.outermost("cluster")
    add("cluster.self_s", sum(tree.self_s[id(s)] for s in cluster), "s")
    add("cluster.fanout",
        sum(1 for s in rpcs if tree.has_ancestor(s, in_cluster)) / max(1, len(outer_cluster)),
        "count")
    routes = defaultdict(int)
    for span in named("cluster.execute_prepared"):
        if span.attrs and "route" in span.attrs:
            routes[span.attrs["route"]] += 1
    for mode in ROUTES:
        add(f"cluster.route.{mode}", routes[mode], "count")
    commits = named("cluster.commit")
    add("cluster.commit_s", _duration(commits), "s")
    add("cluster.commit_rpcs",
        sum(1 for s in rpcs if tree.has_ancestor(s, lambda p: p.name == "cluster.commit")),
        "count")

    add("core.txn.retries", result.retries, "count")

    self_by_layer = defaultdict(float)
    for span in spans:
        layer = "bench" if span.parent is None else _layer(span.name)
        self_by_layer[layer] += tree.self_s[id(span)]
    for layer in LAYERS + ("bench",):
        add(f"obs.self_s.{layer}", self_by_layer[layer], "s")
    add("obs.self_sum_ratio", sum(self_by_layer.values()) / wall, "ratio")
    add("obs.unattributed_share", self_by_layer["bench"] / wall, "ratio")
    add("obs.trace_overhead", result.traced_s / result.untraced_s, "ratio")
    add("obs.ops", ops, "count")
    add("obs.spans", len(spans), "count")
    return m
