"""Connections: session state, statement cache, transaction control.

A :class:`Connection` wraps one :class:`~repro.core.proxy.SDBProxy` (and
therefore one key store + one server, in-process or remote) and owns an LRU
cache of prepared :class:`~repro.api.statement.Statement` objects keyed by
SQL text.  Even applications that never call :meth:`Connection.prepare` get
plan reuse: re-executing the same SQL string through any cursor hits the
cache and skips parse + rewrite.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict, namedtuple
from typing import Optional, Sequence

from repro.api import exceptions as exc
from repro.api.backend import ExecutionContext
from repro.api.cursor import Cursor
from repro.api.statement import Statement
from repro.obs.metrics import global_metrics
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import NOOP_TRACER, Tracer, render_span_tree
from repro.sql import ast

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize evictions")

_STMT_CACHE = global_metrics().counter(
    "sdb_stmt_cache_total",
    "statement-cache lookups by outcome (hit/miss/eviction)",
)


class Connection:
    """A PEP-249 connection over an SDB proxy."""

    # exceptions as attributes (PEP-249 optional extension)
    Warning = exc.Warning
    Error = exc.Error
    InterfaceError = exc.InterfaceError
    DatabaseError = exc.DatabaseError
    DataError = exc.DataError
    OperationalError = exc.OperationalError
    IntegrityError = exc.IntegrityError
    InternalError = exc.InternalError
    ProgrammingError = exc.ProgrammingError
    NotSupportedError = exc.NotSupportedError

    def __init__(self, proxy, statement_cache_size: int = 64,
                 tracing: bool = False,
                 slow_query_s: Optional[float] = None):
        if statement_cache_size < 1:
            raise exc.InterfaceError("statement cache needs at least one slot")
        self.proxy = proxy
        self.closed = False
        #: the backend connect() built for this session, closed with it
        self._owned_backend = None
        #: per-session tracer; disabled by default so the hot path pays one
        #: ContextVar read.  ``tracing=True`` (or connect(tracing=True))
        #: records span trees for every statement on this connection.
        self.tracer = Tracer() if tracing else NOOP_TRACER
        #: session-level slow-query log (span tree + QueryReport body)
        self.slowlog = (
            SlowQueryLog(slow_query_s) if slow_query_s is not None else None
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self._cache_size = statement_cache_size
        self._cache: OrderedDict[str, Statement] = OrderedDict()
        # weak: a cursor the application dropped must not be kept alive
        # (with its buffered rows) just so close() can reach it
        self._cursors: weakref.WeakSet = weakref.WeakSet()
        self._in_txn = False
        #: this session's execution context: identity, last observed
        #: snapshot epoch, statement-cache handle, leakage accumulator.
        #: Threaded through cursor -> statement -> proxy; the session id
        #: also tags wire requests so a networked SP keys its dispatch
        #: (and per-session statistics) by session.
        self.context = ExecutionContext(statements=self._cache)
        remote_session = getattr(proxy.server, "session_id", None)
        if remote_session is not None:
            # a wire client allocated its own session identity; adopt it
            # so client- and server-side views of the session line up
            self.context.session_id = remote_session

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        if self._in_txn:
            # PEP-249: closing with work pending rolls it back; leaving the
            # transaction open would also wedge the server's single-writer
            # transaction slot for every other session
            try:
                self._txn("rollback")
            except Exception:
                pass  # server already gone
            self._in_txn = False
        for cursor in list(self._cursors):
            cursor.close()
        self._cursors.clear()
        for statement in self._cache.values():
            statement.close()
        self._cache.clear()
        if self._owned_backend is not None:
            # a coordinator's scatter pool and shard sockets, a wire
            # socket, a WAL file handle: release them with the session
            try:
                self._owned_backend.close()
            except Exception:
                pass
        self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise exc.InterfaceError("connection is closed")

    # -- cursors / statements ------------------------------------------------

    def cursor(self) -> Cursor:
        self._check_open()
        cursor = Cursor(self)
        self._cursors.add(cursor)
        return cursor

    def prepare(self, sql: str) -> Statement:
        """Parse (and cache) ``sql`` as a prepared statement.

        The first SELECT execution per parameter type signature also caches
        the rewritten query and decryption plan; later executions only bind.
        """
        self._check_open()
        try:
            return self.statement(sql)
        except exc.Error:
            raise
        except Exception as error:
            raise exc.map_exception(error) from error

    def statement(self, sql: str) -> Statement:
        """LRU-cached Statement lookup (raw errors; used by the proxy shim)."""
        cached = self._cache.get(sql)
        if cached is not None and not cached.closed:
            self._cache.move_to_end(sql)
            self.cache_hits += 1
            _STMT_CACHE.labels(outcome="hit").inc()
            return cached
        self.cache_misses += 1
        _STMT_CACHE.labels(outcome="miss").inc()
        statement = Statement(self, sql)
        self._cache[sql] = statement
        while len(self._cache) > self._cache_size:
            # eviction only drops the cache's reference: a statement the
            # application still holds (conn.prepare) keeps working, and its
            # server-side handles are released by its GC finalizer once the
            # last reference is gone
            self._cache.popitem(last=False)
            self.cache_evictions += 1
            _STMT_CACHE.labels(outcome="eviction").inc()
        return statement

    def execute(self, sql, params: Sequence = ()) -> Cursor:
        """Convenience: ``cursor().execute(sql, params)``."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql, seq_of_params) -> Cursor:
        return self.cursor().executemany(sql, seq_of_params)

    def cache_info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.cache_hits,
            misses=self.cache_misses,
            maxsize=self._cache_size,
            currsize=len(self._cache),
            evictions=self.cache_evictions,
        )

    def cached_statements(self) -> list[str]:
        """Cached SQL texts in eviction order (least recent first)."""
        return list(self._cache)

    # -- observability --------------------------------------------------------

    def metrics(self) -> dict:
        """A JSON-able snapshot of the process metrics registry plus this
        session's statement-cache counters (the ``\\stats`` surface)."""
        snapshot = global_metrics().snapshot()
        snapshot["session"] = {
            "type": "session",
            "help": "per-connection statement cache",
            "values": [
                {"labels": {"counter": "cache_hits"},
                 "value": self.cache_hits},
                {"labels": {"counter": "cache_misses"},
                 "value": self.cache_misses},
                {"labels": {"counter": "cache_evictions"},
                 "value": self.cache_evictions},
                {"labels": {"counter": "statements"},
                 "value": self.context.executions},
            ],
        }
        return snapshot

    def trace_spans(self, trace_id: Optional[str] = None) -> list:
        """Finished spans from this connection's tracer (last trace when
        ``trace_id`` is None)."""
        if trace_id is None:
            trace_id = self.tracer.last_trace_id
        return self.tracer.spans(trace_id)

    def span_tree(self, trace_id: Optional[str] = None) -> str:
        """Rendered ASCII span tree of one trace (default: the last)."""
        return render_span_tree(self.trace_spans(trace_id))

    def slow_queries(self) -> list:
        """Entries from the session slow-query log (empty when disabled)."""
        return self.slowlog.entries() if self.slowlog is not None else []

    def _record_slow_select(self, elapsed_s: float, execution) -> None:
        """Session slow-log hook: span tree + report for one offender."""
        from repro.api.report import QueryReport

        report = QueryReport(
            kind="select",
            rewritten_sql=execution.rewritten_sql,
            cost=execution.cost(),
            leakage=execution.plan.leakage + execution.scatter_leakage,
            notes=execution.plan.notes,
            scatter=execution.scatter,
            timing=execution.timing_summary(),
        )
        root = execution.root_span
        body = report.pretty()
        trace_id = None
        if root is not None:
            trace_id = root.trace_id
            tree = render_span_tree(self.tracer.spans(trace_id))
            if tree:
                body = f"{body}\nspans:\n{tree}"
        self.slowlog.record_slow_query(
            elapsed_s, "select", body, trace_id=trace_id
        )

    # -- elastic resharding ---------------------------------------------------

    def rebalance(self, target_count: int, *, endpoints=None, **options):
        """Grow or shrink this session's cluster to ``target_count`` shards.

        Online: other sessions keep executing while encrypted buckets
        stream between shards, re-keyed in flight.  ``endpoints`` supplies
        ``"host:port"`` daemons (or server objects) when growing a remote
        cluster.  The per-rebalance leakage report (reassignment
        cardinalities) is recorded on this session's context and returned
        as part of the :class:`~repro.cluster.rebalance.RebalanceReport`.
        """
        self._check_open()
        try:
            report = self.proxy.rebalance(
                target_count, endpoints=endpoints, **options
            )
        except exc.Error:
            raise
        except Exception as error:
            raise exc.map_exception(error) from error
        self.context.record_statement(report.leakage)
        return report

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        self._check_open()
        self._txn("begin")
        self._in_txn = True

    def commit(self) -> None:
        """Commit the open transaction (no-op outside one, per PEP-249).

        A first-updater-wins validation failure surfaces as
        :class:`~repro.api.exceptions.TransactionConflict`; the server
        already discarded the write set, so the connection leaves the
        transaction either way and the application may simply retry
        from :meth:`begin`.
        """
        self._check_open()
        if not self._in_txn:
            return
        try:
            self._txn("commit")
        except exc.TransactionConflict:
            self._in_txn = False  # the server rolled the transaction back
            raise
        self._in_txn = False

    def rollback(self) -> None:
        self._check_open()
        if not self._in_txn:
            return
        self._txn("rollback")
        self._in_txn = False

    def _txn(self, kind: str) -> None:
        # txn control gets its own root span (there is no SELECT root to
        # nest under); daemon-side 2PC spans stitch beneath it
        with self.tracer.span(f"txn-{kind}") as span:
            span.set_attr("kind", kind)
            try:
                self.proxy.execute_statement(
                    ast.TxnControl(kind=kind), context=self.context
                )
            except exc.Error:
                raise
            except Exception as error:
                raise exc.map_exception(error) from error

    # -- compatibility shim (used by SDBProxy.query) -------------------------

    def query(self, sql: str, params: Sequence = ()):
        """Execute a SELECT and materialize the classic QueryResult.

        Raises the pipeline's raw exceptions (ParseError, RewriteError...)
        -- this is the back-compat surface behind ``SDBProxy.query``.
        """
        from repro.core.proxy import QueryResult

        self._check_open()
        statement = self.statement(sql)
        if statement.kind != "select":
            raise ValueError("query() runs SELECT statements only")
        execution = statement.execute_select(tuple(params))
        table = execution.fetch_rest()
        return QueryResult(
            table=table,
            rewritten_sql=execution.rewritten_sql,
            cost=execution.cost(),
            leakage=execution.plan.leakage + execution.scatter_leakage,
            notes=execution.plan.notes,
        )


def _build_backend(spec, shard_id: int):
    """One shard backend from a spec entry (str endpoint / server / None)."""
    if spec is None:
        from repro.core.server import SDBServer

        return SDBServer(shard_id=shard_id)
    if isinstance(spec, str):
        from repro.net.client import RemoteServer

        shard_host, _, shard_port = spec.partition(":")
        return RemoteServer.connect(
            shard_host or "127.0.0.1", int(shard_port or 9753)
        )
    return spec  # an already-built server object


def _build_cluster(shards, replicas: int = 0, weights=None):
    """A :class:`~repro.cluster.Coordinator` from a ``shards=`` spec.

    ``replicas`` > 0 wraps every shard in a
    :class:`~repro.cluster.ShardGroup` of ``1 + replicas`` members (the
    extra members are fresh in-process servers unless the spec entry is
    itself a list/tuple naming every member explicitly).  A list spec
    whose entries are lists/tuples always builds replica groups, one group
    per entry.
    """
    from repro.cluster import Coordinator, ShardGroup

    if isinstance(shards, int):
        specs: list = [None] * shards
    else:
        specs = list(shards)
    grouped = replicas > 0 or any(
        isinstance(spec, (list, tuple)) for spec in specs
    )
    backends = []
    for index, spec in enumerate(specs):
        if not grouped:
            backends.append(_build_backend(spec, index))
            continue
        if isinstance(spec, (list, tuple)):
            members = [_build_backend(m, index) for m in spec]
        else:
            members = [_build_backend(spec, index)]
        while len(members) < 1 + max(0, replicas):
            members.append(_build_backend(None, index))
        backends.append(ShardGroup(members))
    return Coordinator(backends, weights=weights)


def connect(
    proxy=None,
    *,
    server=None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    durable: Optional[str] = None,
    shards=None,
    replicas: int = 0,
    weights=None,
    modulus_bits: int = 1024,
    value_bits: int = 64,
    policy=None,
    rng=None,
    statement_cache_size: int = 64,
    tracing: bool = False,
    slow_query_s: Optional[float] = None,
) -> Connection:
    """Open a session.

    Exactly one deployment shape is chosen, in this order:

    * ``proxy=...``        -- wrap an existing :class:`SDBProxy`;
    * ``server=...``       -- wrap an existing server object (in-process
      :class:`SDBServer`, :class:`DurableServer`, :class:`RemoteServer`
      or a cluster :class:`~repro.cluster.Coordinator`);
    * ``shards=...``       -- a sharded cluster: an int (that many
      in-process shard servers) or a list of ``"host:port"`` strings /
      server objects, wrapped in a :class:`~repro.cluster.Coordinator`
      whose first entry is the primary shard.  ``replicas=N`` gives every
      shard N synchronous replicas (reads fan out across them; a dead
      primary fails over automatically); a list-of-lists spec names each
      replica group's members explicitly.  ``weights=`` skews row
      placement toward higher-capacity shards;
    * ``host=.../port=...``-- connect to a remote SP daemon;
    * ``durable=DIR``      -- in-process SP persisted under ``DIR``;
    * nothing              -- fresh in-memory SP.

    When no proxy is supplied a new one is created, which draws fresh system
    keys (``modulus_bits``/``value_bits``/``rng``).

    ``tracing=True`` records a structured span tree per query
    (:mod:`repro.obs.trace`); ``slow_query_s=`` arms the coordinator-side
    slow-query log at that threshold.  Both default off and cost ~nothing
    when off.
    """
    owned_backend = None
    if proxy is None:
        from repro.core.proxy import SDBProxy

        if server is None:
            if shards is not None:
                if host is not None or port is not None or durable is not None:
                    raise exc.InterfaceError(
                        "shards= is its own deployment shape; do not combine "
                        "it with host/port/durable"
                    )
                if replicas < 0:
                    raise exc.InterfaceError("replicas= cannot be negative")
                server = owned_backend = _build_cluster(
                    shards, replicas=replicas, weights=weights
                )
            elif host is not None or port is not None:
                if durable is not None:
                    raise exc.InterfaceError(
                        "host/port is its own deployment shape; do not "
                        "combine it with durable"
                    )
                from repro.net.client import RemoteServer

                server = owned_backend = RemoteServer.connect(
                    host or "127.0.0.1", int(port)
                )
            elif durable is not None:
                from repro.storage.durable import DurableServer

                server = owned_backend = DurableServer(durable)
            else:
                from repro.core.server import SDBServer

                server = SDBServer()
        elif shards is not None:
            raise exc.InterfaceError(
                "pass either server= or shards=, not both"
            )
        if shards is None and (replicas or weights):
            raise exc.InterfaceError(
                "replicas=/weights= only apply to the shards= deployment shape"
            )
        proxy = SDBProxy(
            server,
            modulus_bits=modulus_bits,
            value_bits=value_bits,
            policy=policy,
            rng=rng,
        )
    elif (
        server is not None or host is not None or durable is not None
        or shards is not None
    ):
        raise exc.InterfaceError(
            "pass either an existing proxy or deployment parameters, not both"
        )
    connection = Connection(
        proxy,
        statement_cache_size=statement_cache_size,
        tracing=tracing,
        slow_query_s=slow_query_s,
    )
    connection._owned_backend = owned_backend
    return connection
