"""The asyncio client tier: ``aconnect() -> AsyncConnection -> AsyncCursor``.

The synchronous session layer (:mod:`repro.api`) is the reference
semantics; this tier gives the identical surface in ``async``/``await``
form, differentially pinned row-for-row by ``tests/api/test_aio.py``::

    import repro.api.aio as aio

    conn = await aio.aconnect(modulus_bits=256)
    await conn.run_sync(
        lambda c: c.proxy.create_table("pay", COLUMNS, ROWS, sensitive=["sal"])
    )
    cur = await conn.execute("SELECT dept, SUM(sal) AS t FROM pay GROUP BY dept")
    async for dept, total in cur:
        ...
    st = await conn.prepare("SELECT COUNT(*) AS c FROM pay WHERE sal > ?")
    cur = await conn.execute(st, [100.0])
    print(await cur.fetchone())
    await conn.close()

Design: each :class:`AsyncConnection` owns one synchronous
:class:`~repro.api.connection.Connection` plus a dedicated single-thread
executor.  Every operation is awaited by handing the sync call to that
worker thread -- the event loop never blocks on parsing, rewriting,
decryption or a wire round trip, and one connection's operations stay
strictly ordered (the PEP-249 contract: a connection is a session, not a
thread pool).  *Concurrency comes from having several connections*: their
worker threads overlap, and the server side -- the readers-writer
in-process server, the session-keyed networked daemon, the scatter pool
of a cluster coordinator -- executes them in parallel.

Every deployment shape, remote ones included, is built by the sync
:func:`repro.api.connect`: ``aconnect(host=..., port=...)`` speaks the one
wire client (:class:`repro.net.client.RemoteServer`) from the worker
thread, so the event loop never touches a socket.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.api import connection as _connection
from repro.api import exceptions as exc
from repro.api.backend import next_session_id
from repro.api.cursor import Cursor
from repro.api.statement import Statement

__all__ = ["aconnect", "AsyncConnection", "AsyncCursor", "AsyncStatement"]


class AsyncStatement:
    """Awaitable handle on a prepared :class:`~repro.api.Statement`."""

    def __init__(self, connection: "AsyncConnection", statement: Statement):
        self._connection = connection
        self.statement = statement

    @property
    def sql(self) -> str:
        return self.statement.sql

    @property
    def kind(self) -> str:
        return self.statement.kind

    @property
    def num_params(self) -> int:
        return self.statement.num_params

    @property
    def plan_variants(self) -> int:
        return self.statement.plan_variants

    @property
    def executions(self) -> int:
        return self.statement.executions

    def signatures(self) -> list[str]:
        return self.statement.signatures()

    async def close(self) -> None:
        await self._connection._run(self.statement.close)


class AsyncCursor:
    """The :class:`~repro.api.Cursor` surface, one ``await`` per operation."""

    def __init__(self, connection: "AsyncConnection", cursor: Cursor):
        self._connection = connection
        self._cursor = cursor

    # -- passthrough state ---------------------------------------------------

    @property
    def arraysize(self) -> int:
        return self._cursor.arraysize

    @arraysize.setter
    def arraysize(self, value: int) -> None:
        self._cursor.arraysize = value

    @property
    def description(self):
        return self._cursor.description

    @property
    def rowcount(self):
        return self._cursor.rowcount

    @property
    def statement(self):
        return self._cursor.statement

    @property
    def report(self):
        """Unified :class:`~repro.api.report.QueryReport` for the last execution."""
        return self._cursor.report

    @property
    def plan(self):
        """Plan tree from the last ``EXPLAIN``/:meth:`explain` (or None)."""
        return self._cursor.plan

    async def explain(self, operation=None):
        """Plan tree for ``operation`` (or the last EXPLAIN); never executes."""
        op = operation.statement if isinstance(operation, AsyncStatement) else operation
        return await self._connection._run(self._cursor.explain, op)

    # -- execution -----------------------------------------------------------

    async def execute(self, operation, params: Sequence = ()) -> "AsyncCursor":
        op = operation.statement if isinstance(operation, AsyncStatement) else operation
        await self._connection._run(self._cursor.execute, op, params)
        return self

    async def executemany(self, operation, seq_of_params) -> "AsyncCursor":
        op = operation.statement if isinstance(operation, AsyncStatement) else operation
        await self._connection._run(self._cursor.executemany, op, seq_of_params)
        return self

    # -- fetch ---------------------------------------------------------------

    async def fetchone(self):
        return await self._connection._run(self._cursor.fetchone)

    async def fetchmany(self, size: Optional[int] = None) -> list:
        return await self._connection._run(self._cursor.fetchmany, size)

    async def fetchall(self) -> list:
        return await self._connection._run(self._cursor.fetchall)

    async def fetch_table(self):
        return await self._connection._run(self._cursor.fetch_table)

    def __aiter__(self) -> "AsyncCursor":
        return self

    async def __anext__(self):
        row = await self.fetchone()
        if row is None:
            raise StopAsyncIteration
        return row

    # -- PEP-249 no-ops -------------------------------------------------------

    def setinputsizes(self, sizes) -> None:
        pass

    def setoutputsize(self, size, column=None) -> None:
        pass

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        await self._connection._run(self._cursor.close)

    async def __aenter__(self) -> "AsyncCursor":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class AsyncConnection:
    """One session: a sync Connection driven from its own worker thread."""

    # exceptions as attributes, like the sync Connection (PEP-249 extension)
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

    def __init__(self, connection: _connection.Connection, executor):
        self._sync = connection
        self._executor = executor
        self._loop = asyncio.get_running_loop()
        self.closed = False

    async def _run(self, fn, *args):
        """Run one sync session operation on this connection's worker."""
        return await self._loop.run_in_executor(self._executor, lambda: fn(*args))

    # -- introspection passthrough --------------------------------------------

    @property
    def sync_connection(self) -> _connection.Connection:
        """The underlying synchronous connection (advanced use)."""
        return self._sync

    @property
    def proxy(self):
        return self._sync.proxy

    @property
    def context(self):
        """This session's :class:`~repro.api.backend.ExecutionContext`."""
        return self._sync.context

    def cache_info(self):
        return self._sync.cache_info()

    def cached_statements(self) -> list[str]:
        return self._sync.cached_statements()

    def metrics(self) -> dict:
        """Process metrics snapshot (see :meth:`Connection.metrics`)."""
        return self._sync.metrics()

    def trace_spans(self, trace_id=None) -> list:
        return self._sync.trace_spans(trace_id)

    def span_tree(self, trace_id=None) -> str:
        return self._sync.span_tree(trace_id)

    def slow_queries(self) -> list:
        return self._sync.slow_queries()

    # -- session surface ------------------------------------------------------

    def cursor(self) -> AsyncCursor:
        if self.closed:
            raise exc.InterfaceError("connection is closed")
        return AsyncCursor(self, self._sync.cursor())

    async def prepare(self, sql: str) -> AsyncStatement:
        statement = await self._run(self._sync.prepare, sql)
        return AsyncStatement(self, statement)

    async def execute(self, operation, params: Sequence = ()) -> AsyncCursor:
        cursor = self.cursor()
        await cursor.execute(operation, params)
        return cursor

    async def executemany(self, operation, seq_of_params) -> AsyncCursor:
        cursor = self.cursor()
        await cursor.executemany(operation, seq_of_params)
        return cursor

    async def begin(self) -> None:
        await self._run(self._sync.begin)

    async def commit(self) -> None:
        await self._run(self._sync.commit)

    async def rollback(self) -> None:
        await self._run(self._sync.rollback)

    async def run_sync(self, fn):
        """Run ``fn(sync_connection)`` on the worker thread.

        The escape hatch for proxy-level operations (table upload, views,
        key rotation) that have no async wrapper: they stay off the event
        loop but keep the session's strict operation ordering.
        """
        return await self._loop.run_in_executor(
            self._executor, lambda: fn(self._sync)
        )

    # -- lifecycle ------------------------------------------------------------

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            await self._run(self._sync.close)
        finally:
            self._executor.shutdown(wait=False)

    async def __aenter__(self) -> "AsyncConnection":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def aconnect(
    proxy=None,
    *,
    server=None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    durable: Optional[str] = None,
    shards=None,
    modulus_bits: int = 1024,
    value_bits: int = 64,
    policy=None,
    rng=None,
    statement_cache_size: int = 64,
    tracing: bool = False,
    slow_query_s: Optional[float] = None,
) -> AsyncConnection:
    """Open an async session; deployment shapes mirror :func:`repro.api.connect`.

    Every shape is built by the sync :func:`~repro.api.connect` on the
    connection's worker thread, so key generation, the proxy pipeline and
    wire I/O never run on the event loop.
    """
    loop = asyncio.get_running_loop()
    executor = ThreadPoolExecutor(
        max_workers=1, thread_name_prefix=f"sdb-aio-{next_session_id()}"
    )

    def build() -> _connection.Connection:
        return _connection.connect(
            proxy,
            server=server,
            host=host,
            port=port,
            durable=durable,
            shards=shards,
            modulus_bits=modulus_bits,
            value_bits=value_bits,
            policy=policy,
            rng=rng,
            statement_cache_size=statement_cache_size,
            tracing=tracing,
            slow_query_s=slow_query_s,
        )

    try:
        sync_conn = await loop.run_in_executor(executor, build)
    except Exception:
        executor.shutdown(wait=False)
        raise
    return AsyncConnection(sync_conn, executor)
