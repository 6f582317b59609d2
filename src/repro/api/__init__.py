"""The session layer: a PEP-249-shaped client API for SDB.

The paper's proxy re-parses, re-rewrites and re-derives decryption plans
for every SQL string it receives.  This package gives applications the
lifecycle a database driver normally has -- and gives SDB a place to
amortize exactly the client-side work the cost breakdown blames::

    import repro.api as api

    conn = api.connect(modulus_bits=256)
    conn.proxy.create_table(...)                       # DDL/upload is proxy API

    cur = conn.cursor()
    cur.execute("SELECT dept, SUM(sal) AS t FROM pay GROUP BY dept")
    for dept, total in cur:
        ...

    q6 = conn.prepare(
        "SELECT SUM(price * disc) AS rev FROM lineitem "
        "WHERE qty < ? AND disc BETWEEN ? AND ?")
    cur.execute(q6, [24, 0.05, 0.07])                  # parse+rewrite amortized
    cur.execute(q6, [25, 0.03, 0.05])                  # ...bind only
    print(cur.fetchone())

Highlights:

* ``?`` parameters flow through the lexer, parser and rewriter; a prepared
  SELECT caches its rewritten query + decryption plan per parameter *type
  signature* and binds by computing a few deferred ring literals -- the SP
  never sees the plaintext parameter of a sensitive operation, and each
  single execution looks exactly like an inlined-constant query.  The one
  declared delta vs. string re-execution: a cached plan reuses its
  rewrite-time masks/tokens across executions (surfaced as a ``prepared:``
  leakage entry on the plan).
* Results stream: rows stay at the SP and are fetched + decrypted in
  ``cursor.arraysize`` chunks.
* The same Cursor works in-process and against a remote SP daemon --
  ``connect(host=..., port=...)`` -- where PREPARE ships the rewritten SQL
  once and EXECUTE carries only bindings.
* Every connection has an LRU statement cache (``cache_info()``), so even
  plain string re-execution skips parse + rewrite.
* Every deployment shape satisfies the typed :class:`~repro.api.backend.Backend`
  protocol, and every connection owns an
  :class:`~repro.api.backend.ExecutionContext` (session id, snapshot
  epoch, statement-cache handle, leakage accumulator) -- the explicit
  session model that replaced the per-server global lock.  Read-only
  statements from different sessions execute concurrently; DML/DDL runs
  exclusively and bumps the snapshot epoch.
* The same session surface exists in ``async``/``await`` form:
  ``repro.api.aio`` (``aconnect() -> AsyncConnection -> AsyncCursor``),
  differentially pinned row-for-row against this module.  It drives a
  connection built here from a worker thread, so both tiers share one
  wire client (:class:`~repro.net.client.RemoteServer`).
* ``Connection.close()`` releases the backend ``connect()`` built for it
  (cluster coordinator, wire socket, WAL file handle); a backend passed
  in with ``server=`` or ``proxy=`` stays the caller's to close.
"""

from repro.api.backend import (
    Backend,
    ClusterBackend,
    ExecutionContext,
    ShardBackend,
)
from repro.api.connection import CacheInfo, Connection, connect
from repro.api.cursor import Cursor
from repro.api.exceptions import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    ShardUnavailableError,
    TransactionConflict,
    Warning,
)
from repro.api.statement import SelectExecution, Statement

#: PEP-249 module globals
apilevel = "2.0"
threadsafety = 1  # threads may share the module, not connections
paramstyle = "qmark"

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "Statement",
    "SelectExecution",
    "CacheInfo",
    "Backend",
    "ShardBackend",
    "ClusterBackend",
    "ExecutionContext",
    "apilevel",
    "threadsafety",
    "paramstyle",
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "ShardUnavailableError",
    "TransactionConflict",
]
