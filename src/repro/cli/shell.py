"""``sdb-shell``: the data owner's interactive console.

A text stand-in for the demo UI of paper Figure 3: type SQL, get the
decrypted result plus the rewritten query the SP actually ran and the
client/server cost split.  Backslash commands inspect the deployment:

    \\help               this text
    \\tables             uploaded tables and their sensitive columns
    \\keystore           key store size and contents summary (demo step 1)
    \\explain <sql>      plan tree + rewrite without executing
                        (``EXPLAIN <sql>`` as a statement shows the same tree)
    \\upload <csv> <table> [col,col]   encrypt+upload a CSV (demo step 1);
                        the optional list names the sensitive columns
    \\rotate <table> <column>          re-key a column at the SP
    \\view <name> <sql>  create/replace a proxy-side view
    \\views              list views
    \\prepare <name> <sql>     prepare a statement (use ? for parameters)
    \\exec <name> [arg ...]    execute a prepared statement with arguments
    \\execmany <name> <json>   execute a prepared DML once per JSON row
    \\statements         prepared statements and the session cache counters
                        (hits/misses/evictions; per statement: plans,
                        parameter type signatures, last-used)
    \\stats              live metrics: counters, gauges, latency histograms
                        (query latency by route, scatter fan-out, cache
                        hits/misses, txn conflicts, admission rejections)
    \\trace on|off       record a span tree per query; bare ``\\trace``
                        prints the last query's stitched span tree
    \\slowlog [ms]       arm the session slow-query log at ms (bare:
                        show recorded entries)
    \\shards             per-shard status of a cluster deployment
    \\replicas           per-shard replica health and failover history
    \\rebalance <n> [host:port,...]   grow/shrink the cluster to n shards
                        online (encrypted buckets migrate re-keyed; SQL
                        equivalent: ALTER CLUSTER ADD/REMOVE SHARD)
    \\begin              start a transaction (prompt becomes ``sdb*>``)
    \\commit             commit it (conflicts roll back and report)
    \\rollback           discard it
    \\rewrite on|off     toggle printing the rewritten SQL after queries
    \\quit               exit

The shell is UI only; every capability it exposes is session-layer
(:mod:`repro.api`) or proxy API.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys
from typing import Optional

from repro.api.connection import Connection
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


def load_csv(path) -> tuple[list, list]:
    """Read a CSV with header into ``(columns, rows)`` for ``create_table``.

    Types are inferred column-wise from the data: INT if every non-empty
    cell parses as an integer, DECIMAL(2) for numbers, DATE for ISO dates,
    else STRING sized to the widest value.  Empty cells become NULL.
    """
    import csv
    import datetime

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        raw_rows = [row for row in reader if row]

    def parse_cell(text: str):
        if text == "":
            return None
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            pass
        try:
            return datetime.date.fromisoformat(text)
        except ValueError:
            return text

    parsed = [[parse_cell(cell) for cell in row] for row in raw_rows]
    columns = []
    for i, name in enumerate(header):
        cells = [row[i] for row in parsed if row[i] is not None]
        if cells and all(isinstance(c, int) for c in cells):
            vtype = ValueType.int_()
        elif cells and all(isinstance(c, (int, float)) for c in cells):
            vtype = ValueType.decimal(2)
        elif cells and all(isinstance(c, datetime.date) for c in cells):
            vtype = ValueType.date()
        else:
            width = max((len(str(c).encode("utf-8")) for c in cells), default=1)
            vtype = ValueType.string(max(width, 1))
            for row in parsed:
                if row[i] is not None:
                    row[i] = str(row[i])
        columns.append((name, vtype))
    return columns, [tuple(row) for row in parsed]


class SDBShell:
    """Line-at-a-time console over one :class:`SDBProxy`.

    ``execute_line`` returns the text to display, which keeps the shell
    fully testable without a TTY.
    """

    PROMPT = "sdb> "
    #: prompt while a transaction is open: uncommitted work is pending
    TXN_PROMPT = "sdb*> "

    def __init__(self, proxy: SDBProxy):
        self.proxy = proxy
        self.conn = Connection(proxy)
        self.show_rewrite = True
        self.done = False
        self._prepared: dict = {}  # name -> Statement

    # -- line dispatch ------------------------------------------------------

    def execute_line(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        if line.startswith("\\"):
            return self._command(line)
        try:
            cursor = self.conn.cursor()
            cursor.execute(line)
        except Exception as exc:
            return f"error: {exc}"
        # route the rendering by the *statement's* kind, not by sniffing
        # the result object
        if cursor.statement.kind == "select":
            return self._render_select(cursor)
        if cursor.statement.kind == "explain":
            return "\n".join(row[0] for row in cursor.fetchall())
        return self._render_dml(cursor)

    def _command(self, line: str) -> str:
        parts = line[1:].split(None, 1)
        name = parts[0].lower() if parts else ""
        argument = parts[1] if len(parts) > 1 else ""
        if name in ("q", "quit", "exit"):
            self.done = True
            return "bye"
        if name == "help":
            return __doc__.split("commands:", 1)[-1] if "commands:" in __doc__ else __doc__
        if name == "tables":
            return self._render_tables()
        if name == "views":
            views = self.proxy.store.views()
            if not views:
                return "(no views)"
            return "\n".join(
                f"{v}: {self.proxy.store.view(v)}" for v in views
            )
        if name == "view":
            parts = argument.split(None, 1)
            if len(parts) != 2:
                return "usage: \\view <name> <select sql>"
            try:
                self.proxy.create_view(parts[0], parts[1], replace=True)
            except Exception as exc:
                return f"error: {exc}"
            return f"view {parts[0]} created"
        if name == "keystore":
            return self._render_keystore()
        if name == "explain":
            if not argument:
                return "usage: \\explain <sql>"
            try:
                # the plan tree (same object EXPLAIN <sql> and
                # Cursor.explain return), then the rewrite detail view
                tree = self.proxy.plan(argument)
                report = self.proxy.explain(argument)
            except Exception as exc:
                return f"error: {exc}"
            return tree.explain() + "\n\n" + report.pretty()
        if name in ("begin", "commit", "rollback"):
            return self._txn(name)
        if name == "rewrite":
            self.show_rewrite = argument.strip().lower() != "off"
            return f"rewrite display {'on' if self.show_rewrite else 'off'}"
        if name == "upload":
            return self._upload(argument)
        if name == "prepare":
            return self._prepare(argument)
        if name == "exec":
            return self._exec(argument)
        if name == "execmany":
            return self._execmany(argument)
        if name == "statements":
            return self._render_statements()
        if name == "stats":
            return self._render_stats()
        if name == "trace":
            return self._trace(argument)
        if name == "slowlog":
            return self._slowlog(argument)
        if name == "shards":
            return self._render_shards()
        if name == "replicas":
            return self._render_replicas()
        if name == "rebalance":
            return self._rebalance(argument)
        if name == "rotate":
            parts = argument.split()
            if len(parts) != 2:
                return "usage: \\rotate <table> <column>"
            try:
                result = self.proxy.rotate_column_key(parts[0], parts[1])
            except Exception as exc:
                return f"error: {exc}"
            return f"{result.affected} share(s) re-keyed at the SP"
        return f"unknown command \\{name} (try \\help)"

    @property
    def prompt(self) -> str:
        """The REPL prompt -- starred while a transaction is open."""
        return self.TXN_PROMPT if self.conn._in_txn else self.PROMPT

    def _txn(self, action: str) -> str:
        if action != "begin" and not self.conn._in_txn:
            # Connection.commit()/rollback() are PEP-249 no-ops here;
            # the console should say so instead of claiming a commit
            return "no transaction in progress"
        try:
            getattr(self.conn, action)()
        except Exception as exc:
            return f"error: {exc}"
        if action == "begin":
            return "transaction started"
        if action == "commit":
            return "transaction committed"
        return "transaction rolled back"

    def _upload(self, argument: str) -> str:
        parts = argument.split()
        if len(parts) < 2:
            return "usage: \\upload <csv> <table> [sensitive,columns]"
        path, table = parts[0], parts[1]
        sensitive = parts[2].split(",") if len(parts) > 2 else []
        try:
            columns, rows = load_csv(path)
            self.proxy.create_table(table, columns, rows, sensitive=sensitive)
        except Exception as exc:
            return f"error: {exc}"
        names = [c for c, _ in columns]
        return (
            f"uploaded {table}: {len(rows)} rows, columns {names}, "
            f"sensitive {sensitive or '[]'}"
        )

    # -- prepared statements ---------------------------------------------------

    def _prepare(self, argument: str) -> str:
        parts = argument.split(None, 1)
        if len(parts) != 2:
            return "usage: \\prepare <name> <sql>"
        name, sql = parts
        try:
            statement = self.conn.prepare(sql)
        except Exception as exc:
            return f"error: {exc}"
        self._prepared[name] = statement
        return (
            f"prepared {name}: {statement.kind}, "
            f"{statement.num_params} parameter(s)"
        )

    def _exec(self, argument: str) -> str:
        parts = argument.split()
        if not parts:
            return "usage: \\exec <name> [arg ...]"
        statement = self._prepared.get(parts[0])
        if statement is None:
            return f"error: no prepared statement {parts[0]!r} (see \\prepare)"
        params = [self._parse_param(token) for token in parts[1:]]
        try:
            cursor = self.conn.cursor()
            cursor.execute(statement, params)
        except Exception as exc:
            return f"error: {exc}"
        if statement.kind == "select":
            return self._render_select(cursor)
        return self._render_dml(cursor)

    def _execmany(self, argument: str) -> str:
        parts = argument.split(None, 1)
        if len(parts) != 2:
            return "usage: \\execmany <name> <json array of parameter rows>"
        statement = self._prepared.get(parts[0])
        if statement is None:
            return f"error: no prepared statement {parts[0]!r} (see \\prepare)"
        try:
            rows = json.loads(parts[1])
            if not isinstance(rows, list) or not all(
                isinstance(row, list) for row in rows
            ):
                return "error: expected a JSON array of parameter rows"
            cursor = self.conn.cursor()
            cursor.executemany(statement, rows)
        except Exception as exc:
            return f"error: {exc}"
        return f"{cursor.rowcount} row(s) affected ({len(rows)} executions)"

    DATE_ARG = re.compile(r"^\d{4}-\d{2}-\d{2}$")

    @classmethod
    def _parse_param(cls, token: str):
        """Shell argument -> parameter value (JSON scalar, ISO date or text).

        Only dashed ISO dates count as dates: ``fromisoformat`` on 3.11+
        also accepts compact forms like ``20250101``, which would silently
        turn large integer arguments into dates.
        """
        if cls.DATE_ARG.match(token):
            try:
                return datetime.date.fromisoformat(token)
            except ValueError:
                pass
        try:
            value = json.loads(token)
        except ValueError:
            return token
        if value is None or isinstance(value, (int, float, bool, str)):
            return value  # '"123"' binds the string, bare 123 the int
        return token

    def _render_statements(self) -> str:
        import time as _time

        info = self.conn.cache_info()
        lines = [
            f"session cache: {info.hits} hits, {info.misses} misses, "
            f"{info.evictions} evictions, {info.currsize}/{info.maxsize} cached"
        ]
        now = _time.monotonic()
        for name, statement in sorted(self._prepared.items()):
            if statement.last_used_at is None:
                used = "never used"
            else:
                used = f"last used {now - statement.last_used_at:.1f}s ago"
            signatures = statement.signatures()
            sig = f", signatures {'; '.join(signatures)}" if signatures else ""
            lines.append(
                f"  {name}: {statement.kind}, {statement.num_params} "
                f"parameter(s), {statement.plan_variants} plan(s), "
                f"{statement.executions} execution(s), {used}{sig}"
            )
        return "\n".join(lines)

    # -- observability ---------------------------------------------------------

    def _render_stats(self) -> str:
        snapshot = self.conn.metrics()
        lines = []
        for name in sorted(snapshot):
            metric = snapshot[name]
            lines.append(f"{name} ({metric['type']}): {metric['help']}")
            for row in metric["values"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(row["labels"].items())
                )
                prefix = f"  {{{labels}}}" if labels else "  (all)"
                if "buckets" in row:
                    lines.append(
                        f"{prefix} count={row['count']} sum={row['sum']:g}"
                    )
                else:
                    lines.append(f"{prefix} {row['value']}")
            if not metric["values"]:
                lines.append("  (no samples)")
        return "\n".join(lines) if lines else "(no metrics)"

    def _trace(self, argument: str) -> str:
        from repro.obs.trace import NOOP_TRACER, Tracer

        arg = argument.strip().lower()
        if arg == "on":
            if not self.conn.tracer.enabled:
                self.conn.tracer = Tracer()
            return "tracing on"
        if arg == "off":
            self.conn.tracer = NOOP_TRACER
            return "tracing off"
        if arg:
            return "usage: \\trace [on|off]"
        if not self.conn.tracer.enabled:
            return "tracing is off (\\trace on)"
        tree = self.conn.span_tree()
        return tree if tree else "(no spans recorded yet)"

    def _slowlog(self, argument: str) -> str:
        from repro.obs.slowlog import SlowQueryLog

        arg = argument.strip()
        if arg:
            try:
                threshold_ms = float(arg)
            except ValueError:
                return "usage: \\slowlog [threshold ms]"
            self.conn.slowlog = SlowQueryLog(threshold_ms / 1000.0)
            return f"slow-query log armed at {threshold_ms:g} ms"
        entries = self.conn.slow_queries()
        if self.conn.slowlog is None:
            return "slow-query log is off (\\slowlog <ms>)"
        if not entries:
            return "(no slow queries recorded)"
        lines = []
        for entry in entries:
            lines.append(
                f"{entry['elapsed_s'] * 1000.0:.1f} ms {entry['kind']}"
                + (f" trace={entry['trace_id']}" if entry.get("trace_id") else "")
            )
            body = entry.get("body", "")
            if body:
                lines.extend("  " + ln for ln in body.splitlines())
        return "\n".join(lines)

    def _rebalance(self, argument: str) -> str:
        parts = argument.split()
        if not parts or not parts[0].isdigit():
            return "usage: \\rebalance <target shard count> [host:port,...]"
        target = int(parts[0])
        endpoints = parts[1].split(",") if len(parts) > 1 else None
        if not hasattr(self.proxy.server, "num_shards"):
            return "(not a cluster deployment; see repro.cluster)"
        try:
            report = self.conn.rebalance(target, endpoints=endpoints)
        except Exception as exc:
            return f"error: {exc}"
        lines = [
            f"topology epoch {report.epoch}: {report.old_count} -> "
            f"{report.new_count} shard(s); {report.rows_moved} row(s) "
            f"migrated (re-keyed in flight), {report.rekeyed_columns} "
            f"column key(s) rotated in {report.elapsed_s:.2f}s"
        ]
        for entry in report.leakage:
            lines.append(f"  leakage: {entry}")
        return "\n".join(lines)

    def _render_shards(self) -> str:
        status_fn = getattr(self.proxy.server, "shard_status", None)
        if not callable(status_fn):
            return "(not a cluster deployment; see repro.cluster)"
        statuses = status_fn()
        if isinstance(statuses, dict):  # a bare shard, not a coordinator
            return "(not a cluster deployment; see repro.cluster)"
        lines = [f"cluster: {len(statuses)} shard(s)"]
        for status in statuses:
            tables = status.get("tables", {})
            placements = status.get("placements", {})
            parts = []
            for table, rows in sorted(tables.items()):
                placed = placements.get(table)
                by = f" by {placed['shard_by']}" if placed else ""
                parts.append(f"{table}={rows} rows{by}")
            role = " primary" if status.get("primary") else ""
            backend = status.get("backend", "?")
            lines.append(
                f"  shard {status.get('shard_id')}{role} [{backend}]: "
                + (", ".join(parts) if parts else "(empty)")
            )
        return "\n".join(lines)

    def _render_replicas(self) -> str:
        status_fn = getattr(self.proxy.server, "replica_status", None)
        if not callable(status_fn):
            return "(not a cluster deployment; see repro.cluster)"
        statuses = status_fn()
        lines = [f"cluster: {len(statuses)} replica group(s)"]
        for status in statuses:
            members = status.get("members", [])
            parts = []
            for member in members:
                marker = (
                    "*" if member["ordinal"] == status.get("primary_ordinal")
                    else " "
                )
                parts.append(
                    f"{marker}replica{member['ordinal']}"
                    f"[{member.get('backend', '?')}]"
                    f"={member['state']} w{member.get('weight', 1)}"
                )
            lines.append(
                f"  group {status.get('group')}: " + ", ".join(parts)
            )
        failover = getattr(self.proxy.server, "failover", None)
        events = list(getattr(failover, "events", ()) or ())
        if events:
            lines.append("failover history:")
            lines.extend(f"  - {event}" for event in events)
        return "\n".join(lines)

    # -- rendering ------------------------------------------------------------

    def _render_select(self, cursor) -> str:
        table = cursor.fetch_table()
        lines = [table.pretty()]
        report = cursor.report
        cost = report.cost
        lines.append(
            f"({table.num_rows} rows; client "
            f"{cost.client_s * 1000:.1f} ms [parse {cost.parse_s * 1000:.1f}"
            f" + rewrite {cost.rewrite_s * 1000:.1f}"
            f" + decrypt {cost.decrypt_s * 1000:.1f}], server "
            f"{cost.server_s * 1000:.1f} ms)"
        )
        if self.show_rewrite:
            lines.append(f"rewritten: {report.rewritten_sql}")
        return "\n".join(lines)

    def _render_dml(self, cursor) -> str:
        lines = [f"{cursor.rowcount} row(s) affected"]
        report = cursor.report
        if self.show_rewrite and report is not None and report.rewritten_sql:
            lines.append(f"rewritten: {report.rewritten_sql}")
        return "\n".join(lines)

    def _render_tables(self) -> str:
        names = self.proxy.store.tables()
        if not names:
            return "(no tables uploaded)"
        lines = []
        for name in names:
            meta = self.proxy.store.table(name)
            sensitive = ", ".join(meta.sensitive_columns()) or "-"
            lines.append(
                f"{name}: {len(meta.columns)} columns, {meta.num_rows} rows, "
                f"sensitive: [{sensitive}]"
            )
        return "\n".join(lines)

    def _render_keystore(self) -> str:
        store = self.proxy.store
        lines = [
            f"key store: {store.size_bytes()} bytes "
            f"({len(store.tables())} tables)"
        ]
        for name in store.tables():
            meta = store.table(name)
            keys = sum(1 for c in meta.columns.values() if c.sensitive)
            lines.append(f"  {name}: {keys} column keys + 1 auxiliary key")
        lines.append("(size is O(#columns): independent of row count)")
        return "\n".join(lines)

    # -- REPL -----------------------------------------------------------------------

    def run(self, stdin=None, stdout=None) -> None:
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        stdout.write("SDB shell -- \\help for commands\n")
        while not self.done:
            stdout.write(self.prompt)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            output = self.execute_line(line)
            if output:
                stdout.write(output + "\n")


def build_proxy(args) -> SDBProxy:
    """Assemble the deployment the flags describe."""
    if getattr(args, "shards", None):
        if args.connect or args.durable:
            raise SystemExit(
                "--shards is its own deployment shape; "
                "do not combine it with --connect/--durable"
            )
        from repro.api.connection import _build_cluster

        spec = args.shards
        server = _build_cluster(
            int(spec) if spec.isdigit() else spec.split(",")
        )
    elif args.connect:
        from repro.net import RemoteServer

        host, _, port = args.connect.partition(":")
        server = RemoteServer.connect(host or "127.0.0.1", int(port or 9753))
    elif args.durable:
        from repro.storage import DurableServer

        server = DurableServer(args.durable)
    else:
        server = SDBServer()
    proxy = SDBProxy(server, modulus_bits=args.modulus_bits)
    if args.tpch:
        from repro.workloads.tpch.dbgen import generate
        from repro.workloads.tpch.loader import load_encrypted

        data = generate(scale_factor=args.tpch, seed=args.seed)
        shard_by = None
        if getattr(args, "shards", None):
            from repro.workloads.tpch.loader import DEFAULT_SHARD_COLUMNS

            shard_by = DEFAULT_SHARD_COLUMNS
        load_encrypted(proxy, data, rng=seeded_rng(args.seed), shard_by=shard_by)
    return proxy


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdb-shell", description="SDB data-owner console"
    )
    parser.add_argument("--connect", metavar="HOST:PORT",
                        help="use a remote SP (sdb-server) instead of in-process")
    parser.add_argument("--shards", metavar="N|HOST:PORT,...",
                        help="sharded cluster: a shard count (in-process) or "
                             "comma-separated daemon endpoints; the first "
                             "entry is the primary shard")
    parser.add_argument("--durable", metavar="DIR",
                        help="in-process SP with disk persistence under DIR")
    parser.add_argument("--tpch", type=float, metavar="SF",
                        help="pre-load TPC-H data at this scale factor")
    parser.add_argument("--modulus-bits", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    shell = SDBShell(build_proxy(args))
    shell.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
