"""The EXPLAIN surface and the unified QueryReport.

Three entry points must return the same plan tree: the ``EXPLAIN <stmt>``
statement (a one-column result set of rendered lines), ``Cursor.explain()``
and the proxy's ``plan()``.  ``Cursor.report`` folds the legacy
per-attribute observability (cost / rewritten_sql / leakage / notes) into
one typed object; both surfaces are pinned here so neither can drift.
"""

import asyncio
import datetime

import pytest

import repro.api as api
import repro.api.aio as aio
from repro.api.exceptions import InterfaceError
from repro.api.report import QueryReport
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.engine.planner import PlanNode

COLUMNS = [
    ("id", ValueType.int_()),
    ("dept", ValueType.string(8)),
    ("sal", ValueType.decimal(2)),
    ("hired", ValueType.date()),
]

ROWS = [
    (1, "eng", 100.00, datetime.date(2020, 1, 15)),
    (2, "ops", 80.50, datetime.date(2021, 6, 1)),
    (3, "eng", 120.25, datetime.date(2019, 3, 15)),
    (4, "sales", 95.00, datetime.date(2022, 11, 30)),
    (5, "eng", 64.75, datetime.date(2023, 2, 2)),
    (6, "ops", 110.00, datetime.date(2018, 8, 20)),
]

SELECT = "SELECT dept, SUM(sal) FROM pay GROUP BY dept"


# -- EXPLAIN as a statement ---------------------------------------------------


def test_explain_statement_returns_plan_rows(conn):
    cur = conn.cursor()
    cur.execute("EXPLAIN " + SELECT)
    assert cur.statement.kind == "explain"
    assert cur.description[0][0] == "plan"
    rows = cur.fetchall()
    assert rows, "EXPLAIN returned no lines"
    assert all(isinstance(row[0], str) for row in rows)
    text = "\n".join(row[0] for row in rows)
    assert "select" in text
    assert "rewrite" in text
    # the same tree is exposed structurally
    assert isinstance(cur.plan, PlanNode)
    assert cur.plan.explain() == text


def test_explain_statement_fetch_variants(conn):
    cur = conn.cursor()
    total = cur.execute("EXPLAIN " + SELECT).rowcount
    assert total > 0
    first = cur.fetchone()
    assert isinstance(first[0], str)
    rest = cur.fetchall()
    assert len(rest) == total - 1
    table = conn.cursor().execute("EXPLAIN " + SELECT).fetch_table()
    assert table.num_rows == total
    assert table.schema.names == ("plan",)


def test_explain_never_discloses_plaintext(conn):
    lines = conn.cursor().execute(
        "EXPLAIN SELECT id FROM pay WHERE sal > 100 AND dept = 'eng'"
    ).fetchall()
    text = "\n".join(row[0] for row in lines)
    # stored values never surface anywhere in a plan
    for stored in ("ops", "sales", "80.5", "120.25", "2021-06-01"):
        assert stored not in text
    # the query's own literals may appear ONLY on declared leakage lines
    # (the documented single place data-derived content is allowed)
    outside = "\n".join(
        row[0] for row in lines if "leakage" not in row[0]
    )
    assert "'eng'" not in outside and "100" not in outside


# -- Cursor.explain() ---------------------------------------------------------


def test_cursor_explain_without_executing(conn):
    cur = conn.cursor()
    tree = cur.explain(SELECT)
    assert isinstance(tree, PlanNode)
    assert tree.op == "select"
    assert len(tree.find("rewrite")) == 1
    # nothing ran: the cursor still has no result set
    assert cur.description is None


def test_cursor_explain_requires_a_plan(conn):
    cur = conn.cursor()
    with pytest.raises(InterfaceError):
        cur.explain()
    cur.execute("EXPLAIN " + SELECT)
    assert cur.explain() is cur.plan


def test_explain_matches_proxy_plan(conn):
    via_cursor = conn.cursor().explain(SELECT)
    via_proxy = conn.proxy.plan(SELECT)
    assert via_cursor.explain() == via_proxy.explain()


def test_explain_dml_and_control(conn):
    cur = conn.cursor()
    assert cur.explain("DELETE FROM pay WHERE id = 1").op == "delete"
    update = cur.explain("UPDATE pay SET sal = 1.0 WHERE dept = 'eng'")
    assert update.op == "update"
    assert update.leakage  # sensitive-equality predicates declare leakage


# -- QueryReport --------------------------------------------------------------


def test_report_none_before_any_execution(conn):
    assert conn.cursor().report is None


def test_report_folds_legacy_select_attributes(conn):
    cur = conn.cursor()
    cur.execute(SELECT)
    report = cur.report
    assert isinstance(report, QueryReport)
    assert report.kind == "select"
    # the report folds what the execution handle recorded
    execution = cur._execution
    assert report.rewritten_sql == execution.rewritten_sql
    assert report.notes == execution.plan.notes
    assert set(execution.plan.leakage) <= set(report.leakage)
    assert report.cost.total_s > 0
    assert report.exec_path in ("batch", "row", None)
    pretty = report.pretty()
    assert "SELECT" in pretty.upper()


def test_report_survives_streaming_fetches(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM pay")
    cur.fetchone()
    report = cur.report
    assert report is not None and report.kind == "select"
    cur.fetchmany(2)
    cur.fetchall()
    assert cur.report.kind == "select"


def test_report_for_dml(conn):
    cur = conn.cursor()
    cur.execute("UPDATE pay SET sal = sal + 1 WHERE id = 3")
    report = cur.report
    assert report.kind == "update"
    assert report.scatter is None


# -- the async tier -----------------------------------------------------------


def test_async_explain_and_report():
    async def main():
        conn = await aio.aconnect(
            server=SDBServer(), modulus_bits=256, value_bits=64,
            rng=seeded_rng(501),
        )
        try:
            sync_conn = api.connect(
                server=SDBServer(), modulus_bits=256, value_bits=64,
                rng=seeded_rng(501),
            )
            def load(c):
                c.proxy.create_table(
                    "pay", COLUMNS, ROWS, sensitive=["sal", "dept"],
                    rng=seeded_rng(502),
                )

            load(sync_conn)
            await conn.run_sync(load)
            tree = await conn.cursor().explain(SELECT)
            want = sync_conn.cursor().explain(SELECT)
            assert tree.explain() == want.explain()
            cursor = await conn.execute(SELECT)
            await cursor.fetchall()
            report = cursor.report
            assert report is not None and report.kind == "select"
            sync_conn.close()
        finally:
            await conn.close()

    asyncio.run(main())
