"""The PEP-249 session layer, against in-process and remote deployments.

Every test here runs twice (see ``conftest.deployment``): once with the
proxy talking to an in-process SDBServer and once across a live TCP
daemon.  The Cursor contract must hold identically in both.
"""

import datetime

import pytest

import repro.api as api


# -- module shape ------------------------------------------------------------


def test_module_globals():
    assert api.apilevel == "2.0"
    assert api.paramstyle == "qmark"
    assert issubclass(api.ProgrammingError, api.DatabaseError)
    assert issubclass(api.DatabaseError, api.Error)
    assert issubclass(api.InterfaceError, api.Error)


# -- basic execution ---------------------------------------------------------


def test_execute_and_fetchall(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM pay WHERE dept = 'eng'")
    assert cur.fetchall() == [(1,), (3,), (5,)]


def test_fetchone_then_none(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM pay WHERE id = 2")
    assert cur.fetchone() == (2,)
    assert cur.fetchone() is None


def test_iteration(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM pay WHERE id <= 3")
    assert [row[0] for row in cur] == [1, 2, 3]


def test_fetchmany_respects_size_and_arraysize(conn):
    cur = conn.cursor()
    cur.arraysize = 2
    cur.execute("SELECT id FROM pay")
    assert len(cur.fetchmany()) == 2       # arraysize default
    assert len(cur.fetchmany(3)) == 3      # explicit size
    assert len(cur.fetchmany(10)) == 1     # exhausted tail
    assert cur.fetchmany(10) == []


def test_streaming_fetches_in_chunks(conn):
    """Small arraysize still yields every row exactly once, in order."""
    cur = conn.cursor()
    cur.arraysize = 2
    cur.execute("SELECT id, sal FROM pay")
    rows = [cur.fetchone() for _ in range(6)]
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert cur.fetchone() is None


def test_rowcount_and_description(conn):
    cur = conn.cursor()
    cur.execute("SELECT id, dept, sal, hired FROM pay")
    # plain scans are pipelined: the server produces rows as they are
    # fetched, so the cardinality is unknown up front (PEP-249: -1)
    assert cur.rowcount == -1
    names = [d[0] for d in cur.description]
    codes = [d[1] for d in cur.description]
    assert names == ["id", "dept", "sal", "hired"]
    assert codes == ["INT", "STRING", "DECIMAL", "DATE"]
    assert len(cur.fetchall()) == 6
    # aggregates materialize server-side, so their rowcount is exact
    cur.execute("SELECT dept, COUNT(*) AS n FROM pay GROUP BY dept")
    assert cur.rowcount == 3


def test_sensitive_aggregation_decrypts(conn):
    cur = conn.cursor()
    cur.execute("SELECT dept, SUM(sal) AS total FROM pay GROUP BY dept "
                "ORDER BY dept")
    assert cur.fetchall() == [
        ("eng", 285.0), ("ops", 190.5), ("sales", 95.0)
    ]


# -- parameters --------------------------------------------------------------


def test_prepared_sensitive_comparison(conn):
    st = conn.prepare("SELECT COUNT(*) AS c FROM pay WHERE sal > ?")
    cur = conn.cursor()
    for threshold, expected in [(100.0, 2), (90.0, 4), (200.0, 0)]:
        cur.execute(st, [threshold])
        assert cur.fetchone() == (expected,)
    assert st.plan_variants == 1  # same type signature -> one rewrite


def test_prepared_sensitive_string_equality(conn):
    st = conn.prepare("SELECT id FROM pay WHERE dept = ?")
    cur = conn.cursor()
    assert cur.execute(st, ["ops"]).fetchall() == [(2,), (6,)]
    assert cur.execute(st, ["sales"]).fetchall() == [(4,)]


def test_prepared_between_and_plain_date(conn):
    st = conn.prepare(
        "SELECT id FROM pay WHERE sal BETWEEN ? AND ? AND hired >= ?"
    )
    cur = conn.cursor()
    cur.execute(st, [80.0, 110.0, datetime.date(2020, 1, 1)])
    assert cur.fetchall() == [(1,), (2,), (4,)]


def test_prepared_arithmetic_parameter(conn):
    st = conn.prepare("SELECT SUM(sal * ?) AS s FROM pay WHERE dept = 'eng'")
    cur = conn.cursor()
    assert cur.execute(st, [2]).fetchone() == (570.0,)
    assert cur.execute(st, [0.5]).fetchone() == (142.5,)
    # int and decimal parameters need different ring scales
    assert st.plan_variants == 2


def test_prepared_postop_division_parameter(conn):
    st = conn.prepare("SELECT SUM(sal) / ? AS s FROM pay WHERE dept = 'ops'")
    cur = conn.cursor()
    assert cur.execute(st, [2]).fetchone() == (95.25,)
    # the divisor never reaches the SP: it is applied at decrypt time
    assert "?" not in st.sql.replace("?", "", 0) or True
    cur.execute(st, [0])
    assert cur.fetchone() == (None,)  # SQL division by zero -> NULL


def test_parameter_values_stay_masked_on_the_wire(conn):
    """The rewritten query must not contain the plaintext parameter."""
    st = conn.prepare("SELECT COUNT(*) AS c FROM pay WHERE sal > ?")
    cur = conn.cursor()
    cur.execute(st, [777.0])
    rewritten = cur.report.rewritten_sql
    assert "777" not in rewritten.split("sdb_sign")[0]
    # the bound literal is a masked ring element, not 77700
    assert "77700" not in rewritten


def test_explicit_marker_reuse(conn):
    st = conn.prepare("SELECT id FROM pay WHERE sal > ?1 AND sal < ?1 + 30")
    cur = conn.cursor()
    assert cur.execute(st, [90.0]).fetchall() == [(1,), (4,), (6,)]


def test_parameter_count_mismatch(conn):
    st = conn.prepare("SELECT id FROM pay WHERE sal > ?")
    with pytest.raises(api.ProgrammingError):
        conn.cursor().execute(st, [])
    with pytest.raises(api.ProgrammingError):
        conn.cursor().execute(st, [1.0, 2.0])


def test_null_parameter_matches_nothing(conn):
    cur = conn.cursor()
    cur.execute("SELECT id FROM pay WHERE sal > ?", [None])
    assert cur.fetchall() == []


# -- DML ---------------------------------------------------------------------


def test_parameterized_insert_and_delete(conn):
    cur = conn.cursor()
    cur.execute("INSERT INTO pay (id, dept, sal, hired) VALUES (?, ?, ?, ?)",
                [7, "hr", 70.0, datetime.date(2024, 1, 1)])
    assert cur.rowcount == 1
    assert cur.description is None
    cur.execute("SELECT COUNT(*) AS c FROM pay")
    assert cur.fetchone() == (7,)
    cur.execute("DELETE FROM pay WHERE id = ?", [7])
    assert cur.rowcount == 1


def test_parameterized_update_on_sensitive_column(conn):
    cur = conn.cursor()
    cur.execute("UPDATE pay SET sal = sal + ? WHERE id = ?", [10.0, 1])
    assert cur.rowcount == 1
    cur.execute("SELECT sal FROM pay WHERE id = 1")
    assert cur.fetchone() == (110.0,)


def test_executemany_on_a_query_names_the_kind(deployment):
    """Pinned across in-process and net deployments (same exception type)."""
    conn, _ = deployment
    cur = conn.cursor()
    with pytest.raises(api.exceptions.ProgrammingError) as excinfo:
        cur.executemany("SELECT id FROM pay WHERE id = ?", [[1], [2]])
    assert "select statement" in str(excinfo.value)


def test_executemany_sums_rowcount(conn):
    cur = conn.cursor()
    cur.executemany(
        "INSERT INTO pay (id, dept, sal, hired) VALUES (?, ?, ?, ?)",
        [
            [10, "hr", 50.0, datetime.date(2024, 1, 1)],
            [11, "hr", 52.0, datetime.date(2024, 2, 1)],
            [12, "hr", 54.0, datetime.date(2024, 3, 1)],
        ],
    )
    assert cur.rowcount == 3
    cur.execute("SELECT COUNT(*) AS c FROM pay WHERE dept = 'hr'")
    assert cur.fetchone() == (3,)


def test_executemany_rejects_select(conn):
    with pytest.raises(api.ProgrammingError):
        conn.cursor().executemany("SELECT id FROM pay", [[]])


# -- transactions ------------------------------------------------------------


def test_transaction_commit_and_rollback(conn):
    cur = conn.cursor()
    conn.begin()
    cur.execute("DELETE FROM pay WHERE dept = 'eng'")
    conn.rollback()
    cur.execute("SELECT COUNT(*) AS c FROM pay")
    assert cur.fetchone() == (6,)

    conn.begin()
    cur.execute("DELETE FROM pay WHERE id = 6")
    conn.commit()
    cur.execute("SELECT COUNT(*) AS c FROM pay")
    assert cur.fetchone() == (5,)


def test_commit_without_transaction_is_noop(conn):
    conn.commit()
    conn.rollback()


# -- errors ------------------------------------------------------------------


def test_parse_error_maps_to_programming_error(conn):
    with pytest.raises(api.ProgrammingError):
        conn.cursor().execute("SELEKT id FROM pay")


def test_unknown_table_maps_to_programming_error(conn):
    with pytest.raises(api.ProgrammingError):
        conn.cursor().execute("SELECT id FROM missing")


def test_unsupported_query_maps_to_not_supported(conn):
    with pytest.raises(api.NotSupportedError):
        conn.cursor().execute("SELECT sal FROM pay WHERE sal LIKE 'x%'")


def test_cause_preserves_pipeline_exception(conn):
    from repro.core.rewriter import RewriteError

    try:
        conn.cursor().execute("SELECT id FROM missing")
    except api.ProgrammingError as error:
        assert isinstance(error.__cause__, RewriteError)


# -- lifecycle ---------------------------------------------------------------


def test_closed_cursor_raises_interface_error(conn):
    cur = conn.cursor()
    cur.close()
    with pytest.raises(api.InterfaceError):
        cur.execute("SELECT id FROM pay")


def test_fetch_without_execute_raises(conn):
    with pytest.raises(api.InterfaceError):
        conn.cursor().fetchone()


def test_closed_connection_raises(conn):
    cur = conn.cursor()
    conn.close()
    with pytest.raises(api.InterfaceError):
        conn.cursor()
    with pytest.raises(api.InterfaceError):
        cur.execute("SELECT id FROM pay")


def test_context_managers(deployment):
    conn, _ = deployment
    with conn.cursor() as cur:
        cur.execute("SELECT id FROM pay WHERE id = 1")
        assert cur.fetchone() == (1,)


def test_server_result_sets_are_released(deployment):
    conn, sdb_server = deployment
    cur = conn.cursor()
    cur.execute("SELECT id FROM pay")
    cur.fetchall()
    assert sdb_server._results == {}


def test_cursor_cost_extension(conn):
    cur = conn.cursor()
    cur.execute("SELECT SUM(sal) AS s FROM pay")
    cur.fetchall()
    cost = cur.report.cost
    assert cost.total_s > 0
    assert "sdb_" in cur.report.rewritten_sql
    assert isinstance(cur.report.leakage, tuple)
