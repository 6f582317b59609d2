"""Partial/merge split planning for the sharded cluster executor.

The two-phase shape Spark SQL plans for distributed aggregates -- a partial
query evaluated independently per data slice plus a merge query over the
union of partials -- is how the cluster tier (:mod:`repro.cluster`) runs a
query over encrypted shards spread across separate service providers.
This module holds that planning:

* :func:`ineligibility` -- the conservative eligibility test: single-table
  queries whose aggregates are built-ins (non-DISTINCT ``SUM/COUNT/MIN/
  MAX/AVG``) or re-aggregable UDFs such as the share-sum ``sdb_agg_sum``;
* :func:`plan_split` -- the partial + merge query pair;
* :func:`concat_tables` -- union-all of slice results.

Shares flow through partials untouched: a partial ``sdb_agg_sum`` of a
key-aligned column is itself a key-aligned share, so the merge re-sum is
just more ring addition.  Data interoperability is what makes encrypted
partial aggregation work at all -- and what makes *sharded* encrypted
execution merge correctly with zero extra protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.engine.schema import ColumnSpec, Schema
from repro.engine.table import Table
from repro.engine.udf import UDFRegistry
from repro.sql import ast

#: Aggregate UDFs whose partial outputs merge by re-applying the same UDF
#: to the partial column (first argument replaced, the rest kept verbatim).
RE_AGGREGABLE_UDFS = frozenset({"sdb_agg_sum"})

#: Secure MIN/MAX: ``sdb_agg_min/max(token, share)`` keeps the payload
#: share of the extreme order token.  A slice's winner re-merges by
#: comparing winners: the partial emits both the winning *token* (a plain
#: ``MIN``/``MAX`` over the token expression -- every slice evaluates the
#: same rewritten query, so tokens share one mask and stay comparable)
#: and the winning *share* (the UDF itself; shares are pre-aligned to a
#: row-independent key, so any slice's winner decrypts), and the merge
#: re-applies the UDF over the two partial columns.
EXTREME_UDFS = frozenset({"sdb_agg_min", "sdb_agg_max"})

#: Name bound to the union of partial results in the merge query.
PARTIALS_TABLE = "__partials"


def base_table_refs(from_clause) -> Optional[list]:
    """The base :class:`~repro.sql.ast.TableRef` leaves of a FROM tree.

    Returns the refs in syntactic order when the FROM clause is a single
    base table or a join tree whose every leaf is a base table; ``None``
    when any leaf is a derived table (subquery in FROM).
    """
    refs: list = []

    def walk(node) -> bool:
        if isinstance(node, ast.TableRef):
            refs.append(node)
            return True
        if isinstance(node, ast.Join):
            return walk(node.left) and walk(node.right)
        return False

    return refs if walk(from_clause) else None


def join_conditions(from_clause) -> list:
    """Every join ON condition in a FROM tree (empty for cross joins)."""
    conditions: list = []

    def walk(node) -> None:
        if isinstance(node, ast.Join):
            walk(node.left)
            walk(node.right)
            if node.condition is not None:
                conditions.append(node.condition)

    walk(from_clause)
    return conditions


@dataclass(frozen=True)
class SplitPlan:
    """A partial query (per slice) and a merge query (over the union)."""

    partial: ast.Select
    merge: ast.Select
    kind: str  # 'aggregate' | 'scan'


def ineligibility(
    query: ast.Select,
    udfs: UDFRegistry,
    has_table: Union[Callable[[str], bool], object],
    multi_table: bool = False,
) -> Optional[str]:
    """None when the query can run partial+merge, else the reason.

    ``has_table`` is either a callable or a container deciding whether the
    FROM table is known to the caller (catalog, shard placement map, ...);
    unknown tables stay serial so the reference path reports the error.

    ``multi_table`` admits join trees of base tables.  The split itself
    copies the FROM clause verbatim into the partial, so the *caller* must
    prove per-slice joins are exact (e.g. the cluster coordinator's
    co-shard proof: co-located slices plus broadcast copies of every
    unsharded table).
    """
    refs = base_table_refs(query.from_clause)
    if refs is None:
        return "FROM contains a derived table"
    if not multi_table and len(refs) != 1:
        return "FROM is not a single base table"
    for ref in refs:
        known = (
            has_table(ref.name) if callable(has_table) else ref.name in has_table
        )
        if not known:
            return "unknown table (serial path reports the error)"
    roots = [item.expr for item in query.items]
    roots += [e for e in (query.where, query.having) if e is not None]
    roots += [g for g in query.group_by]
    roots += [o.expr for o in query.order_by]
    roots += join_conditions(query.from_clause)
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                return "contains a subquery"
    aggregates = collect_aggregates(query, udfs)
    for node in aggregates:
        if isinstance(node, ast.Aggregate):
            if node.distinct:
                return "DISTINCT aggregates do not merge"
        elif isinstance(node, ast.FuncCall):
            name = node.name.lower()
            if name in EXTREME_UDFS:
                if len(node.args) != 2:
                    return "extreme aggregate UDF needs (token, share) args"
            elif name not in RE_AGGREGABLE_UDFS:
                return f"aggregate UDF {node.name!r} is not re-aggregable"
            elif not node.args or not all(
                isinstance(a, ast.Literal) for a in node.args[1:]
            ):
                return "aggregate UDF has non-literal auxiliary arguments"
    if aggregates and query.distinct:
        return "SELECT DISTINCT with aggregates"
    if not aggregates and query.group_by:
        return "GROUP BY without aggregates"
    if not aggregates and not _order_by_resolvable(query):
        return "ORDER BY expression is not a select output"
    return None


def collect_aggregates(query: ast.Select, udfs: UDFRegistry) -> list:
    """Aggregate nodes (built-ins and aggregate UDFs) in output positions."""
    roots = [item.expr for item in query.items]
    if query.having is not None:
        roots.append(query.having)
    roots.extend(o.expr for o in query.order_by)
    found, seen = [], set()
    for root in roots:
        for node in ast.walk(root):
            if node in seen:
                continue
            if isinstance(node, ast.Aggregate) or (
                isinstance(node, ast.FuncCall) and udfs.has_aggregate(node.name)
            ):
                seen.add(node)
                found.append(node)
    return found


def plan_split(query: ast.Select, udfs: UDFRegistry) -> SplitPlan:
    """The partial/merge pair for an eligible query (see :func:`ineligibility`)."""
    aggregates = collect_aggregates(query, udfs)
    if aggregates:
        partial, merge = _plan_aggregate(query, aggregates)
        return SplitPlan(partial=partial, merge=merge, kind="aggregate")
    partial, merge = _plan_scan(query)
    return SplitPlan(partial=partial, merge=merge, kind="scan")


def plan_group_pushdown(query: ast.Select) -> SplitPlan:
    """Partial/merge pair when per-slice grouped results are already final.

    The caller guarantees no group spans two slices (e.g. the cluster
    coordinator proves the GROUP BY key is the shard key, so the routing
    PRF co-locates each group).  The partial is the original query minus
    ORDER BY / LIMIT (HAVING stays slice-local: each group is complete on
    its slice); the merge is a plain concat with the ordering and limit
    re-applied -- no re-grouping, no re-aggregation.  ORDER BY must be
    resolvable against the select outputs (:func:`merge_order_resolvable`).
    """
    partial = dataclasses.replace(query, order_by=(), limit=None)
    merge = ast.Select(
        items=(ast.SelectItem(expr=ast.Star()),),
        from_clause=ast.TableRef(name=PARTIALS_TABLE),
        order_by=_rebind_order_by(query),
        limit=query.limit,
    )
    return SplitPlan(partial=partial, merge=merge, kind="group-pushdown")


def merge_order_resolvable(query: ast.Select) -> bool:
    """Whether a concat-style merge can re-apply the query's ORDER BY."""
    return _order_by_resolvable(query)


def _order_by_resolvable(query: ast.Select) -> bool:
    """Scan-case merge can only sort by select outputs or ordinals."""
    if not query.order_by:
        return True
    output_names = set()
    for item in query.items:
        if item.alias:
            output_names.add(item.alias)
        elif isinstance(item.expr, ast.Column):
            output_names.add(item.expr.name)
        elif isinstance(item.expr, ast.Star):
            return all(
                isinstance(o.expr, ast.Literal) for o in query.order_by
            )
    for order_item in query.order_by:
        expr = strip_table(order_item.expr)
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            continue
        if isinstance(expr, ast.Column) and expr.name in output_names:
            continue
        return False
    return True


# -- planning: scans -----------------------------------------------------------


def _plan_scan(query: ast.Select) -> tuple[ast.Select, ast.Select]:
    """Filter+project runs per slice; ORDER/LIMIT/DISTINCT merge."""
    partial = dataclasses.replace(
        query, order_by=(), limit=None, distinct=query.distinct
    )
    merge = ast.Select(
        items=(ast.SelectItem(expr=ast.Star()),),
        from_clause=ast.TableRef(name=PARTIALS_TABLE),
        order_by=_rebind_order_by(query),
        limit=query.limit,
        distinct=query.distinct,
    )
    return partial, merge


def _rebind_order_by(query: ast.Select) -> tuple:
    """ORDER BY items for the merge query.

    Aliases and ordinals pass through; a bare column that is itself a
    select item passes through; anything else was filtered out during
    eligibility via :func:`_order_by_resolvable`.
    """
    return tuple(
        ast.OrderItem(expr=strip_table(o.expr), descending=o.descending)
        for o in query.order_by
    )


# -- planning: aggregates ------------------------------------------------------


def _plan_aggregate(query, aggregates) -> tuple[ast.Select, ast.Select]:
    partial_items: list[ast.SelectItem] = []
    replacements: dict[ast.Expr, ast.Expr] = {}

    for i, key in enumerate(query.group_by):
        name = f"__g{i}"
        partial_items.append(ast.SelectItem(expr=key, alias=name))
        replacements[key] = ast.Column(name)

    for j, node in enumerate(aggregates):
        name = f"__a{j}"
        if isinstance(node, ast.FuncCall) and node.name.lower() in EXTREME_UDFS:
            # secure MIN/MAX: partial = (winning token, winning share);
            # merge re-runs the UDF over the per-slice winners
            token_name = f"{name}_t"
            builtin = "min" if node.name.lower() == "sdb_agg_min" else "max"
            partial_items.append(
                ast.SelectItem(
                    expr=ast.Aggregate(func=builtin, arg=node.args[0]),
                    alias=token_name,
                )
            )
            partial_items.append(ast.SelectItem(expr=node, alias=name))
            replacements[node] = ast.FuncCall(
                node.name, (ast.Column(token_name), ast.Column(name))
            )
            continue
        if isinstance(node, ast.FuncCall):  # re-aggregable UDF
            partial_items.append(ast.SelectItem(expr=node, alias=name))
            replacements[node] = ast.FuncCall(
                node.name, (ast.Column(name),) + tuple(node.args[1:])
            )
            continue
        if node.func == "avg":
            sum_name, count_name = f"{name}_s", f"{name}_c"
            partial_items.append(
                ast.SelectItem(
                    expr=ast.Aggregate(func="sum", arg=node.arg), alias=sum_name
                )
            )
            partial_items.append(
                ast.SelectItem(
                    expr=ast.Aggregate(func="count", arg=node.arg),
                    alias=count_name,
                )
            )
            replacements[node] = ast.BinaryOp(
                op="/",
                left=ast.Aggregate(func="sum", arg=ast.Column(sum_name)),
                right=ast.Aggregate(func="sum", arg=ast.Column(count_name)),
            )
            continue
        partial_items.append(ast.SelectItem(expr=node, alias=name))
        merge_func = "sum" if node.func == "count" else node.func
        replacements[node] = ast.Aggregate(
            func=merge_func, arg=ast.Column(name)
        )

    partial = ast.Select(
        items=tuple(partial_items),
        from_clause=query.from_clause,
        where=query.where,
        group_by=query.group_by,
    )
    merge = ast.Select(
        items=tuple(
            ast.SelectItem(
                expr=replace_expr(item.expr, replacements),
                alias=item.alias or output_name(item.expr, i),
            )
            for i, item in enumerate(query.items)
        ),
        from_clause=ast.TableRef(name=PARTIALS_TABLE),
        group_by=tuple(
            ast.Column(f"__g{i}") for i in range(len(query.group_by))
        ),
        having=(
            replace_expr(query.having, replacements)
            if query.having is not None
            else None
        ),
        order_by=tuple(
            ast.OrderItem(
                expr=replace_expr(strip_table(o.expr), replacements),
                descending=o.descending,
            )
            for o in query.order_by
        ),
        limit=query.limit,
    )
    return partial, merge


# -- AST surgery -----------------------------------------------------------------


def output_name(expr: ast.Expr, index: int) -> str:
    """The name the serial engine would give this unaliased output.

    The merge query rewrites expressions (``city`` becomes ``__g0``), so
    the original name must be pinned as an explicit alias to keep the
    result schema identical to serial execution.
    """
    if isinstance(expr, ast.Column):
        return expr.name
    if isinstance(expr, ast.Aggregate):
        return expr.func
    return f"_col{index}"


def replace_expr(expr: ast.Expr, mapping: dict) -> ast.Expr:
    """Rebuild ``expr`` substituting every subtree found in ``mapping``."""
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            op=expr.op,
            left=replace_expr(expr.left, mapping),
            right=replace_expr(expr.right, mapping),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(op=expr.op, operand=replace_expr(expr.operand, mapping))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name, tuple(replace_expr(a, mapping) for a in expr.args)
        )
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            branches=tuple(
                (replace_expr(c, mapping), replace_expr(r, mapping))
                for c, r in expr.branches
            ),
            default=(
                replace_expr(expr.default, mapping)
                if expr.default is not None
                else None
            ),
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            subject=replace_expr(expr.subject, mapping),
            low=replace_expr(expr.low, mapping),
            high=replace_expr(expr.high, mapping),
            negated=expr.negated,
        )
    if isinstance(expr, ast.InList):
        return ast.InList(
            subject=replace_expr(expr.subject, mapping),
            items=tuple(replace_expr(i, mapping) for i in expr.items),
            negated=expr.negated,
        )
    if isinstance(expr, (ast.Like, ast.IsNull)):
        return dataclasses.replace(expr, subject=replace_expr(expr.subject, mapping))
    if isinstance(expr, ast.Extract):
        return ast.Extract(unit=expr.unit, operand=replace_expr(expr.operand, mapping))
    if isinstance(expr, ast.Substring):
        return ast.Substring(
            operand=replace_expr(expr.operand, mapping),
            start=replace_expr(expr.start, mapping),
            length=(
                replace_expr(expr.length, mapping)
                if expr.length is not None
                else None
            ),
        )
    return expr


def strip_table(expr: ast.Expr) -> ast.Expr:
    """Drop table qualifiers: partial outputs are unqualified columns."""
    if isinstance(expr, ast.Column) and expr.table is not None:
        return ast.Column(expr.name)
    return expr


def concat_tables(tables: list[Table]) -> Table:
    """Union-all slice results, re-inferring NULL-only column specs."""
    first = tables[0]
    width = first.num_columns
    columns: list[list] = [[] for _ in range(width)]
    for table in tables:
        if table.num_columns != width:
            raise ValueError("partial results have diverging widths")
        for i in range(width):
            columns[i].extend(table.columns[i])
    specs = []
    for i, base_spec in enumerate(first.schema.columns):
        spec = base_spec
        for table in tables:
            candidate = table.schema.columns[i]
            if any(v is not None for v in table.columns[i]):
                spec = candidate
                break
        specs.append(ColumnSpec(base_spec.name, spec.dtype, spec.scale))
    return Table(Schema(tuple(specs)), columns)
