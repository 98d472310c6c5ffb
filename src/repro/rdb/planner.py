"""Index-aware statement planning for the RDB engine.

The planner turns ``ast.Select``/``ast.Update``/``ast.Delete`` into
compiled, index-aware access paths so per-operation cost scales with the
*request* rather than the database — the feasibility property the paper's
Section 5/6 measurements rest on.  Every planning job has one
implementation:

* **One equi-key matcher** (:func:`_column_eq_prior`): ``column of slot
  k = expression over slots < k``.  At slot 0 "earlier slots" is "no
  column at all", which is an index lookup key; at slot k it is a
  hash-join key computed from the pipeline so far.
* **One enumeration of a table's access paths**
  (:func:`_access_candidates`): given a table's single-table conjuncts
  it walks the table's one index collection
  (:attr:`TableData.indexes`) and yields every index path as
  ``(estimated rows, priority, consumed conjuncts, lazy builder)`` —
  equalities on every column of a unique index (point lookup) or of a
  grouped one, over one column or several (index probe), bounds or a
  ``LIKE`` prefix on the column of an ordered one (range/prefix scan).
  Estimates are O(1) reads off incrementally maintained statistics
  (``rows / distinct keys`` for probes, ``rows / 3-4`` for ranges); the
  lowest wins, the full scan is the fallback.
  :func:`_choose_base_access` *builds* the winner (only the winner is
  compiled); join ordering *reads* the winner's estimate.  A new kind of
  path is one more candidate here.
* **One join planner** (:meth:`CompiledSelect._plan_pipeline`).  What
  decides the pipeline order: the written order, unless every join is
  an INNER join with a condition — then the table with the lowest
  estimate starts and the rest join greedily by estimate, equi-connected
  tables first (the SPARQL translator's star-shaped joins are the main
  beneficiary), and each hash join hashes the input estimated smaller.
  Where a conjunct can land: WHERE conjuncts and the ON conjuncts of
  INNER joins form one pool (for an inner join they filter the same
  product), and each pooled conjunct runs at the earliest stage where
  all its bindings are bound — in the base access (as an index key or a
  scan filter), inside the hash-join build side when it reads only that
  join's table, as a hash key when it is an equi key against earlier
  tables, or right after its join.  A LEFT join's ON conjuncts decide
  which rows match, so they stay with their join, and pooled conjuncts
  of its stage run only after null extension.  A CROSS join takes build
  filters and post filters but no keys.
* **Index-ordered scans** — ``ORDER BY`` on an ordered-indexed column of
  the first pipeline table walks the index in key order instead of
  sorting, and ``LIMIT`` then stops after the first rows.
* **Plans are code** — planning ends by *generating Python source*
  (:meth:`CompiledSelect._generate`): one generator function per
  operator — ``base`` (:meth:`_BaseAccess.emit`: the chosen access path
  read a unit at a time — a page of rows for a full scan, a chunk of
  row ids for an index path, with one cancellation point per unit —
  the residual conjuncts inlined as nested ``if`` statements in written
  order, and the scanned-rows count), ``join<slot>``
  (:meth:`_JoinStep.emit`: build-side filters, key extraction, probe, ON
  residual, LEFT null extension, post filters) — and the ``project``
  comprehension, with every predicate and projection written out by the
  emitter of :mod:`repro.rdb.expressions` and every parameter and
  constant hoisted into a local before the loop.  A row costs the
  bytecode of its predicates, not a Python call per AST node.  The
  expressions grouping, sorting and UPDATE call per row or per group
  (``group<n>`` / ``order<n>`` keys, aggregate ``argument<n>``,
  ``assign<n>``) are functions of the same unit: one ``compile()`` per
  plan, and ``plan.source`` shows all of the plan's code.  What is
  *not* generated: the choice of plan (everything above), the row-id
  walks of the index paths (:meth:`_IndexWalk.rowids`), grouping,
  sorting and DISTINCT / LIMIT, and the protocol between operators —
  they stay separate iterators over scope tuples, which is what EXPLAIN
  ANALYZE wraps to time each one and what a deadline interrupts.  The
  text is on the plan (``plan.source``) and a traceback through it shows
  the generated line; it lives in the generated functions' globals, so
  it is freed with the plan.  The cost: building a plan takes a few
  hundred microseconds of ``compile()`` instead of tens — paid once per
  statement *shape* per schema generation, so the mediator's handful of
  templates pay it during warm-up, while a caller that sends every
  request as a new literal SQL text pays it per text.
* **Streaming joins** — hash-join build sides read the table's pages
  directly; a scope is a tuple of the stored row tuples, and
  probes extend it rather than copying rows.  Generated code reads a
  column by its position in the row (``r0[3]``, resolved once per plan
  by :class:`~repro.rdb.expressions.ScopeLayout`); a LEFT join's null
  extension is a tuple of ``None`` of the table's width.

Plans are cached per statement *shape* (frozen dataclasses hash) in an
LRU; DDL invalidates the cache through :meth:`Planner.invalidate`.  The
mediator's statements carry their request values as parameters
(:class:`repro.sql.ast.Bound`), so all bindings of one template are one
shape and one plan.  Nothing here reads a parameter's value at plan time:
the one constant planning does look at, a ``LIKE`` pattern (it decides
whether a prefix scan applies), therefore has to stay a literal.
Statistics are read at plan time, so a shape is costed once per
generation and keeps its plan until the next DDL — stale statistics can
cost performance, never correctness.

Setting :attr:`Planner.force_scan` replaces all of the above with
:meth:`CompiledSelect._plan_oracle`: base tables are always scanned,
joins run in written order as nested loops over their whole ON
condition, and every WHERE conjunct is a filter after the join that
binds its last table.  The differential-testing harness uses this as the
semantic oracle every planner-chosen plan is compared against (toggle it
before any plan is cached, or call :meth:`Planner.invalidate` after).  It
is a separate, deliberately naive function: it must not share
classification logic with the planner it checks, or a mistake there
would show up on both sides of the comparison.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..deadline import cancellation_point
from ..errors import DatabaseError
from ..observability.metrics import FULL_SCANS, ROWS_SCANNED
from ..observability.tracing import annotate, current_probe, current_trace
from ..sql import ast
from ..sql.render import render_expression
from .catalog import Schema
from .expressions import (
    AGGREGATE_FUNCTIONS,
    Compiled,
    Function,
    ScopeLayout,
    Source,
    combine_binary,
    combine_unary,
    emit_expression,
    referenced_slots,
)
from .storage import PAGE_BITS, PAGE_SIZE, UNBOUNDED, TableData
from .types import DateType, Row, StringType

__all__ = [
    "Planner",
    "CompiledSelect",
    "CompiledMutation",
    "StaleSnapshotError",
]

_PLAN_CACHE_SIZE = 256


class StaleSnapshotError(DatabaseError):
    """Raised when a plan is requested for a snapshot whose planner
    generation no longer matches the live schema — a DDL statement ran in
    between.  Callers retry on a fresh snapshot (the query has not read
    anything yet, so restarting is always safe)."""


# ---------------------------------------------------------------------------
# WHERE decomposition helpers
# ---------------------------------------------------------------------------

def _split_conjuncts(expr: Optional[ast.Expression]) -> List[ast.Expression]:
    """Flatten a tree of ANDs into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


class _Conjunct:
    """One WHERE/ON conjunct with its slot footprint."""

    __slots__ = ("expr", "slots", "stage")

    def __init__(self, expr: ast.Expression, layout: ScopeLayout) -> None:
        self.expr = expr
        self.slots = frozenset(referenced_slots(expr, layout))
        self.stage = max(self.slots) if self.slots else 0


def _column_vs_prior(
    expr: ast.BinaryOp, slot: int, layout: ScopeLayout
) -> Optional[Tuple[str, ast.Expression, bool]]:
    """Match ``<slot's column> <op> <expression over earlier slots only>``
    in either operand order: (column, other side, whether the column was
    written on the right)."""
    for flipped, (side, other) in enumerate(
        ((expr.left, expr.right), (expr.right, expr.left))
    ):
        if (
            isinstance(side, ast.ColumnRef)
            and layout.resolve(side)[0] == slot
        ):
            earlier = referenced_slots(other, layout)
            if not earlier or max(earlier) < slot:
                return side.name, other, bool(flipped)
    return None


def _column_eq_prior(
    expr: ast.Expression, slot: int, layout: ScopeLayout
) -> Optional[Tuple[str, ast.Expression]]:
    """Match ``<slot's column> = <expression over earlier slots only>``.

    The one equi-key shape.  At slot 0 no slot is earlier, so the other
    side reads no column at all: an index lookup key.  At slot k the
    other side is computed from the pipeline so far: a hash-join key.
    """
    if isinstance(expr, ast.BinaryOp) and expr.op == "=":
        match = _column_vs_prior(expr, slot, layout)
        if match is not None:
            return match[0], match[1]
    return None


_FLIPPED_COMPARISON = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class _Bounds:
    """Range bounds (or a LIKE prefix) on one column: what one conjunct
    says, and — through :meth:`absorb` — what several say together.

    ``lo``/``hi`` are bound expressions over no bindings (or None);
    ``prefix`` is the literal prefix of a ``LIKE 'abc%'`` conjunct;
    ``consumed`` lists the positions of the conjuncts absorbed.
    """

    column: str
    lo: Optional[ast.Expression] = None
    lo_inclusive: bool = True
    hi: Optional[ast.Expression] = None
    hi_inclusive: bool = True
    prefix: Optional[str] = None
    consumed: List[int] = field(default_factory=list)

    def absorb(self, other: "_Bounds", position: int) -> None:
        """Take another conjunct's bounds unless a side is already set (a
        second bound on the same side stays a residual filter)."""
        if other.lo is not None and self.lo is not None:
            return
        if other.hi is not None and self.hi is not None:
            return
        if other.lo is not None:
            self.lo, self.lo_inclusive = other.lo, other.lo_inclusive
        if other.hi is not None:
            self.hi, self.hi_inclusive = other.hi, other.hi_inclusive
        self.consumed.append(position)


def _match_range_conjunct(
    expr: ast.Expression, slot: int, layout: ScopeLayout
) -> Optional[_Bounds]:
    """Match a conjunct shaped like ``<slot's column> (<|<=|>|>=) const``,
    ``column BETWEEN const AND const``, or ``column LIKE 'prefix%'``."""
    if isinstance(expr, ast.BinaryOp) and expr.op in _FLIPPED_COMPARISON:
        match = _column_vs_prior(expr, slot, layout)
        if match is not None:
            column, other, flipped = match
            op = _FLIPPED_COMPARISON[expr.op] if flipped else expr.op
            inclusive = op.endswith("=")
            if op.startswith("<"):
                return _Bounds(column, hi=other, hi_inclusive=inclusive)
            return _Bounds(column, lo=other, lo_inclusive=inclusive)
    if isinstance(expr, ast.Between) and not expr.negated:
        operand = expr.operand
        if (
            isinstance(operand, ast.ColumnRef)
            and layout.resolve(operand)[0] == slot
            and not referenced_slots(expr.low, layout)
            and not referenced_slots(expr.high, layout)
        ):
            return _Bounds(operand.name, lo=expr.low, hi=expr.high)
    if isinstance(expr, ast.Like) and not expr.negated:
        operand = expr.operand
        pattern = expr.pattern
        if (
            isinstance(operand, ast.ColumnRef)
            and isinstance(pattern, ast.Literal)
            and isinstance(pattern.value, str)
            and layout.resolve(operand)[0] == slot
        ):
            text = pattern.value
            if (
                len(text) > 1
                and text.endswith("%")
                and "%" not in text[:-1]
                and "_" not in text
            ):
                return _Bounds(operand.name, prefix=text[:-1])
    return None


def _indented(lines: Sequence[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line for line in lines]


def _when(conditions: Sequence[str], lines: Sequence[str]) -> List[str]:
    """``lines`` under one nested ``if`` per condition, so conditions are
    tested in order, stop at the first that fails, and each has a source
    line of its own for a traceback to show."""
    for condition in reversed(conditions):
        lines = [f"if {condition}:", *_indented(lines)]
    return list(lines)


def _tuple(parts: Sequence[str]) -> str:
    """Source of a tuple display."""
    return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"


# ---------------------------------------------------------------------------
# base-table access paths
# ---------------------------------------------------------------------------

class _BaseAccess:
    """How the first (or only) table of a statement is read.

    This class is the full scan, which reads the table a page at a time
    (:meth:`TableData.pages`); each index path is an :class:`_IndexWalk`,
    which supplies the row ids it reads (:meth:`_IndexWalk.rowids`, taken
    a chunk at a time through :meth:`TableData.id_chunks`) and its
    EXPLAIN wording (:meth:`path`).  ``kind`` is ``'scan'``, ``'point'``
    (unique-index lookup), ``'probe'`` (secondary-index equality),
    ``'range'`` / ``'prefix'`` (ordered-index walk) or ``'ordered'``
    (full ordered-index scan for ORDER BY).  ``keys`` are the expressions
    (over no column) whose values an index path looks up; ``residual``
    the stage-0 conjuncts the path does not answer itself, of which the
    first ``len(guards)`` test a column against a parameter that is
    tested for NULL once, before anything is read (see
    :func:`_null_guards`); ``stop`` the rows LIMIT stops an index-ordered
    walk after, which caps its chunks.
    """

    def __init__(
        self,
        table_name: str,
        kind: str = "scan",
        *,
        residual: Sequence[_Conjunct] = (),
        keys: Sequence[ast.Expression] = (),
    ) -> None:
        self.table_name = table_name
        self.kind = kind
        self.residual = tuple(c.expr for c in residual)
        self.keys = tuple(keys)
        self.guards: Tuple[Tuple[ast.ColumnRef, ast.Parameter], ...] = ()
        self.stop: Optional[int] = None

    def path(self) -> str:
        return "full scan"

    def _reader(
        self, fn: Function, rowids: bool
    ) -> Tuple[List[str], List[str], str, List[str]]:
        """How ``base`` reads: lines before the NULL guards, lines after
        them, what the loop over units (``unit``: a page of rows or a
        chunk of row ids) iterates, and the loop over a unit's rows,
        which binds ``r0`` (and ``rowid`` when ``rowids``)."""
        full_scan = fn.helper(
            "count_full_scan", FULL_SCANS.labels(self.table_name).inc
        )
        pairs = "rowid, r0 in unit.items()" if rowids else "r0 in unit.values()"
        return [], [f"{full_scan}()"], "table.pages()", [f"for {pairs}:"]

    def emit(
        self, source: Source, layout: ScopeLayout, rowids: bool, name: str = "base"
    ) -> str:
        """Write the generator ``<name>(data, parameters)``.

        It reads the table a unit at a time — a page of rows, or a chunk
        of row ids whose rows it reads inline — with one cancellation
        point per unit, adds up the rows it read, and yields the
        ``rowid`` (when ``rowids``) or the scope ``(r0,)`` of every row
        that passes the residual conjuncts, tested in written order as
        nested ``if`` statements."""
        fn = source.function(name, "data, parameters", layout)
        check = fn.helper("cancellation_point", cancellation_point)
        count = fn.helper(
            "count_scanned", ROWS_SCANNED.labels(self.table_name).inc
        )
        guards = [(fn.value(c), fn.parameter(p.index)) for c, p in self.guards]
        # Past the guard a guarded parameter is not NULL: ``==`` alone
        # answers its conjunct (a NULL column compares False).
        tests = [f"({column} == {value})" for column, value in guards]
        tests += [fn.truth(expr) for expr in self.residual[len(guards):]]
        setup, start, units, loop = self._reader(fn, rowids)
        lines = [f"table = data[{self.table_name!r}]", *setup]
        if guards:
            nulls = " or ".join(f"{value} is None" for _, value in guards)
            lines += [f"if {nulls}:", "    return"]
        if rowids and not tests:
            # a page iterates its row ids, as a chunk does
            rows = ["yield from unit"]
        else:
            accepted = _when(tests, [f"yield {'rowid' if rowids else '(r0,)'}"])
            rows = loop + _indented(accepted)
        return fn.close(lines + [
            *start,
            "scanned = 0",
            "try:",
            f"    for unit in {units}:",
            f"        {check}('executor:scan')",
            "        scanned += len(unit)",
            *_indented(rows, 2),
            "finally:",
            # One sharded-counter add per statement; per unit, only a
            # local sum.
            "    if scanned:",
            f"        {count}(scanned)",
        ])

    def describe(self) -> str:
        suffix = f" + {len(self.residual)} filter(s)" if self.residual else ""
        return f"{self.table_name}: {self.path()}" + suffix


class _IndexWalk(_BaseAccess):
    """An index path: the row ids of :meth:`rowids`, in the order given,
    read a chunk at a time (at most a page, at most ``stop`` ids), the
    rows looked up inline on the row pages.

    A walk reads fewer rows than the written-order scan, which is only
    the same answer while no conjunct raises on a row the walk skips.
    So where a key is NULL (:meth:`rowids` answers None) or a bound in
    ``checks`` is of the other type class than its column (see
    :func:`_other_class`), the statement reads the table through
    ``scan`` instead: the full scan of all the stage's conjuncts in
    written order, as the forced-scan plan does."""

    #: The written-order full scan, for a path that can fall back to it.
    scan: Optional[_BaseAccess] = None
    #: (bound expression, its column's type class) of every range-shaped
    #: conjunct of the stage, in written order.
    checks: Tuple[Tuple[ast.Expression, int], ...] = ()

    def rowids(
        self, table_data: TableData, key: Tuple[Any, ...]
    ) -> Optional[Iterable[int]]:
        """The row ids this path reads, before the residual, or None when
        the index cannot answer ``key`` (the values of :attr:`keys`)."""
        raise NotImplementedError

    def emit(self, source, layout, rowids, name="base"):
        if self.scan is not None:
            self.scan.emit(source, layout, rowids, name="scan")
        return super().emit(source, layout, rowids, name)

    def _reader(self, fn, rowids):
        walk = fn.helper("rowids", self.rowids)
        key = _tuple([fn.value(expr) for expr in self.keys])
        size = "" if self.stop is None else f", {min(self.stop, PAGE_SIZE)}"
        ids = f"{walk}(table, {key})"
        if self.checks:
            other = fn.helper("other_class", _other_class)
            bounds = _tuple([fn.value(expr) for expr, _ in self.checks])
            classes = _tuple([str(rank) for _, rank in self.checks])
            ids = f"None if {other}({bounds}, {classes}) else {ids}"
        setup = [f"ids = {ids}"]
        if self.scan is not None:
            setup += ["if ids is None:", "    yield from scan(data, parameters)",
                      "    return"]
        return (
            setup + ["directory = table.rows.dir"],
            [],
            f"table.id_chunks(ids{size})",
            [
                "for rowid in unit:",
                f"    r0 = directory[rowid >> {PAGE_BITS}][rowid]",
            ],
        )


class _IndexProbe(_IndexWalk):
    """Equality on every column of an index: a point lookup (at most one
    row) where ``label`` names the primary key or unique index, a probe
    of a grouped index otherwise."""

    def __init__(
        self,
        table_name: str,
        columns: Tuple[str, ...],
        key_exprs: Sequence[ast.Expression],
        residual: Sequence[_Conjunct],
        label: Optional[str] = None,
    ) -> None:
        kind = "probe" if label is None else "point"
        super().__init__(table_name, kind, residual=residual, keys=key_exprs)
        self.columns = columns
        self.label = label

    def rowids(self, table_data, key):
        if None in key:
            return None  # `col = NULL` never matches: the scan decides
        return table_data.probe(self.columns, key)

    def path(self) -> str:
        if self.label is None:
            return f"index probe on {', '.join(self.columns)}"
        return f"point lookup via {self.label} ({', '.join(self.columns)})"


class _RangeScan(_IndexWalk):
    """Ordered-index walk between bounds; ``descending`` is set when
    ORDER BY rides the same index."""

    def __init__(
        self,
        table_name: str,
        spec: _Bounds,
        residual: Sequence[_Conjunct],
    ) -> None:
        super().__init__(
            table_name, "range", residual=residual,
            keys=[e for e in (spec.lo, spec.hi) if e is not None],
        )
        self.column = spec.column
        self.bounded_below = spec.lo is not None
        self.bounded_above = spec.hi is not None
        self.lo_inclusive = spec.lo_inclusive
        self.hi_inclusive = spec.hi_inclusive
        self.descending = False

    def rowids(self, table_data, key):
        if None in key:
            return None  # a NULL bound: no row in range; the scan decides
        lo = key[0] if self.bounded_below else UNBOUNDED
        hi = key[-1] if self.bounded_above else UNBOUNDED
        return table_data.ordered_index(self.column).range_rowids(
            lo, hi, self.lo_inclusive, self.hi_inclusive, self.descending
        )

    def path(self) -> str:
        lo = "[" if self.bounded_below and self.lo_inclusive else "("
        hi = "]" if self.bounded_above and self.hi_inclusive else ")"
        direction = " desc" if self.descending else ""
        return (
            f"range scan{direction} on {self.column} {lo}lo..hi{hi} "
            "via ordered index"
        )


class _PrefixScan(_IndexWalk):
    """Ordered-index walk over the keys that start with a LIKE prefix."""

    def __init__(
        self,
        table_name: str,
        column: str,
        prefix: str,
        residual: Sequence[_Conjunct],
    ) -> None:
        super().__init__(table_name, "prefix", residual=residual)
        self.column = column
        self.prefix = prefix

    def rowids(self, table_data, key):
        return table_data.ordered_index(self.column).prefix_rowids(self.prefix)

    def path(self) -> str:
        return (
            f"prefix scan on {self.column} (LIKE {self.prefix!r}...) "
            "via ordered index"
        )


class _OrderedScan(_IndexWalk):
    """Whole-table walk in the key order of an ordered index (ORDER BY
    without a sort)."""

    def __init__(self, table_name: str, column: str, descending: bool) -> None:
        super().__init__(table_name, "ordered")
        self.column = column
        self.descending = descending

    def rowids(self, table_data, key):
        return table_data.ordered_index(self.column).ordered_rowids(self.descending)

    def path(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"index-ordered scan on {self.column} {direction}"


def _null_guards(
    residual: Sequence[ast.Expression],
) -> Tuple[Tuple[ast.ColumnRef, ast.Parameter], ...]:
    """(column, parameter) of the leading ``column = parameter``
    conjuncts.  Such a conjunct cannot raise, and with its parameter NULL
    it fails every row before any later conjunct runs; so a base access
    tests these parameters once, before reading, and not per row."""
    guards = []
    for expr in residual:
        if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
            break
        column, parameter = expr.left, expr.right
        if isinstance(column, ast.Parameter):
            column, parameter = parameter, column
        if not (
            isinstance(column, ast.ColumnRef) and isinstance(parameter, ast.Parameter)
        ):
            break
        guards.append((column, parameter))
    return tuple(guards)


def _bound_checks(
    schema: Schema,
    access: _IndexWalk,
    slot: int,
    layout: ScopeLayout,
    conjuncts: Sequence[_Conjunct],
) -> Tuple[Tuple[ast.Expression, int], ...]:
    """(bound, type class of its column) of each conjunct that orders a
    column of the table against a value (``<``, ``<=``, ``>``, ``>=``,
    ``BETWEEN``), in written order: numbers are class 0, strings and
    dates (stored as text) class 1.  A bound is a literal, a parameter
    or a key of ``access``: nothing the check evaluates can raise, or
    was not evaluated before reading anyway."""
    table = schema.table(access.table_name)
    checks = []
    for conjunct in conjuncts:
        match = _match_range_conjunct(conjunct.expr, slot, layout)
        if match is None or match.prefix is not None:
            continue
        sql_type = table.column(match.column).sql_type
        rank = 1 if isinstance(sql_type, (StringType, DateType)) else 0
        checks += [
            (bound, rank) for bound in (match.lo, match.hi)
            if isinstance(bound, (ast.Literal, ast.Parameter)) or bound in access.keys
        ]
    return tuple(checks)


def _other_class(values: Tuple[Any, ...], classes: Tuple[int, ...]) -> bool:
    """Is a value not NULL and of the other type class than its column?
    Then its comparison raises on every row that reaches it."""
    for value, rank in zip(values, classes):
        if value is not None and rank != (
            0 if isinstance(value, (int, float)) else 1 if isinstance(value, str) else -1
        ):
            return True
    return False


def _prefix_capable(table, column: str) -> bool:
    """LIKE-prefix index scans are sound only when every stored value is
    a string (LIKE matches ``str(value)``, which diverges for numbers)."""
    return isinstance(table.column(column).sql_type, (StringType, DateType))


#: One way to read a table: (estimated rows, tie-break priority,
#: positions of the conjuncts the path answers, builder taking the
#: residual conjuncts).  Only the chosen candidate's builder ever runs.
_Candidate = Tuple[
    int, int, Sequence[int], Callable[[Sequence[_Conjunct]], _BaseAccess]
]

#: Tie-break between candidates with equal estimates: an equality probe
#: is never worse than a range over the same rows, and of two paths of
#: one kind the one answering more conjuncts leaves fewer to filter by
#: (``min`` keeps the first listed on a full tie).
_POINT, _PROBE, _RANGE, _PREFIX = 0, 1, 2, 3


def _cheapest_first(candidate: _Candidate) -> Tuple[int, int, int]:
    estimate, priority, consumed, _ = candidate
    return estimate, priority, -len(consumed)


def _access_candidates(
    schema: Schema,
    data: Dict[str, TableData],
    table_name: str,
    slot: int,
    layout: ScopeLayout,
    exprs: Sequence[ast.Expression],
) -> List[_Candidate]:
    """Every index path that answers some of ``exprs``, the single-table
    conjuncts of the table bound at ``slot`` — the one place the cost
    rules live.

    The table's index set is enumerated once.  A unique index whose
    columns all have equalities yields one row and ends the enumeration
    (nothing beats it; unique indexes are listed first).  A grouped one
    whose columns all have equalities is a probe at ``rows / distinct
    keys``; range scans cost ``rows / 3`` (``/ 4`` when bounded on both
    sides) and prefix scans ``rows / 4``; all statistics are O(1) reads
    off the index structures.  The full scan is not a candidate: it is
    what the caller falls back to when the list is empty.
    """
    equalities: Dict[str, Tuple[int, ast.Expression]] = {}
    for position, expr in enumerate(exprs):
        match = _column_eq_prior(expr, slot, layout)
        if match is not None and match[0] not in equalities:
            equalities[match[0]] = (position, match[1])

    table = schema.table(table_name)
    candidates: List[_Candidate] = []
    table_data = data[table_name]
    rows = table_data.row_count()
    for columns, index in table_data.indexes.items():  # unique ones first
        if not all(c in equalities for c in columns):
            continue
        consumed = [equalities[c][0] for c in columns]
        key_exprs = [equalities[c][1] for c in columns]
        if index.label is not None:
            label = index.label if index.label == "primary key" else "unique index"
            build = partial(_IndexProbe, table_name, columns, key_exprs, label=label)
            return [(1, _POINT, consumed, build)]
        build = partial(_IndexProbe, table_name, columns, key_exprs)
        distinct = max(1, len(index.entries))
        candidates.append((max(1, rows // distinct), _PROBE, consumed, build))

    specs: Dict[str, _Bounds] = {}
    prefixes: Dict[str, Tuple[int, str]] = {}
    for position, expr in enumerate(exprs):
        match = _match_range_conjunct(expr, slot, layout)
        if match is None or table_data.ordered_index(match.column) is None:
            continue
        if match.prefix is not None:
            if match.column not in prefixes and _prefix_capable(table, match.column):
                prefixes[match.column] = (position, match.prefix)
        else:
            specs.setdefault(match.column, _Bounds(match.column)).absorb(
                match, position
            )
    for spec in specs.values():
        bounded_both = spec.lo is not None and spec.hi is not None
        build = partial(_RangeScan, table_name, spec)
        candidates.append(
            (max(1, rows // (4 if bounded_both else 3)), _RANGE, spec.consumed, build)
        )
    for column, (position, prefix) in prefixes.items():
        build = partial(_PrefixScan, table_name, column, prefix)
        candidates.append((max(1, rows // 4), _PREFIX, (position,), build))
    return candidates


def _choose_base_access(
    schema: Schema,
    data: Dict[str, TableData],
    table_name: str,
    slot: int,
    layout: ScopeLayout,
    conjuncts: List[_Conjunct],
) -> _BaseAccess:
    """Build the cheapest access path over a table's stage conjuncts;
    those the path does not answer stay behind as residual filters."""
    candidates = _access_candidates(
        schema, data, table_name, slot, layout, [c.expr for c in conjuncts]
    )
    if not candidates:
        access = _BaseAccess(table_name, "scan", residual=conjuncts)
    else:
        _, _, consumed, build = min(candidates, key=_cheapest_first)
        access = build([c for i, c in enumerate(conjuncts) if i not in consumed])
        access.checks = _bound_checks(schema, access, slot, layout, conjuncts)
        if access.keys or access.checks:
            access.scan = _BaseAccess(table_name, "scan", residual=conjuncts)
            access.scan.guards = _null_guards(access.scan.residual)
    access.guards = _null_guards(access.residual)
    return access


# ---------------------------------------------------------------------------
# join steps
# ---------------------------------------------------------------------------

class _JoinStep:
    """One join in the pipeline: hash, nested-loop, or cross product.

    ``on_residual`` predicates decide, together with the hash keys,
    whether a pair of rows matches: the non-key ON conjuncts of a LEFT
    join (which null-extends a left row nothing matched) and the whole ON
    condition of an oracle nested loop; an INNER join has none, its ON
    conjuncts are pooled.  ``post`` predicates are pooled conjuncts whose
    latest referenced slot is this step's; they run on every emitted
    scope (after LEFT-join null extension, so pushdown never changes
    semantics).

    ``build_left`` flips the hash-join build side: instead of always
    hashing this step's (right) table, the *incoming scopes* are hashed
    and the right table streams as the probe side — chosen when
    statistics say the pipeline so far is the smaller input.  INNER-only
    (LEFT joins need left-major emission for null extension), and the
    emitted order becomes right-major, which SQL does not promise anyway.
    """

    def __init__(
        self,
        slot: int,
        table_name: str,
        binding: str,
        kind: str,
        width: int,
        *,
        strategy: str,  # 'hash' | 'loop' | 'cross'
        left_keys: Sequence[ast.Expression] = (),
        right_columns: Sequence[str] = (),
        on_residual: Sequence[ast.Expression] = (),
        build_filters: Sequence[ast.Expression] = (),
        post: Sequence[ast.Expression] = (),
        build_left: bool = False,
    ) -> None:
        self.slot = slot
        self.table_name = table_name
        self.binding = binding
        self.kind = kind
        #: What a LEFT join emits for the right side nothing matched.
        self.null_row: Row = (None,) * width
        self.strategy = strategy
        self.left_keys = tuple(left_keys)
        self.right_columns = tuple(right_columns)
        self.on_residual = tuple(on_residual)
        self.build_filters = tuple(build_filters)
        self.post = tuple(post)
        self.build_left = build_left
        #: The generated ``join<slot>(scopes, data, parameters)``; set by
        #: the owning plan once its source is compiled.
        self.run: Callable[..., Iterator[Tuple[Row, ...]]]

    def emit(self, source: Source, layout: ScopeLayout) -> str:
        """Write the generator ``join<slot>(scopes, data, parameters)``.

        All strategies share one shape — collect this table's rows that
        pass the build filters (into a dict by key for a hash join, a
        list otherwise), then for each incoming scope ``s`` run the
        candidates through ``on_residual``, null-extend for a LEFT join
        nothing matched, and test ``post`` on whatever is emitted —
        except the left-build hash join, which hashes the scopes and
        streams the table.
        """
        fn = source.function(
            f"join{self.slot}", "scopes, data, parameters", layout
        )
        row = f"r{self.slot}"
        check = fn.helper("cancellation_point", cancellation_point)
        # The table's rows a page at a time, a cancellation point per page.
        rows = [
            f"for page in data[{self.table_name!r}].pages():",
            f"    {check}('executor:scan')",
            f"    for {row} in page.values():",
        ]
        wanted = [fn.truth(e) for e in self.build_filters]  # reads `row` only

        # A NULL key component never matches: such rows stay out of the
        # build, so a probe key holding NULL misses by itself.
        single = len(self.right_columns) == 1
        has_key = "key is not None" if single else "None not in key"

        def key_of(parts: List[str]) -> str:
            return parts[0] if single else _tuple(parts)

        left_key = key_of([fn.value(expr) for expr in self.left_keys])
        right_key = key_of([
            f"{row}[{layout.columns[self.slot].index(c)}]"
            for c in self.right_columns
        ])

        def bind(*groups: Sequence[ast.Expression]) -> List[str]:
            """Name the earlier slots of ``s`` that ``groups`` read."""
            slots: Set[int] = set()
            for group in groups:
                for expr in group:
                    referenced_slots(expr, layout, slots)
            return [f"r{i} = s[{i}]" for i in sorted(slots - {self.slot})]

        emit = _when([fn.truth(e) for e in self.post], [f"yield s + ({row},)"])

        if self.build_left:
            return fn.close([
                "build = {}",
                "for s in scopes:",
                *_indented(bind(self.left_keys)),
                f"    key = {left_key}",
                f"    if {has_key}:",
                "        build.setdefault(key, []).append(s)",
                "if build:",
                *_indented(rows),
                *_indented(
                    _when(wanted, [
                        f"for s in build.get({right_key}, ()):",
                        *_indented(bind(self.post) + emit),
                    ]),
                    3,
                ),
            ])

        if self.strategy == "hash":
            body = [
                "build = {}",
                *rows,
                *_indented(
                    _when(wanted, [
                        f"key = {right_key}",
                        f"if {has_key}:",
                        f"    build.setdefault(key, []).append({row})",
                    ]),
                    2,
                ),
            ]
            candidates = f"build.get({left_key}, ())"
        else:
            body = [
                "right = []",
                *rows,
                *_indented(_when(wanted, [f"right.append({row})"]), 2),
            ]
            candidates = "right"

        left_join = self.kind == "LEFT"
        per_scope = bind(self.left_keys, self.on_residual, self.post)
        if left_join:
            per_scope.append("emitted = False")
        per_scope += [
            f"for {row} in {candidates}:",
            *_indented(
                _when(
                    [fn.truth(e) for e in self.on_residual],
                    (["emitted = True"] if left_join else []) + emit,
                )
            ),
        ]
        if left_join:
            per_scope += [
                "if not emitted:",
                f"    {row} = {fn.constant(self.null_row)}",
                *_indented(emit),
            ]
        return fn.close(body + ["for s in scopes:", *_indented(per_scope)])

    def describe(self) -> str:
        name = (
            self.binding
            if self.binding == self.table_name
            else f"{self.table_name} AS {self.binding}"
        )
        if self.strategy == "hash":
            side = "left" if self.build_left else "right"
            detail = f"hash join on ({', '.join(self.right_columns)}), build: {side}"
            if self.build_filters:
                detail += f", {len(self.build_filters)} filter(s) pushed into build"
        elif self.strategy == "cross":
            detail = "cross product"
            if self.build_filters:
                detail += f", {len(self.build_filters)} filter(s) pushed down"
        else:
            detail = "nested-loop join"
        if self.post:
            detail += f" + {len(self.post)} post filter(s)"
        if self.strategy == "cross":
            return f"{name}: {detail}"
        return f"{name}: {self.kind.lower()} {detail}"


# ---------------------------------------------------------------------------
# ORDER BY machinery
# ---------------------------------------------------------------------------

class _Desc:
    """Inverts comparison so one sort pass handles mixed ASC/DESC keys."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.key == self.key


def _null_safe_key(value: Any) -> Tuple[int, int, Any]:
    """NULLs sort before everything; mixed types sort by type class.

    CONTRACT: on non-NULL values this must order exactly like
    :func:`repro.rdb.storage._ordered_key` — the index-ordered access
    path replaces this sort with an ordered-index walk.  Change both
    together (a unit test asserts the orders agree).
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 0, value)
    return (1, 1, str(value))


class _OrderKey:
    """One ORDER BY item as a per-row key extractor: an output column by
    position, or an expression — the plan's generated function ``name``,
    which the plan binds to ``fn`` once its source is compiled."""

    __slots__ = ("alias_position", "name", "fn", "descending")

    def __init__(
        self,
        alias_position: Optional[int],
        name: Optional[str],
        descending: bool,
    ) -> None:
        self.alias_position = alias_position
        self.name = name
        self.fn: Optional[Compiled] = None
        self.descending = descending

    def key(
        self, row: Tuple[Any, ...], scope: Tuple[Row, ...], parameters: Sequence[Any]
    ) -> Any:
        if self.alias_position is not None:
            value = row[self.alias_position]
        else:
            assert self.fn is not None
            value = self.fn(scope, parameters)
        base = _null_safe_key(value)
        return _Desc(base) if self.descending else base


# ---------------------------------------------------------------------------
# compiled statements
# ---------------------------------------------------------------------------

def _hashable(value: Any) -> Any:
    return value if not isinstance(value, dict) else tuple(sorted(value.items()))


def _default_column_name(expr: ast.Expression) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return render_expression(expr)


def _contains_aggregate(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, (ast.IsNull, ast.Like, ast.Between, ast.InList)):
        return _contains_aggregate(expr.operand)
    return False


#: An aggregate-aware item evaluator: (group member scopes, parameters) -> value.
_GroupFn = Callable[[List[Tuple[Row, ...]], Sequence[Any]], Any]


def _compile_aggregate_call(
    call: ast.FunctionCall, layout: ScopeLayout, source: Source
) -> _GroupFn:
    if call.name == "COUNT" and (
        not call.args or isinstance(call.args[0], ast.Star)
    ):
        return lambda members, parameters: len(members)
    if len(call.args) != 1:
        raise DatabaseError(f"{call.name} takes exactly one argument")
    argument = emit_expression(source, call.args[0], layout, "argument")
    functions = source.namespace  # holds `argument` once the plan is built
    name = call.name
    distinct = call.distinct

    def aggregate(members: List[Tuple[Row, ...]], parameters: Sequence[Any]) -> Any:
        arg_fn = functions[argument]
        values = [
            v
            for v in (arg_fn(scope, parameters) for scope in members)
            if v is not None
        ]
        if distinct:
            values = list(dict.fromkeys(values))
        if name == "COUNT":
            return len(values)
        if not values:
            return None
        if name == "SUM":
            return sum(values)
        if name == "AVG":
            return sum(values) / len(values)
        if name == "MIN":
            return min(values)
        return max(values)

    return aggregate


def _compile_aggregate_expr(
    expr: ast.Expression, layout: ScopeLayout, source: Source
) -> _GroupFn:
    """Compile an expression that may mix aggregates and group keys; what
    it evaluates per row (aggregate arguments, group-key expressions) is
    written into the plan's ``source``."""
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
        return _compile_aggregate_call(expr, layout, source)
    if isinstance(expr, ast.BinaryOp):
        op = expr.op
        left = _compile_aggregate_expr(expr.left, layout, source)
        right = _compile_aggregate_expr(expr.right, layout, source)
        return lambda members, parameters: combine_binary(
            op, left(members, parameters), right(members, parameters)
        )
    if isinstance(expr, ast.UnaryOp):
        op = expr.op
        operand = _compile_aggregate_expr(expr.operand, layout, source)
        return lambda members, parameters: combine_unary(
            op, operand(members, parameters)
        )
    # Non-aggregate expression: evaluate on the first member (must be a
    # group key for deterministic results, as in classic SQL).
    plain = emit_expression(source, expr, layout, "plain")
    functions = source.namespace

    def first_member(members: List[Tuple[Row, ...]], parameters: Sequence[Any]) -> Any:
        if not members:
            return None
        return functions[plain](members[0], parameters)

    return first_member


class CompiledSelect:
    """A fully planned and compiled SELECT: access path, joins, pushed-down
    predicates, projection, grouping, and ordering — built once, executed
    per call with fresh parameters."""

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        stmt: ast.Select,
        force_scan: bool = False,
    ) -> None:
        self.stmt = stmt
        #: The rows LIMIT / OFFSET keep at most when ordered rows may stop
        #: early (DISTINCT must see every row): None when they may not.
        self._stop = (
            None if stmt.limit is None or stmt.distinct
            else stmt.limit + (stmt.offset or 0)
        )
        self._bindings: List[Tuple[str, str]] = []  # (binding, table) as written
        refs: List[ast.TableRef] = []
        if stmt.table is not None:
            refs.append(stmt.table)
        refs.extend(join.table for join in stmt.joins)
        for ref in refs:
            schema.table(ref.name)  # raises CatalogError for unknown tables
            self._bindings.append((ref.binding(), ref.name))

        #: Pipeline placement: permutation of ``_bindings`` after join
        #: reordering; identical to it when reordering does not apply.
        self._placement: List[Tuple[str, str]] = self._bindings
        self.layout = ScopeLayout(
            (binding, schema.table(table).column_names())
            for binding, table in self._bindings
        )
        self.base: Optional[_BaseAccess] = None
        self.steps: List[_JoinStep] = []
        # (SELECT without FROM has neither: its WHERE conjuncts are
        # constants, tested once by the generated ``base``)
        if stmt.table is not None and force_scan:
            self._plan_oracle(schema, stmt)
        elif stmt.table is not None:
            self._plan_pipeline(schema, data, stmt)

        self._grouped = bool(stmt.group_by) or self._has_aggregate(stmt)
        items = self._expand_items(schema, stmt)
        self.columns: List[str] = [name for _, name in items]
        self._index_ordered = False
        # Everything the plan runs per row is written into one unit and
        # compiled once, by _generate.
        source = Source()
        group_keys: List[str] = []
        if self._grouped:
            group_keys = [
                emit_expression(source, e, self.layout, "group")
                for e in stmt.group_by
            ]
            self.item_fns_grouped: List[_GroupFn] = [
                _compile_aggregate_expr(expr, self.layout, source)
                for expr, _ in items
            ]
            self.having_fn: Optional[_GroupFn] = (
                _compile_aggregate_expr(stmt.having, self.layout, source)
                if stmt.having is not None
                else None
            )
        alias_positions = {name: i for i, name in enumerate(self.columns)}
        self.order_keys: List[_OrderKey] = []
        for item in stmt.order_by:
            expr = item.expression
            names_output = (
                isinstance(expr, ast.ColumnRef) and expr.name in alias_positions
            )
            if names_output and (self._grouped or expr.table is None):
                self.order_keys.append(
                    _OrderKey(alias_positions[expr.name], None, item.descending)
                )
            elif not self._grouped:
                self.order_keys.append(
                    _OrderKey(
                        None,
                        emit_expression(source, expr, self.layout, "order"),
                        item.descending,
                    )
                )
            # else: a group has no single row to evaluate the expression
            # on — grouped results order by output columns only.
        if not self._grouped and not force_scan:
            self._upgrade_to_index_order(data, stmt, items, alias_positions)
        self._generate(source, items, group_keys)

    # -- planning ---------------------------------------------------------

    def _check_on_scope(
        self, slot: int, footprints: Iterable[Iterable[int]]
    ) -> None:
        """A join's ON condition may only read tables written before or
        at the join (``footprints``: written-order slots per conjunct)."""
        late = sorted({s for fp in footprints for s in fp if s > slot})
        if late:
            names = ", ".join(repr(self._bindings[s][0]) for s in late)
            raise DatabaseError(
                f"join condition for {self._bindings[slot][0]!r} references "
                f"later binding(s) {names}"
            )

    def _plan_oracle(self, schema: Schema, stmt: ast.Select) -> None:
        """The ``force_scan`` reference plan: written order, full scans,
        a nested loop over each join's whole ON condition, and every
        WHERE conjunct as a filter after the join that binds its last
        table (so after a LEFT join's null extension).

        Deliberately naive and separate from :meth:`_plan_pipeline`: the
        differential tests compare the two, so they must not share the
        logic that decides where a conjunct lands.
        """
        by_stage: Dict[int, List[_Conjunct]] = {}
        for expr in _split_conjuncts(stmt.where):
            conjunct = _Conjunct(expr, self.layout)
            by_stage.setdefault(conjunct.stage, []).append(conjunct)
        self.base = _BaseAccess(
            stmt.table.name, "scan", residual=by_stage.get(0, [])
        )
        for slot, join in enumerate(stmt.joins, start=1):
            binding, table_name = self._bindings[slot]
            width = len(schema.table(table_name).columns)
            post = [c.expr for c in by_stage.get(slot, [])]
            if join.kind == "CROSS" or join.condition is None:
                step = _JoinStep(
                    slot, table_name, binding, "CROSS", width,
                    strategy="cross", post=post,
                )
            else:
                self._check_on_scope(
                    slot, [referenced_slots(join.condition, self.layout)]
                )
                step = _JoinStep(
                    slot, table_name, binding, join.kind, width,
                    strategy="loop",
                    on_residual=[join.condition],
                    post=post,
                )
            self.steps.append(step)

    def _plan_pipeline(
        self, schema: Schema, data: Dict[str, TableData], stmt: ast.Select
    ) -> None:
        """The one join planner: pool the conjuncts, pick the pipeline
        order, then plan the base access and one step per join."""
        # One pool for WHERE and the ON conjuncts of INNER joins (they
        # filter the same product); a LEFT join's ON stays with the join.
        pool: List[ast.Expression] = _split_conjuncts(stmt.where)
        left_on: Dict[int, List[ast.Expression]] = {}
        #: kind of the join at each pipeline slot (slot 0 is the FROM table)
        kinds = [""]
        for slot, join in enumerate(stmt.joins, start=1):
            if join.kind == "CROSS" or join.condition is None:
                kinds.append("CROSS")
                continue
            kinds.append(join.kind)
            exprs = _split_conjuncts(join.condition)
            self._check_on_scope(
                slot, [referenced_slots(e, self.layout) for e in exprs]
            )
            if join.kind == "LEFT":
                left_on[slot] = exprs
            else:
                pool.extend(exprs)

        # Order is the only thing that differs between pipelines: inner
        # joins commute, so an all-INNER pipeline is ordered by estimate;
        # anything else keeps the written order and carries no estimates
        # (all 0), so every hash join there builds its right side.
        order = list(range(len(self._bindings)))
        estimates = [0] * len(order)
        if stmt.joins and kinds.count("INNER") == len(stmt.joins):
            order, estimates = self._order_by_estimate(schema, data, pool)
            if order != sorted(order):
                self._placement = [self._bindings[i] for i in order]
                self.layout = ScopeLayout(
                    (binding, schema.table(table).column_names())
                    for binding, table in self._placement
                )

        by_stage: Dict[int, List[_Conjunct]] = {}
        for expr in pool:
            conjunct = _Conjunct(expr, self.layout)
            by_stage.setdefault(conjunct.stage, []).append(conjunct)

        self.base = _choose_base_access(
            schema, data, self._placement[0][1], 0, self.layout,
            by_stage.get(0, []),
        )

        # Running cardinality estimate of the pipeline so far: an FK-shaped
        # equi join matches ~one parent row per input row, so a hash join
        # keeps the estimate; a cross product multiplies it.  The estimate
        # picks each hash join's build side (smaller input gets hashed).
        running = estimates[order[0]]
        for slot in range(1, len(order)):
            right_estimate = estimates[order[slot]]
            # Reordering only happens when every kind is INNER, so the
            # kind at a slot is the same before and after it.
            step = self._plan_step(
                schema, slot, kinds[slot],
                left_on.get(slot, ()),
                by_stage.get(slot, ()),
                build_left=running < right_estimate,
            )
            self.steps.append(step)
            if step.strategy == "cross":
                running = max(1, running) * max(1, right_estimate)
            else:
                running = max(running, 1)

    def _order_by_estimate(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        pool: List[ast.Expression],
    ) -> Tuple[List[int], List[int]]:
        """Greedy order for an all-INNER pipeline: start from the table
        whose cheapest access path reads the fewest rows, then repeatedly
        add the cheapest table that has an equi or other multi-table
        conjunct against the tables already placed (any table when none
        is connected).  Returns the order (written-order slots) and each
        table's estimate."""
        written = self.layout
        footprints = [frozenset(referenced_slots(e, written)) for e in pool]
        estimates: List[int] = []
        for i, (_, table) in enumerate(self._bindings):
            own = [e for e, fp in zip(pool, footprints) if fp == {i}]
            candidates = _access_candidates(schema, data, table, i, written, own)
            # the full scan (every row) is the fallback candidate
            estimates.append(
                min([data[table].row_count()] + [c[0] for c in candidates])
            )

        def cost(i: int) -> Tuple[int, int]:
            return estimates[i], i

        remaining = list(range(len(estimates)))
        order = [min(remaining, key=cost)]
        remaining.remove(order[0])
        while remaining:
            placed = set(order)
            connected = [
                i
                for i in remaining
                if any(
                    i in fp and len(fp) > 1 and fp - {i} <= placed
                    for fp in footprints
                )
            ]
            pick = min(connected or remaining, key=cost)
            order.append(pick)
            remaining.remove(pick)
        return order, estimates

    def _plan_step(
        self,
        schema: Schema,
        slot: int,
        kind: str,
        on: Sequence[ast.Expression],
        pooled: Sequence[_Conjunct],
        build_left: bool,
    ) -> _JoinStep:
        """The one join-step planner.  ``on`` are a LEFT join's own ON
        conjuncts, ``pooled`` the pooled conjuncts whose stage is this
        slot.

        * INNER — pooled conjuncts that read only this table filter the
          hash build side, equi conjuncts against earlier tables become
          hash keys, the rest run after the join; without a key it is a
          filtered cross product.
        * LEFT — ON decides the match (equi conjuncts as hash keys, the
          rest checked per candidate pair; a nested loop without keys);
          pooled conjuncts must see the null-extended row, so all of them
          run after the join and the build side is always the right one.
        * CROSS — like INNER, but nothing becomes a key.
        """
        binding, table_name = self._placement[slot]
        left_keys: List[ast.Expression] = []
        right_columns: List[str] = []
        on_residual: List[ast.Expression] = []
        build_filters: List[ast.Expression] = []
        post: List[ast.Expression] = []

        keyable: List[_Conjunct] = []
        if kind == "LEFT":
            keyable, rest = [_Conjunct(e, self.layout) for e in on], on_residual
            post = [c.expr for c in pooled]
            build_left = False
        else:
            rest = post
            for conjunct in pooled:
                if conjunct.slots == {slot}:
                    build_filters.append(conjunct.expr)
                elif kind == "INNER":
                    keyable.append(conjunct)
                else:
                    post.append(conjunct.expr)
        for conjunct in keyable:
            match = _column_eq_prior(conjunct.expr, slot, self.layout)
            if match is None:
                rest.append(conjunct.expr)
            else:
                right_columns.append(match[0])
                left_keys.append(match[1])
        fallback = "loop" if kind == "LEFT" else "cross"
        return _JoinStep(
            slot, table_name, binding, kind, len(schema.table(table_name).columns),
            strategy="hash" if right_columns else fallback,
            left_keys=left_keys,
            right_columns=right_columns,
            on_residual=on_residual,
            build_filters=build_filters,
            post=post,
            build_left=build_left and bool(right_columns),
        )

    def _upgrade_to_index_order(
        self,
        data: Dict[str, TableData],
        stmt: ast.Select,
        items: List[Tuple[ast.Expression, str]],
        alias_positions: Dict[str, int],
    ) -> None:
        """Replace scan+sort with an index-ordered walk when ORDER BY is a
        single key on an ordered-indexed column of the first pipeline
        table (join steps preserve their input order, ties included, so
        the emitted sequence equals what the stable sort would produce)."""
        if len(stmt.order_by) != 1 or self.base is None:
            return
        if self.base.kind not in ("scan", "range"):
            return
        if any(step.build_left for step in self.steps):
            # A left-build hash join emits right-major order, so the
            # index order would not survive the pipeline.
            return
        item = stmt.order_by[0]
        expr = item.expression
        # ORDER BY resolves output aliases first (same rule as _OrderKey);
        # follow the indirection to the underlying expression.
        if (
            isinstance(expr, ast.ColumnRef)
            and expr.table is None
            and expr.name in alias_positions
        ):
            expr = items[alias_positions[expr.name]][0]
        if not isinstance(expr, ast.ColumnRef):
            return
        column = expr.name
        if self.layout.resolve(expr)[0] != 0:
            return
        if data[self.base.table_name].ordered_index(column) is None:
            return
        if self.base.kind == "range":
            if self.base.column != column:
                return
            self.base.descending = item.descending
        else:
            ordered = _OrderedScan(self.base.table_name, column, item.descending)
            # keep the residual conjuncts of the replaced scan
            ordered.residual, ordered.guards = self.base.residual, self.base.guards
            self.base = ordered
        self.base.stop = self._stop
        self._index_ordered = True

    def _has_aggregate(self, stmt: ast.Select) -> bool:
        exprs: List[ast.Expression] = [i.expression for i in stmt.items]
        if stmt.having is not None:
            exprs.append(stmt.having)
        return any(_contains_aggregate(e) for e in exprs)

    def _expand_items(
        self, schema: Schema, stmt: ast.Select
    ) -> List[Tuple[ast.Expression, str]]:
        """Resolve SELECT items (including ``*``) to (expr, column-name)."""
        expanded: List[Tuple[ast.Expression, str]] = []
        for item in stmt.items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                if self._grouped:
                    raise DatabaseError("'*' cannot be mixed with aggregation")
                matched = False
                for binding, table_name in self._bindings:
                    if expr.table is not None and binding != expr.table:
                        continue
                    matched = True
                    for column in schema.table(table_name).column_names():
                        expanded.append(
                            (ast.ColumnRef(column, table=binding), column)
                        )
                if expr.table is not None and not matched:
                    raise DatabaseError(
                        f"unknown table binding {expr.table!r} in select list"
                    )
                continue
            name = item.alias or _default_column_name(expr)
            expanded.append((expr, name))
        return expanded

    # -- execution ------------------------------------------------------

    def _generate(
        self,
        source: Source,
        items: List[Tuple[ast.Expression, str]],
        group_keys: List[str],
    ) -> None:
        """Write the operators into the plan's source — ``base``, one
        ``join<slot>`` per step and (ungrouped) ``project``, each with its
        predicates and projections inlined and its parameters and
        constants hoisted — next to the GROUP BY / ORDER BY key and
        aggregate-argument functions already there, and compile it."""
        if self.base is None:
            fn = source.function("base", "data, parameters", self.layout)
            constant = [fn.truth(e) for e in _split_conjuncts(self.stmt.where)]
            fn.close(_when(constant, ["yield ()"]))
        else:
            self.base.emit(source, self.layout, rowids=False)
        for step in self.steps:
            step.emit(source, self.layout)
        if not self._grouped:
            fn = source.function("project", "scopes, parameters", self.layout)
            values = _tuple([fn.value(expr) for expr, _ in items])
            scope = _tuple([f"r{i}" for i in range(len(self.layout))])
            fn.close([f"return [{values} for {scope} in scopes]"])
        namespace = source.build()
        #: The generated Python text this plan executes.
        self.source = source.text
        self._base: Callable[..., Iterator[Tuple[Row, ...]]] = namespace["base"]
        for step in self.steps:
            step.run = namespace[f"join{step.slot}"]
        self._project: Callable[..., List[Tuple[Any, ...]]] = namespace.get(
            "project"
        )
        self.group_fns: List[Compiled] = [namespace[name] for name in group_keys]
        for key in self.order_keys:
            if key.name is not None:
                key.fn = namespace[key.name]

    def scopes(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> Iterator[Tuple[Row, ...]]:
        # EXPLAIN ANALYZE: one thread-local read per statement when
        # disarmed; armed, every operator's output is wrapped with a
        # timing/row-counting iterator.  Plans are cached and shared
        # across threads, so the probe is never stored on the plan.
        #
        # Cooperative cancellation lives inside the operators: each
        # generated loop has a cancellation point per unit it *reads* (a
        # page of a table scan or a join's build side, a chunk of index
        # row ids), so a pipeline that emits nothing still checks the
        # request deadline every page read.
        probe = current_probe()
        produced = self._base(data, parameters)
        if probe is not None:
            if self.base is None:
                stats = probe.operator(self, "no FROM clause: single empty scope")
            else:
                stats = probe.operator(self.base, self.base.describe())
            produced = probe.timed(produced, stats)
        for step in self.steps:
            produced = step.run(produced, data, parameters)
            if probe is not None:
                produced = probe.timed(
                    produced, probe.operator(step, step.describe())
                )
        return produced

    def execute(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        probe = current_probe()
        if probe is None:
            return self._execute(data, parameters)
        start = time.perf_counter()
        columns, rows = self._execute(data, parameters)
        probe.elapsed_s += time.perf_counter() - start
        probe.rows += len(rows)
        probe.note_plan(self, self.describe())
        return columns, rows

    def _execute(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
        stmt = self.stmt
        if self._grouped:
            rows = self._execute_grouped(data, parameters)
        else:
            rows = self._execute_plain(data, parameters)

        if stmt.distinct:
            seen: Set[Tuple[Any, ...]] = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows

        if stmt.offset is not None:
            rows = rows[stmt.offset:]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return self.columns, rows

    def _execute_plain(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        stmt = self.stmt
        if not stmt.order_by:
            return self._project(self.scopes(data, parameters), parameters)

        if self._index_ordered:
            # Rows already emerge in ORDER BY order from the ordered
            # index; LIMIT stops the pipeline after the first rows.
            scopes = self.scopes(data, parameters)
            if self._stop is not None:
                scopes = islice(scopes, self._stop)
            return self._project(scopes, parameters)

        # Precompute every sort key exactly once per row.
        order_keys = self.order_keys
        scopes = list(self.scopes(data, parameters))
        decorated: List[Tuple[Tuple[Any, ...], Tuple[Any, ...]]] = [
            (tuple(k.key(row, scope, parameters) for k in order_keys), row)
            for scope, row in zip(scopes, self._project(scopes, parameters))
        ]

        if self._stop is not None:
            # Top-k: no need to sort rows that LIMIT/OFFSET will drop.
            indexes = range(len(decorated))
            chosen = heapq.nsmallest(
                self._stop, indexes, key=lambda i: decorated[i][0]
            )
            return [decorated[i][1] for i in chosen]
        indexes = sorted(
            range(len(decorated)), key=lambda i: decorated[i][0]
        )
        return [decorated[i][1] for i in indexes]

    def _execute_grouped(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> List[Tuple[Any, ...]]:
        groups: Dict[Tuple[Any, ...], List[Tuple[Row, ...]]] = {}
        if self.group_fns:
            for scope in self.scopes(data, parameters):
                key = tuple(
                    _hashable(fn(scope, parameters)) for fn in self.group_fns
                )
                groups.setdefault(key, []).append(scope)
        else:
            groups[()] = list(self.scopes(data, parameters))

        rows: List[Tuple[Any, ...]] = []
        for members in groups.values():
            if self.having_fn is not None and self.having_fn(
                members, parameters
            ) is not True:
                continue
            rows.append(
                tuple(fn(members, parameters) for fn in self.item_fns_grouped)
            )
        if self.order_keys:
            order_keys = self.order_keys
            rows.sort(
                key=lambda row: tuple(k.key(row, (), parameters) for k in order_keys)
            )
        return rows

    def describe(self) -> List[str]:
        lines: List[str] = []
        if self._placement != self._bindings:
            lines.append(
                "join order: "
                + " -> ".join(binding for binding, _ in self._placement)
                + " (stats-driven reorder)"
            )
        if self.base is None:
            lines.append("no FROM clause: single empty scope")
        else:
            lines.append(self.base.describe())
        lines.extend(step.describe() for step in self.steps)
        if self._grouped:
            lines.append(f"group + aggregate -> {len(self.columns)} column(s)")
        else:
            lines.append(f"project {len(self.columns)} column(s)")
            stop = self._stop
            if self._index_ordered:
                lines.append(
                    "order by via ordered index (no sort)"
                    + ("" if stop is None else f", stop after {stop}")
                )
            elif self.stmt.order_by:
                lines.append(
                    f"order by {len(self.stmt.order_by)} key(s)"
                    + ("" if stop is None else f", top-{stop} via heap")
                )
        return lines


class CompiledMutation:
    """Compiled row selection for UPDATE/DELETE: index-aware WHERE over a
    single table, plus (for UPDATE) compiled assignment expressions."""

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        stmt: Union[ast.Update, ast.Delete],
        force_scan: bool = False,
    ) -> None:
        table_name = stmt.table
        self.table_name = table_name
        self.layout = ScopeLayout(
            # raises CatalogError for unknown tables
            [(table_name, schema.table(table_name).column_names())]
        )
        conjuncts = [
            _Conjunct(e, self.layout) for e in _split_conjuncts(stmt.where)
        ]
        if force_scan:
            self.base = _BaseAccess(table_name, "scan", residual=conjuncts)
        else:
            self.base = _choose_base_access(
                schema, data, table_name, 0, self.layout, conjuncts
            )
        source = Source()
        assignments = [
            (a.column, emit_expression(source, a.value, self.layout, "assign"))
            for a in getattr(stmt, "assignments", ())
        ]
        name = self.base.emit(source, self.layout, rowids=True)
        namespace = source.build()
        self.assignment_fns: List[Tuple[str, Compiled]] = [
            (column, namespace[fn]) for column, fn in assignments
        ]
        self._matching: Callable[..., Iterator[int]] = namespace[name]
        #: The generated Python text of the row selection and (UPDATE)
        #: the assignments.
        self.source = source.text

    def matching_rowids(
        self, data: Dict[str, TableData], parameters: Sequence[Any]
    ) -> List[int]:
        """Materialized list: callers mutate the table while applying."""
        rowids = self._matching(data, parameters)
        probe = current_probe()
        if probe is not None:
            rowids = probe.timed(
                rowids, probe.operator(self.base, self.base.describe())
            )
            probe.note_plan(self, self.describe())
        return list(rowids)

    def describe(self) -> List[str]:
        return [self.base.describe()]


# ---------------------------------------------------------------------------
# the planner facade
# ---------------------------------------------------------------------------

class Planner:
    """Plans statements against a schema + storage, with an LRU plan cache.

    The cache key is ``(generation, shape)``: the statement AST (frozen
    dataclasses; a statement computes its hash once, see
    :mod:`repro.sql.ast`) with parameters where the request's values go, so
    every execution of one shape — whatever its parameter vector — shares
    one plan.  A plan is therefore costed **once per shape per
    generation**, from the statistics of whichever execution came first
    (possibly an empty table); later growth can leave its join order or
    build side stale until the next DDL, never its answers — every access
    path and join strategy is exact for any data.  The engine invalidates
    the cache on DDL, which also bumps :attr:`generation`.  Keying plans
    by generation is what lets MVCC readers share the cache safely: a
    plan is only ever built while the live schema matches the generation
    of the table map it will execute against (snapshot or working store),
    and DDL holds :attr:`lock` across its catalog mutation so a plan can
    never observe a half-applied schema change.

    Cache *hits* are lock-free: plans are immutable once built, and the
    individual ``OrderedDict`` operations are atomic under the GIL (a
    racing eviction or double build is benign).
    """

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        force_scan: bool = False,
    ) -> None:
        self.schema = schema
        self.data = data
        #: When True every plan is the naive shape: full scans and nested
        #: loops, no index paths, no reordering.  The differential harness
        #: oracle.  Toggle before any plan is cached (or invalidate()).
        self.force_scan = force_scan
        #: Serializes plan building with DDL (the engine wraps catalog
        #: mutations in this lock before bumping the generation).
        self.lock = threading.RLock()
        #: Bumped by :meth:`invalidate`; identifies one schema epoch.
        self.generation = 0
        self._cache: "OrderedDict[Tuple[int, ast.Statement], Any]" = OrderedDict()
        #: Planning/caching statistics (exposed for tests and diagnostics).
        self.stats = {"hits": 0, "misses": 0, "invalidations": 0}

    def invalidate(self) -> None:
        """Drop all cached plans and open a new generation (after DDL)."""
        with self.lock:
            self.generation += 1
            self._cache.clear()
            self.stats["invalidations"] += 1

    def _cached(
        self, generation: int, stmt: ast.Statement, data: Dict[str, TableData]
    ) -> Any:
        """The plan for the statement shape ``stmt`` over the table map
        ``data``, which must belong to ``generation``."""
        key = (generation, stmt)
        try:
            plan = self._cache[key]
        except (KeyError, TypeError):
            # TypeError: unhashable literal buried in the AST — plan uncached.
            self.stats["misses"] += 1
            trace = current_trace()
            if trace is not None:
                # Cold path only: the request's log line says it paid
                # for planning (a hit adds nothing to the hot path).
                annotate(plans_built=trace.get("plans_built", 0) + 1)
            with self.lock:
                if generation != self.generation:
                    raise StaleSnapshotError(
                        "schema changed since the snapshot was taken"
                    )
                compiled = (
                    CompiledSelect
                    if isinstance(stmt, ast.Select)
                    else CompiledMutation
                )
                plan = compiled(self.schema, data, stmt, self.force_scan)
                try:
                    self._cache[key] = plan
                    if len(self._cache) > _PLAN_CACHE_SIZE:
                        self._cache.popitem(last=False)
                except TypeError:
                    pass
            return plan
        self.stats["hits"] += 1
        try:
            self._cache.move_to_end(key)
        except KeyError:
            pass  # concurrently invalidated/evicted; recency is best-effort
        return plan

    def cache_entries(self) -> int:
        """Plans (one per statement shape) currently cached."""
        return len(self._cache)

    def plan(
        self, stmt: Union[ast.Select, ast.Update, ast.Delete]
    ) -> Union[CompiledSelect, CompiledMutation]:
        """Build/fetch the plan for the *working* store, retrying across a
        racing DDL (only possible for unlocked callers like explain())."""
        while True:
            try:
                return self._cached(self.generation, stmt, self.data)
            except StaleSnapshotError:
                continue

    def plan_select_at(self, stmt: ast.Select, snapshot) -> CompiledSelect:
        """The plan a snapshot reader executes: costed against the
        snapshot's tables and cached under the snapshot's generation.
        In the steady state (no DDL since publication) this is the same
        cache entry the working store uses, so readers share the
        amortization.  Raises :class:`StaleSnapshotError` when a DDL has
        run since the snapshot was published and no plan is cached."""
        return self._cached(snapshot.generation, stmt, snapshot.tables)
