"""Index-aware statement planning for the RDB engine.

The planner turns ``ast.Select``/``ast.Update``/``ast.Delete`` into
compiled, index-aware access paths so per-operation cost scales with the
*request* rather than the database — the feasibility property the paper's
Section 5/6 measurements rest on — and ``ast.Insert`` /
``ast.Update`` / ``ast.Delete`` into generated row writes.  Every
planning job has one implementation:

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
  bytecode of its predicates, not a Python call per AST node.  ORDER BY
  is ``order`` (:func:`_emit_order`): each row's keys in one tuple per
  run of same-direction keys — an output column read by position, an
  expression inlined — then one stable ``list.sort`` per run, last run
  first, so rows compare in C and equal keys keep scan order; OFFSET /
  LIMIT slice the result.  A grouped SELECT's ``group``
  (:func:`_emit_group`) puts the scopes into their groups and computes
  each aggregate call once per group, tests HAVING and writes the
  items.  The per-execution check of :class:`_Plan` (``unwalkable``),
  the UPDATE assignments (``assign<n>``) and a DML statement's row
  write, ``write`` (:class:`_RowWrite`, :class:`CompiledInsert`,
  :class:`CompiledMutation`), are functions of the same unit: one
  ``compile()`` per plan, and ``plan.source`` shows all of the plan's
  code.  What is *not* generated: the choice of plan (everything
  above), the row-id walks of the index paths (an
  :class:`_IndexWalk`'s ``rowids``), DISTINCT, and the protocol
  between operators — they stay separate iterators over scope tuples,
  which is what EXPLAIN ANALYZE wraps to time each one and what a
  deadline interrupts.  The
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
shape and one plan.  An INSERT's shape leaves out the literal values of
its VALUES cells (:func:`_insert_key`): its plan reads them from the
statement it executes, so a bulk load of literal INSERTs builds one plan
per table and column list.  Nothing here reads a parameter's value at
plan time: the one constant planning does look at, a ``LIKE`` pattern
(it decides whether a prefix scan applies), therefore has to stay a
literal.
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

The same plan is each statement's one written-order fallback
(:class:`_Plan`): an execution with a literal or parameter bound of the
other type class than its column in any stage, joins included, or a NULL
key for a one-table index walk, runs the ``force_scan`` plan (built on
the first such execution, kept on the plan), so both sides raise on the
same executions whichever rows the planned one would skip.  The plan's
generated ``unwalkable(parameters)`` tells such an execution apart.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import islice
from operator import itemgetter
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
from ..errors import CatalogError, DatabaseError, IntegrityError
from ..observability.metrics import FULL_SCANS, ROWS_SCANNED
from ..observability.tracing import annotate, current_probe, current_trace
from ..sql import ast
from ..sql.render import render_expression
from .catalog import Column, ForeignKey, Schema, Table
from .expressions import (
    AGGREGATE_FUNCTIONS,
    Function,
    Local,
    ScopeLayout,
    Source,
    emit_expression,
    referenced_slots,
    _NO_COLUMNS,
    _parameter,
)
from .storage import PAGE_BITS, PAGE_SIZE, SLOT_MASK, UNBOUNDED, TableData
from .transactions import DEFERRED
from .types import DateType, FloatType, IntegerType, Row, StringType

__all__ = [
    "Planner",
    "CompiledSelect",
    "CompiledInsert",
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
    which supplies the row ids it reads (its ``rowids``, taken
    a chunk at a time through :meth:`TableData.id_chunks`) and its
    EXPLAIN wording (:meth:`path`).  ``kind`` is ``'scan'``, ``'point'``
    (unique-index lookup), ``'probe'`` (secondary-index equality),
    ``'range'`` / ``'prefix'`` (ordered-index walk) or ``'ordered'``
    (full ordered-index scan for ORDER BY).  ``keys`` are the expressions
    (over no column) whose values an index path looks up; ``residual``
    the stage-0 conjuncts the path does not answer itself, of which the
    first ``len(guards)`` test a column against a parameter (or NULL)
    that is tested for NULL once, before anything is read (see
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
        self.guards: Tuple[Tuple[ast.ColumnRef, ast.Expression], ...] = ()
        self.stop: Optional[int] = None

    def path(self) -> str:
        return "full scan"

    def _reader(
        self, fn: Function, rowids: bool
    ) -> Tuple[List[str], str, str, List[str], str]:
        """How ``base`` reads, past the NULL guards: its set-up lines,
        what the loop over units (``unit``: a page of rows or a chunk of
        row ids) iterates, how many rows a unit holds, the loop over a
        unit's rows, which binds ``r0`` (and ``rowid`` when ``rowids``),
        and a unit's row ids."""
        full_scan = fn.helper(
            "count_full_scan", FULL_SCANS.labels(self.table_name).inc
        )
        pairs = "rowid, r0 in unit.items()" if rowids else "r0 in unit.rows()"
        return (
            [f"{full_scan}()"], "table.pages()", "unit.live", [f"for {pairs}:"],
            "unit.ids()",
        )

    def emit(self, source: Source, layout: ScopeLayout, rowids: bool) -> str:
        """Write the generator ``base(data, parameters)``.

        It reads the table a unit at a time — a page of rows, or a chunk
        of row ids whose rows it reads inline — with one cancellation
        point per unit, adds up the rows it read, and yields the
        ``rowid`` (when ``rowids``) or the scope ``(r0,)`` of every row
        that passes the residual conjuncts, tested in written order as
        nested ``if`` statements."""
        fn = source.function("base", "data, parameters", layout)
        check = fn.helper("cancellation_point", cancellation_point)
        count = fn.helper(
            "count_scanned", ROWS_SCANNED.labels(self.table_name).inc
        )
        guards = [(fn.value(c), fn.value(v)) for c, v in self.guards]
        # Past the guard a guarded value is not NULL: ``==`` alone
        # answers its conjunct (a NULL column compares False).
        tests = [f"({column} == {value})" for column, value in guards]
        tests += [fn.truth(expr) for expr in self.residual[len(guards):]]
        setup, units, size, loop, ids = self._reader(fn, rowids)
        lines = [f"table = data[{self.table_name!r}]"]
        if guards:
            nulls = " or ".join(f"{value} is None" for _, value in guards)
            lines += [f"if {nulls}:", "    return"]
        if rowids and not tests:
            rows = [f"yield from {ids}"]
        else:
            accepted = _when(tests, [f"yield {'rowid' if rowids else '(r0,)'}"])
            rows = loop + _indented(accepted)
        return fn.close(lines + [
            *setup,
            "scanned = 0",
            "try:",
            f"    for unit in {units}:",
            f"        {check}('executor:scan')",
            f"        scanned += {size}",
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
    rows looked up inline on the row pages.  Each path's ``rowids(table
    data, key)`` answers the ids it reads before the residual, given the
    values of :attr:`keys` (an execution with keys a path cannot walk
    runs the statement's written-order plan instead: :class:`_Plan`)."""

    def _reader(self, fn, rowids):
        walk = fn.helper("rowids", self.rowids)
        key = _tuple([fn.value(expr) for expr in self.keys])
        size = "" if self.stop is None else f", {min(self.stop, PAGE_SIZE)}"
        return (
            [f"ids = {walk}(table, {key})", "directory = table.rows.dir"],
            f"table.id_chunks(ids{size})",
            "len(unit)",
            [
                "for rowid in unit:",
                f"    r0 = directory[rowid >> {PAGE_BITS}][rowid & {SLOT_MASK}]",
            ],
            "unit",
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
            return ()  # `col = NULL` never matches
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
            return ()  # a NULL bound: no row is in range
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
) -> Tuple[Tuple[ast.ColumnRef, ast.Expression], ...]:
    """(column, parameter or NULL) of the leading ``column = parameter``
    and ``column = NULL`` conjuncts.  Such a conjunct cannot raise, and
    with a NULL value it fails every row before any later conjunct runs;
    so a base access tests these values once, before reading, and not
    per row."""
    guards = []
    for expr in residual:
        if not (isinstance(expr, ast.BinaryOp) and expr.op == "="):
            break
        column, value = expr.left, expr.right
        if isinstance(column, (ast.Parameter, ast.Null)):
            column, value = value, column
        if not (
            isinstance(column, ast.ColumnRef)
            and isinstance(value, (ast.Parameter, ast.Null))
        ):
            break
        guards.append((column, value))
    return tuple(guards)


def _stores_text(table, column: str) -> bool:
    """Does ``column`` hold strings (dates are stored as text)?  Only
    then is a LIKE-prefix index scan sound (LIKE matches ``str(value)``,
    which diverges for numbers), and only a string orders against it."""
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
            if match.column not in prefixes and _stores_text(table, match.column):
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
            f"    for {row} in page.rows():",
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

def _null_safe_key(value: Any) -> Tuple[int, int, Any]:
    """NULLs sort before everything; mixed types sort by type class.

    CONTRACT: on non-NULL values this must order exactly like
    :func:`repro.rdb.storage._ordered_key` — the index-ordered access
    path replaces this sort with an ordered-index walk.  Change both
    together (a unit test asserts the orders agree).  The generated
    ``order`` function answers a str or an int inline, as this does.
    """
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 0, value)
    return (1, 1, str(value))


def _emit_order(
    source: Source,
    layout: ScopeLayout,
    keys: Sequence[Tuple[Union[int, ast.Expression], bool]],
    grouped: bool,
) -> str:
    """Write ``order(scopes, rows, parameters)``, which returns ``rows``
    (the projected rows, ``scopes`` the scopes they came from, None when
    grouped) sorted by ``keys``: (output position or expression over the
    scope, descending) per ORDER BY item.

    Each row is decorated once with its keys, one tuple per run of
    consecutive items of one direction, and the runs are sorted last run
    first, one stable ``list.sort`` pass each (``reverse=True`` for a
    DESC run keeps ties in order too): the decorated tuples compare in
    C, no Python call per comparison, and equal keys keep scan order."""
    fn = source.function("order", "scopes, rows, parameters", layout)
    key_of = fn.helper("null_safe_key", _null_safe_key)
    runs: List[Tuple[bool, List[str]]] = []
    for key, descending in keys:
        value = f"row[{key}]" if isinstance(key, int) else fn.value(key)
        t = fn.temp()
        code = (
            f"((1, 1, {t}) if ({t} := {value}).__class__ is str else "
            f"(1, 0, {t}) if {t}.__class__ is int else {key_of}({t}))"
        )
        if runs and runs[-1][0] == descending:
            runs[-1][1].append(code)
        else:
            runs.append((descending, [code]))
    decorated = _tuple(
        [parts[0] if len(parts) == 1 else _tuple(parts) for _, parts in runs]
        + ["row"]
    )
    if grouped:
        source_rows = "row in rows"
    else:
        scope = _tuple([f"r{slot}" for slot in range(len(layout))])
        source_rows = f"{scope}, row in zip(scopes, rows)"
    lines = [f"decorated = [{decorated} for {source_rows}]"]
    for position in reversed(range(len(runs))):
        item = fn.helper(f"item{position}", itemgetter(position))
        reverse = ", reverse=True" if runs[position][0] else ""
        lines.append(f"decorated.sort(key={item}{reverse})")
    lines.append(f"return [entry[{len(runs)}] for entry in decorated]")
    return fn.close(lines)


# ---------------------------------------------------------------------------
# compiled statements
# ---------------------------------------------------------------------------

def _operands(expr: ast.Expression) -> Dict[str, Any]:
    """The fields of ``expr`` that hold expressions — an operand, a
    bound, an argument, or a tuple of arguments or list items — by
    name."""
    return {
        f.name: value
        for f in fields(expr)
        if isinstance(value := getattr(expr, f.name), (ast.Expression, tuple))
    }


def _contains_aggregate(expr: Optional[ast.Expression]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
        return True
    return any(
        _contains_aggregate(operand)
        for value in _operands(expr).values()
        for operand in (value if isinstance(value, tuple) else (value,))
    )


def _emit_group(
    source: Source,
    layout: ScopeLayout,
    stmt: ast.Select,
    items: Sequence[ast.Expression],
) -> None:
    """Write ``group(scopes, parameters)``, which returns the rows of a
    grouped SELECT, first-seen group first.

    It puts each scope into the list of its GROUP BY key (all scopes
    into one list without GROUP BY).  Per group it computes HAVING's
    aggregate calls, tests HAVING in its truth form, computes the items'
    other calls and writes the items in their value form.  Each call is
    computed once, into a local the emitter reads (``a<n>``, a
    :class:`Local`), from its argument's non-NULL values over the
    group's rows, whatever operator or function it stands under.  A
    column outside an aggregate reads the group's first row; in the one
    group without rows (no GROUP BY, no input row) it is NULL, and
    literals and parameters keep their values."""
    fn = source.function("group", "scopes, parameters", layout)
    scope = _tuple([f"r{slot}" for slot in range(len(layout))])
    calls: Dict[ast.FunctionCall, Local] = {}

    def over_group(expr: ast.Expression, empty: bool) -> ast.Expression:
        if isinstance(expr, ast.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            return calls.setdefault(expr, Local(f"a{len(calls)}"))
        if isinstance(expr, ast.ColumnRef):
            return ast.Null() if empty else expr
        return replace(expr, **{
            name: (
                tuple(over_group(e, empty) for e in value)
                if isinstance(value, tuple) else over_group(value, empty)
            )
            for name, value in _operands(expr).items()
        })

    def compute(start: int) -> List[str]:
        """The lines binding each call from the ``start``-th on."""
        lines: List[str] = []
        for call, local in list(calls.items())[start:]:
            if call.name == "COUNT" and (
                not call.args or isinstance(call.args[0], ast.Star)
            ):
                values = "members"
            elif len(call.args) != 1:
                raise DatabaseError(f"{call.name} takes exactly one argument")
            else:
                t = fn.temp()
                values = (
                    f"[{t} for {scope} in members "
                    f"if ({t} := {fn.value(call.args[0])}) is not None]"
                )
                if call.distinct:
                    values = f"list(dict.fromkeys({values}))"
            fold = fn.helper(f"{call.name.lower()}_of", AGGREGATE_FUNCTIONS[call.name])
            lines.append(f"{local.name} = {fold}({values})")
        return lines

    def answer(empty: bool) -> List[str]:
        """One group's lines: they append its row to ``rows`` unless
        HAVING rejects it."""
        calls.clear()
        having = None if stmt.having is None else over_group(stmt.having, empty)
        lines = compute(0)
        computed = len(calls)
        values = _tuple([fn.value(over_group(expr, empty)) for expr in items])
        row = compute(computed) + [f"rows.append({values})"]
        return lines + (row if having is None else _when([fn.truth(having)], row))

    lines = ["rows = []"]
    if stmt.group_by:
        key = _tuple([fn.value(expr) for expr in stmt.group_by])
        lines += [
            "groups = {}",
            "for scope in scopes:",
            f"    {scope} = scope",
            f"    groups.setdefault({key}, []).append(scope)",
            "for members in groups.values():",
            f"    {scope} = members[0]",
            *_indented(answer(False)),
        ]
    else:
        lines += [
            "members = list(scopes)",
            "if members:",
            f"    {scope} = members[0]",
            *_indented(answer(False)),
            "else:",
            *_indented(answer(True)),
        ]
    fn.close(lines + ["return rows"])


def _ordered_operands(
    expr: ast.Expression,
) -> Iterator[Tuple[ast.ColumnRef, ast.Expression]]:
    """(column, other operand) of each ``<``, ``<=``, ``>``, ``>=`` and
    ``[NOT] BETWEEN`` that orders a column, in ``expr`` or under its AND,
    OR and NOT."""
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            yield from _ordered_operands(expr.left)
            yield from _ordered_operands(expr.right)
        elif expr.op in _FLIPPED_COMPARISON:
            for column, value in ((expr.left, expr.right), (expr.right, expr.left)):
                if isinstance(column, ast.ColumnRef):
                    yield column, value
    elif isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
        yield from _ordered_operands(expr.operand)
    elif isinstance(expr, ast.Between) and isinstance(expr.operand, ast.ColumnRef):
        yield expr.operand, expr.low
        yield expr.operand, expr.high


class _Plan:
    """What a SELECT plan and an UPDATE / DELETE row selection share:
    when an execution runs its written-order :attr:`fallback` (see the
    module docstring).  A one-table full scan is its own written-order
    plan and has no checks."""

    stmt: ast.Statement
    layout: ScopeLayout
    base: Optional[_BaseAccess]
    #: The statement's ``force_scan`` plan, once an execution needed it.
    fallback: Optional["_Plan"] = None
    #: ``unwalkable(parameters)``: must an execution with ``parameters``
    #: run :attr:`fallback`?  None when no execution must.
    unwalkable: Optional[Callable[[Sequence[Any]], Any]] = None

    def _emit_unwalkable(
        self, schema: Schema, placement: Sequence[Tuple[str, str]],
        conjuncts: Sequence[_Conjunct], source: Source,
    ) -> None:
        """Write ``unwalkable(parameters)`` into the plan's unit when the
        plan has checks.  For one table, the leading ``column = ?`` /
        ``column = NULL`` conjuncts guard it (with a NULL value no row
        passes them, and the plan answers unread), and each other key of
        the base access is checked for NULL (a NULL runs the full scan;
        a join's walk reads no row for it).  Each value a column is
        ordered against (``<``, ``<=``, ``>``, ``>=``, ``[NOT] BETWEEN``)
        in a conjunct of any stage, at its top or under AND, OR and NOT,
        is checked for the column's type class: numbers for a number
        column, strings for a string or date column (dates are stored as
        text).  A value is a literal, a parameter or a key: nothing a
        check evaluates can raise, or was not evaluated before reading
        anyway.  A comparison the written-order plan would not reach
        (behind an OR that is already TRUE) only sends such an execution
        to it needlessly; it answers the same."""
        fn = source.function("unwalkable", "parameters", self.layout)
        keys = self.base.keys
        guards: List[str] = []
        tests: List[str] = []
        if len(placement) == 1:
            guarded = [value for _, value in _null_guards([c.expr for c in conjuncts])]
            guards = [f"{fn.value(value)} is None" for value in guarded]
            tests = [f"{fn.value(key)} is None" for key in keys if key not in guarded]
        for conjunct in conjuncts:
            for column, value in _ordered_operands(conjunct.expr):
                if isinstance(value, (ast.Literal, ast.Parameter)) or value in keys:
                    table = schema.table(placement[self.layout.resolve(column)[0]][1])
                    classes = "str" if _stores_text(table, column.name) else "(int, float)"
                    t = fn.temp()
                    tests.append(
                        f"(({t} := {fn.value(value)}) is not None "
                        f"and not isinstance({t}, {classes}))"
                    )
        if not tests:
            return
        lines = [f"if {' or '.join(guards)}:", "    return False"] if guards else []
        fn.close(lines + [f"return {' or '.join(tests)}"])


class CompiledSelect(_Plan):
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
        conjuncts: List[_Conjunct] = []
        # (SELECT without FROM has neither: its WHERE conjuncts are
        # constants, tested once by the generated ``base``)
        if stmt.table is not None and force_scan:
            self._plan_oracle(schema, stmt)
        elif stmt.table is not None:
            conjuncts = self._plan_pipeline(schema, data, stmt)

        self._grouped = bool(stmt.group_by) or any(
            map(_contains_aggregate, [i.expression for i in stmt.items] + [stmt.having])
        )
        items = self._expand_items(schema, stmt)
        self.columns: List[str] = [name for _, name in items]
        self._index_ordered = False
        # Everything the plan runs is written into one unit and compiled
        # once, by _generate.
        source = Source()
        if self._grouped:
            _emit_group(source, self.layout, stmt, [expr for expr, _ in items])
        alias_positions = {name: i for i, name in enumerate(self.columns)}
        #: (output position or expression, descending) per ORDER BY item
        self._order_keys: List[Tuple[Union[int, ast.Expression], bool]] = []
        for item in stmt.order_by:
            expr = item.expression
            names_output = (
                isinstance(expr, ast.ColumnRef) and expr.name in alias_positions
            )
            if names_output and (self._grouped or expr.table is None):
                self._order_keys.append((alias_positions[expr.name], item.descending))
            elif self._grouped:
                # a group has no single row to evaluate the expression on
                raise DatabaseError(
                    f"ORDER BY {render_expression(expr)}: a grouped SELECT "
                    "orders by its output columns only"
                )
            else:
                self._order_keys.append((expr, item.descending))
        if not self._grouped and not force_scan:
            self._upgrade_to_index_order(data, stmt, items, alias_positions)
        if self.steps or (self.base is not None and self.base.kind != "scan"):
            self._emit_unwalkable(schema, self._placement, conjuncts, source)
        self._generate(source, items)

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
    ) -> List[_Conjunct]:
        """The one join planner: pool the conjuncts, pick the pipeline
        order, then plan the base access and one step per join.  Returns
        every conjunct of the statement, WHERE and ON, in the pipeline's
        layout."""
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
        return [c for stage in by_stage.values() for c in stage] + [
            _Conjunct(e, self.layout) for exprs in left_on.values() for e in exprs
        ]

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
        # ORDER BY resolves output aliases first (same rule as _order_keys);
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
            name = item.alias or (
                expr.name if isinstance(expr, ast.ColumnRef)
                else render_expression(expr)
            )
            expanded.append((expr, name))
        return expanded

    # -- execution ------------------------------------------------------

    def _generate(
        self, source: Source, items: List[Tuple[ast.Expression, str]]
    ) -> None:
        """Write the operators into the plan's source — ``base``, one
        ``join<slot>`` per step, (ungrouped) ``project`` and the ORDER BY
        sort ``order``, each with its predicates, projections and keys
        inlined and its parameters and constants hoisted — next to the
        ``group`` and ``unwalkable`` functions already there, and compile
        it."""
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
        if self._order_keys and not self._index_ordered:
            _emit_order(source, self.layout, self._order_keys, self._grouped)
        namespace = source.build()
        #: The generated Python text this plan executes.
        self.source = source.text
        self._base: Callable[..., Iterator[Tuple[Row, ...]]] = namespace["base"]
        for step in self.steps:
            step.run = namespace[f"join{step.slot}"]
        self._project: Callable[..., List[Tuple[Any, ...]]] = namespace.get(
            "project"
        )
        self._order: Optional[Callable[..., List[Tuple[Any, ...]]]] = (
            namespace.get("order")
        )
        self._group: Optional[Callable[..., List[Tuple[Any, ...]]]] = (
            namespace.get("group")
        )
        self.unwalkable = namespace.get("unwalkable")

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
        if not self._grouped:
            rows = self._execute_plain(data, parameters)
        else:
            rows = self._group(self.scopes(data, parameters), parameters)
            if self._order is not None:
                rows = self._order(None, rows, parameters)

        if stmt.distinct:
            rows = list(dict.fromkeys(rows))  # the first of equal rows, in order

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

        scopes = list(self.scopes(data, parameters))
        return self._order(scopes, self._project(scopes, parameters), parameters)

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
            elif self._order is not None:
                passes = 1 + sum(
                    a[1] != b[1]
                    for a, b in zip(self._order_keys, self._order_keys[1:])
                )
                lines.append(
                    f"order by {len(self._order_keys)} key(s), "
                    f"{passes} stable sort pass(es)"
                )
        return lines


# ---------------------------------------------------------------------------
# row writes: what INSERT, UPDATE and DELETE do per row, as generated code
# ---------------------------------------------------------------------------


def _table_data(data: Dict[str, TableData], name: str) -> TableData:
    try:
        return data[name]
    except KeyError:
        raise CatalogError(f"no such table: {name!r}") from None


def _no_parent(table: str, fk: ForeignKey, values: Tuple[Any, ...]) -> IntegrityError:
    """A row's foreign key ``values`` match no row of the parent table."""
    return IntegrityError(
        f"foreign key violation: {table}.{','.join(fk.columns)} = {values!r} "
        f"has no match in {fk.ref_table}",
        constraint="foreign key",
        table=table,
        column=fk.columns[0],
    )


def _still_referenced(
    child: str, fk: ForeignKey, ref_columns: Tuple[str, ...], values: Tuple[Any, ...]
) -> IntegrityError:
    """Rows of ``child`` still reference the parent key ``values``
    (RESTRICT)."""
    return IntegrityError(
        f"foreign key violation: rows in {child!r} still reference "
        f"{fk.ref_table}.{','.join(ref_columns)} = {values!r}",
        constraint="foreign key",
        table=child,
        column=fk.columns[0],
    )


def _parent_check(
    table: str, fk: ForeignKey, ref_columns: Tuple[str, ...],
    data: Dict[str, TableData], values: Tuple[Any, ...],
) -> None:
    """A deferred child-side probe: run at COMMIT against the parent
    table of that moment."""
    if not _table_data(data, fk.ref_table).has_key(ref_columns, values):
        raise _no_parent(table, fk, values)


def _children_check(
    child: str, fk: ForeignKey, ref_columns: Tuple[str, ...],
    data: Dict[str, TableData], values: Tuple[Any, ...],
) -> None:
    """A deferred RESTRICT probe: run at COMMIT against the child table
    of that moment."""
    if _table_data(data, child).has_key(tuple(fk.columns), values):
        raise _still_referenced(child, fk, ref_columns, values)


def _raiser(error: DatabaseError) -> Callable[[], DatabaseError]:
    """What raises ``error`` again, a new instance each time: a VALUES
    cell that cannot be written as code fails where it is read."""
    return partial(type(error), *error.args)


class _RowWrite:
    """The ``write`` function of a DML plan under construction: the
    per-statement lines it hoists (transaction methods, the index
    entries its foreign-key probes read) and the per-row checks of
    INSERT and UPDATE, in the order a row meets them — NOT NULL, then
    each CHECK, then each foreign key — with the catalog's messages.
    A probe runs at once in IMMEDIATE mode and is queued, as the same
    check, in DEFERRED mode; a key with a NULL component never probes."""

    def __init__(self, source: Source, arguments: str, layout: ScopeLayout, table: Table) -> None:
        self.fn = source.function("write", arguments, layout)
        self.table = table
        self.setup: List[str] = []
        self._hoisted: Set[str] = set()
        #: Codes of values known not to be NULL where the probes run.
        self.known: Set[str] = set()

    def named(self, prefix: str, value: Any) -> str:
        """A helper local of its own for ``value`` (``prefix`` is ours)."""
        return self.fn.helper(f"{prefix}{len(self.fn.source.constants)}", value)

    def hoist(self, name: str, value: str) -> str:
        """``name = value`` once, before the loop; returns ``name``."""
        if name not in self._hoisted:
            self._hoisted.add(name)
            self.setup.append(f"{name} = {value}")
        return name

    def coerced(self, column: Column, value: str) -> str:
        """``value`` (a local) as stored in ``column``: as it is when it
        already has the column's storage class, NULL as NULL, else what
        the type's ``coerce`` makes of it (or raises)."""
        sql_type = column.sql_type
        coerce = self.named("coerce", sql_type.coerce)
        slow = f"None if {value} is None else {coerce}({value}, {column.name!r})"
        if isinstance(sql_type, IntegerType):
            fast = f"{value}.__class__ is int"
        elif isinstance(sql_type, FloatType):
            fast = f"{value}.__class__ is float"
        elif isinstance(sql_type, StringType):
            fast = f"{value}.__class__ is str"
            if sql_type.length is not None:
                fast += f" and len({value}) <= {sql_type.length!r}"
        else:
            return f"({slow})"
        return f"({value} if {fast} else {slow})"

    def not_null(self, codes: Sequence[str], tested: Iterable[int]) -> List[str]:
        """A NOT NULL / PRIMARY KEY column whose value (``codes``: per
        position) may be NULL — its position is in ``tested``, or its
        value is NULL outright — in catalog order."""
        table = self.table
        tested = set(tested)
        lines: List[str] = []
        for position, column in enumerate(table.columns.values()):
            if not (column.not_null or column.name in table.primary_key):
                continue
            if codes[position] != "None" and position not in tested:
                continue
            fail = self.named("null", partial(
                IntegrityError,
                f"NOT NULL violation: {table.name}.{column.name}",
                constraint="not null", table=table.name, column=column.name,
            ))
            if codes[position] == "None":
                return lines + [f"raise {fail}()"]
            lines += [f"if {codes[position]} is None:", f"    raise {fail}()"]
            self.known.add(codes[position])
        return lines

    def row_checks(self, row: str) -> List[str]:
        """The table's compiled CHECKs on the row tuple ``row``: NULL
        passes, FALSE fails."""
        table = self.table
        lines: List[str] = []
        for expression, check in zip(table.checks, table.compiled_checks):
            test = self.named("check", check)
            fail = self.named("failed", partial(
                IntegrityError,
                f"CHECK constraint violated on {table.name!r}: "
                f"{render_expression(expression)}",
                constraint="check", table=table.name,
            ))
            lines += [f"if {test}(({row},), ()) is False:", f"    raise {fail}()"]
        return lines

    def parent_probe(self, schema: Schema, fk: ForeignKey, codes: Sequence[str]) -> List[str]:
        """The row (``codes``: per position) must find its parent row."""
        table = self.table
        parts = [codes[table.positions[c]] for c in fk.columns]
        ref_columns = tuple(fk.ref_columns or schema.table(fk.ref_table).primary_key)
        return self._probe(
            parts, fk.ref_table, ref_columns, "not in",
            partial(_parent_check, table.name, fk, ref_columns),
            partial(_no_parent, table.name, fk),
        )

    def children_probe(self, child: Table, fk: ForeignKey, parts: Sequence[str]) -> List[str]:
        """No row of ``child`` may hold the parent key ``parts``."""
        ref_columns = tuple(fk.ref_columns or self.table.primary_key)
        return self._probe(
            parts, child.name, tuple(fk.columns), "in",
            partial(_children_check, child.name, fk, ref_columns),
            partial(_still_referenced, child.name, fk, ref_columns),
        )

    def _probe(
        self, parts: Sequence[str], table: str, columns: Tuple[str, ...],
        violated: str, later: Any, fail: Any,
    ) -> List[str]:
        if "None" in parts:
            return []  # a NULL component never violates
        self.hoist("deferred", f"txn.mode == {self.fn.helper('DEFERRED', DEFERRED)}")
        self.hoist("defer", "txn.defer_check")
        bind = self.fn.helper("partial", partial)
        entries = self.hoist(
            f"keys{len(self.setup)}",
            f"data[{table!r}].indexes[{columns!r}].entries",
        )
        values = _tuple(parts)
        key = parts[0] if len(parts) == 1 else values
        later, fail = self.named("later", later), self.named("violation", fail)
        probe = [
            "if deferred:",
            f"    defer({bind}({later}, data, {values}))",
            f"elif {key} {violated} {entries}:",
            f"    raise {fail}({values})",
        ]
        nullable = [f"{part} is not None" for part in parts if part not in self.known]
        return _when([" and ".join(nullable)] if nullable else [], probe)

    def close(self, loop: Sequence[str]) -> str:
        return self.fn.close(self.setup + list(loop))


class CompiledInsert:
    """An INSERT shape's row write, generated once (``write``).

    The shape is the table, the column list and each VALUES cell with
    its literals left out (:func:`_insert_key`): a literal is read from
    the executed statement's cell, so statements that differ only in
    their literals share this plan.  Per row, ``write`` reads each cell —
    a literal from the statement, a parameter through the hoist that
    names a missing one, any other expression through a function of the
    unit — in written order; coerces the values in catalog order (an
    omitted column takes the next AUTOINCREMENT value, its DEFAULT or
    NULL); tests NOT NULL where a value can be NULL; runs the checks of
    :class:`_RowWrite`; and stores and journals the row, where PRIMARY
    KEY and UNIQUE are enforced.  Nothing is costed: an INSERT has no
    access path and no fallback."""

    unwalkable = None
    fallback = None

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        stmt: ast.Insert,
        force_scan: bool = False,
    ) -> None:
        table = schema.table(stmt.table)  # raises CatalogError for unknown tables
        self.table_name = table.name
        columns = stmt.columns or tuple(table.column_names())
        source = Source()
        write = _RowWrite(source, "rows, parameters, table, data, txn", _NO_COLUMNS, table)
        check = write.fn.helper("cancellation_point", cancellation_point)
        write.hoist("record", "txn.record")
        write.hoist("insert", "table.insert")
        runs: List[List[Any]] = []  # [first row, end, cells] of equal shape
        for number, cells in enumerate(_insert_key(stmt)[2:]):
            if runs and runs[-1][2] == cells:
                runs[-1][1] = number + 1
            else:
                runs.append([number, number + 1, cells])
        loop: List[str] = []
        for first, end, cells in runs:
            rows = "rows" if len(runs) == 1 else f"rows[{first}:{end}]"
            loop += [f"for cells in {rows}:", f"    {check}('executor:dml')"]
            loop += _indented(self._row(schema, table, write, columns, cells))
        write.close(loop)
        self.write: Callable[..., None] = source.build()["write"]
        #: The generated Python text of the row write.
        self.source = source.text

    @staticmethod
    def _row(
        schema: Schema, table: Table, write: _RowWrite,
        columns: Sequence[str], cells: Sequence[Optional[ast.Expression]],
    ) -> List[str]:
        """The loop body for rows whose cells are ``cells`` (None where a
        literal is read)."""
        fn = write.fn
        if len(cells) != len(columns):
            fail = write.named("mismatch", partial(
                DatabaseError,
                f"INSERT into {table.name!r}: {len(columns)} columns but "
                f"{len(cells)} values",
            ))
            return [f"raise {fail}()"]
        write.known = set()
        lines: List[str] = []
        given: Dict[str, int] = {}  # column -> the (last) cell that gives it
        for number, (column, cell) in enumerate(zip(columns, cells)):
            if cell is None:
                code = f"cells[{number}].value"
            elif isinstance(cell, ast.Null):
                code = "None"
            elif isinstance(cell, ast.Parameter):
                hoist = fn.helper("parameter", _parameter)
                code = f"{hoist}(parameters, {cell.index})"
            else:
                try:
                    name = emit_expression(fn.source, cell, _NO_COLUMNS, "cell")
                except DatabaseError as error:
                    return lines + [f"raise {write.named('invalid', _raiser(error))}()"]
                code = f"{name}((), parameters)"
            lines.append(f"v{number} = {code}")
            given[column] = number
        for name in given:
            if not table.has_column(name):
                fail = write.named("unknown", partial(
                    CatalogError, f"no column {name!r} in table {table.name!r}"
                ))
                return lines + [f"raise {fail}()"]
        codes: List[str] = []  # per position: a local, a constant or None
        tested: List[int] = []
        for position, column in enumerate(table.columns.values()):
            name = column.name
            local = f"c{position}"
            if name in given:
                if isinstance(cells[given[name]], ast.Null):
                    codes.append("None")
                    continue
                lines.append(f"{local} = {write.coerced(column, f'v{given[name]}')}")
                if column.autoincrement:
                    note = write.hoist("note", "table.note_autoincrement_value")
                    lines += [f"if {local} is not None:", f"    {note}({name!r}, {local})"]
                tested.append(position)
            elif column.autoincrement:
                next_value = write.hoist("next_value", "table.next_autoincrement")
                lines.append(f"{local} = {next_value}({name!r})")
                write.known.add(local)
            elif column.has_default:
                try:
                    value = column.sql_type.coerce(column.default, name)
                except DatabaseError:
                    coerce = write.named("coerce", column.sql_type.coerce)
                    default = fn.constant(column.default)
                    lines.append(f"{local} = {coerce}({default}, {name!r})")
                else:
                    local = fn.constant(value)
                write.known.add(local)
            else:
                local = "None"
            codes.append(local)
        lines.append(f"row = {_tuple(codes)}")
        lines += write.not_null(codes, tested)
        lines += write.row_checks("row")
        for fk in table.foreign_keys:
            lines += write.parent_probe(schema, fk, codes)
        return lines + ["rowid = insert(row)", "record('i', table, rowid, row)"]


def _insert_key(stmt: ast.Insert) -> Tuple[Any, ...]:
    """The plan-cache shape of an INSERT: its table, its column list and
    one tuple per VALUES row of its cells with None for each literal,
    whose value the plan reads from the statement it executes."""
    return (
        stmt.table,
        stmt.columns,
        *[
            tuple([None if cell.__class__ is ast.Literal else cell for cell in row])
            for row in stmt.rows
        ],
    )


class CompiledMutation(_Plan):
    """A compiled UPDATE / DELETE: the index-aware row selection over its
    one table (``base``, run by :meth:`matching_rowids`) and the row write
    (``write``).  An UPDATE's write evaluates each assignment (the unit's
    ``assign<n>`` functions) on the stored row and coerces it, runs the
    checks of :class:`_RowWrite` on what changes — NOT NULL on the
    assigned columns, every CHECK, the foreign keys whose columns are
    assigned — then the RESTRICT probe of each foreign key that
    references an assigned column and whose key changes, and stores and
    journals the changes.  A DELETE's write runs the RESTRICT probe of
    each foreign key that references the table, then deletes and
    journals the row.  Which foreign keys and referencing tables apply
    is settled here, once per plan."""

    def __init__(
        self,
        schema: Schema,
        data: Dict[str, TableData],
        stmt: Union[ast.Update, ast.Delete],
        force_scan: bool = False,
    ) -> None:
        table_name = stmt.table
        self.stmt = stmt
        self.table_name = table_name
        table = schema.table(table_name)  # raises CatalogError for unknown tables
        self.layout = ScopeLayout([(table_name, table.column_names())])
        conjuncts = [
            _Conjunct(e, self.layout) for e in _split_conjuncts(stmt.where)
        ]
        source = Source()
        if force_scan:
            self.base = _BaseAccess(table_name, "scan", residual=conjuncts)
        else:
            self.base = _choose_base_access(
                schema, data, table_name, 0, self.layout, conjuncts
            )
            if self.base.kind != "scan":
                self._emit_unwalkable(
                    schema, [(table_name, table_name)], conjuncts, source
                )
        assignments = [
            (a.column, emit_expression(source, a.value, self.layout, "assign"))
            for a in getattr(stmt, "assignments", ())
        ]
        name = self.base.emit(source, self.layout, rowids=True)
        write = _RowWrite(source, "rowids, parameters, table, data, txn", self.layout, table)
        check = write.fn.helper("cancellation_point", cancellation_point)
        write.hoist("record", "txn.record")
        write.hoist("directory", "table.rows.dir")
        if isinstance(stmt, ast.Update):
            body = self._update(schema, table, write, assignments)
        else:
            body = self._delete(schema, table, write)
        write.close([
            "for rowid in rowids:",
            f"    {check}('executor:dml')",
            f"    old = directory[rowid >> {PAGE_BITS}][rowid & {SLOT_MASK}]",
            *_indented(body),
        ])
        namespace = source.build()
        self.unwalkable = namespace.get("unwalkable")
        self._matching: Callable[..., Iterator[int]] = namespace[name]
        #: ``write(rowids, parameters, table, data, txn)``: the statement's
        #: change to each row of ``rowids``, in order.
        self.write: Callable[..., None] = namespace["write"]
        #: The generated Python text of the row selection and the write.
        self.source = source.text

    @staticmethod
    def _update(
        schema: Schema, table: Table, write: _RowWrite,
        assignments: Sequence[Tuple[str, str]],
    ) -> List[str]:
        lines = ["scope = (old,)"]
        assigned: Dict[str, int] = {}  # column -> its (last) assignment
        for number, (name, function) in enumerate(assignments):
            if not table.has_column(name):
                fail = write.named("unknown", partial(
                    CatalogError, f"no column {name!r} in table {table.name!r}"
                ))
                return lines + [f"raise {fail}()"]
            local = f"a{number}"
            lines += [
                f"{local} = {function}(scope, parameters)",
                f"{local} = {write.coerced(table.columns[name], local)}",
            ]
            assigned[name] = number
        codes = [
            f"a{assigned[name]}" if name in assigned else f"old[{position}]"
            for position, name in enumerate(table.columns)
        ]
        changes = ", ".join(f"{name!r}: a{number}" for name, number in assigned.items())
        lines.append(f"changes = {{{changes}}}")
        lines += write.not_null(codes, [table.positions[name] for name in assigned])
        if table.checks:
            lines.append(f"new = {_tuple(codes)}")
            lines += write.row_checks("new")
        for fk in table.foreign_keys:
            if not assigned.keys().isdisjoint(fk.columns):
                lines += write.parent_probe(schema, fk, codes)
        for child, fk in schema.referencing_tables(table.name):
            referenced = tuple(fk.ref_columns or table.primary_key)
            if assigned.keys().isdisjoint(referenced):
                continue
            positions = [table.positions[c] for c in referenced]
            before = [f"old[{position}]" for position in positions]
            after = [codes[position] for position in positions]
            lines.append(f"if {_tuple(before)} != {_tuple(after)}:")
            lines += _indented(write.children_probe(child, fk, before))
        update = write.hoist("update", "table.update")
        return lines + [f"record('u', table, rowid, changes, {update}(rowid, changes))"]

    @staticmethod
    def _delete(schema: Schema, table: Table, write: _RowWrite) -> List[str]:
        lines: List[str] = []
        for child, fk in schema.referencing_tables(table.name):
            referenced = tuple(fk.ref_columns or table.primary_key)
            parts = [f"old[{table.positions[c]}]" for c in referenced]
            lines += write.children_probe(child, fk, parts)
        delete = write.hoist("delete", "table.delete")
        return lines + [f"record('d', table, rowid, None, {delete}(rowid))"]

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


#: The plan class of a SELECT and of an INSERT; UPDATE and DELETE share
#: :class:`CompiledMutation`.
_PLANS = {ast.Select: CompiledSelect, ast.Insert: CompiledInsert}


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
        self, generation: int, shape: Any, stmt: ast.Statement,
        data: Dict[str, TableData], parameters: Optional[Sequence[Any]],
    ) -> Any:
        """The plan for the statement ``stmt``, of shape ``shape`` (the
        statement itself, or :func:`_insert_key` of an INSERT), over the
        table map ``data``, which must belong to ``generation``; with
        the ``parameters`` of an execution, the plan that runs them."""
        key = (generation, shape)
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
                plan = self._compile(generation, stmt, data, self.force_scan)
                try:
                    self._cache[key] = plan
                    if len(self._cache) > _PLAN_CACHE_SIZE:
                        self._cache.popitem(last=False)
                except TypeError:
                    pass
        else:
            self.stats["hits"] += 1
            try:
                self._cache.move_to_end(key)
            except KeyError:
                pass  # concurrently invalidated/evicted; recency is best-effort
        if parameters is not None and plan.unwalkable and plan.unwalkable(parameters):
            if plan.fallback is None:
                plan.fallback = self._compile(generation, stmt, data, True)
            return plan.fallback
        return plan

    def _compile(
        self, generation: int, stmt: ast.Statement, data: Dict[str, TableData],
        force_scan: bool,
    ) -> Any:
        """Build a plan while the live schema is ``generation``'s."""
        with self.lock:
            if generation != self.generation:
                raise StaleSnapshotError("schema changed since the snapshot was taken")
            compiled = _PLANS.get(type(stmt), CompiledMutation)
            return compiled(self.schema, data, stmt, force_scan)

    def cache_entries(self) -> int:
        """Plans (one per statement shape) currently cached."""
        return len(self._cache)

    def plan(
        self,
        stmt: Union[ast.Select, ast.Insert, ast.Update, ast.Delete],
        parameters: Optional[Sequence[Any]] = None,
    ) -> Union[CompiledSelect, CompiledInsert, CompiledMutation]:
        """Build/fetch the plan for the *working* store (the one that runs
        ``parameters``, when given), retrying across a racing DDL (only
        possible for unlocked callers like explain())."""
        shape = _insert_key(stmt) if type(stmt) is ast.Insert else stmt
        while True:
            try:
                return self._cached(self.generation, shape, stmt, self.data, parameters)
            except StaleSnapshotError:
                continue

    def plan_select_at(
        self, stmt: ast.Select, snapshot, parameters: Sequence[Any]
    ) -> CompiledSelect:
        """The plan a snapshot reader executes with ``parameters``:
        costed against the snapshot's tables and cached under the
        snapshot's generation.  In the steady state (no DDL since
        publication) this is the same cache entry the working store uses,
        so readers share the amortization.  Raises :class:`StaleSnapshotError`
        when a DDL has run since the snapshot was published and the plan
        it needs is not built."""
        return self._cached(
            snapshot.generation, stmt, stmt, snapshot.tables, parameters
        )
