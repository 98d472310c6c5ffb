"""SQL expression evaluation with three-valued logic, as generated code.

There is one evaluator, and it is an *emitter*: :class:`Function` turns a
:mod:`repro.sql.ast` expression plus a :class:`ScopeLayout` into a Python
expression string, and :class:`Source` collects the functions written
around such strings into one text that is compiled once — per plan
(:mod:`repro.rdb.planner` generates every operator's per-row body, a
grouped SELECT's ``group``, a plan's per-execution ``unwalkable`` check
and every DML row write this way, and puts what it must call as a
function — UPDATE assignments, INSERT VALUES cells that are expressions
— into the same unit with :func:`emit_expression`) or per expression
(:func:`compile_expression`, for a caller with no plan to put it in:
CHECK constraints, a column DEFAULT).  Evaluating a row is then running
straight-line Python: no tree walk, no name resolution, no frame per
AST node.  Operators are applied by generated code and by the ``_op_*``
helpers it calls, nowhere else; so are the aggregates
(:data:`AGGREGATE_FUNCTIONS`), which add by ``+``'s rule and order by
``<``'s.

Every expression has two forms:

* the **value form** (:meth:`Function.value`) computes the SQL value, with
  ``None`` for NULL — comparisons and arithmetic propagate NULL, ``AND`` /
  ``OR`` follow Kleene logic, ``x BETWEEN lo AND hi`` is ``x >= lo AND
  x <= hi`` with ``x`` evaluated once;
* the **truth form** (:meth:`Function.truth`) is truthy exactly when the
  SQL value is TRUE, which is all WHERE / ON / HAVING acceptance asks —
  it lets ``col = ?`` be ``(t1 := r0[2]) is not None and p0 is not
  None and t1 == p0`` instead of a three-valued result tested afterwards.
  It never skips an operand the value form would evaluate, so the two
  forms raise the same errors.

What generated source may contain: the text of this module's templates,
the names ``r<slot>`` (the row tuple of a scope slot, read by column
position: ``r0[2]``), ``p<index>`` (a
bind parameter, hoisted into a local before any loop), ``k<index>`` and
helper names (entries of the unit's constants tuple ``K``, hoisted the
same way), ``t<n>`` (temporaries), the names of :class:`Local` nodes
(values the surrounding code has bound, such as a group's aggregates),
and catalog names through ``repr()``.
Literal values, compiled LIKE patterns and helper functions reach the
code only as entries of ``K`` — no request value or identifier is ever
spliced into source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import DatabaseError
from ..sql import ast
from .types import Row

__all__ = [
    "evaluate_constant",
    "ScopeLayout",
    "Source",
    "Local",
    "emit_expression",
    "compile_expression",
    "AGGREGATE_FUNCTIONS",
]

#: A compiled expression: called with the runtime scope — one row per
#: table binding, in the slots of its :class:`ScopeLayout` — and the
#: statement's parameters.
Compiled = Callable[[Tuple[Row, ...], Sequence[Any]], Any]


# ---------------------------------------------------------------------------
# value-level operator semantics (operands are never NULL here)
# ---------------------------------------------------------------------------

def _incomparable(left: Any, right: Any) -> DatabaseError:
    return DatabaseError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


# Ordered comparison is Python's own between two numbers (bool included)
# or two strings — the only pairs it accepts among the types a column can
# hold — and a DatabaseError for anything else.  Equality is Python's
# ``==`` / ``!=``, written into the code directly: exact between int and
# float (1 = 1.0, but 2**53 <> 2**53 + 1), False across types.

def _op_lt(left: Any, right: Any) -> Any:
    try:
        return left < right
    except TypeError:
        raise _incomparable(left, right) from None


def _op_le(left: Any, right: Any) -> Any:
    try:
        return left <= right
    except TypeError:
        raise _incomparable(left, right) from None


def _op_gt(left: Any, right: Any) -> Any:
    try:
        return left > right
    except TypeError:
        raise _incomparable(left, right) from None


def _op_ge(left: Any, right: Any) -> Any:
    try:
        return left >= right
    except TypeError:
        raise _incomparable(left, right) from None


def _op_concat(left: Any, right: Any) -> Any:
    return f"{_stringify(left)}{_stringify(right)}"


def _op_add(left: Any, right: Any) -> Any:
    return _numeric(left) + _numeric(right)


def _op_sub(left: Any, right: Any) -> Any:
    return _numeric(left) - _numeric(right)


def _op_mul(left: Any, right: Any) -> Any:
    return _numeric(left) * _numeric(right)


def _op_div(left: Any, right: Any) -> Any:
    left_num = _numeric(left)
    right_num = _numeric(right)
    if right_num == 0:
        return None  # SQL engines commonly yield NULL/error; NULL is safer
    if isinstance(left_num, int) and isinstance(right_num, int):
        return left_num // right_num
    return left_num / right_num


def _op_mod(left: Any, right: Any) -> Any:
    left_num = _numeric(left)
    right_num = _numeric(right)
    if right_num == 0:
        return None
    return left_num % right_num


def _op_neg(value: Any) -> Any:
    return -_numeric(value)


#: The operators generated code calls a helper for (``=`` and ``<>`` it
#: writes as Python's own).
_BINARY_VALUE_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "<": _op_lt,
    "<=": _op_le,
    ">": _op_gt,
    ">=": _op_ge,
    "||": _op_concat,
    "+": _op_add,
    "-": _op_sub,
    "*": _op_mul,
    "/": _op_div,
    "%": _op_mod,
}

#: Comparisons the emitter writes as the Python operator itself.
_PYTHON_COMPARISON = {
    "=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex_parts = []
    for ch in pattern:
        if ch == "%":
            regex_parts.append(".*")
        elif ch == "_":
            regex_parts.append(".")
        else:
            regex_parts.append(re.escape(ch))
    return re.compile("".join(regex_parts), re.DOTALL)


def _like(value: Any, pattern: Any) -> bool:
    """LIKE against a pattern computed per row (both non-NULL)."""
    return _like_regex(str(pattern)).fullmatch(str(value)) is not None


#: Scalar functions of one non-NULL argument, as templates over builtins
#: (a NULL argument yields NULL before the template is reached).
_SCALAR_FUNCTIONS = {
    "UPPER": "str({0}).upper()",
    "LOWER": "str({0}).lower()",
    "LENGTH": "len(str({0}))",
    "ABS": "abs({0})",
    "TRIM": "str({0}).strip()",
}

def _sum(values: List[Any]) -> Any:
    return sum(map(_numeric, values)) if values else None


def _avg(values: List[Any]) -> Any:
    return sum(map(_numeric, values)) / len(values) if values else None


def _extreme(before: Callable[[Any, Any], Any], values: List[Any]) -> Any:
    """The first value no later one comes ``before``: MIN with ``<``'s
    rule, MAX with ``>``'s (the comparisons Python's ``min`` / ``max``
    make, and the error the operator raises across classes)."""
    best = None
    for value in values:
        if best is None or before(value, best):
            best = value
    return best


#: What each aggregate makes of its argument's non-NULL values (of the
#: group's rows, for ``COUNT(*)``): COUNT answers 0 for none of them, the
#: others NULL.
AGGREGATE_FUNCTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "COUNT": len,
    "SUM": _sum,
    "AVG": _avg,
    "MIN": partial(_extreme, _op_lt),
    "MAX": partial(_extreme, _op_gt),
}


def _parameter(parameters: Sequence[Any], index: int) -> Any:
    """The parameter hoist of every generated function."""
    try:
        return parameters[index]
    except IndexError:
        raise DatabaseError(f"missing bind parameter at index {index}") from None


# ---------------------------------------------------------------------------
# scope layout
# ---------------------------------------------------------------------------

class ScopeLayout:
    """Compile-time shape of the runtime scope tuple.

    Maps binding names (table name or alias) to tuple slots and records
    each binding's column names in row order, so a column reference
    resolves to a (slot, position) pair — and unknown/ambiguous names
    fail — once per statement instead of per row.
    """

    __slots__ = ("slots", "columns")

    def __init__(self, bindings: Iterable[Tuple[str, Sequence[str]]]) -> None:
        self.slots: Dict[str, int] = {}
        self.columns: List[Tuple[str, ...]] = []
        for name, cols in bindings:
            if name in self.slots:
                raise DatabaseError(f"duplicate table binding {name!r}")
            self.slots[name] = len(self.columns)
            self.columns.append(tuple(cols))

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, ref: ast.ColumnRef) -> Tuple[int, int]:
        """The (slot, column position) a reference denotes."""
        if ref.table is not None:
            slot = self.slots.get(ref.table)
            if slot is None:
                raise DatabaseError(f"unknown table binding {ref.table!r}")
            if ref.name not in self.columns[slot]:
                raise DatabaseError(f"unknown column {ref.table}.{ref.name}")
            return slot, self.columns[slot].index(ref.name)
        hits = [i for i, cols in enumerate(self.columns) if ref.name in cols]
        if not hits:
            raise DatabaseError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise DatabaseError(f"ambiguous column reference {ref.name!r}")
        return hits[0], self.columns[hits[0]].index(ref.name)


# ---------------------------------------------------------------------------
# the emitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Local(ast.Expression):
    """A value the code around the expression has bound to ``name`` (a
    group's aggregate): it reads as the bare name and cannot raise."""

    name: str


@dataclass(frozen=True)
class _Once(ast.Expression):
    """An operand written once and read by two comparisons (BETWEEN):
    the first emission binds ``name``, later ones read it."""

    operand: ast.Expression
    name: str


class _SourceLoader:
    """What ``linecache`` asks for the text behind a generated frame
    (it looks up ``__loader__`` in the frame's globals), so a traceback
    shows the generated line.  Lives in the functions' globals and
    nowhere else: the text dies with the plan that owns the functions."""

    def __init__(self, text: str) -> None:
        self.text = text

    def get_source(self, name: str) -> str:
        return self.text


class Source:
    """One unit of generated code: the text of its functions and the
    constants tuple ``K`` they index.  Write functions through
    :meth:`function`, then :meth:`build` once."""

    def __init__(self) -> None:
        self.constants: List[Any] = []
        self.text = ""
        self._blocks: List[str] = []
        self._helpers: Dict[str, int] = {}

    def function(
        self, name: str, arguments: str, layout: ScopeLayout
    ) -> "Function":
        """Start ``def <name>(<arguments>)``; names must be unique within
        the unit and ``arguments`` must include ``parameters`` when the
        body evaluates expressions."""
        return Function(self, name, arguments, layout)

    def build(self) -> Dict[str, Any]:
        """Compile the unit; the returned namespace (the functions'
        globals) maps each function name to its function."""
        self.text = "\n\n".join(self._blocks) + "\n"
        namespace = {
            "__name__": "repro.rdb.generated",
            "__loader__": _SourceLoader(self.text),
            "K": tuple(self.constants),
        }
        # The file name carries the text's hash: equal names mean equal
        # text, whatever linecache remembers after printing a traceback.
        name = f"generated-plan-{hash(self.text) & 0xFFFFFFFFFFFFFFFF:016x}.py"
        code = compile(self.text, name, "exec", dont_inherit=True)
        exec(code, namespace)
        return namespace


class Function:
    """One generated function under construction: emits expression code
    and records which parameters and constants that code names, so
    :meth:`close` can hoist exactly those into locals."""

    def __init__(
        self, source: Source, name: str, arguments: str, layout: ScopeLayout
    ) -> None:
        self.source = source
        self.name = name
        self.arguments = arguments
        self.layout = layout
        self._hoisted: Dict[str, str] = {}  # local name -> initialiser
        self._temps = 0
        self._bound: Set[str] = set()  # _Once names already assigned

    # -- names --------------------------------------------------------------

    def constant(self, value: Any) -> str:
        """The local that holds ``value`` (a new entry of ``K``)."""
        constants = self.source.constants
        constants.append(value)
        name = f"k{len(constants) - 1}"
        self._hoisted[name] = f"K[{len(constants) - 1}]"
        return name

    def helper(self, name: str, value: Any) -> str:
        """The local ``name`` holding a helper object — one entry of
        ``K`` per name and unit.  ``name`` is ours, never request text."""
        index = self.source._helpers.get(name)
        if index is None:
            index = len(self.source.constants)
            self.source.constants.append(value)
            self.source._helpers[name] = index
        self._hoisted[name] = f"K[{index}]"
        return name

    def parameter(self, index: int) -> str:
        name = f"p{index}"
        if name not in self._hoisted:
            hoist = self.helper("parameter", _parameter)
            self._hoisted[name] = f"{hoist}(parameters, {index})"
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def close(self, body: Sequence[str]) -> str:
        """Write the function (hoists, then ``body`` lines, indented one
        level here) into the unit; returns its name."""
        lines = [f"def {self.name}({self.arguments}):"]
        lines.extend(
            f"    {name} = {init}" for name, init in self._hoisted.items()
        )
        lines.extend(f"    {line}" for line in body)
        self.source._blocks.append("\n".join(lines))
        return self.name

    # -- operands -----------------------------------------------------------

    def _operand(self, expr: ast.Expression) -> Tuple[str, str]:
        """An operand that is used more than once: (code for its first,
        evaluating use; code for every later use)."""
        if isinstance(expr, _Once):
            if expr.name in self._bound:
                return expr.name, expr.name
            self._bound.add(expr.name)
            return f"({expr.name} := {self.value(expr.operand)})", expr.name
        code = self.value(expr)
        if _is_atom(expr):
            return code, code
        name = self.temp()
        return f"({name} := {code})", name

    @staticmethod
    def _any_null(*operands: Tuple[ast.Expression, str]) -> str:
        """``(<first use> is None) | ...`` over the operands that can be
        NULL: every operand is evaluated before any is tested (``|``,
        not ``or``), as a later one may raise."""
        return ") | (".join(
            f"{first} is None"
            for expr, first in operands
            if not isinstance(expr, ast.Literal)
        )

    # -- value form ---------------------------------------------------------

    def value(self, expr: ast.Expression) -> str:
        """Python expression computing the SQL value (None for NULL)."""
        if isinstance(expr, ast.Literal):
            return self.constant(expr.value)
        if isinstance(expr, ast.Null):
            return "None"
        if isinstance(expr, ast.ColumnRef):
            slot, position = self.layout.resolve(expr)
            return f"r{slot}[{position}]"
        if isinstance(expr, ast.Parameter):
            return self.parameter(expr.index)
        if isinstance(expr, Local):
            return expr.name
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "AND":
                return self._kleene(
                    "False", self.value(expr.left), self.value(expr.right), "True"
                )
            if expr.op == "OR":
                return self._kleene(
                    "True", self.value(expr.left), self.value(expr.right), "False"
                )
            return self._binary_value(expr)
        if isinstance(expr, ast.UnaryOp):
            first, later = self._operand(expr.operand)
            if expr.op == "NOT":
                return f"(None if {first} is None else not {later})"
            negate = self.helper("negate", _op_neg)
            return f"(None if {first} is None else {negate}({later}))"
        if isinstance(expr, ast.IsNull):
            test = "is not None" if expr.negated else "is None"
            return f"({self.value(expr.operand)} {test})"
        if isinstance(expr, ast.InList):
            return self._in_list(expr, truth=False)
        if isinstance(expr, ast.Between):
            return self.value(self._between(expr))
        if isinstance(expr, ast.Like):
            return self._like(expr, truth=False)
        if isinstance(expr, ast.FunctionCall):
            return self._function(expr)
        if isinstance(expr, ast.Star):
            raise DatabaseError("'*' is only valid in SELECT lists and COUNT(*)")
        raise DatabaseError(f"cannot evaluate {type(expr).__name__}")

    def _kleene(self, decided: str, left: str, right: str, other: str) -> str:
        """``AND`` (``decided`` = False) / ``OR`` (True) over two value
        forms: the deciding value short-circuits, NULL does not."""
        a, b = self.temp(), self.temp()
        return (
            f"({decided} if ({a} := {left}) is {decided} else "
            f"({decided} if ({b} := {right}) is {decided} else "
            f"(None if {a} is None or {b} is None else {other})))"
        )

    def _binary_value(self, expr: ast.BinaryOp) -> str:
        """NULL if either operand is, else the operator applied."""
        if expr.op not in _BINARY_VALUE_OPS and expr.op not in _PYTHON_COMPARISON:
            raise DatabaseError(f"unknown operator {expr.op!r}")
        left, right = self._operand(expr.left), self._operand(expr.right)
        applied = self._apply(expr.op, left[1], right[1])
        tests = self._any_null((expr.left, left[0]), (expr.right, right[0]))
        if not tests:
            return applied
        return f"(None if ({tests}) else {applied})"

    def _apply(self, op: str, left: str, right: str) -> str:
        """The operator over two non-NULL operands held in names."""
        if op in ("=", "<>"):
            return f"({left} {_PYTHON_COMPARISON[op]} {right})"
        handler = self.helper(_BINARY_VALUE_OPS[op].__name__, _BINARY_VALUE_OPS[op])
        if op in _PYTHON_COMPARISON:
            # Same class: Python's operator answers directly (int, float,
            # bool and str all order within themselves).  Otherwise the
            # helper, which also owns the "cannot compare" error.
            return (
                f"({left} {_PYTHON_COMPARISON[op]} {right} "
                f"if {left}.__class__ is {right}.__class__ "
                f"else {handler}({left}, {right}))"
            )
        return f"{handler}({left}, {right})"

    def _in_list(self, expr: ast.InList, truth: bool) -> str:
        """Items are evaluated in order and only until one matches."""
        first, later = self._operand(expr.operand)
        items = [self._operand(item) for item in expr.items]
        matched = " or ".join(f"{later} == {item[0]}" for item in items) or "False"
        if truth:
            return f"({first} is not None and ({matched}))"
        hit, miss = ("False", "True") if expr.negated else ("True", "False")
        nulls = " or ".join(
            f"{item[1]} is None"
            for node, item in zip(expr.items, items)
            if not isinstance(node, ast.Literal)
        )
        unmatched = f"(None if {nulls} else {miss})" if nulls else miss
        return (
            f"(None if {first} is None else "
            f"({hit} if {matched} else {unmatched}))"
        )

    def _between(self, expr: ast.Between) -> ast.Expression:
        """``x >= lo AND x <= hi`` under Kleene AND — which is what
        BETWEEN means, NULL bounds included — with ``x`` evaluated once.
        The first comparison is always evaluated, so it binds ``x``."""
        operand = expr.operand
        if not _is_atom(operand):
            operand = _Once(operand, self.temp())
        inside: ast.Expression = ast.BinaryOp(
            "AND",
            ast.BinaryOp(">=", operand, expr.low),
            ast.BinaryOp("<=", operand, expr.high),
        )
        return ast.UnaryOp("NOT", inside) if expr.negated else inside

    def _like(self, expr: ast.Like, truth: bool) -> str:
        first, later = self._operand(expr.operand)
        if isinstance(expr.pattern, ast.Literal):
            # the pattern is part of the statement shape: compile it now
            match = self.constant(_like_regex(str(expr.pattern.value)).fullmatch)
            outcome = "is None" if expr.negated else "is not None"
            matched = f"{match}(str({later})) {outcome}"
            if truth:
                return f"({first} is not None and {matched})"
            return f"(None if {first} is None else {matched})"
        pattern = self._operand(expr.pattern)
        like = self.helper("like", _like)
        matched = f"{like}({later}, {pattern[1]})"
        if expr.negated:
            matched = f"not {matched}"
        tests = self._any_null((expr.operand, first), (expr.pattern, pattern[0]))
        return f"(None if ({tests}) else {matched})"

    def _function(self, expr: ast.FunctionCall) -> str:
        name = expr.name
        if name in AGGREGATE_FUNCTIONS:
            raise DatabaseError(
                f"aggregate {name} not allowed here (only in SELECT/HAVING)"
            )
        if name == "COALESCE":
            code = "None"
            for arg in reversed(expr.args):
                first, later = self._operand(arg)
                code = f"({later} if {first} is not None else {code})"
            return code
        template = _SCALAR_FUNCTIONS.get(name)
        if template is None:
            raise DatabaseError(f"unknown function {name}")
        if len(expr.args) != 1:
            raise DatabaseError(f"{name} takes exactly one argument")
        first, later = self._operand(expr.args[0])
        if name == "ABS":  # of a number, by the rule unary ``-`` follows
            later = f"{self.helper('numeric', _numeric)}({later})"
        return f"(None if {first} is None else {template.format(later)})"

    # -- truth form ---------------------------------------------------------

    def truth(self, expr: ast.Expression) -> str:
        """Python expression that is truthy iff the SQL value is TRUE.

        A shape gets its own, cheaper code only where that code evaluates
        exactly the operands the value form would (so both raise alike);
        everything else is ``<value form> is True``.
        """
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "OR":
                return f"({self.truth(expr.left)} or {self.truth(expr.right)})"
            if expr.op == "AND" and _is_boolean(expr.left) and _is_boolean(expr.right):
                # FALSE on the left skips the right side, NULL does not
                name = self.temp()
                return (
                    f"(({name} := {self.value(expr.left)}) is not False "
                    f"and {self.truth(expr.right)} and {name} is True)"
                )
            if expr.op in _PYTHON_COMPARISON:
                # NULL on one side skips the other: sound only when the
                # skipped side cannot raise, so the plain side goes last.
                if not (_is_plain(expr.left) or _is_plain(expr.right)):
                    return f"({self.value(expr)} is True)"
                left, right = self._operand(expr.left), self._operand(expr.right)
                order = [(expr.left, left), (expr.right, right)]
                if not _is_plain(expr.right):
                    order.reverse()
                tests = " and ".join(
                    f"{codes[0]} is not None"
                    for node, codes in order
                    if not isinstance(node, ast.Literal)
                )
                applied = self._apply(expr.op, left[1], right[1])
                return f"({tests} and {applied})" if tests else applied
        if isinstance(expr, ast.IsNull):
            return self.value(expr)
        if isinstance(expr, ast.Between) and not expr.negated:
            return self.truth(self._between(expr))
        if isinstance(expr, ast.InList) and not expr.negated:
            if all(_is_plain(item) for item in expr.items):
                return self._in_list(expr, truth=True)
        if isinstance(expr, ast.Like) and isinstance(expr.pattern, ast.Literal):
            return self._like(expr, truth=True)
        return f"({self.value(expr)} is True)"


def _is_atom(expr: ast.Expression) -> bool:
    """Operands whose code is a bare name: repeating it re-evaluates
    nothing."""
    return isinstance(expr, (ast.Literal, ast.Null, ast.Parameter, Local))


def _is_boolean(expr: ast.Expression) -> bool:
    """Expressions whose value is TRUE, FALSE or NULL whatever their
    operands hold (``5 AND 3`` is TRUE: only such operands let "is TRUE"
    stand in for "is neither FALSE nor NULL")."""
    if isinstance(expr, ast.BinaryOp):
        return expr.op in _PYTHON_COMPARISON or expr.op in ("AND", "OR")
    if isinstance(expr, ast.UnaryOp):
        return expr.op == "NOT"
    return isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.Like))


def _is_plain(expr: ast.Expression) -> bool:
    """Operands whose evaluation cannot raise (parameters are hoisted
    before any row is read)."""
    if isinstance(expr, _Once):
        expr = expr.operand
    return _is_atom(expr) or isinstance(expr, ast.ColumnRef)


def emit_expression(
    source: Source, expr: ast.Expression, layout: ScopeLayout, prefix: str
) -> str:
    """Write ``def <prefix><n>(rows, parameters)`` returning the value of
    ``expr`` into ``source`` — how a plan keeps the expressions it calls
    per row (UPDATE assignments, INSERT VALUES cells) in its one unit;
    returns the name.

    ``rows`` is a tuple of row tuples laid out by ``layout``; only the
    slots the expression reads are touched.
    """
    function = source.function(
        f"{prefix}{len(source._blocks)}", "rows, parameters", layout
    )
    code = function.value(expr)
    body = [
        f"r{slot} = rows[{slot}]"
        for slot in sorted(referenced_slots(expr, layout))
    ]
    return function.close(body + [f"return {code}"])


def compile_expression(expr: ast.Expression, layout: ScopeLayout) -> Compiled:
    """Compile an expression to ``fn(rows, parameters) -> value``, one
    Python frame per call, as a unit of its own (CHECK constraints and
    whoever else has no plan to put it in).  Name resolution, operator
    selection and LIKE-pattern compilation happen here, once.
    """
    source = Source()
    name = emit_expression(source, expr, layout, "expression")
    return source.build()[name]


def referenced_slots(
    expr: ast.Expression, layout: ScopeLayout, slots: Optional[Set[int]] = None
) -> Set[int]:
    """All scope slots an expression reads (resolving names eagerly);
    ``slots`` is the set being filled when the walk calls itself."""
    if slots is None:
        slots = set()
    walk = referenced_slots
    if isinstance(expr, ast.ColumnRef):
        slots.add(layout.resolve(expr)[0])
    elif isinstance(expr, ast.BinaryOp):
        walk(expr.left, layout, slots)
        walk(expr.right, layout, slots)
    elif isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        walk(expr.operand, layout, slots)
    elif isinstance(expr, ast.InList):
        walk(expr.operand, layout, slots)
        for item in expr.items:
            walk(item, layout, slots)
    elif isinstance(expr, ast.Between):
        walk(expr.operand, layout, slots)
        walk(expr.low, layout, slots)
        walk(expr.high, layout, slots)
    elif isinstance(expr, ast.Like):
        walk(expr.operand, layout, slots)
        walk(expr.pattern, layout, slots)
    elif isinstance(expr, ast.FunctionCall):
        for arg in expr.args:
            walk(arg, layout, slots)
    return slots


#: The layout of an expression that may reference no column.
_NO_COLUMNS = ScopeLayout(())


def evaluate_constant(expr: ast.Expression, parameters: Sequence[Any] = ()) -> Any:
    """Evaluate an expression that must not reference columns (a column
    DEFAULT at CREATE TABLE), a ``compile()`` per call; ``None``
    represents SQL NULL."""
    return compile_expression(expr, _NO_COLUMNS)((), parameters)


# ---------------------------------------------------------------------------
# coercion helpers
# ---------------------------------------------------------------------------

def _numeric(value: Any):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                pass
    raise DatabaseError(f"expected a numeric value, got {value!r}")


def _stringify(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
