"""SQL expression evaluation with three-valued logic.

There is one evaluator.  :func:`compile_expression` compiles a
:mod:`repro.sql.ast` expression into a Python closure over a *tuple-based
scope*: column references are resolved to ``(slot, name)`` pairs against a
:class:`ScopeLayout` at compile time, so evaluation is plain tuple
indexing and dict lookups with no tree walking and no name resolution.
The planner (:mod:`repro.rdb.planner`) compiles every statement
expression once per statement, the catalog compiles CHECK constraints
once per table, and expressions that may not reference columns (INSERT
VALUES, column DEFAULTs) go through :func:`evaluate_constant`, a
compile-and-call over an empty layout.  The value-level helpers below
(:func:`combine_binary`, :func:`combine_unary`) are what the planner's
aggregate path applies to already-computed values.

NULL propagates through comparisons and arithmetic; AND/OR follow Kleene
logic; WHERE accepts a row only when the expression is exactly True.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..errors import DatabaseError
from ..sql import ast

__all__ = [
    "is_true",
    "evaluate_constant",
    "ScopeLayout",
    "compile_expression",
    "combine_binary",
    "combine_unary",
    "AGGREGATE_FUNCTIONS",
]

#: Runtime scope for compiled expressions: one row dict per table binding,
#: positionally indexed by the compile-time :class:`ScopeLayout`.
Rows = Tuple[Mapping[str, Any], ...]
Compiled = Callable[[Rows, Sequence[Any]], Any]


def is_true(value: Any) -> bool:
    """SQL WHERE acceptance: NULL (unknown) is *not* true."""
    return value is True


# ---------------------------------------------------------------------------
# value-level operator semantics
# ---------------------------------------------------------------------------

def _op_eq(left: Any, right: Any) -> Any:
    return _compare_eq(left, right)


def _op_ne(left: Any, right: Any) -> Any:
    return not _compare_eq(left, right)


def _op_lt(left: Any, right: Any) -> Any:
    left, right = _comparable(left, right)
    return left < right


def _op_le(left: Any, right: Any) -> Any:
    left, right = _comparable(left, right)
    return left <= right


def _op_gt(left: Any, right: Any) -> Any:
    left, right = _comparable(left, right)
    return left > right


def _op_ge(left: Any, right: Any) -> Any:
    left, right = _comparable(left, right)
    return left >= right


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


_BINARY_VALUE_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": _op_eq,
    "<>": _op_ne,
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


def combine_binary(op: str, left: Any, right: Any) -> Any:
    """Apply a binary operator to two already-evaluated values."""
    if op == "AND":
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if left is None or right is None:
        return None
    handler = _BINARY_VALUE_OPS.get(op)
    if handler is None:
        raise DatabaseError(f"unknown operator {op!r}")
    return handler(left, right)


def combine_unary(op: str, value: Any) -> Any:
    """Apply a unary operator to an already-evaluated value."""
    if op == "NOT":
        if value is None:
            return None
        return not bool(value)
    if value is None:
        return None
    return -_numeric(value)


def _in_values(value: Any, candidates: Iterable[Any], negated: bool) -> Any:
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif _compare_eq(value, candidate):
            return False if negated else True
    if saw_null:
        return None
    return True if negated else False


def _between_values(value: Any, low: Any, high: Any, negated: bool) -> Any:
    if value is None or low is None or high is None:
        return None
    lo_value, lo_bound = _comparable(value, low)
    hi_value, hi_bound = _comparable(value, high)
    result = lo_bound <= lo_value and hi_value <= hi_bound
    return (not result) if negated else result


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


def _like_values(value: Any, pattern: Any, negated: bool) -> Any:
    if value is None or pattern is None:
        return None
    matched = _like_regex(str(pattern)).fullmatch(str(value)) is not None
    return (not matched) if negated else matched


_SCALAR_FUNCTIONS = {
    "UPPER": lambda args: str(args[0]).upper(),
    "LOWER": lambda args: str(args[0]).lower(),
    "LENGTH": lambda args: len(str(args[0])),
    "ABS": lambda args: abs(args[0]),
    "TRIM": lambda args: str(args[0]).strip(),
    "COALESCE": None,  # special-cased: lazy NULL handling
}

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

class ScopeLayout:
    """Compile-time shape of the runtime scope tuple.

    Maps binding names (table name or alias) to tuple slots and records
    each binding's column names, so column references resolve — and
    unknown/ambiguous names fail — once per statement instead of per row.
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

    def resolve(self, ref: ast.ColumnRef) -> Tuple[int, str]:
        """The (slot, column) a reference denotes."""
        if ref.table is not None:
            slot = self.slots.get(ref.table)
            if slot is None:
                raise DatabaseError(f"unknown table binding {ref.table!r}")
            if ref.name not in self.columns[slot]:
                raise DatabaseError(f"unknown column {ref.table}.{ref.name}")
            return slot, ref.name
        hits = [i for i, cols in enumerate(self.columns) if ref.name in cols]
        if not hits:
            raise DatabaseError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise DatabaseError(f"ambiguous column reference {ref.name!r}")
        return hits[0], ref.name


def compile_expression(expr: ast.Expression, layout: ScopeLayout) -> Compiled:
    """Compile an expression to a closure ``fn(rows, parameters) -> value``.

    ``rows`` is a tuple of row dicts laid out by ``layout``.  Name
    resolution, operator dispatch, and LIKE-pattern compilation happen
    here, once, instead of per row.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda rows, parameters: value
    if isinstance(expr, ast.Null):
        return lambda rows, parameters: None
    if isinstance(expr, ast.ColumnRef):
        slot, name = layout.resolve(expr)
        return lambda rows, parameters: rows[slot][name]
    if isinstance(expr, ast.Parameter):
        index = expr.index

        def parameter(rows: Rows, parameters: Sequence[Any]) -> Any:
            try:
                return parameters[index]
            except IndexError:
                raise DatabaseError(
                    f"missing bind parameter at index {index}"
                ) from None

        return parameter
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, layout)
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expression(expr.operand, layout)
        if expr.op == "NOT":
            def negate(rows: Rows, parameters: Sequence[Any]) -> Any:
                value = operand(rows, parameters)
                if value is None:
                    return None
                return not bool(value)

            return negate

        def minus(rows: Rows, parameters: Sequence[Any]) -> Any:
            value = operand(rows, parameters)
            if value is None:
                return None
            return -_numeric(value)

        return minus
    if isinstance(expr, ast.IsNull):
        operand = compile_expression(expr.operand, layout)
        if expr.negated:
            return lambda rows, parameters: operand(rows, parameters) is not None
        return lambda rows, parameters: operand(rows, parameters) is None
    if isinstance(expr, ast.InList):
        operand = compile_expression(expr.operand, layout)
        items = tuple(compile_expression(i, layout) for i in expr.items)
        negated = expr.negated

        def in_list(rows: Rows, parameters: Sequence[Any]) -> Any:
            value = operand(rows, parameters)
            if value is None:
                return None
            return _in_values(
                value, (item(rows, parameters) for item in items), negated
            )

        return in_list
    if isinstance(expr, ast.Between):
        operand = compile_expression(expr.operand, layout)
        low = compile_expression(expr.low, layout)
        high = compile_expression(expr.high, layout)
        negated = expr.negated
        return lambda rows, parameters: _between_values(
            operand(rows, parameters),
            low(rows, parameters),
            high(rows, parameters),
            negated,
        )
    if isinstance(expr, ast.Like):
        operand = compile_expression(expr.operand, layout)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal):
            regex = _like_regex(str(expr.pattern.value))

            def like_const(rows: Rows, parameters: Sequence[Any]) -> Any:
                value = operand(rows, parameters)
                if value is None:
                    return None
                matched = regex.fullmatch(str(value)) is not None
                return (not matched) if negated else matched

            return like_const
        pattern = compile_expression(expr.pattern, layout)
        return lambda rows, parameters: _like_values(
            operand(rows, parameters), pattern(rows, parameters), negated
        )
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, layout)
    if isinstance(expr, ast.Star):
        raise DatabaseError("'*' is only valid in SELECT lists and COUNT(*)")
    raise DatabaseError(f"cannot evaluate {type(expr).__name__}")


def _compile_binary(expr: ast.BinaryOp, layout: ScopeLayout) -> Compiled:
    op = expr.op
    left = compile_expression(expr.left, layout)
    right = compile_expression(expr.right, layout)
    if op == "AND":
        def kleene_and(rows: Rows, parameters: Sequence[Any]) -> Any:
            lhs = left(rows, parameters)
            if lhs is False:
                return False  # short-circuit: right side never evaluated
            rhs = right(rows, parameters)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True

        return kleene_and
    if op == "OR":
        def kleene_or(rows: Rows, parameters: Sequence[Any]) -> Any:
            lhs = left(rows, parameters)
            if lhs is True:
                return True
            rhs = right(rows, parameters)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False

        return kleene_or
    handler = _BINARY_VALUE_OPS.get(op)
    if handler is None:
        raise DatabaseError(f"unknown operator {op!r}")

    def apply(rows: Rows, parameters: Sequence[Any]) -> Any:
        lhs = left(rows, parameters)
        rhs = right(rows, parameters)
        if lhs is None or rhs is None:
            return None
        return handler(lhs, rhs)

    return apply


def _compile_function(expr: ast.FunctionCall, layout: ScopeLayout) -> Compiled:
    name = expr.name
    if name in AGGREGATE_FUNCTIONS:
        raise DatabaseError(
            f"aggregate {name} not allowed here (only in SELECT/HAVING)"
        )
    if name == "COALESCE":
        args = tuple(compile_expression(a, layout) for a in expr.args)

        def coalesce(rows: Rows, parameters: Sequence[Any]) -> Any:
            for arg in args:
                value = arg(rows, parameters)
                if value is not None:
                    return value
            return None

        return coalesce
    handler = _SCALAR_FUNCTIONS.get(name)
    if handler is None:
        raise DatabaseError(f"unknown function {name}")
    args = tuple(compile_expression(a, layout) for a in expr.args)

    def call(rows: Rows, parameters: Sequence[Any]) -> Any:
        values = [arg(rows, parameters) for arg in args]
        if any(v is None for v in values):
            return None
        return handler(values)

    return call


_NO_COLUMNS = ScopeLayout(())


def evaluate_constant(expr: ast.Expression, parameters: Sequence[Any] = ()) -> Any:
    """Evaluate an expression that must not reference columns (defaults,
    VALUES entries); ``None`` represents SQL NULL."""
    if type(expr) is ast.Literal:
        # Nearly every VALUES entry: building a closure just to unwrap
        # it made bulk loads measurably (~10 %) slower.
        return expr.value
    if type(expr) is ast.Parameter and expr.index < len(parameters):
        # ... and every value of a row the mediator inserts.
        return parameters[expr.index]
    return compile_expression(expr, _NO_COLUMNS)((), parameters)


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------

def _compare_eq(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def _comparable(left: Any, right: Any):
    """Coerce two non-null values to a comparable pair."""
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, bool) and isinstance(right, bool):
        return left, right
    raise DatabaseError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


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
