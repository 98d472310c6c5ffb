"""The emitter against a reference interpreter.

:mod:`repro.rdb.expressions` turns an expression into Python source; the
planner pastes that source into every operator.  This module checks the
source against a tree-walking interpreter written here, independently,
from the SQL rules alone: a seeded generator draws expression trees over
every node kind and evaluates them over rows holding NULLs, ints (some
beyond 2**53), floats, bools and strings, with ``None`` among the
parameters.  For every tree

* the **value form** returns what the interpreter returns, or raises the
  same error (type and message);
* the **truth form** is truthy exactly when that value is ``True``, and
  raises exactly when the value form does;
* :func:`evaluate_constant` — which answers operators over constants
  itself instead of generating code per INSERT cell — agrees on the same
  tree with the row's values written in as literals.
"""

import dataclasses
import operator
import random
import re

import pytest

from repro.errors import DatabaseError
from repro.rdb.expressions import (
    ScopeLayout,
    Source,
    compile_expression,
    evaluate_constant,
)
from repro.sql import ast

TREES = 2500

LAYOUT = ScopeLayout([("t", ("a", "b", "c")), ("u", ("x", "y"))])
VALUES = [
    None, None, 0, 1, -3, 7, 2**53, 2**53 + 1, 1.0, 2.5, -0.5, float(2**53),
    True, False, "", "abc", "Abc", "a.c", "7", "x y", "%", "a_c",
]
PATTERNS = ["abc", "a%", "%c", "a_c", "a.c", "%", "", "A%", "_", "x\\y", "a'\"]%"]
COMPARISONS = ["=", "<>", "<", "<=", ">", ">="]
ARITHMETIC = ["+", "-", "*", "/", "%"]
FUNCTIONS = ["UPPER", "LOWER", "LENGTH", "ABS", "TRIM"]


# ---------------------------------------------------------------------------
# the reference interpreter
# ---------------------------------------------------------------------------

_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_MATH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _number(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        for convert in (int, float):
            try:
                return convert(value)
            except ValueError:
                pass
    raise DatabaseError(f"expected a numeric value, got {value!r}")


def _text(value):
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def _like(value, pattern):
    parts = [".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
             for ch in str(pattern)]
    return re.fullmatch("".join(parts), str(value), re.DOTALL) is not None


def _binary(op, left, right):
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op in _ORDER:
        numbers = isinstance(left, (int, float)) and isinstance(right, (int, float))
        if not numbers and not (isinstance(left, str) and isinstance(right, str)):
            raise DatabaseError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            )
        return _ORDER[op](left, right)
    if op == "||":
        return _text(left) + _text(right)
    left, right = _number(left), _number(right)
    if op in _MATH:
        return _MATH[op](left, right)
    if right == 0:
        return None
    if op == "%":
        return left % right
    both_int = isinstance(left, int) and isinstance(right, int)
    return left // right if both_int else left / right


def _kleene(decided, left, right):
    """AND (decided=False) / OR (decided=True); ``right`` is a thunk."""
    if left is decided:
        return decided
    right = right()
    if right is decided:
        return decided
    return None if left is None or right is None else not decided


def reference(expr, rows, parameters):
    def ev(node):
        return reference(node, rows, parameters)

    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Null):
        return None
    if isinstance(expr, ast.ColumnRef):
        return rows[LAYOUT.slots[expr.table]][expr.name]
    if isinstance(expr, ast.Parameter):
        return parameters[expr.index]
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR"):
            return _kleene(expr.op == "OR", ev(expr.left), lambda: ev(expr.right))
        return _binary(expr.op, ev(expr.left), ev(expr.right))
    if isinstance(expr, ast.UnaryOp):
        value = ev(expr.operand)
        if value is None:
            return None
        return (not value) if expr.op == "NOT" else -_number(value)
    if isinstance(expr, ast.IsNull):
        return (ev(expr.operand) is None) != expr.negated
    if isinstance(expr, ast.InList):
        value, saw_null = ev(expr.operand), False
        if value is None:
            return None
        for item in expr.items:
            candidate = ev(item)
            if candidate is None:
                saw_null = True
            elif value == candidate:
                return not expr.negated
        return None if saw_null else expr.negated
    if isinstance(expr, ast.Between):
        value = ev(expr.operand)
        inside = _kleene(
            False,
            _binary(">=", value, ev(expr.low)),
            lambda: _binary("<=", value, ev(expr.high)),
        )
        return inside if inside is None or not expr.negated else not inside
    if isinstance(expr, ast.Like):
        value, pattern = ev(expr.operand), ev(expr.pattern)
        if value is None or pattern is None:
            return None
        return _like(value, pattern) != expr.negated
    assert isinstance(expr, ast.FunctionCall)
    if expr.name == "COALESCE":
        for arg in expr.args:
            value = ev(arg)
            if value is not None:
                return value
        return None
    (value,) = [ev(arg) for arg in expr.args]
    if value is None:
        return None
    return {
        "UPPER": lambda v: str(v).upper(),
        "LOWER": lambda v: str(v).lower(),
        "LENGTH": lambda v: len(str(v)),
        "ABS": lambda v: abs(_number(v)),
        "TRIM": lambda v: str(v).strip(),
    }[expr.name](value)


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

def _leaf(rng, parameters):
    roll = rng.random()
    if roll < 0.4:
        table = rng.choice(["t", "u"])
        return ast.ColumnRef(rng.choice(LAYOUT.columns[LAYOUT.slots[table]]), table)
    if roll < 0.6:
        return ast.Parameter(rng.randrange(len(parameters)))
    if roll < 0.67:
        return ast.Null()
    return ast.Literal(rng.choice([v for v in VALUES if v is not None]))


def _tree(rng, depth, parameters):
    def sub():
        return _tree(rng, depth - 1, parameters)

    if depth == 0 or rng.random() < 0.15:
        return _leaf(rng, parameters)
    roll = rng.random()
    negated = rng.random() < 0.5
    if roll < 0.22:
        return ast.BinaryOp(rng.choice(COMPARISONS), sub(), sub())
    if roll < 0.34:
        return ast.BinaryOp(rng.choice(ARITHMETIC), sub(), sub())
    if roll < 0.39:
        return ast.BinaryOp("||", sub(), sub())
    if roll < 0.53:
        return ast.BinaryOp(rng.choice(["AND", "OR"]), sub(), sub())
    if roll < 0.60:
        return ast.UnaryOp(rng.choice(["NOT", "-"]), sub())
    if roll < 0.67:
        return ast.IsNull(sub(), negated)
    if roll < 0.75:
        items = tuple(sub() for _ in range(rng.randint(1, 4)))
        return ast.InList(sub(), items, negated)
    if roll < 0.83:
        return ast.Between(sub(), sub(), sub(), negated)
    if roll < 0.91:
        constant = rng.random() < 0.6
        pattern = ast.Literal(rng.choice(PATTERNS)) if constant else sub()
        return ast.Like(sub(), pattern, negated)
    if roll < 0.95:
        return ast.FunctionCall(
            "COALESCE", tuple(sub() for _ in range(rng.randint(1, 3)))
        )
    return ast.FunctionCall(rng.choice(FUNCTIONS), (sub(),))


def _kinds(expr, seen):
    """Record (node kind, variant) for ``expr`` and everything below it;
    the variant is the operator / function name, or the polarity."""
    if isinstance(expr, (ast.BinaryOp, ast.UnaryOp)):
        variant = expr.op
    elif isinstance(expr, ast.FunctionCall):
        variant = expr.name
    else:
        variant = getattr(expr, "negated", None)
    seen.add((type(expr).__name__, variant))
    for field in getattr(expr, "__dataclass_fields__", ()):
        child = getattr(expr, field)
        for node in child if isinstance(child, tuple) else (child,):
            if isinstance(node, ast.Expression):
                _kinds(node, seen)


def _inlined(expr, rows):
    """``expr`` with every column reference replaced by its value."""
    if isinstance(expr, ast.ColumnRef):
        value = rows[LAYOUT.slots[expr.table]][expr.name]
        return ast.Null() if value is None else ast.Literal(value)
    changes = {}
    for field in getattr(expr, "__dataclass_fields__", ()):
        child = getattr(expr, field)
        if isinstance(child, tuple):
            changes[field] = tuple(_inlined(node, rows) for node in child)
        elif isinstance(child, ast.Expression):
            changes[field] = _inlined(child, rows)
    return dataclasses.replace(expr, **changes) if changes else expr


def _compile_truth(expr):
    source = Source()
    function = source.function("accepts", "rows, parameters", LAYOUT)
    code = function.truth(expr)
    name = function.close(["r0, r1 = rows", f"return {code}"])
    return source.build()[name], source.text


def _stored(rows):
    """The reference's rows (column -> value, in layout order) as the
    generated code reads them: tuples by column position."""
    return tuple(tuple(row.values()) for row in rows)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # compared, never swallowed: type and message
        return ("error", type(exc), str(exc))


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def test_emitted_forms_match_the_reference_interpreter():
    rng = random.Random(20100322)
    seen = set()
    errors = 0
    for number in range(TREES):
        parameters = [rng.choice(VALUES) for _ in range(3)]
        rows = tuple(
            {column: rng.choice(VALUES) for column in columns}
            for columns in LAYOUT.columns
        )
        expr = _tree(rng, rng.randint(1, 4), parameters)
        _kinds(expr, seen)

        stored = _stored(rows)
        expected = _outcome(reference, expr, rows, parameters)
        value = _outcome(compile_expression(expr, LAYOUT), stored, parameters)
        accepts, text = _compile_truth(expr)
        truth = _outcome(accepts, stored, parameters)
        constant = _outcome(evaluate_constant, _inlined(expr, rows), parameters)
        context = f"tree {number}: {expr}\nrows={rows} parameters={parameters}\n{text}"

        assert value == expected, context
        assert constant == expected, context
        if expected[0] == "value":
            # `is`, not `==`: 1 = TRUE in Python, but 1 is not TRUE in SQL
            assert value[1] is expected[1] or value[1] == expected[1], context
            assert type(value[1]) is type(expected[1]), context
            assert type(constant[1]) is type(expected[1]), context
            assert truth[0] == "value", context
            assert bool(truth[1]) == (expected[1] is True), context
        else:
            errors += 1
            assert truth == expected, context

    # the corpus reached every node kind, both polarities, and errors
    names = {kind for kind, _ in seen}
    assert names == {
        "Literal", "Null", "ColumnRef", "Parameter", "BinaryOp", "UnaryOp",
        "IsNull", "InList", "Between", "Like", "FunctionCall",
    }
    assert {op for kind, op in seen if kind == "BinaryOp"} == {
        *COMPARISONS, *ARITHMETIC, "||", "AND", "OR",
    }
    assert {op for kind, op in seen if kind == "UnaryOp"} == {"NOT", "-"}
    assert {op for kind, op in seen if kind == "FunctionCall"} == {
        *FUNCTIONS, "COALESCE",
    }
    for kind in ("IsNull", "InList", "Between", "Like"):
        assert {(kind, True), (kind, False)} <= seen
    assert 50 < errors < TREES // 2


@pytest.mark.parametrize(
    "value, low, high, negated, expected",
    [
        # x BETWEEN lo AND hi is x >= lo AND x <= hi under Kleene AND: a
        # NULL bound leaves the other comparison to decide
        (3, None, 2, False, False),
        (3, None, 2, True, True),
        (0, 1, None, False, False),
        (0, 1, None, True, True),
        (1, None, 2, False, None),
        (1, None, 2, True, None),
        (2, 1, None, False, None),
        (2, 1, None, True, None),
        (1, None, None, False, None),
        (1, None, None, True, None),
    ],
)
def test_between_with_a_null_bound(value, low, high, negated, expected):
    expr = ast.Between(
        ast.ColumnRef("a", "t"), ast.Parameter(0), ast.Parameter(1), negated
    )
    rows = ({"a": value, "b": None, "c": None}, {"x": None, "y": None})
    assert reference(expr, rows, [low, high]) is expected
    stored = _stored(rows)
    assert compile_expression(expr, LAYOUT)(stored, [low, high]) is expected
    accepts, _ = _compile_truth(expr)
    assert bool(accepts(stored, [low, high])) == (expected is True)
