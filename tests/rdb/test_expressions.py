"""Unit tests for SQL expression evaluation (three-valued logic)."""

import pytest

from repro.errors import DatabaseError
from repro.rdb.expressions import (
    ScopeLayout,
    compile_expression,
    evaluate_constant,
    is_true,
)
from repro.sql import parse_expression


def evaluate(text, bindings, parameters=()):
    """Compile ``text`` against the shape of ``bindings`` (binding name ->
    row dict), then evaluate it over those rows."""
    layout = ScopeLayout([(name, list(row)) for name, row in bindings.items()])
    compiled = compile_expression(parse_expression(text), layout)
    return compiled(tuple(bindings.values()), parameters)


def ev(text, row=None, table="t", parameters=()):
    return evaluate(text, {table: row or {}}, parameters)


class TestNullPropagation:
    def test_comparison_with_null_is_unknown(self):
        assert ev("a = 1", {"a": None}) is None
        assert ev("a <> 1", {"a": None}) is None
        assert ev("a < 1", {"a": None}) is None

    def test_arithmetic_with_null(self):
        assert ev("a + 1", {"a": None}) is None
        assert ev("-a", {"a": None}) is None

    def test_is_null(self):
        assert ev("a IS NULL", {"a": None}) is True
        assert ev("a IS NULL", {"a": 1}) is False
        assert ev("a IS NOT NULL", {"a": None}) is False

    def test_not_unknown_is_unknown(self):
        assert ev("NOT a = 1", {"a": None}) is None

    def test_where_semantics_reject_unknown(self):
        assert not is_true(None)
        assert not is_true(False)
        assert is_true(True)


class TestKleeneLogic:
    def test_and(self):
        assert ev("a = 1 AND b = 2", {"a": 1, "b": 2}) is True
        assert ev("a = 1 AND b = 2", {"a": 0, "b": None}) is False
        assert ev("a = 1 AND b = 2", {"a": 1, "b": None}) is None

    def test_or(self):
        assert ev("a = 1 OR b = 2", {"a": 1, "b": None}) is True
        assert ev("a = 1 OR b = 2", {"a": 0, "b": None}) is None
        assert ev("a = 1 OR b = 2", {"a": 0, "b": 0}) is False

    def test_and_short_circuits_false(self):
        # right side would error (int compared with str) but left is False
        assert ev("1 = 2 AND a < 'x'", {"a": 1}) is False
        with pytest.raises(DatabaseError, match="cannot compare"):
            ev("1 = 1 AND a < 'x'", {"a": 1})

    def test_unknown_column_fails_at_compile_time(self):
        # names resolve once, when the expression is compiled — so not
        # even a short-circuiting left side hides an unknown column
        with pytest.raises(DatabaseError, match="unknown column"):
            ev("1 = 2 AND nosuch = 3", {"a": 1})


class TestArithmetic:
    def test_basic(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20
        assert ev("10 / 4") == 2  # integer division for int operands
        assert ev("10.0 / 4") == 2.5
        assert ev("10 % 3") == 1

    def test_division_by_zero_is_null(self):
        assert ev("1 / 0") is None
        assert ev("1 % 0") is None

    def test_numeric_comparison_int_float(self):
        assert ev("a = 1", {"a": 1.0}) is True

    def test_concat(self):
        assert ev("'a' || 'b'") == "ab"

    def test_string_numeric_coercion_in_arithmetic(self):
        assert ev("a + 1", {"a": "41"}) == 42


class TestPredicates:
    def test_like(self):
        assert ev("a LIKE 'H%'", {"a": "Hert"}) is True
        assert ev("a LIKE '_ert'", {"a": "Hert"}) is True
        assert ev("a LIKE 'x%'", {"a": "Hert"}) is False
        assert ev("a NOT LIKE 'x%'", {"a": "Hert"}) is True

    def test_like_escapes_regex_metacharacters(self):
        assert ev("a LIKE 'a.c'", {"a": "abc"}) is False
        assert ev("a LIKE 'a.c'", {"a": "a.c"}) is True

    def test_like_null(self):
        assert ev("a LIKE 'x'", {"a": None}) is None

    def test_in(self):
        assert ev("a IN (1, 2, 3)", {"a": 2}) is True
        assert ev("a IN (1, 2)", {"a": 5}) is False
        assert ev("a NOT IN (1, 2)", {"a": 5}) is True

    def test_in_with_null_member_unknown_when_no_match(self):
        assert ev("a IN (1, NULL)", {"a": 5}) is None
        assert ev("a IN (1, NULL)", {"a": 1}) is True

    def test_between(self):
        assert ev("a BETWEEN 1 AND 3", {"a": 2}) is True
        assert ev("a BETWEEN 1 AND 3", {"a": 4}) is False
        assert ev("a NOT BETWEEN 1 AND 3", {"a": 4}) is True
        assert ev("a BETWEEN 1 AND 3", {"a": None}) is None


class TestFunctions:
    def test_upper_lower_length_trim(self):
        assert ev("UPPER(a)", {"a": "seal"}) == "SEAL"
        assert ev("LOWER(a)", {"a": "SEAL"}) == "seal"
        assert ev("LENGTH(a)", {"a": "SEAL"}) == 4
        assert ev("TRIM(a)", {"a": "  x "}) == "x"

    def test_abs(self):
        assert ev("ABS(a)", {"a": -5}) == 5

    def test_null_argument_yields_null(self):
        assert ev("UPPER(a)", {"a": None}) is None

    def test_coalesce(self):
        assert ev("COALESCE(a, b, 'z')", {"a": None, "b": None}) == "z"
        assert ev("COALESCE(a, 'z')", {"a": "x"}) == "x"

    def test_unknown_function(self):
        with pytest.raises(DatabaseError):
            ev("NOPE(a)", {"a": 1})

    def test_aggregate_rejected_outside_select(self):
        with pytest.raises(DatabaseError):
            ev("COUNT(a)", {"a": 1})


class TestScope:
    def test_qualified_resolution(self):
        bindings = {"x": {"id": 1}, "y": {"id": 2}}
        assert evaluate("x.id", bindings) == 1
        assert evaluate("y.id", bindings) == 2

    def test_ambiguous_unqualified(self):
        with pytest.raises(DatabaseError, match="ambiguous"):
            evaluate("id", {"x": {"id": 1}, "y": {"id": 2}})

    def test_unknown_binding(self):
        with pytest.raises(DatabaseError):
            evaluate("z.id", {"x": {"id": 1}})

    def test_parameters(self):
        assert evaluate("a = ?", {"t": {"a": 5}}, parameters=[5]) is True

    def test_missing_parameter(self):
        with pytest.raises(DatabaseError):
            evaluate("?", {})

    def test_constant_evaluation(self):
        assert evaluate_constant(parse_expression("1 + 2")) == 3

    def test_constant_evaluation_takes_parameters_and_rejects_columns(self):
        assert evaluate_constant(parse_expression("? + 1"), [2]) == 3
        with pytest.raises(DatabaseError, match="unknown column"):
            evaluate_constant(parse_expression("a + 1"))
