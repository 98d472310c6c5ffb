"""Unit tests for SQL expression evaluation (three-valued logic)."""

import pytest

from repro.errors import DatabaseError
from repro.rdb.expressions import (
    ScopeLayout,
    Source,
    compile_expression,
    evaluate_constant,
)
from repro.sql import ast, parse_expression


def evaluate(text, bindings, parameters=()):
    """Compile ``text`` against the shape of ``bindings`` (binding name ->
    column -> value), then evaluate it over those rows as the store holds
    them: tuples in column order."""
    layout = ScopeLayout([(name, list(row)) for name, row in bindings.items()])
    compiled = compile_expression(parse_expression(text), layout)
    rows = tuple(tuple(row.values()) for row in bindings.values())
    return compiled(rows, parameters)


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


class TestExactEquality:
    """``=`` compares numbers exactly: no detour through ``float``."""

    BIG = 2**53  # the first integer whose successor a float cannot hold

    def test_distinct_big_integers_are_distinct(self):
        assert ev(f"a = {self.BIG + 1}", {"a": self.BIG}) is False
        assert ev(f"a <> {self.BIG + 1}", {"a": self.BIG}) is True
        assert ev(f"a = {self.BIG + 1}", {"a": self.BIG + 1}) is True
        assert ev(f"a + 0 = {self.BIG + 1}", {"a": self.BIG}) is False
        assert ev(f"a IN ({self.BIG + 1})", {"a": self.BIG}) is False

    def test_int_and_float_still_compare_by_value(self):
        assert ev("a = 1", {"a": 1.0}) is True
        assert ev("a = 1.0", {"a": 1}) is True
        assert ev(f"a = {self.BIG}", {"a": float(self.BIG)}) is True
        assert ev(f"a = {self.BIG + 1}", {"a": float(self.BIG)}) is False

    def test_boolean_against_number_keeps_its_answer(self):
        assert ev("a = 1", {"a": True}) is True
        assert ev("a = 0", {"a": True}) is False


class TestBetweenIsAConjunction:
    """``x BETWEEN lo AND hi`` is ``x >= lo AND x <= hi``, Kleene AND: a
    NULL bound does not make the answer NULL when the other bound
    already says FALSE."""

    def test_null_low_bound(self):
        assert ev("3 BETWEEN a AND 2", {"a": None}) is False
        assert ev("3 NOT BETWEEN a AND 2", {"a": None}) is True
        assert ev("1 BETWEEN a AND 2", {"a": None}) is None
        assert ev("1 NOT BETWEEN a AND 2", {"a": None}) is None

    def test_null_high_bound(self):
        assert ev("0 BETWEEN 1 AND a", {"a": None}) is False
        assert ev("0 NOT BETWEEN 1 AND a", {"a": None}) is True
        assert ev("2 BETWEEN 1 AND a", {"a": None}) is None
        assert ev("2 NOT BETWEEN 1 AND a", {"a": None}) is None

    def test_operand_is_evaluated_once(self):
        layout = ScopeLayout([("t", ["a"])])
        source = Source()
        function = source.function("f", "rows, parameters", layout)
        code = function.value(parse_expression("a + 1 BETWEEN 1 AND 3"))
        assert code.count("r0[0]") == 1


class TestParameters:
    def test_null_parameter_is_never_equal(self):
        assert ev("a = ?", {"a": 5}, parameters=[None]) is None
        assert ev("a <> ?", {"a": 5}, parameters=[None]) is None
        assert ev("a IN (1, ?)", {"a": 5}, parameters=[None]) is None

    def test_missing_parameter_names_its_index(self):
        with pytest.raises(DatabaseError, match="missing bind parameter at index 1"):
            ev("a = ? OR a = ?", {"a": 5}, parameters=[5])


class TestConstants:
    """``evaluate_constant`` (a column DEFAULT) is the emitter's answer."""

    def constant(self, text, parameters=()):
        return evaluate_constant(parse_expression(text), parameters)

    def test_everything_else_goes_through_the_emitter(self):
        assert self.constant("1 + 1") == 2
        assert self.constant("'a' || 'b' || ?", ["c"]) == "abc"
        assert self.constant("- (1 + 2)") == -3
        assert self.constant("1 + NULL") is None
        assert self.constant("NOT 1 = 2") is True
        assert self.constant("UPPER('x') || 'y'") == "Xy"
        assert self.constant("1 = 2 AND 1 < 'x'") is False
        assert self.constant("COALESCE(NULL, ?)", [4]) == 4

    def test_errors_are_the_emitter_s(self):
        with pytest.raises(DatabaseError, match="cannot compare int with str"):
            self.constant("1 < 'x'")
        with pytest.raises(DatabaseError, match="missing bind parameter at index 0"):
            self.constant("1 + ?")
        with pytest.raises(DatabaseError, match="unknown column 'a'"):
            self.constant("a + 1")


class TestNothingIsSplicedIntoSource:
    """Request values reach generated code only through the constants
    tuple; catalog names only through ``repr()``."""

    HOSTILE = [
        "\"]); import os #",
        "'; raise SystemExit #",
        "back\\slash \\' and \"quotes\"",
        "zeile\numbruch",
        "Zürich — 東京 ✓",
    ]

    @staticmethod
    def _compile(expr, columns=("a",)):
        source = Source()
        function = source.function(
            "f", "rows, parameters", ScopeLayout([("t", list(columns))])
        )
        code = function.value(expr)
        name = function.close(["r0 = rows[0]", f"return {code}"])
        return source.build()[name], source

    @pytest.mark.parametrize("text", HOSTILE)
    def test_literal_is_a_constant(self, text):
        expr = ast.BinaryOp("=", ast.ColumnRef("a"), ast.Literal(text))
        fn, source = self._compile(expr)
        assert text in source.constants
        for fragment in (text, text[:6], repr(text)[1:-1]):
            assert fragment not in source.text
        assert fn(((text,),), ()) is True
        assert fn(((text + "x",),), ()) is False

    @pytest.mark.parametrize("text", HOSTILE)
    def test_like_pattern_is_a_constant(self, text):
        pattern = text.replace("%", "").replace("_", "") + "%"
        expr = ast.Like(ast.ColumnRef("a"), ast.Literal(pattern))
        fn, source = self._compile(expr)
        assert text[:6] not in source.text
        assert fn(((pattern[:-1] + " and more",),), ()) is True
        assert fn((("x" + pattern,),), ()) is False

    def test_column_name_never_reaches_the_source(self):
        """A column is read by its position: no name, however written,
        is spliced into the generated text."""
        column = "we'ird\"] or [\"name"
        fn, source = self._compile(
            ast.IsNull(ast.ColumnRef(column)), columns=("a", column)
        )
        assert "r0[1]" in source.text
        for fragment in (column, "we'ird", "name", repr(column)):
            assert fragment not in source.text
        assert fn((("x", None),), ()) is True
        assert fn((("x", 1),), ()) is False

    def test_source_names_only_its_own_vocabulary(self):
        expr = parse_expression(
            "a = 'x' AND (b LIKE 'y%' OR b IN ('p', ?)) AND a || b <> 'q'"
        )
        _, source = self._compile(expr, columns=("a", "b"))
        assert "'" not in source.text and '"' not in source.text
