"""Tests for AST -> SQL rendering, including round-trips through the parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast, parse_sql, render, render_expression


class TestRenderStatements:
    def test_insert_matches_paper_style(self):
        stmt = ast.Insert(
            table="team",
            columns=("id", "name", "code"),
            rows=((ast.Literal(4), ast.Literal("Database Technology"), ast.Literal("DBTG")),),
        )
        assert render(stmt) == (
            "INSERT INTO team (id, name, code) "
            "VALUES (4, 'Database Technology', 'DBTG');"
        )

    def test_update_matches_paper_style(self):
        stmt = ast.Update(
            table="author",
            assignments=(ast.Assignment("email", ast.Null()),),
            where=ast.BinaryOp(
                "AND",
                ast.BinaryOp("=", ast.ColumnRef("id"), ast.Literal(6)),
                ast.BinaryOp(
                    "=", ast.ColumnRef("email"), ast.Literal("hert@ifi.uzh.ch")
                ),
            ),
        )
        assert render(stmt) == (
            "UPDATE author SET email = NULL "
            "WHERE id = 6 AND email = 'hert@ifi.uzh.ch';"
        )

    def test_delete(self):
        stmt = ast.Delete("author", ast.BinaryOp("=", ast.ColumnRef("id"), ast.Literal(6)))
        assert render(stmt) == "DELETE FROM author WHERE id = 6;"

    def test_string_escaping(self):
        stmt = ast.Insert("t", ("a",), ((ast.Literal("O'Brien"),),))
        assert "('O''Brien')" in render(stmt)

    def test_select_with_joins(self):
        sql = (
            "SELECT a.id FROM author a "
            "JOIN team t ON a.team = t.id "
            "WHERE t.code = 'SEAL' ORDER BY a.id LIMIT 5;"
        )
        assert render(parse_sql(sql)) == sql

    def test_transaction_statements(self):
        assert render(ast.Begin()) == "BEGIN;"
        assert render(ast.Commit()) == "COMMIT;"
        assert render(ast.Rollback()) == "ROLLBACK;"

    def test_create_table_roundtrip(self):
        sql = (
            "CREATE TABLE author (id INTEGER PRIMARY KEY, "
            "lastname VARCHAR(100) NOT NULL, "
            "team INTEGER REFERENCES team(id));"
        )
        assert render(parse_sql(sql)) == sql

    def test_drop_table(self):
        assert render(ast.DropTable("t", if_exists=True)) == "DROP TABLE IF EXISTS t;"


class TestRenderExpressions:
    def test_parentheses_only_when_needed(self):
        # OR nested under AND requires parens; AND under OR does not.
        expr = parse_sql("SELECT 1 FROM t WHERE (a = 1 OR b = 2) AND c = 3").where
        assert render_expression(expr) == "(a = 1 OR b = 2) AND c = 3"

    def test_no_spurious_parens(self):
        expr = parse_sql("SELECT 1 FROM t WHERE a = 1 AND b = 2 AND c = 3").where
        assert render_expression(expr) == "a = 1 AND b = 2 AND c = 3"

    def test_is_null(self):
        assert render_expression(ast.IsNull(ast.ColumnRef("email"))) == "email IS NULL"

    def test_in_list(self):
        expr = ast.InList(ast.ColumnRef("id"), (ast.Literal(1), ast.Literal(2)))
        assert render_expression(expr) == "id IN (1, 2)"

    def test_between(self):
        expr = ast.Between(ast.ColumnRef("y"), ast.Literal(1), ast.Literal(2))
        assert render_expression(expr) == "y BETWEEN 1 AND 2"

    def test_function(self):
        expr = ast.FunctionCall("COUNT", (ast.Star(),))
        assert render_expression(expr) == "COUNT(*)"

    def test_boolean_literal(self):
        assert render_expression(ast.Literal(True)) == "TRUE"


class TestRenderBound:
    """A shape with its value vector reads like the literal spelling."""

    SHAPE = ast.Update(
        table="author",
        assignments=(
            ast.Assignment("email", ast.Parameter(0)),
            ast.Assignment("title", ast.Null()),
        ),
        where=ast.BinaryOp(
            "AND",
            ast.BinaryOp("=", ast.ColumnRef("id"), ast.Parameter(1)),
            ast.BinaryOp("<>", ast.ColumnRef("lastname"), ast.Parameter(2)),
        ),
    )

    def test_values_are_inlined(self):
        bound = ast.Bound(self.SHAPE, ("a@b.org", 6, "O'Brien"))
        assert render(bound) == (
            "UPDATE author SET email = 'a@b.org', title = NULL "
            "WHERE id = 6 AND lastname <> 'O''Brien';"
        )
        assert render(parse_sql(render(bound))) == render(bound)

    def test_bare_shape_prints_placeholders(self):
        assert render(self.SHAPE) == (
            "UPDATE author SET email = ?, title = NULL "
            "WHERE id = ? AND lastname <> ?;"
        )
        assert render(ast.Bound(self.SHAPE)) == render(self.SHAPE)

    def test_every_statement_kind(self):
        insert = ast.Bound(
            ast.Insert("t", ("a", "b"), ((ast.Parameter(0), ast.Parameter(1)),)),
            (1, None),
        )
        assert render(insert) == "INSERT INTO t (a, b) VALUES (1, NULL);"
        delete = ast.Bound(
            ast.Delete("t", ast.BinaryOp("=", ast.ColumnRef("a"), ast.Parameter(0))),
            (True,),
        )
        assert render(delete) == "DELETE FROM t WHERE a = TRUE;"
        select = ast.Bound(parse_sql(
            "SELECT a, ? AS k FROM t JOIN u ON u.id = t.u AND u.x > ? "
            "WHERE a BETWEEN ? AND ? GROUP BY a HAVING COUNT(*) > ? ORDER BY a;"
        ), ("k", 1.5, 2, 3, 4))
        assert render(select) == (
            "SELECT a, 'k' AS k FROM t JOIN u ON u.id = t.u AND u.x > 1.5 "
            "WHERE a BETWEEN 2 AND 3 GROUP BY a HAVING COUNT(*) > 4 ORDER BY a;"
        )

    def test_bound_statement_sees_through(self):
        bound = ast.Bound(self.SHAPE, ("x", 1, "y"))
        assert bound.table == "author"
        assert ast.shape_of(bound) is self.SHAPE is ast.shape_of(self.SHAPE)


# -- parse(render(s)) == s property round-trips ------------------------------

_names = st.sampled_from(["id", "name", "team", "year", "email"])
_literals = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(ast.Literal),
    st.text(alphabet="abc '", max_size=8).map(ast.Literal),
    st.just(ast.Null()),
)
_comparisons = st.builds(
    ast.BinaryOp,
    op=st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    left=_names.map(ast.ColumnRef),
    right=st.integers(min_value=0, max_value=99).map(ast.Literal),
)


def _bool_exprs(depth=2):
    if depth == 0:
        return _comparisons
    sub = _bool_exprs(depth - 1)
    return st.one_of(
        _comparisons,
        st.builds(ast.BinaryOp, op=st.sampled_from(["AND", "OR"]), left=sub, right=sub),
        st.builds(ast.UnaryOp, op=st.just("NOT"), operand=sub),
        st.builds(ast.IsNull, operand=_names.map(ast.ColumnRef), negated=st.booleans()),
    )


@given(
    columns=st.lists(_names, min_size=1, max_size=4, unique=True),
    values=st.lists(_literals, min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_insert_roundtrip_property(columns, values):
    values = values[: len(columns)]
    columns = columns[: len(values)]
    stmt = ast.Insert("t", tuple(columns), (tuple(values),))
    assert parse_sql(render(stmt)) == stmt


@given(where=_bool_exprs())
@settings(max_examples=80, deadline=None)
def test_delete_where_roundtrip_property(where):
    stmt = ast.Delete("t", where)
    assert parse_sql(render(stmt)) == stmt


@given(where=_bool_exprs())
@settings(max_examples=80, deadline=None)
def test_update_where_roundtrip_property(where):
    stmt = ast.Update("t", (ast.Assignment("a", ast.Literal(1)),), where)
    assert parse_sql(render(stmt)) == stmt
