"""Render SQL AST nodes back to SQL text.

The OntoAccess translator produces :mod:`repro.sql.ast` statements; this
module turns them into the textual SQL the paper's listings display (e.g.
Listings 10, 14, 16, 18).  Rendering is deterministic so translated output
can be compared verbatim against the paper in tests and benchmarks.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

from . import ast

__all__ = ["render", "render_expression"]


def render(statement: Union[ast.Statement, ast.Bound]) -> str:
    """Render a statement to a single-line SQL string with trailing ``;``.

    A :class:`~repro.sql.ast.Bound` statement is printed with its values
    in place of the parameters they bind — the mediator's statements read
    as they do in the paper's listings; a parameter without a value (a
    bare shape) prints as ``?``.
    """
    values: Sequence[Any] = ()
    if isinstance(statement, ast.Bound):
        statement, values = statement.shape, statement.values
    if isinstance(statement, ast.Select):
        return _render_select(statement, values) + ";"
    if isinstance(statement, ast.Insert):
        return _render_insert(statement, values) + ";"
    if isinstance(statement, ast.Update):
        return _render_update(statement, values) + ";"
    if isinstance(statement, ast.Delete):
        return _render_delete(statement, values) + ";"
    if isinstance(statement, ast.CreateTable):
        return _render_create(statement) + ";"
    if isinstance(statement, ast.DropTable):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {exists}{statement.name};"
    if isinstance(statement, ast.CreateIndex):
        unique = "UNIQUE " if statement.unique else ""
        exists = "IF NOT EXISTS " if statement.if_not_exists else ""
        columns = ", ".join(statement.columns)
        return (
            f"CREATE {unique}INDEX {exists}{statement.name} "
            f"ON {statement.table} ({columns});"
        )
    if isinstance(statement, ast.DropIndex):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP INDEX {exists}{statement.name};"
    if isinstance(statement, ast.Begin):
        return "BEGIN;"
    if isinstance(statement, ast.Commit):
        return "COMMIT;"
    if isinstance(statement, ast.Rollback):
        return "ROLLBACK;"
    raise TypeError(f"cannot render {type(statement).__name__}")


def render_expression(expr: ast.Expression) -> str:
    return _expr(expr, ())


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

def _render_select(stmt: ast.Select, values: Sequence[Any]) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(i, values) for i in stmt.items))
    if stmt.table is not None:
        parts.append("FROM")
        parts.append(_table_ref(stmt.table))
        for join in stmt.joins:
            if join.kind == "CROSS":
                parts.append(f"CROSS JOIN {_table_ref(join.table)}")
            else:
                keyword = "JOIN" if join.kind == "INNER" else f"{join.kind} JOIN"
                parts.append(
                    f"{keyword} {_table_ref(join.table)} "
                    f"ON {_expr(join.condition, values)}"
                )
    if stmt.where is not None:
        parts.append(f"WHERE {_expr(stmt.where, values)}")
    if stmt.group_by:
        parts.append(
            "GROUP BY " + ", ".join(_expr(e, values) for e in stmt.group_by)
        )
    if stmt.having is not None:
        parts.append(f"HAVING {_expr(stmt.having, values)}")
    if stmt.order_by:
        rendered = ", ".join(
            _expr(o.expression, values) + (" DESC" if o.descending else "")
            for o in stmt.order_by
        )
        parts.append(f"ORDER BY {rendered}")
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    if stmt.offset is not None:
        parts.append(f"OFFSET {stmt.offset}")
    return " ".join(parts)


def _select_item(item: ast.SelectItem, values: Sequence[Any]) -> str:
    text = _expr(item.expression, values)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _table_ref(ref: ast.TableRef) -> str:
    return f"{ref.name} {ref.alias}" if ref.alias else ref.name


def _render_insert(stmt: ast.Insert, values: Sequence[Any]) -> str:
    columns = f" ({', '.join(stmt.columns)})" if stmt.columns else ""
    rows = ", ".join(
        "(" + ", ".join(_expr(v, values) for v in row) + ")"
        for row in stmt.rows
    )
    return f"INSERT INTO {stmt.table}{columns} VALUES {rows}"


def _render_update(stmt: ast.Update, values: Sequence[Any]) -> str:
    sets = ", ".join(
        f"{a.column} = {_expr(a.value, values)}" for a in stmt.assignments
    )
    text = f"UPDATE {stmt.table} SET {sets}"
    if stmt.where is not None:
        text += f" WHERE {_expr(stmt.where, values)}"
    return text


def _render_delete(stmt: ast.Delete, values: Sequence[Any]) -> str:
    text = f"DELETE FROM {stmt.table}"
    if stmt.where is not None:
        text += f" WHERE {_expr(stmt.where, values)}"
    return text


def _render_create(stmt: ast.CreateTable) -> str:
    defs = [_column_def(c) for c in stmt.columns]
    for constraint in stmt.constraints:
        defs.append(_table_constraint(constraint))
    exists = "IF NOT EXISTS " if stmt.if_not_exists else ""
    return f"CREATE TABLE {exists}{stmt.name} ({', '.join(defs)})"


def _column_def(col: ast.ColumnDef) -> str:
    parts = [col.name]
    type_text = col.type_name
    if col.type_length is not None:
        type_text += f"({col.type_length})"
    parts.append(type_text)
    if col.primary_key:
        parts.append("PRIMARY KEY")
    if col.autoincrement:
        parts.append("AUTOINCREMENT")
    if col.not_null:
        parts.append("NOT NULL")
    if col.unique:
        parts.append("UNIQUE")
    if col.default is not None:
        parts.append(f"DEFAULT {_expr(col.default, ())}")
    if col.references is not None:
        table, column = col.references
        suffix = f"({column})" if column else ""
        parts.append(f"REFERENCES {table}{suffix}")
    for check in col.checks:
        parts.append(f"CHECK ({_expr(check, ())})")
    return " ".join(parts)


def _table_constraint(
    constraint: Union[ast.PrimaryKeyDef, ast.ForeignKeyDef, ast.UniqueDef],
) -> str:
    if isinstance(constraint, ast.PrimaryKeyDef):
        return f"PRIMARY KEY ({', '.join(constraint.columns)})"
    if isinstance(constraint, ast.UniqueDef):
        return f"UNIQUE ({', '.join(constraint.columns)})"
    if isinstance(constraint, ast.CheckDef):
        return f"CHECK ({_expr(constraint.expression, ())})"
    ref_cols = (
        f" ({', '.join(constraint.ref_columns)})" if constraint.ref_columns else ""
    )
    return (
        f"FOREIGN KEY ({', '.join(constraint.columns)}) "
        f"REFERENCES {constraint.ref_table}{ref_cols}"
    )


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "OR": 1,
    "AND": 2,
    "=": 4,
    "<>": 4,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "||": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}


def _expr(
    expr: ast.Expression, values: Sequence[Any], parent_precedence: int = 0
) -> str:
    if isinstance(expr, ast.Literal):
        return _literal(expr.value)
    if isinstance(expr, ast.Null):
        return "NULL"
    if isinstance(expr, ast.ColumnRef):
        return expr.key()
    if isinstance(expr, ast.Parameter):
        if expr.index < len(values):
            return _literal(values[expr.index])
        return "?"
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.BinaryOp):
        precedence = _PRECEDENCE.get(expr.op, 4)
        left = _expr(expr.left, values, precedence)
        right = _expr(expr.right, values, precedence + 1)
        text = f"{left} {expr.op} {right}"
        if precedence < parent_precedence:
            return f"({text})"
        return text
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return f"NOT {_expr(expr.operand, values, 3)}"
        return f"-{_expr(expr.operand, values, 7)}"
    if isinstance(expr, ast.IsNull):
        keyword = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_expr(expr.operand, values, 4)} {keyword}"
    if isinstance(expr, ast.InList):
        keyword = "NOT IN" if expr.negated else "IN"
        items = ", ".join(_expr(i, values) for i in expr.items)
        return f"{_expr(expr.operand, values, 4)} {keyword} ({items})"
    if isinstance(expr, ast.Between):
        keyword = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{_expr(expr.operand, values, 4)} {keyword} "
            f"{_expr(expr.low, values, 5)} AND {_expr(expr.high, values, 5)}"
        )
    if isinstance(expr, ast.Like):
        keyword = "NOT LIKE" if expr.negated else "LIKE"
        return (
            f"{_expr(expr.operand, values, 4)} {keyword} "
            f"{_expr(expr.pattern, values, 5)}"
        )
    if isinstance(expr, ast.FunctionCall):
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(_expr(a, values) for a in expr.args)
        return f"{expr.name}({distinct}{args})"
    raise TypeError(f"cannot render expression {type(expr).__name__}")


def _literal(value: Union[int, float, str, bool, None]) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    escaped = value.replace("'", "''")
    return f"'{escaped}'"
