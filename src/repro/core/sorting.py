"""Algorithm 1 step 5: sort SQL statements by foreign-key dependencies.

"The collected SQL statements are sorted according to the foreign key
relationships among the affected tables ... executing the generated
statements in an arbitrary order may result in the failure of the
transaction whereas their execution in the sorted order would succeed."

INSERTs are ordered parents-before-children (a row can only reference an
existing parent); DELETEs children-before-parents; UPDATEs run between the
two phases (after all inserts that could create their FK targets, before
deletes that could remove rows they still reference).

The topological sort is a deterministic Kahn's algorithm over the *static*
FK graph of the affected tables; ties break on first-appearance order so
translation output is stable (the listings in the paper print a specific
order).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Union

from ..errors import TranslationError
from ..rdb.catalog import Schema
from ..sql import ast

__all__ = ["sort_statements", "topological_table_order"]


def sort_statements(
    statements: Sequence[Union[ast.Statement, ast.Bound]], schema: Schema
) -> List[Union[ast.Statement, ast.Bound]]:
    """Return the statements in FK-dependency-safe execution order.

    The order depends on each statement's kind and table only, so a
    bound statement is sorted by its shape.  Deletes run children-first:
    the parents-first order, reversed."""
    if len(statements) < 2:
        return list(statements)
    inserts, updates, deletes = [], [], []
    for statement in statements:
        shape = ast.shape_of(statement)
        if isinstance(shape, ast.Insert):
            inserts.append(statement)
        elif isinstance(shape, ast.Update):
            updates.append(statement)
        elif isinstance(shape, ast.Delete):
            deletes.append(statement)
        else:
            raise TranslationError(
                f"cannot sort statement of type {type(shape).__name__}"
            )

    return [
        *_sort_by_table(inserts, schema, children_first=False),
        *updates,
        *_sort_by_table(deletes, schema, children_first=True),
    ]


def _sort_by_table(statements: List, schema: Schema, children_first: bool) -> List:
    """``statements`` in parents-first (or children-first) table order;
    statements of one table keep their order — so do those of a single
    table, which need no sort at all."""
    tables = [s.table for s in statements]
    if len(set(tables)) <= 1:
        return statements
    order = topological_table_order(tables, schema)
    return _stable_sort_by_table(
        statements, order[::-1] if children_first else order
    )


def topological_table_order(tables: Sequence[str], schema: Schema) -> List[str]:
    """Parents-before-children order of the given tables.

    Only FK edges between tables in the input set constrain the order;
    unaffected tables are ignored.  First-appearance order breaks ties.
    """
    appearance: Dict[str, int] = {}
    for name in tables:
        appearance.setdefault(name, len(appearance))
    names: Set[str] = set(appearance)

    # edge parent -> child for each FK child.references(parent)
    children_of: Dict[str, List[str]] = {name: [] for name in names}
    indegree: Dict[str, int] = {name: 0 for name in names}
    for name in names:
        table = schema.table(name)
        for fk in table.foreign_keys:
            parent = fk.ref_table
            if parent in names and parent != name:
                children_of[parent].append(name)
                indegree[name] += 1

    ready = sorted(
        (name for name in names if indegree[name] == 0),
        key=lambda n: appearance[n],
    )
    order: List[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        newly_ready = []
        for child in children_of[current]:
            indegree[child] -= 1
            if indegree[child] == 0:
                newly_ready.append(child)
        ready.extend(sorted(newly_ready, key=lambda n: appearance[n]))
        ready.sort(key=lambda n: appearance[n])
    if len(order) != len(names):
        cyclic = sorted(names - set(order))
        raise TranslationError(
            f"cyclic foreign-key dependency among tables {cyclic}; cannot "
            "order statements (deferred constraint checking required)"
        )
    return order


def _stable_sort_by_table(
    statements: List, table_order: List[str]
) -> List:
    rank = {name: i for i, name in enumerate(table_order)}
    indexed = sorted(
        enumerate(statements),
        key=lambda pair: (rank.get(pair[1].table, len(rank)), pair[0]),
    )
    return [statement for _, statement in indexed]
