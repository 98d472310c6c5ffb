"""DELETE DATA → SQL translation (paper Section 5.1, Algorithm 1).

"If the data in the operation represents only a subset of the data in the
database, the operation is translated to a SQL UPDATE statement that sets
all mentioned attributes to NULL ... Only if the data in the request
operation equals all remaining (i.e., non-null) data in the database, the
resulting SQL statement is a DELETE that removes the complete row."

Checks performed before SQL generation:

* the entity must exist and every triple to delete must actually hold
  (value comparison after coercion, so ``"2009"`` matches the INTEGER
  2009);
* a partial delete must not NULL-out an attribute with a NOT NULL
  constraint — that is only possible by deleting the whole row;
* deleting the ``rdf:type`` triple is only valid as part of a complete
  row deletion (relationally, an entity cannot lose its class).

Link-table triples translate to ``DELETE`` on the link table restricted to
the subject/object key pair.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..errors import TranslationError
from ..rdb.engine import Database
from ..rdf.terms import Object, Triple
from ..r3m.model import DatabaseMapping, LinkTableMapping
from ..sql import ast
from .common import (
    EntityRef,
    SubjectGroup,
    Values,
    classify_group,
    group_by_subject,
    link_keys,
    link_row_exists,
    term_to_sql_value,
)
from .sorting import sort_statements

__all__ = ["translate_delete_data"]


def translate_delete_data(
    mapping: DatabaseMapping,
    db: Database,
    triples: Tuple[Triple, ...],
) -> List[ast.Bound]:
    """Translate a DELETE DATA payload to sorted SQL statements."""
    statements: List[ast.Bound] = []
    for subject, group_triples in group_by_subject(triples):
        group = classify_group(mapping, db, subject, group_triples)
        statements.extend(_translate_group(mapping, db, group))
    return sort_statements(statements, db.schema)


def _translate_group(
    mapping: DatabaseMapping, db: Database, group: SubjectGroup
) -> List[ast.Bound]:
    entity = group.entity
    statements: List[ast.Bound] = []

    for link, obj in group.link_values:
        statements.append(_link_delete(mapping, db, link, entity, obj))

    if not group.attribute_values and not group.types:
        return statements

    current = entity.current_row(db)
    if current is None:
        raise TranslationError(
            f"entity {entity.uri.value} does not exist in table "
            f"{entity.table.table_name!r}",
            code=TranslationError.ENTITY_MISSING,
            details={
                "subject": entity.uri.value,
                "table": entity.table.table_name,
            },
        )

    deleted_attrs = _verify_triples_hold(mapping, db, group, current)

    if _covers_all_remaining_data(db, group, current, deleted_attrs):
        collected = Values()
        statements.append(
            collected.bind(
                ast.Delete(
                    table=entity.table.table_name,
                    where=entity.pk_condition(db, collected),
                )
            )
        )
        return statements

    # Partial delete → UPDATE ... SET attr = NULL.
    if group.types:
        raise TranslationError(
            f"cannot delete the rdf:type triple of {entity.uri.value} while "
            "other data remains: a row cannot lose its table",
            code=TranslationError.CONSTRAINT_VIOLATION,
            details={
                "subject": entity.uri.value,
                "table": entity.table.table_name,
            },
        )
    schema_table = db.table(entity.table.table_name)
    assignments = []
    for name, old_value in deleted_attrs.items():
        column = schema_table.column(name)
        if column.not_null or schema_table.is_primary_key(name):
            raise TranslationError(
                f"cannot set NOT NULL attribute "
                f"{entity.table.table_name}.{name} to NULL; delete the "
                "complete entity instead",
                code=TranslationError.NOT_NULL_DELETE,
                details={
                    "subject": entity.uri.value,
                    "table": entity.table.table_name,
                    "attribute": name,
                },
            )
        assignments.append(ast.Assignment(name, ast.Null()))
    # WHERE pk AND attr = old-value, the guarded form of Listing 18.
    collected = Values()
    condition = entity.pk_condition(db, collected)
    for name, old_value in deleted_attrs.items():
        condition = ast.BinaryOp(
            "AND",
            condition,
            ast.BinaryOp("=", ast.ColumnRef(name), collected.param(old_value)),
        )
    statements.append(
        collected.bind(
            ast.Update(
                table=entity.table.table_name,
                assignments=tuple(assignments),
                where=condition,
            )
        )
    )
    return statements


def _verify_triples_hold(
    mapping: DatabaseMapping,
    db: Database,
    group: SubjectGroup,
    current: Dict[str, Any],
) -> Dict[str, Any]:
    """Check every attribute triple is present; return {attr: old value}."""
    entity = group.entity
    deleted: Dict[str, Any] = {}
    for attribute, obj in group.attribute_values:
        value = term_to_sql_value(mapping, db, entity.table, attribute, obj)
        name = attribute.attribute_name
        existing = current.get(name)
        if existing is None or existing != value:
            raise TranslationError(
                f"triple to delete does not hold: "
                f"{entity.table.table_name}.{name} of {entity.uri.value} is "
                f"{existing!r}, not {value!r}",
                code=TranslationError.TRIPLE_MISSING,
                details={
                    "subject": entity.uri.value,
                    "table": entity.table.table_name,
                    "attribute": name,
                    "expected": value,
                    "actual": existing,
                },
            )
        deleted[name] = value
    return deleted


def _covers_all_remaining_data(
    db: Database,
    group: SubjectGroup,
    current: Dict[str, Any],
    deleted_attrs: Dict[str, Any],
) -> bool:
    """Does the request delete *all* non-null mapped data of the row?

    Key attributes carried by the URI pattern don't count (they exist as
    long as the row does), and only attributes mapped to properties can be
    expressed as triples at all.
    """
    entity = group.entity
    pattern_attrs = set(entity.table.uri_pattern.attributes)
    remaining = {
        a.attribute_name
        for a in entity.table.mapped_attributes()
        if current.get(a.attribute_name) is not None
        and a.attribute_name not in pattern_attrs
    }
    # The rdf:type triple is implied by the row's existence, so it does not
    # enter the comparison; "equals all remaining (i.e., non-null) data"
    # is plain set equality over the mapped non-key attributes.
    return remaining == set(deleted_attrs)


def _link_delete(
    mapping: DatabaseMapping,
    db: Database,
    link: LinkTableMapping,
    entity: EntityRef,
    obj: Object,
) -> ast.Bound:
    subject_key, object_key = link_keys(mapping, db, link, entity, obj)
    subject_attr = link.subject_attribute.attribute_name
    object_attr = link.object_attribute.attribute_name
    if not link_row_exists(db, link, subject_key, object_key):
        raise TranslationError(
            f"link triple to delete does not hold: no "
            f"{link.table_name} row with {subject_attr}={subject_key}, "
            f"{object_attr}={object_key}",
            code=TranslationError.TRIPLE_MISSING,
            details={
                "table": link.table_name,
                "subject_key": subject_key,
                "object_key": object_key,
            },
        )
    collected = Values()
    return collected.bind(
        ast.Delete(
            table=link.table_name,
            where=ast.BinaryOp(
                "AND",
                ast.BinaryOp(
                    "=", ast.ColumnRef(subject_attr), collected.param(subject_key)
                ),
                ast.BinaryOp(
                    "=", ast.ColumnRef(object_attr), collected.param(object_key)
                ),
            ),
        )
    )
