"""INSERT DATA → SQL translation (paper Section 5.1, Algorithm 1).

Per subject group the translation produces either:

* an SQL ``INSERT`` when the entity does not exist yet (the URI pattern's
  key values plus every attribute value from the triples), or
* an SQL ``UPDATE`` "that replaces the NULLs with actual values" when the
  entity already exists (incremental data entry — first just the last
  name, later the first name and email).

Link-table triples become ``INSERT``s into the link table.  Validity
checks (step 3) happen before any SQL is generated:

* an INSERT creating a new entity must provide a triple for every
  attribute with a NOT NULL constraint and no default (step 3's example);
* at most one value per attribute (tuples cannot hold two);
* when updating an existing entity, a non-NULL attribute may only be
  "re-inserted" with the same value (triple-set semantics); a *different*
  value is rejected unless ``allow_overwrite`` is set, which the MODIFY
  driver uses for its replace optimization.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import TranslationError
from ..rdb.engine import Database
from ..rdf.terms import Triple
from ..r3m.model import DatabaseMapping, LinkTableMapping
from ..sql import ast
from .common import (
    SubjectGroup,
    Values,
    classify_group,
    group_by_subject,
    link_keys,
    link_row_exists,
    term_to_sql_value,
)
from .sorting import sort_statements

__all__ = ["translate_insert_data"]


def translate_insert_data(
    mapping: DatabaseMapping,
    db: Database,
    triples: Tuple[Triple, ...],
    allow_overwrite: bool = False,
) -> List[ast.Bound]:
    """Translate an INSERT DATA payload to sorted SQL statements."""
    statements: List[ast.Bound] = []
    link_rows: List[Tuple[LinkTableMapping, Any, Any]] = []
    #: key values of entities this request itself creates — needed so a
    #: link triple can reference a row inserted by the same operation.
    pending_rows: Dict[Tuple[str, Tuple[Any, ...]], bool] = {}

    for subject, group_triples in group_by_subject(triples):
        group = classify_group(mapping, db, subject, group_triples)
        entity = group.entity
        values = _attribute_values(mapping, db, group)
        current = entity.current_row(db)
        if current is None:
            statements.append(_insert_statement(db, group, values))
            pending_rows[(entity.table.table_name, entity.pk_tuple(db))] = True
        else:
            update = _update_statement(
                db, group, values, current, allow_overwrite
            )
            if update is not None:
                statements.append(update)
        for link, obj in group.link_values:
            link_rows.append((link, *link_keys(mapping, db, link, entity, obj)))

    # Referenced-row existence is checked only after every group has been
    # processed: Listing 15's pub12 group references author6, whose INSERT
    # is produced by a later group of the same request.
    for link, subject_key, object_key in link_rows:
        _check_link_targets(db, link, subject_key, object_key, pending_rows)
        insert = _link_insert(db, link, subject_key, object_key)
        if insert is not None:
            statements.append(insert)
    return sort_statements(statements, db.schema)


def _attribute_values(
    mapping: DatabaseMapping, db: Database, group: SubjectGroup
) -> Dict[str, Any]:
    """Extract and coerce the attribute values of one subject group."""
    entity = group.entity
    values: Dict[str, Any] = {}
    for attribute, obj in group.attribute_values:
        value = term_to_sql_value(mapping, db, entity.table, attribute, obj)
        name = attribute.attribute_name
        if name in values and values[name] != value:
            raise TranslationError(
                f"multiple values for {entity.table.table_name}.{name}: the "
                "relational model stores at most one",
                code=TranslationError.MULTI_VALUE,
                details={
                    "subject": entity.uri.value,
                    "table": entity.table.table_name,
                    "attribute": name,
                },
            )
        values[name] = value
    return values


def _insert_statement(
    db: Database, group: SubjectGroup, values: Dict[str, Any]
) -> ast.Bound:
    entity = group.entity
    table = entity.table

    # Step 3: "a triple must be present containing a property for every
    # corresponding database attribute that has a NotNull constraint but no
    # Default value."
    missing = [
        a.attribute_name
        for a in table.required_attributes()
        if a.attribute_name not in values
    ]
    if missing:
        raise TranslationError(
            f"cannot create {entity.uri.value}: required attribute(s) "
            f"{missing} of table {table.table_name!r} have no value "
            "(NOT NULL without default)",
            code=TranslationError.MISSING_REQUIRED,
            details={
                "subject": entity.uri.value,
                "table": table.table_name,
                "attributes": missing,
            },
        )

    row = {**entity.key_values, **values}
    columns = tuple(row)
    collected = Values()
    return collected.bind(
        ast.Insert(
            table=table.table_name,
            columns=columns,
            rows=(tuple(collected.param(row[c]) for c in columns),),
        )
    )


def _update_statement(
    db: Database,
    group: SubjectGroup,
    values: Dict[str, Any],
    current: Dict[str, Any],
    allow_overwrite: bool,
) -> Optional[ast.Bound]:
    """INSERT DATA on an existing entity → UPDATE filling NULLs."""
    entity = group.entity
    collected = Values()
    assignments: List[ast.Assignment] = []
    for name, value in values.items():
        existing = current.get(name)
        if existing is None or allow_overwrite:
            if existing != value:
                assignments.append(
                    ast.Assignment(name, collected.param(value))
                )
            continue
        if existing == value:
            continue  # the triple already holds; inserting it is a no-op
        raise TranslationError(
            f"attribute {entity.table.table_name}.{name} of "
            f"{entity.uri.value} already has the value {existing!r}; "
            f"inserting a second value {value!r} would require two tuples",
            code=TranslationError.MULTI_VALUE,
            details={
                "subject": entity.uri.value,
                "table": entity.table.table_name,
                "attribute": name,
                "existing": existing,
                "new": value,
            },
        )
    if not assignments:
        return None  # fully redundant insert: set semantics, nothing to do
    return collected.bind(
        ast.Update(
            table=entity.table.table_name,
            assignments=tuple(assignments),
            where=entity.pk_condition(db, collected),
        )
    )


def _check_link_targets(
    db: Database,
    link: LinkTableMapping,
    subject_key: Any,
    object_key: Any,
    pending_rows: Dict[Tuple[str, Tuple[Any, ...]], bool],
) -> None:
    """The referenced rows must exist either in the database or among the
    rows this very request inserts (they sort first)."""
    for table_name, key in (
        (link.subject_table(), (subject_key,)),
        (link.object_table(), (object_key,)),
    ):
        if (table_name, key) in pending_rows:
            continue
        if db.get_row_by_pk(table_name, key) is None:
            raise TranslationError(
                f"link triple references missing row {table_name}{key}",
                code=TranslationError.FK_TARGET_MISSING,
                details={"referenced_table": table_name, "key": list(key)},
            )


def _link_insert(
    db: Database, link: LinkTableMapping, subject_key: Any, object_key: Any
) -> Optional[ast.Bound]:
    """INSERT into the link table, skipping pairs that already exist."""
    if link_row_exists(db, link, subject_key, object_key):
        return None  # triple already present: set semantics
    collected = Values()
    return collected.bind(
        ast.Insert(
            table=link.table_name,
            columns=(
                link.subject_attribute.attribute_name,
                link.object_attribute.attribute_name,
            ),
            rows=((collected.param(subject_key), collected.param(object_key)),),
        )
    )
