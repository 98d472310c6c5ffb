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
  value is rejected unless its (subject, property) pair is
  ``replaceable`` — what a MODIFY's DELETE template names, so that its
  replace optimization can overwrite.

Translation is two steps.  :class:`InsertTemplate` is built once per
block shape: the groups and their tables, one value converter per
attribute and link, the required attributes a new row lacks and the
``INSERT`` shape.  :meth:`InsertTemplate.bind` is what a request pays:
it reads the values, looks each row up by its key to choose INSERT,
UPDATE or nothing, checks link targets and sorts.  Both run through
:class:`~repro.core.common.PreparedData`, which keeps a template per
block shape.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, List, Optional, Tuple

from ..errors import TranslationError
from ..rdb.engine import Database
from ..rdb.types import Row
from ..rdf.terms import Term
from ..r3m.model import LinkTableMapping
from ..sparql.algebra import Solution
from ..sql import ast
from .common import (
    DataTemplate,
    EntityRef,
    SubjectGroup,
    Values,
    link_row_exists,
)
from .sorting import sort_statements

__all__ = ["InsertTemplate"]


class _Group(SubjectGroup):
    """What an INSERT DATA group binds, prepared once."""

    __slots__ = ("_missing", "shape")

    def __init__(self, source: Term) -> None:
        super().__init__(source)
        self._missing: Optional[List[str]] = None
        self.shape: Optional[ast.Insert] = None

    def missing(self) -> List[str]:
        """Step 3: "a triple must be present containing a property for
        every corresponding database attribute that has a NotNull
        constraint but no Default value" — what a new row lacks."""
        if self._missing is None:
            names = {name for name, _, _ in self.attributes}
            self._missing = [
                a.attribute_name
                for a in self.entity.table.required_attributes()
                if a.attribute_name not in names
            ]
        return self._missing

    def insert(self, row: Dict[str, Any]) -> ast.Bound:
        """The INSERT of a new row: the columns are the key's and the
        attributes', whatever the values, so the shape is built once."""
        if self.shape is None:
            collected = Values()
            self.shape = ast.Insert(
                table=self.table,
                columns=tuple(row),
                rows=(tuple(collected.param(value) for value in row.values()),),
            )
        return ast.Bound(self.shape, tuple(row.values()))


class InsertTemplate(DataTemplate):
    """An INSERT DATA block translated once (see the module docstring)."""

    group = _Group

    def bind(
        self,
        db: Database,
        solution: Solution,
        entities: List[Optional[EntityRef]],
        replaceable: AbstractSet[Tuple[Term, Term]] = frozenset(),
    ) -> List[ast.Bound]:
        """The sorted statements of the block under ``solution``, whose
        subjects are ``entities`` (:meth:`~repro.core.common.
        DataTemplate.entities`); an existing value may be overwritten
        where its (subject, property) is ``replaceable``."""
        statements: List[ast.Bound] = []
        link_rows: List[Tuple[LinkTableMapping, Any, Any]] = []
        #: key values of entities this request itself creates — needed so a
        #: link triple can reference a row inserted by the same operation.
        pending_rows: Dict[Tuple[str, Tuple[Any, ...]], bool] = {}

        for group, entity in zip(self.groups, entities):
            if group.error is not None:
                raise group.error
            values = _attribute_values(group, entity, solution)
            key_values = entity.key_values
            pk = tuple([key_values[column] for column in group.pk])
            current = db.row_by_pk(group.table, pk)
            if current is None:
                missing = group.missing()
                if missing:
                    raise _missing_required(entity, missing)
                statements.append(group.insert({**key_values, **values}))
                pending_rows[(group.table, pk)] = True
            else:
                update = _update_statement(
                    db, entity, values, current, replaceable
                )
                if update is not None:
                    statements.append(update)
            for link, obj, read in group.links:
                link_rows.append((link, pk[0], read(solution.get(obj, obj))))

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
    group: _Group, entity: EntityRef, solution: Solution
) -> Dict[str, Any]:
    """Read and coerce the attribute values of one subject group."""
    values: Dict[str, Any] = {}
    for name, obj, read in group.attributes:
        value = read(solution.get(obj, obj))
        if name in values and values[name] != value:
            raise TranslationError(
                f"multiple values for {group.table}.{name}: the "
                "relational model stores at most one",
                code=TranslationError.MULTI_VALUE,
                details={
                    "subject": entity.uri.value,
                    "table": group.table,
                    "attribute": name,
                },
            )
        values[name] = value
    return values


def _missing_required(entity: EntityRef, missing: List[str]) -> TranslationError:
    table = entity.table.table_name
    return TranslationError(
        f"cannot create {entity.uri.value}: required attribute(s) "
        f"{missing} of table {table!r} have no value "
        "(NOT NULL without default)",
        code=TranslationError.MISSING_REQUIRED,
        details={
            "subject": entity.uri.value,
            "table": table,
            "attributes": missing,
        },
    )


def _update_statement(
    db: Database,
    entity: EntityRef,
    values: Dict[str, Any],
    current: Row,
    replaceable: AbstractSet[Tuple[Term, Term]],
) -> Optional[ast.Bound]:
    """INSERT DATA on an existing entity (its stored row ``current``) →
    UPDATE filling NULLs and overwriting the replaceable attributes."""
    collected = Values()
    assignments: List[ast.Assignment] = []
    positions = db.table(entity.table.table_name).positions
    overwrite = {
        attribute.attribute_name
        for subject, prop in replaceable
        if subject == entity.uri
        and (attribute := entity.table.attribute_for_property(prop)) is not None
    }
    for name, value in values.items():
        existing = current[positions[name]]
        if existing is None or name in overwrite:
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
        if db.row_by_pk(table_name, key) is None:
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
