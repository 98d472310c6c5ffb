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

Translation is two steps.  :class:`DeleteTemplate` is built once per
block shape: the groups and their tables, one value converter per
attribute and link, which attributes the block deletes, the verdicts a
partial delete meets (a NOT NULL attribute, the ``rdf:type`` triple) and
the ``DELETE`` / ``UPDATE ... SET NULL`` shapes.
:meth:`DeleteTemplate.bind` is what a request pays: it reads the values,
looks each row up by its key, checks that the triples hold and chooses
between the complete and the partial delete.
:func:`translate_delete_data` is the two steps over concrete triples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import TranslationError
from ..rdb.engine import Database
from ..rdb.types import Row
from ..rdf.terms import Term, Triple
from ..r3m.model import DatabaseMapping, LinkTableMapping
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

__all__ = ["DeleteTemplate", "translate_delete_data"]


def translate_delete_data(
    mapping: DatabaseMapping,
    db: Database,
    triples: Tuple[Triple, ...],
) -> List[ast.Bound]:
    """Translate a DELETE DATA payload to sorted SQL statements."""
    template = DeleteTemplate(mapping, db, triples, {})
    return template.bind(db, {}, template.built_entities())


class _Group(SubjectGroup):
    """What a DELETE DATA group binds, prepared once."""

    __slots__ = ("deleted", "_remaining", "delete", "set_null")

    def __init__(self, source: Term) -> None:
        super().__init__(source)
        #: (attribute, row position) of the mapped non-key attributes
        self._remaining: Optional[List[Tuple[str, int]]] = None
        self.delete: Optional[ast.Delete] = None
        self.set_null: Optional[ast.Update] = None

    def classify(
        self, mapping: DatabaseMapping, db: Database, solution: Solution
    ) -> None:
        super().classify(mapping, db, solution)
        #: the attributes the block deletes, in the order it names them
        self.deleted = dict.fromkeys([name for name, _, _ in self.attributes])

    def covers(self, db: Database, current: Row) -> bool:
        """Does the request delete *all* non-null mapped data of the
        stored row ``current``?

        Key attributes carried by the URI pattern don't count (they exist
        as long as the row does), and only attributes mapped to
        properties can be expressed as triples at all.  The rdf:type
        triple is implied by the row's existence, so it does not enter
        the comparison; "equals all remaining (i.e., non-null) data" is
        plain set equality over the mapped non-key attributes.
        """
        remaining = self._remaining
        if remaining is None:
            table_mapping = self.entity.table
            pattern_attrs = set(table_mapping.uri_pattern.attributes)
            positions = db.table(self.table).positions
            remaining = self._remaining = [
                (a.attribute_name, positions[a.attribute_name])
                for a in table_mapping.mapped_attributes()
                if a.attribute_name not in pattern_attrs
            ]
        return {
            name for name, position in remaining if current[position] is not None
        } == self.deleted.keys()

    def not_null(self, db: Database) -> Optional[str]:
        """The first deleted attribute a partial delete cannot set NULL."""
        schema_table = db.table(self.table)
        for name in self.deleted:
            if schema_table.column(name).not_null or schema_table.is_primary_key(name):
                return name
        return None

    def delete_row(self, db: Database, entity: EntityRef, pk: Tuple) -> ast.Bound:
        if self.delete is None:
            self.delete = ast.Delete(
                table=self.table, where=entity.pk_condition(db, Values())
            )
        return ast.Bound(self.delete, pk)

    def null_out(
        self, db: Database, entity: EntityRef, pk: Tuple, deleted: Dict[str, Any]
    ) -> ast.Bound:
        """Partial delete → ``UPDATE ... SET attr = NULL WHERE pk AND
        attr = old-value``, the guarded form of Listing 18."""
        if self.set_null is None:
            collected = Values()
            condition = entity.pk_condition(db, collected)
            for name, old_value in deleted.items():
                condition = ast.BinaryOp(
                    "AND",
                    condition,
                    ast.BinaryOp(
                        "=", ast.ColumnRef(name), collected.param(old_value)
                    ),
                )
            self.set_null = ast.Update(
                table=self.table,
                assignments=tuple(
                    ast.Assignment(name, ast.Null()) for name in deleted
                ),
                where=condition,
            )
        return ast.Bound(self.set_null, (*pk, *deleted.values()))


class DeleteTemplate(DataTemplate):
    """A DELETE DATA block translated once (see the module docstring)."""

    group = _Group

    def bind(
        self,
        db: Database,
        solution: Solution,
        entities: List[Optional[EntityRef]],
    ) -> List[ast.Bound]:
        """The sorted statements of the block under ``solution``, whose
        subjects are ``entities`` (:meth:`~repro.core.common.
        DataTemplate.entities`)."""
        statements: List[ast.Bound] = []
        for group, entity in zip(self.groups, entities):
            if group.error is not None:
                raise group.error
            pk = tuple([entity.key_values[column] for column in group.pk])
            for link, obj, read in group.links:
                statements.append(
                    _link_delete(db, link, pk[0], read(solution.get(obj, obj)))
                )
            if not group.attributes and not group.types:
                continue

            current = db.row_by_pk(group.table, pk)
            if current is None:
                raise TranslationError(
                    f"entity {entity.uri.value} does not exist in table "
                    f"{group.table!r}",
                    code=TranslationError.ENTITY_MISSING,
                    details={"subject": entity.uri.value, "table": group.table},
                )
            deleted = _verify_triples_hold(db, group, entity, solution, current)
            if group.covers(db, current):
                statements.append(group.delete_row(db, entity, pk))
                continue
            if group.types:
                raise TranslationError(
                    f"cannot delete the rdf:type triple of {entity.uri.value} "
                    "while other data remains: a row cannot lose its table",
                    code=TranslationError.CONSTRAINT_VIOLATION,
                    details={"subject": entity.uri.value, "table": group.table},
                )
            not_null = group.not_null(db)
            if not_null is not None:
                raise TranslationError(
                    f"cannot set NOT NULL attribute "
                    f"{group.table}.{not_null} to NULL; delete the "
                    "complete entity instead",
                    code=TranslationError.NOT_NULL_DELETE,
                    details={
                        "subject": entity.uri.value,
                        "table": group.table,
                        "attribute": not_null,
                    },
                )
            statements.append(group.null_out(db, entity, pk, deleted))
        return sort_statements(statements, db.schema)


def _verify_triples_hold(
    db: Database,
    group: _Group,
    entity: EntityRef,
    solution: Solution,
    current: Row,
) -> Dict[str, Any]:
    """Check every attribute triple is present in the stored row
    ``current``; return {attr: old value}."""
    deleted: Dict[str, Any] = {}
    positions = db.table(group.table).positions
    for name, obj, read in group.attributes:
        value = read(solution.get(obj, obj))
        existing = current[positions[name]]
        if existing is None or existing != value:
            raise TranslationError(
                f"triple to delete does not hold: "
                f"{group.table}.{name} of {entity.uri.value} is "
                f"{existing!r}, not {value!r}",
                code=TranslationError.TRIPLE_MISSING,
                details={
                    "subject": entity.uri.value,
                    "table": group.table,
                    "attribute": name,
                    "expected": value,
                    "actual": existing,
                },
            )
        deleted[name] = value
    return deleted


def _link_delete(
    db: Database, link: LinkTableMapping, subject_key: Any, object_key: Any
) -> ast.Bound:
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
