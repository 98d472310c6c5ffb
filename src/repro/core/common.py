"""Shared pieces of the SPARQL/Update-to-SQL translation (Algorithm 1).

Provides the per-step building blocks the INSERT DATA and DELETE DATA
drivers compose:

* :func:`group_by_subject` — step 1: group triples by equal subjects;
* :class:`EntityRef` / :func:`identify_entity` — step 2: identify the
  target table and primary-key values from a subject URI;
* value conversion between RDF terms and SQL values according to the
  mapping and column types (used by steps 3 and 4);
* classification of a subject group's triples into type / attribute /
  link-table triples;
* :class:`Values` — the one collector every translator puts a request's
  keys and values through: the SQL gets a parameter, the value goes into
  the vector, and what leaves the translator is the pair
  (:class:`repro.sql.ast.Bound`), so requests of one template share one
  statement shape;
* the helpers both drivers need exactly once: the ``WHERE pk = ...``
  condition addressing an entity's row (:meth:`EntityRef.pk_condition`),
  object URI → key of the referenced table (:func:`object_uri_to_key`),
  and a link triple's key pair and presence (:func:`link_keys`,
  :func:`link_row_exists`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import TranslationError, TypeMismatchError
from ..rdb.catalog import Column
from ..rdb.engine import Database
from ..rdb.types import BooleanType, DateType, FloatType, IntegerType, SQLType
from ..rdf.namespace import RDF
from ..rdf.terms import (
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DOUBLE,
    XSD_INTEGER,
    BNode,
    Literal,
    Object,
    Term,
    Triple,
    URIRef,
    double_lexical,
)
from ..r3m.model import AttributeMapping, DatabaseMapping, LinkTableMapping, TableMapping
from ..sql import ast

__all__ = [
    "Values",
    "EntityRef",
    "SubjectGroup",
    "group_by_subject",
    "identify_entity",
    "classify_group",
    "term_to_sql_value",
    "sql_value_to_term",
    "coerce_pattern_values",
    "object_uri_to_key",
    "link_keys",
    "link_row_exists",
]


def group_by_subject(triples: Tuple[Triple, ...]) -> List[Tuple[Term, List[Triple]]]:
    """Algorithm 1 step 1: group triples by equal subject, preserving the
    order in which subjects first appear."""
    groups: Dict[Term, List[Triple]] = {}
    for triple in triples:
        groups.setdefault(triple.subject, []).append(triple)
    return list(groups.items())


class Values:
    """The values of one statement under translation.

    ``param(value)`` is how a key or value of the request enters the SQL:
    it is appended to the vector and a :class:`~repro.sql.ast.Parameter`
    takes its place in the statement.  ``NULL`` is part of the shape
    (``None`` never travels as a value).  ``bind(shape)`` closes the
    statement.
    """

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: List[Any] = []

    def param(self, value: Any) -> ast.Expression:
        if value is None:
            return ast.Null()
        self._values.append(value)
        return ast.Parameter(len(self._values) - 1)

    def bind(self, shape: ast.Statement) -> ast.Bound:
        return ast.Bound(shape, tuple(self._values))


@dataclass
class EntityRef:
    """A subject resolved to a table and primary-key values (step 2)."""

    uri: URIRef
    table: TableMapping
    #: URI-pattern attribute values coerced to their column types.
    key_values: Dict[str, Any]

    def pk_tuple(self, db: Database) -> Tuple[Any, ...]:
        schema_table = db.table(self.table.table_name)
        return tuple(self.key_values[c] for c in schema_table.primary_key)

    def exists(self, db: Database) -> bool:
        return self.current_row(db) is not None

    def current_row(self, db: Database) -> Optional[Dict[str, Any]]:
        return db.get_row_by_pk(self.table.table_name, self.pk_tuple(db))

    def pk_condition(self, db: Database, values: Values) -> ast.Expression:
        """``pk1 = v1 AND pk2 = v2 ...`` addressing this entity's row."""
        condition: Optional[ast.Expression] = None
        for column in db.table(self.table.table_name).primary_key:
            clause = ast.BinaryOp(
                "=", ast.ColumnRef(column), values.param(self.key_values[column])
            )
            condition = clause if condition is None else ast.BinaryOp("AND", condition, clause)
        if condition is None:
            raise TranslationError(
                f"table {self.table.table_name!r} has no primary key; updates "
                "cannot address rows"
            )
        return condition


def identify_entity(
    mapping: DatabaseMapping, db: Database, subject: Term
) -> EntityRef:
    """Resolve a subject URI to (table, key values) or raise.

    Blank-node subjects cannot be mapped to rows (no key information), so
    they are rejected with a rich error — the paper's mapping mints URIs
    for every entity.
    """
    if isinstance(subject, BNode):
        raise TranslationError(
            f"blank node subject {subject} cannot be mapped to a table row; "
            "use an instance URI matching a uriPattern",
            code=TranslationError.UNKNOWN_SUBJECT,
            details={"subject": str(subject)},
        )
    if not isinstance(subject, URIRef):
        raise TranslationError(
            f"subject must be a URI, got {subject!r}",
            code=TranslationError.UNKNOWN_SUBJECT,
            details={"subject": str(subject)},
        )
    candidates = mapping.identify_candidates(subject)
    if not candidates:
        raise TranslationError(
            f"subject {subject.value} matches no uriPattern in the mapping",
            code=TranslationError.UNKNOWN_SUBJECT,
            details={"subject": subject.value},
        )
    # Most specific pattern whose extracted values fit the column types
    # wins (e.g. "pubtype4" structurally matches pub%%id%% too, but
    # "type4" is no INTEGER, so the pubtype table is the only valid match).
    last_error: Optional[TranslationError] = None
    for table_mapping, raw_values in candidates:
        try:
            key_values = coerce_pattern_values(
                db, table_mapping, raw_values, subject
            )
        except TranslationError as exc:
            last_error = exc
            continue
        return EntityRef(uri=subject, table=table_mapping, key_values=key_values)
    assert last_error is not None
    raise last_error


def coerce_pattern_values(
    db: Database,
    table_mapping: TableMapping,
    raw_values: Dict[str, str],
    subject: URIRef,
) -> Dict[str, Any]:
    """Coerce URI-pattern-extracted strings to the column types."""
    schema_table = db.table(table_mapping.table_name)
    coerced: Dict[str, Any] = {}
    for attr, raw in raw_values.items():
        column = schema_table.column(attr)
        try:
            coerced[attr] = column.sql_type.coerce(raw, attr)
        except TypeMismatchError as exc:
            raise TranslationError(
                f"URI {subject.value}: pattern value {raw!r} is invalid for "
                f"{table_mapping.table_name}.{attr}: {exc}",
                code=TranslationError.TYPE_MISMATCH,
                details={
                    "subject": subject.value,
                    "table": table_mapping.table_name,
                    "attribute": attr,
                    "value": raw,
                },
            ) from exc
    return coerced


@dataclass
class SubjectGroup:
    """One subject's triples, classified for translation (steps 2-3)."""

    entity: EntityRef
    #: declared rdf:type objects (usually zero or one)
    types: List[Term] = field(default_factory=list)
    #: attribute triples: (attribute mapping, object term)
    attribute_values: List[Tuple[AttributeMapping, Object]] = field(
        default_factory=list
    )
    #: link-table triples: (link mapping, object term)
    link_values: List[Tuple[LinkTableMapping, Object]] = field(default_factory=list)


def classify_group(
    mapping: DatabaseMapping,
    db: Database,
    subject: Term,
    triples: List[Triple],
) -> SubjectGroup:
    """Steps 2-3 (structural part): identify the table and classify each
    triple as type / attribute / link, rejecting unknown properties."""
    entity = identify_entity(mapping, db, subject)
    group = SubjectGroup(entity=entity)
    table = entity.table

    for triple in triples:
        predicate = triple.predicate
        if predicate == RDF.type:
            group.types.append(triple.object)
            if triple.object != table.maps_to_class:
                raise TranslationError(
                    f"subject {entity.uri.value} is mapped to table "
                    f"{table.table_name!r} (class {table.maps_to_class}), but "
                    f"the request types it as {triple.object}",
                    code=TranslationError.CLASS_MISMATCH,
                    details={
                        "subject": entity.uri.value,
                        "table": table.table_name,
                        "expected": str(table.maps_to_class),
                        "actual": str(triple.object),
                    },
                )
            continue
        link = mapping.link_for_property(predicate)
        if link is not None:
            if link.subject_table() != table.table_name:
                raise TranslationError(
                    f"property {predicate} links instances of "
                    f"{link.subject_table()!r}, not {table.table_name!r}",
                    code=TranslationError.UNKNOWN_PROPERTY,
                    details={
                        "subject": entity.uri.value,
                        "property": str(predicate),
                        "table": table.table_name,
                    },
                )
            group.link_values.append((link, triple.object))
            continue
        attribute = table.attribute_for_property(predicate)
        if attribute is None:
            raise TranslationError(
                f"property {predicate} is not mapped for table "
                f"{table.table_name!r}",
                code=TranslationError.UNKNOWN_PROPERTY,
                details={
                    "subject": entity.uri.value,
                    "property": str(predicate),
                    "table": table.table_name,
                },
            )
        group.attribute_values.append((attribute, triple.object))
    return group


# ---------------------------------------------------------------------------
# value conversion
# ---------------------------------------------------------------------------

def term_to_sql_value(
    mapping: DatabaseMapping,
    db: Database,
    table: TableMapping,
    attribute: AttributeMapping,
    obj: Object,
) -> Any:
    """Convert a triple object into the SQL value for an attribute.

    Data properties take the literal's lexical value coerced to the column
    type; object properties take the primary-key value extracted from the
    object URI via the referenced table's URI pattern.
    """
    column = db.table(table.table_name).column(attribute.attribute_name)
    if attribute.is_object_property:
        referenced = attribute.references()
        if referenced is None:
            raise TranslationError(
                f"attribute {table.table_name}.{attribute.attribute_name} is "
                "an object property without a foreign key",
                code=TranslationError.UNSUPPORTED,
            )
        return object_uri_to_key(
            mapping, db, referenced, obj, attribute.property,
            {"table": table.table_name, "attribute": attribute.attribute_name},
        )

    if isinstance(obj, URIRef):
        # Data attribute holding URI-valued terms (e.g. foaf:mbox →
        # email): extract the stored value through the value pattern, or
        # store the full URI string when no pattern is declared.
        if attribute.value_pattern is not None:
            extracted = attribute.value_pattern.match(obj)
            if extracted is None:
                raise TranslationError(
                    f"value {obj.value} does not match the value pattern "
                    f"{attribute.value_pattern.pattern!r} of "
                    f"{table.table_name}.{attribute.attribute_name}",
                    code=TranslationError.TYPE_MISMATCH,
                    details={
                        "table": table.table_name,
                        "attribute": attribute.attribute_name,
                        "value": obj.value,
                    },
                )
            raw_value = extracted[attribute.value_pattern.attributes[0]]
        else:
            raw_value = obj.value
        try:
            return column.sql_type.coerce(raw_value, attribute.attribute_name)
        except TypeMismatchError as exc:
            raise TranslationError(
                f"URI value {obj.value} cannot be stored in "
                f"{table.table_name}.{attribute.attribute_name}: {exc}",
                code=TranslationError.TYPE_MISMATCH,
                details={
                    "table": table.table_name,
                    "attribute": attribute.attribute_name,
                    "value": obj.value,
                },
            ) from exc
    if not isinstance(obj, Literal):
        raise TranslationError(
            f"property {attribute.property} is a data property; expected a "
            f"literal object, got {obj.n3() if isinstance(obj, Term) else obj!r}",
            code=TranslationError.TYPE_MISMATCH,
            details={
                "table": table.table_name,
                "attribute": attribute.attribute_name,
                "property": str(attribute.property),
            },
        )
    try:
        return column.sql_type.coerce(obj.to_python(), attribute.attribute_name)
    except (TypeMismatchError, ValueError) as exc:
        raise TranslationError(
            f"literal {obj.n3()} cannot be stored in "
            f"{table.table_name}.{attribute.attribute_name}: {exc}",
            code=TranslationError.TYPE_MISMATCH,
            details={
                "table": table.table_name,
                "attribute": attribute.attribute_name,
                "value": obj.lexical,
            },
        ) from exc


def object_uri_to_key(
    mapping: DatabaseMapping,
    db: Database,
    referenced_table: str,
    obj: Object,
    prop: URIRef,
    referrer: Dict[str, str],
) -> Any:
    """The primary-key value of the ``referenced_table`` row that the
    object URI of an object-property or link triple names.

    ``referrer`` identifies the referencing side in the error feedback
    when ``obj`` is no URI at all: table and attribute for a foreign-key
    attribute, the property for a link table.
    """
    if not isinstance(obj, URIRef):
        raise TranslationError(
            f"property {prop} takes an instance URI as its object, got "
            f"{obj.n3() if isinstance(obj, Term) else obj!r}",
            code=TranslationError.TYPE_MISMATCH,
            details=referrer,
        )
    target = mapping.table(referenced_table)
    values = target.uri_pattern.match(obj)
    if values is None:
        raise TranslationError(
            f"object {obj.value} does not match the uriPattern of the "
            f"referenced table {referenced_table!r}",
            code=TranslationError.FK_TARGET_MISSING,
            details={
                "object": obj.value,
                "referenced_table": referenced_table,
            },
        )
    coerced = coerce_pattern_values(db, target, values, obj)
    pk = db.table(referenced_table).primary_key
    if len(pk) != 1:
        raise TranslationError(
            f"referenced table {referenced_table!r} must have a single-column "
            "primary key for object-property mapping",
            code=TranslationError.UNSUPPORTED,
        )
    return coerced[pk[0]]


def link_keys(
    mapping: DatabaseMapping,
    db: Database,
    link: LinkTableMapping,
    entity: EntityRef,
    obj: Object,
) -> Tuple[Any, Any]:
    """(subject key, object key) of the link-table row a link triple of
    ``entity`` stands for."""
    object_key = object_uri_to_key(
        mapping, db, link.object_table(), obj, link.property,
        {"property": str(link.property)},
    )
    return entity.pk_tuple(db)[0], object_key


def link_row_exists(
    db: Database, link: LinkTableMapping, subject_key: Any, object_key: Any
) -> bool:
    """Does the link table hold the (subject key, object key) pair?"""
    table_data = db.table_data(link.table_name)
    object_attr = link.object_attribute.attribute_name
    return any(
        table_data.rows[rowid].get(object_attr) == object_key
        for rowid in table_data.probe(
            (link.subject_attribute.attribute_name,), (subject_key,)
        )
    )


def sql_value_to_term(
    mapping: DatabaseMapping,
    table: TableMapping,
    attribute: AttributeMapping,
    value: Any,
    column: Column,
) -> Optional[Term]:
    """Convert a stored SQL value back to a triple object (dump/query path).

    Returns None for NULL (no triple).  Numeric/boolean/date columns emit
    typed literals; string columns emit plain literals, matching the form
    the paper's listings use.
    """
    if value is None:
        return None
    if attribute.is_object_property:
        target = mapping.table(attribute.references())
        return target.uri_pattern.format({target.uri_pattern.attributes[0]: value})
    if attribute.value_pattern is not None:
        return attribute.value_pattern.format(
            {attribute.value_pattern.attributes[0]: value}
        )
    return literal_for_column(column.sql_type, value)


_literal = Literal.canonical


def _integer_literal(value: Any) -> Literal:
    return _literal(str(int(value)), XSD_INTEGER)


def _float_literal(value: Any) -> Literal:
    return _literal(double_lexical(float(value)), XSD_DOUBLE)


def _boolean_literal(value: Any) -> Literal:
    return _literal("true" if value else "false", XSD_BOOLEAN)


def _date_literal(value: Any) -> Literal:
    text = str(value)
    return _literal(
        text, XSD_DATETIME if ("T" in text or " " in text) else XSD_DATE
    )


def _plain_literal(value: Any) -> Literal:
    return _literal(str(value))


def literal_decoder(sql_type: SQLType) -> Callable[[Any], Literal]:
    """The canonical literal form of a column type's values, as a
    function of the value alone: a caller that decodes many values of
    one column looks at the type here, once, not once per value.  The
    dump and a translated query's answer step both decode through it."""
    if isinstance(sql_type, IntegerType):
        return _integer_literal
    if isinstance(sql_type, FloatType):
        return _float_literal
    if isinstance(sql_type, BooleanType):
        return _boolean_literal
    if isinstance(sql_type, DateType):
        return _date_literal
    return _plain_literal


def literal_for_column(sql_type: SQLType, value: Any) -> Literal:
    """Canonical literal form for a column type (shared with baselines)."""
    return literal_decoder(sql_type)(value)
