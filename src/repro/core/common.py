"""Shared pieces of the SPARQL/Update-to-SQL translation (Algorithm 1).

Provides the per-step building blocks the INSERT DATA and DELETE DATA
drivers compose:

* :class:`EntityRef` / :func:`identify_entity` — step 2: identify the
  target table and primary-key values from a subject URI;
* :class:`DataTemplate` — what both drivers build: a data block grouped
  by subject (step 1) and each :class:`SubjectGroup`'s triples
  classified into type / attribute / link-table triples
  (:meth:`SubjectGroup.classify`), once, for later requests of its
  shape to bind their values to, guarded by
  :meth:`DataTemplate.entities`;
* value conversion between RDF terms and SQL values according to the
  mapping and column types (used by steps 3 and 4): a look-up step,
  which a template makes once, and a convert step per term
  (:func:`term_to_sql_value` is the two);
* :class:`Values` — the one collector every translator puts a request's
  keys and values through: the SQL gets a parameter, the value goes into
  the vector, and what leaves the translator is the pair
  (:class:`repro.sql.ast.Bound`), so requests of one template share one
  statement shape;
* the helpers both drivers need exactly once: the ``WHERE pk = ...``
  condition addressing an entity's row (:meth:`EntityRef.pk_condition`)
  and a link triple's presence (:func:`link_row_exists`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import TranslationError, TypeMismatchError
from ..rdb.catalog import Column
from ..rdb.engine import Database
from ..rdb.types import BooleanType, DateType, FloatType, IntegerType, SQLType
from ..rdf.namespace import RDF_TYPE
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
    Variable,
    double_lexical,
)
from ..r3m.model import AttributeMapping, DatabaseMapping, LinkTableMapping, TableMapping
from ..sparql.algebra import Solution
from ..sql import ast

__all__ = [
    "Values",
    "EntityRef",
    "SubjectGroup",
    "DataTemplate",
    "SubjectReader",
    "identify_entity",
    "term_to_sql_value",
    "value_converter",
    "sql_value_to_term",
    "coerce_pattern_values",
    "link_row_exists",
]


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
    return _coerce_key(
        table_mapping.table_name,
        _key_coercers(db, table_mapping),
        raw_values,
        subject,
    )


#: (attribute, its column type's coerce) per attribute of a URI pattern
_Coercers = List[Tuple[str, Callable[[Any, str], Any]]]


def _key_coercers(db: Database, table_mapping: TableMapping) -> _Coercers:
    """The look-up step of :func:`coerce_pattern_values`."""
    schema_table = db.table(table_mapping.table_name)
    return [
        (attr, schema_table.column(attr).sql_type.coerce)
        for attr in table_mapping.uri_pattern.attributes
    ]


def _coerce_key(
    table_name: str,
    coercers: _Coercers,
    raw_values: Dict[str, str],
    subject: URIRef,
) -> Dict[str, Any]:
    """The convert step of :func:`coerce_pattern_values`."""
    coerced: Dict[str, Any] = {}
    for attr, coerce in coercers:
        raw = raw_values[attr]
        try:
            coerced[attr] = coerce(raw, attr)
        except TypeMismatchError as exc:
            raise TranslationError(
                f"URI {subject.value}: pattern value {raw!r} is invalid for "
                f"{table_name}.{attr}: {exc}",
                code=TranslationError.TYPE_MISMATCH,
                details={
                    "subject": subject.value,
                    "table": table_name,
                    "attribute": attr,
                    "value": raw,
                },
            ) from exc
    return coerced


# ---------------------------------------------------------------------------
# data blocks: subject groups and the template they make
# ---------------------------------------------------------------------------

class SubjectGroup:
    """One subject's triples of a data block (steps 1-3), classified
    once with a converter per value, for a template to bind.

    Terms are kept as the block writes them — a constant, or a variable
    (a placeholder of a kept shape, a client's variable) that the
    solution the block is bound with reads — so a template of the block
    can be bound to other values.  Each operation's group adds what its
    statements need.
    """

    __slots__ = ("sources", "pairs", "error", "entity", "table", "pk",
                 "types", "attributes", "links")

    def __init__(self, source: Term) -> None:
        #: the distinct terms the block writes this subject as
        self.sources: List[Term] = [source]
        #: (predicate, object) of each of the subject's triples, as written
        self.pairs: List[Tuple[Term, Term]] = []
        #: the identification or classification error of the group: a
        #: bind raises it when it reaches the group, where the
        #: translation of the block as written raises it
        self.error: Optional[TranslationError] = None
        #: the table and key the subject resolved to (step 2)
        self.entity: Optional[EntityRef] = None
        #: declared rdf:type objects (usually zero or one)
        self.types: List[Term] = []
        #: (attribute name, object term, converter) per attribute triple
        self.attributes: List[Tuple[str, Term, Callable[[Object], Any]]] = []
        #: (link mapping, object term, key converter) per link triple
        self.links: List[Tuple[LinkTableMapping, Term, Callable[[Object], Any]]] = []

    def classify(
        self, mapping: DatabaseMapping, db: Database, solution: Solution
    ) -> None:
        """Steps 2-3 (structural part): identify the table and classify
        each triple as type / attribute / link, rejecting unknown
        properties."""
        source = self.sources[0]
        entity = self.entity = identify_entity(
            mapping, db, solution.get(source, source)
        )
        table = entity.table
        #: the subject's table and its key columns
        self.table = table.table_name
        self.pk = db.table(self.table).primary_key

        for predicate, obj in self.pairs:
            predicate = solution.get(predicate, predicate)
            if predicate == RDF_TYPE:
                self.types.append(obj)
                obj = solution.get(obj, obj)
                if obj != table.maps_to_class:
                    raise TranslationError(
                        f"subject {entity.uri.value} is mapped to table "
                        f"{table.table_name!r} (class {table.maps_to_class}), but "
                        f"the request types it as {obj}",
                        code=TranslationError.CLASS_MISMATCH,
                        details={
                            "subject": entity.uri.value,
                            "table": table.table_name,
                            "expected": str(table.maps_to_class),
                            "actual": str(obj),
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
                self.links.append((link, obj, _link_converter(mapping, db, link)))
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
            self.attributes.append((
                attribute.attribute_name,
                obj,
                value_converter(mapping, db, table, attribute),
            ))


class DataTemplate:
    """A data block (INSERT DATA / DELETE DATA) translated for the terms
    it was built with, to be bound to the terms of other requests of its
    shape.

    Every structural decision of Algorithm 1 — which triples form a
    group, which table a group's subject names, what each triple is
    (type, attribute, link), which attributes an INSERT lacks, how the
    statements sort — depends on predicates, classes and tables, not on
    values.  The one value that decides is the subject: its table follows
    from its URI.  :meth:`entities` is the guard that the terms of a
    request make the same decisions; where they do not, the caller builds
    the template afresh from them.  Subclasses name their
    :class:`SubjectGroup` and add what their operation reads from rows
    and values in ``bind(db, solution, entities)``.
    """

    group = SubjectGroup

    def __init__(
        self,
        mapping: DatabaseMapping,
        db: Database,
        triples: Tuple[Triple, ...],
        solution: Solution,
    ) -> None:
        # Step 1: group the triples by equal subject — the subject each
        # one names under ``solution`` — in the order subjects first
        # appear.
        groups: Dict[Term, SubjectGroup] = {}
        for subject, predicate, obj in triples:
            value = solution.get(subject, subject)
            group = groups.get(value)
            if group is None:
                group = groups[value] = self.group(subject)
            elif subject not in group.sources:
                group.sources.append(subject)
            group.pairs.append((predicate, obj))
        self.groups: List[SubjectGroup] = list(groups.values())
        #: False when a group failed: such a template translates the
        #: terms it was built with, and only those
        self.reusable = True
        for group in self.groups:
            try:
                group.classify(mapping, db, solution)
            except TranslationError as exc:
                group.error = exc
                self.reusable = False
        #: the terms the template was built with
        self._solution = solution
        self._pinned: Optional[Tuple[Tuple[Term, Term], ...]] = None
        self._readers: Optional[List[SubjectReader]] = None

    def built_entities(self) -> List[Optional[EntityRef]]:
        """The entities of the terms the template was built with."""
        return [group.entity for group in self.groups]

    def entities(
        self, mapping: DatabaseMapping, db: Database, solution: Solution
    ) -> Optional[List[EntityRef]]:
        """The entities of the groups under ``solution``, or None where
        its terms would not translate as the template was built: a
        structural variable binds another term, a subject names another
        table (or no row key at all), or two groups name one subject."""
        pinned = self._pinned
        if pinned is None:
            pinned = self._pinned = self._structural_variables()
        for term, value in pinned:
            if solution.get(term) != value:
                return None
        readers = self._readers
        if readers is None:
            readers = self._readers = [
                SubjectReader(mapping, db, group.entity.table) for group in self.groups
            ]
        entities: List[EntityRef] = []
        for group, reader in zip(self.groups, readers):
            sources = group.sources
            uri = solution.get(sources[0], sources[0])
            for source in sources[1:]:
                if solution.get(source, source) != uri:
                    return None
            key_values = reader.key_values(uri)
            if key_values is None:
                return None
            entities.append(EntityRef(uri, group.entity.table, key_values))
        if len(entities) > 1 and len({e.uri for e in entities}) < len(entities):
            return None
        return entities

    def _structural_variables(self) -> Tuple[Tuple[Term, Term], ...]:
        """The variables in a structural position (a predicate, an
        rdf:type object) and the terms the template was built with."""
        built = self._solution
        return tuple(
            (term, built.get(term))
            for group in self.groups
            for term in (*(p for p, _ in group.pairs), *group.types)
            if isinstance(term, Variable)
        )


class _KeyReader:
    """What :func:`identify_entity` asks of one candidate table, its
    look-ups made once: the key values the table's URI pattern reads from
    a URI, coerced to the column types — None where the pattern does not
    match or a value does not coerce."""

    __slots__ = ("table_mapping", "coercers")

    def __init__(self, db: Database, table_mapping: TableMapping) -> None:
        self.table_mapping = table_mapping
        self.coercers = _key_coercers(db, table_mapping)

    def read(self, uri: URIRef) -> Optional[Dict[str, Any]]:
        table_mapping = self.table_mapping
        raw = table_mapping.uri_pattern.match(uri)
        if raw is None:
            return None
        try:
            return _coerce_key(table_mapping.table_name, self.coercers, raw, uri)
        except TranslationError:
            return None


class SubjectReader:
    """:func:`identify_entity` for the subjects of one table, its look-ups
    made once: a kept translation — a data template's subject group, a
    query's subject placeholder — binds another subject through it."""

    __slots__ = ("own", "ahead")

    def __init__(
        self, mapping: DatabaseMapping, db: Database, table: TableMapping
    ) -> None:
        ordered = mapping.tables_by_specificity()
        self.own = _KeyReader(db, table)
        #: the tables :func:`identify_entity` tries before this one
        self.ahead = [_KeyReader(db, other) for other in ordered[: ordered.index(table)]]

    def key_values(self, subject: Term) -> Optional[Dict[str, Any]]:
        """The key values of the row ``subject`` names, as
        :func:`identify_entity` reads them, where it names a row of this
        table; None where it names another table's row (a more specific
        pattern reads it first), or none."""
        if type(subject) is not URIRef:
            return None
        key_values = self.own.read(subject)
        if key_values is None:
            return None
        for other in self.ahead:
            if other.read(subject) is not None:
                return None
        return key_values

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
    return value_converter(mapping, db, table, attribute)(obj)


def value_converter(
    mapping: DatabaseMapping,
    db: Database,
    table: TableMapping,
    attribute: AttributeMapping,
) -> Callable[[Object], Any]:
    """:func:`term_to_sql_value` for one attribute in two steps: the
    look-ups (column type, value pattern, referenced table) are made
    here, and the conversion of a term is the function returned, which a
    template keeps for every request it binds."""
    table_name = table.table_name
    name = attribute.attribute_name
    coerce = db.table(table_name).column(name).sql_type.coerce
    if attribute.is_object_property:
        referenced = attribute.references()
        if referenced is None:
            def unsupported(obj: Object) -> Any:
                raise TranslationError(
                    f"attribute {table_name}.{name} is "
                    "an object property without a foreign key",
                    code=TranslationError.UNSUPPORTED,
                )
            return unsupported
        return _key_converter(
            mapping, db, referenced, attribute.property,
            {"table": table_name, "attribute": name},
        )
    pattern = attribute.value_pattern
    prop = attribute.property

    def convert(obj: Object) -> Any:
        if isinstance(obj, Literal):
            try:
                return coerce(obj.to_python(), name)
            except (TypeMismatchError, ValueError) as exc:
                raise TranslationError(
                    f"literal {obj.n3()} cannot be stored in "
                    f"{table_name}.{name}: {exc}",
                    code=TranslationError.TYPE_MISMATCH,
                    details={
                        "table": table_name,
                        "attribute": name,
                        "value": obj.lexical,
                    },
                ) from exc
        if not isinstance(obj, URIRef):
            raise TranslationError(
                f"property {prop} is a data property; expected a "
                f"literal object, got {obj.n3() if isinstance(obj, Term) else obj!r}",
                code=TranslationError.TYPE_MISMATCH,
                details={
                    "table": table_name,
                    "attribute": name,
                    "property": str(prop),
                },
            )
        # Data attribute holding URI-valued terms (e.g. foaf:mbox →
        # email): extract the stored value through the value pattern, or
        # store the full URI string when no pattern is declared.
        if pattern is not None:
            extracted = pattern.match(obj)
            if extracted is None:
                raise TranslationError(
                    f"value {obj.value} does not match the value pattern "
                    f"{pattern.pattern!r} of {table_name}.{name}",
                    code=TranslationError.TYPE_MISMATCH,
                    details={
                        "table": table_name,
                        "attribute": name,
                        "value": obj.value,
                    },
                )
            raw_value = extracted[pattern.attributes[0]]
        else:
            raw_value = obj.value
        try:
            return coerce(raw_value, name)
        except TypeMismatchError as exc:
            raise TranslationError(
                f"URI value {obj.value} cannot be stored in "
                f"{table_name}.{name}: {exc}",
                code=TranslationError.TYPE_MISMATCH,
                details={
                    "table": table_name,
                    "attribute": name,
                    "value": obj.value,
                },
            ) from exc

    return convert


def _link_converter(
    mapping: DatabaseMapping, db: Database, link: LinkTableMapping
) -> Callable[[Object], Any]:
    """The key of the row the object of a ``link`` triple names."""
    return _key_converter(
        mapping, db, link.object_table(), link.property,
        {"property": str(link.property)},
    )


def _key_converter(
    mapping: DatabaseMapping,
    db: Database,
    referenced_table: str,
    prop: URIRef,
    referrer: Dict[str, str],
) -> Callable[[Object], Any]:
    """The primary-key value of the ``referenced_table`` row that the
    object URI of an object-property or link triple names, in two steps
    as :func:`value_converter`.

    ``referrer`` identifies the referencing side in the error feedback
    when the object is no URI at all: table and attribute for a
    foreign-key attribute, the property for a link table.
    """
    target = mapping.table(referenced_table)
    pattern = target.uri_pattern
    coercers = _key_coercers(db, target)
    pk = db.table(referenced_table).primary_key

    def convert(obj: Object) -> Any:
        if not isinstance(obj, URIRef):
            raise TranslationError(
                f"property {prop} takes an instance URI as its object, got "
                f"{obj.n3() if isinstance(obj, Term) else obj!r}",
                code=TranslationError.TYPE_MISMATCH,
                details=referrer,
            )
        values = pattern.match(obj)
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
        coerced = _coerce_key(target.table_name, coercers, values, obj)
        if len(pk) != 1:
            raise TranslationError(
                f"referenced table {referenced_table!r} must have a single-column "
                "primary key for object-property mapping",
                code=TranslationError.UNSUPPORTED,
            )
        return coerced[pk[0]]

    return convert


def link_row_exists(
    db: Database, link: LinkTableMapping, subject_key: Any, object_key: Any
) -> bool:
    """Does the link table hold the (subject key, object key) pair?"""
    table_data = db.table_data(link.table_name)
    position = table_data.table.positions[link.object_attribute.attribute_name]
    return any(
        table_data.rows[rowid][position] == object_key
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


class LiteralForm(NamedTuple):
    """How a column type's values read as literals: a value's canonical
    lexical form and its datatype.  The dump, a translated query's
    answer step and its JSON writer all read a column through its form
    (:func:`literal_form`), looked up once per column, not per value."""

    #: value -> canonical lexical form
    lexical: Callable[[Any], str]
    #: the datatype IRI (None: a plain literal, or picked per value)
    datatype: Optional[str] = None
    #: DATE holds dates and date-times: lexical form -> its datatype
    datatype_of: Optional[Callable[[str], str]] = None

    def literal(self, value: Any) -> Literal:
        lexical = self.lexical(value)
        if self.datatype_of is not None:
            return _literal(lexical, self.datatype_of(lexical))
        return _literal(lexical, self.datatype)


def _integer_lexical(value: Any) -> str:
    return str(int(value))


def _float_lexical(value: Any) -> str:
    return double_lexical(float(value))


def _boolean_lexical(value: Any) -> str:
    return "true" if value else "false"


def _date_datatype(lexical: str) -> str:
    return XSD_DATETIME if ("T" in lexical or " " in lexical) else XSD_DATE


_INTEGER_FORM = LiteralForm(_integer_lexical, XSD_INTEGER)
_FLOAT_FORM = LiteralForm(_float_lexical, XSD_DOUBLE)
_BOOLEAN_FORM = LiteralForm(_boolean_lexical, XSD_BOOLEAN)
_DATE_FORM = LiteralForm(str, datatype_of=_date_datatype)
_PLAIN_FORM = LiteralForm(str)


def literal_form(sql_type: SQLType) -> LiteralForm:
    """The canonical literal form of a column type's values."""
    if isinstance(sql_type, IntegerType):
        return _INTEGER_FORM
    if isinstance(sql_type, FloatType):
        return _FLOAT_FORM
    if isinstance(sql_type, BooleanType):
        return _BOOLEAN_FORM
    if isinstance(sql_type, DateType):
        return _DATE_FORM
    return _PLAIN_FORM


def literal_for_column(sql_type: SQLType, value: Any) -> Literal:
    """Canonical literal form for a column type (shared with baselines)."""
    return literal_form(sql_type).literal(value)
