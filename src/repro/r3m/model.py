"""In-memory model of an R3M mapping (paper Section 4).

The model mirrors the four node kinds of the mapping language:

* :class:`DatabaseMapping` — the root ``r3m:DatabaseMap``: connection
  information, mapping-wide URI prefix, and the table maps.
* :class:`TableMapping` — ``r3m:TableMap``: a table mapped to an ontology
  class, with a URI pattern and attribute maps.
* :class:`AttributeMapping` — ``r3m:AttributeMap``: an attribute mapped to
  a data or object property, carrying its constraints.
* :class:`LinkTableMapping` — ``r3m:LinkTableMap``: an N:M link table
  mapped to an object property via subject/object attributes.

The model is the translator's working representation; it prebuilds lookup
indexes (property → attribute, class → table, URI pattern matching) that
Algorithm 1 consults on every operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import MappingError
from ..rdf.terms import URIRef
from .uripattern import URIPattern

__all__ = [
    "Constraint",
    "AttributeMapping",
    "TableMapping",
    "LinkTableMapping",
    "DatabaseMapping",
    "PRIMARY_KEY",
    "FOREIGN_KEY",
    "NOT_NULL",
    "DEFAULT",
    "CHECK",
]

PRIMARY_KEY = "primary-key"
FOREIGN_KEY = "foreign-key"
NOT_NULL = "not-null"
DEFAULT = "default"
#: Extension beyond the paper's four kinds: per-row CHECK constraints
#: (Section 8 names further constraints like assertions as future work).
CHECK = "check"

_KINDS = (PRIMARY_KEY, FOREIGN_KEY, NOT_NULL, DEFAULT, CHECK)


@dataclass(frozen=True)
class Constraint:
    """One constraint recorded on an attribute map.

    ``references`` names the referenced *table* for foreign keys;
    ``value`` carries the default for DEFAULT constraints.
    """

    kind: str
    references: Optional[str] = None
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MappingError(f"unknown constraint kind: {self.kind!r}")
        if self.kind == FOREIGN_KEY and not self.references:
            raise MappingError("foreign-key constraint requires a referenced table")


@dataclass
class AttributeMapping:
    """An attribute mapped to an ontology property (or unmapped, for link
    table attributes per Listing 5).

    ``value_pattern`` is a lexical transform for data attributes whose RDF
    representation is a URI rather than a literal: the paper's feasibility
    study maps the ``email`` column to ``foaf:mbox`` whose values are
    ``mailto:`` URIs, yet Listing 10 stores the bare address
    (``'hert@ifi.uzh.ch'``).  A pattern like ``mailto:%%email%%`` captures
    exactly that transform in both directions (store: match the URI and
    extract the value; dump: mint the URI from the stored value).
    """

    attribute_name: str
    property: Optional[URIRef] = None
    is_object_property: bool = False
    constraints: Tuple[Constraint, ...] = ()
    value_pattern: Optional["URIPattern"] = None

    # -- constraint accessors --------------------------------------------------

    def is_primary_key(self) -> bool:
        return any(c.kind == PRIMARY_KEY for c in self.constraints)

    def is_not_null(self) -> bool:
        return any(c.kind == NOT_NULL for c in self.constraints)

    def foreign_key(self) -> Optional[Constraint]:
        for constraint in self.constraints:
            if constraint.kind == FOREIGN_KEY:
                return constraint
        return None

    def references(self) -> Optional[str]:
        fk = self.foreign_key()
        return fk.references if fk else None

    def default(self) -> Optional[Constraint]:
        for constraint in self.constraints:
            if constraint.kind == DEFAULT:
                return constraint
        return None

    def has_default(self) -> bool:
        return self.default() is not None

    def is_required_on_insert(self) -> bool:
        """NOT NULL without DEFAULT → the client must supply a triple
        (paper Section 5.1, step 3)."""
        return self.is_not_null() and not self.has_default()


@dataclass
class TableMapping:
    """A table mapped to an ontology class."""

    table_name: str
    maps_to_class: URIRef
    uri_pattern: URIPattern
    attributes: List[AttributeMapping] = field(default_factory=list)
    #: table-level CHECK constraint expressions (SQL text), recorded so
    #: rejected updates can explain which business rule failed
    checks: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self._by_property: Dict[URIRef, AttributeMapping] = {}
        self._by_name: Dict[str, AttributeMapping] = {}
        for attribute in self.attributes:
            self._by_name[attribute.attribute_name] = attribute
            if attribute.property is not None:
                if attribute.property in self._by_property:
                    raise MappingError(
                        f"table {self.table_name!r}: property "
                        f"{attribute.property} mapped to multiple attributes"
                    )
                self._by_property[attribute.property] = attribute

    def attribute_for_property(self, prop: URIRef) -> Optional[AttributeMapping]:
        return self._by_property.get(prop)

    def attribute_by_name(self, name: str) -> Optional[AttributeMapping]:
        return self._by_name.get(name)

    def mapped_attributes(self) -> List[AttributeMapping]:
        """Attributes that carry a property (appear as triples)."""
        return [a for a in self.attributes if a.property is not None]

    def required_attributes(self) -> List[AttributeMapping]:
        """Attributes a valid INSERT must provide (NOT NULL, no default,
        not supplied by the URI pattern)."""
        pattern_attrs = set(self.uri_pattern.attributes)
        return [
            a
            for a in self.attributes
            if a.is_required_on_insert()
            and a.attribute_name not in pattern_attrs
            and a.property is not None
        ]

@dataclass
class LinkTableMapping:
    """An N:M link table mapped to an object property (Listing 4)."""

    table_name: str
    property: URIRef
    subject_attribute: AttributeMapping
    object_attribute: AttributeMapping

    def __post_init__(self) -> None:
        if self.subject_attribute.references() is None:
            raise MappingError(
                f"link table {self.table_name!r}: subject attribute must be a "
                "foreign key"
            )
        if self.object_attribute.references() is None:
            raise MappingError(
                f"link table {self.table_name!r}: object attribute must be a "
                "foreign key"
            )

    def subject_table(self) -> str:
        return self.subject_attribute.references()

    def object_table(self) -> str:
        return self.object_attribute.references()


def _specificity(table: TableMapping) -> int:
    """How specific a table's uriPattern is: a subject URI tries longer
    patterns first (a stable sort keeps mapping order among equals)."""
    return len(table.uri_pattern.pattern)


def _changes(method: Any) -> Any:
    """``method`` of a dict, bumping :attr:`TableMaps.version`."""

    def changed(self: "TableMaps", *args: Any, **kwargs: Any) -> Any:
        try:
            return method(self, *args, **kwargs)
        finally:
            self.version += 1

    return changed


class TableMaps(Dict[str, TableMapping]):
    """A mapping's table maps by name.  Every change of the dict — an
    :meth:`DatabaseMapping.add_table`, or an assignment into it —
    bumps :attr:`version`, which keys what the mapping derives from the
    table maps (the order a subject URI tries them in)."""

    version = 0

    __setitem__ = _changes(dict.__setitem__)
    __delitem__ = _changes(dict.__delitem__)
    pop = _changes(dict.pop)
    popitem = _changes(dict.popitem)
    setdefault = _changes(dict.setdefault)
    update = _changes(dict.update)
    clear = _changes(dict.clear)
    __ior__ = _changes(dict.__ior__)


class DatabaseMapping:
    """The root of an R3M mapping: connection info + all table maps."""

    def __init__(
        self,
        uri_prefix: str = "",
        jdbc_driver: str = "",
        jdbc_url: str = "",
        username: str = "",
        password: str = "",
    ) -> None:
        self.uri_prefix = uri_prefix
        self.jdbc_driver = jdbc_driver
        self.jdbc_url = jdbc_url
        self.username = username
        self.password = password
        self.tables = TableMaps()
        #: (version of :attr:`tables`, their order by specificity)
        self._order: Tuple[int, Tuple[TableMapping, ...]] = (-1, ())
        self.link_tables: Dict[str, LinkTableMapping] = {}
        self._class_index: Dict[URIRef, TableMapping] = {}
        self._link_property_index: Dict[URIRef, LinkTableMapping] = {}

    # -- construction ------------------------------------------------------------

    def add_table(self, table: TableMapping) -> None:
        if table.table_name in self.tables or table.table_name in self.link_tables:
            raise MappingError(f"duplicate table map for {table.table_name!r}")
        self.tables[table.table_name] = table
        if table.maps_to_class in self._class_index:
            raise MappingError(
                f"class {table.maps_to_class} mapped by multiple tables — R3M "
                "requires bijective table/class mappings for updatability"
            )
        self._class_index[table.maps_to_class] = table

    def add_link_table(self, link: LinkTableMapping) -> None:
        if link.table_name in self.tables or link.table_name in self.link_tables:
            raise MappingError(f"duplicate table map for {link.table_name!r}")
        if link.property in self._link_property_index:
            raise MappingError(
                f"object property {link.property} mapped by multiple link tables"
            )
        self.link_tables[link.table_name] = link
        self._link_property_index[link.property] = link

    # -- lookups -------------------------------------------------------------------

    def table(self, name: str) -> TableMapping:
        try:
            return self.tables[name]
        except KeyError:
            raise MappingError(f"no table map for {name!r}") from None

    def table_for_class(self, cls: URIRef) -> Optional[TableMapping]:
        return self._class_index.get(cls)

    def link_for_property(self, prop: URIRef) -> Optional[LinkTableMapping]:
        return self._link_property_index.get(prop)

    def tables_by_specificity(self) -> Tuple[TableMapping, ...]:
        """The table maps in the order a subject URI tries them
        (:meth:`identify_candidates`): most specific (longest pattern)
        first, mapping order among equals.  Sorted once per
        :attr:`TableMaps.version` of :attr:`tables`."""
        version, order = self._order
        if version != self.tables.version:
            version = self.tables.version
            order = tuple(sorted(self.tables.values(), key=_specificity, reverse=True))
            self._order = (version, order)
        return order

    def identify_candidates(
        self, uri: URIRef
    ) -> List[Tuple[TableMapping, Dict[str, str]]]:
        """All (table, extracted values) pairs whose uriPattern matches,
        in the order of :meth:`tables_by_specificity`.

        The paper's own use case overlaps textually (``ex:pub12`` vs
        ``ex:pubtype4`` both start with ``pub``); specificity plus the
        caller's type-coercibility filtering resolves such overlaps.
        """
        candidates: List[Tuple[TableMapping, Dict[str, str]]] = []
        for table in self.tables_by_specificity():
            values = table.uri_pattern.match(uri)
            if values is not None:
                candidates.append((table, values))
        return candidates

    def identify_table(
        self, uri: URIRef
    ) -> Optional[Tuple[TableMapping, Dict[str, str]]]:
        """Algorithm 1 step 2: match a subject URI against every table's
        URI pattern; returns the most specific match or None."""
        candidates = self.identify_candidates(uri)
        return candidates[0] if candidates else None

    def tables_for_property(
        self, prop: URIRef
    ) -> List[Tuple[TableMapping, AttributeMapping]]:
        """Every (table, attribute) pair a property could belong to.

        Vocabulary reuse means one property may appear in several tables
        (e.g. ``foaf:name`` on both team and publisher would be ambiguous
        without the subject URI); the translator disambiguates via the
        subject's table.
        """
        result = []
        for table in self.tables.values():
            attribute = table.attribute_for_property(prop)
            if attribute is not None:
                result.append((table, attribute))
        return result

    def all_table_names(self) -> List[str]:
        return [*self.tables, *self.link_tables]

    def __repr__(self) -> str:
        return (
            f"<DatabaseMapping tables={list(self.tables)} "
            f"link_tables={list(self.link_tables)}>"
        )
