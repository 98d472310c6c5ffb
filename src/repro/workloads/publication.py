"""The paper's publication-system use case (Sections 3 and 7).

Provides exactly the artifacts of the feasibility study:

* :func:`build_database` — the Figure 1 schema: six tables with the
  paper's primary keys, NOT NULL constraints, and foreign keys.
* :func:`build_ontology` — the Figure 2 domain ontology graph (classes and
  properties with domains/ranges, reusing FOAF and DC).
* :func:`build_mapping` — the Table 1 mapping, generated through the R3M
  auto-generator with the paper's FOAF/DC/ONT term assignments.
* :func:`table1_rows` — the rows of Table 1 for printing/benchmark output.
* :func:`seed_feasibility_data` — the concrete entities used by the
  paper's example listings (team5/SEAL, author6/Hert, etc.).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.namespace import DC, FOAF, ONT, OWL, RDF, RDFS, XSD
from ..rdf.terms import Triple, URIRef
from ..r3m.generator import generate_mapping
from ..r3m.model import DatabaseMapping

__all__ = [
    "PUBLICATION_DDL",
    "URI_PREFIX",
    "build_database",
    "build_ontology",
    "build_mapping",
    "table1_rows",
    "seed_feasibility_data",
]

#: The instance URI prefix of Listing 1.
URI_PREFIX = "http://example.org/db/"

#: Figure 1, as DDL for the relational substrate.  Every table has the
#: distinct integer primary key ``id``; ``*`` columns in the figure are
#: NOT NULL; ``publication_author`` is the N:M link table.
PUBLICATION_DDL = """
CREATE TABLE team (
    id INTEGER PRIMARY KEY,
    name VARCHAR(200),
    code VARCHAR(20)
);
CREATE TABLE publisher (
    id INTEGER PRIMARY KEY,
    name VARCHAR(200)
);
CREATE TABLE pubtype (
    id INTEGER PRIMARY KEY,
    type VARCHAR(50)
);
CREATE TABLE author (
    id INTEGER PRIMARY KEY,
    title VARCHAR(50),
    email VARCHAR(200),
    firstname VARCHAR(100),
    lastname VARCHAR(100) NOT NULL,
    team INTEGER REFERENCES team(id)
);
CREATE TABLE publication (
    id INTEGER PRIMARY KEY,
    title VARCHAR(300) NOT NULL,
    year INTEGER NOT NULL,
    type INTEGER REFERENCES pubtype(id),
    publisher INTEGER REFERENCES publisher(id)
);
CREATE TABLE publication_author (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    publication INTEGER NOT NULL REFERENCES publication(id),
    author INTEGER NOT NULL REFERENCES author(id)
);
"""


def build_database(constraint_mode: str = "immediate") -> Database:
    """Create a fresh publication database with the Figure 1 schema."""
    db = Database(constraint_mode=constraint_mode)
    db.execute_script(PUBLICATION_DDL)
    return db


#: Table 1's attribute→property assignments (the columns of the paper's
#: mapping overview), keyed by (table, attribute).
PROPERTY_ASSIGNMENTS: Dict[Tuple[str, str], URIRef] = {
    ("publication", "title"): DC.title,
    ("publication", "year"): ONT.pubYear,
    ("publication", "type"): ONT.pubType,
    ("publication", "publisher"): DC.publisher,
    ("publisher", "name"): ONT.name,
    ("pubtype", "type"): ONT.type,
    ("author", "title"): FOAF.title,
    ("author", "email"): FOAF.mbox,
    ("author", "firstname"): FOAF.firstName,
    ("author", "lastname"): FOAF.family_name,
    ("author", "team"): ONT.team,
    ("team", "name"): FOAF.name,
    ("team", "code"): ONT.teamCode,
}

#: Table 1's table→class assignments.
CLASS_ASSIGNMENTS: Dict[str, URIRef] = {
    "publication": FOAF.Document,
    "author": FOAF.Person,
    "team": FOAF.Group,
    "publisher": ONT.Publisher,
    "pubtype": ONT.PubType,
}

#: The link table maps to dc:creator (Table 1, last row).
LINK_ASSIGNMENTS: Dict[str, URIRef] = {
    "publication_author": DC.creator,
}

#: foaf:mbox values are mailto: URIs but the email column stores the bare
#: address (Listing 9 vs Listing 10).
VALUE_PATTERNS: Dict[Tuple[str, str], str] = {
    ("author", "email"): "mailto:%%email%%",
}


#: The paper's instance URIs abbreviate publication to ``pub`` (ex:pub12).
URI_PATTERNS: Dict[str, str] = {
    "publication": "pub%%id%%",
}


def build_mapping(db: Database | None = None) -> DatabaseMapping:
    """The Table 1 mapping: auto-generated with the paper's vocabulary."""
    if db is None:
        db = build_database()
    return generate_mapping(
        db,
        uri_prefix=URI_PREFIX,
        class_overrides=CLASS_ASSIGNMENTS,
        property_overrides=PROPERTY_ASSIGNMENTS,
        link_property_overrides=LINK_ASSIGNMENTS,
        value_pattern_overrides=VALUE_PATTERNS,
        uri_pattern_overrides=URI_PATTERNS,
    )


def build_ontology() -> Graph:
    """The Figure 2 domain ontology as an RDF graph.

    Five classes (foaf:Document, foaf:Person, foaf:Group, ont:Publisher,
    ont:PubType) and the properties used with each class, with ranges as
    shown in the figure.
    """
    g = Graph()
    classes = [FOAF.Document, FOAF.Person, FOAF.Group, ONT.Publisher, ONT.PubType]
    for cls in classes:
        g.add(Triple(cls, RDF.type, OWL.term("Class")))
        g.add(Triple(cls, RDFS.subClassOf, OWL.Thing))

    def data_property(prop: URIRef, domain: URIRef, range_: URIRef) -> None:
        g.add(Triple(prop, RDF.type, OWL.DatatypeProperty))
        g.add(Triple(prop, RDFS.domain, domain))
        g.add(Triple(prop, RDFS.range, range_))

    def object_property(prop: URIRef, domain: URIRef, range_: URIRef) -> None:
        g.add(Triple(prop, RDF.type, OWL.ObjectProperty))
        g.add(Triple(prop, RDFS.domain, domain))
        g.add(Triple(prop, RDFS.range, range_))

    # foaf:Document (publication)
    data_property(DC.title, FOAF.Document, XSD.string)
    data_property(ONT.pubYear, FOAF.Document, XSD.int)
    object_property(ONT.pubType, FOAF.Document, ONT.PubType)
    object_property(DC.publisher, FOAF.Document, ONT.Publisher)
    object_property(DC.creator, FOAF.Document, FOAF.Person)
    # foaf:Person (author)
    data_property(FOAF.title, FOAF.Person, XSD.string)
    data_property(FOAF.mbox, FOAF.Person, XSD.string)
    data_property(FOAF.firstName, FOAF.Person, XSD.string)
    data_property(FOAF.family_name, FOAF.Person, XSD.string)
    object_property(ONT.team, FOAF.Person, FOAF.Group)
    # foaf:Group (team)
    data_property(FOAF.name, FOAF.Group, XSD.string)
    data_property(ONT.teamCode, FOAF.Group, XSD.string)
    # ont:Publisher / ont:PubType
    data_property(ONT.name, ONT.Publisher, XSD.string)
    data_property(ONT.type, ONT.PubType, XSD.string)
    return g


def table1_rows(mapping: DatabaseMapping | None = None) -> List[Tuple[str, str]]:
    """The rows of Table 1 ("Use case mapping overview").

    Each row is (``table -> class``, ``attribute -> property``) using the
    compact qnames the paper prints.
    """
    if mapping is None:
        mapping = build_mapping()
    from ..rdf.namespace import PrefixMap

    prefixes = PrefixMap.with_defaults()

    def compact(uri: URIRef) -> str:
        return prefixes.compact(uri) or uri.value

    rows: List[Tuple[str, str]] = []
    order = ["publication", "publisher", "pubtype", "author", "team"]
    for name in order:
        table = mapping.tables[name]
        first_column = f"{name} -> {compact(table.maps_to_class)}"
        attr_rows = [
            f"{a.attribute_name} -> {compact(a.property)}"
            for a in table.attributes
            if a.property is not None
        ]
        for i, attr_row in enumerate(attr_rows):
            rows.append((first_column if i == 0 else "", attr_row))
    for link in mapping.link_tables.values():
        rows.append((f"{link.table_name} -> -", f"- -> {compact(link.property)}"))
    return rows


def seed_feasibility_data(db: Database) -> None:
    """Insert the concrete rows the paper's examples assume exist.

    Listing 9/15 reference team5 (SEAL); Listing 17/18 assume author6
    exists with the full data of Listing 10.
    """
    db.execute_script(
        """
        INSERT INTO team (id, name, code) VALUES (5, 'Software Engineering', 'SEAL');
        INSERT INTO pubtype (id, type) VALUES (4, 'inproceedings');
        INSERT INTO publisher (id, name) VALUES (3, 'Springer');
        INSERT INTO author (id, title, firstname, lastname, email, team)
            VALUES (6, 'Mr', 'Matthias', 'Hert', 'hert@ifi.uzh.ch', 5);
        """
    )
