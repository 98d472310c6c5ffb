"""RDB → RDF dump: materialize the mapped database as a graph.

Implements the read direction of the mapping (paper Section 4): "each row
in a database table is mapped to a set of RDF triples.  One triple
identifies the entity ... as an instance of the class the corresponding
table is mapped to.  Then, there is in general one triple for each table
attribute that relates the instance to a data value or another instance."
Link-table rows become single object-property triples.

The dump serves three roles: the read-access path for small databases, the
fallback evaluation target for SPARQL patterns outside the translatable
fragment, and the *oracle* in equivalence tests (mediated updates must
leave the database in a state whose dump matches the native triple store).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..rdb.engine import Database
from ..rdb.storage import TableData
from ..rdf.graph import Graph
from ..rdf.namespace import RDF_TYPE
from ..rdf.terms import Triple
from ..r3m.model import DatabaseMapping, LinkTableMapping, TableMapping
from .common import sql_value_to_term

__all__ = ["dump_database", "dump_table"]


def dump_database(mapping: DatabaseMapping, db: Database) -> Graph:
    """Materialize every mapped table into a fresh graph.

    Rows are read through :meth:`~repro.rdb.engine.Database.read_view`:
    the committed snapshot for concurrent readers, the working store for
    the thread owning an open transaction — so a fallback-evaluated query
    sees exactly the same state a translated one would.
    """
    tables = db.read_view()
    graph = Graph()
    for table_mapping in mapping.tables.values():
        for triple in dump_table(mapping, db, table_mapping, tables=tables):
            graph.add(triple)
    for link in mapping.link_tables.values():
        for triple in _dump_link_table(mapping, db, link, tables=tables):
            graph.add(triple)
    return graph


def dump_table(
    mapping: DatabaseMapping,
    db: Database,
    table_mapping: TableMapping,
    tables: Optional[Dict[str, TableData]] = None,
) -> Iterator[Triple]:
    """Yield the triples of one table's rows."""
    schema_table = db.table(table_mapping.table_name)
    if tables is None:
        tables = db.read_view()
    table_data = tables[table_mapping.table_name]
    positions = table_data.table.positions
    pattern = table_mapping.uri_pattern
    keys = [(name, positions[name]) for name in pattern.attributes]
    attributes = [
        (
            attribute,
            positions[attribute.attribute_name],
            schema_table.column(attribute.attribute_name),
        )
        for attribute in table_mapping.mapped_attributes()
    ]
    for _, row in table_data.scan():
        uri = pattern.format({name: row[position] for name, position in keys})
        yield Triple(uri, RDF_TYPE, table_mapping.maps_to_class)
        for attribute, position, column in attributes:
            term = sql_value_to_term(
                mapping, table_mapping, attribute, row[position], column
            )
            if term is not None:
                yield Triple(uri, attribute.property, term)


def _dump_link_table(
    mapping: DatabaseMapping,
    db: Database,
    link: LinkTableMapping,
    tables: Optional[Dict[str, TableData]] = None,
) -> Iterator[Triple]:
    subject_table = mapping.table(link.subject_table())
    object_table = mapping.table(link.object_table())
    if tables is None:
        tables = db.read_view()
    table_data = tables[link.table_name]
    positions = table_data.table.positions
    subject_position = positions[link.subject_attribute.attribute_name]
    object_position = positions[link.object_attribute.attribute_name]
    subject_key = subject_table.uri_pattern.attributes[0]
    object_key = object_table.uri_pattern.attributes[0]
    for _, row in table_data.scan():
        s_value = row[subject_position]
        o_value = row[object_position]
        if s_value is None or o_value is None:
            continue
        yield Triple(
            subject_table.uri_pattern.format({subject_key: s_value}),
            link.property,
            object_table.uri_pattern.format({object_key: o_value}),
        )

