"""Serialize an R3M mapping model back to RDF (Turtle).

Produces documents in the shape of the paper's Listings 1–5: one
``map:<table>`` node per table, ``map:<table>_<attribute>`` nodes per
attribute, and blank nodes for constraints.  Round-trips with
:mod:`repro.r3m.parser`.
"""

from __future__ import annotations

from ..rdf.graph import Graph
from ..rdf.namespace import Namespace, PrefixMap, RDF
from ..rdf.serialize import to_turtle
from ..rdf.terms import BNode, Literal, Triple, URIRef
from . import vocabulary as voc
from .model import (
    DEFAULT,
    FOREIGN_KEY,
    NOT_NULL,
    PRIMARY_KEY,
    AttributeMapping,
    DatabaseMapping,
)

__all__ = ["mapping_to_graph", "mapping_to_turtle", "MAP"]

#: Namespace for the mapping's own node identifiers (``map:`` in the paper).
MAP = Namespace("http://example.org/map#")


def mapping_to_turtle(mapping: DatabaseMapping) -> str:
    """Render the mapping as Turtle text."""
    prefixes = PrefixMap.with_defaults()
    prefixes.bind("map", MAP.uri)
    return to_turtle(mapping_to_graph(mapping), prefixes=prefixes)


def mapping_to_graph(mapping: DatabaseMapping) -> Graph:
    """Encode the mapping model as an RDF graph using the R3M vocabulary."""
    g = Graph()
    root = MAP.database
    g.add(Triple(root, RDF.type, voc.DATABASE_MAP))
    if mapping.jdbc_driver:
        g.add(Triple(root, voc.JDBC_DRIVER, Literal(mapping.jdbc_driver)))
    if mapping.jdbc_url:
        g.add(Triple(root, voc.JDBC_URL, Literal(mapping.jdbc_url)))
    if mapping.username:
        g.add(Triple(root, voc.USERNAME, Literal(mapping.username)))
    if mapping.password:
        g.add(Triple(root, voc.PASSWORD, Literal(mapping.password)))
    if mapping.uri_prefix:
        g.add(Triple(root, voc.URI_PREFIX, Literal(mapping.uri_prefix)))

    for table in mapping.tables.values():
        node = MAP[table.table_name]
        g.add(Triple(root, voc.HAS_TABLE, node))
        g.add(Triple(node, RDF.type, voc.TABLE_MAP))
        g.add(Triple(node, voc.HAS_TABLE_NAME, Literal(table.table_name)))
        g.add(Triple(node, voc.MAPS_TO_CLASS, table.maps_to_class))
        g.add(Triple(node, voc.URI_PATTERN, Literal(table.uri_pattern.pattern)))
        for check_text in table.checks:
            c_node = BNode()
            g.add(Triple(node, voc.HAS_CONSTRAINT, c_node))
            g.add(Triple(c_node, RDF.type, voc.CHECK))
            g.add(Triple(c_node, voc.HAS_EXPRESSION, Literal(check_text)))
        for attribute in table.attributes:
            attr_node = MAP[f"{table.table_name}_{attribute.attribute_name}"]
            g.add(Triple(node, voc.HAS_ATTRIBUTE, attr_node))
            _add_attribute(g, attr_node, attribute)

    for link in mapping.link_tables.values():
        node = MAP[link.table_name]
        g.add(Triple(root, voc.HAS_TABLE, node))
        g.add(Triple(node, RDF.type, voc.LINK_TABLE_MAP))
        g.add(Triple(node, voc.HAS_TABLE_NAME, Literal(link.table_name)))
        g.add(Triple(node, voc.MAPS_TO_OBJECT_PROPERTY, link.property))
        subject_node = MAP[f"{link.table_name}_subject"]
        object_node = MAP[f"{link.table_name}_object"]
        g.add(Triple(node, voc.HAS_SUBJECT_ATTRIBUTE, subject_node))
        g.add(Triple(node, voc.HAS_OBJECT_ATTRIBUTE, object_node))
        _add_attribute(g, subject_node, link.subject_attribute)
        _add_attribute(g, object_node, link.object_attribute)
    return g


def _add_attribute(g: Graph, node: URIRef, attribute: AttributeMapping) -> None:
    g.add(Triple(node, RDF.type, voc.ATTRIBUTE_MAP))
    g.add(Triple(node, voc.HAS_ATTRIBUTE_NAME, Literal(attribute.attribute_name)))
    if attribute.property is not None:
        predicate = (
            voc.MAPS_TO_OBJECT_PROPERTY
            if attribute.is_object_property
            else voc.MAPS_TO_DATA_PROPERTY
        )
        g.add(Triple(node, predicate, attribute.property))
    if attribute.value_pattern is not None:
        g.add(
            Triple(
                node,
                voc.VALUE_PATTERN,
                Literal(attribute.value_pattern.pattern),
            )
        )
    for constraint in attribute.constraints:
        c_node = BNode()
        g.add(Triple(node, voc.HAS_CONSTRAINT, c_node))
        if constraint.kind == PRIMARY_KEY:
            g.add(Triple(c_node, RDF.type, voc.PRIMARY_KEY))
        elif constraint.kind == NOT_NULL:
            g.add(Triple(c_node, RDF.type, voc.NOT_NULL))
        elif constraint.kind == FOREIGN_KEY:
            g.add(Triple(c_node, RDF.type, voc.FOREIGN_KEY))
            g.add(Triple(c_node, voc.REFERENCES, MAP[constraint.references]))
        elif constraint.kind == DEFAULT:
            g.add(Triple(c_node, RDF.type, voc.DEFAULT))
            if constraint.value is not None:
                g.add(Triple(c_node, voc.HAS_VALUE, Literal(constraint.value)))
