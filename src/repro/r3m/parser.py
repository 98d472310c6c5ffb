"""Parse an R3M mapping from its RDF (Turtle) representation.

The mapping language "is expressed in RDF and uses the R3M ontology"
(Section 4); this module reads the RDF form shown in Listings 1–5 into the
:mod:`repro.r3m.model` structures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import MappingParseError
from ..rdf.graph import Graph
from ..rdf.namespace import RDF
from ..rdf.terms import Literal, Term, URIRef
from ..rdf.turtle import parse_turtle
from . import vocabulary as voc
from .model import (
    DEFAULT,
    FOREIGN_KEY,
    NOT_NULL,
    PRIMARY_KEY,
    AttributeMapping,
    Constraint,
    DatabaseMapping,
    LinkTableMapping,
    TableMapping,
)
from .uripattern import URIPattern

__all__ = ["parse_mapping", "parse_mapping_graph"]


def parse_mapping(turtle_text: str) -> DatabaseMapping:
    """Parse an R3M mapping document (Turtle text)."""
    return parse_mapping_graph(parse_turtle(turtle_text))


def parse_mapping_graph(graph: Graph) -> DatabaseMapping:
    """Extract the R3M mapping from an RDF graph."""
    roots = list(graph.subjects(RDF.type, voc.DATABASE_MAP))
    if not roots:
        raise MappingParseError("no r3m:DatabaseMap found")
    if len(roots) > 1:
        raise MappingParseError("multiple r3m:DatabaseMap nodes found")
    root = roots[0]

    mapping = DatabaseMapping(
        uri_prefix=_string(graph, root, voc.URI_PREFIX, default=""),
        jdbc_driver=_string(graph, root, voc.JDBC_DRIVER, default=""),
        jdbc_url=_string(graph, root, voc.JDBC_URL, default=""),
        username=_string(graph, root, voc.USERNAME, default=""),
        password=_string(graph, root, voc.PASSWORD, default=""),
    )

    # The referenced-table names of FK constraints point at *map nodes*;
    # resolve them to table names in a second pass.
    node_to_table_name: Dict[Term, str] = {}
    table_nodes = list(graph.objects(root, voc.HAS_TABLE))
    if not table_nodes:
        raise MappingParseError("DatabaseMap lists no tables (r3m:hasTable)")
    for node in table_nodes:
        name = _string(graph, node, voc.HAS_TABLE_NAME)
        if name is None:
            raise MappingParseError(
                f"table map {node} lacks r3m:hasTableName"
            )
        node_to_table_name[node] = name

    for node in table_nodes:
        node_type = graph.value(node, RDF.type, None)
        if node_type == voc.LINK_TABLE_MAP:
            mapping.add_link_table(
                _parse_link_table(graph, node, node_to_table_name)
            )
        elif node_type == voc.TABLE_MAP:
            mapping.add_table(
                _parse_table(graph, node, mapping.uri_prefix, node_to_table_name)
            )
        else:
            raise MappingParseError(
                f"table map {node} has unknown type {node_type}"
            )
    return mapping


def _parse_table(
    graph: Graph,
    node: Term,
    uri_prefix: str,
    node_to_table_name: Dict[Term, str],
) -> TableMapping:
    table_name = node_to_table_name[node]
    cls = graph.value(node, voc.MAPS_TO_CLASS, None)
    if not isinstance(cls, URIRef):
        raise MappingParseError(
            f"table map for {table_name!r} lacks r3m:mapsToClass"
        )
    pattern_text = _string(graph, node, voc.URI_PATTERN)
    if pattern_text is None:
        raise MappingParseError(
            f"table map for {table_name!r} lacks r3m:uriPattern"
        )
    attributes = [
        _parse_attribute(graph, attr_node, node_to_table_name)
        for attr_node in graph.objects(node, voc.HAS_ATTRIBUTE)
    ]
    attributes.sort(key=lambda a: a.attribute_name)
    checks = []
    for constraint_node in graph.objects(node, voc.HAS_CONSTRAINT):
        if graph.value(constraint_node, RDF.type, None) == voc.CHECK:
            text = _string(graph, constraint_node, voc.HAS_EXPRESSION)
            if text:
                checks.append(text)
    return TableMapping(
        table_name=table_name,
        maps_to_class=cls,
        uri_pattern=URIPattern(pattern_text, prefix=uri_prefix),
        attributes=attributes,
        checks=tuple(sorted(checks)),
    )


def _parse_link_table(
    graph: Graph, node: Term, node_to_table_name: Dict[Term, str]
) -> LinkTableMapping:
    table_name = node_to_table_name[node]
    prop = graph.value(node, voc.MAPS_TO_OBJECT_PROPERTY, None)
    if not isinstance(prop, URIRef):
        raise MappingParseError(
            f"link table map for {table_name!r} lacks r3m:mapsToObjectProperty"
        )
    subject_node = graph.value(node, voc.HAS_SUBJECT_ATTRIBUTE, None)
    object_node = graph.value(node, voc.HAS_OBJECT_ATTRIBUTE, None)
    if subject_node is None or object_node is None:
        raise MappingParseError(
            f"link table map for {table_name!r} needs both "
            "r3m:hasSubjectAttribute and r3m:hasObjectAttribute"
        )
    return LinkTableMapping(
        table_name=table_name,
        property=prop,
        subject_attribute=_parse_attribute(graph, subject_node, node_to_table_name),
        object_attribute=_parse_attribute(graph, object_node, node_to_table_name),
    )


def _parse_attribute(
    graph: Graph, node: Term, node_to_table_name: Dict[Term, str]
) -> AttributeMapping:
    name = _string(graph, node, voc.HAS_ATTRIBUTE_NAME)
    if name is None:
        raise MappingParseError(f"attribute map {node} lacks r3m:hasAttributeName")

    object_property = graph.value(node, voc.MAPS_TO_OBJECT_PROPERTY, None)
    data_property = graph.value(node, voc.MAPS_TO_DATA_PROPERTY, None)
    if object_property is not None and data_property is not None:
        raise MappingParseError(
            f"attribute {name!r} maps to both an object and a data property"
        )
    prop: Optional[URIRef] = None
    is_object = False
    if isinstance(object_property, URIRef):
        prop = object_property
        is_object = True
    elif isinstance(data_property, URIRef):
        prop = data_property

    constraints: List[Constraint] = []
    for constraint_node in graph.objects(node, voc.HAS_CONSTRAINT):
        constraints.append(
            _parse_constraint(graph, constraint_node, name, node_to_table_name)
        )
    value_pattern_text = _string(graph, node, voc.VALUE_PATTERN)
    return AttributeMapping(
        attribute_name=name,
        property=prop,
        is_object_property=is_object,
        constraints=tuple(constraints),
        value_pattern=(
            URIPattern(value_pattern_text) if value_pattern_text else None
        ),
    )


def _parse_constraint(
    graph: Graph,
    node: Term,
    attribute_name: str,
    node_to_table_name: Dict[Term, str],
) -> Constraint:
    kind = graph.value(node, RDF.type, None)
    if kind == voc.PRIMARY_KEY:
        return Constraint(PRIMARY_KEY)
    if kind == voc.NOT_NULL:
        return Constraint(NOT_NULL)
    if kind == voc.DEFAULT:
        value = graph.value(node, voc.HAS_VALUE, None)
        return Constraint(
            DEFAULT,
            value=value.to_python() if isinstance(value, Literal) else None,
        )
    if kind == voc.FOREIGN_KEY:
        target = graph.value(node, voc.REFERENCES, None)
        if target is None:
            raise MappingParseError(
                f"foreign key on {attribute_name!r} lacks r3m:references"
            )
        # The paper's listings reference the *map node* (map:team); accept a
        # plain string table name as well for hand-written mappings.
        if isinstance(target, Literal):
            table_name = target.lexical
        elif target in node_to_table_name:
            table_name = node_to_table_name[target]
        elif isinstance(target, URIRef):
            table_name = target.local_name()
        else:
            raise MappingParseError(
                f"cannot resolve foreign key target {target} on {attribute_name!r}"
            )
        return Constraint(FOREIGN_KEY, references=table_name)
    raise MappingParseError(
        f"unknown constraint type {kind} on attribute {attribute_name!r}"
    )


def _string(
    graph: Graph, subject: Term, predicate: URIRef, default: Optional[str] = None
) -> Optional[str]:
    value = graph.value(subject, predicate, None)
    if value is None:
        return default
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, URIRef):
        return value.value
    return default
