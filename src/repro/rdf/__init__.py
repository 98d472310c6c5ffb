"""RDF substrate: terms, graphs, Turtle parsing and serialization.

Public API::

    from repro.rdf import Graph, URIRef, Literal, BNode, Triple, Namespace
    from repro.rdf import parse_turtle, to_turtle, to_ntriples, isomorphic
"""

from .compare import isomorphic
from .graph import Graph
from .namespace import (
    DC,
    DEFAULT_PREFIXES,
    EX,
    FOAF,
    OA,
    ONT,
    OWL,
    R3M,
    RDF,
    RDFS,
    XSD,
    Namespace,
    PrefixMap,
)
from .serialize import term_to_turtle, to_ntriples, to_turtle
from .terms import (
    BNode,
    Literal,
    Object,
    Predicate,
    Subject,
    Term,
    Triple,
    URIRef,
    Variable,
)
from .turtle import TurtleParser, parse_ntriples, parse_turtle

__all__ = [
    "BNode",
    "DC",
    "DEFAULT_PREFIXES",
    "EX",
    "FOAF",
    "Graph",
    "Literal",
    "Namespace",
    "OA",
    "ONT",
    "OWL",
    "Object",
    "Predicate",
    "PrefixMap",
    "R3M",
    "RDF",
    "RDFS",
    "Subject",
    "Term",
    "Triple",
    "TurtleParser",
    "URIRef",
    "Variable",
    "XSD",
    "isomorphic",
    "parse_ntriples",
    "parse_turtle",
    "term_to_turtle",
    "to_ntriples",
    "to_turtle",
]
