"""A Turtle (and N-Triples) parser.

Turtle's term syntax is the one SPARQL reuses, so IRIs, prefixed names,
``a``, blank-node labels, plain / language-tagged / typed literals (short
and long strings, numeric and boolean shorthand), ``PREFIX`` / ``BASE``
and predicate lists (``;``) with object lists (``,``) are scanned by
:class:`~repro.rdf.scanner.TermScanner` — the same code the SPARQL parsers
run.  This module adds what only a Turtle *document* has; together that
covers the R3M mapping documents, the paper's listings and the endpoint's
RDF feedback:

* the ``@prefix`` / ``@base`` spelling of the directives with their
  trailing ``.``;
* the statement: a subject, a predicate-object list, the ``.`` terminator;
* anonymous blank nodes ``[]`` and property lists ``[ p o ; ... ]``;
* RDF collections ``( a b c )``.

No SPARQL caller asks for the last two (the paper's patterns never nest),
so they live here rather than in the shared scanner.  Errors carry
line/column positions via :class:`~repro.errors.TurtleParseError`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

from ..errors import TurtleParseError
from .graph import Graph
from .namespace import RDF, PrefixMap
from .scanner import TermScanner
from .terms import BNode, Literal, Term, Triple, URIRef

__all__ = ["parse_turtle", "parse_ntriples", "TurtleParser"]


def parse_turtle(
    text: str,
    graph: Optional[Graph] = None,
    base: str = "",
    prefixes: Optional[PrefixMap] = None,
) -> Graph:
    """Parse a Turtle document into ``graph`` (a new Graph by default)."""
    if graph is None:
        graph = Graph()
    parser = TurtleParser(text, base=base, prefixes=prefixes)
    for triple in parser.triples():
        graph.add(triple)
    return graph


def parse_ntriples(text: str, graph: Optional[Graph] = None) -> Graph:
    """Parse an N-Triples document (a syntactic subset of Turtle)."""
    return parse_turtle(text, graph=graph)


class TurtleParser(TermScanner):
    """Streaming recursive-descent parser producing triples.

    Instances are single-use: construct with the document text, then iterate
    :meth:`triples`.
    """

    error_class = TurtleParseError

    def triples(self) -> Iterator[Triple]:
        """Yield every triple in the document, statement by statement."""
        while True:
            self.prologue()  # SPARQL-style directives; skips whitespace
            if self.pos >= self.length:
                return
            if self.text.startswith("@prefix", self.pos):
                self.pos += 7
                self.prefix_declaration()
                self.expect(".")
            elif self.text.startswith("@base", self.pos):
                self.pos += 5
                self.base_declaration()
                self.expect(".")
            else:
                yield from self._statement()

    def _statement(self) -> List[Triple]:
        """``subject predicateObjectList '.'``"""
        #: the triples of the statement being read; nested property lists
        #: and collections add theirs here too
        self._triples: List[Triple] = []
        subject = self.object()
        if isinstance(subject, Literal):
            raise self.error("a literal cannot be a subject")
        self.skip_ws()
        self.predicate_object_list(subject, self._triples)
        self.expect(".")
        return self._triples

    def object(self) -> Term:
        """Subject and object positions: the shared terms plus the two
        forms that mint blank nodes."""
        ch = self.text[self.pos: self.pos + 1]
        if ch == "[":
            return self._blank_node_property_list()
        if ch == "(":
            return self._collection()
        return self.term()

    def _blank_node_property_list(self) -> BNode:
        """``[]`` or ``[ predicateObjectList ]``."""
        self.pos += 1
        node = BNode()
        if not self.accept("]"):
            self.predicate_object_list(node, self._triples)
            self.expect("]")
        return node

    def _collection(self) -> Union[BNode, URIRef]:
        """``( object* )`` as an ``rdf:first`` / ``rdf:rest`` chain."""
        self.pos += 1
        items: List[Term] = []
        while not self.accept(")"):
            if self.pos >= self.length:
                raise self.error("unterminated collection")
            items.append(self.object())
        if not items:
            return RDF.nil
        nodes = [BNode() for _ in items]
        for node, item, rest in zip(nodes, items, nodes[1:] + [RDF.nil]):
            self._triples.append(Triple(node, RDF.first, item))
            self._triples.append(Triple(node, RDF.rest, rest))
        return nodes[0]
