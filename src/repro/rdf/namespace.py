"""Namespaces and the vocabularies used throughout the paper.

A :class:`Namespace` builds :class:`~repro.rdf.terms.URIRef` terms by
attribute or item access::

    FOAF = Namespace("http://xmlns.com/foaf/0.1/")
    FOAF.name        -> URIRef("http://xmlns.com/foaf/0.1/name")
    FOAF["family_name"]

:class:`PrefixMap` maintains prefix→namespace bindings for parsing and
serializing Turtle and SPARQL, including qname splitting.

The module predefines every vocabulary the paper uses: RDF, RDFS, XSD, OWL,
FOAF, DC (Dublin Core elements), the paper's application ontology ``ONT``
(``http://example.org/ontology#``), the example-database namespace ``EX``
(``http://example.org/db/``), and the R3M mapping vocabulary itself.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .terms import URIRef

__all__ = [
    "Namespace",
    "PrefixMap",
    "RDF",
    "RDF_TYPE",
    "RDFS",
    "XSD",
    "OWL",
    "FOAF",
    "DC",
    "ONT",
    "EX",
    "R3M",
    "OA",
    "DEFAULT_PREFIXES",
]


class Namespace:
    """A URI prefix that mints :class:`URIRef` terms."""

    __slots__ = ("uri",)

    def __init__(self, uri: str) -> None:
        object.__setattr__(self, "uri", uri)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Namespace is immutable")

    def __getattr__(self, name: str) -> URIRef:
        if name.startswith("__"):
            raise AttributeError(name)
        return URIRef(self.uri + name)

    def __getitem__(self, name: str) -> URIRef:
        return URIRef(self.uri + name)

    def term(self, name: str) -> URIRef:
        """Explicit alternative to attribute access (e.g. for keywords)."""
        return URIRef(self.uri + name)

    def __contains__(self, term: object) -> bool:
        return isinstance(term, URIRef) and term.value.startswith(self.uri)

    def __str__(self) -> str:
        return self.uri

    def __repr__(self) -> str:
        return f"Namespace({self.uri!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Namespace) and other.uri == self.uri

    def __hash__(self) -> int:
        return hash(("Namespace", self.uri))


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
#: ``rdf:type``, resolved once: attribute access on a namespace mints a
#: new term every time, and the translators compare with it per triple.
RDF_TYPE = RDF.type
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
DC = Namespace("http://purl.org/dc/elements/1.1/")

#: The paper's application-specific ontology (Figure 2, prefix ``ont:``).
ONT = Namespace("http://example.org/ontology#")

#: The example-database instance namespace (``ex:``, the uriPrefix of the
#: DatabaseMap in Listing 1).
EX = Namespace("http://example.org/db/")

#: The R3M mapping vocabulary (paper Section 4).
R3M = Namespace("http://ontoaccess.org/r3m#")

#: Vocabulary for the RDF feedback protocol (paper Sections 6 and 8).
OA = Namespace("http://ontoaccess.org/feedback#")

DEFAULT_PREFIXES: Dict[str, str] = {
    "rdf": RDF.uri,
    "rdfs": RDFS.uri,
    "xsd": XSD.uri,
    "owl": OWL.uri,
    "foaf": FOAF.uri,
    "dc": DC.uri,
    "ont": ONT.uri,
    "ex": EX.uri,
    "r3m": R3M.uri,
    "oa": OA.uri,
}


class PrefixMap:
    """Bidirectional prefix <-> namespace-URI bindings.

    Used by the Turtle/SPARQL parsers to expand qnames and by the
    serializers to compact URIs.  The empty prefix (``:name``) is supported.
    """

    def __init__(self, bindings: Optional[Dict[str, str]] = None) -> None:
        self._by_prefix: Dict[str, str] = {}
        if bindings:
            for prefix, uri in bindings.items():
                self.bind(prefix, uri)

    @classmethod
    def with_defaults(cls) -> "PrefixMap":
        """Return a map pre-loaded with the paper's standard prefixes."""
        return cls(DEFAULT_PREFIXES)

    def bind(self, prefix: str, uri: str) -> None:
        """Bind ``prefix`` to ``uri``, replacing any previous binding."""
        if isinstance(uri, Namespace):
            uri = uri.uri
        self._by_prefix[prefix] = uri

    def resolve(self, prefix: str) -> Optional[str]:
        """Return the namespace URI bound to ``prefix`` or None."""
        return self._by_prefix.get(prefix)

    def expand(self, qname: str) -> URIRef:
        """Expand a qname like ``foaf:name`` to a full URIRef.

        Raises KeyError when the prefix is unbound.
        """
        prefix, _, local = qname.partition(":")
        uri = self._by_prefix.get(prefix)
        if uri is None:
            raise KeyError(f"unbound prefix: {prefix!r}")
        return URIRef(uri + local)

    def compact(self, uri: URIRef) -> Optional[str]:
        """Return ``prefix:local`` for ``uri`` when a binding matches.

        The longest matching namespace wins.  Returns None when no binding
        applies or the local part would not be a valid qname local name.
        """
        best: Optional[Tuple[str, str]] = None
        for prefix, ns in self._by_prefix.items():
            if uri.value.startswith(ns) and (best is None or len(ns) > len(best[1])):
                best = (prefix, ns)
        if best is None:
            return None
        prefix, ns = best
        local = uri.value[len(ns):]
        if not local or not _is_qname_local(local):
            return None
        return f"{prefix}:{local}"

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(sorted(self._by_prefix.items()))

    def copy(self) -> "PrefixMap":
        return PrefixMap(dict(self._by_prefix))

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._by_prefix

    def __len__(self) -> int:
        return len(self._by_prefix)


def _is_qname_local(local: str) -> bool:
    """Conservative validity check for a Turtle PN_LOCAL part."""
    if local[0].isdigit():
        return False
    return all(ch.isalnum() or ch in "_-" for ch in local)
