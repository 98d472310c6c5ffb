"""RDF term model: URIs, blank nodes, literals, variables, and triples.

This is the foundation of the RDF substrate.  Terms are immutable and
hashable so they can be stored in the indexed :class:`repro.rdf.graph.Graph`.
The model follows the RDF 1.0 abstract syntax used by the paper (2010-era):

* :class:`URIRef` — an IRI identifying a resource.
* :class:`BNode` — a blank node with a document-scoped label.
* :class:`Literal` — a lexical form with an optional language tag or
  datatype URI.  Typed literals expose a converted Python value via
  :meth:`Literal.to_python`.
* :class:`Variable` — a SPARQL query variable (``?x``); only valid inside
  query/update templates, never in a concrete graph; a
  :class:`Placeholder` is the variable a constant of a request text was
  lifted into.
* :class:`Triple` — an (s, p, o) statement.

Design note: terms subclass ``str``-free plain objects rather than ``str``
itself (as rdflib does) to keep equality semantics explicit: a ``URIRef`` is
never equal to the string of its IRI.

Immutable terms copy as themselves and pickle through their public
constructor.  ``URIRef.canonical`` and ``Literal.canonical`` build a term
from a form already known to be canonical (what decoding a column value
produces), without the checks and conversions of ``__init__``.

Hashing: a :class:`URIRef` or :class:`Literal` computes its hash on its
first ``__hash__`` and keeps it (``_hash``, None until then), so a term
that no dictionary or set ever sees — most of those an answer mints from
rows, which go straight to a result writer — never builds the tuple its
hash is taken of.  Both constructors leave the same state, so terms
from either are equal with equal hashes.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from typing import Any, Iterator, NamedTuple, Optional, Union

__all__ = [
    "Term",
    "URIRef",
    "BNode",
    "Literal",
    "Variable",
    "Placeholder",
    "Triple",
    "Subject",
    "Predicate",
    "Object",
    "XSD_STRING",
    "XSD_INTEGER",
    "XSD_INT",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_FLOAT",
    "XSD_BOOLEAN",
    "XSD_DATE",
    "XSD_DATETIME",
    "double_lexical",
]

_XSD = "http://www.w3.org/2001/XMLSchema#"


class Term:
    """Abstract base class for all RDF terms."""

    __slots__ = ()

    def n3(self) -> str:
        """Return the N3/Turtle serialization of this term."""
        raise NotImplementedError

    def is_concrete(self) -> bool:
        """Return True unless this term is a query variable."""
        return True

    # Immutable: a copy is the term itself, a pickle its constructor call.
    def __copy__(self) -> "Term":
        return self

    def __deepcopy__(self, memo: Any) -> "Term":
        return self


class URIRef(Term):
    """An IRI reference, e.g. ``URIRef("http://example.org/db/author1")``."""

    __slots__ = ("value", "_hash")

    def __init__(self, value: str) -> None:
        if not isinstance(value, str):
            raise TypeError(f"URIRef value must be str, got {type(value).__name__}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)  # computed on first use

    @staticmethod
    def canonical(value: str) -> "URIRef":
        """The URI ``value``, which the caller guarantees is a ``str``
        (a minted instance URI)."""
        term = _new(URIRef)
        _uri_value(term, value)
        _uri_hash(term, None)
        return term

    def __setattr__(self, name: str, val: Any) -> None:  # immutability guard
        raise AttributeError("URIRef is immutable")

    def __reduce__(self):
        return URIRef, (self.value,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, URIRef) and other.value == self.value

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("URIRef", self.value))
            _uri_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"URIRef({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        return f"<{_escape_uri(self.value)}>"

    def local_name(self) -> str:
        """Return the part after the last ``#`` or ``/`` (heuristic)."""
        value = self.value
        for sep in ("#", "/"):
            if sep in value:
                candidate = value.rsplit(sep, 1)[1]
                if candidate:
                    return candidate
        return value


_new = object.__new__
_uri_value = URIRef.__dict__["value"].__set__
_uri_hash = URIRef.__dict__["_hash"].__set__

_bnode_counter = itertools.count(1)
_bnode_lock = threading.Lock()
_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


class BNode(Term):
    """A blank node.  Fresh labels are generated when none is given."""

    __slots__ = ("label",)

    def __init__(self, label: Optional[str] = None) -> None:
        if label is None:
            with _bnode_lock:
                label = f"b{next(_bnode_counter)}"
        elif not _BNODE_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, val: Any) -> None:
        raise AttributeError("BNode is immutable")

    def __reduce__(self):
        return BNode, (self.label,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNode) and other.label == self.label

    def __hash__(self) -> int:
        return hash(("BNode", self.label))

    def __repr__(self) -> str:
        return f"BNode({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"

    def n3(self) -> str:
        return f"_:{self.label}"


XSD_STRING = f"{_XSD}string"
XSD_INTEGER = f"{_XSD}integer"
XSD_INT = f"{_XSD}int"
XSD_DECIMAL = f"{_XSD}decimal"
XSD_DOUBLE = f"{_XSD}double"
XSD_FLOAT = f"{_XSD}float"
XSD_BOOLEAN = f"{_XSD}boolean"
XSD_DATE = f"{_XSD}date"
XSD_DATETIME = f"{_XSD}dateTime"

_NUMERIC_DATATYPES = {
    XSD_INTEGER,
    XSD_INT,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    f"{_XSD}long",
    f"{_XSD}short",
    f"{_XSD}byte",
    f"{_XSD}nonNegativeInteger",
    f"{_XSD}positiveInteger",
    f"{_XSD}unsignedInt",
}

_INTEGER_DATATYPES = {
    XSD_INTEGER,
    XSD_INT,
    f"{_XSD}long",
    f"{_XSD}short",
    f"{_XSD}byte",
    f"{_XSD}nonNegativeInteger",
    f"{_XSD}positiveInteger",
    f"{_XSD}unsignedInt",
}


class Literal(Term):
    """An RDF literal: lexical form + optional language tag or datatype.

    Python values may be passed directly; they are converted to a canonical
    lexical form and the matching XSD datatype::

        Literal(5)        -> "5"^^xsd:integer
        Literal(2.5)      -> "2.5"^^xsd:double
        Literal(True)     -> "true"^^xsd:boolean
        Literal("hello")  -> plain literal

    A literal may carry a language tag *or* a datatype, never both, matching
    the RDF abstract syntax.
    """

    __slots__ = ("lexical", "language", "datatype", "_hash")

    def __init__(
        self,
        value: Union[str, int, float, bool],
        language: Optional[str] = None,
        datatype: Optional[Union[str, URIRef]] = None,
    ) -> None:
        if isinstance(datatype, URIRef):
            datatype = datatype.value
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot have both a language tag and a datatype")

        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = double_lexical(value)
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, str):
            lexical = value
        else:
            raise TypeError(f"unsupported literal value type: {type(value).__name__}")

        if language is not None:
            language = language.lower()

        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", None)  # computed on first use

    @staticmethod
    def canonical(lexical: str, datatype: Optional[str] = None) -> "Literal":
        """The literal of canonical form ``lexical`` (a ``str``) and
        ``datatype`` (an IRI string or None), without a language tag —
        what ``Literal(lexical, datatype=datatype)`` makes, unchecked."""
        term = _new(Literal)
        _literal_lexical(term, lexical)
        _literal_language(term, None)
        _literal_datatype(term, datatype)
        _literal_hash(term, None)
        return term

    def __setattr__(self, name: str, val: Any) -> None:
        raise AttributeError("Literal is immutable")

    def __reduce__(self):
        return Literal, (self.lexical, self.language, self.datatype)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.language == self.language
            and other.datatype == self.datatype
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("Literal", self.lexical, self.language, self.datatype))
            _literal_hash(self, h)
        return h

    def __repr__(self) -> str:
        extra = ""
        if self.language:
            extra = f", language={self.language!r}"
        elif self.datatype:
            extra = f", datatype={self.datatype!r}"
        return f"Literal({self.lexical!r}{extra})"

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        quoted = '"%s"' % _escape_literal(self.lexical)
        if self.language:
            return f"{quoted}@{self.language}"
        if self.datatype and self.datatype != XSD_STRING:
            return f"{quoted}^^<{_escape_uri(self.datatype)}>"
        return quoted

    # -- value access -----------------------------------------------------

    def is_numeric(self) -> bool:
        """Return True if the datatype is one of the XSD numeric types."""
        return self.datatype in _NUMERIC_DATATYPES

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert to the closest Python value.

        Plain and string literals return their lexical form; numeric and
        boolean literals convert; unknown datatypes fall back to the lexical
        form (this mirrors how the paper's translator extracts SQL values
        from triple objects).
        """
        if self.datatype in _INTEGER_DATATYPES:
            return int(self.lexical)
        if self.datatype in _NUMERIC_DATATYPES:
            return float(self.lexical)
        if self.datatype == XSD_BOOLEAN:
            return self.lexical.strip() in ("true", "1")
        return self.lexical


_literal_lexical = Literal.__dict__["lexical"].__set__
_literal_language = Literal.__dict__["language"].__set__
_literal_datatype = Literal.__dict__["datatype"].__set__
_literal_hash = Literal.__dict__["_hash"].__set__


def double_lexical(number: float) -> str:
    """The XSD lexical form of a double: ``repr`` of a finite number,
    ``INF`` / ``-INF`` / ``NaN`` for what ``repr`` spells ``inf`` /
    ``-inf`` / ``nan``."""
    if math.isfinite(number):
        return repr(number)
    if number != number:
        return "NaN"
    return "INF" if number > 0 else "-INF"


_VARIABLE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Variable(Term):
    """A SPARQL variable (``?name`` / ``$name``)."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        name = name.lstrip("?$")
        if not _VARIABLE_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __setattr__(self, name: str, val: Any) -> None:
        raise AttributeError("Variable is immutable")

    def __reduce__(self):
        return Variable, (self.name,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"

    def is_concrete(self) -> bool:
        return False


class Placeholder(Variable):
    """A constant lifted out of a request text: the variable standing for
    the ``index``-th value of the request's value vector (see
    :meth:`repro.sparql.parse_base.SPARQLParserBase.lift`).  Its name is
    the index, which no SPARQL text can spell — a variable name starts
    with a letter or ``_`` — so it never meets a client's variable."""

    __slots__ = ()

    def __init__(self, index: int) -> None:
        name = str(index)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __reduce__(self):
        return Placeholder, (int(self.name),)


Subject = Union[URIRef, BNode, Variable]
Predicate = Union[URIRef, Variable]
Object = Union[URIRef, BNode, Literal, Variable]


class Triple(NamedTuple):
    """An RDF statement.  NamedTuple so it unpacks as ``s, p, o``."""

    subject: Subject
    predicate: Predicate
    object: Object

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def is_concrete(self) -> bool:
        """True when no component is a variable (i.e. storable in a graph)."""
        return (
            self.subject.is_concrete()
            and self.predicate.is_concrete()
            and self.object.is_concrete()
        )

    def variables(self) -> Iterator[Variable]:
        """Yield the variables appearing in this triple (in s, p, o order)."""
        for term in self:
            if isinstance(term, Variable):
                yield term


# ---------------------------------------------------------------------------
# escaping helpers shared with the serializers
# ---------------------------------------------------------------------------

def _escape_uri(value: str) -> str:
    """Escape characters not allowed inside ``<...>`` IRI syntax."""
    out = []
    for ch in value:
        if ch in "<>\"{}|^`\\" or ord(ch) <= 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _escape_literal(value: str) -> str:
    """Escape a literal's lexical form for double-quoted Turtle syntax."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
