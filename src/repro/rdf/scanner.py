"""The one scanner for the term grammar Turtle, SPARQL and SPARQL/Update share.

SPARQL takes its term syntax from Turtle, and SPARQL/Update takes its
grammar from SPARQL (the paper builds on exactly that reuse), so the
productions below exist once, here in the ``rdf`` layer, and both
grammars subclass :class:`TermScanner`:

* position, line/column errors (each grammar supplies its own exception
  type as ``error_class``), whitespace and ``#`` comments, keyword
  lookahead, ``accept`` / ``expect``;
* the prologue — ``PREFIX`` / ``BASE`` in SPARQL spelling, which Turtle
  1.1 documents may use as well;
* every RDF term: ``IRIREF`` with RFC 3986 base resolution, prefixed names
  including ``PN_LOCAL`` escapes, blank-node labels, literals (short and
  long strings, language tag, ``^^`` datatype), numbers, booleans, and
  ``a`` in verb position, with one string-unescape routine;
* the predicate-object list (``verb objectList (';' (verb objectList)?)*``).

What belongs to one grammar stays with it and reaches the shared
productions through ordinary overriding, never through a flag:
:class:`~repro.rdf.turtle.TurtleParser` overrides :meth:`TermScanner.object`
to add blank-node property lists and collections,
:class:`~repro.sparql.parse_base.SPARQLParserBase` overrides ``verb`` and
``object`` to try a variable first and ``at_list_end`` to stop at its
pattern keywords.

Productions start at the current position (callers skip whitespace) and
leave the position just behind what they consumed.
"""

from __future__ import annotations

import re
from typing import List, Optional, Type

from ..errors import ReproError
from .namespace import RDF_TYPE, PrefixMap
from .terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BNode,
    Literal,
    Term,
    Triple,
    URIRef,
)

__all__ = ["TermScanner"]

_IRIREF_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*:")
_AUTHORITY_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*://[^/]*")
#: ``prefix:local``.  Dots belong to the local part only while a name
#: character follows (a trailing one ends the statement); ``\`` introduces
#: one of the PN_LOCAL_ESC characters.  Written as runs of name characters
#: joined by dots or escapes, which the regex engine matches without
#: backtracking per character.
_PN_LOCAL_ESC = r"\\[_~.\-!$&'()*+,;=/?#@%]"
_PNAME_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_.\-]*)?:"
    rf"([\w\-]*(?:(?:\.+(?=[\w\-\\])|{_PN_LOCAL_ESC})[\w\-]*)*)"
)
_BNODE_RE = re.compile(r"_:([A-Za-z0-9_](?:\.*[A-Za-z0-9_\-])*)")
_A_RE = re.compile(r"a(?![\w\-.])")  # the verb 'a', not the start of a name
_LANGTAG_RE = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")
_NUMBER_RE = re.compile(
    r"[+-]?(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
)
#: The body of a short string up to the character that ends it: the
#: closing quote, a line break or a lone trailing backslash.
_SHORT_BODY_RE = {
    '"': re.compile(r'[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*', re.S),
    "'": re.compile(r"[^'\\\n\r]*(?:\\.[^'\\\n\r]*)*", re.S),
}
#: A long string's body ends at the first delimiter not hidden by an escape.
_LONG_BODY_RE = {
    '"': re.compile(r'[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*', re.S),
    "'": re.compile(r"[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*", re.S),
}
#: One escape; the empty last alternative matches the backslash of a
#: malformed one, so :meth:`TermScanner.unescape` sees those too.
_ESCAPE_RE = re.compile(
    r"\\(?:([tbnrf\"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|)"
)
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}


class TermScanner:
    """Scanner state plus the productions both grammars share.

    Single-use: construct with the text, then call the grammar's entry
    point.  ``prefixes`` is copied, so declarations in the text never
    leak into the caller's map.
    """

    #: Exception type of :meth:`error`; each grammar sets its own.
    error_class: Type[ReproError] = ReproError

    def __init__(
        self, text: str, base: str = "", prefixes: Optional[PrefixMap] = None
    ) -> None:
        self.text = text
        self.pos = 0
        self.length = len(text)
        self.base = base
        self.prefixes = prefixes.copy() if prefixes is not None else PrefixMap()

    # -- scanning ------------------------------------------------------------

    def error(self, message: str) -> ReproError:
        """The grammar's parse error at the current position (1-based)."""
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        return self.error_class(message, line=line, column=column)

    def skip_ws(self) -> None:
        """Skip whitespace and ``#`` comments."""
        text, pos, length = self.text, self.pos, self.length
        while pos < length:
            ch = text[pos]
            if ch in " \t\r\n":
                pos += 1
            elif ch == "#":
                nl = text.find("\n", pos)
                pos = length if nl == -1 else nl + 1
            else:
                break
        self.pos = pos

    def peek(self) -> str:
        """The current character, ``""`` at the end of the text."""
        return self.text[self.pos: self.pos + 1]

    def at_keyword(self, keyword: str) -> bool:
        """Case-insensitive keyword lookahead with a word boundary."""
        end = self.pos + len(keyword)
        if self.text[self.pos:end].upper() != keyword.upper():
            return False
        following = self.text[end: end + 1]
        return not (following.isalnum() or following == "_")

    def accept_keyword(self, keyword: str) -> bool:
        self.skip_ws()
        if self.at_keyword(keyword):
            self.pos += len(keyword)
            return True
        return False

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            raise self.error(f"expected keyword {keyword}")

    def accept(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise self.error(f"expected {token!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= self.length

    # -- prologue --------------------------------------------------------------

    def prologue(self) -> None:
        """``(PREFIX pname_ns IRIREF | BASE IRIREF)*``; leaves whitespace
        skipped, so the caller is at its first keyword or statement."""
        while True:
            self.skip_ws()
            if self.at_keyword("PREFIX"):
                self.pos += 6
                self.prefix_declaration()
            elif self.at_keyword("BASE"):
                self.pos += 4
                self.base_declaration()
            else:
                return

    def prefix_declaration(self) -> None:
        """``pname_ns IRIREF`` behind either spelling of the keyword."""
        self.skip_ws()
        m = _PNAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected prefix name")
        self.pos = m.start(2)  # just behind the colon
        self.skip_ws()
        self.prefixes.bind(m.group(1) or "", self.iriref().value)

    def base_declaration(self) -> None:
        self.skip_ws()
        self.base = self.iriref().value

    # -- terms -------------------------------------------------------------------

    def iriref(self) -> URIRef:
        m = _IRIREF_RE.match(self.text, self.pos)
        if not m:
            raise self.error("malformed IRI reference")
        self.pos = m.end()
        value = m.group(1)
        if self.base and not _SCHEME_RE.match(value):
            value = _resolve_relative(self.base, value)
        return URIRef(value)

    def prefixed_name(self) -> Optional[URIRef]:
        """``prefix:local`` resolved against the prologue, or None when
        the text here is not a prefixed name."""
        m = _PNAME_RE.match(self.text, self.pos)
        if not m:
            return None
        prefix, local = m.groups("")
        namespace = self.prefixes.resolve(prefix)
        if namespace is None:
            raise self.error(f"unbound prefix: {prefix!r}")
        self.pos = m.end()
        if "\\" in local:
            local = local.replace("\\", "")  # PN_LOCAL_ESC: keep the character
        return URIRef(namespace + local)

    def blank_node_label(self) -> BNode:
        m = _BNODE_RE.match(self.text, self.pos)
        if not m:
            raise self.error("malformed blank node label")
        self.pos = m.end()
        return BNode(m.group(1))

    def literal(self) -> Literal:
        """A quoted string with an optional language tag or datatype."""
        lexical = self.string()
        m = _LANGTAG_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Literal(lexical, language=m.group(1))
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            self.skip_ws()
            if self.text.startswith("<", self.pos):
                return Literal(lexical, datatype=self.iriref())
            datatype = self.prefixed_name()
            if datatype is None:
                raise self.error("expected datatype IRI after '^^'")
            return Literal(lexical, datatype=datatype)
        return Literal(lexical)

    def string(self) -> str:
        """A short or long string in either quote style, unescaped."""
        text = self.text
        quote = text[self.pos: self.pos + 1]
        if quote not in _SHORT_BODY_RE:
            raise self.error("expected string literal")
        start = self.pos + 1
        if text.startswith(quote * 3, self.pos):
            start += 2
            end = _LONG_BODY_RE[quote].match(text, start).end()
            if not text.startswith(quote * 3, end):
                raise self.error("unterminated long string")
            self.pos = end + 3
        else:
            end = _SHORT_BODY_RE[quote].match(text, start).end()
            if not text.startswith(quote, end):
                self.pos = end
                raise self.error(
                    "newline in short string literal"
                    if text.startswith(("\n", "\r"), end)
                    else "unterminated string literal"
                )
            self.pos = end + 1
        raw = text[start:end]
        return raw if "\\" not in raw else self.unescape(raw)

    def unescape(self, raw: str) -> str:
        """Replace ``ECHAR`` and ``UCHAR`` escapes; anything else behind
        a backslash is a parse error, never a bare built-in exception."""
        def replace(m: "re.Match[str]") -> str:
            echar, code = m.group(1), m.group(2) or m.group(3)
            if echar:
                return _ECHAR[echar]
            if code and int(code, 16) <= 0x10FFFF:
                return chr(int(code, 16))
            raise self.error(
                f"bad escape sequence {raw[m.start():m.start() + 2]} in string"
            )

        return _ESCAPE_RE.sub(replace, raw)

    def number(self) -> Optional[Literal]:
        """Integer, decimal or double shorthand, or None when the text
        here is not a number."""
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            return None
        lexical = m.group(0)
        exponent = "e" in lexical or "E" in lexical
        if lexical.endswith(".") and not exponent:
            lexical = lexical[:-1]  # '5.' is the integer 5, then the terminator
        self.pos = m.start() + len(lexical)
        if exponent:
            return Literal(lexical, datatype=XSD_DOUBLE)
        return Literal(lexical, datatype=XSD_DECIMAL if "." in lexical else XSD_INTEGER)

    def term(self) -> Term:
        """Any RDF term both grammars write the same way."""
        text, pos = self.text, self.pos
        ch = text[pos: pos + 1]
        if ch == "<":
            return self.iriref()
        if ch == '"' or ch == "'":
            return self.literal()
        if ch == "_" and text.startswith("_:", pos):
            return self.blank_node_label()
        name = self.prefixed_name()
        if name is not None:
            return name
        number = self.number()
        if number is not None:
            return number
        if self.at_keyword("true"):
            self.pos += 4
            return Literal("true", datatype=XSD_BOOLEAN)
        if self.at_keyword("false"):
            self.pos += 5
            return Literal("false", datatype=XSD_BOOLEAN)
        raise self.error("expected an RDF term (IRI, prefixed name, literal or blank node)")

    # -- predicate-object lists ----------------------------------------------------

    def verb(self) -> Term:
        """``IRIREF | prefixed name | 'a'``."""
        if self.text.startswith("<", self.pos):
            return self.iriref()
        name = self.prefixed_name()
        if name is not None:
            return name
        if _A_RE.match(self.text, self.pos):
            self.pos += 1
            return RDF_TYPE
        raise self.error("expected predicate (IRI, prefixed name, or 'a')")

    def object(self) -> Term:
        """The object position; grammars override it to add their own
        forms in front of :meth:`term`."""
        return self.term()

    def at_list_end(self) -> bool:
        """Is the next character one that closes a statement or block
        (or the end of the text)?  Decides whether a ``;`` was trailing."""
        return self.text[self.pos: self.pos + 1] in ".]}"

    def predicate_object_list(self, subject: Term, out: List[Triple]) -> None:
        """``verb objectList (';' (verb objectList)?)*`` appended to
        ``out`` as triples of ``subject``; an object's own triples (a
        nested property list) land in front of the triple that uses it."""
        text = self.text
        while True:
            predicate = self.verb()
            self.skip_ws()
            while True:
                out.append(Triple(subject, predicate, self.object()))
                self.skip_ws()
                if not text.startswith(",", self.pos):
                    break
                self.pos += 1
                self.skip_ws()
            if not text.startswith(";", self.pos):
                return
            self.pos += 1
            self.skip_ws()
            if self.at_list_end():
                return


def _resolve_relative(base: str, relative: str) -> str:
    """Minimal RFC 3986 relative-reference resolution (no dot segments)."""
    if not relative:
        return base
    if relative.startswith("#"):
        return base.split("#", 1)[0] + relative
    if relative.startswith("//"):
        return base.split(":", 1)[0] + ":" + relative
    if relative.startswith("/"):
        m = _AUTHORITY_RE.match(base)
        return (m.group(0) if m else base.rstrip("/")) + relative
    # Relative path: replace everything after the last '/' of the path.
    path_start = base.find("//") + 2 if "//" in base else 0
    if "/" in base[path_start:]:
        return base.rsplit("/", 1)[0] + "/" + relative
    return base + relative
