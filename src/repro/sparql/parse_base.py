"""What SPARQL adds to the term grammar it shares with Turtle.

SPARQL reuses Turtle's term syntax, and SPARQL/Update reuses the SPARQL
grammar (the paper builds on both), so the prologue, every RDF term and
the ``;`` / ``,`` predicate-object list are scanned by
:class:`~repro.rdf.scanner.TermScanner` — the code the Turtle parser
runs.  This base class of the query and update parsers keeps only what
SPARQL alone has:

* variables (``?x`` / ``$x``) — :meth:`verb` and :meth:`object` try one
  first and fall through to the shared productions, so the shared code
  never asks who is calling;
* the anonymous blank node ``[]`` in a pattern (property lists and
  collections are Turtle-only: the paper's patterns never nest);
* triples blocks that end at ``}`` or at a pattern keyword instead of
  needing a final ``.``;
* group graph patterns with FILTER / OPTIONAL / UNION, and FILTER
  expressions.

Patterns are represented with the AST nodes of
:mod:`repro.sparql.algebra_ast`; errors are
:class:`~repro.errors.SPARQLParseError` with line and column.

A request text is also read as a *shape plus values*
(:meth:`SPARQLParserBase.lift`): one pass over its tokens lifts the
constants in term positions into a value vector and yields the key the
session keeps the parsed shape under; the parser then reads that shape
once, with each lifted constant replaced by its :class:`~repro.rdf.terms.
Placeholder` (:attr:`SPARQLParserBase.lifted`).
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..errors import SPARQLParseError
from ..rdf.namespace import RDF, PrefixMap
from ..rdf.scanner import (
    _BNODE_RE,
    _IRIREF_RE,
    _LANGTAG_RE,
    _LONG_BODY_RE,
    _NUMBER_RE,
    _PNAME_RE,
    _SCHEME_RE,
    _SHORT_BODY_RE,
    TermScanner,
    _resolve_relative,
)
from ..rdf.terms import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BNode,
    Literal,
    Placeholder,
    Term,
    Triple,
    URIRef,
    Variable,
)
from . import algebra_ast as alg

_VAR_RE = re.compile(r"[?$]([A-Za-z_][A-Za-z0-9_]*)")
_PATTERN_KEYWORD_RE = re.compile(r"(?:FILTER|OPTIONAL|UNION)(?![A-Za-z0-9_])", re.I)
#: ``<`` opens an IRI, not a comparison, when a ``>`` closes it first and
#: nothing between is barred from an IRI (an ``=`` makes it ``<=``).
_IRI_AHEAD_RE = re.compile(r"<[^<>\"{}|^`\\\x00-\x20=]*>")
_WS = r"(?:[ \t\r\n]++|#[^\n]*+)*+"
_DECLARATION = r"(?i:PREFIX|BASE)(?!\w)"
#: A literal, from the scanner's body, language-tag, IRI and prefixed-name
#: regexes: a long string before a short one, then the tag or datatype.
_LITERAL = (
    "(?:"
    + "|".join(
        rf"{quote * 3}(?s:{_LONG_BODY_RE[quote].pattern}){quote * 3}" for quote in "\"'"
    )
    + "|"
    + "|".join(rf"{quote}(?s:{_SHORT_BODY_RE[quote].pattern}){quote}" for quote in "\"'")
    + rf")(?:{_LANGTAG_RE.pattern}|\^\^{_WS}(?:{_IRIREF_RE.pattern}|{_PNAME_RE.pattern}))?"
)
#: One token behind whitespace and ``#`` comments, assembled from the
#: term productions' own regexes; the group that matched names its kind.
#: The prologue is one token (its declarations as written); a number
#: never ends in the ``.`` that ends a statement.  Operators the parser
#: reads as one are one token.  A token only says where a term is: its
#: value is always what the scanner's production reads there.
_TOKEN_RE = re.compile(
    rf"{_WS}(?:"
    rf"(?P<bnode>{_BNODE_RE.pattern})"
    rf"|(?P<pname>{_PNAME_RE.pattern})"
    r"|(?P<punct>[{};,()\[\]*=]|\.(?!\d)|<=|>=|!=|&&|\|\|)"
    rf"|(?P<var>{_VAR_RE.pattern})"
    rf"|(?P<string>{_LITERAL})"
    rf"|(?P<iri>{_IRIREF_RE.pattern})"
    rf"|(?P<prologue>{_DECLARATION}(?:{_WS}(?:{_DECLARATION}|{_IRIREF_RE.pattern}"
    rf"|{_PNAME_RE.pattern}))*+)"
    r"|(?P<word>[A-Za-z_]\w*)"
    rf"|(?P<number>(?:{_NUMBER_RE.pattern})(?<!\.))"
    r"|(?P<other>[^ \t\r\n]))?"
)
#: How the verb ``rdf:type`` is spelled where its object is a class,
#: which is shape.  (Another spelling lifts the class: still the same
#: answer — translation pins a class placeholder to its value.)
_TYPE_VERBS = frozenset(("a", "rdf:type", RDF.type.n3()))
#: where a term in a group is (:meth:`SPARQLParserBase.lift`)
_SUBJECT, _VERB, _OBJECT = range(3)

__all__ = ["Lifted", "SPARQLParserBase"]


class Lifted(NamedTuple):
    """A request text read as shape plus values (:meth:`SPARQLParserBase.lift`)."""

    #: the shape: every token as written, ``?<slot>`` for a lifted one
    key: str
    #: (start, end, slot) of each lifted constant in the text
    spans: Tuple[Tuple[int, int, int], ...]
    #: per slot: (start, end) of its first constant
    slots: Tuple[Tuple[int, int], ...]
    #: per slot: the kind of token its first constant is (``iri``,
    #: ``pname``, ``string``, ``number`` or ``word`` for a boolean)
    kinds: Tuple[str, ...]


class SPARQLParserBase(TermScanner):
    """Variables, triples blocks, graph patterns and expressions;
    the query and update parsers subclass this."""

    error_class = SPARQLParseError

    #: Set before parsing a text's shape: the start of each lifted
    #: constant -> (its end, its placeholder).  :meth:`object` reads the
    #: term there as usual and returns the placeholder instead, and
    #: records the start in :attr:`consumed` — where that misses a lifted
    #: constant, the parse is no shape of the text.
    lifted: Optional[Dict[int, Tuple[int, Placeholder]]] = None

    def __init__(self, text: str, prefixes: Optional[PrefixMap] = None) -> None:
        super().__init__(text, prefixes=prefixes)
        self._anon_counter = 0
        self.consumed: Set[int] = set()

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.error("unexpected trailing input")

    # -- shape and values ------------------------------------------------------

    def lift(self) -> Optional[Lifted]:
        """Read the text as a shape plus values, in one pass of its tokens.

        Lifted into the value vector: IRIs and prefixed names in subject
        and object position — not the object of ``a`` / ``rdf:type``, a
        class is shape — and literals, numbers and booleans wherever a
        group reads a term (triples, templates, FILTER constants).
        Constants spelled alike share a slot, and which slots are shared
        is part of the key.  The key is every other token as written —
        predicates, classes, variables, blank nodes, keywords, LIMIT /
        OFFSET, the prologue's declarations — with ``?<slot>`` for a
        lifted constant; whitespace and comments between tokens are not
        in it.  The values are read by :meth:`lifted_values`.

        None when the text cannot be read so (a literal where the grammar
        has no term): the caller parses it, and the parser reports its
        own error.
        """
        scan = _TOKEN_RE.scanner(self.text).match
        parts: List[str] = []
        spans: List[Tuple[int, int, int]] = []
        slots: List[Tuple[int, int]] = []
        kinds: List[str] = []
        spelled: Dict[str, int] = {}
        depth = parens = 0
        position = _SUBJECT
        typed = filtering = False
        while True:
            m = scan()
            kind = m.lastgroup
            if kind is None:
                return Lifted(
                    " ".join(parts), tuple(spans), tuple(slots), tuple(kinds)
                )
            token = m.group(kind)
            lift = False
            if parens:  # inside FILTER ( ... ): literals are lifted
                if token == "(":
                    parens += 1
                elif token == ")":
                    parens -= 1
                lift = kind == "string" or kind == "number" or (
                    kind == "word" and token.lower() in ("true", "false")
                )
            elif depth == 0:
                if token == "{":
                    depth, position = 1, _SUBJECT
            elif kind == "punct":
                if token == "{":
                    depth, position = depth + 1, _SUBJECT
                elif token == "}":
                    depth, position = depth - 1, _SUBJECT
                elif token == ".":
                    position = _SUBJECT
                elif token == ";":
                    position = _VERB
                elif token == "(" and filtering:
                    parens = 1
                elif token == "]" and position == _SUBJECT:
                    position = _VERB
                filtering = False
            elif kind == "word" and token.upper() in ("FILTER", "OPTIONAL", "UNION"):
                position, filtering = _SUBJECT, token.upper() == "FILTER"
            elif position == _VERB:
                typed = token in _TYPE_VERBS
                position = _OBJECT
            elif kind == "word":
                lift = token.lower() in ("true", "false")
                if position == _SUBJECT:
                    position = _VERB
            else:
                lift = kind == "string" or kind == "number" or (
                    (kind == "pname" or kind == "iri")
                    and not (typed and position == _OBJECT)
                )
                if position == _SUBJECT:
                    position = _VERB
            if lift:
                slot = spelled.get(token)
                if slot is None:
                    slot = spelled[token] = len(slots)
                    slots.append(m.span(kind))
                    kinds.append(kind)
                parts.append("?" + str(slot))
                spans.append((*m.span(kind), slot))
            elif kind == "string":
                return None  # where the grammar reads no term
            else:
                parts.append(token)

    def lifted_values(
        self, lifted: Lifted, prefixes: PrefixMap, base: str
    ) -> Optional[Tuple[Term, ...]]:
        """The value vector of a lifted text: each slot's term as
        :meth:`term` — the production the parser reads it with — reads it
        under the bindings of the shape's prologue (``prefixes``,
        ``base``; the texts of one key share it).  A token whose term
        needs no more than its own text is built from it directly
        (:meth:`_token_term`); any other is read by :meth:`term` over its
        span.  None where that is not the constant the key was made of
        (the caller parses the text, and the parser reports its own
        error)."""
        self.prefixes, self.base = prefixes, base
        text = self.text
        values: List[Term] = []
        for (start, end), kind in zip(lifted.slots, lifted.kinds):
            term = self._token_term(kind, text[start:end])
            if term is None:
                self.pos = start
                try:
                    term = self.term()
                except SPARQLParseError:
                    return None
                if self.pos != end:
                    return None
            values.append(term)
        return tuple(values)

    def _token_term(self, kind: str, token: str) -> Optional[Term]:
        """What :meth:`term` reads from one token of the token pass, built
        from the token: a prefixed name, an IRI (resolved against the
        base), a number, a boolean, or a string without a backslash whose
        datatype (if any) follows ``^^`` directly.  None for anything
        else — an escape, an unbound prefix, a space or comment behind
        ``^^`` — which :meth:`term` reads."""
        if kind == "pname":
            return self._prefixed(token)
        if kind == "iri":
            return self._resolved(token[1:-1])
        if kind == "number":
            if "e" in token or "E" in token:
                return Literal.canonical(token, XSD_DOUBLE)
            return Literal.canonical(token, XSD_DECIMAL if "." in token else XSD_INTEGER)
        if kind == "word":
            return Literal.canonical(token.lower(), XSD_BOOLEAN)
        if kind != "string" or "\\" in token:
            return None
        quote = token[0]
        if token.startswith(quote * 3):
            close = token.index(quote * 3, 3)
            body, rest = token[3:close], token[close + 3:]
        else:
            close = token.index(quote, 1)
            body, rest = token[1:close], token[close + 1:]
        if not rest:
            return Literal.canonical(body)
        if rest[0] == "@":
            return Literal(body, language=rest[1:])
        datatype = rest[2:]
        if datatype[0] == "<":
            return Literal.canonical(body, self._resolved(datatype[1:-1]).value)
        iri = self._prefixed(datatype)
        return None if iri is None else Literal.canonical(body, iri.value)

    def _prefixed(self, name: str) -> Optional[URIRef]:
        """:meth:`prefixed_name` of a whole prefixed name; None when its
        prefix is unbound."""
        prefix, _, local = name.partition(":")
        namespace = self.prefixes.resolve(prefix)
        if namespace is None:
            return None
        if "\\" in local:
            local = local.replace("\\", "")  # PN_LOCAL_ESC: keep the character
        return URIRef.canonical(namespace + local)

    def _resolved(self, value: str) -> URIRef:
        """:meth:`iriref` of the text between ``<`` and ``>``."""
        if self.base and not _SCHEME_RE.match(value):
            value = _resolve_relative(self.base, value)
        return URIRef.canonical(value)

    # -- terms ---------------------------------------------------------------

    def _variable(self) -> Optional[Variable]:
        m = _VAR_RE.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return Variable(m.group(1))

    def try_parse_variable(self) -> Optional[Variable]:
        self.skip_ws()
        return self._variable()

    def verb(self) -> Term:
        """A variable, or the shared verb (IRI, prefixed name, ``a``)."""
        return self._variable() or TermScanner.verb(self)

    def object(self) -> Term:
        """A variable, ``[]``, or a shared RDF term."""
        variable = self._variable()
        if variable is not None:
            return variable
        if self.text.startswith("[", self.pos):
            # anonymous bnode []; property lists are not supported in
            # patterns (rarely used, and absent from the paper's examples)
            start = self.pos
            self.pos += 1
            if not self.accept("]"):
                self.pos = start
                raise self.error("blank node property lists are not supported here")
            self._anon_counter += 1
            return BNode(f"anon{self._anon_counter}")
        if self.lifted is None:
            return self.term()
        start = self.pos
        term = self.term()
        slot = self.lifted.get(start)
        if slot is None or slot[0] != self.pos:
            return term
        self.consumed.add(start)
        return slot[1]

    def parse_term(self) -> Term:
        """Any RDF term or variable, after optional whitespace."""
        self.skip_ws()
        return self.object()

    # -- triple blocks ---------------------------------------------------------

    def at_list_end(self) -> bool:
        """A block also ends where FILTER / OPTIONAL / UNION begins."""
        return (
            self.text[self.pos: self.pos + 1] in ".]}"
            or _PATTERN_KEYWORD_RE.match(self.text, self.pos) is not None
        )

    def parse_triples_block(self) -> List[Triple]:
        """Parse triples with ``;`` and ``,`` shorthand until a delimiter.

        Used for INSERT/DELETE DATA payloads, CONSTRUCT/MODIFY templates,
        and the triple-pattern part of group graph patterns.  The ``.``
        separates statements; the last one may omit it.
        """
        triples: List[Triple] = []
        while True:
            self.skip_ws()
            if self.at_list_end():
                return triples
            subject = self.object()
            self.skip_ws()
            self.predicate_object_list(subject, triples)
            if not self.accept("."):
                if self.at_list_end():
                    return triples
                raise self.error("expected '.' between triples")

    # -- group graph patterns -----------------------------------------------------

    def parse_group_graph_pattern(self) -> alg.GroupPattern:
        """Parse ``{ ... }`` with triple patterns, FILTER, OPTIONAL, UNION."""
        self.expect("{")
        elements: List[alg.PatternElement] = []
        while True:
            self.skip_ws()
            if self.accept("}"):
                return alg.GroupPattern(tuple(elements))
            if self.accept_keyword("FILTER"):
                elements.append(alg.Filter(self.parse_bracketted_expression()))
                self.accept(".")
                continue
            if self.accept_keyword("OPTIONAL"):
                elements.append(alg.Optional_(self.parse_group_graph_pattern()))
                self.accept(".")
                continue
            if self.peek() == "{":
                left = self.parse_group_graph_pattern()
                self.skip_ws()
                if self.accept_keyword("UNION"):
                    branches = [left, self.parse_group_graph_pattern()]
                    while self.accept_keyword("UNION"):
                        branches.append(self.parse_group_graph_pattern())
                    elements.append(alg.Union(tuple(branches)))
                else:
                    elements.append(left)
                self.accept(".")
                continue
            triples = self.parse_triples_block()
            if not triples:
                raise self.error("expected graph pattern element")
            elements.extend(alg.TriplePattern(t) for t in triples)

    # -- filter expressions ----------------------------------------------------------

    def parse_bracketted_expression(self) -> alg.Expr:
        self.expect("(")
        expr = self.parse_expression()
        self.expect(")")
        return expr

    def parse_expression(self) -> alg.Expr:
        return self._or_expression()

    def _or_expression(self) -> alg.Expr:
        left = self._and_expression()
        while self.accept("||"):
            left = alg.BoolOp("||", left, self._and_expression())
        return left

    def _and_expression(self) -> alg.Expr:
        left = self._relational_expression()
        while self.accept("&&"):
            left = alg.BoolOp("&&", left, self._relational_expression())
        return left

    def _relational_expression(self) -> alg.Expr:
        left = self._additive_expression()
        self.skip_ws()
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self.text.startswith(op, self.pos):
                if op == "<" and _IRI_AHEAD_RE.match(self.text, self.pos):
                    break
                self.pos += len(op)
                return alg.Comparison(op, left, self._additive_expression())
        return left

    def _additive_expression(self) -> alg.Expr:
        left = self._multiplicative_expression()
        while True:
            self.skip_ws()
            if self.peek() == "+":
                self.pos += 1
                left = alg.Arithmetic("+", left, self._multiplicative_expression())
            elif self.peek() == "-":
                self.pos += 1
                left = alg.Arithmetic("-", left, self._multiplicative_expression())
            else:
                return left

    def _multiplicative_expression(self) -> alg.Expr:
        left = self._unary_expression()
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                left = alg.Arithmetic("*", left, self._unary_expression())
            elif self.peek() == "/":
                self.pos += 1
                left = alg.Arithmetic("/", left, self._unary_expression())
            else:
                return left

    def _unary_expression(self) -> alg.Expr:
        self.skip_ws()
        if self.peek() == "!" and not self.text.startswith("!=", self.pos):
            self.pos += 1
            return alg.Not(self._unary_expression())
        return self._primary_expression()

    _FUNCTIONS = (
        "BOUND",
        "ISIRI",
        "ISURI",
        "ISBLANK",
        "ISLITERAL",
        "STR",
        "LANG",
        "DATATYPE",
        "REGEX",
        "SAMETERM",
        "LANGMATCHES",
    )

    def _primary_expression(self) -> alg.Expr:
        self.skip_ws()
        if self.peek() == "(":
            return self.parse_bracketted_expression()
        for name in self._FUNCTIONS:
            if self.at_keyword(name):
                self.pos += len(name)
                self.expect("(")
                args = [self.parse_expression()]
                while self.accept(","):
                    args.append(self.parse_expression())
                self.expect(")")
                return alg.FunctionExpr(name.upper(), tuple(args))
        return alg.TermExpr(self.parse_term())
