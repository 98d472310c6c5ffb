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
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..errors import SPARQLParseError
from ..rdf.namespace import PrefixMap
from ..rdf.scanner import TermScanner
from ..rdf.terms import BNode, Term, Triple, Variable
from . import algebra_ast as alg

_VAR_RE = re.compile(r"[?$]([A-Za-z_][A-Za-z0-9_]*)")
_PATTERN_KEYWORD_RE = re.compile(r"(?:FILTER|OPTIONAL|UNION)(?![A-Za-z0-9_])", re.I)
#: ``<`` opens an IRI, not a comparison, when a ``>`` closes it first.
_IRI_AHEAD_RE = re.compile(r"<[^ =<>]*>")

__all__ = ["SPARQLParserBase"]


class SPARQLParserBase(TermScanner):
    """Variables, triples blocks, graph patterns and expressions;
    the query and update parsers subclass this."""

    error_class = SPARQLParseError

    def __init__(self, text: str, prefixes: Optional[PrefixMap] = None) -> None:
        super().__init__(text, prefixes=prefixes)
        self._anon_counter = 0

    def expect_end(self) -> None:
        if not self.at_end():
            raise self.error("unexpected trailing input")

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
        return self.term()

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
