"""AST nodes for SPARQL graph patterns and filter expressions.

These nodes are shared between the query parser (WHERE clauses), the
update parser (MODIFY's WHERE clause), the native-graph evaluator
(:mod:`repro.sparql.algebra`), and the SPARQL→SQL translator
(:mod:`repro.core.select_translate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

from ..rdf.terms import Term, Triple, Variable

__all__ = [
    "Expr",
    "TermExpr",
    "Comparison",
    "BoolOp",
    "Not",
    "Arithmetic",
    "FunctionExpr",
    "TriplePattern",
    "Filter",
    "Optional_",
    "Union",
    "GroupPattern",
    "PatternElement",
]


# -- filter expressions -------------------------------------------------------

class Expr:
    """Marker base class for filter expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class TermExpr(Expr):
    """A term (variable, IRI, or literal) used as an expression."""

    term: Term


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # '&&' | '||'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FunctionExpr(Expr):
    """Built-in call: BOUND, STR, LANG, DATATYPE, REGEX, isIRI, ..."""

    name: str  # normalized upper case
    args: Tuple[Expr, ...]


# -- graph patterns ------------------------------------------------------------

@dataclass(frozen=True)
class TriplePattern:
    """One triple pattern within a group."""

    triple: Triple

    def variables(self) -> Iterator[Variable]:
        return self.triple.variables()


@dataclass(frozen=True)
class Filter:
    expression: Expr


@dataclass(frozen=True)
class Optional_:
    pattern: "GroupPattern"


@dataclass(frozen=True)
class Union:
    branches: Tuple["GroupPattern", ...]


PatternElement = Union  # forward placeholder, replaced below


@dataclass(frozen=True)
class GroupPattern:
    """A ``{ ... }`` group: ordered pattern elements."""

    elements: Tuple["PatternElement", ...]

    def triple_patterns(self) -> Tuple[TriplePattern, ...]:
        return tuple(e for e in self.elements if isinstance(e, TriplePattern))

    def filters(self) -> Tuple[Filter, ...]:
        return tuple(e for e in self.elements if isinstance(e, Filter))

    def optionals(self) -> Tuple[Optional_, ...]:
        return tuple(e for e in self.elements if isinstance(e, Optional_))

    def unions(self) -> Tuple[Union, ...]:
        return tuple(e for e in self.elements if isinstance(e, Union))

    def all_variables(self) -> set:
        found = set()
        for element in self.elements:
            if isinstance(element, TriplePattern):
                found.update(element.variables())
            elif isinstance(element, Optional_):
                found.update(element.pattern.all_variables())
            elif isinstance(element, Union):
                for branch in element.branches:
                    found.update(branch.all_variables())
            elif isinstance(element, GroupPattern):
                found.update(element.all_variables())
        return found


# Resolve the PatternElement union properly now that all classes exist.
from typing import Union as _TypingUnion  # noqa: E402

PatternElement = _TypingUnion[TriplePattern, Filter, Optional_, Union, GroupPattern]
