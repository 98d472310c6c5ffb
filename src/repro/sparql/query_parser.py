"""Parser for SPARQL queries (SELECT / ASK / CONSTRUCT).

Covers the fragment needed by the paper plus what realistic clients send:
prologue, projection (``*`` or variable list), WHERE with basic graph
patterns, FILTER, OPTIONAL, UNION, and the DISTINCT / ORDER BY / LIMIT /
OFFSET solution modifiers.
"""

from __future__ import annotations

from typing import List, Optional

from ..rdf.namespace import PrefixMap
from ..rdf.terms import Variable
from .algebra_ast import TermExpr
from .parse_base import SPARQLParserBase
from .query_ast import AskQuery, ConstructQuery, OrderCondition, Query, SelectQuery

__all__ = ["parse_query", "QueryParser"]


def parse_query(text: str, prefixes: Optional[PrefixMap] = None) -> Query:
    """Parse one SPARQL query string."""
    return QueryParser(text, prefixes=prefixes).query()


class QueryParser(SPARQLParserBase):
    #: The keywords a query starts with behind the prologue;
    #: ``Session.prepare`` routes on them.
    FORMS = ("SELECT", "ASK", "CONSTRUCT")

    def query(self) -> Query:
        self.prologue()
        if self.at_keyword("SELECT"):
            result = self._select()
        elif self.at_keyword("ASK"):
            result = self._ask()
        elif self.at_keyword("CONSTRUCT"):
            result = self._construct()
        else:
            raise self.error("expected SELECT, ASK, or CONSTRUCT")
        self.expect_end()
        return result

    def _select(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        self.accept_keyword("REDUCED")  # treated like DISTINCT-less
        variables: List[Variable] = []
        self.skip_ws()
        if self.accept("*"):
            pass
        else:
            var = self.try_parse_variable()
            if var is None:
                raise self.error("expected '*' or variables after SELECT")
            while var is not None:
                variables.append(var)
                var = self.try_parse_variable()
        self.accept_keyword("WHERE")
        where = self.parse_group_graph_pattern()
        order_by, limit, offset = self._solution_modifiers()
        return SelectQuery(
            variables=tuple(variables),
            where=where,
            distinct=distinct,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def _ask(self) -> AskQuery:
        self.expect_keyword("ASK")
        self.accept_keyword("WHERE")
        return AskQuery(where=self.parse_group_graph_pattern())

    def _construct(self) -> ConstructQuery:
        self.expect_keyword("CONSTRUCT")
        self.expect("{")
        template = self.parse_triples_block()
        self.expect("}")
        self.expect_keyword("WHERE")
        where = self.parse_group_graph_pattern()
        # CONSTRUCT allows LIMIT etc. too, but they are rare; accept and
        # ignore ordering for the template-instantiation semantics.
        self._solution_modifiers()
        return ConstructQuery(template=tuple(template), where=where)

    def _solution_modifiers(self):
        order_by: List[OrderCondition] = []
        limit: Optional[int] = None
        offset: Optional[int] = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                self.skip_ws()
                if self.accept_keyword("DESC"):
                    order_by.append(
                        OrderCondition(self.parse_bracketted_expression(), True)
                    )
                elif self.accept_keyword("ASC"):
                    order_by.append(
                        OrderCondition(self.parse_bracketted_expression(), False)
                    )
                else:
                    var = self.try_parse_variable()
                    if var is None:
                        break
                    order_by.append(OrderCondition(TermExpr(var), False))
            if not order_by:
                raise self.error("expected order condition after ORDER BY")
        while True:
            if self.accept_keyword("LIMIT"):
                limit = self._parse_int()
            elif self.accept_keyword("OFFSET"):
                offset = self._parse_int()
            else:
                break
        return order_by, limit, offset

    def _parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < self.length and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected integer")
        return int(self.text[start: self.pos])
