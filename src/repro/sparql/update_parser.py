"""Parser for SPARQL/Update requests.

Grammar (after the shared prologue), following the 2008 member submission
the paper builds on, plus the SPARQL 1.1-style ``DELETE/INSERT ... WHERE``
that the submission's MODIFY generalizes:

    Update      := Prologue Operation ( ';'? Operation )*
    Operation   := InsertData | DeleteData | Modify | DeleteWhere
                 | InsertWhere | Clear
    InsertData  := 'INSERT' 'DATA' QuadData
    DeleteData  := 'DELETE' 'DATA' QuadData
    Modify      := 'MODIFY' ('DELETE' Template)? ('INSERT' Template)?
                   'WHERE' GroupGraphPattern
    DeleteWhere := 'DELETE' Template ('INSERT' Template)? 'WHERE' GGP
    InsertWhere := 'INSERT' Template 'WHERE' GGP
    Clear       := 'CLEAR'

INSERT DATA / DELETE DATA payloads must be concrete (no variables) — the
parser enforces this, matching the submission.  Prepared operations
(:mod:`repro.core.session`) relax the rule: with ``allow_placeholders``
the data blocks may contain variables that are bound to concrete terms at
execute time, mirroring SQL prepared-statement parameters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..rdf.namespace import PrefixMap
from ..rdf.terms import Placeholder, Triple, Variable
from .parse_base import SPARQLParserBase
from .update_ast import (
    Clear,
    DeleteData,
    InsertData,
    Modify,
    UpdateOperation,
    UpdateRequest,
)

__all__ = ["parse_update", "UpdateParser"]


def parse_update(
    text: str,
    prefixes: Optional[PrefixMap] = None,
    allow_placeholders: bool = False,
) -> UpdateRequest:
    """Parse a SPARQL/Update request string.

    ``allow_placeholders`` permits variables inside INSERT DATA / DELETE
    DATA blocks (prepared-operation templates); by default the submission's
    concreteness rule is enforced.
    """
    parser = UpdateParser(text, prefixes=prefixes)
    parser.allow_placeholders = allow_placeholders
    return parser.request()


class UpdateParser(SPARQLParserBase):
    #: When True, data blocks may contain variables (prepared templates).
    allow_placeholders = False
    #: The keywords an operation starts with; ``Session.prepare`` routes
    #: on them.
    FORMS = ("INSERT", "DELETE", "MODIFY", "CLEAR")

    def request(self) -> UpdateRequest:
        self.prologue()
        operations: List[UpdateOperation] = [self._operation()]
        while True:
            self.accept(";")
            self.skip_ws()
            if self.at_end():
                break
            operations.append(self._operation())
        return UpdateRequest(operations=tuple(operations))

    def _operation(self) -> UpdateOperation:
        self.skip_ws()
        if self.at_keyword("INSERT"):
            self.pos += len("INSERT")
            if self.accept_keyword("DATA"):
                return InsertData(triples=self._concrete_triples("INSERT DATA"))
            # INSERT {template} WHERE {pattern}
            insert_template = self._template()
            self.expect_keyword("WHERE")
            where = self.parse_group_graph_pattern()
            return Modify(
                delete_template=(), insert_template=insert_template, where=where
            )
        if self.at_keyword("DELETE"):
            self.pos += len("DELETE")
            if self.accept_keyword("DATA"):
                return DeleteData(triples=self._concrete_triples("DELETE DATA"))
            delete_template = self._template()
            insert_template: Tuple[Triple, ...] = ()
            if self.accept_keyword("INSERT"):
                insert_template = self._template()
            self.expect_keyword("WHERE")
            where = self.parse_group_graph_pattern()
            return Modify(
                delete_template=delete_template,
                insert_template=insert_template,
                where=where,
            )
        if self.accept_keyword("MODIFY"):
            # An optional graph IRI may follow MODIFY in the submission;
            # the mediator has a single graph, so accept and ignore it.
            self.skip_ws()
            if self.peek() == "<":
                self.iriref()
            delete_template = ()
            insert_template = ()
            if self.accept_keyword("DELETE"):
                delete_template = self._template()
            if self.accept_keyword("INSERT"):
                insert_template = self._template()
            if not delete_template and not insert_template:
                raise self.error("MODIFY requires a DELETE and/or INSERT clause")
            self.expect_keyword("WHERE")
            where = self.parse_group_graph_pattern()
            return Modify(
                delete_template=delete_template,
                insert_template=insert_template,
                where=where,
            )
        if self.accept_keyword("CLEAR"):
            return Clear()
        raise self.error("expected INSERT, DELETE, MODIFY, or CLEAR")

    def _template(self) -> Tuple[Triple, ...]:
        self.expect("{")
        triples = self.parse_triples_block()
        self.expect("}")
        return tuple(triples)

    def _concrete_triples(self, operation: str) -> Tuple[Triple, ...]:
        self.expect("{")
        triples = self.parse_triples_block()
        self.expect("}")
        if not self.allow_placeholders:
            for triple in triples:
                # a constant lifted out of the text is no client variable
                if any(
                    isinstance(term, Variable) and not isinstance(term, Placeholder)
                    for term in triple
                ):
                    raise self.error(
                        f"{operation} must not contain variables: {triple.n3()}"
                    )
        return tuple(triples)
