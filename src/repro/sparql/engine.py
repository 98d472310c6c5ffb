"""SPARQL query and update execution over a native Graph.

This module is the "native triple store" role in the paper's narrative: it
executes SPARQL queries and applies SPARQL/Update operations directly to an
in-memory graph — no relational mediation.  The OntoAccess mediator is
benchmarked against this baseline, and the equivalence property tests use
it as the semantic oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..rdf.terms import BNode, Literal, Term, Triple, URIRef, Variable
from .algebra import Solution, evaluate_pattern, instantiate
from .expressions import EvalError, evaluate_expr
from .query_ast import AskQuery, ConstructQuery, Query, SelectQuery
from .query_parser import parse_query
from .update_ast import Clear, DeleteData, InsertData, Modify, UpdateRequest
from .update_parser import parse_update

__all__ = [
    "SelectResult",
    "term_json",
    "query",
    "shape_result",
    "update",
    "apply_operation",
    "apply_select_modifiers",
]


@dataclass
class SelectResult:
    """Bindings table produced by a SELECT query."""

    variables: Tuple[Variable, ...]
    solutions: List[Solution] = field(default_factory=list)

    def rows(self) -> List[Tuple[Optional[Term], ...]]:
        return [
            tuple(solution.get(var) for var in self.variables)
            for solution in self.solutions
        ]

    def column(self, name: str) -> List[Optional[Term]]:
        var = Variable(name)
        return [solution.get(var) for solution in self.solutions]

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def json_bindings(self) -> Iterator[str]:
        """Each solution as the text of a SPARQL 1.1 Query Results JSON
        binding object, its variables in the solution's order."""
        for solution in self.solutions:
            yield json.dumps({
                v.name: term_json(t) for v, t in solution.items() if t is not None
            })


def term_json(term: Term) -> dict:
    """One RDF term in SPARQL 1.1 Query Results JSON form."""
    if isinstance(term, URIRef):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": term.label}
    if isinstance(term, Literal):
        binding = {"type": "literal", "value": term.lexical}
        if term.language is not None:
            binding["xml:lang"] = term.language
        elif term.datatype is not None:
            binding["datatype"] = term.datatype
        return binding
    raise TypeError(f"cannot serialize {type(term).__name__} to JSON")


def query(
    graph: Graph,
    q: Union[str, Query],
    prefixes: Optional[PrefixMap] = None,
    bindings: Optional[Solution] = None,
) -> Union[SelectResult, bool, Graph]:
    """Execute a SPARQL query against ``graph``.

    Returns a :class:`SelectResult` for SELECT, ``bool`` for ASK, and a new
    :class:`Graph` for CONSTRUCT.  ``bindings`` are initial bindings of
    the WHERE pattern (see :func:`~repro.sparql.algebra.evaluate_pattern`).
    """
    if isinstance(q, str):
        q = parse_query(q, prefixes=prefixes)
    return shape_result(q, evaluate_pattern(graph, q.where, bindings))


def shape_result(
    q: Query, solutions: List[Solution]
) -> Union[SelectResult, bool, Graph]:
    """The result of query ``q`` given the solutions of its WHERE pattern.

    Shared between the native evaluator and the RDB-mediated query path
    (which produces its solutions from translated SQL)."""
    if isinstance(q, SelectQuery):
        return apply_select_modifiers(q, solutions)
    if isinstance(q, AskQuery):
        return bool(solutions)
    if isinstance(q, ConstructQuery):
        result = Graph()
        for solution in solutions:
            result.add_all(instantiate(q.template, solution))
        return result
    raise TypeError(f"unknown query type {type(q).__name__}")


def apply_select_modifiers(q: SelectQuery, solutions: List[Solution]) -> SelectResult:
    """Apply projection, DISTINCT, ORDER BY, LIMIT/OFFSET to raw solutions.

    Called for the native store's answers, for a pattern the mediator
    evaluated over the RDB dump, and for what a translated query could
    not hand to SQL (see :mod:`repro.core.select_translate`): then ``q``
    is the query with the modifiers SQL already applied removed — its
    residue, as ``post_filters`` are a pattern's FILTER residue.  A
    translated query whose modifiers all went into its SQL does not
    come here: its answer step emits the projected solutions directly.
    """
    solutions = list(solutions)
    variables = q.projected()

    if q.order_by:
        for condition in reversed(q.order_by):
            solutions.sort(
                key=lambda s: _order_key(condition.expression, s),
                reverse=condition.descending,
            )

    projected = [
        {var: s[var] for var in variables if var in s} for s in solutions
    ]
    if q.distinct:
        seen = set()
        unique: List[Solution] = []
        for solution in projected:
            key = tuple(sorted((v.name, t.n3()) for v, t in solution.items()))
            if key not in seen:
                seen.add(key)
                unique.append(solution)
        projected = unique
    if q.offset is not None:
        projected = projected[q.offset:]
    if q.limit is not None:
        projected = projected[: q.limit]
    return SelectResult(variables=variables, solutions=projected)


def _order_key(expr, solution: Solution):
    try:
        value = evaluate_expr(expr, solution)
    except EvalError:
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", str(value))
    if isinstance(value, (int, float)):
        return (2, "", value)
    if isinstance(value, str):
        return (3, "", value)
    if isinstance(value, Literal):
        if value.is_numeric():
            try:
                return (2, "", value.to_python())
            except ValueError:
                pass
        return (3, "", value.lexical)
    if isinstance(value, URIRef):
        return (4, "", value.value)
    return (5, "", str(value))


def update(
    graph: Graph,
    request: Union[str, UpdateRequest],
    prefixes: Optional[PrefixMap] = None,
) -> Dict[str, int]:
    """Apply a SPARQL/Update request to ``graph`` (native semantics).

    Returns counters: ``{"added": n, "removed": m}``.
    """
    if isinstance(request, str):
        request = parse_update(request, prefixes=prefixes)
    added = removed = 0
    for operation in request.operations:
        a, r = apply_operation(graph, operation)
        added += a
        removed += r
    return {"added": added, "removed": removed}


def apply_operation(graph: Graph, operation) -> Tuple[int, int]:
    """Apply one update operation; returns (added, removed)."""
    if isinstance(operation, InsertData):
        return graph.add_all(operation.triples), 0
    if isinstance(operation, DeleteData):
        return 0, graph.remove_all(operation.triples)
    if isinstance(operation, Modify):
        solutions = evaluate_pattern(graph, operation.where, operation.bindings)
        to_remove: List[Triple] = []
        to_add: List[Triple] = []
        for solution in solutions:
            to_remove.extend(instantiate(operation.delete_template, solution))
            to_add.extend(instantiate(operation.insert_template, solution))
        removed = graph.remove_all(to_remove)
        added = graph.add_all(to_add)
        return added, removed
    if isinstance(operation, Clear):
        removed = len(graph)
        graph.clear()
        return 0, removed
    raise TypeError(f"unknown update operation {type(operation).__name__}")
