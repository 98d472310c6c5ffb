"""Evaluation of SPARQL graph patterns over an in-memory Graph.

This is the "native triple store" query path: basic graph pattern matching
with index-backed candidate lookup, plus FILTER, OPTIONAL (left join), and
UNION.  Solutions are dictionaries mapping :class:`Variable` to concrete
terms.

Blank nodes appearing in a *pattern* act as non-distinguished variables
(standard SPARQL semantics), implemented by renaming them to fresh
variables before matching.

A pattern can be evaluated under *initial bindings* (a prepared
operation's placeholders): every solution starts from them, so a bound
variable constrains each part of the pattern like a constant written in
its place, and is part of every solution.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import BNode, Term, Triple, Variable
from . import algebra_ast as alg
from .expressions import filter_accepts

__all__ = [
    "Solution",
    "evaluate_pattern",
    "initial_solution",
    "match_bgp",
    "instantiate",
    "substitute",
]

Solution = Dict[Variable, Term]


def initial_solution(bindings: Optional[Solution]) -> Solution:
    """What every solution of a pattern evaluated under ``bindings``
    starts from.  A blank node binds nothing: like one written in the
    pattern it matches anything, so its variable stays free."""
    if not bindings:
        return {}
    return {
        var: term for var, term in bindings.items() if not isinstance(term, BNode)
    }


def evaluate_pattern(
    graph: Graph,
    pattern: alg.GroupPattern,
    bindings: Optional[Solution] = None,
) -> List[Solution]:
    """Evaluate a group graph pattern; returns all solutions (each one an
    extension of the initial ``bindings``)."""
    pattern = _rename_bnodes(pattern)
    solutions: List[Solution] = [initial_solution(bindings)]

    # Group semantics: join all triple patterns and subgroups/unions/
    # optionals in order, then apply filters over the whole group.
    for element in pattern.elements:
        if isinstance(element, alg.TriplePattern):
            solutions = _join_triple(graph, solutions, element.triple)
        elif isinstance(element, alg.GroupPattern):
            solutions = _join_solutions(
                solutions, evaluate_pattern(graph, element, bindings)
            )
        elif isinstance(element, alg.Union):
            branch_solutions: List[Solution] = []
            for branch in element.branches:
                branch_solutions.extend(
                    evaluate_pattern(graph, branch, bindings)
                )
            solutions = _join_solutions(solutions, branch_solutions)
        elif isinstance(element, alg.Optional_):
            solutions = _left_join(
                solutions, evaluate_pattern(graph, element.pattern, bindings)
            )
        elif isinstance(element, alg.Filter):
            pass  # applied below, after the group is complete
        else:
            raise TypeError(f"unknown pattern element {type(element).__name__}")

    for filt in pattern.filters():
        solutions = [s for s in solutions if filter_accepts(filt.expression, s)]
    return solutions


def match_bgp(graph: Graph, triples: Tuple[Triple, ...]) -> List[Solution]:
    """Match a bare basic graph pattern (no filters/optionals)."""
    solutions: List[Solution] = [{}]
    for triple in triples:
        solutions = _join_triple(graph, solutions, triple)
    return solutions


def substitute(triple: Triple, solution: Solution) -> Triple:
    """Replace bound variables in a triple pattern (a solution's keys are
    variables, so no other term is found in it)."""
    term = solution.get
    s, p, o = triple
    return Triple(term(s, s), term(p, p), term(o, o))


def instantiate(
    template: Tuple[Triple, ...], solution: Solution
) -> List[Triple]:
    """Instantiate a CONSTRUCT/MODIFY template against one solution.

    Triples left non-concrete (an unbound variable survived) are skipped,
    per SPARQL semantics.  Blank nodes in the template are renamed fresh
    per solution.
    """
    bnode_map: Dict[BNode, BNode] = {}
    result: List[Triple] = []
    for triple in template:
        candidate = substitute(triple, solution)
        s, p, o = candidate
        s = _fresh_bnode(s, bnode_map)
        o = _fresh_bnode(o, bnode_map)
        candidate = Triple(s, p, o)
        if candidate.is_concrete():
            result.append(candidate)
    return result


def _fresh_bnode(term: Term, mapping: Dict[BNode, BNode]) -> Term:
    if isinstance(term, BNode):
        if term not in mapping:
            mapping[term] = BNode()
        return mapping[term]
    return term


# ---------------------------------------------------------------------------

def _join_triple(
    graph: Graph, solutions: List[Solution], pattern: Triple
) -> List[Solution]:
    result: List[Solution] = []
    for solution in solutions:
        bound = substitute(pattern, solution)
        s = bound.subject if bound.subject.is_concrete() else None
        p = bound.predicate if bound.predicate.is_concrete() else None
        o = bound.object if bound.object.is_concrete() else None
        for match in graph.triples(s, p, o):
            extended = _unify(bound, match, solution)
            if extended is not None:
                result.append(extended)
    return result


def _unify(
    pattern: Triple, match: Triple, solution: Solution
) -> Optional[Solution]:
    extended = dict(solution)
    for pattern_term, matched_term in zip(pattern, match):
        if isinstance(pattern_term, Variable):
            existing = extended.get(pattern_term)
            if existing is not None and existing != matched_term:
                return None
            extended[pattern_term] = matched_term
        elif pattern_term != matched_term:
            return None
    return extended


def _compatible(left: Solution, right: Solution) -> Optional[Solution]:
    merged = dict(left)
    for var, term in right.items():
        existing = merged.get(var)
        if existing is not None and existing != term:
            return None
        merged[var] = term
    return merged


def _join_solutions(
    left: List[Solution], right: List[Solution]
) -> List[Solution]:
    result = []
    for l in left:
        for r in right:
            merged = _compatible(l, r)
            if merged is not None:
                result.append(merged)
    return result


def _left_join(
    solutions: List[Solution], optional_solutions: List[Solution]
) -> List[Solution]:
    result = []
    for solution in solutions:
        matched = False
        for opt in optional_solutions:
            merged = _compatible(solution, opt)
            if merged is not None:
                result.append(merged)
                matched = True
        if not matched:
            result.append(solution)
    return result


def _rename_bnodes(pattern: alg.GroupPattern) -> alg.GroupPattern:
    """Replace blank nodes in triple patterns with fresh variables."""
    mapping: Dict[BNode, Variable] = {}
    counter = [0]

    def rename_term(term: Term) -> Term:
        if isinstance(term, BNode):
            if term not in mapping:
                counter[0] += 1
                mapping[term] = Variable(f"__bnode_{term.label}_{counter[0]}")
            return mapping[term]
        return term

    def rename_element(element: alg.PatternElement) -> alg.PatternElement:
        if isinstance(element, alg.TriplePattern):
            s, p, o = element.triple
            return alg.TriplePattern(
                Triple(rename_term(s), rename_term(p), rename_term(o))
            )
        if isinstance(element, alg.GroupPattern):
            return alg.GroupPattern(
                tuple(rename_element(e) for e in element.elements)
            )
        if isinstance(element, alg.Optional_):
            return alg.Optional_(rename_element(element.pattern))
        if isinstance(element, alg.Union):
            return alg.Union(
                tuple(rename_element(b) for b in element.branches)
            )
        return element

    if not any(
        isinstance(t, BNode)
        for tp in _all_triple_patterns(pattern)
        for t in tp.triple
    ):
        return pattern
    return rename_element(pattern)


def _all_triple_patterns(
    pattern: alg.GroupPattern,
) -> Iterator[alg.TriplePattern]:
    for element in pattern.elements:
        if isinstance(element, alg.TriplePattern):
            yield element
        elif isinstance(element, alg.GroupPattern):
            yield from _all_triple_patterns(element)
        elif isinstance(element, alg.Optional_):
            yield from _all_triple_patterns(element.pattern)
        elif isinstance(element, alg.Union):
            for branch in element.branches:
                yield from _all_triple_patterns(branch)
