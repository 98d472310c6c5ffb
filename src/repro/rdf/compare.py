"""Graph comparison utilities.

:func:`isomorphic` decides whether two graphs are equal up to blank-node
relabelling.  R3M mappings and the feedback protocol use blank nodes for
constraint descriptions, so tests comparing serialized/parsed mappings need
isomorphism rather than exact equality.

The algorithm is the standard iterative colour-refinement (hash-signature)
scheme with backtracking over same-signature candidates.  Graphs in this
project have few blank nodes, so worst-case behaviour is not a concern.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .graph import Graph
from .terms import BNode, Term, Triple

__all__ = ["isomorphic", "graph_diff"]


def isomorphic(left: Graph, right: Graph) -> bool:
    """Return True when the graphs match modulo blank-node labels."""
    if len(left) != len(right):
        return False

    left_ground = {t for t in left if not _has_bnode(t)}
    right_ground = {t for t in right if not _has_bnode(t)}
    if left_ground != right_ground:
        return False

    left_bnodes = _bnodes(left)
    right_bnodes = _bnodes(right)
    if len(left_bnodes) != len(right_bnodes):
        return False
    if not left_bnodes:
        return True

    return _find_mapping(left, right, sorted(left_bnodes, key=lambda b: b.label), {})


def graph_diff(left: Graph, right: Graph) -> Tuple[Graph, Graph]:
    """Return (only-in-left, only-in-right) ignoring bnode-free overlap.

    This is a debugging aid for tests; blank-node triples are compared
    exactly (by label), so use :func:`isomorphic` for the real check.
    """
    return left.difference(right), right.difference(left)


def _has_bnode(triple: Triple) -> bool:
    return isinstance(triple.subject, BNode) or isinstance(triple.object, BNode)


def _bnodes(graph: Graph) -> Set[BNode]:
    found: Set[BNode] = set()
    for s, _, o in graph:
        if isinstance(s, BNode):
            found.add(s)
        if isinstance(o, BNode):
            found.add(o)
    return found


def _signature(graph: Graph, node: BNode) -> Tuple:
    """A bnode-blind structural signature used to prune candidate pairs."""
    out = sorted(
        (p.value, _term_key(o)) for _, p, o in graph.triples(subject=node)
    )
    inc = sorted(
        (_term_key(s), p.value) for s, p, _ in graph.triples(object=node)
    )
    return (tuple(out), tuple(inc))


def _term_key(term: Term) -> str:
    if isinstance(term, BNode):
        return "\x00bnode"
    return term.n3()


def _find_mapping(
    left: Graph,
    right: Graph,
    remaining: List[BNode],
    mapping: Dict[BNode, BNode],
) -> bool:
    if not remaining:
        return _check_mapping(left, right, mapping)
    node = remaining[0]
    node_sig = _signature(left, node)
    used = set(mapping.values())
    for candidate in sorted(_bnodes(right), key=lambda b: b.label):
        if candidate in used:
            continue
        if _signature(right, candidate) != node_sig:
            continue
        mapping[node] = candidate
        if _find_mapping(left, right, remaining[1:], mapping):
            return True
        del mapping[node]
    return False


def _check_mapping(left: Graph, right: Graph, mapping: Dict[BNode, BNode]) -> bool:
    def translate(term: Term) -> Term:
        if isinstance(term, BNode):
            return mapping[term]
        return term

    for s, p, o in left:
        if not _has_bnode(Triple(s, p, o)):
            continue
        if not right.contains(translate(s), p, translate(o)):
            return False
    return True
