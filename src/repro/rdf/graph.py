"""An indexed in-memory RDF graph (triple store).

This is both the substrate for R3M mapping documents and the "native triple
store" baseline used in the paper's comparison narrative.  The store keeps
three permutation indexes (SPO, POS, OSP) so that every triple-pattern shape
is answered by at most two hash lookups plus an iteration — the standard
design of 2010-era main-memory stores.

Example::

    g = Graph()
    g.add(Triple(EX.author1, FOAF.name, Literal("Matthias")))
    for s, p, o in g.triples(None, FOAF.name, None):
        ...
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set

from .terms import Object, Predicate, Subject, Term, Triple

__all__ = ["Graph"]

_Index = Dict[Term, Dict[Term, Set[Term]]]


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: _Index, a: Term, b: Term, c: Term) -> None:
    try:
        layer = index[a]
        members = layer[b]
        members.discard(c)
        if not members:
            del layer[b]
            if not layer:
                del index[a]
    except KeyError:
        pass


class Graph:
    """A set of concrete RDF triples with pattern-match indexes.

    The graph enforces concreteness: triples containing
    :class:`~repro.rdf.terms.Variable` terms are rejected, since variables
    only belong in query templates.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        #: Active undo journal: inverse operations recorded per effective
        #: mutation (see :meth:`start_journal`), or None when inactive.
        self._journal: Optional[list] = None
        if triples is not None:
            for triple in triples:
                self.add(triple)

    # -- mutation ----------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Add ``triple``; return True if it was not already present."""
        if not isinstance(triple, Triple):
            triple = Triple(*triple)
        if not triple.is_concrete():
            raise ValueError(f"cannot store a non-concrete triple: {triple!r}")
        s, p, o = triple
        if self.contains(s, p, o):
            return False
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        if self._journal is not None:
            self._journal.append((False, triple))  # undo: remove it again
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove ``triple``; return True if it was present."""
        s, p, o = triple
        if not self.contains(s, p, o):
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        self._size -= 1
        if self._journal is not None:
            self._journal.append((True, triple))  # undo: add it back
        return True

    # -- undo journal ------------------------------------------------------

    def start_journal(self) -> None:
        """Begin recording inverse operations for every effective mutation.

        Powers cheap O(changes) transactions over the graph (see
        :class:`repro.core.backend.TripleStoreBackend`) — a snapshot copy
        would cost O(graph) per transaction instead.
        """
        if self._journal is not None:
            raise ValueError("a journal is already active")
        self._journal = []

    def commit_journal(self) -> None:
        """Stop journaling, keeping all mutations."""
        self._require_journal()
        self._journal = None

    def rollback_journal(self) -> None:
        """Undo every journaled mutation (newest first), stop journaling."""
        entries = self._require_journal()
        self._journal = None  # undo operations must not journal themselves
        for was_removal, triple in reversed(entries):
            if was_removal:
                self.add(triple)
            else:
                self.remove(triple)

    def journaling(self) -> bool:
        return self._journal is not None

    def _require_journal(self) -> list:
        if self._journal is None:
            raise ValueError("no journal is active")
        return self._journal

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple; return the number of new ones."""
        return sum(1 for t in triples if self.add(t))

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove every listed triple; return the number removed."""
        return sum(1 for t in list(triples) if self.remove(t))

    def clear(self) -> None:
        if self._journal is not None:
            self._journal.extend((True, t) for t in self)
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0

    # -- queries -----------------------------------------------------------

    def contains(self, subject: Subject, predicate: Predicate, object: Object) -> bool:
        try:
            return object in self._spo[subject][predicate]
        except KeyError:
            return False

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(*triple)

    def triples(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[Predicate] = None,
        object: Optional[Object] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern; ``None`` is a wildcard.

        Dispatches to the index with the most bound leading positions.
        """
        s, p, o = subject, predicate, object
        if s is not None:
            layer = self._spo.get(s)
            if layer is None:
                return
            if p is not None:
                members = layer.get(p)
                if members is None:
                    return
                if o is not None:
                    if o in members:
                        yield Triple(s, p, o)
                    return
                for obj in list(members):
                    yield Triple(s, p, obj)
                return
            for pred, members in list(layer.items()):
                if o is not None:
                    if o in members:
                        yield Triple(s, pred, o)
                    continue
                for obj in list(members):
                    yield Triple(s, pred, obj)
            return
        if p is not None:
            layer = self._pos.get(p)
            if layer is None:
                return
            if o is not None:
                for subj in list(layer.get(o, ())):
                    yield Triple(subj, p, o)
                return
            for obj, subjects in list(layer.items()):
                for subj in list(subjects):
                    yield Triple(subj, p, obj)
            return
        if o is not None:
            layer = self._osp.get(o)
            if layer is None:
                return
            for subj, preds in list(layer.items()):
                for pred in list(preds):
                    yield Triple(subj, pred, o)
            return
        for subj, layer in list(self._spo.items()):
            for pred, members in list(layer.items()):
                for obj in list(members):
                    yield Triple(subj, pred, obj)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        # An empty graph is falsy like other containers.
        return self._size > 0

    # -- convenience accessors ----------------------------------------------

    def subjects(
        self, predicate: Optional[Predicate] = None, object: Optional[Object] = None
    ) -> Iterator[Subject]:
        seen: Set[Term] = set()
        for s, _, _ in self.triples(None, predicate, object):
            if s not in seen:
                seen.add(s)
                yield s

    def predicates(
        self, subject: Optional[Subject] = None, object: Optional[Object] = None
    ) -> Iterator[Predicate]:
        seen: Set[Term] = set()
        for _, p, _ in self.triples(subject, None, object):
            if p not in seen:
                seen.add(p)
                yield p

    def objects(
        self, subject: Optional[Subject] = None, predicate: Optional[Predicate] = None
    ) -> Iterator[Object]:
        seen: Set[Term] = set()
        for _, _, o in self.triples(subject, predicate, None):
            if o not in seen:
                seen.add(o)
                yield o

    def value(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[Predicate] = None,
        object: Optional[Object] = None,
    ) -> Optional[Term]:
        """Return one matching term for the single unbound position.

        Exactly one of the three arguments must be None.  Returns None when
        nothing matches; if several match an arbitrary one is returned.
        """
        unbound = [subject, predicate, object].count(None)
        if unbound != 1:
            raise ValueError("value() requires exactly one unbound position")
        for s, p, o in self.triples(subject, predicate, object):
            if subject is None:
                return s
            if predicate is None:
                return p
            return o
        return None

    # -- set operations ------------------------------------------------------

    def copy(self) -> "Graph":
        return Graph(self.triples())

    def union(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.add_all(other)
        return result

    def difference(self, other: "Graph") -> "Graph":
        return Graph(t for t in self if t not in other)

    def __eq__(self, other: object) -> bool:
        """Exact (label-sensitive) equality.  For bnode-isomorphism use
        :func:`repro.rdf.compare.isomorphic`."""
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(t in other for t in self)

    def __repr__(self) -> str:
        return f"<Graph with {self._size} triples>"

    # -- statistics -----------------------------------------------------------

    def subject_count(self) -> int:
        return len(self._spo)

    def predicate_count(self) -> int:
        return len(self._pos)
