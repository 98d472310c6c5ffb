"""Unit tests for the indexed Graph."""

import pytest

from repro.rdf import EX, FOAF, Graph, Literal, Triple, URIRef, Variable


def t(s, p, o):
    return Triple(s, p, o)


@pytest.fixture
def small_graph():
    g = Graph()
    g.add(t(EX.author1, FOAF.firstName, Literal("Matthias")))
    g.add(t(EX.author1, FOAF.family_name, Literal("Hert")))
    g.add(t(EX.author2, FOAF.firstName, Literal("Gerald")))
    g.add(t(EX.author2, FOAF.family_name, Literal("Reif")))
    return g


class TestMutation:
    def test_add_returns_true_for_new(self):
        g = Graph()
        assert g.add(t(EX.a, FOAF.name, Literal("x")))

    def test_add_duplicate_returns_false(self):
        g = Graph()
        triple = t(EX.a, FOAF.name, Literal("x"))
        g.add(triple)
        assert not g.add(triple)
        assert len(g) == 1

    def test_add_rejects_variables(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add(t(Variable("x"), FOAF.name, Literal("x")))

    def test_add_accepts_plain_tuple(self):
        g = Graph()
        g.add((EX.a, FOAF.name, Literal("x")))
        assert len(g) == 1

    def test_remove(self, small_graph):
        triple = t(EX.author1, FOAF.firstName, Literal("Matthias"))
        assert small_graph.remove(triple)
        assert triple not in small_graph
        assert len(small_graph) == 3

    def test_remove_absent_returns_false(self, small_graph):
        assert not small_graph.remove(t(EX.nobody, FOAF.name, Literal("x")))

    def test_clear(self, small_graph):
        small_graph.clear()
        assert len(small_graph) == 0
        assert list(small_graph) == []

    def test_add_all_counts_new_only(self, small_graph):
        added = small_graph.add_all(
            [
                t(EX.author1, FOAF.firstName, Literal("Matthias")),  # dup
                t(EX.author3, FOAF.firstName, Literal("Harald")),
            ]
        )
        assert added == 1

    def test_remove_then_readd(self):
        g = Graph()
        triple = t(EX.a, FOAF.name, Literal("x"))
        g.add(triple)
        g.remove(triple)
        assert g.add(triple)
        assert len(g) == 1


class TestPatternMatching:
    def test_fully_bound(self, small_graph):
        matches = list(
            small_graph.triples(EX.author1, FOAF.firstName, Literal("Matthias"))
        )
        assert len(matches) == 1

    def test_subject_only(self, small_graph):
        assert len(list(small_graph.triples(EX.author1))) == 2

    def test_predicate_only(self, small_graph):
        assert len(list(small_graph.triples(None, FOAF.firstName, None))) == 2

    def test_object_only(self, small_graph):
        assert len(list(small_graph.triples(None, None, Literal("Hert")))) == 1

    def test_subject_predicate(self, small_graph):
        matches = list(small_graph.triples(EX.author2, FOAF.family_name, None))
        assert matches == [t(EX.author2, FOAF.family_name, Literal("Reif"))]

    def test_predicate_object(self, small_graph):
        matches = list(small_graph.triples(None, FOAF.firstName, Literal("Gerald")))
        assert [m.subject for m in matches] == [EX.author2]

    def test_subject_object(self, small_graph):
        matches = list(small_graph.triples(EX.author1, None, Literal("Hert")))
        assert [m.predicate for m in matches] == [FOAF.family_name]

    def test_all_wildcards(self, small_graph):
        assert len(list(small_graph.triples())) == 4

    def test_no_match_returns_empty(self, small_graph):
        assert list(small_graph.triples(EX.nobody)) == []

    def test_contains(self, small_graph):
        assert t(EX.author1, FOAF.family_name, Literal("Hert")) in small_graph
        assert t(EX.author1, FOAF.family_name, Literal("Nope")) not in small_graph


class TestAccessors:
    def test_subjects_deduplicated(self, small_graph):
        assert len(list(small_graph.subjects())) == 2

    def test_subjects_filtered(self, small_graph):
        subs = list(small_graph.subjects(FOAF.firstName, Literal("Matthias")))
        assert subs == [EX.author1]

    def test_objects(self, small_graph):
        objs = set(small_graph.objects(EX.author1))
        assert objs == {Literal("Matthias"), Literal("Hert")}

    def test_predicates(self, small_graph):
        preds = set(small_graph.predicates(subject=EX.author1))
        assert preds == {FOAF.firstName, FOAF.family_name}

    def test_value_object_position(self, small_graph):
        val = small_graph.value(EX.author1, FOAF.firstName, None)
        assert val == Literal("Matthias")

    def test_value_subject_position(self, small_graph):
        val = small_graph.value(None, FOAF.family_name, Literal("Reif"))
        assert val == EX.author2

    def test_value_none_when_absent(self, small_graph):
        assert small_graph.value(EX.author1, FOAF.mbox, None) is None

    def test_value_requires_one_unbound(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.value(EX.author1, None, None)


class TestSetOperations:
    def test_copy_is_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add(t(EX.author3, FOAF.firstName, Literal("Harald")))
        assert len(small_graph) == 4
        assert len(clone) == 5

    def test_union(self, small_graph):
        other = Graph([t(EX.author3, FOAF.firstName, Literal("Harald"))])
        merged = small_graph.union(other)
        assert len(merged) == 5

    def test_difference(self, small_graph):
        other = Graph([t(EX.author1, FOAF.firstName, Literal("Matthias"))])
        diff = small_graph.difference(other)
        assert len(diff) == 3

    def test_equality(self, small_graph):
        assert small_graph == small_graph.copy()
        assert small_graph != Graph()

    def test_bool(self):
        assert not Graph()
        assert Graph([t(EX.a, FOAF.name, Literal("x"))])


class TestStatistics:
    def test_counts(self, small_graph):
        assert small_graph.subject_count() == 2
        assert small_graph.predicate_count() == 2

    def test_index_consistency_after_removals(self, small_graph):
        for triple in list(small_graph):
            small_graph.remove(triple)
        assert small_graph.subject_count() == 0
        assert small_graph.predicate_count() == 0
        assert len(small_graph) == 0


class TestUndoJournal:
    """O(changes) transactions: record inverse ops, replay on rollback."""

    def test_rollback_restores_adds_and_removes(self, small_graph):
        before = small_graph.copy()
        small_graph.start_journal()
        small_graph.add(t(EX.author3, FOAF.firstName, Literal("Harald")))
        small_graph.remove(t(EX.author1, FOAF.family_name, Literal("Hert")))
        small_graph.rollback_journal()
        assert small_graph == before
        assert not small_graph.journaling()

    def test_rollback_restores_clear(self, small_graph):
        before = small_graph.copy()
        small_graph.start_journal()
        small_graph.clear()
        assert len(small_graph) == 0
        small_graph.rollback_journal()
        assert small_graph == before

    def test_commit_keeps_changes(self, small_graph):
        small_graph.start_journal()
        small_graph.add(t(EX.author3, FOAF.firstName, Literal("Harald")))
        small_graph.commit_journal()
        assert t(EX.author3, FOAF.firstName, Literal("Harald")) in small_graph

    def test_noop_mutations_are_not_journaled(self, small_graph):
        """Re-adding a present triple / removing an absent one records
        nothing, so rollback cannot over-undo."""
        present = t(EX.author1, FOAF.firstName, Literal("Matthias"))
        small_graph.start_journal()
        small_graph.add(present)  # already there
        small_graph.remove(t(EX.author3, FOAF.name, Literal("nope")))
        small_graph.rollback_journal()
        assert present in small_graph

    def test_nested_journal_rejected(self, small_graph):
        small_graph.start_journal()
        with pytest.raises(ValueError):
            small_graph.start_journal()
        small_graph.commit_journal()
        with pytest.raises(ValueError):
            small_graph.commit_journal()
