"""Tests for FK statement sorting (step 5) and the RDF feedback protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OntoAccess, TranslationError
from repro.core.feedback import (
    HINTS,
    confirmation_graph,
    confirmation_turtle,
    error_graph,
)
from repro.core.sorting import sort_statements, topological_table_order
from repro.rdf import OA, RDF, Literal
from repro.rdf.serialize import to_turtle
from repro.rdf.terms import BNode
from repro.sql import ast, parse_sql
from repro.workloads.publication import build_database, build_mapping


@pytest.fixture
def schema():
    return build_database().schema


class TestTopologicalOrder:
    def test_parents_first(self, schema):
        order = topological_table_order(
            ["publication_author", "author", "team", "publication"], schema
        )
        assert order.index("team") < order.index("author")
        assert order.index("author") < order.index("publication_author")
        assert order.index("publication") < order.index("publication_author")

    def test_subset_only(self, schema):
        order = topological_table_order(["author", "team"], schema)
        assert order == ["team", "author"]

    def test_duplicates_collapse(self, schema):
        order = topological_table_order(["team", "team", "author"], schema)
        assert order == ["team", "author"]

    def test_unrelated_tables_keep_appearance_order(self, schema):
        order = topological_table_order(["pubtype", "publisher", "team"], schema)
        assert order == ["pubtype", "publisher", "team"]

    def test_empty(self, schema):
        assert topological_table_order([], schema) == []

    def test_cycle_detected(self):
        from repro.rdb import Database

        db = Database()
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, b INTEGER)")
        db.execute(
            "CREATE TABLE b (id INTEGER PRIMARY KEY, a INTEGER REFERENCES a(id))"
        )
        # add the back-edge to create the cycle a -> b -> a
        from repro.rdb.catalog import ForeignKey

        db.schema.table("a").foreign_keys.append(
            ForeignKey(columns=("b",), ref_table="b", ref_columns=("id",))
        )
        with pytest.raises(TranslationError, match="cyclic"):
            topological_table_order(["a", "b"], db.schema)


class TestSortStatements:
    def _insert(self, table):
        return ast.Insert(table=table, columns=("id",), rows=((ast.Literal(1),),))

    def _delete(self, table):
        return ast.Delete(table=table)

    def test_inserts_parents_first(self, schema):
        statements = [
            self._insert("publication_author"),
            self._insert("author"),
            self._insert("team"),
        ]
        ordered = [s.table for s in sort_statements(statements, schema)]
        assert ordered == ["team", "author", "publication_author"]

    def test_deletes_children_first(self, schema):
        statements = [self._delete("team"), self._delete("author")]
        ordered = [s.table for s in sort_statements(statements, schema)]
        assert ordered == ["author", "team"]

    def test_updates_between_inserts_and_deletes(self, schema):
        statements = [
            self._delete("author"),
            ast.Update("publisher", (ast.Assignment("name", ast.Literal("x")),)),
            self._insert("team"),
        ]
        kinds = [type(s).__name__ for s in sort_statements(statements, schema)]
        assert kinds == ["Insert", "Update", "Delete"]

    def test_stable_within_table(self, schema):
        a = ast.Insert("team", ("id",), ((ast.Literal(1),),))
        b = ast.Insert("team", ("id",), ((ast.Literal(2),),))
        assert sort_statements([a, b], schema) == [a, b]

    @given(
        order=st.permutations(
            ["team", "pubtype", "publisher", "author", "publication",
             "publication_author"]
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_any_input_order_yields_safe_order_property(self, order):
        """Property: whatever order translation emits, sorted INSERTs
        always place parents before children."""
        schema = build_database().schema
        statements = [
            ast.Insert(table=t, columns=("id",), rows=((ast.Literal(1),),))
            for t in order
        ]
        sorted_tables = [s.table for s in sort_statements(statements, schema)]
        position = {t: i for i, t in enumerate(sorted_tables)}
        for child, parents in {
            "author": ["team"],
            "publication": ["pubtype", "publisher"],
            "publication_author": ["publication", "author"],
        }.items():
            for parent in parents:
                assert position[parent] < position[child]


class TestFeedback:
    def test_confirmation_graph(self):
        g = confirmation_graph(statements_executed=6, operations=1)
        node = next(iter(g.subjects(RDF.type, OA.Confirmation)))
        assert g.value(node, OA.statementsExecuted, None) == Literal(6)
        assert g.value(node, OA.status, None) == Literal("ok")

    @pytest.mark.parametrize("statements", [0, 1, 2, 9, 10, 11, 99, 100, 12345])
    @pytest.mark.parametrize("operations", [1, 2, 10, 257])
    def test_confirmation_turtle_is_the_graph_serialized(self, statements, operations):
        text = confirmation_turtle(statements, operations)
        label = text.split("_:", 1)[1].split("\n", 1)[0]
        graph = confirmation_graph(statements, operations, request_uri=BNode(label))
        assert text == to_turtle(graph)

    def test_confirmation_labels_come_from_the_blank_node_counter(self):
        first, second = confirmation_turtle(1), confirmation_turtle(1)
        assert first != second
        between = BNode().label
        labels = [t.split("_:", 1)[1].split("\n", 1)[0] for t in (first, second)]
        assert sorted(int(label[1:]) for label in (*labels, between)) == [
            int(labels[0][1:]), int(labels[1][1:]), int(between[1:])
        ]

    def test_error_graph_carries_code_and_hint(self):
        error = TranslationError(
            "missing lastname",
            code=TranslationError.MISSING_REQUIRED,
            details={"subject": "http://example.org/db/author7", "table": "author"},
        )
        g = error_graph(error)
        node = next(iter(g.subjects(RDF.type, OA.Error)))
        assert g.value(node, OA.code, None) == Literal(
            TranslationError.MISSING_REQUIRED
        )
        hint = g.value(node, OA.hint, None)
        assert hint is not None
        assert "NOT NULL" in hint.lexical

    def test_error_graph_uri_details_become_uris(self):
        from repro.rdf import URIRef

        error = TranslationError(
            "bad subject",
            code=TranslationError.UNKNOWN_SUBJECT,
            details={"subject": "http://example.org/db/x1"},
        )
        g = error_graph(error)
        node = next(iter(g.subjects(RDF.type, OA.Error)))
        assert g.value(node, OA.subject, None) == URIRef("http://example.org/db/x1")

    def test_every_error_code_has_a_hint(self):
        codes = [
            value
            for name, value in vars(TranslationError).items()
            if name.isupper() and isinstance(value, str)
        ]
        for code in codes:
            assert code in HINTS, f"no improvement hint for {code}"

    def test_mediator_try_update_success(self):
        db = build_database()
        oa = OntoAccess(db, build_mapping(db))
        g = oa.try_update(
            """PREFIX foaf: <http://xmlns.com/foaf/0.1/>
               PREFIX ont: <http://example.org/ontology#>
               PREFIX ex: <http://example.org/db/>
               INSERT DATA { ex:team4 foaf:name "DB" ; ont:teamCode "DBTG" . }"""
        )
        assert list(g.subjects(RDF.type, OA.Confirmation))

    def test_mediator_try_update_error(self):
        db = build_database()
        oa = OntoAccess(db, build_mapping(db))
        g = oa.try_update(
            """PREFIX foaf: <http://xmlns.com/foaf/0.1/>
               PREFIX ex: <http://example.org/db/>
               INSERT DATA { ex:author1 foaf:firstName "NoLastname" . }"""
        )
        node = next(iter(g.subjects(RDF.type, OA.Error)))
        assert g.value(node, OA.code, None) == Literal(
            TranslationError.MISSING_REQUIRED
        )
