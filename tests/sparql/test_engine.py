"""Tests for SPARQL evaluation over the native graph (queries + updates)."""

import pytest

from repro.rdf import EX, FOAF, ONT, RDF, Graph, Literal, Triple, URIRef, Variable
from repro.sparql import SelectResult, parse_update, query, update

P = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""


@pytest.fixture
def graph():
    g = Graph()
    g.add(Triple(EX.author1, RDF.type, FOAF.Person))
    g.add(Triple(EX.author1, FOAF.firstName, Literal("Matthias")))
    g.add(Triple(EX.author1, FOAF.family_name, Literal("Hert")))
    g.add(Triple(EX.author1, FOAF.mbox, URIRef("mailto:hert@ifi.uzh.ch")))
    g.add(Triple(EX.author1, ONT.team, EX.team5))
    g.add(Triple(EX.author2, RDF.type, FOAF.Person))
    g.add(Triple(EX.author2, FOAF.firstName, Literal("Gerald")))
    g.add(Triple(EX.author2, FOAF.family_name, Literal("Reif")))
    g.add(Triple(EX.team5, RDF.type, FOAF.Group))
    g.add(Triple(EX.team5, FOAF.name, Literal("Software Engineering")))
    return g


class TestSelect:
    def test_single_pattern(self, graph):
        result = query(graph, P + "SELECT ?n WHERE { ex:author1 foaf:firstName ?n . }")
        assert result.rows() == [(Literal("Matthias"),)]

    def test_join_on_variable(self, graph):
        result = query(
            graph,
            P
            + """SELECT ?first ?team WHERE {
                ?x foaf:firstName ?first ;
                   ont:team ?t .
                ?t foaf:name ?team .
            }""",
        )
        assert result.rows() == [
            (Literal("Matthias"), Literal("Software Engineering"))
        ]

    def test_paper_listing_11_where_clause(self, graph):
        """The WHERE of Listing 11 binds ?x=author1, ?mbox=mailto:..."""
        result = query(
            graph,
            P
            + """SELECT ?x ?mbox WHERE {
                ?x rdf:type foaf:Person ;
                   foaf:firstName "Matthias" ;
                   foaf:family_name "Hert" ;
                   foaf:mbox ?mbox .
            }""",
        )
        assert len(result) == 1
        assert result.solutions[0][Variable("x")] == EX.author1
        assert result.solutions[0][Variable("mbox")] == URIRef("mailto:hert@ifi.uzh.ch")

    def test_filter_comparison(self, graph):
        graph.add(Triple(EX.pub1, ONT.pubYear, Literal(1999)))
        graph.add(Triple(EX.pub2, ONT.pubYear, Literal(2009)))
        result = query(
            graph, P + "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER(?y >= 2000) }"
        )
        assert result.rows() == [(EX.pub2,)]

    def test_filter_regex(self, graph):
        result = query(
            graph,
            P + 'SELECT ?x WHERE { ?x foaf:mbox ?m . FILTER(REGEX(STR(?m), "uzh")) }',
        )
        assert result.rows() == [(EX.author1,)]

    def test_filter_bound_with_optional(self, graph):
        result = query(
            graph,
            P
            + """SELECT ?x WHERE {
                ?x rdf:type foaf:Person .
                OPTIONAL { ?x foaf:mbox ?m . }
                FILTER(!BOUND(?m))
            }""",
        )
        assert result.rows() == [(EX.author2,)]

    def test_optional_binds_when_present(self, graph):
        result = query(
            graph,
            P
            + """SELECT ?x ?m WHERE {
                ?x rdf:type foaf:Person .
                OPTIONAL { ?x foaf:mbox ?m . }
            } ORDER BY ?x""",
        )
        rows = result.rows()
        assert len(rows) == 2
        by_subject = {r[0]: r[1] for r in rows}
        assert by_subject[EX.author1] == URIRef("mailto:hert@ifi.uzh.ch")
        assert by_subject[EX.author2] is None

    def test_union(self, graph):
        graph.add(Triple(EX.author2, FOAF.nick, Literal("gerald")))
        result = query(
            graph,
            P
            + """SELECT ?v WHERE {
                { ex:author1 foaf:firstName ?v . } UNION { ex:author2 foaf:nick ?v . }
            }""",
        )
        values = {r[0] for r in result.rows()}
        assert values == {Literal("Matthias"), Literal("gerald")}

    def test_distinct(self, graph):
        result = query(graph, P + "SELECT DISTINCT ?t WHERE { ?x rdf:type ?t . }")
        assert len(result) == 2

    def test_order_and_limit(self, graph):
        result = query(
            graph,
            P + "SELECT ?n WHERE { ?x foaf:firstName ?n . } ORDER BY ?n LIMIT 1",
        )
        assert result.rows() == [(Literal("Gerald"),)]

    def test_order_desc(self, graph):
        result = query(
            graph,
            P + "SELECT ?n WHERE { ?x foaf:firstName ?n . } ORDER BY DESC(?n)",
        )
        assert [r[0] for r in result.rows()] == [
            Literal("Matthias"),
            Literal("Gerald"),
        ]

    def test_no_solutions(self, graph):
        result = query(graph, P + 'SELECT ?x WHERE { ?x foaf:firstName "Nobody" . }')
        assert len(result) == 0

    def test_bnode_in_pattern_acts_as_variable(self, graph):
        result = query(
            graph, P + "SELECT ?n WHERE { _:someone foaf:firstName ?n . }"
        )
        assert len(result) == 2


class TestInitialBindings:
    """``bindings`` bind variables before evaluation: the variable reads
    as the term wherever the pattern uses it, and every solution has it."""

    def test_bound_variable_constrains_and_is_returned(self, graph):
        result = query(
            graph,
            P + "SELECT ?x ?n WHERE { ?x foaf:firstName ?n . }",
            bindings={Variable("x"): EX.author2},
        )
        assert result.rows() == [(EX.author2, Literal("Gerald"))]

    def test_binding_reaches_optional_union_subgroup_and_filter(self, graph):
        result = query(
            graph,
            P
            + """SELECT ?n ?m WHERE {
                { ?x foaf:firstName ?n } UNION { ?x foaf:name ?n }
                OPTIONAL { ?x foaf:mbox ?m }
                { ?x rdf:type ?c }
                FILTER(?c = ?cls)
            }""",
            bindings={Variable("x"): EX.author1, Variable("cls"): FOAF.Person},
        )
        assert result.rows() == [
            (Literal("Matthias"), URIRef("mailto:hert@ifi.uzh.ch"))
        ]

    def test_literal_subject_matches_nothing(self, graph):
        result = query(
            graph,
            P + "SELECT ?n WHERE { ?x foaf:firstName ?n . }",
            bindings={Variable("x"): Literal("x")},
        )
        assert len(result) == 0

    def test_blank_node_binds_nothing(self, graph):
        from repro.rdf.terms import BNode

        result = query(
            graph,
            P + "SELECT ?n WHERE { ?x foaf:firstName ?n . }",
            bindings={Variable("x"): BNode()},
        )
        assert len(result) == 2  # as a blank node written in the pattern

    def test_ask_and_construct(self, graph):
        bound = {Variable("x"): EX.author2}
        assert query(graph, P + "ASK { ?x ont:team ?t }", bindings=bound) is False
        built = query(
            graph,
            P + "CONSTRUCT { ?x foaf:name ?n } WHERE { ?x foaf:family_name ?n }",
            bindings=bound,
        )
        assert list(built) == [Triple(EX.author2, FOAF.name, Literal("Reif"))]


class TestAskConstruct:
    def test_ask_true(self, graph):
        assert query(graph, P + 'ASK { ?x foaf:family_name "Hert" . }') is True

    def test_ask_false(self, graph):
        assert query(graph, P + 'ASK { ?x foaf:family_name "Nobody" . }') is False

    def test_construct(self, graph):
        result = query(
            graph,
            P
            + "CONSTRUCT { ?x foaf:name ?n . } WHERE { ?x foaf:firstName ?n . }",
        )
        assert isinstance(result, Graph)
        assert Triple(EX.author1, FOAF.name, Literal("Matthias")) in result

    def test_construct_skips_partial_bindings(self, graph):
        result = query(
            graph,
            P
            + """CONSTRUCT { ?x foaf:mbox ?m . } WHERE {
                ?x rdf:type foaf:Person .
                OPTIONAL { ?x foaf:mbox ?m . }
            }""",
        )
        assert len(result) == 1  # author2 has no mbox binding


class TestUpdate:
    def test_insert_data(self, graph):
        before = len(graph)
        stats = update(
            graph, P + 'INSERT DATA { ex:author3 foaf:firstName "Harald" . }'
        )
        assert stats == {"added": 1, "removed": 0}
        assert len(graph) == before + 1

    def test_insert_data_idempotent(self, graph):
        op = P + 'INSERT DATA { ex:author3 foaf:firstName "Harald" . }'
        update(graph, op)
        stats = update(graph, op)
        assert stats["added"] == 0  # set semantics

    def test_delete_data(self, graph):
        stats = update(
            graph,
            P + "DELETE DATA { ex:author1 foaf:mbox <mailto:hert@ifi.uzh.ch> . }",
        )
        assert stats == {"added": 0, "removed": 1}

    def test_delete_data_absent_triple(self, graph):
        stats = update(
            graph, P + 'DELETE DATA { ex:author1 foaf:nick "nope" . }'
        )
        assert stats["removed"] == 0

    def test_modify_paper_listing_11(self, graph):
        """Applying Listing 11 natively replaces the mbox triple."""
        stats = update(
            graph,
            P
            + """
            MODIFY
            DELETE { ?x foaf:mbox ?mbox . }
            INSERT { ?x foaf:mbox <mailto:hert@example.com> . }
            WHERE {
                ?x rdf:type foaf:Person ;
                   foaf:firstName "Matthias" ;
                   foaf:family_name "Hert" ;
                   foaf:mbox ?mbox .
            }
            """,
        )
        assert stats == {"added": 1, "removed": 1}
        assert Triple(EX.author1, FOAF.mbox, URIRef("mailto:hert@example.com")) in graph
        assert (
            Triple(EX.author1, FOAF.mbox, URIRef("mailto:hert@ifi.uzh.ch"))
            not in graph
        )

    def test_modify_no_match_is_noop(self, graph):
        before = len(graph)
        stats = update(
            graph,
            P
            + """MODIFY DELETE { ?x foaf:mbox ?m . } INSERT { ?x foaf:nick "n" . }
                 WHERE { ?x foaf:firstName "Nobody" ; foaf:mbox ?m . }""",
        )
        assert stats == {"added": 0, "removed": 0}
        assert len(graph) == before

    def test_modify_multiple_bindings(self, graph):
        graph.add(Triple(EX.author2, FOAF.mbox, URIRef("mailto:reif@ifi.uzh.ch")))
        stats = update(
            graph,
            P
            + """DELETE { ?x foaf:mbox ?m . }
                 INSERT { ?x ont:hadEmail ?m . }
                 WHERE { ?x foaf:mbox ?m . }""",
        )
        assert stats == {"added": 2, "removed": 2}

    def test_clear(self, graph):
        update(graph, "CLEAR")
        assert len(graph) == 0

    def test_multiple_operations_sequential(self, graph):
        stats = update(
            graph,
            P
            + """INSERT DATA { ex:a foaf:nick "x" . } ;
                 DELETE DATA { ex:a foaf:nick "x" . }""",
        )
        assert stats == {"added": 1, "removed": 1}
