"""Tests for the RDB→RDF dump and the mediated SPARQL query path."""

import pytest

from repro import OntoAccess
from repro.rdf import DC, EX, FOAF, ONT, RDF, Graph, Literal, Triple, URIRef, Variable
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER
from repro.sparql import SelectResult
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

P = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc:   <http://purl.org/dc/elements/1.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""


@pytest.fixture
def oa():
    db = build_database()
    seed_feasibility_data(db)
    db.execute(
        "INSERT INTO publication (id, title, year, type, publisher) "
        "VALUES (12, 'Relational...', 2009, 4, 3)"
    )
    db.execute(
        "INSERT INTO publication_author (publication, author) VALUES (12, 6)"
    )
    return OntoAccess(db, build_mapping(db))


class TestDump:
    def test_type_triples(self, oa):
        g = oa.dump()
        assert Triple(EX.author6, RDF.type, FOAF.Person) in g
        assert Triple(EX.team5, RDF.type, FOAF.Group) in g
        assert Triple(EX.pub12, RDF.type, FOAF.Document) in g

    def test_data_property_triples(self, oa):
        g = oa.dump()
        assert Triple(EX.author6, FOAF.family_name, Literal("Hert")) in g
        assert Triple(EX.team5, ONT.teamCode, Literal("SEAL")) in g

    def test_integer_column_typed_literal(self, oa):
        g = oa.dump()
        assert Triple(
            EX.pub12, ONT.pubYear, Literal("2009", datatype=XSD_INTEGER)
        ) in g

    def test_value_pattern_mints_mailto(self, oa):
        g = oa.dump()
        assert Triple(
            EX.author6, FOAF.mbox, URIRef("mailto:hert@ifi.uzh.ch")
        ) in g

    def test_object_property_triples(self, oa):
        g = oa.dump()
        assert Triple(EX.author6, ONT.team, EX.team5) in g
        assert Triple(EX.pub12, ONT.pubType, EX.pubtype4) in g

    def test_link_table_triples(self, oa):
        g = oa.dump()
        assert Triple(EX.pub12, DC.creator, EX.author6) in g

    def test_null_attributes_produce_no_triples(self, oa):
        oa.db.execute("INSERT INTO author (id, lastname) VALUES (7, 'Sparse')")
        g = oa.dump()
        assert list(g.triples(EX.author7, FOAF.mbox, None)) == []
        assert list(g.triples(EX.author7, FOAF.firstName, None)) == []

    def test_roundtrip_through_mediator(self, oa):
        """Re-inserting the full dump into a fresh mediator reproduces it."""
        from repro.rdf import to_turtle  # noqa: F401  (sanity import)
        from repro.sparql.update_ast import InsertData, UpdateRequest

        g = oa.dump()
        db2 = build_database()
        oa2 = OntoAccess(db2, build_mapping(db2))
        oa2.update(UpdateRequest(operations=(InsertData(tuple(g)),)))
        assert oa2.dump() == g


class TestQueryTranslation:
    def test_single_subject_data_property(self, oa):
        outcome = oa.query_outcome(
            P + "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
        )
        assert outcome.used_sql
        assert outcome.result.rows() == [(Literal("Hert"),)]

    def test_concrete_subject(self, oa):
        outcome = oa.query_outcome(
            P + "SELECT ?n WHERE { ex:team5 foaf:name ?n . }"
        )
        assert outcome.used_sql
        assert outcome.result.rows() == [(Literal("Software Engineering"),)]

    def test_subject_variable_bound_to_uri(self, oa):
        result = oa.query(P + 'SELECT ?x WHERE { ?x ont:teamCode "SEAL" . }')
        assert result.rows() == [(EX.team5,)]

    def test_fk_join(self, oa):
        outcome = oa.query_outcome(
            P
            + """SELECT ?name ?team WHERE {
                ?a foaf:family_name ?name ;
                   ont:team ?t .
                ?t foaf:name ?team .
            }"""
        )
        assert outcome.used_sql
        assert outcome.result.rows() == [
            (Literal("Hert"), Literal("Software Engineering"))
        ]

    def test_link_table_join(self, oa):
        outcome = oa.query_outcome(
            P
            + """SELECT ?title ?author WHERE {
                ?p dc:title ?title ;
                   dc:creator ?a .
                ?a foaf:family_name ?author .
            }"""
        )
        assert outcome.used_sql
        assert outcome.result.rows() == [
            (Literal("Relational..."), Literal("Hert"))
        ]

    def test_object_variable_minted_as_uri(self, oa):
        result = oa.query(P + "SELECT ?t WHERE { ex:author6 ont:team ?t . }")
        assert result.rows() == [(EX.team5,)]

    def test_value_pattern_variable(self, oa):
        result = oa.query(P + "SELECT ?m WHERE { ex:author6 foaf:mbox ?m . }")
        assert result.rows() == [(URIRef("mailto:hert@ifi.uzh.ch"),)]

    def test_filter_pushdown(self, oa):
        outcome = oa.query_outcome(
            P + "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER(?y >= 2000) }"
        )
        assert outcome.used_sql
        assert ">= 2000" in outcome.select_sql
        assert outcome.result.rows() == [(EX.pub12,)]

    def test_filter_regex_post_applied(self, oa):
        outcome = oa.query_outcome(
            P
            + 'SELECT ?a WHERE { ?a foaf:mbox ?m . FILTER(REGEX(STR(?m), "uzh")) }'
        )
        assert outcome.used_sql  # BGP translated; REGEX applied post-hoc
        assert outcome.result.rows() == [(EX.author6,)]

    def test_optional_data_attribute(self, oa):
        oa.db.execute("INSERT INTO author (id, lastname) VALUES (7, 'NoMail')")
        outcome = oa.query_outcome(
            P
            + """SELECT ?n ?m WHERE {
                ?a foaf:family_name ?n .
                OPTIONAL { ?a foaf:mbox ?m . }
            } ORDER BY ?n"""
        )
        assert outcome.used_sql
        rows = outcome.result.rows()
        by_name = {r[0].lexical: r[1] for r in rows}
        assert by_name["NoMail"] is None
        assert by_name["Hert"] == URIRef("mailto:hert@ifi.uzh.ch")

    def test_rdf_type_determines_table(self, oa):
        result = oa.query(
            P + "SELECT ?x WHERE { ?x rdf:type foaf:Person . }"
        )
        assert result.rows() == [(EX.author6,)]

    def test_ask(self, oa):
        assert oa.query(P + 'ASK { ?x foaf:family_name "Hert" . }') is True
        assert oa.query(P + 'ASK { ?x foaf:family_name "Nobody" . }') is False

    def test_construct(self, oa):
        g = oa.query(
            P
            + "CONSTRUCT { ?x foaf:name ?n . } WHERE { ?x foaf:family_name ?n . }"
        )
        assert isinstance(g, Graph)
        assert Triple(EX.author6, FOAF.name, Literal("Hert")) in g

    def test_union_falls_back(self, oa):
        outcome = oa.query_outcome(
            P
            + """SELECT ?n WHERE {
                { ?x foaf:family_name ?n . } UNION { ?x foaf:name ?n . }
            }"""
        )
        assert not outcome.used_sql
        values = {r[0].lexical for r in outcome.result.rows()}
        assert "Hert" in values
        assert "Software Engineering" in values

    def test_fallback_equals_translation(self, oa):
        """Translated and fallback evaluation agree on the same query."""
        q = (
            P
            + """SELECT ?name ?team WHERE {
                ?a foaf:family_name ?name ; ont:team ?t .
                ?t foaf:name ?team .
            }"""
        )
        translated = oa.query_outcome(q)
        fallback = OntoAccess(
            oa.db, oa.mapping, force_query_fallback=True
        ).query_outcome(q)
        assert translated.used_sql and not fallback.used_sql
        assert sorted(map(str, translated.result.rows())) == sorted(
            map(str, fallback.result.rows())
        )

    def test_order_and_limit(self, oa):
        oa.db.execute("INSERT INTO author (id, lastname) VALUES (7, 'Abel')")
        result = oa.query(
            P + "SELECT ?n WHERE { ?x foaf:family_name ?n . } ORDER BY ?n LIMIT 1"
        )
        assert result.rows() == [(Literal("Abel"),)]

    def test_distinct(self, oa):
        oa.db.execute("INSERT INTO author (id, lastname, team) VALUES (7, 'Two', 5)")
        result = oa.query(
            P + "SELECT DISTINCT ?t WHERE { ?a ont:team ?t . }"
        )
        assert result.rows() == [(EX.team5,)]


class TestTranslationAgreesWithReference:
    """Cases where the translated path used to answer differently from
    the reference evaluation over the dump (``force_query_fallback``)."""

    @staticmethod
    def both(oa, query):
        translated = oa.query_outcome(P + query)
        reference = OntoAccess(
            oa.db, oa.mapping, force_query_fallback=True
        ).query_outcome(P + query)
        assert translated.used_sql and not reference.used_sql
        return (
            sorted(map(str, translated.result.rows())),
            sorted(map(str, reference.result.rows())),
            translated,
        )

    def test_literal_subject_matches_nothing(self, oa):
        """A literal is nobody's subject; it used to be ignored, so the
        pattern answered every author's first name."""
        translated, reference, outcome = self.both(
            oa, 'SELECT ?f WHERE { "x" foaf:firstName ?f }'
        )
        assert translated == reference == []
        assert "t0.id = NULL" in outcome.select_sql

    def test_blank_node_subject_still_matches_anything(self, oa):
        translated, reference, _ = self.both(
            oa, "SELECT ?f WHERE { _:someone foaf:firstName ?f }"
        )
        assert translated == reference and translated

    @pytest.mark.parametrize("op", ["=", ">=", "<", "!="])
    def test_integer_column_against_plain_string(self, oa, op):
        """A SPARQL type error rejects the solution (``!=`` of unequal
        terms accepts it); pushed into SQL it used to escape as
        ``DatabaseError: cannot compare int with str``."""
        translated, reference, outcome = self.both(
            oa, f'SELECT ?p WHERE {{ ?p ont:pubYear ?y . FILTER(?y {op} "2005") }}'
        )
        assert translated == reference
        assert len(translated) == (1 if op == "!=" else 0)
        assert "2005" not in outcome.select_sql  # decided in Python

    @pytest.mark.parametrize("op", ["=", ">=", "<", "!="])
    def test_string_column_against_integer(self, oa, op):
        translated, reference, outcome = self.both(
            oa, f"SELECT ?a WHERE {{ ?a foaf:family_name ?n . FILTER(?n {op} 5) }}"
        )
        assert translated == reference
        assert len(translated) == (1 if op == "!=" else 0)
        assert " 5" not in outcome.select_sql

    def test_comparable_constants_are_still_pushed_down(self, oa):
        _, _, numeric = self.both(
            oa, "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER(?y >= 2005.5) }"
        )
        assert "t0.year >= 2005.5" in numeric.select_sql
        _, _, text = self.both(
            oa, 'SELECT ?a WHERE { ?a foaf:family_name ?n . FILTER(?n = "Hert") }'
        )
        assert "t0.lastname = 'Hert'" in text.select_sql

    def test_uri_valued_attribute_is_compared_as_a_term(self, oa):
        """``foaf:mbox`` is a URI in RDF and a bare address in the column:
        comparing the column with a string would match what SPARQL does
        not."""
        translated, reference, outcome = self.both(
            oa,
            'SELECT ?a WHERE { ?a foaf:mbox ?m . FILTER(?m = "hert@ifi.uzh.ch") }',
        )
        assert translated == reference == []
        assert "hert@" not in outcome.select_sql

    def test_constant_object_inside_optional_filters_nothing(self, oa):
        """An OPTIONAL that binds nothing keeps every solution; as a
        condition on the subject's row it used to drop them."""
        oa.db.execute("INSERT INTO author (id, lastname) VALUES (7, 'Teamless')")
        query = (
            "SELECT ?n WHERE { ?a foaf:family_name ?n . "
            "OPTIONAL { ?a ont:team ex:team5 } }"
        )
        outcome = oa.query_outcome(P + query)
        assert not outcome.used_sql  # outside the translatable fragment
        assert {r[0].lexical for r in outcome.result.rows()} == {"Hert", "Teamless"}

    def test_select_sql_is_rendered_when_read(self, oa):
        outcome = oa.query_outcome(
            P + "SELECT ?n WHERE { ex:author6 foaf:family_name ?n }"
        )
        assert outcome.statement.values == (6,)
        assert outcome.select_sql == (
            "SELECT t0.lastname AS v0 FROM author t0 "
            "WHERE t0.id = 6 AND t0.lastname IS NOT NULL;"
        )


class TestDoubleLexicalForms:
    """A FLOAT column's infinities and NaN come back in their XSD
    spelling (``INF``, ``-INF``, ``NaN`` — not Python's ``inf``), from the
    translated query and from the dump alike: both decode a column value
    through the one literal decoder."""

    PREFIXES = (
        "PREFIX v: <http://example.org/vocab#> PREFIX ex: <http://example.org/db/> "
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "
    )
    SPELLINGS = {"m1": "INF", "m2": "-INF", "m3": "NaN", "m4": "2.5"}

    @pytest.fixture
    def measures(self):
        from repro.r3m.generator import generate_mapping
        from repro.rdb import Database

        db = Database()
        db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, v FLOAT)")
        mediator = OntoAccess(db, generate_mapping(db))
        mediator.update(self.PREFIXES + "INSERT DATA { " + " ".join(
            f'ex:{row} v:m_v "{text}"^^xsd:double .'
            for row, text in self.SPELLINGS.items()
        ) + " }")
        return mediator

    def expected(self):
        return {
            (URIRef(f"http://example.org/db/{row}"), Literal(text, datatype=XSD_DOUBLE))
            for row, text in self.SPELLINGS.items()
        }

    def test_query_answers_xsd_spellings(self, measures):
        outcome = measures.query_outcome(
            self.PREFIXES + "SELECT ?s ?v WHERE { ?s v:m_v ?v }"
        )
        assert outcome.used_sql
        assert set(outcome.result.rows()) == self.expected()

    def test_dump_holds_xsd_spellings(self, measures):
        values = URIRef("http://example.org/vocab#m_v")
        assert {
            (t.subject, t.object) for t in measures.dump() if t.predicate == values
        } == self.expected()

    def test_answered_term_deletes_its_value(self, measures):
        result = measures.update(
            self.PREFIXES + 'DELETE DATA { ex:m2 v:m_v "-INF"^^xsd:double . }'
        )
        assert result.rows_affected() == 1
        assert measures.db.query("SELECT id FROM m WHERE id = 2").rows == []
