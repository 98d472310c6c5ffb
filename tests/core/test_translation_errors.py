"""Error detection in the translation checker (Algorithm 1 step 3).

The paper's key claim for update-awareness: "the information about these
constraints ... can be used to detect invalid update requests and to
provide semantically rich feedback to the client."  Every error class has
a stable code carried by TranslationError.
"""

import pytest

from repro import OntoAccess, TranslationError
from repro.core.common import identify_entity
from repro.core.query import execute_query
from repro.r3m import TableMapping, URIPattern
from repro.rdf import URIRef
from repro.sparql.query_parser import parse_query
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)
from tests.core.test_data_templates import overlapping_mediator

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
    return OntoAccess(db, build_mapping(db))


def expect_error(oa, operation, code):
    with pytest.raises(TranslationError) as exc:
        oa.update(operation)
    assert exc.value.code == code
    return exc.value


class TestInsertErrors:
    def test_unknown_subject_uri(self, oa):
        error = expect_error(
            oa,
            P + 'INSERT DATA { <http://other.org/thing1> foaf:name "X" . }',
            TranslationError.UNKNOWN_SUBJECT,
        )
        assert "uriPattern" in str(error)

    def test_blank_node_subject(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { _:someone foaf:family_name "X" . }',
            TranslationError.UNKNOWN_SUBJECT,
        )

    def test_unknown_property(self, oa):
        error = expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:family_name "New" ; foaf:weblog "b" . }',
            TranslationError.UNKNOWN_PROPERTY,
        )
        assert error.details["table"] == "author"

    def test_property_of_wrong_class(self, oa):
        # ont:teamCode belongs to team, not author
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:family_name "N" ; ont:teamCode "X" . }',
            TranslationError.UNKNOWN_PROPERTY,
        )

    def test_missing_required_attribute(self, oa):
        """INSERT without the NOT NULL lastname (step 3's own example)."""
        error = expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:firstName "Nameless" . }',
            TranslationError.MISSING_REQUIRED,
        )
        assert "lastname" in error.details["attributes"]

    def test_missing_required_on_publication(self, oa):
        error = expect_error(
            oa,
            P + 'INSERT DATA { ex:pub99 dc:title "No Year" . }',
            TranslationError.MISSING_REQUIRED,
        )
        assert "year" in error.details["attributes"]

    def test_type_mismatch(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:pub99 dc:title "T" ; ont:pubYear "not-a-year" . }',
            TranslationError.TYPE_MISMATCH,
        )

    def test_class_mismatch(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 a foaf:Group ; foaf:family_name "X" . }',
            TranslationError.CLASS_MISMATCH,
        )

    def test_multiple_values_in_one_request(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:family_name "A", "B" . }',
            TranslationError.MULTI_VALUE,
        )

    def test_second_value_for_existing_attribute(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author6 foaf:family_name "NotHert" . }',
            TranslationError.MULTI_VALUE,
        )

    def test_reinserting_identical_triple_is_noop(self, oa):
        result = oa.update(
            P + 'INSERT DATA { ex:author6 foaf:family_name "Hert" . }'
        )
        assert result.statements_executed() == 0

    def test_fk_target_missing(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:family_name "N" ; ont:team ex:team99 . }',
            TranslationError.CONSTRAINT_VIOLATION,
        )

    def test_object_property_with_literal(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:family_name "N" ; ont:team "five" . }',
            TranslationError.TYPE_MISMATCH,
        )

    def test_object_uri_of_wrong_table(self, oa):
        expect_error(
            oa,
            P + 'INSERT DATA { ex:author7 foaf:family_name "N" ; ont:team ex:publisher3 . }',
            TranslationError.FK_TARGET_MISSING,
        )

    def test_link_to_missing_row(self, oa):
        expect_error(
            oa,
            P + "INSERT DATA { ex:pub99 dc:title \"T\" ; ont:pubYear \"2009\" ; "
            "dc:creator ex:author99 . }",
            TranslationError.FK_TARGET_MISSING,
        )

    def test_varchar_overflow(self, oa):
        long_code = "X" * 50  # team.code is VARCHAR(20)
        expect_error(
            oa,
            P + f'INSERT DATA {{ ex:team9 ont:teamCode "{long_code}" . }}',
            TranslationError.TYPE_MISMATCH,
        )


class TestDeleteErrors:
    def test_entity_missing(self, oa):
        expect_error(
            oa,
            P + 'DELETE DATA { ex:author99 foaf:family_name "Ghost" . }',
            TranslationError.ENTITY_MISSING,
        )

    def test_triple_not_held_wrong_value(self, oa):
        expect_error(
            oa,
            P + 'DELETE DATA { ex:author6 foaf:firstName "Wrong" . }',
            TranslationError.TRIPLE_MISSING,
        )

    def test_triple_not_held_null_attribute(self, oa):
        oa.update(P + 'INSERT DATA { ex:team9 foaf:name "OnlyName" . }')
        expect_error(
            oa,
            P + 'DELETE DATA { ex:team9 ont:teamCode "NOPE" . }',
            TranslationError.TRIPLE_MISSING,
        )

    def test_partial_delete_of_not_null(self, oa):
        """Deleting only the lastname (NOT NULL) must be rejected."""
        error = expect_error(
            oa,
            P + 'DELETE DATA { ex:author6 foaf:family_name "Hert" . }',
            TranslationError.NOT_NULL_DELETE,
        )
        assert error.details["attribute"] == "lastname"

    def test_type_triple_delete_with_remaining_data(self, oa):
        expect_error(
            oa,
            P + "DELETE DATA { ex:author6 a foaf:Person . }",
            TranslationError.CONSTRAINT_VIOLATION,
        )

    def test_link_triple_missing(self, oa):
        oa.update(
            P + 'INSERT DATA { ex:pub1 dc:title "T" ; ont:pubYear "2009" . }'
        )
        expect_error(
            oa,
            P + "DELETE DATA { ex:pub1 dc:creator ex:author6 . }",
            TranslationError.TRIPLE_MISSING,
        )

    def test_delete_referenced_entity_rejected_by_engine(self, oa):
        """Deleting a team still referenced by an author fails with a
        wrapped constraint violation (execution-time integrity)."""
        expect_error(
            oa,
            P
            + """DELETE DATA {
                ex:team5 foaf:name "Software Engineering" ; ont:teamCode "SEAL" .
            }""",
            TranslationError.CONSTRAINT_VIOLATION,
        )


class TestSubjectTables:
    """Which table a subject URI names: the most specific pattern that
    reads it, in the order of the mapping as it is now — also for a kept
    translation bound to another subject."""

    def test_a_table_assigned_after_a_look_up_takes_its_place_in_the_order(self, oa):
        db, mapping = oa.db, oa.mapping
        uri = URIRef("http://example.org/db/author6")
        assert mapping.identify_table(uri)[0].table_name == "author"
        assert identify_entity(mapping, db, uri).table.table_name == "author"
        text = P + "SELECT ?n WHERE { ex:author6 foaf:family_name ?n }"
        assert oa.query_outcome(text).used_sql  # kept: translated for author
        # team's pattern, longer than author's, now also reads author URIs
        team = mapping.table("team")
        mapping.tables["team"] = TableMapping(
            "team", team.maps_to_class,
            URIPattern(mapping.uri_prefix + "author%%id%%"), team.attributes,
        )
        table, values = mapping.identify_table(uri)
        assert (table.table_name, values) == ("team", {"id": "6"})
        entity = identify_entity(mapping, db, uri)
        assert (entity.table.table_name, entity.key_values) == ("team", {"id": 6})
        # the kept translation is not bound to it: a fresh translation
        # names team, which maps no foaf:family_name (the dump answers)
        fresh = execute_query(mapping, db, text)
        kept = oa.query_outcome(text)
        assert not kept.used_sql and not fresh.used_sql
        assert kept.result.solutions == fresh.result.solutions
        del mapping.tables["team"]
        assert [t.table_name for t in mapping.tables_by_specificity()] == [
            "publisher", "pubtype", "author", "publication"
        ]

    def test_a_kept_query_translates_again_for_another_tables_subject(self, oa):
        """``pubtype4`` fits ``pub%%id%%`` as text, but ``pubtype%%id%%``
        reads it: the translation kept for ``ex:pub12`` is not bound to
        it, and the query answers what the dump evaluation answers."""
        oa.db.execute(
            "INSERT INTO publication (id, title, year, type, publisher) "
            "VALUES (12, 'Updating', 2010, 4, 3)"
        )
        form = P + "SELECT ?t WHERE { %s dc:title ?t }"
        for subject in ("ex:pub12", "ex:pubtype4", "ex:pub12", "ex:pub13"):
            text = form % subject
            reference = execute_query(oa.mapping, oa.db, text, force_fallback=True)
            got = oa.query(text)
            assert [s for s in got.solutions] == reference.result.solutions, subject
        assert len(oa._session._shapes) == 1

    def test_a_subject_a_longer_pattern_reads_first_is_not_bound(self):
        """``itemset5`` is the key ``set5`` to ``item%%code%%`` and 5 to the
        longer ``itemset%%id%%``, which decides: the query kept for an
        ``item`` subject translates again and answers from ``itemset``, as
        a fresh translation does."""
        kept, fresh = overlapping_mediator(), overlapping_mediator()
        for mediator in (kept, fresh):
            mediator.db.execute_script(
                """
                INSERT INTO item (code, label) VALUES ('7', 'seven');
                INSERT INTO item (code, label) VALUES ('set5', 'item set5');
                INSERT INTO itemset (id, label) VALUES (5, 'itemset 5');
                """
            )
        form = (
            "PREFIX ex: <http://example.org/db/> PREFIX v: <http://example.org/vocab#> "
            "SELECT ?l WHERE { ex:%s v:label ?l }"
        )
        answers = {}
        for subject in ("item7", "itemset5", "item7", "itemset5"):
            text = form % subject
            got = [str(row[0]) for row in kept.query(text).rows()]
            assert got == [str(row[0]) for row in fresh.query(parse_query(text)).rows()]
            answers[subject] = got
        assert answers == {"item7": ["seven"], "itemset5": ["itemset 5"]}


class TestAtomicity:
    def test_failed_operation_changes_nothing(self, oa):
        """One bad subject group anywhere aborts the whole operation."""
        db = oa.db
        before = db.row_count("team")
        with pytest.raises(TranslationError):
            oa.update(
                P
                + """INSERT DATA {
                    ex:team7 foaf:name "Good Team" ; ont:teamCode "GT" .
                    ex:author9 foaf:firstName "MissingLastname" .
                }"""
            )
        assert db.row_count("team") == before

    def test_execution_failure_rolls_back(self, oa):
        """Statements already executed are undone when a later one fails."""
        db = oa.db
        # author7 is valid; author8 duplicates author6's pk? No — build a
        # request whose second statement fails at execution time: link row
        # to an author deleted between translation and execution cannot
        # happen in one op, so use FK violation via engine-level check on
        # delete of referenced row instead.
        before_rows = db.row_count("author")
        with pytest.raises(TranslationError):
            oa.update(
                P
                + """DELETE DATA {
                    ex:author6 foaf:title "Mr" .
                    ex:team5 foaf:name "Software Engineering" ; ont:teamCode "SEAL" .
                }"""
            )
        # the author update was rolled back together with the failed delete
        assert db.get_row_by_pk("author", (6,))["title"] == "Mr"
        assert db.row_count("author") == before_rows

    def test_error_details_support_feedback(self, oa):
        try:
            oa.update(P + 'INSERT DATA { ex:author7 foaf:firstName "X" . }')
        except TranslationError as exc:
            assert exc.details["subject"] == "http://example.org/db/author7"
            assert exc.details["table"] == "author"
        else:
            pytest.fail("expected TranslationError")
