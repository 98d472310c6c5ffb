"""Tests for the Session / PreparedOperation API (ISSUE 2 tentpole).

Covers: prepared updates (parsed once, translated against the current
state on every execute), placeholder bindings, prepared queries, atomic
batches via ``execute_all``, explicit transaction scope, the
pluggable-backend contract, and the facade staying a thin shim over a
default session.
"""

import threading

import pytest

from repro import (
    OntoAccess,
    RelationalBackend,
    Session,
    TranslationError,
    TripleStoreBackend,
)
from repro.baselines import MappingAwareTripleStore
from repro.core.session import PreparedQuery, PreparedUpdate
from repro.errors import SPARQLParseError
from repro.rdf.terms import Literal, URIRef
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

PREFIXES = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
"""

INSERT_TEAM = PREFIXES + """
INSERT DATA {
    ex:team4 foaf:name "Database Technology" ;
             ont:teamCode "DBTG" .
}
"""

INSERT_TEAM_TEMPLATE = PREFIXES + """
INSERT DATA {
    ex:team7 foaf:name ?name ;
             ont:teamCode ?code .
}
"""

QUERY_NAMES = (
    PREFIXES + "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)

BAD_INSERT = PREFIXES + 'INSERT DATA { ex:author9 foaf:firstName "NoLast" . }'


def make_mediator(seed: bool = True) -> OntoAccess:
    db = build_database()
    if seed:
        seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


@pytest.fixture
def mediator():
    return make_mediator()


@pytest.fixture
def session(mediator):
    return mediator.session()


class TestPrepare:
    def test_prepare_sniffs_update_vs_query(self, session):
        """The first keyword behind the prologue picks the parser."""
        assert isinstance(session.prepare(INSERT_TEAM), PreparedUpdate)
        assert isinstance(session.prepare(QUERY_NAMES), PreparedQuery)

    def test_sniffing_ignores_keywords_inside_iris_and_strings(self, session):
        """Routing reads the prologue with the parsers' own scanner, so
        'delete' inside a prefix IRI, 'AskConstruct' inside a string or a
        keyword inside a comment never routes a request."""
        query = (
            "PREFIX ex: <http://example.org/delete/>\n"
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
            "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
        )
        assert isinstance(session.prepare(query), PreparedQuery)
        update = (
            "PREFIX ex: <http://example.org/select/>\n"
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
            'INSERT DATA { ex:author3 foaf:family_name "AskConstruct" . }'
        )
        assert isinstance(session.prepare(update), PreparedUpdate)
        commented = (
            "# first delete nothing, then query\n"
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
            "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
        )
        assert isinstance(session.prepare(commented), PreparedQuery)

    def test_prepare_falls_back_when_sniff_is_wrong(self, session):
        """A prefix *label* shaped like an update keyword is part of the
        prologue, not the request's first keyword."""
        query = (
            "PREFIX insert: <http://example.org/i/>\n"
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
            "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
        )
        prepared = session.prepare(query)
        assert isinstance(prepared, PreparedQuery)
        assert len(prepared.execute().rows()) == 1

    def test_syntax_error_is_reported_by_the_right_parser(self, session):
        """A mistyped query used to be parsed twice and answered with the
        *update* parser's complaint about its first keyword (and the
        other way round); the error is the real one at the real place."""
        query = PREFIXES + "SELECT ?n WHERE { ?x foaf:name }"
        with pytest.raises(SPARQLParseError, match="expected an RDF term") as exc:
            session.prepare(query)
        assert "INSERT" not in str(exc.value)
        last_line = query.splitlines()[-1]
        assert exc.value.line == len(query.splitlines())
        assert exc.value.column == last_line.index("}") + 1 > last_line.index("WHERE")
        update = PREFIXES + "INSERT DATA { ex:team4 foaf:name }"
        with pytest.raises(SPARQLParseError, match="expected an RDF term") as exc:
            session.prepare(update)
        assert "SELECT" not in str(exc.value)

    def test_unknown_request_form_names_every_keyword(self, session):
        with pytest.raises(SPARQLParseError) as exc:
            session.prepare(PREFIXES + "DESCRIBE ex:author6")
        for keyword in (
            "SELECT", "ASK", "CONSTRUCT", "INSERT", "DELETE", "MODIFY", "CLEAR"
        ):
            assert keyword in str(exc.value)
        assert exc.value.line == len(PREFIXES.splitlines()) + 1  # the DESCRIBE line

    def test_prepared_queries_share_their_shape(self, session):
        """A text, and another that differs only in a constant, are one
        shape: the parse and the kept translation are shared."""
        first = session.prepare(QUERY_NAMES)
        assert session.prepare(QUERY_NAMES)._plan is first._plan
        by_subject = PREFIXES + "SELECT ?n WHERE { ex:author%d foaf:family_name ?n . }"
        one, other = session.prepare(by_subject % 6), session.prepare(by_subject % 7)
        assert one._plan is other._plan and one._plan is not first._plan
        assert one.execute().rows() != other.execute().rows()

    def test_preparing_an_update_text_twice_gives_interchangeable_objects(
        self, session, mediator
    ):
        """Both objects share the text's shape; they run the same
        operation against whatever state they find, exactly like one
        object executed twice."""
        first = session.prepare(INSERT_TEAM)
        second = session.prepare(INSERT_TEAM)
        assert first.execute().sql() == make_mediator().update(INSERT_TEAM).sql()
        assert mediator.db.row_count("team") == 2  # seed team + team4
        again = second.execute()  # the row is there: nothing to do
        assert again.sql() == first.execute().sql()
        assert mediator.db.row_count("team") == 2

    def test_prepared_update_matches_facade_sql(self, session):
        prepared = session.prepare(INSERT_TEAM)
        facade = make_mediator()
        assert prepared.execute().sql() == facade.update(INSERT_TEAM).sql()

    def test_repeated_execute_is_idempotent(self, session, mediator):
        prepared = session.prepare(INSERT_TEAM)
        for _ in range(5):
            prepared.execute()
        assert mediator.db.get_row_by_pk("team", (4,)) is not None
        assert mediator.db.row_count("team") == 2  # seed team + team4

    def test_prepared_update_sees_external_state_changes(self, session, mediator):
        """A prepared update executed after anyone else changed the
        database produces the SQL and rows the one-shot path produces
        against that same state."""
        prepared = session.prepare(INSERT_TEAM)
        prepared.execute()
        noop = prepared.execute()  # the row is there: nothing to do
        assert (noop.sql(), noop.rows_affected()) == ([], 0)
        # an outside write deletes the row behind the prepared op's back
        mediator.db.execute("DELETE FROM team WHERE id = 4")
        assert mediator.db.get_row_by_pk("team", (4,)) is None
        oneshot = make_mediator().update(INSERT_TEAM)
        again = prepared.execute()
        assert again.sql() == oneshot.sql() != []
        assert again.rows_affected() == oneshot.rows_affected() == 1
        assert mediator.db.get_row_by_pk("team", (4,)) is not None

    def test_prepared_translation_error_repeats(self, session):
        prepared = session.prepare(BAD_INSERT)
        for _ in range(2):
            with pytest.raises(TranslationError):
                prepared.execute()


class TestBindings:
    def test_insert_with_bound_literals(self, session, mediator):
        prepared = session.prepare(INSERT_TEAM_TEMPLATE)
        prepared.execute(bindings={"name": "Systems", "code": "SYS"})
        row = mediator.db.get_row_by_pk("team", (7,))
        assert row == {"id": 7, "name": "Systems", "code": "SYS"}

    def test_bindings_accept_terms_and_python_values(self, session, mediator):
        prepared = session.prepare(
            PREFIXES + "INSERT DATA { ex:author8 foaf:family_name ?last . }"
        )
        prepared.execute(bindings={"last": Literal("Gall")})
        assert mediator.db.get_row_by_pk("author", (8,))["lastname"] == "Gall"

    def test_unbound_placeholder_is_rejected(self, session):
        prepared = session.prepare(INSERT_TEAM_TEMPLATE)
        with pytest.raises(TranslationError, match="unbound placeholder"):
            prepared.execute()
        with pytest.raises(TranslationError, match="unbound placeholder"):
            prepared.execute(bindings={"name": "only one"})

    def test_modify_with_bound_where(self, session, mediator):
        prepared = session.prepare(
            PREFIXES
            + """
            MODIFY
            DELETE { ?x foaf:mbox ?m . }
            INSERT { ?x foaf:mbox ?new . }
            WHERE { ?x foaf:family_name ?who ; foaf:mbox ?m . }
            """
        )
        prepared.execute(
            bindings={
                "who": "Hert",
                "new": URIRef("mailto:new@example.org"),
            }
        )
        assert mediator.db.get_row_by_pk("author", (6,))["email"] == (
            "new@example.org"
        )

    def test_distinct_bindings_insert_distinct_rows(self, session, mediator):
        prepared = session.prepare(
            PREFIXES + "INSERT DATA { ex:team8 ont:teamCode ?c . }"
        )
        # first execution creates the row; a later different binding is a
        # (correctly rejected) multi-value overwrite
        prepared.execute(bindings={"c": "A"})
        with pytest.raises(TranslationError):
            prepared.execute(bindings={"c": "B"})
        assert mediator.db.get_row_by_pk("team", (8,))["code"] == "A"


class TestPreparedQuery:
    def test_query_reflects_state_changes(self, session):
        prepared = session.prepare(QUERY_NAMES)
        before = {r[0].lexical for r in prepared.execute().rows()}
        assert before == {"Hert"}
        session.execute(
            PREFIXES + 'INSERT DATA { ex:author2 foaf:family_name "Reif" . }'
        )
        after = {r[0].lexical for r in prepared.execute().rows()}
        assert after == {"Hert", "Reif"}

    def test_query_bindings_narrow_results(self, session):
        prepared = session.prepare(QUERY_NAMES)
        session.execute(
            PREFIXES + 'INSERT DATA { ex:author2 foaf:family_name "Reif" . }'
        )
        rows = prepared.execute(bindings={"n": "Reif"}).rows()
        assert len(rows) == 1

    def test_prepared_outcome_uses_sql(self, session):
        outcome = session.prepare(QUERY_NAMES).outcome()
        assert outcome.used_sql
        assert "SELECT" in (outcome.select_sql or "")

    def test_prepared_untranslatable_query_falls_back(self, session):
        """A pattern outside the translatable fragment is remembered as
        unsupported and evaluated over the dump on every execute."""
        prepared = session.prepare("SELECT ?p WHERE { ?x ?p ?o . }")
        first = prepared.outcome()
        assert not first.used_sql
        second = prepared.outcome()  # the cached-unsupported path
        assert not second.used_sql
        assert len(second.result) == len(first.result) > 0

    def test_prepared_query_survives_ddl(self, session, mediator):
        prepared = session.prepare(QUERY_NAMES)
        prepared.execute()
        mediator.db.execute(
            "CREATE TABLE extra (id INTEGER PRIMARY KEY)"
        )  # schema_version bump: translation must be rebuilt, not crash
        assert {r[0].lexical for r in prepared.execute().rows()} == {"Hert"}


EX = "http://example.org/db/"


def _both_backends(mediator):
    """Sessions over the relational backend and over a triple store
    holding the same graph."""
    store = MappingAwareTripleStore(
        mediator.mapping, mediator.db, graph=mediator.dump()
    )
    return [mediator.session(), Session(TripleStoreBackend(store))]


class TestPreparedTemplates:
    """Bindings are initial bindings, and the relational backend keeps
    one translation per template, whatever is bound."""

    AUTHOR = PREFIXES + "SELECT ?subj ?f WHERE { ?subj foaf:firstName ?f }"

    def test_placeholder_comes_back_bound(self, mediator):
        """It used to come back unbound: ``[{f: "Matthias"}]`` under the
        header ``(subj, f)``."""
        author6 = URIRef(EX + "author6")
        for session in _both_backends(mediator):
            result = session.prepare(self.AUTHOR).execute({"subj": author6})
            assert result.rows() == [(author6, Literal("Matthias"))]

    def test_order_by_and_construct_see_the_placeholder(self, mediator):
        team5 = URIRef(EX + "team5")
        ordered = PREFIXES + (
            "SELECT ?t ?l WHERE { ?a ont:team ?t ; foaf:family_name ?l } "
            "ORDER BY ?t ?l"
        )
        construct = PREFIXES + (
            "CONSTRUCT { ?t ont:member ?a } WHERE { ?a ont:team ?t }"
        )
        for session in _both_backends(mediator):
            result = session.prepare(ordered).execute({"t": team5})
            assert result.rows() == [(team5, Literal("Hert"))]
            graph = session.prepare(construct).execute({"t": team5})
            assert [t.subject for t in graph] == [team5]

    def test_literal_subject_matches_nothing(self, session):
        """``{"subj": 3}`` used to answer every author's first name."""
        prepared = session.prepare(self.AUTHOR)
        outcome = prepared.outcome({"subj": 3})
        assert outcome.used_sql and outcome.result.rows() == []
        # ... and the next binding is translated for what it is
        author6 = URIRef(EX + "author6")
        assert len(prepared.execute({"subj": author6})) == 1

    def test_one_translation_and_one_plan_per_template(self, session, mediator):
        for i in range(10, 40):
            mediator.db.execute(
                f"INSERT INTO author (id, firstname, lastname) "
                f"VALUES ({i}, 'F{i}', 'L{i}')"
            )
        prepared = session.prepare(self.AUTHOR)
        prepared.execute({"subj": URIRef(EX + "author10")})
        kept = prepared._plan._kept
        misses = mediator.db.planner.stats["misses"]
        for i in range(11, 40):
            subject = URIRef(f"{EX}author{i}")
            outcome = prepared.outcome({"subj": subject})
            assert outcome.result.rows() == [(subject, Literal(f"F{i}"))]
            assert outcome.select_sql.endswith(
                f"WHERE t0.id = {i} AND t0.firstname IS NOT NULL;"
            )
        assert prepared._plan._kept is kept
        assert mediator.db.planner.stats["misses"] == misses

    def test_binding_of_another_kind_is_translated_again(self, session):
        """``foaf:name`` is a team's property: an author URI makes the
        pattern untranslatable (dump evaluation, no row), a team URI
        translatable — in any order, any number of times."""
        prepared = session.prepare(
            PREFIXES + "SELECT ?n WHERE { ?subj foaf:name ?n }"
        )
        for _ in range(3):
            team = prepared.outcome({"subj": URIRef(EX + "team5")})
            assert team.used_sql
            assert team.result.rows() == [(Literal("Software Engineering"),)]
            author = prepared.outcome({"subj": URIRef(EX + "author6")})
            assert not author.used_sql and author.result.rows() == []

    def test_post_filter_keeps_the_placeholder(self, session):
        """A filter evaluated in Python must read the current binding,
        not the one the translation was made from."""
        session.execute(
            PREFIXES + 'INSERT DATA { ex:author2 foaf:family_name "Reif" . }'
        )
        prepared = session.prepare(
            PREFIXES
            + "SELECT ?n WHERE { ?x foaf:family_name ?n . FILTER(REGEX(?n, ?re)) }"
        )
        assert prepared.execute({"re": "^H"}).rows() == [(Literal("Hert"),)]
        assert prepared.execute({"re": "^R"}).rows() == [(Literal("Reif"),)]
        assert prepared.execute({"re": "^X"}).rows() == []

    def test_pushed_down_filter_constant_of_another_class(self, session, mediator):
        """``?y >= "2005"`` is a type error in SPARQL (no row) and used to
        be a ``DatabaseError`` out of the engine."""
        for pub, year in ((1, 2001), (2, 2005), (3, 2009)):
            mediator.db.execute(
                "INSERT INTO publication (id, title, year, type, publisher) "
                f"VALUES ({pub}, 'T{pub}', {year}, 4, 3)"
            )
        prepared = session.prepare(
            PREFIXES
            + "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER(?y >= ?lo) }"
        )
        for lo, rows, pushed in (
            (2005, 2, True),
            (Literal("2005"), 0, False),
            (2002.5, 2, True),
            (Literal("abc"), 0, False),
            (Literal("12", datatype="http://www.w3.org/2001/XMLSchema#integer"), 3, True),
        ):
            outcome = prepared.outcome({"lo": lo})
            assert outcome.used_sql and len(outcome.result) == rows, lo
            assert ("t0.year >=" in outcome.select_sql) == pushed, lo

    def test_placeholder_used_twice_is_one_parameter(self, session, mediator):
        mediator.db.execute(
            "INSERT INTO publication (id, title, year, type, publisher) "
            "VALUES (1, 'T', 2005, 4, 3)"
        )
        subject = session.prepare(
            PREFIXES
            + "SELECT ?f ?l WHERE { ?s foaf:firstName ?f . ?s foaf:family_name ?l }"
        ).outcome({"s": URIRef(EX + "author6")})
        assert subject.statement.values == (6,)
        assert subject.result.rows() == [(Literal("Matthias"), Literal("Hert"))]
        constant = session.prepare(
            PREFIXES
            + "SELECT ?p WHERE { ?p ont:pubYear ?y . FILTER(?y >= ?v && ?y <= ?v) }"
        ).outcome({"v": 2005})
        assert constant.statement.values == (2005,)
        assert "t0.year >= 2005 AND t0.year <= 2005" in constant.select_sql
        assert len(constant.result) == 1

    def test_prepared_modify_keeps_its_where_translation(self, session, mediator):
        for i in range(10, 30):
            mediator.db.execute(
                "INSERT INTO author (id, lastname, email) "
                f"VALUES ({i}, 'L{i}', 'old{i}@example.org')"
            )
        prepared = session.prepare(
            PREFIXES
            + "MODIFY DELETE { ?s foaf:mbox ?old . } INSERT { ?s foaf:mbox ?new . } "
            "WHERE { ?s foaf:mbox ?old . }"
        )

        def replace(i):
            return prepared.execute({
                "s": URIRef(f"{EX}author{i}"),
                "old": URIRef(f"mailto:old{i}@example.org"),
                "new": URIRef(f"mailto:new{i}@example.org"),
            })

        assert replace(10).rows_affected() == 1
        kept = prepared._kept[0].where._kept
        misses = mediator.db.planner.stats["misses"]
        for i in range(11, 30):
            result = replace(i)
            assert result.operations[0].used_sql_select
            assert result.sql() == [
                f"UPDATE author SET email = 'new{i}@example.org' WHERE id = {i};"
            ]
        assert prepared._kept[0].where._kept is kept
        assert mediator.db.planner.stats["misses"] == misses
        assert replace(10).rows_affected() == 0  # old10 is gone: no binding

    def test_shared_prepared_query_under_contending_threads(self, mediator):
        """Reader threads share one prepared query (one kept shape)
        and with it the kept-translation slot; bindings of two kinds make
        them replace it under each other's feet.  Every answer must still
        be its own binding's."""
        import sys
        import time

        session = mediator.session()
        prepared = session.prepare(
            PREFIXES + "SELECT ?subj ?n WHERE { ?subj foaf:name ?n }"
        )
        team = URIRef(EX + "team5")
        publisher = URIRef(EX + "publisher3")
        expected = {
            team: [(team, Literal("Software Engineering"))],
            publisher: [],  # ont:name, not foaf:name: untranslatable, no row
        }
        wrong, done = [], []
        deadline = time.monotonic() + 1.0

        def reader(offset):
            subjects = [team, publisher]
            count = 0
            while time.monotonic() < deadline:
                subject = subjects[(count + offset) % 2]
                rows = prepared.execute({"subj": subject}).rows()
                if rows != expected[subject]:
                    wrong.append((subject, rows))
                count += 1
            done.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(done) == 6 and min(done) > 0


class TestBatchesAndTransactions:
    def test_execute_all_commits_all(self, session, mediator):
        result = session.execute_all(
            [
                PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }',
                PREFIXES + 'INSERT DATA { ex:team2 foaf:name "Two" . }',
            ]
        )
        assert len(result.operations) == 2
        assert mediator.db.row_count("team") == 3  # seed + 2

    def test_execute_all_is_atomic(self, session, mediator):
        """Facade semantics commit op 1 even when op 2 fails; a batch
        must roll everything back."""
        before = mediator.db.row_count("team")
        with pytest.raises(TranslationError):
            session.execute_all(
                [
                    PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }',
                    BAD_INSERT,
                ]
            )
        assert mediator.db.row_count("team") == before
        assert not mediator.db.in_transaction()

    def test_facade_commits_leading_ops(self, mediator):
        """Contrast case: the one-txn-per-operation facade rule."""
        request = (
            PREFIXES
            + 'INSERT DATA { ex:team1 foaf:name "One" . } ; '
            + 'INSERT DATA { ex:author9 foaf:firstName "NoLast" . }'
        )
        with pytest.raises(TranslationError):
            mediator.update(request)
        assert mediator.db.get_row_by_pk("team", (1,)) is not None

    def test_transaction_context_commits(self, session, mediator):
        with session.transaction():
            session.execute(PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }')
            session.execute(PREFIXES + 'INSERT DATA { ex:team2 foaf:name "Two" . }')
        assert mediator.db.row_count("team") == 3
        assert not mediator.db.in_transaction()

    def test_transaction_context_rolls_back(self, session, mediator):
        before = mediator.db.row_count("team")
        with pytest.raises(TranslationError):
            with session.transaction():
                session.execute(
                    PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }'
                )
                session.execute(BAD_INSERT)
        assert mediator.db.row_count("team") == before
        assert not mediator.db.in_transaction()

    def test_error_never_leaves_transaction_open(self, session, mediator):
        with pytest.raises(TranslationError):
            session.execute(BAD_INSERT)
        assert not mediator.db.in_transaction()
        # the session is immediately usable again
        session.execute(PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }')
        assert mediator.db.get_row_by_pk("team", (1,)) is not None


def _triplestore_session(mediator: OntoAccess) -> Session:
    store = MappingAwareTripleStore(
        mediator.mapping, mediator.db, graph=mediator.dump()
    )
    return Session(TripleStoreBackend(store))


class TestPluggableBackends:
    """Both Backend implementations behind one Session interface."""

    def test_same_ops_same_graph(self, mediator):
        rdb = mediator.session()
        native = _triplestore_session(mediator)
        ops = [
            PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }',
            PREFIXES
            + 'INSERT DATA { ex:author1 foaf:family_name "Solo" ; ont:team ex:team1 . }',
            PREFIXES + 'DELETE DATA { ex:author1 ont:team ex:team1 . }',
        ]
        for op in ops:
            rdb.execute(op)
            native.execute(op)
        assert rdb.dump() == native.dump()

    def test_prepared_operations_on_both_backends(self, mediator):
        rdb = mediator.session()
        native = _triplestore_session(mediator)
        for sess in (rdb, native):
            prepared = sess.prepare(INSERT_TEAM)
            prepared.execute()
            prepared.execute()
        assert rdb.dump() == native.dump()

    def test_batch_rolls_back_on_both_backends(self, mediator):
        rdb = mediator.session()
        native = _triplestore_session(mediator)
        baseline = rdb.dump()
        ops = [
            PREFIXES + 'INSERT DATA { ex:team1 foaf:name "One" . }',
            "NOT SPARQL {",
        ]
        for sess in (rdb, native):
            with pytest.raises(Exception):
                sess.execute_all(ops)
        assert rdb.dump() == baseline
        assert native.dump() == baseline

    def test_queries_agree_across_backends(self, mediator):
        rdb = mediator.session()
        native = _triplestore_session(mediator)
        op = PREFIXES + 'INSERT DATA { ex:author2 foaf:family_name "Reif" . }'
        rdb.execute(op)
        native.execute(op)
        names_rdb = sorted(r[0].lexical for r in rdb.query(QUERY_NAMES).rows())
        names_native = sorted(
            r[0].lexical for r in native.query(QUERY_NAMES).rows()
        )
        assert names_rdb == names_native == ["Hert", "Reif"]

    def test_triplestore_explicit_rollback_restores_graph(self, mediator):
        """The graph undo journal (O(changes), not a snapshot) must
        restore the oracle exactly on explicit rollback."""
        native = _triplestore_session(mediator)
        before = native.dump()
        native.begin()
        native.execute(
            PREFIXES + 'INSERT DATA { ex:author2 foaf:family_name "Reif" . }'
        )
        assert len(native.dump()) > len(before)
        native.rollback()
        assert native.dump() == before
        with native.transaction():
            native.execute(
                PREFIXES + 'INSERT DATA { ex:author2 foaf:family_name "Reif" . }'
            )
        assert len(native.dump()) == len(before) + 2  # name + implied type

    def test_transaction_misuse_raises_uniformly(self, mediator):
        """Both backends raise TransactionError (a ReproError) for
        commit/rollback without an open transaction, for a nested begin
        and for commit/rollback from a thread that does not own the
        transaction, so Session code survives a backend swap."""
        from repro.errors import TransactionError

        for sess in (mediator.session(), _triplestore_session(mediator)):
            with pytest.raises(TransactionError):
                sess.commit()
            with pytest.raises(TransactionError):
                sess.rollback()
            with pytest.raises(TransactionError):
                sess.begin()
                sess.begin()
            # Another thread may neither commit nor roll back the open
            # transaction: it is refused at once, not made to wait.
            outcomes = []

            def finish_elsewhere():
                for finish in (sess.commit, sess.rollback):
                    try:
                        finish()
                        outcomes.append("finished")
                    except TransactionError:
                        outcomes.append("refused")

            thread = threading.Thread(target=finish_elsewhere, daemon=True)
            thread.start()
            thread.join(5)
            assert outcomes == ["refused", "refused"], sess.backend.name
            assert sess.in_transaction()
            sess.rollback()
            assert not sess.in_transaction()

    def test_backend_names(self, mediator):
        assert RelationalBackend(mediator.db, mediator.mapping).name == "rdb"
        assert _triplestore_session(mediator).backend.name == "triplestore"


class TestFacadeShim:
    def test_facade_session_shares_database(self, mediator):
        session = mediator.session()
        session.execute(INSERT_TEAM)
        # visible through the facade and its dump
        assert mediator.db.get_row_by_pk("team", (4,)) is not None
        assert len(mediator.dump()) > 0

    def test_mutating_a_result_does_not_affect_the_next_execute(
        self, session, mediator
    ):
        """result.statements is the caller's to mutate: nothing a later
        execute of the same prepared update uses may alias it."""
        prepared = session.prepare(INSERT_TEAM)
        first = prepared.execute()
        expected = list(first.sql())
        first.operations[0].statements.append("garbage")
        mediator.db.execute("DELETE FROM team WHERE id = 4")
        again = prepared.execute()
        assert "garbage" not in again.operations[0].statements
        assert again.sql() == expected
        assert mediator.db.get_row_by_pk("team", (4,)) is not None

    def test_mapping_reassignment_reaches_execution(self, mediator):
        """oa.mapping = new_mapping must affect later calls (and
        invalidate prepared translations via the mapping generation)."""
        from repro.workloads.publication import build_mapping

        session = mediator.session()
        prepared = session.prepare(QUERY_NAMES)
        assert len(prepared.execute().rows()) == 1
        new_mapping = build_mapping(mediator.db)
        mediator.mapping = new_mapping
        assert mediator.mapping is new_mapping
        assert mediator._backend.mapping is new_mapping
        # prepared objects keep working, re-translated under the new mapping
        assert len(prepared.execute().rows()) == 1

    def test_facade_flags_propagate_to_backend(self, mediator):
        mediator.force_query_fallback = True
        assert not mediator.query_outcome(QUERY_NAMES).used_sql
        mediator.force_query_fallback = False
        assert mediator.query_outcome(QUERY_NAMES).used_sql


class TestSessionThreadSafety:
    def test_concurrent_sessions_never_interleave_transactions(self, mediator):
        """A facade update racing an endpoint-style session update must
        not join or roll back the other's transaction."""
        other = mediator.session()
        errors = []

        def facade_worker(i):
            try:
                mediator.update(
                    PREFIXES
                    + f'INSERT DATA {{ ex:team{i + 20} foaf:name "F{i}" . }}'
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def session_worker(i):
            try:
                if i % 2:
                    with pytest.raises(TranslationError):
                        other.execute(BAD_INSERT)
                else:
                    other.execute(
                        PREFIXES
                        + f'INSERT DATA {{ ex:team{i + 40} foaf:name "S{i}" . }}'
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=facade_worker, args=(i,)) for i in range(6)
        ] + [threading.Thread(target=session_worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not mediator.db.in_transaction()
        assert mediator.db.row_count("team") == 1 + 6 + 3  # seed + facade + even sessions

    def test_every_write_path_shares_one_writer_lock(self, mediator):
        """Explicit session transactions, failing transaction scopes,
        facade updates and autocommit SQL race each other on more
        threads than cores: every committed transaction lands whole,
        every failed one leaves nothing, and no transaction stays open."""
        import sys

        session = mediator.session()
        db = mediator.db
        rounds = 12
        errors = []

        def insert(key, name):
            return PREFIXES + f'INSERT DATA {{ ex:team{key} foaf:name "{name}" . }}'

        def explicit(worker, i):
            session.begin()
            session.execute(insert(1000 + 100 * worker + 2 * i, "a"))
            session.execute(insert(1001 + 100 * worker + 2 * i, "b"))
            session.commit()

        def failing(worker, i):
            with pytest.raises(TranslationError):
                with session.transaction():
                    session.execute(insert(5000 + 100 * worker + i, "lost"))
                    session.execute(BAD_INSERT)

        def facade(worker, i):
            mediator.update(insert(1000 + 100 * worker + i, "f"))

        def autocommit(worker, i):
            db.execute(
                "INSERT INTO team (id, name) VALUES (?, 'sql')",
                (1000 + 100 * worker + i,),
            )

        kinds = [explicit, failing, facade, autocommit, explicit, failing]

        def worker(index):
            try:
                for i in range(rounds):
                    kinds[index](index, i)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(len(kinds))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert not db.in_transaction()
        ids = {row[0] for row in db.query("SELECT id FROM team").rows}
        assert not {key for key in ids if key >= 5000}, "a failed scope leaked"
        # seed + two explicit workers (2 rows a round) + facade + autocommit
        assert len(ids) == 1 + 2 * 2 * rounds + 2 * rounds

    def test_facade_dump_serializes_with_writers(self, mediator):
        """mediator.dump() must hold the session lock: a dump racing a
        writer used to crash with 'dictionary changed size during
        iteration'."""
        errors = []
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                i += 1
                try:
                    mediator.update(
                        PREFIXES
                        + f'INSERT DATA {{ ex:team{i + 50} foaf:name "W{i}" . }}'
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        def dumper():
            try:
                for _ in range(30):
                    mediator.dump()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        w = threading.Thread(target=writer)
        d = threading.Thread(target=dumper)
        w.start()
        d.start()
        d.join()
        stop.set()
        w.join()
        assert not errors

    def test_concurrent_executes_serialize(self, mediator):
        session = mediator.session()
        errors = []

        def worker(i: int) -> None:
            try:
                session.execute(
                    PREFIXES
                    + f'INSERT DATA {{ ex:team{i + 10} foaf:name "T{i}" . }}'
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert mediator.db.row_count("team") == 9  # seed + 8
        assert not mediator.db.in_transaction()


    def test_parsing_a_batch_does_not_block_other_writers(
        self, mediator, monkeypatch
    ):
        """Parsing happens before the write-tier lock is taken: a writer
        commits while another thread is still parsing its batch."""
        from repro.sparql.update_parser import UpdateParser

        session = mediator.session()
        parsing = threading.Event()
        release = threading.Event()
        real_parse = UpdateParser.request
        slow_text = PREFIXES + 'INSERT DATA { ex:team21 foaf:name "Slow" . }'

        def blocking_parse(parser):
            if parser.text == slow_text:
                parsing.set()
                assert release.wait(10)
            return real_parse(parser)

        monkeypatch.setattr(UpdateParser, "request", blocking_parse)
        batch = threading.Thread(target=session.execute_all, args=([slow_text],))
        batch.start()
        try:
            assert parsing.wait(10)
            committed = threading.Event()

            def write():
                session.execute(
                    PREFIXES + 'INSERT DATA { ex:team22 foaf:name "Fast" . }'
                )
                committed.set()

            writer = threading.Thread(target=write)
            writer.start()
            assert committed.wait(5), "writer blocked behind a parse"
            writer.join()
            assert mediator.db.get_row_by_pk("team", (22,)) is not None
            assert mediator.db.get_row_by_pk("team", (21,)) is None
        finally:
            release.set()
            batch.join()
        assert mediator.db.get_row_by_pk("team", (21,)) is not None


class TestCrossThreadTransactions:
    """Explicit transaction scope is thread-owned, and a write takes one
    lock: the database's writer lock.

    ``session.begin()`` takes it and commit / rollback release it, so a
    write from another thread *waits* for the transaction (it can never
    join it, interleave with it, or deadlock against its commit), while
    reads from other threads answer immediately from the pre-transaction
    snapshot.  A transaction that ends — committed, rolled back by a
    failed operation, or left by any exception — leaves no lock behind.
    """

    def test_other_threads_write_waits_for_explicit_txn(self, mediator):
        import time

        session = mediator.session()
        session.query(QUERY_NAMES)  # publish the first snapshot
        session.begin()
        session.execute(
            PREFIXES + 'INSERT DATA { ex:team21 foaf:name "InTxn" . }'
        )
        done = []

        def other_writer():
            session.execute(
                PREFIXES + 'INSERT DATA { ex:team22 foaf:name "Waited" . }'
            )
            done.append("writer")

        thread = threading.Thread(target=other_writer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not done, "second thread's write must wait for the commit"
        # a read from a third thread is NOT blocked by the open txn
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(len(session.query(QUERY_NAMES))),
            daemon=True,
        )
        reader.start()
        reader.join(10)
        assert seen == [1]  # pre-transaction state: just the seed author
        session.commit()
        thread.join(10)
        assert done == ["writer"]
        assert mediator.db.row_count("team") == 3  # seed + both inserts

    def test_commit_after_failed_operation_releases_the_write_tier(
        self, mediator
    ):
        session = mediator.session()
        session.begin()
        with pytest.raises(TranslationError):
            session.execute(
                PREFIXES + 'INSERT DATA { ex:author9 foaf:firstName "X" . }'
            )  # missing required lastname -> operation fails, txn rolled back
        with pytest.raises(Exception):
            session.commit()  # nothing open anymore, but the tier is freed
        # another thread can write immediately: no leaked begin-hold
        ok = []
        thread = threading.Thread(
            target=lambda: ok.append(
                session.execute(
                    PREFIXES + 'INSERT DATA { ex:team31 foaf:name "Free" . }'
                )
            ),
            daemon=True,
        )
        thread.start()
        thread.join(10)
        assert len(ok) == 1
        assert not mediator.db.in_transaction()

    def test_transaction_begun_in_one_session_finished_in_another(
        self, mediator
    ):
        """Transaction state is backend-global, so a sibling session on
        the same thread may commit it — and doing so must free the write
        tier (the begin-hold lives on the backend, not the session)."""
        first = mediator.session()
        second = mediator.session()
        first.begin()
        first.execute(
            PREFIXES + 'INSERT DATA { ex:team41 foaf:name "CrossSession" . }'
        )
        second.commit()
        assert not mediator.db.in_transaction()
        ok = []
        thread = threading.Thread(
            target=lambda: ok.append(
                second.execute(
                    PREFIXES + 'INSERT DATA { ex:team42 foaf:name "Free" . }'
                )
            ),
            daemon=True,
        )
        thread.start()
        thread.join(10)
        assert len(ok) == 1
        assert mediator.db.row_count("team") == 3  # seed + both inserts

    def test_failed_operation_in_an_abandoned_transaction_frees_the_lock(
        self, mediator
    ):
        """A thread's operation fails inside ``begin()``; the thread
        writes once more and ends without ``commit()``.  The failed
        operation's rollback ended the transaction and released the
        lock, so another thread's write completes."""
        session = mediator.session()
        states = []

        def abandon():
            session.begin()
            try:
                session.execute(BAD_INSERT)
            except TranslationError:
                pass
            states.append(session.in_transaction())
            session.execute(
                PREFIXES + 'INSERT DATA { ex:team51 foaf:name "After" . }'
            )

        first = threading.Thread(target=abandon, daemon=True)
        first.start()
        first.join(5)
        assert states == [False]
        ok = []
        second = threading.Thread(
            target=lambda: ok.append(
                session.execute(
                    PREFIXES + 'INSERT DATA { ex:team52 foaf:name "Other" . }'
                )
            ),
            daemon=True,
        )
        second.start()
        second.join(5)
        assert len(ok) == 1, "the other thread's write never finished"
        assert not mediator.db.in_transaction()
        assert mediator.db.get_row_by_pk("team", (51,)) is not None
        assert mediator.db.get_row_by_pk("team", (52,)) is not None

    @pytest.mark.parametrize("scope", ["session", "database"])
    def test_scope_left_by_a_base_exception_rolls_back(self, mediator, scope):
        """``KeyboardInterrupt`` is no ``Exception``: a transaction scope
        it leaves must still roll back and free the writer lock."""
        session = mediator.session()
        opened = session.transaction() if scope == "session" else (
            mediator.db.transaction()
        )
        with pytest.raises(KeyboardInterrupt):
            with opened:
                mediator.db.execute(
                    "INSERT INTO team (id, name) VALUES (60, 'Interrupted')"
                )
                raise KeyboardInterrupt
        assert not mediator.db.in_transaction()
        assert mediator.db.get_row_by_pk("team", (60,)) is None
        ok = []
        thread = threading.Thread(
            target=lambda: ok.append(
                mediator.db.execute(
                    "INSERT INTO team (id, name) VALUES (61, 'Other')"
                )
            ),
            daemon=True,
        )
        thread.start()
        thread.join(5)
        assert len(ok) == 1, "the other thread's write never finished"
        assert mediator.db.get_row_by_pk("team", (61,)) is not None
