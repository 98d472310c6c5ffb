"""Equivalence of mediated updates and the native triple store.

The central semantic property of the paper's approach: a SPARQL/Update
operation routed through OntoAccess must leave the relational database in
a state whose RDF dump equals the graph a native triple store holds after
applying the same operation directly (modulo the literal canonicalization
the mapping defines).

These tests drive both sides with identical operation sequences —
hand-written scenarios plus hypothesis-generated random workloads — and
compare `mediator.dump()` with the mapping-aware native store's graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OntoAccess, TranslationError
from repro.baselines import MappingAwareTripleStore
from repro.workloads import (
    WorkloadConfig,
    build_database,
    build_mapping,
    generate_dataset,
    populate_database,
)
from repro.workloads.operations import (
    PREFIXES,
    delete_email_op,
    insert_author_op,
    insert_full_publication_op,
    insert_team_op,
    modify_email_op,
)
from tests.rdb.test_storage import named_rows


def make_pair(populate: bool = False):
    """A mediator and a native store kept in sync from the same start."""
    db = build_database()
    if populate:
        populate_database(db, generate_dataset(WorkloadConfig(authors=8, publications=10)))
    mapping = build_mapping(db)
    oa = OntoAccess(db, mapping)
    native = MappingAwareTripleStore(mapping, db, graph=oa.dump())
    return oa, native


def apply_both(oa, native, op: str):
    oa.update(op)
    native.update(op)


def assert_equivalent(oa, native):
    dumped = oa.dump()
    assert dumped == native.graph, (
        f"dump has {len(dumped)} triples, native has {len(native.graph)};\n"
        f"only in dump: {[t.n3() for t in dumped.difference(native.graph)][:5]}\n"
        f"only in native: {[t.n3() for t in native.graph.difference(dumped)][:5]}"
    )


class TestScenarios:
    def test_single_insert(self):
        oa, native = make_pair()
        apply_both(oa, native, insert_team_op(4))
        assert_equivalent(oa, native)

    def test_full_publication_insert(self):
        oa, native = make_pair()
        apply_both(oa, native, insert_full_publication_op(12, 6, 5, 4, 3))
        assert_equivalent(oa, native)

    def test_incremental_insert(self):
        """Paper Section 5.1: minimal insert, then more data later."""
        oa, native = make_pair()
        apply_both(
            oa,
            native,
            PREFIXES + 'INSERT DATA { ex:author1 foaf:family_name "Hert" . }',
        )
        assert_equivalent(oa, native)
        apply_both(
            oa,
            native,
            PREFIXES
            + """INSERT DATA {
                ex:author1 foaf:firstName "Matthias" ;
                           foaf:mbox <mailto:hert@ifi.uzh.ch> .
            }""",
        )
        assert_equivalent(oa, native)

    def test_attribute_delete(self):
        oa, native = make_pair()
        apply_both(oa, native, insert_author_op(1, with_email=True))
        apply_both(oa, native, delete_email_op(1, "author1@example.org"))
        assert_equivalent(oa, native)

    def test_complete_entity_delete(self):
        oa, native = make_pair()
        apply_both(
            oa,
            native,
            PREFIXES + 'INSERT DATA { ex:author1 foaf:family_name "Solo" . }',
        )
        apply_both(
            oa,
            native,
            PREFIXES + 'DELETE DATA { ex:author1 foaf:family_name "Solo" . }',
        )
        assert_equivalent(oa, native)
        assert oa.db.row_count("author") == 0

    def test_modify_replaces_email(self):
        oa, native = make_pair()
        apply_both(oa, native, insert_team_op(5))
        apply_both(oa, native, insert_author_op(1, team_id=5, lastname="Hert"))
        # note: insert_author_op writes firstname First1 / family_name Hert1
        apply_both(oa, native, modify_email_op("First1", "Hert1", "new@example.org"))
        assert_equivalent(oa, native)

    def test_link_insert_and_delete(self):
        oa, native = make_pair()
        apply_both(oa, native, insert_full_publication_op(1, 1, 1, 1, 1))
        apply_both(
            oa,
            native,
            PREFIXES + "DELETE DATA { ex:pub1 dc:creator ex:author1 . }",
        )
        assert_equivalent(oa, native)
        assert oa.db.row_count("publication_author") == 0

    def test_populated_start_states_match(self):
        oa, native = make_pair(populate=True)
        assert_equivalent(oa, native)

    def test_sequence_on_populated_database(self):
        oa, native = make_pair(populate=True)
        ops = [
            insert_team_op(100),
            insert_author_op(100, team_id=100),
            # fresh ids throughout: re-asserting an existing entity with
            # *different* values is a (correctly rejected) multi-value error
            insert_full_publication_op(200, 201, 201, 201, 201),
            delete_email_op(100, "author100@example.org"),
        ]
        for op in ops:
            apply_both(oa, native, op)
            assert_equivalent(oa, native)


# ---------------------------------------------------------------------------
# randomized sequences
# ---------------------------------------------------------------------------

_op_kind = st.sampled_from(["team", "author", "publication", "delete-email", "modify"])


@st.composite
def operation_sequences(draw):
    """A random but *valid* sequence of operations with its state model."""
    kinds = draw(st.lists(_op_kind, min_size=1, max_size=8))
    ops = []
    teams = []
    emails = {}  # author id -> current email address
    author_counter = 0
    pub_counter = 0
    for kind in kinds:
        if kind == "team":
            team_id = len(teams) + 1
            teams.append(team_id)
            ops.append(insert_team_op(team_id))
        elif kind == "author":
            author_counter += 1
            team = teams[-1] if teams and draw(st.booleans()) else None
            ops.append(insert_author_op(author_counter, team_id=team))
            emails[author_counter] = f"author{author_counter}@example.org"
        elif kind == "publication":
            pub_counter += 1
            author_counter += 1
            team_id = len(teams) + 1
            teams.append(team_id)
            ops.append(
                insert_full_publication_op(
                    pub_counter, author_counter, team_id, pub_counter, pub_counter
                )
            )
        elif kind == "delete-email" and emails:
            author, email = emails.popitem()
            ops.append(delete_email_op(author, email))
        elif kind == "modify" and emails:
            author = next(iter(emails))
            # insert_author_op authors have lastname Generated<N>;
            # publication-op authors have Last<N> — only the former match.
            new_email = f"changed{author}-{len(ops)}@example.org"
            ops.append(
                PREFIXES
                + f"""
MODIFY
DELETE {{ ?x foaf:mbox ?m . }}
INSERT {{ ?x foaf:mbox <mailto:{new_email}> . }}
WHERE {{ ?x foaf:family_name "Generated{author}" ; foaf:mbox ?m . }}
"""
            )
            emails[author] = new_email
    return ops


@given(ops=operation_sequences())
@settings(max_examples=40, deadline=None)
def test_random_sequences_equivalent(ops):
    """Mediated and native stores agree after any valid op sequence."""
    oa, native = make_pair()
    for op in ops:
        apply_both(oa, native, op)
    assert_equivalent(oa, native)


# ---------------------------------------------------------------------------
# both backends through the same Session interface (ISSUE 2 tentpole)
# ---------------------------------------------------------------------------


def make_session_pair(populate: bool = False):
    """Two Sessions over the same start state: one on the relational
    backend, one on the triple-store backend (the oracle)."""
    from repro import Session, TripleStoreBackend

    db = build_database()
    if populate:
        populate_database(
            db, generate_dataset(WorkloadConfig(authors=8, publications=10))
        )
    mapping = build_mapping(db)
    oa = OntoAccess(db, mapping)
    rdb_session = oa.session()
    native_session = Session(
        TripleStoreBackend(
            MappingAwareTripleStore(mapping, db, graph=oa.dump())
        )
    )
    return rdb_session, native_session


class TestSessionBackendEquivalence:
    """The same Session API, driven over both Backend implementations,
    must agree — one-shot execute, prepared operations, and batches."""

    def test_scenarios_via_session_execute(self):
        rdb, native = make_session_pair()
        ops = [
            insert_team_op(4),
            insert_author_op(1, team_id=4),
            insert_full_publication_op(12, 6, 5, 4, 3),
            delete_email_op(1, "author1@example.org"),
        ]
        for op in ops:
            rdb.execute(op)
            native.execute(op)
            assert rdb.dump() == native.dump()

    def test_prepared_operations_agree(self):
        rdb, native = make_session_pair()
        texts = [insert_team_op(4), insert_author_op(1, team_id=4)]
        for text in texts:
            rdb_prepared = rdb.prepare(text)
            native_prepared = native.prepare(text)
            # repeated execution: the second and third are state no-ops
            for _ in range(3):
                rdb_prepared.execute()
                native_prepared.execute()
        assert rdb.dump() == native.dump()

    def test_batches_agree(self):
        rdb, native = make_session_pair()
        batch = [insert_team_op(4), insert_author_op(1, team_id=4)]
        rdb.execute_all(batch)
        native.execute_all(batch)
        assert rdb.dump() == native.dump()

    def test_populated_start_agrees(self):
        rdb, native = make_session_pair(populate=True)
        assert rdb.dump() == native.dump()
        op = modify_email_op("First1", "Generated1", "changed@example.org")
        rdb.execute(op)
        native.execute(op)
        assert rdb.dump() == native.dump()


class TestSessionRangeAndOrderQueries:
    """ISSUE-3 satellite: range FILTERs and ORDER BY through the Session
    API must agree across the RelationalBackend (translated SQL through
    planner v2's range/ordered index paths) and the TripleStoreBackend —
    divergence here would be translator-level, invisible to the RDB-only
    differential oracle."""

    PREFIXES = """
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX dc:   <http://purl.org/dc/elements/1.1/>
        PREFIX ont:  <http://example.org/ontology#>
    """

    RANGE_QUERIES = [
        "SELECT ?t ?y WHERE { ?p dc:title ?t ; ont:pubYear ?y . "
        "FILTER (?y >= 2003) }",
        "SELECT ?t ?y WHERE { ?p dc:title ?t ; ont:pubYear ?y . "
        "FILTER (?y > 2000) FILTER (?y < 2008) }",
        "SELECT ?n WHERE { ?a foaf:family_name ?n . FILTER (?n > \"Generated3\") }",
    ]

    ORDERED_QUERIES = [
        "SELECT ?y ?t WHERE { ?p dc:title ?t ; ont:pubYear ?y . } ORDER BY ?y",
        "SELECT ?y ?t WHERE { ?p dc:title ?t ; ont:pubYear ?y . } "
        "ORDER BY DESC(?y)",
        "SELECT ?y WHERE { ?p ont:pubYear ?y . FILTER (?y >= 2000) } "
        "ORDER BY ?y",
    ]

    @staticmethod
    def _rows_multiset(result):
        return sorted(map(str, result.rows()))

    def test_range_filters_agree(self):
        rdb, native = make_session_pair(populate=True)
        for query in self.RANGE_QUERIES:
            sparql = self.PREFIXES + query
            assert self._rows_multiset(rdb.query(sparql)) == self._rows_multiset(
                native.query(sparql)
            ), f"range filter diverges: {query}"

    def test_order_by_agrees(self):
        """Multisets match and the ordered variable's value sequence is
        identical (tie members may legitimately differ per backend)."""
        rdb, native = make_session_pair(populate=True)
        for query in self.ORDERED_QUERIES:
            sparql = self.PREFIXES + query
            rdb_result = rdb.query(sparql)
            native_result = native.query(sparql)
            assert self._rows_multiset(rdb_result) == self._rows_multiset(
                native_result
            ), f"ordered query diverges: {query}"
            assert [str(t) for t in rdb_result.column("y")] == [
                str(t) for t in native_result.column("y")
            ], f"ORDER BY key sequence diverges: {query}"

    def test_order_by_limit_agrees(self):
        """With LIMIT, the key sequence must match and every returned row
        must exist in the other backend's unlimited result."""
        rdb, native = make_session_pair(populate=True)
        base = (
            "SELECT ?y ?t WHERE { ?p dc:title ?t ; ont:pubYear ?y . } "
            "ORDER BY ?y"
        )
        limited = self.PREFIXES + base + " LIMIT 4"
        unlimited = self.PREFIXES + base
        rdb_rows = rdb.query(limited)
        native_rows = native.query(limited)
        assert [str(t) for t in rdb_rows.column("y")] == [
            str(t) for t in native_rows.column("y")
        ]
        native_full = set(self._rows_multiset(native.query(unlimited)))
        for row in map(str, rdb_rows.rows()):
            assert row in native_full

    def test_range_filters_after_updates(self):
        """Range agreement must survive mediated writes on both sides."""
        rdb, native = make_session_pair(populate=True)
        ops = [insert_team_op(77), insert_author_op(77, team_id=77)]
        for op in ops:
            rdb.execute(op)
            native.execute(op)
        sparql = self.PREFIXES + self.RANGE_QUERIES[0]
        assert self._rows_multiset(rdb.query(sparql)) == self._rows_multiset(
            native.query(sparql)
        )
        assert rdb.dump() == native.dump()


@given(ops=operation_sequences())
@settings(max_examples=20, deadline=None)
def test_session_random_sequences_equivalent(ops):
    """Random valid sequences through the Session interface keep both
    backends in agreement."""
    rdb, native = make_session_pair()
    for op in ops:
        rdb.execute(op)
        native.execute(op)
    assert rdb.dump() == native.dump()


@given(ops=operation_sequences())
@settings(max_examples=20, deadline=None)
def test_random_sequences_all_tables_consistent(ops):
    """FK integrity invariant: after any sequence, every FK value in the
    database references an existing parent row."""
    oa, _ = make_pair()
    for op in ops:
        oa.update(op)
    db = oa.db
    for table in db.schema.tables():
        data = db.table_data(table.name)
        for _, row in named_rows(data):
            for fk in table.foreign_keys:
                value = row.get(fk.columns[0])
                if value is not None:
                    assert db.get_row_by_pk(fk.ref_table, (value,)) is not None
