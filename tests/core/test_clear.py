"""CLEAR on the relational backend: one ``DELETE`` per mapped table.

The tables are deleted children first (the reverse of the parents-first
order :func:`~repro.core.backend.safe_clear_order` gives), so with
immediate foreign-key checks no ``DELETE`` removes a row another table
still references.  Held here over linked rows — authors in teams,
publications with a publisher, a type and authors through the link
table — against the native triple store, and inside a transaction whose
later operation fails, where nothing may be cleared.
"""

import pytest

from repro import OntoAccess, TranslationError
from repro.baselines import MappingAwareTripleStore
from repro.core import Session, TripleStoreBackend
from repro.core.backend import safe_clear_order
from repro.workloads import (
    WorkloadConfig,
    build_database,
    build_mapping,
    generate_dataset,
    populate_database,
)
from repro.workloads.operations import PREFIXES

#: Fails in translation (no mapped property), after the CLEAR before it.
UNKNOWN_PROPERTY = 'INSERT DATA { ex:team9 ex:nothing "x" . }'


def _linked():
    db = build_database()
    populate_database(db, generate_dataset(WorkloadConfig(authors=8, publications=10)))
    return OntoAccess(db, build_mapping(db))


def _counts(db):
    return {name: db.query(f"SELECT COUNT(*) FROM {name}").rows[0][0]
            for name in db.schema.table_names()}


def test_clear_deletes_children_first_and_leaves_an_empty_dump():
    mediator = _linked()
    db = mediator.db
    counts = _counts(db)
    assert all(counts[name] for name in ("author", "publication", "publication_author"))
    order = safe_clear_order(mediator.mapping, db)
    result = mediator.update("CLEAR")
    assert result.sql() == [f"DELETE FROM {name};" for name in reversed(order)]
    deleted = [line.split()[2].rstrip(";") for line in result.sql()]
    for name in deleted:
        for fk in db.schema.table(name).foreign_keys:
            # a table is emptied before every table it references
            assert deleted.index(name) < deleted.index(fk.ref_table), (name, fk)
    assert result.rows_affected() == sum(counts[name] for name in deleted)
    assert len(mediator.dump()) == 0
    assert set(_counts(db).values()) == {0}


def test_clear_through_a_session_matches_the_triple_store():
    mediator = _linked()
    native = Session(TripleStoreBackend(
        MappingAwareTripleStore(mediator.mapping, mediator.db, graph=mediator.dump())
    ))
    relational = mediator.session()
    refill = PREFIXES + 'INSERT DATA { ex:team4 foaf:name "DBTG" ; ont:teamCode "D" . }'
    for session in (relational, native):
        session.execute("CLEAR")
        assert len(session.dump()) == 0
        session.execute(refill)
    assert len(relational.dump()) == 3  # its rdf:type and the two values
    assert relational.dump() == native.dump()


@pytest.mark.parametrize("how", ["batch", "transaction"])
def test_a_failing_later_operation_clears_nothing(how):
    mediator = _linked()
    session = mediator.session()
    before, counts = mediator.dump(), _counts(mediator.db)
    with pytest.raises(TranslationError):
        if how == "batch":
            session.execute_all(["CLEAR", PREFIXES + UNKNOWN_PROPERTY])
        else:
            with session.transaction():
                session.execute(PREFIXES + "CLEAR ; " + UNKNOWN_PROPERTY)
    assert _counts(mediator.db) == counts
    assert mediator.dump() == before
