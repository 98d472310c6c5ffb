"""A dropped system is freed by reference counting, not by the cycle
collector: a workload that builds a fresh system per round must not hold
the last one until a gen-2 collection comes along."""

import gc
import weakref

from repro import OntoAccess
from repro.rdf import URIRef
from repro.workloads.operations import PREFIXES
from repro.workloads.publication import build_database, build_mapping, seed_feasibility_data


def _used_system():
    db = build_database()
    seed_feasibility_data(db)
    oa = OntoAccess(db, build_mapping(db))
    for text in (
        'INSERT DATA { ex:author70 foaf:family_name "X" ; ont:team ex:team5 . }',
        'INSERT DATA { ex:author71 foaf:family_name "Y" . }',
        "MODIFY DELETE { ?a foaf:family_name \"Y\" } INSERT { ?a foaf:family_name \"Z\" }"
        ' WHERE { ?a foaf:family_name "Y" }',
        'DELETE DATA { ex:author71 foaf:family_name "Z" . }',
    ):
        oa.update(PREFIXES + text)
    prepared = oa.session().prepare(
        PREFIXES + "SELECT ?n WHERE { ?a foaf:family_name ?n }"
    )
    author = URIRef("http://example.org/db/author70")
    assert [str(row[0]) for row in prepared.execute({"a": author}).rows()] == ["X"]
    oa.dump()
    oa.query(PREFIXES + "SELECT ?n WHERE { ex:author70 foaf:family_name ?n }")
    oa.query(
        PREFIXES + "SELECT ?a ?n WHERE { ?a foaf:family_name ?n ; ont:team ?t ."
        " ?t foaf:name ?x } ORDER BY ?n LIMIT 3"
    )
    return [weakref.ref(o) for o in (db, oa, oa._session, oa._backend, prepared)]


def test_a_dropped_system_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        refs = _used_system()
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert alive == []
