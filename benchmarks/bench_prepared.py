"""What ``Session.prepare`` buys on operations that change state.

A prepared update amortizes the *parse*: ``session.prepare(template)``
parses once, and every ``execute(bindings)`` substitutes the bindings and
then runs the same translate-and-execute routine as the facade
(``OntoAccess.update``), which parses the request text on every call.
Translation reads row data, so it happens per execution on both sides.

Both sides therefore run operations that really change the database:

* ``test_facade_insert_fresh_key`` / ``test_prepared_insert_fresh_key`` —
  INSERT DATA of a team whose key was never used before (one SQL INSERT
  per call);
* ``test_facade_modify_alternating`` / ``test_prepared_modify_alternating``
  — a MODIFY that flips one author's mailbox between two values (one SQL
  UPDATE per call);
* ``test_prepared_gain_report`` — prints the measured per-call times and
  ratios.  It asserts no floor: the gain is the parse, whatever share of
  the call that is on the machine at hand.

(Until ISSUE 12 this module re-inserted a row that was already there and
asserted a ≥5x floor; that measured a no-op translation replay which no
state-changing traffic can hit, and the replay cache is gone.  Its MODIFY
named an author the generator never produces, so it matched nothing; the
runs below assert that every call changes exactly one row.)

Artifacts land in ``BENCH_prepared.json`` via the conftest writer.
"""

import itertools
import time

from repro import OntoAccess
from repro.rdf.terms import URIRef
from repro.workloads.generator import (
    WorkloadConfig,
    generate_dataset,
    populate_database,
)
from repro.workloads.publication import URI_PREFIX, build_database, build_mapping

from conftest import report

PREFIXES = """
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
"""

INSERT_TEMPLATE = PREFIXES + """
INSERT DATA {
    ?team foaf:name ?name ;
          ont:teamCode ?code .
}
"""

INSERT_TEXT = PREFIXES + """
INSERT DATA {
    ex:team%d foaf:name "Database Technology" ;
              ont:teamCode "DBTG" .
}
"""

MODIFY_TEMPLATE = PREFIXES + """
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox ?new . }
WHERE  { ?x foaf:family_name ?who ; foaf:mbox ?m . }
"""

MODIFY_TEXT = PREFIXES + """
MODIFY
DELETE { ?x foaf:mbox ?m . }
INSERT { ?x foaf:mbox <mailto:%s@example.org> . }
WHERE  { ?x foaf:family_name "Reif2" ; foaf:mbox ?m . }
"""

EXECUTIONS = 100


def _mediator(authors: int = 100) -> OntoAccess:
    db = build_database()
    populate_database(
        db,
        generate_dataset(WorkloadConfig(authors=authors, publications=authors)),
    )
    return OntoAccess(db, build_mapping(db), validate=False)


def _facade_insert():
    mediator = _mediator()
    keys = itertools.count(10_000)
    return lambda: mediator.update(INSERT_TEXT % next(keys))


def _prepared_insert():
    prepared = _mediator().session().prepare(INSERT_TEMPLATE)
    keys = itertools.count(10_000)
    return lambda: prepared.execute(
        bindings={
            "team": URIRef(f"{URI_PREFIX}team{next(keys)}"),
            "name": "Database Technology",
            "code": "DBTG",
        }
    )


def _facade_modify():
    mediator = _mediator()
    names = itertools.cycle("ab")
    return lambda: mediator.update(MODIFY_TEXT % next(names))


def _prepared_modify():
    prepared = _mediator().session().prepare(MODIFY_TEMPLATE)
    names = itertools.cycle("ab")
    return lambda: prepared.execute(
        bindings={
            "who": "Reif2",
            "new": URIRef(f"mailto:{next(names)}@example.org"),
        }
    )


def test_facade_insert_fresh_key(benchmark):
    """Parse + translate + one SQL INSERT per call."""
    run = _facade_insert()
    assert run().rows_affected() == 1
    benchmark(run)


def test_prepared_insert_fresh_key(benchmark):
    """Substitute bindings + translate + one SQL INSERT per call."""
    run = _prepared_insert()
    assert run().rows_affected() == 1
    benchmark(run)


def test_facade_modify_alternating(benchmark):
    """Parse + WHERE + per-binding translation + one SQL UPDATE per call."""
    run = _facade_modify()
    assert run().rows_affected() == 1
    benchmark(run)


def test_prepared_modify_alternating(benchmark):
    """The same MODIFY with the parse amortized."""
    run = _prepared_modify()
    assert run().rows_affected() == 1
    benchmark(run)


def _best_of(rounds: int, fn) -> float:
    """Best per-execution time in us over several rounds — immune to a
    single scheduler pause landing in one measurement (CI runners)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(EXECUTIONS):
            fn()
        best = min(best, (time.perf_counter() - start) / EXECUTIONS * 1e6)
    return best


def test_prepared_gain_report():
    """Report (not gate) what amortizing the parse is worth."""
    lines = []
    for label, facade, prepared in (
        ("INSERT DATA, fresh key", _facade_insert(), _prepared_insert()),
        ("MODIFY, alternating binding", _facade_modify(), _prepared_modify()),
    ):
        facade_us = _best_of(3, facade)
        prepared_us = _best_of(3, prepared)
        lines.append(
            f"{label:28s} facade {facade_us:7.1f} us/op   "
            f"prepared {prepared_us:7.1f} us/op   "
            f"ratio {facade_us / prepared_us:4.2f}x"
        )
    report(
        "prepared vs parse-per-call on state-changing updates "
        f"({EXECUTIONS} executions, publication workload)",
        lines,
    )
