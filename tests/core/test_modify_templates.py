"""A MODIFY binds kept data templates: an oracle and a count.

What is kept of a MODIFY between executions is the translation of its
WHERE and a data template for each of its DELETE and INSERT templates;
each WHERE binding binds the template triples that are ground under it
to the kept template, which is built again only where a binding grounds
other triples, or names subjects of other tables, than it was built for.
What is held here:

* the differential oracle: seeded MODIFY texts run through one session
  (their templates kept from text to text) and, parsed as written, on a
  twin database.  Both must give the same SQL, rows affected, error
  (code, message, details) and dump.  Where the text succeeds, with the
  Section 5.2 optimization on or off, the native triple store
  (:class:`~repro.core.backend.TripleStoreBackend`) runs it on the same
  start state and must reach the same dump (without the optimization a
  binding's INSERT half is translated after its DELETE statements ran,
  so a value deleted and inserted again stays).  The shapes cover
  Listing 11 by name and by URI, the DELETE-only and INSERT-only
  forms, an OPTIONAL that leaves a template
  variable unbound, two subject variables bound to one URI (the Section
  5.2 drop compares values), ``optimize_modify=False``, bindings whose
  subjects name another table, several bindings that touch one row, and
  blank nodes in a template (refused).  No benchmark workload runs
  these: its MODIFY shapes are Listing 11's, one binding each;
* one step per binding: :func:`~repro.core.modify.plan_binding` with the
  kept templates and with throwaway ones gives the same statements;
* the count, from outside (``repro_data_templates_total``): each MODIFY
  shape of the benchmark's one-shot mix builds its template once and
  never rebuilds it.
"""

import dataclasses
import random

import pytest

from repro import OntoAccess, Session, TripleStoreBackend
from repro.baselines.triplestore import MappingAwareTripleStore
from repro.core.modify import KeptModify, bindings_for_pattern, plan_binding
from repro.errors import ReproError
from repro.sparql.update_parser import parse_update
from repro.sql.render import render
from repro.workloads.generator import populate_database
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)
from tests.core.test_data_templates import counts, e2e_workloads, outcome

PREFIXES = """\
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc:   <http://purl.org/dc/elements/1.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""


def mediator():
    """The paper's rows plus two Bergs (author 40 wrote two papers), a
    second Matthias Hert without a mailbox, and a team and a publisher
    named Berg.  No author has a title: an INSERT-only MODIFY sets one,
    and one that has a title keeps it (a second one is refused)."""
    db = build_database()
    seed_feasibility_data(db)
    db.execute_script(
        """
        UPDATE author SET title = NULL;
        INSERT INTO team (id, name, code) VALUES (8, 'Berg', 'BG');
        INSERT INTO publisher (id, name) VALUES (9, 'Berg');
        INSERT INTO author (id, firstname, lastname, email, team)
            VALUES (40, 'Anna', 'Berg', 'anna@x.org', 5);
        INSERT INTO author (id, firstname, lastname, team) VALUES (41, 'Ben', 'Berg', 8);
        INSERT INTO author (id, firstname, lastname) VALUES (42, 'Matthias', 'Hert');
        INSERT INTO publication (id, title, year, type, publisher)
            VALUES (12, 'Relational', 2009, 4, 3);
        INSERT INTO publication (id, title, year, publisher) VALUES (13, 'Mapping', 2010, 9);
        INSERT INTO publication_author (publication, author) VALUES (12, 6);
        INSERT INTO publication_author (publication, author) VALUES (12, 40);
        INSERT INTO publication_author (publication, author) VALUES (13, 40);
        """
    )
    return OntoAccess(db, build_mapping(db))


def native(oa):
    """A triple-store session holding ``oa``'s current dump."""
    store = MappingAwareTripleStore(oa.mapping, oa.db, graph=oa.dump())
    return Session(TripleStoreBackend(store))


# -- shapes --------------------------------------------------------------------

FIRST = ("Matthias", "Anna", "Ben", "Eve")
LAST = ("Hert", "Berg", "Kim")


def mailbox(rng):
    return f"<mailto:{rng.choice(('a', 'b', 'hert'))}@example.com>"


def subject(rng):
    return rng.choice(("ex:author6", "ex:author40", "ex:author41", "ex:author99", "ex:team5"))


def by_name(rng):
    """Listing 11."""
    return (
        f"MODIFY DELETE {{ ?x foaf:mbox ?mbox . }} INSERT {{ ?x foaf:mbox {mailbox(rng)} . }} "
        f'WHERE {{ ?x rdf:type foaf:Person ; foaf:firstName "{rng.choice(FIRST)}" ; '
        f'foaf:family_name "{rng.choice(LAST)}" ; foaf:mbox ?mbox . }}'
    )


def by_uri(rng):
    """Listing 11 addressed by subject URI."""
    s = subject(rng)
    return (
        f"MODIFY DELETE {{ {s} foaf:mbox ?mbox . }} INSERT {{ {s} foaf:mbox {mailbox(rng)} . }} "
        f"WHERE {{ {s} foaf:mbox ?mbox . }}"
    )


def delete_only(rng):
    return (
        f"DELETE {{ ?x foaf:mbox ?m . }} "
        f'WHERE {{ ?x foaf:family_name "{rng.choice(LAST)}" ; foaf:mbox ?m . }}'
    )


def insert_only(rng):
    return (
        f'INSERT {{ ?x foaf:title "Dr" . }} '
        f'WHERE {{ ?x foaf:family_name "{rng.choice(LAST)}" . }}'
    )


def optional_mailbox(rng):
    """``?m`` unbound where an author has no mailbox: the DELETE triple is
    not ground and drops out of that binding."""
    return (
        f"MODIFY DELETE {{ ?x foaf:mbox ?m . }} INSERT {{ ?x foaf:mbox {mailbox(rng)} . }} "
        f'WHERE {{ ?x foaf:family_name "{rng.choice(LAST)}" . OPTIONAL {{ ?x foaf:mbox ?m }} }}'
    )


def two_subjects(rng):
    """Two subject variables bound to one URI: Section 5.2 drops the
    delete because the values agree, not the variables."""
    last = rng.choice(LAST)
    return (
        f"MODIFY DELETE {{ ?a foaf:firstName ?f . }} "
        f'INSERT {{ ?b foaf:firstName "{rng.choice(FIRST)}" . }} '
        f'WHERE {{ ?a foaf:family_name "{last}" ; foaf:firstName ?f . '
        f'?b foaf:family_name "{last}" . FILTER (?a = ?b) }}'
    )


def one_row_twice(rng):
    """Author 40 wrote two papers: two bindings touch one row, the second
    planned against what the first left."""
    return (
        f"MODIFY DELETE {{ ?a foaf:firstName ?f . }} "
        f'INSERT {{ ?a foaf:firstName "{rng.choice(FIRST)}" . }} '
        f"WHERE {{ ?p dc:creator ?a . ?a foaf:firstName ?f . }}"
    )


def other_tables(rng):
    """Bindings whose subjects are authors, a team and a publisher, and
    whose predicates differ: the kept template is built again."""
    old, new = rng.sample(("Berg", "Borg"), 2)
    return f'MODIFY DELETE {{ ?s ?p "{old}" . }} INSERT {{ ?s ?p "{new}" . }} WHERE {{ ?s ?p "{old}" . }}'


def blank_node(rng):
    """Refused: a blank node names no row and is no value of a column."""
    last = rng.choice(LAST)
    return rng.choice((
        f"MODIFY DELETE {{ ?x foaf:mbox ?m . }} INSERT {{ _:b foaf:mbox ?m . }} "
        f'WHERE {{ ?x foaf:family_name "{last}" ; foaf:mbox ?m . }}',
        f'INSERT {{ ?x foaf:firstName _:f . }} WHERE {{ ?x foaf:family_name "{last}" . }}',
        f'DELETE {{ [] foaf:firstName ?f . }} WHERE {{ ?x foaf:family_name "{last}" ; '
        f"foaf:firstName ?f . }}",
    ))


SHAPES = (
    by_name, by_uri, delete_only, insert_only, optional_mailbox, two_subjects,
    one_row_twice, other_tables, blank_node,
)


# -- the oracle ------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_a_kept_modify_translates_as_the_text_written(seed):
    rng = random.Random(seed)
    kept, written = mediator(), mediator()
    seen = set()
    for _ in range(100):
        shape = rng.choice(SHAPES)
        text = PREFIXES + shape(rng)
        kept.optimize_modify = written.optimize_modify = rng.random() < 0.75
        oracle = native(kept)
        got = outcome(lambda: kept.update(text))
        assert got == outcome(lambda: written.update(parse_update(text))), text
        assert set(kept.dump()) == set(written.dump()), text
        if got[0] == "ok":
            oracle.execute(text)
            assert set(oracle.dump()) == set(kept.dump()), text
        seen.add((shape.__name__, got[0], got[1] != [] if got[0] == "ok" else got[2]))
    # The sequence reached what it is meant to: statements and errors.
    assert {name for name, status, _ in seen if status == "ok"} >= {
        "by_name", "by_uri", "delete_only", "insert_only", "optional_mailbox",
        "two_subjects", "one_row_twice", "other_tables",
    }
    assert ("blank_node", "error", "unknown-subject") in seen


@pytest.mark.parametrize("optimize", (True, False))
def test_only_what_the_delete_template_names_is_replaced(optimize):
    """An INSERT-only MODIFY gives an author with a title a second one:
    refused, as INSERT DATA refuses it.  A MODIFY whose DELETE template
    names the title replaces it."""
    oa = mediator()
    oa.optimize_modify = optimize
    oa.db.execute("UPDATE author SET title = 'Prof' WHERE id = 6")
    for text in (
        'INSERT { ?x foaf:title "Dr" . } WHERE { ?x foaf:family_name "Hert" . }',
        'INSERT DATA { ex:author6 foaf:title "Dr" . }',
    ):
        with pytest.raises(ReproError) as refused:
            oa.update(PREFIXES + text)
        assert refused.value.code == "multiple-values-for-attribute", text
    titles = "SELECT id, title FROM author WHERE lastname = 'Hert' ORDER BY id"
    assert oa.db.query(titles).rows == [(6, "Prof"), (42, None)]
    oa.update(
        PREFIXES + 'MODIFY DELETE { ?x foaf:title ?t . } INSERT { ?x foaf:title "Dr" . } '
        'WHERE { ?x foaf:family_name "Hert" ; foaf:title ?t . }'
    )
    assert oa.db.query(titles).rows == [(6, "Dr"), (42, None)]


def test_plan_binding_with_kept_templates_gives_the_throwaway_statements():
    oa = mediator()
    rng = random.Random(7)
    for shape in SHAPES:
        for _ in range(6):
            operation = parse_update(PREFIXES + shape(rng)).operations[0]
            solutions, _, _ = bindings_for_pattern(oa.mapping, oa.db, operation.where)
            kept = KeptModify.of(operation)
            for solution in solutions + solutions:
                for optimize in (True, False):
                    steps = [
                        statements(lambda: plan_binding(
                            oa.mapping, oa.db, operation, solution,
                            optimize_redundant_deletes=optimize, **extra,
                        ))
                        for extra in ({}, {"kept": kept, "version": 1})
                    ]
                    assert steps[0] == steps[1], (shape.__name__, solution)


def statements(run):
    """The SQL of one binding's step, or the error it raised."""
    try:
        return [render(statement) for statement in run().all_statements()]
    except ReproError as exc:
        return ("error", exc.code, str(exc), exc.details)


# -- the count -------------------------------------------------------------------

def test_each_modify_shape_of_the_oneshot_mix_builds_its_template_once():
    workloads = e2e_workloads()
    spec = dataclasses.replace(
        workloads.WORKLOADS["inproc_oneshot_mixed"], authors=400, publications=800
    )
    dataset = workloads.build_dataset(spec, 1)
    db = build_database()
    populate_database(db, dataset)
    oa = OntoAccess(db, build_mapping(db))
    ops = workloads.Stream(spec, workloads.Model(dataset), 0, 1).next_chunk(spec.round_ops)
    shapes, bindings, bound, built, rebuilt = set(), 0, 0, 0, 0
    for op in ops:
        if not op.is_update:
            oa.query(op.text)
            continue
        before = counts()
        result = oa.update(op.text)
        assert workloads.check_update(op, result.rows_affected())
        if op.template.startswith("modify_"):
            after = counts()
            bound += after[0] - before[0]
            built += after[1] - before[1]
            rebuilt += after[2] - before[2]
            shapes.add(op.template)
            bindings += result.operations[0].bindings
    assert shapes and bindings > len(shapes)
    # One template per shape, the INSERT one: its DELETE triple is always
    # dropped as redundant (Section 5.2), so never translated.
    assert (built, rebuilt, bound) == (len(shapes), 0, bindings - len(shapes))
