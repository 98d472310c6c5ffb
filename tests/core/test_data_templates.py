"""Data blocks run as kept templates: an oracle and a count.

An INSERT DATA / DELETE DATA block of a kept shape is translated once
into a template (``core/common.py::DataTemplate``) and every later
request of the shape binds its values to it, unless they do not fit
(a subject of another table, a class bound to another term), when the
template is built again from them.  What is held here:

* the differential oracle: seeded sequences of texts of several shapes
  run through one session, and each text, parsed as written, runs on a
  twin database.  Both must give the same SQL, rows affected, error
  (code, message, details) and dump, whatever the spelling of a term —
  prefixed name, absolute or relative IRI, blank node, literal subject,
  language tag, datatype, long string, escape, bare number or boolean —
  and whatever the rows say (a new or an existing entity, a link to a
  row the same request inserts);
* a client's placeholders: bound as the text with the terms written in,
  and an unbound one is refused before any operation of the request
  runs;
* the count, from outside (``repro_data_templates_total``): the
  benchmark's one-shot mix builds one template per data-block shape and
  never rebuilds; a shape whose subject alternates between tables
  rebuilds, and answers as written.
"""

import dataclasses
import importlib.util
import pathlib
import random
import sys

import pytest

from repro import OntoAccess
from repro.errors import ReproError, TranslationError
from repro.observability import lint_exposition
from repro.r3m.generator import generate_mapping
from repro.rdb import Database
from repro.observability.metrics import DATA_TEMPLATES
from repro.rdf import Literal, Triple, URIRef
from repro.server import OntoAccessEndpoint
from repro.sparql.update_ast import InsertData, UpdateRequest
from repro.sparql.update_parser import parse_update
from repro.workloads.generator import populate_database
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

PROLOGUE = """\
BASE <http://example.org/db/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX dc:   <http://purl.org/dc/elements/1.1/>
PREFIX ont:  <http://example.org/ontology#>
PREFIX ex:   <http://example.org/db/>
PREFIX db:   <http://example.org/db/>
PREFIX xsd:  <http://www.w3.org/2001/XMLSchema#>
PREFIX r:    <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
"""


def mediator():
    db = build_database()
    seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


# -- spellings -----------------------------------------------------------------

def iri(rng, local):
    """One entity IRI, spelled one of four ways (BASE is the db prefix)."""
    return rng.choice(
        (f"ex:{local}", f"db:{local}", f"<http://example.org/db/{local}>", f"<{local}>")
    )


def literal(rng, text):
    return rng.choice((
        f'"{text}"',
        f"'{text}'",
        f'"""{text}"""',
        f"'''{text}'''",
        f'"{text}"@en',
        f'"{text}"^^xsd:string',
        f'"{text}"^^<http://www.w3.org/2001/XMLSchema#string>',
        f'"{text}\\u0021"',
        f'"{text}\\"q"',
        f'"""{text}\nline"""',
    ))


def number(rng, value):
    return rng.choice(
        (str(value), f'"{value}"', f'"{value}"^^xsd:integer', f"+{value}", f"{value}.0")
    )


def author(rng):
    """An author subject: mostly rows that may or may not exist, sometimes
    a term that names another table, no row, or nothing at all."""
    roll = rng.random()
    if roll < 0.8:
        return iri(rng, f"author{rng.choice((6, 40, 41, 42, 43))}")
    return rng.choice(
        ("_:b", '"author41"', "ex:team5", "ex:pub12", "ex:nowhere/x", "ex:authorX")
    )


def anything(rng):
    """A term of any kind where a literal is expected."""
    return rng.choice(
        (literal(rng, "Anna"), number(rng, 7), "true", "False", "TRUE", "ex:author6",
         "_:o", '"x"^^ xsd:string', '"x"^^#c:\n<http://example.org/t>')
    )


def mailbox(rng):
    return rng.choice((
        "<mailto:a@x.org>", "<mailto:b@x.org>", '"a@x.org"', "ex:author6",
        "<mailto:hert@ifi.uzh.ch>",
    ))


def team(rng):
    return rng.choice(
        ("ex:team5", "db:team5", "<team5>", "ex:team9", '"5"', "ex:team", "_:t")
    )


# -- shapes --------------------------------------------------------------------

def insert_author(rng):
    first = literal(rng, "Anna") if rng.random() < 0.8 else anything(rng)
    last = literal(rng, "Berg") if rng.random() < 0.8 else anything(rng)
    return (
        f"INSERT DATA {{ {author(rng)} foaf:firstName {first} ; "
        f"foaf:family_name {last} ; foaf:mbox {mailbox(rng)} ; "
        f"ont:team {team(rng)} . }}"
    )


def insert_last_name(rng):
    return f"INSERT DATA {{ {author(rng)} foaf:family_name {literal(rng, 'Berg')} . }}"


def delete_author(rng):
    return (
        f"DELETE DATA {{ {author(rng)} a foaf:Person ; "
        f"foaf:family_name {literal(rng, 'Berg')} . }}"
    )


def delete_mbox(rng):
    return f"DELETE DATA {{ {author(rng)} foaf:mbox {mailbox(rng)} . }}"


def delete_last_name(rng):
    """A NOT NULL attribute: only a complete delete may drop it."""
    return f"DELETE DATA {{ {author(rng)} foaf:family_name {literal(rng, 'Berg')} . }}"


def delete_type(rng):
    """The rdf:type triple alone: only a complete delete may drop it."""
    return f"DELETE DATA {{ {author(rng)} a foaf:Person . }}"


def two_subjects(rng):
    """Two subject slots, often the same entity in two spellings."""
    first, second = rng.choice(((40, 40), (40, 41), (6, 6), (42, 43)))
    return (
        f"INSERT DATA {{ {iri(rng, f'author{first}')} foaf:firstName "
        f"{literal(rng, 'Ann')} . {iri(rng, f'author{second}')} "
        f"foaf:family_name {literal(rng, 'Berg')} . }}"
    )


def full_publication(rng):
    """Listing 15: a publication, its author (often inserted by this very
    request) and the link between them."""
    pub = iri(rng, f"pub{rng.choice((12, 13))}")
    who = iri(rng, f"author{rng.choice((6, 44, 45))}")
    return (
        f"INSERT DATA {{ {pub} dc:title {literal(rng, 'Paper')} ; "
        f"ont:pubYear {number(rng, 2010)} ; ont:pubType {iri(rng, 'pubtype4')} ; "
        f"dc:publisher {iri(rng, 'publisher3')} ; dc:creator {who} . "
        f"{who} foaf:family_name {literal(rng, 'Berg')} ; ont:team {team(rng)} . }}"
    )


def delete_creator(rng):
    return (
        f"DELETE DATA {{ {iri(rng, f'pub{rng.choice((12, 13))}')} dc:creator "
        f"{iri(rng, f'author{rng.choice((6, 44, 45))}')} . }}"
    )


def lifted_class(rng):
    """``r:type`` is no spelling of the type verb the token pass knows, so
    the class is lifted: the template pins it to the class it was built
    with."""
    cls = rng.choice(
        ("foaf:Person", "<http://xmlns.com/foaf/0.1/Person>", "ont:Team", "ont:Publication")
    )
    return (
        f"INSERT DATA {{ {author(rng)} r:type {cls} ; "
        f"foaf:family_name {literal(rng, 'Berg')} . }}"
    )


def pub_or_pubtype(rng):
    """``pub12`` and ``pubtype4`` are both read by ``pub%%id%%``; only the
    longer pattern reads ``type4`` as a key of its table."""
    subject = rng.choice(("ex:pub12", "ex:pubtype4", "ex:pubtype7", "ex:pub14"))
    return f"INSERT DATA {{ {subject} ont:type {literal(rng, 'article')} . }}"


SHAPES = (
    insert_author, insert_last_name, delete_author, delete_mbox, delete_last_name,
    delete_type,
    two_subjects, full_publication, delete_creator, lifted_class, pub_or_pubtype,
)


def outcome(run):
    """What one request did, or the error it raised, comparably."""
    try:
        result = run()
    except ReproError as exc:
        return ("error", type(exc).__name__, getattr(exc, "code", None), str(exc),
                getattr(exc, "details", None))
    return ("ok", result.sql(), result.rows_affected())


@pytest.mark.parametrize("seed", range(6))
def test_a_kept_template_translates_as_the_block_written(seed):
    rng = random.Random(seed)
    kept, written = mediator(), mediator()
    seen = set()
    for _ in range(250):
        text = PROLOGUE + rng.choice(SHAPES)(rng)
        got = outcome(lambda: kept.update(text))
        want = outcome(lambda: written.update(parse_update(text)))
        assert got == want, text
        seen.add(got[0] if got[0] == "ok" else got[2])
        assert set(kept.dump()) == set(written.dump()), text
    # the sequences reach the rows, and the feedback of most checks
    assert "ok" in seen and len(seen) >= 10, seen


def test_a_slot_may_hold_a_literal_then_an_iri():
    kept, written = mediator(), mediator()
    for obj in ('"a@x.org"', "<mailto:a@x.org>", '"b@x.org"', "<mailto:b@x.org>"):
        for text in (
            f"INSERT DATA {{ ex:author41 foaf:family_name 'B' ; foaf:mbox {obj} . }}",
            f"DELETE DATA {{ ex:author41 foaf:mbox {obj} . }}",
        ):
            text = PROLOGUE + text
            assert outcome(lambda: kept.update(text)) == outcome(
                lambda: written.update(parse_update(text))
            ), text
    assert set(kept.dump()) == set(written.dump())


def test_client_placeholders_bind_as_the_terms_written_in():
    kept, written = mediator(), mediator()
    prepared = kept.session().prepare(
        PROLOGUE + "INSERT DATA { ?who foaf:family_name ?last ; ont:team ex:team5 . }"
    )
    for key, last in ((50, "Berg"), (51, "Lind"), (6, "Hert"), (6, "Other")):
        text = (
            PROLOGUE + f'INSERT DATA {{ ex:author{key} foaf:family_name "{last}" ; '
            "ont:team ex:team5 . }"
        )
        who = URIRef(f"http://example.org/db/author{key}")
        got = outcome(lambda: prepared.execute({"who": who, "last": last}))
        assert got == outcome(lambda: written.update(parse_update(text)))
    assert set(kept.dump()) == set(written.dump())


def test_an_unbound_placeholder_stops_the_request_before_it_runs():
    kept = mediator()
    prepared = kept.session().prepare(
        PROLOGUE + 'INSERT DATA { ex:author60 foaf:family_name "Berg" . } ; '
        "INSERT DATA { ?who foaf:family_name ?last . }"
    )
    got = outcome(lambda: prepared.execute({"last": "Lind"}))
    assert got[:3] == ("error", "TranslationError", TranslationError.UNSUPPORTED)
    assert got[3] == (
        "unbound placeholder(s) ?who in prepared data block; "
        "pass bindings={...} at execute time"
    )
    assert kept.db.get_row_by_pk("author", (60,)) is None


# -- the count -------------------------------------------------------------------

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def e2e_workloads():
    """The benchmark's request generator (``benchmarks/e2e/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", E2E / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def counts():
    return tuple(DATA_TEMPLATES.labels(o).value() for o in ("bound", "built", "rebuilt"))


def delta(before):
    return tuple(after - start for after, start in zip(counts(), before))


def test_the_oneshot_mix_builds_one_template_per_data_block_shape():
    workloads = e2e_workloads()
    spec = dataclasses.replace(
        workloads.WORKLOADS["inproc_oneshot_mixed"], authors=400, publications=800
    )
    dataset = workloads.build_dataset(spec, 1)
    db = build_database()
    populate_database(db, dataset)
    oa = OntoAccess(db, build_mapping(db))
    ops = workloads.Stream(spec, workloads.Model(dataset), 0, 1).next_chunk(spec.round_ops)
    blocks = [op for op in ops if op.template.startswith(("insert_", "delete_"))]
    assert {op.template for op in blocks} == {
        "insert_author", "insert_publication", "delete_author",
        "delete_author_nombox", "delete_mbox",
    }
    before = counts()
    modify_shapes, modify_bindings = set(), 0
    for op in ops:
        if op.is_update:
            result = oa.update(op.text)
            assert workloads.check_update(op, result.rows_affected())
            if op.template.startswith("modify_") and result.operations[0].bindings:
                modify_shapes.add(op.template)
                modify_bindings += result.operations[0].bindings
        else:
            oa.query(op.text)
    # A MODIFY shape binds its kept INSERT template too (its DELETE triple
    # is always dropped as redundant, Section 5.2, so never translated).
    assert modify_shapes
    assert delta(before) == (
        len(blocks) - 5 + modify_bindings - len(modify_shapes),
        5 + len(modify_shapes),
        0,
    )


def test_a_subject_of_another_table_rebuilds_and_answers_as_written():
    kept, written = mediator(), mediator()
    texts = [
        f'INSERT DATA {{ ex:{subject} r:type {cls} ; {prop} "x{n}" . }}'
        for n, (subject, cls, prop) in enumerate((
            ("pubtype7", "ont:PubType", "ont:type"),
            ("pubtype8", "ont:PubType", "ont:type"),
            ("pub12", "ont:Publication", "dc:title"),
            ("pubtype9", "ont:PubType", "ont:type"),
            ("pub13", "ont:Publication", "dc:title"),
        ))
    ]
    for text in texts:
        text = PROLOGUE + text
        assert outcome(lambda: kept.update(text)) == outcome(
            lambda: written.update(parse_update(text))
        ), text
    assert set(kept.dump()) == set(written.dump())
    # Shapes differ by predicate here, so pin the subject alternation to
    # one shape: one predicate, subjects of two tables.
    alternating = [
        PROLOGUE + f'INSERT DATA {{ ex:{subject} ont:type "t{n}" . }}'
        for n, subject in enumerate(("pubtype7", "pub12", "pubtype8", "pub13", "pubtype9"))
    ]
    before = counts()
    for text in alternating:
        assert outcome(lambda: kept.update(text)) == outcome(
            lambda: written.update(parse_update(text))
        ), text
    bound, built, rebuilt = delta(before)
    # ... plus one throwaway template per text parsed as written
    assert (built, rebuilt, bound) == (1 + len(alternating), 2, 2)
    assert set(kept.dump()) == set(written.dump())


def test_metrics_export_the_template_counter():
    endpoint = OntoAccessEndpoint(mediator())
    form = PROLOGUE + 'INSERT DATA { ex:author%d foaf:family_name "Berg" . }'
    for key in (70, 71):
        assert endpoint.handle("POST", "/update", {}, form % key).status == 200
    text = endpoint.handle("GET", "/metrics").body
    assert lint_exposition(text) == []
    for outcome_ in ("bound", "built", "rebuilt"):
        assert f'repro_data_templates_total{{outcome="{outcome_}"}}' in text


def overlapping_mediator():
    """Two tables whose patterns both read ``itemset5`` — ``item%%code%%``
    as the VARCHAR key ``set5`` — and one with a two-column key, all with
    one property, so one shape reaches all three.  The validator refuses
    such a mapping; translation still decides as ``identify_entity``
    does (the longer pattern wins)."""
    db = Database()
    db.execute_script(
        """
        CREATE TABLE item (code VARCHAR(20) PRIMARY KEY, label VARCHAR(50));
        CREATE TABLE itemset (id INTEGER PRIMARY KEY, label VARCHAR(50));
        CREATE TABLE pair (a INTEGER, b INTEGER, label VARCHAR(50), PRIMARY KEY (a, b));
        """
    )
    label = URIRef("http://example.org/vocab#label")
    mapping = generate_mapping(
        db,
        property_overrides={(t, "label"): label for t in ("item", "itemset", "pair")},
    )
    return OntoAccess(db, mapping, validate=False)


def test_a_longer_pattern_that_reads_the_subject_takes_it():
    kept, written = overlapping_mediator(), overlapping_mediator()
    form = (
        "PREFIX ex: <http://example.org/db/> PREFIX v: <http://example.org/vocab#> "
        'INSERT DATA {{ {} v:label "x{}" . }}'
    )
    subjects = (
        "item7", "itemset5", "item8", "pair1_2", "itemset6", "pair3_4", "item9",
        "<http://example.org/db/item1/2>", "<http://example.org/db/pair1_2_3>",
    )
    for n, subject in enumerate(subjects):
        text = form.format(subject if subject[0] == "<" else "ex:" + subject, n)
        assert outcome(lambda: kept.update(text)) == outcome(
            lambda: written.update(parse_update(text))
        ), text
    assert set(kept.dump()) == set(written.dump())
    assert kept.db.query("SELECT id FROM itemset ORDER BY id").rows == [(5,), (6,)]


def test_a_key_is_read_as_the_pattern_reads_it():
    """A pattern's value holds no ``/``, and its ``$`` matches before a
    final newline: a bound term read through the kept template gives the
    key the translation of the concrete block gives."""
    kept, written = overlapping_mediator(), overlapping_mediator()
    prepared = kept.session().prepare(
        'INSERT DATA { ?s <http://example.org/vocab#label> "x" . }'
    )
    for value in ("item1", "item2/3", "item4\n", "item", "item6/7\n", "item8\n"):
        subject = URIRef("http://example.org/db/" + value)
        block = InsertData((Triple(subject, URIRef("http://example.org/vocab#label"),
                                   Literal("x")),))
        assert outcome(lambda: prepared.execute({"s": subject})) == outcome(
            lambda: written.update(UpdateRequest((block,)))
        ), value
    assert set(kept.dump()) == set(written.dump())
