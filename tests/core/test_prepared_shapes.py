"""The binding oracle: a prepared template answers every binding exactly
as the substituted text does.

A prepared query (and a prepared MODIFY's WHERE) keeps one SPARQL→SQL
translation per *template* and binds it again for each execution; the
engine keeps one plan per statement *shape*.  What could go wrong is a
binding served by a translation made for another kind of binding — so
every shape below is executed with ≥ 30 seeded bindings that interleave
the kinds translation branches on (an author URI, a publication URI, an
unmapped URI, a number, a string for the same placeholder), and each
execution is compared with the one-shot text with the bindings
substituted — same rows, or the same exception type and ``code``.  The
one-shot side is itself the prepared path: the session reads a text as a
shape plus values and keeps the shape's parse and translation.  So it is
held to two references that share none of the kept state:

* the parser and the translator run directly on the text
  (``execute_query(mapping, db, parse_query(text))``);
* where that answered, the reference evaluation over the RDF dump
  (``force_fallback``).  (Where translation *raises*, the dump evaluation
  has no translation to fail and answers no rows.)

The request texts are those of ``benchmarks/e2e/workloads.TEMPLATES``
(copied: the benchmark is not imported) plus one shape per trap of
template translation.  The last test counts plans: it is the count of
distinct shapes — not a timing — that keeps the plan-cache hit ratio
from silently falling back to one plan per request.
"""

import random
import re

import pytest

from repro import OntoAccess
from repro.core.query import execute_query
from repro.errors import ReproError
from repro.rdf.terms import Literal, URIRef
from repro.sparql.parse_base import SPARQLParserBase
from repro.sparql.query_parser import QueryParser, parse_query
from repro.workloads.generator import (
    WorkloadConfig,
    generate_dataset,
    populate_database,
)
from repro.workloads.operations import PREFIXES
from repro.workloads.publication import URI_PREFIX, build_database, build_mapping

AUTHORS, PUBLICATIONS, TEAMS, PUBLISHERS, PUBTYPES = 50, 100, 5, 4, 4
BINDINGS_PER_SHAPE = 36


def dataset(authors: int = AUTHORS):
    return generate_dataset(
        WorkloadConfig(
            authors=authors, publications=PUBLICATIONS, teams=TEAMS,
            publishers=PUBLISHERS, pubtypes=PUBTYPES, seed=7,
        )
    )


DATASET = dataset()


def make_mediator(authors: int = AUTHORS, **options) -> OntoAccess:
    db = build_database()
    populate_database(db, DATASET if authors == AUTHORS else dataset(authors))
    return OntoAccess(db, build_mapping(db), **options)


def uri(local: str) -> URIRef:
    return URIRef(URI_PREFIX + local)


# ---------------------------------------------------------------------------
# binding generators: placeholder -> callable(rng) -> value
# ---------------------------------------------------------------------------

def author(rng):
    return uri(f"author{rng.randint(1, AUTHORS + 5)}")  # some do not exist


def publication(rng):
    return uri(f"pub{rng.randint(1, PUBLICATIONS + 5)}")


def team(rng):
    return uri(f"team{rng.randint(1, TEAMS)}")


def publisher(rng):
    return uri(f"publisher{rng.randint(1, PUBLISHERS)}")


def pubtype(rng):
    return uri(f"pubtype{rng.randint(1, PUBTYPES)}")


def unmapped(rng):
    return URIRef(f"http://elsewhere.example/thing{rng.randint(1, 9)}")


def year(rng):
    return rng.randint(1995, 2012)


def numeric_string(rng):
    return Literal(str(rng.randint(1995, 2012)))


def word(rng):
    return rng.choice(["abc", "", "2005-01-01", lastname(rng), lastname(rng)])


def lastname(rng):
    return rng.choice(DATASET.authors)["lastname"]


def title(rng):
    return rng.choice(DATASET.publications)["title"]


def named_author(rng):
    """first and last name of one author; sometimes of two."""
    row = rng.choice(DATASET.authors)
    last = row["lastname"] if rng.random() < 0.7 else rng.choice([lastname(rng), 7])
    return {"first": row["firstname"], "last": last}


def typed_decimal(rng):
    return Literal(
        f"{rng.randint(1995, 2012)}.5",
        datatype="http://www.w3.org/2001/XMLSchema#decimal",
    )


def one_of(*generators):
    return lambda rng: rng.choice(generators)(rng)


SUBJECT = one_of(author, author, publication, unmapped, year, word, pubtype)
BOUND = one_of(year, year, numeric_string, word, typed_decimal)

#: name -> (template, {placeholder: generator})
QUERY_SHAPES = {
    # -- the benchmark's query templates ----------------------------------
    "point_author": (
        "SELECT ?f ?l ?m WHERE { ?subj foaf:firstName ?f ; foaf:family_name ?l ."
        " OPTIONAL { ?subj foaf:mbox ?m } }",
        {"subj": SUBJECT},
    ),
    "point_publication": (
        "SELECT ?t ?y WHERE { ?subj dc:title ?t ; ont:pubYear ?y }",
        {"subj": SUBJECT},
    ),
    "scan_team": (
        "SELECT ?a ?l ?n WHERE { ?a ont:team ?team ; foaf:family_name ?l ."
        " ?team foaf:name ?n }",
        {"team": one_of(team, team, team, author, unmapped, word)},
    ),
    "scan_years": (
        "SELECT ?p ?t ?y WHERE { ?p dc:publisher ?pub ; ont:pubYear ?y ;"
        " dc:title ?t . FILTER(?y >= ?lo && ?y <= ?hi) }",
        {"pub": one_of(publisher, publisher, publisher, team), "lo": BOUND, "hi": BOUND},
    ),
    "scan_top10": (
        "SELECT ?p ?t ?y WHERE { ?p dc:publisher ?pub ; ont:pubType ?type ;"
        " dc:title ?t ; ont:pubYear ?y } ORDER BY DESC(?y) ?t LIMIT 10",
        {"pub": publisher, "type": one_of(pubtype, pubtype, pubtype, publisher)},
    ),
    # -- the WHERE patterns of the benchmark's MODIFY templates -------------
    "where_by_name": (
        "SELECT ?x ?old WHERE { ?x rdf:type foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; foaf:mbox ?old . }",
        {"first, last": named_author},
    ),
    "where_by_uri": (
        "SELECT ?old WHERE { ?subj foaf:mbox ?old . }",
        {"subj": SUBJECT},
    ),
    # -- one shape per trap --------------------------------------------------
    "filter_pushed_down_string": (
        "SELECT ?a WHERE { ?a foaf:family_name ?l . FILTER(?l >= ?name) }",
        {"name": one_of(word, word, year, numeric_string)},
    ),
    "filter_in_python": (
        "SELECT ?p ?y WHERE { ?p ont:pubYear ?y ; dc:publisher ?pub ."
        " FILTER(?y + 0 >= ?lo) FILTER(REGEX(STR(?p), ?re)) }",
        {
            "pub": publisher,
            "lo": BOUND,
            "re": lambda rng: rng.choice(["pub1", "pub[2-4]", "5$", "."]),
        },
    ),
    "filter_mixed_conjunction": (
        "SELECT ?p WHERE { ?p ont:pubYear ?y ; dc:title ?t ."
        " FILTER(?y >= ?lo && REGEX(?t, ?re)) }",
        {"lo": BOUND, "re": lambda rng: rng.choice(["1", "Web", "Graphs", "xyz"])},
    ),
    "inside_optional": (
        "SELECT ?p ?t WHERE { ?p dc:title ?t ; dc:publisher ?pub ."
        " OPTIONAL { ?p dc:creator ?who } }",
        {"pub": publisher, "who": one_of(author, author, publication, unmapped)},
    ),
    "link_property_object": (
        "SELECT ?p ?t WHERE { ?p dc:creator ?who ; dc:title ?t }",
        {"who": one_of(author, author, author, publication, unmapped, word)},
    ),
    "twice_in_one_pattern": (
        "SELECT ?p WHERE { ?p ont:pubYear ?y ; dc:publisher ?pub ."
        " ?other dc:publisher ?pub ; dc:title ?t ."
        " FILTER(?y >= ?v && ?y <= ?v) FILTER(?t = ?title) }",
        {
            "pub": publisher,
            "v": BOUND,
            "title": title,
        },
    ),
    "projected": (
        "SELECT ?subj ?f WHERE { ?subj foaf:firstName ?f }",
        {"subj": SUBJECT},
    ),
    "predicate": (
        "SELECT ?s ?o WHERE { ?s ?prop ?o . ?s dc:publisher ?pub }",
        {
            "pub": publisher,
            "prop": lambda rng: rng.choice([
                URIRef("http://purl.org/dc/elements/1.1/title"),
                URIRef("http://example.org/ontology#pubYear"),
                URIRef("http://xmlns.com/foaf/0.1/firstName"),
                URIRef("http://elsewhere.example/unmapped"),
            ]),
        },
    ),
    "class": (
        "SELECT ?s WHERE { ?s a ?cls ; ont:team ?team }",
        {
            "team": team,
            "cls": lambda rng: rng.choice([
                URIRef("http://xmlns.com/foaf/0.1/Person"),
                URIRef("http://xmlns.com/foaf/0.1/Document"),
                URIRef("http://elsewhere.example/Unmapped"),
            ]),
        },
    ),
    # an object no row of the referenced table can hold answers no rows
    "object_of_another_table": (
        "SELECT ?a ?l WHERE { ?a ont:team ?team ; foaf:family_name ?l }",
        {"team": one_of(team, team, publication, publisher, author, unmapped, word)},
    ),
}

_PLACEHOLDER = re.compile(r"\?(\w+)")


def draw(generators, rng):
    """One binding set; a generator keyed ``"a, b"`` returns both."""
    bindings = {}
    for names, make in generators.items():
        value = make(rng)
        bindings.update(value if "," in names else {names: value})
    return bindings


def substituted(template: str, bindings) -> str:
    """The request as text: placeholders dropped from the projection and
    replaced by their terms in the pattern."""
    terms = {
        name: (value if hasattr(value, "n3") else Literal(value)).n3()
        for name, value in bindings.items()
    }
    head, brace, rest = template.partition("{")
    head = _PLACEHOLDER.sub(
        lambda m: "" if m.group(1) in terms else m.group(0), head
    )
    rest = _PLACEHOLDER.sub(lambda m: terms.get(m.group(1), m.group(0)), rest)
    return PREFIXES + head + brace + rest


def observed(run, placeholders=()):
    """What ``run()`` answers: its solutions without the placeholders
    (the text has no such variables), or the error it raises."""
    try:
        result = run()
    except ReproError as exc:
        return ("error", type(exc).__name__, getattr(exc, "code", None))
    return (
        "rows",
        [
            sorted(
                (var.name, term.n3())
                for var, term in solution.items()
                if var.name not in placeholders
            )
            for solution in result.solutions
        ],
    )


def same_answer(left, right, ordered: bool) -> bool:
    if left[0] == "error" or right[0] == "error" or ordered:
        return left == right
    return sorted(left[1]) == sorted(right[1])


@pytest.fixture(scope="module")
def mediator():
    return make_mediator()


@pytest.fixture
def shape_parses(monkeypatch):
    """Counts the parses of a text's shape (its constants lifted)."""
    count = [0]
    real = QueryParser.query

    def counted(parser):
        count[0] += parser.lifted is not None
        return real(parser)

    monkeypatch.setattr(QueryParser, "query", counted)
    return count


@pytest.mark.parametrize("shape", list(QUERY_SHAPES))
def test_prepared_equals_oneshot_equals_reference(mediator, shape, shape_parses):
    template, generators = QUERY_SHAPES[shape]
    ordered = "LIMIT" in template
    prepared = mediator.session().prepare(PREFIXES + template)
    rng = random.Random(f"shapes:{shape}")
    answered = translated = 0
    keys = set()
    for _ in range(BINDINGS_PER_SHAPE):
        bindings = draw(generators, rng)
        text = substituted(template, bindings)
        keys.add(SPARQLParserBase(text).lift().key)
        outcome = []
        got = observed(
            lambda: outcome.append(prepared.outcome(bindings)) or outcome[0].result,
            placeholders=bindings,
        )
        oneshot = observed(lambda: mediator.query(text))
        assert same_answer(got, oneshot, ordered), (bindings, got[:2], oneshot[:2])
        direct = observed(
            lambda: execute_query(
                mediator.mapping, mediator.db, parse_query(text)
            ).result
        )
        assert same_answer(oneshot, direct, ordered), (bindings, text)
        if oneshot[0] == "rows":
            reference = observed(
                lambda: execute_query(
                    mediator.mapping, mediator.db, text, force_fallback=True
                ).result
            )
            assert same_answer(oneshot, reference, ordered), (bindings, text)
            answered += bool(oneshot[1])
            translated += outcome[0].used_sql
            # every solution starts from the bindings
            for solution in outcome[0].result.solutions:
                for var in outcome[0].result.variables:
                    if var.name in bindings:
                        value = bindings[var.name]
                        expected = value if hasattr(value, "n3") else Literal(value)
                        assert solution[var] == expected
    # the shape is exercised: some bindings select rows, some run as SQL
    assert answered >= 3 and translated >= 3, (answered, translated)
    # ... and the one-shot texts ran as kept shapes: a parse per key (a
    # constant in a key position — a predicate, a class — is one), and
    # one for the template
    assert shape_parses[0] <= len(keys) + 1 and len(keys) < BINDINGS_PER_SHAPE // 2


def test_an_object_of_another_table_answers_no_rows(mediator):
    """An object no row of the referenced table can hold — an instance
    of another table, an unmapped IRI, a literal — is in no row: the
    translated SELECT answers what the dump evaluation answers, nothing,
    on the prepared and on the one-shot surface, without falling back to
    the dump; a MODIFY with such a WHERE changes nothing."""
    template = "SELECT ?a WHERE { ?a ont:team ?team }"
    prepared = mediator.session().prepare(PREFIXES + template)
    for team_of in (
        uri("pub5"), uri("publisher2"), uri("author3"),
        URIRef("http://elsewhere.example/x"), Literal("five"), uri("team1"),
    ):
        text = substituted(template, {"team": team_of})
        reference = execute_query(
            mediator.mapping, mediator.db, text, force_fallback=True
        ).result
        assert len(reference) > 0 if team_of == uri("team1") else not reference
        for outcome in (prepared.outcome({"team": team_of}), mediator.query_outcome(text)):
            assert outcome.used_sql, team_of
            assert len(outcome.result) == len(reference), team_of
    result = mediator.update(PREFIXES + (
        "MODIFY DELETE { ?a foaf:mbox ?m } INSERT { ?a foaf:mbox <mailto:x@example.org> }"
        " WHERE { ?a ont:team ex:pub5 ; foaf:mbox ?m }"
    ))
    assert result.rows_affected() == 0 and result.operations[0].used_sql_select


# ---------------------------------------------------------------------------
# update templates (texts of the benchmark's TEMPLATES)
# ---------------------------------------------------------------------------

UPDATE_TEMPLATES = {
    "insert_author": (
        "INSERT DATA { ?subj foaf:firstName ?first ; foaf:family_name ?last ;"
        " foaf:mbox ?mbox ; ont:team ?team . }"
    ),
    "delete_author": (
        "DELETE DATA { ?subj a foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; foaf:mbox ?mbox ; ont:team ?team . }"
    ),
    "delete_author_nombox": (
        "DELETE DATA { ?subj a foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; ont:team ?team . }"
    ),
    "delete_mbox": "DELETE DATA { ?subj foaf:mbox ?mbox . }",
    "modify_by_name": (
        "MODIFY DELETE { ?x foaf:mbox ?old . } INSERT { ?x foaf:mbox ?new . }"
        " WHERE { ?x rdf:type foaf:Person ; foaf:firstName ?first ;"
        " foaf:family_name ?last ; foaf:mbox ?old . }"
    ),
    "modify_by_uri": (
        "MODIFY DELETE { ?subj foaf:mbox ?old . }"
        " INSERT { ?subj foaf:mbox ?new . } WHERE { ?subj foaf:mbox ?old . }"
    ),
}


def update_requests(count: int):
    """(template, bindings) pairs: the life of ``count`` fresh authors —
    inserted, re-addressed by URI and by name, deleted in one of two ways —
    with requests that must fail, or change nothing, in between."""
    rng = random.Random("shapes:updates")
    for i in range(count):
        key = 1000 + i
        subj = uri(f"author{key}")
        first, last = f"Fresh{key}", f"Author{key}"
        team_uri = uri(f"team{1 + i % TEAMS}")
        mail = [URIRef(f"mailto:a{key}.{n}@example.org") for n in range(3)]
        person = {"subj": subj, "first": first, "last": last, "team": team_uri}
        yield "insert_author", {**person, "mbox": mail[0]}
        yield "modify_by_uri", {"subj": subj, "old": mail[0], "new": mail[1]}
        yield "modify_by_name", {"first": first, "last": last, "new": mail[2]}
        wrong = rng.choice([
            {"subj": subj, "mbox": mail[0]},  # no longer holds
            {"subj": uri(f"pub{key}"), "mbox": mail[2]},  # another table
            {"subj": URIRef("http://elsewhere.example/x"), "mbox": mail[2]},
            {"subj": key, "mbox": mail[2]},  # a literal subject
            {"subj": subj, "mbox": Literal("not a mailbox", language="en")},
        ])
        yield "delete_mbox", wrong
        # binds nothing / another kind of subject: no change
        yield "modify_by_uri", {
            "subj": rng.choice([subj, uri(f"pub{1 + i}"), key]),
            "old": mail[0],
            "new": mail[1],
        }
        yield "modify_by_name", {"first": first, "last": key, "new": mail[0]}
        if i % 2:
            yield "delete_mbox", {"subj": subj, "mbox": mail[2]}
            yield "delete_author", {**person, "mbox": mail[2]}  # mbox is gone
            yield "delete_author_nombox", person
        else:
            yield "delete_author_nombox", person  # mbox remains: partial
            yield "delete_author", {**person, "mbox": mail[2]}
        yield "insert_author", {**person, "subj": uri(f"team{key}"), "mbox": mail[0]}


def applied(run):
    try:
        result = run()
    except ReproError as exc:
        return ("error", type(exc).__name__, getattr(exc, "code", None))
    return ("ok", result.sql(), result.rows_affected())


def test_prepared_updates_equal_oneshot_texts():
    """Three systems, one request stream: prepared templates, the
    substituted texts, and the texts with MODIFY's WHERE evaluated over
    the dump.  Same SQL lines, same row counts, same errors, same dumps."""
    prepared_side, text_side = make_mediator(), make_mediator()
    reference_side = make_mediator(force_query_fallback=True)
    session = prepared_side.session()
    prepared = {
        name: session.prepare(PREFIXES + text)
        for name, text in UPDATE_TEMPLATES.items()
    }
    counts = dict.fromkeys(UPDATE_TEMPLATES, 0)
    outcomes = set()
    for name, bindings in update_requests(32):
        text = substituted(UPDATE_TEMPLATES[name], bindings)
        got = applied(lambda: prepared[name].execute(bindings))
        assert got == applied(lambda: text_side.update(text)), (name, bindings)
        assert got == applied(lambda: reference_side.update(text)), (name, bindings)
        counts[name] += 1
        outcomes.add((name, got[0] == "ok" and got[2] > 0))
    assert min(counts.values()) >= 30, counts
    for name in counts:  # every template changed rows, and was refused
        assert {(name, True), (name, False)} <= outcomes, name
    assert prepared_side.dump() == text_side.dump() == reference_side.dump()


# ---------------------------------------------------------------------------
# the plan-shape gate
# ---------------------------------------------------------------------------

def test_one_plan_per_statement_shape():
    """300 requests with distinct keys, over the prepared and the one-shot
    surface, build exactly one plan per distinct statement shape.

    This count — not a timing — is what keeps the plan-cache hit ratio
    from silently falling back to one plan per request (0.17 on the
    prepared workload before statements were shapes): a translator that
    bakes a key into the SQL again turns 11 misses into hundreds.  One
    thread, so the count repeats exactly.
    """
    mediator = make_mediator(authors=200)
    session = mediator.session()
    planner = mediator.db.planner
    prepared = {
        name: session.prepare(PREFIXES + text)
        for name, text in {
            **UPDATE_TEMPLATES,
            **{n: QUERY_SHAPES[n][0] for n in (
                "point_author", "point_publication", "scan_team",
                "scan_years", "scan_top10",
            )},
        }.items()
    }
    templates = {**UPDATE_TEMPLATES, **{n: t for n, (t, _) in QUERY_SHAPES.items()}}

    def life_of(key, i):
        """The requests that create, change and remove author ``key``."""
        person = {
            "subj": uri(f"author{key}"), "first": f"F{key}", "last": f"L{key}",
            "team": uri(f"team{1 + i % TEAMS}"),
        }
        old, new = (URIRef(f"mailto:{n}{key}@example.org") for n in "ab")
        return [
            ("insert_author", {**person, "mbox": old}),
            ("modify_by_uri", {"subj": person["subj"], "old": old, "new": new}),
            ("modify_by_name", {"first": f"F{key}", "last": f"L{key}", "new": old}),
            ("delete_mbox", {"subj": person["subj"], "mbox": old}),
            ("delete_author_nombox", person),
        ]

    started = dict(planner.stats)
    entries = planner.cache_entries()  # the loader's INSERT shapes
    requests = 0
    for i in range(15):
        queries = [
            ("point_author", {"subj": uri(f"author{1 + i}")}),
            ("point_publication", {"subj": uri(f"pub{1 + i}")}),
            ("scan_team", {"team": uri(f"team{1 + i % TEAMS}")}),
            ("scan_years", {"pub": uri(f"publisher{1 + i % PUBLISHERS}"),
                            "lo": 1995 + i, "hi": 2000 + i}),
            ("scan_top10", {"pub": uri(f"publisher{1 + i % PUBLISHERS}"),
                            "type": uri(f"pubtype{1 + i % PUBTYPES}")}),
        ]
        # each surface works on its own fresh author
        for (name, bindings), (_, twin) in zip(
            life_of(2000 + i, i), life_of(2500 + i, i)
        ):
            assert prepared[name].execute(bindings).rows_affected() > 0
            text = substituted(templates[name], twin)
            assert mediator.update(text).rows_affected() > 0
            requests += 2
        for name, bindings in queries:
            text = substituted(templates[name], bindings)
            assert len(prepared[name].execute(bindings)) == len(mediator.query(text))
            requests += 2
    assert requests == 300
    # Prepared and one-shot requests of one template are one shape.
    shapes = [
        "INSERT INTO author (...) VALUES (?, ...)",  # insert_author
        "SELECT ... : WHERE of modify_by_uri",
        "SELECT ... : WHERE of modify_by_name",
        "SELECT ... : point_author",
        "SELECT ... : point_publication",
        "SELECT ... : scan_team",
        "SELECT ... : scan_years",
        "SELECT ... : scan_top10",
        "UPDATE author SET email = ? WHERE id = ?",  # both MODIFYs
        "UPDATE author SET email = NULL WHERE id = ? AND email = ?",  # delete_mbox
        "DELETE FROM author WHERE id = ?",  # delete_author_nombox
    ]
    assert planner.stats["misses"] - started["misses"] == len(shapes)
    assert planner.stats["hits"] - started["hits"] >= requests - 2 * 15 - len(shapes)
    assert planner.cache_entries() - entries == len(shapes)
