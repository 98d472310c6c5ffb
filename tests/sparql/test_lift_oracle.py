"""The lift, pinned: every text of the lift's corpus reads as it was pinned.

``lift_oracle.json.gz`` holds, for each text of :func:`corpus`, the
:class:`~repro.sparql.parse_base.Lifted` (key, spans, slots, kinds) or the
``None`` that the lift returned when the fixture was written.  The
fixture was written by the per-token scanner loop that the current pass
replaced (commit 4adaed1), so the two read every text alike: the same
key, the same lifted spans, the same slot sharing, the same kinds, the
same refusals.

The corpus is every text of ``test_lift.py``, ``test_oneshot_shapes.py``
and ``test_shared_grammar.py`` (its ``TERMS``, ``MALFORMED`` and
``PROLOGUE`` in each statement form), what each builder of
:mod:`repro.workloads.operations` writes, texts of the benchmark's
request templates, pairs of texts that share a head (what the lift reads
once per session, :meth:`~repro.sparql.parse_base.SPARQLParserBase.lift`),
and a seeded token soup that reaches the lift's odd corners (unbalanced
braces and parentheses, keywords in term position, strings where no term
is read, comments, Unicode case folds).

Regenerate (only on purpose, with the lift the fixture is to pin)::

    PYTHONPATH=src python tests/sparql/test_lift_oracle.py --write
"""

import dataclasses
import gzip
import importlib.util
import json
import pathlib
import random
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(ROOT))

from repro.sparql.parse_base import Lifted, SPARQLParserBase  # noqa: E402
from repro.workloads import operations  # noqa: E402
from repro.workloads.generator import WorkloadConfig, generate_dataset  # noqa: E402
from tests.sparql import test_lift  # noqa: E402
from tests.sparql.test_shared_grammar import MALFORMED, PROLOGUE, TERMS  # noqa: E402

FIXTURE = pathlib.Path(__file__).with_name("lift_oracle.json.gz")
PREFIXES = operations.PREFIXES


def _lift_corpus():
    spellings = [s for s, _ in TERMS] + MALFORMED + test_lift.PRIMERS
    for form in test_lift.UPDATES + test_lift.QUERIES:
        for spelling in spellings:
            for terminator in (" .", "."):
                yield test_lift.fill(form, spelling, terminator)
    query = test_lift.QUERY
    yield query
    yield PROLOGUE + "# a request\nSELECT  ?o\nWHERE {\n\tex:t   ex:p ?o # note\n}\n"
    yield query + "# 0.17\n"
    yield query.replace("ex:p", "ex:q")
    yield query.replace("?o }", "?o . ?o a ex:C }")
    yield query.replace("?o }", "?o . ?o a ex:D }")
    yield query.replace("?o WHERE", "?x WHERE")
    yield query + " LIMIT 10"
    yield query + " LIMIT 11"
    yield query.replace("?o }", "?o FILTER(?o <= 5) }")
    yield query.replace("?o }", "?o FILTER(?o < = 5) }")
    yield query.replace("SELECT", "ASK").replace("?o WHERE", "WHERE")
    yield query.replace("PREFIX a:", "PREFIX b:")
    same = PROLOGUE + "SELECT * WHERE { ex:s ex:p ?x . OPTIONAL { ex:s ex:q ?y } }"
    yield same
    yield same.replace("OPTIONAL { ex:s", "OPTIONAL { ex:t")
    yield PROLOGUE + 'SELECT ?s WHERE { ?s a ex:C ; ex:p "v" FILTER(?s != ex:o) } LIMIT 3'
    for n in (1, 2):
        yield PROLOGUE + "ASK { ?s ex:p ?y FILTER(?y -%d > 3) }" % n
    yield PROLOGUE + 'INSERT DATA { ex:s ex:p "x" . }'
    yield PROLOGUE + "INSERT DATA { ex:s ex:p ?x . }"


def _shared_grammar_corpus():
    for spelling in [s for s, _ in TERMS] + MALFORMED:
        for terminator in (" .", "."):
            statement = "ex:s ex:p " + spelling + terminator
            yield PROLOGUE + "INSERT DATA { %s }" % statement
            yield PROLOGUE + "SELECT * WHERE { %s }" % statement
    for statement in ("ex:s a ex:C .", "ex:s a:p a:o .", "ex:s ex:p a ."):
        yield PROLOGUE + "INSERT DATA { %s }" % statement
        yield PROLOGUE + "SELECT * WHERE { %s }" % statement
    statement = 'ex:s ex:p "one", "two" ; a ex:C ; ex:q _:b1, <#x> ;'
    yield PROLOGUE + "DELETE DATA { %s }" % statement
    yield PROLOGUE + "ASK { %s }" % statement


def _oneshot_corpus():
    yield PREFIXES + 'SELECT * WHERE { ?a foaf:family_name "Hert" ; foaf:firstName ?f }'
    yield PREFIXES + (
        'SELECT * WHERE { { ?a foaf:family_name "Hert" } UNION '
        '{ ?a foaf:family_name "Reif" } }'
    )
    yield PREFIXES + (
        'CONSTRUCT { ?a ex:said "hello" ; ex:knows ex:author6 } '
        'WHERE { ?a foaf:family_name "Hert" }'
    )
    for key in (100, 107):
        yield PREFIXES + "SELECT ?l WHERE { ex:author%d foaf:family_name ?l }" % key
    for limit in (1, 130):
        yield PREFIXES + (
            "SELECT ?l WHERE { ex:author100 foaf:family_name ?l } LIMIT %d" % limit
        )
    yield "SELECT ?l WHERE { x:author100 <http://xmlns.com/foaf/0.1/family_name> ?l }"


def _benchmark_corpus():
    """Two texts of each of the benchmark's request templates, from its
    seed-1 one-shot stream (``benchmarks/e2e/workloads.py``)."""
    path = ROOT / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("lift_oracle_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    mix = dataclasses.replace(
        workloads.WORKLOADS["inproc_oneshot_mixed"], authors=400, publications=800
    )
    stream = workloads.Stream(mix, workloads.Model(workloads.build_dataset(mix, 1)), 0, 1)
    taken = {}
    for op in stream.next_chunk(600):
        if taken.setdefault(op.template, 0) < 2:
            taken[op.template] += 1
            yield op.text


def _operations_corpus():
    dataset = generate_dataset(WorkloadConfig(authors=6, publications=6, seed=3))
    yield operations.insert_team_op(7)
    yield operations.insert_team_op(8, name="Database Technology", code="DBT")
    yield operations.insert_author_op(20)
    yield operations.insert_author_op(21, team_id=2)
    yield operations.insert_author_op(22, lastname="Hert", with_email=False)
    yield operations.insert_full_publication_op(30, 31, 32, 33, 34)
    yield operations.delete_email_op(1, "author1@example.org")
    for author in dataset.authors[:3]:
        yield operations.delete_author_op(dataset, author["id"])
    yield operations.modify_email_op("Matthias", "Hert", "hert@example.org")
    yield from operations.mixed_workload(dataset, 12, seed=5)


#: pieces of the token soup: terms, keywords, punctuation and the odd ones
_SOUP = (
    "ex:s ex:p ex:o ex: :x _:b _:b.1 _: a:b a rdf:type <http://www.w3.org/1999/02/"
    "22-rdf-syntax-ns#type> <http://x.org/y> <#me> <> ?v $w ?0 [ ] [] ( ) { } . ; , * "
    "= <= >= != && || < > ! + - 5 -5 +5 5. .5 1e3 -.5 true FALSE True a "
    "FILTER filter OPTIONAL UNION union SELECT ASK WHERE INSERT DELETE DATA MODIFY "
    "LIMIT ORDER BY DESC regex bound PREFIX BASE fıLTER BAſE ﬁLTER Kelvin"
).split() + [
    '"str"', "'s'", '"""long\n"quoted"""', "'''l'''", '"x"@en', '"5"^^xsd:int',
    '"5"^^<http://x/dt>', '"v"^^ ex:dt', '"unterminated', "'it's", '"\\"', '""',
    "#c\n", "# {\n", "\n", "\t", "  ", "PREFIX p: <http://p/>", "BASE <http://b/>",
    "BASE<http://b/>", "PREFIX:x", "ex:a\\.b", "<has space>", "٣", " ", "@fr",
]


def _soup_corpus(count=160, seed=11):
    rng = random.Random(seed)
    separators = ["", " ", " ", " ", "\n"]
    for _ in range(count):
        pieces = [PROLOGUE] if rng.random() < 0.5 else []
        for _ in range(rng.randint(1, 24)):
            pieces.append(rng.choice(_SOUP))
            pieces.append(rng.choice(separators))
        yield "".join(pieces)
    # the soup inside a group, so that its tokens meet the lift's states
    for _ in range(count):
        body = []
        for _ in range(rng.randint(1, 16)):
            body.append(rng.choice(_SOUP))
            body.append(rng.choice(separators))
        head = rng.choice(["SELECT * WHERE { ", "INSERT DATA { ", "ASK { ?s ?p ?o . "])
        yield PROLOGUE + head + "".join(body) + rng.choice([" }", "}", ""])


def _head_corpus():
    """Texts that share a head (everything up to the first ``{``), the
    first of each pair before the second: a quote or a comment in the
    head reads otherwise when what follows the ``{`` differs."""
    for quote in "\"'":
        yield PROLOGUE + f"SELECT {quote} WHERE {{\n?s ex:p ?o }}"
        yield PROLOGUE + f"SELECT {quote} WHERE {{ ?s ex:p {quote}x{quote} }}"
    yield PROLOGUE + "# {\nSELECT * WHERE { ex:s ex:p 1 }"
    yield PROLOGUE + "# {\nSELECT * WHERE { ex:s ex:p 2 }"
    yield PROLOGUE + "SELECT * # {\nWHERE { ex:s ex:p 1 }"
    yield PROLOGUE + "SELECT * # { ex:s ex:p 1 }\nWHERE { ex:s ex:p 1 }"


def corpus():
    """The texts the fixture pins, in a fixed order, each once."""
    seen = {}
    for part in (
        _lift_corpus(),
        _shared_grammar_corpus(),
        _oneshot_corpus(),
        _benchmark_corpus(),
        _operations_corpus(),
        _head_corpus(),
        _soup_corpus(),
    ):
        for text in part:
            seen.setdefault(text, None)
    return list(seen)


def _record(lifted):
    if lifted is None:
        return None
    return [lifted.key, [list(s) for s in lifted.spans],
            [list(s) for s in lifted.slots], list(lifted.kinds)]


def _lifted(record):
    if record is None:
        return None
    key, spans, slots, kinds = record
    return Lifted(
        key, tuple(map(tuple, spans)), tuple(map(tuple, slots)), tuple(kinds)
    )


def write():
    entries = [
        {"text": text, "lifted": _record(SPARQLParserBase(text).lift())}
        for text in corpus()
    ]
    lines = "[\n" + ",\n".join(json.dumps(e, ensure_ascii=True) for e in entries)
    # mtime 0: the same corpus and lift write the same bytes
    FIXTURE.write_bytes(gzip.compress((lines + "\n]\n").encode("ascii"), mtime=0))
    return len(entries)


ENTRIES = json.loads(gzip.decompress(FIXTURE.read_bytes())) if FIXTURE.exists() else []


def test_the_fixture_pins_the_whole_corpus():
    assert [entry["text"] for entry in ENTRIES] == corpus()


def test_the_fixture_covers_the_lifts_outcomes():
    """Refusals, shared slots and every kind of lifted token are pinned."""
    lifted = [_lifted(e["lifted"]) for e in ENTRIES]
    assert any(item is None for item in lifted)
    assert any(item and len(item.spans) > len(item.slots) for item in lifted)
    kinds = {kind for item in lifted if item for kind in item.kinds}
    assert kinds == {"iri", "pname", "string", "number", "word"}


@pytest.mark.parametrize("heads", [False, True], ids=["cold", "warm"])
def test_every_text_lifts_as_pinned(heads):
    """Cold: each text read on its own.  Warm: through one session-like
    map of heads, so texts also run after others taught it their head."""
    kept = {} if heads else None
    wrong = []
    for entry in ENTRIES:
        text = entry["text"]
        for _ in range(2 if heads else 1):
            got = SPARQLParserBase(text).lift(kept)
            if got != _lifted(entry["lifted"]):
                wrong.append(text)
    assert wrong == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_lift_oracle.py --write")
    print(f"{write()} texts pinned in {FIXTURE}")
