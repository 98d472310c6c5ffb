"""The lift: a request text read as a shape plus values.

``SPARQLParserBase.lift`` reads a text's tokens once and lifts the
constants in term positions into a value vector; the session keeps the
parsed shape per key (``tests/core/test_oneshot_shapes.py``).  What must
hold, and is held here:

* a lifted constant is the parser's term — every spelling of the grammar
  oracle (``test_shared_grammar.py``), in subject, object and FILTER
  position, whether the shape is parsed for this text or was kept from
  another one;
* a malformed one is the parser's own typed error, at the same line and
  column;
* the key keeps what shapes the parse (predicates, classes, variables,
  LIMIT, operators, which constants are equal) and drops what does not
  (whitespace, comments);
* where the token pass and the parser disagree about a constant, the
  text is parsed as written — never served another text's constant.
"""

import dataclasses

import pytest

from repro.baselines.triplestore import NativeTripleStore
from repro.core.backend import TripleStoreBackend
from repro.core.session import Session
from repro.errors import SPARQLParseError
from repro.rdf import Graph, Literal, Triple, URIRef
from repro.rdf.terms import Placeholder, Term, Variable
from repro.sparql.parse_base import SPARQLParserBase
from repro.sparql.query_parser import parse_query
from repro.sparql.update_parser import parse_update
from tests.sparql.test_shared_grammar import MALFORMED, PROLOGUE, TERMS

EX = "http://example.org/db/"


def new_session(graph=None):
    return Session(TripleStoreBackend(NativeTripleStore(graph)))


def key(text):
    return SPARQLParserBase(text).lift().key


def resolved(node, values):
    """``node`` with the placeholders of ``values`` replaced by their terms."""
    if isinstance(node, Variable):
        return values.get(node, node)
    if isinstance(node, Triple):
        return Triple(*(resolved(term, values) for term in node))
    if isinstance(node, tuple):
        return tuple(resolved(item, values) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return type(node)(**{
            f.name: resolved(getattr(node, f.name), values)
            for f in dataclasses.fields(node)
        })
    return node


def placeholders(node):
    """Every placeholder left in an AST."""
    if isinstance(node, Placeholder):
        return {node}
    if isinstance(node, Term):
        return set()
    if isinstance(node, tuple):
        return set().union(*(placeholders(item) for item in node))
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return set().union(
            *(placeholders(getattr(node, f.name)) for f in dataclasses.fields(node))
        )
    return set()


#: statement forms with the spelling (``%s``) in a lifted position, each
#: followed by the statement's terminator (``%t``)
UPDATES = [
    "INSERT DATA { ex:s ex:p %s%t }",
    "INSERT DATA { %s ex:p ex:o%t }",
    "MODIFY DELETE { ?s ex:p %s%t } INSERT { ?s ex:q %s%t } WHERE { ?s ex:p %s%t }",
]
QUERIES = [
    "SELECT * WHERE { ex:s ex:p %s%t }",
    "SELECT ?o WHERE { ?s ex:p ?o FILTER(?o = %s) }",
    "CONSTRUCT { ?s ex:q %s%t } WHERE { ?s ex:p %s%t }",
]
#: texts of the same keys, sent first so that the spelling under test
#: also runs as a hit of a shape parsed for another text
PRIMERS = ['"prime"', "ex:prime", "7"]


def fill(form, spelling, terminator=""):
    return PROLOGUE + form.replace("%s", spelling).replace("%t", terminator)


def prime(session):
    for primer in PRIMERS:
        for form in UPDATES:
            session.prepare_update(fill(form, primer), allow_placeholders=False)
        for form in QUERIES:
            session.prepare_query(fill(form, primer))


@pytest.mark.parametrize("terminator", [" .", "."], ids=["spaced", "tight"])
@pytest.mark.parametrize("spelling,expected", TERMS, ids=[s for s, _ in TERMS])
def test_a_lifted_term_is_the_parsers_term(spelling, expected, terminator):
    fresh, primed = new_session(), new_session()
    prime(primed)
    for session in (fresh, primed):
        for form in UPDATES:
            text = fill(form, spelling, terminator)
            prepared = session.prepare_update(text, allow_placeholders=False)
            request = resolved(prepared.request, prepared._values)
            assert request == parse_update(text) and not placeholders(request)
        for form in QUERIES:
            text = fill(form, spelling, terminator)
            prepared = session.prepare_query(text)
            query = resolved(prepared.query, prepared._values)
            assert query == parse_query(text) and not placeholders(query)


def test_the_spellings_run_as_hits():
    session = new_session()
    prime(session)
    kept = len(session._shapes)
    for spelling, _ in TERMS:
        if not spelling.startswith("_:"):  # a blank node is no constant
            session.prepare_query(fill(QUERIES[0], spelling))
    assert len(session._shapes) == kept


@pytest.mark.parametrize("spelling", MALFORMED)
def test_a_malformed_term_is_the_parsers_error(spelling):
    session = new_session()
    prime(session)
    for form, parse, prepare in (
        (UPDATES[0], parse_update,
         lambda text: session.prepare_update(text, allow_placeholders=False)),
        (UPDATES[2], parse_update, session.execute),
        (QUERIES[0], parse_query, session.query),
        (QUERIES[1], parse_query, session.query),
    ):
        text = fill(form, spelling)
        with pytest.raises(SPARQLParseError) as want:
            parse(text)
        with pytest.raises(SPARQLParseError) as got:
            prepare(text)
        assert (str(got.value), got.value.line, got.value.column) == (
            str(want.value), want.value.line, want.value.column
        )


def test_a_variable_in_a_data_block_is_still_a_parse_error():
    session = new_session()
    session.execute(PROLOGUE + 'INSERT DATA { ex:s ex:p "x" . }')
    text = PROLOGUE + "INSERT DATA { ex:s ex:p ?x . }"
    with pytest.raises(SPARQLParseError, match="must not contain variables"):
        session.execute(text)
    # a template may hold it: bound at execute time
    prepared = session.prepare_update(text)
    prepared.execute({"x": Literal("y")})
    assert Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal("y")) in session.dump()


# -- the key ---------------------------------------------------------------------

QUERY = PROLOGUE + "SELECT ?o WHERE { ex:s ex:p ?o }"


def test_whitespace_and_comments_are_not_in_the_key():
    spaced = PROLOGUE + "# a request\nSELECT  ?o\nWHERE {\n\tex:t   ex:p ?o # note\n}\n"
    assert key(QUERY) == key(spaced) == key(QUERY + "# 0.17\n")


def test_what_shapes_the_parse_is_in_the_key():
    variants = [
        QUERY,
        QUERY.replace("ex:p", "ex:q"),                 # predicate
        QUERY.replace("?o }", "?o . ?o a ex:C }"),      # class
        QUERY.replace("?o }", "?o . ?o a ex:D }"),
        QUERY.replace("?o WHERE", "?x WHERE"),          # variables
        QUERY + " LIMIT 10",
        QUERY + " LIMIT 11",
        QUERY.replace("?o }", "?o FILTER(?o <= 5) }"),  # operators read as one
        QUERY.replace("?o }", "?o FILTER(?o < = 5) }"),
        QUERY.replace("SELECT", "ASK").replace("?o WHERE", "WHERE"),
        QUERY.replace("PREFIX a:", "PREFIX b:"),        # the prologue, as written
    ]
    assert len({key(text) for text in variants}) == len(variants)


def test_equal_constants_share_a_slot():
    same = PROLOGUE + "SELECT * WHERE { ex:s ex:p ?x . OPTIONAL { ex:s ex:q ?y } }"
    other = same.replace("OPTIONAL { ex:s", "OPTIONAL { ex:t")
    assert key(same).count("?0") == 2 and "?1" not in key(same)
    assert key(other) != key(same)
    values = {v.name: t for v, t in new_session().prepare_query(other)._values.items()}
    assert values == {"0": URIRef(EX + "s"), "1": URIRef(EX + "t")}


def test_constants_in_key_positions_are_not_lifted():
    lifted = SPARQLParserBase(
        PROLOGUE + 'SELECT ?s WHERE { ?s a ex:C ; ex:p "v" FILTER(?s != ex:o) } LIMIT 3'
    ).lift()
    assert "ex:C" in lifted.key and "ex:o" in lifted.key and "3" in lifted.key
    assert len(lifted.slots) == 1


# -- where the token pass and the parser disagree ---------------------------------


def test_a_constant_the_parser_reads_otherwise_is_not_shared():
    """``?y -1`` is one number to the token pass and ``?y - 1`` to the
    parser: the text is parsed as written each time, so two such texts
    never answer with each other's constant."""
    graph = Graph([Triple(URIRef(EX + "s"), URIRef(EX + "p"), Literal(5))])
    session = new_session(graph)
    form = PROLOGUE + "ASK { ?s ex:p ?y FILTER(?y -%d > 3) }"
    assert session.query(form % 1) is True
    assert session.query(form % 2) is False
    assert session.query(form % 1) is True
    assert not session._shapes
