"""The grammar oracle: Turtle, SPARQL and SPARQL/Update read one term syntax.

SPARQL reuses Turtle's terms and SPARQL/Update reuses SPARQL's grammar, so
a term spelled the same way must come out as the same RDF term from
``parse_turtle``, ``parse_update`` and ``parse_query`` — they share one
scanner (``repro.rdf.scanner``), and this file is what holds them to it.
No ``BENCHMARK.json`` workload scans a long string, an escape, a ``BASE``
or a blank node, so these productions have no other guard.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SPARQLParseError, TurtleParseError
from repro.rdf import (
    RDF,
    BNode,
    Graph,
    Literal,
    Triple,
    TurtleParser,
    URIRef,
    parse_turtle,
    to_turtle,
)
from repro.rdf.terms import XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.query_parser import parse_query
from repro.sparql.update_parser import parse_update

PROLOGUE = (
    "BASE <http://example.org/base/doc>\n"
    "PREFIX ex: <http://example.org/db/>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
    "PREFIX a: <http://example.org/a/>\n"
)
S = URIRef("http://example.org/db/s")
P = URIRef("http://example.org/db/p")


def read_turtle(statement):
    (triple,) = parse_turtle(PROLOGUE + statement)
    return triple


def read_update(statement):
    (operation,) = parse_update(PROLOGUE + "INSERT DATA { %s }" % statement).operations
    (triple,) = operation.triples
    return triple


def read_query(statement):
    (element,) = parse_query(PROLOGUE + "SELECT * WHERE { %s }" % statement).where.elements
    return element.triple


READERS = [read_turtle, read_update, read_query]
ERRORS = [TurtleParseError, SPARQLParseError, SPARQLParseError]


def integer(lexical):
    return Literal(lexical, datatype=XSD_INTEGER)


#: spelling -> the term every grammar must read it as
TERMS = [
    # IRIREF, absolute and resolved against BASE (RFC 3986)
    ("<http://example.org/abs>", URIRef("http://example.org/abs")),
    ("<mailto:someone@example.org>", URIRef("mailto:someone@example.org")),
    ("<#me>", URIRef("http://example.org/base/doc#me")),
    ("<other>", URIRef("http://example.org/base/other")),
    ("<sub/leaf>", URIRef("http://example.org/base/sub/leaf")),
    ("</root>", URIRef("http://example.org/root")),
    ("<//host.example/p>", URIRef("http://host.example/p")),
    ("<>", URIRef("http://example.org/base/doc")),
    # prefixed names
    ("ex:author1", URIRef("http://example.org/db/author1")),
    ("ex:with-dash_1", URIRef("http://example.org/db/with-dash_1")),
    ("ex:a.b", URIRef("http://example.org/db/a.b")),
    ("ex:", URIRef("http://example.org/db/")),
    ("a:b", URIRef("http://example.org/a/b")),
    ("ex:a\\.b", URIRef("http://example.org/db/a.b")),
    ("ex:a\\,b\\~c", URIRef("http://example.org/db/a,b~c")),
    ("ex:50\\%", URIRef("http://example.org/db/50%")),
    # blank-node labels
    ("_:b1", BNode("b1")),
    ("_:b.2", BNode("b.2")),
    # short strings
    ('"plain"', Literal("plain")),
    ("'single'", Literal("single")),
    ('""', Literal("")),
    ('"it\'s"', Literal("it's")),
    ("'say \"hi\"'", Literal('say "hi"')),
    ('"\\t\\b\\n\\r\\f\\"\\\'\\\\"', Literal("\t\b\n\r\f\"'\\")),
    ('"caf\\u00e9 \\U0001F600"', Literal("café \U0001F600")),
    ('"a\\\\u0041"', Literal("a\\u0041")),
    # long strings
    ('"""long "quoted" text"""', Literal('long "quoted" text')),
    ("'''long 'single' text'''", Literal("long 'single' text")),
    ('"""two\nlines"""', Literal("two\nlines")),
    ('"""say \\""""', Literal('say "')),
    ('"""ends with a backslash \\\\"""', Literal("ends with a backslash \\")),
    ('"""a ""two"" quotes"""', Literal('a ""two"" quotes')),
    # language tags and datatypes
    ('"chat"@fr', Literal("chat", language="fr")),
    ('"colour"@en-GB', Literal("colour", language="en-GB")),
    ('"5"^^xsd:integer', integer("5")),
    ('"5"^^<http://www.w3.org/2001/XMLSchema#integer>', integer("5")),
    ('"v"^^ex:dt', Literal("v", datatype="http://example.org/db/dt")),
    ('"v"^^<#dt>', Literal("v", datatype="http://example.org/base/doc#dt")),
    # numbers and booleans
    ("5", integer("5")),
    ("-5", integer("-5")),
    ("+5", integer("+5")),
    ("5.5", Literal("5.5", datatype=XSD_DECIMAL)),
    ("-.5", Literal("-.5", datatype=XSD_DECIMAL)),
    ("1e3", Literal("1e3", datatype=XSD_DOUBLE)),
    ("1.5E-3", Literal("1.5E-3", datatype=XSD_DOUBLE)),
    ("true", Literal("true", datatype=XSD_BOOLEAN)),
    ("false", Literal("false", datatype=XSD_BOOLEAN)),
]


@pytest.mark.parametrize("terminator", [" .", "."], ids=["spaced", "tight"])
@pytest.mark.parametrize("spelling,expected", TERMS, ids=[s for s, _ in TERMS])
def test_same_spelling_same_term(spelling, expected, terminator):
    """Also directly in front of the statement's ``.``: ``_:b1.`` is the
    label ``b1``, ``5.`` the integer 5, ``ex:a.`` the name ``ex:a``."""
    statement = "ex:s ex:p " + spelling + terminator
    for read in READERS:
        assert read(statement) == Triple(S, P, expected), read.__name__
    # ... and the term survives serialization
    assert parse_turtle(to_turtle(Graph([Triple(S, P, expected)]))) == Graph(
        [Triple(S, P, expected)]
    )


def test_a_is_rdf_type_in_verb_position_only():
    for read in READERS:
        assert read("ex:s a ex:C .") == Triple(
            S, RDF.type, URIRef("http://example.org/db/C")
        )
        # a prefix that happens to be called 'a' is still a prefix
        assert read("ex:s a:p a:o .").predicate == URIRef("http://example.org/a/p")
    for read, error in zip(READERS, ERRORS):
        with pytest.raises(error):
            read("ex:s ex:p a .")


def test_predicate_object_lists_agree():
    statement = 'ex:s ex:p "one", "two" ; a ex:C ; ex:q _:b1, <#x> ;'
    expected = [
        Triple(S, P, Literal("one")),
        Triple(S, P, Literal("two")),
        Triple(S, RDF.type, URIRef("http://example.org/db/C")),
        Triple(S, URIRef("http://example.org/db/q"), BNode("b1")),
        Triple(S, URIRef("http://example.org/db/q"),
               URIRef("http://example.org/base/doc#x")),
    ]
    assert list(TurtleParser(PROLOGUE + statement + " .").triples()) == expected
    (operation,) = parse_update(PROLOGUE + "DELETE DATA { %s }" % statement).operations
    assert list(operation.triples) == expected
    where = parse_query(PROLOGUE + "ASK { %s }" % statement).where
    assert [element.triple for element in where.elements] == expected


#: spellings no grammar accepts; each must answer with its own typed error
MALFORMED = [
    '"x\\uZZZZ"',        # non-hex \u
    '"x\\u12"',          # two characters short of a \u
    '"x\\u123"',         # one short
    '"x\\U0041"',        # \U needs eight
    '"x\\UFFFFFFFF"',    # hex, but no code point
    '"x\\q"',            # unknown escape
    '"x\\"',             # lone backslash swallows the closing quote
    '"""never closed',
    '"""closed by an escaped quote \\"""',
    '"raw\nnewline"',
    "'mixed\"",
    "<http://example.org/has space>",
    "<http://example.org/unclosed",
    "nope:x",            # unbound prefix
    '"v"^^',
    '"v"^^5',
    "_:",
    "ex:a\\!b\\",        # dangling backslash behind a local name
    "@fr",
]


@pytest.mark.parametrize("spelling", MALFORMED)
def test_malformed_terms_raise_the_grammars_own_error(spelling):
    """Never a bare IndexError / ValueError / KeyError: over HTTP that is
    the difference between RDF feedback and a dropped connection."""
    for read, error in zip(READERS, ERRORS):
        with pytest.raises(error) as exc:
            read("ex:s ex:p " + spelling + " .")
        assert exc.value.line >= 1 and exc.value.column >= 1


# -- generated terms, spelled by Term.n3() -------------------------------------

_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=30
)
_literals = st.one_of(
    _text.map(Literal),
    st.tuples(_text, st.sampled_from(["en", "de-CH", "x-y-z"])).map(
        lambda pair: Literal(pair[0], language=pair[1])
    ),
    st.tuples(_text, st.sampled_from([XSD_INTEGER, "http://example.org/db/dt"])).map(
        lambda pair: Literal(pair[0], datatype=pair[1])
    ),
    st.integers(min_value=-10**12, max_value=10**12).map(Literal),
    st.booleans().map(Literal),
)
_iris = st.text(
    alphabet=st.characters(
        codec="utf-8",
        min_codepoint=0x21,
        exclude_categories=("Cs",),
        exclude_characters='<>"{}|^`\\',
    ),
    max_size=30,
).map(lambda tail: URIRef("http://example.org/" + tail))


@given(st.one_of(_literals, _iris))
@settings(max_examples=150, deadline=None)
def test_n3_spelling_reads_back_everywhere(term):
    statement = "ex:s ex:p %s ." % term.n3()
    for read in READERS:
        assert read(statement).object == term, read.__name__
    graph = Graph([Triple(S, P, term)])
    assert parse_turtle(to_turtle(graph)) == graph
