"""Unit tests for the RDF term model."""

import copy
import pickle

import pytest

from repro.rdf import BNode, Literal, Triple, URIRef, Variable
from repro.rdf.terms import Placeholder
from repro.rdf.terms import XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, XSD_STRING


class TestURIRef:
    def test_equality(self):
        assert URIRef("http://example.org/a") == URIRef("http://example.org/a")
        assert URIRef("http://example.org/a") != URIRef("http://example.org/b")

    def test_not_equal_to_plain_string(self):
        assert URIRef("http://example.org/a") != "http://example.org/a"

    def test_hashable(self):
        s = {URIRef("http://example.org/a"), URIRef("http://example.org/a")}
        assert len(s) == 1

    def test_n3(self):
        assert URIRef("http://example.org/a").n3() == "<http://example.org/a>"

    def test_n3_escapes_special_characters(self):
        assert "\\u003E" in URIRef("http://example.org/a>b").n3()

    def test_immutable(self):
        uri = URIRef("http://example.org/a")
        with pytest.raises(AttributeError):
            uri.value = "other"

    def test_local_name_hash(self):
        assert URIRef("http://example.org/onto#team").local_name() == "team"

    def test_local_name_slash(self):
        assert URIRef("http://example.org/db/author1").local_name() == "author1"

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            URIRef(42)

    def test_is_concrete(self):
        assert URIRef("http://example.org/a").is_concrete()


class TestBNode:
    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_explicit_label_equality(self):
        assert BNode("x1") == BNode("x1")

    def test_n3(self):
        assert BNode("abc").n3() == "_:abc"

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            BNode("has space")

    def test_not_equal_to_uriref(self):
        assert BNode("a") != URIRef("a")


class TestLiteral:
    def test_plain_literal(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.language is None
        assert lit.datatype is None

    def test_language_tag_normalized(self):
        assert Literal("hello", language="EN").language == "en"

    def test_int_value_gets_xsd_integer(self):
        lit = Literal(5)
        assert lit.lexical == "5"
        assert lit.datatype == XSD_INTEGER

    def test_float_value_gets_xsd_double(self):
        assert Literal(2.5).datatype == XSD_DOUBLE

    def test_bool_value_gets_xsd_boolean(self):
        lit = Literal(True)
        assert lit.lexical == "true"
        assert lit.datatype == XSD_BOOLEAN

    def test_bool_checked_before_int(self):
        # bool is a subclass of int; ensure we don't serialize True as "1".
        assert Literal(True).lexical == "true"

    def test_language_and_datatype_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", language="en", datatype=XSD_STRING)

    def test_datatype_accepts_uriref(self):
        lit = Literal("5", datatype=URIRef(XSD_INTEGER))
        assert lit.datatype == XSD_INTEGER

    def test_equality_considers_datatype(self):
        assert Literal("5") != Literal("5", datatype=XSD_INTEGER)

    def test_equality_considers_language(self):
        assert Literal("a", language="en") != Literal("a", language="de")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_n3_typed(self):
        assert Literal(5).n3() == f'"5"^^<{XSD_INTEGER}>'

    def test_n3_escapes_quotes_and_newlines(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_xsd_string_rendered_plain(self):
        # xsd:string-typed literals are value-equal to plain in RDF 1.1 and
        # rendered without the datatype suffix.
        assert Literal("x", datatype=XSD_STRING).n3() == '"x"'

    def test_to_python_integer(self):
        assert Literal("42", datatype=XSD_INTEGER).to_python() == 42

    def test_to_python_double(self):
        assert Literal("2.5", datatype=XSD_DOUBLE).to_python() == 2.5

    def test_to_python_boolean(self):
        assert Literal("true", datatype=XSD_BOOLEAN).to_python() is True
        assert Literal("false", datatype=XSD_BOOLEAN).to_python() is False

    def test_to_python_plain_returns_lexical(self):
        assert Literal("2009").to_python() == "2009"

    def test_is_numeric(self):
        assert Literal(5).is_numeric()
        assert not Literal("5").is_numeric()

    def test_unsupported_value_type(self):
        with pytest.raises(TypeError):
            Literal(["nope"])


class TestVariable:
    def test_strips_question_mark(self):
        assert Variable("?x").name == "x"
        assert Variable("$x").name == "x"

    def test_equality(self):
        assert Variable("x") == Variable("?x")

    def test_n3(self):
        assert Variable("mbox").n3() == "?mbox"

    def test_not_concrete(self):
        assert not Variable("x").is_concrete()

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Variable("9bad")


class TestTriple:
    def test_unpacking(self):
        t = Triple(URIRef("s"), URIRef("p"), Literal("o"))
        s, p, o = t
        assert s == URIRef("s")
        assert o == Literal("o")

    def test_n3(self):
        t = Triple(URIRef("s"), URIRef("p"), Literal("o"))
        assert t.n3() == '<s> <p> "o" .'

    def test_is_concrete(self):
        concrete = Triple(URIRef("s"), URIRef("p"), Literal("o"))
        assert concrete.is_concrete()
        templ = Triple(Variable("x"), URIRef("p"), Literal("o"))
        assert not templ.is_concrete()

    def test_variables_iteration(self):
        t = Triple(Variable("x"), URIRef("p"), Variable("y"))
        assert [v.name for v in t.variables()] == ["x", "y"]


class TestCopyAndPickle:
    """Terms are immutable: a copy is the term itself, and a pickle
    rebuilds an equal term (same hash) through the public constructor."""

    TERMS = {
        "uri": lambda: URIRef("http://example.org/db/author1"),
        "canonical uri": lambda: URIRef.canonical("http://example.org/db/pub7"),
        "bnode": lambda: BNode("b1"),
        "plain literal": lambda: Literal("Hert"),
        "language literal": lambda: Literal("chat", language="fr"),
        "integer literal": lambda: Literal(5),
        "double literal": lambda: Literal(float("-inf")),
        "canonical literal": lambda: Literal.canonical("2009", XSD_INTEGER),
        "canonical plain literal": lambda: Literal.canonical("Hert"),
        "variable": lambda: Variable("x"),
        "placeholder": lambda: Placeholder(3),
    }

    @pytest.mark.parametrize("kind", list(TERMS))
    def test_round_trip(self, kind):
        term = self.TERMS[kind]()
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(term, protocol))
            assert type(again) is type(term)
            assert again == term and hash(again) == hash(term)

    def test_solutions_deep_copy(self):
        solutions = [{Variable("a"): URIRef("http://a/b"), Variable("n"): Literal("x")}]
        assert copy.deepcopy(solutions) == solutions

    def test_canonical_equals_constructed(self):
        integer = Literal("2009", datatype=XSD_INTEGER)
        assert Literal.canonical("2009", XSD_INTEGER) == integer
        assert hash(Literal.canonical("2009", XSD_INTEGER)) == hash(integer)
        assert hash(Literal.canonical("x")) == hash(Literal("x"))
        assert URIRef.canonical("http://a/b") == URIRef("http://a/b")
        assert hash(URIRef.canonical("http://a/b")) == hash(URIRef("http://a/b"))

    @pytest.mark.parametrize(
        "number, lexical",
        [
            (float("inf"), "INF"),
            (float("-inf"), "-INF"),
            (float("nan"), "NaN"),
            (2.5, "2.5"),
        ],
    )
    def test_double_lexical_forms(self, number, lexical):
        assert Literal(number) == Literal(lexical, datatype=XSD_DOUBLE)
