"""Tests for URI pattern minting and reverse matching."""

import pytest

from repro.errors import MappingError
from repro.r3m import URIPattern
from repro.rdf import URIRef


class TestFormat:
    def test_paper_pattern(self):
        pattern = URIPattern("author%%id%%", prefix="http://example.org/db/")
        assert pattern.format({"id": 6}) == URIRef("http://example.org/db/author6")

    def test_absolute_pattern_overrides_prefix(self):
        pattern = URIPattern(
            "http://other.org/a%%id%%", prefix="http://example.org/db/"
        )
        assert pattern.format({"id": 1}) == URIRef("http://other.org/a1")

    def test_mailto_pattern_overrides_prefix(self):
        pattern = URIPattern("mailto:%%email%%", prefix="http://example.org/db/")
        assert pattern.format({"email": "x@y.z"}) == URIRef("mailto:x@y.z")

    def test_multiple_placeholders(self):
        pattern = URIPattern("pa%%publication%%_%%author%%", prefix="http://e/")
        assert pattern.format({"publication": 12, "author": 6}) == URIRef(
            "http://e/pa12_6"
        )

    def test_missing_value_raises(self):
        pattern = URIPattern("author%%id%%", prefix="http://e/")
        with pytest.raises(MappingError, match="id"):
            pattern.format({})

    def test_none_value_raises(self):
        pattern = URIPattern("author%%id%%", prefix="http://e/")
        with pytest.raises(MappingError):
            pattern.format({"id": None})


class TestMatch:
    def test_paper_example(self):
        """Section 5.1: author1 matches author%%id%% extracting id=1."""
        pattern = URIPattern("author%%id%%", prefix="http://example.org/db/")
        values = pattern.match(URIRef("http://example.org/db/author1"))
        assert values == {"id": "1"}

    def test_no_match_other_table(self):
        pattern = URIPattern("author%%id%%", prefix="http://example.org/db/")
        assert pattern.match(URIRef("http://example.org/db/team5")) is None

    def test_no_match_other_prefix(self):
        pattern = URIPattern("author%%id%%", prefix="http://example.org/db/")
        assert pattern.match(URIRef("http://other.org/db/author1")) is None

    def test_multi_placeholder_match(self):
        pattern = URIPattern("pa%%p%%_%%a%%", prefix="http://e/")
        assert pattern.match(URIRef("http://e/pa12_6")) == {"p": "12", "a": "6"}

    def test_value_with_slash_rejected(self):
        pattern = URIPattern("author%%id%%", prefix="http://e/")
        assert pattern.match(URIRef("http://e/author1/extra")) is None

    def test_roundtrip(self):
        pattern = URIPattern("publication%%id%%", prefix="http://example.org/db/")
        uri = pattern.format({"id": 42})
        assert pattern.match(uri) == {"id": "42"}

    def test_matches_predicate(self):
        pattern = URIPattern("team%%id%%", prefix="http://e/")
        assert pattern.matches(URIRef("http://e/team9"))
        assert not pattern.matches(URIRef("http://e/team"))

    @pytest.mark.parametrize("text", ["team%%id%%", "team%%id%%.html", "t%%id%%t"])
    def test_single_attribute_reads_what_its_regex_reads(self, text):
        """A single-attribute pattern is read with string operations; it
        must read exactly what the pattern's regex reads."""
        pattern = URIPattern(text, prefix="http://e/")
        for uri in (
            "http://e/team9", "http://e/team", "http://e/team9.html",
            "http://e/team9.htm", "http://e/team.html", "http://e/tt",
            "http://e/ttt", "http://e/t9t", "http://e/t/t", "http://e/team9/x",
            "http://e/team9\n", "http://e/team9.html\n", "http://e/team9\nx",
            "http://e/te\nam9", "http://e/team9.html.html", "http://e/tea",
            "http://e/teamteam", "http://e/t9t\n", "http://e/tt\n",
        ):
            found = pattern._regex.match(uri)
            expected = None if found is None else found.groupdict()
            assert pattern.match(URIRef(uri)) == expected, uri


class TestValidation:
    def test_empty_pattern_rejected(self):
        with pytest.raises(MappingError):
            URIPattern("", prefix="http://e/")

    def test_pattern_without_placeholder_rejected(self):
        with pytest.raises(MappingError):
            URIPattern("author", prefix="http://e/")

    def test_attributes_listed_in_order(self):
        pattern = URIPattern("x%%b%%y%%a%%", prefix="http://e/")
        assert pattern.attributes == ["b", "a"]

    def test_equality(self):
        a = URIPattern("t%%id%%", prefix="http://e/")
        b = URIPattern("t%%id%%", prefix="http://e/")
        assert a == b
        assert hash(a) == hash(b)
