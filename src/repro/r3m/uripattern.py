"""URI patterns: minting and reverse-matching instance URIs.

The paper (Section 4) generates instance URIs from a mapping-wide
``uriPrefix`` plus a per-table ``uriPattern`` containing attribute
placeholders between double percent signs, e.g. ``author%%id%%``.  A
pattern that itself forms a valid absolute URI (starts with ``http://``,
``mailto:``, …) overrides the prefix.

Translation needs both directions:

* :meth:`URIPattern.format` — row values → instance URI (used by the
  RDB→RDF dump and feedback); a translated query's answer step mints the
  URIs of a single-attribute pattern inline from :attr:`URIPattern.affixes`;
* :meth:`URIPattern.match` — subject URI → attribute values (Algorithm 1
  step 2: "the table affected by this group of triples is identified
  through the URI of their subject ... we can extract the value 1 for the
  primary key attribute id").
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from ..errors import MappingError
from ..rdf.terms import URIRef

__all__ = ["URIPattern"]

_PLACEHOLDER_RE = re.compile(r"%%([A-Za-z_][A-Za-z0-9_]*)%%")
_ABSOLUTE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


class URIPattern:
    """A compiled URI pattern bound to a mapping-wide prefix."""

    def __init__(self, pattern: str, prefix: str = "") -> None:
        if not pattern:
            raise MappingError("empty URI pattern")
        self.pattern = pattern
        self.prefix = prefix
        #: attribute names appearing as placeholders, in order
        self.attributes: List[str] = _PLACEHOLDER_RE.findall(pattern)
        if not self.attributes:
            raise MappingError(
                f"URI pattern {pattern!r} contains no %%attribute%% placeholder"
            )
        self._template = self._full_pattern()
        self._regex = self._compile_regex()
        #: the template cut at its placeholders, once: literal text,
        #: attribute, literal text, ... (odd positions are attributes)
        self._segments: List[str] = _PLACEHOLDER_RE.split(self._template)
        #: (text before, text after) the attribute of a single-attribute
        #: pattern: its URIs are minted as prefix + value + suffix; None
        #: for a pattern of several attributes
        self.affixes: Optional[Tuple[str, str]] = (
            (self._segments[0], self._segments[2])
            if len(self.attributes) == 1
            else None
        )

    def _full_pattern(self) -> str:
        # "overrides it if the pattern itself forms a valid URI"
        if _ABSOLUTE_RE.match(self.pattern):
            return self.pattern
        return self.prefix + self.pattern

    def _compile_regex(self) -> "re.Pattern[str]":
        parts: List[str] = []
        last = 0
        for m in _PLACEHOLDER_RE.finditer(self._template):
            parts.append(re.escape(self._template[last: m.start()]))
            # Attribute values must not contain '/' so patterns stay
            # unambiguous within one URI hierarchy level.
            parts.append(f"(?P<{m.group(1)}>[^/]+?)")
            last = m.end()
        parts.append(re.escape(self._template[last:]))
        return re.compile("^" + "".join(parts) + "$")

    # -- forward: values -> URI ------------------------------------------------

    def format(self, values: Dict[str, Any]) -> URIRef:
        """Mint the instance URI for a row (a dict of attribute values)."""
        parts = list(self._segments)
        for position in range(1, len(parts), 2):
            value = values.get(parts[position])
            if value is None:
                raise MappingError(
                    "missing value for URI pattern attribute "
                    f"{parts[position]!r}"
                )
            parts[position] = str(value)
        return URIRef("".join(parts))

    # -- reverse: URI -> values ----------------------------------------------------

    def match(self, uri: URIRef) -> Optional[Dict[str, str]]:
        """Extract attribute values from an instance URI, or None.

        Values come back as strings; the caller coerces them with the
        column's SQL type (e.g. ``"1"`` → 1 for the INTEGER id).
        """
        m = self._regex.match(uri.value)
        if m is None:
            return None
        return m.groupdict()

    def matches(self, uri: URIRef) -> bool:
        return self._regex.match(uri.value) is not None

    def __repr__(self) -> str:
        return f"URIPattern({self._template!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, URIPattern)
            and other.pattern == self.pattern
            and other.prefix == self.prefix
        )

    def __hash__(self) -> int:
        return hash((self.pattern, self.prefix))
