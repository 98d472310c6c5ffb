"""The RDF feedback protocol (paper Sections 6 and 8).

"A confirmation or error message is returned to the translation module.
This message is then converted to an RDF representation and sent back to
the client" — and, as future work, "a feedback protocol that provides
semantically rich information about the cause of a rejection and possible
directions for improvement".

This module implements that protocol: both confirmations and errors are
RDF graphs in the ``oa:`` vocabulary, carrying machine-readable error
codes, the offending subject/property/table/attribute, and a human-
readable hint with a direction for improvement.
"""

from __future__ import annotations

import re
import string
from typing import Optional, Tuple

from ..errors import TranslationError
from ..rdf.graph import Graph
from ..rdf.namespace import OA, RDF, XSD
from ..rdf.terms import BNode, Literal, Triple, URIRef

__all__ = [
    "confirmation_graph", "confirmation_turtle", "error_graph", "read_confirmation", "HINTS",
]

#: Per-error-code improvement hints ("possible directions for improvement
#: can be reported", Section 8).
HINTS = {
    TranslationError.UNKNOWN_SUBJECT: (
        "Use an instance URI built from a uriPattern of the mapping, e.g. "
        "<prefix><table><key>."
    ),
    TranslationError.UNKNOWN_CLASS: (
        "Only classes assigned in the mapping can be instantiated; consult "
        "the mapping's TableMaps for the available classes."
    ),
    TranslationError.ENTITY_EXISTS: (
        "The entity already holds complete data; use MODIFY to change it."
    ),
    TranslationError.UNKNOWN_PROPERTY: (
        "Only properties assigned in the mapping can be stored; consult the "
        "mapping's TableMap for the valid vocabulary of this class."
    ),
    TranslationError.MISSING_REQUIRED: (
        "Add triples for every NOT NULL attribute without default before "
        "creating the entity."
    ),
    TranslationError.NOT_NULL_DELETE: (
        "This attribute is mandatory; delete the complete entity instead of "
        "removing the triple."
    ),
    TranslationError.TYPE_MISMATCH: (
        "Provide a literal compatible with the column type declared in the "
        "database schema."
    ),
    TranslationError.MULTI_VALUE: (
        "Relational attributes hold one value; delete the existing triple "
        "first or use MODIFY to replace it."
    ),
    TranslationError.ENTITY_MISSING: (
        "The entity does not exist; insert it before deleting its triples."
    ),
    TranslationError.TRIPLE_MISSING: (
        "DELETE DATA removes known triples only; query the current state "
        "first."
    ),
    TranslationError.FK_TARGET_MISSING: (
        "Insert the referenced entity first (or in the same request; the "
        "mediator orders statements by foreign-key dependencies)."
    ),
    TranslationError.CLASS_MISMATCH: (
        "The subject URI determines the table; use the class the table maps "
        "to."
    ),
    TranslationError.CONSTRAINT_VIOLATION: (
        "The database rejected the update; check referential integrity of "
        "the affected rows."
    ),
    TranslationError.UNSUPPORTED: (
        "Rephrase the request within the supported SPARQL/Update fragment."
    ),
}


def confirmation_graph(
    statements_executed: int,
    operations: int = 1,
    request_uri: Optional[URIRef] = None,
) -> Graph:
    """Build the RDF confirmation for a successful update request."""
    g = Graph()
    node = request_uri or BNode()
    g.add(Triple(node, RDF.type, OA.Confirmation))
    g.add(Triple(node, OA.operationCount, Literal(operations)))
    g.add(Triple(node, OA.statementsExecuted, Literal(statements_executed)))
    g.add(Triple(node, OA.status, Literal("ok")))
    return g


#: :func:`~repro.rdf.serialize.to_turtle` of a confirmation graph with
#: its blank node's label and the two counts left open.
_CONFIRMATION_TURTLE = (
    f"@prefix oa: <{OA.uri}> .\n"
    f"@prefix xsd: <{XSD.uri}> .\n"
    "\n"
    "_:{label}\n"
    "    a oa:Confirmation ;\n"
    '    oa:operationCount "{operations}"^^xsd:integer ;\n'
    '    oa:statementsExecuted "{statements}"^^xsd:integer ;\n'
    '    oa:status "ok" .\n'
)


def confirmation_turtle(statements_executed: int, operations: int = 1) -> str:
    """The Turtle of :func:`confirmation_graph` — what the endpoint
    answers a successful write with — filled into a fixed template; its
    blank node is labelled from the same counter as a fresh ``BNode``."""
    return _CONFIRMATION_TURTLE.format(
        label=BNode().label,
        operations=int(operations),
        statements=int(statements_executed),
    )


#: What each field of :data:`_CONFIRMATION_TURTLE` may hold: the label
#: ``BNode()`` writes, and the decimal digits ``int`` formats to.
_CONFIRMATION_FIELDS = {
    "label": "[A-Za-z0-9_]+",
    "operations": "-?[0-9]+",
    "statements": "-?[0-9]+",
}

#: The template as a pattern: its text literally, each field a group.
_CONFIRMATION_READER = re.compile("".join(
    re.escape(text) + (f"(?P<{name}>{_CONFIRMATION_FIELDS[name]})" if name else "")
    for text, name, _, _ in string.Formatter().parse(_CONFIRMATION_TURTLE)
))


def read_confirmation(text: str) -> Optional[Tuple[int, int]]:
    """(statements executed, operations) of a body
    :func:`confirmation_turtle` wrote, or None for any other text.

    The match is exact — one character added, dropped or changed and
    the body is not a confirmation — so a body read here holds no
    ``oa:Error`` node, and its graph is what ``parse_turtle`` makes of
    it: the four confirmation triples about the written blank node."""
    match = _CONFIRMATION_READER.fullmatch(text)
    if match is None:
        return None
    return int(match["statements"]), int(match["operations"])


def error_graph(
    error: TranslationError, request_uri: Optional[URIRef] = None
) -> Graph:
    """Encode a translation error as the RDF feedback message."""
    g = Graph()
    node = request_uri or BNode()
    g.add(Triple(node, RDF.type, OA.Error))
    g.add(Triple(node, OA.status, Literal("error")))
    g.add(Triple(node, OA.code, Literal(error.code)))
    g.add(Triple(node, OA.message, Literal(str(error))))
    hint = HINTS.get(error.code)
    if hint:
        g.add(Triple(node, OA.hint, Literal(hint)))

    detail_predicates = {
        "subject": OA.subject,
        "property": OA.property,
        "table": OA.table,
        "attribute": OA.attribute,
        "object": OA.object,
        "referenced_table": OA.referencedTable,
        "expected": OA.expectedValue,
        "actual": OA.actualValue,
        "existing": OA.existingValue,
        "new": OA.newValue,
        "value": OA.value,
    }
    for key, predicate in detail_predicates.items():
        value = error.details.get(key)
        if value is None:
            continue
        if isinstance(value, str) and (
            value.startswith("http://")
            or value.startswith("https://")
            or value.startswith("mailto:")
        ):
            g.add(Triple(node, predicate, URIRef(value)))
        elif isinstance(value, (str, int, float, bool)):
            g.add(Triple(node, predicate, Literal(value)))
        elif isinstance(value, list):
            for item in value:
                g.add(Triple(node, predicate, Literal(str(item))))
    return g
