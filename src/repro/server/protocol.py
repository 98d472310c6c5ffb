"""Wire protocol of the OntoAccess HTTP endpoint.

The prototype (paper Section 6) is "implemented as a HTTP endpoint" that
"allows clients to remotely manipulate the relational data".  Since
ISSUE 2 the endpoint is shaped after the W3C SPARQL Protocol: operations
arrive as ``application/sparql-update`` / ``application/sparql-query``
request bodies, and responses are content-negotiated.

The routes — which method and path, which handler, admitted or exempt,
which replica policy — are one table, :data:`repro.server.endpoint.
ROUTES`; this module holds their paths (``*_PATH``), the media types,
the :class:`Response` the handlers return and the result renderings.

Query responses are negotiated via ``Accept`` among the SPARQL 1.1
result formats: JSON (``application/sparql-results+json``), XML
(``application/sparql-results+xml``), CSV, and TSV; the default is a
plain text table for SELECT and ``true``/``false`` for ASK, and
CONSTRUCT always answers Turtle.  SELECT bindings are sent with chunked
transfer encoding, 64 lines per chunk, so a large result never exists
as one response string.

**JSON answers.**  :func:`iter_select_json` asks the answer for the text
of each binding object (``json_bindings()``).  A SELECT a kept
translation answered with its rows (:class:`~repro.core.answer.
SelectRows`) writes them with its JSON writer, generated on the
translation's first JSON answer from the same members as its answer
step: per row one f-string, a URI site as the escaped pattern prefix +
value + suffix, a literal site as its column's lexical form plus
datatype, a NULL site left out — no term is built.  Every other answer
— dump-evaluated, the native store, a FILTER or modifier left to Python
— is a :class:`~repro.sparql.engine.SelectResult`, which writes its
solutions' terms with ``json.dumps``; the two agree byte for byte.
XML, CSV, TSV and the text table are always written from terms.

**Message heads.**  Both ends read an HTTP/1.1 head — the header lines
after a request or status line, up to the blank line — with
:func:`read_head`, into a :class:`Headers` mapping looked up in any
case.  Its limits are the stdlib's: :data:`MAX_LINE` bytes per line and
:data:`MAX_HEADERS` fields, each answered 431.  A head it will not read
raises :class:`FramingError` with the status to answer it with: a line
without a colon, whitespace between a name and its colon, an obs-fold
continuation line (RFC 9112 §5.1, §5.2) and two different
``Content-Length`` values (§6.3) are 400 — each would otherwise make the
two ends disagree about where the message ends.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional
from xml.sax.saxutils import escape, quoteattr

from ..rdf.graph import Graph
from ..rdf.serialize import to_turtle
from ..rdf.terms import BNode, Literal, Term, URIRef

__all__ = [
    "MAX_HEADERS",
    "MAX_LINE",
    "FramingError",
    "Headers",
    "read_head",
    "UPDATE_PATH",
    "QUERY_PATH",
    "BATCH_PATH",
    "DUMP_PATH",
    "MAPPING_PATH",
    "CHECKPOINT_PATH",
    "PROMOTE_PATH",
    "HEALTH_PATH",
    "READY_PATH",
    "METRICS_PATH",
    "STATS_PATH",
    "SLOW_QUERIES_PATH",
    "CONTENT_PROMETHEUS",
    "QUERY_RESULT_TYPES",
    "acceptable",
    "error_json",
    "CONTENT_TURTLE",
    "CONTENT_SPARQL_UPDATE",
    "CONTENT_SPARQL_QUERY",
    "CONTENT_SPARQL_JSON",
    "CONTENT_SPARQL_XML",
    "CONTENT_JSON",
    "CONTENT_TEXT",
    "CONTENT_CSV",
    "CONTENT_TSV",
    "Response",
    "accepts",
    "iter_select_csv",
    "iter_select_json",
    "iter_select_result",
    "iter_select_tsv",
    "iter_select_xml",
    "render_ask_json",
    "render_ask_xml",
    "render_select_result",
]

UPDATE_PATH = "/update"
QUERY_PATH = "/query"
BATCH_PATH = "/batch"
DUMP_PATH = "/dump"
MAPPING_PATH = "/mapping"
CHECKPOINT_PATH = "/admin/checkpoint"
PROMOTE_PATH = "/admin/promote"
HEALTH_PATH = "/health"
READY_PATH = "/ready"
METRICS_PATH = "/metrics"
STATS_PATH = "/admin/stats"
SLOW_QUERIES_PATH = "/admin/slow-queries"

CONTENT_TURTLE = "text/turtle; charset=utf-8"
CONTENT_SPARQL_UPDATE = "application/sparql-update"
CONTENT_SPARQL_QUERY = "application/sparql-query"
CONTENT_SPARQL_JSON = "application/sparql-results+json"
CONTENT_SPARQL_XML = "application/sparql-results+xml; charset=utf-8"
CONTENT_JSON = "application/json"
CONTENT_TEXT = "text/plain; charset=utf-8"
CONTENT_CSV = "text/csv; charset=utf-8"
CONTENT_TSV = "text/tab-separated-values; charset=utf-8"
#: Prometheus text exposition format 0.0.4 (what ``GET /metrics`` serves).
CONTENT_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


# ---------------------------------------------------------------------------
# message heads
# ---------------------------------------------------------------------------

#: Longest line of a head, in bytes (the stdlib's ``_MAXLINE``).
MAX_LINE = 65536
#: Most header fields in one head (the stdlib's ``_MAXHEADERS``).
MAX_HEADERS = 100


class FramingError(ValueError):
    """A message head (or, at the client, a body) that cannot be read
    as HTTP/1.1; ``status`` is the answer a server sends for it."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class Headers(dict):
    """Header fields keyed by lower-cased name; ``get``, ``[]`` and
    ``in`` lower-case the name they are given, so a field is found
    whatever case either side spelled it in."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name) -> bool:
        return dict.__contains__(self, name.lower())

    @classmethod
    def of(cls, fields: Optional[Mapping[str, str]]) -> "Headers":
        """``fields`` as a :class:`Headers` (names lower-cased once)."""
        if isinstance(fields, Headers):
            return fields
        return cls((name.lower(), value) for name, value in (fields or {}).items())


def read_head(readline: Callable[[int], bytes]) -> Headers:
    """Read header lines with ``readline`` up to the blank line (or the
    end of input) and return them; the first occurrence of a name wins.
    Raises :class:`FramingError` on a head this layer will not read
    (see the module docstring)."""
    headers = Headers()
    count = 0
    while True:
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError("header line too long", 431)
        if line in (b"\r\n", b"\n", b""):
            return headers
        count += 1
        if count > MAX_HEADERS:
            raise FramingError(f"more than {MAX_HEADERS} headers", 431)
        if line[0] in b" \t":
            raise FramingError("obsolete line folding")
        name, colon, value = line.partition(b":")
        if not colon or not name:
            raise FramingError(f"header line without a colon: {line[:80]!r}")
        if name[-1] in b" \t":
            raise FramingError(f"whitespace before the colon: {name[:80]!r}")
        key = name.decode("iso-8859-1").lower()
        text = value.strip(b" \t\r\n").decode("iso-8859-1")
        first = dict.get(headers, key)
        if first is None:
            dict.__setitem__(headers, key, text)
        elif key == "content-length" and first != text:
            raise FramingError(
                f"conflicting Content-Length values: {first!r}, {text!r}"
            )


class Response:
    """A protocol-level response, independent of the HTTP library.

    Either ``body`` holds the whole payload, or ``body_iter`` yields it in
    chunks — the HTTP layer sends the latter with chunked transfer
    encoding so large SELECT results stream instead of being materialized.
    Reading :attr:`body` on a streamed response drains the iterator, so
    protocol handlers called directly (no network) behave as before.
    """

    def __init__(
        self,
        status: int,
        body: str = "",
        content_type: str = CONTENT_TURTLE,
        body_iter: Optional[Iterable[str]] = None,
        headers: Optional[dict] = None,
    ) -> None:
        self.status = status
        self._body = body
        self.content_type = content_type
        self.body_iter = body_iter
        #: extra HTTP headers (e.g. ``Retry-After`` on 503/408)
        self.headers = dict(headers) if headers else {}

    @property
    def body(self) -> str:
        if self.body_iter is not None:
            self._body = "".join(self.body_iter)
            self.body_iter = None
        return self._body

    def __repr__(self) -> str:
        streamed = ", streamed" if self.body_iter is not None else ""
        return (
            f"<Response {self.status} {self.content_type!r}{streamed}>"
        )

    @classmethod
    def turtle(cls, graph: Graph, status: int = 200) -> "Response":
        return cls(status=status, body=to_turtle(graph), content_type=CONTENT_TURTLE)

    @classmethod
    def text(cls, body: str, status: int = 200) -> "Response":
        return cls(status=status, body=body, content_type=CONTENT_TEXT)

    @classmethod
    def json(
        cls,
        payload,
        status: int = 200,
        content_type: str = CONTENT_JSON,
        headers: Optional[dict] = None,
    ) -> "Response":
        return cls(
            status=status,
            body=json.dumps(payload, indent=2, sort_keys=False) + "\n",
            content_type=content_type,
            headers=headers,
        )

    @classmethod
    def stream(
        cls, chunks: Iterable[str], content_type: str, status: int = 200
    ) -> "Response":
        return cls(status=status, content_type=content_type, body_iter=chunks)


def accepts(accept: Optional[str], media_type: str) -> bool:
    """True when the Accept header explicitly lists ``media_type``.

    Deliberately minimal: exact media-type membership (parameters like
    ``charset`` ignored on both sides), no q-values.  An absent header or
    ``*/*`` selects the endpoint's default rendering, so they do not
    count as an explicit request.
    """
    if not accept:
        return False
    wanted = media_type.split(";")[0].strip().lower()
    for part in accept.split(","):
        if part.split(";")[0].strip().lower() == wanted:
            return True
    return False


#: Every media type a /query response can be rendered as (ISSUE 6: the
#: 406 error body lists these so a client can correct its Accept header).
QUERY_RESULT_TYPES = (
    CONTENT_SPARQL_JSON,
    CONTENT_SPARQL_XML.split(";")[0],
    CONTENT_CSV.split(";")[0],
    CONTENT_TSV.split(";")[0],
    CONTENT_TEXT.split(";")[0],
    CONTENT_TURTLE.split(";")[0],
)

_WILDCARDS = ("*/*", "text/*", "application/*")


def acceptable(accept: Optional[str]) -> bool:
    """Can any /query rendering satisfy this Accept header?

    An absent header selects the default rendering; wildcards match it
    too.  Only a header that names *no* supported type and contains no
    usable wildcard is unacceptable — the endpoint answers 406 with the
    supported list rather than sending a representation the client
    declared it cannot process.
    """
    if not accept:
        return True
    for part in accept.split(","):
        media = part.split(";")[0].strip().lower()
        if not media:
            continue
        if media in _WILDCARDS or media in QUERY_RESULT_TYPES:
            return True
    return False


def error_json(
    code: str,
    message: str,
    status: int,
    retry_after: Optional[float] = None,
    **extra,
) -> Response:
    """A machine-readable error response (ISSUE 6): JSON body with a
    stable ``error`` code, plus a ``Retry-After`` header when the
    condition is transient (overload, timeout)."""
    payload = {"error": code, "message": message, **extra}
    headers = {}
    if retry_after is not None:
        payload["retry_after"] = retry_after
        # HTTP Retry-After takes integral seconds; never advertise 0.
        headers["Retry-After"] = str(max(1, int(retry_after)))
    return Response.json(payload, status=status, headers=headers)


# ---------------------------------------------------------------------------
# result renderings
# ---------------------------------------------------------------------------

#: Rows per emitted chunk on the streaming paths: large enough that the
#: chunked-transfer framing is noise, small enough that the first bytes
#: leave while late rows are still being serialized.
_STREAM_BATCH = 64


def _batched(lines: Iterator[str]) -> Iterator[str]:
    batch = []
    for line in lines:
        batch.append(line)
        if len(batch) >= _STREAM_BATCH:
            yield "".join(batch)
            batch.clear()
    if batch:
        yield "".join(batch)


def render_select_result(result) -> str:
    """SELECT results as a header + tab-separated rows (one per solution)."""
    return "".join(iter_select_result(result))


def iter_select_result(result) -> Iterator[str]:
    """The default text table, one chunk per row batch."""
    def lines() -> Iterator[str]:
        yield "\t".join(f"?{v.name}" for v in result.variables) + "\n"
        for row in result.rows():
            yield "\t".join(
                "" if term is None else term.n3() for term in row
            ) + "\n"

    return _batched(lines())


def _csv_field(term: Optional[Term]) -> str:
    """One RDF term as a SPARQL 1.1 CSV field: the plain value (URIs and
    lexical forms), quoted per RFC 4180 when it contains metacharacters."""
    if term is None:
        return ""
    if isinstance(term, URIRef):
        value = term.value
    elif isinstance(term, BNode):
        value = f"_:{term.label}"
    else:
        value = term.lexical
    if any(ch in value for ch in (",", '"', "\n", "\r")):
        return '"' + value.replace('"', '""') + '"'
    return value


def iter_select_csv(result) -> Iterator[str]:
    """SPARQL 1.1 Query Results CSV (plain values, CRLF line ends)."""
    def lines() -> Iterator[str]:
        yield ",".join(v.name for v in result.variables) + "\r\n"
        for row in result.rows():
            yield ",".join(_csv_field(term) for term in row) + "\r\n"

    return _batched(lines())


def _tsv_field(term: Optional[Term]) -> str:
    """One RDF term in SPARQL 1.1 TSV form: full N-Triples-style syntax
    (URIs bracketed, literals quoted and typed), empty for unbound."""
    return "" if term is None else term.n3()


def iter_select_tsv(result) -> Iterator[str]:
    """SPARQL 1.1 Query Results TSV (encoded terms, LF line ends)."""
    def lines() -> Iterator[str]:
        yield "\t".join(f"?{v.name}" for v in result.variables) + "\n"
        for row in result.rows():
            yield "\t".join(_tsv_field(term) for term in row) + "\n"

    return _batched(lines())


def iter_select_json(result) -> Iterator[str]:
    """SPARQL 1.1 JSON results, incrementally: the head, then the text of
    each binding object — ``result.json_bindings()``, which a kept
    translation writes straight from its rows —, then the tail, in
    chunks of :data:`_STREAM_BATCH` lines (a binding is one line)."""
    def chunks() -> Iterator[str]:
        texts = iter(result.json_bindings())
        head = json.dumps({"vars": [v.name for v in result.variables]})
        lines = ['{"head": ' + head + ', "results": {"bindings": [\n']
        separator = ""
        while True:
            room = _STREAM_BATCH - len(lines)
            batch = list(islice(texts, room))
            if batch:
                lines.append(separator + ",\n".join(batch))
                separator = ",\n"
            if len(batch) < room:  # the texts ended: the tail fits
                lines.append("\n]}}\n")
                yield "".join(lines)
                return
            yield "".join(lines)
            lines = []

    return chunks()


def render_ask_json(value: bool) -> dict:
    """ASK results as a SPARQL 1.1 Query Results JSON document."""
    return {"head": {}, "boolean": bool(value)}


# ---------------------------------------------------------------------------
# SPARQL 1.1 Query Results XML Format (ISSUE 5)
# ---------------------------------------------------------------------------

_XML_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n'
_SPARQL_NS = "http://www.w3.org/2005/sparql-results#"


def _term_xml(name: str, term: Term) -> str:
    """One ``<binding>`` element of the XML results format."""
    if isinstance(term, URIRef):
        body = f"<uri>{escape(term.value)}</uri>"
    elif isinstance(term, BNode):
        body = f"<bnode>{escape(term.label)}</bnode>"
    elif isinstance(term, Literal):
        attrs = ""
        if term.language is not None:
            attrs = f" xml:lang={quoteattr(term.language)}"
        elif term.datatype is not None:
            attrs = f" datatype={quoteattr(term.datatype)}"
        body = f"<literal{attrs}>{escape(term.lexical)}</literal>"
    else:
        raise TypeError(f"cannot serialize {type(term).__name__} to XML")
    return f"<binding name={quoteattr(name)}>{body}</binding>"


def iter_select_xml(result) -> Iterator[str]:
    """SPARQL 1.1 Query Results XML, serialized incrementally: the head,
    then one ``<result>`` element per solution."""
    def lines() -> Iterator[str]:
        yield _XML_HEADER
        yield f'<sparql xmlns="{_SPARQL_NS}">\n'
        yield "  <head>\n"
        for variable in result.variables:
            yield f"    <variable name={quoteattr(variable.name)}/>\n"
        yield "  </head>\n"
        yield "  <results>\n"
        for solution in result.solutions:
            bindings = "".join(
                _term_xml(v.name, t)
                for v, t in solution.items()
                if t is not None
            )
            yield f"    <result>{bindings}</result>\n"
        yield "  </results>\n"
        yield "</sparql>\n"

    return _batched(lines())


def render_ask_xml(value: bool) -> str:
    """ASK results as a SPARQL 1.1 Query Results XML document."""
    return (
        _XML_HEADER
        + f'<sparql xmlns="{_SPARQL_NS}">\n'
        + "  <head/>\n"
        + f"  <boolean>{'true' if value else 'false'}</boolean>\n"
        + "</sparql>\n"
    )
