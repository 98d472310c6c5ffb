"""A kept translation's row functions: its rows → solutions, or → JSON.

What a row of a translated query's SQL means is read off the translation
once, as its *members* (:func:`answer_members`).  Two functions are
generated from them with :class:`~repro.rdb.expressions.Source`, each on
its first use: the answer step mints one solution per row, the JSON
writer writes the text ``json.dumps`` makes of it without a term.  What
generation could not do — a URI minted from several attributes — is
refused while the members are built, i.e. at translation time, so the
query falls back to the dump before its SQL runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import UnsupportedPatternError
from ..rdb.engine import Database
from ..rdb.expressions import Function, ScopeLayout, Source
from ..r3m.model import TableMapping
from ..r3m.uripattern import URIPattern
from ..rdf.terms import Literal, URIRef, Variable
from ..sparql import algebra_ast as alg
from ..sparql.algebra import Solution
from ..sparql.engine import SelectResult, term_json
from ..sparql.expressions import filter_accepts
from .common import LiteralForm, literal_form

if TYPE_CHECKING:
    from .select_translate import TranslatedSelect

__all__ = ["BindingSite", "SelectRows", "answer_members", "answer_step", "json_writer"]

#: The answer step: (the statement's rows, the bindings it was bound
#: with) → solutions.
AnswerStep = Callable[[Sequence[Tuple[Any, ...]], Solution], List[Solution]]

#: The JSON writer: the same arguments → the SPARQL JSON text of each
#: solution the answer step would return.
JsonWriter = Callable[[Sequence[Tuple[Any, ...]], Solution], List[str]]


@dataclass
class BindingSite:
    """Where a variable's value lives in the SQL result."""

    alias: str
    column: str
    kind: str  # 'data' | 'object' | 'subject'
    table: TableMapping  # for 'object': the referenced table; else own table
    select_index: int = -1
    #: lexical transform for URI-valued data attributes (foaf:mbox)
    value_pattern: Optional[object] = None
    #: the column may be NULL in a row (OPTIONAL left the variable unbound)
    nullable: bool = False


#: What both row functions write, per distinct variable in projection
#: order: the variable, its site (None: a placeholder read from the
#: seed) and, for a literal site, its column's form.
Members = Tuple[Tuple[Variable, Optional[BindingSite], Optional[LiteralForm]], ...]


class SelectRows:
    """A SELECT answered by the rows of its translation.  The reader
    picks what they become: solutions (:meth:`result`, the answer step),
    or the SPARQL JSON text of each (:meth:`json_bindings`, the
    translation's writer) without a term in between."""

    __slots__ = ("translation", "rows", "seed")

    def __init__(
        self,
        translation: TranslatedSelect,
        rows: Sequence[Tuple[Any, ...]],
        seed: Solution,
    ) -> None:
        self.translation = translation
        self.rows = rows
        self.seed = seed

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return self.translation.variables

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def solutions(self) -> List[Solution]:
        """The rows' solutions, made by the answer step on every read."""
        return self.translation.answer(self.rows, self.seed)

    def result(self) -> SelectResult:
        return SelectResult(self.variables, self.solutions)

    def json_bindings(self) -> List[str]:
        """What :meth:`SelectResult.json_bindings` makes of
        :attr:`solutions`, written from the rows."""
        return self.translation.write_json(self.rows, self.seed)


def answer_members(
    db: Database,
    sites: Dict[Variable, BindingSite],
    seeded: Solution,
    wanted: Sequence[Variable],
) -> Members:
    """The members of the ``wanted`` variables, read off the schema at
    translation time; a variable with neither a site nor a placeholder
    binding stays unbound.  Raises UnsupportedPatternError for a URI
    site whose pattern mints from several attributes."""
    members = []
    for var in dict.fromkeys(wanted):
        site = sites.get(var)
        if site is not None:
            pattern = _uri_pattern(site)
            if pattern is not None and pattern.affixes is None:
                raise UnsupportedPatternError(
                    f"{pattern!r} mints URIs from several attributes"
                )
            members.append((var, site, _literal_form(db, site)))
        elif var in seeded:
            members.append((var, None, None))
    return tuple(members)


def answer_step(members: Members, post_filters: Sequence[alg.Expr]) -> AnswerStep:
    """Generate ``answer(rows, seed)``: per row, the solution of the
    members' variables in that order — a site's column value minted or
    decoded (absent where it is NULL), a placeholder read from ``seed``
    once per call — kept when every residual filter accepts it."""
    source = Source()
    fn = source.function("answer", "rows, seed", ScopeLayout(()))
    head: List[str] = []
    #: (key, value code, and for a column that may be NULL the row index
    #: the code's ``v`` is read from)
    entries: List[Tuple[str, str, Optional[int]]] = []
    for var, site, form in members:
        key = fn.constant(var)
        if site is None:
            name = fn.temp()
            head.append(f"{name} = seed[{key}]")
            entries.append((key, name, None))
            continue
        index = site.select_index if site.nullable else None
        value = "v" if site.nullable else f"r[{site.select_index}]"
        entries.append((key, _decoder_code(fn, site, form, value), index))
    tests = [
        f"{fn.helper('accepts', filter_accepts)}({fn.constant(expr)}, s)"
        for expr in post_filters
    ]
    if tests or any(index is not None for _, _, index in entries):
        steps = [(f"s[{key}] = {code}", index) for key, code, index in entries]
        keep = ["out.append(s)"]
        if tests:
            keep = [f"if {' and '.join(tests)}:", "    out.append(s)"]
        body = _row_loop("s = {}", steps, keep)
    else:
        items = ", ".join(f"{key}: {code}" for key, code, _ in entries)
        body = [f"return [{{{items}}} for r in rows]"]
    fn.close(head + body)
    return source.build()["answer"]


def _decoder_code(
    fn: Function, site: BindingSite, form: Optional[LiteralForm], value: str
) -> str:
    """Code minting a site's term from its column ``value``: an instance
    URI as the pattern's prefix + value + suffix (``form`` None), a
    literal from the column type's lexical form and datatype."""
    if form is None:
        uri = fn.helper("uri", URIRef.canonical)
        return f"{uri}({_uri_code(fn, site, value)})"
    literal = fn.helper("literal", Literal.canonical)
    lexical = f"{_lexical_helper(fn, form)}({value})"
    if form.datatype_of is not None:
        text = fn.temp()
        datatype_of = _datatype_helper(fn, form)
        return f"{literal}(({text} := {lexical}), {datatype_of}({text}))"
    if form.datatype is None:
        return f"{literal}({lexical})"
    return f"{literal}({lexical}, {fn.constant(form.datatype)})"


def json_writer(members: Members) -> JsonWriter:
    """Generate ``json(rows, seed)``: per row, the text ``json.dumps``
    makes of the solution the answer step returns for it — a SPARQL JSON
    binding object of ``members`` in that order — written straight from
    the row: a URI site as ``esc(prefix + value + suffix)``, a literal
    site as its lexical form plus the column's datatype, a NULL left
    out, a placeholder written once per call from ``seed``.  ``esc`` is
    the string encoder ``json.dumps`` uses."""
    source = Source()
    fn = source.function("json", "rows, seed", ScopeLayout(()))
    esc = fn.helper("esc", encode_basestring_ascii)
    head: List[str] = []
    #: per member: its ``"name": {...}`` as parts of an f-string — text
    #: or code —, and the row index a NULL leaves it out at (its code
    #: reads ``v``)
    written: List[Tuple[List[Tuple[bool, str]], Optional[int]]] = []
    for var, site, form in members:
        parts = [(False, encode_basestring_ascii(var.name) + ": ")]
        if site is None:
            name = fn.temp()
            dumps = fn.helper("dumps", json.dumps)
            term = fn.helper("term_json", term_json)
            head.append(f"{name} = {dumps}({term}(seed[{fn.constant(var)}]))")
            parts.append((True, name))
            written.append((parts, None))
            continue
        index = site.select_index
        value = "v" if site.nullable else f"r[{index}]"
        if form is None:
            parts += [
                (False, '{"type": "uri", "value": '),
                (True, f"{esc}({_uri_code(fn, site, value)})"),
            ]
        else:
            lexical = f"{_lexical_helper(fn, form)}({value})"
            parts.append((False, '{"type": "literal", "value": '))
            if form.datatype_of is not None:
                text = fn.temp()
                datatype = f"{_datatype_helper(fn, form)}({text})"
                parts += [
                    (True, f"{esc}(({text} := {lexical}))"),
                    (False, ', "datatype": '),
                    (True, f"{esc}({datatype})"),
                ]
            else:
                parts.append((True, f"{esc}({lexical})"))
                if form.datatype is not None:
                    datatype = encode_basestring_ascii(form.datatype)
                    parts.append((False, f', "datatype": {datatype}'))
        parts.append((False, "}"))
        written.append((parts, index if site.nullable else None))
    if all(index is None for _, index in written):
        parts = [(False, "{")]
        for position, (member, _) in enumerate(written):
            parts += [(False, ", ")] if position else []
            parts += member
        parts.append((False, "}"))
        body = [f"return [{_f_string(fn, parts)} for r in rows]"]
    else:
        # every member is written as ", " + member; the first separator
        # is cut when the object is closed
        appends = [
            (f"s += {_f_string(fn, [(False, ', '), *member])}", index)
            for member, index in written
        ]
        close = f"out.append({fn.constant('{')} + s[2:] + {fn.constant('}')})"
        body = _row_loop('s = ""', appends, [close])
    fn.close(head + body)
    return source.build()["json"]


def _row_loop(
    start: str, steps: Sequence[Tuple[str, Optional[int]]], end: Sequence[str]
) -> List[str]:
    """The body of a row function that builds ``out`` row by row: per
    row ``start``, each step — skipped where the row's column at its
    index (read into ``v``) is NULL —, then ``end``."""
    loop = [start]
    for step, index in steps:
        if index is not None:
            loop.append(f"if (v := r[{index}]) is not None:")
            step = f"    {step}"
        loop.append(step)
    loop += end
    body = ["out = []", "for r in rows:", *(f"    {line}" for line in loop)]
    return body + ["return out"]


def _f_string(fn: Function, parts: Sequence[Tuple[bool, str]]) -> str:
    """A single-quoted f-string of ``parts`` — code, or text, each run of
    which becomes one constant."""
    fields: List[str] = []
    text = ""
    for is_code, part in parts:
        if not is_code:
            text += part
            continue
        if text:
            fields.append(fn.constant(text))
            text = ""
        fields.append(part)
    if text:
        fields.append(fn.constant(text))
    return "f'" + "".join(f"{{{field}}}" for field in fields) + "'"


def _uri_pattern(site: BindingSite) -> Optional[URIPattern]:
    """The pattern a site's column mints URIs with; None: a literal."""
    return site.value_pattern if site.kind == "data" else site.table.uri_pattern


def _literal_form(db: Database, site: BindingSite) -> Optional[LiteralForm]:
    """How a site's column reads as a literal; None: it mints URIs."""
    if _uri_pattern(site) is not None:
        return None
    return literal_form(db.table(site.table.table_name).column(site.column).sql_type)


def _uri_code(fn: Function, site: BindingSite, value: str) -> str:
    """Code of the instance URI a site's column ``value`` mints: the
    pattern's prefix + value + suffix (a double-quoted f-string)."""
    prefix, suffix = (fn.constant(text) for text in _uri_pattern(site).affixes)
    return f'f"{{{prefix}}}{{{value}}}{{{suffix}}}"'


def _lexical_helper(fn: Function, form: LiteralForm) -> str:
    return fn.helper(form.lexical.__name__.lstrip("_"), form.lexical)


def _datatype_helper(fn: Function, form: LiteralForm) -> str:
    return fn.helper(form.datatype_of.__name__.lstrip("_"), form.datatype_of)
