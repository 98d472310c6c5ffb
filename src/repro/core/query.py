"""SPARQL queries over the relational database (the read path).

The paper's prototype had query support "under development" (Section 6);
this module completes it.  Queries whose WHERE pattern is inside the
translatable fragment run as a single translated SQL statement — with the
solution modifiers SQL applies as SPARQL does, and an answer step that
turns the surviving rows into the query's solutions once; everything else
falls back to evaluating over the RDB dump, so all of SPARQL keeps working
(translation is an optimization, never a semantic restriction).

That translate-or-dump decision is made in exactly one place,
:func:`solve_query`.  A parsed query (:func:`execute_query`), MODIFY's
WHERE (the SELECT Algorithm 2 builds from it, :func:`repro.core.modify.
where_query`) and prepared operations — every text sent to a session is
one — (:class:`repro.core.backend.PreparedPattern`, which hands back the
translation it kept for the template) are all callers of it: translation
depends only on the query, the mapping and the schema, never on row
data — and, for a template, on what kind of term each placeholder is
bound to, never on the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..errors import UnsupportedPatternError
from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..r3m.model import DatabaseMapping
from ..sparql.algebra import Solution, evaluate_pattern
from ..sparql.engine import SelectResult, shape_result
from ..sparql.query_ast import Query
from ..sparql.query_parser import parse_query
from ..sql import ast
from ..sql.render import render
from .answer import SelectRows
from .dump import dump_database
from .select_translate import TranslatedSelect, translate_query

__all__ = [
    "QueryOutcome",
    "execute_query",
    "solve_query",
]

#: What a query answers: SELECT solutions, an ASK's truth, a CONSTRUCT graph.
Answer = Union[SelectResult, bool, Graph]


@dataclass
class QueryOutcome:
    """A query's answer plus how it was obtained (for benchmarks/tests).

    ``answer`` is what evaluation produced: for a SELECT a kept
    translation answered with its rows, those rows
    (:class:`~repro.core.answer.SelectRows`), which the
    endpoint's JSON route writes as text.  :attr:`result` is the answer
    in terms, built by :meth:`built` — which every in-process entry
    point calls before it returns, so the answer step is part of the
    call a caller times."""

    answer: Union[Answer, SelectRows]
    used_sql: bool
    #: the translated SELECT that produced the result (None: dump path)
    statement: Optional[ast.Bound] = None

    @property
    def result(self) -> Answer:
        return self.built().answer

    def built(self) -> "QueryOutcome":
        """This outcome, its rows (if any) turned into solutions now."""
        answer = self.answer
        if type(answer) is SelectRows:
            self.answer = answer.result()
        return self

    @property
    def select_sql(self) -> Optional[str]:
        """The SQL text of :attr:`statement`, rendered when read — with
        the ``ORDER BY`` / ``LIMIT`` / ``OFFSET`` that went into it."""
        return None if self.statement is None else render(self.statement)


def solve_query(
    mapping: DatabaseMapping,
    db: Database,
    query: Query,
    force_fallback: bool = False,
    bindings: Optional[Solution] = None,
    kept: Optional[TranslatedSelect] = None,
) -> Tuple[
    Union[Answer, SelectRows], Optional[ast.Bound], Optional[TranslatedSelect]
]:
    """Answer a query on the RDB.

    Returns the answer (a SELECT translated with all its modifiers:
    its rows, :class:`~repro.core.answer.SelectRows`), the SQL
    statement that produced it and its
    translation — or None for both when the pattern was evaluated
    natively over the RDF dump, because it falls outside the translatable
    fragment or ``force_fallback`` asked for the reference evaluation.

    ``bindings`` are initial bindings: the pattern is a template whose
    bound variables read as the terms given, and every solution extends
    them.  A caller that kept the translation of an earlier call for the
    same query, mapping and schema passes it back as ``kept``; it is
    bound again instead of translating, unless these bindings are of
    another kind than the ones it was made for — then the query is
    translated with them, as if nothing had been kept.
    """
    statement = translated = None
    if not force_fallback:
        if kept is not None:
            statement = kept.bind(bindings or {})
        if statement is not None:
            translated = kept
        else:
            try:
                # Under the planner lock: DDL holds it across its catalog
                # mutation, so translation (pure schema/mapping reads, on
                # the lock-free read tier) never sees a half-applied change.
                with db.planner.lock:
                    translated = translate_query(mapping, db, query, bindings)
                statement = translated.statement
            except UnsupportedPatternError:
                pass
    if translated is not None:
        return translated.execute(statement, bindings), statement, translated
    solutions = evaluate_pattern(dump_database(mapping, db), query.where, bindings)
    return shape_result(query, solutions), None, None


def execute_query(
    mapping: DatabaseMapping,
    db: Database,
    q: Union[str, Query],
    prefixes: Optional[PrefixMap] = None,
    force_fallback: bool = False,
    bindings: Optional[Solution] = None,
) -> QueryOutcome:
    """Run a SPARQL query against the mapped database; the outcome's
    result is built before this returns."""
    if isinstance(q, str):
        q = parse_query(q, prefixes=prefixes)
    result, statement, _ = solve_query(
        mapping, db, q, force_fallback=force_fallback, bindings=bindings
    )
    return QueryOutcome(result, statement is not None, statement).built()
