"""SPARQL queries over the relational database (the read path).

The paper's prototype had query support "under development" (Section 6);
this module completes it.  WHERE patterns inside the translatable fragment
run as a single translated SQL statement; everything else falls back to
evaluating over the RDB dump, so all of SPARQL keeps working (translation
is an optimization, never a semantic restriction).

That translate-or-dump decision is made in exactly one place,
:func:`solve_pattern`.  A parsed query (:func:`execute_query`), MODIFY's
WHERE (:func:`repro.core.modify.bindings_for_pattern`) and prepared
operations — every text sent to a session is one — (:class:`repro.core.
backend.PreparedPattern`, which hands back the translation it kept for
the template) are all callers of it: pattern
translation depends only on the mapping and the schema, never on row
data — and, for a template, on what kind of term each placeholder is
bound to, never on the term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..errors import UnsupportedPatternError
from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..r3m.model import DatabaseMapping
from ..sparql.algebra import Solution, evaluate_pattern
from ..sparql.algebra_ast import GroupPattern
from ..sparql.engine import SelectResult, shape_result
from ..sparql.query_ast import Query
from ..sparql.query_parser import parse_query
from ..sql import ast
from ..sql.render import render
from .dump import dump_database
from .select_translate import TranslatedSelect, translate_pattern

__all__ = [
    "QueryOutcome",
    "execute_query",
    "outcome_from_solutions",
    "solve_pattern",
]


@dataclass
class QueryOutcome:
    """A query result plus how it was obtained (for benchmarks/tests)."""

    result: Union[SelectResult, bool, Graph]
    used_sql: bool
    #: the translated SELECT that produced the result (None: dump path)
    statement: Optional[ast.Bound] = None

    @property
    def select_sql(self) -> Optional[str]:
        """The SQL text of :attr:`statement`, rendered when read."""
        return None if self.statement is None else render(self.statement)


def solve_pattern(
    mapping: DatabaseMapping,
    db: Database,
    pattern: GroupPattern,
    force_fallback: bool = False,
    bindings: Optional[Solution] = None,
    kept: Optional[TranslatedSelect] = None,
) -> Tuple[List[Solution], Optional[ast.Bound], Optional[TranslatedSelect]]:
    """Evaluate a WHERE pattern on the RDB.

    Returns the solutions, the SQL statement that produced them and its
    translation — or None for both when the pattern was evaluated
    natively over the RDF dump, because it falls outside the translatable
    fragment or ``force_fallback`` asked for the reference evaluation.

    ``bindings`` are initial bindings: the pattern is a template whose
    bound variables read as the terms given, and every solution extends
    them.  A caller that kept the translation of an earlier call for the
    same template, mapping and schema passes it back as ``kept``; it is
    bound again instead of translating, unless these bindings are of
    another kind than the ones it was made for — then the pattern is
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
                    translated = translate_pattern(mapping, db, pattern, bindings)
                statement = translated.statement
            except UnsupportedPatternError:
                pass
    if translated is not None:
        return translated.execute(statement, bindings), statement, translated
    solutions = evaluate_pattern(dump_database(mapping, db), pattern, bindings)
    return solutions, None, None


def outcome_from_solutions(
    q: Query,
    solutions: List[Solution],
    statement: Optional[ast.Bound] = None,
) -> QueryOutcome:
    """Shape :func:`solve_pattern`'s answer into the query form's result."""
    return QueryOutcome(
        result=shape_result(q, solutions),
        used_sql=statement is not None,
        statement=statement,
    )


def execute_query(
    mapping: DatabaseMapping,
    db: Database,
    q: Union[str, Query],
    prefixes: Optional[PrefixMap] = None,
    force_fallback: bool = False,
    bindings: Optional[Solution] = None,
) -> QueryOutcome:
    """Run a SPARQL query against the mapped database."""
    if isinstance(q, str):
        q = parse_query(q, prefixes=prefixes)
    solutions, statement, _ = solve_pattern(
        mapping, db, q.where, force_fallback=force_fallback, bindings=bindings
    )
    return outcome_from_solutions(q, solutions, statement)
