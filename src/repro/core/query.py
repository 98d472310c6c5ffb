"""SPARQL queries over the relational database (the read path).

The paper's prototype had query support "under development" (Section 6);
this module completes it.  WHERE patterns inside the translatable fragment
run as a single translated SQL statement; everything else falls back to
evaluating over the RDB dump, so all of SPARQL keeps working (translation
is an optimization, never a semantic restriction).

That translate-or-dump decision is made in exactly one place,
:func:`solve_pattern`.  One-shot queries (:func:`execute_query`), MODIFY's
WHERE (:func:`repro.core.modify.bindings_for_pattern`) and prepared
queries (:class:`repro.core.backend._PreparedRdbQuery`, which hands back
the translation it cached per mapping/schema version) are all callers of
it: pattern translation depends only on the mapping and the schema, never
on row data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..errors import UnsupportedPatternError
from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..r3m.model import DatabaseMapping
from ..sparql.algebra import Solution, evaluate_pattern, instantiate
from ..sparql.algebra_ast import GroupPattern
from ..sparql.engine import SelectResult, apply_select_modifiers
from ..sparql.query_ast import AskQuery, ConstructQuery, Query, SelectQuery
from ..sparql.query_parser import parse_query
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
    select_sql: Optional[str] = None


def solve_pattern(
    mapping: DatabaseMapping,
    db: Database,
    pattern: GroupPattern,
    force_fallback: bool = False,
    translated: Optional[TranslatedSelect] = None,
) -> Tuple[List[Solution], Optional[TranslatedSelect]]:
    """Evaluate a WHERE pattern on the RDB.

    Returns the solutions and the translation that produced them, or None
    when the pattern was evaluated natively over the RDF dump — because it
    falls outside the translatable fragment, or ``force_fallback`` asked
    for the reference evaluation.  A caller that kept the translation of
    an earlier call for the same mapping and schema passes it back as
    ``translated`` to skip translating again.
    """
    if force_fallback:
        translated = None
    elif translated is None:
        try:
            # Under the planner lock: DDL holds it across its catalog
            # mutation, so translation (pure schema/mapping reads, on the
            # lock-free read tier) never sees a half-applied change.
            with db.planner.lock:
                translated = translate_pattern(mapping, db, pattern)
        except UnsupportedPatternError:
            pass
    if translated is not None:
        return translated.execute(), translated
    return evaluate_pattern(dump_database(mapping, db), pattern), None


def outcome_from_solutions(
    q: Query,
    solutions: List[Solution],
    translated: Optional[TranslatedSelect] = None,
) -> QueryOutcome:
    """Shape :func:`solve_pattern`'s answer into the query form's result."""
    if isinstance(q, SelectQuery):
        result = apply_select_modifiers(q, solutions)
    elif isinstance(q, AskQuery):
        result = bool(solutions)
    elif isinstance(q, ConstructQuery):
        result = Graph()
        for solution in solutions:
            result.add_all(instantiate(q.template, solution))
    else:
        raise TypeError(f"unknown query type {type(q).__name__}")
    if translated is None:
        return QueryOutcome(result=result, used_sql=False)
    return QueryOutcome(result=result, used_sql=True, select_sql=translated.sql())


def execute_query(
    mapping: DatabaseMapping,
    db: Database,
    q: Union[str, Query],
    prefixes: Optional[PrefixMap] = None,
    force_fallback: bool = False,
) -> QueryOutcome:
    """Run a SPARQL query against the mapped database."""
    if isinstance(q, str):
        q = parse_query(q, prefixes=prefixes)
    return outcome_from_solutions(
        q, *solve_pattern(mapping, db, q.where, force_fallback=force_fallback)
    )
