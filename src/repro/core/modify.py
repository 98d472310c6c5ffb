"""MODIFY → SQL translation (paper Section 5.2, Algorithm 2).

Steps, mirroring the paper exactly:

1. split the MODIFY into DELETE template, INSERT template, WHERE pattern;
2. build a SELECT from the WHERE pattern (:func:`where_query`: it
   projects what the templates read) and translate it to SQL
   (:mod:`repro.core.select_translate`); when the pattern falls outside
   the translatable fragment, evaluate it against the RDB dump instead
   (the one place that decides is :func:`repro.core.query.solve_query`);
3. for each result binding, instantiate one DELETE DATA and one INSERT
   DATA operation from the templates;
4. translate and execute them via Algorithm 1, interleaved per binding in
   one shared transaction (Algorithm 2 lines 7–13).

The Section 5.2 optimization is applied per binding: when a delete triple
has a corresponding insert triple (same subject and property, different
object) and the property maps to a table attribute, the delete is omitted
and the insert translates to an ``UPDATE`` that overwrites the value
directly — "the delete would set an attribute value to NULL and the insert
sets the same attribute to a new value, therefore the delete is redundant".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..rdb.engine import Database
from ..rdf.namespace import RDF
from ..rdf.terms import Triple, Variable
from ..r3m.model import DatabaseMapping
from ..sparql.algebra import Solution, initial_solution, instantiate
from ..sparql.algebra_ast import GroupPattern
from ..sparql.query_ast import SelectQuery
from ..sparql.update_ast import Modify
from ..sql import ast
from ..sql.render import render
from .delete_data import translate_delete_data
from .insert_data import translate_insert_data
from .query import solve_query

__all__ = [
    "ModifyPlan",
    "BindingStep",
    "plan_modify",
    "bindings_for_pattern",
    "where_query",
]


@dataclass
class BindingStep:
    """The work for one WHERE-result binding (Algorithm 2 lines 8–11)."""

    binding: Solution
    delete_statements: List[ast.Bound] = field(default_factory=list)
    insert_statements: List[ast.Bound] = field(default_factory=list)
    #: number of delete triples dropped by the redundancy optimization
    optimized_away: int = 0

    def all_statements(self) -> List[ast.Bound]:
        return [*self.delete_statements, *self.insert_statements]


@dataclass
class ModifyPlan:
    """The translated MODIFY: per-binding statement batches plus metadata."""

    steps: List[BindingStep]
    used_sql_select: bool
    #: the translated SELECT of the WHERE pattern (None: dump path)
    select: Optional[ast.Bound] = None

    @property
    def select_sql(self) -> Optional[str]:
        return None if self.select is None else render(self.select)

    def all_statements(self) -> List[ast.Bound]:
        return [s for step in self.steps for s in step.all_statements()]


def where_query(operation: Modify) -> SelectQuery:
    """Algorithm 2's SELECT: "The WHERE part is used to create a SPARQL
    SELECT query that retrieves the data needed for the DELETE and INSERT
    templates" — it projects the variables the templates read."""
    templates = operation.delete_template + operation.insert_template
    return SelectQuery(
        _sorted({v for triple in templates for v in triple.variables()}),
        operation.where,
    )


def bindings_for_pattern(
    mapping: DatabaseMapping,
    db: Database,
    pattern: GroupPattern,
    force_fallback: bool = False,
    bindings: Optional[Solution] = None,
) -> Tuple[List[Solution], bool, Optional[ast.Bound]]:
    """Evaluate a WHERE pattern on the RDB (under ``bindings``, if any):
    every solution binds every variable it can.

    Returns (solutions, used_sql_translation, translated SELECT — render
    it for the SQL text); how the pattern is evaluated is
    :func:`repro.core.query.solve_query`'s decision.
    """
    every = pattern.all_variables() | set(initial_solution(bindings))
    result, select, _ = solve_query(
        mapping, db, SelectQuery(_sorted(every), pattern),
        force_fallback=force_fallback, bindings=bindings,
    )
    return result.solutions, select is not None, select


def _sorted(variables) -> Tuple[Variable, ...]:
    return tuple(sorted(variables, key=lambda v: v.name))


def plan_modify(
    mapping: DatabaseMapping,
    db: Database,
    operation: Modify,
    optimize_redundant_deletes: bool = True,
    force_fallback: bool = False,
) -> ModifyPlan:
    """Translate a MODIFY operation against the *current* database state.

    Note Algorithm 2 interleaves translation and execution per binding;
    this function translates all bindings against the current state and is
    what the mediator uses for dry-run display.  The mediator's execution
    path re-plans each binding after executing the previous one, matching
    the paper's loop exactly (see ``OntoAccess.update``).
    """
    result, select, _ = solve_query(
        mapping,
        db,
        where_query(operation),
        force_fallback=force_fallback,
        bindings=operation.bindings,
    )
    steps = [
        plan_binding(
            mapping,
            db,
            operation,
            solution,
            optimize_redundant_deletes=optimize_redundant_deletes,
        )
        for solution in result.solutions
    ]
    return ModifyPlan(
        steps=steps, used_sql_select=select is not None, select=select
    )


def plan_binding(
    mapping: DatabaseMapping,
    db: Database,
    operation: Modify,
    solution: Solution,
    optimize_redundant_deletes: bool = True,
) -> BindingStep:
    """Algorithm 2 lines 8–11 for one binding: build and translate the
    DELETE DATA / INSERT DATA pair."""
    delete_triples = instantiate(operation.delete_template, solution)
    insert_triples = instantiate(operation.insert_template, solution)

    step = BindingStep(binding=solution)
    if optimize_redundant_deletes:
        delete_triples, step.optimized_away = _drop_redundant_deletes(
            mapping, delete_triples, insert_triples
        )

    if delete_triples:
        step.delete_statements = translate_delete_data(
            mapping, db, tuple(delete_triples)
        )
    if insert_triples:
        step.insert_statements = translate_insert_data(
            mapping,
            db,
            tuple(insert_triples),
            # Replacement semantics: the paired delete was dropped, so the
            # insert may overwrite the existing value.
            allow_overwrite=True,
        )
    return step


def _drop_redundant_deletes(
    mapping: DatabaseMapping,
    deletes: List[Triple],
    inserts: List[Triple],
) -> Tuple[List[Triple], int]:
    """Omit delete triples whose (subject, property) also appears in the
    inserts and maps to a plain attribute (link-table pairs are keyed by
    subject *and* object, so their deletes are never redundant)."""
    insert_keys = {(t.subject, t.predicate) for t in inserts}
    kept: List[Triple] = []
    dropped = 0
    for triple in deletes:
        predicate = triple.predicate
        is_attribute = (
            predicate != RDF.type
            and mapping.link_for_property(predicate) is None
        )
        if (
            is_attribute
            and (triple.subject, predicate) in insert_keys
        ):
            dropped += 1
            continue
        kept.append(triple)
    return kept, dropped
