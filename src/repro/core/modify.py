"""MODIFY → SQL translation (paper Section 5.2, Algorithm 2).

Steps, mirroring the paper exactly:

1. split the MODIFY into DELETE template, INSERT template, WHERE pattern;
2. build a SELECT from the WHERE pattern (:func:`where_query`: it
   projects what the templates read) and translate it to SQL
   (:mod:`repro.core.select_translate`); when the pattern falls outside
   the translatable fragment, evaluate it against the RDB dump instead
   (the one place that decides is :func:`repro.core.query.solve_query`);
3. for each result binding, take the DELETE DATA and INSERT DATA blocks
   the templates make under it (:func:`plan_binding`);
4. translate and execute them via Algorithm 1, interleaved per binding in
   one shared transaction (Algorithm 2 lines 7–13).

Step 3 binds, it does not build: what is kept of a MODIFY
(:class:`KeptModify`) holds a data template for each of its DELETE and
INSERT templates (:class:`~repro.core.common.PreparedData`), and a
binding binds the template triples that are ground under it to the kept
one — the values of the binding go in, as a request's values go into a
kept INSERT DATA block.  Where a binding grounds other triples than the
kept template was built for, or its subjects name other tables, the
template is built again.  The loop itself — evaluate WHERE, then per
binding plan against the current state and execute — is the relational
backend's (:meth:`repro.core.backend.RelationalBackend.execute_operation`);
a dry run is that loop with execution skipped.

The Section 5.2 optimization is applied per binding: when a delete triple
has a corresponding insert triple (same subject and property, different
object) and the property maps to a table attribute, the delete is omitted
and the insert translates to an ``UPDATE`` that overwrites the value
directly — "the delete would set an attribute value to NULL and the insert
sets the same attribute to a new value, therefore the delete is redundant".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Optional, Tuple

from ..rdb.engine import Database
from ..rdf.namespace import RDF_TYPE
from ..rdf.terms import Triple, Variable
from ..r3m.model import DatabaseMapping
from ..sparql.algebra import Solution, initial_solution
from ..sparql.algebra_ast import GroupPattern
from ..sparql.query_ast import SelectQuery
from ..sparql.update_ast import Modify
from ..sql import ast
from .common import PreparedData
from .delete_data import DeleteTemplate
from .insert_data import InsertTemplate
from .query import solve_query

__all__ = [
    "BindingStep",
    "KeptModify",
    "plan_binding",
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


class KeptModify(NamedTuple):
    """What is kept of a MODIFY between executions: the backend's kept
    translation of its WHERE (:func:`where_query`; None where no backend
    keeps one) and a data template slot per template."""

    where: Any
    delete: PreparedData
    insert: PreparedData

    @classmethod
    def of(cls, operation: Modify, where: Any = None) -> "KeptModify":
        return cls(
            where,
            PreparedData(operation.delete_template, DeleteTemplate),
            PreparedData(operation.insert_template, InsertTemplate),
        )


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


def plan_binding(
    mapping: DatabaseMapping,
    db: Database,
    operation: Modify,
    solution: Solution,
    optimize_redundant_deletes: bool = True,
    kept: Optional[KeptModify] = None,
    version: Any = None,
) -> BindingStep:
    """Algorithm 2 lines 8–11 for one binding: the DELETE DATA / INSERT
    DATA pair the templates make under ``solution``, translated against
    the current state through the templates ``kept`` for ``version`` (a
    throwaway pair where none is given)."""
    if kept is None:
        kept = KeptModify.of(operation)
    deletes = _ground(operation.delete_template, solution)
    inserts = _ground(operation.insert_template, solution)

    step = BindingStep(binding=solution)
    if optimize_redundant_deletes:
        deletes, step.optimized_away = _drop_redundant_deletes(
            mapping, deletes, inserts, solution
        )

    if deletes:
        step.delete_statements = kept.delete.bind(
            mapping, db, version, solution, deletes
        )
    if inserts:
        step.insert_statements = kept.insert.bind(
            mapping, db, version, solution, inserts,
            # Replacement semantics: the paired delete was dropped, so the
            # insert may overwrite the existing value.
            allow_overwrite=True,
        )
    return step


def _ground(
    template: Tuple[Triple, ...], solution: Solution
) -> Tuple[Triple, ...]:
    """The template triples ``solution`` binds every variable of — the
    ones a binding instantiates, per SPARQL semantics — or the template
    itself when it binds them all."""
    ground = tuple(
        triple for triple in template
        if all(not isinstance(term, Variable) or term in solution for term in triple)
    )
    return template if len(ground) == len(template) else ground


def _drop_redundant_deletes(
    mapping: DatabaseMapping,
    deletes: Tuple[Triple, ...],
    inserts: Tuple[Triple, ...],
    solution: Solution,
) -> Tuple[Tuple[Triple, ...], int]:
    """Omit delete triples whose (subject, property) under ``solution``
    also appears in the inserts and maps to a plain attribute (link-table
    pairs are keyed by subject *and* object, so their deletes are never
    redundant)."""
    value = solution.get
    insert_keys = {(value(s, s), value(p, p)) for s, p, _ in inserts}
    kept: List[Triple] = []
    for triple in deletes:
        subject, predicate, _ = triple
        predicate = value(predicate, predicate)
        if (
            predicate != RDF_TYPE
            and mapping.link_for_property(predicate) is None
            and (value(subject, subject), predicate) in insert_keys
        ):
            continue
        kept.append(triple)
    dropped = len(deletes) - len(kept)
    return (tuple(kept) if dropped else deletes), dropped
