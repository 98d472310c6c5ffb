"""AST for SPARQL/Update operations (2008 W3C member submission).

The paper translates three operations (Section 5):

* ``INSERT DATA { triples }``   — :class:`InsertData`
* ``DELETE DATA { triples }``   — :class:`DeleteData`
* ``MODIFY DELETE {t} INSERT {t} WHERE {p}`` — :class:`Modify`

The submission (and SPARQL 1.1 later) also allows the DELETE-only and
INSERT-only template forms ``DELETE {t} WHERE {p}`` / ``INSERT {t} WHERE
{p}``; these parse to :class:`Modify` with an empty counterpart template.
``CLEAR`` is supported as the graph-management extension the submission
defines (useful in tests and examples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..rdf.terms import Term, Triple, Variable
from .algebra_ast import GroupPattern

__all__ = ["InsertData", "DeleteData", "Modify", "Clear", "UpdateOperation", "UpdateRequest"]


@dataclass(frozen=True)
class InsertData:
    """Insert a set of concrete triples."""

    triples: Tuple[Triple, ...]


@dataclass(frozen=True)
class DeleteData:
    """Remove a set of concrete triples."""

    triples: Tuple[Triple, ...]


@dataclass(frozen=True)
class Modify:
    """Atomic delete+insert driven by a WHERE pattern (paper Listing 8).

    ``bindings`` are initial bindings of the WHERE pattern — how a
    prepared MODIFY's placeholders reach it: every solution extends
    them, so the templates see them bound as well (see
    :func:`repro.sparql.algebra.evaluate_pattern`).
    """

    delete_template: Tuple[Triple, ...]
    insert_template: Tuple[Triple, ...]
    where: GroupPattern
    bindings: Optional[Dict[Variable, Term]] = field(default=None, compare=False)


@dataclass(frozen=True)
class Clear:
    """Remove all triples (graph-management extension)."""


UpdateOperation = Union[InsertData, DeleteData, Modify, Clear]


@dataclass(frozen=True)
class UpdateRequest:
    """One request: a sequence of operations sharing a prologue.

    The member submission allows several operations per request; the paper
    executes each operation in its own transaction, which the mediator
    mirrors.
    """

    operations: Tuple[UpdateOperation, ...]
