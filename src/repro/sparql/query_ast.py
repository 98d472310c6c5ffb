"""AST for SPARQL query forms: SELECT, ASK, CONSTRUCT."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..rdf.terms import Placeholder, Triple, Variable
from .algebra_ast import Expr, GroupPattern

__all__ = ["SelectQuery", "AskQuery", "ConstructQuery", "OrderCondition", "Query"]


@dataclass(frozen=True)
class OrderCondition:
    expression: Expr
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    """``SELECT [DISTINCT] ?v ... WHERE { ... }`` with solution modifiers.

    ``variables`` empty means ``SELECT *`` (all pattern variables but
    the placeholders a request's constants were lifted into).
    """

    variables: Tuple[Variable, ...]
    where: GroupPattern
    distinct: bool = False
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None

    def projected(self) -> Tuple[Variable, ...]:
        if self.variables:
            return self.variables
        return tuple(sorted(
            (v for v in self.where.all_variables() if not isinstance(v, Placeholder)),
            key=lambda v: v.name,
        ))


@dataclass(frozen=True)
class AskQuery:
    where: GroupPattern


@dataclass(frozen=True)
class ConstructQuery:
    template: Tuple[Triple, ...]
    where: GroupPattern


Query = Union[SelectQuery, AskQuery, ConstructQuery]
