"""SPARQL substrate: query + update parsing and native-graph evaluation.

Public API::

    from repro.sparql import parse_query, parse_update, query, update
"""

from . import algebra_ast
from .algebra import Solution, evaluate_pattern, instantiate, substitute
from .engine import SelectResult, apply_operation, query, update
from .expressions import effective_boolean_value, evaluate_expr, filter_accepts
from .query_ast import AskQuery, ConstructQuery, OrderCondition, Query, SelectQuery
from .query_parser import parse_query
from .update_ast import (
    Clear,
    DeleteData,
    InsertData,
    Modify,
    UpdateOperation,
    UpdateRequest,
)
from .update_parser import parse_update

__all__ = [
    "AskQuery",
    "Clear",
    "ConstructQuery",
    "DeleteData",
    "InsertData",
    "Modify",
    "OrderCondition",
    "Query",
    "SelectQuery",
    "SelectResult",
    "Solution",
    "UpdateOperation",
    "UpdateRequest",
    "algebra_ast",
    "apply_operation",
    "effective_boolean_value",
    "evaluate_expr",
    "evaluate_pattern",
    "filter_accepts",
    "instantiate",
    "parse_query",
    "parse_update",
    "query",
    "substitute",
    "update",
]
