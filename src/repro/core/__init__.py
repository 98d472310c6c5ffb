"""OntoAccess core: SPARQL/Update → SQL DML translation (paper Sections 5–6).

Public API::

    from repro.core import OntoAccess, Session
    from repro.core import dump_database, execute_query
"""

from .backend import Backend, RelationalBackend, TripleStoreBackend
from .common import EntityRef, identify_entity, literal_for_column
from .dump import dump_database, dump_table
from .feedback import confirmation_graph, error_graph
from .mediator import OntoAccess, OperationResult, UpdateResult
from .modify import bindings_for_pattern, plan_binding
from .query import QueryOutcome, execute_query
from .select_translate import TranslatedSelect, translate_query
from .session import PreparedQuery, PreparedUpdate, Session
from .sorting import sort_statements, topological_table_order

__all__ = [
    "Backend",
    "EntityRef",
    "OntoAccess",
    "PreparedQuery",
    "PreparedUpdate",
    "RelationalBackend",
    "Session",
    "TripleStoreBackend",
    "OperationResult",
    "QueryOutcome",
    "TranslatedSelect",
    "UpdateResult",
    "bindings_for_pattern",
    "confirmation_graph",
    "dump_database",
    "dump_table",
    "error_graph",
    "execute_query",
    "identify_entity",
    "literal_for_column",
    "plan_binding",
    "sort_statements",
    "topological_table_order",
    "translate_query",
]
