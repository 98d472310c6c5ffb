"""OntoAccess core: SPARQL/Update → SQL DML translation (paper Sections 5–6).

Public API::

    from repro.core import OntoAccess
    from repro.core import translate_insert_data, translate_delete_data
    from repro.core import dump_database, execute_query
"""

from .backend import Backend, RelationalBackend, TripleStoreBackend
from .common import EntityRef, group_by_subject, identify_entity, literal_for_column
from .delete_data import translate_delete_data
from .dump import dump_database, dump_table
from .feedback import confirmation_graph, error_graph
from .insert_data import translate_insert_data
from .mediator import OntoAccess, OperationResult, UpdateResult
from .modify import ModifyPlan, bindings_for_pattern, plan_binding, plan_modify
from .query import QueryOutcome, execute_query
from .select_translate import TranslatedSelect, translate_query
from .session import PreparedQuery, PreparedUpdate, Session
from .sorting import sort_statements, topological_table_order

__all__ = [
    "Backend",
    "EntityRef",
    "ModifyPlan",
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
    "group_by_subject",
    "identify_entity",
    "literal_for_column",
    "plan_binding",
    "plan_modify",
    "sort_statements",
    "topological_table_order",
    "translate_delete_data",
    "translate_insert_data",
    "translate_query",
]
