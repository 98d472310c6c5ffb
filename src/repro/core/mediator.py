"""The OntoAccess mediator: the public facade of the reproduction.

Ties the mapping (R3M), the translation algorithms (Sections 5.1/5.2), the
relational engine, the query path, and the feedback protocol together::

    from repro import OntoAccess
    from repro.workloads.publication import build_database, build_mapping

    db = build_database()
    oa = OntoAccess(db, build_mapping(db))
    result = oa.update('''
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX ont:  <http://example.org/ontology#>
        PREFIX ex:   <http://example.org/db/>
        INSERT DATA {
            ex:team4 foaf:name "Database Technology" ;
                     ont:teamCode "DBTG" .
        }
    ''')
    result.sql()  # ["INSERT INTO team (id, name, code) VALUES (4, ...);"]

Every SPARQL/Update operation executes inside one database transaction
("all generated SQL statements that correspond to a single SPARQL/Update
operation are executed within the context of one database transaction to
ensure the atomicity of the SPARQL/Update operation", Section 5.1).

The facade is a thin shim over the Session API: execution lives in
:class:`~repro.core.backend.RelationalBackend`, transaction scope in
:class:`~repro.core.session.Session`.  A request text is read as a shape
plus values there, so :meth:`OntoAccess.update`, :meth:`OntoAccess.query`
and :meth:`OntoAccess.translate` run the prepared path: the text is
parsed — and a query's or MODIFY's WHERE translated — once per shape,
while the SQL of every request still carries its own values
(``result.sql()`` renders them inline, as in the paper's listings).
Call :meth:`OntoAccess.session` for the rest of that interface (prepared
operations with bindings, batches, explicit transactions, alternative
backends).
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..errors import TranslationError
from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..r3m.model import DatabaseMapping
from ..r3m.validator import validate_mapping
from ..sparql.query_ast import Query
from ..sparql.update_ast import UpdateRequest
from ..sql import ast
from ..sql.render import render
from .backend import (
    Backend,
    OperationResult,
    RelationalBackend,
    UpdateResult,
)
from .feedback import error_graph
from .query import QueryOutcome
from .session import Session

__all__ = ["OntoAccess", "OperationResult", "UpdateResult"]


class OntoAccess:
    """Mediator between SPARQL/Update clients and a relational database."""

    def __init__(
        self,
        db: Database,
        mapping: DatabaseMapping,
        validate: bool = True,
        optimize_modify: bool = True,
        force_query_fallback: bool = False,
    ) -> None:
        self.db = db
        if validate:
            validate_mapping(mapping, db)
        self._backend = RelationalBackend(
            db,
            mapping,
            optimize_modify=optimize_modify,
            force_query_fallback=force_query_fallback,
        )
        self._session = Session(self._backend)

    # Translation knobs stay mutable attributes of the facade; they are
    # shared with (not copied into) the backend.
    @property
    def mapping(self) -> DatabaseMapping:
        return self._backend.mapping

    @mapping.setter
    def mapping(self, value: DatabaseMapping) -> None:
        # Forwarded so reassignment keeps affecting execution (and bumps
        # the backend's mapping generation, invalidating prepared SQL).
        self._backend.mapping = value

    @property
    def optimize_modify(self) -> bool:
        return self._backend.optimize_modify

    @optimize_modify.setter
    def optimize_modify(self, value: bool) -> None:
        self._backend.optimize_modify = value

    @property
    def force_query_fallback(self) -> bool:
        return self._backend.force_query_fallback

    @force_query_fallback.setter
    def force_query_fallback(self, value: bool) -> None:
        self._backend.force_query_fallback = value

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------

    def session(self, backend: Optional[Backend] = None) -> Session:
        """A new :class:`Session` over this mediator's backend (or any
        other backend), with its own map of request shapes."""
        return Session(backend if backend is not None else self._backend)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        """Translate and execute a SPARQL/Update request.

        Raises :class:`~repro.errors.TranslationError` when a request is
        invalid from the RDB perspective; nothing is persisted for the
        failing operation (one transaction per operation).
        """
        return self._session.execute(request, prefixes=prefixes)

    def try_update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> Graph:
        """Update and return the RDF feedback graph (never raises for
        translation/constraint errors) — the HTTP endpoint's behaviour."""
        try:
            return self.update(request, prefixes=prefixes).feedback()
        except TranslationError as exc:
            return error_graph(exc)

    def translate(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> List[ast.Statement]:
        """Translate without executing (dry run against current state)."""
        operations = self._session._operations(request, prefixes)
        statements: List[ast.Bound] = []
        # Translation reads row data (current_row, link lookups), so it
        # must serialize with concurrent writers like every session entry.
        with self._backend.writer_lock:
            for operation in operations:
                statements.extend(self._backend.translate_operation(operation))
        return statements

    def translate_sql(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> List[str]:
        """Dry-run translation rendered to SQL text (the paper's listings)."""
        return [render(s) for s in self.translate(request, prefixes=prefixes)]

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def query(
        self,
        q: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
    ):
        """Run a SPARQL query; returns SelectResult / bool / Graph."""
        return self.query_outcome(q, prefixes=prefixes).result

    def query_outcome(
        self,
        q: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
    ) -> QueryOutcome:
        """Like :meth:`query` but exposing how the query was evaluated."""
        return self._session.query_outcome(q, prefixes=prefixes)

    def dump(self) -> Graph:
        """Materialize the whole mapped database as RDF."""
        return self._session.dump()  # committed snapshot: no torn reads
