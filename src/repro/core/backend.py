"""Pluggable execution backends behind the Session API.

A :class:`Backend` is the uniform surface a :class:`repro.core.session.
Session` drives: translate/execute one SPARQL/Update operation, run a
query, control a transaction, dump the store as RDF.  Two implementations
exist:

* :class:`RelationalBackend` — the paper's mediation pipeline: SPARQL is
  translated to SQL (Sections 5.1/5.2) and executed on the relational
  engine.  This is the backend the :class:`~repro.core.mediator.OntoAccess`
  facade uses.
* :class:`TripleStoreBackend` — the native in-memory triple store
  (:mod:`repro.sparql.engine`), the paper's comparison point and the
  semantic oracle of the equivalence suite.

Because both speak the same interface, equivalence tests and benchmarks
drive both through one :class:`Session`, and per-operation transaction
scope lives in exactly one place (the session), never in the backend.

Each job has one seam.  Updates: every entry point (facade, session,
prepared update, HTTP) ends in :meth:`Backend.execute_operation`, which
translates against the current state and runs the SQL.  What the
relational backend keeps of an update is what does not read row data:
per INSERT DATA / DELETE DATA block of a kept shape the translated
*template* (:class:`PreparedData`), which each request binds its values
to, and per MODIFY the translation of its WHERE.  Queries:
:meth:`Backend.query_outcome`, or :meth:`Backend.prepare_query` for a
handle that keeps what does not depend on row data.  On the relational
backend that is the translation of a WHERE *template*
(:class:`PreparedPattern`): one per prepared query and one per prepared
MODIFY, whatever its placeholders are bound to, per mapping/schema
version.  What reaches the engine is always a statement shape plus a
value vector (:class:`repro.sql.ast.Bound`), so the engine's plans are
per template too.

Backends do NOT begin/commit transactions around operations themselves —
``execute_operation`` always runs inside a transaction the caller opened.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import (
    DatabaseError,
    DurabilityError,
    IntegrityError,
    ReadOnlyDatabaseError,
    TransactionError,
    TranslationError,
)
from ..observability.metrics import DATA_TEMPLATES
from ..observability.tracing import annotate
from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.terms import Triple, Variable
from ..r3m.model import DatabaseMapping
from ..sparql.algebra import Solution, substitute
from ..sparql.query_ast import Query
from ..sparql.update_ast import (
    Clear,
    DeleteData,
    InsertData,
    Modify,
    UpdateOperation,
)
from ..sql import ast
from ..sql.render import render
from .answer import SelectRows
from .delete_data import DeleteTemplate, translate_delete_data
from .dump import dump_database
from .feedback import confirmation_graph
from .insert_data import InsertTemplate, translate_insert_data
from .modify import plan_binding, plan_modify, where_query
from .query import Answer, QueryOutcome, solve_query

__all__ = [
    "Backend",
    "OperationResult",
    "PreparedData",
    "PreparedDeleteData",
    "PreparedInsertData",
    "PreparedModify",
    "PreparedPattern",
    "RelationalBackend",
    "TripleStoreBackend",
    "UpdateResult",
    "operation_kind",
]


@dataclass
class OperationResult:
    """Outcome of one translated + executed update operation."""

    kind: str  # 'insert-data' | 'delete-data' | 'modify' | 'clear'
    statements: List[ast.Bound] = field(default_factory=list)
    rows_affected: int = 0
    bindings: int = 0
    #: True when a MODIFY evaluated its WHERE via translated SQL
    used_sql_select: Optional[bool] = None

    def sql(self) -> List[str]:
        return [render(s) for s in self.statements]


@dataclass
class UpdateResult:
    """Outcome of a whole SPARQL/Update request."""

    operations: List[OperationResult] = field(default_factory=list)

    def sql(self) -> List[str]:
        return [line for op in self.operations for line in op.sql()]

    def statements_executed(self) -> int:
        return sum(len(op.statements) for op in self.operations)

    def rows_affected(self) -> int:
        return sum(op.rows_affected for op in self.operations)

    def feedback(self) -> Graph:
        """The RDF confirmation message for this result."""
        return confirmation_graph(
            statements_executed=self.statements_executed(),
            operations=len(self.operations),
        )


def operation_kind(operation: UpdateOperation) -> str:
    if isinstance(operation, InsertData):
        return "insert-data"
    if isinstance(operation, DeleteData):
        return "delete-data"
    if isinstance(operation, Modify):
        return "modify"
    if isinstance(operation, Clear):
        return "clear"
    return type(operation).__name__.lower()


class Backend(abc.ABC):
    """Uniform execution surface over one storage engine.

    A write takes one lock, the store's reentrant **writer lock**
    (:attr:`writer_lock`): :meth:`begin` takes it and :meth:`commit` /
    :meth:`rollback` release it, on the thread that opened the
    transaction; the session holds it across one request's operations.
    Transaction state is the store's, so every session over one backend
    serializes on it.  The query path never takes it: it runs lock-free
    against committed snapshots (see
    :meth:`~repro.rdb.engine.Database.snapshot` and the triple store's
    frozen-graph cache).
    """

    #: Short identifier used in diagnostics and test parametrization.
    name: str = "backend"

    #: The store's writer lock (reentrant).
    writer_lock: Any

    # -- write path ----------------------------------------------------

    @abc.abstractmethod
    def execute_operation(self, operation: UpdateOperation) -> OperationResult:
        """Execute one operation inside the caller's open transaction."""

    def translate_operation(
        self, operation: UpdateOperation
    ) -> List[ast.Bound]:
        """Dry-run translation (backends without SQL return nothing)."""
        return []

    # -- transactions ---------------------------------------------------

    @abc.abstractmethod
    def begin(self) -> None: ...

    @abc.abstractmethod
    def commit(self) -> Optional[Any]:
        """Commit the open transaction and release the writer lock
        :meth:`begin` took.  Returns a token for :meth:`wait_durable`,
        which the caller runs *after* releasing every hold it has on
        that lock and before it acknowledges the commit (None: nothing
        to wait for)."""

    def wait_durable(self, token: Optional[Any]) -> None:
        """Block until the commit behind ``token`` is as durable (and as
        replicated) as the store promises.  In-memory stores: no-op."""

    @abc.abstractmethod
    def rollback(self) -> None: ...

    @abc.abstractmethod
    def in_transaction(self) -> bool: ...

    # -- read path ------------------------------------------------------

    @abc.abstractmethod
    def query_outcome(
        self, q: Query, bindings: Optional[Solution] = None
    ) -> QueryOutcome:
        """Run a parsed query (texts are read by the session);
        ``bindings`` are initial bindings of its WHERE pattern (a
        prepared query's placeholders).  The answer is left as
        evaluation produced it — a kept translation's rows, possibly;
        the session's entry points build the result."""

    def prepare_query(self, q: Query) -> "PreparedQueryPlan":
        return PreparedQueryPlan(self, q)

    @abc.abstractmethod
    def dump(self) -> Graph:
        """Materialize the whole store as an RDF graph."""

    # -- durability ------------------------------------------------------

    def checkpoint(self) -> Optional[str]:
        """Force a durability checkpoint; returns its path, or None when
        the backend has no durable store (the default)."""
        return None

    def health(self) -> Dict[str, Any]:
        """Machine-readable backend health (ISSUE 6): at minimum the
        backend name and whether a durable store backs it."""
        return {"backend": self.name, "durable": False}

    # -- bookkeeping -----------------------------------------------------

    def wrap_error(self, exc: Exception) -> Exception:
        """Map an engine-level error to the client-facing exception."""
        return exc


class PreparedQueryPlan:
    """Default prepared query: re-runs the full query path each time."""

    __slots__ = ("backend", "query")

    def __init__(self, backend: Backend, query: Query) -> None:
        self.backend = backend
        self.query = query

    def outcome(self, bindings: Optional[Solution] = None) -> QueryOutcome:
        return self.backend.query_outcome(self.query, bindings=bindings)


class PreparedPattern:
    """A query — a prepared query, or the SELECT a prepared MODIFY's WHERE
    becomes — and the one translation the relational backend keeps for
    it.

    The SPARQL→SQL translation never depends on row data, and for a
    template it depends on the *kind* of term each placeholder is bound
    to, not on the term: so it is kept per (mapping, schema) version and
    handed back to :func:`~repro.core.query.solve_query`, which binds
    it again (a few µs) and translates only when a binding does not fit
    what was kept — that translation then takes the slot, with the row
    functions it generates on first use.  Executions therefore share one
    statement shape, hence one plan.

    Thread-safe without a lock (prepared queries are shared by reader
    threads): the slot is one atomically swapped tuple, so concurrent
    callers either reuse what is kept or redundantly translate the same
    template (benign), and never observe a half-updated pair.
    """

    __slots__ = ("query", "_kept")

    def __init__(self, query: Query) -> None:
        self.query = query
        #: (version, translation — None when the template is known to be
        #: untranslatable with nothing bound); replaced wholesale.
        self._kept: Tuple[Any, Any] = (None, None)

    def solve(
        self, backend: "RelationalBackend", bindings: Optional[Solution]
    ) -> Tuple[Union[Answer, SelectRows], Optional[ast.Bound]]:
        """The answer under ``bindings`` and the SELECT that produced it
        (None: evaluated over the dump)."""
        current = backend.query_state_version()
        version, kept = self._kept
        known = version == current
        answer, statement, translated = solve_query(
            backend.mapping,
            backend.db,
            self.query,
            # Known-untranslatable: go straight to the dump evaluation
            # instead of re-attempting translation.
            force_fallback=backend.force_query_fallback
            or (known and kept is None and not bindings),
            bindings=bindings,
            kept=kept if known else None,
        )
        if (
            not (known and translated is kept)
            and not backend.force_query_fallback
            # Whether a template translates can depend on what is bound,
            # so a failure under bindings says nothing about the next.
            and (translated is not None or not bindings)
        ):
            self._kept = (current, translated)
        return answer, statement


@dataclass(frozen=True)
class PreparedModify(Modify):
    """One execution of a prepared MODIFY: the operation under its
    ``bindings`` — what any backend can execute — plus the place where
    the relational backend keeps the translation of its WHERE template
    between executions."""

    template: Optional[PreparedPattern] = field(default=None, compare=False)


_TEMPLATE_BOUND = DATA_TEMPLATES.labels("bound")
_TEMPLATE_BUILT = DATA_TEMPLATES.labels("built")
_TEMPLATE_REBUILT = DATA_TEMPLATES.labels("rebuilt")


class PreparedData:
    """An INSERT DATA / DELETE DATA block of a kept shape and the one
    translated template the relational backend keeps for it.

    What the translation of a data block decides depends on predicates,
    classes and tables — not on the values, except for the table a
    subject names (:class:`~repro.core.common.DataTemplate`).  So it is
    kept per (mapping, schema) version, and an execution binds its
    values to it; where they do not fit (a subject of another table, a
    class or predicate bound to another term), the template is built
    again from them and takes the slot.

    Templates are used under the writer lock (translation reads rows),
    and the slot is one tuple swapped whole, as :class:`PreparedPattern`'s.
    """

    __slots__ = ("triples", "variables", "_template", "_kept")

    def __init__(self, operation: Union[InsertData, DeleteData]) -> None:
        self.triples = operation.triples
        #: what an execution must bind
        self.variables = frozenset(
            term
            for triple in self.triples
            for term in triple
            if isinstance(term, Variable)
        )
        self._template = (
            InsertTemplate if isinstance(operation, InsertData) else DeleteTemplate
        )
        #: (version, template); replaced wholesale
        self._kept: Tuple[Any, Any] = (None, None)

    def translate(
        self, backend: "RelationalBackend", solution: Solution
    ) -> List[ast.Bound]:
        """The block's statements under ``solution``."""
        mapping, db = backend.mapping, backend.db
        current = backend.query_state_version()
        version, template = self._kept
        entities = None
        counter = _TEMPLATE_BUILT
        if version == current:
            entities = template.entities(mapping, db, solution)
            counter = _TEMPLATE_REBUILT if entities is None else _TEMPLATE_BOUND
        if entities is None:
            template = self._template(mapping, db, self.triples, solution)
            entities = template.built_entities()
            if template.reusable:
                self._kept = (current, template)
        counter.inc()
        return template.bind(db, solution, entities)


def _concrete(triples: Tuple[Triple, ...], solution: Solution) -> Tuple[Triple, ...]:
    return tuple(substitute(triple, solution) for triple in triples)


@dataclass(frozen=True)
class PreparedInsertData(InsertData):
    """One execution of a kept INSERT DATA block: the block as parsed
    (its constants lifted into placeholders) under the ``bindings`` of
    this execution, plus where the relational backend keeps its
    template.  :meth:`concrete` is the block with its terms in place."""

    bindings: Solution = field(compare=False)
    template: PreparedData = field(compare=False)

    def concrete(self) -> InsertData:
        return InsertData(_concrete(self.triples, self.bindings))


@dataclass(frozen=True)
class PreparedDeleteData(DeleteData):
    """:class:`PreparedInsertData` for a DELETE DATA block."""

    bindings: Solution = field(compare=False)
    template: PreparedData = field(compare=False)

    def concrete(self) -> DeleteData:
        return DeleteData(_concrete(self.triples, self.bindings))


# ---------------------------------------------------------------------------
# the mediation pipeline as a backend
# ---------------------------------------------------------------------------

class RelationalBackend(Backend):
    """The paper's mediator pipeline: SPARQL/Update → SQL → RDB."""

    name = "rdb"

    def __init__(
        self,
        db: Database,
        mapping: DatabaseMapping,
        optimize_modify: bool = True,
        force_query_fallback: bool = False,
    ) -> None:
        self.db = db
        self.writer_lock = db._write_lock
        self._mapping = mapping
        #: Bumped when the mapping object is replaced, so prepared query
        #: translations (keyed on :meth:`query_state_version`) invalidate.
        #: Of in-place changes, only the table maps' own version is
        #: tracked (a table map assigned into ``mapping.tables``) — replace
        #: the mapping (or build a new mediator) to change it otherwise.
        self._mapping_generation = 0
        self.optimize_modify = optimize_modify
        self.force_query_fallback = force_query_fallback

    @property
    def mapping(self) -> DatabaseMapping:
        return self._mapping

    @mapping.setter
    def mapping(self, value: DatabaseMapping) -> None:
        self._mapping = value
        self._mapping_generation += 1

    # -- write path ----------------------------------------------------

    def translate_operation(
        self, operation: UpdateOperation
    ) -> List[ast.Bound]:
        if isinstance(operation, (PreparedInsertData, PreparedDeleteData)):
            return operation.template.translate(self, operation.bindings)
        if isinstance(operation, InsertData):
            return translate_insert_data(self.mapping, self.db, operation.triples)
        if isinstance(operation, DeleteData):
            return translate_delete_data(self.mapping, self.db, operation.triples)
        if isinstance(operation, Modify):
            plan = plan_modify(
                self.mapping,
                self.db,
                operation,
                optimize_redundant_deletes=self.optimize_modify,
                force_fallback=self.force_query_fallback,
            )
            return plan.all_statements()
        if isinstance(operation, Clear):
            return [
                ast.Bound(ast.Delete(table=name))
                for name in reversed(safe_clear_order(self.mapping, self.db))
            ]
        raise TranslationError(
            f"unsupported operation {type(operation).__name__}",
            code=TranslationError.UNSUPPORTED,
        )

    def execute_operation(self, operation: UpdateOperation) -> OperationResult:
        if isinstance(operation, Modify):
            return self._execute_modify(operation)
        result = OperationResult(
            kind=operation_kind(operation),
            statements=self.translate_operation(operation),
        )
        for statement in result.statements:
            result.rows_affected += self.db.execute(statement).rowcount
        return result

    def _execute_modify(self, operation: Modify) -> OperationResult:
        """Algorithm 2: evaluate WHERE, then per binding translate and
        execute the DELETE DATA / INSERT DATA pair (lines 7–13)."""
        where = operation.template if isinstance(operation, PreparedModify) else None
        if where is None:
            where = PreparedPattern(where_query(operation))
        answer, select = where.solve(self, operation.bindings)
        solutions = answer.solutions
        result = OperationResult(
            kind="modify",
            bindings=len(solutions),
            used_sql_select=select is not None,
        )
        for solution in solutions:
            # Re-plan against the current state: earlier bindings may
            # have changed rows this binding touches.
            step = plan_binding(
                self.mapping,
                self.db,
                operation,
                solution,
                optimize_redundant_deletes=self.optimize_modify,
            )
            for statement in step.all_statements():
                outcome = self.db.execute(statement)
                result.rows_affected += outcome.rowcount
                result.statements.append(statement)
        return result

    # -- transactions ---------------------------------------------------

    def begin(self) -> None:
        self.db.begin()

    def commit(self) -> Optional[Any]:
        return self.db.commit(wait=False)

    def wait_durable(self, token: Optional[Any]) -> None:
        self.db.wait_durable(token)

    def rollback(self) -> None:
        self.db.rollback()

    def in_transaction(self) -> bool:
        return self.db.in_transaction()

    # -- read path ------------------------------------------------------

    def query_outcome(
        self, q: Query, bindings: Optional[Solution] = None
    ) -> QueryOutcome:
        return self.prepare_query(q).outcome(bindings)

    def prepare_query(self, q: Query) -> PreparedQueryPlan:
        return _PreparedRdbQuery(self, q)

    def dump(self) -> Graph:
        return dump_database(self.mapping, self.db)

    # -- durability ------------------------------------------------------

    def checkpoint(self) -> Optional[str]:
        return self.db.checkpoint()

    def health(self) -> Dict[str, Any]:
        return {"backend": self.name, **self.db.durability_status()}

    # -- bookkeeping -----------------------------------------------------

    def query_state_version(self) -> Tuple[int, int, int]:
        """What prepared query translations depend on: mapping + schema
        (pattern translation never reads row data)."""
        return (
            self._mapping_generation,
            self._mapping.tables.version,
            self.db.schema_version,
        )

    def wrap_error(self, exc: Exception) -> Exception:
        if isinstance(exc, DurabilityError):
            # Not a translation problem: the durable store itself failed.
            # Keep the type (the endpoint maps it to 503) and make the
            # message actionable when the WAL is refusing commits.
            if self.db.durability_status().get("wal_refusing"):
                return DurabilityError(
                    f"{exc} — the write-ahead log is refusing commits after "
                    "an I/O failure; in-memory state may be ahead of the "
                    "durable prefix.  Restart the process to recover the "
                    "intact prefix, then retry."
                )
            return exc
        if isinstance(exc, ReadOnlyDatabaseError):
            # Not a translation problem either: the write was refused
            # before execution (replica / fenced primary).  Keep the
            # type — the endpoint maps it to 403 "read-only" so the
            # client can re-route to the current primary.
            return exc
        if isinstance(exc, (IntegrityError, DatabaseError)):
            return wrap_db_error(exc)
        return exc


class _PreparedRdbQuery(PreparedQueryPlan):
    """Prepared relational query: a :class:`PreparedPattern`, so an
    execution is bind → ``db.execute(shape + values)`` → answer step."""

    __slots__ = ("_where",)

    def __init__(self, backend: RelationalBackend, query: Query) -> None:
        super().__init__(backend, query)
        self._where = PreparedPattern(query)

    def outcome(self, bindings: Optional[Solution] = None) -> QueryOutcome:
        backend = self.backend
        answer, statement = self._where.solve(backend, bindings)
        used_sql = statement is not None
        annotate(backend=backend.name, used_sql=used_sql)
        return QueryOutcome(answer, used_sql, statement)


# ---------------------------------------------------------------------------
# the native triple store as a backend
# ---------------------------------------------------------------------------

class TripleStoreBackend(Backend):
    """Native in-memory triple store behind the same Session interface.

    Wraps a :class:`~repro.baselines.triplestore.NativeTripleStore` (or
    its mapping-aware subclass, the equivalence oracle).  Transactions use
    the graph's undo journal: ``begin`` starts recording inverse
    operations, ``rollback`` replays them — O(changes), not O(graph).

    Snapshot reads: queries outside a transaction evaluate against a
    *frozen copy* of the committed graph, cached per committed version —
    so reader threads share one immutable graph and never race writer
    mutations.  ``begin`` refreshes the frozen copy when stale, which
    guarantees a pre-transaction snapshot exists for readers to use
    while the transaction is open.  The thread owning the open
    transaction reads the live graph (read-your-own-writes).

    Cost model: snapshotting is whole-graph granular, so once reads are
    active a write transaction whose cache is stale pays one O(graph)
    copy at ``begin`` (write-only workloads pay nothing — the copy is
    gated on ``_reads_active``).  The frozen copy must never be patched
    in place with the journal delta: readers iterate it lock-free, and
    mutating it would reintroduce exactly the torn reads snapshots
    exist to prevent.  Making this O(changes) needs per-index
    copy-on-write like the relational engine's per-table clones — a
    recorded ROADMAP follow-on.
    """

    name = "triplestore"

    def __init__(self, store) -> None:
        self.store = store
        self.writer_lock = threading.RLock()
        self._version = 0
        #: _version at the last commit point (begin/rollback/commit keep
        #: it at committed state, so readers' freshness checks work like
        #: the relational engine's committed snapshot version).
        self._committed_version = 0
        #: (committed version, frozen graph copy) or None.
        self._read_cache: Optional[Tuple[int, Graph]] = None
        #: True once any snapshot read happened — only then does begin()
        #: pay for a pre-transaction copy; write-only workloads keep the
        #: O(changes) journal cost with no O(graph) copies.
        self._reads_active = False
        self._txn_owner: Optional[int] = None

    @property
    def graph(self) -> Graph:
        return self.store.graph

    # -- write path ----------------------------------------------------

    def execute_operation(self, operation: UpdateOperation) -> OperationResult:
        if isinstance(operation, (PreparedInsertData, PreparedDeleteData)):
            operation = operation.concrete()
        added, removed = self.store.apply_operation(operation)
        self._version += 1
        if not self.store.graph.journaling():
            self._committed_version = self._version
        return OperationResult(
            kind=operation_kind(operation), rows_affected=added + removed
        )

    # -- transactions ---------------------------------------------------
    # The relational engine's discipline, error contract included
    # (TransactionError on misuse), so backends stay swappable: begin
    # takes the writer lock and the opening thread's commit / rollback
    # releases it.

    def begin(self) -> None:
        self.writer_lock.acquire()
        if self.store.graph.journaling():
            self.writer_lock.release()
            raise TransactionError("a transaction is already open")
        cache = self._read_cache
        if self._reads_active and (
            cache is None or cache[0] != self._committed_version
        ):
            # Publish the pre-transaction state before mutating, so
            # concurrent readers stay lock-free for the whole transaction.
            # (A first-ever reader arriving mid-transaction instead waits
            # for the commit on the writer lock.)
            self._read_cache = (
                self._committed_version, self.store.graph.copy()
            )
        self._txn_owner = threading.get_ident()
        self.store.graph.start_journal()

    def commit(self) -> None:
        self._require_owner()
        try:
            self.store.graph.commit_journal()
            self._committed_version = self._version
        finally:
            self._txn_owner = None
            self.writer_lock.release()

    def rollback(self) -> None:
        self._require_owner()
        try:
            self.store.graph.rollback_journal()
            cache = self._read_cache
            # The journal restored exactly the pre-transaction state; if
            # the cache holds that state (begin() published it), relabel
            # it with the new committed version instead of forcing an
            # O(graph) recopy.
            restored = cache is not None and cache[0] == self._committed_version
            self._version += 1
            self._committed_version = self._version
            if restored:
                self._read_cache = (self._committed_version, cache[1])
        finally:
            self._txn_owner = None
            self.writer_lock.release()

    def _require_owner(self) -> None:
        if not self.store.graph.journaling():
            raise TransactionError("no transaction is open")
        if self._txn_owner != threading.get_ident():
            raise TransactionError(
                "the transaction belongs to another thread; only the "
                "thread that opened it may commit or roll back"
            )

    def in_transaction(self) -> bool:
        return self.store.graph.journaling()

    # -- read path ------------------------------------------------------

    def _committed_graph(self) -> Graph:
        """The frozen committed graph readers evaluate against."""
        self._reads_active = True
        cache = self._read_cache
        if cache is not None and cache[0] == self._committed_version:
            return cache[1]
        # Stale cache with no open transaction (an open one would have
        # refreshed it in begin()): copy under the writer lock so the
        # copy never interleaves with a writer.
        with self.writer_lock:
            cache = self._read_cache
            if cache is None or cache[0] != self._committed_version:
                cache = (self._committed_version, self.store.graph.copy())
                self._read_cache = cache
            return cache[1]

    def query_outcome(
        self, q: Query, bindings: Optional[Solution] = None
    ) -> QueryOutcome:
        if (
            self.store.graph.journaling()
            and self._txn_owner == threading.get_ident()
        ):
            # Inside this thread's transaction: see our own writes.
            graph = self.store.graph
        else:
            graph = self._committed_graph()
        from ..sparql.engine import query as native_query

        result = native_query(graph, q, bindings=bindings)
        annotate(backend=self.name, used_sql=False)
        return QueryOutcome(result, used_sql=False)

    def dump(self) -> Graph:
        if (
            self.store.graph.journaling()
            and self._txn_owner == threading.get_ident()
        ):
            return self.store.graph.copy()
        return self._committed_graph().copy()


# ---------------------------------------------------------------------------
# shared helpers (previously private to the mediator)
# ---------------------------------------------------------------------------

def wrap_db_error(exc: Exception) -> TranslationError:
    if isinstance(exc, IntegrityError):
        return TranslationError(
            f"database rejected the update: {exc}",
            code=TranslationError.CONSTRAINT_VIOLATION,
            details={
                "table": exc.table,
                "attribute": exc.column,
                "constraint": exc.constraint,
            },
        )
    return TranslationError(
        f"database error: {exc}", code=TranslationError.CONSTRAINT_VIOLATION
    )


def safe_clear_order(mapping: DatabaseMapping, db: Database) -> List[str]:
    """Tables in parents-first order; CLEAR deletes in reverse."""
    from .sorting import topological_table_order

    return topological_table_order(mapping.all_table_names(), db.schema)
