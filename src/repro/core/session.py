"""Sessions and prepared operations: the amortizing public API.

The facade path (``OntoAccess.update(sparql)``) re-parses and re-translates
the full SPARQL string on every call, so per-request cost is dominated by
the front of the pipeline.  A :class:`Session` — obtained from
:meth:`OntoAccess.session() <repro.core.mediator.OntoAccess.session>` or
built directly over any :class:`~repro.core.backend.Backend` — amortizes
that cost across repeated operations:

* :meth:`Session.prepare` parses once and returns a
  :class:`PreparedUpdate` / :class:`PreparedQuery` whose ``execute()`` can
  run many times.  Which of the two a text is follows from its grammar,
  not from a guess: the prologue is read with the scanner both SPARQL
  parsers are built on (:mod:`repro.rdf.scanner`) and the first keyword
  behind it — SELECT / ASK / CONSTRUCT or INSERT / DELETE / MODIFY /
  CLEAR — names the parser, which then parses the text once and reports
  its own errors.
* Prepared templates may contain SPARQL variables as placeholders;
  ``execute(bindings={"name": ...})`` binds them at execute time (the
  prepared-statement idiom).  For a query, and for the WHERE of a MODIFY,
  they are *initial bindings*: each reads as the term given wherever the
  pattern uses it and is part of every solution — so a placeholder that
  is also projected, ordered by or used in a CONSTRUCT template comes
  back bound.
* What is kept between executions, on the relational backend: per
  prepared **query** the SPARQL→SQL translation of its WHERE *template*
  — one :class:`~repro.core.backend.PreparedPattern`, bound again for
  every binding set (a few µs) and translated again only for a binding
  of another kind (an author URI, then a publication URI, for the same
  placeholder), per mapping/schema version; per prepared **MODIFY** the
  same for its WHERE.  The DML of an update is translated on every
  execution — it reads row data — by the same routine every other
  update entry point ends in.  Below that, the engine plans each
  statement *shape* once: all bindings of a template, prepared or sent
  as text, share one plan.
* :meth:`Session.execute_all` runs a multi-operation batch inside **one**
  database transaction — all-or-nothing, whereas the facade commits each
  operation separately per the paper's one-transaction-per-operation rule.
* The session owns transaction scope (:meth:`begin` / :meth:`commit` /
  :meth:`rollback` / :meth:`transaction`).  **Write** entry points
  serialize on the backend's write-tier lock so a threaded HTTP endpoint
  can share one session without interleaving transactions; **read** entry
  points (:meth:`query`, :meth:`query_outcome`, prepared queries) do not
  take it — they run against the backend's committed snapshot, so N
  reader threads proceed concurrently with each other and with at most
  one writer.  The prepared-query cache is guarded by a separate lock
  held only for dictionary access, never during execution.

Semantics cannot drift from the unprepared path, because for updates
there is no other path: :meth:`Session.execute`, :meth:`Session.
execute_all`, :meth:`PreparedUpdate.execute` and the HTTP endpoint's
``/update`` and ``/batch`` all hand concrete operations to one routine
that owns the lock, the transaction scope and the call to
``backend.execute_operation``.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..deadline import deadline_scope
from ..errors import TranslationError
from ..observability.metrics import SESSION_OPS
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Literal, Term, Triple, Variable
from ..sparql.algebra import Solution, substitute
from ..sparql.query_ast import Query
from ..sparql.parse_base import SPARQLParserBase
from ..sparql.query_parser import QueryParser, parse_query
from ..sparql.update_ast import (
    DeleteData,
    InsertData,
    Modify,
    UpdateOperation,
    UpdateRequest,
)
from ..sparql.update_parser import UpdateParser, parse_update
from .backend import Backend, PreparedModify, PreparedPattern, UpdateResult
from .query import QueryOutcome

__all__ = ["PreparedQuery", "PreparedUpdate", "Session"]

Bindings = Dict[str, Any]

_PREPARED_CACHE_SIZE = 128

# Label children resolved once: the hot paths pay a sharded add, not a
# dict lookup under the registry lock.
_OPS_QUERY = SESSION_OPS.labels("query")
_OPS_UPDATE = SESSION_OPS.labels("update")
_OPS_BATCH = SESSION_OPS.labels("batch")


def _as_term(value: Any) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, (str, bool, int, float)):
        return Literal(value)
    raise TranslationError(
        f"cannot bind a {type(value).__name__} as an RDF term",
        code=TranslationError.UNSUPPORTED,
    )


def _solution(bindings: Optional[Bindings]) -> Solution:
    if not bindings:
        return {}
    resolved: Solution = {}
    for name, value in bindings.items():
        variable = name if isinstance(name, Variable) else Variable(str(name).lstrip("?"))
        resolved[variable] = _as_term(value)
    return resolved


# ---------------------------------------------------------------------------
# placeholders: substituted into data blocks, bound for patterns
# ---------------------------------------------------------------------------

def _substitute_triples(
    triples: Tuple[Triple, ...], solution: Solution
) -> Tuple[Triple, ...]:
    """A data block with its placeholders replaced; all must be bound."""
    result = []
    for triple in triples:
        candidate = substitute(triple, solution) if solution else triple
        if not candidate.is_concrete():
            unbound = ", ".join(f"?{v.name}" for v in candidate.variables())
            raise TranslationError(
                f"unbound placeholder(s) {unbound} in prepared data block; "
                "pass bindings={...} at execute time",
                code=TranslationError.UNSUPPORTED,
            )
        result.append(candidate)
    return tuple(result)


def _resolve_operation(
    operation: UpdateOperation,
    solution: Solution,
    where: Optional[PreparedPattern] = None,
) -> UpdateOperation:
    """One operation under the bindings of one execution: a data block
    has its placeholders replaced by the bound terms, a MODIFY takes
    them as initial bindings of its WHERE (whose kept translation lives
    in ``where``)."""
    if isinstance(operation, InsertData):
        return InsertData(
            triples=_substitute_triples(operation.triples, solution)
        )
    if isinstance(operation, DeleteData):
        return DeleteData(
            triples=_substitute_triples(operation.triples, solution)
        )
    if isinstance(operation, Modify):
        return PreparedModify(
            operation.delete_template,
            operation.insert_template,
            operation.where,
            bindings=solution,
            template=where,
        )
    return operation


# ---------------------------------------------------------------------------
# prepared operations
# ---------------------------------------------------------------------------

class PreparedUpdate:
    """A parsed SPARQL/Update request, executable many times.

    Parsing happened at :meth:`Session.prepare` time; each execution
    substitutes the bindings and runs the concrete operations exactly
    like :meth:`Session.execute` does.  What is amortized: the parse,
    the translation of each MODIFY's WHERE template (kept here, one
    :class:`~repro.core.backend.PreparedPattern` per MODIFY) and — since
    every execution produces the same statement shapes — the engine's
    plans.
    """

    def __init__(
        self,
        session: "Session",
        request: UpdateRequest,
        text: Optional[str] = None,
    ) -> None:
        self.session = session
        self.request = request
        self.text = text
        self._where = [
            PreparedPattern(op.where) if isinstance(op, Modify) else None
            for op in request.operations
        ]

    def execute(self, bindings: Optional[Bindings] = None) -> UpdateResult:
        """Execute the request; placeholders are substituted from
        ``bindings`` (variable name → RDF term or plain Python value)."""
        solution = _solution(bindings)
        return self.session._run(
            [
                _resolve_operation(op, solution, where)
                for op, where in zip(self.request.operations, self._where)
            ],
            atomic=False,
        )


class PreparedQuery:
    """A parsed SPARQL query, executable many times.

    ``bindings`` are initial bindings of the WHERE pattern: a
    placeholder reads as the term given and comes back bound to it —
    in the projection, under ORDER BY and in a CONSTRUCT template — as
    initial bindings behave in Jena and rdflib.  On the relational
    backend the SPARQL→SQL translation is kept per *template* (see
    :class:`~repro.core.backend.PreparedPattern`), so an execution binds
    the values, runs the one statement shape, and decodes the rows.
    """

    def __init__(
        self,
        session: "Session",
        query: Query,
        text: Optional[str] = None,
    ) -> None:
        self.session = session
        self.query = query
        self.text = text
        self._plan = session.backend.prepare_query(query)

    def execute(self, bindings: Optional[Bindings] = None):
        """Run the query; returns SelectResult / bool / Graph."""
        return self.outcome(bindings).result

    def outcome(self, bindings: Optional[Bindings] = None) -> QueryOutcome:
        # Lock-free read path: execution runs against the backend's
        # committed snapshot; the plan object is shared by all threads.
        return self._plan.outcome(_solution(bindings))


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class Session:
    """Owns transaction scope and a prepared-query cache over a backend.

    Thread-safe with two lock tiers, both owned by the backend and shared
    by **all** sessions over it (transaction state lives in the backend,
    so two sessions on one database must never interleave — e.g. the
    facade's internal session and the HTTP endpoint's session used from
    different threads):

    * the reentrant **write-tier** lock serializes updates, batches, and
      transaction scope;
    * the **cache lock** guards the prepared-query dictionaries and is
      held only for lookups/insertions, never across execution.

    Queries take neither lock during execution: they run against the
    backend's committed snapshot, concurrent with each other and with at
    most one writer.
    """

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        # The backend owns the locks (created in Backend.__init__), so all
        # sessions over one backend serialize on the same instances.
        self._lock = backend._session_lock
        self._cache_lock = backend._cache_lock
        #: query text -> prepared query, LRU
        self._prepared: "OrderedDict[str, PreparedQuery]" = OrderedDict()

    # -- preparing ------------------------------------------------------

    def prepare(
        self, sparql: str, prefixes: Optional[PrefixMap] = None
    ) -> Union[PreparedUpdate, PreparedQuery]:
        """Parse once; returns a :class:`PreparedQuery` for SELECT / ASK /
        CONSTRUCT text and a :class:`PreparedUpdate` for INSERT / DELETE /
        MODIFY / CLEAR.  Prepared queries are cached by text, so repeated
        ``prepare`` of the same query string is a dictionary hit; an
        update is parsed per ``prepare`` — keep the returned object to
        run it again.

        Routing follows the grammar: the prologue is read with the
        parsers' own scanner and the keyword behind it picks the parser,
        so IRIs, strings, comments and prefix labels that merely look
        like keywords cannot misroute a request, and a syntax error is
        reported once, by the parser the text belongs to.
        """
        scanner = SPARQLParserBase(sparql)
        scanner.prologue()
        if any(scanner.at_keyword(form) for form in QueryParser.FORMS):
            return self.prepare_query(sparql, prefixes=prefixes)
        if any(scanner.at_keyword(form) for form in UpdateParser.FORMS):
            return self.prepare_update(sparql, prefixes=prefixes)
        forms = QueryParser.FORMS + UpdateParser.FORMS
        raise scanner.error(f"expected {', '.join(forms[:-1])}, or {forms[-1]}")

    def prepare_update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
        allow_placeholders: bool = True,
    ) -> PreparedUpdate:
        """Parse an update once for repeated execution.

        ``allow_placeholders=False`` re-enables the submission's
        concreteness rule for data blocks — the HTTP endpoint uses it,
        since the wire protocol has no way to pass bindings.
        """
        if isinstance(request, UpdateRequest):
            return PreparedUpdate(self, request)
        # Not cached by text: no workload sends the same update text
        # twice (every /update body names new data), so a cache here
        # only cost each write an LRU insert and eviction under the
        # cache lock.  Keep the returned object to execute it again.
        return PreparedUpdate(
            self,
            parse_update(
                request,
                prefixes=prefixes,
                allow_placeholders=allow_placeholders,
            ),
            text=request,
        )

    def prepare_query(
        self,
        query: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
    ) -> PreparedQuery:
        if not isinstance(query, str):
            return PreparedQuery(self, query)
        if prefixes is None:
            with self._cache_lock:
                cached = self._prepared.get(query)
                if cached is not None:
                    self._prepared.move_to_end(query)
                    return cached
        prepared = PreparedQuery(
            self, parse_query(query, prefixes=prefixes), text=query
        )
        if prefixes is not None:  # the text alone does not name the query
            return prepared
        with self._cache_lock:
            # On a racing insert of the same text keep and return the
            # first one, so all threads share one prepared object and
            # its caches.
            existing = self._prepared.setdefault(query, prepared)
            if len(self._prepared) > _PREPARED_CACHE_SIZE:
                self._prepared.popitem(last=False)
            return existing

    # -- write path -----------------------------------------------------

    def execute(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        """Execute a SPARQL/Update request.

        This is the one-shot path: request strings are parsed per call
        (the legacy facade behaviour); use :meth:`prepare` to parse once
        for repeated executions.  Outside an explicit transaction each
        operation runs in its own database transaction (the paper's
        atomicity rule); inside one, all operations join the open
        transaction.
        """
        _OPS_UPDATE.inc()
        if isinstance(request, str):
            request = parse_update(request, prefixes=prefixes)
        return self._run(request.operations, atomic=False)

    def execute_all(
        self,
        requests: Iterable[Union[str, UpdateRequest]],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        """Execute a batch of requests inside **one** transaction.

        Either every operation of every request commits, or — on the
        first error — everything rolls back and the error propagates.
        """
        _OPS_BATCH.inc()
        operations: List[UpdateOperation] = []
        for request in requests:
            if isinstance(request, str):
                request = parse_update(request, prefixes=prefixes)
            operations.extend(request.operations)
        return self._run(operations, atomic=True)

    # -- read path ------------------------------------------------------

    def query(
        self,
        q: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
        timeout: Optional[float] = None,
    ):
        """Run a SPARQL query; returns SelectResult / bool / Graph.

        ``timeout`` (seconds) bounds evaluation: the executor's
        cooperative cancellation checks raise :class:`~repro.errors.
        QueryTimeout` once it passes.  An enclosing deadline (e.g. the
        endpoint's per-request budget) is never loosened — the tighter
        of the two wins.
        """
        return self.query_outcome(q, prefixes=prefixes, timeout=timeout).result

    def query_outcome(
        self,
        q: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
        timeout: Optional[float] = None,
    ) -> QueryOutcome:
        # Read tier: no session lock.  The backend evaluates against the
        # committed snapshot current at the query's start (the thread
        # owning an open transaction sees its own writes instead).
        _OPS_QUERY.inc()
        if timeout is not None:
            with deadline_scope(timeout):
                if isinstance(q, str):
                    return self.prepare_query(q, prefixes=prefixes).outcome()
                return self.backend.query_outcome(q, prefixes=prefixes)
        if isinstance(q, str):
            return self.prepare_query(q, prefixes=prefixes).outcome()
        return self.backend.query_outcome(q, prefixes=prefixes)

    def dump(self) -> Graph:
        """Materialize the backend's state as RDF.

        Read tier: both backends route their dump through the committed
        snapshot (or the working store for the transaction's own thread),
        so no lock is needed and a long-running transaction elsewhere
        never stalls a dump.
        """
        return self.backend.dump()

    # -- transactions ---------------------------------------------------

    def begin(self) -> None:
        """Open a transaction, holding the write-tier lock until
        :meth:`commit`/:meth:`rollback`.

        Transaction scope is thread-owned: exactly like the engine's
        writer lock, the thread that called ``begin`` must finish the
        transaction.  Another thread's write simply waits here (it can
        never sneak into — or deadlock against — an open transaction),
        and reads are unaffected (they use the committed snapshot).
        """
        self._lock.acquire()
        try:
            self.backend.begin()
        except BaseException:
            self._lock.release()
            raise
        self.backend._begin_holds += 1

    def _release_begin_hold(self) -> None:
        """Drop the lock acquisition made by :meth:`begin`, if any —
        also on the error paths (e.g. committing after a failed
        operation already rolled the transaction back).

        MUST be called while holding the lock: a begin-hold is itself a
        lock acquisition, so inside the lock a nonzero count can only be
        this thread's own reentrant hold — checking it anywhere else
        would race another thread's ``begin``.  The count lives on the
        backend, so a transaction begun through one session can be
        finished through another session over the same backend.
        """
        backend = self.backend
        if backend._begin_holds:
            backend._begin_holds -= 1
            self._lock.release()

    def commit(self) -> None:
        with self._lock:
            try:
                token = self.backend.commit()
            finally:
                self._release_begin_hold()
        # The durability (and replica-ack) wait runs with the write-tier
        # lock released: the next writer executes and appends meanwhile,
        # and both ride one flush (group commit).
        self.backend.wait_durable(token)

    def rollback(self) -> None:
        with self._lock:
            try:
                self.backend.rollback()
            finally:
                self._release_begin_hold()

    def in_transaction(self) -> bool:
        return self.backend.in_transaction()

    def health(self) -> Dict[str, Any]:
        """Backend health (ISSUE 6): durability state incl. WAL refusing
        mode and last-checkpoint age.  Read tier — no lock, so a health
        probe can never be starved by a long write."""
        return self.backend.health()

    def checkpoint(self) -> Optional[str]:
        """Force a durability checkpoint on the backend's store.

        Takes no write-tier lock: the store makes the cut under its own
        writer lock (waiting out another thread's open transaction,
        refusing this thread's) and serializes the frozen snapshot after
        releasing it, so updates commit and are acknowledged while the
        checkpoint file is being written.
        Returns the checkpoint path, or None for in-memory backends.
        """
        return self.backend.checkpoint()

    @contextmanager
    def transaction(self):
        """Explicit scope: operations inside join one transaction."""
        with self._lock:
            self.backend.begin()
            try:
                yield self
            except Exception:
                if self.backend.in_transaction():
                    self.backend.rollback()
                raise
            else:
                token = self.backend.commit()
        self.backend.wait_durable(token)  # lock released, as in commit()

    # -- execution core -------------------------------------------------

    def _run(
        self, operations: Sequence[UpdateOperation], atomic: bool
    ) -> UpdateResult:
        """The one update routine: run concrete operations under the
        write-tier lock with session-managed transaction scope.

        Callers parse and substitute bindings *before* calling, so the
        lock is held for translation and execution only.  ``atomic=True``
        wraps the whole batch in one transaction; otherwise each
        operation gets its own.  Inside an explicit transaction
        (``session.begin()``/``transaction()``) operations join it, and
        any error rolls the whole transaction back so no transaction is
        ever left open.

        Commit is two steps: under the lock the transaction is published
        and appended to the log; the wait for the flush (and, with
        semi-sync replication, for a replica's ack) happens after the
        lock is released, so concurrent writers share one flush instead
        of queueing behind each other's.  The result is returned — the
        write acknowledged — only after that wait.
        """
        result = UpdateResult()
        backend = self.backend
        tokens = []
        with self._lock:
            joined = backend.in_transaction()
            if atomic or joined:
                scopes = [operations]
            else:
                scopes = [[operation] for operation in operations]
            for scope in scopes:
                if not joined:
                    backend.begin()
                try:
                    for operation in scope:
                        result.operations.append(
                            backend.execute_operation(operation)
                        )
                    if not joined:
                        token = backend.commit()
                        if token is not None:
                            tokens.append(token)
                except Exception as exc:
                    self._fail(exc)
        try:
            for token in tokens:
                backend.wait_durable(token)
        except Exception as exc:
            self._raise_wrapped(exc)
        return result

    def _fail(self, exc: Exception) -> None:
        """Roll back any open transaction, then raise the wrapped error."""
        if self.backend.in_transaction():
            self.backend.rollback()
        self._raise_wrapped(exc)

    def _raise_wrapped(self, exc: Exception) -> None:
        wrapped = self.backend.wrap_error(exc)
        if wrapped is exc:
            raise exc
        raise wrapped from exc
