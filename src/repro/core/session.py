"""Sessions and prepared operations: the amortizing public API.

A :class:`Session` — obtained from :meth:`OntoAccess.session()
<repro.core.mediator.OntoAccess.session>` or built directly over any
:class:`~repro.core.backend.Backend` — runs every request text through
one route: **a text is a shape plus values.**  One pass over its tokens
(:meth:`~repro.sparql.parse_base.SPARQLParserBase.lift`) lifts the
constants in term positions — subject and object IRIs, literals, numbers,
FILTER and template constants, never predicates or classes — into a value
vector and yields the shape's key.  The session keeps the parsed shape per
key, a :class:`PreparedQuery` / :class:`PreparedUpdate` whose lifted
positions are internal placeholders (:class:`~repro.rdf.terms.
Placeholder`), so a request is that scan, the binding of its values and
the prepared execution: ``OntoAccess.update(text)``, ``query(text)`` and
the HTTP endpoint's ``/update``, ``/batch`` and ``/query`` parse and
translate once per shape, not once per request.  The map is bounded (an
open endpoint can be sent any number of shapes), least recently used
first out.

* :meth:`Session.prepare` returns a :class:`PreparedUpdate` /
  :class:`PreparedQuery` whose ``execute()`` can run many times.  Which
  of the two a text is follows from its grammar, not from a guess: the
  prologue is read with the scanner both SPARQL parsers are built on
  (:mod:`repro.rdf.scanner`) and the first keyword behind it — SELECT /
  ASK / CONSTRUCT or INSERT / DELETE / MODIFY / CLEAR — names the parser,
  which reports its own errors.
* Prepared templates may contain SPARQL variables as placeholders;
  ``execute(bindings={"name": ...})`` binds them at execute time (the
  prepared-statement idiom).  For a query, and for the WHERE of a MODIFY,
  they are *initial bindings*: each reads as the term given wherever the
  pattern uses it and is part of every solution — so a placeholder that
  is also projected, ordered by or used in a CONSTRUCT template comes
  back bound.
* What is kept between executions is the backend's
  (:meth:`~repro.core.backend.Backend.keep`, one slot per operation or
  query of a shape).  On the relational backend: per **query** the
  SPARQL→SQL translation of its WHERE *template* — one
  :class:`~repro.core.backend.PreparedPattern`, bound again for every
  binding set (a few µs) and translated again only for a binding of
  another kind (an author URI, then a publication URI, for the same
  placeholder), per mapping/schema version; per **INSERT DATA / DELETE
  DATA** block the translated data template
  (:class:`~repro.core.common.PreparedData`): groups, tables, value
  converters and statement shapes, which an execution binds its values
  to — reading the rows it must (does the entity exist, do the triples
  to delete hold) — and which is built again only for values that name
  another table; per **MODIFY** both, for its WHERE and for its DELETE
  and INSERT templates, which each binding binds.  Below that, the
  engine plans each statement *shape* once: all bindings of a template,
  prepared or sent as text, share one plan.
* :meth:`Session.execute_all` runs a multi-operation batch inside **one**
  database transaction — all-or-nothing, whereas the facade commits each
  operation separately per the paper's one-transaction-per-operation rule.
* Transaction scope (:meth:`begin` / :meth:`commit` / :meth:`rollback`
  / :meth:`transaction`) is the backend's, and a write takes one lock:
  the store's writer lock, which the backend's ``begin`` takes and its
  ``commit`` / ``rollback`` release.  **Write** entry points hold it
  across one request's operations, so a threaded HTTP endpoint can share
  one session without interleaving transactions; **read** entry points
  (:meth:`query`, :meth:`query_outcome`, :meth:`answer_outcome`,
  prepared queries) never take it — they run against the backend's
  committed snapshot, so N reader threads proceed concurrently with
  each other and with at most one writer.  The session's shape map has
  a lock of its own, held only for dictionary access, never during
  parsing or execution; the prepared shapes themselves are shared
  lock-free.

Semantics cannot drift between one-shot and prepared requests, because
there is one path: :meth:`Session.execute`, :meth:`Session.execute_all`,
:meth:`PreparedUpdate.execute` and the HTTP endpoint's ``/update`` and
``/batch`` all hand each operation — with the solution that binds its
placeholders and its kept slot, a :data:`Step` — to one routine that
holds the writer lock, opens the transaction scope and calls
``backend.execute_operation``; a parsed request's operations travel
without a slot, and the backend uses a throwaway one.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..deadline import deadline_scope
from ..errors import SPARQLParseError, TranslationError
from ..observability.metrics import REQUEST_SHAPES, SESSION_OPS
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Literal, Placeholder, Term, Variable
from ..sparql.algebra import Solution
from ..sparql.query_ast import Query
from ..sparql.parse_base import Lifted, SPARQLParserBase
from ..sparql.query_parser import QueryParser
from ..sparql.update_ast import (
    DeleteData,
    InsertData,
    UpdateOperation,
    UpdateRequest,
)
from ..sparql.update_parser import UpdateParser
from .backend import Backend, UpdateResult
from .query import QueryOutcome

__all__ = ["PreparedQuery", "PreparedUpdate", "Session"]

Bindings = Dict[str, Any]

#: One operation as the backend runs it: the operation, the solution its
#: placeholders are bound by, and the backend's kept slot for it (None: a
#: throwaway one).
Step = Tuple[UpdateOperation, Optional[Solution], Any]

#: Shapes a session keeps, least recently used first out.
_SHAPES_KEPT = 128

#: What a text is parsed as: a query, an update whose data blocks must
#: be concrete, or an update template whose data blocks may hold the
#: client's placeholders.  Part of a shape's key.
_QUERY, _UPDATE, _TEMPLATE = "query", "update", "template"

# Label children resolved once: the hot paths pay a sharded add, not a
# dict lookup under the registry lock.
_OPS_QUERY = SESSION_OPS.labels("query")
_OPS_UPDATE = SESSION_OPS.labels("update")
_OPS_BATCH = SESSION_OPS.labels("batch")
_SHAPE_HIT = REQUEST_SHAPES.labels("hit")
_SHAPE_MISS = REQUEST_SHAPES.labels("miss")
_SHAPE_FALLBACK = REQUEST_SHAPES.labels("fallback")


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
# placeholders: bound into data templates and patterns
# ---------------------------------------------------------------------------

def _require_bound(
    operations: Sequence[UpdateOperation], solution: Solution
) -> None:
    """A data block's placeholders must all be bound: checked for the
    whole request before any of its operations runs."""
    for operation in operations:
        if not isinstance(operation, (InsertData, DeleteData)):
            continue
        for triple in operation.triples:
            unbound = [
                term for term in triple
                if isinstance(term, Variable) and term not in solution
            ]
            if unbound:
                names = ", ".join(f"?{v.name}" for v in unbound)
                raise TranslationError(
                    f"unbound placeholder(s) {names} in prepared data block; "
                    "pass bindings={...} at execute time",
                    code=TranslationError.UNSUPPORTED,
                )


# ---------------------------------------------------------------------------
# prepared operations
# ---------------------------------------------------------------------------

class _Prepared:
    """What a prepared update and a prepared query share: a parsed shape
    and the constants of the text it was prepared from.

    The shape a session keeps holds no session: the session holds it,
    and a reference back would make every dropped session wait for the
    cycle collector.  What :meth:`Session.prepare` hands out is a copy
    that holds its session (:meth:`_of`)."""

    session: Optional["Session"] = None
    #: the text this object was prepared from, if any
    text: Optional[str] = None
    #: that text's constants, by the placeholders they were lifted into
    _values: Optional[Solution] = None

    def _solution(self, bindings: Optional[Bindings]) -> Solution:
        solution = _solution(bindings)
        if self._values:
            solution.update(self._values)
        return solution

    def _of(
        self, session: "Session", text: Optional[str], values: Optional[Solution]
    ) -> "_Prepared":
        """This shape, prepared in ``session`` from ``text`` whose
        constants are ``values``: what is kept per shape is shared, not
        copied."""
        prepared = copy.copy(self)
        prepared.session, prepared.text, prepared._values = session, text, values
        return prepared


class PreparedUpdate(_Prepared):
    """A parsed SPARQL/Update request, executable many times.

    Parsing happened once per shape; each execution binds its values
    and runs the operations exactly like :meth:`Session.execute` does.
    What is amortized: the parse, what the backend keeps of each
    operation (:meth:`~repro.core.backend.Backend.keep`: on the
    relational backend the translated template of each data block and
    the translations of each MODIFY's WHERE and templates) and — since
    every execution produces the same statement shapes — the engine's
    plans.
    """

    def __init__(self, backend: Backend, request: UpdateRequest) -> None:
        self.request = request
        #: per operation, what the backend keeps between executions
        self._kept = [backend.keep(op) for op in request.operations]
        #: the placeholders the data blocks hold: an execution binds all
        self._placeholders = frozenset(
            term
            for op in request.operations
            if isinstance(op, (InsertData, DeleteData))
            for triple in op.triples
            for term in triple
            if isinstance(term, Variable)
        )

    def execute(self, bindings: Optional[Bindings] = None) -> UpdateResult:
        """Execute the request; placeholders are bound from
        ``bindings`` (variable name → RDF term or plain Python value)."""
        return self.session._run(
            self._steps(self._solution(bindings)), atomic=False
        )

    def _steps(self, solution: Solution) -> List[Step]:
        """The request's operations under ``solution``."""
        operations = self.request.operations
        if not self._placeholders <= solution.keys():
            _require_bound(operations, solution)
        return [
            (operation, solution, kept)
            for operation, kept in zip(operations, self._kept)
        ]


class PreparedQuery(_Prepared):
    """A parsed SPARQL query, executable many times.

    ``bindings`` are initial bindings of the WHERE pattern: a
    placeholder reads as the term given and comes back bound to it —
    in the projection, under ORDER BY and in a CONSTRUCT template — as
    initial bindings behave in Jena and rdflib.  On the relational
    backend the SPARQL→SQL translation is kept per *template* (see
    :class:`~repro.core.backend.PreparedPattern`), so an execution binds
    the values, runs the one statement shape, and its answer step turns
    the rows into solutions.
    """

    def __init__(self, backend: Backend, query: Query) -> None:
        self.query = query
        #: what the backend keeps of the query between executions
        self._plan = backend.keep(query)

    def execute(self, bindings: Optional[Bindings] = None):
        """Run the query; returns SelectResult / bool / Graph."""
        return self.outcome(bindings).result

    def outcome(self, bindings: Optional[Bindings] = None) -> QueryOutcome:
        """How the query was answered, its result built in this call."""
        return self.answer_outcome(bindings).built()

    def answer_outcome(self, bindings: Optional[Bindings] = None) -> QueryOutcome:
        """Like :meth:`outcome`, but the answer is left as evaluation
        produced it: a SELECT a kept translation answered keeps its rows
        (:class:`~repro.core.answer.SelectRows`), for a reader
        that writes them itself."""
        # Lock-free read path: execution runs against the backend's
        # committed snapshot; the kept slot is shared by all threads.
        return self.session.backend.query_outcome(
            self.query, self._solution(bindings), self._plan
        )


class _Shape(NamedTuple):
    """What a session keeps per shape key."""

    prepared: Union[PreparedQuery, PreparedUpdate]
    #: what the shape's prologue binds (with the caller's prefixes): the
    #: texts of one key resolve their constants against it
    prefixes: PrefixMap
    base: str
    #: slot -> the placeholder its constant was lifted into
    placeholders: Tuple[Placeholder, ...]


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class Session:
    """Runs requests over a backend and keeps their shapes.

    Thread-safe.  Writes serialize on the backend's writer lock — the
    store's own, so **all** sessions over one backend (the facade's and
    the HTTP endpoint's, say) serialize on it and never interleave
    transactions.  The session owns no write lock; its one lock guards
    its shape map and is held only for lookups/insertions, never across
    parsing or execution.  Queries take no lock: they run against the
    backend's committed snapshot, concurrent with each other and with at
    most one writer.
    """

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self._cache_lock = threading.Lock()
        #: shape key -> what is kept for that shape, least recently used
        #: first; touched under the cache lock only
        self._shapes: "OrderedDict[Hashable, _Shape]" = OrderedDict()
        #: a text's head -> the key of that part, read once per head
        #: (:meth:`~repro.sparql.parse_base.SPARQLParserBase.lift`); as
        #: many as shapes are kept, emptied when it outgrows them
        self._heads: Dict[str, str] = {}

    # -- preparing ------------------------------------------------------

    def prepare(
        self, sparql: str, prefixes: Optional[PrefixMap] = None
    ) -> Union[PreparedUpdate, PreparedQuery]:
        """Returns a :class:`PreparedQuery` for SELECT / ASK / CONSTRUCT
        text and a :class:`PreparedUpdate` for INSERT / DELETE / MODIFY /
        CLEAR, parsed once per shape (see the module docstring).

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
        """Prepare an update for repeated execution.

        ``allow_placeholders=False`` re-enables the submission's
        concreteness rule for data blocks — the HTTP endpoint uses it,
        since the wire protocol has no way to pass bindings.
        """
        if isinstance(request, UpdateRequest):
            return PreparedUpdate(self.backend, request)._of(self, None, None)
        mode = _TEMPLATE if allow_placeholders else _UPDATE
        prepared, values = self._shape(request, prefixes, mode)
        return prepared._of(self, request, values)

    def prepare_query(
        self,
        query: Union[str, Query],
        prefixes: Optional[PrefixMap] = None,
    ) -> PreparedQuery:
        if not isinstance(query, str):
            return PreparedQuery(self.backend, query)._of(self, None, None)
        prepared, values = self._shape(query, prefixes, _QUERY)
        return prepared._of(self, query, values)

    # -- the route every request text takes -----------------------------

    def _shape(
        self, text: str, prefixes: Optional[PrefixMap], mode: str
    ) -> Tuple[Union[PreparedQuery, PreparedUpdate], Solution]:
        """The kept shape of ``text`` and the text's own constants: one
        scan, one dictionary look-up, and a parse only for a shape not
        kept yet (or a text that cannot be read as shape plus values:
        the *fallback*, counted apart from the misses)."""
        reader = SPARQLParserBase(text, prefixes)
        heads = self._heads
        lifted = reader.lift(heads)
        if len(heads) > _SHAPES_KEPT:
            heads.clear()
        if lifted is not None:
            key = (
                lifted.key,
                mode,
                None if prefixes is None else tuple(prefixes.items()),
            )
            with self._cache_lock:
                shape = self._shapes.get(key)
                if shape is not None:
                    self._shapes.move_to_end(key)
            counter = _SHAPE_HIT
            if shape is None:
                counter = _SHAPE_MISS
                shape = self._parse_shape(text, prefixes, mode, lifted)
                if shape is not None:
                    with self._cache_lock:
                        # Racing parses of one new shape: all keep and
                        # use the first, so they share its translations.
                        shape = self._shapes.setdefault(key, shape)
                        if len(self._shapes) > _SHAPES_KEPT:
                            self._shapes.popitem(last=False)
            if shape is not None:
                values = reader.lifted_values(lifted, shape.prefixes, shape.base)
                if values is not None:
                    counter.inc()
                    return shape.prepared, dict(zip(shape.placeholders, values))
        _SHAPE_FALLBACK.inc()
        return self._parse(text, prefixes, mode)[0], {}

    def _parse_shape(
        self, text: str, prefixes: Optional[PrefixMap], mode: str, lifted: Lifted
    ) -> Optional[_Shape]:
        """Parse ``text`` with its lifted constants read as placeholders.
        None when the parser does not read every one of them as a term
        where it was lifted, or rejects the text (the caller parses it
        again as written, so an error is the parser's own)."""
        placeholders = tuple(Placeholder(slot) for slot in range(len(lifted.slots)))
        at = {start: (end, placeholders[slot]) for start, end, slot in lifted.spans}
        try:
            prepared, parser = self._parse(text, prefixes, mode, at)
        except SPARQLParseError:
            return None
        if len(parser.consumed) != len(at):
            return None
        return _Shape(prepared, parser.prefixes, parser.base, placeholders)

    def _parse(
        self,
        text: str,
        prefixes: Optional[PrefixMap],
        mode: str,
        lifted: Optional[Dict[int, Tuple[int, Placeholder]]] = None,
    ) -> Tuple[Union[PreparedQuery, PreparedUpdate], SPARQLParserBase]:
        if mode == _QUERY:
            parser = QueryParser(text, prefixes=prefixes)
            parser.lifted = lifted
            return PreparedQuery(self.backend, parser.query()), parser
        parser = UpdateParser(text, prefixes=prefixes)
        parser.allow_placeholders = mode == _TEMPLATE
        parser.lifted = lifted
        return PreparedUpdate(self.backend, parser.request()), parser

    def _steps(
        self, request: Union[str, UpdateRequest], prefixes: Optional[PrefixMap]
    ) -> List[Step]:
        """The operations of one request as the backend runs them: a
        text's as its shape's under the text's values, a parsed
        request's as they are, without a kept slot."""
        if isinstance(request, UpdateRequest):
            return [(operation, None, None) for operation in request.operations]
        prepared, values = self._shape(request, prefixes, _UPDATE)
        return prepared._steps(values)

    # -- write path -----------------------------------------------------

    def execute(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        """Execute a SPARQL/Update request.

        A text runs as its shape with its own values (data blocks hold
        no placeholders of the client's).  Outside an explicit
        transaction each operation runs in its own database transaction
        (the paper's atomicity rule); inside one, all operations join
        the open transaction.
        """
        _OPS_UPDATE.inc()
        return self._run(self._steps(request, prefixes), atomic=False)

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
        steps: List[Step] = []
        for request in requests:
            steps.extend(self._steps(request, prefixes))
        return self._run(steps, atomic=True)

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
        """How a query was answered, its result (a SELECT's solutions)
        built before this returns; ``timeout`` as for :meth:`query`."""
        if timeout is not None:
            with deadline_scope(timeout):
                return self.answer_outcome(q, prefixes).built()
        return self.answer_outcome(q, prefixes).built()

    def answer_outcome(
        self, q: Union[str, Query], prefixes: Optional[PrefixMap] = None
    ) -> QueryOutcome:
        """Like :meth:`query_outcome`, but the answer is left as
        evaluation produced it: a SELECT a kept translation answered
        keeps its rows (:class:`~repro.core.answer.SelectRows`), which
        the endpoint's JSON route writes as text without building terms."""
        # No lock: the backend evaluates against the committed snapshot
        # current at the query's start (the thread owning an open
        # transaction sees its own writes instead).
        _OPS_QUERY.inc()
        if isinstance(q, str):
            prepared, values = self._shape(q, prefixes, _QUERY)
            return self.backend.query_outcome(prepared.query, values, prepared._plan)
        return self.backend.query_outcome(q)

    def dump(self) -> Graph:
        """Materialize the backend's state as RDF.

        Takes no lock: both backends route their dump through the
        committed snapshot (or the working store for the transaction's
        own thread), so a long-running transaction elsewhere never
        stalls a dump.
        """
        return self.backend.dump()

    # -- transactions ---------------------------------------------------

    def begin(self) -> None:
        """Open a transaction: the backend takes its writer lock and
        holds it until :meth:`commit` / :meth:`rollback`.

        Transaction scope is thread-owned: the thread that called
        ``begin`` must finish the transaction (another thread's commit
        or rollback raises :class:`~repro.errors.TransactionError`).
        Another thread's write simply waits for the lock (it can never
        sneak into — or deadlock against — an open transaction), and
        reads are unaffected (they use the committed snapshot).  An
        operation that fails inside the transaction rolls it back, which
        releases the lock.
        """
        self.backend.begin()

    def commit(self) -> None:
        token = self.backend.commit()
        # The durability (and replica-ack) wait runs with the writer
        # lock released: the next writer executes and appends meanwhile,
        # and both ride one flush (group commit).
        self.backend.wait_durable(token)

    def rollback(self) -> None:
        self.backend.rollback()

    def in_transaction(self) -> bool:
        return self.backend.in_transaction()

    def health(self) -> Dict[str, Any]:
        """Backend health (ISSUE 6): durability state incl. WAL refusing
        mode and last-checkpoint age.  Takes no lock, so a health
        probe can never be starved by a long write."""
        return self.backend.health()

    def checkpoint(self) -> Optional[str]:
        """Force a durability checkpoint on the backend's store.

        Takes no lock itself: the store makes the cut under its
        writer lock (waiting out another thread's open transaction,
        refusing this thread's) and serializes the frozen snapshot after
        releasing it, so updates commit and are acknowledged while the
        checkpoint file is being written.
        Returns the checkpoint path, or None for in-memory backends.
        """
        return self.backend.checkpoint()

    @contextmanager
    def transaction(self):
        """Explicit scope: operations inside join one transaction, which
        commits at the end and rolls back on any exception
        (``KeyboardInterrupt`` included), re-raised."""
        backend = self.backend
        backend.begin()
        try:
            yield self
        except BaseException:
            # Under the writer lock an open transaction can only be this
            # thread's (a failed operation may have rolled it back).
            with backend.writer_lock:
                if backend.in_transaction():
                    backend.rollback()
            raise
        self.commit()

    # -- execution core -------------------------------------------------

    def _run(self, steps: Sequence[Step], atomic: bool) -> UpdateResult:
        """The one update routine: run a request's steps under the
        backend's writer lock, each in a transaction of its own, all in
        one, or in the caller's open one.

        Callers parse and resolve bindings *before* calling, so the
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
        with backend.writer_lock:
            joined = backend.in_transaction()
            if atomic or joined:
                scopes = [steps]
            else:
                scopes = [[step] for step in steps]
            for scope in scopes:
                if not joined:
                    backend.begin()
                try:
                    for step in scope:
                        result.operations.append(
                            backend.execute_operation(*step)
                        )
                    if not joined:
                        token = backend.commit()
                        if token is not None:
                            tokens.append(token)
                except BaseException as exc:
                    self._fail(exc)
        try:
            for token in tokens:
                backend.wait_durable(token)
        except Exception as exc:
            self._raise_wrapped(exc)
        return result

    def _fail(self, exc: BaseException) -> None:
        """Roll back the open transaction — under the writer lock it is
        the caller's — then raise the wrapped error."""
        if self.backend.in_transaction():
            self.backend.rollback()
        self._raise_wrapped(exc)

    def _raise_wrapped(self, exc: BaseException) -> None:
        wrapped = self.backend.wrap_error(exc)
        if wrapped is exc:
            raise exc
        raise wrapped from exc
