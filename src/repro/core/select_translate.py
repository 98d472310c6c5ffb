"""SPARQL query → SQL SELECT translation over an R3M mapping.

Algorithm 2 (MODIFY) needs its WHERE clause evaluated against the
relational data: "The WHERE part is used to create a SPARQL SELECT query
that retrieves the data needed for the DELETE and INSERT templates.  It is
translated to SQL and evaluated on the relational data."  This module
implements that translation for the fragment the mapping approach admits
(Angles & Gutierrez's expressivity result guarantees the full language is
translatable in principle; OntoAccess translates the mapped fragment and
the mediator falls back to dump-based evaluation for the rest).  What is
translated is a whole query — its pattern, its form and projection, and
its solution modifiers — because the rows are turned into answers once.

Translatable fragment:

* basic graph patterns whose subjects resolve to mapped tables (via
  ``rdf:type`` triples, property usage, or concrete instance URIs);
* data- and object-property triples, including joins through foreign keys
  and N:M link tables;
* ``OPTIONAL`` groups of property triples over already-bound subjects;
* ``FILTER`` comparisons pushed into SQL where SQL compares as SPARQL
  does; all residual filters are applied to the decoded bindings
  afterwards, so filter semantics never restrict the fragment;
* ``ORDER BY`` / ``LIMIT`` / ``OFFSET`` pushed into SQL where SQL orders
  as SPARQL does (the rule is stated at :meth:`SelectTranslator.
  _order_item`); what is left — a key SQL would order otherwise, DISTINCT,
  a LIMIT behind a residual filter — is applied to the solutions by
  :func:`~repro.sparql.engine.apply_select_modifiers`, the modifiers'
  residue as ``post_filters`` are the FILTER residue.

Everything else (UNION, variable predicates, unmappable subjects) raises
:class:`~repro.errors.UnsupportedPatternError`; callers fall back to
evaluating against :func:`repro.core.dump.dump_database`.

**The answer step.**  A translation keeps what its rows mean — per
variable the answer binds, its column or placeholder — and generates
from that each row function on its first use (:mod:`repro.core.answer`):
the answer step to solutions, the JSON writer to text.  Translation
compiles nothing.  A SELECT whose modifiers all went into the SQL is
answered by its rows (:class:`~repro.core.answer.SelectRows`).

**Shape and values.**  What comes out is a statement *shape* and a value
vector (:class:`repro.sql.ast.Bound`): every key or constant of the
request — a subject URI's key, the SQL value of an object, a FILTER
constant — enters the SQL through one collector
(:class:`~repro.core.common.Values`) as a parameter.  Structural, i.e.
part of the shape: tables, joins and column lists, ``IS [NOT] NULL``, the
``pk = NULL`` of a subject that names no row, ``SELECT 1 AS one``.

**Templates and binders.**  A pattern may be translated together with
*bindings* of some of its variables (a prepared operation's
placeholders).  The translator then decides everything exactly as it
would for the substituted pattern, but where the bound term's value goes
into the vector it also records the *binder* it just applied — subject
URI → key of the table its ``uriPattern`` identified; object →
:func:`~repro.core.common.value_converter` for that column (which is
the ``value_pattern`` inverse for ``foaf:mbox``, the referenced table's
key for an object property); FILTER constant → the number or string the
column can be compared with.  :meth:`TranslatedSelect.bind` replays the
binders on another binding of the same template — a few µs instead of a
translation — and reports a binding it was not made for (``None``):
another kind of term for a placeholder, a URI that identifies another
table, a value the column cannot hold, another value for a placeholder
that shaped the statement (a predicate, a class).  What is compared is
what translation branched on, never the values themselves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import TranslationError, UnsupportedPatternError
from ..rdb.engine import Database
from ..rdb.types import FloatType, IntegerType, StringType
from ..rdf.graph import Graph
from ..rdf.namespace import RDF
from ..rdf.terms import XSD_STRING, BNode, Literal, Term, Triple, URIRef, Variable
from ..r3m.model import (
    AttributeMapping,
    DatabaseMapping,
    LinkTableMapping,
    TableMapping,
)
from ..sparql import algebra_ast as alg
from ..sparql.algebra import Solution, initial_solution
from ..sparql.engine import shape_result
from ..sparql.query_ast import AskQuery, OrderCondition, Query, SelectQuery
from ..sql import ast
from .answer import (
    AnswerStep,
    BindingSite,
    JsonWriter,
    Members,
    SelectRows,
    answer_members,
    answer_step,
    json_writer,
)
from .common import (
    EntityRef,
    SubjectReader,
    Values,
    coerce_pattern_values,
    identify_entity,
    value_converter,
)

__all__ = ["SelectRows", "TranslatedSelect", "translate_query", "SelectTranslator"]

#: Term bound to a placeholder → the value at its place in the vector;
#: raises :class:`TranslationError` for a term it was not made for.
Binder = Callable[[Term], Any]


@dataclass
class TranslatedSelect:
    """A translated query: the SQL statement, what its rows mean, and —
    when the pattern is a template — the recipe to bind it again.  The
    functions that turn rows into solutions (:meth:`answer`) or JSON
    text (:meth:`write_json`) are each generated on their first call.
    (Two first calls at once both generate it; either result is kept.)"""

    #: shape + the values of the binding it was translated from
    statement: ast.Bound
    db: Database
    #: per variable :meth:`answer` binds: its site and literal form
    members: Members
    #: FILTERs left to Python, applied by :meth:`answer`
    post_filters: Tuple[alg.Expr, ...]
    #: the query whose form and solution modifiers still apply to what
    #: :meth:`answer` returns; None: those are the SELECT's solutions
    residual: Optional[Query]
    #: the SELECT's projection (``residual`` None)
    variables: Tuple[Variable, ...] = ()
    #: placeholder → kind of term it was bound to (all bindings given)
    kinds: Dict[Variable, type] = field(default_factory=dict)
    #: placeholders whose whole value shaped the statement
    pinned: Dict[Variable, Term] = field(default_factory=dict)
    #: (position in the value vector — None: a check only —,
    #: placeholder, binder)
    binders: Tuple[Tuple[Optional[int], Variable, Binder], ...] = ()
    _answer: Optional[AnswerStep] = field(default=None, init=False, repr=False)
    _json: Optional[JsonWriter] = field(default=None, init=False, repr=False)

    def answer(
        self, rows: Sequence[Tuple[Any, ...]], seed: Solution
    ) -> List[Solution]:
        """The solutions of ``rows`` (``seed``: the bindings the
        statement was bound with), filtered by :attr:`post_filters`."""
        step = self._answer
        if step is None:
            step = self._answer = answer_step(self.members, self.post_filters)
        return step(rows, seed)

    def write_json(
        self, rows: Sequence[Tuple[Any, ...]], seed: Solution
    ) -> List[str]:
        """The SPARQL JSON text of each solution :meth:`answer` makes of
        ``rows`` (``residual`` None)."""
        write = self._json
        if write is None:
            write = self._json = json_writer(self.members)
        return write(rows, seed)

    def bind(self, bindings: Solution) -> Optional[ast.Bound]:
        """The statement for ``bindings``, or None when translating with
        them would have branched differently (the caller translates
        again, which also raises whatever error the binding earns)."""
        kinds = self.kinds
        if len(bindings) != len(kinds):
            return None
        try:
            for variable, term in bindings.items():
                if type(term) is not kinds[variable]:
                    return None
            for variable, term in self.pinned.items():
                if bindings[variable] != term:
                    return None
            if not self.binders:
                return self.statement
            values = list(self.statement.values)
            for index, variable, binder in self.binders:
                value = binder(bindings[variable])
                if index is not None:
                    values[index] = value
        except (KeyError, TranslationError):
            return None
        return ast.Bound(self.statement.shape, tuple(values))

    def execute(
        self, statement: ast.Bound, bindings: Optional[Solution] = None
    ) -> Union[SelectRows, bool, Graph]:
        """Run ``statement`` (this translation, bound) and answer the
        query from its rows: a SELECT whose modifiers all went into the
        SQL with the rows themselves, anything else from the solutions.
        ``bindings`` are the ones it was bound with: a placeholder the
        query reads is bound to its term in every solution."""
        rows = self.db.execute(statement).rows
        if self.residual is None:
            return SelectRows(self, rows, bindings or {})
        return shape_result(self.residual, self.answer(rows, bindings or {}))


def translate_query(
    mapping: DatabaseMapping,
    db: Database,
    query: Query,
    bindings: Optional[Solution] = None,
) -> TranslatedSelect:
    """Translate a query's WHERE pattern together with what the query
    makes of its solutions; raises UnsupportedPatternError.

    With ``bindings`` the pattern is a template: the variables they name
    are translated as the terms bound to them, and the result can be
    bound again (:meth:`TranslatedSelect.bind`)."""
    return SelectTranslator(mapping, db, bindings).translate(query)


@dataclass
class _Node:
    """One table instance participating in the query (a future FROM/JOIN)."""

    alias: str
    table_name: str
    join_kind: str = "INNER"  # 'INNER' | 'LEFT'
    local_conditions: List[ast.Expression] = field(default_factory=list)
    #: equality links to earlier nodes: (my column, other alias, other column)
    links: List[Tuple[str, str, str]] = field(default_factory=list)


def _subject_key(reader: SubjectReader, pk: str, term: Term) -> Any:
    """Binder of a subject placeholder: the key of the row ``term`` names
    in the table the reader reads — another table's URI, or one that
    names no row, is not what was translated."""
    key_values = reader.key_values(term)
    if key_values is None:
        raise UnsupportedPatternError(
            f"{term.n3()} names no row of {reader.own.table_mapping.table_name!r}"
        )
    return key_values[pk]


def _link_object_key(
    db: Database, link: LinkTableMapping, object_table: TableMapping, term: Term
) -> Any:
    """Key of the row of the link's object table that ``term`` names (also
    the binder of a placeholder in that position)."""
    raw = object_table.uri_pattern.match(term) if isinstance(term, URIRef) else None
    if raw is None:
        raise UnsupportedPatternError(
            f"object {term} does not match the uriPattern of "
            f"{link.object_table()!r}"
        )
    coerced = coerce_pattern_values(db, object_table, raw, term)
    return coerced[db.table(link.object_table()).primary_key[0]]


#: Codes of :func:`~repro.core.common.term_to_sql_value` for a term that
#: is no value of the column.
_NO_VALUE = (TranslationError.FK_TARGET_MISSING, TranslationError.TYPE_MISMATCH)


def _no_value(to_value: Binder, term: Term) -> None:
    """Binder (a check) of a placeholder translated as a term its column
    cannot hold: another such term fits, a value of the column does not."""
    try:
        to_value(term)
    except TranslationError as exc:
        if exc.code in _NO_VALUE:
            return None
        raise
    raise UnsupportedPatternError(f"{term.n3()} is a value of its column")


def _filter_constant(term: Term) -> Optional[Tuple[str, Any]]:
    """How a FILTER constant compares in SQL: ``("num", number)`` for a
    numeric literal, ``("str", text)`` for a plain one, None for a term
    SQL would not compare the way SPARQL does (it stays in Python)."""
    if not isinstance(term, Literal):
        return None
    if term.is_numeric():
        try:
            return "num", term.to_python()
        except ValueError:
            return None
    if term.language is None and term.datatype in (None, XSD_STRING):
        return "str", term.lexical
    return None


def _filter_value(cls: Optional[str], term: Term) -> Any:
    """Binder of a placeholder used as a FILTER constant of class
    ``cls``: its SQL value, if it is (still) of that class."""
    constant = _filter_constant(term)
    if (constant[0] if constant else None) != cls:
        raise UnsupportedPatternError(
            f"{term.n3()} is not a FILTER constant of class {cls}"
        )
    return constant[1] if constant else None


class _Operand(NamedTuple):
    """One side of a FILTER comparison: a column or a constant."""

    #: how it compares in SQL: "num" | "str" | None (only in Python)
    cls: Optional[str]
    column: Optional[ast.ColumnRef]
    value: Any = None
    #: the placeholder a constant came from, if any
    placeholder: Optional[Variable] = None


class SelectTranslator:
    """Single-use translator for one pattern."""

    def __init__(
        self,
        mapping: DatabaseMapping,
        db: Database,
        bindings: Optional[Solution] = None,
    ) -> None:
        self.mapping = mapping
        self.db = db
        #: placeholder → kind of term given for it (every binding)
        self.kinds = {var: type(term) for var, term in (bindings or {}).items()}
        #: placeholder → term, for the variables translated as constants
        self.bindings: Solution = initial_solution(bindings)
        self.nodes: Dict[str, _Node] = {}
        self.node_order: List[str] = []
        self.subject_alias: Dict[Term, str] = {}
        self.subject_table: Dict[Term, TableMapping] = {}
        self.subject_entity: Dict[Term, EntityRef] = {}
        self.sites: Dict[Variable, BindingSite] = {}
        self.extra_conditions: List[ast.Expression] = []
        self.post_filters: List[alg.Expr] = []
        self.values = Values()
        self.binders: List[Tuple[Optional[int], Variable, Binder]] = []
        self.pinned: Dict[Variable, Term] = {}
        #: (placeholder, conversion) → its parameter, so a placeholder
        #: used twice the same way is one parameter
        self._placeholder_params: Dict[Tuple[Variable, Hashable], ast.Expression] = {}
        self._alias_counter = 0

    # ------------------------------------------------------------------

    def translate(self, query: Query) -> TranslatedSelect:
        required, optionals, filters = self._partition(query.where)
        if not required:
            raise UnsupportedPatternError("empty basic graph pattern")
        self._assign_subject_tables(required)
        for triple in required:
            self._translate_triple(triple, optional=False)
        for group in optionals:
            self._translate_optional(group)
        self._push_down_filters(filters)
        select, residual = self._push_down_modifiers(self._build_select(), query)
        if residual is None:
            variables = wanted = query.projected()
        elif self.post_filters or not isinstance(query, AskQuery):
            # What is left reads what it likes: every variable bound.
            variables, wanted = (), [*self.sites, *self.bindings]
        else:
            variables = wanted = ()  # an ASK's one row, read by nothing
        return TranslatedSelect(
            statement=self.values.bind(select),
            db=self.db,
            members=answer_members(self.db, self.sites, self.bindings, wanted),
            post_filters=tuple(self.post_filters),
            residual=residual,
            variables=variables,
            kinds=self.kinds,
            pinned=self.pinned,
            binders=tuple(self.binders),
        )

    # -- terms and values ------------------------------------------------

    def _bound(self, term: Term) -> Tuple[Term, Optional[Variable]]:
        """The term translation looks at, and the placeholder it came
        from: a bound variable reads as its term (a blank node binds
        nothing, see :func:`~repro.sparql.algebra.initial_solution`)."""
        if self.bindings and isinstance(term, Variable):
            value = self.bindings.get(term)
            if value is not None:
                return value, term
        return term, None

    def _pinned(self, term: Term) -> Term:
        """A term whose whole value shapes the statement (a predicate, a
        class): a placeholder there pins the translation to that value."""
        value, placeholder = self._bound(term)
        if placeholder is not None:
            self.pinned[placeholder] = value
        return value

    def _param(
        self,
        value: Any,
        placeholder: Optional[Variable] = None,
        binder: Optional[Binder] = None,
        conversion: Hashable = None,
    ) -> ast.Expression:
        """A request value enters the SQL: as a parameter, remembered
        with its binder when a placeholder supplied it."""
        if placeholder is None:
            return self.values.param(value)
        slot = (placeholder, conversion)
        param = self._placeholder_params.get(slot)
        if param is None:
            param = self._placeholder_params[slot] = self.values.param(value)
            self.binders.append((param.index, placeholder, binder))
        return param

    # -- structure -------------------------------------------------------

    def _partition(
        self, pattern: alg.GroupPattern
    ) -> Tuple[List[Triple], List[alg.GroupPattern], List[alg.Expr]]:
        required: List[Triple] = []
        optionals: List[alg.GroupPattern] = []
        filters: List[alg.Expr] = []
        for element in pattern.elements:
            if isinstance(element, alg.TriplePattern):
                required.append(element.triple)
            elif isinstance(element, alg.Filter):
                filters.append(element.expression)
            elif isinstance(element, alg.Optional_):
                optionals.append(element.pattern)
            elif isinstance(element, alg.GroupPattern):
                sub_r, sub_o, sub_f = self._partition(element)
                required.extend(sub_r)
                optionals.extend(sub_o)
                filters.extend(sub_f)
            elif isinstance(element, alg.Union):
                raise UnsupportedPatternError(
                    "UNION is outside the SQL-translatable fragment"
                )
            else:
                raise UnsupportedPatternError(
                    f"unsupported pattern element {type(element).__name__}"
                )
        return required, optionals, filters

    def _assign_subject_tables(self, triples: List[Triple]) -> None:
        """Determine the table of every subject term (step: identifyTable)."""
        subjects: List[Term] = []
        for triple in triples:
            if triple.subject not in subjects:
                subjects.append(triple.subject)

        # candidate tables per subject
        for subject in subjects:
            candidates = self._candidate_tables(subject, triples)
            if len(candidates) != 1:
                label = subject.n3() if isinstance(subject, Term) else repr(subject)
                raise UnsupportedPatternError(
                    f"cannot uniquely determine the table of subject {label}: "
                    f"{sorted(candidates) or 'no candidates'}"
                )
            table = self.mapping.table(candidates.pop())
            alias = self._new_alias()
            self.subject_alias[subject] = alias
            self.subject_table[subject] = table
            node = _Node(alias=alias, table_name=table.table_name)
            self.nodes[alias] = node
            self.node_order.append(alias)
            self._bind_subject(subject, table, node)

    def _candidate_tables(
        self, subject: Term, triples: List[Triple]
    ) -> Set[str]:
        """Candidate table *names* for a subject (names are hashable)."""
        term, _ = self._bound(subject)
        if isinstance(term, URIRef):
            try:
                entity = identify_entity(self.mapping, self.db, term)
            except TranslationError as exc:
                raise UnsupportedPatternError(str(exc)) from exc
            self.subject_entity[subject] = entity
            return {entity.table.table_name}

        candidates: Optional[Set[str]] = None

        def intersect(tables: Set[str]) -> None:
            nonlocal candidates
            candidates = tables if candidates is None else candidates & tables

        for triple in triples:
            if triple.subject != subject:
                continue
            predicate = self._pinned(triple.predicate)
            if isinstance(predicate, Variable):
                raise UnsupportedPatternError(
                    "variable predicates are outside the translatable fragment"
                )
            if predicate == RDF.type:
                cls = self._pinned(triple.object)
                if isinstance(cls, URIRef):
                    table = self.mapping.table_for_class(cls)
                    if table is None:
                        raise UnsupportedPatternError(
                            f"class {cls} is not mapped"
                        )
                    intersect({table.table_name})
                continue
            link = self.mapping.link_for_property(predicate)
            if link is not None:
                intersect({link.subject_table()})
                continue
            tables = {
                t.table_name
                for t, _ in self.mapping.tables_for_property(predicate)
            }
            if not tables:
                raise UnsupportedPatternError(
                    f"property {predicate} is not mapped"
                )
            intersect(tables)
        return candidates or set()

    def _bind_subject(
        self, subject: Term, table: TableMapping, node: _Node
    ) -> None:
        schema_table = self.db.table(table.table_name)
        if len(schema_table.primary_key) != 1:
            raise UnsupportedPatternError(
                f"table {table.table_name!r} needs a single-column primary key"
            )
        pk = schema_table.primary_key[0]
        term, placeholder = self._bound(subject)
        key: Optional[ast.Expression] = None
        if isinstance(term, URIRef):
            key = self._param(
                self.subject_entity[subject].key_values[pk],
                placeholder,
                partial(_subject_key, SubjectReader(self.mapping, self.db, table), pk),
                ("subject", table.table_name),
            )
        elif isinstance(term, Variable):
            if term not in self.sites:
                self.sites[term] = BindingSite(
                    alias=node.alias, column=pk, kind="subject", table=table
                )
        elif isinstance(term, Literal):
            # A literal is no one's subject: ``pk = NULL`` matches no row
            # (and reads none — the planner's point lookup stops at NULL).
            key = ast.Null()
        # BNodes: non-distinguished — no binding, no condition.
        if key is not None:
            node.local_conditions.append(
                ast.BinaryOp("=", ast.ColumnRef(pk, node.alias), key)
            )

    # -- triples ------------------------------------------------------------

    def _translate_triple(self, triple: Triple, optional: bool) -> None:
        subject, predicate, obj = triple
        predicate = self._pinned(predicate)
        if predicate == RDF.type:
            return  # consumed during table assignment
        alias = self.subject_alias.get(subject)
        if alias is None:
            raise UnsupportedPatternError(
                f"subject {subject.n3()} appears only inside OPTIONAL"
            )
        node = self.nodes[alias]
        table = self.subject_table[subject]

        link = self.mapping.link_for_property(predicate)
        if link is not None:
            self._translate_link_triple(triple, node, link, optional)
            return

        attribute = table.attribute_for_property(predicate)
        if attribute is None:
            raise UnsupportedPatternError(
                f"property {predicate} is not mapped for table "
                f"{table.table_name!r}"
            )
        column_ref = ast.ColumnRef(attribute.attribute_name, alias)

        term, placeholder = self._bound(obj)
        if isinstance(term, Variable):
            self._bind_object_variable(
                term, node, table, attribute, column_ref, optional
            )
        elif optional:
            # It binds nothing and must filter nothing; a condition on
            # the subject's own row would drop the rows it does not hold
            # for.
            raise UnsupportedPatternError(
                "OPTIONAL triple with a constant object"
            )
        elif isinstance(term, BNode):
            node.local_conditions.append(ast.IsNull(column_ref, negated=True))
        else:
            to_value = value_converter(self.mapping, self.db, table, attribute)
            try:
                value = self._param(
                    to_value(term),
                    placeholder,
                    to_value,
                    ("attribute", table.table_name, attribute.attribute_name),
                )
            except TranslationError as exc:
                if exc.code not in _NO_VALUE:
                    raise
                # A term the column cannot hold (an instance of another
                # table, a literal where a key belongs) is in no row: no
                # solution, as over the dump — ``= NULL`` matches none.
                value = ast.Null()
                if placeholder is not None:
                    self.binders.append(
                        (None, placeholder, partial(_no_value, to_value))
                    )
            node.local_conditions.append(ast.BinaryOp("=", column_ref, value))

    def _bind_object_variable(
        self,
        var: Variable,
        node: _Node,
        table: TableMapping,
        attribute: AttributeMapping,
        column_ref: ast.ColumnRef,
        optional: bool,
    ) -> None:
        if var in self.subject_alias and attribute.is_object_property:
            # join: this FK must equal the other subject's primary key
            other_alias = self.subject_alias[var]
            other_table = self.subject_table[var]
            if other_table.table_name != attribute.references():
                raise UnsupportedPatternError(
                    f"variable ?{var.name} is used as an instance of "
                    f"{other_table.table_name!r} but property "
                    f"{attribute.property} references {attribute.references()!r}"
                )
            other_pk = self.db.table(other_table.table_name).primary_key[0]
            node.links.append(
                (attribute.attribute_name, other_alias, other_pk)
            )
            return

        existing = self.sites.get(var)
        if existing is not None and existing.select_index == -1:
            # variable already bound at another site: equality condition
            self.extra_conditions.append(
                ast.BinaryOp(
                    "=",
                    column_ref,
                    ast.ColumnRef(existing.column, existing.alias),
                )
            )
            if not optional:
                node.local_conditions.append(
                    ast.IsNull(column_ref, negated=True)
                )
            return

        if attribute.is_object_property:
            site = BindingSite(
                alias=node.alias,
                column=attribute.attribute_name,
                kind="object",
                table=self.mapping.table(attribute.references()),
                nullable=optional,
            )
        else:
            site = BindingSite(
                alias=node.alias,
                column=attribute.attribute_name,
                kind="data",
                table=table,
                value_pattern=attribute.value_pattern,
                nullable=optional,
            )
        self.sites[var] = site
        if not optional:
            node.local_conditions.append(ast.IsNull(column_ref, negated=True))

    def _translate_link_triple(
        self, triple: Triple, subject_node: _Node, link, optional: bool
    ) -> None:
        obj, placeholder = self._bound(triple.object)
        link_alias = self._new_alias()
        link_node = _Node(
            alias=link_alias,
            table_name=link.table_name,
            join_kind="LEFT" if optional else "INNER",
        )
        self.nodes[link_alias] = link_node
        self.node_order.append(link_alias)

        subject_pk = self.db.table(
            self.subject_table[triple.subject].table_name
        ).primary_key[0]
        link_node.links.append(
            (link.subject_attribute.attribute_name, subject_node.alias, subject_pk)
        )

        object_attr = link.object_attribute.attribute_name
        object_table = self.mapping.table(link.object_table())
        if isinstance(obj, Variable):
            if obj in self.subject_alias:
                other_alias = self.subject_alias[obj]
                other_pk = self.db.table(
                    self.subject_table[obj].table_name
                ).primary_key[0]
                link_node.links.append((object_attr, other_alias, other_pk))
            elif obj in self.sites:
                existing = self.sites[obj]
                self.extra_conditions.append(
                    ast.BinaryOp(
                        "=",
                        ast.ColumnRef(object_attr, link_alias),
                        ast.ColumnRef(existing.column, existing.alias),
                    )
                )
            else:
                column = self.db.table(link.table_name).column(object_attr)
                self.sites[obj] = BindingSite(
                    alias=link_alias,
                    column=object_attr,
                    kind="object",
                    table=object_table,
                    nullable=optional or not column.not_null,
                )
        elif isinstance(obj, URIRef):
            to_key = partial(_link_object_key, self.db, link, object_table)
            link_node.local_conditions.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(object_attr, link_alias),
                    self._param(
                        to_key(obj), placeholder, to_key, ("link", link.table_name)
                    ),
                )
            )
        else:
            raise UnsupportedPatternError(
                f"link property {link.property} with literal object"
            )

    # -- optional groups ----------------------------------------------------

    def _translate_optional(self, group: alg.GroupPattern) -> None:
        if group.filters() or group.optionals() or group.unions():
            raise UnsupportedPatternError(
                "nested FILTER/OPTIONAL/UNION inside OPTIONAL is unsupported"
            )
        for tp in group.triple_patterns():
            triple = tp.triple
            if triple.subject not in self.subject_alias:
                raise UnsupportedPatternError(
                    "OPTIONAL subjects must be bound by the required pattern"
                )
            self._translate_triple(triple, optional=True)

    # -- filters -----------------------------------------------------------------

    def _push_down_filters(self, filters: List[alg.Expr]) -> None:
        for expr in filters:
            translated = self._try_translate_filter(expr)
            if translated is not None:
                self.extra_conditions.append(translated)
            else:
                self.post_filters.append(expr)

    def _try_translate_filter(self, expr: alg.Expr) -> Optional[ast.Expression]:
        """Translate simple comparisons/conjunctions to SQL; None = keep in
        Python (where a placeholder stays a variable: the solutions are
        seeded with the bindings)."""
        if isinstance(expr, alg.BoolOp) and expr.op == "&&":
            left = self._try_translate_filter(expr.left)
            right = self._try_translate_filter(expr.right)
            if left is not None and right is not None:
                return ast.BinaryOp("AND", left, right)
            # partial pushdown of a conjunction is sound: push what we can
            if left is not None:
                self.post_filters.append(expr.right)
                return left
            if right is not None:
                self.post_filters.append(expr.left)
                return right
            return None
        if isinstance(expr, alg.Comparison):
            return self._comparison_to_sql(expr)
        return None

    def _comparison_to_sql(self, expr: alg.Comparison) -> Optional[ast.Expression]:
        """``column <op> column|constant`` where SQL compares the way
        SPARQL does: both sides numbers, or both plain strings.  Anything
        else — a string against an INTEGER column is a type error in
        SPARQL and a ``DatabaseError`` in the engine — stays in Python."""
        left, right = self._operand(expr.left), self._operand(expr.right)
        pushed = (
            left is not None
            and right is not None
            and left.cls is not None
            and left.cls == right.cls
            # two constants: nothing for the engine to look up
            and (left.column is not None or right.column is not None)
        )
        if not pushed:
            for side in (left, right):
                if side is not None and side.placeholder is not None:
                    # What was decided here turned on the constant's class:
                    # a binding of another class is another translation.
                    self.binders.append(
                        (None, side.placeholder, partial(_filter_value, side.cls))
                    )
            return None
        operands = [
            side.column
            if side.column is not None
            else self._param(
                side.value,
                side.placeholder,
                partial(_filter_value, side.cls),
                ("filter", side.cls),
            )
            for side in (left, right)
        ]
        op = "<>" if expr.op == "!=" else expr.op
        return ast.BinaryOp(op, operands[0], operands[1])

    def _operand(self, expr: alg.Expr) -> Optional[_Operand]:
        """One side of a comparison, or None when it is neither a column
        nor a constant (an expression; a variable bound to URIs, which
        are compared as terms, in Python)."""
        if not isinstance(expr, alg.TermExpr):
            return None
        term, placeholder = self._bound(expr.term)
        if isinstance(term, Variable):
            site = self.sites.get(term)
            if site is None or site.kind != "data" or site.value_pattern is not None:
                return None
            sql_type = self.db.table(site.table.table_name).column(
                site.column
            ).sql_type
            cls = None
            if isinstance(sql_type, (IntegerType, FloatType)):
                cls = "num"
            elif isinstance(sql_type, StringType):
                cls = "str"
            return _Operand(cls, ast.ColumnRef(site.column, site.alias))
        constant = _filter_constant(term)
        if constant is None:
            return _Operand(None, None, None, placeholder)
        return _Operand(constant[0], None, constant[1], placeholder)

    # -- solution modifiers --------------------------------------------------

    def _push_down_modifiers(
        self, select: ast.Select, query: Query
    ) -> Tuple[ast.Select, Optional[Query]]:
        """The SELECT with the solution modifiers SQL applies as SPARQL
        does, and the query whose form and modifiers are left for the
        answer step's solutions (None: they are the SELECT's answer).

        ORDER BY goes down when every key does (:meth:`_order_item`);
        LIMIT and OFFSET only behind it, and only when nothing is left
        that drops or merges solutions afterwards — no residual filter,
        no DISTINCT.  An ASK reads one row unless a filter is left; a
        CONSTRUCT keeps its form."""
        if isinstance(query, AskQuery):
            if self.post_filters:
                return select, query
            return dataclasses.replace(select, limit=1), query
        if not isinstance(query, SelectQuery):
            return select, query
        order = [self._order_item(condition) for condition in query.order_by]
        if not all(order):
            return select, query
        select = dataclasses.replace(select, order_by=tuple(order))
        if self.post_filters or query.distinct:
            return select, dataclasses.replace(query, order_by=())
        limited = dataclasses.replace(select, limit=query.limit, offset=query.offset)
        return limited, None

    def _order_item(self, condition: OrderCondition) -> Optional[ast.OrderItem]:
        """An ORDER BY key as SQL, where SQL orders as SPARQL does — the
        rule beside FILTER push-down's (:meth:`_comparison_to_sql`): a
        plain variable whose site is a data column of INTEGER or string
        type without a value pattern.  Both sorts are then stable over
        the same row order, put NULL / unbound first (last under DESC)
        and compare numbers as numbers, plain literals as strings, so
        they agree wherever the keys order totally.  Stays in Python: a
        URI (SPARQL compares the minted IRI, SQL the key: ``pub10`` <
        ``pub9``), an expression, a FLOAT, DATE or BOOLEAN column, a
        placeholder."""
        expr = condition.expression
        if not isinstance(expr, alg.TermExpr):
            return None
        site = self.sites.get(expr.term)
        if site is None or site.kind != "data" or site.value_pattern is not None:
            return None
        sql_type = self.db.table(site.table.table_name).column(site.column).sql_type
        if not isinstance(sql_type, (IntegerType, StringType)):
            return None
        return ast.OrderItem(
            ast.ColumnRef(f"v{site.select_index}"), condition.descending
        )

    # -- assembly ------------------------------------------------------------------

    def _new_alias(self) -> str:
        alias = f"t{self._alias_counter}"
        self._alias_counter += 1
        return alias

    def _build_select(self) -> ast.Select:
        ordered = self._order_nodes()
        first = ordered[0]
        joins: List[ast.Join] = []
        where: List[ast.Expression] = list(first.local_conditions)
        placed = {first.alias}

        for node in ordered[1:]:
            on_parts: List[ast.Expression] = []
            for my_col, other_alias, other_col in node.links:
                clause = ast.BinaryOp(
                    "=",
                    ast.ColumnRef(my_col, node.alias),
                    ast.ColumnRef(other_col, other_alias),
                )
                if other_alias in placed:
                    on_parts.append(clause)
                else:
                    where.append(clause)
            condition = _conjoin(on_parts)
            if node.join_kind == "LEFT":
                if condition is None:
                    raise UnsupportedPatternError(
                        "LEFT JOIN without a join condition"
                    )
                condition = _conjoin(
                    [condition, *node.local_conditions]
                )
                joins.append(
                    ast.Join(
                        table=ast.TableRef(node.table_name, node.alias),
                        condition=condition,
                        kind="LEFT",
                    )
                )
            else:
                if condition is None:
                    joins.append(
                        ast.Join(
                            table=ast.TableRef(node.table_name, node.alias),
                            condition=None,
                            kind="CROSS",
                        )
                    )
                else:
                    joins.append(
                        ast.Join(
                            table=ast.TableRef(node.table_name, node.alias),
                            condition=condition,
                            kind="INNER",
                        )
                    )
                where.extend(node.local_conditions)
            placed.add(node.alias)

        where.extend(self.extra_conditions)

        items: List[ast.SelectItem] = []
        for index, (var, site) in enumerate(self.sites.items()):
            site.select_index = index
            items.append(
                ast.SelectItem(
                    ast.ColumnRef(site.column, site.alias), alias=f"v{index}"
                )
            )
        if not items:
            # ASK-style pattern with no variables: select a constant (part
            # of the shape, not a value of the request)
            items.append(ast.SelectItem(ast.Literal(1), alias="one"))

        return ast.Select(
            items=tuple(items),
            table=ast.TableRef(first.table_name, first.alias),
            joins=tuple(joins),
            where=_conjoin(where),
        )

    def _order_nodes(self) -> List[_Node]:
        """Order nodes so each (when possible) links to an earlier one."""
        remaining = [self.nodes[a] for a in self.node_order]
        if not remaining:
            raise UnsupportedPatternError("no tables in pattern")
        ordered = [remaining.pop(0)]
        placed = {ordered[0].alias}
        while remaining:
            progressed = False
            for i, node in enumerate(remaining):
                link_aliases = {other for _, other, _ in node.links}
                reverse_links = any(
                    any(other == node.alias for _, other, _ in candidate.links)
                    for candidate in ordered
                )
                if link_aliases & placed or reverse_links:
                    ordered.append(remaining.pop(i))
                    placed.add(node.alias)
                    progressed = True
                    break
            if not progressed:
                node = remaining.pop(0)  # disconnected: cross join
                ordered.append(node)
                placed.add(node.alias)
        return self._fix_link_direction(ordered)

    def _fix_link_direction(self, ordered: List[_Node]) -> List[_Node]:
        """Ensure every equality lives on the *later* node of its pair."""
        position = {node.alias: i for i, node in enumerate(ordered)}
        for node in ordered:
            kept: List[Tuple[str, str, str]] = []
            for my_col, other_alias, other_col in node.links:
                if position[other_alias] < position[node.alias]:
                    kept.append((my_col, other_alias, other_col))
                else:
                    other = self.nodes[other_alias]
                    other.links.append((other_col, node.alias, my_col))
            node.links = kept
        return ordered


def _conjoin(parts: Sequence[ast.Expression]) -> Optional[ast.Expression]:
    condition: Optional[ast.Expression] = None
    for part in parts:
        condition = part if condition is None else ast.BinaryOp("AND", condition, part)
    return condition
