"""SPARQL SELECT → SQL SELECT translation over an R3M mapping.

Algorithm 2 (MODIFY) needs its WHERE clause evaluated against the
relational data: "The WHERE part is used to create a SPARQL SELECT query
that retrieves the data needed for the DELETE and INSERT templates.  It is
translated to SQL and evaluated on the relational data."  This module
implements that translation for the fragment the mapping approach admits
(Angles & Gutierrez's expressivity result guarantees the full language is
translatable in principle; OntoAccess translates the mapped fragment and
the mediator falls back to dump-based evaluation for the rest).

Translatable fragment:

* basic graph patterns whose subjects resolve to mapped tables (via
  ``rdf:type`` triples, property usage, or concrete instance URIs);
* data- and object-property triples, including joins through foreign keys
  and N:M link tables;
* ``OPTIONAL`` groups of property triples over already-bound subjects;
* ``FILTER`` comparisons pushed into SQL where possible; all residual
  filters are applied to the decoded bindings afterwards, so filter
  semantics never restrict the fragment.

Everything else (UNION, variable predicates, unmappable subjects) raises
:class:`~repro.errors.UnsupportedPatternError`; callers fall back to
evaluating against :func:`repro.core.dump.dump_database`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import TranslationError, UnsupportedPatternError
from ..rdb.engine import Database
from ..rdf.namespace import RDF
from ..rdf.terms import BNode, Literal, Term, Triple, URIRef, Variable
from ..r3m.model import AttributeMapping, DatabaseMapping, TableMapping
from ..sparql import algebra_ast as alg
from ..sparql.algebra import Solution
from ..sparql.expressions import filter_accepts
from ..sql import ast
from .common import identify_entity, literal_for_column, term_to_sql_value

__all__ = ["TranslatedSelect", "translate_pattern", "SelectTranslator"]


@dataclass
class _BindingSite:
    """Where a variable's value lives in the SQL result."""

    alias: str
    column: str
    kind: str  # 'data' | 'object' | 'subject'
    table: TableMapping  # for 'object': the referenced table; else own table
    select_index: int = -1
    #: lexical transform for URI-valued data attributes (foaf:mbox)
    value_pattern: Optional[object] = None


@dataclass
class TranslatedSelect:
    """A translated pattern: SQL + the recipe to decode rows to bindings."""

    select: ast.Select
    sites: Dict[Variable, _BindingSite]
    post_filters: Tuple[alg.Expr, ...]
    mapping: DatabaseMapping
    db: Database
    #: per-variable (index, decoder) pairs, built once on first execute so
    #: row decoding does no catalog lookups in the per-row loop
    _decoders: Optional[List[Tuple[Variable, int, Any]]] = None
    #: rendered once: a translation kept by a prepared query is asked for
    #: its SQL text on every execution
    _sql: Optional[str] = None

    def sql(self) -> str:
        if self._sql is None:
            from ..sql.render import render

            self._sql = render(self.select)
        return self._sql

    def execute(self) -> List[Solution]:
        """Run the SQL and decode rows into SPARQL solutions."""
        result = self.db.execute(self.select)
        decoders = self._site_decoders()
        post_filters = self.post_filters
        solutions: List[Solution] = []
        for row in result.rows:
            solution: Solution = {}
            for var, index, decode in decoders:
                value = row[index]
                if value is None:
                    continue  # OPTIONAL left the variable unbound
                solution[var] = decode(value)
            if all(filter_accepts(f, solution) for f in post_filters):
                solutions.append(solution)
        return solutions

    def _site_decoders(self) -> List[Tuple[Variable, int, Any]]:
        if self._decoders is None:
            decoders: List[Tuple[Variable, int, Any]] = []
            for var, site in self.sites.items():
                decoders.append(
                    (var, site.select_index, self._decoder_for(site))
                )
            self._decoders = decoders
        return self._decoders

    def _decoder_for(self, site: _BindingSite):
        if site.kind == "data":
            if site.value_pattern is not None:
                pattern = site.value_pattern
                attribute = pattern.attributes[0]
                return lambda value: pattern.format({attribute: value})
            sql_type = self.db.table(site.table.table_name).column(
                site.column
            ).sql_type
            return lambda value: literal_for_column(sql_type, value)
        # 'object' and 'subject' both mint instance URIs
        pattern = site.table.uri_pattern
        attribute = pattern.attributes[0]
        return lambda value: pattern.format({attribute: value})



def translate_pattern(
    mapping: DatabaseMapping, db: Database, pattern: alg.GroupPattern
) -> TranslatedSelect:
    """Translate a group graph pattern; raises UnsupportedPatternError."""
    return SelectTranslator(mapping, db).translate(pattern)


@dataclass
class _Node:
    """One table instance participating in the query (a future FROM/JOIN)."""

    alias: str
    table_name: str
    join_kind: str = "INNER"  # 'INNER' | 'LEFT'
    local_conditions: List[ast.Expression] = field(default_factory=list)
    #: equality links to earlier nodes: (my column, other alias, other column)
    links: List[Tuple[str, str, str]] = field(default_factory=list)


class SelectTranslator:
    """Single-use translator for one pattern."""

    def __init__(self, mapping: DatabaseMapping, db: Database) -> None:
        self.mapping = mapping
        self.db = db
        self.nodes: Dict[str, _Node] = {}
        self.node_order: List[str] = []
        self.subject_alias: Dict[Term, str] = {}
        self.subject_table: Dict[Term, TableMapping] = {}
        self.sites: Dict[Variable, _BindingSite] = {}
        self.extra_conditions: List[ast.Expression] = []
        self.post_filters: List[alg.Expr] = []
        self._alias_counter = 0

    # ------------------------------------------------------------------

    def translate(self, pattern: alg.GroupPattern) -> TranslatedSelect:
        required, optionals, filters = self._partition(pattern)
        if not required:
            raise UnsupportedPatternError("empty basic graph pattern")
        self._assign_subject_tables(required)
        for triple in required:
            self._translate_triple(triple, optional=False)
        for group in optionals:
            self._translate_optional(group)
        self._push_down_filters(filters)
        select = self._build_select()
        return TranslatedSelect(
            select=select,
            sites=self.sites,
            post_filters=tuple(self.post_filters),
            mapping=self.mapping,
            db=self.db,
        )

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
        if isinstance(subject, URIRef):
            try:
                entity = identify_entity(self.mapping, self.db, subject)
            except TranslationError as exc:
                raise UnsupportedPatternError(str(exc)) from exc
            return {entity.table.table_name}

        candidates: Optional[Set[str]] = None

        def intersect(tables: Set[str]) -> None:
            nonlocal candidates
            candidates = tables if candidates is None else candidates & tables

        for triple in triples:
            if triple.subject != subject:
                continue
            predicate = triple.predicate
            if isinstance(predicate, Variable):
                raise UnsupportedPatternError(
                    "variable predicates are outside the translatable fragment"
                )
            if predicate == RDF.type:
                if isinstance(triple.object, URIRef):
                    table = self.mapping.table_for_class(triple.object)
                    if table is None:
                        raise UnsupportedPatternError(
                            f"class {triple.object} is not mapped"
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
        if isinstance(subject, URIRef):
            entity = identify_entity(self.mapping, self.db, subject)
            node.local_conditions.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(pk, node.alias),
                    ast.Literal(entity.key_values[pk]),
                )
            )
        elif isinstance(subject, Variable):
            if subject not in self.sites:
                self.sites[subject] = _BindingSite(
                    alias=node.alias, column=pk, kind="subject", table=table
                )
        # BNodes: non-distinguished — no binding, no condition.

    # -- triples ------------------------------------------------------------

    def _translate_triple(self, triple: Triple, optional: bool) -> None:
        subject, predicate, obj = triple
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

        if isinstance(obj, Variable):
            self._bind_object_variable(
                obj, node, table, attribute, column_ref, optional
            )
        elif isinstance(obj, BNode):
            node.local_conditions.append(ast.IsNull(column_ref, negated=True))
        else:
            value = term_to_sql_value(
                self.mapping, self.db, table, attribute, obj
            )
            node.local_conditions.append(
                ast.BinaryOp("=", column_ref, ast.Literal(value))
            )

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
            site = _BindingSite(
                alias=node.alias,
                column=attribute.attribute_name,
                kind="object",
                table=self.mapping.table(attribute.references()),
            )
        else:
            site = _BindingSite(
                alias=node.alias,
                column=attribute.attribute_name,
                kind="data",
                table=table,
                value_pattern=attribute.value_pattern,
            )
        self.sites[var] = site
        if not optional:
            node.local_conditions.append(ast.IsNull(column_ref, negated=True))

    def _translate_link_triple(
        self, triple: Triple, subject_node: _Node, link, optional: bool
    ) -> None:
        obj = triple.object
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
                self.sites[obj] = _BindingSite(
                    alias=link_alias,
                    column=object_attr,
                    kind="object",
                    table=object_table,
                )
        elif isinstance(obj, URIRef):
            raw = object_table.uri_pattern.match(obj)
            if raw is None:
                raise UnsupportedPatternError(
                    f"object {obj.value} does not match the uriPattern of "
                    f"{link.object_table()!r}"
                )
            from .common import coerce_pattern_values

            coerced = coerce_pattern_values(self.db, object_table, raw, obj)
            pk = self.db.table(link.object_table()).primary_key[0]
            link_node.local_conditions.append(
                ast.BinaryOp(
                    "=",
                    ast.ColumnRef(object_attr, link_alias),
                    ast.Literal(coerced[pk]),
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
            if triple.predicate == RDF.type:
                continue
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
        Python."""
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
            left = self._operand_to_sql(expr.left)
            right = self._operand_to_sql(expr.right)
            if left is None or right is None:
                return None
            op = "<>" if expr.op == "!=" else expr.op
            return ast.BinaryOp(op, left, right)
        return None

    def _operand_to_sql(self, expr: alg.Expr) -> Optional[ast.Expression]:
        if isinstance(expr, alg.TermExpr):
            term = expr.term
            if isinstance(term, Variable):
                site = self.sites.get(term)
                if site is None or site.kind != "data":
                    return None
                return ast.ColumnRef(site.column, site.alias)
            if isinstance(term, Literal):
                return ast.Literal(term.to_python())
            return None
        return None

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
            # ASK-style pattern with no variables: select a constant
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
