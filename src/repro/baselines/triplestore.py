"""Native triple-store baseline.

Applies SPARQL/Update operations directly to an in-memory graph — the
comparison point in the paper's narrative (mediation vs. converting all
data to RDF, Sections 1 and 3).  Also the *oracle* in equivalence tests:
after the same update request, the mediated database's RDF dump must match
this store's graph.

Literal canonicalization: the RDB dump emits typed literals for non-string
columns (``"2009"^^xsd:integer``) and ``mailto:`` URIs for value-pattern
attributes, whereas clients may write plain literals (the paper's listings
do).  :class:`MappingAwareTripleStore` normalizes incoming triples through
the mapping so both sides speak the dump's canonical form and graphs
compare equal.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..rdb.engine import Database
from ..rdf.graph import Graph
from ..rdf.namespace import PrefixMap
from ..rdf.terms import Literal, Object, Term, Triple, URIRef
from ..r3m.model import DatabaseMapping
from ..sparql.engine import update as native_update
from ..sparql.update_ast import (
    Clear,
    DeleteData,
    InsertData,
    Modify,
    UpdateRequest,
)
from ..sparql.update_parser import parse_update
from ..core.common import literal_for_column

__all__ = ["NativeTripleStore", "MappingAwareTripleStore"]


class NativeTripleStore:
    """A plain in-memory triple store with SPARQL/Update support."""

    def __init__(self, graph: Optional[Graph] = None) -> None:
        self.graph = graph if graph is not None else Graph()

    def update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> Dict[str, int]:
        return native_update(self.graph, request, prefixes=prefixes)

    def query(self, q, prefixes: Optional[PrefixMap] = None):
        from ..sparql.engine import query as native_query

        return native_query(self.graph, q, prefixes=prefixes)

    def apply_operation(self, operation) -> Tuple[int, int]:
        """Apply one update operation; returns (added, removed)."""
        from ..sparql.engine import apply_operation as native_apply

        return native_apply(self.graph, operation)

    def __len__(self) -> int:
        return len(self.graph)


class MappingAwareTripleStore(NativeTripleStore):
    """Triple store that canonicalizes literals through an R3M mapping.

    Used as the equivalence oracle: the mediated RDB dump and this store
    must hold identical graphs after identical update sequences.
    """

    def __init__(
        self,
        mapping: DatabaseMapping,
        db: Database,
        graph: Optional[Graph] = None,
    ) -> None:
        super().__init__(graph)
        self.mapping = mapping
        self.db = db

    def update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> Dict[str, int]:
        if isinstance(request, str):
            request = parse_update(request, prefixes=prefixes)
        added = removed = 0
        for operation in request.operations:
            a, r = self.apply_operation(operation)
            added += a
            removed += r
        return {"added": added, "removed": removed}

    # ------------------------------------------------------------------

    def apply_operation(self, operation) -> Tuple[int, int]:
        """Apply one operation with row-implied rdf:type semantics.

        A relational row always carries its class, so inserting any triple
        about a mapped entity implies its rdf:type triple; conversely,
        when a delete removes an entity's last data triple, the mediated
        row disappears (the paper's complete-row DELETE rule) and the
        implied type triple must vanish with it.
        """
        from ..sparql.algebra import evaluate_pattern, instantiate

        if isinstance(operation, InsertData):
            triples = [self.normalize_triple(t) for t in operation.triples]
            triples.extend(self._implied_types(triples))
            return self.graph.add_all(triples), 0
        if isinstance(operation, DeleteData):
            triples = [self.normalize_triple(t) for t in operation.triples]
            removed = self.graph.remove_all(triples)
            removed += self._cleanup_types(triples)
            return 0, removed
        if isinstance(operation, Modify):
            solutions = evaluate_pattern(
                self.graph, operation.where, operation.bindings
            )
            to_remove = []
            to_add = []
            for solution in solutions:
                to_remove.extend(
                    self.normalize_triple(t)
                    for t in instantiate(operation.delete_template, solution)
                )
                to_add.extend(
                    self.normalize_triple(t)
                    for t in instantiate(operation.insert_template, solution)
                )
            removed = self.graph.remove_all(to_remove)
            to_add.extend(self._implied_types(to_add))
            added = self.graph.add_all(to_add)
            removed += self._cleanup_types(to_remove)
            return added, removed
        if isinstance(operation, Clear):
            removed = len(self.graph)
            self.graph.clear()
            return 0, removed
        raise TypeError(f"unknown operation {type(operation).__name__}")

    def _implied_types(self, triples) -> list:
        from ..rdf.namespace import RDF

        implied = []
        seen = set()
        for triple in triples:
            subject = triple.subject
            if subject in seen or not isinstance(subject, URIRef):
                continue
            seen.add(subject)
            table = self._table_of(subject)
            if table is not None:
                implied.append(Triple(subject, RDF.type, table.maps_to_class))
        return implied

    def _cleanup_types(self, removed_triples) -> int:
        """Drop type triples of entities left with no data triples."""
        from ..rdf.namespace import RDF

        removed = 0
        for subject in {t.subject for t in removed_triples}:
            remaining = list(self.graph.triples(subject))
            if remaining and all(t.predicate == RDF.type for t in remaining):
                removed += self.graph.remove_all(remaining)
        return removed

    def _table_of(self, subject: URIRef):
        from ..core.common import identify_entity

        try:
            entity = identify_entity(self.mapping, self.db, subject)
        except Exception:
            return None
        return entity.table

    def normalize_triple(self, triple: Triple) -> Triple:
        """Convert the object literal to the dump's canonical form."""
        subject, predicate, obj = triple
        normalized = self._normalize_object(subject, predicate, obj)
        return Triple(subject, predicate, normalized)

    def _normalize_object(
        self, subject: Term, predicate: Term, obj: Object
    ) -> Object:
        if not isinstance(predicate, URIRef):
            return obj
        attribute_site = self._attribute_for(subject, predicate)
        if attribute_site is None:
            return obj
        table, attribute = attribute_site
        if attribute.is_object_property:
            return obj
        column = self.db.table(table.table_name).column(attribute.attribute_name)
        if attribute.value_pattern is not None:
            if isinstance(obj, URIRef):
                return obj
            if isinstance(obj, Literal):
                pattern = attribute.value_pattern
                return pattern.format({pattern.attributes[0]: obj.lexical})
            return obj
        if isinstance(obj, Literal):
            try:
                value = column.sql_type.coerce(obj.to_python())
            except Exception:
                return obj
            return literal_for_column(column.sql_type, value)
        if isinstance(obj, URIRef):
            return literal_for_column(column.sql_type, obj.value)
        return obj

    def _attribute_for(self, subject: Term, predicate: URIRef):
        if self.mapping.link_for_property(predicate) is not None:
            return None
        if isinstance(subject, URIRef):
            candidates = self.mapping.identify_candidates(subject)
            for table, _ in candidates:
                attribute = table.attribute_for_property(predicate)
                if attribute is not None:
                    return table, attribute
        hits = self.mapping.tables_for_property(predicate)
        if len(hits) == 1:
            return hits[0]
        return None
