"""Ablation baseline: Algorithm 1 *without* the FK statement sorting.

Paper Section 5.1: "executing the generated statements in an arbitrary
order may result in the failure of the transaction whereas their execution
in the sorted order would succeed."  This baseline preserves the raw
(request) order of the generated statements so the FK-sort ablation
benchmark can demonstrate exactly that failure under immediate constraint
checking, and its disappearance under deferred checking.
"""

from __future__ import annotations

from typing import List, Optional, Union
from unittest import mock

from ..rdf.namespace import PrefixMap
from ..sparql.update_ast import UpdateRequest
from ..sql import ast
from ..core import sorting
from ..core.mediator import OntoAccess, UpdateResult

__all__ = ["UnsortedOntoAccess"]


def _identity_sort(statements, schema) -> List[ast.Statement]:
    """Replacement for :func:`repro.core.sorting.sort_statements` that
    keeps the translation's raw emission order."""
    return list(statements)


class UnsortedOntoAccess(OntoAccess):
    """OntoAccess with Algorithm 1 step 5 disabled (ablation)."""

    def update(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> UpdateResult:
        with mock.patch.object(sorting, "sort_statements", _identity_sort), \
                mock.patch(
                    "repro.core.insert_data.sort_statements", _identity_sort
                ), mock.patch(
                    "repro.core.delete_data.sort_statements", _identity_sort
                ):
            return super().update(request, prefixes=prefixes)

    def translate(
        self,
        request: Union[str, UpdateRequest],
        prefixes: Optional[PrefixMap] = None,
    ) -> List[ast.Statement]:
        with mock.patch.object(sorting, "sort_statements", _identity_sort), \
                mock.patch(
                    "repro.core.insert_data.sort_statements", _identity_sort
                ), mock.patch(
                    "repro.core.delete_data.sort_statements", _identity_sort
                ):
            return super().translate(request, prefixes=prefixes)

