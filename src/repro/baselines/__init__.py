"""Baselines: native triple store and the unsorted-translation ablation."""

from .triplestore import MappingAwareTripleStore, NativeTripleStore
from .unsorted import UnsortedOntoAccess

__all__ = [
    "MappingAwareTripleStore",
    "NativeTripleStore",
    "UnsortedOntoAccess",
]
