"""Automata and exact enumeration for words with constrained palindromic factors."""

from .words import (
    Word,
    PalFacSet,
    palindromic_factors,
    naive_palindromic_factors,
    enumerate_palindromes,
    minimal_elements,
)

__all__ = [
    "Word",
    "PalFacSet",
    "palindromic_factors",
    "naive_palindromic_factors",
    "enumerate_palindromes",
    "minimal_elements",
]
