"""Words over small integer alphabets and their palindromic factors.

The palindromic factor set of a word always includes the empty word, and
the empty word counts as an *even* palindrome throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


class Word:
    """An immutable word over the alphabet {0, ..., alphabet_size - 1}.

    Equality and hashing look at the symbols only, so the same spelling
    over different alphabets compares equal.  Ordering is length-then-lex,
    the order used everywhere results are reported.
    """

    __slots__ = ("symbols", "alphabet_size")

    def __init__(self, symbols: Iterable[int] = (), alphabet_size: int | None = None):
        syms = tuple(symbols)
        if alphabet_size is None:
            alphabet_size = max(syms, default=-1) + 1
        for s in syms:
            if not (isinstance(s, int) and 0 <= s < alphabet_size):
                raise ValueError(f"symbol {s!r} outside alphabet of size {alphabet_size}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @staticmethod
    def from_digits(text: str, alphabet_size: int | None = None) -> "Word":
        """Parse a word from a digit string like "001011"."""
        return Word((int(c) for c in text.strip()), alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _valid_word(self.symbols[i], self.alphabet_size)
        return self.symbols[i]

    def __add__(self, other: "Word") -> "Word":
        k = max(self.alphabet_size, other.alphabet_size)
        return _valid_word(self.symbols + other.symbols, k)

    def __mul__(self, n: int) -> "Word":
        return _valid_word(self.symbols * n, self.alphabet_size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __lt__(self, other: "Word") -> bool:
        return (len(self.symbols), self.symbols) < (len(other.symbols), other.symbols)

    def __str__(self) -> str:
        if self.alphabet_size <= 10:
            return "".join(str(s) for s in self.symbols)
        return ",".join(str(s) for s in self.symbols)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, k={self.alphabet_size})"

    def reverse(self) -> "Word":
        return _valid_word(self.symbols[::-1], self.alphabet_size)

    def is_palindrome(self) -> bool:
        return self.symbols == self.symbols[::-1]

    def is_factor_of(self, other: "Word") -> bool:
        # one character per symbol gives a C substring scan for any symbol
        # below 0x110000, past the 256 that bytes would hold
        return "".join(map(chr, self.symbols)) in "".join(map(chr, other.symbols))

    def conjugates(self) -> list["Word"]:
        """All rotations of the word, in rotation order."""
        s = self.symbols
        k = self.alphabet_size
        return [_valid_word(s[i:] + s[:i], k) for i in range(max(1, len(s)))]

    def primitive_root(self) -> "Word":
        """The shortest x with self = x^d."""
        s, n = self.symbols, len(self.symbols)
        for p in range(1, n):
            if n % p == 0 and s[:p] * (n // p) == s:
                return _valid_word(s[:p], self.alphabet_size)
        return self


def _valid_word(symbols: tuple[int, ...], alphabet_size: int) -> Word:
    """A Word over a tuple of symbols already known to lie in the alphabet.

    Skips the per-symbol checks of Word(); only for symbols cut from, or
    built by the package over, a Word's own alphabet.
    """
    w = object.__new__(Word)
    object.__setattr__(w, "symbols", symbols)
    object.__setattr__(w, "alphabet_size", alphabet_size)
    return w


@dataclass(frozen=True)
class PalFacSet:
    """The set of palindromic factors of a word; always contains the empty word."""

    palindromes: frozenset

    def __post_init__(self):
        if Word(()) not in self.palindromes:
            object.__setattr__(self, "palindromes", self.palindromes | {Word(())})

    def __len__(self) -> int:
        return len(self.palindromes)

    def __contains__(self, w: Word) -> bool:
        return w in self.palindromes

    def __iter__(self):
        # the order of Word.__lt__, without a Python call per comparison
        return iter(sorted(self.palindromes, key=lambda w: (len(w.symbols), w.symbols)))

    def counts_by_parity(self) -> tuple[int, int]:
        """(even count including the empty word, odd count)."""
        even = sum(1 for w in self.palindromes if len(w) % 2 == 0)
        return even, len(self.palindromes) - even

    def max_length_by_parity(self) -> tuple[int, int]:
        """(longest even length, longest odd length); -1 if no odd palindrome."""
        even = max((len(w) for w in self.palindromes if len(w) % 2 == 0), default=0)
        odd = max((len(w) for w in self.palindromes if len(w) % 2 == 1), default=-1)
        return even, odd

    def max_length(self) -> int:
        return max(len(w) for w in self.palindromes)


def palindromic_factors(w: Word | Iterable[int]) -> PalFacSet:
    """All distinct palindromic factors of w, including the empty word.

    Runs the palindromic tree (Rubinchik and Shur 2018) over flat lists.
    Node 0 is the imaginary root of length -1 and node 1 the empty word;
    every further node is one distinct nonempty palindrome, with its
    length, its longest proper suffix palindrome (link) and the index
    where it first ends.  child[v * k + c] is the node of c pal(v) c, or
    0, since node 0 is nobody's child.  A letter adds at most one new
    palindrome, its longest suffix palindrome.
    """
    if not isinstance(w, Word):
        w = Word(w)
    s, k = w.symbols, w.alphabet_size
    length, link, end = [-1, 0], [0, 0], [-1, -1]
    child = [0] * ((len(s) + 2) * k)
    v = 1  # longest suffix palindrome of s[:i]
    for i, c in enumerate(s):
        # deepest v on the suffix-link chain with c pal(v) c a suffix of s[:i + 1]
        while i - 1 - length[v] < 0 or s[i - 1 - length[v]] != c:
            v = link[v]
        node = child[v * k + c]
        if not node:
            node = len(length)
            if length[v] < 0:
                suffix = 1
            else:
                # u is shorter than v, which fit, so the index stays >= 0
                u = link[v]
                while s[i - 1 - length[u]] != c:
                    u = link[u]
                suffix = child[u * k + c]
            length.append(length[v] + 2)
            link.append(suffix)
            end.append(i)
            child[v * k + c] = node
        v = node
    pals = frozenset(Word(s[e - n + 1:e + 1], k) for n, e in zip(length[2:], end[2:]))
    return PalFacSet(pals | {_valid_word((), k)})


def naive_palindromic_factors(w: Word | Iterable[int]) -> PalFacSet:
    """Reference implementation by direct substring scan (quadratic)."""
    if not isinstance(w, Word):
        w = Word(w)
    s = w.symbols
    n = len(s)
    found = set()
    # grow around each center; every palindromic substring is reached this way
    for center in range(2 * n - 1):
        i, j = center // 2, (center + 1) // 2
        while i >= 0 and j < n and s[i] == s[j]:
            found.add(s[i:j + 1])
            i -= 1
            j += 1
    k = w.alphabet_size
    pals = frozenset(_valid_word(p, k) for p in found)
    return PalFacSet(pals | {_valid_word((), k)})


def enumerate_palindromes(alphabet_size: int, max_length: int) -> list[Word]:
    """All palindromes over the alphabet up to max_length, length-then-lex."""
    if alphabet_size < 0:
        raise ValueError(f"alphabet size must be nonnegative, not {alphabet_size}")
    return [_valid_word(half + half[:length // 2][::-1], alphabet_size)
            for length in range(max_length + 1)
            for half in itertools.product(range(alphabet_size), repeat=(length + 1) // 2)]


def minimal_elements(words: Iterable[Word]) -> list[Word]:
    """Members with no *other* member as a factor (minimal in the factor order)."""
    pool = sorted(set(words))
    out = []
    for w in pool:
        if any(v != w and v.is_factor_of(w) for v in pool if len(v) <= len(w)):
            continue
        out.append(w)
    return out
