"""Words over small integer alphabets and their palindromic factors.

The palindromic factor set of a word always includes the empty word, and
the empty word counts as an *even* palindrome throughout the package.
"""

from __future__ import annotations

import itertools
from operator import le
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

    def __reduce__(self):
        # pickle and copy rebuild through the checked constructor, so a
        # view comes back as the plain Word of its symbols
        return Word, (self.symbols, self.alphabet_size)

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


class _View(Word):
    """The factor source[start:stop] of a valid word, kept in place.

    The symbols are sliced only when read, and the length reads the
    span.  Equality, hashing, order, str, indexing and everything built
    from it (slices, reversal, sums) are those of the plain Word of the
    same symbols.
    """

    __slots__ = ("_source", "_start", "_stop")

    @property
    def symbols(self) -> tuple[int, ...]:
        return self._source[self._start:self._stop]

    def __len__(self) -> int:
        return self._stop - self._start


def _view(source: tuple[int, ...], start: int, stop: int, alphabet_size: int) -> _View:
    """A Word reading source[start:stop], symbols already known to lie in the alphabet."""
    w = object.__new__(_View)
    object.__setattr__(w, "_source", source)
    object.__setattr__(w, "_start", start)
    object.__setattr__(w, "_stop", stop)
    object.__setattr__(w, "alphabet_size", alphabet_size)
    return w


class PalFacSet:
    """The set of palindromic factors of a word, held in length-then-lex order.

    Built from the palindromes in that order with the empty word first;
    the constructor checks what needs no letter of them (one empty word,
    then nondecreasing lengths) and raises ValueError otherwise.  Lex
    order within a length is the builder's promise: `palindromic_factors`
    keeps it by the proof in `_tree_order`, `naive_palindromic_factors`
    by sorting.  Two sets are equal when they hold the same palindromes;
    `in` compares a word with each member in turn.
    """

    __slots__ = ("_pals", "_lengths")

    def __init__(self, palindromes: Iterable[Word]):
        pals = tuple(palindromes)
        lengths = tuple(map(len, pals))
        if lengths[:1] != (0,) or 0 in lengths[1:2]:
            raise ValueError("a palindromic factor set starts with the one empty word")
        if not all(map(le, lengths, lengths[1:])):
            raise ValueError("palindromic factors must come in length-then-lex order")
        object.__setattr__(self, "_pals", pals)
        object.__setattr__(self, "_lengths", lengths)

    def __setattr__(self, name, value):
        raise AttributeError("PalFacSet is immutable")

    def __reduce__(self):
        return PalFacSet, (self._pals,)

    @property
    def palindromes(self) -> frozenset:
        return frozenset(self._pals)

    def __len__(self) -> int:
        return len(self._pals)

    def __iter__(self) -> Iterator[Word]:
        return iter(self._pals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PalFacSet):
            return NotImplemented
        return self._lengths == other._lengths and self._pals == other._pals

    def __hash__(self) -> int:
        return hash(self._pals)

    def __repr__(self) -> str:
        return f"PalFacSet({[str(w) for w in self._pals]!r})"

    def counts_by_parity(self) -> tuple[int, int]:
        """(even count including the empty word, odd count)."""
        odd = sum(n & 1 for n in self._lengths)
        return len(self._lengths) - odd, odd

    def max_length_by_parity(self) -> tuple[int, int]:
        """(longest even length, longest odd length); -1 if no odd palindrome."""
        even = next(n for n in reversed(self._lengths) if not n & 1)
        odd = next((n for n in reversed(self._lengths) if n & 1), -1)
        return even, odd

    def max_length(self) -> int:
        return self._lengths[-1]


def _tree_order(length: list[int], center: list[int], outer: list[int]) -> list[int]:
    """Nodes 2.. of a palindromic tree, their palindromes in length-then-lex order.

    Node u spells c pal(center[u]) c with c = outer[u].  Take two
    palindromes of one length n >= 1, c p c and c' p' c'.  Their centers
    p and p' have the one length n - 2 (for n = 1 and 2 both are the
    root of length -1 or the empty word).  Lex order reads c against c'
    first.  When c = c' it reads p against p' next, and p != p', since a
    node has one child per letter, so the order of p and p', which have
    one length, decides before the last letters are read.  Hence
    c p c < c' p' c' exactly when (c, rank p) < (c', rank p'), where the
    rank is the place among the palindromes of length n - 2.  Ranking
    length by length from the two roots, each alone at its length,
    orders every length without reading a letter of the word.
    """
    rank = [0] * len(length)
    by_length: dict[int, list[int]] = {}
    for u in range(2, len(length)):
        by_length.setdefault(length[u], []).append(u)
    order: list[int] = []
    for n in sorted(by_length):
        nodes = by_length[n]
        nodes.sort(key=lambda u: (outer[u], rank[center[u]]))
        for r, u in enumerate(nodes):
            rank[u] = r
        order += nodes
    return order


def palindromic_factors(w: Word | Iterable[int]) -> PalFacSet:
    """All distinct palindromic factors of w, including the empty word.

    Runs the palindromic tree (Rubinchik and Shur 2018) over flat lists.
    Node 0 is the imaginary root of length -1 and node 1 the empty word;
    every further node is one distinct nonempty palindrome c pal(v) c,
    with its length, its center v, its outer letter c and the index where
    it first ends.  child[v * k + c] is the node of c pal(v) c, or 0,
    since node 0 is nobody's child.  A letter adds at most one new
    palindrome, its longest suffix palindrome.

    No suffix-link chain is walked: direct[u * k + c] is the longest
    proper suffix palindrome of u that u shows right after a letter c,
    or the imaginary root when there is none.  A proper suffix palindrome
    of u ends where u ends, so the letter before it lies inside u, and u
    alone fixes which of them a letter extends.  So after s[:i], whose
    longest suffix palindrome is v, the letter c = s[i] extends v itself
    when s[i - 1 - len(v)] = c, and otherwise direct[v * k + c]: every
    shorter suffix palindrome of s[:i] is a proper suffix palindrome of
    v.  A new node c u c has the suffix link child[x * k + c] with
    x = direct[u * k + c] (the empty word when u is the imaginary root).
    The chain below c u c is that link followed by the chain below the
    link, whose letters lie inside the link, so the new row is the
    link's row with one entry set.  Each letter costs one compare and at
    most two table reads, and the tables grow by k slots per node.

    Each member reads its first occurrence in w's symbols in place, and
    `_tree_order` sorts the set from the tree alone, so it takes memory
    O(|w| + k * nodes).
    """
    if not isinstance(w, Word):
        w = Word(w)
    s, k = w.symbols, w.alphabet_size
    length, end, center, outer = [-1, 0], [-1, -1], [0, 0], [0, 0]
    child, direct, zeros = [0] * (2 * k), [0] * (2 * k), [0] * k
    v = 1  # longest suffix palindrome of s[:i]
    for i, c in enumerate(s):
        # the suffix palindrome v of s[:i] with c pal(v) c a suffix of s[:i + 1]
        j = i - 1 - length[v]
        if j < 0 or s[j] != c:
            v = direct[v * k + c]
        node = child[v * k + c]
        if not node:
            node = len(length)
            suffix = child[direct[v * k + c] * k + c] if length[v] >= 0 else 1
            length.append(length[v] + 2)
            end.append(i)
            center.append(v)
            outer.append(c)
            child[v * k + c] = node
            child += zeros
            direct += direct[suffix * k:suffix * k + k]
            direct[node * k + s[i - length[suffix]]] = suffix
        v = node
    pals = [_valid_word((), k)]
    pals += [_view(s, end[u] + 1 - length[u], end[u] + 1, k)
             for u in _tree_order(length, center, outer)]
    return PalFacSet(pals)


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
    return PalFacSet(sorted(_valid_word(p, k) for p in found | {()}))


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
