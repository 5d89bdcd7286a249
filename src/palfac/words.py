"""Words over small integer alphabets and their palindromic factors.

The palindromic factor set of a word always includes the empty word, and
the empty word counts as an *even* palindrome throughout the package.
"""

from __future__ import annotations

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
        # symbols are small non-negative ints, so bytes gives a C substring scan
        return bytes(self.symbols) in bytes(other.symbols)

    def conjugates(self) -> list["Word"]:
        """All rotations of the word, in rotation order."""
        s = self.symbols
        k = self.alphabet_size
        return [_valid_word(s[i:] + s[:i], k) for i in range(max(1, len(s)))]

    def primitive_root(self) -> "Word":
        """The shortest x with self = x^d."""
        s = self.symbols
        n = len(s)
        if n == 0:
            return self
        fail = [0] * n
        j = 0
        for i in range(1, n):
            while j and s[i] != s[j]:
                j = fail[j - 1]
            if s[i] == s[j]:
                j += 1
            fail[i] = j
        p = n - fail[-1]
        if n % p == 0:
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


class Eertree:
    """Palindromic tree, built one letter at a time.

    Nodes 0 and 1 are the imaginary (length -1) and empty (length 0) roots;
    every further node is one distinct nonempty palindromic factor of the
    word pushed so far.
    """

    def __init__(self):
        self.word: list[int] = []
        self.length = [-1, 0]
        self.link = [0, 0]
        self.trans: list[dict] = [{}, {}]
        self.end = [-1, -1]  # where each palindrome first ends in word
        self.last = 1
        self.even_count = 0  # nonempty even palindromes so far
        self.odd_count = 0

    @property
    def distinct_count(self) -> int:
        """Number of distinct nonempty palindromic factors."""
        return len(self.length) - 2

    def _fit(self, v: int, c: int) -> int:
        # deepest suffix-palindrome v' on v's suffix-link chain with c pal(v') c
        # a suffix of word (word already ends with c)
        w = self.word
        i = len(w) - 1
        while True:
            l = self.length[v]
            if i - l - 1 >= 0 and w[i - l - 1] == c:
                return v
            v = self.link[v]

    def push(self, c: int) -> int | None:
        """Append a symbol; return the new node id if a new palindrome appeared."""
        w = self.word
        w.append(c)
        # _fit(self.last, c) inlined: push runs once per letter of every
        # word palindromic_factors reads
        i = len(w) - 2
        length, link = self.length, self.link
        v = self.last
        while True:
            j = i - length[v]
            if j >= 0 and w[j] == c:
                break
            v = link[v]
        existing = self.trans[v].get(c)
        if existing is not None:
            self.last = existing
            return None
        node = len(self.length)
        self.length.append(self.length[v] + 2)
        self.end.append(i + 1)
        self.trans.append({})
        if self.length[node] == 1:
            self.link.append(1)
        else:
            u = self._fit(self.link[v], c)
            self.link.append(self.trans[u][c])
        self.trans[v][c] = node
        self.last = node
        if self.length[node] % 2 == 0:
            self.even_count += 1
        else:
            self.odd_count += 1
        return node

    def node_palindromes(self) -> list[tuple[int, ...]]:
        """All distinct nonempty palindromic factors, in order of first appearance."""
        w = tuple(self.word)
        return [w[e - n + 1:e + 1] for n, e in zip(self.length[2:], self.end[2:])]


def palindromic_factors(w: Word | Iterable[int]) -> PalFacSet:
    """All distinct palindromic factors of w, including the empty word."""
    if not isinstance(w, Word):
        w = Word(w)
    t = Eertree()
    for c in w.symbols:
        t.push(c)
    k = w.alphabet_size
    pals = frozenset(Word(p, k) for p in t.node_palindromes())
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


def enumerate_palindromes(alphabet_size: int, max_length: int,
                          parity: str | None = None) -> list[Word]:
    """All palindromes over the alphabet up to max_length, length-then-lex.

    parity may be "even", "odd", or None for both.  The empty word is even.
    """
    if parity not in (None, "even", "odd"):
        raise ValueError(f"parity must be 'even', 'odd', or None, not {parity!r}")
    if alphabet_size < 0:
        raise ValueError(f"alphabet size must be nonnegative, not {alphabet_size}")
    out = []
    for length in range(max_length + 1):
        if parity == "even" and length % 2:
            continue
        if parity == "odd" and length % 2 == 0:
            continue
        half = (length + 1) // 2
        for idx in range(alphabet_size ** half):
            digits = []
            x = idx
            for _ in range(half):
                digits.append(x % alphabet_size)
                x //= alphabet_size
            digits.reverse()  # lex order over the first half
            mirror = digits[:length // 2][::-1]
            out.append(_valid_word(tuple(digits) + tuple(mirror), alphabet_size))
    return out


def minimal_elements(words: Iterable[Word]) -> list[Word]:
    """Members with no *other* member as a factor (minimal in the factor order)."""
    pool = sorted(set(words))
    out = []
    for w in pool:
        if any(v != w and v.is_factor_of(w) for v in pool if len(v) <= len(w)):
            continue
        out.append(w)
    return out
