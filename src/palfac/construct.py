"""Automata recognizing words with constrained palindromic factors.

Five constraint families are supported.  Every family's language is
factorial (closed under taking factors), so each automaton has a single
absorbing rejecting state and every other state is accepting.

build_direct runs a breadth-first closure over (window, bookkeeping)
states, where the window keeps just enough recent symbols that every
first occurrence of a palindromic factor in a not-yet-rejected word is
visible as a suffix of window+letter.  Each state is a single int: the
window as one bit lane per letter, marking the positions that hold that
letter, and above it, for counted families, a sid numbering the set of
palindromes seen so far.  A letter adds at most one new palindromic
factor, the longest suffix palindrome, so a transition looks up that
one palindrome; its length comes from the window's suffix palindromes
(a bitmask of lengths) and the letter's lane by a shift and an and,
without a rescan, and what it does to a sid is worked out once.
build_avoidance reaches the same languages for the AllowedSet family
as the automaton of the minimal forbidden palindromes, read straight off
its definition (states are the proper prefixes of the forbidden words),
giving an independent construction to cross-check against.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# the state budget lives in automaton, whose imports are held to it too; re-exported here
from .automaton import BUDGET_ENV, DEFAULT_STATE_BUDGET, CapacityError, Dfa, state_budget
from .words import PalFacSet, Word, enumerate_palindromes, minimal_elements


class ConstraintSpec:
    """One constraint family, defined once for every layer that reads it.

    Each family states its rule on palindromic factors twice, in two forms
    that share no code: `admits` judges one palindrome as it first appears
    (the construction and the oracle prune with it), and `satisfied_by`
    judges a whole factor set (the unpruned reference).  `window_bound`
    sizes the construction's window, and `cli_flags` names the command
    line values that follow the alphabet size in the constructor.  A spec
    checks its parameters when it is constructed.
    """

    alphabet_size: int
    # whether `admits` reads the counts, so the construction must remember
    # which palindromes a word has already shown
    counted = False
    # whether renaming the letters by any bijection keeps `admits` and
    # `satisfied_by` unchanged, so the oracle may count one word per orbit
    letter_symmetric = False
    cli_flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("cap", "even_cap", "odd_cap"):
            value = getattr(self, name, None)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.alphabet_size < 1:
            raise ValueError("alphabet must have at least one symbol")

    def window_bound(self) -> int:
        """Length of recent-symbol window that makes the direct construction exact.

        Chosen so that window+letter always covers the first occurrence (as
        a suffix) of any palindromic factor a live word can acquire,
        including the arrival that first violates the constraint.
        """
        raise NotImplementedError

    def admits(self, pal: Sequence[int], even: int, odd: int) -> bool:
        """Whether a word may gain the palindrome `pal` as a new factor.

        pal is the palindrome's symbols (a tuple or a list).  even and odd
        count the distinct palindromic factors by parity once pal is among
        them, the empty word counting as even; families that are not
        `counted` ignore them.  The families are monotone in the factor
        set, so checking each palindrome as it first appears decides the
        whole word.
        """
        raise NotImplementedError

    def satisfied_by(self, pf: PalFacSet) -> bool:
        """Whole-word evaluation from the full palindromic factor set."""
        raise NotImplementedError


@dataclass(frozen=True)
class AllowedSet(ConstraintSpec):
    """Words whose palindromic factors all lie in a fixed finite set."""
    alphabet_size: int
    allowed: frozenset

    cli_flags = ("allowed",)

    def __init__(self, alphabet_size: int, allowed: Iterable[Word]):
        allowed = frozenset(Word(w, alphabet_size) for w in allowed)
        for w in allowed:
            if not w.is_palindrome():
                raise ValueError(f"allowed set contains non-palindrome {w!r}")
        symbols = frozenset(w.symbols for w in allowed)
        # the transposition (0 1) and the cycle (0 1 ... k-1) generate every
        # permutation of the letters, so closure under both is closure under all
        letters = list(range(alphabet_size))
        swap, cycle = letters[1::-1] + letters[2:], letters[1:] + letters[:1]
        symmetric = all(tuple(g[c] for c in s) in symbols for s in symbols for g in (swap, cycle))
        object.__setattr__(self, "alphabet_size", alphabet_size)
        object.__setattr__(self, "allowed", allowed)
        object.__setattr__(self, "_symbols", symbols)
        object.__setattr__(self, "letter_symmetric", symmetric)
        self.__post_init__()

    def window_bound(self) -> int:
        return max((len(w) for w in self.allowed), default=0) + 2

    def admits(self, pal, even, odd):
        return tuple(pal) in self._symbols

    def satisfied_by(self, pf):
        return all(p in self.allowed for p in pf)


@dataclass(frozen=True)
class MaxDistinct(ConstraintSpec):
    """Words with at most `cap` distinct palindromic factors, counting the empty word."""
    alphabet_size: int
    cap: int

    counted = True
    letter_symmetric = True
    cli_flags = ("cap",)

    def window_bound(self) -> int:
        return max(2 * self.cap - 1, 1)

    def admits(self, pal, even, odd):
        return even + odd <= self.cap

    def satisfied_by(self, pf):
        return len(pf) <= self.cap


@dataclass(frozen=True)
class MaxLen(ConstraintSpec):
    """Words with no palindromic factor longer than `cap`."""
    alphabet_size: int
    cap: int

    letter_symmetric = True
    cli_flags = ("cap",)

    def window_bound(self) -> int:
        return self.cap + 1

    def admits(self, pal, even, odd):
        return len(pal) <= self.cap

    def satisfied_by(self, pf):
        return pf.max_length() <= self.cap


@dataclass(frozen=True)
class MaxLenByParity(ConstraintSpec):
    """Words with even/odd palindromic factor lengths capped separately."""
    alphabet_size: int
    even_cap: int
    odd_cap: int

    letter_symmetric = True
    cli_flags = ("cap", "odd_cap")

    def window_bound(self) -> int:
        return max(self.even_cap, self.odd_cap) + 2

    def admits(self, pal, even, odd):
        n = len(pal)
        return n <= (self.odd_cap if n % 2 else self.even_cap)

    def satisfied_by(self, pf):
        even, odd = pf.max_length_by_parity()
        return even <= self.even_cap and odd <= self.odd_cap


@dataclass(frozen=True)
class MaxCountByParity(ConstraintSpec):
    """Words with at most even_cap even and odd_cap odd distinct palindromic factors.

    With count_empty (the default) the empty word counts toward the even cap.
    """
    alphabet_size: int
    even_cap: int
    odd_cap: int
    count_empty: bool = True

    counted = True
    letter_symmetric = True
    cli_flags = ("cap", "odd_cap", "count_empty")

    def window_bound(self) -> int:
        # a surviving word's even palindromes have length <= 2e where e is
        # the nonempty-even allowance, odd ones <= 2*odd_cap - 1; the first
        # violation arrives as a suffix two longer, which must still fit in
        # window+letter
        nonempty_even = self.even_cap - 1 if self.count_empty else self.even_cap
        return max(2 * nonempty_even + 1, 2 * self.odd_cap, 1)

    def admits(self, pal, even, odd):
        return (even if self.count_empty else even - 1) <= self.even_cap \
            and odd <= self.odd_cap

    def satisfied_by(self, pf):
        even, odd = pf.counts_by_parity()
        if not self.count_empty:
            even -= 1
        return even <= self.even_cap and odd <= self.odd_cap


def build_direct(spec: ConstraintSpec, budget: int | None = None) -> Dfa:
    """Breadth-first construction of a complete DFA for the spec's language.

    A state is one int, sid << k*width | window.  The window holds the
    last `bound` symbols as k bit lanes of width = bound + 1, one per
    letter: bit j of lane b is set when the symbol j + 1 places from the
    end is b.  Appending a shifts every lane up one place and sets bit 0
    of lane a, and the top bit of each lane, which keep clears, drops the
    oldest symbol.  For counted families sid numbers the set of nonempty
    palindromes the word has shown, held as a bitmask in which each
    palindrome gets its bit the first time any word shows it; otherwise
    sid is 0.  A letter adds at most one new palindromic factor, the
    longest suffix palindrome of the word (Droubay, Justin and Pirillo
    2001): the shorter ones are its suffixes, hence its prefixes, so they
    ended earlier in the word.  So a transition looks up one palindrome,
    the longest suffix palindrome of window+letter, coded as the low bits
    of its lanes, and what it does to a sid (the next sid, or dead) is
    worked out once per (sid, palindrome).  Live states are numbered in
    discovery order starting from 0; the dead state, if the language is
    proper, gets the final number.

    Only states with full windows, `bound` symbols, go into the index of
    keys that finds a state reached again.  A window shorter than `bound`
    holds its whole word, and the word fixes the sid, so its state is the
    state of exactly one word, entered by one transition: the word's last
    letter from the state of the word without it.  So a state whose window
    holds at most bound - 2 symbols, whose successors' windows are all
    shorter than `bound`, gets new numbers for its live targets without a
    lookup, and no later lookup, which is always for a full window, could
    find them.  The index thus holds none of the states at the levels
    below the window bound, which are most of the raw states of the
    paper's larger automata.
    """
    k = spec.alphabet_size
    bound = spec.window_bound()
    admits = spec.admits
    counted = spec.counted
    if budget is None:
        budget = state_budget()

    # the empty word is a palindromic factor of every word
    if not admits((), 1, 0):
        return Dfa([[0] * k], 0, [])

    width = bound + 1
    lanes = k * width
    # low[L]: bits 0..L-1 of every lane, the last L symbols
    low = [sum(((1 << L) - 1) << (b * width) for b in range(k)) for L in range(width + 1)]
    keep = low[bound]
    letters = [(a * width, 1 << a * width) for a in range(k)]
    window_lengths = (2 << bound) - 1  # the suffix lengths a window holds
    # bit L of a state's entry in suffix_lengths is set when the window's suffix of
    # length L is a palindrome (L = 0 included): the suffix of length L+2
    # of w.a is one exactly when w's suffix of length L is and the symbol
    # before it, bit L of lane a, is a
    # palindrome code -> (its bit, its symbols oldest first)
    pals: dict[int, tuple[int, tuple[int, ...]]] = {}
    even_bits = 0
    masks = [0]                    # sid -> seen bitmask
    sid_of = {0: 0}
    # sid -> {palindrome code: the next sid << lanes, or -1 for dead}
    moves: list[dict[int, int]] = [{}]

    index = {}  # the states with full windows, by key (see the docstring)
    count = 1  # states numbered so far
    # a window with none of these bits holds at most bound - 2 symbols
    tall = ~low[bound - 2] if bound >= 2 else None
    # the breadth-first frontier, states found but not yet expanded, in
    # the order of their ids; each is popped as it is expanded
    states = deque([0])
    suffix_lengths = deque([1])
    flat = array("i")  # row-major transitions, -1 for the dead state
    used_dead = False

    while states:
        key = states.popleft()
        lengths_here = suffix_lengths.popleft()
        window = key & keep
        sid = key >> lanes
        here = key ^ window
        move = moves[sid]
        shifted = window << 1
        fresh = tall is not None and not window & tall
        for shift, letter in letters:
            lengths = (lengths_here & (window >> shift)) << 2 | 3
            longest = lengths.bit_length() - 1
            ext = shifted | letter
            code = ext & low[longest]
            to = move.get(code)
            if to is None:
                pal = pals.get(code)
                if pal is None:
                    symbols = tuple(b for j in range(longest - 1, -1, -1) for b in range(k)
                                    if code >> (b * width + j) & 1)
                    pal = pals[code] = (1 << len(pals), symbols)
                    if longest % 2 == 0:
                        even_bits |= pal[0]
                bit, symbols = pal
                seen = masks[sid]
                if not counted:
                    to = here if admits(symbols, 0, 0) else -1
                elif seen & bit:
                    to = here
                else:
                    seen |= bit
                    ev = 1 + (seen & even_bits).bit_count()
                    od = seen.bit_count() + 1 - ev
                    if not admits(symbols, ev, od):
                        to = -1
                    else:
                        to = sid_of.get(seen)
                        if to is None:
                            to = sid_of[seen] = len(masks)
                            masks.append(seen)
                            moves.append({})
                        to <<= lanes
                move[code] = to
            if to < 0:
                used_dead = True
                flat.append(-1)
                continue
            nxt = to | ext & keep
            ti = None if fresh else index.get(nxt)
            if ti is None:
                ti = count
                if ti >= budget:
                    raise CapacityError(
                        f"state budget {budget} exceeded while building {spec!r}")
                count += 1
                if not fresh:
                    index[nxt] = ti
                states.append(nxt)
                suffix_lengths.append(lengths & window_lengths)
            flat.append(ti)

    n = count
    # the search's tables go before the transitions become a table: they
    # are most of the construction's memory peak
    del index, moves, sid_of, masks
    if used_dead:
        flat.extend([-1] * k)
    table = np.frombuffer(flat, dtype=np.intc).reshape(-1, k)  # a view: no copy
    table[table < 0] = n
    return Dfa(table, 0, np.arange(n))


def forbidden_set(allowed: Iterable[Word], alphabet_size: int) -> frozenset:
    """Minimal palindromes whose absence as factors characterizes the language.

    These are the minimal elements, in the factor order, of the palindromes
    up to (longest allowed) + 2 that are not in the allowed set.
    """
    allowed = frozenset(allowed)
    for w in allowed:
        if not w.is_palindrome():
            raise ValueError(f"allowed set contains non-palindrome {w!r}")
    longest = max((len(w) for w in allowed), default=0)
    universe = enumerate_palindromes(alphabet_size, longest + 2)
    extra = [w for w in universe if w not in allowed]
    return frozenset(minimal_elements(extra))


def build_avoidance(forbidden: Iterable[Word], alphabet_size: int) -> Dfa:
    """DFA for the words having no member of `forbidden` as a factor.

    Built from the definition of Crochemore, Mignosi and Restivo
    ("Automata and forbidden words", 1998).  A live state is the longest
    suffix of the input that is a proper prefix of a forbidden word; the
    empty word is always one.  A letter appends, then drops letters from
    the left until the state is such a prefix again, and an input with a
    forbidden suffix goes to the dead state.  Live states are numbered
    breadth-first from the empty word, and the dead state comes last.
    """
    forbidden = {w.symbols for w in forbidden}
    if () in forbidden:
        # the empty word is a factor of everything: empty language
        return Dfa([[0] * alphabet_size], 0, [])
    prefixes = {w[:i] for w in forbidden for i in range(len(w))} | {()}
    index = {(): 0}
    states = [()]
    rows = []
    for u in states:
        row = []
        for a in range(alphabet_size):
            v = u + (a,)
            if any(v[i:] in forbidden for i in range(len(v))):
                row.append(None)
                continue
            while v not in prefixes:
                v = v[1:]
            if v not in index:
                index[v] = len(states)
                states.append(v)
            row.append(index[v])
        rows.append(row)
    dead = len(states)
    rows = [[dead if t is None else t for t in row] for row in rows]
    return Dfa(rows + [[dead] * alphabet_size], 0, range(dead))
