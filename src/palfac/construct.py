"""Automata recognizing words with constrained palindromic factors.

Five constraint families are supported.  Every family's language is
factorial (closed under taking factors), so each automaton has a single
absorbing rejecting state and every other state is accepting.

build_direct runs a breadth-first closure over (window, bookkeeping)
states, where the window keeps just enough recent symbols that every
first occurrence of a palindromic factor in a not-yet-rejected word is
visible as a suffix of window+letter.  The window is one bit lane per
letter, marking the positions that hold that letter, and for counted
families a sid numbers the set of palindromes seen so far.  A letter adds
at most one new palindromic factor, the longest suffix palindrome, so a
transition looks up that one palindrome; its length comes from the
window's suffix palindromes (a bitmask of lengths) and the letter's lane
by a shift and an and, without a rescan, and what it does to a sid is
worked out once.  The closure expands one breadth-first level, the
states first reached by words of one length, per step, on numpy arrays.
This numbers the states as a first-in first-out queue does: the queue
numbers each state the first time a transition reaches it, so it numbers
a whole level while it pops the level before, and pops each level whole,
in numbering order, before the next, meeting the transitions in order
of (source, letter), which is the order a step reads them in.  A state
is looked up again only when its window holds `bound` symbols, by the
sid and the window's lanes other than lane 0, which is exact: each
position of a full window holds one letter, so lane 0 marks the
positions no other lane marks.  build_direct's docstring has both
arguments in full.
build_avoidance reaches the same languages for the AllowedSet family
as the automaton of the minimal forbidden palindromes, read straight off
its definition (states are the proper prefixes of the forbidden words),
giving an independent construction to cross-check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .automaton import CapacityError, Dfa, state_budget
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


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of an array of positive integers, exactly, as int64."""
    if x.dtype == object:
        return np.frompyfunc(int.bit_length, 1, 1)(x).astype(np.int64)
    # a float64 holds 53 bits, so it may round x up to the next power of
    # two and give one more than x's length; x >> (that - 1) is then 0
    length = np.frexp(x.astype(np.float64))[1].astype(np.int64)
    length -= x >> (length - 1) == 0
    return length


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of x in order, the inverse, and each value's first index.

    What np.unique(x, return_index=True, return_inverse=True) gives, in
    another order, with less overhead per call.
    """
    order = x.argsort(kind="stable")
    ordered = x[order]
    head = np.empty(len(x), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = head.cumsum() - 1
    return ordered[head], inverse, order[head]


class _SortedMap:
    """Integer keys, held sorted in an array, with an int64 value each."""

    __slots__ = ("keys", "values")

    def __init__(self, dtype):
        self.keys = np.zeros(0, dtype=dtype)
        self.values = np.zeros(0, dtype=np.int64)

    def get(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The value of each entry of x, and the indices of the entries that are no key.

        The values returned at those indices mean nothing.
        """
        if not len(self.keys):
            return np.zeros(len(x), dtype=np.int64), np.arange(len(x))
        if x.dtype == object:  # compared in Python: sorting would cost more than it saves
            at = np.searchsorted(self.keys, x)
        else:  # a binary search runs about twice as fast over sorted needles
            order = x.argsort()
            at = np.empty(len(x), dtype=np.intp)
            at[order] = np.searchsorted(self.keys, x[order])
        np.minimum(at, len(self.keys) - 1, out=at)
        return self.values[at], np.flatnonzero(self.keys[at] != x)

    def add(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Add sorted distinct keys, none of them in the map yet, with their values."""
        at = np.searchsorted(self.keys, keys) + np.arange(len(keys))
        old = np.ones(len(self.keys) + len(keys), dtype=bool)
        old[at] = False
        merged_keys = np.empty(len(old), dtype=self.keys.dtype)
        merged_keys[at], merged_keys[old] = keys, self.keys
        merged_values = np.empty(len(old), dtype=np.int64)
        merged_values[at], merged_values[old] = values, self.values
        self.keys, self.values = merged_keys, merged_values


def build_direct(spec: ConstraintSpec) -> Dfa:
    """Breadth-first construction of a complete DFA for the spec's language.

    A state is a sid and a window.  The window holds the last `bound`
    symbols as k bit lanes of width = bound + 1, one per letter: bit j of
    lane b is set when the symbol j + 1 places from the end is b.
    Appending a shifts every lane up one place and sets bit 0 of lane a,
    and the top bit of each lane, which `keep` clears, drops the oldest
    symbol.  For counted families sid numbers the set of nonempty
    palindromes the word has shown, held as a bitmask in which each
    palindrome gets its own bit; otherwise sid is 0.  A letter adds at
    most one new palindromic factor, the longest suffix palindrome of the
    word (Droubay, Justin and Pirillo 2001): the shorter ones are its
    suffixes, hence its prefixes, so they ended earlier in the word.  So
    a transition looks up one palindrome, the longest suffix palindrome
    of window+letter, coded as the low bits of its lanes, and what it
    does to a sid (the next sid, or dead) is worked out once per (sid,
    palindrome).  Live states are numbered in discovery order starting
    from 0; the dead state, if the language is proper, gets the final
    number.

    The search runs one level at a time.  Level 0 is the start state,
    and level d + 1 is the states first reached from level d.  The
    frontier holds one level as arrays of sids, windows and suffix-length
    masks in the order of the states' numbers, and a step expands all of
    it under all k letters at once, reading the transitions in row-major
    (state, letter) order.  A target is old when a state numbered at an
    earlier step has its key; the others are new, and each distinct one
    is numbered in the order of its first occurrence among the step's
    transitions.  This is the numbering of a first-in first-out queue,
    which numbers a state when a transition first reaches it and pops
    states in the order of their numbers.  By induction on d, the queue
    pops level d whole, in the order of the numbers, right after levels
    0..d-1: while it pops level d it numbers exactly the states first
    reached from level d, which is level d + 1, so they come after all
    of levels 0..d in the numbering and hence in the queue.  Popping
    level d, it meets the transitions in (state, letter) order and
    numbers each new target at its first occurrence, which is what the
    step does.  The frontier's words have length d, so its windows hold
    min(d, bound) symbols.

    Lanes, windows and suffix-length masks are int64 while a window
    shifted up one place and a mask shifted up two fit, k * width + 2 <=
    62, and Python ints in object arrays past that.  A state with a full
    window, `bound` symbols, is found again by the key sid << (k-1)*width
    | window >> width, which keeps lanes 1..k-1 whole below the sid and
    drops lane 0.  The key is exact for full windows: each of the bound
    positions holds one symbol, so bit j of lane 0 is set exactly when
    bit j of no other lane is, and lanes 1..k-1 fix the window.  Keys are
    int64 while the number of sids leaves room for them, and Python ints
    from the step on where it does not.  A window shorter than `bound`
    holds its whole word, and the word fixes the sid, so its state is the
    state of exactly one word, entered by one transition: the word's last
    letter from the state of the word without it.  So a step whose
    targets' windows are all shorter than `bound` (level d < bound - 1)
    numbers every live target as new, without a key, and the index of
    keys holds none of the states at the levels below the window bound,
    which are most of the raw states of the paper's larger automata.  The
    index, the palindromes and the (sid, palindrome) pairs worked out so
    far are each an array of sorted keys (_SortedMap); a step looks up
    all its keys at once and works out only the distinct ones missing.
    """
    k = spec.alphabet_size
    bound = spec.window_bound()
    admits = spec.admits
    counted = spec.counted
    budget = state_budget()

    # the empty word is a palindromic factor of every word
    if not admits((), 1, 0):
        return Dfa([[0] * k], 0, [])

    width = bound + 1
    # a window shifted up one place, and a suffix-length mask shifted up
    # two, fit in an int64 with a bit to spare, or the lanes are Python ints
    lane = np.int64 if k * width + 2 <= 62 else object
    shift = np.array([a * width for a in range(k)], dtype=lane)
    letter = np.array([1 << a * width for a in range(k)], dtype=lane)
    # low[L]: bits 0..L-1 of every lane, the last L symbols
    low = np.array([sum(((1 << L) - 1) << (b * width) for b in range(k)) for L in range(width + 1)],
                   dtype=lane)
    keep = low[bound]
    window_lengths = (2 << bound) - 1  # the suffix lengths a window holds
    rest = (k - 1) * width  # bits of lanes 1..k-1, below the sid in a key

    palindromes = _SortedMap(lane)  # palindrome code -> its id
    symbols: list[tuple[int, ...]] = []  # palindrome id -> its symbols, oldest first
    even: list[int] = []  # palindrome id -> 1 if its length is even, else 0
    masks = [0]  # sid -> seen bitmask
    sid_of = {0: 0}
    # sid -> the even and the odd palindromes seen, the empty word counted
    evens, odds = [1], [0]
    # (sid, palindrome) pairs, keyed sid << 32 | palindrome id, -> what
    # the palindrome does to the sid: the next sid, or -1 for dead
    moves = _SortedMap(np.int64)
    # the states with full windows, by key (see the docstring) -> their ids
    index = _SortedMap(lane)

    # the frontier: the states of one level, in the order of their ids
    sid = np.zeros(1, dtype=np.int64)
    window = np.zeros(1, dtype=lane)
    suffix_lengths = np.ones(1, dtype=lane)
    depth = 0  # the length of the frontier's words
    count = 1  # states numbered so far
    blocks = []  # each level's rows of transitions, -1 for the dead state
    used_dead = False

    while len(sid):
        # row-major over (state, letter): lengths[i * k + a] is the
        # suffix-length mask of state i's word followed by a.  Bit L of a
        # mask is set when the word's suffix of length L is a palindrome
        # (L = 0 included): the suffix of length L+2 of w.a is one exactly
        # when w's suffix of length L is and the symbol before it, bit L
        # of lane a, is a
        lengths = ((suffix_lengths[:, None] & window[:, None] >> shift) << 2 | 3).ravel()
        ext = (window[:, None] << 1 | letter).ravel()
        code = ext & low[_bit_length(lengths) - 1]
        pal, missing = palindromes.get(code)
        if len(missing):
            codes, which, _ = _distinct(code[missing])
            ids = np.arange(len(symbols), len(symbols) + len(codes))
            for p, c in zip(ids.tolist(), codes.tolist()):
                longest = c.bit_count()  # one lane bit per position
                symbols.append(tuple(b for i in range(longest - 1, -1, -1) for b in range(k)
                                     if c >> (b * width + i) & 1))
                even.append(1 - longest % 2)
            palindromes.add(codes, ids)
            pal[missing] = ids[which]

        if len(masks) >> 31 or len(symbols) >> 32:
            raise CapacityError(f"{spec!r} has more seen sets or palindromes than a pair key holds")
        pair = np.repeat(sid << 32, k) | pal
        to, missing = moves.get(pair)
        if len(missing):
            pairs, which, _ = _distinct(pair[missing])
            found = []
            for s, p in zip((pairs >> 32).tolist(), (pairs & 0xFFFFFFFF).tolist()):
                if not counted:
                    t = 0 if admits(symbols[p], 0, 0) else -1
                elif masks[s] >> p & 1:
                    t = s
                else:
                    ev, od = evens[s] + even[p], odds[s] + 1 - even[p]
                    if not admits(symbols[p], ev, od):
                        t = -1
                    else:
                        seen = masks[s] | 1 << p
                        t = sid_of.get(seen)
                        if t is None:
                            t = sid_of[seen] = len(masks)
                            masks.append(seen)
                            evens.append(ev)
                            odds.append(od)
                found.append(t)
            found = np.array(found, dtype=np.int64)
            moves.add(pairs, found)
            to[missing] = found[which]

        live = np.flatnonzero(to >= 0)
        used_dead = used_dead or len(live) < len(to)
        target_sid = to[live]
        target_window = ext[live] & keep
        if depth + 1 < bound:
            # windows shorter than the bound: every target is a new state
            first = np.arange(len(live))
            target = count + first
        else:
            if index.keys.dtype != object and len(masks) > 1 << (63 - rest):
                index.keys = index.keys.astype(object)  # sid << rest would wrap in an int64
            key = target_sid.astype(index.keys.dtype) << rest | target_window >> width
            target, missing = index.get(key)
            new_keys, which, first = _distinct(key[missing])
            order = first.argsort()  # new states in order of first occurrence
            ids = np.empty(len(order), dtype=np.int64)
            ids[order] = np.arange(count, count + len(order))
            index.add(new_keys, ids)
            target[missing] = ids[which]
            first = missing[first[order]]
        if len(first) and count + len(first) > budget:
            raise CapacityError(f"state budget {budget} exceeded while building {spec!r}")
        count += len(first)
        row = np.full(len(to), -1, dtype=np.int32)
        row[live] = target
        blocks.append(row)
        sid = target_sid[first]
        window = target_window[first]
        suffix_lengths = lengths[live[first]] & window_lengths
        depth += 1

    n = count
    # the search's tables go before the transitions become a table
    del index, moves, sid_of, masks
    if used_dead:
        blocks.append(np.full(k, n, dtype=np.int32))
    table = np.concatenate(blocks).reshape(-1, k)
    del blocks
    table[table < 0] = n
    accepting = np.ones(len(table), dtype=bool)
    accepting[n:] = False
    return Dfa._adopt(table, 0, accepting)


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
