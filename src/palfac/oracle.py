"""Brute-force ground truth for the constraint families.

Counts are produced by a pruned depth-first search over words, evaluating
palindromic factors with a palindromic tree kept in per-depth arrays:
each letter adds at most one node, and undoing it clears one slot.  None
of the automaton machinery is involved, so these results are an
independent check on the constructions.  The search prunes with
the family's own admissibility rule, as the construction does;
brute_count_unpruned reads only the separate whole-word predicate, so it
checks that rule too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automaton import minimize
from .construct import CapacityError, ConstraintSpec, build_direct
from .words import Word, palindromic_factors

DEFAULT_EVAL_BUDGET = 100_000_000


@dataclass(frozen=True)
class OracleResult:
    n: int
    count: int
    witnesses: tuple[Word, ...] | None = None


def satisfies(spec: ConstraintSpec, w: Word) -> bool:
    """Whole-word evaluation of a constraint, from the full factor set."""
    return spec.satisfied_by(palindromic_factors(w))


def _search(spec: ConstraintSpec, max_depth: int, visit, budget: int) -> None:
    """Pruned DFS over accepted words of length <= max_depth.

    visit(depth, word) runs once per accepted word, lexicographically
    within each branch, where word[:depth] holds its letters (the list is
    reused, so copy what must outlive the call); returning False aborts
    the whole search.  Every letter tried costs one evaluation of budget.

    The palindromic tree lives in flat lists indexed by depth and node.
    Nodes 0 and 1 are the imaginary (length -1) and empty roots; each
    letter adds at most one node, so nodes form a stack of at most
    max_depth + 2.  After d letters, last[d] is the longest suffix
    palindrome and made[d] the slot of nxt (node * k + letter) that the
    d-th letter filled, or -1; undoing that letter clears the slot.
    """
    if not satisfies(spec, Word(())):
        return
    word = [0] * max_depth
    if not visit(0, word) or max_depth == 0:
        return
    k = spec.alphabet_size
    admits = spec.admits
    length = [-1, 0] + [0] * max_depth
    link = [0] * (max_depth + 2)
    nxt = [0] * ((max_depth + 2) * k)  # 0 = no child: node 0 is nobody's child
    last = [1] * (max_depth + 1)
    made = [-1] * (max_depth + 1)
    tried = [0] * (max_depth + 1)  # next letter to try after d letters
    top = 2  # nodes in use
    even = odd = 0  # nonempty palindromic factors by parity
    evaluations = 0
    d = 0
    while True:
        c = tried[d]
        if c == k:
            if d == 0:
                return
            slot = made[d]
            if slot >= 0:
                nxt[slot] = 0
                top -= 1
                if length[top] & 1:
                    odd -= 1
                else:
                    even -= 1
            d -= 1
            continue
        tried[d] = c + 1
        evaluations += 1
        if evaluations > budget:
            raise CapacityError(f"oracle evaluation budget {budget} exceeded")
        word[d] = c
        # deepest suffix palindrome v of the word with c pal(v) c a suffix
        v = last[d]
        while True:
            j = d - 1 - length[v]
            if j >= 0 and word[j] == c:
                break
            v = link[v]
        slot = v * k + c
        node = nxt[slot]
        if node:
            made[d + 1] = -1
        else:
            size = length[v] + 2
            if size == 1:
                suffix = 1
            else:
                # u is shorter than v, which fit, so the index stays >= 0
                u = link[v]
                while word[d - 1 - length[u]] != c:
                    u = link[u]
                suffix = nxt[u * k + c]
            # the new palindrome is the only factor this letter adds
            if size & 1:
                if not admits(word[d + 1 - size:d + 1], even + 1, odd + 1):
                    continue
                odd += 1
            else:
                if not admits(word[d + 1 - size:d + 1], even + 2, odd):
                    continue
                even += 1
            node = top
            top += 1
            length[node] = size
            link[node] = suffix
            nxt[slot] = node
            made[d + 1] = slot
        d += 1
        last[d] = node
        if not visit(d, word):
            return
        tried[d] = 0 if d < max_depth else k


def brute_count(spec: ConstraintSpec, n: int, max_witnesses: int = 0,
                budget: int = DEFAULT_EVAL_BUDGET) -> OracleResult:
    """Exact number of length-n words satisfying the constraint."""
    count = 0
    witnesses: list[Word] = []

    def visit(depth: int, word: list[int]) -> bool:
        nonlocal count
        if depth == n:
            count += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(Word(word[:depth], spec.alphabet_size))
        return True

    _search(spec, n, visit, budget)
    return OracleResult(n=n, count=count,
                        witnesses=tuple(witnesses) if max_witnesses else None)


def brute_count_profile(spec: ConstraintSpec, n_max: int,
                        budget: int = DEFAULT_EVAL_BUDGET) -> list[int]:
    """Counts for every length 0..n_max from a single search."""
    counts = [0] * (n_max + 1)

    def visit(depth: int, word: list[int]) -> bool:
        counts[depth] += 1
        return True

    _search(spec, n_max, visit, budget)
    return counts


def brute_count_unpruned(spec: ConstraintSpec, n: int) -> int:
    """Reference count by evaluating every word of length n independently."""
    k = spec.alphabet_size
    return sum(1 for syms in itertools.product(range(k), repeat=n)
               if satisfies(spec, Word(syms, k)))


def longest_word(spec: ConstraintSpec, budget: int = DEFAULT_EVAL_BUDGET) -> int | None:
    """Maximum accepted length, or None when the language is infinite.

    An accepted word at least as long as the minimized automaton's live
    state count repeats a live state, so it pumps to arbitrary lengths;
    reaching that depth is the infinite signal.  Returns -1 if nothing at
    all is accepted.
    """
    threshold = minimize(build_direct(spec)).live_state_count()
    longest = -1
    infinite = False

    def visit(depth: int, word: list[int]) -> bool:
        nonlocal longest, infinite
        if depth >= threshold:
            infinite = True
            return False
        longest = max(longest, depth)
        return True

    _search(spec, threshold, visit, budget)
    return None if infinite else longest
