"""Brute-force ground truth for the constraint families.

Counts are produced by a pruned depth-first search over words, evaluating
palindromic factors with an incremental palindromic tree (push one letter,
roll back).  None of the automaton machinery is involved, so these results
are an independent check on the constructions.  The search prunes with
the family's own admissibility rule, as the construction does;
brute_count_unpruned reads only the separate whole-word predicate, so it
checks that rule too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automaton import minimize
from .construct import CapacityError, ConstraintSpec, build_direct
from .words import Eertree, Word, palindromic_factors

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

    visit(depth, tree) runs once per accepted word (tree is None for the
    empty word), lexicographically within each branch; returning False
    aborts the whole search.
    """
    if not satisfies(spec, Word(())):
        return
    if not visit(0, None) or max_depth == 0:
        return
    k = spec.alphabet_size
    admits = spec.admits
    tree = Eertree()
    word, length, push, pop = tree.word, tree.length, tree.push, tree.pop
    pending = [0]  # pending[-1] = next symbol to try at the current depth
    evaluations = 0
    while pending:
        c = pending[-1]
        if c == k:
            pending.pop()
            if word:
                pop()
            continue
        pending[-1] += 1
        evaluations += 1
        if evaluations > budget:
            raise CapacityError(f"oracle evaluation budget {budget} exceeded")
        node = push(c)
        # pushing a letter adds at most this one palindrome to the factor set
        if node is not None and not admits(word[-length[node]:],
                                           tree.even_count + 1, tree.odd_count):
            pop()
            continue
        depth = len(word)
        if not visit(depth, tree):
            return
        if depth < max_depth:
            pending.append(0)
        else:
            pop()


def brute_count(spec: ConstraintSpec, n: int, max_witnesses: int = 0,
                budget: int = DEFAULT_EVAL_BUDGET) -> OracleResult:
    """Exact number of length-n words satisfying the constraint."""
    count = 0
    witnesses: list[Word] = []

    def visit(depth: int, tree: Eertree | None) -> bool:
        nonlocal count
        if depth == n:
            count += 1
            if len(witnesses) < max_witnesses:
                syms = tuple(tree.word) if tree is not None else ()
                witnesses.append(Word(syms, spec.alphabet_size))
        return True

    _search(spec, n, visit, budget)
    return OracleResult(n=n, count=count,
                        witnesses=tuple(witnesses) if max_witnesses else None)


def brute_count_profile(spec: ConstraintSpec, n_max: int,
                        budget: int = DEFAULT_EVAL_BUDGET) -> list[int]:
    """Counts for every length 0..n_max from a single search."""
    counts = [0] * (n_max + 1)

    def visit(depth: int, tree: Eertree | None) -> bool:
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

    def visit(depth: int, tree: Eertree | None) -> bool:
        nonlocal longest, infinite
        if depth >= threshold:
            infinite = True
            return False
        longest = max(longest, depth)
        return True

    _search(spec, threshold, visit, budget)
    return None if infinite else longest
