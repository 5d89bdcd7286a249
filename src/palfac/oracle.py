"""Brute-force ground truth for the constraint families.

Counts are produced by a pruned depth-first search over words, evaluating
palindromic factors with a palindromic tree kept in per-depth arrays:
each letter adds at most one node, and undoing it clears one slot.  None
of the automaton machinery is involved, so these results are an
independent check on the constructions.  The search prunes with
the family's own admissibility rule, as the construction does;
brute_count_unpruned reads only the separate whole-word predicate, so it
checks that rule too.

A bijection of the alphabet maps palindromes to palindromes of the same
length, so a family that reads only the lengths and counts of its
palindromic factors accepts a word exactly when it accepts each renaming
of its letters.  For such a letter-symmetric spec the search visits one
word per orbit, the one whose letters first appear in the order 0, 1,
2, ..., and counts it with the orbit's size; the construction uses no
such symmetry, so the two stay independent.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .automaton import CapacityError, state_budget
from .construct import ConstraintSpec
from .words import Word, palindromic_factors

# the most words, counted with their orbits, that one search may evaluate
EVAL_BUDGET = 100_000_000


@dataclass(frozen=True)
class OracleResult:
    n: int
    count: int
    witnesses: tuple[Word, ...] | None = None


def satisfies(spec: ConstraintSpec, w: Word) -> bool:
    """Whole-word evaluation of a constraint, from the full factor set."""
    return spec.satisfied_by(palindromic_factors(w))


def _search(spec: ConstraintSpec, max_depth: int,
            keep: int = 0) -> tuple[list[int], list[tuple[int, ...]]]:
    """Pruned DFS over accepted words of length <= max_depth.

    Returns (counts, canonical): counts[d] is the number of accepted words
    of length d, and canonical the first keep searched words of length
    max_depth, in lexicographic order.  The search's lists take about 100
    bytes per unit of max_depth, so a max_depth past the state budget
    raises CapacityError before any of them is allocated.

    A letter-symmetric spec accepts a word exactly when it accepts every
    renaming of its letters, so the accepted words fall into orbits of the
    symmetric group on letters.  The search then visits only each orbit's
    canonical word, whose letters first appear in the order 0, 1, 2, ...:
    after d letters of which j are distinct it tries 0..min(j, k-1) only,
    and a word with j distinct letters stands for the k!/(k-j)! words that
    rename them injectively.  Prefixes of canonical words are canonical, so
    no orbit is missed.  Any other spec counts every letter as used from
    the start, which makes each word its own orbit of weight 1.

    Every letter tried costs the evaluations the full search would spend
    on the words it stands for: the orbit's weight for a letter already
    used, and weight * (k-j) for the fresh letter j, which stands for all
    k-j unused ones.  A canonical word thus pays weight * k, as its orbit
    does letter by letter, so the budget, EVAL_BUDGET read at the call,
    runs out exactly where the full search's would.

    The palindromic tree lives in flat lists indexed by depth and node.
    Nodes 0 and 1 are the imaginary (length -1) and empty roots; each
    letter adds at most one node, and a letter of the last length is
    judged and counted without one, so nodes form a stack of at most
    max_depth + 1.  After d letters, last[d] is the longest suffix
    palindrome, made[d] the slot of nxt (node * k + letter) that the
    d-th letter filled, or -1 (undoing that letter clears the slot),
    used[d] the number of distinct letters and orbit[d] the weight.

    No suffix-link chain is walked.  direct[u * k + c] is the longest
    proper suffix palindrome of u that u shows right after a letter c,
    or the imaginary root.  Its letter before lies inside u, so after d
    letters the letter c extends v = last[d] when word[d - 1 - len(v)]
    is c, and direct[v * k + c] otherwise.  A new node's row is its
    suffix link's row with one entry set, the link's own (proof in
    `words.palindromic_factors`).  A push writes the node's row and a
    pop leaves it for the next push to overwrite, so memory stays
    O(max_depth * k).
    """
    if max_depth < 0:
        raise ValueError("word length must be nonnegative")
    budget = state_budget()
    if max_depth > budget:
        raise CapacityError(f"word length {max_depth} exceeds the budget of {budget}")
    counts = [0] * (max_depth + 1)
    if not satisfies(spec, Word(())):
        return counts, []
    counts[0] = 1
    if max_depth == 0:
        return counts, [()][:keep]
    canonical: list[tuple[int, ...]] = []
    word = [0] * max_depth
    k = spec.alphabet_size
    admits = spec.admits
    length = [-1, 0] + [0] * (max_depth - 1)
    nxt = [0] * ((max_depth + 1) * k)  # 0 = no child: node 0 is nobody's child
    direct = [0] * ((max_depth + 1) * k)
    last = [1] * max_depth
    made = [-1] * max_depth
    used = [0 if getattr(spec, "letter_symmetric", False) else k] * max_depth
    orbit = [1] * max_depth
    tried = [0] * max_depth  # next letter to try after d letters
    stop = [min(used[0] + 1, k)] + [0] * (max_depth - 1)  # letters to try after d letters
    top = 2  # nodes in use
    even = odd = 0  # nonempty palindromic factors by parity
    evaluations = 0
    budget = EVAL_BUDGET
    last_letter = max_depth - 1
    d = 0
    while True:
        c = tried[d]
        if c == stop[d]:
            if d == 0:
                return counts, canonical
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
        fresh = used[d]
        weight = orbit[d]
        if c == fresh:
            weight *= k - fresh
            fresh += 1
        evaluations += weight
        if evaluations > budget:
            raise CapacityError(f"oracle evaluation budget {budget} exceeded")
        word[d] = c
        # deepest suffix palindrome v of the word with c pal(v) c a suffix
        v = last[d]
        j = d - 1 - length[v]
        if j < 0 or word[j] != c:
            v = direct[v * k + c]
        slot = v * k + c
        node = nxt[slot]
        if not node:
            # the new palindrome is the only factor this letter adds
            size = length[v] + 2
            if size & 1:
                if not admits(word[d + 1 - size:d + 1], even + 1, odd + 1):
                    continue
            elif not admits(word[d + 1 - size:d + 1], even + 2, odd):
                continue
        if d == last_letter:
            # a word of the last length is counted in place, with no node or frame
            counts[max_depth] += weight
            if len(canonical) < keep:
                canonical.append(tuple(word))
            continue
        if node:
            made[d + 1] = -1
        else:
            if size & 1:
                odd += 1
            else:
                even += 1
            suffix = nxt[direct[slot] * k + c] if size > 1 else 1
            node = top
            top += 1
            length[node] = size
            nxt[slot] = node
            row = node * k
            direct[row:row + k] = direct[suffix * k:suffix * k + k]
            direct[row + word[d - length[suffix]]] = suffix
            made[d + 1] = slot
        d += 1
        last[d] = node
        used[d] = fresh
        orbit[d] = weight
        counts[d] += weight
        tried[d] = 0
        stop[d] = fresh + 1 if fresh < k else k


def brute_count(spec: ConstraintSpec, n: int, max_witnesses: int = 0) -> OracleResult:
    """Exact number of length-n words satisfying the constraint.

    The witnesses are the first max_witnesses accepted words in
    lexicographic order.  The search yields one word per orbit, the least
    one, so the orbits of the first max_witnesses it yields are expanded
    and the least max_witnesses of them kept: a word's least renaming is
    accepted and no larger, so the first accepted words all lie in those
    orbits.  Neither the words searched nor the expansion ever holds more
    than max_witnesses words of n letters, so a request of more than
    state_budget() letters raises CapacityError before the search.
    """
    if max_witnesses < 0:
        raise ValueError("max_witnesses must be nonnegative")
    budget = state_budget()
    if max_witnesses * n > budget:
        raise CapacityError(f"{max_witnesses} witnesses of length {n} exceed the budget of "
                            f"{budget} letters")
    k = spec.alphabet_size
    counts, witnesses = _search(spec, n, max_witnesses)
    if not max_witnesses:
        return OracleResult(n=n, count=counts[n])
    if getattr(spec, "letter_symmetric", False):
        # a canonical word's orbit: the injective renamings of its j letters 0..j-1
        witnesses = heapq.nsmallest(max_witnesses, (
            tuple(g[c] for c in w) for w in witnesses
            for g in itertools.permutations(range(k), max(w, default=-1) + 1)))
    return OracleResult(n=n, count=counts[n], witnesses=tuple(Word(w, k) for w in witnesses))


def brute_count_profile(spec: ConstraintSpec, n_max: int) -> list[int]:
    """Counts for every length 0..n_max from a single search."""
    return _search(spec, n_max)[0]


def brute_count_unpruned(spec: ConstraintSpec, n: int) -> int:
    """Reference count by evaluating every word of length n independently."""
    k = spec.alphabet_size
    return sum(1 for syms in itertools.product(range(k), repeat=n)
               if satisfies(spec, Word(syms, k)))
