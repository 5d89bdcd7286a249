"""State-transformation calculus for verifying explicit word constructions.

A word w acts on an automaton's states by q -> delta(q, w).  Recursive
constructions like X_{n+1} = X_n s X_n^R induce transformations that
stabilize after a few steps, and that stabilization proves facts about
the limit word without ever running it: once tau_{X_n} = tau_{X_{n+1}}
and tau_{X_n^R} = tau_{X_{n+1}^R}, every later X_m traces the same path,
so acceptance of X_n settles acceptance of them all.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .automaton import CapacityError, Dfa, state_budget
from .words import Word, _valid_word

__all__ = [
    "StabilizationReport",
    "transform",
    "perturbed_symmetry",
    "check_stabilization",
    "thue_morse",
]


def transform(d: Dfa, w) -> np.ndarray:
    """tau_w as the int array q -> delta(q, w) over every state of d, the dead state included.

    Composing is indexing: the array of uv is transform(d, v)[transform(d, u)].
    """
    t = np.arange(d.state_count)
    for a in w:
        t = d.delta[t, a]
    return t


def perturbed_symmetry(seed: Word, infix: Word, n: int) -> Word:
    """X_n where X_0 = seed and X_{j+1} = X_j infix X_j^R."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    budget = state_budget()
    final = (len(seed) + len(infix)) * (1 << n) - len(infix)
    if final > budget:
        raise CapacityError(f"word of length {final} exceeds the budget of {budget}")
    if n == 0:
        return seed
    k = max(seed.alphabet_size, infix.alphabet_size)
    # one buffer, a byte per letter when the letters fit
    x = array("B", seed.symbols) if k <= 256 else list(seed.symbols)
    for _ in range(n):
        half = len(x)
        x.extend(infix.symbols)
        if half:  # x[-1::-1] would be all of x
            x.extend(x[half - 1::-1])
    return _valid_word(tuple(x), k)


@dataclass(frozen=True)
class StabilizationReport:
    """Outcome of driving X_0..X_{n_max} through an automaton.

    stabilized_at is the least n < n_max with tau_{X_n} = tau_{X_{n+1}}
    and tau_{X_n^R} = tau_{X_{n+1}^R}, or None if there is none; from
    there on every X_m has the same transformation.  reversal_equal[i]
    records tau_{X_n} = tau_{X_n^R} for n = i + 1, and accepted[n]
    records whether X_n is accepted, from n = 0.
    """

    stabilized_at: int | None
    reversal_equal: tuple[bool, ...]
    accepted: tuple[bool, ...]


def check_stabilization(d: Dfa, seed: Word, infix: Word, n_max: int) -> StabilizationReport:
    """Drive the perturbed-symmetry words X_0..X_{n_max} through d.

    The words are never built: with x = tau_{X_n} and x_rev = tau_{X_n^R},
    tau_{X_{n+1}} = x_rev[tau_s[x]] and tau_{X_{n+1}^R} = x_rev[tau_{s^R}[x]],
    and X_n is accepted when x sends the start state to an accepting one.
    Transformations are compared as whole state maps, which is portable
    across renumberings.  Once the pair (tau_{X_n}, tau_{X_n^R}) repeats,
    the recurrences above repeat it at every later n, so the loop stops
    there and the report repeats that pair's flags up to n_max;
    tau_{X_n} repeating alone proves nothing while tau_{X_n^R} still moves.
    The report holds n_max + 1 flags per field, so n_max is held to the
    state budget.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    budget = state_budget()
    if n_max > budget:
        raise CapacityError(f"n_max {n_max} exceeds the budget of {budget}")
    s, s_rev = transform(d, infix), transform(d, infix.reverse())
    x, x_rev = transform(d, seed), transform(d, seed.reverse())
    reversal_equal, accepted = [], [bool(d.accepting[x[d.start]])]
    stabilized_at = None
    for n in range(n_max):
        x_next, x_rev_next = x_rev[s[x]], x_rev[s_rev[x]]
        if np.array_equal(x_next, x) and np.array_equal(x_rev_next, x_rev):
            stabilized_at = n
            break
        x, x_rev = x_next, x_rev_next
        reversal_equal.append(np.array_equal(x, x_rev))
        accepted.append(bool(d.accepting[x[d.start]]))
    tail = n_max - len(reversal_equal)
    reversal_equal += [np.array_equal(x, x_rev)] * tail
    accepted += accepted[-1:] * tail
    return StabilizationReport(stabilized_at, tuple(reversal_equal), tuple(accepted))


def thue_morse(n: int) -> Word:
    """First n letters of the fixed point of 0 -> 01, 1 -> 10."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Word((bin(i).count("1") & 1 for i in range(n)), 2)
