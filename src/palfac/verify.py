"""State-transformation calculus for verifying explicit word constructions.

A word w acts on an automaton's states by q -> delta(q, w).  Recursive
constructions like X_{n+1} = X_n s X_n^R induce transformations that
stabilize after a few steps, and that stabilization proves facts about
the limit word without ever running it: once tau_{X_n} = tau_{X_{n+1}}
and tau_{X_n^R} = tau_{X_{n+1}^R}, every later X_m traces the same path,
so acceptance of X_n settles acceptance of them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import CapacityError, Dfa, state_budget
from .words import Word

__all__ = [
    "StateTransformation",
    "StabilizationReport",
    "transform",
    "compose",
    "identity",
    "perturbed_symmetry",
    "check_stabilization",
    "thue_morse",
]


@dataclass(frozen=True)
class StateTransformation:
    """The map q -> delta(q, w) of some fixed word w, over all states."""

    target: tuple[int, ...]

    def __post_init__(self):
        n = len(self.target)
        for t in self.target:
            if not 0 <= t < n:
                raise ValueError("transformation target outside the state space")

    def __call__(self, q: int) -> int:
        return self.target[q]

    @property
    def size(self) -> int:
        return len(self.target)


def identity(n: int) -> StateTransformation:
    return StateTransformation(tuple(range(n)))


def transform(d: Dfa, w) -> StateTransformation:
    """tau_w over every state of d, the dead state included."""
    t = np.arange(d.state_count)
    for a in w:
        t = d.delta[t, a]
    return StateTransformation(tuple(t.tolist()))


def compose(s: StateTransformation, t: StateTransformation) -> StateTransformation:
    """The transformation of uv from those of u and v: apply s, then t."""
    if s.size != t.size:
        raise ValueError("transformations over different state spaces")
    return StateTransformation(tuple(t.target[x] for x in s.target))


def perturbed_symmetry(seed: Word, infix: Word, n: int) -> Word:
    """X_n where X_0 = seed and X_{j+1} = X_j infix X_j^R."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    budget = state_budget()
    final = (len(seed) + len(infix)) * (1 << n) - len(infix)
    if final > budget:
        raise CapacityError(f"word of length {final} exceeds the budget of {budget}")
    x = seed
    for _ in range(n):
        x = x + infix + x.reverse()
    return x


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

    The words are never built: tau_{X_{n+1}} = tau_{X_n} tau_s tau_{X_n^R}
    and tau_{X_{n+1}^R} = tau_{X_n} tau_{s^R} tau_{X_n^R}, and X_n is
    accepted when tau_{X_n} sends the start state to an accepting one.
    Transformations are compared as whole state maps, which is portable
    across renumberings.  Once the pair (tau_{X_n}, tau_{X_n^R}) repeats,
    the recurrences above repeat it at every later n; tau_{X_n} repeating
    alone proves nothing while tau_{X_n^R} still moves.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    tau_s, tau_s_rev = transform(d, infix), transform(d, infix.reverse())
    taus, taus_rev = [transform(d, seed)], [transform(d, seed.reverse())]
    for _ in range(n_max):
        x, x_rev = taus[-1], taus_rev[-1]
        taus.append(compose(compose(x, tau_s), x_rev))
        taus_rev.append(compose(compose(x, tau_s_rev), x_rev))

    stabilized_at = next((n for n in range(n_max) if taus[n] == taus[n + 1]
                          and taus_rev[n] == taus_rev[n + 1]), None)
    reversal_equal = tuple(taus[n] == taus_rev[n] for n in range(1, n_max + 1))
    accepted = tuple(bool(d.accepting[tau(d.start)]) for tau in taus)
    return StabilizationReport(stabilized_at, reversal_equal, accepted)


def thue_morse(n: int) -> Word:
    """First n letters of the fixed point of 0 -> 01, 1 -> 10."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Word((bin(i).count("1") & 1 for i in range(n)), 2)
