"""Infinite words surviving a palindrome constraint.

Everything here reads the minimized automaton as a directed graph: the
infinite words in the language are the labels of infinite paths through
live states.  One Tarjan pass (`_graph`) gives the strongly connected
components of the reachable live states, and `analyze` reads every field
of its report from them.  Recurrence analysis classifies the
possibilities (none, finitely or countably many ultimately periodic
words, or uncountably many including aperiodic ones) and produces
explicit witnesses: enumerated periodic words in the finite case, whose
approach paths are walked only through states from which a cycle is
reachable, and a pair of noncommuting cycles in the uncountable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automaton import CapacityError, CertificateError, Dfa, minimize
from .construct import ConstraintSpec, build_direct
from .words import Word, palindromic_factors

__all__ = [
    "AnalysisReport",
    "CertificateError",
    "Morphism",
    "NoInfiniteWords",
    "FinitelyManyPeriodic",
    "CountablyManyPeriodic",
    "UncountablyManyAperiodic",
    "analyze",
    "witness_morphisms",
    "verify_ultimately_periodic",
    "spec_dfa",
]

_ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class NoInfiniteWords:
    """The language is finite: no infinite path avoids the dead state."""


@dataclass(frozen=True)
class FinitelyManyPeriodic:
    """Finitely many infinite words, all ultimately periodic.

    The report's `periodic_words` lists them all.
    """


@dataclass(frozen=True)
class CountablyManyPeriodic:
    """Infinitely many infinite words, all ultimately periodic.

    Every cyclic component is a bare cycle, but one cycle reaches another,
    so y x1^j z x2^omega is a word for every j.
    """


@dataclass(frozen=True)
class UncountablyManyAperiodic:
    """A birecurrent state exists, so aperiodic infinite words abound."""


Classification = (NoInfiniteWords | FinitelyManyPeriodic | CountablyManyPeriodic
                  | UncountablyManyAperiodic)


@dataclass(frozen=True)
class AnalysisReport:
    """The recurrence report of one automaton.

    recurrent_states holds the live states that lie on a cycle, birecurrent
    a state with two noncommuting cycles (q, x0, x1) or None, and
    periodic_words the (preperiod, period) pair of every infinite word
    when the classification is FinitelyManyPeriodic, and () otherwise.
    """

    recurrent_states: frozenset
    birecurrent: tuple[int, Word, Word] | None
    classification: Classification
    periodic_words: tuple[tuple[Word, Word], ...]


class Morphism:
    """A nonerasing substitution sending each source letter to a word."""

    __slots__ = ("images",)

    def __init__(self, images: dict[int, Word]):
        for letter, image in images.items():
            if len(image) == 0:
                raise ValueError(f"erasing image for letter {letter}")
        self.images = dict(images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Morphism) and self.images == other.images

    def __repr__(self) -> str:
        body = ", ".join(f"{a}->{w}" for a, w in sorted(self.images.items()))
        return f"Morphism({body})"

    def apply(self, w) -> Word:
        out: list[int] = []
        for a in w:
            image = self.images.get(a)
            if image is None:
                raise ValueError(f"letter {a} has no image")
            out.extend(image)
        k = max((im.alphabet_size for im in self.images.values()), default=0)
        return Word(out, k)


# ---------------------------------------------------------------------------
# graph structure

def _graph(d: Dfa):
    """One iterative Tarjan pass over the live states reachable from the start.

    Returns (edges, comp, comps, inner), the lists indexed by state:
    edges[q] holds the (letter, target) pairs of q in letter order with the
    dead state dropped, comp[q] the id of q's strongly connected component,
    comps the components' members in reverse topological order (every edge
    enters a component of equal or lower id), and inner[q] the edges of q
    that stay inside its component.  Dead and unreachable states have no
    edges (None) and component -1.  q lies on a cycle exactly when inner[q]
    is nonempty, and a cyclic component is a bare cycle when each of its
    states has one inner edge.
    """
    n, dead = d.state_count, d.dead
    edges: list = [None] * n
    comp = [-1] * n
    comps: list[list[int]] = []
    inner: list = [None] * n
    if d.start == dead:
        return edges, comp, comps, inner
    delta = d.delta.tolist()
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    work = [(d.start, 0)]
    counter = 0
    while work:
        q, i = work.pop()
        if i == 0:
            index[q] = low[q] = counter
            counter += 1
            stack.append(q)
            edges[q] = [(a, t) for a, t in enumerate(delta[q]) if t != dead]
        out = edges[q]
        while i < len(out):
            t = out[i][1]
            i += 1
            if index[t] < 0:
                work.append((q, i))
                work.append((t, 0))
                break
            # a visited state outside every finished component is on the stack
            if comp[t] < 0 and index[t] < low[q]:
                low[q] = index[t]
        else:  # every successor of q is visited: q is finished
            if low[q] == index[q]:
                c = len(comps)
                members = []
                while True:
                    s = stack.pop()
                    comp[s] = c
                    members.append(s)
                    if s == q:
                        break
                for s in members:
                    inner[s] = [(a, t) for a, t in edges[s] if comp[t] == c]
                comps.append(members)
            if work:
                p = work[-1][0]
                if low[q] < low[p]:
                    low[p] = low[q]
    return edges, comp, comps, inner


def _path(edges, src, dst) -> tuple[int, ...]:
    """Letters of a shortest path src -> dst along `edges` (breadth first)."""
    back = {src: None}
    queue = [src]
    for q in queue:
        if q == dst:
            letters = []
            while back[q] is not None:
                q, a = back[q]
                letters.append(a)
            return tuple(reversed(letters))
        for a, t in edges[q]:
            if t not in back:
                back[t] = (q, a)
                queue.append(t)
    raise AssertionError(f"no path from {src} to {dst} along the given edges")


def _witness(d: Dfa, comps, inner) -> tuple[int, Word, Word] | None:
    """A state with two noncommuting cycles, or None when none exists.

    None means every cyclic component is a bare cycle, so infinite paths
    cannot branch.  Otherwise, of the components that branch, the one
    holding the smallest state is taken, and in it the smallest branching
    state; one shortest cycle is extracted per outgoing in-component
    letter, and the two shortest become the witness.  Their first letters
    differ, which already rules out commuting.
    """
    branching = []
    for members in comps:
        forks = [q for q in members if len(inner[q]) > 1]
        if forks:
            branching.append((min(members), min(forks)))
    if not branching:
        return None
    _, q = min(branching)
    cycles = sorted(((a,) + _path(inner, t, q) for a, t in inner[q]),
                    key=lambda c: (len(c), c))
    k = d.alphabet_size
    x0, x1 = Word(cycles[0], k), Word(cycles[1], k)
    if d.run(q, x0) != q or d.run(q, x1) != q:
        raise CertificateError(f"witness cycles {x0}, {x1} do not return to state {q}")
    if x0 + x1 == x1 + x0:
        raise CertificateError(f"witness cycles {x0}, {x1} commute")
    return q, x0, x1


def _normalize_periodic(y: tuple, x: tuple) -> tuple[tuple, tuple]:
    """Canonical (preperiod, period): period primitive, preperiod shortest."""
    x = Word(x).primitive_root().symbols
    y = list(y)
    while y and y[-1] == x[-1]:
        y.pop()
        x = x[-1:] + x[:-1]
    return tuple(y), tuple(x)


def _periodic(d: Dfa, edges, comp, inner, cycle_ahead) -> tuple[tuple[Word, Word], ...]:
    """The infinite words, once every cycle is known to be bare and unchained.

    The walk enters only states from which a cycle is reachable, so every
    approach path it counts against the limit ends on a cycle.
    """
    found: set[tuple[tuple, tuple]] = set()
    steps = 0
    stack: list[tuple[int, tuple]] = [(d.start, ())]
    while stack:
        steps += 1
        if steps > _ENUMERATION_LIMIT:
            raise CapacityError(
                f"periodic word enumeration exceeded its budget of {_ENUMERATION_LIMIT} steps")
        q, prefix = stack.pop()
        if inner[q]:
            label = []
            s = q
            while True:
                ((a, s),) = inner[s]
                label.append(a)
                if s == q:
                    break
            found.add(_normalize_periodic(prefix, tuple(label)))
            continue
        for a, t in reversed(edges[q]):
            if cycle_ahead[comp[t]]:
                stack.append((t, prefix + (a,)))
    k = d.alphabet_size
    ordered = sorted(found, key=lambda p: (len(p[0]) + len(p[1]), p))
    return tuple((Word(y, k), Word(x, k)) for y, x in ordered)


def analyze(d: Dfa) -> AnalysisReport:
    """Full recurrence report for a minimized automaton, from one graph pass."""
    edges, comp, comps, inner = _graph(d)
    rec = frozenset(q for q, e in enumerate(inner) if e)
    wit = _witness(d, comps, inner)
    periodic: tuple[tuple[Word, Word], ...] = ()
    if not rec:
        cls = NoInfiniteWords()
    elif wit is not None:
        cls = UncountablyManyAperiodic()
    else:
        # cycle_ahead[c]: a cycle is reachable from comps[c], its own included;
        # the successors of comps[c] lie in comps[:c], so they are resolved first
        cycle_ahead: list[bool] = []
        chained = False
        for c, members in enumerate(comps):
            onward = any(cycle_ahead[comp[t]] for q in members for _, t in edges[q]
                         if comp[t] != c)
            cyclic = bool(inner[members[0]])
            chained = chained or (cyclic and onward)
            cycle_ahead.append(cyclic or onward)
        if chained:
            cls = CountablyManyPeriodic()
        else:
            cls = FinitelyManyPeriodic()
            periodic = _periodic(d, edges, comp, inner, cycle_ahead)
    return AnalysisReport(rec, wit, cls, periodic)


def witness_morphisms(q: int, x0: Word, x1: Word) -> tuple[Morphism, Morphism | None]:
    """Morphisms generating aperiodic and uniformly recurrent words from a witness.

    h sends 0 to x0 and 1 to x1: the h-image of any infinite binary word
    labels an infinite path through q.  When some x_a begins with the
    letter a, the second morphism g maps a to x_a x_b and b to x_b x_a,
    whose fixed point from a is uniformly recurrent; otherwise g is None.
    The witness state q itself plays no role in the construction.
    """
    h = Morphism({0: x0, 1: x1})
    g = None
    for a, xa, xb in ((0, x0, x1), (1, x1, x0)):
        if len(xa) and xa[0] == a:
            g = Morphism({a: xa + xb, 1 - a: xb + xa})
            break
    return h, g


@lru_cache(maxsize=None)
def spec_dfa(spec: ConstraintSpec) -> Dfa:
    """The minimized automaton of a spec, built once per process."""
    return minimize(build_direct(spec))


def verify_ultimately_periodic(y: Word, x: Word, spec: ConstraintSpec) -> tuple[bool, int]:
    """Check y x^omega against a constraint; returns (accepted, palindrome count).

    Appends copies of the period until the palindromic factor set of the
    prefix repeats across consecutive steps, past the horizon where any
    admissible palindrome could still be incomplete.  The count includes
    the empty word.  Each prefix is judged by the spec's whole-word rule
    on its palindromic factor set, without the automaton, so the check is
    independent of the construction.  Rejection of any prefix stops
    early, since the languages are closed under taking factors.
    """
    if len(x) == 0:
        raise ValueError("period must be nonempty")
    horizon = spec.window_bound()
    j_min = (len(y) + horizon) // len(x) + 2
    w = y
    prev = None
    for j in range(1, j_min + 3):
        w = w + x
        pf = palindromic_factors(w)
        if not spec.satisfied_by(pf):
            return False, len(pf)
        if j >= j_min and pf == prev:
            return True, len(pf)
        prev = pf
    raise AssertionError("palindromic factors failed to stabilize past the horizon")
