"""Infinite words surviving a palindrome constraint.

Everything here reads the minimized automaton as a directed graph: the
infinite words in the language are the labels of infinite paths through
live states.  Recurrence analysis classifies the possibilities (none,
finitely or countably many ultimately periodic words, or uncountably
many including aperiodic ones) and produces explicit witnesses:
enumerated periodic words in the finite case, a pair of noncommuting
cycles in the uncountable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automaton import CapacityError, Dfa, minimize
from .construct import ConstraintSpec, build_direct, window_bound
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
    "recurrent_states",
    "birecurrent_witness",
    "classify",
    "enumerate_periodic",
    "witness_morphisms",
    "verify_ultimately_periodic",
    "spec_dfa",
]

_ENUMERATION_LIMIT = 100_000


class CertificateError(RuntimeError):
    """An exact check that a reported result rests on did not hold."""


@dataclass(frozen=True)
class NoInfiniteWords:
    """The language is finite: no infinite path avoids the dead state."""


@dataclass(frozen=True)
class FinitelyManyPeriodic:
    """All infinite words are ultimately periodic; `words` lists them all."""

    words: tuple[tuple[Word, Word], ...]


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

    def fixed_point_prefix(self, seed: int, min_length: int) -> Word:
        """Prefix of the infinite fixed point starting at `seed`.

        Requires the image of seed to start with seed and be longer than
        one letter, and every letter reachable from seed to have an
        image; grows by iterated application until min_length is
        reached.
        """
        image = self.images.get(seed)
        if image is None or image[0] != seed or len(image) < 2:
            raise ValueError(f"no fixed point extends letter {seed}")
        w = image
        while len(w) < min_length:
            w = self.apply(w)
        return w[:min_length]


# ---------------------------------------------------------------------------
# graph structure

def _live_graph(d: Dfa):
    """Reachable live states and their transitions, dead state dropped."""
    adj: dict[int, list[tuple[int, int]]] = {}
    if d.start == d.dead:
        return adj
    delta = d.delta.tolist()
    stack = [d.start]
    adj[d.start] = []
    while stack:
        q = stack.pop()
        edges = []
        for a, t in enumerate(delta[q]):
            if t == d.dead:
                continue
            edges.append((a, t))
            if t not in adj:
                adj[t] = []
                stack.append(t)
        adj[q] = edges
    return adj


def _sccs(adj) -> list[list[int]]:
    """Strongly connected components, iterative Tarjan, reverse topological order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in adj:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            q, ei = work.pop()
            if ei == 0:
                index[q] = low[q] = counter
                counter += 1
                stack.append(q)
                on_stack.add(q)
            edges = adj[q]
            advanced = False
            while ei < len(edges):
                t = edges[ei][1]
                ei += 1
                if t not in index:
                    work.append((q, ei))
                    work.append((t, 0))
                    advanced = True
                    break
                if t in on_stack:
                    low[q] = min(low[q], index[t])
            if advanced:
                continue
            if low[q] == index[q]:
                comp = []
                while True:
                    s = stack.pop()
                    on_stack.discard(s)
                    comp.append(s)
                    if s == q:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[q])
    return comps


def _cyclic_components(adj):
    """SCCs owning at least one internal edge, i.e. carrying a cycle."""
    comps = _sccs(adj)
    comp_of = {q: i for i, comp in enumerate(comps) for q in comp}
    cyclic = []
    for i, comp in enumerate(comps):
        members = set(comp)
        internal = any(t in members for q in comp for _, t in adj[q])
        if internal:
            cyclic.append(sorted(comp))
    return cyclic, comp_of, comps


def recurrent_states(d: Dfa) -> set[int]:
    """Live states lying on a cycle (their SCC has an internal edge)."""
    adj = _live_graph(d)
    cyclic, _, _ = _cyclic_components(adj)
    return {q for comp in cyclic for q in comp}


def _in_scc_edges(adj, members, q):
    return [(a, t) for a, t in adj[q] if t in members]


def _is_simple_cycle(adj, comp) -> bool:
    members = set(comp)
    return all(len(_in_scc_edges(adj, members, q)) == 1 for q in comp)


def _path_within(adj, members, src, dst) -> tuple[int, ...]:
    """Letters of a shortest path src -> dst using only edges into members."""
    if src == dst:
        return ()
    parent: dict[int, tuple[int, int]] = {}
    queue = [src]
    seen = {src}
    while queue:
        nxt = []
        for q in queue:
            for a, t in _in_scc_edges(adj, members, q):
                if t in seen:
                    continue
                seen.add(t)
                parent[t] = (q, a)
                if t == dst:
                    letters = []
                    s = t
                    while s != src:
                        s, a2 = parent[s][0], parent[s][1]
                        letters.append(a2)
                    return tuple(reversed(letters))
                nxt.append(t)
        queue = nxt
    raise AssertionError(f"no path from {src} to {dst} within the given states")


def birecurrent_witness(d: Dfa) -> tuple[int, Word, Word] | None:
    """A state with two noncommuting cycles, or None when none exists.

    None means every cyclic component is a bare cycle, so infinite paths
    cannot branch.  Otherwise the smallest branching state is taken and
    one shortest cycle is extracted per outgoing in-component letter;
    the two shortest become the witness.  Their first letters differ,
    which already rules out commuting.
    """
    adj = _live_graph(d)
    cyclic, _, _ = _cyclic_components(adj)
    return _witness(d, adj, cyclic)


def _witness(d: Dfa, adj, cyclic) -> tuple[int, Word, Word] | None:
    k = d.alphabet_size
    for comp in sorted(cyclic):
        members = set(comp)
        branching = [q for q in comp if len(_in_scc_edges(adj, members, q)) >= 2]
        if not branching:
            continue
        q = min(branching)
        cycles = []
        for a, t in sorted(_in_scc_edges(adj, members, q)):
            cycles.append((a,) + _path_within(adj, members, t, q))
        cycles.sort(key=lambda c: (len(c), c))
        x0, x1 = Word(cycles[0], k), Word(cycles[1], k)
        if d.run(q, x0) != q or d.run(q, x1) != q:
            raise CertificateError(f"witness cycles {x0}, {x1} do not return to state {q}")
        if x0 + x1 == x1 + x0:
            raise CertificateError(f"witness cycles {x0}, {x1} commute")
        return q, x0, x1
    return None


def _normalize_periodic(y: tuple, x: tuple) -> tuple[tuple, tuple]:
    """Canonical (preperiod, period): period primitive, preperiod shortest."""
    x = Word(x).primitive_root().symbols
    y = list(y)
    while y and y[-1] == x[-1]:
        y.pop()
        x = x[-1:] + x[:-1]
    return tuple(y), tuple(x)


def _cycle_label(adj, members, s) -> tuple[int, ...]:
    """Letters around a simple cycle starting and ending at s."""
    letters = []
    q = s
    while True:
        ((a, t),) = _in_scc_edges(adj, members, q)
        letters.append(a)
        q = t
        if q == s:
            return tuple(letters)


def enumerate_periodic(d: Dfa) -> list[tuple[Word, Word]]:
    """All infinite words in the language, as (preperiod, period) pairs.

    Valid only when every cyclic component is a bare cycle and no cycle
    can reach another: then each infinite path consists of an acyclic
    approach followed by one cycle forever, so the enumeration of
    approach paths is finite and complete.
    """
    adj = _live_graph(d)
    cyclic, comp_of, comps = _cyclic_components(adj)
    for comp in cyclic:
        if not _is_simple_cycle(adj, comp):
            raise ValueError("automaton has branching cycles; enumeration would be infinite")
    if _cycle_reaches_cycle(adj, cyclic, comp_of, comps):
        raise ValueError("a cycle reaches another cycle; enumeration would be infinite")
    return _periodic(d, adj, cyclic, comp_of)


def _cycle_reaches_cycle(adj, cyclic, comp_of, comps) -> bool:
    """Whether some cyclic component reaches another one."""
    # Tarjan emits components in reverse topological order, so successors
    # of comps[i] all have indices below i and are already resolved.
    cyclic_ids = {comp_of[comp[0]] for comp in cyclic}
    reaches_cycle = [False] * len(comps)
    for i, comp in enumerate(comps):
        for q in comp:
            for _, t in adj[q]:
                ti = comp_of[t]
                if ti != i and (ti in cyclic_ids or reaches_cycle[ti]):
                    reaches_cycle[i] = True
    return any(reaches_cycle[ci] for ci in cyclic_ids)


def _periodic(d: Dfa, adj, cyclic, comp_of) -> list[tuple[Word, Word]]:
    """enumerate_periodic, once its cycles are known to be bare and unchained."""
    k = d.alphabet_size
    if not adj:
        return []
    cycle_states = {q for comp in cyclic for q in comp}
    members_of = {comp_of[comp[0]]: set(comp) for comp in cyclic}
    found: set[tuple[tuple, tuple]] = set()
    steps = 0
    stack: list[tuple[int, tuple]] = [(d.start, ())]
    while stack:
        steps += 1
        if steps > _ENUMERATION_LIMIT:
            raise CapacityError(
                f"periodic word enumeration exceeded its budget of {_ENUMERATION_LIMIT} steps")
        q, prefix = stack.pop()
        if q in cycle_states:
            label = _cycle_label(adj, members_of[comp_of[q]], q)
            found.add(_normalize_periodic(prefix, label))
            continue
        for a, t in sorted(adj[q], reverse=True):
            stack.append((t, prefix + (a,)))
    ordered = sorted(found, key=lambda p: (len(p[0]) + len(p[1]), p))
    return [(Word(y, k), Word(x, k)) for y, x in ordered]


def classify(d: Dfa) -> Classification:
    return analyze(d).classification


def analyze(d: Dfa) -> AnalysisReport:
    """Full recurrence report for a minimized automaton, from one graph pass."""
    adj = _live_graph(d)
    cyclic, comp_of, comps = _cyclic_components(adj)
    rec = frozenset(q for comp in cyclic for q in comp)
    wit = _witness(d, adj, cyclic)
    if not rec:
        cls = NoInfiniteWords()
    elif wit is not None:
        cls = UncountablyManyAperiodic()
    elif _cycle_reaches_cycle(adj, cyclic, comp_of, comps):
        cls = CountablyManyPeriodic()
    else:
        cls = FinitelyManyPeriodic(tuple(_periodic(d, adj, cyclic, comp_of)))
    periodic = cls.words if isinstance(cls, FinitelyManyPeriodic) else ()
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
    the empty word.  Rejection of any prefix stops early, since the
    languages are closed under taking factors.
    """
    if len(x) == 0:
        raise ValueError("period must be nonempty")
    d = spec_dfa(spec)
    horizon = window_bound(spec)
    j_min = (len(y) + horizon) // len(x) + 2
    w = tuple(y)
    xs = tuple(x)
    prev: frozenset | None = None
    for j in range(1, j_min + 3):
        w = w + xs
        pal = palindromic_factors(w).palindromes
        if not d.accepts(w):
            return False, len(pal)
        if j >= j_min and pal == prev:
            return True, len(pal)
        prev = pal
    raise AssertionError("palindromic factors failed to stabilize past the horizon")
