import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import palfac
from palfac.automaton import isomorphic, minimize
from palfac.construct import (DEFAULT_STATE_BUDGET, AllowedSet, CapacityError,
                              MaxCountByParity, MaxDistinct, MaxLen, MaxLenByParity,
                              build_avoidance, build_direct, forbidden_set,
                              window_bound)
from palfac.oracle import brute_count_profile, brute_count_unpruned
from palfac.words import Word, enumerate_palindromes


def dfa_counts(dfa, n_max):
    """Number of accepted words per length, by vector iteration."""
    vec = [0] * dfa.state_count
    vec[dfa.start] = 1
    out = []
    for _ in range(n_max + 1):
        out.append(sum(c for c, accepted in zip(vec, dfa.accepting) if accepted))
        nxt = [0] * dfa.state_count
        for q, c in enumerate(vec):
            if c:
                for t in dfa.delta[q]:
                    nxt[t] += c
        vec = nxt
    return out


def W(text):
    return Word.from_digits(text)


class TestWindowBound:
    def test_max_distinct(self):
        assert window_bound(MaxDistinct(2, 11)) == 21
        assert window_bound(MaxDistinct(2, 1)) == 1

    def test_max_len(self):
        assert window_bound(MaxLen(2, 0)) == 1
        assert window_bound(MaxLen(2, 5)) == 6

    def test_max_len_by_parity(self):
        assert window_bound(MaxLenByParity(2, 2, 5)) == 7
        assert window_bound(MaxLenByParity(3, 0, 3)) == 5

    def test_max_count_by_parity(self):
        assert window_bound(MaxCountByParity(2, 5, 4)) == 9
        assert window_bound(MaxCountByParity(3, 1, 5)) == 10
        assert window_bound(MaxCountByParity(3, 1, 5, count_empty=False)) == 10

    def test_allowed_set(self):
        assert window_bound(AllowedSet(2, enumerate_palindromes(2, 2))) == 4
        assert window_bound(AllowedSet(4, [Word(())])) == 2

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            window_bound(MaxDistinct(2, -1))
        with pytest.raises(ValueError):
            window_bound(MaxLenByParity(2, -2, 3))


# instances small enough for the brute-force oracle, covering all families
ORACLE_SPECS = [
    (MaxDistinct(2, 4), 12),
    (MaxDistinct(2, 6), 12),
    (MaxDistinct(3, 4), 9),
    (MaxLen(2, 2), 12),
    (MaxLen(2, 3), 12),
    (MaxLen(3, 1), 9),
    (MaxLenByParity(2, 2, 5), 12),
    (MaxLenByParity(2, 4, 1), 12),
    (MaxLenByParity(3, 0, 3), 9),
    (MaxCountByParity(2, 3, 3), 12),
    (MaxCountByParity(2, 3, 3, count_empty=False), 12),
    (MaxCountByParity(3, 1, 5), 9),
    (MaxCountByParity(3, 1, 5, count_empty=False), 9),
    (AllowedSet(2, enumerate_palindromes(2, 2)), 12),
    (AllowedSet(2, enumerate_palindromes(2, 3)), 12),
    (AllowedSet(4, [Word((), 4), Word((0,), 4), Word((1,), 4),
                    Word((2,), 4), Word((3,), 4)]), 7),
]


@pytest.mark.parametrize("spec,n_max", ORACLE_SPECS,
                         ids=[repr(s) for s, _ in ORACLE_SPECS])
def test_direct_construction_matches_oracle(spec, n_max):
    dfa = build_direct(spec)
    assert dfa_counts(dfa, n_max) == brute_count_profile(spec, n_max)


def test_minimized_sizes_match_published_values():
    # (spec, live states of the minimal automaton)
    rows = [
        (MaxDistinct(2, 8), 23),
        (MaxDistinct(2, 9), 98),
        (MaxDistinct(3, 3), 3),
        (MaxDistinct(3, 4), 18),
        (MaxLen(2, 5), 62),
        (MaxLen(3, 1), 10),
        (MaxLen(3, 2), 19),
        (MaxLenByParity(2, 2, 5), 44),
        (MaxLenByParity(2, 6, 3), 60),
        (MaxLenByParity(3, 0, 3), 34),
        (MaxCountByParity(2, 5, 4, count_empty=False), 136),
    ]
    for spec, want in rows:
        got = minimize(build_direct(spec)).live_state_count()
        assert got == want, f"{spec!r}: {got} != {want}"


def test_dead_state_conventions():
    dfa = build_direct(MaxLen(2, 2))
    assert dfa.dead == dfa.state_count - 1
    assert dfa.accepting.tolist() == [True] * (dfa.state_count - 1) + [False]
    # a word of length n has at most n+1 palindromic factors, so a generous
    # cap accepts every short word even though the language is still proper
    roomy = build_direct(MaxDistinct(2, 9))
    assert dfa_counts(roomy, 8) == [2 ** n for n in range(9)]


def test_empty_language_cases():
    for spec in (MaxDistinct(2, 0),
                 MaxCountByParity(2, 0, 3),
                 AllowedSet(2, [Word((0,)), Word((1,))])):
        dfa = build_direct(spec)
        assert dfa_counts(dfa, 4) == [0, 0, 0, 0, 0]

    only_empty = build_direct(MaxLen(2, 0))
    assert dfa_counts(only_empty, 4) == [1, 0, 0, 0, 0]


def test_exclusive_count_convention_shifts_cap():
    incl = build_direct(MaxCountByParity(2, 4, 3, count_empty=True))
    excl = build_direct(MaxCountByParity(2, 3, 3, count_empty=False))
    assert isomorphic(minimize(incl), minimize(excl))


def test_capacity_budget():
    with pytest.raises(CapacityError):
        build_direct(MaxDistinct(2, 12), budget=50)


def test_default_budget_fits_in_half_the_memory():
    # the peak-RSS growth per raw state of a fresh interpreter building
    # D(2,12), scaled to the default budget, must leave half of the
    # machine's physical memory free
    code = (
        "import resource\n"
        "from palfac.construct import MaxDistinct, build_direct\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "d = build_direct(MaxDistinct(2, 12))\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(d.state_count, after - before)\n"
    )
    src = str(Path(palfac.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    states, growth = map(int, out.stdout.split())
    assert states == 25464
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere
    bytes_per_state = growth * (1 if sys.platform == "darwin" else 1024) / states
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert DEFAULT_STATE_BUDGET * bytes_per_state < physical / 2


# sha256 of each transition table, row by row, pins the discovery-order
# numbering and not just the state count
DELTA_DIGESTS = [
    ("D(2,11)", MaxDistinct(2, 11), 6046,
     "325e9e77c4456b1a86ca2f9af5c473f288a578a006dde32ec59c451ac055c315"),
    ("E(3,2)", MaxLen(3, 2), 32,
     "0d509b6f3140c318dfc6870d91250f6f290389e95e4d7bee874ba94a6088904f"),
    ("R(2,6,3)", MaxLenByParity(2, 6, 3), 210,
     "240de0633c85489d812dc9083727c56e90718d56ec5a2305aafa2f93da80e7f4"),
    ("D(2,13)", MaxDistinct(2, 13), 124230,
     "d80089720536154e8aedee95bb080690a088266d7da7f86cb1697e5f49616b8b"),
    ("T(2,3,10)", MaxCountByParity(2, 3, 10, count_empty=False), 22556,
     "af7460841dbf2c32c259cfbac4cae9bb0158f8283d7cba454a7ed254448df73b"),
    ("S(4)", AllowedSet(4, [Word((), 4)] + [Word((c,), 4) for c in range(4)]), 42,
     "fc8b0d94a087a8652a8f6562c7b17409de3c4f145b43357856474007f29c3907"),
]


@pytest.mark.parametrize("spec,states,digest", [row[1:] for row in DELTA_DIGESTS],
                         ids=[row[0] for row in DELTA_DIGESTS])
def test_construction_numbering_is_pinned(spec, states, digest):
    dfa = build_direct(spec)
    assert dfa.state_count == states
    table = " ".join(str(t) for row in dfa.delta for t in row)
    assert hashlib.sha256(table.encode()).hexdigest() == digest


def test_forbidden_set_published_examples():
    sigma4 = forbidden_set([Word((), 4), Word((0,), 4), Word((1,), 4),
                            Word((2,), 4), Word((3,), 4)], 4)
    want = {"00", "11", "22", "33", "010", "020", "030", "101", "121", "131",
            "202", "212", "232", "303", "313", "323"}
    assert {str(w) for w in sigma4} == want

    low = forbidden_set(enumerate_palindromes(2, 2), 2)
    assert {str(w) for w in low} == {"000", "010", "101", "111", "0110", "1001"}

    assert {str(w) for w in forbidden_set([Word(())], 1)} == {"0"}


def test_forbidden_set_rejects_non_palindromes():
    with pytest.raises(ValueError):
        forbidden_set([Word((0, 1))], 2)


def test_avoidance_small_example():
    dfa = build_avoidance([W("00"), W("11")], 2)
    small = minimize(dfa)
    assert small.live_state_count() == 3
    assert dfa_counts(small, 5) == [1, 2, 2, 2, 2, 2]


def _random_forbidden(rng, k):
    """A few words over k letters, with one member that contains another."""
    words = {tuple(rng.randrange(k) for _ in range(rng.randint(1, 5)))
             for _ in range(rng.randint(1, 4))}
    pad = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 2))) for _ in range(2)]
    words.add(pad[0] + rng.choice(sorted(words)) + pad[1])
    return words


@pytest.mark.parametrize("k", [1, 2, 3])
def test_avoidance_against_brute_force(k):
    # the empty set, the empty word, and random sets, which overlap and are
    # not minimal; every word up to length 8 against a factor scan
    rng = random.Random(k)
    for symbols in [set(), {()}, {(), (0,)}] + [_random_forbidden(rng, k) for _ in range(30)]:
        dfa = build_avoidance([Word(f, k) for f in symbols], k)
        delta, accepting = dfa.delta.tolist(), dfa.accepting.tolist()
        level = [((), dfa.start)]
        while level:
            for w, q in level:
                assert accepting[q] == (not any(bytes(f) in bytes(w) for f in symbols)), \
                    (symbols, w)
            level = [(w + (a,), delta[q][a]) for w, q in level if len(w) < 8 for a in range(k)]


def test_avoidance_agrees_with_direct_on_allowed_sets():
    cases = [
        AllowedSet(2, enumerate_palindromes(2, 2)),
        AllowedSet(2, enumerate_palindromes(2, 3)),
        AllowedSet(3, enumerate_palindromes(3, 1)),
        AllowedSet(4, [Word((), 4), Word((0,), 4), Word((1,), 4),
                       Word((2,), 4), Word((3,), 4)]),
    ]
    for spec in cases:
        direct = minimize(build_direct(spec))
        forb = forbidden_set(spec.allowed, spec.alphabet_size)
        avoid = minimize(build_avoidance(forb, spec.alphabet_size))
        assert isomorphic(direct, avoid), f"constructions disagree for {spec!r}"


def test_languages_are_factorial():
    rng = random.Random(20)
    for spec in (MaxDistinct(2, 5), MaxLenByParity(2, 2, 5),
                 MaxCountByParity(2, 3, 3)):
        dfa = build_direct(spec)
        for _ in range(40):
            w = [rng.randrange(2) for _ in range(rng.randrange(12))]
            if dfa.accepts(w):
                for i in range(len(w)):
                    for j in range(i, len(w) + 1):
                        assert dfa.accepts(w[i:j])


def test_count_monotonicity_in_cap():
    for ell in range(3, 8):
        a = dfa_counts(build_direct(MaxDistinct(2, ell)), 10)
        b = dfa_counts(build_direct(MaxDistinct(2, ell + 1)), 10)
        assert all(x <= y for x, y in zip(a, b))
    for cap in range(0, 4):
        a = dfa_counts(build_direct(MaxLen(2, cap)), 10)
        b = dfa_counts(build_direct(MaxLen(2, cap + 1)), 10)
        assert all(x <= y for x, y in zip(a, b))


@st.composite
def small_specs(draw):
    k = draw(st.integers(2, 3))
    caps = st.integers(0, 4)
    family = draw(st.sampled_from("DERTS"))
    if family == "D":
        return MaxDistinct(k, draw(st.integers(0, 7 if k == 2 else 5)))
    if family == "E":
        return MaxLen(k, draw(caps))
    if family == "R":
        return MaxLenByParity(k, draw(caps), draw(caps))
    if family == "T":
        return MaxCountByParity(k, draw(caps), draw(caps), draw(st.booleans()))
    nonempty = enumerate_palindromes(k, 3)[1:]
    allowed = draw(st.sets(st.sampled_from(nonempty), max_size=len(nonempty)))
    if draw(st.booleans()):
        allowed.add(Word((), k))
    return AllowedSet(k, allowed)


@settings(max_examples=60, deadline=None)
@given(small_specs())
def test_three_evaluations_of_each_family_agree(spec):
    # the construction and the pruned oracle share the family's admissibility
    # rule; the unpruned count reads only its whole-word predicate
    depth = 8 if spec.alphabet_size == 2 else 6
    via_automaton = dfa_counts(minimize(build_direct(spec)), depth)
    assert via_automaton == brute_count_profile(spec, depth)
    assert via_automaton == [brute_count_unpruned(spec, n) for n in range(depth + 1)]
