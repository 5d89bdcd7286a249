import hashlib
import os
import random
import subprocess
import sys
from array import array
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import palfac
from palfac.automaton import (BUDGET_ENV, DEFAULT_STATE_BUDGET, Dfa, isomorphic, minimize,
                              state_budget)
from palfac.construct import (AllowedSet, CapacityError,
                              MaxCountByParity, MaxDistinct, MaxLen, MaxLenByParity,
                              build_avoidance, build_direct, forbidden_set)
from palfac.oracle import brute_count_profile, brute_count_unpruned
from palfac.words import Word, enumerate_palindromes
from test_words import _source_mutant, _traced


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
        assert MaxDistinct(2, 11).window_bound() == 21
        assert MaxDistinct(2, 1).window_bound() == 1

    def test_max_len(self):
        assert MaxLen(2, 0).window_bound() == 1
        assert MaxLen(2, 5).window_bound() == 6

    def test_max_len_by_parity(self):
        assert MaxLenByParity(2, 2, 5).window_bound() == 7
        assert MaxLenByParity(3, 0, 3).window_bound() == 5

    def test_max_count_by_parity(self):
        assert MaxCountByParity(2, 5, 4).window_bound() == 9
        assert MaxCountByParity(3, 1, 5).window_bound() == 10
        assert MaxCountByParity(3, 1, 5, count_empty=False).window_bound() == 10

    def test_allowed_set(self):
        assert AllowedSet(2, enumerate_palindromes(2, 2)).window_bound() == 4
        assert AllowedSet(4, [Word(())]).window_bound() == 2

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError):
            MaxDistinct(2, -1)
        with pytest.raises(ValueError):
            MaxLenByParity(2, -2, 3)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            MaxDistinct(0, 3)
        with pytest.raises(ValueError):
            AllowedSet(0, [])

    @pytest.mark.parametrize("make", [
        lambda: MaxLen(2, -1),
        lambda: MaxLenByParity(2, 3, -1),
        lambda: MaxCountByParity(2, -1, 3),
        lambda: MaxCountByParity(2, 3, -1, count_empty=False),
    ], ids=["MaxLen cap", "MaxLenByParity odd cap", "MaxCountByParity even cap",
            "MaxCountByParity odd cap"])
    def test_every_cap_is_checked(self, make):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            make()


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


def state_budget_env(budget):
    """PALFAC_STATE_BUDGET set to budget for one block (Hypothesis tests take no fixtures)."""
    return mock.patch.dict(os.environ, {BUDGET_ENV: str(budget)})


def test_capacity_budget():
    with state_budget_env(50), pytest.raises(CapacityError):
        build_direct(MaxDistinct(2, 12))
    # the budget counts live states: exactly enough builds, one fewer raises
    for spec, live in ((MaxDistinct(2, 11), 6045), (MaxLen(2, 5), 119)):
        with state_budget_env(live):
            assert build_direct(spec).live_state_count() == live
        with state_budget_env(live - 1), pytest.raises(CapacityError):
            build_direct(spec)


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


def test_memory_per_raw_state():
    # D(2,12): the level-at-a-time build peaks at 49 bytes per raw state;
    # the per-transition loop with its dict of full windows took 87-120,
    # indexing every state 183, and ranking the Moore rounds with np.unique 82
    spec = MaxDistinct(2, 12)
    raw, peak = _traced(lambda: build_direct(spec))
    assert raw.state_count == 25464
    assert peak <= 60 * raw.state_count
    _, peak = _traced(lambda: minimize(raw))
    assert peak <= 60 * raw.state_count
    # the same build on Python ints in object arrays: 75 bytes per raw state
    object_lanes = _source_mutant(build_direct, "lane = np.int64 if k * width + 2 <= 62 else object",
                                  "lane = object")
    again, peak = _traced(lambda: object_lanes(spec))
    assert again == raw and peak > 60 * raw.state_count


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
    ("D(3,5)", MaxDistinct(3, 5), 494,
     "c4d91549b39b83fff8c99106cc85640f4ec9881391fd8ddc1050471b9cdc2ddc"),
    ("MaxCountByParity(2,4,3)", MaxCountByParity(2, 4, 3), 66,
     "b009c3520c0894719cc6755a83ed45456cb54222a04a4404f48ff1f8397654c7"),
    ("R(3,0,3)", MaxLenByParity(3, 0, 3), 83,
     "6a001cc49d6c83c2e015ac7b458da55b91de719c3d968d32bae824f8b4c43202"),
    # a window of 71 symbols: the state keys pass 2^64
    ("E(1,70)", MaxLen(1, 70), 72,
     "8b46be9b0290831558e1e958b785cb031fcb757771d4440421412fc156a76a79"),
    # not closed under renaming letters
    ("S(3;010,121)", AllowedSet(3, [W(t) for t in ("", "0", "1", "2", "010", "121")]), 39,
     "d6ba1a2582b81b8f001757eafce8a9595c925ffc60783f826d5fda63bb8cd588"),
    # window bounds 1 and 2: no state, and then the empty word alone,
    # numbers its targets without the index of full windows
    ("D(2,1)", MaxDistinct(2, 1), 2,
     "1bf779d349708b908004d305b1238039b48396e4627f14ff11ed6f77ecc82694"),
    ("E(2,1)", MaxLen(2, 1), 6,
     "e575bb0575506a4c76f6d5fc48519f823bdc90b2d920f7aaaa24e26be9a467d1"),
]


def _delta_digest(dfa):
    return hashlib.sha256(" ".join(str(t) for row in dfa.delta for t in row).encode()).hexdigest()


@pytest.mark.parametrize("spec,states,digest", [row[1:] for row in DELTA_DIGESTS],
                         ids=[row[0] for row in DELTA_DIGESTS])
def test_construction_numbering_is_pinned(spec, states, digest):
    dfa = build_direct(spec)
    assert dfa.state_count == states
    assert _delta_digest(dfa) == digest


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


def _reference_build(spec):
    """build_direct as one loop per transition over a first-in first-out queue.

    States are single ints, sid << k*width | window, and states with full
    windows are found again through a dict; the numbering, the tables and
    the budget are build_direct's.
    """
    k = spec.alphabet_size
    bound = spec.window_bound()
    admits = spec.admits
    counted = spec.counted
    budget = state_budget()
    if not admits((), 1, 0):
        return Dfa([[0] * k], 0, [])

    width = bound + 1
    lanes = k * width
    low = [sum(((1 << L) - 1) << (b * width) for b in range(k)) for L in range(width + 1)]
    keep = low[bound]
    letters = [(a * width, 1 << a * width) for a in range(k)]
    window_lengths = (2 << bound) - 1
    pals = {}  # palindrome code -> (its bit, its symbols oldest first)
    even_bits = 0
    masks = [0]  # sid -> seen bitmask
    sid_of = {0: 0}
    moves = [{}]  # sid -> {palindrome code: the next sid << lanes, or -1 for dead}
    index = {}  # the states with full windows, by key
    count = 1
    # a window with none of these bits holds at most bound - 2 symbols
    tall = ~low[bound - 2] if bound >= 2 else None
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
                    raise CapacityError(f"state budget {budget} exceeded while building {spec!r}")
                count += 1
                if not fresh:
                    index[nxt] = ti
                states.append(nxt)
                suffix_lengths.append(lengths & window_lengths)
            flat.append(ti)

    n = count
    if used_dead:
        flat.extend([-1] * k)
    table = np.frombuffer(flat, dtype=np.intc).reshape(-1, k)
    table[table < 0] = n
    return Dfa(table, 0, np.arange(n))


@st.composite
def reference_specs(draw):
    """Specs of every family, unary ones with windows of up to 80 symbols."""
    k = draw(st.integers(1, 3))
    family = draw(st.sampled_from("DERTS"))
    top = 40 if k == 1 else 4
    caps = st.integers(0, top)
    if family == "D":
        return MaxDistinct(k, draw(st.integers(0, 40 if k == 1 else 7 if k == 2 else 5)))
    if family == "E":
        return MaxLen(k, draw(caps))
    if family == "R":
        return MaxLenByParity(k, draw(caps), draw(caps))
    if family == "T":
        return MaxCountByParity(k, draw(caps), draw(caps), draw(st.booleans()))
    short = enumerate_palindromes(k, 2 if k == 2 else 3)
    allowed = draw(st.sets(st.sampled_from(short), max_size=len(short)))
    if k == 2 and draw(st.booleans()):
        # one palindrome of up to 31 symbols: a window past the int64 lanes
        half = draw(st.lists(st.integers(0, 1), min_size=10, max_size=16))
        allowed.add(Word(half + half[::-1][draw(st.integers(0, 1)):], 2))
    return AllowedSet(k, allowed)


def _refusal(build, spec, budget):
    """The error build raises under the given state budget, or None."""
    with state_budget_env(budget):
        try:
            build(spec)
        except (CapacityError, ValueError) as exc:  # ValueError: a budget of 0
            return type(exc)
    return None


def _check_against_reference(build, spec, budget):
    want = _reference_build(spec)
    got = build(spec)
    assert got.state_count == want.state_count and got == want
    live = want.live_state_count()
    for b in {budget % (live + 1), live - 1, live}:
        assert _refusal(build, spec, b) == _refusal(_reference_build, spec, b)


# windows of 71, 60 and 33 symbols: the first and the last past the int64 lanes
WIDE_SPECS = [MaxLen(1, 70), MaxLen(1, 59),
              AllowedSet(2, [Word((), 2), Word((0,), 2), Word((1,), 2), W("1" * 31)])]


@settings(max_examples=60, deadline=None)
@given(reference_specs(), st.integers(0, 10 ** 6))
@example(WIDE_SPECS[0], 40)
@example(WIDE_SPECS[2], 7)
@example(MaxLen(3, 2), 3)  # a level whose new targets' keys are out of order
def test_matches_the_per_transition_reference(spec, budget):
    _check_against_reference(build_direct, spec, budget)


@pytest.mark.parametrize("old,new,spec", [
    ("order = first.argsort()  # new states in order of first occurrence",
     "order = np.arange(len(first))", MaxLen(3, 2)),
    ("lane = np.int64 if k * width + 2 <= 62 else object", "lane = np.int64", WIDE_SPECS[0]),
    ("lane = np.int64 if k * width + 2 <= 62 else object", "lane = np.int64", WIDE_SPECS[2]),
], ids=["targets numbered in key order", "int64 lanes on E(1,70)", "int64 lanes on a wide S"])
def test_reference_check_catches_mutants(old, new, spec):
    # each mutant fails one of the property's pinned examples
    mutant = _source_mutant(build_direct, old, new)
    with pytest.raises((AssertionError, OverflowError)):
        _check_against_reference(mutant, spec, 0)


def test_object_keys_give_the_same_tables():
    # promoted as if sid << (k-1)*width would wrap an int64 from the first full window on
    promoted = _source_mutant(build_direct, "len(masks) > 1 << (63 - rest)", "True")
    for spec in (MaxDistinct(2, 9), MaxCountByParity(2, 3, 3), MaxLenByParity(3, 0, 3),
                 AllowedSet(4, [Word((), 4)] + [Word((c,), 4) for c in range(4)])):
        assert promoted(spec) == _reference_build(spec)
