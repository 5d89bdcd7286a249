import itertools

import pytest
from hypothesis import given, settings, strategies as st

from palfac.construct import (AllowedSet, CapacityError, MaxCountByParity,
                              MaxDistinct, MaxLen, MaxLenByParity)
from palfac.oracle import (_search, brute_count, brute_count_profile,
                           brute_count_unpruned, longest_word, satisfies)
from palfac.words import Word, enumerate_palindromes, naive_palindromic_factors
from test_construct import small_specs


def test_published_counts():
    assert brute_count(MaxDistinct(2, 11), 11).count == 292
    assert brute_count(MaxDistinct(3, 5), 5).count == 42


def test_empty_word_counts_once():
    for spec in (MaxDistinct(2, 1), MaxLen(3, 0), MaxLenByParity(2, 0, 1),
                 MaxCountByParity(2, 1, 1)):
        assert brute_count(spec, 0).count == 1
    assert brute_count(MaxDistinct(2, 0), 0).count == 0


def test_profile_matches_single_counts():
    spec = MaxCountByParity(2, 3, 3)
    profile = brute_count_profile(spec, 9)
    assert profile == [brute_count(spec, n).count for n in range(10)]


@pytest.mark.parametrize("spec", [
    MaxDistinct(2, 4),
    MaxLen(2, 2),
    MaxLenByParity(2, 2, 3),
    MaxCountByParity(2, 2, 2),
    MaxCountByParity(2, 2, 2, count_empty=False),
    AllowedSet(2, enumerate_palindromes(2, 2)),
    MaxDistinct(3, 4),
], ids=repr)
def test_pruning_soundness(spec):
    for n in range(7):
        assert brute_count(spec, n).count == brute_count_unpruned(spec, n)


def test_witnesses_are_accepted_words():
    spec = MaxDistinct(2, 8)
    res = brute_count(spec, 6, max_witnesses=5)
    assert res.witnesses is not None and 1 <= len(res.witnesses) <= 5
    for w in res.witnesses:
        assert len(w) == 6
        assert satisfies(spec, w)
    assert brute_count(spec, 6).witnesses is None


def test_longest_word_finite_cases():
    assert longest_word(MaxDistinct(2, 8)) == 8
    assert longest_word(MaxDistinct(3, 3)) == 2  # any length-3 word has 4 factors
    assert longest_word(MaxLen(2, 2)) == 4      # e.g. 0011; binary E_2 is finite
    assert longest_word(MaxLen(2, 0)) == 0
    assert longest_word(MaxDistinct(2, 0)) == -1


def test_longest_word_infinite_signal():
    assert longest_word(MaxDistinct(2, 9)) is None
    assert longest_word(MaxLen(3, 1)) is None   # (012)^omega never repeats adjacently


def test_satisfies_spot_checks():
    cap_word = Word.from_digits("001011" * 4)
    # the factor set of (001011)^k stabilizes at 4 nonempty evens and 4 odds
    assert satisfies(MaxCountByParity(2, 4, 4, count_empty=False), cap_word)
    assert satisfies(MaxCountByParity(2, 5, 4), cap_word)
    assert not satisfies(MaxCountByParity(2, 3, 4, count_empty=False), cap_word)

    assert satisfies(MaxLen(2, 4), Word.from_digits("0110"))
    assert not satisfies(MaxLen(2, 3), Word.from_digits("0110"))

    allowed = AllowedSet(4, [Word((), 4), Word((0,), 4), Word((1,), 4),
                             Word((2,), 4), Word((3,), 4)])
    assert satisfies(allowed, Word((0, 1, 2, 3, 0, 1), 4))
    assert not satisfies(allowed, Word((0, 1, 1, 2), 4))


def test_budget_enforced():
    with pytest.raises(CapacityError):
        brute_count(MaxDistinct(2, 30), 25, budget=100)


def test_budget_counts_one_evaluation_per_letter_tried():
    # every binary word of length <= 10 is accepted: 2 + 4 + ... + 1024 letters
    spec = MaxDistinct(2, 30)
    assert brute_count_profile(spec, 10, budget=2046) == [2 ** n for n in range(11)]
    with pytest.raises(CapacityError):
        brute_count_profile(spec, 10, budget=2045)


class _Recording:
    """A spec that records every (palindrome, even, odd) passed to admits."""

    def __init__(self, spec):
        self.spec = spec
        self.alphabet_size = spec.alphabet_size
        self.calls = []

    def admits(self, pal, even, odd):
        self.calls.append((tuple(pal), even, odd))
        return self.spec.admits(pal, even, odd)

    def satisfied_by(self, pf):
        return self.spec.satisfied_by(pf)


@settings(max_examples=60, deadline=None)
@given(small_specs(), st.integers(0, 7))
def test_admits_sees_each_new_palindrome_with_its_counts(spec, depth):
    k = spec.alphabet_size
    if k == 3:
        depth = min(depth, 5)
    recording = _Recording(spec)
    visited = []
    _search(recording, depth, lambda d, word, weight: visited.append(tuple(word[:d])) or True,
            budget=10 ** 6)

    # reference: w + c gains the palindromes of its naive factor set that w
    # lacks (at most one), with the parity counts of w + c's whole set
    want_calls, want_visits = [], []

    def expand(w):
        want_visits.append(w)
        if len(w) == depth:
            return
        before = naive_palindromic_factors(Word(w, k)).palindromes
        for c in range(k):
            after = naive_palindromic_factors(Word(w + (c,), k))
            new = after.palindromes - before
            assert len(new) <= 1
            even, odd = after.counts_by_parity()
            want_calls.extend((p.symbols, even, odd) for p in new)
            if all(spec.admits(p.symbols, even, odd) for p in new):
                expand(w + (c,))

    if spec.satisfied_by(naive_palindromic_factors(Word((), k))):
        expand(())
    assert recording.calls == want_calls
    assert visited == want_visits


def test_letter_symmetry_of_allowed_sets():
    assert AllowedSet(4, enumerate_palindromes(4, 1)).letter_symmetric
    assert AllowedSet(3, enumerate_palindromes(3, 2)).letter_symmetric
    assert not AllowedSet(2, [Word.from_digits(t) for t in ("", "0", "00", "1")]).letter_symmetric
    # closed under the cycle (0 1 2) but not under the transposition (0 1)
    assert not AllowedSet(3, [Word.from_digits(t) for t in ("", "010", "121", "202")]).letter_symmetric


class _Full:
    """A spec's proxy that keeps the oracle from counting by orbits."""

    letter_symmetric = False

    def __init__(self, spec):
        self.alphabet_size = spec.alphabet_size
        self.admits = spec.admits
        self.satisfied_by = spec.satisfied_by


@st.composite
def _allowed_sets(draw):
    k = draw(st.integers(1, 4))
    pals = enumerate_palindromes(k, 3 if k < 4 else 2)
    allowed = draw(st.sets(st.sampled_from(pals)))
    if draw(st.booleans()):
        allowed = {Word(tuple(g[c] for c in w.symbols), k)
                   for w in allowed for g in itertools.permutations(range(k))}
    return AllowedSet(k, allowed)


@settings(max_examples=120, deadline=None)
@given(st.one_of(small_specs(), _allowed_sets()), st.integers(0, 8))
def test_orbit_search_matches_the_full_search(spec, depth):
    k = spec.alphabet_size
    depth = min(depth, {1: 8, 2: 8, 3: 6, 4: 4}[k])
    full = _Full(spec)
    profile = brute_count_profile(full, depth)
    assert brute_count_profile(spec, depth) == profile
    # the full search tries k letters after every accepted word shorter than depth
    need = k * sum(profile[:depth])
    for s in (spec, full):
        assert brute_count_profile(s, depth, budget=need) == profile
        if need:
            with pytest.raises(CapacityError):
                brute_count_profile(s, depth, budget=need - 1)
