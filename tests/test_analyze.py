from functools import lru_cache

import pytest

from palfac.analyze import (
    AnalysisReport,
    CountablyManyPeriodic,
    FinitelyManyPeriodic,
    Morphism,
    NoInfiniteWords,
    UncountablyManyAperiodic,
    analyze,
    birecurrent_witness,
    classify,
    enumerate_periodic,
    recurrent_states,
    verify_ultimately_periodic,
    witness_morphisms,
)
from palfac.automaton import import_dfa, minimize
from palfac.construct import (
    AllowedSet,
    MaxCountByParity,
    MaxDistinct,
    MaxLen,
    MaxLenByParity,
    build_direct,
)
from palfac.oracle import longest_word
from palfac.words import Word, palindromic_factors

W = Word.from_digits
EMPTY = Word(())
# 0*1*: the 0-loop reaches the 1-loop, so 0^j 1^omega is a word for every j
ZERO_STAR_ONE_STAR = "(START) |- 0\n0 0 0\n0 1 1\n1 1 1\n0 -| (FINAL)\n1 -| (FINAL)\n"


@lru_cache(maxsize=None)
def build(spec):
    return minimize(build_direct(spec))


def sigma4_singles():
    return AllowedSet(4, [Word((), 4)] + [Word((c,), 4) for c in range(4)])


def thue_morse(n: int) -> Word:
    return Word([bin(i).count("1") & 1 for i in range(n)], 2)


def conjugates(text: str) -> set[Word]:
    return {W(text[i:] + text[:i]) for i in range(len(text))}


def common_closing_states(d, x0, x1):
    return [q for q in range(d.state_count)
            if q != d.dead and d.run(q, x0) == q and d.run(q, x1) == q]


class TestRecurrentStates:
    def test_none_when_language_finite(self):
        d = build(MaxDistinct(2, 8))
        assert recurrent_states(d) == set()

    def test_twelve_for_nine_binary_palindromes(self):
        assert len(recurrent_states(build(MaxDistinct(2, 9)))) == 12

    def test_six_for_four_ternary_palindromes(self):
        assert len(recurrent_states(build(MaxDistinct(3, 4)))) == 6

    def test_each_state_lies_on_a_cycle(self):
        d = build(MaxLen(2, 4))
        for q in recurrent_states(d):
            # some nonempty word of length <= state count returns to q
            seen = {q}
            frontier = {d.delta[q][a] for a in range(2) if d.delta[q][a] != d.dead}
            back = q in frontier
            for _ in range(d.state_count):
                frontier = {d.delta[s][a] for s in frontier for a in range(2)
                            if d.delta[s][a] != d.dead}
                back = back or q in frontier
            assert back

    def test_finite_language_shorter_than_state_count(self):
        d = build(MaxDistinct(2, 8))
        assert recurrent_states(d) == set()
        assert longest_word(MaxDistinct(2, 8)) == 8
        assert 8 < d.live_state_count()


class TestBirecurrentWitness:
    def test_absent_for_periodic_only_automata(self):
        for spec in (MaxDistinct(2, 9), MaxDistinct(2, 10), MaxLen(2, 4),
                     MaxDistinct(3, 4), MaxLen(3, 1)):
            assert birecurrent_witness(build(spec)) is None

    def test_witness_closes_two_noncommuting_cycles(self):
        for spec in (MaxDistinct(3, 5), MaxLen(3, 2), MaxLen(2, 5),
                     MaxLenByParity(2, 2, 5), MaxLenByParity(2, 6, 3),
                     MaxLenByParity(3, 0, 3), sigma4_singles()):
            d = build(spec)
            q, x0, x1 = birecurrent_witness(d)
            assert d.run(q, x0) == q
            assert d.run(q, x1) == q
            assert x0 + x1 != x1 + x0
            assert q != d.dead

    def test_published_cycle_pairs_close_at_a_common_state(self):
        pairs = [
            (MaxDistinct(2, 11), "0001011001011", "001011001011"),
            (MaxDistinct(3, 5), "0012", "012"),
            (MaxLen(2, 5), "01010110", "0010101110"),
            (MaxLen(3, 2), "211002", "11002"),
            (MaxLenByParity(2, 2, 5), "10100011", "1010100011"),
            (MaxLenByParity(2, 6, 3), "110010", "1111000010"),
            (MaxLenByParity(3, 0, 3), "021210102", "1210102"),
            (sigma4_singles(), "2301", "301"),
        ]
        for spec, p0, p1 in pairs:
            d = build(spec)
            assert common_closing_states(d, W(p0), W(p1))


class TestClassify:
    def test_trichotomy_examples(self):
        assert isinstance(classify(build(MaxDistinct(2, 8))), NoInfiniteWords)
        assert isinstance(classify(build(MaxLen(2, 4))), FinitelyManyPeriodic)
        assert isinstance(classify(build(MaxDistinct(2, 11))), UncountablyManyAperiodic)

    def test_chained_cycles_are_countable(self):
        d = minimize(import_dfa(ZERO_STAR_ONE_STAR))
        rep = analyze(d)
        assert rep.classification == classify(d) == CountablyManyPeriodic()
        assert rep.birecurrent is None
        assert rep.periodic_words == ()
        assert rep.recurrent_states == {d.start, d.delta[d.start, 1]}

    def test_finite_classification_carries_words(self):
        cls = classify(build(MaxDistinct(2, 9)))
        assert isinstance(cls, FinitelyManyPeriodic)
        assert len(cls.words) == 12

    def test_report_aggregates(self):
        rep = analyze(build(MaxDistinct(2, 9)))
        assert isinstance(rep, AnalysisReport)
        assert len(rep.recurrent_states) == 12
        assert rep.birecurrent is None
        assert len(rep.periodic_words) == 12

    @pytest.mark.parametrize("spec", [
        MaxDistinct(2, 8), MaxDistinct(2, 9), MaxDistinct(2, 11), MaxDistinct(3, 4),
        MaxLen(2, 4), MaxLenByParity(3, 0, 3), MaxCountByParity(2, 3, 5, count_empty=False),
    ])
    def test_report_matches_the_separate_queries(self, spec):
        d = build(spec)
        rep = analyze(d)
        assert rep.recurrent_states == recurrent_states(d)
        assert rep.birecurrent == birecurrent_witness(d)
        assert rep.classification == classify(d)
        if isinstance(rep.classification, FinitelyManyPeriodic):
            assert list(rep.periodic_words) == enumerate_periodic(d)

    def test_monotone_in_the_cap(self):
        seen_aperiodic = False
        for cap in (8, 9, 10, 11):
            aperiodic = isinstance(classify(build(MaxDistinct(2, cap))),
                                   UncountablyManyAperiodic)
            assert not (seen_aperiodic and not aperiodic)
            seen_aperiodic = seen_aperiodic or aperiodic


class TestEnumeratePeriodic:
    def test_nine_binary_palindromes(self):
        words = enumerate_periodic(build(MaxDistinct(2, 9)))
        expect = {(EMPTY, x) for x in conjugates("001011") | conjugates("001101")}
        assert set(words) == expect

    def test_four_ternary_palindromes(self):
        words = enumerate_periodic(build(MaxDistinct(3, 4)))
        periods = {str(x) for y, x in words}
        assert all(len(y) == 0 for y, x in words)
        assert periods == {"012", "021", "102", "120", "201", "210"}
        assert enumerate_periodic(build(MaxLen(3, 1))) == \
            enumerate_periodic(build(MaxDistinct(3, 4)))

    def test_twenty_binary_maxlen_four(self):
        words = set(enumerate_periodic(build(MaxLen(2, 4))))
        assert len(words) == 20
        expect = {(EMPTY, x) for x in conjugates("001011") | conjugates("001101")}
        for y in ("0", "00", "111", "1111"):
            expect.add(_normalized(y, "001011"))
        for y in ("0", "00", "11101", "111101"):
            expect.add(_normalized(y, "001101"))
        assert words == expect

    def test_fifty_two_with_ten_binary_palindromes(self):
        words = enumerate_periodic(build(MaxDistinct(2, 10)))
        assert len(words) == 52
        for x in ("0001011", "0001101", "0010111", "0011101"):
            assert all((EMPTY, c) in set(words) for c in conjugates(x))

    def test_periods_primitive_and_preperiods_trimmed(self):
        for spec in (MaxDistinct(2, 10), MaxLen(2, 4)):
            for y, x in enumerate_periodic(build(spec)):
                assert len(x) >= 1
                for p in range(1, len(x)):
                    if len(x) % p == 0:
                        assert x.symbols != x.symbols[:p] * (len(x) // p)
                if len(y):
                    assert y[-1] != x[-1]

    def test_rejects_branching_cycles(self):
        with pytest.raises(ValueError):
            enumerate_periodic(build(MaxDistinct(3, 5)))

    def test_rejects_chained_cycles(self):
        with pytest.raises(ValueError):
            enumerate_periodic(import_dfa(ZERO_STAR_ONE_STAR))


def _normalized(y: str, x: str) -> tuple[Word, Word]:
    ys, xs = list(y), list(x)
    while ys and ys[-1] == xs[-1]:
        ys.pop()
        xs = [xs[-1]] + xs[:-1]
    return W("".join(ys)) if ys else EMPTY, W("".join(xs))


class TestVerifyUltimatelyPeriodic:
    def test_nine_palindrome_period(self):
        assert verify_ultimately_periodic(EMPTY, W("001011"), MaxDistinct(2, 9)) == (True, 9)

    def test_ten_palindrome_word(self):
        assert verify_ultimately_periodic(W("0"), W("001011"), MaxDistinct(2, 10)) == (True, 10)

    def test_unary_rejected(self):
        accepted, size = verify_ultimately_periodic(EMPTY, W("0"), MaxDistinct(2, 1))
        assert not accepted

    def test_all_enumerated_words_verify(self):
        spec = MaxDistinct(2, 10)
        sizes = []
        for y, x in enumerate_periodic(build(spec)):
            accepted, size = verify_ultimately_periodic(y, x, spec)
            assert accepted
            assert size <= 10
            sizes.append(size)
        assert sizes.count(10) == 40
        assert sizes.count(9) == 12

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            verify_ultimately_periodic(W("01"), EMPTY, MaxDistinct(2, 9))


class TestMorphism:
    def test_rejects_erasing(self):
        with pytest.raises(ValueError):
            Morphism({0: EMPTY, 1: W("1")})

    def test_apply(self):
        m = Morphism({0: W("01"), 1: W("10")})
        assert m.apply(W("011")) == W("011010")

    def test_missing_letter(self):
        m = Morphism({0: W("01")})
        with pytest.raises(ValueError):
            m.apply(W("01"))

    def test_fixed_point_is_thue_morse(self):
        m = Morphism({0: W("01"), 1: W("10")})
        assert m.fixed_point_prefix(0, 64) == thue_morse(64)

    def test_fixed_point_requires_extension(self):
        m = Morphism({0: W("10"), 1: W("01")})
        with pytest.raises(ValueError):
            m.fixed_point_prefix(0, 8)


class TestWitnessMorphisms:
    def test_h_images_are_the_cycles(self):
        h, g = witness_morphisms(0, W("01"), W("10"))
        assert h.images == {0: W("01"), 1: W("10")}
        assert g is not None
        assert g.images == {0: W("0110"), 1: W("1001")}

    def test_g_absent_when_neither_cycle_starts_with_its_letter(self):
        h, g = witness_morphisms(0, W("10"), W("01"))
        assert g is None
        assert h.images[0] == W("10")

    def test_translated_image_of_thue_morse_accepted(self):
        d = build(MaxDistinct(2, 11))
        q, x0, x1 = birecurrent_witness(d)
        h, _ = witness_morphisms(q, x0, x1)
        image = h.apply(thue_morse(2000))
        assert d.accepts(image)
        # and along an explicit path into q: factor-closed, so both hold
        path = _path_to(d, q)
        assert d.run(d.start, path + image) != d.dead

    def test_published_cycles_give_accepted_fixed_point(self):
        d = build(MaxDistinct(2, 11))
        h, g = witness_morphisms(738, W("0001011001011"), W("001011001011"))
        assert g is not None
        assert d.accepts(h.apply(thue_morse(2000)))
        assert d.accepts(g.fixed_point_prefix(0, 10000))

    def test_quaternary_image_has_five_palindromes(self):
        d = build(sigma4_singles())
        h = Morphism({0: W("2301"), 1: W("301")})
        image = h.apply(thue_morse(3000))
        assert d.accepts(image)
        pal = palindromic_factors(image)
        assert sorted(str(p) for p in pal.palindromes) == ["", "0", "1", "2", "3"]

    def test_ternary_image_accepted(self):
        d = build(MaxDistinct(3, 5))
        h, g = witness_morphisms(39, W("0012"), W("012"))
        assert g is not None and g.images[0] == W("0012012")
        assert d.accepts(h.apply(thue_morse(2000)))


class TestParityCountRows:
    def test_periodic_row_contains_published_word(self):
        spec = MaxCountByParity(2, 5, 4, count_empty=False)
        cls = classify(build(spec))
        assert isinstance(cls, FinitelyManyPeriodic)
        assert (EMPTY, W("001011")) in set(cls.words)

    def test_aperiodic_row_witness(self):
        spec = MaxCountByParity(2, 9, 4, count_empty=False)
        d = build(spec)
        assert isinstance(classify(d), UncountablyManyAperiodic)
        assert common_closing_states(d, W("001011"), W("0011001011"))

    def test_ternary_row_witness(self):
        spec = MaxCountByParity(3, 1, 5, count_empty=False)
        d = build(spec)
        assert isinstance(classify(d), UncountablyManyAperiodic)
        assert common_closing_states(d, W("01012"), W("012"))


def _path_to(d, q) -> Word:
    from collections import deque

    parents = {d.start: None}
    queue = deque([d.start])
    while queue:
        s = queue.popleft()
        if s == q:
            break
        for a in range(d.alphabet_size):
            t = d.delta[s][a]
            if t != d.dead and t not in parents:
                parents[t] = (s, a)
                queue.append(t)
    letters = []
    s = q
    while parents[s] is not None:
        s, a = parents[s]
        letters.append(a)
    return Word(reversed(letters), d.alphabet_size)
