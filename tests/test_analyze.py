from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import palfac.analyze
from palfac.analyze import (
    AnalysisReport,
    CountablyManyPeriodic,
    FinitelyManyPeriodic,
    Morphism,
    NoInfiniteWords,
    UncountablyManyAperiodic,
    _graph,
    analyze,
    verify_ultimately_periodic,
    witness_morphisms,
)
from palfac.automaton import Dfa, import_dfa, minimize
from palfac.construct import (
    AllowedSet,
    MaxCountByParity,
    MaxDistinct,
    MaxLen,
    MaxLenByParity,
    build_direct,
)
from palfac.oracle import brute_count_profile
from palfac.words import Word, palindromic_factors

W = Word.from_digits
EMPTY = Word(())
# 0*1*: the 0-loop reaches the 1-loop, so 0^j 1^omega is a word for every j
ZERO_STAR_ONE_STAR = "(START) |- 0\n0 0 0\n0 1 1\n1 1 1\n0 -| (FINAL)\n1 -| (FINAL)\n"
# the binary words of length at most 20: 21 states in a chain and the dead state
UP_TO_TWENTY = ("(START) |- 0\n"
                + "".join(f"{q} {a} {q + 1}\n" for q in range(20) for a in (0, 1))
                + "".join(f"{q} -| (FINAL)\n" for q in range(21)))
# one infinite word, 1(0)^omega, beside the 2^20 dead-end paths 0{0,1}^20:
# 0 goes to the chain 1..21 on 0 and to the 0-loop 22 on 1
ONE_WORD = ("(START) |- 0\n0 0 1\n0 1 22\n22 0 22\n"
            + "".join(f"{q} {a} {q + 1}\n" for q in range(1, 21) for a in (0, 1))
            + "".join(f"{q} -| (FINAL)\n" for q in range(23)))


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
        assert analyze(d).recurrent_states == set()

    def test_twelve_for_nine_binary_palindromes(self):
        assert len(analyze(build(MaxDistinct(2, 9))).recurrent_states) == 12

    def test_six_for_four_ternary_palindromes(self):
        assert len(analyze(build(MaxDistinct(3, 4))).recurrent_states) == 6

    def test_each_state_lies_on_a_cycle(self):
        d = build(MaxLen(2, 4))
        for q in analyze(d).recurrent_states:
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
        assert analyze(d).recurrent_states == set()
        profile = brute_count_profile(MaxDistinct(2, 8), 9)
        assert profile[8] > 0 == profile[9]
        assert 8 < d.live_state_count()


class TestBirecurrentWitness:
    def test_absent_for_periodic_only_automata(self):
        for spec in (MaxDistinct(2, 9), MaxDistinct(2, 10), MaxLen(2, 4),
                     MaxDistinct(3, 4), MaxLen(3, 1)):
            assert analyze(build(spec)).birecurrent is None

    def test_witness_closes_two_noncommuting_cycles(self):
        for spec in (MaxDistinct(3, 5), MaxLen(3, 2), MaxLen(2, 5),
                     MaxLenByParity(2, 2, 5), MaxLenByParity(2, 6, 3),
                     MaxLenByParity(3, 0, 3), sigma4_singles()):
            d = build(spec)
            q, x0, x1 = analyze(d).birecurrent
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
        for spec, kind in ((MaxDistinct(2, 8), NoInfiniteWords),
                           (MaxLen(2, 4), FinitelyManyPeriodic),
                           (MaxDistinct(2, 11), UncountablyManyAperiodic)):
            assert isinstance(analyze(build(spec)).classification, kind)

    def test_chained_cycles_are_countable(self):
        d = minimize(import_dfa(ZERO_STAR_ONE_STAR))
        rep = analyze(d)
        assert rep.classification == CountablyManyPeriodic()
        assert rep.birecurrent is None
        assert rep.periodic_words == ()
        assert rep.recurrent_states == {d.start, d.delta[d.start, 1]}

    def test_only_the_finite_classification_lists_words(self):
        assert analyze(build(MaxDistinct(2, 9))).classification == FinitelyManyPeriodic()
        for spec in (MaxDistinct(2, 8), MaxDistinct(2, 11)):
            assert analyze(build(spec)).periodic_words == ()

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
    def test_report_fields_agree(self, spec):
        # the four fields come from one pass: check them against one another,
        # and the periodic words against the spec's whole-word rule
        d = build(spec)
        rep = analyze(d)
        cls = rep.classification
        assert (not rep.recurrent_states) == isinstance(cls, NoInfiniteWords)
        assert (rep.birecurrent is not None) == isinstance(cls, UncountablyManyAperiodic)
        assert bool(rep.periodic_words) == isinstance(cls, FinitelyManyPeriodic)
        if rep.birecurrent is not None:
            q, x0, x1 = rep.birecurrent
            assert q in rep.recurrent_states
            assert d.run(q, x0) == q == d.run(q, x1)
        for y, x in rep.periodic_words:
            assert verify_ultimately_periodic(y, x, spec)[0]
            q = d.run(d.start, y)
            for _ in range(d.state_count):
                q = d.run(q, x)
            assert q in rep.recurrent_states

    def test_monotone_in_the_cap(self):
        seen_aperiodic = False
        for cap in (8, 9, 10, 11):
            aperiodic = isinstance(analyze(build(MaxDistinct(2, cap))).classification,
                                   UncountablyManyAperiodic)
            assert not (seen_aperiodic and not aperiodic)
            seen_aperiodic = seen_aperiodic or aperiodic


class TestEnumeratePeriodic:
    def test_nine_binary_palindromes(self):
        words = analyze(build(MaxDistinct(2, 9))).periodic_words
        expect = {(EMPTY, x) for x in conjugates("001011") | conjugates("001101")}
        assert set(words) == expect

    def test_four_ternary_palindromes(self):
        words = analyze(build(MaxDistinct(3, 4))).periodic_words
        periods = {str(x) for y, x in words}
        assert all(len(y) == 0 for y, x in words)
        assert periods == {"012", "021", "102", "120", "201", "210"}
        assert analyze(build(MaxLen(3, 1))).periodic_words == \
            analyze(build(MaxDistinct(3, 4))).periodic_words

    def test_twenty_binary_maxlen_four(self):
        words = set(analyze(build(MaxLen(2, 4))).periodic_words)
        assert len(words) == 20
        expect = {(EMPTY, x) for x in conjugates("001011") | conjugates("001101")}
        for y in ("0", "00", "111", "1111"):
            expect.add(_normalized(y, "001011"))
        for y in ("0", "00", "11101", "111101"):
            expect.add(_normalized(y, "001101"))
        assert words == expect

    def test_fifty_two_with_ten_binary_palindromes(self):
        words = analyze(build(MaxDistinct(2, 10))).periodic_words
        assert len(words) == 52
        for x in ("0001011", "0001101", "0010111", "0011101"):
            assert all((EMPTY, c) in set(words) for c in conjugates(x))

    def test_periods_primitive_and_preperiods_trimmed(self):
        for spec in (MaxDistinct(2, 10), MaxLen(2, 4)):
            for y, x in analyze(build(spec)).periodic_words:
                assert len(x) >= 1
                for p in range(1, len(x)):
                    if len(x) % p == 0:
                        assert x.symbols != x.symbols[:p] * (len(x) // p)
                if len(y):
                    assert y[-1] != x[-1]

    def test_finite_language_has_no_words(self):
        # 2^21 paths, none of which reaches a cycle
        d = import_dfa(UP_TO_TWENTY)
        assert d.state_count == 22
        rep = analyze(d)
        assert rep.classification == NoInfiniteWords()
        assert rep.periodic_words == ()

    @pytest.mark.parametrize("minimized", [False, True])
    def test_dead_end_approach_paths_are_not_walked(self, minimized):
        d = import_dfa(ONE_WORD)
        d = minimize(d) if minimized else d
        rep = analyze(d)
        assert rep.periodic_words == ((W("1"), W("0")),)
        assert rep.classification == FinitelyManyPeriodic()


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
        for y, x in analyze(build(spec)).periodic_words:
            accepted, size = verify_ultimately_periodic(y, x, spec)
            assert accepted
            assert size <= 10
            sizes.append(size)
        assert sizes.count(10) == 40
        assert sizes.count(9) == 12

    def test_runs_without_the_automaton(self, monkeypatch):
        # the check judges words by the spec's whole-word rule, so it stays
        # independent of the automaton whose enumeration it confirms
        spec = MaxDistinct(2, 10)
        words = analyze(build(spec)).periodic_words

        def no_automaton(spec):
            raise AssertionError("verify_ultimately_periodic built an automaton")

        monkeypatch.setattr(palfac.analyze, "spec_dfa", no_automaton)
        counts: dict[int, int] = {}
        for y, x in words:
            accepted, size = verify_ultimately_periodic(y, x, spec)
            assert accepted
            counts[size] = counts.get(size, 0) + 1
        assert len(words) == 52
        assert counts == {10: 40, 9: 12}

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
        q, x0, x1 = analyze(d).birecurrent
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
        # g(0) starts with 0, so g^j(0) are growing prefixes of g's fixed point
        w = g.images[0]
        assert w[0] == 0 and len(w) > 1
        while len(w) < 10000:
            w = g.apply(w)
        assert d.accepts(w)

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
        rep = analyze(build(spec))
        assert isinstance(rep.classification, FinitelyManyPeriodic)
        assert (EMPTY, W("001011")) in set(rep.periodic_words)

    def test_aperiodic_row_witness(self):
        spec = MaxCountByParity(2, 9, 4, count_empty=False)
        d = build(spec)
        assert isinstance(analyze(d).classification, UncountablyManyAperiodic)
        assert common_closing_states(d, W("001011"), W("0011001011"))

    def test_ternary_row_witness(self):
        spec = MaxCountByParity(3, 1, 5, count_empty=False)
        d = build(spec)
        assert isinstance(analyze(d).classification, UncountablyManyAperiodic)
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


@st.composite
def graph_dfas(draw):
    """Complete DFAs over 1..3 letters with up to 12 states.

    Every state but an optional sink accepts.  The sink rejects and loops
    on every letter, so it is the dead state, and it is sometimes the
    start.  Transitions favour self-loops and the sink.  In half the
    tables the other edges go only to later states, so the components are
    single states joined by cross edges, and the states before the start
    are unreachable.
    """
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    sink = draw(st.none() | st.integers(0, n - 1))
    start = draw(st.integers(0, n - 1))
    if sink is not None and draw(st.integers(0, 9)) == 0:
        start = sink
    forward = draw(st.booleans())
    onward = [st.integers(q if forward else 0, n - 1) for q in range(n)]
    delta = [[draw(st.sampled_from([q, n - 1 if sink is None else sink])
                   | onward[q]) for _ in range(k)] for q in range(n)]
    if sink is not None:
        delta[sink] = [sink] * k
    return Dfa(delta, start, [q for q in range(n) if q != sink])


def _closure(d) -> list[set[int]]:
    """after[q]: the states a nonempty path of live states leads to from q."""
    n = d.state_count
    step = [{t for t in d.delta[q].tolist() if t != d.dead} for q in range(n)]
    after = [set(s) for s in step]
    changed = True
    while changed:
        changed = False
        for q in range(n):
            more = set().union(*(step[t] for t in after[q])) - after[q]
            if more:
                after[q] |= more
                changed = True
    return after


@settings(max_examples=300, deadline=None)
@given(graph_dfas())
# the search from 0 finishes 1, then 2 meets 1 again: a cross edge into a
# finished component, which must not pull 2 into 0's component
@example(Dfa([[1, 2], [3, 3], [1, 3], [3, 3]], 0, [0, 1, 2]))
def test_graph_components_are_the_mutual_reachability_classes(d):
    edges, comp, comps, inner = _graph(d)
    after = _closure(d)
    reached = set() if d.start == d.dead else {d.start} | after[d.start]
    assert {q for q in range(d.state_count) if comp[q] >= 0} == reached
    assert sorted(q for members in comps for q in members) == sorted(reached)
    for c, members in enumerate(comps):
        assert all(comp[q] == c for q in members)
    for p in reached:
        assert edges[p] == [(a, t) for a, t in enumerate(d.delta[p].tolist()) if t != d.dead]
        assert inner[p] == [(a, t) for a, t in edges[p] if comp[t] == comp[p]]
        # every edge enters a component of equal or lower index
        assert all(comp[t] <= comp[p] for _, t in edges[p])
        for q in reached:
            mutual = p == q or (q in after[p] and p in after[q])
            assert (comp[p] == comp[q]) == mutual
    assert {q for q, e in enumerate(inner) if e} == {q for q in reached if q in after[q]}
