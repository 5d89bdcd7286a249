import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palfac.analyze import Morphism
from palfac.automaton import BUDGET_ENV, Dfa, minimize
from palfac.construct import AllowedSet, CapacityError, MaxDistinct, MaxLen, build_direct
from palfac.verify import check_stabilization, perturbed_symmetry, thue_morse, transform
from palfac.words import Word, palindromic_factors
from test_words import _source_mutant, _traced

W = Word.from_digits
EMPTY = Word(())

G0 = W("001101000110")
B0 = Word((0, 1), 4)
INFIX_23 = Word((2, 3), 4)


@lru_cache(maxsize=None)
def build(spec):
    return minimize(build_direct(spec))


def sigma4():
    return build(AllowedSet(4, [Word((), 4)] + [Word((c,), 4) for c in range(4)]))


def random_word(rng, k, length):
    return Word((rng.randrange(k) for _ in range(length)), k)


class TestTransform:
    def test_empty_word_is_identity(self):
        d = build(MaxLen(2, 4))
        assert np.array_equal(transform(d, EMPTY), np.arange(d.state_count))

    def test_total_over_all_states(self):
        d = build(MaxDistinct(2, 9))
        tau = transform(d, W("01"))
        assert tau.shape == (d.state_count,)
        assert tau[d.dead] == d.dead

    def test_concatenation_composes(self):
        d = build(MaxDistinct(2, 9))
        rng = random.Random(11)
        for _ in range(40):
            u = random_word(rng, 2, rng.randrange(8))
            v = random_word(rng, 2, rng.randrange(8))
            assert np.array_equal(transform(d, u + v), transform(d, v)[transform(d, u)])
            # the gather over all states against one run per state
            assert transform(d, u).tolist() == [d.run(q, u) for q in range(d.state_count)]

    def test_four_letter_seed_reversal_invariant(self):
        # the transformation of B_1 coincides with that of its reversal
        d = sigma4()
        b1 = perturbed_symmetry(B0, INFIX_23, 1)
        assert np.array_equal(transform(d, b1), transform(d, b1.reverse()))

    def test_recursion_step_matches_composition(self):
        # tau_{X_{n+1}} = tau_{X_n^R}[tau_{infix}[tau_{X_n}]]
        d = sigma4()
        b2 = perturbed_symmetry(B0, INFIX_23, 2)
        b3 = perturbed_symmetry(B0, INFIX_23, 3)
        lhs = transform(d, b2.reverse())[transform(d, INFIX_23)[transform(d, b2)]]
        assert np.array_equal(lhs, transform(d, b3))


class TestPerturbedSymmetry:
    def test_single_step(self):
        assert perturbed_symmetry(W("01"), Word((2, 3), 4), 1) == W("012310")

    def test_first_iterate_of_twelve_letter_seed(self):
        g1 = perturbed_symmetry(G0, W("01"), 1)
        assert len(g1) == 26
        assert g1 == G0 + W("01") + G0.reverse()

    def test_zero_returns_seed(self):
        assert perturbed_symmetry(G0, W("01"), 0) == G0

    def test_length_recurrence(self):
        for seed, infix in [(W("01"), Word((2, 3), 4)), (G0, W("01")), (EMPTY, W("0"))]:
            prev = perturbed_symmetry(seed, infix, 0)
            for n in range(1, 7):
                cur = perturbed_symmetry(seed, infix, n)
                assert len(cur) == 2 * len(prev) + len(infix)
                prev = cur

    def test_third_iterate_has_five_palindromic_factors(self):
        b3 = perturbed_symmetry(B0, INFIX_23, 3)
        assert len(palindromic_factors(b3)) == 5
        assert sigma4().accepts(b3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            perturbed_symmetry(B0, INFIX_23, -1)

    def test_overflow(self):
        with pytest.raises(CapacityError):
            perturbed_symmetry(B0, INFIX_23, 60)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 4, 256, 257, 300]),
           st.sampled_from([1, 2, 4, 256, 257, 300]), st.integers(0, 6))
    def test_matches_the_recursive_definition(self, data, k_seed, k_infix, n):
        seed, infix = (Word(data.draw(st.lists(st.integers(0, k - 1), max_size=size)), k)
                       for k, size in ((k_seed, 5), (k_infix, 3)))
        want = seed
        for _ in range(n):
            want = want + infix + want.reverse()
        got = perturbed_symmetry(seed, infix, n)
        assert got.symbols == want.symbols and got.alphabet_size == want.alphabet_size

    def test_builds_in_one_buffer(self):
        # X_16 of S(4)'s verify instance, 262,142 letters: the returned
        # tuple is 2.1 MB, and concatenating tuples took 5.2 MB
        x16, peak = _traced(lambda: perturbed_symmetry(B0, INFIX_23, 16))
        assert len(x16) == 262_142
        assert peak < 3_000_000


class TestCheckStabilization:
    def test_four_letter_automaton(self):
        report = check_stabilization(sigma4(), B0, INFIX_23, 5)
        assert report.stabilized_at == 1
        assert report.accepted == (True,) * 6
        assert report.reversal_equal == (True,) * 5
        assert check_stabilization(sigma4(), B0, INFIX_23, 2).stabilized_at == 1

    def test_degenerate_empty_seed(self):
        # only the empty word has a single palindromic factor
        d = build(MaxDistinct(1, 1))
        report = check_stabilization(d, EMPTY, Word((0,), 1), 3)
        assert report.accepted == (True, False, False, False)
        assert report.stabilized_at == 1

    def test_no_stabilization_reported_when_absent(self):
        # this instance only settles at n = 4, so a shorter horizon
        # must report None rather than an early coincidence
        d = build(MaxDistinct(2, 9))
        report = check_stabilization(d, EMPTY, W("0"), 3)
        assert report.stabilized_at is None
        assert check_stabilization(d, EMPTY, W("0"), 5).stabilized_at == 4

    def test_acceptance_matches_built_words(self):
        cases = [(sigma4(), B0, INFIX_23), (build(MaxDistinct(2, 10)), W("0010"), W("1")),
                 (build(MaxDistinct(2, 9)), EMPTY, W("0"))]
        for d, seed, infix in cases:
            report = check_stabilization(d, seed, infix, 16)
            assert report.accepted == tuple(
                d.accepts(perturbed_symmetry(seed, infix, n)) for n in range(17))

    def test_matches_transformations_of_built_words(self):
        rng = random.Random(5)
        for _ in range(300):
            n, k = rng.randrange(1, 6), rng.randrange(1, 4)
            d = Dfa([[rng.randrange(n) for _ in range(k)] for _ in range(n)], 0,
                    [q for q in range(n) if rng.random() < 0.5])
            seed = random_word(rng, k, rng.randrange(3))
            infix = random_word(rng, k, rng.randrange(1, 3))
            words = [perturbed_symmetry(seed, infix, j) for j in range(8)]
            taus = [transform(d, w) for w in words]
            taus_rev = [transform(d, w.reverse()) for w in words]
            same = np.array_equal
            report = check_stabilization(d, seed, infix, 7)
            assert report.stabilized_at == next(
                (j for j in range(7)
                 if same(taus[j], taus[j + 1]) and same(taus_rev[j], taus_rev[j + 1])), None)
            assert report.reversal_equal == tuple(
                same(taus[j], taus_rev[j]) for j in range(1, 8))
            assert report.accepted == tuple(d.accepts(w) for w in words)

    def test_stabilization_waits_for_the_reversal(self, check=check_stabilization):
        # tau_{X_n} alone repeats at n = 4 while tau_{X_n^R} keeps moving,
        # and tau_{X_n} moves again at n = 6; only the pair settles, at 6
        d = Dfa([[0, 1], [2, 3], [3, 0], [3, 2]], 0, [0, 1, 2])
        assert check(d, EMPTY, W("01"), 5).stabilized_at is None
        for n_max in (7, 8, 12):
            assert check(d, EMPTY, W("01"), n_max).stabilized_at == 6

    def test_stopping_on_one_map_is_caught(self):
        mutant = _source_mutant(
            check_stabilization,
            "if np.array_equal(x_next, x) and np.array_equal(x_rev_next, x_rev):",
            "if np.array_equal(x_next, x):")
        with pytest.raises(AssertionError):
            self.test_stabilization_waits_for_the_reversal(check=mutant)

    def test_long_horizon_repeats_the_settled_pair(self):
        # the D(2,10) verify instance settles at n = 2; keeping all 2 * 20,001
        # state maps as tuples, this horizon peaked at 95 MB
        d, seed, infix = build(MaxDistinct(2, 10)), W("0010"), W("1")
        short = check_stabilization(d, seed, infix, 16)
        report, peak = _traced(lambda: check_stabilization(d, seed, infix, 20_000))
        assert short.stabilized_at == report.stabilized_at == 2
        assert report.reversal_equal == short.reversal_equal + short.reversal_equal[-1:] * 19_984
        assert report.accepted == short.accepted + short.accepted[-1:] * 19_984
        assert peak < 2_000_000

    def test_horizon_held_to_the_state_budget(self, monkeypatch):
        # the report holds n_max + 1 flags per field; a refused horizon composes nothing
        import palfac.verify

        monkeypatch.setenv(BUDGET_ENV, "50")
        assert len(check_stabilization(sigma4(), B0, INFIX_23, 50).accepted) == 51
        monkeypatch.setattr(palfac.verify, "transform", None)
        with pytest.raises(CapacityError, match="budget"):
            check_stabilization(sigma4(), B0, INFIX_23, 51)

    def test_short_horizon_rejected(self):
        for bad in (-1, 0, 1):
            with pytest.raises(ValueError):
                check_stabilization(sigma4(), B0, INFIX_23, bad)


class TestThueMorse:
    def test_small_prefixes(self):
        assert thue_morse(4) == W("0110")
        assert thue_morse(8) == W("01101001")
        assert thue_morse(0) == EMPTY
        assert thue_morse(1).alphabet_size == 2

    def test_prefix_consistency(self):
        t16 = thue_morse(16)
        assert thue_morse(8) == t16[:8]
        assert thue_morse(13) == t16[:13]

    def test_fixed_point_of_doubling_morphism(self):
        m = Morphism({0: W("01"), 1: W("10")})
        for n in (1, 5, 32, 100):
            assert m.apply(thue_morse(n)) == thue_morse(2 * n)

    def test_cube_free_prefix(self):
        # a cube of period p at i means positions i..i+2p-1 all satisfy
        # t[j] == t[j+p]; scan every period for such a run
        n = 10_000
        a = np.fromiter(thue_morse(n), dtype=np.int8, count=n)
        for p in range(1, n // 3 + 1):
            eq = a[:-p] == a[p:]
            edges = np.flatnonzero(np.diff(np.concatenate(
                ([False], eq, [False])).astype(np.int8)))
            if edges.size:
                runs = edges.reshape(-1, 2)
                assert int((runs[:, 1] - runs[:, 0]).max()) < 2 * p, f"cube of period {p}"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            thue_morse(-1)


class TestApplyMorphism:
    def test_block_images(self):
        h = Morphism({0: Word((2, 3, 0, 1), 4), 1: Word((3, 0, 1), 4)})
        assert h.apply(W("01")) == Word((2, 3, 0, 1, 3, 0, 1), 4)

    def test_empty_to_empty(self):
        h = Morphism({0: Word((2, 3, 0, 1), 4), 1: Word((3, 0, 1), 4)})
        assert h.apply(EMPTY) == EMPTY

    def test_length_homomorphism(self):
        h = Morphism({0: Word((2, 3, 0, 1), 4), 1: Word((3, 0, 1), 4)})
        rng = random.Random(3)
        for _ in range(20):
            w = random_word(rng, 2, rng.randrange(40))
            zeros = sum(1 for c in w if c == 0)
            assert len(h.apply(w)) == 4 * zeros + 3 * (len(w) - zeros)

    def test_missing_letter(self):
        h = Morphism({0: Word((2, 3, 0, 1), 4)})
        with pytest.raises(ValueError):
            h.apply(W("01"))


class TestFourLetterImageInvariant:
    def test_palindromic_factors_of_images(self):
        # PalFac(h(t)) never grows beyond the five allowed palindromes.
        # Factors of a prefix are factors of the extension, so exact
        # equality at n = 1000 pins the set for every 1 <= n <= 1000
        # once the four letters all appear in h(t_1), which they do.
        h = Morphism({0: Word((2, 3, 0, 1), 4), 1: Word((3, 0, 1), 4)})
        singles = {Word((), 4)} | {Word((c,), 4) for c in range(4)}
        assert set(palindromic_factors(h.apply(thue_morse(1000)))) == singles
        for n in (1, 2, 3, 8):
            image = h.apply(thue_morse(n))
            assert set(palindromic_factors(image)) == singles
            assert sigma4().accepts(image)
