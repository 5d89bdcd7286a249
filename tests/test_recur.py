import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from palfac.automaton import Dfa, minimize
from palfac.construct import (
    CapacityError,
    MaxDistinct,
    MaxLen,
    MaxLenByParity,
    build_direct,
)
from palfac.oracle import brute_count
from palfac.polys import Polynomial, exact_div
from palfac.recur import (
    _CACHE_ENTRIES,
    _gather_table,
    _lift,
    _verify_annihilates_matrix,
    CountingSystem,
    InconclusiveError,
    asymptotic_fit,
    largest_real_root,
    lda,
    matrix_min_poly,
    minimal_recurrence,
    sequence,
    transfer_matrix,
    window_apply,
)

P = Polynomial
X = P([0, 1])
XP = Polynomial.x_power
needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def build(spec):
    return minimize(build_direct(spec))


def fib_times_6(n):
    a, b = 0, 1
    for _ in range(n + 1):
        a, b = b, a + b
    return 6 * a


class TestTransferMatrix:
    def test_one_state_all_accepting(self):
        cs = transfer_matrix(Dfa([[0, 0]], 0, [0]))
        assert cs.M == [[2]]
        assert sequence(cs, 6) == [1, 2, 4, 8, 16, 32, 64]

    def test_row_sums_and_nonnegativity(self):
        for spec in (MaxDistinct(2, 8), MaxLen(3, 2), MaxLenByParity(2, 2, 5)):
            d = build(spec)
            cs = transfer_matrix(d)
            k = d.alphabet_size
            for row in cs.M:
                assert sum(row) == k
                assert all(x >= 0 for x in row)

    def test_dead_state_included(self):
        d = build(MaxLen(2, 2))
        cs = transfer_matrix(d)
        assert cs.size == d.state_count
        assert sum(cs.w) == d.accepting.sum()

    def test_start_vector(self):
        d = build(MaxDistinct(2, 8))
        cs = transfer_matrix(d)
        assert sum(cs.v) == 1
        assert cs.v[d.start] == 1

    def test_malformed_rows_rejected(self):
        with pytest.raises(ValueError):
            CountingSystem([[0, 0]], [1, 0], [1])
        with pytest.raises(ValueError):
            CountingSystem([[3]], [1], [1])
        with pytest.raises(ValueError):
            CountingSystem([[-1]], [1], [1])
        with pytest.raises(ValueError):
            CountingSystem([[0, 1], [1]], [1, 0], [1, 1])

    def test_table_is_the_transition_table(self):
        d = build(MaxLen(3, 2))
        cs = transfer_matrix(d)
        n, k = d.delta.shape
        assert cs.table.tolist() == [list(row) for row in d.delta] + [[n] * k]

    def test_sentinel_pads_short_rows(self):
        # state 0 reads one letter into 1 and one nowhere; state 1 none
        cs = CountingSystem([[1, 2], [2, 2]], [1, 0], [1, 1])
        assert cs.M == [[0, 1], [0, 0]]
        assert sequence(cs, 4) == [1, 1, 0, 0, 0]


def _power_terms(M, v, w, n_max):
    """v M^t w for t = 0..n_max, by plain Python-int matrix-vector products."""
    y, out = list(w), []
    for _ in range(n_max + 1):
        out.append(sum(a * b for a, b in zip(v, y)))
        y = [sum(m * x for m, x in zip(row, y)) for row in M]
    return out


def _dense_system(M, v, w, pad=0):
    """CountingSystem of a dense matrix: j once per unit of M[i][j], pad extra columns."""
    n = len(M)
    rows = [[j for j, m in enumerate(row) for _ in range(m)] for row in M]
    width = max(map(len, rows), default=0) + pad
    return CountingSystem([r + [n] * (width - len(r)) for r in rows], v, w)


class TestSequence:
    def test_matches_plain_matrix_powers(self):
        rng = random.Random(12)
        big = 2 ** 64  # w is ranked exactly: big and big + 1 must stay apart
        cases = [
            # same w, same successor sets, different multisets: 1*2+2 != 1+2*2
            ([[0, 0, 2, 1], [0, 0, 1, 2], [0, 0, 0, 0], [0, 0, 0, 0]],
             [1, 1, 0, 0], [0, 0, 1, 2]),
            ([[2, 1], [1, 0]], [1, 3], [big, big + 1]),
        ]
        for _ in range(150):  # DFA tables, half of them with a dead state
            n, k = rng.randrange(1, 12), rng.randrange(1, 4)
            delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
            if rng.random() < 0.5:
                delta.append([n] * k)
                delta[rng.randrange(n)][0] = n
            m = len(delta)
            accepting = [q for q in range(n) if rng.random() < 0.6]
            cs = transfer_matrix(Dfa(delta, rng.randrange(n), accepting))
            M = [[row.count(j) for j in range(m)] for row in delta]
            cases.append((M, list(cs.v), list(cs.w), cs))
        for _ in range(150):  # dense matrices with multiplicities
            n = rng.randrange(1, 9)
            M = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            v = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
            w = [rng.choice((0, 1, 1, 2, 7, big, big + 1)) for _ in range(n)]
            cases.append((M, v, w))
        for k in (1, 2, 3):  # one state, all accepting
            cases.append(([[k]], [1], [1], transfer_matrix(Dfa([[0] * k], 0, [0]))))
        cases.append(([[0, 0], [0, 0]], [1, 1], [1, 3],
                      CountingSystem(np.zeros((2, 0), dtype=np.int64), [1, 1], [1, 3])))
        for i, (M, v, w, *built) in enumerate(cases):
            cs = built[0] if built else _dense_system(M, v, w, pad=i % 3)
            n_max = {0: 80, 1: 80, 2: 0}.get(i, rng.randrange(81))
            assert sequence(cs, n_max) == _power_terms(M, v, w, n_max), (M, v, w)

    def test_first_term_reflects_start_acceptance(self):
        accepting = transfer_matrix(Dfa([[0, 0]], 0, [0]))
        rejecting = transfer_matrix(Dfa([[0, 0]], 0, []))
        assert sequence(accepting, 0) == [1]
        assert sequence(rejecting, 3) == [0, 0, 0, 0]

    def test_ternary_five_palindromes(self):
        cs = transfer_matrix(build(MaxDistinct(3, 5)))
        assert sequence(cs, 8) == [1, 3, 9, 27, 81, 42, 54, 66, 78]

    def test_fibonacci_scaled(self):
        cs = transfer_matrix(build(MaxLen(3, 2)))
        a = sequence(cs, 40)
        assert all(a[n] == fib_times_6(n) for n in range(3, 41))

    def test_powers_of_two_tail(self):
        cs = transfer_matrix(build(MaxLen(4, 1)))
        a = sequence(cs, 30)
        assert all(a[n] == 3 * 2 ** n for n in range(2, 31))

    def test_matches_oracle_small(self):
        for spec, n_max in ((MaxDistinct(2, 9), 12), (MaxLen(3, 2), 9),
                            (MaxLenByParity(2, 2, 5), 12)):
            cs = transfer_matrix(build_direct(spec))
            a = sequence(cs, n_max)
            for n in range(n_max + 1):
                assert a[n] == brute_count(spec, n).count

    def test_negative_rejected(self):
        cs = transfer_matrix(Dfa([[0, 0]], 0, [0]))
        with pytest.raises(ValueError):
            sequence(cs, -1)


class TestWindowApply:
    def test_geometric(self):
        a = [2 ** n for n in range(10)]
        q = P([-2, 1])
        assert all(window_apply(q, a, i) == 0 for i in range(9))

    def test_arithmetic(self):
        assert window_apply(P([-1, 1]), [1, 2, 3], 0) == 1

    def test_fibonacci_annihilated(self):
        a = [fib_times_6(n) for n in range(30)]
        q = P([-1, -1, 1])
        assert all(window_apply(q, a, i) == 0 for i in range(28))

    def test_out_of_range(self):
        a = [1, 2, 3]
        with pytest.raises(ValueError):
            window_apply(P([-2, 1]), a, 2)
        with pytest.raises(ValueError):
            window_apply(P([-2, 1]), a, -1)


class TestMatrixMinPoly:
    def test_scalar(self):
        assert matrix_min_poly(transfer_matrix(Dfa([[0, 0]], 0, [0]))) == P([-2, 1])

    def test_nilpotent_and_jordan(self):
        assert matrix_min_poly([[0, 1], [0, 0]]) == P([0, 0, 1])
        assert matrix_min_poly([[1, 1], [0, 1]]) == P([1, -2, 1])
        assert matrix_min_poly([[5, 0], [0, 5]]) == P([-5, 1])

    def test_ternary_short_palindrome_system(self):
        cs = transfer_matrix(build(MaxLen(3, 2)))
        expect = (XP(3) * P([-3, 1]) * P([-1, -1, 1]) * P([1, 2, 2, 1, 1]))
        assert matrix_min_poly(cs) == expect

    def test_even_odd_length_system(self):
        cs = transfer_matrix(build(MaxLenByParity(2, 2, 5)))
        expect = XP(6) * P([-2, 1]) * P([-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1])
        assert matrix_min_poly(cs) == expect

    def test_seed_deterministic(self):
        cs = transfer_matrix(build(MaxDistinct(3, 5)))
        assert matrix_min_poly(cs, seed=1) == matrix_min_poly(cs, seed=99)

    def test_annihilates_sequence_everywhere(self):
        cs = transfer_matrix(build(MaxDistinct(3, 5)))
        mp = matrix_min_poly(cs)
        a = sequence(cs, 60)
        assert all(window_apply(mp, a, i) == 0 for i in range(61 - mp.degree))

    def test_size_guard(self):
        table = [[i] for i in range(4001)]
        with pytest.raises(CapacityError):
            matrix_min_poly(CountingSystem(table, [1] + [0] * 4000, [1] * 4001))

    @pytest.mark.parametrize("entry, error", [
        (-1, ValueError), (-2 ** 63, ValueError), (-2 ** 63 - 1, ValueError),
        (-2 ** 64, ValueError),
        (2 ** 22, CapacityError),  # a row sum of 2^22 + 1 gathers
        (2 ** 62, CapacityError), (2 ** 63 - 1, CapacityError), (2 ** 63, CapacityError),
        (2 ** 64, CapacityError), (2 ** 100, CapacityError),
    ])
    def test_dense_entry_errors(self, entry, error):
        with pytest.raises(error):
            matrix_min_poly([[1, entry], [0, 1]])
        with pytest.raises(ValueError):  # the sign is checked first
            matrix_min_poly([[-1, entry], [0, 1]])

    def test_unsigned_array_is_read_exactly(self):
        with pytest.raises(CapacityError):
            matrix_min_poly(np.array([[1, 2 ** 63], [0, 1]], dtype=np.uint64))
        assert matrix_min_poly(np.array([[1, 1], [0, 1]], dtype=np.uint8)) == P([1, -2, 1])

    def test_tables_are_read_only(self):
        cs = transfer_matrix(build(MaxLen(3, 2)))
        for table in (cs.table, _gather_table(cs.M)):
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_dense_entries_become_repeated_gathers(self):
        table = _gather_table([[0, 2, 1], [0, 0, 0], [3, 0, 0]])
        assert table.tolist() == [[1, 1, 2], [3, 3, 3], [0, 0, 0], [3, 3, 3]]

    def test_lift_past_two_primes(self):
        # the constant term 1000 * 1001 * ... * 1007 needs 80 bits: three 31-bit primes
        expect = P([1])
        for lam in range(1000, 1008):
            expect = expect * P([-lam, 1])
        assert abs(expect.coeffs[0]) > (1 << 31) ** 2
        M = [[1000 + i if i == j else 0 for j in range(8)] for i in range(8)]
        assert matrix_min_poly(M) == expect


class TestLift:
    """_lift on synthetic (prime, register) streams."""

    def test_shorter_register_is_skipped(self):
        offered = []
        q = _lift(zip((101, 103, 107), ([5, 1], [1], [5, 1])),
                  lambda q: offered.append(q) or True, lambda L: 10)
        assert q == P([5, 1]) and offered == [q]

    def test_longer_register_resets(self):
        # 5000 = 56 mod 103 = 78 mod 107; the length-0 register mod 101 is dropped
        q = _lift(zip((101, 103, 107), ([3], [56, 1], [78, 1])), lambda q: True, lambda L: 10 ** 4)
        assert q == P([5000, 1])

    def test_accept_is_first_called_at_the_second_prime(self):
        drawn, calls = [], []

        def registers():
            for p in (101, 103, 107):
                drawn.append(p)
                yield p, [1, 1]

        assert _lift(registers(), lambda q: calls.append(len(drawn)) or True,
                     lambda L: 10) == P([1, 1])
        assert calls == [2]

    def test_gives_up_past_the_bound(self):
        # 2 * 10^4 + 1 lies between 101 * 103 and 101 * 103 * 107
        offered, lengths = [], []
        q = _lift(((p, [1, 1]) for p in (101, 103, 107, 109, 113)),
                  lambda q: offered.append(q) or False,
                  lambda L: lengths.append(L) or 10 ** 4)
        assert q is None
        assert len(offered) == 2 and set(lengths) == {1}


class TestLda:
    def test_already_minimal(self):
        a = [2 ** n for n in range(20)]
        assert lda(P([-2, 1]), a) == (P([-2, 1]), 0)

    def test_finite_language_strips_to_degree_zero(self):
        # D(2,8) has no words of length 9 or more
        cs = transfer_matrix(build(MaxDistinct(2, 8)))
        a = sequence(cs, 400)
        assert lda(matrix_min_poly(cs), a) == (P([1]), 9)
        assert minimal_recurrence(a) == (P([1]), 9)

    def test_ternary_five_palindromes(self):
        cs = transfer_matrix(build(MaxDistinct(3, 5)))
        a = sequence(cs, 60)
        mp = matrix_min_poly(cs)
        q, n0 = lda(mp, a)
        assert q == P([-1, -1, 0, 0, 1])
        assert n0 == 5

    def test_longest_even_odd_caps(self):
        cs = transfer_matrix(build(MaxLen(2, 5)))
        a = sequence(cs, 120)
        q, n0 = lda(matrix_min_poly(cs), a)
        assert q == P([-1, -2, -2, -2, -3, 0, 0, 0, 0, 0, 1])
        assert n0 == 10

    def test_output_divides_min_poly(self):
        for spec in (MaxDistinct(3, 5), MaxLen(3, 2), MaxLenByParity(3, 0, 3)):
            cs = transfer_matrix(build(spec))
            a = sequence(cs, 80)
            mp = matrix_min_poly(cs)
            q, n0 = lda(mp, a)
            exact_div(mp, q)  # raises unless q divides mp
            assert q.lead > 0 and q.content() == 1
            assert n0 >= 0

    def test_rejects_non_annihilator(self):
        a = [2 ** n for n in range(20)]
        with pytest.raises(ValueError):
            lda(P([-3, 1]), a)

    def test_rejects_short_sequence(self):
        p = P([-2, 1]) * P([-1, 1]) * P([1, 1]) * P([1, 0, 1])
        assert lda(p, [2 ** n for n in range(6)]) == (P([-2, 1]), 0)
        with pytest.raises(InconclusiveError):
            lda(p, [2 ** n for n in range(4)])

    def test_needs_only_degree_many_terms(self):
        # deg p = 13, so twice the degree exceeds the 13 and 14 terms given
        cs = transfer_matrix(build(MaxDistinct(3, 5)))
        mp = matrix_min_poly(cs)
        assert lda(mp, sequence(cs, 12)) == (P([-1, -1, 0, 0, 1]), 5)
        assert lda(mp, sequence(cs, 13)) == (P([-1, -1, 0, 0, 1]), 5)
        with pytest.raises(InconclusiveError):
            lda(mp, sequence(cs, 11))


class TestMinimalRecurrence:
    def test_geometric(self):
        assert minimal_recurrence([2 ** n for n in range(16)]) == (P([-2, 1]), 0)

    def test_no_even_ternary_palindromes(self):
        cs = transfer_matrix(build(MaxLenByParity(3, 0, 3)))
        a = sequence(cs, 60)
        q, n0 = minimal_recurrence(a)
        assert q == P([-1, 0, -1, 1])
        assert n0 <= 4
        # r(n) = r(n-1) + r(n-3) holds from 7 on
        assert all(a[n] == a[n - 1] + a[n - 3] for n in range(7, 61))

    def test_agrees_with_factor_stripping(self):
        for spec, n_terms in ((MaxDistinct(3, 5), 80), (MaxLen(3, 2), 60),
                              (MaxLen(2, 5), 120), (MaxLenByParity(2, 2, 5), 80)):
            cs = transfer_matrix(build(spec))
            a = sequence(cs, n_terms)
            route_a = lda(matrix_min_poly(cs), a)
            route_b = minimal_recurrence(a)
            assert route_a == route_b

    def test_eventually_zero(self):
        q, n0 = minimal_recurrence([5, 3, 0, 0, 0, 0, 0, 0, 0, 0])
        assert q == P([1])
        assert n0 == 2

    def test_random_recurrences_recovered(self):
        rng = random.Random(90125)
        for _ in range(20):
            deg = rng.randrange(1, 5)
            coeffs = [rng.randrange(-3, 4) for _ in range(deg)] + [1]
            while coeffs[0] == 0:
                coeffs[0] = rng.randrange(-3, 4)
            q = P(coeffs)
            a = [rng.randrange(-5, 6) for _ in range(deg)]
            for n in range(deg, 40):
                a.append(-sum(coeffs[j] * a[n - deg + j] for j in range(deg)))
            got, n0 = minimal_recurrence(a)
            assert got.degree <= deg
            assert all(window_apply(got, a, i) == 0
                       for i in range(n0, 40 - got.degree))

    @staticmethod
    def _order_14(seed: int, transient: int):
        """40 terms of a random degree-14 recurrence, the first terms perturbed."""
        rng = random.Random(seed)
        low = [rng.choice([-1, 1])] + [rng.randrange(-2, 3) for _ in range(13)]
        a = [rng.randrange(-9, 10) for _ in range(14)]
        while len(a) < 40:
            a.append(-sum(c * a[len(a) - 14 + j] for j, c in enumerate(low)))
        for i in range(transient):
            a[i] += rng.choice([-2, -1, 1, 2])
        return P(low + [1]), a

    @pytest.mark.parametrize("seed", range(6))
    def test_order_past_a_quarter_of_the_terms(self, seed):
        # order 14 > 40/4, with the register length 14 + n0 at most 40/2
        gen, a = self._order_14(seed, transient=seed)
        assert minimal_recurrence(a) == (gen, seed)

    def test_register_past_half_the_terms_is_inconclusive(self):
        _, a = self._order_14(0, transient=7)
        with pytest.raises(InconclusiveError):
            minimal_recurrence(a)

    def test_inconclusive_on_random_noise(self):
        rng = random.Random(7)
        a = [rng.randrange(1, 10 ** 6) for _ in range(24)]
        with pytest.raises(InconclusiveError):
            minimal_recurrence(a)

    def test_too_short(self):
        with pytest.raises(InconclusiveError):
            minimal_recurrence([1, 2])


class TestAsymptoticFit:
    def test_exact_geometric(self):
        fit = asymptotic_fit([3 * 2 ** n for n in range(40)], 2.0)
        assert fit.c == 3.0
        assert fit.multiplicity == 1
        assert fit.converged and fit.reason is None

    def test_single_root_with_deflation(self):
        cs = transfer_matrix(build(MaxDistinct(3, 5)))
        a = sequence(cs, 120)
        q = P([-1, -1, 0, 0, 1])
        fit = asymptotic_fit(a, largest_real_root(q), annihilator=q)
        assert fit.converged
        assert abs(fit.c - 16.07007) / 16.07007 < 0.01

    def test_redundant_factors_change_nothing(self):
        a = sequence(transfer_matrix(build(MaxDistinct(3, 5))), 120)
        q = P([-1, -1, 0, 0, 1])
        fit = asymptotic_fit(a, largest_real_root(q), annihilator=q)
        padded = q * P([-1, 1]) * XP(2)
        got = asymptotic_fit(a, largest_real_root(padded), annihilator=padded)
        assert (got.multiplicity, got.converged) == (fit.multiplicity, fit.converged)
        assert got.c == pytest.approx(fit.c, rel=1e-11)

    def test_plus_minus_pair(self):
        cs = transfer_matrix(build(MaxLenByParity(2, 2, 5)))
        a = sequence(cs, 400)
        q = P([-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1])
        fit = asymptotic_fit(a, largest_real_root(q), annihilator=q, split_parity=True)
        assert fit.converged
        assert fit.c is None
        assert abs(fit.c1 - 15.991809) / 15.991809 < 0.01
        assert abs(abs(fit.c2) - 0.023895) / 0.023895 < 0.10

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            asymptotic_fit([1] * 40, 0.9)

    def test_alpha_must_be_the_largest_root(self):
        with pytest.raises(ValueError):
            asymptotic_fit([2 ** n + 1 for n in range(30)], 1)

    def test_non_convergence_reported_not_raised(self):
        # alternating contamination as strong as the main term
        a = [int(2 ** n + (-2) ** n) + 1 for n in range(60)]
        fit = asymptotic_fit(a, 2.0)
        assert not fit.converged
        assert "2 roots" in fit.reason

    def test_polynomial_growth(self):
        # n^2 + 1: a triple pole at 1
        fit = asymptotic_fit([n * n + 1 for n in range(40)], 1)
        assert (fit.alpha, fit.multiplicity, fit.c, fit.converged) == (1.0, 3, 1.0, True)

    def test_double_pole(self):
        # (n + 1) 3^n + 5 ~ n 3^n
        fit = asymptotic_fit([(n + 1) * 3 ** n + 5 for n in range(40)], 3)
        assert (fit.multiplicity, fit.c, fit.converged) == (2, 1.0, True)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.lists(st.integers(-3, 3), max_size=2),
           st.integers(1, 4), st.integers(-9, 9), st.booleans())
    def test_leading_coefficient_of_polynomial_times_power(self, alpha, low, lead, b, negative):
        # a(n) = (lead n^(m-1) + lower powers) alpha^n + b beta^n, |beta| < alpha
        poly = low + [lead]
        beta = 1 - alpha if negative else alpha - 1
        a = [sum(c * n ** j for j, c in enumerate(poly)) * alpha ** n + b * beta ** n
             for n in range(40)]
        fit = asymptotic_fit(a, alpha)
        assert (fit.multiplicity, fit.c, fit.converged) == (len(poly), lead, True)

    def test_rotated_roots_block_dominance(self):
        # roots 2, 2w, 2w^2 (w a cube root of unity) share alpha's modulus
        fit = asymptotic_fit([3 * 2 ** n if n % 3 == 0 else 0 for n in range(40)], 2)
        assert not fit.converged
        assert "3 roots" in fit.reason


class TestDominantRootReexport:
    def test_certified_interval(self):
        r = largest_real_root(P([-1, -1, 0, 0, 1]))
        assert abs(float(r) - 1.2207440846) < 1e-9
        assert r.width <= 10 ** -12 or r.lo == r.hi


# ---------------------------------------------------------------------------
# differential checks against exact pure-Python references

def exact_eval(p, M):
    """p(M) by Horner over Python integers."""
    n = len(M)
    H = [[0] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        H = [[sum(M[i][k] * H[k][j] for k in range(n)) + (c if i == j else 0)
              for j in range(n)] for i in range(n)]
    return H


def factor_list(p):
    """[(irreducible factor, multiplicity)] of p over the integers, by sympy."""
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x))
    return [(P(reversed([int(c) for c in f.all_coeffs()])), m) for f, m in factors]


def exact_min_poly(M):
    """Lowest-degree monic divisor of the characteristic polynomial killing M."""
    n = len(M)
    # Faddeev-LeVerrier: exact over the integers
    coeffs = [0] * n + [1]
    Mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        Mk = [[sum(M[i][t] * Mk[t][j] for t in range(n)) + (coeffs[n - k + 1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        trace = sum(M[i][t] * Mk[t][i] for i in range(n) for t in range(n))
        coeffs[n - k] = Fraction(-trace, k)
    charpoly = P([int(c) for c in coeffs])
    factors = factor_list(charpoly)
    best = charpoly
    for exps in _exponent_choices([m for _, m in factors]):
        cand = P([1])
        for (f, _), e in zip(factors, exps):
            cand = cand * f ** e
        if cand.degree < best.degree and not any(map(any, exact_eval(cand, M))):
            best = cand
    return best


def _exponent_choices(mults):
    if not mults:
        yield ()
        return
    for rest in _exponent_choices(mults[1:]):
        for e in range(mults[0] + 1):
            yield (e,) + rest


def certified(p, M):
    return _verify_annihilates_matrix(p, _gather_table(M))


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestGatherCertificate:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    def test_agrees_with_exact_evaluation(self, M, coeffs):
        p = P(coeffs)
        assert certified(p, M) == (not p.is_zero() and not any(map(any, exact_eval(p, M))))

    @needs_sympy
    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.data())
    def test_minimal_polynomial_accepted_and_perturbations_rejected(self, M, data):
        mp = exact_min_poly(M)
        assert certified(mp, M)
        assert matrix_min_poly(M) == mp
        i = data.draw(st.integers(0, mp.degree - 1))
        delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
        assert not certified(mp + XP(i, delta), M)
        for f, _ in factor_list(mp):
            assert not certified(exact_div(mp, f), M)

    @needs_sympy
    def test_wide_rows_force_reduction(self):
        # with 2^8 gathers a row, entries of H pass 2^64 by the fifth
        # Horner step modulo a prime unless residues are reduced inside the
        # loop; the bound of about 2^96 takes the check past 2^64 to primes
        R = 2 ** 8
        M = [[R - 5 + i if j == i else int(j > i) for j in range(6)] for i in range(6)]
        mp = exact_min_poly(M)
        assert mp.degree == 6
        assert sum(map(abs, mp.coeffs)) * R ** 6 > 2 ** 95
        assert certified(mp, M)
        assert not certified(mp + P([1]), M)
        assert not certified(mp + XP(1, -1), M)

    def test_residue_modulo_the_ring_is_not_enough(self):
        # mp + 2^64 X^i agrees with mp modulo 2^64, the first modulus
        M = [[2, 1, 0], [0, 2, 0], [1, 0, 3]]
        mp = P([-12, 16, -7, 1])  # (X - 2)^2 (X - 3)
        assert certified(mp, M)
        for i in range(mp.degree + 1):
            for k in (1, -1, 3):
                assert not certified(mp + XP(i, k << 64), M)

    def test_every_column_block_is_checked(self):
        # a 299-cycle and a state with a weight-2 self-loop: X^299 - 1
        # kills every column but the last, which lands in the tail block
        n = 300
        M = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            M[i][(i + 1) % (n - 1)] = 1
        M[n - 1][n - 1] = 2
        assert n > _CACHE_ENTRIES // (n + 1)
        cycle = XP(n - 1) - P([1])
        assert certified(cycle * P([-2, 1]), M)
        assert not certified(cycle, M)

    def test_rejection_survives_optimized_mode(self):
        code = (
            "from palfac.recur import _verify_annihilates_matrix, transfer_matrix\n"
            "from palfac.automaton import minimize\n"
            "from palfac.construct import MaxLen, build_direct\n"
            "from palfac.polys import Polynomial as P\n"
            "assert not __debug__\n"
            "cs = transfer_matrix(minimize(build_direct(MaxLen(3, 2))))\n"
            "good = (P.x_power(3) * P([-3, 1]) * P([-1, -1, 1]) * P([1, 2, 2, 1, 1]))\n"
            "bad = good + P([1])\n"
            "print(_verify_annihilates_matrix(good, cs.table),"
            " _verify_annihilates_matrix(bad, cs.table))\n"
        )
        import palfac
        src = str(Path(palfac.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split() == ["True", "False"]


dfas = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(2, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k), min_size=n, max_size=n)),
    st.sets(st.integers(0, n - 1))))


def v_mn_w(cs, n):
    """v . M^n . w over Python integers on the dense matrix."""
    M, x = cs.M, list(cs.v)
    for _ in range(n):
        x = [sum(x[i] * M[i][j] for i in range(len(M))) for j in range(len(M))]
    return sum(xi * wi for xi, wi in zip(x, cs.w))


# like dfas, but a target may be the sentinel n: the letter leads nowhere
partial_tables = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, n), min_size=k, max_size=k), min_size=n, max_size=n)),
    st.sets(st.integers(0, n - 1))))


class TestGatherTable:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(dfas, partial_tables))
    def test_sequence_equals_dense_products(self, system):
        n, table, accepting = system
        cs = CountingSystem(table, [1] + [0] * (n - 1), [int(i in accepting) for i in range(n)])
        assert sequence(cs, 12) == [v_mn_w(cs, t) for t in range(13)]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(dfas, partial_tables))
    def test_table_and_dense_matrix_agree(self, system):
        n, table, _ = system
        cs = CountingSystem(table, [1] + [0] * (n - 1), [1] * n)
        assert matrix_min_poly(cs) == matrix_min_poly(cs.M)


class TestRoutesDifferential:
    @settings(max_examples=80, deadline=None)
    @given(dfas)
    def test_sequence_route_equals_matrix_route(self, dfa):
        n, delta, accepting = dfa
        cs = transfer_matrix(Dfa(delta, 0, accepting))
        a = sequence(cs, 4 * n + 12)
        assert minimal_recurrence(a) == lda(matrix_min_poly(cs), a)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=4, max_size=4),
           st.lists(st.integers(-50, 50), max_size=6))
    def test_transients_cost_no_degree(self, low, init, transient):
        gen = P(low + [1])
        d = gen.degree
        a = init[:d]
        while len(a) < 40:
            a.append(-sum(c * a[len(a) - d + j] for j, c in enumerate(low)))
        a[:len(transient)] = transient
        q, n0 = minimal_recurrence(a)
        assert q.degree <= gen.degree
        assert all(window_apply(q, a, i) == 0 for i in range(n0, len(a) - q.degree))
