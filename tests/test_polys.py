import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from palfac.polys import (
    NoRealRootError,
    Polynomial,
    _is_prime,
    _primes_below,
    _roots_outside,
    cauchy_bound,
    exact_div,
    gcd,
    largest_real_root,
    squarefree_decomposition,
)

P = Polynomial
X = P([0, 1])


@st.composite
def products(draw):
    """A product of random integer factors, some repeated, with a constant."""
    f = P([draw(st.sampled_from([1, -1, 2, -3, 6]))])
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
        coeffs.append(draw(st.sampled_from([-2, -1, 1, 2])))
        f = f * P(coeffs) ** draw(st.integers(1, 2))
    return f


class TestArithmetic:
    def test_trim_and_degree(self):
        assert P([1, 2, 0, 0]).coeffs == (1, 2)
        assert P([]).degree == -1
        assert P([5]).degree == 0
        assert P([0, 0, 3]).degree == 2

    def test_ring_ops(self):
        a = P([1, 2, 3])
        b = P([-1, 1])
        assert a + b == P([0, 3, 3])
        assert a - a == P([])
        assert a * b == P([-1, -1, -1, 3])
        assert (b ** 3) == P([-1, 3, -3, 1])
        assert 2 * b == P([-2, 2])

    def test_evaluation_exact(self):
        p = P([-1, 0, 1])
        assert p(3) == 8
        assert p(Fraction(1, 2)) == Fraction(-3, 4)

    def test_exact_div_and_remainder(self):
        a = (X - P([3])) * (X + P([5]))
        assert exact_div(a, X - P([3])) == X + P([5])
        with pytest.raises(ValueError):
            exact_div(a, X - P([1]))

    def test_gcd_primitive_positive(self):
        a = (X - P([1])) * (X - P([2])) * 6
        b = (X - P([1])) * (X + P([7])) * -4
        assert gcd(a, b) == X - P([1])

    def test_content_and_primitive(self):
        p = P([-6, 0, -9])
        assert p.content() == -3
        assert p.primitive() == P([2, 0, 3])

    def test_x_multiplicity(self):
        assert P([0, 0, 0, 2, 1]).x_multiplicity() == 3
        assert P([1, 1]).x_multiplicity() == 0
        assert P([0, 0, 1]).shift_down(2) == P([1])
        with pytest.raises(ValueError):
            P([0, 1, 1]).shift_down(2)

    def test_str_round(self):
        assert str(P([-1, -1, 0, 0, 0, 0, 0, 1])) == "X^7 - X - 1"
        assert str(P([])) == "0"


class TestSquarefree:
    def test_decomposition_multiplicities(self):
        p = (X - P([1])) ** 3 * (X + P([2])) ** 2 * (X - P([5]))
        parts = dict()
        for q, m in squarefree_decomposition(p):
            parts[m] = q
        assert parts[3] == X - P([1])
        assert parts[2] == X + P([2])
        assert parts[1] == X - P([5])

    def test_squarefree_input_passthrough(self):
        p = P([-1, -1, 0, 0, 1])
        assert squarefree_decomposition(p) == [(p, 1)]


def _sym(f):
    return sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"))


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
class TestAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(products(), products(), products())
    def test_gcd(self, a, b, c):
        _, want = _sym(a * c).gcd(_sym(b * c)).primitive()
        assert gcd(a * c, b * c) == P(reversed([int(x) for x in want.all_coeffs()]))

    @settings(max_examples=60, deadline=None)
    @given(products(), products())
    def test_exact_division(self, a, b):
        assert exact_div(a * b, b) == a
        q, r = sympy.div(_sym(a), _sym(b), domain=sympy.QQ)
        integral = r.is_zero and all(x.is_integer for x in q.all_coeffs())
        if integral:
            assert exact_div(a, b) == P(reversed([int(x) for x in q.all_coeffs()]))
        else:
            with pytest.raises(ValueError):
                exact_div(a, b)

    @settings(max_examples=60, deadline=None)
    @given(products())
    def test_largest_real_root_contains_theirs(self, f):
        sqf = _sym(f).sqf_part()
        if sqf.count_roots() == 0:
            with pytest.raises(NoRealRootError):
                largest_real_root(f)
            return
        r = largest_real_root(f)
        lo, hi = _rational(r.lo), _rational(r.hi)
        assert sqf.count_roots(lo, hi) >= 1
        # nothing above hi: the only root in [hi, oo) may be hi itself
        assert sqf.count_roots(hi, None) == (1 if sqf.eval(hi) == 0 else 0)


class TestPrimes:
    def test_against_trial_division(self):
        primes = [n for n in range(2, 3000) if all(n % d for d in range(2, n))]
        assert [n for n in range(-3, 3000) if _is_prime(n)] == primes
        assert list(_primes_below(3000)) == primes[::-1]

    def test_modulus_lists_start_below_powers_of_two(self):
        assert list(islice(_primes_below(1 << 31), 2)) == [2 ** 31 - 1, 2 ** 31 - 19]
        assert next(_primes_below(1 << 61)) == 2 ** 61 - 1
        # a strong pseudoprime to the bases 2..23 is still composite here
        spsp = 149491 * 747451 * 34233211
        assert spsp == 3825123056546413051
        assert not _is_prime(spsp)

    def test_nothing_below_two(self):
        assert list(_primes_below(2)) == [] and list(_primes_below(0)) == []


class TestRealRoots:
    def test_linear_exact(self):
        r = largest_real_root(P([-2, 1]))
        assert r.lo == r.hi == 2
        r = largest_real_root(P([3, 2]))
        assert r.lo == Fraction(-3, 2)

    def test_plastic_number(self):
        r = largest_real_root(P([-1, 0, -1, 1]))
        assert r.width <= Fraction(1, 10 ** 12)
        assert abs(float(r) - 1.4655712318767682) < 1e-11

    def test_degree_seven_trinomial(self):
        r = largest_real_root(P([-1, -1, 0, 0, 0, 0, 0, 1]))
        assert r.width <= Fraction(1, 10 ** 12)
        assert abs(float(r) - 1.1127756842787055) < 1e-11

    def test_interval_straddles_sign_change(self):
        p = P([-1, -1, 0, 0, 0, 0, 0, 1])
        r = largest_real_root(p)
        assert p(r.lo) * p(r.hi) <= 0

    def test_largest_of_several(self):
        p = (X - P([1])) * (X + P([4])) * (X - P([3]))
        r = largest_real_root(p)
        assert r.contains(3) or abs(float(r) - 3) < 1e-11

    def test_root_at_a_midpoint_below_the_largest(self):
        # (X + 1)(X + 2): bisection from the bound 4 visits the root -2 first
        r = largest_real_root(P([2, 3, 1]))
        assert r.contains(-1) and not r.contains(-2)

    def test_no_real_root(self):
        with pytest.raises(NoRealRootError):
            largest_real_root(P([1, 0, 1]))
        with pytest.raises(NoRealRootError):
            largest_real_root(P([7]))

    def test_zero_root_via_x_factor(self):
        # X^2 (X^2 + 1): only real root is 0
        r = largest_real_root(P([0, 0, 1, 0, 1]))
        assert r.lo == r.hi == 0
        # X (X - 5): largest is 5
        r = largest_real_root(P([0, -5, 1]))
        assert float(r) == pytest.approx(5, abs=1e-11)

    def test_cauchy_bound_dominates(self):
        p = P([-10, 3, 1])
        b = cauchy_bound(p)
        roots = [-5, 2]
        assert all(abs(r) < b for r in roots)

    # the annihilators behind the registry's asymptotics rows: `palfac
    # asymptotics` prints these intervals, so they must not move
    @pytest.mark.parametrize("coeffs, lo, hi", [
        ([-1, -2, -3, -4, -4, -4, -3, 0, 3, 7, 8, 8, 8, 6, 3, -2, -5, -5, -5, -5, -4, -2,
          1, 1, 1, 1, 1, 1],
         Fraction(2447019607941, 2199023255552), Fraction(19576156863537, 17592186044416)),
        ([-1, -1, 0, 0, 1],
         Fraction(671111157781, 549755813888), Fraction(1342222315563, 1099511627776)),
        ([-1, -2, -2, -2, -3, 0, 0, 0, 0, 0, 1],
         Fraction(1505532482619, 1099511627776), Fraction(376383120655, 274877906944)),
        ([-1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 1],
         Fraction(1187932623787, 1099511627776), Fraction(296983155947, 274877906944)),
        ([-1, 0, 0, 0, -3, 0, -2, 0, -1, 0, 0, 0, 0, 0, 1],
         Fraction(1368373358429, 1099511627776), Fraction(684186679215, 549755813888)),
        ([-1, 0, -1, 1],
         Fraction(805706305391, 549755813888), Fraction(1611412610783, 1099511627776)),
    ], ids=["D(2,11)", "D(3,5)", "E(2,5)", "R(2,2,5)", "R(2,6,3)", "R(3,0,3)"])
    def test_registry_intervals_pinned(self, coeffs, lo, hi):
        r = largest_real_root(P(coeffs))
        assert (r.lo, r.hi) == (lo, hi)


class TestRootsOutside:
    def test_against_numpy(self):
        rng = random.Random(5)
        checked = 0
        while checked < 400:
            d = rng.randint(1, 11)
            coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice([-3, -1, 1, 2])]
            r = Fraction(rng.randint(1, 40), rng.randint(1, 16))
            moduli = np.abs(np.roots(coeffs[::-1]))
            if np.any(np.abs(moduli - float(r)) < 1e-6):
                continue
            assert _roots_outside(P(coeffs), r) == int(np.sum(moduli > float(r))), (coeffs, r)
            checked += 1

    def test_root_on_the_circle(self):
        assert _roots_outside(P([-1, 0, 0, 0, 0, 0, 1]), Fraction(1)) is None  # X^6 - 1
        assert _roots_outside(P([1, 0, 1]), Fraction(1)) is None  # +-i
        assert _roots_outside(P([1, 1]), Fraction(1)) is None  # -1: f loses its degree

    def test_pair_inverse_about_the_circle(self):
        # 2 and 1/2 map to z and -z: gcd(U, V) has no real root
        assert _roots_outside(P([2, -5, 2]), Fraction(1)) == 1
        assert _roots_outside(P([-8, 0, 0, 1]), Fraction(7, 4)) == 3
