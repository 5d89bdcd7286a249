import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_words import _source_mutant

try:
    import sympy
except ImportError:
    sympy = None

import palfac.recur
from palfac.automaton import Dfa, minimize
from palfac.construct import (
    CapacityError,
    MaxDistinct,
    MaxLen,
    MaxLenByParity,
    build_direct,
)
from palfac.oracle import brute_count
from palfac.polys import Polynomial, _primes_below, exact_div, largest_real_root
from palfac.recur import (
    _CACHE_ENTRIES,
    _MAX_MINPOLY_STATES,
    _berlekamp_massey,
    _gather_table,
    _gathers,
    _lift,
    _projection_terms,
    _spanning_columns,
    _step,
    _verify_annihilates_matrix,
    CountingSystem,
    InconclusiveError,
    asymptotic_fit,
    lda,
    matrix_min_poly,
    minimal_recurrence,
    sequence,
    transfer_matrix,
    window_apply,
)
from palfac.reproduce import MIN_POLYS

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
        assert cs.M.tolist() == [[2]]
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

    @pytest.mark.parametrize("table,v,w", [
        ([[0.9, 0.2]], [1], [2]),
        (np.array([[0.0, 0.0]]), [1], [2]),
        ([[0, 0]], [1.5], [2]),
        ([[0, 0]], [1], np.array([2.7])),
        ([[0.9, 0.2]], [1.5], [2.7]),
    ], ids=["float table", "float ndarray table", "float v", "float ndarray w", "all float"])
    def test_non_integer_entries_rejected(self, table, v, w):
        # a truncating read took the last case as table [[0, 0]], v = (1,), w = (2,)
        with pytest.raises(ValueError, match="must be integers"):
            CountingSystem(table, v, w)

    def test_table_is_the_transition_table(self):
        d = build(MaxLen(3, 2))
        cs = transfer_matrix(d)
        n, k = d.delta.shape
        assert cs.table.tolist() == [list(row) for row in d.delta] + [[n] * k]

    def test_sentinel_pads_short_rows(self):
        # state 0 reads one letter into 1 and one nowhere; state 1 none
        cs = CountingSystem([[1, 2], [2, 2]], [1, 0], [1, 1])
        assert cs.M.tolist() == [[0, 1], [0, 0]]
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


# signed entries, some at or past the limb and int64 edges
limb_entries = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2 ** 47, 2 ** 48, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 128, 2 ** 131 + 5])
    .flatmap(lambda x: st.sampled_from([x, -x, x - 1, 1 - x])),
    st.integers(-2 ** 130, 2 ** 130),
)


@st.composite
def limb_systems(draw):
    """(M, v, w, table) with the table of width R in 0..3 or above 8, padding included."""
    n = draw(st.integers(1, 4))
    R = draw(st.sampled_from([0, 1, 2, 3, 9, 12]))
    table = draw(st.lists(st.lists(st.integers(0, n), min_size=R, max_size=R),
                          min_size=n, max_size=n))
    M = [[row.count(j) for j in range(n)] for row in table]
    v = draw(st.lists(limb_entries, min_size=n, max_size=n))
    w = draw(st.lists(limb_entries, min_size=n, max_size=n))
    return M, v, w, np.array(table, dtype=np.int64).reshape(n, R)


def _powers(base, sign, n_max):
    return [sign * base ** t for t in range(n_max + 1)]


# one state, a(t) = sign R^t, whose terms cross every limb edge
BOUNDARY = [(R, sign) for R in (2, 3, 9) for sign in (1, -1)]


class TestLimbPlanes:
    @settings(max_examples=150, deadline=None)
    @given(limb_systems(), st.integers(0, 300))
    def test_terms_equal_plain_matrix_powers(self, system, n_max):
        M, v, w, table = system
        assert sequence(CountingSystem(table, v, w), n_max) == _power_terms(M, v, w, n_max)

    @pytest.mark.parametrize("entries", [1, 7, 64])
    def test_column_blocks_split_steps_and_carries(self, monkeypatch, entries):
        # every plane, projection vector and Horner matrix here fits one
        # block of the default size
        rng = random.Random(entries)
        M = [[rng.choice((0, 1, 1, 2, 3)) for _ in range(6)] for _ in range(6)]
        v = [rng.randrange(-5, 6) for _ in range(6)]
        w = [rng.choice((-1, 1)) * rng.randrange(2 ** 140) for _ in range(6)]
        dfa = transfer_matrix(build(MaxDistinct(2, 9)))
        whole, mp = sequence(dfa, 300), matrix_min_poly(dfa)
        steps = _counted(monkeypatch, "_step")
        monkeypatch.setattr(palfac.recur, "_CACHE_ENTRIES", entries)
        assert sequence(_dense_system(M, v, w), 300) == _power_terms(M, v, w, 300)
        assert sequence(dfa, 300) == whole
        assert matrix_min_poly(dfa) == mp
        # limb planes, projection vectors and Horner matrices each ran in
        # several scratch blocks, and the Horner matrices in column blocks
        # of at most max(1, entries // 100) columns
        split = {(y.dtype.name, y.ndim) for gathers, y, out, buf in steps
                 if len(gathers) > 1 and len(buf) == max(1, entries // buf[0].size)}
        assert split == {("int64", 2), ("int64", 1), ("uint64", 2)}
        widths = {y.shape[1] for _, y, _, _ in steps if y.dtype == np.uint64}
        assert max(widths) == max(1, entries // 100)

    @pytest.mark.parametrize("R,sign", BOUNDARY)
    def test_one_state_crosses_every_limb_edge(self, R, sign):
        cs = CountingSystem([[0] * R], [1], [sign])
        assert sequence(cs, 400) == _powers(R, sign, 400)

    @pytest.mark.parametrize("func,old,new", [
        # the top limb is never split into a new column: it wraps past 2^63
        ("iter_sequence", "if np.abs(y[:, -1]).max() >= 1 << B:", "if False:"),
        # the carry waits for the bound a step has already reached: past
        # 2^63 at width 9, while at width 2 the late step still fits
        ("iter_sequence", "while R * bound >= 1 << 62:", "while bound >= 1 << 62:"),
        # the kernel drops each row's last gather: a(t) = +-1 at width 2
        ("_step", "for g in rest:", "for g in rest[:-1]:"),
    ], ids=["no top split", "carry a step late", "skip the last gather"])
    def test_mutants_are_caught(self, monkeypatch, func, old, new):
        mutant = _source_mutant(getattr(palfac.recur, func), old, new)
        monkeypatch.setattr(palfac.recur, func, mutant)
        assert any(sequence(CountingSystem([[0] * R], [1], [sign]), 400) != _powers(R, sign, 400)
                   for R, sign in BOUNDARY)

    def test_limbs_hold_under_optimized_python(self):
        code = (
            "from palfac.recur import CountingSystem, sequence\n"
            "assert not __debug__\n"
            "for R in (2, 3, 9):\n"
            "    for sign in (1, -1):\n"
            "        a = sequence(CountingSystem([[0] * R], [1], [sign]), 400)\n"
            "        print(a == [sign * R ** t for t in range(401)])\n"
            "big = -(2 ** 130) + 7\n"
            "a = sequence(CountingSystem([[1, 1, 0], [0, 1, 1]], [2, -3], [big, 5]), 300)\n"
            "y, b = [big, 5], []\n"
            "for _ in range(301):\n"
            "    b.append(2 * y[0] - 3 * y[1])\n"
            "    y = [2 * y[1] + y[0], 2 * y[1] + y[0]]\n"
            "print(a == b)\n"
        )
        src = str(Path(palfac.recur.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split() == ["True"] * 7


@st.composite
def gather_tables(draw):
    """A gather table with its sentinel row, of width 0..3 or above 8, padding included."""
    n = draw(st.integers(1, 6))
    R = draw(st.sampled_from([0, 1, 2, 3, 9, 12]))
    rows = draw(st.lists(st.lists(st.integers(0, n), min_size=R, max_size=R),
                         min_size=n, max_size=n))
    return CountingSystem(np.array(rows, dtype=np.int64).reshape(n, R), [0] * n, [0] * n).table


class TestStep:
    @settings(max_examples=150, deadline=None)
    @given(gather_tables(), st.sampled_from([1, 2, 5, 64, 1 << 16]), st.integers(1, 4),
           st.data())
    def test_gathers_give_the_python_int_product(self, table, entries, width, data):
        n = len(table) - 1

        def draw(lo, hi, columns):
            rows = data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=columns,
                                               max_size=columns), min_size=n, max_size=n))
            return rows + [[0] * columns]

        # an int64 vector, a uint64 matrix of columns (wrapping modulo
        # 2^64) and an int64 limb plane, each with its zero sentinel row
        for rows, dtype, modulus, vector in (
                (draw(-2 ** 40, 2 ** 40, 1), np.int64, None, True),
                (draw(0, 2 ** 64 - 1, width), np.uint64, 2 ** 64, False),
                (draw(-2 ** 50, 2 ** 50, width), np.int64, None, False)):
            y = np.array(rows, dtype=dtype)
            y = y[:, 0].copy() if vector else y
            with patch.object(palfac.recur, "_CACHE_ENTRIES", entries):
                gathers, out, buf = _gathers(table, y)
            out.fill(7)
            buf.fill(7)
            assert _step(gathers, y, out, buf) is out
            want = [[sum(rows[j][c] for j in table[i].tolist()) for c in range(len(rows[0]))]
                    for i in range(n)]
            if modulus:
                want = [[x % modulus for x in row] for row in want]
            got = out.reshape(n + 1, -1)
            assert got[:n].tolist() == want
            assert not got[n].any()

    @settings(max_examples=60, deadline=None)
    @given(gather_tables(), st.data())
    def test_projection_terms_are_python_int_projections(self, table, data):
        p = next(_primes_below(1 << 31))
        n = len(table) - 1
        M = [[row.count(j) for j in range(n)] for row in table[:n].tolist()]
        u, x = (data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
                for _ in range(2))
        want = [sum(map(mul, u, y)) % p for y in itertools.islice(krylov(M, x), 12)]
        assert _projection_terms(table, u, x, 12, p) == want


class TestTermBudget:
    def test_plane_is_held_to_the_budget_before_the_first_term(self, monkeypatch):
        # one state and the zero sentinel, width 2, 48-bit limbs: 47 steps take
        # 48 bits, 2 x (1 + 1) limbs; 48 steps take 49 bits, 2 x (2 + 1) limbs,
        # past twice a budget of 2
        cs = CountingSystem([[0, 0]], [1], [1])
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "2")
        assert list(palfac.recur.iter_sequence(cs, 47)) == _powers(2, 1, 47)
        terms = palfac.recur.iter_sequence(cs, 48)
        with pytest.raises(CapacityError, match=r"2 x 3 limb plane of terms 0\.\.48 "):
            next(terms)

    def test_list_is_held_to_the_budget(self, monkeypatch):
        # the plane takes 2 x (1 + 1) limbs, within twice a budget of 2, and
        # the list of three terms 3 x (1 + 1), past it
        cs = CountingSystem([[0, 0]], [1], [1])
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "2")
        assert list(palfac.recur.iter_sequence(cs, 2)) == [1, 2, 4]
        with pytest.raises(CapacityError, match=r"3 x 2 limb list of terms 0\.\.2 "):
            sequence(cs, 2)
        assert sequence(cs, 1) == [1, 2]


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
        for table in (cs.table, _gather_table(cs.M), cs.M):
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
        # 5000 = 51 mod 101 = 78 mod 107; the first offer, from 101 alone, is
        # rejected, and the length-0 register mod 103 must not join the next
        offered = []
        q = _lift(zip((101, 103, 107), ([51, 1], [1], [78, 1])),
                  lambda q: offered.append(q) or len(offered) > 1, lambda L: 10 ** 4)
        assert q == P([5000, 1]) and offered == [P([-50, 1]), q]

    def test_longer_register_resets(self):
        # 5000 = 56 mod 103 = 78 mod 107; the length-0 register mod 101 is dropped
        q = _lift(zip((101, 103, 107), ([3], [56, 1], [78, 1])),
                  lambda q: q == P([5000, 1]), lambda L: 10 ** 4)
        assert q == P([5000, 1])

    def test_accept_is_first_called_at_the_first_prime(self):
        drawn, calls = [], []

        def registers():
            for p in (101, 103, 107):
                drawn.append(p)
                yield p, [1, 1]

        assert _lift(registers(), lambda q: calls.append(len(drawn)) or True,
                     lambda L: 10) == P([1, 1])
        assert calls == [1]

    def test_gives_up_past_the_bound(self):
        # 2 * 10^4 + 1 lies between 101 * 103 and 101 * 103 * 107
        offered, lengths = [], []
        q = _lift(((p, [1, 1]) for p in (101, 103, 107, 109, 113)),
                  lambda q: offered.append(q) or False,
                  lambda L: lengths.append(L) or 10 ** 4)
        assert q is None
        assert len(offered) == 3 and set(lengths) == {1}


def _counted(monkeypatch, name):
    """Calls of palfac.recur's function name, appended to the list returned."""
    calls = []
    func = getattr(palfac.recur, name)

    def counted(*args):
        calls.append(args)
        return func(*args)

    monkeypatch.setattr(palfac.recur, name, counted)
    return calls


class TestFirstPrime:
    """Both routes stop at the first prime whose lift passes the exact check."""

    # c lies above half of p = 2^61 - 1, the sequence route's first prime,
    # so the lift from p alone is X - (c - p), not X - c
    C = 2 ** 60 + 3

    def test_matrix_route_runs_one_projection_and_one_certificate(self, monkeypatch):
        cs = transfer_matrix(build(MaxDistinct(2, 11)))
        for M in (cs, cs.M):
            projections = _counted(monkeypatch, "_min_poly_mod")
            certificates = _counted(monkeypatch, "_verify_annihilates_matrix")
            assert matrix_min_poly(M).degree == 49
            assert len(projections) == len(certificates) == 1
            monkeypatch.undo()

    def test_sequence_route_runs_one_pass(self, monkeypatch):
        a = sequence(transfer_matrix(build(MaxDistinct(2, 11))), 399)
        passes = _counted(monkeypatch, "_berlekamp_massey")
        q, n0 = minimal_recurrence(a)
        assert len(passes) == 1 and (q.degree, n0) == (27, 15)

    def test_wrong_first_lift_is_rejected(self, monkeypatch):
        a = [self.C ** k for k in range(8)]
        passes = _counted(monkeypatch, "_berlekamp_massey")
        assert minimal_recurrence(a) == (P([-self.C, 1]), 0)
        assert len(passes) == 2

    def test_a_lift_taken_unchecked_fails(self, monkeypatch):
        source = inspect.getsource(_lift)
        assert source.count("if accept(q):") == 1
        namespace = dict(vars(palfac.recur))
        exec(source.replace("if accept(q):", "if True:"), namespace)
        monkeypatch.setattr(palfac.recur, "_lift", namespace["_lift"])
        assert minimal_recurrence([self.C ** k for k in range(8)]) != (P([-self.C, 1]), 0)


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


def _fit(a, alpha):
    """asymptotic_fit with the sequence's own minimal recurrence as the annihilator."""
    return asymptotic_fit(a, alpha, annihilator=minimal_recurrence(a)[0])


class TestAsymptoticFit:
    def test_exact_geometric(self):
        fit = _fit([3 * 2 ** n for n in range(40)], 2.0)
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
            _fit([1] * 40, 0.9)

    def test_alpha_must_be_the_largest_root(self):
        with pytest.raises(ValueError):
            _fit([2 ** n + 1 for n in range(30)], 1)

    def test_non_convergence_reported_not_raised(self):
        # alternating contamination as strong as the main term
        a = [int(2 ** n + (-2) ** n) + 1 for n in range(60)]
        fit = _fit(a, 2.0)
        assert not fit.converged
        assert "2 roots" in fit.reason

    def test_polynomial_growth(self):
        # n^2 + 1: a triple pole at 1
        fit = _fit([n * n + 1 for n in range(40)], 1)
        assert (fit.alpha, fit.multiplicity, fit.c, fit.converged) == (1.0, 3, 1.0, True)

    def test_double_pole(self):
        # (n + 1) 3^n + 5 ~ n 3^n
        fit = _fit([(n + 1) * 3 ** n + 5 for n in range(40)], 3)
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
        fit = _fit(a, alpha)
        assert (fit.multiplicity, fit.c, fit.converged) == (len(poly), lead, True)

    def test_rotated_roots_block_dominance(self):
        # roots 2, 2w, 2w^2 (w a cube root of unity) share alpha's modulus
        fit = _fit([3 * 2 ** n if n % 3 == 0 else 0 for n in range(40)], 2)
        assert not fit.converged
        assert "3 roots" in fit.reason


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
        # kills every column but the last; the closure needs only the
        # cycle's last column and the loop's, one block between them
        n = 300
        M = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            M[i][(i + 1) % (n - 1)] = 1
        M[n - 1][n - 1] = 2
        assert n > _CACHE_ENTRIES // (n + 1)
        assert _spanning_columns(_gather_table(M)).tolist() == [n - 2, n - 1]
        cycle = XP(n - 1) - P([1])
        assert certified(cycle * P([-2, 1]), M)
        assert not certified(cycle, M)

    def test_tail_block_of_the_spanning_columns_is_checked(self):
        # on a diagonal each state is its own only predecessor, so every
        # column is a seed; X - 1 kills all but the last, in the tail block
        n = 300
        M = [[int(i == j) for j in range(n)] for i in range(n)]
        M[n - 1][n - 1] = 2
        spanning = _spanning_columns(_gather_table(M)).tolist()
        block = _CACHE_ENTRIES // (n + 1)
        assert spanning == list(range(n)) and n % block
        assert certified(P([-1, 1]) * P([-2, 1]), M)
        assert not certified(P([-1, 1]), M)

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
            # the first lift from one prime is wrong and must be rejected
            "from palfac.recur import minimal_recurrence\n"
            "c = 2 ** 60 + 3\n"
            "print(minimal_recurrence([c ** k for k in range(8)]) == (P([-c, 1]), 0))\n"
            # the dense read's checks: capacity, non-square, ragged, a late
            # negative entry after an early capacity overflow, as rows and
            # as an array, int8 rows holding -1, and a non-integer entry, as
            # rows and as an array
            "import numpy as np\n"
            "from palfac.recur import _gather_table\n"
            "M = [[0] * 300 for _ in range(300)]\n"
            "M[0][1] = 2 ** 22 + 1\n"
            "signed = [np.zeros(300, dtype=np.int8)] * 299 + [np.full(300, -1, dtype=np.int8)]\n"
            "negative, half = M[:-1] + [[0] * 299 + [-1]], M[:-1] + [[0] * 299 + [0.5]]\n"
            "for M in (M, M[1:], [M[0], M[0][1:]] + M[2:], negative, np.array(negative),\n"
            "          signed, half, np.array(half)):\n"
            "    try:\n"
            "        _gather_table(M)\n"
            "        print('read')\n"
            "    except Exception as e:\n"
            "        print(type(e).__name__)\n"
        )
        import palfac
        src = str(Path(palfac.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.split() == ["True", "False", "True", "CapacityError"] + \
            ["ValueError"] * 7


def first_dependency(vectors):
    """The monic polynomial c of least degree with sum c_t vectors[t] = 0, over Q.

    vectors yields integer vectors; elimination keeps each reduced
    vector with its pivot and its combination of the vectors so far.
    """
    rows = []  # (reduced vector, pivot, combination, ascending)
    for d, v in enumerate(vectors):
        v, comb = [Fraction(x) for x in v], [Fraction(0)] * d + [Fraction(1)]
        for r, col, rc in rows:
            if v[col]:
                f = v[col] / r[col]
                v = [a - f * b for a, b in zip(v, r)]
                comb = [a - f * b for a, b in itertools.zip_longest(comb, rc, fillvalue=0)]
        if not any(v):
            assert all(c.denominator == 1 for c in comb)
            return P([int(c) for c in comb])
        rows.append((v, next(i for i, x in enumerate(v) if x), comb))


def krylov(M, y):
    """y, M y, M^2 y, ... as lists of Python ints."""
    while True:
        yield y
        y = [sum(m * x for m, x in zip(row, y)) for row in M]


def matrix_powers(M):
    """I, M, M^2, ... flattened row by row."""
    n = len(M)
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        yield [x for row in A for x in row]
        A = [[sum(A[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def krylov_rank(M, cols, q=2 ** 61 - 1):
    """Rank modulo the prime q of M^t e_g for g in cols and t < n, by elimination."""
    n = len(M)
    rows = []  # (reduced vector, its pivot), the pivot entry 1
    for g in cols:
        for y in itertools.islice(krylov(M, [int(i == g) for i in range(n)]), n):
            v = [x % q for x in y]
            for r, col in rows:
                if v[col]:
                    f = v[col]
                    v = [(a - f * b) % q for a, b in zip(v, r)]
            col = next((i for i, x in enumerate(v) if x), None)
            if col is not None:
                inv = pow(v[col], -1, q)
                rows.append(([x * inv % q for x in v], col))
    return len(rows)


def table_matrix(table):
    """The dense matrix of a gather table without its sentinel row."""
    n = len(table)
    return CountingSystem(table, [0] * n, [0] * n).M.tolist()


# a DFA with a dead state n, which every letter keeps and any state may
# enter, and an unreachable state n + 1, which no letter enters
dfa_matrices = st.integers(1, 6).flatmap(lambda n: st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.lists(st.lists(st.integers(0, n), min_size=k, max_size=k), min_size=n, max_size=n),
    st.lists(st.integers(0, n), min_size=k, max_size=k)))).map(
    lambda t: table_matrix(t[0] + [[len(t[0])] * len(t[1]), t[1]]))

# nonnegative matrices with entries above 1 and a set of zero columns
zero_column_matrices = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n),
    st.sets(st.integers(0, n - 1)))).map(
    lambda t: [[0 if j in t[1] else x for j, x in enumerate(row)] for row in t[0]])


class TestSpanningColumns:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(dfa_matrices, zero_column_matrices), st.data())
    def test_columns_span_and_the_certificate_is_exact(self, M, data):
        n = len(M)
        spanning = _spanning_columns(_gather_table(M)).tolist()
        assert spanning == sorted(set(spanning)) and spanning
        assert krylov_rank(M, spanning) == n
        mp = first_dependency(matrix_powers(M))
        i = data.draw(st.integers(0, mp.degree))
        delta = data.draw(st.sampled_from([-2, -1, 1, 2]))
        # a column's own minimal polynomial kills that column, and maybe no other
        local = [first_dependency(krylov(M, [int(r == j) for r in range(n)])) for j in range(n)]
        drawn = P(data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8)))
        for p in [mp, mp + XP(i, delta), drawn] + local:
            assert certified(p, M) == (not p.is_zero() and not any(map(any, exact_eval(p, M))))

    def test_a_predecessor_is_derived_only_as_the_last_unknown(self):
        # column 2 is e_0 + e_1 + 2 e_2, and 0 and 1 swap, so p = (X - 1)(X - 2)
        # kills e_2 and e_0 + e_1 but not e_0: a closure that derived 0 or 1
        # from 2 alone would keep G = [2] and accept p
        M = [[0, 1, 1], [1, 0, 1], [0, 0, 2]]
        p = P([-1, 1]) * P([-2, 1])
        assert [row[2] for row in exact_eval(p, M)] == [0, 0, 0]
        assert not certified(p, M)
        assert certified(p * P([1, 1]), M)
        assert _spanning_columns(_gather_table(M)).tolist() == [1, 2]

    def test_a_fifth_of_d_2_11_spans(self, monkeypatch):
        # a deterministic stand-in for a timing test: the certificate's
        # cost is proportional to the number of columns it evaluates
        import palfac.recur
        cs = transfer_matrix(build(MaxDistinct(2, 11)))
        p = matrix_min_poly(cs)
        seen = []
        spanning = palfac.recur._spanning_columns

        def recorded(table):
            seen.append(spanning(table))
            return seen[-1]

        monkeypatch.setattr(palfac.recur, "_spanning_columns", recorded)
        assert _verify_annihilates_matrix(p, cs.table)
        assert cs.size == 811 and len(seen) == 1
        assert len(seen[0]) <= 0.2 * cs.size


def reference_berlekamp_massey(s, p):
    """Berlekamp-Massey as first written: a reduction per product, Fermat inverses."""
    c, b = [1], [1]
    L, m, bb = 0, 1, 1
    for n in range(len(s)):
        d = s[n]
        for i in range(1, L + 1):
            d = (d + c[i] * s[n - i]) % p
        if d == 0:
            m += 1
            continue
        coef = d * pow(bb, p - 2, p) % p
        old, c = c, c + [0] * (len(b) + m - len(c))
        for i, bi in enumerate(b):
            c[i + m] = (c[i + m] - coef * bi) % p
        if 2 * L <= n:
            L, b, bb, m = n + 1 - L, old, d, 1
        else:
            m += 1
    return c[:L + 1] + [0] * (L + 1 - len(c))


bm_primes = st.sampled_from([2, 3, 101, 2 ** 31 - 1, 2 ** 61 - 1])


def residues(p, max_size=40):
    """Sequences modulo p in which zeros, and runs of them, are common."""
    return st.lists(st.one_of(st.just(0), st.integers(0, p - 1)), max_size=max_size)


class TestBerlekampMassey:
    def assert_register(self, s, p):
        c = _berlekamp_massey(s, p)
        assert c == reference_berlekamp_massey(s, p)
        L = len(c) - 1
        assert c[0] == 1 and all(0 <= x < p for x in c)
        assert all(sum(ci * s[n - i] for i, ci in enumerate(c)) % p == 0
                   for n in range(L, len(s)))
        return c

    @settings(max_examples=200, deadline=None)
    @given(bm_primes.flatmap(lambda p: st.tuples(st.just(p), residues(p))))
    def test_matches_the_reference(self, case):
        p, s = case
        self.assert_register(s, p)

    @settings(max_examples=200, deadline=None)
    @given(bm_primes.flatmap(lambda p: st.tuples(
        st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=6).flatmap(
            lambda taps: st.tuples(st.just(taps), st.lists(
                st.integers(0, p - 1), min_size=len(taps), max_size=len(taps)))))))
    def test_lfsr_outputs_give_no_longer_register(self, case):
        p, (taps, init) = case
        L = len(taps)
        impulse = [0] * (L - 1) + [1]
        for s in (init, impulse):
            s = list(s)
            while len(s) < 2 * L + 8:
                s.append(sum(t * s[-1 - i] for i, t in enumerate(taps)) % p)
            c = self.assert_register(s, p)
            assert len(c) - 1 <= L
        # the impulse response x^(L-1) / C is in lowest terms, so it needs
        # all L cells, and with 2L terms its register is unique
        assert c == [1] + [-t % p for t in taps]

    @pytest.mark.parametrize("p", [2, 3, 101, 2 ** 31 - 1, 2 ** 61 - 1])
    def test_runs_of_zeros(self, p):
        assert self.assert_register([], p) == [1]
        assert self.assert_register([0] * 9, p) == [1]
        # a lone 1 after k zeros needs a register of length k + 1
        for k in range(4):
            assert self.assert_register([0] * k + [1] + [0] * 6, p) == [1] + [0] * (k + 1)
        self.assert_register([1, 0, 0, 0, 0, p - 1, 0, 0, 0, 0, 1], p)


dfas = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(2, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k), min_size=n, max_size=n)),
    st.sets(st.integers(0, n - 1))))


def v_mn_w(cs, n):
    """v . M^n . w over Python integers on the dense matrix."""
    M, x = cs.M.tolist(), list(cs.v)
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


def _cycles_matrix(top=3):
    """A 302 x 302 matrix whose minimal polynomial has low degree.

    Sixty 5-cycles, a third of them plain and the rest with a closing
    edge of weight 2 or 3 and a self-loop of weight 1 or 2; row 300 is
    all zero and row 301, which no state enters, holds the entry top.
    """
    n = 302
    M = [[0] * n for _ in range(n)]
    for b in range(60):
        t, first = b % 3, 5 * b
        for j in range(4):
            M[first + j][first + j + 1] = 1
        M[first + 4][first] = 1 + t
        M[first][first] += t
    M[301][7] = top
    return M


def _dense_forms(M, dtypes):
    """M as rows of lists and of tuples, and as an array and rows of each dtype."""
    forms = [M, [tuple(row) for row in M]]
    for dtype in dtypes:
        forms += [np.array(M, dtype=dtype), [np.array(row, dtype=dtype) for row in M]]
    return forms


class TestDenseRead:
    def test_every_form_gives_the_table_gathers(self):
        small, big = _cycles_matrix(), _cycles_matrix(top=300)
        bits = [[int(x > 0) for x in row] for row in small]
        n = len(small)
        v, w = [1] + [0] * (n - 1), [1] * n
        for M, forms in (
                (small, _dense_forms(small, (np.int8, np.uint8, np.int64, np.uint64))),
                (big, _dense_forms(big, (np.int64, np.uint64))),
                (bits, _dense_forms([[x > 0 for x in row] for row in bits], (np.bool_,)))):
            cs = _dense_system(M, v, w)
            assert cs.M.tolist() == M
            for dense in forms:
                assert _gather_table(dense).tolist() == cs.table.tolist()
        cs = _dense_system(small, v, w)
        assert matrix_min_poly(np.array(small, dtype=np.uint8)) == matrix_min_poly(cs)
        assert matrix_min_poly(small) == matrix_min_poly(cs)

    def test_late_negative_entry_wins_over_an_early_capacity_error(self):
        M = _cycles_matrix()
        M[0][1] = 2 ** 22 + 1
        with pytest.raises(CapacityError):
            _gather_table(M)
        M[-1][-1] = -1
        for dense in (M, np.array(M)):
            with pytest.raises(ValueError):
                _gather_table(dense)
        M[0][1] = 2 ** 64
        with pytest.raises(ValueError):
            _gather_table(M)
        M[-1][-1] = 1.0
        with pytest.raises(ValueError, match="integers"):
            _gather_table(M)

    @pytest.mark.parametrize("M", [[[0.5, 1.0], [1.0, 0.0]], [[1.0, 1], [1, 0]],
                                   np.array([[1.5, 1], [1, 0]])])
    def test_non_integer_entry_rejected(self, M):
        # a cast to int64 reads these as X^2 - 1, X^2 - X - 1 and X^2 - X - 1
        with pytest.raises(ValueError, match="integers"):
            matrix_min_poly(M)

    def test_signed_rows_keep_their_sign(self):
        # an unsigned read of an int8 row would take -1 as 255
        M = [np.array(row, dtype=np.int8) for row in _cycles_matrix()]
        M[-1][-1] = -1
        for dense in (M, np.array(M)):
            with pytest.raises(ValueError, match="nonnegative"):
                _gather_table(dense)

    @pytest.mark.parametrize("M", [[[0, 1], [1]], [[0, 1, 0], [1, 0, 0]], [[0], [1]],
                                   np.zeros((2, 3), dtype=np.uint8), np.zeros(2),
                                   [[0, 1, 0], [1]], [(0, 1, 1, 0), (1,), (0, 0, 1, 0)]])
    def test_ragged_or_non_square_rejected(self, M):
        with pytest.raises(ValueError, match="square"):
            _gather_table(M)

    def _traced(self, read):
        """read()'s result, with the traced peak and size of what it returns, in bytes.

        numpy reports its buffers to tracemalloc, so the numbers repeat exactly.
        """
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = read()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        return out, peak - base, kept - base

    def _sparse_system(self, n=1500):
        return CountingSystem([[(i + 1) % n, (7 * i + 3) % n, (7 * i + 3) % n] for i in range(n)],
                              [1] + [0] * (n - 1), [1] * n)

    def test_dense_copy_needs_no_more_than_its_rows(self):
        cs = self._sparse_system()
        M, peak, size = self._traced(lambda: cs.M)
        assert peak <= 1.1 * size
        assert M.dtype == np.int64 and M[0, :4].tolist() == [0, 1, 0, 2]

    def test_dense_read_has_no_quadratic_temporary(self):
        cs = self._sparse_system()
        M = cs.M
        table, peak, _ = self._traced(lambda: _gather_table(M))
        assert peak < len(M) ** 2
        assert (table == np.sort(cs.table, axis=1)).all()

    def test_size_is_checked_before_the_read(self):
        # one shared row: the list is small, its dense read 128 MB
        M = [[0] * (_MAX_MINPOLY_STATES + 1)] * (_MAX_MINPOLY_STATES + 1)

        def refuse():
            with pytest.raises(CapacityError, match="limit"):
                matrix_min_poly(M)

        _, peak, _ = self._traced(refuse)
        assert peak < 1 << 20


class TestBenchmarkCallShape:
    """The dense matrix the benchmark passes gives what the counting system gives."""

    def test_d_2_11_dense_matrix_gives_the_pinned_min_poly(self):
        label, spec, factors, _ = MIN_POLYS[-1]
        assert label == "D(2,11)"
        want = math.prod(factors, start=P([1]))
        cs = transfer_matrix(build(spec))
        for seed in range(3):
            assert matrix_min_poly(cs.M, seed=seed) == matrix_min_poly(cs, seed=seed) == want


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
        # n0 is the least such index
        assert n0 == 0 or window_apply(q, a, n0 - 1) != 0
