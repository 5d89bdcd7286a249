"""Exact word counting and linear recurrences from transfer matrices.

A complete DFA yields a counting system (M, v, w) with a(n) = v M^n w.
M is held as a gather table, one row of successors per state, so that
M y is a sum of gathers of y; for a DFA the table is the transition
table itself.  The terms come from the counting quotient, the coarsest
lumping of the states on which every M^t w is constant per block, so
the recurrence runs on fewer rows.  From there this module derives
annihilating polynomials two independent ways: from the matrix minimal
polynomial p, by reducing the generating function N/P~ that p and the
first deg p terms determine to lowest terms with one gcd, and by
Berlekamp-Massey over primes on the sequence alone, lifted to the
integers and accepted only after an exact integer window check.
Dominant-root asymptotics close the loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence as SeqABC

import numpy as np

from .automaton import Dfa, refine
from .construct import CapacityError
from .polys import (
    Polynomial,
    RootInterval,
    exact_div,
    factor_int_poly,
    gcd,
    largest_real_root,
    next_prime,
)

__all__ = [
    "CountingSystem",
    "Polynomial",
    "RootInterval",
    "AsymptoticFit",
    "InconclusiveError",
    "transfer_matrix",
    "sequence",
    "window_apply",
    "matrix_min_poly",
    "factor_int_poly",
    "lda",
    "minimal_recurrence",
    "largest_real_root",
    "asymptotic_fit",
]

_MAX_MINPOLY_STATES = 4000
_BLOCK_ENTRIES = 1 << 22  # int64 entries per column block of the Horner matrix
_INT64_LIMIT = 1 << 63
_DRIFT_TOLERANCE = 0.02  # largest relative spread of a converged fit


class InconclusiveError(Exception):
    """No recurrence is determined by the available terms; not a claim about the sequence."""


class CountingSystem:
    """Transfer matrix M with start vector v and acceptance vector w.

    M[i][j] is the number of letters moving state i to state j, and
    a(n) = v M^n w counts accepted words of length n.  M is kept as an
    (n, R) gather table: row i lists i's successors, j once per unit of
    M[i][j], padded with the sentinel n, which indexes a zero entry
    appended to every vector M acts on.  So (M y)[i] is the sum of
    y[table[i, s]] over s.  M materializes a dense copy.
    """

    __slots__ = ("table", "v", "w")

    def __init__(self, table, v, w):
        self.table = np.array(table, dtype=np.int64)
        self.v = tuple(int(x) for x in v)
        self.w = tuple(int(x) for x in w)
        n = len(self.table)
        if self.table.ndim != 2 or ((self.table < 0) | (self.table > n)).any():
            raise ValueError("malformed transfer table")
        if len(self.v) != n or len(self.w) != n:
            raise ValueError("vector lengths must match the matrix size")

    @property
    def size(self) -> int:
        return len(self.table)

    @property
    def M(self) -> list[list[int]]:
        """Dense matrix copy; built on demand."""
        n = self.size
        out = np.zeros((n, n + 1), dtype=np.int64)
        np.add.at(out, (np.arange(n)[:, None], self.table), 1)
        return out[:, :n].tolist()


def transfer_matrix(d: Dfa) -> CountingSystem:
    """Counting system of a complete DFA, dead state included."""
    n = d.state_count
    v = [0] * n
    v[d.start] = 1
    w = [0] * n
    for q in d.accepting:
        w[q] = 1
    return CountingSystem(d.delta, v, w)


def _apply(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M y, for y (a vector or a matrix of columns) whose last row, like M y's, is zero."""
    n, R = table.shape
    if not R:
        return np.zeros_like(y)
    table = np.vstack([table, np.full(R, n)])
    out = y[table[:, 0]]
    for col in table.T[1:]:
        out += y[col]
    return out


def _lumped(cs: CountingSystem) -> CountingSystem:
    """The counting quotient of cs: the same sequence from fewer rows.

    States go together on the coarsest partition of the states and the
    sentinel row that refines w's values and whose blocks gather equal
    multisets of blocks (ordinary lumpability; Kemeny and Snell 1960).
    On it every y_t = M^t w is constant on each block, so the quotient
    gathers one member's row as blocks, takes that member's w, and sums v
    over each block.  The sentinel's block, where every y_t is zero,
    becomes the quotient's sentinel.
    """
    n, R = cs.table.shape
    table = np.vstack([cs.table, np.full(R, n)])
    w = cs.w + (0,)
    rank = {x: r for r, x in enumerate(sorted(set(w)))}  # exact: w may pass 2^63
    block = np.fromiter((rank[x] for x in w), dtype=np.int64, count=n + 1)
    count = len(rank)
    while True:
        key, refined = refine(block, count, np.sort(block[table], axis=1).T)
        if refined == count:
            break
        block, count = key, refined
    # number the sentinel's block last
    last = count - 1
    sentinel = block[n]
    block = np.where(block == sentinel, last, np.where(block == last, sentinel, block))
    rep = np.unique(block, return_index=True)[1][:last].tolist()
    v = [0] * last
    for i, vi in enumerate(cs.v):
        if vi and block[i] != last:
            v[block[i]] += vi
    return CountingSystem(block[table[rep]], v, [w[i] for i in rep])


def sequence(cs: CountingSystem, n_max: int) -> list[int]:
    """Exact a(0..n_max): a(t) = v . y_t with y_0 = w and y_(t+1) = M y_t.

    The recurrence runs on the counting quotient of cs (see _lumped), on
    object arrays of Python ints.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    cs = _lumped(cs)
    start = [(i, vi) for i, vi in enumerate(cs.v) if vi]
    y = np.array(cs.w + (0,), dtype=object)
    out = []
    for t in range(n_max + 1):
        out.append(sum(vi * y[i] for i, vi in start))
        if t < n_max:
            y = _apply(cs.table, y)
    return out


def window_apply(q: Polynomial, a: SeqABC, i: int) -> int:
    """Dot product of q's coefficients with the window a(i..i+deg q)."""
    d = max(q.degree, 0)
    if i < 0 or i + d >= len(a):
        raise ValueError(f"window [{i}, {i + d}] outside sequence of length {len(a)}")
    return sum(c * a[i + j] for j, c in enumerate(q.coeffs))


def _annihilates(q: Polynomial, a: SeqABC, start: int, stop: int | None = None) -> bool:
    """True when every window at start <= i < stop (or end of data) vanishes."""
    if stop is None:
        stop = len(a) - q.degree
    stop = min(stop, len(a) - q.degree)
    return all(window_apply(q, a, i) == 0 for i in range(start, stop))


# ---------------------------------------------------------------------------
# matrix minimal polynomial

def _gather_table(M) -> np.ndarray:
    """The gather table of a CountingSystem or of a dense nonnegative integer matrix.

    A dense entry m becomes m gathers of its column.  Raises CapacityError
    when the table would exceed _BLOCK_ENTRIES entries.
    """
    if isinstance(M, CountingSystem):
        n, width = M.table.shape
    else:
        A = np.array(M, dtype=object)
        n = len(A)
        if A.shape != (n, n):
            raise ValueError("matrix must be square")
        if (A < 0).any():
            raise ValueError("matrix entries must be nonnegative")
        sums = A.sum(axis=1)
        width = int(max(sums, default=0))
    if n * width > _BLOCK_ENTRIES:
        raise CapacityError(f"a {n} x {width} gather table exceeds {_BLOCK_ENTRIES} entries")
    if isinstance(M, CountingSystem):
        return M.table
    table = np.full((n, width), n, dtype=np.int64)
    succ = np.repeat(np.tile(np.arange(n), n), A.ravel().astype(np.int64))
    table[np.arange(width) < sums[:, None]] = succ
    return table


def _projection_terms(table, u, x, count, p):
    """u . M^t . x for t = 0..count-1, all modulo p."""
    u = np.array(u, dtype=np.int64)
    y = np.array(list(x) + [0], dtype=np.int64)
    terms = []
    for _ in range(count):
        terms.append(int((u * y[:-1] % p).sum() % p))
        y = _apply(table, y) % p
    return terms


def _berlekamp_massey(s: list[int], p: int) -> list[int]:
    """Connection polynomial c (ascending, c[0]=1) of the shortest LFSR mod p.

    Satisfies s[n] + c[1] s[n-1] + ... + c[L] s[n-L] = 0 for L <= n < len(s).
    """
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
        if 2 * L <= n:
            old = c[:]
            if len(c) < len(b) + m:
                c = c + [0] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] = (c[i + m] - coef * bi) % p
            L, b, bb, m = n + 1 - L, old, d, 1
        else:
            if len(c) < len(b) + m:
                c = c + [0] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] = (c[i + m] - coef * bi) % p
            m += 1
    return c[:L + 1] + [0] * (L + 1 - len(c))


def _min_poly_mod(table, p, rng):
    """Monic candidate (ascending coefficients mod p) from one random projection."""
    n = len(table)
    u = [rng.randrange(p) for _ in range(n)]
    x = [rng.randrange(p) for _ in range(n)]
    terms: list[int] = []
    count = min(128, 2 * n + 4)
    while True:
        terms = _projection_terms(table, u, x, count, p)
        conn = _berlekamp_massey(terms, p)
        L = len(conn) - 1
        if 2 * L + 16 <= count or count >= 2 * n + 4:
            break
        count = min(count * 2, 2 * n + 4)
    # reverse the connection polynomial: X^L + c1 X^(L-1) + ... + cL
    return list(reversed(conn))


def _primes_below(top: int):
    """The primes below top, in descending order: a fixed modulus list."""
    q = top
    while True:
        q = next_prime(q, below=True)
        yield q


def _crt_symmetric(residues: list[int], moduli: list[int]) -> int:
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, p)) % p
        x += m * t
        m *= p
    x %= m
    return x - m if 2 * x > m else x


def _verify_annihilates_matrix(p: Polynomial, table: np.ndarray) -> bool:
    """Certified check that p(M) = 0, by a gather Horner modulo primes.

    M is nonnegative with row sums at most R, the table's width, so the
    entries of M^t are at most R^t and every entry of p(M) lies in
    [-B, B] for B = sum|p_i| * R^deg.  Vanishing modulo primes whose
    product exceeds 2B + 1 therefore proves exact vanishing.  The primes
    are the fixed list just below 2^31.  Each Horner step
    H <- M H + c I is a sum of R row gathers of H: O(n R) row operations
    per step, with no dense product and no BLAS.  Residues are reduced
    only when a tracked bound on the entries would reach 2^63.  The
    columns of H are independent and are processed in blocks.
    """
    if p.is_zero():
        return False
    n, R = table.shape
    bound = sum(abs(c) for c in p.coeffs) * max(R, 1) ** p.degree
    block = max(1, _BLOCK_ENTRIES // n)
    have = 1
    for q in _primes_below(1 << 31):
        for lo in range(0, n, block):
            cols = np.arange(lo, min(n, lo + block))
            diag = (cols, np.arange(len(cols)))
            # row n of H stays zero: the padding of short table rows gathers it
            H = np.zeros((n + 1, len(cols)), dtype=np.int64)
            H[diag] = p.lead % q
            hb = q  # every entry of H lies in [0, hb)
            for c in reversed(p.coeffs[:-1]):
                if R * hb + q >= _INT64_LIMIT:
                    H %= q
                    hb = q
                H = _apply(table, H)
                H[diag] += c % q
                hb = R * hb + q
            if (H % q).any():
                return False
        have *= q
        if have > 2 * bound + 1:
            return True


def matrix_min_poly(M, seed: int = 0) -> Polynomial:
    """Minimal polynomial of a nonnegative integer matrix, monic over the integers.

    Candidates come from Berlekamp-Massey applied to random projection
    sequences u M^t x modulo two independent random primes (Wiedemann
    1986); a candidate is accepted only after an exact certificate that
    p(M) = 0 (see _verify_annihilates_matrix).  Degree disagreements
    between the primes trigger a retry with fresh primes.

    Accepts a CountingSystem or a square matrix of nonnegative integers
    given as rows, which becomes a gather table; a negative entry raises
    ValueError.  Raises CapacityError above _MAX_MINPOLY_STATES rows or
    when the table exceeds _BLOCK_ENTRIES entries.
    """
    table = _gather_table(M)
    n = len(table)
    if n == 0:
        raise ValueError("empty matrix")
    if n > _MAX_MINPOLY_STATES:
        raise CapacityError(f"matrix size {n} exceeds the {_MAX_MINPOLY_STATES} limit")
    rng = random.Random(seed)
    used: set[int] = set()
    for attempt in range(8):
        k_primes = 2 + attempt
        primes = []
        while len(primes) < k_primes:
            q = next_prime(rng.randrange(1 << 29, 1 << 30))
            if q not in used:
                used.add(q)
                primes.append(q)
        cands = [_min_poly_mod(table, q, rng) for q in primes]
        degs = {len(c) - 1 for c in cands}
        if len(degs) != 1:
            continue
        coeffs = [
            _crt_symmetric([c[i] for c in cands], primes)
            for i in range(len(cands[0]))
        ]
        cand = Polynomial(coeffs)
        if cand.lead != 1:
            continue
        if _verify_annihilates_matrix(cand, table):
            return cand
    raise ArithmeticError("minimal polynomial not confirmed within retry budget")


# ---------------------------------------------------------------------------
# annihilator extraction

def _offset(q: Polynomial, a: SeqABC) -> int:
    """Smallest n0 from which q annihilates every available window of a."""
    for i in range(len(a) - q.degree - 1, -1, -1):
        if window_apply(q, a, i) != 0:
            return i + 1
    return 0


def lda(p: Polynomial, a: SeqABC) -> tuple[Polynomial, int]:
    """The lowest-degree annihilator (q, n0) of a, from p annihilating all of a.

    With d = deg p and P~ = X^d p(1/X), the generating function of a is
    N/P~ for N = (A P~) mod X^d, A the polynomial of the first d terms
    (InconclusiveError with fewer).  One gcd g = gcd(N, P~) puts it in
    lowest terms, so q, the reversal of D = P~/g made primitive, is the
    minimal annihilator (Fatou's lemma keeps D in Z[X]); it holds from
    n0 = max(0, deg(N/g) - deg D + 1).  Powers of X go into n0, and an
    eventually-zero sequence gets q = 1.
    """
    p = p.primitive()
    d = p.degree
    if d < 1:
        raise ValueError("annihilator must have positive degree")
    if len(a) < d:
        raise InconclusiveError(f"{len(a)} terms do not determine a degree {d} annihilator")
    if not _annihilates(p, a, 0):
        raise ValueError("polynomial does not annihilate the sequence")
    rev = Polynomial(p.coeffs[::-1])
    N = Polynomial((Polynomial(a[:d]) * rev).coeffs[:d])
    g = gcd(N, rev)
    D = exact_div(rev, g)
    q = Polynomial(D.coeffs[::-1]).primitive()
    return q, max(0, N.degree - g.degree - D.degree + 1)


def _lift_bound(a: SeqABC, d: int) -> int:
    """Bound on the coefficients of an integral connection polynomial of length d.

    With 2d <= len(a) the minimal LFSR is unique (Massey 1969), so its
    coefficients solve a nonsingular d x d system drawn from a; by
    Cramer and Hadamard an integral solution has entries at most
    (sqrt(d) * max|a|)^d.
    """
    return ((math.isqrt(d) + 1) * max(map(abs, a), default=0)) ** d


def minimal_recurrence(a: SeqABC) -> tuple[Polynomial, int]:
    """Lowest-degree annihilator of a sequence, with its window offset.

    Works from the terms alone.  Berlekamp-Massey (Berlekamp 1968; Massey
    1969) runs on the whole sequence modulo fixed 61-bit primes, the
    primes below 2^61 in descending order; the connection polynomials
    of the primes with the longest register are lifted to the integers
    by symmetric CRT, reversed, and accepted only when the lift
    annihilates every window of a, from index 0, exactly over the
    integers.  A failed lift adds the next prime; only when the product
    of the primes exceeds twice the coefficient bound of any integral
    solution is the search given up as inconclusive.

    Minimality: for terms of an integer linear recurrence (such as word
    counts of an automaton), the generating function is P/C in lowest
    terms, and Fatou's lemma puts C in Z[x] with constant term 1.  The
    shortest register over Q has length L = max(deg C, deg P + 1) with
    connection polynomial C, and its reversal is X^s times the reversal
    of C, where s = L - deg C counts the transient terms.  Reduction
    mod p keeps an annihilating register, so the register length mod p
    is at most L; a lifted candidate of the longest length found that
    annihilates the integer windows exactly is thus the shortest, and
    with 2L <= n it is the only one (Massey 1969).

    The power X^s only shifts the window and is folded into the offset
    n0, the smallest index from which every window vanishes.  The
    result is accepted when 2L <= n and n >= 2d + n0 for the degree d
    returned; otherwise InconclusiveError is raised.
    """
    n = len(a)
    if n < 4:
        raise InconclusiveError("sequence too short")
    primes: list[int] = []
    conns: list[list[int]] = []
    for p in _primes_below(1 << 61):
        conn = _berlekamp_massey([x % p for x in a], p)
        L = len(conn) - 1
        if conns and L != len(conns[0]) - 1:
            if L < len(conns[0]) - 1:
                continue  # p divides a minor of the rational solution
            primes, conns = [], []  # the earlier primes were the unlucky ones
        if 2 * L > n:
            raise InconclusiveError(f"{n} terms too short for a register of length {L}")
        primes.append(p)
        conns.append(conn)
        if len(primes) < 2:
            continue
        q = Polynomial([_crt_symmetric(list(c), primes) for c in zip(*conns)][::-1])
        if _annihilates(q, a, 0):
            break
        if math.prod(primes) > 2 * _lift_bound(a, L) + 1:
            raise InconclusiveError(f"no integral recurrence of length {L} fits the terms")
    q = q.primitive()
    q = q.shift_down(q.x_multiplicity())
    n0 = _offset(q, a)
    if n < 2 * q.degree + n0:
        raise InconclusiveError(f"degree {q.degree} from n0 = {n0} is not determined by {n} terms")
    return q, n0


# ---------------------------------------------------------------------------
# asymptotics

@dataclass(frozen=True)
class AsymptoticFit:
    """Growth constants fitted from exact terms against a known root.

    Single-root mode fills c; the even/odd split mode (for spectra with
    a +alpha/-alpha real pair) fills c1 and c2.  drift is the relative
    spread of the fitted ratios over the averaging window; when it
    exceeds _DRIFT_TOLERANCE, converged is False and the values are
    reported for diagnostics only.
    """
    alpha: float
    c: float | None
    c1: float | None
    c2: float | None
    drift: float
    converged: bool


def _deflation_cofactor(annihilator: Polynomial, alpha) -> Polynomial:
    """The annihilator with the irreducible factor owning root alpha removed.

    Applying the cofactor as a sliding window annihilates every root of
    the recurrence except those sharing alpha's irreducible factor, so
    the windowed sequence converges like the gaps within that one factor
    instead of the full spectrum.
    """
    if isinstance(alpha, RootInterval):
        lo, hi = alpha.lo, alpha.hi
    else:
        pad = Fraction(1, 10 ** 6)
        lo, hi = Fraction(alpha) - pad, Fraction(alpha) + pad
    owners = []
    cofactor = Polynomial([1])
    for f, mult in factor_int_poly(annihilator):
        if f.degree >= 1 and f(lo) * f(hi) <= 0:
            owners.append(f)
        else:
            cofactor = cofactor * f ** mult
    if len(owners) != 1:
        raise ValueError("alpha does not isolate one irreducible factor")
    return cofactor


def asymptotic_fit(a: SeqABC, alpha, annihilator: Polynomial | None = None,
                   split_parity: bool = False) -> AsymptoticFit:
    """Fit a(n) ~ C alpha^n (or C1 alpha^n + C2 (-alpha)^n when split).

    Single-root mode averages a(n)/alpha^n over the last quarter of the
    terms and reports the relative spread as drift.  When the sequence's
    annihilator is supplied, its other irreducible factors are divided
    out of the data first (an exact integer windowing), which removes
    subdominant roots that would otherwise decay too slowly to average
    away.  alpha may be a float, Fraction, or a certified root interval.
    """
    alpha_f = float(alpha)
    if alpha_f <= 1:
        raise ValueError("alpha must exceed 1")
    scale = 1.0
    terms: SeqABC = a
    if annihilator is not None:
        h = _deflation_cofactor(annihilator, alpha)
        if h.degree >= 1:
            terms = [window_apply(h, a, i) for i in range(len(a) - h.degree)]
            x = alpha.midpoint if isinstance(alpha, RootInterval) else Fraction(alpha_f)
            scale = float(h(x))
            if scale == 0:
                raise ValueError("alpha appears to be a repeated root")
    n = len(terms)
    if n < 8:
        raise ValueError("need at least 8 terms")
    start = (3 * n) // 4
    indices = range(start, n)
    ratios = [terms[i] / (scale * alpha_f ** i) for i in indices]
    even = [r for i, r in zip(indices, ratios) if i % 2 == 0]
    odd = [r for i, r in zip(indices, ratios) if i % 2 == 1]
    if not even or not odd:
        raise ValueError("need terms of both parities")

    def spread(vals, center):
        if not vals or center == 0:
            return math.inf
        return (max(vals) - min(vals)) / abs(center)

    if not split_parity:
        c = math.fsum(ratios) / len(ratios)
        drift = spread(ratios, c)
        return AsymptoticFit(alpha_f, c, None, None, drift, drift <= _DRIFT_TOLERANCE)

    s_plus = math.fsum(even) / len(even)
    s_minus = math.fsum(odd) / len(odd)
    c1 = (s_plus + s_minus) / 2
    c2 = (s_plus - s_minus) / 2
    drift = max(spread(even, c1), spread(odd, c1))
    return AsymptoticFit(alpha_f, None, c1, c2, drift, drift <= _DRIFT_TOLERANCE)
