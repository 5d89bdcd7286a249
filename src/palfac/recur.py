"""Exact word counting and linear recurrences from transfer matrices.

A complete DFA yields a counting system (M, v, w) with a(n) = v M^n w.
M is held as a gather table, one row of successors per state, so that
M y is a sum of gathers of y; for a DFA the table is the transition
table itself.  One kernel, _step, takes every such product: the
Wiedemann projections, the p(M) = 0 certificate and the exact terms.
The terms come from the counting quotient, the coarsest lumping of the
states on which every M^t w is constant per block, so the recurrence
runs on fewer rows.  Each M^t w is held exactly as an int64 plane of
B-bit limbs, one row per state and one column per limb, that a step
gathers and adds limb by limb; a carry pass runs only when a tracked
bound on the limbs would otherwise reach 2^62 (multi-precision addition
with deferred carries; Knuth, TAOCP vol. 2, 4.3.1).  From there this module
derives annihilating polynomials two independent ways: from the matrix
minimal polynomial p, by reducing the generating function N/P~ that p and the
first deg p terms determine to lowest terms with one gcd, and by
Berlekamp-Massey on the sequence alone.  Both routes run
Berlekamp-Massey modulo a fixed descending list of primes, on their own
inputs, and lift the longest registers to the integers by one symmetric
CRT (_lift): the matrix route's lift is accepted only by the p(M) = 0
certificate and the sequence route's only by an exact integer window
check.  When the primes outgrow the coefficient bound (for the matrix,
(1 + R)^deg with R the largest row sum) without an accepted lift, the
route raises InconclusiveError.
The dominant pole closes the loop: one of order m at 1/alpha gives
a(n) ~ C n^(m-1) alpha^n, with C exact and the dominance certified.
"""

from __future__ import annotations

import itertools
import math
import numbers
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence as SeqABC

import numpy as np

from .automaton import CapacityError, Dfa, _hold_to_budget, stable_partition
from .polys import (
    Polynomial,
    RootInterval,
    _primes_below,
    _real_roots_above,
    _roots_outside,
    _scaled_value,
    exact_div,
    gcd,
    squarefree_decomposition,
)

__all__ = [
    "CountingSystem",
    "AsymptoticFit",
    "InconclusiveError",
    "transfer_matrix",
    "sequence",
    "iter_sequence",
    "window_apply",
    "matrix_min_poly",
    "lda",
    "minimal_recurrence",
    "asymptotic_fit",
]

_MAX_MINPOLY_STATES = 4000
_BLOCK_ENTRIES = 1 << 22  # capacity of a gather table, in entries
_CACHE_ENTRIES = 1 << 16  # entries per certificate column block and _step scratch block: 512 KB, in L2
_RING = 1 << 64  # the certificate's first modulus: uint64 arithmetic wraps modulo it
_PRECISION = Fraction(1, 10 ** 12)  # relative width of a constant; finest radius step


class InconclusiveError(Exception):
    """No recurrence is determined by the available terms; not a claim about the sequence."""


class CountingSystem:
    """Transfer matrix M with start vector v and acceptance vector w.

    M[i][j] is the number of letters moving state i to state j, and
    a(n) = v M^n w counts accepted words of length n.  The constructor
    takes an (n, R) gather table: row i lists i's successors, j once per
    unit of M[i][j], padded with the sentinel n, which indexes a zero
    entry appended to every vector M acts on.  So (M y)[i] is the sum of
    y[table[i, s]] over s.  It keeps the table read-only as (n + 1, R),
    with a sentinel row of n appended, so that M y keeps that zero entry.
    M is the dense n x n matrix, counted from the table in one step.
    """

    __slots__ = ("table", "v", "w")

    def __init__(self, table, v, w):
        table = np.asarray(table)
        if table.size and table.dtype.kind not in "iu":
            raise ValueError("transfer table entries must be integers")
        table = table.astype(np.int64)
        self.v, self.w = tuple(v), tuple(w)
        if not all(isinstance(x, numbers.Integral) for x in self.v + self.w):
            raise ValueError("vector entries must be integers")
        self.v, self.w = tuple(map(int, self.v)), tuple(map(int, self.w))
        n = len(table)
        if table.ndim != 2 or ((table < 0) | (table > n)).any():
            raise ValueError("malformed transfer table")
        if len(self.v) != n or len(self.w) != n:
            raise ValueError("vector lengths must match the matrix size")
        self.table = np.vstack([table, np.full(table.shape[1], n)])
        self.table.flags.writeable = False  # validated once: the gathers rely on it

    @property
    def size(self) -> int:
        return len(self.table) - 1

    @property
    def M(self) -> np.ndarray:
        """The dense matrix as a read-only int64 array; built on demand.

        One bincount over row * n + column counts every gather that is
        not sentinel padding.
        """
        n = self.size
        rows, slots = np.nonzero(self.table[:n] < n)
        M = np.bincount(rows * n + self.table[rows, slots], minlength=n * n).reshape(n, n)
        M.flags.writeable = False
        return M


def transfer_matrix(d: Dfa) -> CountingSystem:
    """Counting system of a complete DFA, dead state included."""
    v = np.zeros(d.state_count, dtype=np.int64)
    v[d.start] = 1
    return CountingSystem(d.delta, v, d.accepting.astype(np.int64))


def _gathers(table: np.ndarray, y: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """(gathers, out, buf) for _step on y through the M of table; taken once per shape of y.

    buf, the scratch block, holds as many rows shaped as y's as fit
    _CACHE_ENTRIES entries (at least one), and out is shaped as y.  Block
    b of gathers holds, for rows b len(buf) onward, each column of table,
    a gather table with its sentinel row; a table of width 0 (M = 0)
    counts as one column of the sentinel, which gathers the zero entry.
    """
    n = len(table) - 1
    buf = np.empty_like(y[:max(1, _CACHE_ENTRIES // y[0].size)])
    gathers = np.full((max(table.shape[1], 1), n + 1), n, dtype=np.intp)
    gathers[:table.shape[1]] = table.T
    return ([list(gathers[:, lo:lo + len(buf)]) for lo in range(0, n + 1, len(buf))],
            np.empty_like(y), buf)


def _step(gathers: list, y: np.ndarray, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """out = M y, for y whose last row, like M y's, is zero; returns out.

    Axis 0 of y runs over the rows of M (a vector, a matrix of columns or
    a limb plane); out has y's shape and dtype.  Per block of gathers
    (_gathers), the first gather is taken into out and the others into
    the scratch block buf and added, so a step allocates nothing.  Sums
    wrap in y's dtype (the caller keeps them exact, or wants them modulo
    2^64), and no gather is bounds-checked: each lies in [0, len(y)).
    """
    lo = 0
    for first, *rest in gathers:
        part, scratch = out[lo:lo + len(first)], buf[:len(first)]
        y.take(first, axis=0, out=part, mode="clip")
        for g in rest:
            y.take(g, axis=0, out=scratch, mode="clip")
            part += scratch
        lo += len(first)
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
    n = cs.size
    w = cs.w + (0,)
    rank = {x: r for r, x in enumerate(sorted(set(w)))}  # exact: w may pass 2^63
    block = np.fromiter((rank[x] for x in w), dtype=np.int64, count=n + 1)
    block, count = stable_partition(block, len(rank),
                                    lambda block: np.sort(block[cs.table], axis=1).T)
    # number the sentinel's block last
    last = count - 1
    sentinel = block[n]
    block = np.where(block == sentinel, last, np.where(block == last, sentinel, block))
    rep = np.unique(block, return_index=True)[1][:last].tolist()
    v = [0] * last
    for i, vi in enumerate(cs.v):
        if vi and block[i] != last:
            v[block[i]] += vi
    return CountingSystem(block[cs.table[rep]], v, [w[i] for i in rep])


def _limb_width(R: int) -> int:
    """Bits per limb for a table of width R: R * 2^(B + 1) stays below 2^51."""
    return 50 - R.bit_length()


def _term_limbs(cs: CountingSystem, n_max: int, extra_bits: int = 0) -> int:
    """Limbs that hold any entry of y_(n_max), widened by extra_bits, plus one for carries.

    Every entry of y_t = M^t w is at most R^t max|w| in absolute value,
    so it takes at most ceil((t ceil(log2 R) + bits(max|w|)) / B) limbs of
    B bits; the one more holds what the top limb carries.
    """
    R = cs.table.shape[1]
    bits = n_max * max(R - 1, 0).bit_length() + max(map(abs, cs.w), default=0).bit_length()
    return -(-(bits + extra_bits) // _limb_width(R)) + 1


def _limb_plane(values: SeqABC, B: int) -> np.ndarray:
    """The (len(values), L) int64 limb plane of Python ints: sum_l plane[:, l] 2^(B l) = values.

    Every limb but the top one lies in [0, 2^B); the top one is signed,
    and L is the fewest limbs that put it in [-2^B, 2^B].
    """
    L = max(1, -(-max(map(abs, values), default=0).bit_length() // B))
    limbs = []
    for _ in range(L - 1):
        limbs.append([x & ((1 << B) - 1) for x in values])
        values = [x >> B for x in values]
    limbs.append(values)
    return np.array(limbs, dtype=np.int64).T.copy()


def _carry(y: np.ndarray, B: int, buf: np.ndarray) -> None:
    """One carry pass over a limb plane, in place; the plane holds the same numbers after it.

    Every limb but the top one keeps its low B bits, and its carry,
    z >> B, goes one column up; the shift floors, so the split is exact
    for a signed top limb that the caller has just widened with a zero
    column.  The carries run len(buf) rows at a time through the scratch
    block buf (_gathers), on whole rows: strided column slices cost
    several times as much.
    """
    for lo in range(0, len(y), len(buf)):
        part = y[lo:lo + len(buf)]
        carry = np.right_shift(part, B, out=buf[:len(part)])
        part &= (1 << B) - 1
        part[:, -1] += carry[:, -1] << B  # the top limb is not split
        carry[:, -1] = 0
        part.reshape(-1)[1:] += carry.reshape(-1)[:-1]  # row i's top sends nothing to row i + 1


def iter_sequence(cs: CountingSystem, n_max: int) -> Iterator[int]:
    """Exact a(0..n_max), one term at a time: a(t) = v . y_t with y_0 = w and y_(t+1) = M y_t.

    The recurrence runs on the counting quotient of cs (see _lumped) and
    holds y_t as a (rows + 1, L) int64 limb plane (_limb_plane): entry i
    is sum_l y[i, l] 2^(B l) for the limb width B = 50 - bitlen(R) of a
    table of width R, every limb but the top one nonnegative, the top one
    signed, so negative v and w stay exact.  A step (_step) gathers the
    plane's rows and adds them limb by limb, with no carry, into a second
    plane that trades places with y; each term is read off the start rows
    in Python before the next step, so the terms stream.

    Overflow: a tracked bound b holds |limb| <= b for every limb.  A step
    sums R limbs, so it takes b to R b, and it runs only while R b < 2^62
    < 2^63: no sum wraps.  Before a step whose R b would reach 2^62, a
    carry pass (_carry) leaves every limb below 2^B + (b >> B) in
    magnitude: a low limb keeps B bits and gains a carry of at most
    b >> B from below (the low limbs stay nonnegative, so their carries
    do too), and the top limb is split into a new column once it reaches
    2^B.  Passes repeat while R b >= 2^62, each taking b to at most
    2^B + (b >> B); since R 2^(B + 1) < 2^51 they end, after one pass
    while R < 2^24.  So b < 2^62 holds after every step.

    Before the first term, CapacityError is raised when the plane's bound,
    (rows + 1) x _term_limbs entries, passes twice the state budget.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    cs = _lumped(cs)
    n, R = cs.size, cs.table.shape[1]
    B = _limb_width(R)
    _hold_to_budget(n + 1, _term_limbs(cs, n_max), f"limb plane of terms 0..{n_max}")
    start = [(i, vi) for i, vi in enumerate(cs.v) if vi]
    y = _limb_plane(cs.w + (0,), B)
    gathers, out, buf = _gathers(cs.table, y)
    bound = 1 << B
    for t in range(n_max + 1):
        a = 0
        for i, vi in start:
            x = 0
            for limb in reversed(y[i].tolist()):
                x = (x << B) + limb
            a += vi * x
        yield a
        if t < n_max:
            while R * bound >= 1 << 62:
                if np.abs(y[:, -1]).max() >= 1 << B:
                    gathers = out = buf = None  # freed before the wider plane is made
                    y = np.hstack([y, np.zeros((n + 1, 1), dtype=np.int64)])
                    gathers, out, buf = _gathers(cs.table, y)
                _carry(y, B, buf)
                bound = (1 << B) + (bound >> B)
            y, out = _step(gathers, y, out, buf), y
            bound *= R


def sequence(cs: CountingSystem, n_max: int) -> list[int]:
    """The list of iter_sequence(cs, n_max).

    CapacityError is raised before any term when the list's bound, n_max + 1
    terms of _term_limbs limbs widened by the bits of sum|v|, passes twice
    the state budget.
    """
    _hold_to_budget(n_max + 1, _term_limbs(cs, n_max, sum(map(abs, cs.v)).bit_length()),
                    f"limb list of terms 0..{n_max}")
    return list(iter_sequence(cs, n_max))


def window_apply(q: Polynomial, a: SeqABC, i: int) -> int:
    """Dot product of q's coefficients with the window a(i..i+deg q)."""
    d = max(q.degree, 0)
    if i < 0 or i + d >= len(a):
        raise ValueError(f"window [{i}, {i + d}] outside sequence of length {len(a)}")
    return sum(map(mul, q.coeffs, a[i:i + d + 1]))


def _offset(q: Polynomial, a: SeqABC, below: int | None = None) -> int:
    """Smallest n0 from which q annihilates every available window of a.

    With `below`, the caller vouches for the windows from that index on,
    and only the ones before it are scanned.
    """
    top = len(a) - q.degree if below is None else below
    for i in range(top - 1, -1, -1):
        if window_apply(q, a, i) != 0:
            return i + 1
    return 0


# ---------------------------------------------------------------------------
# matrix minimal polynomial

def _gather_table(M) -> np.ndarray:
    """The read-only gather table of a CountingSystem or of a dense nonnegative integer matrix.

    The table has n + 1 rows, the last the sentinel row (see
    CountingSystem).  A dense matrix, an ndarray or a sequence of rows, is
    read whole by np.asarray, which keeps an ndarray's own integer dtype.
    When that gives no integer dtype (a float entry, ragged rows, or an
    entry past int64, which numpy reads as float64 or as objects), it is
    read again as Python objects, so no entry is rounded.  A ragged or
    non-square matrix, an entry that is not an integer (1.0 included) or
    a negative entry, anywhere, raises ValueError; only then is
    CapacityError raised, when the table would exceed _BLOCK_ENTRIES
    entries, also for an entry past int64.  The nonzero entries become
    the gathers: an entry m is m gathers of its column.
    """
    if isinstance(M, CountingSystem):
        n, width = M.size, M.table.shape[1]
        if n * width > _BLOCK_ENTRIES:
            raise CapacityError(f"a {n} x {width} gather table exceeds {_BLOCK_ENTRIES} entries")
        return M.table
    try:
        A = np.asarray(M)
    except ValueError:  # ragged rows
        A = None
    if A is None or A.dtype.kind not in "biu":
        A = np.array(M, dtype=object)
    n = len(A)
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if A.dtype == object and not all(isinstance(x, numbers.Integral) for x in A.flat):
        raise ValueError("matrix entries must be integers")
    if A.min(initial=0) < 0:
        raise ValueError("matrix entries must be nonnegative")
    if A.max(initial=0) > _BLOCK_ENTRIES:
        raise CapacityError(f"a matrix entry exceeds {_BLOCK_ENTRIES} gathers")
    sums = A.sum(axis=1).astype(np.int64)  # at most n * 2^22: no overflow
    width = int(sums.max(initial=0))
    if n * width > _BLOCK_ENTRIES:
        raise CapacityError(f"a {n} x {width} gather table exceeds {_BLOCK_ENTRIES} entries")
    rows, cols = np.nonzero(A)
    table = np.full((n + 1, width), n, dtype=np.int64)
    table[:n][np.arange(width) < sums[:, None]] = np.repeat(cols, A[rows, cols].astype(np.intp))
    table.flags.writeable = False
    return table


def _projection_terms(table, u, x, count, p):
    """u . M^t . x for t = 0..count-1, all modulo p."""
    u = np.array(u, dtype=np.int64)
    y = np.array(list(x) + [0], dtype=np.int64)
    gathers, out, buf = _gathers(table, y)
    terms = []
    for _ in range(count):
        terms.append(int((u * y[:-1] % p).sum() % p))
        y, out = _step(gathers, y, out, buf), y
        y %= p
    return terms


def _berlekamp_massey(s: list[int], p: int) -> list[int]:
    """Connection polynomial c (ascending, c[0]=1) of the shortest LFSR mod p.

    Satisfies s[n] + c[1] s[n-1] + ... + c[L] s[n-L] = 0 for L <= n < len(s).
    Each discrepancy is one dot product of c with the reversed window,
    reduced once.
    """
    r = s[::-1]  # s[n - i] is r[N - 1 - n + i]
    N = len(s)
    c, b = [1], [1]
    L, m, bb = 0, 1, 1
    for n in range(N):
        d = sum(map(mul, c, r[N - 1 - n:N - n + L])) % p
        if d == 0:
            m += 1
            continue
        coef = p - d * pow(bb, -1, p) % p  # c <- c - (d / bb) X^m b
        old = c
        if len(c) < len(b) + m:
            c = c + [0] * (len(b) + m - len(c))
        c = c[:m] + [(x + coef * y) % p for x, y in zip(c[m:], b)] + c[m + len(b):]
        if 2 * L <= n:
            L, b, bb, m = n + 1 - L, old, d, 1
        else:
            m += 1
    return c[:L + 1] + [0] * (L + 1 - len(c))


def _min_poly_mod(table, p, rng):
    """Monic candidate (ascending coefficients mod p) from one random projection."""
    n = len(table) - 1
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


def _crt_symmetric(residues: list[int], moduli: list[int]) -> int:
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, p)) % p
        x += m * t
        m *= p
    x %= m
    return x - m if 2 * x > m else x


def _lift(registers: Iterable[tuple[int, list[int]]], accept: Callable[[Polynomial], bool],
          bound: Callable[[int], int]) -> Polynomial | None:
    """The first symmetric CRT lift of the longest registers that accept takes.

    registers yields (p, coefficients modulo p) of a register of length L
    (L + 1 coefficients) for distinct primes p.  Reduction mod p can only
    shorten a register, so a shorter one is skipped and a longer one
    discards those before it.  From the first prime on, the lift of the
    registers kept is offered to accept; once the product of their primes
    exceeds 2 bound(L) + 1, a lift bounded by bound(L) would have been
    found, and None is returned.

    One prime is enough when its lift is accepted, because accept is an
    exact check: p(M) = 0 by _verify_annihilates_matrix, or every window
    of the terms vanishing over the integers.  A register modulo p is
    never longer than the true one, so an accepted lift of the longest
    length seen is the minimal polynomial, or the shortest recurrence,
    which is unique when 2L <= n (Massey 1969).  A lift from too few
    primes fails its check, and the next prime is added.  Such a lift
    usually fails fast: the sequence route checks the top window first,
    and the matrix route the first column block modulo 2^64.
    """
    primes: list[int] = []
    kept: list[list[int]] = []
    for p, reg in registers:
        if kept and len(reg) != len(kept[0]):
            if len(reg) < len(kept[0]):
                continue  # p divides a minor of the integral register
            primes, kept = [], []  # the earlier primes were the unlucky ones
        primes.append(p)
        kept.append(reg)
        q = Polynomial([_crt_symmetric(list(c), primes) for c in zip(*kept)])
        if accept(q):
            return q
        if math.prod(primes) > 2 * bound(len(reg) - 1) + 1:
            return None
    return None


def _spanning_columns(table: np.ndarray) -> np.ndarray:
    """Columns G of M whose Krylov spaces together span every unit vector; ascending.

    (M e_j)[i] = M[i][j], so M e_j is a positive combination of the unit
    vectors of j's predecessors, the rows i whose gathers include j.  Let
    K be an M-invariant subspace holding e_g for every g in G (over Q, or
    modulo a prime above every entry of M).  If e_j lies in K and so do
    the unit vectors of all but one predecessor i of j, then M[i][j] e_i,
    the rest of M e_j, lies in K, and so does e_i.  The closure runs
    that rule to a fixpoint with a worklist and a count of each state's
    predecessors not yet popped; whenever it stops short of every state,
    the highest-numbered state not yet derived is added to G as a seed.
    """
    n = len(table) - 1
    succ = [set(row) - {n} for row in table[:n].tolist()]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    unknown = list(map(len, pred))  # predecessors not yet popped
    known = [False] * n
    seeds = []
    for seed in range(n - 1, -1, -1):
        if known[seed]:
            continue
        seeds.append(seed)
        known[seed] = True
        work = [seed]
        while work:
            j = work.pop()
            for k in succ[j]:
                unknown[k] -= 1
            for k in itertools.chain(succ[j], (j,)):
                # a count of 1 may be a predecessor derived but not yet popped
                if known[k] and unknown[k] == 1:
                    i = next((i for i in pred[k] if not known[i]), None)
                    if i is not None:
                        known[i] = True
                        work.append(i)
    return np.array(seeds[::-1], dtype=np.intp)


def _verify_annihilates_matrix(p: Polynomial, table: np.ndarray) -> bool:
    """Certified check that p(M) = 0, by a gather Horner modulo 2^64 and primes.

    Only the columns G of _spanning_columns are evaluated, and that
    suffices: the kernel of p(M) is M-invariant, since p(M) commutes with
    M, so once p(M) e_g = 0 for every g in G, the kernel holds every
    M^t e_g, whose span holds every unit vector: p(M) = 0.
    M is nonnegative with row sums at most R, the table's width, so the
    entries of M^t are at most R^t and every entry of p(M) lies in
    [-B, B] for B = sum|p_i| * R^deg.  The moduli are 2^64, then the
    fixed primes just below 2^31: they are pairwise coprime, so vanishing
    modulo moduli whose product exceeds 2B + 1 proves exact vanishing.
    Each Horner step H <- M H + c I is one _step, a sum of R row gathers
    of H, and an add of c on the diagonal, so the check costs
    O(deg nnz |G|) per modulus, nnz = n R the table's entries, with no
    dense product and no BLAS.  Modulo 2^64 a step is plain uint64
    arithmetic, whose wraparound is the reduction; modulo a prime,
    residues are reduced only when a tracked bound on the entries would
    reach 2^64.  The columns of H are independent and run in blocks of
    about _CACHE_ENTRIES entries, so H, the step's second matrix and its
    scratch block stay in a core's L2 cache for all deg steps.
    The gathers skip the bounds check: table must hold only indices in
    [0, n], with its sentinel row, as the read-only tables of
    CountingSystem and _gather_table do.
    """
    if p.is_zero():
        return False
    n = len(table) - 1
    R = max(table.shape[1], 1)
    bound = sum(abs(c) for c in p.coeffs) * R ** p.degree
    spanning = _spanning_columns(table)
    block = max(1, _CACHE_ENTRIES // (n + 1))
    have = 1
    for q in itertools.chain([_RING], _primes_below(1 << 31)):
        coeffs = [np.uint64(c % q) for c in reversed(p.coeffs)]
        for lo in range(0, len(spanning), block):
            cols = spanning[lo:lo + block]
            diag = (cols, np.arange(len(cols)))
            H = np.zeros((n + 1, len(cols)), dtype=np.uint64)
            # row n of H stays zero: the sentinel row and the padding of
            # short table rows gather it, as does the sentinel column of M = 0
            gathers, out, buf = _gathers(table, H)
            H[diag] = coeffs[0]
            hb = q  # every entry of H lies in [0, hb); tracked for the primes only
            for c in coeffs[1:]:
                if q != _RING:  # modulo 2^64 the wraparound is the reduction
                    if R * hb + q >= _RING:
                        H %= np.uint64(q)
                        hb = q
                    hb = R * hb + q
                H, out = _step(gathers, H, out, buf), H
                H[diag] += c
            if q != _RING:
                H %= np.uint64(q)
            if H.any():
                return False
        have *= q
        if have > 2 * bound + 1:
            return True


def matrix_min_poly(M, seed: int = 0) -> Polynomial:
    """Minimal polynomial of a nonnegative integer matrix, monic over the integers.

    Berlekamp-Massey runs on a projection sequence u M^t x modulo each of
    the primes below 2^31 in descending order (Wiedemann 1986), with u
    and x drawn afresh for each prime from a generator seeded by seed.
    Each register reverses a connection polynomial with constant term 1,
    so every candidate is monic.  The longest registers are lifted by
    symmetric CRT (_lift) from the first prime on, so a minimal
    polynomial with coefficients below 2^30 usually takes one projection,
    and a lift is accepted only after an exact certificate that p(M) = 0:
    a gather Horner (_step, as for the projections and the terms) modulo
    2^64 and then the primes below 2^31, over column blocks of about
    2^16 entries, on only the columns G of _spanning_columns, whose
    Krylov spaces span all the others, at a cost of O(deg nnz |G|) per
    modulus (see _verify_annihilates_matrix).
    Every eigenvalue of M has modulus at most R, the largest row sum, so
    coefficient i of the minimal polynomial of degree d is at most
    C(d, i) R^i <= (1 + R)^d; once the primes outgrow that bound without
    a certified lift, InconclusiveError is raised.

    Accepts a CountingSystem, or a square matrix of nonnegative integers
    as an ndarray or a sequence of rows, such as a CountingSystem's M,
    which is read whole into a gather table (see _gather_table); a
    negative entry or one that is not an integer raises ValueError.
    Raises CapacityError above _MAX_MINPOLY_STATES rows, before any
    dense matrix is read, or when the table exceeds _BLOCK_ENTRIES
    entries.
    """
    n = M.size if isinstance(M, CountingSystem) else len(M)
    if n == 0:
        raise ValueError("empty matrix")
    if n > _MAX_MINPOLY_STATES:
        raise CapacityError(f"matrix size {n} exceeds the {_MAX_MINPOLY_STATES} limit")
    table = _gather_table(M)
    R = table.shape[1]
    rng = random.Random(seed)
    p = _lift(((q, _min_poly_mod(table, q, rng)) for q in _primes_below(1 << 31)),
              lambda p: _verify_annihilates_matrix(p, table), lambda d: (1 + R) ** d)
    if p is None:
        raise InconclusiveError("no lift of the projection registers passed the p(M) = 0 "
                                "certificate")
    return p


# ---------------------------------------------------------------------------
# annihilator extraction

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
    if _offset(p, a):
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
    primes below 2^61 in descending order; the reversed connection
    polynomials of the primes with the longest register are lifted to
    the integers by symmetric CRT (_lift), from the first prime on, and
    a lift is accepted only when it annihilates every window of a, from
    index 0, exactly over the integers.  So a recurrence with
    coefficients below 2^60 usually takes one pass.  A failed lift adds
    the next prime; only when the product of the primes exceeds twice
    the coefficient bound of any integral solution (_lift_bound) is the
    search given up as inconclusive.

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

    def registers():
        for p in _primes_below(1 << 61):
            conn = _berlekamp_massey([x % p for x in a], p)
            L = len(conn) - 1
            if 2 * L > n:
                raise InconclusiveError(f"{n} terms too short for a register of length {L}")
            yield p, conn[::-1]

    q = _lift(registers(), lambda q: not _offset(q, a), lambda L: _lift_bound(a, L))
    if q is None:
        raise InconclusiveError("no integral recurrence of the register's length fits the terms")
    q = q.primitive()
    s = q.x_multiplicity()
    # the lift annihilates every window, so q = lift / X^s does from index s on
    q = q.shift_down(s)
    n0 = _offset(q, a, below=s)
    if n < 2 * q.degree + n0:
        raise InconclusiveError(f"degree {q.degree} from n0 = {n0} is not determined by {n} terms")
    return q, n0


# ---------------------------------------------------------------------------
# asymptotics

@dataclass(frozen=True)
class AsymptoticFit:
    """Growth constants read off the dominant pole of the generating function.

    a(n) ~ c n^(m-1) alpha^n for alpha of multiplicity m, so for m > 1, c
    is the coefficient of the leading power of n.  The parity split fills
    c1 and c2 instead, with a(n) ~ n^(m-1) alpha^n (c1 + (-1)^n c2); c2 is
    0 when -alpha is not a pole of order m.  converged holds when no other
    root shares alpha's modulus (-alpha aside, in the split); otherwise
    reason says why, and the constants of alpha's pole need not govern a(n).
    """
    alpha: float
    c: float | None
    c1: float | None
    c2: float | None
    multiplicity: int
    converged: bool
    reason: str | None = None


def _pole_constant(N: Polynomial, D: Polynomial, m: int, lo: Fraction, hi: Fraction):
    """Bounds on C = m N(x) / (D^(m)(x) (-x)^m) over lo <= x <= hi, or None.

    For a pole of N/D of order m at x, [z^n] N/D ~ C n^(m-1) x^-n
    (Flajolet and Sedgewick 2009, Thm IV.9).  N and D^(m) X^m are bounded
    by Horner in interval arithmetic, on integers scaled by powers of w
    for lo = u/w and hi = v/w; None when the denominator's bounds hold 0.
    """
    E = D
    for _ in range(m):
        E = E.derivative()
    w = math.lcm(lo.denominator, hi.denominator)
    u, v = int(lo * w), int(hi * w)
    bounds = []
    for p in (N, Polynomial.x_power(m) * E):
        plo = phi = 0
        scale = 1
        for c in reversed(p.coeffs):
            products = (plo * u, plo * v, phi * u, phi * v)
            plo, phi = min(products) + c * scale, max(products) + c * scale
            scale *= w
        bounds.append((Fraction(plo * w, scale), Fraction(phi * w, scale)))
    (nlo, nhi), (elo, ehi) = bounds
    if elo <= 0 <= ehi:
        return None
    quotients = [m * (-1) ** m * x / y for x in (nlo, nhi) for y in (elo, ehi)]
    return min(quotients), max(quotients)


def _changes_sign(f: Polynomial, lo: Fraction, hi: Fraction) -> bool:
    return _scaled_value(f.coeffs, lo) * _scaled_value(f.coeffs, hi) <= 0


def asymptotic_fit(a: SeqABC, alpha, annihilator: Polynomial,
                   split_parity: bool = False) -> AsymptoticFit:
    """Read a(n) ~ C n^(m-1) alpha^n exactly off the pole at 1/alpha.

    lda puts the annihilator, any polynomial that annihilates a from some
    offset on, in lowest terms: q of degree d from n0, so the generating
    function of a is N/D with D = X^d q(1/X) and N = (A D) mod X^(d+n0), A
    the polynomial of the first d + n0 terms.  alpha is a RootInterval of
    the largest real root of q, or that root as an exact number; anything
    else raises ValueError.  m is the multiplicity of the squarefree
    factor of q that changes sign on alpha's interval.  C, and with
    split_parity C2 at -1/alpha, is evaluated over that interval, bisected
    until C is known to 10^-12 relative; the midpoint is reported.

    Dominance: the roots of q of modulus above r = (ceil(lo 2^k) - 1)/2^k
    are counted exactly (polys._roots_outside) for k = 2, 4, 8, ... while
    2^-k >= 10^-12.  A count of 1, or of 2 when split_parity is set and
    -alpha is a root (alpha is a root of gcd(q(X), q(-X))), certifies it.
    """
    p = annihilator * Polynomial.x_power(_offset(annihilator, a))
    q, n0 = lda(p, a[:p.degree])  # _offset has checked every window
    d = q.degree
    D = Polynomial(q.coeffs[::-1])
    N = Polynomial((Polynomial(a[:d + n0]) * D).coeffs[:d + n0])
    if isinstance(alpha, RootInterval):
        lo, hi = alpha.lo, alpha.hi
    else:
        lo = hi = Fraction(alpha)
    parts = squarefree_decomposition(q)
    owners = [(f, m) for f, m in parts if _changes_sign(f, lo, hi)]
    s = math.prod((f for f, _ in parts), start=Polynomial([1]))
    if len(owners) != 1 or lo <= 0 or \
            _real_roots_above(s, lo) != (_scaled_value(s.coeffs, lo) != 0):
        raise ValueError("alpha is not the largest real root of the sequence's "
                         "minimal annihilator, or not positive")
    f, m = owners[0]

    minus = split_parity and _changes_sign(gcd(s, Polynomial(
        [c if i % 2 == 0 else -c for i, c in enumerate(s.coeffs)])), lo, hi)
    m_minus = next((i for g, i in parts if minus and _changes_sign(g, -hi, -lo)), 0)
    k, converged, reason = 2, False, None
    while not converged:
        r = Fraction(math.ceil(lo * 2 ** k) - 1, 2 ** k)
        count = _roots_outside(s, r)
        converged = count == (2 if minus else 1)
        if not converged and Fraction(1, 2 ** k) < _PRECISION:
            where = "a root lies on" if count is None else f"{count} roots lie outside"
            reason = (f"alpha is not certified dominant: {where} the circle "
                      f"|x| = {float(r):.12g} just below alpha")
            break
        k *= 2
    if m_minus > m:
        converged, reason = False, f"the pole at -1/alpha has order {m_minus} > {m}"

    at_lo = _scaled_value(f.coeffs, lo)
    while True:
        poles = [(1 / hi, 1 / lo)] + ([(-1 / lo, -1 / hi)] if m_minus == m else [])
        consts = [_pole_constant(N, D, m, x, y) for x, y in poles]
        if all(c and c[1] - c[0] <= _PRECISION * min(abs(c[0]), abs(c[1])) for c in consts):
            break
        for _ in range(10):  # bisect alpha's interval on its factor f
            mid = (lo + hi) / 2
            at_mid = _scaled_value(f.coeffs, mid)
            lo, hi = (mid, hi) if at_mid * at_lo > 0 else (lo, mid) if at_mid else (mid, mid)
    c, *c2 = [float((x + y) / 2) for x, y in consts]
    c2 = c2[0] if c2 else (None if m_minus > m else 0.0)
    fields = (None, c, c2) if split_parity else (c, None, None)
    return AsymptoticFit(float((lo + hi) / 2), *fields, m, converged, reason)
