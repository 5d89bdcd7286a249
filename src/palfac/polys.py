"""Exact integer polynomial arithmetic.

Everything here is deterministic and exact, and every polynomial has
arbitrary-precision integer coefficients.  Remainders over the rationals
are taken as primitive pseudo-remainders (a positive rational multiple
of the remainder, in lowest integer terms), which drive the gcd as a
primitive polynomial remainder sequence (Collins 1967; Brown and Traub
1971) and the Sturm chain alike.  Factorization over the integers takes
the classical route (squarefree split, factorization modulo a good
prime, Hensel lifting, subset recombination).  Real roots are isolated
by Sturm sequences with certified rational interval endpoints; the sign
of f at num/den is read from the integer den^deg f(num/den).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .construct import CapacityError

MAX_FACTOR_DEGREE = 128


class NoRealRootError(ValueError):
    """Raised when a real root is requested of a polynomial without one."""


class Polynomial:
    """Integer-coefficient polynomial, coefficients stored ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def x_power(n: int, coeff: int = 1) -> "Polynomial":
        return Polynomial([0] * n + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(_poly_add_int(self.coeffs, other.coeffs))

    def __neg__(self) -> "Polynomial":
        return Polynomial([-x for x in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial([other * x for x in self.coeffs])
        return Polynomial(_poly_mul_int(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "X" if i == 1 else f"X^{i}"
                term = var if mag == 1 else f"{mag}{var}"
            parts.append(f"{sign}{term}" if not parts else f" {sign} {term}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """GCD of coefficients, carrying the sign of the leading one."""
        if not self.coeffs:
            return 0
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return -g if self.lead < 0 else g

    def primitive(self) -> "Polynomial":
        """Content removed; leading coefficient made positive."""
        c = self.content()
        if c in (0, 1):
            return self
        return Polynomial([x // c for x in self.coeffs])

    def shift_down(self, n: int) -> "Polynomial":
        """Divide by X^n (requires the n lowest coefficients to vanish)."""
        if any(self.coeffs[:n]):
            raise ValueError("not divisible by that power of X")
        return Polynomial(self.coeffs[n:])

    def x_multiplicity(self) -> int:
        """Largest n with X^n dividing the polynomial (0 for the zero poly)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0


def exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """a / b over the integers, with zero remainder required.

    Raises ValueError at the first quotient coefficient that is not an
    integer, or when a nonzero remainder is left.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    nb = len(b.coeffs)
    q = [0] * max(0, len(rem) - nb + 1)
    for i in range(len(rem) - nb, -1, -1):
        f, r = divmod(rem[i + nb - 1], b.lead)
        if r:
            raise ValueError(f"{b} does not divide {a}")
        q[i] = f
        if f:
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= f * bc
    if any(rem):
        raise ValueError(f"{b} does not divide {a}")
    return Polynomial(q)


def divides(b: Polynomial, a: Polynomial) -> bool:
    try:
        exact_div(a, b)
        return True
    except ValueError:
        return False


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive remainder of a by b: a positive rational multiple of rem(a, b).

    Each elimination step scales a by |lead(b)|/g, g the gcd of the two
    leading coefficients, which is positive, so the result keeps the
    sign of the remainder over the rationals; it is returned divided by
    its (positive) content.  Both lists are trimmed, b nonzero.
    """
    a = a[:]
    nb = len(b)
    while len(a) >= nb:
        top = a.pop()
        g = math.gcd(top, b[-1])
        m, f = abs(b[-1]) // g, (top if b[-1] > 0 else -top) // g
        off = len(a) - nb + 1
        if m != 1:
            a = [m * x for x in a]
        for j in range(nb - 1):
            a[off + j] -= f * b[j]
        _trim_int(a)
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, primitive with positive leading coefficient."""
    fa, fb = list(a.coeffs), list(b.coeffs)
    while fb:
        fa, fb = fb, _prem(fa, fb)
    return Polynomial(fa).primitive()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p = content * prod A_i^i with the A_i squarefree."""
    p = p.primitive()
    out = []
    g = gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    c = exact_div(p, g)
    d = exact_div(p.derivative(), g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c2 = exact_div(c, a)
        d = exact_div(d, a) - c2.derivative()
        c = c2
        i += 1
    return out


# ---------------------------------------------------------------------------
# integer coefficient lists, lowest degree first, reduced mod m on request

def _trim_int(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_int(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add_int(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def _mod_list(a, m):
    return _trim_int([x % m for x in a])


def _poly_divmod_mod(a, b, m):
    """Division mod m by b with lead(b) invertible mod m."""
    a = [x % m for x in a]
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        f = (a[i + len(b) - 1] * inv) % m
        q[i] = f
        if f:
            for j, bc in enumerate(b):
                a[i + j] = (a[i + j] - f * bc) % m
    return _trim_int(q), _trim_int(a[:len(b) - 1])


# ---------------------------------------------------------------------------
# factorization modulo a prime (Cantor–Zassenhaus)

def _pmod_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        a, b = b, _poly_divmod_mod(a, b, p)[1]
    return _pmod_monic(a, p)

def _pmod_powmod(base, e, mod, p):
    result = [1]
    base = _poly_divmod_mod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_divmod_mod(_poly_mul_int(result, base), mod, p)[1]
        base = _poly_divmod_mod(_poly_mul_int(base, base), mod, p)[1]
        e >>= 1
    return result

def _pmod_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [(x * inv) % p for x in a]


def _distinct_degree(f, p):
    """[(product of irreducible factors of degree d, d)] for monic squarefree f."""
    out = []
    h = [0, 1]  # X, iterated through the Frobenius
    d = 0
    f = f[:]
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _pmod_powmod(h, p, f, p)
        diff = h[:] + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        diff = _trim_int(diff)
        g = f[:] if not diff else _pmod_gcd(f, diff, p)
        if len(g) > 1:
            out.append((g, d))
            f = _poly_divmod_mod(f, g, p)[0]
            if len(f) > 1:
                h = _poly_divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(f, d, p, rng):
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _trim_int(a)
        if len(a) < 2:
            continue
        g = _pmod_gcd(f, a, p)
        if 1 < len(g) < len(f):
            break
        # a^((p^d - 1)/2) - 1 splits the factors into quadratic residues
        b = _pmod_powmod(a, (p ** d - 1) // 2, f, p)
        b = b[:]
        if not b:
            b = [0]
        b[0] = (b[0] - 1) % p
        b = _trim_int(b)
        if not b:
            continue
        g = _pmod_gcd(f, b, p)
        if 1 < len(g) < len(f):
            break
    left = _equal_degree_split(g, d, p, rng)
    right = _equal_degree_split(_poly_divmod_mod(f, g, p)[0], d, p, rng)
    return left + right


def _factor_mod_p(f, p, rng):
    """Irreducible monic factors of monic squarefree f over GF(p)."""
    out = []
    for g, d in _distinct_degree(f, p):
        out.extend(_equal_degree_split(g, d, p, rng))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting

def _ext_euclid(a, b, p):
    """(s, t) with s*a + t*b = gcd = 1 (mod p) for coprime monic-ish a, b."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        neg_q = [-x for x in q]
        s0, s1 = s1, _mod_list(_poly_add_int(s0, _poly_mul_int(neg_q, s1)), p)
        t0, t1 = t1, _mod_list(_poly_add_int(t0, _poly_mul_int(neg_q, t1)), p)
    inv = pow(r0[-1], p - 2, p)
    s0 = [(x * inv) % p for x in s0]
    t0 = [(x * inv) % p for x in t0]
    return s0, t0


def _centered(x: int, m: int) -> int:
    x %= m
    return x - m if 2 * x > m else x


def _hensel_pair(f: list[int], g: list[int], h: list[int], p: int, k: int):
    """Lift monic f = g*h (mod p) to mod p^k by quadratic Hensel steps."""
    s, t = _ext_euclid(g, h, p)
    m = p
    target = p ** k
    while m < target:
        m2 = min(m * m, target)
        e = _mod_list(_poly_add_int(f, [-x for x in _poly_mul_int(g, h)]), m2)
        q, r = _poly_divmod_mod(_poly_mul_int(s, e), h, m2)
        g = _mod_list(_poly_add_int(g, _poly_add_int(_poly_mul_int(t, e),
                                                     _poly_mul_int(q, g))), m2)
        h = _mod_list(_poly_add_int(h, r), m2)
        # refresh s, t so s*g + t*h = 1 holds mod m2
        b = _poly_add_int(_poly_mul_int(s, g), _poly_mul_int(t, h))
        b = _mod_list(_poly_add_int(b, [-1]), m2)
        c, d = _poly_divmod_mod(_poly_mul_int(s, b), h, m2)
        s = _mod_list(_poly_add_int(s, [-x for x in d]), m2)
        tb_cg = _poly_add_int(_poly_mul_int(t, b), _poly_mul_int(c, g))
        t = _mod_list(_poly_add_int(t, [-x for x in tb_cg]), m2)
        m = m2
    return g, h


def _hensel_multi(f: list[int], factors: list[list[int]], p: int, k: int):
    """Lift monic f = prod(factors) (mod p) to mod p^k, recursively pairing."""
    if len(factors) == 1:
        return [[c % (p ** k) for c in f]]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = [x % p for x in _poly_mul_int(g, fac)]
    h = [1]
    for fac in factors[half:]:
        h = [x % p for x in _poly_mul_int(h, fac)]
    g_lift, h_lift = _hensel_pair(f, _trim_int(g), _trim_int(h), p, k)
    return (_hensel_multi(g_lift, factors[:half], p, k) +
            _hensel_multi(h_lift, factors[half:], p, k))


def _mignotte_bound(p: Polynomial) -> int:
    norm = math.isqrt(sum(c * c for c in p.coeffs)) + 1
    return (2 ** p.degree) * norm * abs(p.lead)


def _factor_squarefree(p: Polynomial, rng: random.Random) -> list[Polynomial]:
    """Irreducible factors of a primitive squarefree polynomial, degree >= 1."""
    if p.degree == 1:
        return [p]
    lc = p.lead

    # a prime keeping the leading coefficient a unit and p squarefree mod q
    q = 2
    while True:
        q = next_prime(q)
        if lc % q == 0:
            continue
        fq = [c % q for c in p.coeffs]
        d = _trim_int([(i * c) % q for i, c in enumerate(fq)][1:])
        if not d:
            continue
        if len(_pmod_gcd(fq[:], d, q)) == 1:
            break

    monic = _pmod_monic([c % q for c in p.coeffs], q)
    mod_factors = _factor_mod_p(monic, q, rng)
    if len(mod_factors) == 1:
        return [p]
    mod_factors.sort(key=len)

    bound = 2 * _mignotte_bound(p) + 1
    k = 1
    while q ** k < bound:
        k += 1
    pk = q ** k
    # lift the factorization of the monic associate p/lc
    inv = pow(lc, -1, pk)
    monic_f = [(c * inv) % pk for c in p.coeffs]
    lifted = _hensel_multi(monic_f, mod_factors, q, k)

    # subset recombination
    remaining = list(range(len(lifted)))
    current = p
    out: list[Polynomial] = []
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found:
            found = False
            for combo in itertools.combinations(remaining, size):
                prod = [current.lead % pk]
                for i in combo:
                    prod = [x % pk for x in _poly_mul_int(prod, lifted[i])]
                cand = Polynomial([_centered(c, pk) for c in prod]).primitive()
                if cand.degree < 1:
                    continue
                if divides(cand, current):
                    out.append(cand)
                    current = exact_div(current, cand)
                    remaining = [i for i in remaining if i not in combo]
                    found = True
                    break
            if 2 * size > len(remaining):
                break
        size += 1
    if current.degree >= 1:
        out.append(current.primitive())
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for n < 3.18 * 10**23."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int, below: bool = False) -> int:
    """The least prime above n, or with below=True the greatest prime below n."""
    step = -1 if below else 1
    n += step
    while not _is_prime(n):
        if below and n < 2:
            raise ValueError("no prime below 2")
        n += step
    return n


def factor_int_poly(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Irreducible factorization over the integers.

    Returns [(factor, multiplicity)] with primitive positive-lead factors,
    constants dropped; content and sign are recoverable from the input.
    The product of factor^multiplicity times the content equals the input.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree > MAX_FACTOR_DEGREE:
        raise CapacityError(f"degree {p.degree} exceeds the {MAX_FACTOR_DEGREE} limit")
    rng = random.Random(0)
    out: list[tuple[Polynomial, int]] = []
    work = p.primitive()
    xm = work.x_multiplicity()
    if xm:
        out.append((Polynomial.x_power(1), xm))
        work = work.shift_down(xm)
    if work.degree < 1:
        return out
    for sqfree, mult in squarefree_decomposition(work):
        for irr in _factor_squarefree(sqfree, rng):
            out.append((irr.primitive(), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# real roots

@dataclass(frozen=True)
class RootInterval:
    """Certified interval [lo, hi] containing exactly one real root."""
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint)

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


def _sturm_chain(p: Polynomial) -> list[list[int]]:
    """Sturm sequence of p, each member scaled by a positive rational.

    p, p', then the negated primitive remainders; the scaling leaves
    every sign, hence every sign-change count, as in the classical chain.
    """
    chain = [list(p.coeffs)]
    d = list(p.derivative().coeffs)
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _scaled_value(coeffs: list[int], x: Fraction) -> int:
    """den^deg * f(num/den) for x = num/den: f(x) times a positive integer."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        v = _scaled_value(coeffs, x)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _squarefree_part(p: Polynomial) -> Polynomial:
    g = gcd(p, p.derivative())
    return p.primitive() if g.degree == 0 else exact_div(p, g).primitive()


def real_root_count(p: Polynomial) -> int:
    """Number of distinct real roots."""
    if p.degree < 1:
        return 0
    p = _squarefree_part(p)
    b = cauchy_bound(p)
    chain = _sturm_chain(p)
    return _sign_changes(chain, -b) - _sign_changes(chain, b)


def cauchy_bound(p: Polynomial) -> Fraction:
    """Strict bound on the absolute value of every complex root."""
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    lead = abs(p.lead)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def largest_real_root(p: Polynomial,
                      tolerance: Fraction = Fraction(1, 10 ** 12)) -> RootInterval:
    """The largest real root, certified to an interval of width <= tolerance.

    Raises NoRealRootError when the polynomial has no real root.
    """
    if p.degree < 1:
        raise NoRealRootError("constant polynomial")
    xm = p.x_multiplicity()
    if xm:
        # 0 is a root; the largest root is max(0, largest root of the rest)
        rest = p.shift_down(xm)
        if rest.degree >= 1:
            try:
                sub = largest_real_root(rest, tolerance)
                if sub.hi >= 0:
                    return sub
            except NoRealRootError:
                pass
        zero = Fraction(0)
        return RootInterval(zero, zero)
    if p.degree == 1:
        root = Fraction(-p.coeffs[0], p.coeffs[1])
        return RootInterval(root, root)

    p = _squarefree_part(p)
    b = cauchy_bound(p)
    chain = _sturm_chain(p)
    lo, hi = -b, b
    at_hi = _sign_changes(chain, hi)
    if _sign_changes(chain, lo) == at_hi:
        raise NoRealRootError(f"{p} has no real root")
    # keep the rightmost root-containing half until the interval is tight;
    # a root at mid is the largest only when none lies in (mid, hi]
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        at_mid = _sign_changes(chain, mid)
        if at_mid > at_hi:
            lo = mid
        elif _scaled_value(chain[0], mid) == 0:
            return RootInterval(mid, mid)
        else:
            hi, at_hi = mid, at_mid
    return RootInterval(lo, hi)
