"""Exact integer polynomial arithmetic.

Everything here is deterministic and exact, and every polynomial has
arbitrary-precision integer coefficients.  Remainders over the rationals
are taken as primitive pseudo-remainders (a positive rational multiple
of the remainder, in lowest integer terms), which drive the gcd as a
primitive polynomial remainder sequence (Collins 1967; Brown and Traub
1971) and the Sturm chains alike.  Real roots are isolated by Sturm
sequences with certified rational interval endpoints; the sign of f at
num/den is read from the integer den^deg f(num/den).  The roots outside
a circle are counted by the Routh-Hurwitz criterion on a Cauchy index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


_ROOT_WIDTH = Fraction(1, 10 ** 12)  # width of the interval largest_real_root certifies


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
# integer coefficient lists, lowest degree first

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


def _primes_below(top: int) -> Iterator[int]:
    """The primes below top, in descending order: a fixed modulus list."""
    return filter(_is_prime, range(top - 1, 1, -1))


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


def _sturm_chain(a: list[int], b: list[int]) -> list[list[int]]:
    """Sturm sequence from a and b, each member scaled by a positive rational.

    a, b (when nonzero), then the negated primitive remainders; the
    scaling leaves every sign, hence every sign-change count, as in the
    classical chain.  V(x) - V(y) is the Cauchy index of b/a over (x, y),
    for b = a' the number of distinct roots of a in (x, y] (Gantmacher
    1959, ch. XV).  The last member is gcd(a, b) up to a rational factor.
    """
    chain = [a] + ([b] if b else [])
    while len(chain) > 1 and len(chain[-1]) > 1:
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


def _changes(signs) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_changes(chain, x: Fraction) -> int:
    return _changes([v > 0 for v in (_scaled_value(c, x) for c in chain) if v])


def _sign_changes_at_infinity(chain, negative: bool = False) -> int:
    """Sign changes of the chain at +infinity, or at -infinity when negative."""
    return _changes([(c[-1] > 0) != (negative and len(c) % 2 == 0) for c in chain])


def _roots_outside(p: Polynomial, r: Fraction) -> int | None:
    """Number of roots of p, with multiplicity, of modulus above r > 0.

    None when a root lies on the circle |x| = r.  x = r (1 + z) / (1 - z)
    takes Re z > 0 onto |x| > r, so these are the right half-plane roots
    of f(z) = den^d (1 - z)^d p(x), r = num/den and d = deg p, which has
    degree d unless p(-r) = 0.  With f(iy) = U(y) + i V(y), arg f(iy)
    turns by pi (L - R) over the real line, L + R = d: pi times minus the
    Cauchy index of V/U for even d, of -U/V for odd d (Routh-Hurwitz;
    Gantmacher 1959, ch. XV).  A root on the imaginary axis is a real
    root of gcd(U, V), the chain's last member.
    """
    num, den = r.numerator, r.denominator
    f, power = [p.lead], [1]  # power = (den (1 - z))^j after j steps
    for c in reversed(p.coeffs[:-1]):
        power = _poly_mul_int(power, [den, -den])
        f = _poly_add_int(_poly_mul_int(f, [num, num]), [c * x for x in power])
    d = p.degree
    if not _trim_int(f) or len(f) <= d:
        return None
    # i^k cycles 1, i, -1, -i: U takes the even powers, V the odd ones
    U = _trim_int([x if k % 4 == 0 else -x if k % 4 == 2 else 0 for k, x in enumerate(f)])
    V = _trim_int([x if k % 4 == 1 else -x if k % 4 == 3 else 0 for k, x in enumerate(f)])
    chain = _sturm_chain(U, V) if d % 2 == 0 else _sturm_chain(V, [-x for x in U])
    if len(chain[-1]) > 1 and _real_roots_above(Polynomial(chain[-1])):
        return None
    return (d + _sign_changes_at_infinity(chain, True) - _sign_changes_at_infinity(chain)) // 2


def _real_roots_above(p: Polynomial, x: Fraction | None = None) -> int:
    """Number of distinct real roots of p above x, or of all when x is None."""
    chain = _sturm_chain(list(p.coeffs), list(p.derivative().coeffs))
    start = _sign_changes_at_infinity(chain, True) if x is None else _sign_changes(chain, x)
    return start - _sign_changes_at_infinity(chain)


def _squarefree_part(p: Polynomial) -> Polynomial:
    g = gcd(p, p.derivative())
    return p.primitive() if g.degree == 0 else exact_div(p, g).primitive()


def cauchy_bound(p: Polynomial) -> Fraction:
    """Strict bound on the absolute value of every complex root."""
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    lead = abs(p.lead)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def largest_real_root(p: Polynomial) -> RootInterval:
    """The largest real root, certified to an interval of width <= _ROOT_WIDTH.

    Raises NoRealRootError when the polynomial has no real root.  A root
    at 0 needs no case of its own: the bisection starts on [-b, b], so
    its first midpoint is 0, where it returns [0, 0] exactly when no root
    is positive and otherwise keeps bisecting to the right.
    """
    if p.degree < 1:
        raise NoRealRootError("constant polynomial")
    if p.degree == 1:
        root = Fraction(-p.coeffs[0], p.coeffs[1])
        return RootInterval(root, root)

    p = _squarefree_part(p)
    b = cauchy_bound(p)
    chain = _sturm_chain(list(p.coeffs), list(p.derivative().coeffs))
    lo, hi = -b, b
    at_hi = _sign_changes(chain, hi)
    if _sign_changes(chain, lo) == at_hi:
        raise NoRealRootError(f"{p} has no real root")
    # keep the rightmost root-containing half until the interval is tight;
    # a root at mid is the largest only when none lies in (mid, hi]
    while hi - lo > _ROOT_WIDTH:
        mid = (lo + hi) / 2
        at_mid = _sign_changes(chain, mid)
        if at_mid > at_hi:
            lo = mid
        elif _scaled_value(chain[0], mid) == 0:
            return RootInterval(mid, mid)
        else:
            hi, at_hi = mid, at_mid
    return RootInterval(lo, hi)
