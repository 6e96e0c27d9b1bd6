"""Exact integer polynomial arithmetic: Z[q], q-analogues, cyclotomic
polynomials, and residues in Z[q]/(q^n - 1).

Plain polynomials ("IntPoly") are tuples of coefficients, index i holding
the coefficient of q^i, with no trailing zeros.  Residues are dense length-n
coefficient vectors.  Everything is arbitrary-precision integer arithmetic;
no floating point appears anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

IntPoly = tuple[int, ...]

ZERO: IntPoly = ()
ONE: IntPoly = (1,)


def normalize(coeffs: Iterable[int]) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def monomial(exponent: int) -> IntPoly:
    if exponent < 0:
        raise ValueError("negative exponent")
    return (0,) * exponent + (1,)


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return normalize(out)


def poly_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return poly_add(a, tuple(-c for c in b))


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """The product a * b; a factor ONE gives back the other operand."""
    if not a or not b:
        return ZERO
    if b == ONE:
        return a
    if a == ONE:
        return b
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return normalize(out)


def poly_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Division with remainder; requires b monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if b[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            quo[i - db] = c
            for j, cb in enumerate(b):
                rem[i - db + j] -= c * cb
    return normalize(quo), normalize(rem)


def poly_divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def poly_text(coeffs: Iterable[int]) -> str:
    """Canonical text form "c0 + c1*q + c2*q^2 + ..." with zero terms omitted."""
    terms = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            base = "q" if e == 1 else f"q^{e}"
            body = base if abs(c) == 1 else f"{abs(c)}*{base}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    neg, body = terms[0]
    out = ("-" if neg else "") + body
    for neg, body in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ---------------------------------------------------------------------------
# q-analogues, exact: each division below leaves no remainder, and
# poly_divexact raises if one ever does

@lru_cache(maxsize=None)
def q_binomial(a: int, b: int) -> IntPoly:
    """[a choose b]_q, which is [a choose a - b]_q, in min(b, a - b) steps
    of one loop: no call stack per unit of a."""
    if b < 0 or b > a:
        return ZERO
    out = ONE
    for i in range(min(b, a - b)):
        # [a choose i+1]_q = [a choose i]_q (q^(a-i) - 1) / (q^(i+1) - 1)
        out = poly_divexact(poly_mul(poly_sub(monomial(a - i), ONE), out),
                            poly_sub(monomial(i + 1), ONE))
    return out


def q_multinomial(alpha: Iterable[int]) -> IntPoly:
    """The q-multinomial coefficient of the composition alpha of sum(alpha)."""
    out = ONE
    prefix = 0
    for a in alpha:
        prefix += a
        out = poly_mul(out, q_binomial(prefix, a))
    return out


def q_multichoose(a: int, b: int) -> IntPoly:
    """q-analogue of the multiset coefficient ((a multichoose b))."""
    if b == 0:
        return ONE
    if a == 0:
        return ZERO
    return q_binomial(a + b - 1, b)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and exact root-of-unity evaluation

@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = poly_sub(monomial(d), ONE)
    for e in range(1, d):
        if d % e == 0:
            num = poly_divexact(num, cyclotomic(e))
    return num


# ---------------------------------------------------------------------------
# residues mod q^n - 1

class _ResidueFields(NamedTuple):
    n: int
    coeffs: tuple[int, ...]


class ResiduePoly(_ResidueFields):
    """Dense integer polynomial residue modulo q^n - 1.

    An immutable named tuple (n, coeffs): it compares equal to that plain
    tuple, and len() and unpacking work on it.  The checks run in __new__
    (and _make, hence _replace), so no invalid residue is ever built."""

    __slots__ = ()

    def __new__(cls, n: int, coeffs: tuple[int, ...]):
        if n < 1:
            raise ValueError("modulus exponent must be >= 1")
        if len(coeffs) != n:
            raise ValueError("need exactly n coefficients")
        return tuple.__new__(cls, (n, coeffs))

    @classmethod
    def _make(cls, iterable) -> "ResiduePoly":
        return cls(*iterable)

    @staticmethod
    def zero(n: int) -> "ResiduePoly":
        return ResiduePoly(n, (0,) * n)

    def _check(self, other: "ResiduePoly"):
        if self.n != other.n:
            raise ValueError("modulus mismatch")

    def __add__(self, other: "ResiduePoly") -> "ResiduePoly":
        self._check(other)
        return ResiduePoly(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return ResiduePoly(self.n, tuple(other * c for c in self.coeffs))
        self._check(other)
        out = [0] * self.n
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[(i + j) % self.n] += a * b
        return ResiduePoly(self.n, tuple(out))

    __rmul__ = __mul__

    def shift(self, s: int) -> "ResiduePoly":
        """Multiply by q^s (s may be negative)."""
        s %= self.n
        return ResiduePoly(self.n, self.coeffs[-s:] + self.coeffs[:-s] if s else self.coeffs)

    def text(self) -> str:
        return poly_text(self.coeffs)


def reduce(p: IntPoly, n: int) -> ResiduePoly:
    """Fold q^i onto q^(i mod n)."""
    out = [0] * n
    for i, c in enumerate(p):
        out[i % n] += c
    return ResiduePoly(n, tuple(out))


def refold(f: ResiduePoly, g: int) -> ResiduePoly:
    """Further reduction mod q^g - 1; requires g | n."""
    if f.n % g:
        raise ValueError("can only refold to a divisor of the modulus")
    return reduce(f.coeffs, g)


@lru_cache(maxsize=None)
def orbit_gf(n: int, orbit_size: int) -> ResiduePoly:
    """(q^n - 1)/(q^(n/d) - 1) = sum_{i<d} q^(i n/d), for d | n.  Cached:
    at most one residue per divisor d of each modulus n."""
    if orbit_size < 1 or n % orbit_size:
        raise ValueError("orbit size must divide n")
    step = n // orbit_size
    out = [0] * n
    for i in range(orbit_size):
        out[i * step] = 1
    return ResiduePoly(n, tuple(out))


def has_period(f: ResiduePoly, a: int) -> bool:
    """True iff q^a * f == f mod q^n - 1."""
    return f.shift(a) == f


@lru_cache(maxsize=None)
def _cyclotomic_tail(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The degree D of Phi_m and its nonzero terms (j, c_j) below q^D: the
    reduction q^D = -sum c_j q^j that evaluate_at_root applies."""
    phi = cyclotomic(m)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def evaluate_at_root(f: ResiduePoly, k: int):
    """Exact value of f at omega_n^k (omega_n a primitive n-th root of unity).

    Returns an int when the value is an integer, else None ("non-integer"):
    the value is an integer iff the reduction of f modulo the minimal
    polynomial Phi_m of omega_n^k, m = n / gcd(n, k), is constant.  At
    m = 1 that value is f(1), the sum of the coefficients.  Otherwise f is
    folded mod q^m - 1 first, which Phi_m divides, and the m-term fold is
    reduced in place from its top term down by the low terms of the monic
    Phi_m of degree D; no quotient is kept.
    """
    m = f.n // math.gcd(f.n, k)
    c = f.coeffs
    if m == 1:
        return sum(c)
    rem = list(c) if m == f.n else [sum(c[i::m]) for i in range(m)]
    degree, tail = _cyclotomic_tail(m)
    for i in range(m - 1, degree - 1, -1):
        top = rem[i]
        if top:
            base = i - degree
            for j, cj in tail:
                rem[base + j] -= top * cj
    return None if any(rem[1:degree]) else rem[0]
