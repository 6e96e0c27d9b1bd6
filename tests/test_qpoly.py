"""Exact polynomial arithmetic, q-analogues, cyclotomics, residues."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from csieve.qpoly import (ONE, ZERO, ResiduePoly, cyclotomic, evaluate_at_root,
                          has_period, monomial, normalize, orbit_gf, poly_add,
                          poly_divexact, poly_divmod, poly_mul,
                          poly_text, q_binomial, q_multichoose, q_multinomial,
                          reduce, refold)


def test_poly_basics():
    assert normalize([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert poly_add((1, 2), (3,)) == (4, 2)
    assert poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert poly_mul(ZERO, (5, 5)) == ZERO
    assert monomial(3) == (0, 0, 0, 1)


def test_poly_divmod():
    # (q^2 - 1) = (q - 1)(q + 1)
    assert poly_divexact((-1, 0, 1), (-1, 1)) == (1, 1)
    q, r = poly_divmod((1, 1, 1), (0, 1))
    assert q == (1, 1) and r == (1,)
    with pytest.raises(ValueError):
        poly_divexact((1, 1, 1), (0, 1))
    with pytest.raises(ValueError):
        poly_divmod((1,), (2,))    # non-monic divisor


def test_poly_text():
    assert poly_text((0,)) == "0"
    assert poly_text((1, 0, 2, -1)) == "1 + 2*q^2 - q^3"
    assert poly_text((0, 1)) == "q"


def test_q_binomial():
    assert q_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert q_binomial(5, 0) == ONE
    assert q_binomial(3, 5) == ZERO
    # specialization at q = 1
    for a in range(8):
        for b in range(a + 1):
            assert sum(q_binomial(a, b)) == math.comb(a, b)
    # symmetry
    assert q_binomial(7, 3) == q_binomial(7, 4)


def test_q_multinomial_and_multichoose():
    assert q_multinomial((2, 1)) == (1, 1, 1)
    assert sum(q_multinomial((2, 0, 2, 0, 4))) == 420
    assert q_multichoose(0, 0) == ONE
    assert q_multichoose(0, 3) == ZERO
    assert q_multichoose(2, 2) == q_binomial(3, 2)


def test_cyclotomic():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    # the product over divisors of 12 recovers q^12 - 1
    prod = ONE
    for d in range(1, 13):
        if 12 % d == 0:
            prod = poly_mul(prod, cyclotomic(d))
    assert prod == (-1,) + (0,) * 11 + (1,)


def test_residue_arithmetic():
    f = reduce((1, 2, 3, 4, 5), 3)     # fold onto q^0..q^2
    assert f == ResiduePoly(3, (5, 7, 3))
    assert f.shift(1) == ResiduePoly(3, (3, 5, 7))
    assert f.shift(-1) == f.shift(2)
    g = ResiduePoly(3, (0, 1, 2))
    assert f + g == ResiduePoly(3, (5, 8, 5))
    assert f * 2 == ResiduePoly(3, (10, 14, 6))
    # multiplication wraps exponents
    q = reduce(monomial(1), 3)
    assert (q * q * q) == ResiduePoly(3, (1, 0, 0))


def test_residue_is_a_validated_named_tuple():
    f = ResiduePoly(3, (5, 7, 3))
    assert f == (3, (5, 7, 3)) and len(f) == 2
    assert repr(f) == "ResiduePoly(n=3, coeffs=(5, 7, 3))"
    with pytest.raises(AttributeError):
        f.n = 4
    # __new__ checks every way of building one, _make and _replace too
    for n, coeffs, message in ((0, (), ">= 1"), (3, (1, 2), "exactly n")):
        for build in (lambda: ResiduePoly(n, coeffs),
                      lambda: ResiduePoly._make((n, coeffs)),
                      lambda: f._replace(n=n, coeffs=coeffs)):
            with pytest.raises(ValueError, match=message):
                build()


def test_refold():
    f = ResiduePoly(6, (1, 2, 3, 4, 5, 6))
    assert refold(f, 3) == ResiduePoly(3, (5, 7, 9))
    with pytest.raises(ValueError):
        refold(f, 4)


def test_orbit_gf():
    assert orbit_gf(6, 3) == ResiduePoly(6, (1, 0, 1, 0, 1, 0))
    assert orbit_gf(4, 1) == ResiduePoly(4, (1, 0, 0, 0))
    assert orbit_gf(4, 4) == ResiduePoly(4, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        orbit_gf(6, 4)


def test_has_period():
    f = ResiduePoly(6, (1, 0, 1, 0, 1, 0))
    assert has_period(f, 2)
    assert has_period(f, 4)
    assert not has_period(f, 1)
    assert has_period(f, 6)


def test_evaluate_at_root_known_values():
    n = 4
    f = reduce(q_binomial(4, 2), n)      # CSP polynomial for 2-subsets of [4]
    assert evaluate_at_root(f, 0) == 6
    assert evaluate_at_root(f, 1) == 0
    assert evaluate_at_root(f, 2) == 2
    assert evaluate_at_root(f, 3) == 0


def test_evaluate_at_root_non_integer():
    # q alone at a primitive root is not an integer
    f = reduce(monomial(1), 3)
    assert evaluate_at_root(f, 1) is None
    assert evaluate_at_root(f, 0) == 1


def test_evaluate_at_root_against_complex_arithmetic():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 10)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(n))
        f = ResiduePoly(n, coeffs)
        for k in range(n):
            omega = complex(math.cos(2 * math.pi * k / n),
                            math.sin(2 * math.pi * k / n))
            approx = sum(c * omega ** i for i, c in enumerate(coeffs))
            exact = evaluate_at_root(f, k)
            if exact is None:
                assert abs(approx.imag) > 1e-9 or abs(approx.real - round(approx.real)) > 1e-9
            else:
                assert abs(approx - exact) < 1e-6


def unfolded_value(f: ResiduePoly, k: int):
    """f at omega_n^k from the whole polynomial: its remainder modulo
    Phi_m, m = n / gcd(n, k), taken without folding f first."""
    m = f.n // math.gcd(f.n, k)
    _, rem = poly_divmod(normalize(f.coeffs), cyclotomic(m))
    if len(rem) > 1:
        return None
    return rem[0] if rem else 0


@st.composite
def residues(draw):
    """A residue mod q^n - 1, n <= 24: random coefficients, a random
    residue with a period (constant on the cosets of a divisor, so its
    values at many roots are integers), or a monomial (a root of unity,
    an integer only where it is 1 or -1)."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["random", "periodic", "monomial"]))
    if kind == "random":
        return ResiduePoly(n, tuple(draw(st.lists(st.integers(-3, 3), min_size=n,
                                                  max_size=n))))
    if kind == "periodic":
        g = draw(st.sampled_from([g for g in range(1, n + 1) if n % g == 0]))
        base = draw(st.lists(st.integers(-3, 3), min_size=g, max_size=g))
        return ResiduePoly(n, tuple(base[i % g] for i in range(n)))
    return reduce(monomial(draw(st.integers(0, n - 1))), n)


@settings(max_examples=300, deadline=None)
@given(residues())
def test_the_fold_gives_the_value_of_the_unfolded_polynomial(f):
    # evaluate_at_root folds f mod q^m - 1 (or sums it at m = 1) before
    # dividing by Phi_m; the remainder of the whole f must agree at every k,
    # a non-integer value (None) included
    for k in range(f.n):
        assert evaluate_at_root(f, k) == unfolded_value(f, k), (f, k)


def test_the_fold_covers_integer_and_non_integer_values():
    # q at every root of every order m <= 24: 1 at m = 1, -1 at m = 2, and
    # no integer at any larger order
    for n in range(1, 25):
        f = reduce(monomial(1), n)
        for k in range(n):
            m = n // math.gcd(n, k)
            want = {1: 1, 2: -1}.get(m)
            assert evaluate_at_root(f, k) == unfolded_value(f, k) == want, (n, k)
