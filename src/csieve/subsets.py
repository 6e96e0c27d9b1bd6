"""Subsets and multisubsets of [0, n-1] under interval rotations, with the
Sum-type statistics, gcd-constrained families, divisor-chain refinements,
and the block-maximum-sum statistic on cyclic subsets.

Subsets are sorted tuples, multisubsets weakly increasing tuples; the
universe size n travels alongside as an argument.  For d | n the universe
splits into the d-intervals [(j-1)d, jd-1], j = 1..n/d.
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from typing import Iterator

from .actions import CyclicAction, Verdict, check_csp, orbits
from .formulas import brute_gf
from .qpoly import has_period
from .words import Composition

IndexTuple = tuple[int, ...]


def sum_prime(a) -> int:
    """Element sum shifted so the minimal k-subset {0..k-1} scores 0."""
    a = tuple(a)
    return sum(a) - comb(len(a), 2)


def sum_star(a, alpha) -> int:
    """Element sum shifted by the per-interval minimal scores."""
    return sum(a) - sum(comb(x, 2) for x in alpha)


def interval_profile(a, n: int, d: int) -> Composition:
    """Part j counts elements (with multiplicity) in the j-th d-interval."""
    if d < 1 or n % d:
        raise ValueError("d must divide n")
    parts = [0] * (n // d)
    for x in a:
        parts[x // d] += 1
    return tuple(parts)


def rotate_within_intervals(a, n: int, d: int, step: int = 1) -> IndexTuple:
    """The interval action: every d-interval rotates forward simultaneously."""
    if d < 1 or n % d:
        raise ValueError("d must divide n")
    return tuple(sorted(d * (x // d) + (x % d + step) % d for x in a))


def rotate_global(a, n: int, d: int, step: int = 1) -> IndexTuple:
    """The subgroup action: the order-d subgroup of the full rotation,
    adding n/d to every element mod n."""
    if d < 1 or n % d:
        raise ValueError("d must divide n")
    return tuple(sorted((x + step * (n // d)) % n for x in a))


# ---------------------------------------------------------------------------
# enumeration

def enumerate_subsets(n: int, k: int) -> Iterator[IndexTuple]:
    yield from itertools.combinations(range(n), k)


def enumerate_multisubsets(n: int, k: int) -> Iterator[IndexTuple]:
    yield from itertools.combinations_with_replacement(range(n), k)


def _enumerate_profile(n: int, d: int, alpha, chooser) -> Iterator[IndexTuple]:
    alpha = tuple(alpha)
    if d < 1 or n % d:
        raise ValueError("d must divide n")
    if len(alpha) != n // d:
        raise ValueError("profile needs n/d parts")
    per_interval = [list(chooser(range((j - 1) * d, j * d), alpha[j - 1]))
                    for j in range(1, n // d + 1)]
    for pieces in itertools.product(*per_interval):
        yield tuple(x for piece in pieces for x in piece)


def enumerate_s_alpha(n: int, d: int, alpha) -> Iterator[IndexTuple]:
    """Subsets whose d-interval profile is alpha."""
    yield from _enumerate_profile(n, d, alpha, itertools.combinations)


def enumerate_m_alpha(n: int, d: int, alpha) -> Iterator[IndexTuple]:
    """Multisubsets whose d-interval profile is alpha."""
    yield from _enumerate_profile(n, d, alpha, itertools.combinations_with_replacement)


def enumerate_g_de(n: int, k: int, d: int, e: int) -> Iterator[IndexTuple]:
    """k-subsets whose d-interval profile has gcd exactly e with d."""
    if d < 1 or n % d or e < 1 or d % e:
        raise ValueError("need e | d | n")
    for a in enumerate_subsets(n, k):
        if gcd(d, *interval_profile(a, n, d)) == e:
            yield a


def validate_chain(n: int, k: int, chain) -> tuple[int, ...]:
    """A divisor chain d_p | ... | d_0 | n given in ascending order ending
    with n, where d_0 = gcd(n, k)."""
    chain = tuple(chain)
    if len(chain) < 2 or chain[-1] != n:
        raise ValueError("chain must end with n")
    if chain[-2] != gcd(n, k):
        raise ValueError("chain entry before n must be gcd(n, k)")
    for small, big in zip(chain, chain[1:]):
        if small < 1 or big % small:
            raise ValueError(f"not a divisibility chain: {small} does not divide {big}")
    return chain


def enumerate_g_chain(n: int, k: int, chain) -> Iterator[IndexTuple]:
    """The intersection of the gcd families along a divisor chain."""
    chain = validate_chain(n, k, chain)
    for a in enumerate_subsets(n, k):
        if all(gcd(big, *interval_profile(a, n, big)) == small
               for small, big in zip(chain, chain[1:])):
            yield a


# ---------------------------------------------------------------------------
# CSP verifiers

def interval_action(n: int, d: int, carrier) -> CyclicAction:
    return CyclicAction(d, carrier, lambda a: rotate_within_intervals(a, n, d))


def global_action(n: int, d: int, carrier) -> CyclicAction:
    return CyclicAction(d, carrier, lambda a: rotate_global(a, n, d))


def verify_multisubset_refinement(n: int, d: int, alpha) -> Verdict:
    """(multisubsets of profile alpha, interval C_d, Sum) is a CSP."""
    carrier = tuple(enumerate_m_alpha(n, d, alpha))
    if not carrier:
        return Verdict(True, None)
    return check_csp(interval_action(n, d, carrier), brute_gf(carrier, d, sum))


def verify_subset_star(n: int, d: int, alpha) -> Verdict:
    """(subsets of profile alpha, interval C_d, Sum*) is a CSP."""
    alpha = tuple(alpha)
    carrier = tuple(enumerate_s_alpha(n, d, alpha))
    if not carrier:
        return Verdict(True, None)
    return check_csp(interval_action(n, d, carrier),
                     brute_gf(carrier, d, lambda a: sum_star(a, alpha)))


def verify_chain_refinement(n: int, k: int, chain) -> Verdict:
    """(G_D, interval C_d, Sum') is a CSP refining the full k-subset CSP,
    where d is the second chain entry and e the first.  Also checks the
    supporting facts: closure of G_D under the action, d/|orbit| dividing
    e, and Sum' having period e modulo d."""
    chain = validate_chain(n, k, chain)
    e, d = chain[0], chain[1]
    carrier = tuple(enumerate_g_chain(n, k, chain))
    action = interval_action(n, d, carrier)
    f = brute_gf(carrier, d, sum_prime)
    verdict = check_csp(action, f)    # fails with a closure witness if G_D is not closed
    if not verdict.holds:
        return verdict
    for orbit in orbits(action).orbits:
        if e % (d // len(orbit)):
            return Verdict(False, {"check": "orbit-divisibility",
                                   "orbit_size": len(orbit)})
    if not has_period(f, e):
        return Verdict(False, {"check": "period-e-mod-d", "e": e, "d": d})
    return verdict


def verify_g_dd_trivial(n: int, k: int, d: int) -> Verdict:
    """The interval action fixes every member of G_{d,d}, whose Sum' values
    all vanish mod d, making the generating function a constant."""
    carrier = tuple(enumerate_g_de(n, k, d, d))
    for a in carrier:
        if rotate_within_intervals(a, n, d) != a:
            return Verdict(False, {"check": "not-fixed", "subset": a})
        if sum_prime(a) % d:
            return Verdict(False, {"check": "sum-prime-mod-d", "subset": a})
    if not carrier:
        return Verdict(True, None)
    return check_csp(interval_action(n, d, carrier), brute_gf(carrier, d, sum_prime))


def orbit_size_multiset(action: CyclicAction) -> tuple[int, ...]:
    return tuple(sorted(orbits(action).sizes))


def verify_isomorphic_actions(n: int, d: int, k: int) -> Verdict:
    """The interval rotation and the order-d global rotation have the same
    orbit structure on both k-subsets and k-multisubsets."""
    for enum in (enumerate_subsets, enumerate_multisubsets):
        carrier = tuple(enum(n, k))
        if (orbit_size_multiset(interval_action(n, d, carrier))
                != orbit_size_multiset(global_action(n, d, carrier))):
            return Verdict(False, {"check": enum.__name__})
    return Verdict(True, None)


def shift_bijection(n: int, d: int, alpha):
    """A self-map of the profile-alpha subsets raising Sum' by exactly
    e = gcd(d, alpha) modulo d: rotate interval j forward by c_j where the
    c_j solve c_1 alpha_1 + ... ≡ e (mod d)."""
    alpha = tuple(alpha)
    e = gcd(d, *alpha)
    coeffs = _gcd_coefficients(d, alpha, e)

    def apply(a) -> IndexTuple:
        return tuple(sorted(
            d * (x // d) + (x % d + coeffs[x // d]) % d for x in a))

    return apply, e


def _gcd_coefficients(d: int, alpha, e: int) -> tuple[int, ...]:
    """c_j with sum of c_j alpha_j congruent to e modulo d."""
    # fold each alpha_j into a running gcd with d, tracking coefficients
    g = d
    rep = [0] * len(alpha)
    for j, a in enumerate(alpha):
        new_g = gcd(g, a)
        # find u, v with u*g + v*a = new_g
        u, v = _bezout(g, a)
        rep = [u * c for c in rep]
        rep[j] += v
        g = new_g
    assert g == e
    return tuple(c % d for c in rep)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """u, v with u*a + v*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    return old_s, old_t


# ---------------------------------------------------------------------------
# block maxima on cyclic subsets

def mbs(delta, n: int) -> int:
    """Sum of the block maxima of a subset of Z/n, stored 0-based but
    scored with elements named 1..n: element a contributes a+1 when a+1
    (mod n) is absent."""
    s = set(delta)
    return sum(a + 1 for a in s if (a + 1) % n not in s)


def block_maxima_count(delta, n: int) -> int:
    s = set(delta)
    return sum(1 for a in s if (a + 1) % n not in s)


def enumerate_s_kb(n: int, k: int, b: int) -> Iterator[IndexTuple]:
    """Size-k subsets of Z/n (0-based) with exactly b cyclic blocks."""
    for a in enumerate_subsets(n, k):
        if block_maxima_count(a, n) == b:
            yield a


def verify_mbs_csp(n: int, k: int, b: int) -> Verdict:
    if n < 1:
        raise ValueError("mbs needs n >= 1")
    carrier = tuple(enumerate_s_kb(n, k, b))
    if not carrier:
        return Verdict(True, None)
    action = CyclicAction(n, carrier,
                          lambda a: tuple(sorted((x + 1) % n for x in a)))
    return check_csp(action, brute_gf(carrier, n, lambda a: mbs(a, n)))


def subset_from_two_letter_word(w) -> IndexTuple:
    """Positions (0-based) of the 2's; the transport between two-letter
    words and cyclic subsets."""
    return tuple(i for i, x in enumerate(w) if x == 2)
