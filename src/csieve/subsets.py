"""Subsets and multisubsets of [0, n-1] under interval rotations, with the
Sum-type statistics, gcd-constrained families, divisor-chain refinements,
and the block-maximum-sum statistic on cyclic subsets.

Subsets are sorted tuples, multisubsets weakly increasing tuples; the
universe size n travels alongside as an argument.  For d | n the universe
splits into the d-intervals [(j-1)d, jd-1], j = 1..n/d.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, gcd
from operator import eq
from typing import Iterator

from .actions import CyclicAction, NotClosed, Verdict, check_csp, orbits
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


def _check_divides(n: int, d: int) -> None:
    if d < 1 or n % d:
        raise ValueError("d must divide n")


def interval_profile(a, n: int, d: int) -> Composition:
    """Part j counts elements (with multiplicity) in the j-th d-interval."""
    _check_divides(n, d)
    parts = [0] * (n // d)
    for x in a:
        parts[x // d] += 1
    return tuple(parts)


# The actions' generators as permutations of the universe [0, n-1],
# cached per (n, d): the image of element x is table[x].

@lru_cache(maxsize=1024)
def _interval_table(n: int, d: int) -> IndexTuple:
    return tuple(d * (x // d) + (x % d + 1) % d for x in range(n))


@lru_cache(maxsize=1024)
def _global_table(n: int, d: int) -> IndexTuple:
    return tuple((x + n // d) % n for x in range(n))


def _table_step(table: IndexTuple):
    """The (multi)subset step of a universe permutation: map every element
    through the table and sort the image."""
    image = table.__getitem__

    def step(a) -> IndexTuple:
        return tuple(sorted(map(image, a)))

    return step


def rotate_within_intervals(a, n: int, d: int) -> IndexTuple:
    """The interval action: every d-interval rotates forward simultaneously."""
    _check_divides(n, d)
    return _table_step(_interval_table(n, d))(a)


def rotate_global(a, n: int, d: int) -> IndexTuple:
    """The subgroup action: the order-d subgroup of the full rotation,
    adding n/d to every element mod n."""
    _check_divides(n, d)
    return _table_step(_global_table(n, d))(a)


# ---------------------------------------------------------------------------
# enumeration

def enumerate_subsets(n: int, k: int) -> Iterator[IndexTuple]:
    yield from itertools.combinations(range(n), k)


def enumerate_multisubsets(n: int, k: int) -> Iterator[IndexTuple]:
    yield from itertools.combinations_with_replacement(range(n), k)


def _enumerate_profile(n: int, d: int, alpha, chooser) -> Iterator[IndexTuple]:
    alpha = tuple(alpha)
    _check_divides(n, d)
    if len(alpha) != n // d:
        raise ValueError("profile needs n/d parts")
    # a zero part contributes only the empty choice, so only the nonzero
    # parts get a choice list: the product yields the same tuples in the
    # same order
    per_interval = [list(chooser(range(j * d, (j + 1) * d), a))
                    for j, a in enumerate(alpha) if a]
    join = itertools.chain.from_iterable
    for pieces in itertools.product(*per_interval):
        yield tuple(join(pieces))


def enumerate_s_alpha(n: int, d: int, alpha) -> Iterator[IndexTuple]:
    """Subsets whose d-interval profile is alpha."""
    yield from _enumerate_profile(n, d, alpha, itertools.combinations)


def enumerate_m_alpha(n: int, d: int, alpha) -> Iterator[IndexTuple]:
    """Multisubsets whose d-interval profile is alpha."""
    yield from _enumerate_profile(n, d, alpha, itertools.combinations_with_replacement)


def by_profile(objects, n: int, d: int) -> dict[Composition, list[IndexTuple]]:
    """The (multi)subsets of [0, n-1] bucketed by d-interval profile, each
    bucket in the order the objects come.  Given every k-multisubset
    (k-subset) in lexicographic order, the bucket of alpha is
    enumerate_m_alpha(n, d, alpha) (enumerate_s_alpha), in the same order,
    and the keys are exactly the profiles with a member."""
    buckets: dict[Composition, list[IndexTuple]] = {}
    for a in objects:
        buckets.setdefault(interval_profile(a, n, d), []).append(a)
    return buckets


def _profiles(k: int, parts: int, unit: int, cap: int) -> Iterator[Composition]:
    """The compositions of k into `parts` parts, each a multiple of `unit`
    and at most `cap`, in lexicographic order."""
    if k % unit:
        return
    top = cap // unit

    def extend(remaining: int, left: int) -> Iterator[Composition]:
        if left == 1:
            yield (remaining * unit,)
            return
        for first in range(max(0, remaining - top * (left - 1)), min(top, remaining) + 1):
            for rest in extend(remaining - first, left - 1):
                yield (first * unit,) + rest

    if 0 <= k <= top * unit * parts:
        yield from extend(k // unit, parts)


def enumerate_g_de(n: int, k: int, d: int, e: int) -> Iterator[IndexTuple]:
    """k-subsets whose d-interval profile has gcd exactly e with d.

    Generated profile by profile: every profile with parts that are
    multiples of e and gcd e with d yields its subsets (those of
    `enumerate_s_alpha`), so the family comes in profile order, not in
    lexicographic order.  At d = 1 the family is every k-subset."""
    if d < 1 or n % d or e < 1 or d % e:
        raise ValueError("need e | d | n")
    if d == 1:
        yield from enumerate_subsets(n, k)
        return
    for alpha in _profiles(k, n // d, e, d):
        if gcd(d, *alpha) == e:
            yield from _enumerate_profile(n, d, alpha, itertools.combinations)


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


def _coarsen(alpha: Composition, factor: int) -> Composition:
    """The profile over intervals `factor` times as long."""
    return tuple(sum(alpha[i:i + factor]) for i in range(0, len(alpha), factor))


def enumerate_g_chain(n: int, k: int, chain) -> Iterator[IndexTuple]:
    """The intersection of the gcd families along a divisor chain.

    Generated from the profiles over the finest intervals the chain
    names, d = chain[1], whose parts are multiples of e = chain[0]: a
    profile is kept when, coarsened to each chain entry, it has the gcd
    the chain asks for, and yields its subsets (those of
    `enumerate_s_alpha`), so the family comes in profile order, not in
    lexicographic order."""
    chain = validate_chain(n, k, chain)
    # the condition gcd(1, profile) == 1 holds for every subset
    while len(chain) > 2 and chain[1] == 1:
        chain = chain[1:]
    e, d = chain[0], chain[1]
    pairs = list(zip(chain, chain[1:]))
    for alpha in _profiles(k, n // d, e, d):
        if all(gcd(big, *_coarsen(alpha, big // d)) == small for small, big in pairs):
            yield from _enumerate_profile(n, d, alpha, itertools.combinations)


# ---------------------------------------------------------------------------
# CSP verifiers

def interval_action(n: int, d: int, carrier) -> CyclicAction:
    """`rotate_within_intervals` as an order-d action on a carrier of
    subsets or multisubsets of [0, n-1].  d | n is checked and the table
    of the universe permutation bound once, here; each step then only maps
    an element through the table and sorts the image."""
    _check_divides(n, d)
    return CyclicAction(d, carrier, _table_step(_interval_table(n, d)))


def global_action(n: int, d: int, carrier) -> CyclicAction:
    """`rotate_global` as an order-d action, its table bound once like
    `interval_action`'s."""
    _check_divides(n, d)
    return CyclicAction(d, carrier, _table_step(_global_table(n, d)))


def verify_multisubset_refinement(n: int, d: int, alpha, carrier=None) -> Verdict:
    """(multisubsets of profile alpha, interval C_d, Sum) is a CSP.  A
    sweep that has already bucketed the k-multisubsets by profile passes
    the bucket as the carrier; without it the verifier enumerates the
    profile itself."""
    carrier = tuple(enumerate_m_alpha(n, d, alpha) if carrier is None else carrier)
    if not carrier:
        return Verdict(True, None)
    return check_csp(interval_action(n, d, carrier), brute_gf(carrier, d, sum))


def verify_subset_star(n: int, d: int, alpha, carrier=None) -> Verdict:
    """(subsets of profile alpha, interval C_d, Sum*) is a CSP.  The
    carrier is a sweep's bucket or else enumerated, as in
    `verify_multisubset_refinement`.  On one profile Sum* is Sum less a
    constant, so its generating function is Sum's shifted by
    sum_star((), alpha)."""
    alpha = tuple(alpha)
    carrier = tuple(enumerate_s_alpha(n, d, alpha) if carrier is None else carrier)
    if not carrier:
        return Verdict(True, None)
    return check_csp(interval_action(n, d, carrier),
                     brute_gf(carrier, d, sum).shift(sum_star((), alpha)))


def verify_chain_refinement(n: int, k: int, chain) -> Verdict:
    """(G_D, interval C_d, Sum') is a CSP refining the full k-subset CSP,
    where d is the second chain entry and e the first.  Also checks the
    supporting facts: closure of G_D under the action, d/|orbit| dividing
    e, and Sum' having period e modulo d.  The family comes in profile
    order; no verdict depends on it except the closure witness, which
    names the first element in that order and appears only for a family
    that is not closed."""
    chain = validate_chain(n, k, chain)
    e, d = chain[0], chain[1]
    carrier = tuple(enumerate_g_chain(n, k, chain))
    action = interval_action(n, d, carrier)
    f = brute_gf(carrier, d, sum_prime)
    verdict = check_csp(action, f)    # fails with a closure witness if G_D is not closed
    if not verdict.holds:
        return verdict
    for size in orbits(action).sizes:     # the decomposition check_csp made
        if e % (d // size):
            return Verdict(False, {"check": "orbit-divisibility", "orbit_size": size})
    if not has_period(f, e):
        return Verdict(False, {"check": "period-e-mod-d", "e": e, "d": d})
    return verdict


def _check_universe(n: int, d: int, k: int) -> None:
    """Reject an instance outside the theorems' range before checking it."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_divides(n, d)
    if k < 0:
        raise ValueError("k must be non-negative")


def verify_g_dd_trivial(n: int, k: int, d: int) -> Verdict:
    """The interval action fixes every member of G_{d,d}, whose Sum' values
    all vanish mod d, making the generating function a constant.  The
    action is built once: a member is fixed when the successor maps its
    index to itself, and the same action goes on to the CSP check.  A
    witness names the first failing member in carrier order; only when
    the step leaves the carrier are the members stepped again to find it."""
    _check_universe(n, d, k)
    carrier = tuple(enumerate_g_de(n, k, d, d))
    if not carrier:
        return Verdict(True, None)
    action = interval_action(n, d, carrier)
    try:
        fixed = list(map(eq, action.successor(), range(len(carrier))))
    except NotClosed:
        fixed = [action.step(a) == a for a in carrier]
    for a, is_fixed in zip(carrier, fixed):
        if not is_fixed:
            return Verdict(False, {"check": "not-fixed", "subset": a})
        if sum_prime(a) % d:
            return Verdict(False, {"check": "sum-prime-mod-d", "subset": a})
    return check_csp(action, brute_gf(carrier, d, sum_prime))


def orbit_size_multiset(action: CyclicAction) -> tuple[int, ...]:
    return tuple(sorted(orbits(action).sizes))


def verify_isomorphic_actions(n: int, d: int, k: int) -> Verdict:
    """The interval rotation and the order-d global rotation have the same
    orbit structure on both k-subsets and k-multisubsets."""
    _check_universe(n, d, k)
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

def _block_maxima(a: IndexTuple, n: int) -> list[int]:
    """The block maxima of a sorted tuple of distinct elements of Z/n:
    each element whose cyclic neighbour (the next element, the first for
    the last) is not its successor mod n."""
    return [x for x, y in zip(a, a[1:] + a[:1]) if (x + 1) % n != y]


def mbs(delta, n: int) -> int:
    """Sum of the block maxima of a subset of Z/n, stored 0-based but
    scored with elements named 1..n: element a contributes a+1 when a+1
    (mod n) is absent."""
    return _sorted_mbs(tuple(sorted(set(delta))), n)


def _sorted_mbs(a: IndexTuple, n: int) -> int:
    """`mbs` of a sorted tuple of distinct elements."""
    maxima = _block_maxima(a, n)
    return sum(maxima) + len(maxima)


def subsets_by_blocks(n: int, k: int) -> list[list[IndexTuple]]:
    """The k-subsets of Z/n (0-based) bucketed by their number of cyclic
    blocks, each block-counted once: entry b is S_{k,b}, in lexicographic
    order, for b = 0..k (a k-subset has at most k blocks)."""
    buckets: list[list[IndexTuple]] = [[] for _ in range(k + 1)]
    for a in enumerate_subsets(n, k):
        buckets[len(_block_maxima(a, n))].append(a)
    return buckets


def enumerate_s_kb(n: int, k: int, b: int) -> Iterator[IndexTuple]:
    """Size-k subsets of Z/n (0-based) with exactly b cyclic blocks: bucket
    b of `subsets_by_blocks`, and none for b outside 0..k."""
    if 0 <= b <= k:
        yield from subsets_by_blocks(n, k)[b]


def verify_mbs_csp(n: int, k: int, b: int, carrier=None) -> Verdict:
    """(S_{k,b}, rotation C_n, mbs) is a CSP.  A sweep that has already
    bucketed the k-subsets passes the bucket as the carrier; without it
    the verifier enumerates S_{k,b} itself."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0 or b < 0:
        raise ValueError("k and b must be non-negative")
    carrier = tuple(enumerate_s_kb(n, k, b) if carrier is None else carrier)
    if not carrier:
        return Verdict(True, None)
    return check_csp(global_action(n, n, carrier),
                     brute_gf(carrier, n, lambda a: _sorted_mbs(a, n)))
