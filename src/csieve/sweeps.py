"""Exhaustive verification sweeps over desk-scale parameter ranges.

Each sweep drives a public verifier of the layer that owns the check and
yields (key, verdict) pairs, key a JSON-ready dict naming the instance.
A word sweep reads each content's keys off the memoized table that its
verifier reads the class from (cdt_groups or necklace_classes).
The acceptance tests run every sweep of THEOREMS through `csieve verify`
at its default bounds, so those defaults are the acceptance ranges.
"""

from __future__ import annotations

from math import comb, gcd, prod
from typing import Callable, Iterator, NamedTuple

from .actions import Verdict
from .formulas import (closed_forms, feasible_deltas, macmahon_check, multichoose,
                       multinomial, period_g_check, vandermonde_check,
                       verify_extension, verify_flex_maj_equidistribution,
                       verify_flex_universal, verify_formula_vs_oracle, verify_main_theorem)
from .insertion import verify_phi
from .subsets import (by_profile, enumerate_multisubsets, enumerate_subsets,
                      verify_chain_refinement, verify_g_dd_trivial, verify_isomorphic_actions,
                      verify_mbs_csp, verify_multisubset_refinement, verify_subset_star)
from .words import cdt_groups, necklace_classes, necklaces_over, strong_compositions

SweepItem = tuple[dict, Verdict]

# The letters of the flex necklace sweep; the largest k of the subset-side sweeps.
FLEX_ALPHABET = 3
K_MAX = 4


def iter_contents(n_max: int, max_parts: int | None = 4) -> Iterator[tuple]:
    """The strong compositions of 1..n_max into at most max_parts parts
    (any number of parts when max_parts is None)."""
    for n in range(1, n_max + 1):
        top = n if max_parts is None else min(max_parts, n)
        for parts in range(1, top + 1):
            yield from strong_compositions(n, parts)


def largest_content(n_max: int, max_parts: int | None) -> tuple:
    """The content of iter_contents(n_max, max_parts) with the most words:
    n_max split as evenly as possible into min(max_parts, n_max) parts
    (all n_max parts when max_parts is None)."""
    parts = n_max if max_parts is None else min(max_parts, n_max)
    q, r = divmod(n_max, parts)
    return (q + 1,) * r + (q,) * (parts - r)


def sweep_main(n_max: int = 8, max_parts: int = 4) -> Iterator[SweepItem]:
    """The refinement CSP (verify_main_theorem) on every feasible
    content/CDT class."""
    for alpha in iter_contents(n_max, max_parts):
        for delta in sorted(cdt_groups(alpha)):
            yield {"alpha": alpha, "delta": delta}, verify_main_theorem(alpha, delta)


def sweep_formulas(n_max: int = 10, max_parts: int = 4) -> Iterator[SweepItem]:
    """The closed forms against enumeration (verify_formula_vs_oracle) on
    every CDT that enumeration finds or the emptiness test admits; the
    closed forms of each content come from one closed_forms walk."""
    for alpha in iter_contents(n_max, max_parts):
        groups = cdt_groups(alpha)
        closed = {p.delta: (count, tilde) for p, count, tilde in closed_forms(alpha)}
        for delta in sorted(set(groups).union(closed)):
            yield ({"alpha": alpha, "delta": delta},
                   verify_formula_vs_oracle(alpha, delta, closed.get(delta)))


def sweep_phi(n_max: int = 10, max_parts: int = 4) -> Iterator[SweepItem]:
    """Bijectivity of the insertion encoding (verify_phi: recovery and the
    maj increment on every edge, the leaves against brute force) on every
    feasible content/CDT class."""
    for alpha in iter_contents(n_max, max_parts):
        for delta in feasible_deltas(alpha):
            yield {"alpha": alpha, "delta": delta}, verify_phi(alpha, delta)


def sweep_macmahon(n_max: int = 8, max_parts: int | None = None) -> Iterator[SweepItem]:
    """MacMahon's equidistribution on every content; all parts by default."""
    for alpha in iter_contents(n_max, max_parts):
        yield {"alpha": alpha}, macmahon_check(alpha)


def sweep_vandermonde(n_max: int = 10, max_parts: int = 4) -> Iterator[SweepItem]:
    for alpha in iter_contents(n_max, max_parts):
        yield {"alpha": alpha}, vandermonde_check(alpha)


def sweep_period_g(n_max: int = 8, max_parts: int = 4) -> Iterator[SweepItem]:
    """period_g_check on every feasible CDT, each content's tilde
    generating functions from one closed_forms walk."""
    for alpha in iter_contents(n_max, max_parts):
        for p, _, tilde in closed_forms(alpha):
            yield {"alpha": alpha, "delta": p.delta}, period_g_check(alpha, p.delta, tilde)


def sweep_flex_universal(n_max: int = 10) -> Iterator[SweepItem]:
    """Every necklace over FLEX_ALPHABET letters is its own CSP under the
    flex statistic; each necklace is checked at its least rotation."""
    for n in range(1, n_max + 1):
        for w in necklaces_over(FLEX_ALPHABET, n):
            yield {"necklace": w}, verify_flex_universal(w)


def sweep_flex_maj(n_max: int = 8, max_parts: int | None = None) -> Iterator[SweepItem]:
    """flex and maj equidistributed mod n (verify_flex_maj_equidistribution)
    on every content/CDT class of necklace_classes; all parts by default."""
    for alpha in iter_contents(n_max, max_parts):
        for delta in sorted(necklace_classes(alpha)):
            yield ({"alpha": alpha, "delta": delta},
                   verify_flex_maj_equidistribution(alpha, delta))


# ---------------------------------------------------------------------------
# subset-side sweeps

def divisor_pairs(n_max: int) -> Iterator[tuple[int, int]]:
    """(n, d) for every n <= n_max and every divisor d of n, both
    ascending: the interval sizes of the subset-side sweeps."""
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                yield n, d


def _sweep_profiles(n_max: int, enumerate_group, verify) -> Iterator[SweepItem]:
    """`verify` on every d-interval profile alpha of k <= K_MAX over
    [0, n-1], d | n, n <= n_max: the objects enumerate_group(n, k) yields
    are bucketed once per (n, d, k) by `by_profile`, and its keys, sorted
    (lexicographically), are the profiles swept, each handed its bucket as
    the carrier.  The two profile sweeps `yield from` it, so each stays a
    generator function, which the benchmark's tracer times across next()."""
    for n, d in divisor_pairs(n_max):
        for k in range(0, K_MAX + 1):
            buckets = by_profile(enumerate_group(n, k), n, d)
            for alpha in sorted(buckets):
                yield {"n": n, "d": d, "alpha": alpha}, verify(n, d, alpha, buckets[alpha])


def sweep_multisubset(n_max: int = 10) -> Iterator[SweepItem]:
    """The interval CSP on the multisubsets of every profile alpha of
    k <= K_MAX over the d-intervals of [0, n-1], d | n: the profiles are
    the keys of `by_profile` on the k-multisubsets, every weak composition
    of k into n/d parts, as each interval has d >= 1 elements."""
    yield from _sweep_profiles(n_max, enumerate_multisubsets, verify_multisubset_refinement)


def sweep_subset_star(n_max: int = 10) -> Iterator[SweepItem]:
    """The interval CSP with Sum* on the subsets of every profile alpha of
    k <= K_MAX: the profiles are the keys of `by_profile` on the k-subsets,
    the weak compositions of k into n/d parts at most d."""
    yield from _sweep_profiles(n_max, enumerate_subsets, verify_subset_star)


def divisor_chains(n: int, k: int) -> Iterator[tuple]:
    """All divisor chains ending in gcd(n, k) | n, listed ascending."""
    d0 = gcd(n, k)

    def extend(chain):
        yield tuple(chain)
        for e in range(1, chain[0]):
            if chain[0] % e == 0:
                yield from extend([e] + chain)

    yield from extend([d0, n])


def sweep_chains(n_max: int = 12) -> Iterator[SweepItem]:
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            for chain in divisor_chains(n, k):
                yield ({"n": n, "k": k, "chain": chain},
                       verify_chain_refinement(n, k, chain))


def sweep_g_dd(n_max: int = 12) -> Iterator[SweepItem]:
    for n, d in divisor_pairs(n_max):
        for k in range(0, n + 1):
            yield {"n": n, "d": d, "k": k}, verify_g_dd_trivial(n, k, d)


def sweep_action_isomorphism(n_max: int = 12) -> Iterator[SweepItem]:
    for n, d in divisor_pairs(n_max):
        for k in range(0, min(K_MAX, n) + 1):
            yield ({"n": n, "d": d, "k": k},
                   verify_isomorphic_actions(n, d, k))


def sweep_mbs(n_max: int = 8) -> Iterator[SweepItem]:
    """The block-maximum-sum CSP on every S_{k,b}, b = 0..k; the k-subsets
    of each (n, k) are block-counted once (subsets.subsets_by_blocks)."""
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            for b in range(k + 1):
                yield {"n": n, "k": k, "b": b}, verify_mbs_csp(n, k, b)


# ---------------------------------------------------------------------------
# the theorem table behind `csieve verify`

class Theorem(NamedTuple):
    params: tuple[str, ...]          # instance parameters, as the verifier takes them
    verify: Callable[..., Verdict]   # checks one instance
    sweep: Callable[..., Iterator[SweepItem]] | None
    # What one instance enumerates (its carrier, or for vandermonde the
    # candidate CDTs times n^2 for the coefficient products of each one's
    # closed forms), counted without enumerating, for the enumeration cap;
    # None when the verifier enumerates nothing.
    size: Callable[..., int] | None
    # The instance of the sweep with the largest size, from the sweep's
    # bounds (n_max >= 1), so that a sweep is sized before it starts; None
    # when size is.
    largest: Callable[..., dict] | None


def _words(alpha, delta=None) -> int:
    return multinomial(alpha)


def _largest_content(n_max: int, max_parts: int | None) -> dict:
    return {"alpha": largest_content(n_max, max_parts)}


def _largest_vandermonde(n_max: int, max_parts: int) -> dict:
    """The size weighs every part but the first, so alpha_1 = 1 and the
    rest of n_max balanced over the other parts."""
    if min(max_parts, n_max) == 1:
        return {"alpha": (n_max,)}
    return {"alpha": (1,) + largest_content(n_max - 1, max_parts - 1)}


THEOREMS: dict[str, Theorem] = {
    "main": Theorem(("alpha", "delta"), verify_main_theorem, sweep_main, _words,
                    _largest_content),
    "macmahon": Theorem(("alpha",), macmahon_check, sweep_macmahon, _words,
                        _largest_content),
    "tilde-gf": Theorem(("alpha", "delta"), verify_formula_vs_oracle, sweep_formulas,
                        _words, _largest_content),
    "maj-mod-n": Theorem(("alpha", "delta"), verify_formula_vs_oracle, sweep_formulas,
                         _words, _largest_content),
    "vandermonde": Theorem(("alpha",), vandermonde_check, sweep_vandermonde,
                           lambda alpha: prod(a + 1 for a in alpha[1:]) * sum(alpha) ** 2,
                           _largest_vandermonde),
    "period-g": Theorem(("alpha", "delta"), period_g_check, sweep_period_g, None, None),
    "flex-maj": Theorem(("alpha", "delta"), verify_flex_maj_equidistribution,
                        sweep_flex_maj, _words, _largest_content),
    "phi": Theorem(("alpha", "delta"), verify_phi, sweep_phi, _words, _largest_content),
    "flex-universal": Theorem(("necklace",), verify_flex_universal, sweep_flex_universal,
                              lambda necklace: len(necklace),
                              lambda n_max: {"necklace": (1,) * n_max}),
    # A profile's carrier is part of the k-(multi)subsets of [0, n-1], all
    # of which the single interval d = n holds: the largest instance is at
    # n = n_max, d = n_max and the largest k.
    "multisubset": Theorem(
        ("n", "d", "alpha"), verify_multisubset_refinement, sweep_multisubset,
        lambda n, d, alpha: prod(multichoose(d, a) for a in alpha),
        lambda n_max: {"n": n_max, "d": n_max, "alpha": (K_MAX,)}),
    "subset-star": Theorem(
        ("n", "d", "alpha"), verify_subset_star, sweep_subset_star,
        lambda n, d, alpha: prod(comb(max(d, 0), a) for a in alpha),
        lambda n_max: {"n": n_max, "d": n_max, "alpha": (min(K_MAX, n_max // 2),)}),
    # Both enumerate every k-subset of [0, n-1]; C(n, k) peaks at k = n // 2.
    "chain": Theorem(("n", "k", "chain"), verify_chain_refinement, sweep_chains,
                     lambda n, k, chain: comb(n, k),
                     lambda n_max: {"n": n_max, "k": n_max // 2,
                                    "chain": (gcd(n_max, n_max // 2), n_max)}),
    # G_{1,1} is every k-subset; the multisubsets outnumber the subsets.
    "g-dd": Theorem(("n", "k", "d"), verify_g_dd_trivial, sweep_g_dd,
                    lambda n, k, d: comb(n, k),
                    lambda n_max: {"n": n_max, "k": n_max // 2, "d": 1}),
    "action-isomorphism": Theorem(
        ("n", "d", "k"), verify_isomorphic_actions, sweep_action_isomorphism,
        lambda n, d, k: multichoose(n, k),
        lambda n_max: {"n": n_max, "d": 1, "k": min(K_MAX, n_max)}),
    "mbs": Theorem(("n", "k", "b"), verify_mbs_csp, sweep_mbs,
                   lambda n, k, b: comb(n, k),
                   lambda n_max: {"n": n_max, "k": n_max // 2, "b": 0}),
    "extension": Theorem(("alpha", "delta"), verify_extension, None, _words, None),
}


# ---------------------------------------------------------------------------
# aggregation

def run_sweep(items: Iterator[SweepItem], collect_instances: bool = False) -> dict:
    """Drain a sweep into a JSON-ready report."""
    total = 0
    failures = []
    instances = []
    for key, verdict in items:
        total += 1
        if collect_instances:
            instances.append({**key, "holds": verdict.holds})
        if not verdict.holds:
            failures.append({**key, "witness": verdict.witness})
    report = {"instances_checked": total, "failures": failures,
              "holds": not failures}
    if collect_instances:
        report["instances"] = instances
    return report
