"""Exhaustive verification sweeps over desk-scale parameter ranges.

Each sweep yields (key, verdict) pairs, where key is a JSON-ready dict
identifying the instance.  The CLI and the acceptance tests share these
drivers so they exercise identical code paths.
"""

from __future__ import annotations

from math import comb, gcd, prod
from typing import Callable, Iterator, NamedTuple

from .actions import Verdict
from .insertion import _maj_increment, _recover_triple, insertion_tree
from .formulas import (feasible_deltas, macmahon_check, multichoose, multinomial, params,
                       period_g_check, vandermonde_check, verify_extension,
                       verify_flex_maj_equidistribution, verify_flex_universal,
                       verify_formula_vs_oracle, verify_main_theorem)
from .subsets import (verify_chain_refinement, verify_g_dd_trivial,
                      verify_isomorphic_actions, verify_mbs_csp,
                      verify_multisubset_refinement, verify_subset_star)
from .words import (Word, cdes, cdt, cdt_groups, enumerate_by_content, maj,
                    necklaces_over, pad_to, strong_compositions)

SweepItem = tuple[dict, Verdict]

# The letters of the flex necklace sweep; the largest k of the subset-side sweeps.
FLEX_ALPHABET = 3
K_MAX = 4


def iter_contents(n_max: int, max_parts: int = 4) -> Iterator[tuple]:
    for n in range(1, n_max + 1):
        for parts in range(1, min(max_parts, n) + 1):
            yield from strong_compositions(n, parts)


def largest_content(n_max: int, max_parts: int) -> tuple:
    """The content of iter_contents(n_max, max_parts) with the most words:
    n_max split as evenly as possible into min(max_parts, n_max) parts."""
    parts = min(max_parts, n_max)
    q, r = divmod(n_max, parts)
    return (q + 1,) * r + (q,) * (parts - r)


def sweep_main(n_max: int = 8, max_parts: int = 4) -> Iterator[SweepItem]:
    """The refinement CSP (verify_main_theorem) on every feasible
    content/CDT class."""
    for alpha in iter_contents(n_max, max_parts):
        for delta, words in sorted(cdt_groups(alpha).items()):
            yield ({"alpha": alpha, "delta": delta},
                   verify_main_theorem(alpha, delta, words))


def sweep_formulas(n_max: int = 10, max_parts: int = 4) -> Iterator[SweepItem]:
    """The closed forms against enumeration (verify_formula_vs_oracle) on
    every CDT that enumeration finds or the emptiness test admits."""
    for alpha in iter_contents(n_max, max_parts):
        groups = cdt_groups(alpha)
        for delta in sorted(set(groups).union(feasible_deltas(alpha))):
            yield ({"alpha": alpha, "delta": delta},
                   verify_formula_vs_oracle(alpha, delta, groups.get(delta, ())))


def words_ending_in_one(alpha) -> dict[tuple, set[Word]]:
    """The words of strong content alpha that end in 1, grouped by padded
    cyclic descent type: brute-force enumeration, independent of insertion."""
    alpha = tuple(alpha)
    m = len(alpha)
    groups: dict[tuple, set[Word]] = {}
    for u in enumerate_by_content((alpha[0] - 1,) + alpha[1:]):
        w = u + (1,)
        groups.setdefault(pad_to(cdt(w), m), set()).add(w)
    return groups


def _edge_failure(check: str, parent: Word, letter: int, labels, child: Word,
                  **found) -> Verdict:
    """A failing verdict on one edge of an insertion tree, with what
    rebuilds the child: insert_triple(parent, letter, falls, runs)."""
    falls, runs = labels
    return Verdict(False, {"check": check, "parent": parent, "letter": letter,
                           "falls": falls, "runs": runs, "child": child, **found})


def verify_phi(alpha, delta, enumerated: set[Word] | None = None) -> Verdict:
    """The insertion bijection on one instance, in one walk of its tree.
    On every edge (parent, letter, falls, runs, child) the triple recovered
    from the child is (parent, falls, runs), and the predicted maj increment
    matches the actual change.  phi folds that recovery from a leaf to the
    root, so by induction phi of every leaf returns the labels of its path.
    Last, the leaves are exactly the `enumerated` words ending in 1 (by
    default, from words_ending_in_one), each built once.  maj is taken
    once per node, and cdes once per node with children."""
    p = params(alpha, delta)
    if enumerated is None:
        enumerated = words_ending_in_one(p.alpha).get(p.delta, set())
    depth = p.m - 1
    # On a preorder walk the latest node one level up is the parent.
    node_maj = [0] * (depth + 1)
    node_cdes = [0] * depth
    built: set[Word] = set()
    leaf_count = 0
    extra = None        # the first leaf built twice or not enumerated
    for parent, path, w in insertion_tree(p.alpha, p.delta):
        level = len(path)
        node_maj[level] = maj(w)
        if level < depth:
            node_cdes[level] = cdes(w)
        if parent is not None:
            letter = level + 1
            falls, runs = path[-1]
            recovered = _recover_triple(w, letter)
            if recovered != (parent, falls, runs):
                return _edge_failure("recovery", parent, letter, path[-1], w,
                                     recovered=recovered)
            predicted = _maj_increment(node_cdes[level - 1], falls, runs)
            actual = node_maj[level] - node_maj[level - 1]
            if actual != predicted:
                return _edge_failure("maj-increment", parent, letter, path[-1], w,
                                     predicted=predicted, actual=actual)
        if level == depth:
            if extra is None and (w in built or w not in enumerated):
                extra = w
            built.add(w)
            leaf_count += 1
    missing = min(enumerated - built, default=None)
    if extra is not None or missing is not None:
        return Verdict(False, {"check": "leaf-set", "built": leaf_count,
                               "enumerated": len(enumerated),
                               "missing": missing, "extra": extra})
    return Verdict(True, None)


def sweep_phi(n_max: int = 10, max_parts: int = 4) -> Iterator[SweepItem]:
    """Bijectivity of the insertion encoding (verify_phi: recovery and the
    maj increment on every edge, the leaves against brute force) on every
    feasible content/CDT class; the leaf-set oracle enumerates each
    content's words ending in 1 once."""
    for alpha in iter_contents(n_max, max_parts):
        ending_in_one = words_ending_in_one(alpha)
        for delta in feasible_deltas(alpha):
            yield ({"alpha": alpha, "delta": delta},
                   verify_phi(alpha, delta, ending_in_one.get(delta, set())))


def sweep_macmahon(n_max: int = 8, max_parts: int | None = None) -> Iterator[SweepItem]:
    """MacMahon's equidistribution on every content; all parts by default."""
    for alpha in iter_contents(n_max, n_max if max_parts is None else max_parts):
        yield {"alpha": alpha}, macmahon_check(alpha)


def sweep_vandermonde(n_max: int = 10, max_parts: int = 4) -> Iterator[SweepItem]:
    for alpha in iter_contents(n_max, max_parts):
        yield {"alpha": alpha}, vandermonde_check(alpha)


def sweep_period_g(n_max: int = 8, max_parts: int = 4) -> Iterator[SweepItem]:
    for alpha in iter_contents(n_max, max_parts):
        for delta in feasible_deltas(alpha):
            yield {"alpha": alpha, "delta": delta}, period_g_check(alpha, delta)


def sweep_flex_universal(n_max: int = 10) -> Iterator[SweepItem]:
    """Every necklace over FLEX_ALPHABET letters is its own CSP under the
    flex statistic; each necklace is checked at its least rotation."""
    for n in range(1, n_max + 1):
        for w in necklaces_over(FLEX_ALPHABET, n):
            yield {"necklace": w}, verify_flex_universal(w)


def sweep_flex_maj(n_max: int = 8, max_parts: int = 4) -> Iterator[SweepItem]:
    """flex and maj equidistributed mod n (verify_flex_maj_equidistribution)
    on every content/CDT class."""
    for alpha in iter_contents(n_max, max_parts):
        for delta, words in sorted(cdt_groups(alpha).items()):
            yield ({"alpha": alpha, "delta": delta},
                   verify_flex_maj_equidistribution(alpha, delta, words))


# ---------------------------------------------------------------------------
# subset-side sweeps

def compositions_with_parts(k: int, parts: int) -> Iterator[tuple]:
    """The weak compositions of k into `parts` parts, in lexicographic
    order: the strong compositions of k + parts less 1 per part."""
    for alpha in strong_compositions(k + parts, parts):
        # a tuple built from a list is allocated at its size; one built from
        # a generator is shrunk afterwards, fragmenting the kept sweep keys
        yield tuple([a - 1 for a in alpha])


def sweep_multisubset(n_max: int = 10) -> Iterator[SweepItem]:
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            if n % d:
                continue
            for k in range(0, K_MAX + 1):
                for alpha in compositions_with_parts(k, n // d):
                    yield ({"n": n, "d": d, "alpha": alpha},
                           verify_multisubset_refinement(n, d, alpha))


def sweep_subset_star(n_max: int = 10) -> Iterator[SweepItem]:
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            if n % d:
                continue
            for k in range(0, K_MAX + 1):
                for alpha in compositions_with_parts(k, n // d):
                    if any(a > d for a in alpha):
                        continue
                    yield ({"n": n, "d": d, "alpha": alpha},
                           verify_subset_star(n, d, alpha))


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
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            if n % d:
                continue
            for k in range(0, n + 1):
                yield {"n": n, "d": d, "k": k}, verify_g_dd_trivial(n, k, d)


def sweep_action_isomorphism(n_max: int = 12) -> Iterator[SweepItem]:
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            if n % d:
                continue
            for k in range(0, min(K_MAX, n) + 1):
                yield ({"n": n, "d": d, "k": k},
                       verify_isomorphic_actions(n, d, k))


def sweep_mbs(n_max: int = 8) -> Iterator[SweepItem]:
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            for b in range(0, k + 1):
                yield {"n": n, "k": k, "b": b}, verify_mbs_csp(n, k, b)


# ---------------------------------------------------------------------------
# the theorem table behind `csieve verify`

class Theorem(NamedTuple):
    params: tuple[str, ...]          # instance parameters, as the verifier takes them
    verify: Callable[..., Verdict]   # checks one instance
    sweep: Callable[..., Iterator[SweepItem]] | None
    # What one instance enumerates (its carrier, or for vandermonde the
    # candidate CDTs times the n^2 coefficient products each one's residue
    # product in maj_gf_mod_n costs), counted without enumerating, for the
    # enumeration cap; None when the verifier enumerates nothing.
    size: Callable[..., int] | None


def _words(alpha, delta=None) -> int:
    return multinomial(alpha)


THEOREMS: dict[str, Theorem] = {
    "main": Theorem(("alpha", "delta"), verify_main_theorem, sweep_main, _words),
    "macmahon": Theorem(("alpha",), macmahon_check, sweep_macmahon, _words),
    "tilde-gf": Theorem(("alpha", "delta"), verify_formula_vs_oracle, sweep_formulas,
                        _words),
    "maj-mod-n": Theorem(("alpha", "delta"), verify_formula_vs_oracle, sweep_formulas,
                         _words),
    "vandermonde": Theorem(("alpha",), vandermonde_check, sweep_vandermonde,
                           lambda alpha: prod(a + 1 for a in alpha[1:]) * sum(alpha) ** 2),
    "period-g": Theorem(("alpha", "delta"), period_g_check, sweep_period_g, None),
    "flex-maj": Theorem(("alpha", "delta"), verify_flex_maj_equidistribution,
                        sweep_flex_maj, _words),
    "phi": Theorem(("alpha", "delta"), verify_phi, sweep_phi, _words),
    "flex-universal": Theorem(("necklace",), verify_flex_universal, sweep_flex_universal,
                              lambda necklace: len(necklace)),
    "multisubset": Theorem(
        ("n", "d", "alpha"), verify_multisubset_refinement, sweep_multisubset,
        lambda n, d, alpha: prod(multichoose(d, a) for a in alpha)),
    "subset-star": Theorem(
        ("n", "d", "alpha"), verify_subset_star, sweep_subset_star,
        lambda n, d, alpha: prod(comb(max(d, 0), a) for a in alpha)),
    "chain": Theorem(("n", "k", "chain"), verify_chain_refinement, sweep_chains,
                     lambda n, k, chain: comb(n, k)),
    "mbs": Theorem(("n", "k", "b"), verify_mbs_csp, sweep_mbs,
                   lambda n, k, b: comb(n, k)),
    "extension": Theorem(("alpha", "delta"), verify_extension, None, _words),
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
