"""Closed-form counts and major-index generating functions for words of
fixed content and cyclic descent type, with exact verifiers.

Every closed form here has a brute-force counterpart (enumerate the words,
sum q^maj) used by the test suite; the formulas are never trusted alone.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, gcd
from typing import Iterator, NamedTuple

from .actions import CyclicAction, Verdict, check_csp, check_extension
from .qpoly import (ONE, ZERO, IntPoly, ResiduePoly, poly_mul, q_binomial, q_multichoose,
                    q_multinomial, has_period, reduce)
from .words import (Composition, cdt_groups, enumerate_by_content, flex_per_orbit, inv,
                    is_strong, maj, necklace as necklace_of, necklace_classes)


def multichoose(a: int, b: int) -> int:
    if b == 0:
        return 1
    return comb(a + b - 1, b) if a > 0 else 0


def multinomial(alpha) -> int:
    """n! / (alpha_1! ... alpha_m!): the number of words of content alpha."""
    out = factorial(sum(alpha))
    for a in alpha:
        out //= factorial(a)
    return out


class _InstanceFields(NamedTuple):
    alpha: Composition
    delta: Composition


class InstanceParams(_InstanceFields):
    """A content alpha (strong) with a cyclic descent type delta in the box
    delta_1 = 0, 0 <= delta_l <= alpha_l, where every cyclic descent type
    lies, and the derived quantities the product formulas use.

    An immutable named tuple (alpha, delta): it compares equal to that
    plain tuple, and len() and unpacking work on it.  The checks run in
    __new__ (and _make, hence _replace), so no instance outside the box
    is ever built."""

    __slots__ = ()

    def __new__(cls, alpha: Composition, delta: Composition):
        if len(alpha) != len(delta):
            raise ValueError("alpha and delta need the same number of parts")
        strong_content(alpha)
        if delta[0] or not all(0 <= d <= a for a, d in zip(alpha, delta)):
            raise ValueError("delta must have delta_1 = 0 and 0 <= delta_l <= alpha_l")
        return tuple.__new__(cls, (alpha, delta))

    @classmethod
    def _make(cls, iterable) -> "InstanceParams":
        return cls(*iterable)

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def n(self) -> int:
        return sum(self.alpha)

    @property
    def k(self) -> int:
        return sum(self.delta)

    @property
    def d(self) -> int:
        return gcd(self.n, self.k)

    @property
    def g(self) -> int:
        return gcd(*self.alpha, *self.delta)

    def factors(self) -> list[tuple[int, int, int, int]]:
        """(falls, delta_l, runs, alpha_l - delta_l) for l = 2..m: letter l
        goes into delta_l of the n_{l-1} - k_{l-1} falls of the word so far,
        and with repetition into alpha_l - delta_l of its k_l runs."""
        n_l, k_l = itertools.accumulate(self.alpha), itertools.accumulate(self.delta)
        return [(n - k, d, k + d, a - d)
                for n, k, a, d in zip(n_l, k_l, self.alpha[1:], self.delta[1:])]


def params(alpha, delta) -> InstanceParams:
    return InstanceParams(tuple(alpha), tuple(delta))


def strong_content(alpha) -> Composition:
    """alpha as a tuple, through the content half of the gate of
    InstanceParams: for the theorems that take no delta."""
    alpha = tuple(alpha)
    if not alpha or not is_strong(alpha):
        raise ValueError("alpha must be a non-empty strong composition")
    return alpha


def is_nonempty(alpha, delta) -> bool:
    """Whether any word has this content and cyclic descent type, that is,
    whether every factor is nonempty: delta_l <= falls, and the letter
    either creates a cyclic descent or has a run to land in (the
    multichoose factor vanishes when runs = k_l = 0 but alpha_l > delta_l)."""
    return all(d <= falls and (runs > 0 or reps == 0)
               for falls, d, runs, reps in params(alpha, delta).factors())


# The root 1^alpha_1 has no cyclic descent, and each copy of a new largest
# letter adds at most one: hence the box.  In it, falls >= alpha_1 > 0 and
# reps >= 0, so a closed form below is 0 exactly when a factor is: comb and
# q_binomial when delta_l > falls, (q_)multichoose when runs = 0 < reps.

def count_w_alpha_delta(alpha, delta) -> int:
    return _closed_form(params(alpha, delta))[0]


def tilde_maj_gf(alpha, delta) -> IntPoly:
    """Sum of q^maj over words of content alpha, CDT delta, ending in 1:
    q^eta times the product of q-binomial and q-multichoose factors."""
    return _closed_form(params(alpha, delta))[1]


def maj_gf_mod_n(alpha, delta) -> ResiduePoly:
    """Sum of q^maj over all of W_{alpha,delta}, as a residue mod q^n - 1:
    (d/alpha_1) (q^n-1)/(q^d-1) times the tilde generating function.  As
    (q^n-1)/(q^d-1) = sum_{i<n/d} q^(id), multiplying by it mod q^n - 1
    folds the tilde function mod q^d - 1 and tiles the fold n/d times."""
    return _fold_tilde(params(alpha, delta), tilde_maj_gf(alpha, delta))


def _fold_tilde(p: InstanceParams, tilde: IntPoly) -> ResiduePoly:
    """maj_gf_mod_n of the instance p from its tilde generating function,
    folded mod q^d - 1 by slices."""
    n, d, first = p.n, p.d, p.alpha[0]
    folded = [sum(tilde[i::d]) * d for i in range(d)]
    if any(c % first for c in folded):
        raise RuntimeError("maj formula coefficients not divisible by alpha_1")
    return ResiduePoly(n, tuple(c // first for c in folded) * (n // d))


def _feasible_tree(alpha: Composition, step=None, root=None):
    """(delta, state) for every feasible delta of the strong content alpha,
    in lexicographic order: the box walked depth first, keeping a delta_l
    only where is_nonempty's factor conditions hold for the running n_{l-1}
    and k_{l-1} (a prefix that fails one has no feasible extension, and
    every prefix kept has one).  The state starts at `root`, and each edge
    into a kept prefix maps it by step(state, falls, delta_l, runs, reps),
    is_nonempty's factor; without a step it stays `root`."""
    m = len(alpha)

    def extend(delta, n, k, state):
        if len(delta) == m:
            yield delta, state
            return
        a = alpha[len(delta)]
        # delta_l <= falls = n - k; when k = 0 the word so far has no run,
        # so the letter must open a fall: delta_l >= 1
        for d in range(0 if k else 1, min(a, n - k) + 1):
            yield from extend(delta + (d,), n + a, k + d,
                              step(state, n - k, d, k + d, a - d) if step else state)

    yield from extend((0,), alpha[0], 0, root)


def feasible_deltas(alpha) -> Iterator[Composition]:
    """All cyclic descent types with a nonempty word class for this strong
    content, over every total k, in lexicographic order (_feasible_tree,
    which takes no product here)."""
    for delta, _ in _feasible_tree(strong_content(alpha)):
        yield delta


def _closed_step(state, falls: int, d: int, runs: int, reps: int):
    """One factor of the closed forms: the count and tilde products and the
    sum of the comb(delta_l, 2) so far, times letter l's factor."""
    count, product, eta = state
    return (count * comb(falls, d) * multichoose(runs, reps),
            poly_mul(poly_mul(product, q_binomial(falls, d)), q_multichoose(runs, reps)),
            eta + comb(d, 2))


def _closed_form(p: InstanceParams, state=None) -> tuple[int, IntPoly]:
    """(count_w_alpha_delta, tilde_maj_gf) of the instance p from the state
    of _closed_step after its last factor, which closed_forms' walk
    passes, or else folded here over p.factors(): n / alpha_1 times the
    count product, and q^eta times the tilde product, eta adding the terms
    that depend on the whole delta (n - alpha_1 + comb(k, 2)) to the
    state's sum.  An empty product stays ZERO."""
    if state is None:
        state = (1, ONE, 0)
        for factor in p.factors():
            state = _closed_step(state, *factor)
    count, product, eta = state
    total = p.n * count
    if total % p.alpha[0]:
        raise RuntimeError("count formula produced a non-integer")
    return (total // p.alpha[0],
            (0,) * (p.n - p.alpha[0] + comb(p.k, 2) + eta) + product if product else ZERO)


def closed_forms(alpha) -> Iterator[tuple[InstanceParams, int, IntPoly]]:
    """(InstanceParams, count_w_alpha_delta, tilde_maj_gf) for every delta
    of feasible_deltas(alpha), in its order, from one walk of its tree:
    prefixes that two deltas share have their factors multiplied once, and
    each leaf hands its InstanceParams and state to _closed_form."""
    alpha = strong_content(alpha)
    for delta, state in _feasible_tree(alpha, _closed_step, (1, ONE, 0)):
        p = InstanceParams(alpha, delta)
        yield (p, *_closed_form(p, state))


# ---------------------------------------------------------------------------
# brute-force oracles

def tally(values) -> IntPoly:
    """The polynomial sum of q^v over the non-negative integers v in
    `values`: coefficient i counts the values equal to i."""
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    if counts and min(counts) < 0:
        raise ValueError("tally needs non-negative values")
    out = [0] * (max(counts, default=-1) + 1)
    for v, c in counts.items():
        out[v] = c
    return tuple(out)


def brute_gf(carrier, n: int, stat) -> ResiduePoly:
    """Sum of q^stat(x) over the carrier, as a residue mod q^n - 1."""
    out = [0] * n
    for x in carrier:
        out[stat(x) % n] += 1
    return ResiduePoly(n, tuple(out))


def rotation_action(n: int, carrier) -> CyclicAction:
    """Rotation as an order-n action on a carrier of words of length n."""
    return CyclicAction(n, carrier, lambda w: w[-1:] + w[:-1])


# ---------------------------------------------------------------------------
# theorem verifiers, one instance each.  A word class is read off its
# content's table (cdt_groups or necklace_classes), which a sweep's
# instances of one content share.

def verify_main_theorem(alpha, delta) -> Verdict:
    """The refinement CSP: rotation on the words of content alpha and CDT
    delta, against their maj generating function.  A class that rotation
    does not preserve fails with a closure witness."""
    p = params(alpha, delta)
    words = cdt_groups(p.alpha).get(p.delta, ())
    return check_csp(rotation_action(p.n, words), brute_gf(words, p.n, maj))


def verify_extension(alpha, delta) -> Verdict:
    """The extension lemma on one class (actions.check_extension at
    g = gcd(alpha, delta)): the hypotheses and the full rotation CSP all
    hold.  The failure witness gives the four outcomes, or for a class
    that rotation does not preserve it is the closure witness."""
    p = params(alpha, delta)
    words = cdt_groups(p.alpha).get(p.delta, ())
    return check_extension(rotation_action(p.n, words), p.g, brute_gf(words, p.n, maj))


def verify_formula_vs_oracle(alpha, delta, closed=None) -> Verdict:
    """Exact agreement of the closed forms with enumeration: the emptiness
    test, the count, the tilde generating function over the words ending
    in 1, and the maj generating function mod q^n - 1, folded from that
    tilde function as maj_gf_mod_n folds it.  maj is taken once per word.
    A sweep passes the pair (count, tilde) from closed_forms as `closed`:
    its one walk per content multiplies a factor that several deltas share
    once.  Without it the pair is folded over this instance's factors
    alone, less work for one instance than a walk of every delta of the
    content.  A witness carries the enumerated and the closed-form values
    that differ."""
    p = params(alpha, delta)
    words = cdt_groups(p.alpha).get(p.delta, ())
    nonempty = is_nonempty(alpha, delta)
    if bool(words) != nonempty:
        return Verdict(False, {"check": "nonempty", "enumerated": len(words),
                               "is_nonempty": nonempty})
    count, formula = _closed_form(p) if closed is None else closed
    if len(words) != count:
        return Verdict(False, {"check": "count", "enumerated": len(words),
                               "formula": count})
    majs = list(map(maj, words))
    tilde = tally(v for w, v in zip(words, majs) if w[-1] == 1)
    if tilde != formula:
        return Verdict(False, {"check": "tilde_maj_gf", "enumerated": tilde,
                               "formula": formula})
    oracle, folded = reduce(tally(majs), p.n), _fold_tilde(p, formula)
    if oracle != folded:
        return Verdict(False, {"check": "maj_gf_mod_n", "enumerated": oracle.coeffs,
                               "formula": folded.coeffs})
    return Verdict(True, None)


def vandermonde_check(alpha) -> Verdict:
    """The multinomial coefficient as a sum of the per-CDT closed forms
    (closed_forms), numerically and as residues mod q^n - 1."""
    alpha = strong_content(alpha)
    n = sum(alpha)
    total = 0
    gf_total = ResiduePoly.zero(n)
    for p, count, tilde in closed_forms(alpha):
        total += count
        gf_total = gf_total + _fold_tilde(p, tilde)
    if total != multinomial(alpha):
        return Verdict(False, {"check": "numeric", "sum": total,
                               "multinomial": multinomial(alpha)})
    if gf_total != reduce(q_multinomial(alpha), n):
        return Verdict(False, {"check": "q-analogue"})
    return Verdict(True, None)


def period_g_check(alpha, delta, tilde=None) -> Verdict:
    """The maj generating function has period k and period g modulo n: the
    fold of maj_gf_mod_n, from the tilde generating function a sweep
    passes (closed_forms, as for verify_formula_vs_oracle's `closed`), or
    else from tilde_maj_gf over this instance's factors alone: a walk of
    every delta of the content would be uncapped, as period-g has no cap."""
    p = params(alpha, delta)
    f = _fold_tilde(p, tilde_maj_gf(alpha, delta) if tilde is None else tilde)
    if not has_period(f, p.k):
        return Verdict(False, {"check": "period-k", "k": p.k})
    if not has_period(f, p.g):
        return Verdict(False, {"check": "period-g", "g": p.g})
    return Verdict(True, None)


def macmahon_check(alpha) -> Verdict:
    """maj and inv distributions on the full content class both equal the
    q-multinomial coefficient."""
    alpha = strong_content(alpha)
    words = list(enumerate_by_content(alpha))
    expected = q_multinomial(alpha)
    if tally(map(maj, words)) != expected:
        return Verdict(False, {"check": "maj"})
    if tally(map(inv, words)) != expected:
        return Verdict(False, {"check": "inv"})
    return Verdict(True, None)


def verify_flex_maj_equidistribution(alpha, delta) -> Verdict:
    """flex and maj agree as distributions modulo n on the word class,
    read from necklace_classes as its necklaces' (least rotation, period)
    pairs: the keys of flex_per_orbit are the class."""
    p = params(alpha, delta)
    flexes = flex_per_orbit(necklace_classes(p.alpha).get(p.delta, ()))
    flex_gf = brute_gf(flexes, p.n, flexes.__getitem__)
    maj_gf = brute_gf(flexes, p.n, maj)
    if flex_gf != maj_gf:
        return Verdict(False, {"check": "flex-vs-maj", "flex": flex_gf.coeffs,
                               "maj": maj_gf.coeffs})
    return Verdict(True, None)


def verify_flex_universal(necklace) -> Verdict:
    """On the necklace of the given word, flex sieves the single orbit:
    method 2 of the CSP check compares its flex generating function with
    the orbit generating function.  The word's (least rotation, period)
    pair comes from words.necklace, and flex_per_orbit ranks the orbit's
    rotations once; its keys are those rotations in sorted order.  On an
    orbit of p distinct rotations of a word of length n, flex takes the
    values freq * i for i < p, freq = n / p, and these are exactly
    orbit_gf's exponents; so this checks the code that computes flex, not
    a deeper claim."""
    flexes = flex_per_orbit((necklace_of(necklace),))
    members = tuple(flexes)
    return check_csp(rotation_action(len(members[0]), members),
                     brute_gf(members, len(members[0]), flexes.__getitem__))
