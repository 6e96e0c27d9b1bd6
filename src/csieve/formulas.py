"""Closed-form counts and major-index generating functions for words of
fixed content and cyclic descent type, with exact verifiers.

Every closed form here has a brute-force counterpart (enumerate the words,
sum q^maj) used by the test suite; the formulas are never trusted alone.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, gcd, prod
from typing import Iterator, NamedTuple

from .actions import (CyclicAction, NotClosed, Verdict, check_csp,
                      check_extension_hypotheses)
from .qpoly import (IntPoly, ResiduePoly, monomial, poly_mul, q_binomial, q_multichoose,
                    q_multinomial, has_period, orbit_gf, reduce)
from .words import (Composition, cdt_groups, enumerate_by_content, flex, flex_per_orbit,
                    inv, is_strong, maj, necklace as necklace_of)


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
        if not alpha or not is_strong(alpha):
            raise ValueError("alpha must be a non-empty strong composition")
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

    @property
    def eta(self) -> int:
        return (self.n - self.alpha[0] + comb(self.k, 2)
                + sum(comb(d, 2) for d in self.delta[1:]))

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
    """alpha through the gate of InstanceParams, for the theorems that take
    no delta: the zero type lies in every box."""
    return params(alpha, (0,) * len(tuple(alpha))).alpha


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
    p = params(alpha, delta)
    total = p.n * prod(comb(falls, d) * multichoose(runs, reps)
                       for falls, d, runs, reps in p.factors())
    if total % p.alpha[0]:
        raise RuntimeError("count formula produced a non-integer")
    return total // p.alpha[0]


def tilde_maj_gf(alpha, delta) -> IntPoly:
    """Sum of q^maj over words of content alpha, CDT delta, ending in 1:
    q^eta times the product of q-binomial and q-multichoose factors."""
    p = params(alpha, delta)
    out = monomial(p.eta)
    for falls, d, runs, reps in p.factors():
        out = poly_mul(poly_mul(out, q_binomial(falls, d)), q_multichoose(runs, reps))
    return out


def maj_gf_mod_n(alpha, delta) -> ResiduePoly:
    """Sum of q^maj over all of W_{alpha,delta}, as a residue mod q^n - 1:
    (d/alpha_1) (q^n-1)/(q^d-1) times the tilde generating function.  As
    (q^n-1)/(q^d-1) = sum_{i<n/d} q^(id), multiplying by it mod q^n - 1
    folds the tilde function mod q^d - 1 and tiles the fold n/d times."""
    return _fold_tilde(params(alpha, delta), tilde_maj_gf(alpha, delta))


def _fold_tilde(p: InstanceParams, tilde: IntPoly) -> ResiduePoly:
    """maj_gf_mod_n of the instance p from its tilde generating function."""
    folded = [c * p.d for c in reduce(tilde, p.d).coeffs]
    if any(c % p.alpha[0] for c in folded):
        raise RuntimeError("maj formula coefficients not divisible by alpha_1")
    return ResiduePoly(p.n, tuple(c // p.alpha[0] for c in folded) * (p.n // p.d))


def feasible_deltas(alpha) -> Iterator[Composition]:
    """All cyclic descent types with a nonempty word class for this strong
    content, over every total k, in lexicographic order: the box walked
    depth first, keeping a delta_l only where is_nonempty's factor
    conditions hold for the running n_{l-1} and k_{l-1} (a prefix that
    fails one has no feasible extension)."""
    alpha = strong_content(alpha)
    m = len(alpha)

    def extend(delta, n, k):
        if len(delta) == m:
            yield delta
            return
        a = alpha[len(delta)]
        # delta_l <= falls = n - k; when k = 0 the word so far has no run,
        # so the letter must open a fall: delta_l >= 1
        for d in range(0 if k else 1, min(a, n - k) + 1):
            yield from extend(delta + (d,), n + a, k + d)

    yield from extend((0,), alpha[0], 0)


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


def rotation_action(carrier) -> CyclicAction:
    carrier = tuple(carrier)
    if not carrier:
        raise ValueError("rotation action needs a non-empty carrier")
    return CyclicAction(len(carrier[0]), carrier, lambda w: w[-1:] + w[:-1])


def _word_class(p: InstanceParams, words):
    """The given words of the class, or else the class enumerated."""
    return cdt_groups(p.alpha).get(p.delta, []) if words is None else words


# ---------------------------------------------------------------------------
# theorem verifiers, one instance each.  A sweep that has already
# enumerated the class passes its words; without them a verifier
# enumerates the class itself.

def verify_main_theorem(alpha, delta, words=None) -> Verdict:
    """The refinement CSP: rotation on the words of content alpha and CDT
    delta, against their maj generating function.  A class that rotation
    does not preserve fails with a closure witness."""
    p = params(alpha, delta)
    words = _word_class(p, words)
    if not words:
        return Verdict(True, None)
    return check_csp(rotation_action(words), brute_gf(words, p.n, maj))


def verify_extension(alpha, delta) -> Verdict:
    """The extension lemma on one class: the hypotheses at
    g = gcd(alpha, delta) (the subgroup CSP, period g, orbit divisibility)
    and the full rotation CSP all hold.  The failure witness is the
    ExtensionReport, or for a class that rotation does not preserve the
    closure witness: an element and its image."""
    p = params(alpha, delta)
    words = _word_class(p, None)
    if not words:
        return Verdict(True, None)
    action, f = rotation_action(words), brute_gf(words, p.n, maj)
    try:
        report = check_extension_hypotheses(action, p.g, f)
    except NotClosed as exc:
        return exc.verdict()
    holds = report.hypotheses_hold and report.full_csp.holds
    return Verdict(holds, None if holds else report.to_json())


def verify_formula_vs_oracle(alpha, delta, words=None) -> Verdict:
    """Exact agreement of the closed forms with enumeration: the emptiness
    test, the count, the tilde generating function over the words ending
    in 1, and the maj generating function mod q^n - 1, folded from that
    tilde function as maj_gf_mod_n folds it.  maj is taken once per word.
    A witness carries the enumerated and the closed-form values that
    differ."""
    p = params(alpha, delta)
    words = _word_class(p, words)
    nonempty = is_nonempty(alpha, delta)
    if bool(words) != nonempty:
        return Verdict(False, {"check": "nonempty", "enumerated": len(words),
                               "is_nonempty": nonempty})
    count = count_w_alpha_delta(alpha, delta)
    if len(words) != count:
        return Verdict(False, {"check": "count", "enumerated": len(words),
                               "formula": count})
    majs = list(map(maj, words))
    tilde = tally(v for w, v in zip(words, majs) if w[-1] == 1)
    formula = tilde_maj_gf(alpha, delta)
    if tilde != formula:
        return Verdict(False, {"check": "tilde_maj_gf", "enumerated": tilde,
                               "formula": formula})
    oracle, closed = reduce(tally(majs), p.n), _fold_tilde(p, formula)
    if oracle != closed:
        return Verdict(False, {"check": "maj_gf_mod_n", "enumerated": oracle.coeffs,
                               "formula": closed.coeffs})
    return Verdict(True, None)


def vandermonde_check(alpha) -> Verdict:
    """The multinomial coefficient as a sum of the per-CDT closed forms,
    numerically and as residues mod q^n - 1."""
    alpha = strong_content(alpha)
    n = sum(alpha)
    total = 0
    gf_total = ResiduePoly.zero(n)
    for delta in feasible_deltas(alpha):
        total += count_w_alpha_delta(alpha, delta)
        gf_total = gf_total + maj_gf_mod_n(alpha, delta)
    if total != multinomial(alpha):
        return Verdict(False, {"check": "numeric", "sum": total,
                               "multinomial": multinomial(alpha)})
    if gf_total != reduce(q_multinomial(alpha), n):
        return Verdict(False, {"check": "q-analogue"})
    return Verdict(True, None)


def period_g_check(alpha, delta) -> Verdict:
    """The maj generating function has period k and period g modulo n."""
    p = params(alpha, delta)
    f = maj_gf_mod_n(alpha, delta)
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


def verify_flex_maj_equidistribution(alpha, delta, words=None) -> Verdict:
    """flex and maj agree as distributions modulo n on the word class;
    flex is taken once per orbit (flex_per_orbit)."""
    p = params(alpha, delta)
    words = _word_class(p, words)
    flex_gf = brute_gf(words, p.n, flex_per_orbit(words).__getitem__)
    maj_gf = brute_gf(words, p.n, maj)
    if flex_gf != maj_gf:
        return Verdict(False, {"check": "flex-vs-maj", "flex": flex_gf.coeffs,
                               "maj": maj_gf.coeffs})
    return Verdict(True, None)


def verify_flex_universal(necklace) -> Verdict:
    """On the necklace of the given word, the flex generating function is
    exactly the orbit generating function, so each orbit is its own CSP."""
    nk = necklace_of(tuple(necklace))
    n = len(nk.representative)
    f = brute_gf(nk.members, n, flex)
    if f != orbit_gf(n, nk.period):
        return Verdict(False, {"necklace": nk.representative})
    return check_csp(rotation_action(nk.members), f)
