"""Cyclic actions on finite sets and exact cyclic sieving verification.

An action holds its generator as a permutation of carrier indices, built
and validated once by `CyclicAction.successor`; both CSP methods run on
that permutation.  A CSP check always runs both equivalent tests:
fixed-point counts of powers of the generator against root-of-unity
evaluations, and congruence with the sum of orbit generating functions
mod q^n - 1.  The two are provably equivalent, so disagreement between
them is a hard fault (an implementation bug), not a verdict.  Both the
fixed points of step^k (given step^n = 1, which method 2 enforces) and
the value of f at omega^k depend only on gcd(n, k), so method 1 checks
k = 0 and the proper divisors of n, one power and one evaluation each.
"""

from __future__ import annotations

from functools import lru_cache
from operator import eq
from typing import Callable, NamedTuple, Optional

from .qpoly import ResiduePoly, evaluate_at_root, orbit_gf, has_period, refold


class Verdict(NamedTuple):
    """A check's outcome, with a JSON-ready witness when it fails.  An
    immutable named tuple: it compares equal to the plain tuple
    (holds, witness), and len() and unpacking work on it.  json.dumps
    would write it as a list, so output reads its fields or to_json()."""

    holds: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


class OrbitDecomposition(NamedTuple):
    """The orbits of an action: each in cycle order from its first element
    in carrier order, the orbits in the carrier order of those first
    elements.  An immutable named tuple of one field, equal to the plain
    tuple (orbits,); len() counts that field, not the orbits."""

    orbits: tuple[tuple, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


class NotClosed(Exception):
    """A step takes an element of the carrier outside the carrier.  Every
    check turns it into its closure verdict; one that escapes is a fault."""

    def __init__(self, element, image):
        super().__init__(f"step leaves the carrier at {element!r} -> {image!r}")
        self.element, self.image = element, image

    def verdict(self) -> Verdict:
        """The failing closure verdict: the element and its image."""
        return Verdict(False, {"check": "closure", "element": self.element,
                               "image": self.image})


class NotBijective(RuntimeError):
    """A step maps two elements of the carrier to the same image: a fault
    of the action's construction, not a verdict on the carrier."""


class WrongOrder(RuntimeError):
    """An action checked against the wrong order: a polynomial whose
    modulus is not the action order, or a step with an orbit whose size
    does not divide it (so step^n is not the identity).  A fault of the
    check's construction, not a verdict on the carrier."""


class CyclicAction:
    """An order-n action on a finite indexed set, given by its generator.
    A plain class with slots (not a value type: it compares by identity):
    the carrier is kept as a tuple, and the successor and the orbits are
    cached on the action the first time they are asked for."""

    __slots__ = ("order", "carrier", "step", "_successor", "_orbits")

    def __init__(self, order: int, carrier, step: Callable):
        self.order, self.carrier, self.step = order, tuple(carrier), step
        self._successor = self._orbits = None

    def __repr__(self) -> str:
        return (f"CyclicAction(order={self.order!r}, carrier={self.carrier!r}, "
                f"step={self.step!r})")

    def successor(self) -> list[int]:
        """The generator as a permutation of carrier indices:
        step(carrier[i]) == carrier[perm[i]].  The one place where `step`
        is applied, once per element and in one pass over the carrier:
        raises NotClosed for the first element in carrier order whose
        image leaves the carrier, and NotBijective (a RuntimeError) for a
        step that is not a bijection of the carrier.  Callers that need
        to know whether an element is fixed read perm[i] == i."""
        if self._successor is None:
            carrier = self.carrier
            index = dict(zip(carrier, range(len(carrier))))
            images = list(map(self.step, carrier))
            perm = list(map(index.get, images))
            if None in perm:
                i = perm.index(None)
                raise NotClosed(carrier[i], images[i])
            if len(set(perm)) != len(perm):
                raise NotBijective("step is not a bijection of the carrier")
            self._successor = perm
        return self._successor


def orbits(a: CyclicAction) -> OrbitDecomposition:
    """The cycles of the successor permutation, unsorted: the CSP check
    and its callers read only their sizes.  Built once per action and kept
    on it, like the successor."""
    if a._orbits is None:
        perm = a.successor()
        carrier = a.carrier
        seen = bytearray(len(perm))
        out = []
        for start in range(len(perm)):
            if seen[start]:
                continue
            orbit = []
            i = start
            while not seen[i]:
                seen[i] = 1
                orbit.append(carrier[i])
                i = perm[i]
            out.append(tuple(orbit))
        a._orbits = OrbitDecomposition(tuple(out))
    return a._orbits


def restrict_to_subgroup(a: CyclicAction, g: int) -> CyclicAction:
    """The order-g action of the unique subgroup C_g, i.e. step^(n/g)."""
    if g < 1 or a.order % g:
        raise ValueError("subgroup order must divide the action order")
    perm = a.successor()
    carrier = a.carrier
    index = {x: i for i, x in enumerate(carrier)}
    power = a.order // g

    def substep(x):
        i = index[x]
        for _ in range(power):
            i = perm[i]
        return carrier[i]

    return CyclicAction(g, carrier, substep)


@lru_cache(maxsize=None)
def _fixed_point_powers(n: int) -> tuple[int, ...]:
    """0 and the proper divisors of n, ascending: the powers k at which
    method 1 of `check_csp` compares fixed points with f(omega^k)."""
    return (0,) + tuple(k for k in range(1, n // 2 + 1) if n % k == 0)


def check_csp(a: CyclicAction, f: ResiduePoly) -> Verdict:
    """Dual cyclic sieving check for the triple (carrier, C_n, f).  A step
    that leaves the carrier fails it with a closure witness: the element
    and its image.  An f whose modulus is not n, or an orbit whose size
    does not divide n, raises WrongOrder.  An empty carrier with a zero f
    holds before the successor is built; with any other f both methods
    run, and both fail.

    Neither method pays for what it already knows: at k = 0 the fixed
    points are the whole carrier, and f(1) is the sum of f's coefficients
    (`evaluate_at_root` at order 1), so a check of order 1 divides no
    polynomial; beyond k = 0 method 1 checks only the proper divisors k
    of n, composing the successor up to the largest: every other k agrees
    with gcd(n, k), a smaller divisor, so the first failing k is among
    them; method 2 reads each orbit's size once and compares the
    coefficients one by one only to name the first that differs."""
    n = a.order
    if f.n != n:
        raise WrongOrder("polynomial modulus must equal the action order")
    if not a.carrier and not any(f.coeffs):
        return Verdict(True, None)
    try:
        perm = a.successor()
    except NotClosed as exc:
        return exc.verdict()

    # Method 1: the fixed points of step^k against f(omega^k).  Once
    # step^n is the identity (method 2 raises WrongOrder otherwise),
    # step^k fixes what step^gcd(n, k) fixes and f(omega^k) depends only on
    # gcd(n, k), so k = 0 and the proper divisors of n, in ascending order,
    # decide every k and meet the first failing one.  step^0 fixes the
    # whole carrier; step^k is composed only up to the largest of them.
    witness1 = None
    identity = range(len(perm))
    current, power = perm, 1        # step^power as an index list
    for k in _fixed_point_powers(n):
        if k:
            for _ in range(power, k):
                current = list(map(perm.__getitem__, current))
            power = k
            fixed = sum(map(eq, current, identity))
        else:
            fixed = len(perm)
        value = evaluate_at_root(f, k)
        if value != fixed:
            witness1 = {"k": k, "fixed_points": fixed,
                        "evaluation": value if value is not None else "non-integer"}
            break

    # Method 2: congruence with the orbit generating function sum, one
    # orbit_gf per distinct orbit size, which must divide n.
    counts = {}
    for orbit in orbits(a).orbits:
        size = len(orbit)
        counts[size] = counts.get(size, 0) + 1
    expected = [0] * n
    for size, count in counts.items():
        if n % size:
            raise WrongOrder(f"orbit size {size} does not divide the action order {n}")
        for i, c in enumerate(orbit_gf(n, size).coeffs):
            expected[i] += count * c
    witness2 = None
    if f.coeffs != tuple(expected):
        for i, (have, want) in enumerate(zip(f.coeffs, expected)):
            if have != want:
                witness2 = {"exponent": i, "coefficient": have, "expected": want}
                break

    if (witness1 is None) != (witness2 is None):
        raise RuntimeError(
            "internal disagreement between the fixed-point and orbit-sum checks")
    return Verdict(witness1 is None, witness1)


def check_extension(a: CyclicAction, g: int, f: ResiduePoly) -> Verdict:
    """The period-based extension of a CSP from C_g to C_n: the hypotheses
    (i) the CSP of the restricted order-g action, (ii) period g of f
    modulo n and (iii) n/|O| dividing g for every orbit O, and the full
    CSP.  It holds when the hypotheses do; the failure witness gives all
    four outcomes.  A step that leaves the carrier fails it with the
    closure witness.  Hypotheses that hold beside a failing full CSP
    contradict the extension lemma and raise RuntimeError."""
    try:
        sub = check_csp(restrict_to_subgroup(a, g), refold(f, g))
    except NotClosed as exc:
        return exc.verdict()
    full = check_csp(a, f)      # an orbit size not dividing n raises WrongOrder here
    period_ok = has_period(f, g)
    orbit_ok = all(g % (a.order // size) == 0 for size in orbits(a).sizes)
    holds = sub.holds and period_ok and orbit_ok
    if holds and not full.holds:
        raise RuntimeError("extension hypotheses hold but the full CSP fails; "
                           "this contradicts the extension lemma")
    return Verdict(holds, None if holds else {
        "subgroup_csp": sub.to_json(), "period_ok": period_ok,
        "orbit_divisibility_ok": orbit_ok, "full_csp": full.to_json()})


def check_refinement(parent: CyclicAction, sub_carrier, f_sub: ResiduePoly) -> Verdict:
    """CSP check for a subset of the carrier under the parent's step; a
    subset that the step leaves fails with the closure witness."""
    return check_csp(CyclicAction(parent.order, sub_carrier, parent.step), f_sub)
