"""Cyclic actions on finite sets and exact cyclic sieving verification.

An action holds its generator as a permutation of carrier indices, built
and validated once by `CyclicAction.successor`; both CSP methods run on
that permutation.  A CSP check always runs both equivalent tests:
fixed-point counts of every power of the generator against root-of-unity
evaluations, and congruence with the sum of orbit generating functions
mod q^n - 1.  The two are provably equivalent, so disagreement between
them is a hard fault (an implementation bug), not a verdict.  The value
of f at omega^k depends only on the order m = n / gcd(n, k) of omega^k,
so method 1 evaluates f once per order.
"""

from __future__ import annotations

from math import gcd
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


class NotClosed(ValueError):
    """A step takes an element of the carrier outside the carrier."""

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


def check_csp(a: CyclicAction, f: ResiduePoly) -> Verdict:
    """Dual cyclic sieving check for the triple (carrier, C_n, f).  A step
    that leaves the carrier fails it with a closure witness: the element
    and its image.  An f whose modulus is not n, or an orbit whose size
    does not divide n, raises WrongOrder.

    Neither method pays for what it already knows: at k = 0 the fixed
    points are the whole carrier, and f(1) is the sum of f's coefficients
    (`evaluate_at_root` at order 1), so a check of order 1 divides no
    polynomial; method 2 reads each orbit's size once and compares the
    coefficients one by one only to name the first that differs."""
    n = a.order
    if f.n != n:
        raise WrongOrder("polynomial modulus must equal the action order")
    try:
        perm = a.successor()
    except NotClosed as exc:
        return exc.verdict()

    # Method 1: the fixed points of every power step^k against f(omega^k),
    # evaluated once per order m of omega^k.  step^0 fixes the whole
    # carrier, and step^1 is the successor itself.
    witness1 = None
    identity = range(len(perm))
    current = perm                  # step^k as an index list, for k >= 1
    values = {}                     # m -> f at a primitive m-th root of unity
    for k in range(n):
        if k > 1:
            current = list(map(perm.__getitem__, current))
        fixed = sum(map(eq, current, identity)) if k else len(perm)
        m = n // gcd(n, k)
        if m not in values:
            values[m] = evaluate_at_root(f, k)
        value = values[m]
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


class ExtensionReport(NamedTuple):
    """Hypotheses of the period-based extension of a CSP from C_g to C_n.
    An immutable named tuple of its four fields, equal to that plain
    tuple; like Verdict, it reaches JSON only through to_json()."""

    subgroup_csp: Verdict          # (i) CSP for the restricted order-g action
    period_ok: bool                # (ii) f has period g modulo n
    orbit_divisibility_ok: bool    # (iii) n/|O| divides g for every orbit
    full_csp: Verdict

    @property
    def hypotheses_hold(self) -> bool:
        return self.subgroup_csp.holds and self.period_ok and self.orbit_divisibility_ok

    def to_json(self) -> dict:
        return {
            "subgroup_csp": self.subgroup_csp.to_json(),
            "period_ok": self.period_ok,
            "orbit_divisibility_ok": self.orbit_divisibility_ok,
            "full_csp": self.full_csp.to_json(),
        }


def check_extension_hypotheses(a: CyclicAction, g: int, f: ResiduePoly) -> ExtensionReport:
    """The hypotheses and the full CSP; raises NotClosed when the step
    leaves the carrier, since the subgroup action needs a closed one."""
    if g < 1 or a.order % g:
        raise ValueError("g must divide the action order")
    sub = check_csp(restrict_to_subgroup(a, g), refold(f, g))
    period_ok = has_period(f, g)
    orbit_ok = all((a.order // size) and g % (a.order // size) == 0
                   for size in orbits(a).sizes)
    full = check_csp(a, f)
    if sub.holds and period_ok and orbit_ok and not full.holds:
        raise RuntimeError("extension hypotheses hold but the full CSP fails; "
                           "this contradicts the extension lemma")
    return ExtensionReport(sub, period_ok, orbit_ok, full)


def check_refinement(parent: CyclicAction, sub_carrier, f_sub: ResiduePoly) -> Verdict:
    """CSP check for a subset of the carrier under the restricted action.

    Rejects (ValueError) when the subset is not closed under the parent step.
    """
    sub = tuple(sub_carrier)
    sub_set = set(sub)
    perm = parent.successor()
    carrier = parent.carrier
    index = {x: i for i, x in enumerate(carrier)}
    for x in sub:
        if carrier[perm[index[x]]] not in sub_set:
            raise ValueError(f"sub-carrier not closed under the action: {x!r} escapes")
    action = CyclicAction(parent.order, sub, parent.step)
    return check_csp(action, f_sub)
