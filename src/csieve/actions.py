"""Cyclic actions on finite sets and exact cyclic sieving verification.

A CSP check always runs both equivalent tests: fixed-point counts against
root-of-unity evaluations, and congruence with the sum of orbit generating
functions mod q^n - 1.  The two are provably equivalent, so disagreement
between them is a hard fault (an implementation bug), not a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .qpoly import ResiduePoly, evaluate_at_root, orbit_gf, has_period, refold


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple, ...]     # each orbit sorted, orbits sorted by min element

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.orbits)


class NotClosed(ValueError):
    """A step takes an element of the carrier outside the carrier."""

    def __init__(self, element, image):
        super().__init__(f"step leaves the carrier at {element!r} -> {image!r}")
        self.element, self.image = element, image


@dataclass
class CyclicAction:
    """An order-n action on a finite indexed set, given by its generator."""

    order: int
    carrier: tuple
    step: Callable
    _successor: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.carrier = tuple(self.carrier)

    def successor(self) -> dict:
        """Generator as a mapping; rejects non-bijective steps, and raises
        NotClosed for a step that leaves the carrier."""
        if self._successor is None:
            carrier_set = set(self.carrier)
            succ = {}
            for x in self.carrier:
                y = self.step(x)
                if y not in carrier_set:
                    raise NotClosed(x, y)
                succ[x] = y
            if len(set(succ.values())) != len(succ):
                raise ValueError("step is not a bijection of the carrier")
            self._successor = succ
        return self._successor

    def orbit_of(self, x) -> tuple:
        succ = self.successor()
        orbit = [x]
        y = succ[x]
        while y != x:
            orbit.append(y)
            y = succ[y]
        return tuple(sorted(orbit))


def orbits(a: CyclicAction) -> OrbitDecomposition:
    seen = set()
    out = []
    for x in a.carrier:
        if x in seen:
            continue
        orb = a.orbit_of(x)
        seen.update(orb)
        out.append(orb)
    return OrbitDecomposition(tuple(sorted(out)))


def restrict_to_subgroup(a: CyclicAction, g: int) -> CyclicAction:
    """The order-g action of the unique subgroup C_g, i.e. step^(n/g)."""
    if g < 1 or a.order % g:
        raise ValueError("subgroup order must divide the action order")
    succ = a.successor()
    power = a.order // g

    def substep(x):
        for _ in range(power):
            x = succ[x]
        return x

    return CyclicAction(g, a.carrier, substep)


def check_csp(a: CyclicAction, f: ResiduePoly) -> Verdict:
    """Dual cyclic sieving check for the triple (carrier, C_n, f).  A step
    that leaves the carrier fails it with a closure witness: the element
    and its image."""
    n = a.order
    if f.n != n:
        raise ValueError("polynomial modulus must equal the action order")
    try:
        succ = a.successor()
    except NotClosed as exc:
        return Verdict(False, {"check": "closure", "element": exc.element,
                               "image": exc.image})

    # Method 1: fixed points vs exact root-of-unity evaluations.
    witness1 = None
    current = {x: x for x in a.carrier}   # step^k, built incrementally
    for k in range(n):
        if k:
            current = {x: succ[y] for x, y in current.items()}
        fixed = sum(1 for x, y in current.items() if x == y)
        value = evaluate_at_root(f, k)
        if value != fixed:
            witness1 = {"k": k, "fixed_points": fixed,
                        "evaluation": value if value is not None else "non-integer"}
            break

    # Method 2: congruence with the orbit generating function sum.
    expected = ResiduePoly.zero(n)
    for orb in orbits(a).orbits:
        expected = expected + orbit_gf(n, len(orb))
    witness2 = None
    if f != expected:
        for i, (have, want) in enumerate(zip(f.coeffs, expected.coeffs)):
            if have != want:
                witness2 = {"exponent": i, "coefficient": have, "expected": want}
                break

    if (witness1 is None) != (witness2 is None):
        raise RuntimeError(
            "internal disagreement between the fixed-point and orbit-sum checks")
    return Verdict(witness1 is None, witness1)


@dataclass(frozen=True)
class ExtensionReport:
    """Hypotheses of the period-based extension of a CSP from C_g to C_n."""

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
    if g < 1 or a.order % g:
        raise ValueError("g must divide the action order")
    sub = check_csp(restrict_to_subgroup(a, g), refold(f, g))
    period_ok = has_period(f, g)
    orbit_ok = all((a.order // len(o)) and g % (a.order // len(o)) == 0
                   for o in orbits(a).orbits)
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
    succ = parent.successor()
    for x in sub:
        if succ[x] not in sub_set:
            raise ValueError(f"sub-carrier not closed under the action: {x!r} escapes")
    action = CyclicAction(parent.order, sub, parent.step)
    return check_csp(action, f_sub)
