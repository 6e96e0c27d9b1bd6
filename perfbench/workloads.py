"""Workload table, the seeded residue block and the correctness gate.

A workload is a list of exhaustive csieve sweeps run one after another,
optionally followed by the seeded residue block.  The sweeps ignore the
seed; only the residue block draws from it.  Every range is complete: the
gate below compares the instance count and an order-independent digest of
the instance keys with the values committed in expected.json, so a
shrunk or sampled range fails the run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Per block of the residue generator; four blocks.
RESIDUE_CASES = 1000


@dataclass(frozen=True)
class Workload:
    sweeps: tuple[tuple[str, tuple[int, ...]], ...]   # (sweep_<name>, args)
    residue_block: bool
    # Layers whose functions the traced run must never see called.
    bypassed: tuple[str, ...]

    def labels(self) -> list[str]:
        """The workload's entries in expected.json, in run order."""
        return ([sweep_label(name, args) for name, args in self.sweeps]
                + (["residue_block"] if self.residue_block else []))


WORKLOADS = {
    # Whole content classes, up to 2,520 words per CSP carrier: the words
    # layer dominates and insertion is never reached.
    "content-classes": Workload(
        sweeps=(("main", (8, 4)), ("formulas", (8, 4)), ("flex_maj", (7, 4)),
                ("flex_universal", (8,)), ("macmahon", (7,)),
                ("vandermonde", (10, 4)), ("period_g", (8, 4))),
        residue_block=False,
        bypassed=("insertion",)),
    # The insertion-tree bijection (criterion 4): insertion and word
    # re-validation dominate; no CSP check runs.
    "insertion-tree": Workload(
        sweeps=(("phi", (7, 4)),),
        residue_block=False,
        bypassed=("actions",)),
    # Many small CSP carriers of subsets and multisubsets, then residue
    # arithmetic: bypasses both the words and the insertion layers.
    "subset-families": Workload(
        sweeps=(("multisubset", (12,)), ("subset_star", (12,)), ("chains", (14,)),
                ("g_dd", (14,)), ("action_isomorphism", (14,)), ("mbs", (12,))),
        residue_block=True,
        bypassed=("words", "insertion")),
}


def sweep_label(name: str, args: tuple[int, ...]) -> str:
    return f"sweep_{name}({','.join(map(str, args))})"


def key_digest(keys) -> str:
    """sha256 over the sorted canonical JSON of the keys: independent of
    the order in which a sweep yields its instances."""
    lines = sorted(json.dumps(k, sort_keys=True, separators=(",", ":")) for k in keys)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# the residue block: the period calculus of criterion 8 on seeded residues

def random_with_period(rng: random.Random, a: int, c: int):
    """A random residue mod q^c - 1 with period a: constant on the cosets
    of gcd(a, c), which is exactly the class of such polynomials."""
    from csieve.qpoly import ResiduePoly
    g = gcd(a, c) or c
    base = [rng.randint(-9, 9) for _ in range(g)]
    return ResiduePoly(c, tuple(base[i % g] for i in range(c)))


def residue_block(seed: int, cases: int = RESIDUE_CASES):
    """Yield (key, verdict) for 4 x `cases` seeded period-calculus checks:
    (i) combined periods, (iii) periods survive refolding, (iv) products
    keep periods, (v) recovery from the folded form."""
    from csieve.actions import Verdict
    from csieve.qpoly import ResiduePoly, has_period, orbit_gf, refold

    rng = random.Random(seed)

    def verdict(ok: bool, **witness):
        return Verdict(ok, None if ok else witness)

    for case in range(cases):
        c = rng.randint(1, 30)
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        f = random_with_period(rng, gcd(a, b), c)
        u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        ok = (has_period(f, a) and has_period(f, b)
              and has_period(f, u * a + v * b) and has_period(f, gcd(a, b)))
        yield {"block": "i", "case": case}, verdict(ok, a=a, b=b, c=c, u=u, v=v)

    for case in range(cases):
        b = rng.randint(1, 12)
        c = b * rng.randint(1, 4)
        a = rng.randint(1, 40)
        f = random_with_period(rng, a, c)
        yield ({"block": "iii", "case": case},
               verdict(has_period(refold(f, b), a), a=a, b=b, c=c))

    for case in range(cases):
        b = rng.randint(1, 25)
        a = rng.randint(1, 40)
        f = random_with_period(rng, a, b)
        h = ResiduePoly(b, tuple(rng.randint(-9, 9) for _ in range(b)))
        yield {"block": "iv", "case": case}, verdict(has_period(f * h, a), a=a, b=b)

    for case in range(cases):
        a = rng.randint(1, 8)
        b = a * rng.randint(1, 5)
        f = random_with_period(rng, a, b)
        yield ({"block": "v", "case": case},
               verdict(orbit_gf(b, b // a) * f == f * (b // a), a=a, b=b))
