"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (tolerance zero).  The sweeps enumerate complete
parameter ranges; the randomized block (criterion 8) uses a fixed seed so
runs are reproducible.
"""

import random
import time
from math import gcd

from csieve import formulas, sweeps
from csieve.insertion import (insert_into_falls, insert_into_runs, leaves,
                              phi, power_image)
from csieve.qpoly import (ResiduePoly, evaluate_at_root, has_period, orbit_gf,
                          refold)
from csieve.subsets import (enumerate_g_de, enumerate_g_chain, enumerate_s_kb,
                            mbs, rotate_within_intervals, sum_prime)
from csieve.words import (as_word, cdes, cdt, content, cyclic_descent_set,
                          descent_set, flex, freq, inv, maj, necklace, period)


def report(number: int, name: str, result: dict | bool):
    if isinstance(result, bool):
        ok, detail = result, ""
    else:
        ok = result["holds"]
        detail = f" ({result['instances_checked']} instances)"
        if not ok:
            detail += f" first failure: {result['failures'][0]}"
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}{detail}")
    assert ok, f"criterion {number} ({name}) failed{detail}"


def drain(items) -> dict:
    return sweeps.run_sweep(items)


def test_criterion_1_golden_examples():
    start = time.monotonic()
    ok = True

    w = as_word([1, 5, 5, 3, 1, 5, 5, 3])
    ok &= descent_set(w) == {3, 4, 7}
    ok &= cyclic_descent_set(w) == {3, 4, 7, 8}
    ok &= maj(w) == 14 and inv(w) == 9 and cdes(w) == 4
    ok &= content(w) == (2, 0, 2, 0, 4)
    ok &= period(w) == 4 and freq(w) == 2
    ok &= [flex(u) for u in necklace(w).members] == [0, 2, 4, 6]

    ok &= cdt(as_word([1, 4, 3, 1, 2, 4, 1, 1, 4, 2, 2, 3])) == (0, 2, 1, 2)

    ok &= set(leaves((3, 1, 1), (0, 1, 0))) == {
        (2, 3, 1, 1, 1), (1, 2, 3, 1, 1), (1, 1, 2, 3, 1)}

    base = as_word([2, 6, 5, 3, 4, 6, 1, 1])
    mid = insert_into_falls(base, 7, [0, 3])
    ok &= mid == as_word([7, 2, 6, 5, 3, 4, 7, 6, 1, 1])
    ok &= insert_into_runs(mid, 7, [0, 2, 3, 3]) == as_word(
        [7, 7, 2, 6, 5, 7, 3, 4, 7, 7, 7, 6, 1, 1])

    u = (2, 1, 1, 3, 3, 2, 3, 1, 1)
    ok &= phi(u) == (((0, 2), ()), ((2,), (1, 2)))
    ok &= phi((2, 2, 2, 1, 1, 2, 3, 3, 1, 1)) == (((0, 2), (0, 0)), ((), (1, 1)))
    ok &= phi(u + u) == (((0, 2, 4, 6), ()), ((2, 6), (1, 2, 4, 5)))
    ok &= power_image(u, 2) == phi(u + u)

    ok &= len(set(leaves((4, 2, 3), (0, 2, 1)))) == 144
    ok &= formulas.count_w_alpha_delta((4, 2, 3), (0, 2, 1)) == 324
    ok &= 324 * 4 == 9 * 144

    carrier = list(enumerate_s_kb(5, 3, 2))
    tally = {}
    for a in carrier:
        tally[mbs(a, 5)] = tally.get(mbs(a, 5), 0) + 1
    ok &= tally == {4: 1, 5: 1, 6: 1, 7: 1, 8: 1}
    f = ResiduePoly.from_terms(5, tally)
    ok &= evaluate_at_root(f, 1) == 0 and evaluate_at_root(f, 0) == 5

    ok &= set(enumerate_g_de(4, 2, 2, 1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    ok &= set(enumerate_g_de(4, 2, 2, 2)) == {(0, 1), (2, 3)}
    family = list(enumerate_g_chain(4, 2, (1, 2, 4)))
    sums = {}
    for a in family:
        sums[sum_prime(a)] = sums.get(sum_prime(a), 0) + 1
    ok &= sums == {1: 1, 2: 2, 3: 1}                       # q + 2q^2 + q^3
    ok &= ResiduePoly.from_terms(2, sums) == ResiduePoly(2, (2, 2))
    ok &= rotate_within_intervals((0, 0, 0, 2, 2, 3), 4, 4) == (0, 1, 1, 1, 3, 3)

    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, f"golden examples in {elapsed:.3f}s", bool(ok))


def test_criterion_2_main_theorem_sweep():
    start = time.monotonic()
    result = drain(sweeps.sweep_main(8, 4))
    elapsed = time.monotonic() - start
    result["holds"] &= elapsed < 60.0
    report(2, f"main CSP sweep n<=8 in {elapsed:.1f}s", result)


def test_criterion_3_formula_vs_oracle():
    report(3, "closed forms vs enumeration n<=10",
           drain(sweeps.sweep_formulas(10, 4)))


def test_criterion_4_phi_bijection():
    report(4, "insertion bijection roundtrips n<=10",
           drain(sweeps.sweep_phi(10, 4)))


def test_criterion_5_macmahon():
    report(5, "maj = inv = q-multinomial n<=8",
           drain(sweeps.sweep_macmahon(8)))


def test_criterion_6_flex():
    universal = drain(sweeps.sweep_flex_universal(10))
    equidist = drain(sweeps.sweep_flex_maj(8, 8))
    merged = {
        "holds": universal["holds"] and equidist["holds"],
        "instances_checked": (universal["instances_checked"]
                              + equidist["instances_checked"]),
        "failures": universal["failures"] + equidist["failures"],
    }
    report(6, "flex universal + flex/maj equidistribution", merged)


def test_criterion_7_subset_suite():
    parts = [drain(sweeps.sweep_multisubset(10)),
             drain(sweeps.sweep_subset_star(10)),
             drain(sweeps.sweep_chains(12)),
             drain(sweeps.sweep_g_dd(12)),
             drain(sweeps.sweep_action_isomorphism(12)),
             drain(sweeps.sweep_mbs(8))]
    merged = {
        "holds": all(p["holds"] for p in parts),
        "instances_checked": sum(p["instances_checked"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
    }
    report(7, "subset and multisubset suite", merged)


# ---------------------------------------------------------------------------
# criterion 8: randomized periodicity calculus

def random_with_period(rng: random.Random, a: int, c: int) -> ResiduePoly:
    """A random residue mod q^c - 1 with period a: constant on the cosets
    of gcd(a, c), which is exactly the class of such polynomials."""
    g = gcd(a, c) or c
    base = [rng.randint(-9, 9) for _ in range(g)]
    return ResiduePoly(c, tuple(base[i % g] for i in range(c)))


def test_criterion_8_period_calculus():
    rng = random.Random(20260823)
    cases = 1000
    failures = []

    for _ in range(cases):       # (i): combined periods
        c = rng.randint(1, 30)
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        f = random_with_period(rng, gcd(a, b), c)
        if not (has_period(f, a) and has_period(f, b)):
            # constant on cosets of gcd(a,b,c) gives both periods
            failures.append(("i-setup", a, b, c))
            continue
        u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        if not has_period(f, u * a + v * b) or not has_period(f, gcd(a, b)):
            failures.append(("i", a, b, c, u, v))

    for _ in range(cases):       # (iii): period survives refolding
        b = rng.randint(1, 12)
        c = b * rng.randint(1, 4)
        a = rng.randint(1, 40)
        f = random_with_period(rng, a, c)
        if not has_period(refold(f, b), a):
            failures.append(("iii", a, b, c))

    for _ in range(cases):       # (iv): multiplication preserves periods
        b = rng.randint(1, 25)
        a = rng.randint(1, 40)
        f = random_with_period(rng, a, b)
        h = ResiduePoly(b, tuple(rng.randint(-9, 9) for _ in range(b)))
        if not has_period(f * h, a):
            failures.append(("iv", a, b))

    for _ in range(cases):       # (v): recovery from the folded form
        a = rng.randint(1, 8)
        b = a * rng.randint(1, 5)
        f = random_with_period(rng, a, b)
        if orbit_gf(b, b // a) * f != f * (b // a):
            failures.append(("v", a, b))

    # the generating function period proposition at full desk scale
    prop = drain(sweeps.sweep_period_g(8, 4))
    merged = {
        "holds": not failures and prop["holds"],
        "instances_checked": 4 * cases + prop["instances_checked"],
        "failures": failures + prop["failures"],
    }
    report(8, "periodicity calculus (4 x 1000 random + period-g sweep)", merged)


def test_criterion_9_vandermonde():
    report(9, "content-class convolution identity n<=10",
           drain(sweeps.sweep_vandermonde(10, 4)))
