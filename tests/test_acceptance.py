"""Acceptance suite.

Every theorem of sweeps.THEOREMS with a sweep is checked through
`csieve verify` over the sweep's default bounds, which are its acceptance
range, and the test prints the line the CLI prints; each row of MUTANTS
must fail under its mutation.  Criterion 1 checks
golden examples, criterion 8 the period calculus on seeded random
residues.  Every check is exact (tolerance zero).
"""

import json
import random
import time
from math import gcd

import pytest

from csieve import cli, formulas, insertion, subsets, sweeps
from csieve.insertion import insert_triple, leaves, phi, power_image
from csieve.qpoly import (ResiduePoly, evaluate_at_root, has_period, orbit_gf,
                          refold)
from csieve.subsets import (enumerate_g_de, enumerate_g_chain, enumerate_s_kb,
                            mbs, rotate_within_intervals, sum_prime)
from csieve.words import (as_word, cdes, cdt, content, cyclic_descent_set,
                          descent_set, flex, freq, inv, maj, necklace, period)

# The instances each sweep checks at its default bounds: a shrunk default
# would still hold, so the counts are pinned.
INSTANCES = {"main": 786, "tilde-gf": 2895, "phi": 2895, "macmahon": 255,
             "vandermonde": 385, "period-g": 786, "flex-universal": 9503,
             "flex-maj": 2534, "multisubset": 3373, "subset-star": 1317,
             "chain": 207, "g-dd": 299, "action-isomorphism": 166, "mbs": 164}


def _times_q(real):
    return lambda *args: real(*args).shift(1)


def _constant_term_plus_one(real):
    def mutant(*args):
        f = real(*args)
        return ResiduePoly(f.n, (f.coeffs[0] + 1,) + f.coeffs[1:])
    return mutant


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _global_table_of_one_interval(real):
    # the order-d global rotation replaced by the identity: the table of d = 1
    return lambda n, d: real(n, 1)


def _fall_copy_one_gap_late(real):
    # the copy opening the first listed fall goes one gap of the parent late
    def mutant(w, fall_ends, descents, letter, falls, runs):
        if falls:
            fall_ends = list(fall_ends)
            fall_ends[falls[0] - 1] += 1
        return real(w, fall_ends, descents, letter, falls, runs)
    return mutant


# A mutation for a theorem row, keyed like INSTANCES: the module attribute
# it replaces, the replacement made from the real one, a small --n-max, and
# the failing and the checked instance counts there, pinned so that a
# weakened check shows.  A q-shift keeps every period, so period-g's mutant
# breaks one instead; vandermonde and tilde-gf catch the shift.
MUTANTS = {
    "tilde-gf": (formulas, "_fold_tilde", _times_q, 8, 27, 786),
    "vandermonde": (formulas, "maj_gf_mod_n", _times_q, 8, 19, 162),
    "period-g": (formulas, "maj_gf_mod_n", _constant_term_plus_one, 8, 778, 786),
    "phi": (insertion, "_insert_triple", _fall_copy_one_gap_late, 6, 129, 160),
    "multisubset": (subsets, "brute_gf", _times_q, 8, 57, 1471),
    "subset-star": (subsets, "brute_gf", _times_q, 8, 47, 522),
    "mbs": (subsets, "_sorted_mbs", _plus_one, 8, 22, 164),
    "action-isomorphism": (subsets, "_global_table", _global_table_of_one_interval,
                           8, 45, 91),
}


def swept_theorems() -> list[str]:
    """The first theorem of each distinct sweep of THEOREMS; tilde-gf and
    maj-mod-n share sweep_formulas, so it runs once."""
    first = {}
    for name, theorem in sweeps.THEOREMS.items():
        if theorem.sweep is not None:
            first.setdefault(theorem.sweep, name)
    return list(first.values())


def test_every_sweep_has_a_pinned_count():
    assert sorted(INSTANCES) == sorted(swept_theorems())


@pytest.mark.parametrize("name", swept_theorems())
def test_theorem_sweep(capsys, monkeypatch, name):
    monkeypatch.delenv("CSIEVE_CAP", raising=False)
    start = time.monotonic()
    code = cli.main(["verify", name, "--format", "text", "--failures-only"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        print("\n" + out, end="")
    assert code == 0
    assert out == f"{name}: checked {INSTANCES.get(name)} instance(s), holds=True\n"
    assert elapsed < 60.0


@pytest.mark.parametrize("name", list(MUTANTS))
def test_theorem_sweep_fails_under_its_mutant(capsys, monkeypatch, name):
    module, attribute, mutate, n_max, failing, checked = MUTANTS[name]
    monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    code = cli.main(["verify", name, "--n-max", str(n_max), "--format", "json",
                     "--failures-only"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (len(report["failures"]), report["instances_checked"]) == (failing, checked)


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
    ok &= insert_triple(base, 7, [0, 3], []) == as_word([7, 2, 6, 5, 3, 4, 7, 6, 1, 1])
    ok &= insert_triple(base, 7, [0, 3], [0, 2, 3, 3]) == as_word(
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
    f = formulas.brute_gf(carrier, 5, lambda a: mbs(a, 5))
    ok &= evaluate_at_root(f, 1) == 0 and evaluate_at_root(f, 0) == 5

    ok &= set(enumerate_g_de(4, 2, 2, 1)) == {(0, 2), (0, 3), (1, 2), (1, 3)}
    ok &= set(enumerate_g_de(4, 2, 2, 2)) == {(0, 1), (2, 3)}
    family = list(enumerate_g_chain(4, 2, (1, 2, 4)))
    sums = {}
    for a in family:
        sums[sum_prime(a)] = sums.get(sum_prime(a), 0) + 1
    ok &= sums == {1: 1, 2: 2, 3: 1}                       # q + 2q^2 + q^3
    ok &= formulas.brute_gf(family, 2, sum_prime) == ResiduePoly(2, (2, 2))
    ok &= rotate_within_intervals((0, 0, 0, 2, 2, 3), 4, 4) == (0, 1, 1, 1, 3, 3)

    elapsed = time.monotonic() - start
    print(f"\ncriterion 1: golden examples in {elapsed:.3f}s")
    assert ok and elapsed < 1.0


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

    assert not failures, f"period calculus failed: first failure {failures[0]}"
    print(f"\ncriterion 8: checked {4 * cases} random period identities")
