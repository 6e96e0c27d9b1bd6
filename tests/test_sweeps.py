"""The sweeps and their witnesses, which carry enough to reproduce a
failure: the walk of each insertion tree that checks phi, and the closed
forms against enumeration."""

import inspect
import itertools
import sys
from collections import Counter

import pytest

from csieve import formulas, insertion, subsets, sweeps, words
from csieve.insertion import insert_triple, phi
from csieve.words import cdt, cdt_groups, enumerate_by_content, maj, strong_compositions


def test_sweep_phi_small():
    report = sweeps.run_sweep(sweeps.sweep_phi(6, 4))
    assert report["holds"] is True
    assert report["instances_checked"] == 160


def test_words_ending_in_one_groups_by_cdt():
    groups = words.words_ending_in_one((3, 1, 1))
    assert groups[(0, 1, 0)] == {(2, 3, 1, 1, 1), (1, 2, 3, 1, 1), (1, 1, 2, 3, 1)}
    assert sum(len(ws) for ws in groups.values()) == 12    # 5!/(3! 1! 1!) * 3/5


def test_words_ending_in_one_equals_grouping_by_cdt():
    # every strong content with n <= 8: the oracle, read off the necklace
    # classes, against every word ending in 1 by Algorithm L with cdt per word
    for n in range(1, 9):
        for parts in range(1, n + 1):
            for alpha in strong_compositions(n, parts):
                expected = {}
                for u in enumerate_by_content((alpha[0] - 1,) + alpha[1:]):
                    expected.setdefault(cdt(u + (1,)), set()).add(u + (1,))
                assert words.words_ending_in_one(alpha) == expected, alpha


def test_the_phi_check_does_each_piece_of_work_once(monkeypatch):
    # deterministic work counts on one instance: cdt once per distinct
    # restriction of a necklace of the content (its least rotation without
    # the letters 4: 1 followed by a word of content (2, 3, 2)), the fall ends
    # of each node with children read once, maj taken once per node
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in [(words, "cdt"), (insertion, "maj"), (insertion, "_fall_ends")]:
        count(module, name)
    assert insertion.verify_phi((3, 3, 2, 2), (0, 2, 1, 1)).holds
    # 7! / (2! 3! 2!) restrictions; the tree has 6, 12 and 20 labels per
    # letter, so 1, 6, 72 and 1440 nodes by depth
    assert calls == {"cdt": 210, "_fall_ends": 1 + 6 + 72, "maj": 1 + 6 + 72 + 1440}


@pytest.mark.parametrize("name, verifier", [("multisubset", "verify_multisubset_refinement"),
                                            ("subset_star", "verify_subset_star")])
def test_the_profile_sweeps_yield_every_profile_in_order(monkeypatch, name, verifier):
    # the keys a profile sweep yields, in order, for every (n, d, k) with
    # n <= 12: the weak compositions of k into n/d parts, lexicographic, at
    # most d per part for subsets.  A weak composition of k into p parts is
    # a strong one of k + p less 1 per part, in the same order.  No
    # profile is handed an empty carrier.
    monkeypatch.setattr(sweeps, verifier,
                        lambda n, d, alpha, carrier: sweeps.Verdict(len(carrier) > 0, None))
    want = []
    for n in range(1, 13):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            for k in range(sweeps.K_MAX + 1):
                for strong in strong_compositions(k + n // d, n // d):
                    alpha = tuple(a - 1 for a in strong)
                    if name == "multisubset" or max(alpha) <= d:
                        want.append({"n": n, "d": d, "alpha": alpha})
    items = list(getattr(sweeps, f"sweep_{name}")(12))
    assert [key for key, _ in items] == want
    assert all(verdict.holds for _, verdict in items)


def test_the_phi_check_builds_its_parameters_once(monkeypatch):
    # verify_phi builds the instance's parameters and hands them to the
    # label spaces, which would otherwise build them again
    built = []
    real = insertion.params

    def counted(alpha, delta):
        built.append((alpha, delta))
        return real(alpha, delta)
    monkeypatch.setattr(insertion, "params", counted)
    assert insertion.verify_phi((3, 3, 2, 2), (0, 2, 1, 1)).holds
    assert built == [((3, 3, 2, 2), (0, 2, 1, 1))]


@pytest.mark.parametrize("name, enumerator", [("multisubset", "enumerate_multisubsets"),
                                              ("subset_star", "enumerate_subsets")])
def test_the_profile_sweeps_enumerate_each_group_once(monkeypatch, name, enumerator):
    # one pass over the k-(multi)subsets of [0, n-1] per (n, d, k), d | n,
    # and no per-profile enumeration: 20 divisor pairs (n, d) at n <= 8,
    # times the K_MAX + 1 values of k
    passes = Counter()
    real = getattr(sweeps, enumerator)

    def counted(n, k):
        passes[n, k] += 1
        return real(n, k)

    def forbidden(*args):
        raise AssertionError("a profile was enumerated on its own")

    monkeypatch.setattr(sweeps, enumerator, counted)
    monkeypatch.setattr(subsets, "_enumerate_profile", forbidden)
    report = sweeps.run_sweep(getattr(sweeps, f"sweep_{name}")(8))
    assert report["holds"] is True
    divisors = {n: sum(n % d == 0 for d in range(1, n + 1)) for n in range(1, 9)}
    assert passes == {(n, k): divisors[n] for n in range(1, 9)
                      for k in range(sweeps.K_MAX + 1)}
    assert sum(passes.values()) == 20 * (sweeps.K_MAX + 1)


def test_maj_increment_witness(monkeypatch):
    real = insertion._maj_increment
    monkeypatch.setattr(insertion, "_maj_increment",
                        lambda c, falls, runs: real(c, falls, runs) + 1)
    verdict = insertion.verify_phi((4, 2, 3), (0, 2, 1))
    witness = verdict.witness
    assert verdict.holds is False
    assert witness["check"] == "maj-increment"
    assert witness["predicted"] == witness["actual"] + 1
    child = insert_triple(witness["parent"], witness["letter"],
                          witness["falls"], witness["runs"])
    assert child == witness["child"]
    assert maj(child) - maj(witness["parent"]) == witness["actual"]


def test_recovery_witness(monkeypatch):
    monkeypatch.setattr(insertion, "_recover_labels", lambda w, letter: ((), (), ()))
    verdict = insertion.verify_phi((3, 1, 1), (0, 1, 0))
    witness = verdict.witness
    assert verdict.holds is False
    assert witness["check"] == "recovery"
    assert witness["recovered"] == ((), (), ())
    child = insert_triple(witness["parent"], witness["letter"],
                          witness["falls"], witness["runs"])
    assert child == witness["child"]
    # phi reads the same name, so it takes the real recovery
    monkeypatch.undo()
    assert phi(child)[-1] == (witness["falls"], witness["runs"])


def test_an_insert_that_drops_a_copy_fails(monkeypatch):
    real = insertion._insert_triple

    def drop_one_copy(w, fall_ends, descents, letter, falls, runs):
        child = list(real(w, fall_ends, descents, letter, falls, runs))
        del child[child.index(letter)]
        return tuple(child)

    monkeypatch.setattr(insertion, "_insert_triple", drop_one_copy)
    verdict = insertion.verify_phi((3, 1, 2), (0, 1, 1))
    witness = verdict.witness
    assert verdict.holds is False
    assert witness["check"] == "recovery"
    assert witness["recovered"] != (witness["parent"], witness["falls"], witness["runs"])
    assert witness["child"].count(witness["letter"]) < len(witness["falls"] + witness["runs"])


def test_an_insert_that_moves_a_fall_copy_fails(monkeypatch):
    # the copy opening the first listed fall goes one gap of the parent
    # late, and the runs close around it there: the content and the final
    # 1 stay
    real = insertion._insert_triple

    def move_a_fall_copy(w, fall_ends, descents, letter, falls, runs):
        if falls:
            fall_ends = list(fall_ends)
            fall_ends[falls[0] - 1] += 1
        return real(w, fall_ends, descents, letter, falls, runs)

    monkeypatch.setattr(insertion, "_insert_triple", move_a_fall_copy)
    verdict = insertion.verify_phi((3, 1, 2), (0, 1, 1))
    witness = verdict.witness
    assert verdict.holds is False
    assert witness["check"] == "recovery"
    parent, letter, child = witness["parent"], witness["letter"], witness["child"]
    assert sorted(child) == sorted(insert_triple(parent, letter, witness["falls"],
                                                 witness["runs"]))
    assert child[-1] == 1
    # what phi's step reads from the child alone
    assert witness["recovered"] == insertion._recover_labels(child, letter)
    assert witness["recovered"] != (parent, witness["falls"], witness["runs"])


def test_leaf_set_witness():
    enumerated = words.words_ending_in_one((3, 1, 1))[(0, 1, 0)]
    short = enumerated - {(1, 1, 2, 3, 1)}
    verdict = insertion.verify_phi((3, 1, 1), (0, 1, 0), short | {(2, 1, 3, 1, 1)})
    assert verdict.holds is False
    assert verdict.witness == {"check": "leaf-set", "built": 3, "enumerated": 3,
                               "missing": (2, 1, 3, 1, 1), "extra": (1, 1, 2, 3, 1)}


def test_formula_witness_carries_both_coefficient_tuples(monkeypatch):
    # the check folds the tilde function it has already compared, through
    # the fold maj_gf_mod_n makes
    real = formulas._fold_tilde
    monkeypatch.setattr(formulas, "_fold_tilde", lambda p, tilde: real(p, tilde).shift(1))
    report = sweeps.run_sweep(sweeps.sweep_formulas(3, 2))
    assert report["holds"] is False
    failure = report["failures"][0]
    alpha, delta, witness = failure["alpha"], failure["delta"], failure["witness"]
    words = cdt_groups(alpha)[delta]
    assert witness == {"check": "maj_gf_mod_n",
                       "enumerated": formulas.brute_gf(words, sum(alpha), maj).coeffs,
                       "formula": formulas.maj_gf_mod_n(alpha, delta).coeffs}
    assert witness["formula"] == real(formulas.params(alpha, delta),
                                      formulas.tilde_maj_gf(alpha, delta)).shift(1).coeffs
    assert witness["enumerated"] != witness["formula"]


def test_sweep_flex_universal_checks_every_necklace_once():
    keys = [key["necklace"] for key, verdict in sweeps.sweep_flex_universal(9)
            if verdict.holds]
    assert keys == [w for n in range(1, 10)
                    for w in itertools.product(range(1, sweeps.FLEX_ALPHABET + 1), repeat=n)
                    if w == min(w[s:] + w[:s] for s in range(n))]


def test_the_flex_sweeps_build_each_necklace_once(monkeypatch):
    # every binding of words.necklace and words.cdt_groups in the package
    # counted: the flex-maj sweep reads its classes off necklace_classes
    # and calls neither, and flex-universal takes one pair per instance
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("csieve.")]
    for name in ("necklace", "cdt_groups"):
        real = getattr(words, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attribute, counted)
    assert sweeps.run_sweep(sweeps.sweep_flex_maj(6))["holds"]
    assert calls == Counter()
    report = sweeps.run_sweep(sweeps.sweep_flex_universal(5))
    assert report["holds"]
    assert calls == Counter({"necklace": report["instances_checked"]})


@pytest.mark.parametrize("name", [name for name, theorem in sweeps.THEOREMS.items()
                                  if theorem.largest is not None])
def test_largest_is_the_largest_instance_of_the_sweep(name):
    # the instance the CLI sizes a sweep by, against every instance it runs
    theorem = sweeps.THEOREMS[name]
    params = inspect.signature(theorem.sweep).parameters
    for n_max in range(1, 6):
        grid = [{"n_max": n_max}]
        if "max_parts" in params:
            grid += [{"n_max": n_max, "max_parts": p} for p in (1, 2, 3)]
        for bounds in grid:
            resolved = {b: bounds.get(b, p.default) for b, p in params.items()}
            largest = theorem.largest(**resolved)
            keys = [key for key, _ in theorem.sweep(**resolved)]
            assert any(largest.items() <= key.items() for key in keys), resolved
            assert theorem.size(**largest) == max(theorem.size(**key) for key in keys)
