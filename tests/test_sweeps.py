"""The sweeps and their witnesses, which carry enough to reproduce a
failure: the criterion-4 walk of each insertion tree, and the closed
forms against enumeration."""

import itertools

from csieve import formulas, sweeps
from csieve.insertion import insert_triple, phi
from csieve.words import cdt_groups, maj, necklace


def test_sweep_phi_small():
    report = sweeps.run_sweep(sweeps.sweep_phi(6, 4))
    assert report["holds"] is True
    assert report["instances_checked"] == 160


def test_words_ending_in_one_groups_by_cdt():
    groups = sweeps.words_ending_in_one((3, 1, 1))
    assert groups[(0, 1, 0)] == {(2, 3, 1, 1, 1), (1, 2, 3, 1, 1), (1, 1, 2, 3, 1)}
    assert sum(len(ws) for ws in groups.values()) == 12    # 5!/(3! 1! 1!) * 3/5


def test_maj_increment_witness(monkeypatch):
    real = sweeps.predicted_maj_increment
    monkeypatch.setattr(sweeps, "predicted_maj_increment",
                        lambda w, falls, runs: real(w, falls, runs) + 1)
    verdict = sweeps.verify_phi((4, 2, 3), (0, 2, 1))
    witness = verdict.witness
    assert verdict.holds is False
    assert witness["check"] == "maj-increment"
    assert witness["predicted"] == witness["actual"] + 1
    child = insert_triple(witness["word"], witness["letter"],
                          witness["falls"], witness["runs"])
    assert maj(child) - maj(witness["word"]) == witness["actual"]


def test_roundtrip_witness(monkeypatch):
    monkeypatch.setattr(sweeps, "phi", lambda w: ())
    verdict = sweeps.verify_phi((3, 1, 1), (0, 1, 0))
    witness = verdict.witness
    assert verdict.holds is False
    assert witness["check"] == "roundtrip"
    assert witness["phi"] == ()
    assert phi(witness["word"]) == witness["labels"]


def test_leaf_set_witness():
    enumerated = sweeps.words_ending_in_one((3, 1, 1))[(0, 1, 0)]
    short = enumerated - {(1, 1, 2, 3, 1)}
    verdict = sweeps.verify_phi((3, 1, 1), (0, 1, 0), short | {(2, 1, 3, 1, 1)})
    assert verdict.holds is False
    assert verdict.witness == {"check": "leaf-set", "built": 3, "enumerated": 3,
                               "missing": (2, 1, 3, 1, 1), "extra": (1, 1, 2, 3, 1)}


def test_formula_witness_carries_both_coefficient_tuples(monkeypatch):
    real = formulas.maj_gf_mod_n
    monkeypatch.setattr(formulas, "maj_gf_mod_n",
                        lambda alpha, delta: real(alpha, delta).shift(1))
    report = sweeps.run_sweep(sweeps.sweep_formulas(3, 2))
    assert report["holds"] is False
    failure = report["failures"][0]
    alpha, delta, witness = failure["alpha"], failure["delta"], failure["witness"]
    words = cdt_groups(alpha)[delta]
    assert witness == {"check": "maj_gf_mod_n",
                       "enumerated": formulas.brute_gf(words, sum(alpha), maj).coeffs,
                       "formula": real(alpha, delta).shift(1).coeffs}
    assert witness["enumerated"] != witness["formula"]


def test_sweep_flex_universal_checks_every_necklace_once():
    keys = [key["necklace"] for key, verdict in sweeps.sweep_flex_universal(9)
            if verdict.holds]
    assert keys == [w for n in range(1, 10)
                    for w in itertools.product(range(1, sweeps.FLEX_ALPHABET + 1), repeat=n)
                    if necklace(w).representative == w]
