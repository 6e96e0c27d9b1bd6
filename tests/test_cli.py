"""End-to-end runs of the command line interface via its main() entry."""

import inspect
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from csieve import cli, formulas, subsets, sweeps
from csieve.actions import CyclicAction
from csieve.cli import main, parse_composition, parse_word, UsageError
from csieve.words import inv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_usage_error(code, out, err):
    """Exit 2 with a one-line error and nothing on stdout."""
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parse_word_forms():
    assert parse_word("15531553") == (1, 5, 5, 3, 1, 5, 5, 3)
    assert parse_word("10,2,10") == (10, 2, 10)
    with pytest.raises(UsageError):
        parse_word("0x1")
    with pytest.raises(UsageError):
        parse_composition("a,b", "alpha")


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "15531553")
    assert code == 0
    assert "maj: 14" in out
    assert "inv: 9" in out
    assert "cdes: 4" in out


def test_stats_json(capsys):
    code, out, _ = run(capsys, "stats", "15531553", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["descent_set"] == [3, 4, 7]
    assert report["cyclic_descent_set"] == [3, 4, 7, 8]
    assert report["content"] == [2, 0, 2, 0, 4]
    assert report["period"] == 4 and report["freq"] == 2
    # the third of its four sorted rotations: lex 2, so flex = 2 * 2
    code, out, _ = run(capsys, "stats", "53155315", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [report[key] for key in ("period", "freq", "lex", "flex")] == [4, 2, 2, 4]


def test_gf_csv(capsys):
    code, out, _ = run(capsys, "gf", "--alpha", "2,2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "exponent,coefficient"
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows == {"0": "1", "1": "1", "2": "2", "3": "1", "4": "1"}


def test_gf_with_delta_and_formula(capsys):
    code, out, _ = run(capsys, "gf", "--alpha", "2,2", "--delta", "0,2",
                       "--mod", "--formula", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    assert report["coefficients"] == [1, 0, 1, 0]
    assert report["equal"] is True


def test_gf_formula_without_delta_is_the_q_multinomial(capsys):
    code, out, _ = run(capsys, "gf", "--alpha", "2,2", "--formula", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["formula"] == report["polynomial"] == "1 + q + 2*q^2 + q^3 + q^4"
    assert report["equal"] is True and "formula_modulus" not in report


def test_gf_formula_mismatch_exits_1_with_both_polynomials(capsys, monkeypatch):
    monkeypatch.setattr(cli, "q_multinomial", lambda alpha: (1, 1))
    code, out, err = run(capsys, "gf", "--alpha", "2,2", "--formula")
    assert code == 1 and err == ""
    assert out == "1 + q + 2*q^2 + q^3 + q^4\nformula: 1 + q\nequal: false\n"


def test_gf_formula_rejects_inv(capsys):
    code, _, err = run(capsys, "gf", "--alpha", "2,2", "--stat", "inv",
                       "--formula")
    assert code == 2
    assert "maj" in err


@pytest.mark.parametrize("stat", ["inv", "flex"])
def test_gf_formula_for_another_statistic_exits_2_before_enumerating(capsys, monkeypatch,
                                                                      stat):
    def refuse(*args):
        raise AssertionError("gf enumerated a class it was going to reject")

    monkeypatch.setattr(cli, "enumerate_by_content", refuse)
    monkeypatch.setattr(cli, "cdt_groups", refuse)
    for delta in ([], ["--delta", "0,2,1,1"]):
        code, out, err = run(capsys, "gf", "--alpha", "4,4,3,2", "--stat", stat,
                             "--formula", *delta)
        assert_usage_error(code, out, err)
        assert err == "error: --formula is only available for the maj statistic\n"


def test_gf_cap(capsys, monkeypatch):
    monkeypatch.setenv("CSIEVE_CAP", "3")
    code, _, err = run(capsys, "gf", "--alpha", "2,2")
    assert code == 2
    assert "refusing" in err


def test_a_cap_that_is_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CSIEVE_CAP", "abc")
    code, out, err = run(capsys, "gf", "--alpha", "2,2")
    assert_usage_error(code, out, err)
    assert err == "error: CSIEVE_CAP must be an integer, got 'abc'\n"


def test_verify_single_instance_json(capsys):
    code, out, _ = run(capsys, "verify", "main", "--alpha", "2,2",
                       "--delta", "0,2")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    assert report["instances_checked"] == 1
    assert report["failures"] == []


def test_a_short_delta_is_padded_with_zeros(capsys):
    code, out, _ = run(capsys, "verify", "main", "--alpha", "2,2", "--delta", "0")
    assert code == 0
    assert json.loads(out)["instances"] == [{"alpha": [2, 2], "delta": [0, 0], "holds": True}]


def test_verify_sweep_text(capsys):
    code, out, _ = run(capsys, "verify", "macmahon", "--n-max", "4",
                       "--format", "text")
    assert code == 0
    assert "holds=True" in out


def test_verify_extension(capsys):
    code, out, _ = run(capsys, "verify", "extension", "--alpha", "4,2,3",
                       "--delta", "0,2,1")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True and report["instances_checked"] == 1


def test_verify_extension_failure_witness_is_the_report(capsys, monkeypatch):
    # inv does not sieve {1212, 2121}: the subgroup CSP and the full CSP fail
    monkeypatch.setattr(formulas, "maj", inv)
    code, out, _ = run(capsys, "verify", "extension", "--alpha", "2,2",
                       "--delta", "0,2")
    assert code == 1
    witness = json.loads(out)["failures"][0]["witness"]
    assert set(witness) == {"subgroup_csp", "period_ok", "orbit_divisibility_ok",
                            "full_csp"}
    assert witness["subgroup_csp"]["holds"] is False
    assert witness["full_csp"]["holds"] is False


def test_verify_subset_theorems(capsys):
    code, out, _ = run(capsys, "verify", "chain", "--n", "4", "--k", "2",
                       "--chain", "1,2,4")
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "verify", "mbs", "--n", "5", "--k", "3",
                       "--b", "2")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_missing_arguments(capsys):
    code, _, err = run(capsys, "verify", "main", "--alpha", "2,2",
                       "--format", "text")
    assert code == 2
    assert "--delta" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_verify_phi_single_instance_and_sweep(capsys):
    code, out, _ = run(capsys, "verify", "phi", "--alpha", "4,2,3",
                       "--delta", "0,2,1")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True and report["instances_checked"] == 1
    code, out, _ = run(capsys, "verify", "phi", "--n-max", "4", "--format", "text")
    assert code == 0
    assert out.startswith("phi: checked 23 instance(s), holds=True")


def test_verify_n_max_zero_runs_no_instance(capsys):
    code, out, _ = run(capsys, "verify", "main", "--n-max", "0")
    assert code == 0
    assert json.loads(out)["instances_checked"] == 0


def test_verify_macmahon_honours_max_parts(capsys):
    code, out, _ = run(capsys, "verify", "macmahon", "--n-max", "3",
                       "--max-parts", "1")
    assert code == 0
    assert [i["alpha"] for i in json.loads(out)["instances"]] == [[1], [2], [3]]


def test_gf_of_empty_content_is_one_for_every_statistic(capsys):
    # the empty word has one rotation, so flex is 0 as maj and inv are
    for stat in ("maj", "inv", "flex"):
        assert run(capsys, "gf", "--alpha", "0", "--stat", stat)[:2] == (0, "1\n")


def test_gf_mod_of_empty_content_exits_2(capsys):
    assert_usage_error(*run(capsys, "gf", "--alpha", "0", "--mod"))


def test_verify_mbs_n_zero_exits_2(capsys):
    assert_usage_error(*run(capsys, "verify", "mbs", "--n", "0", "--k", "0",
                            "--b", "0"))


@pytest.mark.parametrize("argv", [
    # d = 0 reaches the profile enumeration of both interval theorems
    ["multisubset", "--n", "3", "--d", "0", "--alpha", "1"],
    ["subset-star", "--n", "3", "--d", "0", "--alpha", "1"],
    # a flag the run would ignore
    ["extension", "--alpha", "2,2", "--delta", "0,2", "--n-max", "3"],
    ["main", "--alpha", "2,2", "--delta", "0,2", "--n-max", "3"],
    ["main", "--n", "3"],
    ["flex-universal", "--n-max", "3", "--max-parts", "2"],
    # 60!/(30! 30!) words, over the default cap
    ["main", "--alpha", "30,30", "--delta", "0,5"],
    # an empty universe, d not dividing n, a negative k
    ["g-dd", "--n", "0", "--k", "0", "--d", "1"],
    ["g-dd", "--n", "6", "--k", "2", "--d", "4"],
    ["g-dd", "--n", "6", "--k", "-1", "--d", "3"],
    ["action-isomorphism", "--n", "0", "--d", "1", "--k", "0"],
    ["action-isomorphism", "--n", "6", "--d", "0", "--k", "2"],
    ["action-isomorphism", "--n", "6", "--d", "3", "--k", "-2"],
    # a negative block count or size
    ["mbs", "--n", "4", "--k", "2", "--b", "-1"],
    ["mbs", "--n", "4", "--k", "-1", "--b", "0"],
    # a sweep bound out of range, a letter 0, a negative part
    ["main", "--n-max", "-1"],
    ["macmahon", "--max-parts", "0"],
    ["flex-universal", "--necklace", "10"],
    ["main", "--alpha=2,-1", "--delta", "0,0"],
], ids=["multisubset-d0", "subset-star-d0", "extension-n-max", "main-instance-n-max",
        "main-n", "flex-universal-max-parts", "main-over-cap", "g-dd-n0", "g-dd-d4",
        "g-dd-k-negative", "action-isomorphism-n0", "action-isomorphism-d0",
        "action-isomorphism-k-negative", "mbs-b-negative", "mbs-k-negative",
        "n-max-negative", "max-parts-zero", "necklace-letter-0", "alpha-negative"])
def test_verify_usage_errors_exit_2(capsys, argv):
    assert_usage_error(*run(capsys, "verify", *argv))


@pytest.mark.parametrize("argv", [
    ["verify", "main", "--alpha", "2,2", "--delta", "1,1"],
    ["verify", "phi", "--alpha", "2,2", "--delta", "0,3"],
    ["gf", "--alpha", "2,2", "--delta", "1,1", "--formula"],
    ["gf", "--alpha", "2,2", "--delta", "0,2,0"],
], ids=["main-delta1", "phi-delta-over-alpha", "gf-formula-delta1", "gf-delta-too-long"])
def test_delta_outside_the_box_exits_2(capsys, argv):
    # every cyclic descent type has delta_1 = 0 and 0 <= delta_l <= alpha_l
    assert_usage_error(*run(capsys, *argv))


@pytest.mark.parametrize("name", [name for name, theorem in sweeps.THEOREMS.items()
                                  if theorem.params in (("alpha", "delta"), ("alpha",))])
def test_zero_part_of_alpha_exits_2_for_every_word_theorem(capsys, name):
    # one gate, formulas.params, for every (alpha, delta) or alpha instance
    instance = {"alpha": "2,0,2", "delta": "0,0,2"}
    argv = [x for p in sweeps.THEOREMS[name].params for x in (f"--{p}", instance[p])]
    code, out, err = run(capsys, "verify", name, *argv)
    assert_usage_error(code, out, err)
    assert err == "error: alpha must be a non-empty strong composition\n"


def test_zero_part_of_alpha_exits_2_for_gf_with_delta(capsys):
    # gf --delta passes the gate of verify
    code, out, err = run(capsys, "gf", "--alpha", "2,0,2", "--delta", "0,0,2", "--formula")
    assert_usage_error(code, out, err)
    assert err == "error: alpha must be a non-empty strong composition\n"


def test_a_class_rotation_leaves_fails_with_a_closure_witness(capsys, monkeypatch):
    # a step that sorts the word takes 1212 out of W((2,2), (0,2)); extension
    # builds its subgroup action from the same step
    monkeypatch.setattr(formulas, "rotation_action",
                        lambda n, words: CyclicAction(n, words, lambda w: tuple(sorted(w))))
    for name in ("main", "extension"):
        code, out, err = run(capsys, "verify", name, "--alpha", "2,2", "--delta", "0,2")
        assert code == 1 and err == "", name
        assert json.loads(out)["failures"][0]["witness"] == {
            "check": "closure", "element": [1, 2, 1, 2], "image": [1, 1, 2, 2]}


@pytest.mark.parametrize("name", ["phi", "main"])
def test_content_sweep_over_the_cap_exits_2_before_it_starts(capsys, name):
    # the largest content of n <= 30 in 4 parts, (8, 8, 7, 7), has about 3e16 words
    code, out, err = run(capsys, "verify", name, "--n-max", "30")
    assert_usage_error(code, out, err)
    assert "refusing to enumerate" in err


@pytest.mark.parametrize("name", ["chain", "mbs"])
def test_subset_sweep_over_the_cap_exits_2_before_it_starts(capsys, name):
    # both sweeps enumerate the k-subsets of [0, n-1]: C(40, 20) is about 1.4e11
    start = time.monotonic()
    code, out, err = run(capsys, "verify", name, "--n-max", "40")
    assert time.monotonic() - start < 1
    assert_usage_error(code, out, err)
    assert "refusing to enumerate 137846528820 objects" in err


def test_a_size_too_long_to_print_is_refused_as_a_power_of_ten(capsys, monkeypatch):
    # (5000, 5000, 5000, 5000) has over 4,300 digits of words, past Python's
    # int-to-str limit; the refusal gives a power of ten the size passes
    monkeypatch.delenv("CSIEVE_CAP", raising=False)
    code, out, err = run(capsys, "verify", "main", "--n-max", "20000")
    assert_usage_error(code, out, err)
    assert err.startswith("error: refusing to enumerate more than 10^")
    exponent = int(err.split("10^")[1].split()[0])
    assert 10 ** exponent <= formulas.multinomial((5000,) * 4) < 10 ** (exponent + 2)


@pytest.mark.parametrize("argv", [
    ["verify", "main", "--alpha", "999,1", "--delta", "0,1"],
    ["gf", "--alpha", "2000,1", "--delta", "0,1"],
    ["verify", "vandermonde", "--alpha", "500,1"],
    ["verify", "tilde-gf", "--alpha", "500,1", "--delta", "0,1"],
    ["verify", "period-g", "--alpha", "500,1", "--delta", "0,1"],
    ["gf", "--alpha", "500,1", "--formula"],
    ["verify", "g-dd", "--n", "2000", "--k", "0", "--d", "2"],
], ids=["verify-main", "gf", "vandermonde", "tilde-gf", "period-g", "gf-formula", "g-dd"])
def test_a_deep_content_within_the_cap_runs(capsys, monkeypatch, argv):
    # 1,000 and 2,001 letters, one necklace each; q-binomials of a = 501;
    # the 1,000 intervals of the empty family: no call stack per letter,
    # per unit of a or per part
    monkeypatch.delenv("CSIEVE_CAP", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""


def test_a_reader_that_closes_stdout_early_ends_the_command_quietly():
    # the read end is closed before the child writes: its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "csieve.cli", "verify", "flex-universal", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_default_content_sweeps_fit_the_default_cap(monkeypatch):
    monkeypatch.delenv("CSIEVE_CAP", raising=False)
    for name, theorem in sweeps.THEOREMS.items():
        if theorem.sweep is not None:
            cli._check_sweep_cap(theorem, {})


def test_internal_fault_exits_3_with_one_line(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("the two CSP methods disagree")
    monkeypatch.setattr(formulas, "check_csp", broken)
    code, out, err = run(capsys, "verify", "main", "--alpha", "2,2", "--delta", "0,2")
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: the two CSP methods disagree\n"


def test_a_step_that_is_not_a_bijection_exits_3(capsys, monkeypatch):
    # a collapsing step is a fault of the action, not bad usage
    monkeypatch.setattr(subsets, "interval_action",
                        lambda n, d, carrier: CyclicAction(d, carrier, lambda a: carrier[0]))
    code, out, err = run(capsys, "verify", "multisubset", "--n", "4", "--d", "2",
                         "--alpha", "1,2")
    assert code == 3 and out == ""
    assert err == ("internal error: NotBijective: "
                   "step is not a bijection of the carrier\n")


def test_a_polynomial_of_another_modulus_exits_3(capsys, monkeypatch):
    # the order-2 interval action checked against a residue mod q^3 - 1
    monkeypatch.setattr(subsets, "brute_gf",
                        lambda carrier, n, stat: formulas.brute_gf(carrier, n + 1, stat))
    code, out, err = run(capsys, "verify", "multisubset", "--n", "4", "--d", "2",
                         "--alpha", "1,2")
    assert code == 3 and out == ""
    assert err == ("internal error: WrongOrder: "
                   "polynomial modulus must equal the action order\n")


def test_sweep_defaults_are_the_sweep_signature():
    # read from the function without inspect; equal only when every
    # parameter of the sweep has a default
    for name, theorem in sweeps.THEOREMS.items():
        if theorem.sweep is not None:
            assert cli._sweep_defaults(theorem.sweep) == {
                p.name: p.default
                for p in inspect.signature(theorem.sweep).parameters.values()}, name


def test_an_orbit_size_that_does_not_divide_the_order_exits_3(capsys, monkeypatch):
    # the interval table shifted by one element is a 6-cycle of [0, 5]; on
    # all 2-subsets, the carrier in place of the profile's, the order-3
    # action then has orbits of size 6
    table = subsets._interval_table
    monkeypatch.setattr(subsets, "_interval_table",
                        lambda n, d: table(n, d)[1:] + table(n, d)[:1])
    monkeypatch.setattr(subsets, "enumerate_m_alpha",
                        lambda n, d, alpha: itertools.combinations(range(n), 2))
    code, out, err = run(capsys, "verify", "multisubset", "--n", "6", "--d", "3",
                         "--alpha", "1,1")
    assert code == 3 and out == ""
    assert err == ("internal error: WrongOrder: "
                   "orbit size 6 does not divide the action order 3\n")


def test_verify_vandermonde_cap_counts_coefficient_products(capsys):
    # 2^23 candidate CDTs, each costing about n^2 = 576 coefficient products
    code, out, err = run(capsys, "verify", "vandermonde", "--alpha", ",".join(["1"] * 24))
    assert_usage_error(code, out, err)
    assert "refusing to enumerate" in err


# One small instance per theorem, each enumerating more than 3 objects.
EXAMPLES = {
    "main": {"alpha": "2,2", "delta": "0,2"},
    "macmahon": {"alpha": "2,2"},
    "tilde-gf": {"alpha": "4,2,3", "delta": "0,2,1"},
    "maj-mod-n": {"alpha": "3,1,1", "delta": "0,1,0"},
    "vandermonde": {"alpha": "2,2,4"},
    "period-g": {"alpha": "4,2,3", "delta": "0,2,1"},
    "flex-maj": {"alpha": "2,2", "delta": "0,2"},
    "phi": {"alpha": "4,2,3", "delta": "0,2,1"},
    "flex-universal": {"necklace": "1213"},
    "multisubset": {"n": "4", "d": "2", "alpha": "1,2"},
    "subset-star": {"n": "6", "d": "3", "alpha": "1,2"},
    "chain": {"n": "4", "k": "2", "chain": "1,2,4"},
    "g-dd": {"n": "6", "k": "2", "d": "3"},
    "action-isomorphism": {"n": "6", "d": "3", "k": "2"},
    "mbs": {"n": "5", "k": "3", "b": "2"},
    "extension": {"alpha": "4,2,3", "delta": "0,2,1"},
}


def test_every_theorem_runs_its_sweep_and_one_instance(capsys, monkeypatch):
    assert set(EXAMPLES) == set(sweeps.THEOREMS)
    for name, theorem in sweeps.THEOREMS.items():
        assert set(EXAMPLES[name]) == set(theorem.params)
        instance = [x for p, v in EXAMPLES[name].items() for x in (f"--{p}", v)]
        if theorem.sweep is not None:
            code, out, _ = run(capsys, "verify", name, "--n-max", "3")
            assert code == 0 and json.loads(out)["holds"] is True, name
        code, out, _ = run(capsys, "verify", name, *instance)
        assert code == 0, name
        assert json.loads(out)["instances_checked"] == 1
        if theorem.size is not None:
            monkeypatch.setenv("CSIEVE_CAP", "3")
            code, out, err = run(capsys, "verify", name, *instance)
            monkeypatch.delenv("CSIEVE_CAP")
            assert_usage_error(code, out, err)
            assert "refusing to enumerate" in err, name
