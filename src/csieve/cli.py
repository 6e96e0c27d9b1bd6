"""Command-line front end: word statistics, generating functions, and
theorem-verification sweeps with machine-readable output.

Exit codes: 0 all checks hold, 1 a verification failed (witness in the
output), 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial

from . import formulas, sweeps
from .actions import Verdict
from .qpoly import poly_text, q_multinomial
from .subsets import (verify_chain_refinement, verify_mbs_csp,
                      verify_multisubset_refinement, verify_subset_star)
from .words import (as_word, cdt, cdes, content, cyclic_descent_set, des,
                    descent_set, flex, freq, inv, lex, maj, pad_to, period)

DEFAULT_CAP = 10 ** 7

THEOREMS = ("main", "macmahon", "tilde-gf", "maj-mod-n", "vandermonde",
            "period-g", "flex-maj", "phi", "multisubset", "subset-star", "chain",
            "mbs", "extension")


class UsageError(Exception):
    pass


def parse_word(text: str):
    if "," in text:
        letters = [int(x) for x in text.split(",") if x.strip()]
    elif text.isdigit():
        letters = [int(c) for c in text]
    else:
        raise UsageError(f"cannot parse word {text!r}; use digits or a comma list")
    if not letters or any(x < 1 for x in letters):
        raise UsageError("word letters must be positive integers")
    return as_word(letters)


def parse_composition(text: str, name: str):
    try:
        parts = tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise UsageError(f"cannot parse {name} {text!r}; expected e.g. 2,0,2")
    if not parts or any(p < 0 for p in parts):
        raise UsageError(f"{name} parts must be non-negative integers")
    return parts


def enumeration_cap() -> int:
    raw = os.environ.get("CSIEVE_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CSIEVE_CAP must be an integer, got {raw!r}")


def multinomial(alpha) -> int:
    out = factorial(sum(alpha))
    for a in alpha:
        out //= factorial(a)
    return out


# ---------------------------------------------------------------------------
# stats

def cmd_stats(args) -> int:
    w = parse_word(args.word)
    report = {
        "word": list(w),
        "length": len(w),
        "content": list(content(w)),
        "descent_set": sorted(descent_set(w)),
        "cyclic_descent_set": sorted(cyclic_descent_set(w)),
        "des": des(w),
        "cdes": cdes(w),
        "maj": maj(w),
        "inv": inv(w),
        "cdt": list(cdt(w)),
        "period": period(w),
        "freq": freq(w),
        "lex": lex(w),
        "flex": flex(w),
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------
# generating functions

def _stat_fn(name: str):
    return {"maj": maj, "inv": inv, "flex": flex}[name]


def cmd_gf(args) -> int:
    alpha = parse_composition(args.alpha, "alpha")
    delta = parse_composition(args.delta, "delta") if args.delta else None
    n = sum(alpha)
    if args.mod and n == 0:
        raise UsageError("--mod needs a content with at least one letter")
    size = multinomial(alpha)
    cap = enumeration_cap()
    if size > cap:
        print(f"refusing to enumerate {size} words (cap {cap}; "
              f"set CSIEVE_CAP to override)", file=sys.stderr)
        return 2

    from .words import enumerate_by_content, enumerate_by_content_cdt
    if delta is None:
        words = list(enumerate_by_content(alpha))
    else:
        words = list(enumerate_by_content_cdt(alpha, delta))
    stat = _stat_fn(args.stat)
    tally: dict[int, int] = {}
    for w in words:
        v = stat(w)
        tally[v] = tally.get(v, 0) + 1
    coeffs = [0] * (max(tally) + 1 if tally else 1)
    for e, c in tally.items():
        coeffs[e] = c
    if args.mod:
        folded = [0] * n
        for e, c in tally.items():
            folded[e % n] += c
        coeffs = folded

    report = {"alpha": list(alpha), "stat": args.stat, "count": len(words),
              "coefficients": coeffs, "polynomial": poly_text(coeffs)}
    if delta is not None:
        report["delta"] = list(delta)

    exit_code = 0
    if args.formula:
        verdict = _gf_formula(alpha, delta, args.stat, tally, n)
        report.update(verdict)
        if not verdict["equal"]:
            exit_code = 1

    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        print("exponent,coefficient")
        for e, c in enumerate(coeffs):
            if c:
                print(f"{e},{c}")
    else:
        print(report["polynomial"])
        if args.formula:
            print(f"formula: {report['formula']}")
            print(f"equal: {str(report['equal']).lower()}")
    return exit_code


def _gf_formula(alpha, delta, stat, tally, n) -> dict:
    if stat != "maj":
        raise UsageError("--formula is only available for the maj statistic")
    if delta is None:
        closed = q_multinomial(n, alpha)
        equal = {e: c for e, c in enumerate(closed) if c} == tally
        return {"formula": poly_text(closed), "equal": equal}
    flat_alpha, flat_delta = formulas.flatten(alpha, pad_to(delta, len(alpha)))
    if not flat_alpha:
        flat_alpha, flat_delta = (n,), (0,)
    closed = formulas.maj_gf_mod_n(flat_alpha, flat_delta)
    brute = [0] * n
    for e, c in tally.items():
        brute[e % n] += c
    return {"formula": closed.text(), "formula_modulus": n,
            "equal": tuple(brute) == closed.coeffs}


# ---------------------------------------------------------------------------
# verify

def _single_or_sweep(args, single, sweep) -> dict:
    """Run one instance when its parameters were given, else the sweep."""
    return single() if single is not None else sweeps.run_sweep(
        sweep, collect_instances=not args.failures_only)


def _sweep_bounds(args, parts: bool = True) -> dict:
    """The sweep bounds given on the command line; the others keep the
    sweep's own defaults.  `parts` says whether the sweep takes --max-parts."""
    bounds = {}
    if args.n_max is not None:
        if args.n_max < 0:
            raise UsageError("--n-max must be non-negative")
        bounds["n_max"] = args.n_max
    if args.max_parts is not None:
        if not parts:
            raise UsageError(f"theorem {args.theorem!r} takes no --max-parts")
        if args.max_parts < 1:
            raise UsageError("--max-parts must be positive")
        bounds["max_parts"] = args.max_parts
    return bounds


def _instance_report(key: dict, verdict: Verdict) -> dict:
    report = {"instances_checked": 1, "failures": [], "holds": verdict.holds,
              "instances": [{**key, "holds": verdict.holds}]}
    if not verdict.holds:
        report["failures"].append({**key, "witness": verdict.witness})
    return report


def cmd_verify(args) -> int:
    name = args.theorem
    alpha = parse_composition(args.alpha, "alpha") if args.alpha else None
    delta = parse_composition(args.delta, "delta") if args.delta else None
    chain = parse_composition(args.chain, "chain") if args.chain else None
    if alpha is not None and delta is not None and len(delta) < len(alpha):
        delta = pad_to(delta, len(alpha))

    def need(cond, what):
        if not cond:
            raise UsageError(f"theorem {name!r} needs {what}")

    single = None
    if name == "main":
        if alpha is not None:
            need(delta is not None, "--delta with --alpha")
            single = lambda: _instance_report(
                {"alpha": alpha, "delta": delta},
                formulas.verify_main_theorem(alpha, delta))
        sweep = sweeps.sweep_main(**_sweep_bounds(args))
    elif name == "macmahon":
        if alpha is not None:
            single = lambda: _instance_report(
                {"alpha": alpha}, formulas.macmahon_check(alpha))
        sweep = sweeps.sweep_macmahon(**_sweep_bounds(args))
    elif name in ("tilde-gf", "maj-mod-n"):
        if alpha is not None:
            need(delta is not None, "--delta with --alpha")
            single = lambda: _instance_report(
                {"alpha": alpha, "delta": delta},
                formulas.verify_formula_vs_oracle(alpha, delta))
        sweep = sweeps.sweep_formulas(**_sweep_bounds(args))
    elif name == "vandermonde":
        if alpha is not None:
            single = lambda: _instance_report(
                {"alpha": alpha}, formulas.vandermonde_check(alpha))
        sweep = sweeps.sweep_vandermonde(**_sweep_bounds(args))
    elif name == "period-g":
        if alpha is not None:
            need(delta is not None, "--delta with --alpha")
            single = lambda: _instance_report(
                {"alpha": alpha, "delta": delta},
                formulas.period_g_check(alpha, delta))
        sweep = sweeps.sweep_period_g(**_sweep_bounds(args))
    elif name == "flex-maj":
        if alpha is not None:
            need(delta is not None, "--delta with --alpha")
            single = lambda: _instance_report(
                {"alpha": alpha, "delta": delta},
                formulas.verify_flex_maj_equidistribution(alpha, delta))
        sweep = sweeps.sweep_flex_maj(**_sweep_bounds(args))
    elif name == "phi":
        if alpha is not None:
            need(delta is not None, "--delta with --alpha")
            single = lambda: _instance_report(
                {"alpha": alpha, "delta": delta}, sweeps.verify_phi(alpha, delta))
        sweep = sweeps.sweep_phi(**_sweep_bounds(args))
    elif name == "multisubset":
        if args.n is not None:
            need(args.d is not None and alpha is not None, "--d and --alpha")
            single = lambda: _instance_report(
                {"n": args.n, "d": args.d, "alpha": alpha},
                verify_multisubset_refinement(args.n, args.d, alpha))
        sweep = sweeps.sweep_multisubset(**_sweep_bounds(args, parts=False))
    elif name == "subset-star":
        if args.n is not None:
            need(args.d is not None and alpha is not None, "--d and --alpha")
            single = lambda: _instance_report(
                {"n": args.n, "d": args.d, "alpha": alpha},
                verify_subset_star(args.n, args.d, alpha))
        sweep = sweeps.sweep_subset_star(**_sweep_bounds(args, parts=False))
    elif name == "chain":
        if args.n is not None:
            need(args.k is not None and chain is not None, "--k and --chain")
            single = lambda: _instance_report(
                {"n": args.n, "k": args.k, "chain": chain},
                verify_chain_refinement(args.n, args.k, chain))
        sweep = sweeps.sweep_chains(**_sweep_bounds(args, parts=False))
    elif name == "mbs":
        if args.n is not None:
            need(args.k is not None and args.b is not None, "--k and --b")
            single = lambda: _instance_report(
                {"n": args.n, "k": args.k, "b": args.b},
                verify_mbs_csp(args.n, args.k, args.b))
        sweep = sweeps.sweep_mbs(**_sweep_bounds(args, parts=False))
    elif name == "extension":
        need(alpha is not None and delta is not None, "--alpha and --delta")
        single = lambda: _extension_report(alpha, delta)
        sweep = iter(())
    else:
        raise UsageError(f"unknown theorem {name!r}")

    report = _single_or_sweep(args, single, sweep)
    report["theorem"] = name
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"{name}: checked {report['instances_checked']} instance(s), "
              f"holds={report['holds']}")
        for failure in report["failures"]:
            print(f"  FAIL {failure}")
    return 0 if report["holds"] else 1


def _extension_report(alpha, delta) -> dict:
    from .actions import check_extension_hypotheses
    from .words import enumerate_by_content_cdt
    flat = formulas.flatten(alpha, delta)
    if not flat[0]:
        raise UsageError("alpha must have a positive part")
    p = formulas.params(*flat)
    words = tuple(enumerate_by_content_cdt(p.alpha, p.delta))
    if not words:
        return {"instances_checked": 1, "failures": [], "holds": True,
                "instances": [{"alpha": alpha, "delta": delta, "holds": True,
                               "note": "empty word class"}]}
    f = formulas.brute_gf(words, p.n, maj)
    report = check_extension_hypotheses(
        formulas.rotation_action(words), p.g, f)
    holds = report.full_csp.holds
    out = {"instances_checked": 1, "holds": holds, "failures": [],
           "instances": [{"alpha": alpha, "delta": delta, "g": p.g,
                          "holds": holds, "report": report.to_json()}]}
    if not holds:
        out["failures"].append({"alpha": alpha, "delta": delta,
                                "witness": report.to_json()})
    return out


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csieve",
        description="Exact verification toolkit for cyclic sieving on words")
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="statistics of one word")
    p_stats.add_argument("word", help="digit string (e.g. 15531553) or comma list")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.set_defaults(func=cmd_stats)

    p_gf = sub.add_parser("gf", help="brute-force generating function")
    p_gf.add_argument("--alpha", required=True, help="content, e.g. 2,2")
    p_gf.add_argument("--delta", help="cyclic descent type, e.g. 0,2")
    p_gf.add_argument("--stat", choices=("maj", "inv", "flex"), default="maj")
    p_gf.add_argument("--mod", action="store_true",
                      help="reduce exponents modulo the word length")
    p_gf.add_argument("--formula", action="store_true",
                      help="also evaluate the closed form and compare")
    p_gf.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_gf.set_defaults(func=cmd_gf)

    p_verify = sub.add_parser("verify", help="run a theorem verifier")
    p_verify.add_argument("theorem", choices=THEOREMS)
    p_verify.add_argument("--alpha")
    p_verify.add_argument("--delta")
    p_verify.add_argument("--chain", help="divisor chain, ascending, ending in n")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--b", type=int)
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--n-max", type=int, dest="n_max",
                          help="sweep bound (per-theorem default)")
    p_verify.add_argument("--max-parts", type=int, dest="max_parts",
                          help="parts bound of content sweeps (per-theorem default)")
    p_verify.add_argument("--failures-only", action="store_true",
                          help="omit the per-instance listing from JSON output")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
