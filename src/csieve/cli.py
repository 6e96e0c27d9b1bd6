"""Command-line front end: word statistics, generating functions, and
theorem-verification sweeps with machine-readable output.

Exit codes: 0 all checks hold, 1 a verification failed (witness in the
output), 2 usage or validation error, 3 internal fault (any other
exception, such as an action whose step is not a bijection or one checked
against the wrong order), each error with one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formulas, sweeps
from .qpoly import poly_text, q_multinomial, reduce
from .words import (as_word, cdt, cdt_groups, cdes, content, cyclic_descent_set, des,
                    descent_set, enumerate_by_content, flex, freq, inv, lex, maj, pad_to,
                    period)

DEFAULT_CAP = 10 ** 7

# Every instance parameter of the theorem table is an option of verify.
# Those listed here, with their help, are comma lists or words; the
# others integers.
INSTANCE_PARAMS = tuple(dict.fromkeys(
    p for theorem in sweeps.THEOREMS.values() for p in theorem.params))
COMPOSITIONS = {"alpha": "content, e.g. 2,2", "delta": "cyclic descent type, e.g. 0,2",
                "chain": "divisor chain, ascending, ending in n"}
WORDS = {"necklace": "a word whose necklace is checked, e.g. 1213"}


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


def check_cap(size: int) -> None:
    """Refuse to enumerate more than the cap of objects."""
    cap = enumeration_cap()
    if size > cap:
        raise UsageError(f"refusing to enumerate {size} objects (cap {cap}; "
                         f"set CSIEVE_CAP to override)")


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
    given = parse_composition(args.delta, "delta") if args.delta else None
    # the gate of verify: a strong alpha and a delta in its box
    delta = (None if given is None
             else formulas.params(alpha, pad_to(given, len(alpha))).delta)
    n = sum(alpha)
    if args.mod and n == 0:
        raise UsageError("--mod needs a content with at least one letter")
    check_cap(formulas.multinomial(alpha))

    if delta is None:
        words = list(enumerate_by_content(alpha))
    else:
        words = cdt_groups(alpha).get(delta, [])
    poly = formulas.tally(map(_stat_fn(args.stat), words))
    coeffs = list(reduce(poly, n).coeffs if args.mod else poly or (0,))

    report = {"alpha": list(alpha), "stat": args.stat, "count": len(words),
              "coefficients": coeffs, "polynomial": poly_text(coeffs)}
    if given is not None:
        report["delta"] = list(given)

    exit_code = 0
    if args.formula:
        verdict = _gf_formula(alpha, delta, args.stat, poly, n)
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


def _gf_formula(alpha, delta, stat, poly, n) -> dict:
    """The closed form beside the enumerated polynomial `poly`."""
    if stat != "maj":
        raise UsageError("--formula is only available for the maj statistic")
    if delta is None:
        closed = q_multinomial(alpha)
        return {"formula": poly_text(closed), "equal": poly == closed}
    closed = formulas.maj_gf_mod_n(alpha, delta)
    return {"formula": closed.text(), "formula_modulus": n,
            "equal": reduce(poly, n) == closed}


# ---------------------------------------------------------------------------
# verify

def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _sweep_defaults(sweep) -> dict:
    """The sweep's parameters with their defaults, read from the function
    itself; every parameter of a sweep has a default."""
    defaults = sweep.__defaults__ or ()
    code = sweep.__code__
    names = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
    return dict(zip(names, defaults))


def _sweep_bounds(args, name: str, sweep) -> dict:
    """The sweep bounds given on the command line; the others keep the
    sweep's own defaults.  A theorem without a sweep takes none, and only
    a sweep with a max_parts parameter takes --max-parts."""
    bounds = {b: getattr(args, b) for b in ("n_max", "max_parts")
              if getattr(args, b) is not None}
    if bounds and sweep is None:
        raise UsageError(f"theorem {name!r} has no sweep; it takes no {_flags(bounds)}")
    if "max_parts" in bounds and "max_parts" not in _sweep_defaults(sweep):
        raise UsageError(f"theorem {name!r} takes no --max-parts")
    if bounds.get("n_max", 0) < 0:
        raise UsageError("--n-max must be non-negative")
    if bounds.get("max_parts", 1) < 1:
        raise UsageError("--max-parts must be positive")
    return bounds


def _check_sweep_cap(theorem, bounds: dict) -> None:
    """Size a sweep by its largest instance before it starts, without
    enumerating anything."""
    if theorem.largest is None:
        return
    resolved = {**_sweep_defaults(theorem.sweep), **bounds}
    if resolved["n_max"] > 0:
        check_cap(theorem.size(**theorem.largest(**resolved)))


def _parse_param(param: str, value):
    if param in COMPOSITIONS:
        return parse_composition(value, param)
    if param in WORDS:
        return parse_word(value)
    return value


def _instance(args, name: str, params, given) -> dict:
    """The instance given on the command line, parsed, in the order of the
    theorem's parameters."""
    unknown = [p for p in given if p not in params]
    if unknown:
        raise UsageError(f"theorem {name!r} takes no {_flags(unknown)}")
    missing = [p for p in params if p not in given]
    if missing:
        raise UsageError(f"theorem {name!r} needs {_flags(missing)}")
    key = {p: _parse_param(p, getattr(args, p)) for p in params}
    if "delta" in key and len(key["delta"]) < len(key["alpha"]):
        key["delta"] = pad_to(key["delta"], len(key["alpha"]))
    return key


def cmd_verify(args) -> int:
    """Check the instance given on the command line, or else run the
    theorem's sweep within the bounds given."""
    name = args.theorem
    theorem = sweeps.THEOREMS[name]
    bounds = _sweep_bounds(args, name, theorem.sweep)
    given = [p for p in INSTANCE_PARAMS if getattr(args, p) is not None]
    if given or theorem.sweep is None:
        if bounds:
            raise UsageError(f"the sweep bounds {_flags(bounds)} cannot be given "
                             f"with an instance")
        key = _instance(args, name, theorem.params, given)
        if theorem.size is not None:
            check_cap(theorem.size(**key))
        items = iter([(key, theorem.verify(**key))])
    else:
        _check_sweep_cap(theorem, bounds)
        items = theorem.sweep(**bounds)

    # only JSON lists the instances
    report = sweeps.run_sweep(items, collect_instances=(
        args.format == "json" and not args.failures_only))
    report["theorem"] = name
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"{name}: checked {report['instances_checked']} instance(s), "
              f"holds={report['holds']}")
        for failure in report["failures"]:
            print(f"  FAIL {failure}")
    return 0 if report["holds"] else 1


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
    p_verify.add_argument("theorem", choices=sweeps.THEOREMS)
    for param in INSTANCE_PARAMS:
        text = {**COMPOSITIONS, **WORDS}.get(param)
        p_verify.add_argument(f"--{param}", help=text, type=int if text is None else str)
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
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
