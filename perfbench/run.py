"""csieve sweep benchmark.

Usage (from anywhere; paths are taken from this file's location):

    python3 perfbench/run.py --workload content-classes --seed 1 --seconds 35 --trace 0

Runs repetitions of one workload, each in a fresh interpreter (so the
package's lru_caches start cold, as for every `csieve verify` call), one
after another, until `--seconds` have passed; at least one repetition
always runs.  Every repetition passes the correctness gate: each sweep's
instance count and key digest must match expected.json and every verdict
must hold.

With --trace 0 it reports the end-to-end metrics, each the median over the
repetitions.  With --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics: self times and counts from
the traced ones, per-sweep wall times and the tracing overhead against
the untraced ones; the traced run also asserts the workload's predicted
layer bypasses, and writes the aggregated spans under .bench_out/.

Metric names and units come from BENCHMARK.json.  Human-readable lines
come first; the last line of stdout is the JSON result.  The exit code is
0 only when every check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import SWEEPS  # noqa: E402
from workloads import WORKLOADS, load_expected, sweep_label  # noqa: E402

CHILD_TIMEOUT_S = 150


def run_child(workload: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "child.py"), workload, str(seed), str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repetition failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate(workload: str, rep: dict, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one repetition.  A sweep whose
    count or key digest differs from expected.json counts as failed in
    full; otherwise its failing verdicts count."""
    attempted = failed = 0
    problems = []
    for label in WORKLOADS[workload].labels():
        want, got = expected[label], rep["sweeps"][label]
        attempted += want["instances"]
        if (got["count"], got["digest"]) != (want["instances"], want["digest"]):
            failed += want["instances"]
            problems.append(f"{label}: {got['count']} instances, digest {got['digest']}; "
                            f"expected {want['instances']}, {want['digest']}")
        elif got["failures"]:
            failed += got["failures"]
            problems.append(f"{label}: {got['failures']} failing, first {got['first_failure']}")
    for layer, calls in rep.get("bypass_violations", {}).items():
        problems.append(f"predicted bypass broken: {calls} calls into {layer}")
    return attempted, failed, problems


def median_of(reps: list[dict], get) -> float:
    return statistics.median(get(r) for r in reps)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "sweep_s": median_of(reps, lambda r: r["sweep_s"]),
        "instances_per_s": median_of(reps, lambda r: r["instances"] / r["sweep_s"]),
        "instance_ms_p50": median_of(reps, lambda r: r["instance_ms_p50"]),
        "instance_ms_p95": median_of(reps, lambda r: r["instance_ms_p95"]),
        "setup_s": median_of(reps, lambda r: r["setup_s"]),
        "peak_rss_mb": median_of(reps, lambda r: r["peak_rss_mb"]),
    }


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: median_of(traced, lambda r: r["layers"][name]) for name in traced[0]["layers"]}
    ran = {name: sweep_label(name, args) for name, args in WORKLOADS[workload].sweeps}
    for name in SWEEPS:
        out[f"sweeps.sweep_{name}.s"] = (
            median_of(untraced, lambda r: r["sweeps"][ran[name]]["s"]) if name in ran else 0.0)
    out["bench.residue_block.s"] = (
        median_of(untraced, lambda r: r["sweeps"]["residue_block"]["s"])
        if WORKLOADS[workload].residue_block else 0.0)
    out["trace.overhead"] = (median_of(traced, lambda r: r["sweep_s"])
                             / median_of(untraced, lambda r: r["sweep_s"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "csieve" / "__init__.py").is_file():
        print(f"no csieve source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    expected = load_expected()

    # Untraced first, then alternate when tracing, so both kinds interleave
    # with whatever else the machine is doing.
    plan = (False, True) if args.trace else (False,)
    reps: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < len(plan) or time.monotonic() < deadline:
        traced = plan[i % len(plan)]
        rep = run_child(args.workload, args.seed, traced)
        a, f, p = gate(args.workload, rep, expected)
        attempted, failed = attempted + a, failed + f
        problems += p
        reps[traced].append(rep)
        i += 1

    if args.trace:
        metrics = per_layer(args.workload, reps[False], reps[True])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([r["spans"] for r in reps[True]]))
    else:
        metrics = end_to_end(reps[False])
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")

    for problem in problems:
        print(f"FAIL {problem}")
    counts = {k: len(v) for k, v in reps.items() if v}
    print(f"workload {args.workload}, seed {args.seed}, repetitions "
          + ", ".join(f"{'traced' if k else 'untraced'} {n}" for k, n in counts.items()))
    for name, unit in declared.items():
        print(f"{name} {metrics[name]} {unit}")
    print(f"failed_share {failed / attempted} ({failed} of {attempted} instances)")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
