"""Run every workload untraced and traced and print every metric by name.

Usage:
    python3 perfbench/report.py [--seed N] [--seconds S] [--write perfbench/BENCH_baseline.json]

For each workload this prints the end-to-end metrics, failed_share
(failed or missing instances / expected instances) and the per-layer
metrics of the traced run.  --write also records the git hash, Python
version, nproc and every workload's sweep parameters in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import RESIDUE_CASES, WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if not proc.stdout:
        raise SystemExit(f"{workload}: benchmark exited with {proc.returncode}, no result")
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode:
        print(proc.stdout, end="")
    result["failed_share"] = result["failed"] / result["attempted"]
    return result


def git_hash() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    record = {"git_hash": git_hash(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
              "residue_block_cases": 4 * RESIDUE_CASES,
              "workloads": {}}
    ok = True
    for name, workload in WORKLOADS.items():
        untraced = bench(name, args.seed, args.seconds, 0)
        traced = bench(name, args.seed, args.seconds, 1)
        ok = ok and untraced["correct"] and traced["correct"]
        print(f"== {name}")
        for metric, m in untraced["metrics"].items():
            print(f"  {metric:44s} {m['value']:>16.6g} {m['unit']}")
        print(f"  {'failed_share':44s} {untraced['failed_share']:>16.6g} share"
              f" ({untraced['failed']} of {untraced['attempted']})")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:44s} {m['value']:>16.6g} {m['unit']}")
        record["workloads"][name] = {
            "parameters": workload.labels(),
            "end_to_end": {k: m["value"] for k, m in untraced["metrics"].items()},
            "failed_share": untraced["failed_share"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.write:
        args.write.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
