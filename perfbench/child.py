"""One repetition of a workload in a fresh interpreter.

Usage: python3 -I perfbench/child.py WORKLOAD SEED TRACE

Imports the csieve package from the checkout's src/ (timing the import),
drains each sweep of the workload through `sweeps.run_sweep`, and prints
one JSON object on stdout.  With TRACE = 1 the package's functions are
wrapped first (see tracing.py) and the aggregated spans are returned too.
Only modules already loaded at interpreter start are imported before
csieve, so the import time covers everything csieve pulls in.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODULES = ("words", "qpoly", "actions", "formulas", "insertion", "subsets", "sweeps", "cli")


def import_csieve() -> float:
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    for module in MODULES:
        __import__(f"csieve.{module}")
    elapsed = time.perf_counter() - start
    origin = os.path.dirname(os.path.abspath(sys.modules["csieve"].__file__))
    if origin != os.path.join(SRC, "csieve"):
        raise SystemExit(f"csieve was imported from {origin}, not from the checkout")
    return elapsed


def timed(items, gaps: list, start: int):
    """Pass (key, verdict) pairs through, appending the time since the
    previous verdict (or since `start`) for each."""
    clock = time.perf_counter_ns
    last = start
    for item in items:
        now = clock()
        gaps.append(now - last)
        last = now
        yield item


def percentile(ordered: list, p: float):
    """Nearest-rank percentile of a sorted list."""
    import math
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def main(argv: list[str]) -> dict:
    setup_s = import_csieve()

    import resource
    sys.path.insert(0, HERE)
    from csieve import sweeps
    from tracing import Tracer, install, layer_calls, layer_metrics
    from workloads import WORKLOADS, key_digest, residue_block, sweep_label

    workload_name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer)

    runs = [(sweep_label(name, args), getattr(sweeps, f"sweep_{name}"), args)
            for name, args in workload.sweeps]
    if workload.residue_block:
        runs.append(("residue_block", residue_block, (seed,)))

    gaps: list[int] = []
    per_sweep = {}
    for label, sweep, args in runs:
        start = time.perf_counter_ns()
        report = sweeps.run_sweep(timed(sweep(*args), gaps, start), collect_instances=True)
        elapsed = time.perf_counter_ns() - start
        keys = [{k: v for k, v in inst.items() if k != "holds"}
                for inst in report["instances"]]
        per_sweep[label] = {"s": elapsed / 1e9, "count": report["instances_checked"],
                            "digest": key_digest(keys),
                            "failures": len(report["failures"]),
                            "first_failure": report["failures"][:1]}

    sweep_s = sum(s["s"] for s in per_sweep.values())
    ordered = sorted(gaps)
    out = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "instances": len(gaps),
        "instance_ms_p50": percentile(ordered, 50) / 1e6,
        "instance_ms_p95": percentile(ordered, 95) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sweeps": per_sweep,
    }
    if tracer:
        edges = tracer.edges()
        out["layers"] = layer_metrics(edges)
        calls = {layer: layer_calls(edges, layer) for layer in workload.bypassed}
        out["bypass_violations"] = {layer: n for layer, n in calls.items() if n}
        out["spans"] = edges
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json
    print(json.dumps(result))
