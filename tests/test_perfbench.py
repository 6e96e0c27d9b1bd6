"""The benchmark names csieve functions by module and attribute: its
tracer wraps them and its workloads call sweeps by name.  A function or
parameter renamed without it would crash the benchmark run."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

from csieve import sweeps

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    for name, owner, attribute, _ in tracing._targets():
        assert callable(getattr(owner, attribute, None)), name


def test_every_workload_sweep_resolves_and_binds_its_arguments(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    for workload, spec in workloads.WORKLOADS.items():
        for name, args in spec.sweeps:
            sweep = getattr(sweeps, f"sweep_{name}", None)
            assert callable(sweep), (workload, name)
            inspect.signature(sweep).bind(*args)


def test_every_traced_sweep_is_a_generator_function(monkeypatch):
    # the tracer times a generator function across each next(); a sweep
    # that returns a generator from a plain function would be timed only
    # while it builds the generator, and read near 0 s in the per-layer table
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    for name in tracing.SWEEPS:
        assert inspect.isgeneratorfunction(getattr(sweeps, f"sweep_{name}")), name


def test_the_timed_import_loads_neither_dataclasses_nor_inspect():
    # the import setup_s times, in a fresh isolated interpreter as the
    # benchmark's child process makes it; either module costs several ms
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import child; "
            "child.import_csieve(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(PERFBENCH)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


TRACED_SMOKE_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import child
child.import_csieve()
import tracing
from csieve import sweeps
tracer = tracing.Tracer()
tracing.install(tracer)
for sweep, args in [(sweeps.sweep_main, (4, 2)), (sweeps.sweep_flex_universal, (4,)),
                    (sweeps.sweep_phi, (5, 3)), (sweeps.sweep_multisubset, (4,)),
                    (sweeps.sweep_chains, (4,)), (sweeps.sweep_mbs, (4,))]:
    assert sweeps.run_sweep(sweep(*args))["holds"], sweep
print(json.dumps(tracing.layer_metrics(tracer.edges())))
"""


def test_a_traced_run_counts_through_the_package_api():
    # the tracer's item counters read the package's results and arguments
    # (len(result.orbits), len(args[0].carrier), ...), so a changed API
    # would crash only a traced run: one small sweep of each workload's
    # kind under the tracer, in a fresh isolated interpreter
    done = subprocess.run([sys.executable, "-I", "-c", TRACED_SMOKE_RUN, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["actions.check_csp.calls"] > 0
