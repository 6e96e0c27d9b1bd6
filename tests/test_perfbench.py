"""The benchmark names csieve functions by module and attribute: its
tracer wraps them and its workloads call sweeps by name.  A function or
parameter renamed without it would crash the benchmark run."""

import inspect
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


def test_the_timed_import_loads_neither_dataclasses_nor_inspect():
    # the import setup_s times, in a fresh isolated interpreter as the
    # benchmark's child process makes it; either module costs several ms
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import child; "
            "child.import_csieve(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(PERFBENCH)],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
