"""The benchmark's tracer names csieve functions by module and attribute;
a function moved or deleted without it would crash the traced run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    for name, owner, attribute, _ in tracing._targets():
        assert callable(getattr(owner, attribute, None)), name
