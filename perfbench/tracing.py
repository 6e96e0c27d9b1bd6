"""Per-layer tracing from outside the package.

`install` replaces every binding of each traced csieve function with a
wrapper that records a span: the function's own module attribute and
every copy that another csieve module took with `from ... import`
(`insertion.as_word`, `sweeps.cdt`, `actions.evaluate_at_root`, ...), and
methods on their class.  Calls from inside csieve therefore go through
the wrappers too.  A generator is timed across each `next()`, not only at
the call that creates it, and every value it yields counts as one item.

Spans are aggregated in memory by (parent span name, span name) as they
close; `edges()` hands the aggregate out when the run ends.  A span's
self time is its duration minus the durations of the spans it encloses.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SUBSET_ENUMERATORS = ("enumerate_subsets", "enumerate_multisubsets", "enumerate_s_alpha",
                      "enumerate_m_alpha", "enumerate_g_de", "enumerate_g_chain",
                      "enumerate_s_kb")
SUBSET_FILTERS = ("enumerate_g_de", "enumerate_g_chain", "enumerate_s_kb")

SWEEPS = ("main", "formulas", "phi", "macmahon", "vandermonde", "period_g",
          "flex_universal", "flex_maj", "multisubset", "subset_star", "chains",
          "g_dd", "action_isomorphism", "mbs")


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter_ns
        self._stack: list[list] = []      # open spans: [name, start_ns, child_ns]
        self._edges: dict[tuple, list] = {}   # (parent, name) -> [calls, total_ns, self_ns, items]

    def open(self, name: str) -> list:
        frame = [name, 0, 0]
        self._stack.append(frame)
        frame[1] = self._clock()
        return frame

    def close(self, frame: list) -> list:
        """Close the innermost span; returns its aggregate, whose call and
        item counts the caller updates."""
        duration = self._clock() - frame[1]
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        parent = self._stack[-1] if self._stack else None
        key = (parent[0] if parent else None, frame[0])
        edge = self._edges.get(key)
        if edge is None:
            edge = self._edges[key] = [0, 0, 0, 0]
        edge[1] += duration
        edge[2] += duration - frame[2]
        if parent:
            parent[2] += duration
        return edge

    def edges(self) -> list[list]:
        """[parent, name, calls, total_ns, self_ns, items] per edge."""
        return [[p, n, *agg] for (p, n), agg in sorted(self._edges.items(), key=str)]


def _wrap_call(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            edge = tracer.close(frame)
            edge[0] += 1
        if count:
            edge[3] += count(args, result)
        return result
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            gen = fn(*args, **kwargs)
        finally:
            tracer.close(frame)[0] += 1
        return _timed_next(tracer, name, gen)
    return traced


def _timed_next(tracer: Tracer, name: str, gen):
    try:
        while True:
            frame = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.close(frame)
                return
            except BaseException:
                tracer.close(frame)
                raise
            tracer.close(frame)[3] += 1
            yield item
    finally:
        gen.close()


def _targets():
    """(span name, owner, attribute, counter) for every traced function;
    owner is the defining module or class, and counter maps (args,
    result) to the span's item count for plain functions."""
    from csieve import actions, formulas, insertion, qpoly, subsets, sweeps, words
    n_first_arg = lambda args, result: len(args[0])       # noqa: E731
    out = [(f"words.{f}", words, f, None)
           for f in ("enumerate_by_content", "cdt", "maj", "inv", "flex", "necklace",
                     "as_word")]
    out += [(f"insertion.{f}", insertion, f, None)
            for f in ("insert_triple", "phi", "phi_inverse", "leaves", "fall_segments",
                      "run_segments", "predicted_maj_increment")]
    out.append(("formulas.brute_gf", formulas, "brute_gf", n_first_arg))
    out += [(f"formulas.{f}", formulas, f, None)
            for f in ("tilde_maj_gf", "maj_gf_mod_n", "count_w_alpha_delta",
                      "feasible_deltas", "macmahon_check", "vandermonde_check",
                      "verify_flex_universal")]
    out += [("actions.check_csp", actions, "check_csp",
             lambda args, result: len(args[0].carrier)),
            ("actions.check_refinement", actions, "check_refinement", None),
            ("actions.orbits", actions, "orbits", lambda args, result: len(result.orbits)),
            ("actions.successor", actions.CyclicAction, "successor", None)]
    out += [(f"qpoly.{f}", qpoly, f, None)
            for f in ("evaluate_at_root", "poly_divmod", "has_period")]
    out.append(("qpoly.residue_mul", qpoly.ResiduePoly, "__mul__", None))
    out += [(f"subsets.{f}", subsets, f, None)
            for f in SUBSET_ENUMERATORS + ("rotate_within_intervals", "interval_profile")]
    out += [(f"sweeps.sweep_{s}", sweeps, f"sweep_{s}", None) for s in SWEEPS]
    out += [("sweeps.cdt_groups", sweeps, "cdt_groups",
             lambda args, result: sum(len(ws) for ws in result.values())),
            ("sweeps.run_sweep", sweeps, "run_sweep", None)]
    return out


def install(tracer: Tracer) -> None:
    """Route every traced function of the imported csieve modules through
    `tracer`.  Irreversible: meant for a process that runs one traced
    workload and exits."""
    targets = _targets()
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("csieve.")]
    for name, owner, attribute, count in targets:
        fn = getattr(owner, attribute)
        if inspect.isgeneratorfunction(fn):
            wrapper = _wrap_generator(tracer, name, fn)
        else:
            wrapper = _wrap_call(tracer, name, fn, count)
        namespaces = [owner] if isinstance(owner, type) else modules
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, attr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics from the aggregated spans

def layer_metrics(edges: list[list]) -> dict[str, float]:
    """Time (`.s`, self time in seconds), call and item counts per traced
    function, plus the derived ratios; cache ratios come from the
    package's own lru_cache statistics."""
    from csieve import qpoly

    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    items: dict[str, int] = {}
    for parent, name, n_calls, _total, n_self, n_items in edges:
        calls[name] = calls.get(name, 0) + n_calls
        self_ns[name] = self_ns.get(name, 0) + n_self
        items[name] = items.get(name, 0) + n_items

    def edge_sum(index: int, names, parent_ok) -> int:
        return sum(e[index] for e in edges if e[1] in names and parent_ok(e[0]))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}

    def record(name: str, counter: str | None = "calls", counts: dict = calls):
        out[f"{name}.s"] = self_ns.get(name, 0) / 1e9
        if counter:
            out[f"{name}.{counter}"] = counts.get(name, 0)

    for f in ("cdt", "maj", "inv", "flex", "necklace", "as_word"):
        record(f"words.{f}")
    record("words.enumerate_by_content", "words", items)

    for f in ("insert_triple", "phi", "phi_inverse", "fall_segments", "run_segments",
              "predicted_maj_increment"):
        record(f"insertion.{f}")
    record("insertion.leaves", "words", items)

    record("formulas.brute_gf")
    out["formulas.brute_gf.words"] = items.get("formulas.brute_gf", 0)
    for f in ("tilde_maj_gf", "maj_gf_mod_n", "count_w_alpha_delta"):
        record(f"formulas.{f}")
    record("formulas.feasible_deltas", "deltas", items)
    for f in ("macmahon_check", "vandermonde_check", "verify_flex_universal"):
        record(f"formulas.{f}", None)

    record("actions.check_csp")
    out["actions.check_csp.elements"] = items.get("actions.check_csp", 0)
    record("actions.check_refinement")
    record("actions.successor")
    # method 2 of the CSP check: orbit decompositions made inside check_csp
    in_csp = lambda parent: parent == "actions.check_csp"     # noqa: E731
    out["actions.orbits.s"] = edge_sum(4, ["actions.orbits"], in_csp) / 1e9
    out["actions.orbits.orbits"] = edge_sum(5, ["actions.orbits"], in_csp)

    for f in ("evaluate_at_root", "poly_divmod", "has_period", "residue_mul"):
        record(f"qpoly.{f}")
    for f in ("q_binomial", "cyclotomic"):
        info = getattr(qpoly, f).cache_info()
        out[f"qpoly.{f}.cache_hit_ratio"] = ratio(info.hits, info.hits + info.misses)

    enumerators = [f"subsets.{f}" for f in SUBSET_ENUMERATORS]
    filters = [f"subsets.{f}" for f in SUBSET_FILTERS]
    out["subsets.enumerate.s"] = sum(self_ns.get(n, 0) for n in enumerators) / 1e9
    out["subsets.enumerate.objects"] = edge_sum(
        5, enumerators, lambda parent: parent not in enumerators)
    out["subsets.filter_ratio"] = ratio(
        sum(items.get(n, 0) for n in filters),
        edge_sum(5, ["subsets.enumerate_subsets"], lambda parent: parent in filters))
    record("subsets.rotate_within_intervals")
    out["subsets.interval_profile.calls"] = calls.get("subsets.interval_profile", 0)

    record("sweeps.cdt_groups")
    out["sweeps.cdt_groups.words"] = items.get("sweeps.cdt_groups", 0)
    out["sweeps.flex_universal.necklace_ratio"] = ratio(
        items.get("sweeps.sweep_flex_universal", 0),
        edge_sum(2, ["words.necklace"],
                 lambda parent: parent == "sweeps.sweep_flex_universal"))
    record("sweeps.run_sweep", None)
    return out


def layer_calls(edges: list[list], layer: str) -> int:
    """Calls into any traced function of one layer (module)."""
    return sum(e[2] for e in edges if e[1].startswith(layer + "."))
