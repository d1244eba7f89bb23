"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``Tracer.install`` swaps
the public functions and methods of each satscope module for thin wrappers,
and ``Tracer.uninstall`` puts the originals back, so untraced passes run the
unmodified code. A module-level function is replaced in every namespace that
holds it, not only in its defining module, because the harness and the desk
script call the bindings they imported themselves.

Spans live in flat arrays (name, parent, start, end) until the run ends. A
span's self time is its duration minus the durations of its direct children;
the program is single-threaded, so direct children never overlap. Counters
that only the tracer computes, such as the TVIG edge count, are taken off the
clock: the open spans are shifted by their time, and ``untimed_s`` sums it.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from satscope import branching, centrality, cnf, community, generator, graph, harness, metrics, solver

MODULES = ("cnf", "generator", "community", "graph", "centrality", "metrics",
           "branching", "solver", "harness")


@dataclass
class Spans:
    """The spans and counters of one phase of a run (set-up or passes)."""

    names: list
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counters: dict = field(default_factory=dict)

    def totals(self) -> dict:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(self.name, minlength=k)
        incl = np.bincount(self.name, weights=dur, minlength=k)
        selft = np.bincount(self.name, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(selft[i]))
                for i, n in enumerate(self.names)}


class Tracer:
    """Records spans while installed; ``take`` hands them over."""

    def __init__(self, extra_modules=()):
        self.extra_modules = list(extra_modules)
        self.installed = False
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._clear()

    # -- recording ----------------------------------------------------------

    def _clear(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.untimed_s = 0.0  # tracer-only work, to subtract from pass times

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return i

    def open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def untimed(self, fn, *args) -> None:
        """Run ``fn``, tracer-only work, so that no open span pays for it."""
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        for idx in self._stack:
            self._start[idx] += dt
        self.untimed_s += dt

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def take(self) -> Spans:
        """Hand over everything recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() with spans still open")
        spans = Spans(list(self._names),
                      np.frombuffer(self._name, dtype=np.int32).copy(),
                      np.frombuffer(self._parent, dtype=np.int32).copy(),
                      np.frombuffer(self._start, dtype=np.float64).copy(),
                      np.frombuffer(self._end, dtype=np.float64).copy(),
                      self.counters)
        self._clear()
        return spans

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self
        fixed = None if callable(name) else self.name_id(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.name_id(name(args, kwargs))
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.untimed(after, tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _namespaces(self):
        mods = [m for n, m in sys.modules.items()
                if n == "satscope" or n.startswith("satscope.")]
        return mods + self.extra_modules

    def _patch_function(self, module, attr, name, after=None) -> None:
        orig = getattr(module, attr)
        wrapped = self._wrap(orig, name, after)
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is orig:
                    self._patches.append((ns, key, orig, wrapped))

    def _patch_methods(self, module, methods, name, after=None, base=None) -> None:
        """Wrap each listed method in the classes of ``module`` that define it."""
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if base is not None and not issubclass(cls, base):
                continue
            for meth in methods:
                orig = cls.__dict__.get(meth)
                if orig is not None and callable(orig):
                    self._patches.append((cls, meth, orig, self._wrap(orig, name, after)))

    def install(self) -> None:
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self.installed = False

    def _plan(self) -> None:
        f, m = self._patch_function, self._patch_methods
        f(cnf, "parse_dimacs", "cnf.parse")
        f(cnf, "write_dimacs", "cnf.write")
        f(generator, "gen_random_ksat", "generator.gen")
        f(generator, "gen_planted_community", "generator.gen")
        f(community, "louvain", "community.louvain")
        f(community, "modularity", "community.modularity")
        f(community, "bridge_variables", "community.bridge_variables")
        f(graph, "build_vig", "graph.build_vig")
        m(graph, ("add_clause",), "graph.tvig_add_clause")
        m(graph, ("advance",), "graph.tvig_advance")
        f(centrality, "degree_centrality", "centrality.tdc")
        f(centrality, "eigenvector_centrality", "centrality.tec", after=_tec_bytes)
        f(metrics, "spearman", "metrics.spearman")
        f(metrics, "pearson", "metrics.pearson")
        f(metrics, "top_k", "metrics.top_k")
        for fn in ("spatial_score", "temporal_score", "bridge_percentages", "fisher_mean"):
            f(metrics, fn, "metrics.scores")
        m(metrics, ("record_decision", "record_conflict"), "metrics.focus_record")
        m(branching, ("pick",), "branching.pick")
        m(branching, ("on_conflict",), "branching.on_conflict")
        m(solver, ("__init__",), "solver.init", base=solver.Solver)
        m(solver, ("solve",), "solver.solve", after=_solve_counters, base=solver.Solver)
        m(harness, ("on_decision", "on_conflict", "on_sample"), "harness.hook",
          base=solver.InstrumentationHooks)
        f(harness, "run_experiment",
          lambda a, kw: "harness.experiment." + (a[0] if a else kw["plan"]).experiment)
        f(harness, "load_instances", "harness.load_instances")
        f(harness, "emit_report", "harness.emit_report")
        f(harness, "write_cactus_csv", "harness.emit_report")


def _tec_bytes(tracer: Tracer, args, kwargs, result) -> None:
    if result.degenerate:
        return
    g = args[0] if args else kwargs["graph"]
    iterations = args[1] if len(args) > 1 else kwargs.get("iterations", 100)
    tracer.count("centrality.tec_bytes_computed", 8 * g.num_vars ** 2 * iterations)


def _solve_counters(tracer: Tracer, args, kwargs, result) -> None:
    s = args[0]
    st = result.stats
    for key in ("decisions", "conflicts", "propagations", "restarts",
                "learnt_clauses", "deleted_clauses"):
        tracer.count("solver." + key, getattr(st, key))
    table = getattr(s.heuristic, "table", None)
    if table is not None:
        tracer.count("branching.rescales", table.rescales)
    tvig = getattr(s.hooks, "tvig", None)
    if tvig is not None:
        tracer.count("graph.tvig_edges_stored", sum(1 for _ in tvig.edges()))


# Metric name -> (span name, field) where field is "calls", "incl" or "self";
# counters are read from Spans.counters under the metric's own name.
_SPAN_METRICS = {
    "solver.self_s": ("solver.solve", "self"),
    "solver.init_s": ("solver.init", "self"),
    "branching.pick_s": ("branching.pick", "self"),
    "branching.pick_calls": ("branching.pick", "calls"),
    "branching.on_conflict_s": ("branching.on_conflict", "self"),
    "branching.on_conflict_calls": ("branching.on_conflict", "calls"),
    "graph.tvig_add_clause_s": ("graph.tvig_add_clause", "self"),
    "graph.tvig_add_clause_calls": ("graph.tvig_add_clause", "calls"),
    "graph.tvig_advance_s": ("graph.tvig_advance", "self"),
    "graph.build_vig_s": ("graph.build_vig", "self"),
    "centrality.tec_s": ("centrality.tec", "self"),
    "centrality.tec_calls": ("centrality.tec", "calls"),
    "centrality.tdc_s": ("centrality.tdc", "self"),
    "centrality.tdc_calls": ("centrality.tdc", "calls"),
    "metrics.spearman_s": ("metrics.spearman", "self"),
    "metrics.pearson_s": ("metrics.pearson", "self"),
    "metrics.top_k_s": ("metrics.top_k", "self"),
    "metrics.focus_record_s": ("metrics.focus_record", "self"),
    "metrics.scores_s": ("metrics.scores", "self"),
    "harness.hook_self_s": ("harness.hook", "self"),
    "harness.load_instances_s": ("harness.load_instances", "incl"),
    "harness.emit_report_s": ("harness.emit_report", "incl"),
    "harness.jobs": ("solver.solve", "calls"),
    "community.louvain_s": ("community.louvain", "self"),
    "community.louvain_calls": ("community.louvain", "calls"),
    "community.modularity_s": ("community.modularity", "self"),
    "community.bridge_variables_s": ("community.bridge_variables", "self"),
    "cnf.parse_s": ("cnf.parse", "self"),
    "cnf.parse_calls": ("cnf.parse", "calls"),
    "cnf.write_s": ("cnf.write", "self"),
    "generator.gen_s": ("generator.gen", "self"),
    "generator.instances": ("generator.gen", "calls"),
}
for _exp in harness.EXPERIMENTS:
    _SPAN_METRICS[f"harness.experiment.{_exp}_s"] = (f"harness.experiment.{_exp}", "incl")

COUNTER_METRICS = ("solver.decisions", "solver.conflicts", "solver.propagations",
                   "solver.restarts", "solver.learnt_clauses", "solver.deleted_clauses",
                   "branching.rescales", "graph.tvig_edges_stored",
                   "centrality.tec_bytes_computed")

_FIELD = {"calls": 0, "incl": 1, "self": 2}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes_computed"):
        return "B"
    return "count"


def layer_metrics(phases) -> dict:
    """Per-layer values summed over ``(spans, repeats)`` phases, each divided by its repeats.

    A metric thus reads per set-up plus per pass, whatever the number of
    set-ups and passes a run made.
    """
    out = {name: 0.0 for name in (*_SPAN_METRICS, *COUNTER_METRICS)}
    for spans, repeats in phases:
        totals = spans.totals()
        for metric, (span, fld) in _SPAN_METRICS.items():
            if span in totals:
                out[metric] += totals[span][_FIELD[fld]] / repeats
        for metric in COUNTER_METRICS:
            out[metric] += spans.counters.get(metric, 0) / repeats
    return out


def modules_seen(spans: Spans) -> set[str]:
    """The layers that recorded at least one span."""
    return {name.split(".", 1)[0] for name, (calls, _, _) in spans.totals().items()
            if calls and name.split(".", 1)[0] in MODULES}


def save(path, phases) -> None:
    """Write the raw spans of every phase to one ``.npz`` file."""
    arrays = {}
    for label, spans in phases.items():
        arrays[f"{label}_names"] = np.array(spans.names)
        for key in ("name", "parent", "start", "end"):
            arrays[f"{label}_{key}"] = getattr(spans, key)
    np.savez(path, **arrays)
