"""Experiment orchestration: instrumented solver runs, sampling, aggregation, reports.

Six experiment modes are provided. ``bridge``, ``spatial``, and ``temporal``
track decisions/bumps/learnt clauses against a community assignment;
``correlation`` samples the branching ranking against temporal degree and
eigenvector centrality every ``sample_interval`` iterations; ``theorem``
replays the controlled setting of the activity/centrality equivalence
argument (clause deletion off, activities seeded from the initial temporal
degree centrality, matching decay factors); ``adapt-compare`` races mVSIDS
against adaptVSIDS and emits cactus-plot data.

Aggregation is always "average of averages": correlations are Fisher-averaged
per instance first, then per-instance values are averaged across instances.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .branching import CvsidsHeuristic, make_heuristic
from .centrality import degree_centrality, eigenvector_centrality
from .cnf import Formula, parse_dimacs_file
from .community import (
    CommunityAssignment,
    LouvainTimeout,
    assignment_from_mapping,
    bridge_variables,
    louvain,
    read_community_file,
)
from .graph import Tvig, build_vig
from .metrics import (
    CorrelationSample,
    FocusCounters,
    bridge_percentages,
    fisher_mean,
    spatial_score,
    spearman,
    pearson,
    temporal_score,
    top_k,
)
from .solver import SAT, UNSAT, InstrumentationHooks, Solver, SolverConfig

EXPERIMENTS = ("bridge", "spatial", "temporal", "correlation", "adapt-compare", "theorem")

DEFAULT_HEURISTICS = {
    "bridge": ["mvsids"],
    "spatial": ["mvsids", "cvsids", "random"],
    "temporal": ["mvsids", "cvsids", "random"],
    "correlation": ["cvsids", "mvsids"],
    "theorem": ["cvsids"],
    "adapt-compare": ["mvsids", "adaptvsids"],
}


@dataclass
class Instance:
    name: str
    formula: Formula
    communities: CommunityAssignment | None = None


@dataclass
class RunPlan:
    """What to run: instances x heuristics under one solver configuration.

    The heuristics are checked against the experiment: correlation needs
    activities to rank (no ``random``), and theorem mode is cVSIDS only.
    """

    instances: list
    heuristics: list
    config: SolverConfig = field(default_factory=SolverConfig)
    experiment: str = "correlation"
    timeout_s: float | None = 60.0
    tvig_alpha: float = 0.95
    louvain_seed: int = 0
    louvain_budget_s: float | None = 60.0

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.experiment == "correlation" and "random" in self.heuristics:
            raise ValueError("correlation needs activity-based heuristics; random has none")
        if self.experiment == "theorem" and any(h != "cvsids" for h in self.heuristics):
            raise ValueError("theorem mode runs cvsids only")


@dataclass
class InstanceRecord:
    """One instance x heuristic row of an experiment report."""

    instance: str
    heuristic: str
    status: str = "UNKNOWN"
    wall_time_s: float | None = None
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    num_samples: int = 0
    mean_spearman_tdc: float | None = None
    mean_spearman_tec: float | None = None
    mean_pearson_tdc: float | None = None
    min_spearman_tdc: float | None = None
    mean_top1_tdc: float | None = None
    mean_top10_tdc: float | None = None
    mean_top1_tec: float | None = None
    mean_top10_tec: float | None = None
    ss: float | None = None
    ts: float | None = None
    bridge_variables_pct: float | None = None
    bridge_picked_pct: float | None = None
    bridge_bumped_pct: float | None = None
    bridge_learnt_pct: float | None = None
    modularity: float | None = None
    num_communities: int | None = None
    solved: int = 0
    excluded: bool = False
    note: str | None = None


_AGGREGATE_SKIP = {"instance", "heuristic", "status", "excluded", "note"}
_TIMING_FIELDS = {"wall_time_s"}


def aggregate_records(records) -> dict:
    """Mean of every numeric field per heuristic over non-excluded records.

    ``solved`` is summed (a count), everything else averaged over the records
    where it is present.
    """
    by_h: dict[str, list[InstanceRecord]] = {}
    for r in records:
        if r.excluded:
            continue
        by_h.setdefault(r.heuristic, []).append(r)
    out: dict[str, dict[str, float]] = {}
    numeric_fields = [f.name for f in fields(InstanceRecord) if f.name not in _AGGREGATE_SKIP]
    for h, recs in sorted(by_h.items()):
        agg: dict[str, float] = {"instances": len(recs)}
        for name in numeric_fields:
            vals = [getattr(r, name) for r in recs if getattr(r, name) is not None]
            if not vals:
                continue
            if name == "solved":
                agg["solved_count"] = int(sum(vals))
            else:
                agg[name] = float(np.mean(vals))
        out[h] = agg
    return out


@dataclass
class ExperimentReport:
    experiment: str
    records: list
    aggregates: dict
    notes: list

    def to_dict(self, include_timing: bool = True) -> dict:
        recs = []
        for r in self.records:
            d = asdict(r)
            if not include_timing:
                for k in _TIMING_FIELDS:
                    d.pop(k, None)
            recs.append(d)
        aggs = {}
        for h, a in self.aggregates.items():
            aggs[h] = {
                k: v for k, v in a.items() if include_timing or k not in _TIMING_FIELDS
            }
        return {
            "experiment": self.experiment,
            "records": recs,
            "aggregates": aggs,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        records = [InstanceRecord(**r) for r in d["records"]]
        return cls(d["experiment"], records, d["aggregates"], list(d["notes"]))


def emit_report(report: ExperimentReport, path: str | Path, fmt: str = "json",
                include_timing: bool = True) -> None:
    """Write the report as JSON (records + aggregates + notes) or per-record CSV."""
    path = Path(path)
    if fmt == "json":
        payload = json.dumps(report.to_dict(include_timing), indent=2, sort_keys=True)
        path.write_text(payload + "\n")
    elif fmt == "csv":
        names = [f.name for f in fields(InstanceRecord)
                 if include_timing or f.name not in _TIMING_FIELDS]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for r in report.records:
                writer.writerow(["" if getattr(r, n) is None else getattr(r, n) for n in names])
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def write_cactus_csv(report: ExperimentReport, path: str | Path) -> None:
    """Solved-count vs seconds per heuristic, for external cactus plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["heuristic", "solved_count", "seconds"])
        heuristics = sorted({r.heuristic for r in report.records})
        for h in heuristics:
            times = sorted(
                r.wall_time_s for r in report.records
                if r.heuristic == h and r.status in (SAT, UNSAT) and r.wall_time_s is not None
            )
            for count, t in enumerate(times, start=1):
                writer.writerow([h, count, f"{t:.6f}"])


# -- instrumentation hooks --------------------------------------------------


class CompositeHooks(InstrumentationHooks):
    def __init__(self, *hooks):
        self.hooks = [h for h in hooks if h is not None]

    def on_decision(self, solver, var):
        for h in self.hooks:
            h.on_decision(solver, var)

    def on_conflict(self, solver, analysis):
        for h in self.hooks:
            h.on_conflict(solver, analysis)

    def on_sample(self, solver, iteration):
        for h in self.hooks:
            h.on_sample(solver, iteration)


class DecisionLogHook(InstrumentationHooks):
    def __init__(self):
        self.log: list[int] = []

    def on_decision(self, solver, var):
        self.log.append(var)


class FocusHook(InstrumentationHooks):
    """Feeds decisions, bump sets, and learnt-clause variables into FocusCounters."""

    def __init__(self, counters: FocusCounters, heuristic):
        self.counters = counters
        self.heuristic = heuristic

    def on_decision(self, solver, var):
        self.counters.record_decision(var)

    def on_conflict(self, solver, analysis):
        self.counters.record_conflict(
            self.heuristic.bump_set(analysis), analysis.learnt.variables()
        )


class CorrelationHook(InstrumentationHooks):
    """Maintains the temporal clause graph and samples ranking agreement.

    Spearman is computed over the full variable set; top-k ranks exclude the
    currently assigned variables, matching how a solver only ever branches on
    unassigned variables.
    """

    def __init__(self, formula: Formula, heuristic, alpha: float,
                 with_tec: bool = True, with_pearson: bool = False):
        self.heuristic = heuristic
        self.with_tec = with_tec
        self.with_pearson = with_pearson
        self.tvig = Tvig(formula.num_vars, alpha)
        self.tvig.add_formula(formula)
        self.samples: list[CorrelationSample] = []

    def on_conflict(self, solver, analysis):
        self.tvig.advance()
        self.tvig.add_clause(analysis.learnt)

    def on_sample(self, solver, iteration):
        acts = self.heuristic.table.normalized()
        mask = solver.assigned_mask
        all_assigned = bool(mask.all())
        top_var = None if all_assigned else self.heuristic.pick(mask)
        sample = CorrelationSample(sample_time=iteration)
        tdc = degree_centrality(self.tvig)
        sample.spearman_tdc = spearman(acts[1:], tdc.scores[1:])
        if self.with_pearson:
            sample.pearson_tdc = pearson(acts[1:], tdc.scores[1:])
        if top_var is not None:
            sample.top1_tdc = top_k(top_var, tdc, mask, 1)
            sample.top10_tdc = top_k(top_var, tdc, mask, 10)
        if self.with_tec:
            tec = eigenvector_centrality(self.tvig)
            sample.spearman_tec = spearman(acts[1:], tec.scores[1:])
            if top_var is not None:
                sample.top1_tec = top_k(top_var, tec, mask, 1)
                sample.top10_tec = top_k(top_var, tec, mask, 10)
        self.samples.append(sample)


# -- experiment runners ------------------------------------------------------


def load_instances(cnf_paths, communities_dir: str | Path | None = None) -> list[Instance]:
    """Parse DIMACS files; pick up ``<stem>.comm`` assignments when available."""
    instances = []
    for p in sorted(Path(p) for p in cnf_paths):
        formula = parse_dimacs_file(p)
        communities = None
        if communities_dir is not None:
            comm_path = Path(communities_dir) / (p.stem + ".comm")
            if comm_path.exists():
                mapping = read_community_file(comm_path)
                communities = assignment_from_mapping(build_vig(formula), mapping)
        instances.append(Instance(p.stem, formula, communities))
    return instances


def _run_config(plan: RunPlan, heuristic_name: str) -> SolverConfig:
    return replace(plan.config, heuristic=heuristic_name, timeout_s=plan.timeout_s)


def _base_record(instance: Instance, heuristic_name: str, result) -> InstanceRecord:
    st = result.stats
    return InstanceRecord(
        instance=instance.name,
        heuristic=heuristic_name,
        status=result.status,
        wall_time_s=st.wall_time_s,
        decisions=st.decisions,
        conflicts=st.conflicts,
        propagations=st.propagations,
        restarts=st.restarts,
        solved=1 if result.status in (SAT, UNSAT) else 0,
    )


def _ensure_communities(instance: Instance, plan: RunPlan) -> CommunityAssignment:
    """The instance's communities, detected with Louvain if it has none."""
    if instance.communities is not None:
        return instance.communities
    return louvain(build_vig(instance.formula), seed=plan.louvain_seed,
                   time_budget_s=plan.louvain_budget_s)


def _run_focus_instance(instance: Instance, heuristic_name: str, plan: RunPlan) -> InstanceRecord:
    assignment = instance.communities
    bridges = bridge_variables(instance.formula, assignment)
    cfg = _run_config(plan, heuristic_name)
    heuristic = make_heuristic(cfg, instance.formula.num_vars)
    counters = FocusCounters.for_run(assignment, bridges)
    result = Solver(instance.formula, cfg, heuristic,
                    FocusHook(counters, heuristic)).solve()
    record = _base_record(instance, heuristic_name, result)
    record.modularity = assignment.modularity
    record.num_communities = assignment.num_communities
    pcts = bridge_percentages(counters)
    record.bridge_variables_pct = pcts.variables
    record.bridge_picked_pct = pcts.picked
    record.bridge_bumped_pct = pcts.bumped
    record.bridge_learnt_pct = pcts.learnt
    if counters.picks_total == 0:
        record.excluded = True
        record.note = "zero decisions"
    else:
        record.ss = spatial_score(counters, assignment)
        record.ts = temporal_score(counters.decision_community_log,
                                   assignment.num_communities)
    return record


def _summarize_samples(record: InstanceRecord, samples, with_tec: bool,
                       with_pearson: bool) -> None:
    record.num_samples = len(samples)
    if not samples:
        record.excluded = True
        record.note = "solved before the first sampling boundary"
        return

    def collect(attr):
        return [getattr(s, attr) for s in samples if getattr(s, attr) is not None]

    rho = collect("spearman_tdc")
    if rho:
        record.mean_spearman_tdc = fisher_mean(rho)
        record.min_spearman_tdc = min(rho)
    t1, t10 = collect("top1_tdc"), collect("top10_tdc")
    record.mean_top1_tdc = float(np.mean(t1)) if t1 else None
    record.mean_top10_tdc = float(np.mean(t10)) if t10 else None
    if with_pearson:
        pr = collect("pearson_tdc")
        record.mean_pearson_tdc = fisher_mean(pr) if pr else None
    if with_tec:
        rho_e = collect("spearman_tec")
        record.mean_spearman_tec = fisher_mean(rho_e) if rho_e else None
        e1, e10 = collect("top1_tec"), collect("top10_tec")
        record.mean_top1_tec = float(np.mean(e1)) if e1 else None
        record.mean_top10_tec = float(np.mean(e10)) if e10 else None


def _run_correlation_instance(instance: Instance, heuristic_name: str,
                              plan: RunPlan) -> InstanceRecord:
    cfg = _run_config(plan, heuristic_name)
    heuristic = make_heuristic(cfg, instance.formula.num_vars)
    hook = CorrelationHook(instance.formula, heuristic, plan.tvig_alpha, with_tec=True)
    result = Solver(instance.formula, cfg, heuristic, hook).solve()
    record = _base_record(instance, heuristic_name, result)
    _summarize_samples(record, hook.samples, with_tec=True, with_pearson=False)
    return record


def _run_theorem_instance(instance: Instance, heuristic_name: str,
                          plan: RunPlan) -> InstanceRecord:
    cfg = replace(_run_config(plan, heuristic_name), clause_deletion=False)
    hook = CorrelationHook(instance.formula, None, alpha=cfg.decay,
                           with_tec=False, with_pearson=True)
    # Seed the activities with the hook's temporal degree centrality at time 0;
    # a learnt unit clause adds no edge, so its bump is skipped to keep both
    # sides in lockstep (min_bump_size=2).
    heuristic = CvsidsHeuristic(instance.formula.num_vars, decay=cfg.decay,
                                initial_activities=hook.tvig.effective_degree(),
                                min_bump_size=2)
    hook.heuristic = heuristic
    result = Solver(instance.formula, cfg, heuristic, hook).solve()
    if result.stats.deleted_clauses != 0:
        raise AssertionError("theorem mode must never reduce the clause database")
    record = _base_record(instance, heuristic_name, result)
    _summarize_samples(record, hook.samples, with_tec=False, with_pearson=True)
    return record


def _run_plain_instance(instance: Instance, heuristic_name: str,
                        plan: RunPlan) -> InstanceRecord:
    cfg = _run_config(plan, heuristic_name)
    result = Solver(instance.formula, cfg).solve()
    return _base_record(instance, heuristic_name, result)


_RUNNERS = {
    "bridge": _run_focus_instance,
    "spatial": _run_focus_instance,
    "temporal": _run_focus_instance,
    "correlation": _run_correlation_instance,
    "theorem": _run_theorem_instance,
    "adapt-compare": _run_plain_instance,
}


def run_experiment(plan: RunPlan) -> ExperimentReport:
    """Run the plan's experiment over all instance x heuristic pairs."""
    notes: list[str] = []
    instances = list(plan.instances)
    if plan.experiment in ("bridge", "spatial", "temporal"):
        ready = []
        for inst in instances:
            try:
                communities = _ensure_communities(inst, plan)
            except LouvainTimeout:
                notes.append(f"{inst.name}: excluded, community detection timed out")
                continue
            ready.append(replace(inst, communities=communities))
        instances = ready
    runner = _RUNNERS[plan.experiment]
    records = [runner(inst, h, plan) for inst in instances for h in plan.heuristics]
    for r in records:
        if r.excluded and r.note:
            notes.append(f"{r.instance} [{r.heuristic}]: excluded, {r.note}")
    return ExperimentReport(plan.experiment, records, aggregate_records(records), notes)


def run_adapt_compare(plan: RunPlan) -> ExperimentReport:
    return run_experiment(replace(plan, experiment="adapt-compare"))


def run_theorem_mode(plan: RunPlan) -> ExperimentReport:
    return run_experiment(replace(plan, experiment="theorem"))
