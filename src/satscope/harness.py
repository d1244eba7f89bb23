"""Experiment orchestration: instrumented solver runs, sampling, aggregation, reports.

Every experiment runs the same job per instance x heuristic: a solve under
the plan's solver configuration, watched by the instrument the experiment
needs, whose ``fill`` then writes its results into the job's record.

* ``bridge``, ``spatial`` and ``temporal`` watch with a ``FocusHook``, which
  counts decisions, bumps and learnt clauses against a community assignment
  (the instance's own, or one found by Louvain) and the bridge variables it
  derives from the formula and that assignment.
* ``correlation`` watches with a ``CorrelationHook``, which samples the
  branching ranking against temporal degree and eigenvector centrality on
  its own schedule: every ``sample_interval`` decisions plus conflicts.
* ``theorem`` replays the controlled setting of the activity/centrality
  equivalence argument with a theorem-mode ``CorrelationHook`` (TDC only,
  Pearson beside Spearman): clause deletion off, cVSIDS activities seeded
  from the hook's initial temporal degree centrality, matching decay factors.
* ``adapt-compare`` runs unwatched and one solve at a time, so its wall times
  are plain, uncontended solve times for the cactus-plot data.

An instance whose file could not be read, or a focus instance whose community
detection times out or raises, carries a note instead of a formula; its jobs
are excluded records with that note, and the sweep goes on. A job that raises
(building its hook, solving or filling its record) becomes an excluded record
too, noted ``job failed``; in a shared solve, a hook that fails to build or
fill fails only its own instrument's records. A failed correctness check, the
solver's own (``SolverInternalError``, ``AssertionError``) or theorem mode's
clause-deletion check, still stops the sweep.

Each hook derives its own inputs from the formula (the focus hook its bridge
set, the correlation hook its temporal graph), so a job needs only its
formula, its instruments and its solver configuration. Plans of one sweep may
share a ``RunStore``, which keeps what is costly to recompute: solves and
Louvain communities. Its one table keys a trajectory by the formula's
identity, the instance name, the heuristic and the effective solver
configuration; under each key it keeps the formula and each instrument's
record once solved. An instrument names what it watches: a focus instrument
its community assignment, compared by identity. Plans given to
``RunStore(plans)`` enter their jobs at construction, others when they run.
The first job of a key that finds its instrument without a record solves
once under ``CompositeHooks`` with every instrument of the key that has none,
and later jobs copy their instrument's record. In the desk study the bridge plan solves
the mvsids trajectories and spatial the cvsids and random ones; temporal and
correlation only copy. A shared record's ``wall_time_s`` is the composite
solve's, both hooks' cost included. Theorem and adapt-compare jobs share only
within their own experiment: theorem's solves differ (clause deletion off,
seeded activities), and adapt-compare's solves stay unwatched.

``run_on_cores`` maps a function over argument tuples on the cores the
process may run on (``os.sched_getaffinity``): item ``i`` goes to worker
``i % W``, worker 0 is the process itself and the others are forked from it,
and the results come back in item order, so nothing depends on which
process ran what. Three phases use it: ``load_instances`` parses each file
and reads its ``.comm`` file, the desk script (``scripts/run_desk_study.py``)
generates and writes each suite instance with its communities, and an
experiment solves the keys its jobs need that have no record yet as one
batch. Loaded instances and solved records travel back to the process
pickled. Because worker 0 is the process, a traced run keeps the spans of
the process's share of every phase, set-up included. ``taskset -c 0`` runs
every phase serially in the process, as does a platform without
``sched_getaffinity``. Adapt-compare's batch always runs
serially in the process: its wall times are the cactus data over seconds,
and a solve near the timeout must not turn UNKNOWN because another
heuristic's solve shared its core. Every other record's ``wall_time_s`` is
taken while the workers compete for the cores, so it includes that
contention.

Aggregation is always "average of averages": correlations are Fisher-averaged
per instance first, then per-instance values are averaged across instances.
"""

from __future__ import annotations

import csv
import json
import os
import traceback
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .branching import HEURISTICS, CvsidsHeuristic
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
    bridge_percentages,
    fisher_mean,
    spatial_score,
    spearman,
    pearson,
    temporal_score,
    top_k,
)
from .solver import (
    SAT,
    UNSAT,
    InstrumentationHooks,
    Solver,
    SolverConfig,
    SolverInternalError,
)

EXPERIMENTS = ("bridge", "spatial", "temporal", "correlation", "adapt-compare", "theorem")
_FOCUS_EXPERIMENTS = ("bridge", "spatial", "temporal")

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
    """A named formula; ``formula`` is None and ``note`` says why if its file could not be read."""

    name: str
    formula: Formula | None
    communities: CommunityAssignment | None = None
    note: str | None = None


@dataclass
class RunPlan:
    """What to run: instances x heuristics under one solver configuration.

    Heuristic names must be in ``branching.HEURISTICS``, appear once and suit
    the experiment: correlation needs activities to rank (no ``random``), and
    theorem mode is cVSIDS only. The TVIG decay ``tvig_alpha`` must lie in
    (0, 1], ``sample_interval`` is at least 1, and ``louvain_budget_s`` is
    None (no limit) or positive seconds.
    """

    instances: list
    heuristics: list
    config: SolverConfig = field(default_factory=SolverConfig)
    experiment: str = "correlation"
    tvig_alpha: float = 0.95
    sample_interval: int = 5000
    louvain_seed: int = 0
    louvain_budget_s: float | None = 60.0
    runs: RunStore | None = field(default=None, repr=False, compare=False)
    """The store of a sweep: each trajectory is solved once, with every
    instrument its plans have entered, and jobs of different instruments copy
    their records from that one solve, whose wall time they carry. With
    ``None``, the plan keeps a store of its own."""

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for i, h in enumerate(self.heuristics):
            if h not in HEURISTICS:
                raise ValueError(f"unknown heuristic {h!r} (expected one of {HEURISTICS})")
            if h in self.heuristics[:i]:
                raise ValueError(f"heuristic {h!r} is given twice")
        if self.experiment == "correlation" and "random" in self.heuristics:
            raise ValueError("correlation needs activity-based heuristics; random has none")
        if self.experiment == "theorem" and any(h != "cvsids" for h in self.heuristics):
            raise ValueError("theorem mode runs cvsids only")
        if not 0.0 < self.tvig_alpha <= 1.0:
            raise ValueError(f"tvig_alpha must be in (0, 1], got {self.tvig_alpha}")
        if self.sample_interval < 1:
            raise ValueError(f"sample_interval must be >= 1, got {self.sample_interval}")
        if self.louvain_budget_s is not None and not self.louvain_budget_s > 0:
            raise ValueError(f"louvain_budget_s must be > 0, got {self.louvain_budget_s}")


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


def emit_report(report: ExperimentReport, path: str | Path, fmt: str = "json") -> None:
    """Write the report as JSON (records + aggregates + notes) or per-record CSV."""
    path = Path(path)
    if fmt == "json":
        payload = json.dumps(asdict(report), indent=2, sort_keys=True)
        path.write_text(payload + "\n")
    elif fmt == "csv":
        names = [f.name for f in fields(InstanceRecord)]
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


# -- instruments --------------------------------------------------------------


class CompositeHooks(InstrumentationHooks):
    def __init__(self, *hooks):
        self.hooks = [h for h in hooks if h is not None]

    def on_decision(self, solver, var):
        for h in self.hooks:
            h.on_decision(solver, var)

    def on_conflict(self, solver, analysis):
        for h in self.hooks:
            h.on_conflict(solver, analysis)


class FocusHook(InstrumentationHooks):
    """Counts decisions, bumps and learnt-clause occurrences against a community assignment.

    The hook marks the formula's bridge variables under ``assignment`` in
    ``is_bridge``, a bytearray whose items are plain Python ints; an
    assignment that does not cover exactly the formula's variables raises
    ``ValueError``. A decision is one append to ``decisions``; each conflict's
    bumped variables (the heuristic's bump set) and learnt-clause variables
    are counted at once rather than kept. ``fill`` writes the bridge
    percentages and both focus scores, derived from ``decisions``, into a
    record.
    """

    def __init__(self, formula: Formula, assignment: CommunityAssignment):
        if assignment.num_vars != formula.num_vars:
            raise ValueError(f"the community assignment covers {assignment.num_vars} "
                             f"variables, the formula has {formula.num_vars}")
        self.assignment = assignment
        self.is_bridge = bytearray(formula.num_vars + 1)
        for v in bridge_variables(formula, assignment):
            self.is_bridge[v] = 1
        self.decisions: list[int] = []
        self.bumps_total = self.bumps_bridge = 0
        self.learnt_occ_total = self.learnt_occ_bridge = 0

    def on_decision(self, solver, var):
        self.decisions.append(var)

    def on_conflict(self, solver, analysis):
        bumped, learnt = solver.heuristic.bump_set(analysis), analysis.learnt_vars
        self.bumps_total += len(bumped)
        self.bumps_bridge += _count_marked(self.is_bridge, bumped)
        self.learnt_occ_total += len(learnt)
        self.learnt_occ_bridge += _count_marked(self.is_bridge, learnt)

    def fill(self, record: InstanceRecord) -> None:
        assignment, decisions, is_bridge = self.assignment, self.decisions, self.is_bridge
        record.modularity = assignment.modularity
        record.num_communities = assignment.num_communities
        (record.bridge_variables_pct, record.bridge_picked_pct, record.bridge_bumped_pct,
         record.bridge_learnt_pct) = bridge_percentages(
            (is_bridge.count(1), len(is_bridge) - 1),
            (_count_marked(is_bridge, decisions), len(decisions)),
            (self.bumps_bridge, self.bumps_total),
            (self.learnt_occ_bridge, self.learnt_occ_total))
        if not decisions:
            record.excluded = True
            record.note = "zero decisions"
            return
        log = assignment.community_of[decisions]
        record.ss = spatial_score(log, assignment)
        record.ts = temporal_score(log, assignment.num_communities)


def _count_marked(mask: bytearray, variables) -> int:
    """How many of ``variables`` are set in ``mask``.

    A plain loop: on CPython 3.11 it counts about twice as fast as
    ``sum(map(mask.__getitem__, variables))``.
    """
    k = 0
    for v in variables:
        k += mask[v]
    return k


class CorrelationHook(InstrumentationHooks):
    """Maintains the temporal clause graph and samples ranking agreement.

    Whenever the solver's decisions plus conflicts reach a multiple of
    ``sample_interval``, the hook ranks the solver's heuristic against the
    graph's centralities. Spearman is computed over the full variable set;
    top-k ranks exclude the currently assigned variables, matching how a
    solver only ever branches on unassigned variables. With ``theorem`` set
    the hook samples what theorem mode checks: Pearson beside Spearman on
    TDC, and no TEC. The hook counts its samples and keeps one list per
    statistic of its defined values, in sample order; ``fill`` averages them
    into a record: correlations Fisher-averaged, top-k plainly.
    """

    def __init__(self, formula: Formula, alpha: float, sample_interval: int,
                 theorem: bool = False):
        self.sample_interval = sample_interval
        self.theorem = theorem
        self.tvig = Tvig(formula.num_vars, alpha)
        self.tvig.add_formula(formula)
        self.num_samples = 0
        self.spearman_tdc: list[float] = []
        self.pearson_tdc: list[float] = []
        self.spearman_tec: list[float] = []
        self.top1_tdc: list[int] = []
        self.top10_tdc: list[int] = []
        self.top1_tec: list[int] = []
        self.top10_tec: list[int] = []

    def on_decision(self, solver, var):
        self._sample(solver)

    def on_conflict(self, solver, analysis):
        self.tvig.advance()
        self.tvig.add_clause(analysis.learnt_vars)
        self._sample(solver)

    def _sample(self, solver) -> None:
        st = solver.stats
        if (st.decisions + st.conflicts) % self.sample_interval:
            return
        heuristic = solver.heuristic
        acts = heuristic.table.normalized()
        mask = solver.assigned_mask
        all_assigned = bool(mask.all())
        top_var = None if all_assigned else heuristic.pick(mask)
        self.num_samples += 1
        tdc = degree_centrality(self.tvig)
        rho = spearman(acts[1:], tdc.scores[1:])
        if rho is not None:
            self.spearman_tdc.append(rho)
        if self.theorem:
            r = pearson(acts[1:], tdc.scores[1:])
            if r is not None:
                self.pearson_tdc.append(r)
        if top_var is not None:
            self.top1_tdc.append(top_k(top_var, tdc, mask, 1))
            self.top10_tdc.append(top_k(top_var, tdc, mask, 10))
        if not self.theorem:
            tec = eigenvector_centrality(self.tvig)
            rho = spearman(acts[1:], tec.scores[1:])
            if rho is not None:
                self.spearman_tec.append(rho)
            if top_var is not None:
                self.top1_tec.append(top_k(top_var, tec, mask, 1))
                self.top10_tec.append(top_k(top_var, tec, mask, 10))

    def fill(self, record: InstanceRecord) -> None:
        record.num_samples = self.num_samples
        if not self.num_samples:
            record.excluded = True
            record.note = "solved before the first sampling boundary"
            return

        def fisher(values):
            return fisher_mean(values) if values else None

        def mean(values):
            return float(np.mean(values)) if values else None

        record.min_spearman_tdc = min(self.spearman_tdc) if self.spearman_tdc else None
        record.mean_spearman_tdc = fisher(self.spearman_tdc)
        record.mean_pearson_tdc = fisher(self.pearson_tdc)
        record.mean_spearman_tec = fisher(self.spearman_tec)
        record.mean_top1_tdc = mean(self.top1_tdc)
        record.mean_top10_tdc = mean(self.top10_tdc)
        record.mean_top1_tec = mean(self.top1_tec)
        record.mean_top10_tec = mean(self.top10_tec)


# -- experiments -----------------------------------------------------------------


def load_instances(cnf_paths, communities_dir: str | Path | None = None) -> list[Instance]:
    """Parse DIMACS files; pick up ``<stem>.comm`` assignments when available.

    The files are read on every usable core (``run_on_cores``), and the
    instances come back in path order. A file that fails to parse, or a
    community file that fails to read, gives an instance with no formula and
    a note saying why; experiments turn it into excluded records, so one bad
    file does not stop a sweep. A ``communities_dir`` that is not a directory
    raises ``NotADirectoryError``.
    """
    if communities_dir is not None and not Path(communities_dir).is_dir():
        raise NotADirectoryError(f"communities directory {communities_dir} is not a directory")
    paths = sorted(Path(p) for p in cnf_paths)
    return run_on_cores(_load_instance, [(p, communities_dir) for p in paths])


def _load_instance(path: Path, communities_dir: str | Path | None) -> Instance:
    """One file's instance, or one with a note if it or its ``.comm`` file fails to read."""
    try:
        formula = parse_dimacs_file(path)
        communities = None
        if communities_dir is not None:
            comm_path = Path(communities_dir) / (path.stem + ".comm")
            if comm_path.exists():
                communities = _read_assignment(formula, comm_path)
    except (OSError, ValueError) as exc:
        return Instance(path.stem, None, note=str(exc))
    return Instance(path.stem, formula, communities)


def _read_assignment(formula: Formula, comm_path: Path) -> CommunityAssignment:
    """The formula's community assignment from a ``.comm`` file; a ValueError names the file."""
    mapping = read_community_file(comm_path)
    try:
        return assignment_from_mapping(build_vig(formula), mapping)
    except ValueError as exc:
        raise ValueError(f"{comm_path}: {exc}") from exc


# The solver's and the harness's own correctness checks: these mean the code
# is wrong, not the job's input, so they stop the sweep.
_HARD_ERRORS = (SolverInternalError, AssertionError)


def _job_key(instance: Instance, heuristic_name: str, plan: RunPlan):
    """The job's trajectory key, its instrument and its effective solver configuration.

    A trajectory depends only on the formula, the heuristic and the effective
    configuration, so focus and correlation jobs that agree on those share a
    key, and one solve can carry both instruments. The key holds the
    formula's identity beside the instance name, and a focus instrument its
    community assignment, which compares by identity. Theorem jobs (clause
    deletion off, seeded activities) and adapt-compare jobs (plain solves,
    whose wall times are the cactus data) get keys of their own. An instrument names only the
    plan settings it reads: theorem's TVIG decay is ``cfg.decay``, not
    ``tvig_alpha``.
    """
    cfg = replace(plan.config, heuristic=heuristic_name)
    if plan.experiment == "theorem":
        cfg = replace(cfg, clause_deletion=False)
        kind, instrument = "theorem", ("theorem", plan.sample_interval)
    elif plan.experiment == "adapt-compare":
        kind, instrument = "plain", ("plain",)
    elif plan.experiment == "correlation":
        kind, instrument = "watched", ("correlation", plan.tvig_alpha, plan.sample_interval)
    else:
        kind, instrument = "watched", ("focus", instance.communities)
    return (instance.name, id(instance.formula), astuple(cfg), kind), instrument, cfg


class RunStore:
    """What the plans of one sweep share: solves and Louvain communities.

    One table maps each trajectory key to its formula and, per instrument,
    the instrument's record once solved. A focus instrument names the
    community assignment it watches, so two assignment objects are two
    instruments even when they are equal. A plan given to ``RunStore(plans)``
    enters its jobs up front; any other plan enters them when it runs.
    Entering a focus plan finds its communities, so Louvain runs once per
    instance, formula, seed and budget. A job whose instrument has a record
    copies it; otherwise one solve, in the batch ``records`` runs, fills
    every instrument of its key that has none. The module docstring says
    which jobs share a key. Records go in and out as copies, so editing one
    report changes no other. ``solved`` and ``copied`` count the jobs that
    ran a solve and those that copied an earlier solve's record.
    """

    def __init__(self, plans=()):
        self.solved = 0
        self.copied = 0
        # Entries keep the formulas whose ids key them, so no id is reused while they live.
        self._runs: dict[tuple, tuple] = {}  # key -> (formula, {instrument: record or None})
        self._communities: dict[tuple, tuple] = {}  # -> (formula, assignment or note)
        for plan in plans:
            self._register(plan)

    def _register(self, plan: RunPlan) -> list[Instance]:
        """Enter the plan's jobs; its instances, a focus plan's with their communities."""
        instances = plan.instances
        if plan.experiment in _FOCUS_EXPERIMENTS:
            instances = [self.communities(inst, plan) for inst in instances]
        for inst in instances:
            if inst.formula is None:
                continue
            for h in plan.heuristics:
                key, instrument, _ = _job_key(inst, h, plan)
                self._runs.setdefault(key, (inst.formula, {}))[1].setdefault(instrument, None)
        return instances

    def communities(self, instance: Instance, plan: RunPlan) -> Instance:
        """The instance with communities: its own, or what Louvain finds under the plan's settings.

        If Louvain times out or raises, the instance loses its formula and gets
        a note instead, so its jobs become excluded records.
        """
        if instance.formula is None or instance.communities is not None:
            return instance
        key = (instance.name, id(instance.formula), plan.louvain_seed, plan.louvain_budget_s)
        if key not in self._communities:
            try:
                found = louvain(build_vig(instance.formula), seed=plan.louvain_seed,
                                time_budget_s=plan.louvain_budget_s)
            except LouvainTimeout:
                found = "community detection timed out"
            except _HARD_ERRORS:
                raise
            except Exception as exc:  # as for a job: one bad instance must not abort the sweep
                found = f"community detection failed: {exc!r}"
            self._communities[key] = (instance.formula, found)
        found = self._communities[key][1]
        if isinstance(found, str):
            return replace(instance, formula=None, note=found)
        return replace(instance, communities=found)

    def records(self, jobs, plan: RunPlan) -> list[InstanceRecord]:
        """The records of the entered ``(instance, heuristic)`` jobs, in their order.

        Every key whose job finds its instrument without a record is solved
        first, all of them in one batch, and each solve fills every instrument
        of its key that has none; then each job copies its instrument's record.
        The batch runs on every usable core, except a batch of plain
        (adapt-compare) keys, which runs serially so no solve's wall time
        depends on what shared its core.
        """
        entries, batch = [], {}  # per job its (records, instrument) or None; key -> cfg
        for instance, heuristic_name in jobs:
            if instance.formula is None:
                entries.append(None)
                continue
            key, instrument, cfg = _job_key(instance, heuristic_name, plan)
            entries.append((self._runs[key][1], instrument))
            if entries[-1][0][instrument] is None:
                batch.setdefault(key, cfg)
        todo = []  # per key: name, formula, cfg and the instruments without a record
        for key, cfg in batch.items():
            formula, records = self._runs[key]
            todo.append((key[0], formula, cfg, [i for i, r in records.items() if r is None]))
        workers = 1 if any(key[3] == "plain" for key in batch) else None
        for key, job, solved in zip(batch, todo, run_on_cores(_solve_job, todo, workers)):
            self._runs[key][1].update(zip(job[3], solved))
        self.solved += len(batch)
        self.copied += sum(entry is not None for entry in entries) - len(batch)
        return [InstanceRecord(inst.name, h, excluded=True, note=inst.note) if entry is None
                else replace(entry[0][entry[1]]) for (inst, h), entry in zip(jobs, entries)]


def _build_hook(instrument: tuple, formula: Formula, cfg: SolverConfig):
    kind = instrument[0]
    if kind == "focus":
        return FocusHook(formula, instrument[1])
    if kind == "correlation":
        return CorrelationHook(formula, *instrument[1:])
    if kind == "theorem":
        return CorrelationHook(formula, cfg.decay, instrument[1], theorem=True)
    return None


def _job_failed(name: str, heuristic_name: str, exc: Exception) -> InstanceRecord:
    return InstanceRecord(name, heuristic_name, excluded=True, note=f"job failed: {exc!r}")


def _solve_job(name: str, formula: Formula, cfg: SolverConfig, instruments: list) -> list:
    """One solve of the named formula watched by each instrument; their records, in order.

    A hook that fails to build, or whose ``fill`` raises, gives an excluded
    record for its own instrument; an exception in the solve gives one for
    every instrument. So one crashed job does not stop the sweep, but a
    failed correctness check (``_HARD_ERRORS``) is raised instead.
    """
    heuristic_name = cfg.heuristic
    records, hooks = [None] * len(instruments), {}  # hooks: instrument position -> hook
    for i, instrument in enumerate(instruments):
        try:
            hooks[i] = _build_hook(instrument, formula, cfg)
        except _HARD_ERRORS:
            raise
        except Exception as exc:  # one crashed job must not abort the sweep
            records[i] = _job_failed(name, heuristic_name, exc)
    if not hooks:
        return records
    theorem = next((hooks[i] for i in hooks if instruments[i][0] == "theorem"), None)
    watching = [hook for hook in hooks.values() if hook is not None]
    try:
        heuristic = None
        if theorem is not None:
            # Seed the activities with the hook's temporal degree centrality at
            # time 0; a learnt unit clause adds no edge, so its bump is skipped to
            # keep both sides in lockstep (min_bump_size=2).
            heuristic = CvsidsHeuristic(formula.num_vars, decay=cfg.decay, min_bump_size=2)
            heuristic.table.activity[:] = theorem.tvig.effective_degree()
        observer = CompositeHooks(*watching) if len(watching) > 1 else next(iter(watching), None)
        result = Solver(formula, cfg, heuristic, observer).solve()
        st = result.stats
        if theorem is not None and st.deleted_clauses != 0:
            raise AssertionError("theorem mode must never reduce the clause database")
    except _HARD_ERRORS:
        raise
    except Exception as exc:  # one crashed job must not abort the sweep
        for i in hooks:
            records[i] = _job_failed(name, heuristic_name, exc)
        return records
    base = InstanceRecord(
        instance=name,
        heuristic=heuristic_name,
        status=result.status,
        wall_time_s=st.wall_time_s,
        decisions=st.decisions,
        conflicts=st.conflicts,
        propagations=st.propagations,
        restarts=st.restarts,
        solved=1 if result.status in (SAT, UNSAT) else 0,
    )
    for i, hook in hooks.items():
        record = replace(base)
        try:
            if hook is not None:
                hook.fill(record)
        except _HARD_ERRORS:
            raise
        except Exception as exc:  # as for the solve: one instrument's failure stays its own
            record = _job_failed(name, heuristic_name, exc)
        records[i] = record
    return records


def _usable_cores() -> int:
    """The number of cores this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


class _RemoteTraceback(Exception):
    """A forked worker's formatted traceback, chained as the ``__cause__`` of its exception."""


def _run_share(fn, items: list, worker: int, workers: int, conn) -> None:
    """A forked worker's part of ``run_on_cores``: items ``worker``, ``worker + workers``, ...

    It sends ``(index, result)`` for each of its items in one message, or the
    exception that stopped it with its formatted traceback, which pickling
    would drop.
    """
    try:
        share = [(i, fn(*items[i])) for i in range(worker, len(items), workers)]
    except Exception as exc:
        share = (exc, traceback.format_exc())
    conn.send(share)
    conn.close()


def run_on_cores(fn, items: list, workers: int | None = None) -> list:
    """``fn(*item)`` for each argument tuple ``item`` of ``items``, in their order.

    The items run on ``workers`` workers (by default one per usable core), at
    most one per item: item ``i`` goes to worker ``i % W``. Worker 0 is this
    process, so it always runs the first item; the others are forked
    children, which send their results back pickled through a pipe once
    their share is done. Worker 0 must stay this process: a forked child's
    process-wide state dies with it, so a tracer (``perfbench/run.py --trace
    1``) records spans only for this process's share, and its check that
    every layer recorded spans passes only because this process runs the
    first item of every map. An exception that escapes ``fn`` in any worker
    stops the map and is raised here; a child's carries the child's
    traceback as its ``__cause__``. A child that exits without sending its
    results raises ``RuntimeError``. This process looks at the pipes after
    each of its own items, so a child's failure stops the map at most one of
    this process's items after it happened. No child outlives the call.
    """
    workers = max(1, min(_usable_cores() if workers is None else workers, len(items)))
    children, pending, results = [], {}, {}  # pending: receiver -> child, until its share is in

    def collect(receivers) -> None:
        for receive in receivers:
            child = pending.pop(receive)
            try:
                share = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a worker exited with code {child.exitcode} "
                                   "without sending its records") from None
            if isinstance(share, tuple):
                exc, remote_traceback = share
                raise exc from _RemoteTraceback(remote_traceback)
            results.update(share)

    try:
        if workers > 1:
            # Imported here: a process that only solves never loads it.
            import multiprocessing
            from multiprocessing.connection import wait

            context = multiprocessing.get_context("fork")
            for worker in range(1, workers):
                receive, send = context.Pipe(duplex=False)
                child = context.Process(target=_run_share, daemon=True,
                                        args=(fn, items, worker, workers, send))
                child.start()
                send.close()
                children.append((child, receive))
                pending[receive] = child
        for i in range(0, len(items), workers):
            results[i] = fn(*items[i])
            if pending:
                collect(wait(list(pending), timeout=0))
        collect(list(pending))
    finally:
        for child, receive in children:
            receive.close()
            if child.is_alive():
                child.terminate()
            child.join()
    return [results[i] for i in range(len(items))]


def run_experiment(plan: RunPlan) -> ExperimentReport:
    """Run the plan's experiment over all instance x heuristic pairs.

    Focus experiments find the communities of an instance that has none by
    Louvain. If that times out or raises, the instance loses its formula and
    gets a note, so its jobs become excluded records. Without a shared
    ``plan.runs`` the plan keeps a store of its own.
    """
    runs = plan.runs if plan.runs is not None else RunStore()
    instances = runs._register(plan)
    records = runs.records([(inst, h) for inst in instances for h in plan.heuristics], plan)
    notes = [f"{r.instance} [{r.heuristic}]: excluded, {r.note}"
             for r in records if r.excluded and r.note]
    return ExperimentReport(plan.experiment, records, aggregate_records(records), notes)
