"""The benchmark workloads: set-up, one pass of jobs, and output checks.

Every workload is a closed loop with one client: jobs (instance x heuristic)
run back to back in this process, each stopped by a conflict budget, never by
a wall-clock budget. Instances come only from the seed; the program sees only
the DIMACS text of each generated formula, parsed with ``cnf.parse_dimacs``.

Module functions are called through their modules (``cnf.parse_dimacs``, not
a name imported here) so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from satscope import cnf, generator, harness, solver

HEURISTICS = ("cvsids", "mvsids", "adaptvsids", "random")

# Theorem-mode tolerances of acceptance check C2.
THEOREM_MIN_MEAN_PEARSON = 0.99
THEOREM_MIN_SPEARMAN = 0.999


@dataclass
class Instance:
    name: str
    generated: object  # the Formula as generated, for re-checking models
    formula: object  # the Formula parsed back from its DIMACS text


@dataclass
class Job:
    """One solver run. Jobs with the same ``key`` must follow one trajectory."""

    instance: str
    heuristic: str
    label: str  # "plain", "hooked" or the desk experiment name
    key: tuple
    role: str  # the job's side of the overhead ratio: "plain", "hooked" or "other"
    status: str
    decisions: int
    conflicts: int
    propagations: int
    solve_s: float  # the solver's own wall time (SolverStats.wall_time_s)

    def trajectory(self) -> tuple:
        return (self.instance, self.heuristic, self.label, self.status,
                self.decisions, self.conflicts, self.propagations)


@dataclass
class PassResult:
    jobs: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)


def _instance(name: str, formula) -> Instance:
    return Instance(name, formula, cnf.parse_dimacs(cnf.write_dimacs(formula)))


def _random(seed: int, n: int, ratio: float = 4.26) -> Instance:
    f = generator.gen_random_ksat(n, round(ratio * n), 3, seed=seed)
    return _instance(f"random{n}-s{seed}", f)


def _planted(seed: int, n: int = 2000) -> Instance:
    cfg = generator.PlantedConfig(n, n // 100, 4 * n, 3, 0.8, seed=seed)
    formula, _ = generator.gen_planted_community(cfg)
    return _instance(f"planted{n}-s{seed}", formula)


def _model_ok(formula, model) -> bool:
    return all(any(model[abs(l)] == (l > 0) for l in c.lits) for c in formula.clauses)


def _run(out: PassResult, inst: Instance, heuristic: str, label: str,
         make_solver, ctx) -> Job | None:
    """Run one job; an exception or a bad SAT model is recorded as a failure."""
    out.attempted += 1
    try:
        with ctx.span():
            result = make_solver().solve()
    except Exception as exc:  # one crashed job must not abort the run
        out.failures.append(f"{inst.name}/{heuristic}/{label}: {exc!r}")
        return None
    if result.status == solver.SAT and not _model_ok(inst.generated, result.model):
        out.failures.append(f"{inst.name}/{heuristic}/{label}: model violates the formula")
    st = result.stats
    job = Job(inst.name, heuristic, label, (inst.name, heuristic), label, result.status,
              st.decisions, st.conflicts, st.propagations, st.wall_time_s)
    out.jobs.append(job)
    return job


class Solve:
    """Plain solves: every heuristic on random 3-SAT and on a planted instance.

    Each job also runs once more with the no-op ``InstrumentationHooks`` base
    observer; the pair gives the hook-dispatch overhead and a non-interference
    check, while throughput counts the plain runs only.
    """

    modules = {"cnf", "generator", "community", "graph", "solver", "branching"}
    timed_roles = {"plain"}
    budget = 800

    def setup(self, seed: int):
        return [_random(seed * 100 + 1, 200), _random(seed * 100 + 2, 250),
                _planted(seed * 100 + 3)]

    def run_pass(self, insts, seed: int, ctx) -> PassResult:
        out = PassResult()
        pairs = [(inst, h) for inst in insts for h in HEURISTICS]
        for i, (inst, h) in enumerate(pairs):
            cfg = solver.SolverConfig(heuristic=h, seed=seed, conflict_budget=self.budget)
            variants = [("plain", None), ("hooked", solver.InstrumentationHooks())]
            # Alternate which variant runs first, so that neither side of the
            # overhead ratio always pays for running first.
            for label, hooks in variants[::-1] if i % 2 else variants:
                _run(out, inst, h, label,
                     lambda: solver.Solver(inst.formula, cfg, hooks=hooks), ctx)
        return out


def _theorem_check(rec) -> list[str]:
    where = f"{rec.instance}/theorem"
    if rec.excluded:
        return [f"{where}: excluded ({rec.note})"]
    if rec.mean_pearson_tdc is None or rec.mean_pearson_tdc < THEOREM_MIN_MEAN_PEARSON:
        return [f"{where}: mean Pearson {rec.mean_pearson_tdc}"]
    if rec.min_spearman_tdc is None or rec.min_spearman_tdc < THEOREM_MIN_SPEARMAN:
        return [f"{where}: min Spearman {rec.min_spearman_tdc}"]
    return []


class Desk:
    """The desk-study pipeline of ``scripts/run_desk_study.py`` on a reduced suite."""

    modules = {"cnf", "generator", "community", "graph", "centrality", "metrics",
               "solver", "branching", "harness"}
    timed_roles = {"plain", "hooked", "other"}
    planted = 4
    random = 2
    budget = 500

    def __init__(self, root: Path, tmp_root: Path):
        self.tmp_root = tmp_root
        path = root / "scripts" / "run_desk_study.py"
        spec = importlib.util.spec_from_file_location("run_desk_study", path)
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)

    def _argv(self, out: Path, seed: int) -> list[str]:
        return ["--out", str(out), "--seed", str(seed),
                "--planted", str(self.planted), "--random", str(self.random),
                "--conflict-budget", str(self.budget)]

    def setup(self, seed: int):
        out = Path(tempfile.mkdtemp(dir=self.tmp_root))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.script.build_suite(out, seed, self.planted, self.random)
            harness.load_instances(sorted((out / "instances").glob("*.cnf")),
                                   out / "communities")
        finally:
            shutil.rmtree(out)
        return None

    def run_pass(self, _, seed: int, ctx) -> PassResult:
        out = PassResult()
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        plans = []  # the RunPlans the script runs, in its order
        try:
            with ctx.span(), contextlib.redirect_stdout(io.StringIO()), \
                    _observe_experiments(self.script, ctx, plans):
                code = self.script.main(self._argv(tmp, seed))
            if code != 0:
                raise RuntimeError(f"desk study exited with {code}")
            missing = set(harness.EXPERIMENTS) - {plan.experiment for plan in plans}
            if missing:
                raise RuntimeError(f"desk study skipped {sorted(missing)}")
            reports = [json.loads((tmp / "reports" / f"{plan.experiment}.json").read_text())
                       for plan in plans]
        except Exception as exc:  # report the failure, keep the run going
            out.attempted += 1
            out.failures.append(f"desk: {exc!r}")
            return out
        finally:
            shutil.rmtree(tmp)
        for plan, report in zip(plans, reports):
            exp, records = plan.experiment, report["records"]
            expected = len(plan.instances) * len(plan.heuristics)
            out.attempted += len(records)
            if len(records) != expected:
                out.failures.append(f"desk {exp}: {len(records)} records, expected {expected}")
            for r in records:
                kind = "theorem" if exp == "theorem" else "base"
                role = {"adapt-compare": "plain", "correlation": "hooked"}.get(exp, "other")
                out.jobs.append(Job(r["instance"], r["heuristic"], exp,
                                    (r["instance"], r["heuristic"], kind), role,
                                    r["status"], r["decisions"], r["conflicts"],
                                    r["propagations"], r["wall_time_s"]))
                if exp == "theorem" and not r["excluded"]:
                    out.failures.extend(_theorem_check(harness.InstanceRecord(**r)))
        return out


@contextlib.contextmanager
def _observe_experiments(script, ctx, plans):
    """Note each plan the desk study runs, and let the runner sample the host before it."""
    def run_experiment(plan):
        plans.append(plan)
        ctx.between()
        return harness.run_experiment(plan)

    previous, script.run_experiment = script.run_experiment, run_experiment
    try:
        yield
    finally:
        script.run_experiment = previous


def make(name: str, root: Path, tmp_root: Path):
    if name == "desk":
        return Desk(root, tmp_root)
    return Solve()
