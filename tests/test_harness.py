import json
import multiprocessing
import os
import random
import re
import time
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import DecisionLogHook, count_solves, emit_untimed, report_from_json
from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.harness import (
    DEFAULT_HEURISTICS,
    EXPERIMENTS,
    CompositeHooks,
    CorrelationHook,
    ExperimentReport,
    FocusHook,
    Instance,
    InstanceRecord,
    RunPlan,
    RunStore,
    aggregate_records,
    emit_report,
    load_instances,
    run_experiment,
    write_cactus_csv,
)
from satscope.community import CommunityAssignment, louvain, write_community_file
from satscope.graph import build_vig
from satscope.cnf import Clause, Formula, parse_dimacs, write_dimacs_file
from satscope.metrics import spatial_score, temporal_score
from satscope.solver import InstrumentationHooks, Solver, SolverConfig, SolverInternalError


def planted_instances(count, seed0=0, **kw):
    params = dict(num_vars=200, num_communities=4, num_clauses=860,
                  clause_len=3, intra_probability=0.8)
    params.update(kw)
    out = []
    for i in range(count):
        cfg = PlantedConfig(seed=seed0 + i, **params)
        f, planted = gen_planted_community(cfg)
        out.append(Instance(f"planted{i}", f, planted))
    return out


def base_plan(instances, experiment, heuristics=("mvsids",), sample_interval=100, **cfg_kw):
    cfg = SolverConfig(seed=1, conflict_budget=cfg_kw.pop("conflict_budget", 400), **cfg_kw)
    return RunPlan(instances=instances, heuristics=list(heuristics), config=cfg,
                   experiment=experiment, sample_interval=sample_interval)


# -- sampling mechanics --------------------------------------------------------


def test_sample_count_matches_iterations():
    inst = planted_instances(1)[0]
    plan = base_plan([inst], "correlation", heuristics=["cvsids"], sample_interval=50)
    report = run_experiment(plan)
    rec = report.records[0]
    assert rec.num_samples == (rec.decisions + rec.conflicts) // 50


def test_correlation_hook_samples_on_its_own_schedule():
    f = gen_random_ksat(60, 256, 3, seed=4)
    interval = 7
    correlation = CorrelationHook(f, alpha=0.95, sample_interval=interval)

    class Recorder(InstrumentationHooks):
        """Runs after the correlation hook and checks when its sample count grew."""

        def __init__(self):
            self.seen = 0
            self.grew_on = set()

        def check(self, solver, event):
            st = solver.stats
            grew = correlation.num_samples - self.seen
            assert grew == ((st.decisions + st.conflicts) % interval == 0)
            if grew:
                self.grew_on.add(event)
            self.seen += grew

        def on_decision(self, solver, var):
            self.check(solver, "decision")

        def on_conflict(self, solver, analysis):
            self.check(solver, "conflict")

    recorder = Recorder()
    cfg = SolverConfig(seed=0, conflict_budget=300)
    st = Solver(f, cfg, hooks=CompositeHooks(correlation, recorder)).solve().stats
    assert recorder.grew_on == {"decision", "conflict"}
    assert correlation.num_samples == (st.decisions + st.conflicts) // interval


def test_instance_solved_before_first_sample_excluded():
    f = gen_random_ksat(10, 30, 3, seed=1)
    plan = base_plan([Instance("tiny", f)], "correlation",
                     heuristics=["cvsids"], sample_interval=5000)
    report = run_experiment(plan)
    rec = report.records[0]
    assert rec.excluded and "sampling boundary" in rec.note
    assert any("tiny" in n for n in report.notes)


def test_correlation_reports_both_centralities():
    inst = planted_instances(1)[0]
    plan = base_plan([inst], "correlation", heuristics=["cvsids"], sample_interval=100)
    rec = run_experiment(plan).records[0]
    assert rec.mean_spearman_tdc is not None
    assert rec.mean_spearman_tec is not None
    assert rec.mean_top1_tdc is not None
    assert rec.mean_top10_tec is not None


# -- focus/bridge experiments ----------------------------------------------------


def test_bridge_experiment_records_percentages():
    plan = base_plan(planted_instances(2), "bridge")
    report = run_experiment(plan)
    for rec in report.records:
        assert rec.bridge_variables_pct is not None
        assert rec.bridge_picked_pct is not None
        assert rec.modularity is not None
    assert "mvsids" in report.aggregates


def test_pure_intra_instances_have_zero_picked_bridge_pct():
    plan = base_plan(planted_instances(2, intra_probability=1.0), "bridge")
    report = run_experiment(plan)
    for rec in report.records:
        assert rec.bridge_variables_pct == 0.0
        assert rec.bridge_picked_pct == 0.0


def test_random_3sat_bridge_pct_near_100():
    insts = [Instance(f"r{i}", gen_random_ksat(100, 426, 3, seed=40 + i)) for i in range(2)]
    plan = base_plan(insts, "bridge")
    plan = replace(plan, louvain_budget_s=60.0)
    report = run_experiment(plan)
    for rec in report.records:
        assert rec.bridge_variables_pct >= 95.0
        assert rec.bridge_picked_pct >= 95.0


def test_focus_experiment_scores_present_and_bounded():
    plan = base_plan(planted_instances(2), "spatial", heuristics=["mvsids", "random"])
    report = run_experiment(plan)
    for rec in report.records:
        assert 0.0 <= rec.ss <= 1.0
        assert 0.0 <= rec.ts <= 1.0


def test_noise_instances_score_low_spatial_focus():
    # p ~ 0 removes the planted structure; spatial focus should drop for the
    # activity heuristics and sit near zero for random branching. (Full-scale
    # magnitudes are not desk-reproducible; the comparison is directional.)
    structured = planted_instances(3, seed0=600, intra_probability=0.9)
    noise = []
    for i in range(3):
        cfg = PlantedConfig(200, 4, 860, 3, 0.0, seed=700 + i)
        f, _ = gen_planted_community(cfg)
        noise.append(Instance(f"noise{i}", f))
    results = {}
    for name, insts in (("structured", structured), ("noise", noise)):
        plan = base_plan(insts, "spatial", heuristics=["mvsids", "random"],
                         conflict_budget=1500)
        results[name] = run_experiment(plan).aggregates
    assert results["noise"]["mvsids"]["ss"] < results["structured"]["mvsids"]["ss"]
    assert results["noise"]["random"]["ss"] < 0.1


def test_louvain_timeout_excludes_instance():
    plan = base_plan(planted_instances(1), "bridge")
    plan.instances[0].communities = None
    plan = replace(plan, louvain_budget_s=1e-9)
    report = run_experiment(plan)
    [record] = report.records
    assert (record.instance, record.heuristic) == ("planted0", "mvsids")
    assert record.excluded and record.solved == 0
    assert record.note == "community detection timed out"
    assert report.notes == ["planted0 [mvsids]: excluded, community detection timed out"]


# -- theorem mode ------------------------------------------------------------------


def test_theorem_mode_seeded_equality_before_any_conflict():
    from satscope.branching import CvsidsHeuristic
    from satscope.centrality import degree_centrality
    from satscope.graph import Tvig
    from satscope.metrics import pearson

    f = planted_instances(1)[0].formula
    g = Tvig(f.num_vars, alpha=0.95)
    g.add_formula(f)
    tdc = degree_centrality(g)
    h = CvsidsHeuristic(f.num_vars, min_bump_size=2)
    h.table.activity[:] = g.effective_degree()
    assert pearson(h.table.normalized()[1:], tdc.scores[1:]) == pytest.approx(1.0)


def test_theorem_mode_tracks_tdc():
    plan = base_plan(planted_instances(2, num_vars=150, num_clauses=640), "theorem",
                     heuristics=["cvsids"], conflict_budget=800, sample_interval=100)
    report = run_experiment(plan)
    included = [r for r in report.records if not r.excluded]
    assert included
    for rec in included:
        assert rec.mean_pearson_tdc >= 0.99
        assert rec.min_spearman_tdc >= 0.999
        assert rec.mean_top10_tdc >= 0.95


def test_theorem_mode_rejects_other_heuristics():
    with pytest.raises(ValueError, match="cvsids only"):
        base_plan(planted_instances(1), "theorem", heuristics=["cvsids", "mvsids"])


def test_correlation_rejects_random_heuristic():
    with pytest.raises(ValueError, match="activity"):
        base_plan(planted_instances(1), "correlation", heuristics=["random"])


# -- adapt compare ------------------------------------------------------------------


def test_adapt_compare_counts_and_cactus(tmp_path):
    insts = [Instance(f"r{i}", gen_random_ksat(40, 168, 3, seed=60 + i)) for i in range(3)]
    plan = base_plan(insts, "adapt-compare", heuristics=["mvsids", "adaptvsids"],
                     conflict_budget=2000)
    report = run_experiment(plan)
    assert {r.heuristic for r in report.records} == {"mvsids", "adaptvsids"}
    for h in ("mvsids", "adaptvsids"):
        assert "solved_count" in report.aggregates[h]
    cactus = tmp_path / "c.csv"
    write_cactus_csv(report, cactus)
    lines = cactus.read_text().strip().splitlines()
    assert lines[0] == "heuristic,solved_count,seconds"
    solved_rows = len(lines) - 1
    assert solved_rows == sum(r.solved for r in report.records)


def test_adapt_compare_deterministic_counts():
    insts = [Instance(f"r{i}", gen_random_ksat(30, 126, 3, seed=80 + i)) for i in range(3)]
    counts = []
    for _ in range(2):
        plan = base_plan(insts, "adapt-compare", heuristics=["mvsids", "adaptvsids"],
                         conflict_budget=500)
        report = run_experiment(plan)
        counts.append(tuple(report.aggregates[h]["solved_count"] for h in ("adaptvsids", "mvsids")))
    assert counts[0] == counts[1]


# -- reports --------------------------------------------------------------------


def test_report_json_roundtrip(tmp_path):
    plan = base_plan(planted_instances(1), "bridge")
    report = run_experiment(plan)
    path = tmp_path / "r.json"
    emit_report(report, path, fmt="json")
    loaded = report_from_json(json.loads(path.read_text()))
    assert loaded.experiment == report.experiment
    assert loaded.records == report.records
    assert loaded.aggregates == json.loads(json.dumps(report.aggregates))
    assert loaded.notes == report.notes


def test_report_csv_header_only_when_empty(tmp_path):
    report = ExperimentReport("bridge", [], {}, [])
    path = tmp_path / "empty.csv"
    emit_report(report, path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("instance,heuristic,status")


def test_aggregates_recomputable_from_records(tmp_path):
    plan = base_plan(planted_instances(2), "spatial", heuristics=["mvsids", "random"])
    report = run_experiment(plan)
    path = tmp_path / "r.json"
    emit_report(report, path, fmt="json")
    payload = json.loads(path.read_text())
    records = [InstanceRecord(**r) for r in payload["records"]]
    recomputed = aggregate_records(records)
    assert json.loads(json.dumps(recomputed)) == payload["aggregates"]


def test_reports_byte_identical_across_runs(tmp_path):
    outs = []
    for run in range(2):
        plan = base_plan(planted_instances(2), "spatial", heuristics=["mvsids", "random"])
        report = run_experiment(plan)
        path = tmp_path / f"run{run}.json"
        emit_untimed(report, path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_detected_communities_leave_caller_instance_untouched():
    strip = lambda rep: [
        {k: v for k, v in rec.__dict__.items() if k != "wall_time_s"} for rec in rep.records
    ]
    f = gen_random_ksat(60, 255, 3, seed=11)
    inst = Instance("r", f)
    plan = base_plan([inst], "bridge")
    first = strip(run_experiment(plan))
    assert inst.communities is None
    # A second run detects the same communities again; giving them up front
    # yields the same records too.
    assert strip(run_experiment(plan)) == first
    given = Instance("r", f, louvain(build_vig(f), seed=plan.louvain_seed))
    assert strip(run_experiment(replace(plan, instances=[given]))) == first


def test_non_interference_of_instrumentation():
    # identical seeds: a fully instrumented run and a log-only run must make
    # the same decisions
    from satscope.branching import make_heuristic
    from satscope.solver import Solver

    for inst in planted_instances(3, num_vars=80, num_clauses=330):
        logs = []
        for instrumented in (True, False):
            cfg = SolverConfig(seed=5, conflict_budget=300)
            heuristic = make_heuristic(cfg, inst.formula.num_vars)
            recorder = DecisionLogHook()
            if instrumented:
                hooks = CompositeHooks(
                    recorder,
                    FocusHook(inst.formula, inst.communities),
                    CorrelationHook(inst.formula, alpha=0.95, sample_interval=50),
                )
            else:
                hooks = recorder
            Solver(inst.formula, cfg, heuristic, hooks).solve()
            logs.append(recorder.log)
        assert logs[0] == logs[1]


def test_focus_hook_counts_match_replayed_log():
    for seed, num_bridges in ((12, 10), (3, 0), (7, 30), (21, 2)):
        _check_focus_hook_against_replayed_log(seed, num_bridges)


def _check_focus_hook_against_replayed_log(seed, num_bridges):
    rng = random.Random(seed)
    n = 30
    community_of = [v % 5 for v in range(n)]
    rng.shuffle(community_of)
    bridges = set(rng.sample(range(1, n + 1), num_bridges))
    # One clause over the bridges makes exactly them the bridge variables once
    # it spans two communities; no clause at all leaves none.
    while bridges and len({community_of[v - 1] for v in bridges}) < 2:
        rng.shuffle(community_of)
    assignment = CommunityAssignment(np.array([-1] + community_of), 5, 0.0)
    formula = Formula(n, [Clause(tuple(sorted(bridges)))] if bridges else [])
    hook = FocusHook(formula, assignment)
    # A stub solver whose heuristic bumps the variables the conflict resolved.
    solver = SimpleNamespace(heuristic=SimpleNamespace(bump_set=lambda a: a.resolved_vars))
    events = []
    for _ in range(300):
        if rng.random() < 0.6:
            v = rng.randint(1, n)
            hook.on_decision(solver, v)
            events.append(("pick", v))
        else:
            # Sorted tuples, as the heuristics hand them over; cVSIDS and the
            # random heuristic bump nothing on some conflicts.
            bumped = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, 6))))
            learnt = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, 4))))
            hook.on_conflict(solver, SimpleNamespace(resolved_vars=bumped, learnt_vars=learnt))
            events.append(("conflict", bumped, learnt))
    picks = [e[1] for e in events if e[0] == "pick"]
    bump_events = [v for e in events if e[0] == "conflict" for v in e[1]]
    learnt_events = [v for e in events if e[0] == "conflict" for v in e[2]]
    picks_bridge = sum(1 for v in picks if v in bridges)
    assert hook.decisions == picks
    assert hook.bumps_total == len(bump_events)
    assert hook.bumps_bridge == sum(1 for v in bump_events if v in bridges)
    assert hook.learnt_occ_total == len(learnt_events)
    assert hook.learnt_occ_bridge == sum(1 for v in learnt_events if v in bridges)
    assert hook.is_bridge.count(1) == len(bridges)
    assert {v for v in range(n + 1) if hook.is_bridge[v]} == bridges
    record = InstanceRecord("replayed", "stub")
    hook.fill(record)
    assert record.bridge_variables_pct == 100.0 * len(bridges) / n
    assert record.bridge_picked_pct == 100.0 * picks_bridge / len(picks)
    assert record.bridge_bumped_pct == 100.0 * hook.bumps_bridge / len(bump_events)
    assert record.bridge_learnt_pct == 100.0 * hook.learnt_occ_bridge / len(learnt_events)
    log = [community_of[v - 1] for v in picks]
    assert (record.ss, record.ts) == (spatial_score(log, assignment), temporal_score(log, 5))
    assert (record.modularity, record.num_communities) == (0.0, 5)


def test_load_instances_with_communities(tmp_path):
    cfg = PlantedConfig(40, 4, 140, 3, 0.9, seed=5)
    f, planted = gen_planted_community(cfg)
    write_dimacs_file(f, tmp_path / "a.cnf")
    write_community_file(tmp_path / "a.comm", planted)
    insts = load_instances([tmp_path / "a.cnf"], tmp_path)
    assert insts[0].name == "a"
    assert insts[0].communities is not None
    assert np.array_equal(insts[0].communities.community_of, planted.community_of)



def test_load_instances_notes_unreadable_files(tmp_path):
    f = gen_random_ksat(20, 85, 3, seed=2)
    for name in ("a", "b", "c", "e"):
        write_dimacs_file(f, tmp_path / f"{name}.cnf")
    (tmp_path / "a.comm").write_text("1 0 7\n")
    (tmp_path / "b.comm").write_text("1 0\n")
    (tmp_path / "d.cnf").write_text("p cnf 2 1\n1 x 0\n")
    # A complete mapping plus one variable the 20-variable formula does not have.
    (tmp_path / "e.comm").write_text("".join(f"{v} 0\n" for v in range(1, 21)) + "99 3\n")
    insts = load_instances(sorted(tmp_path.glob("*.cnf")), tmp_path)
    assert [(i.name, i.formula is None) for i in insts] == [
        ("a", True), ("b", True), ("c", False), ("d", True), ("e", True)]
    assert "a.comm:1" in insts[0].note
    assert "b.comm" in insts[1].note and "misses variables" in insts[1].note
    assert insts[2].note is None and insts[2].communities is None
    assert "d.cnf" in insts[3].note and "non-integer token" in insts[3].note
    assert "e.comm" in insts[4].note and "variable 99, outside 1..20" in insts[4].note
    notes = {i.name: i.note for i in insts}
    heuristics = ["mvsids", "cvsids"]
    for experiment in ("bridge", "correlation", "adapt-compare"):
        report = run_experiment(base_plan(insts, experiment, heuristics))
        assert [(r.instance, r.heuristic) for r in report.records] == [
            (n, h) for n in "abcde" for h in heuristics]
        for r in report.records:
            if notes[r.instance] is not None:
                assert r.excluded and r.note == notes[r.instance] and r.solved == 0
        assert f"d [cvsids]: excluded, {notes['d']}" in report.notes


def without_timing(records):
    return [{k: v for k, v in asdict(r).items() if k != "wall_time_s"} for r in records]


def test_job_that_raises_becomes_excluded_record(monkeypatch):
    insts = planted_instances(3, num_vars=100, num_clauses=430)
    bad = insts[1]
    original = Solver.solve

    def solve(self):
        if self.formula is bad.formula:
            raise RuntimeError("boom")
        return original(self)

    monkeypatch.setattr(Solver, "solve", solve)
    for experiment in ("bridge", "correlation", "theorem", "adapt-compare"):
        heuristics = DEFAULT_HEURISTICS[experiment]
        plan = base_plan(insts, experiment, heuristics, conflict_budget=200)
        report = run_experiment(plan)
        failed = [r for r in report.records if r.instance == bad.name]
        assert len(failed) == len(heuristics)
        for r in failed:
            assert r.excluded and r.solved == 0 and r.note == "job failed: RuntimeError('boom')"
            assert f"{bad.name} [{r.heuristic}]: excluded, {r.note}" in report.notes
        alone = run_experiment(replace(plan, instances=[insts[0], insts[2]]))
        assert without_timing(r for r in report.records if r.instance != bad.name) == \
            without_timing(alone.records)


def test_theorem_clause_deletion_stays_a_hard_error(monkeypatch):
    original = Solver.solve

    def solve(self):
        result = original(self)
        result.stats.deleted_clauses = 1
        return result

    monkeypatch.setattr(Solver, "solve", solve)
    plan = base_plan(planted_instances(1), "theorem", heuristics=["cvsids"], conflict_budget=50)
    with pytest.raises(AssertionError, match="clause database"):
        run_experiment(plan)


@pytest.mark.parametrize("experiment", ["spatial", "correlation", "adapt-compare"])
def test_solver_model_check_stays_a_hard_error(monkeypatch, experiment):
    f = gen_random_ksat(30, 60, 3, seed=1)
    assert any(all(l > 0 for l in c.lits) for c in f.clauses)
    inst = Instance("r", f, louvain(build_vig(f), seed=0))
    assert run_experiment(base_plan([inst], experiment)).records[0].status == "SAT"
    # An all-false model falsifies every all-positive clause, so the
    # solver's own model check must fail.
    monkeypatch.setattr(Solver, "_extract_model",
                        lambda self: {v: False for v in range(1, self.nv + 1)})
    with pytest.raises(SolverInternalError, match="model does not satisfy"):
        run_experiment(base_plan([inst], experiment))


def test_solver_assertion_stays_a_hard_error(monkeypatch):
    def solve(self):
        raise AssertionError("conflict clause has no literal at the current level")

    monkeypatch.setattr(Solver, "solve", solve)
    with pytest.raises(AssertionError, match="current level"):
        run_experiment(base_plan(planted_instances(1), "spatial"))


def test_instance_whose_bridge_set_raises_gives_failed_jobs(monkeypatch):
    import satscope.harness as harness

    insts = planted_instances(3, num_vars=100, num_clauses=430)
    bad = insts[1]
    original = harness.bridge_variables

    def bridges(formula, assignment):
        if formula is bad.formula:
            raise ValueError("bad assignment")
        return original(formula, assignment)

    monkeypatch.setattr(harness, "bridge_variables", bridges)
    plan = base_plan(insts, "spatial", DEFAULT_HEURISTICS["spatial"], conflict_budget=200)
    report = run_experiment(plan)
    failed = [r for r in report.records if r.instance == bad.name]
    assert [r.heuristic for r in failed] == DEFAULT_HEURISTICS["spatial"]
    for r in failed:
        assert r.excluded and r.solved == 0
        assert r.note == "job failed: ValueError('bad assignment')"
        assert f"{bad.name} [{r.heuristic}]: excluded, {r.note}" in report.notes
    alone = run_experiment(replace(plan, instances=[insts[0], insts[2]]))
    assert without_timing(r for r in report.records if r.instance != bad.name) == \
        without_timing(alone.records)


# -- runs shared across plans -------------------------------------------------------


def sweep(instances, shared):
    plans = [base_plan(instances, e, DEFAULT_HEURISTICS[e], conflict_budget=200)
             for e in EXPERIMENTS]
    if shared:
        runs = RunStore(plans)
        plans = [replace(plan, runs=runs) for plan in plans]
    return {plan.experiment: run_experiment(plan) for plan in plans}


def test_shared_runs_give_the_same_reports(tmp_path, monkeypatch):
    insts = planted_instances(2, num_vars=100, num_clauses=430)
    f = gen_random_ksat(60, 255, 3, seed=11)
    insts.append(Instance("r", f, louvain(build_vig(f), seed=0)))
    unshared = sweep(insts, shared=False)
    calls = count_solves(monkeypatch, tmp_path / "solves")
    shared = sweep(insts, shared=True)
    # Per instance: bridge 1 (mvsids, focus and correlation), spatial 2
    # (cvsids with correlation, random), temporal 0, correlation 0, theorem 1,
    # adapt-compare 2.
    assert len(calls) == 6 * len(insts)
    for e in EXPERIMENTS:
        for fmt in ("json", "csv"):
            paths = [tmp_path / f"{e}.{side}.{fmt}" for side in ("unshared", "shared")]
            emit_untimed(unshared[e], paths[0], fmt)
            emit_untimed(shared[e], paths[1], fmt)
            assert paths[0].read_bytes() == paths[1].read_bytes()
    spatial = {(r.instance, r.heuristic): r for r in shared["spatial"].records}
    for e in ("bridge", "temporal"):
        for r in shared[e].records:
            assert r == spatial[(r.instance, r.heuristic)]
    # A correlation record comes from the same solve as the focus record of its
    # trajectory, and carries that solve's wall time.
    for r in shared["correlation"].records:
        assert r.wall_time_s == spatial[(r.instance, r.heuristic)].wall_time_s


def test_shared_runs_solve_each_key_once(tmp_path, monkeypatch):
    inst = planted_instances(1)[0]
    runs = RunStore()
    calls = count_solves(monkeypatch, tmp_path / "solves")

    def solves(plan):
        before = len(calls)
        run_experiment(replace(plan, runs=runs))
        return len(calls) - before

    spatial = base_plan([inst], "spatial")
    assert solves(spatial) == 1
    assert solves(replace(spatial, experiment="temporal")) == 0
    # A focus solve depends only on what it observes, not on the TVIG settings.
    assert solves(replace(spatial, tvig_alpha=0.9)) == 0
    assert solves(replace(spatial, sample_interval=7)) == 0
    assert solves(base_plan([inst], "spatial", conflict_budget=300)) == 1
    moved = replace(inst, communities=replace(inst.communities))
    assert solves(replace(spatial, instances=[moved])) == 1
    assert solves(replace(spatial, experiment="adapt-compare")) == 1
    # This store was built from no plan, so a correlation job finds no
    # correlation record of the focus solve and solves again.
    correlation = base_plan([inst], "correlation")
    assert solves(correlation) == 1
    assert solves(replace(correlation, tvig_alpha=0.9)) == 1
    assert solves(replace(correlation, sample_interval=7)) == 1
    assert solves(correlation) == 0


def test_keys_name_only_what_the_instrument_reads(tmp_path, monkeypatch):
    inst = planted_instances(1)[0]
    calls = count_solves(monkeypatch, tmp_path / "solves")
    for experiment, heuristics in (("adapt-compare", ["mvsids"]), ("theorem", ["cvsids"])):
        plan = base_plan([inst], experiment, heuristics)
        variants = [plan, replace(plan, tvig_alpha=0.5)]
        if experiment == "adapt-compare":
            variants.append(replace(plan, sample_interval=7))
        runs = RunStore(variants)
        before = len(calls)
        reports = [run_experiment(replace(p, runs=runs)) for p in variants]
        assert len(calls) - before == 1
        assert all(r.records == reports[0].records for r in reports)


def test_registered_plans_share_one_solve_across_instruments(tmp_path, monkeypatch):
    inst = planted_instances(1)[0]
    plans = [base_plan([inst], e, ["mvsids"]) for e in ("correlation", "spatial")]
    alone = [run_experiment(plan) for plan in plans]
    calls = count_solves(monkeypatch, tmp_path / "solves")
    runs = RunStore(plans)
    together = [run_experiment(replace(plan, runs=runs)) for plan in plans]
    assert len(calls) == 1
    assert [without_timing(r.records) for r in together] == \
        [without_timing(r.records) for r in alone]
    assert (runs.solved, runs.copied) == (1, 1)


def test_store_keys_by_formula_and_assignment(tmp_path, monkeypatch):
    a, b, c = planted_instances(3, num_vars=100, num_clauses=430)
    # Two formulas under one instance name, each in a spatial and a correlation plan.
    twins = [replace(a, name="x"), replace(b, name="x")]
    by_name = [base_plan(twins, e, ["mvsids"], conflict_budget=200)
               for e in ("spatial", "correlation")]
    # One formula under two assignments, its own and Louvain's.
    by_assignment = [base_plan([inst], "spatial", ["mvsids"], conflict_budget=200)
                     for inst in (c, replace(c, communities=None))]
    alone = {id(plan): without_timing(run_experiment(plan).records)
             for plan in by_name + by_assignment}
    calls = count_solves(monkeypatch, tmp_path / "solves")
    runs = RunStore(by_name + by_assignment)
    for plans, solves in ((by_name, 2), (by_assignment, 1)):
        before = len(calls)
        for plan in plans:
            shared = run_experiment(replace(plan, runs=runs)).records
            assert without_timing(shared) == alone[id(plan)]
        assert len(calls) - before == solves
    assert (runs.solved, runs.copied) == (3, 3)


def test_store_runs_louvain_once_per_instance(tmp_path, monkeypatch):
    import satscope.harness as harness

    inst = Instance("r", gen_random_ksat(60, 255, 3, seed=11))
    found = []
    original = harness.louvain

    def counting_louvain(*args, **kwargs):
        found.append(original(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(harness, "louvain", counting_louvain)
    calls = count_solves(monkeypatch, tmp_path / "solves")
    heuristics = ["mvsids", "cvsids"]
    plans = [base_plan([inst], e, heuristics)
             for e in ("bridge", "spatial", "temporal", "correlation")]
    runs = RunStore(plans)
    reports = [run_experiment(replace(plan, runs=runs)) for plan in plans]
    assert len(found) == 1
    assert len(calls) == len(heuristics)
    assert inst.communities is None
    for report in reports[:3]:
        assert [r.num_communities for r in report.records] == [found[0].num_communities] * 2


class FailingCorrelationHook(CorrelationHook):
    bad = None

    def __init__(self, formula, *args, **kwargs):
        if formula is self.bad:
            raise ValueError("bad graph")
        super().__init__(formula, *args, **kwargs)


@pytest.mark.parametrize("failing", ["focus", "correlation", "focus fill"])
def test_failing_hook_spares_the_other_instrument(tmp_path, monkeypatch, failing):
    import satscope.harness as harness

    insts = planted_instances(2, num_vars=100, num_clauses=430)
    bad = insts[1]
    plans = {e: base_plan(insts, e, ["mvsids", "cvsids"], conflict_budget=200)
             for e in ("spatial", "correlation")}
    alone = {e: run_experiment(plan) for e, plan in plans.items()}
    if failing == "focus":
        original = harness.bridge_variables

        def bridges(formula, assignment):
            if formula is bad.formula:
                raise ValueError("bad assignment")
            return original(formula, assignment)

        monkeypatch.setattr(harness, "bridge_variables", bridges)
        note = "job failed: ValueError('bad assignment')"
    elif failing == "focus fill":
        original_fill = FocusHook.fill

        def fill(self, record):
            if self.assignment is bad.communities:
                raise ValueError("bad record")
            original_fill(self, record)

        monkeypatch.setattr(FocusHook, "fill", fill)
        note = "job failed: ValueError('bad record')"
    else:
        monkeypatch.setattr(FailingCorrelationHook, "bad", bad.formula)
        monkeypatch.setattr(harness, "CorrelationHook", FailingCorrelationHook)
        note = "job failed: ValueError('bad graph')"
    calls = count_solves(monkeypatch, tmp_path / "solves")
    runs = RunStore(plans.values())
    shared = {e: run_experiment(replace(plan, runs=runs)) for e, plan in plans.items()}
    assert len(calls) == 2 * len(insts)
    for e, report in shared.items():
        if e == ("correlation" if failing == "correlation" else "spatial"):
            for r in report.records:
                if r.instance == bad.name:
                    assert r.excluded and r.solved == 0 and r.note == note
                else:
                    assert without_timing([r]) == without_timing(
                        [a for a in alone[e].records if (a.instance, a.heuristic) ==
                         (r.instance, r.heuristic)])
        else:
            assert without_timing(report.records) == without_timing(alone[e].records)


@pytest.mark.parametrize("num_vars", [80, 30])
def test_focus_assignment_must_cover_the_formulas_variables(num_vars):
    # The formula's own Louvain partition, padded with phantom variables or truncated.
    f = gen_random_ksat(40, 170, 3, seed=3)
    found = louvain(build_vig(f), seed=0)
    community_of = np.resize(found.community_of[1:], num_vars)
    wrong = CommunityAssignment(np.concatenate(([-1], community_of)),
                                found.num_communities, found.modularity)
    inst = Instance("r", f, wrong)
    plans = [base_plan([inst], e, ["mvsids"]) for e in ("spatial", "correlation")]
    alone = run_experiment(plans[1]).records
    runs = RunStore(plans)
    spatial, correlation = (run_experiment(replace(plan, runs=runs)).records for plan in plans)
    [record] = spatial
    assert record.excluded and record.note == (
        f"job failed: ValueError('the community assignment covers {num_vars} "
        "variables, the formula has 40')")
    # The correlation record of the same shared solve is untouched.
    assert (runs.solved, runs.copied) == (1, 1)
    assert without_timing(correlation) == without_timing(alone)


def test_shared_solve_that_raises_fails_every_instrument(monkeypatch):
    insts = planted_instances(2, num_vars=100, num_clauses=430)
    bad = insts[1]
    original = Solver.solve

    def solve(self):
        if self.formula is bad.formula:
            raise RuntimeError("boom")
        return original(self)

    monkeypatch.setattr(Solver, "solve", solve)
    plans = [base_plan(insts, e, ["mvsids"], conflict_budget=200)
             for e in ("spatial", "correlation")]
    runs = RunStore(plans)
    for plan in plans:
        [failed] = [r for r in run_experiment(replace(plan, runs=runs)).records
                    if r.instance == bad.name]
        assert failed.excluded and failed.note == "job failed: RuntimeError('boom')"


def test_shared_runs_hand_out_copies():
    inst = planted_instances(1)[0]
    runs = RunStore()
    bridge = run_experiment(replace(base_plan([inst], "bridge"), runs=runs))
    spatial = run_experiment(replace(base_plan([inst], "spatial"), runs=runs))
    first = replace(spatial.records[0])
    bridge.records[0].ss = -1.0
    assert spatial.records[0] == first
    spatial.records[0].ts = -1.0
    temporal = run_experiment(replace(base_plan([inst], "temporal"), runs=runs))
    assert temporal.records[0] == first


def test_one_variable_formula_fails_no_instrument_of_the_shared_solve():
    # Correlations over one variable are undefined: their samples are missing
    # values, and the spatial record of the same solve keeps its score.
    inst = Instance("one", parse_dimacs("p cnf 1 0\n"))
    plans = [base_plan([inst], e, ["cvsids"], sample_interval=1)
             for e in ("spatial", "correlation", "theorem")]
    runs = RunStore(plans)
    reports = {plan.experiment: run_experiment(replace(plan, runs=runs)) for plan in plans}
    records = [r for report in reports.values() for r in report.records]
    assert len(records) == 3
    assert not any("job failed" in (r.note or "") for r in records)
    [spatial] = reports["spatial"].records
    assert spatial.ss is not None
    [correlation] = reports["correlation"].records
    assert correlation.num_samples >= 1 and correlation.mean_spearman_tdc is None


# -- solving in parallel ---------------------------------------------------------


def two_cores(monkeypatch):
    """Let the harness see two usable cores, so a batch of two jobs forks one worker."""
    import satscope.harness as harness

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_hard_error_in_either_worker_stops_the_sweep(monkeypatch, where):
    two_cores(monkeypatch)
    parent = os.getpid()
    original = Solver.solve

    def solve(self):
        if (os.getpid() == parent) == (where == "parent"):
            raise SolverInternalError(f"self-check failed in the {where}")
        if where == "parent":
            time.sleep(30)  # the child is still solving when the parent's job fails
        return original(self)

    monkeypatch.setattr(Solver, "solve", solve)
    plan = base_plan(planted_instances(2, num_vars=100, num_clauses=430), "spatial",
                     conflict_budget=200)
    start = time.perf_counter()
    with pytest.raises(SolverInternalError, match=f"in the {where}") as excinfo:
        run_experiment(plan)
    assert time.perf_counter() - start < 20
    assert multiprocessing.active_children() == []
    if where == "child":
        # The child's own frames, down to the patched solve, come along as the cause.
        remote = str(excinfo.value.__cause__)
        assert "self-check failed in the child" in remote
        assert re.search(r'test_harness\.py", line \d+, in solve\n', remote)


def test_child_hard_error_stops_the_batch_before_the_parents_next_job(monkeypatch):
    two_cores(monkeypatch)
    parent, parent_solves = os.getpid(), []

    def solve(self):
        if os.getpid() != parent:
            raise SolverInternalError("self-check failed in the child")
        parent_solves.append(1)
        time.sleep(2)  # long enough for the child's error to reach the pipe

    monkeypatch.setattr(Solver, "solve", solve)
    plan = base_plan(planted_instances(4, num_vars=100, num_clauses=430), "spatial",
                     conflict_budget=200)
    with pytest.raises(SolverInternalError, match="in the child"):
        run_experiment(plan)
    assert len(parent_solves) == 1  # of the parent's two jobs
    assert multiprocessing.active_children() == []


def test_forked_worker_hands_back_each_instruments_record(tmp_path, monkeypatch):
    import satscope.harness as harness

    insts = planted_instances(2, num_vars=100, num_clauses=430)
    plans = [base_plan(insts, e, ["mvsids", "cvsids"], conflict_budget=200)
             for e in ("spatial", "correlation")]
    # Each plan alone on one core: one instrument per key, solved in this process.
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = [run_experiment(plan).records for plan in plans]
    two_cores(monkeypatch)
    calls = count_solves(monkeypatch, tmp_path / "solves")
    runs = RunStore(plans)
    shared = [run_experiment(replace(plan, runs=runs)).records for plan in plans]
    # Four keys of a spatial and a correlation instrument each; the child solves two.
    assert sorted(pid == os.getpid() for pid in calls.pids()) == [False, False, True, True]
    assert [without_timing(r) for r in shared] == [without_timing(r) for r in alone]


def test_adapt_compare_solves_serially_in_the_process(tmp_path, monkeypatch):
    two_cores(monkeypatch)
    calls = count_solves(monkeypatch, tmp_path / "solves")
    insts = [Instance(f"r{i}", gen_random_ksat(30, 126, 3, seed=80 + i)) for i in range(2)]
    plan = base_plan(insts, "adapt-compare", heuristics=["mvsids", "adaptvsids"],
                     conflict_budget=200)
    run_experiment(plan)
    assert calls.pids() == [os.getpid()] * 4  # no heuristic's solves share a core with another's


def test_worker_that_exits_without_records_fails_the_sweep(monkeypatch):
    two_cores(monkeypatch)
    parent = os.getpid()
    original = Solver.solve

    def solve(self):
        if os.getpid() != parent:
            os._exit(3)
        return original(self)

    monkeypatch.setattr(Solver, "solve", solve)
    plan = base_plan(planted_instances(2, num_vars=100, num_clauses=430), "spatial",
                     conflict_budget=200)
    with pytest.raises(RuntimeError, match="exited with code 3 without sending its records"):
        run_experiment(plan)
    assert multiprocessing.active_children() == []


def test_run_plan_validation():
    with pytest.raises(ValueError):
        RunPlan(instances=[], heuristics=[], experiment="nope")
    with pytest.raises(ValueError):
        RunPlan(instances=[], heuristics=[], experiment="bridge",
                config=SolverConfig(timeout_s=-1))
    f = gen_random_ksat(20, 80, 3, seed=1)
    with pytest.raises(ValueError, match="unknown heuristic 'mvsid'"):
        RunPlan([Instance("a", f)], ["mvsid"], experiment="adapt-compare")
    with pytest.raises(ValueError, match="heuristic 'mvsids' is given twice"):
        RunPlan([Instance("a", f)], ["mvsids", "cvsids", "mvsids"], experiment="adapt-compare")
    for budget in (0.0, -1.0):
        with pytest.raises(ValueError, match="louvain_budget_s"):
            RunPlan(instances=[], heuristics=["mvsids"], experiment="spatial",
                    louvain_budget_s=budget)
    RunPlan(instances=[], heuristics=["mvsids"], experiment="spatial", louvain_budget_s=None)
    with pytest.raises(ValueError, match="sample_interval must be >= 1"):
        RunPlan(instances=[], heuristics=["mvsids"], sample_interval=0)


def test_plan_honours_its_config_timeout():
    # Needs 1137 conflicts to refute; the deadline is checked every 128.
    inst = Instance("r", gen_random_ksat(120, 510, 3, seed=5))
    cfg = SolverConfig(conflict_budget=2000, timeout_s=1e-9)
    record = run_experiment(RunPlan([inst], ["mvsids"], cfg, "adapt-compare")).records[0]
    assert (record.status, record.conflicts) == ("UNKNOWN", 128)
