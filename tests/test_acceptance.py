"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Heavy fixtures (the 50-instance planted set and its solver runs) are session
scoped and shared between the directional criteria.
"""

import math
import random
import time

import numpy as np
import pytest

from helpers import (
    DecisionLogHook,
    DirectDecayActivity,
    assigned_mask,
    best_partition_modularity,
    brute_force_sat,
    edge_list_tvig,
    effective_weight,
    label_agreement,
    random_weighted_edges,
)
from satscope.branching import (
    ActivityTable,
    AdaptVsidsHeuristic,
    MvsidsHeuristic,
    make_heuristic,
    normalized_vsids,
    normalized_vsids_recursive,
)
from satscope.centrality import CentralityVector, degree_centrality, eigenvector_centrality
from satscope.cnf import Clause, Formula
from satscope.community import bridge_variables, louvain
from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.graph import Tvig, build_vig
from satscope.harness import (
    CompositeHooks,
    CorrelationHook,
    FocusHook,
    Instance,
    RunPlan,
    run_experiment,
)
from satscope.metrics import (
    fisher_mean,
    gini,
    pearson,
    spearman,
    temporal_score,
    top_k,
)
from satscope.solver import SAT, UNSAT, Solver, SolverConfig, solve


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# -- shared fixtures -----------------------------------------------------------


@pytest.fixture(scope="session")
def planted50():
    """The 50 planted instances (q=8, p=0.9, n=400) used by criteria 8 and 9."""
    instances = []
    for i in range(50):
        cfg = PlantedConfig(400, 8, 1650, 3, 0.9, seed=7000 + i)
        f, planted = gen_planted_community(cfg)
        instances.append(Instance(f"planted{i}", f, planted))
    return instances


@pytest.fixture(scope="session")
def planted50_report(planted50):
    plan = RunPlan(
        instances=planted50,
        heuristics=["mvsids", "random"],
        config=SolverConfig(seed=1, conflict_budget=1500),
        experiment="spatial",
    )
    return run_experiment(plan)


# -- criteria ------------------------------------------------------------------


def test_c01_solver_correctness_vs_truth_table():
    t0 = time.time()
    rng = random.Random(100)
    checked = 0
    for i in range(500):
        n = rng.randint(8, 20)
        ratio = 3.0 + 3.0 * (i / 499.0)
        m = max(1, round(ratio * n))
        f = gen_random_ksat(n, m, 3, seed=20_000 + i)
        r = solve(f, SolverConfig(seed=2))
        assert r.status in (SAT, UNSAT), f"instance {i} not decided"
        want = brute_force_sat(f)
        assert (r.status == SAT) == want, f"instance {i}: {r.status} vs oracle {want}"
        if r.status == SAT:
            for c in f.clauses:
                assert any(r.model[abs(l)] == (l > 0) for l in c.lits)
        checked += 1
    elapsed = time.time() - t0
    ok = checked == 500 and elapsed < 120
    _report("C1 solver-correctness 500x truth-table", ok, f"({elapsed:.1f}s)")
    assert ok


def test_c02_theorem_reproduction():
    t0 = time.time()
    instances = []
    for i in range(15):
        cfg = PlantedConfig(400, 4, 1880, 3, 0.85, seed=8000 + i)
        f, _ = gen_planted_community(cfg)
        instances.append(Instance(f"planted{i}", f))
    for i in range(15):
        n = 120 + 6 * i  # 120..204
        m = round(4.25 * n)
        instances.append(Instance(f"random{i}", gen_random_ksat(n, m, 3, seed=8100 + i)))
    plan = RunPlan(
        instances=instances,
        heuristics=["cvsids"],
        config=SolverConfig(seed=1, conflict_budget=4000),
        experiment="theorem",
        sample_interval=500,
    )
    report = run_experiment(plan)
    included = [r for r in report.records if not r.excluded]
    assert len(report.records) == 30
    assert len(included) >= 27, f"only {len(included)} instances produced samples"
    # top-k is undefined at a sample with no unassigned variables; average each
    # measurement over the instances that have it
    per_instance_pearson = [r.mean_pearson_tdc for r in included if r.mean_pearson_tdc is not None]
    per_instance_top10 = [r.mean_top10_tdc for r in included if r.mean_top10_tdc is not None]
    assert len(per_instance_pearson) >= 27 and len(per_instance_top10) >= 25
    min_sample_spearman = min(r.min_spearman_tdc for r in included)
    agg_pearson = float(np.mean(per_instance_pearson))
    agg_top10 = float(np.mean(per_instance_top10))
    elapsed = time.time() - t0
    ok = (
        agg_pearson >= 0.99
        and agg_top10 >= 0.95
        and min_sample_spearman >= 0.999
        and all(r.conflicts <= 10_000 for r in included)
        and elapsed < 600
    )
    _report(
        "C2 theorem-mode cVSIDS~TDC",
        ok,
        f"(pearson={agg_pearson:.4f} top10={agg_top10:.4f} "
        f"min-sample-rho={min_sample_spearman:.6f} n={len(included)} {elapsed:.1f}s)",
    )
    assert ok


def test_c03_ema_identity():
    rng = random.Random(33)
    worst = 0.0
    for _ in range(1000):
        length = rng.randint(1, 1000)
        deltas = [rng.randint(0, 1) for _ in range(length)]
        for f in (0.5, 0.9, 0.95, 0.99):
            s = 0.0
            for d in deltas:
                s = normalized_vsids_recursive(s, d, f)
            closed = normalized_vsids(deltas, f)
            if closed == s == 0.0:
                continue
            rel = abs(s - closed) / max(abs(s), abs(closed))
            worst = max(worst, rel)
            assert rel <= 1e-9
    _report("C3 EMA recursive==closed-form", True, f"(worst rel err {worst:.2e})")


def test_c04_evsids_equivalence():
    rng = random.Random(44)
    n = 30
    rescale_runs = 0
    for log_i in range(100):
        table = ActivityTable(n, decay=0.95)
        ref = DirectDecayActivity(n, decay=0.95)
        order_idx = np.arange(n)
        for t in range(10_000):
            bumped = rng.sample(range(1, n + 1), rng.randint(1, 6))
            bumped.sort()
            table.decay()
            for v in bumped:
                table.bump(v)
            ref.on_conflict(bumped)
            got = np.argsort(-table.activity[1:], kind="stable")
            want = np.argsort(-ref.activity[1:], kind="stable")
            assert np.array_equal(got, want), f"log {log_i} conflict {t}: ranking diverged"
        rescale_runs += table.rescales > 0
    ok = rescale_runs == 100  # 10^4 conflicts at 0.95 forces rescales in every log
    _report("C4 EVSIDS ranking == direct-decay reference", ok,
            f"(100 logs x 10^4 conflicts, rescaled in {rescale_runs})")
    assert ok


def test_c05_tvig_lazy_decay_oracle():
    rng = random.Random(55)
    alpha = 0.95
    n = 40
    g = Tvig(n, alpha=alpha)
    log = []
    for _ in range(10_000):
        if rng.random() < 0.55:
            g.advance()
        else:
            k = rng.randint(1, 6)
            vs = tuple(sorted(rng.sample(range(1, n + 1), k)))
            g.add_clause(Clause(vs, timestamp=g.time))
            log.append((g.time, vs))
    direct = {}
    for ts, vs in log:
        k = len(vs)
        if k < 2:
            continue
        contrib = alpha ** (g.time - ts) / (k - 1)
        for i in range(k):
            for j in range(i + 1, k):
                key = (vs[i], vs[j])
                direct[key] = direct.get(key, 0.0) + contrib
    worst = 0.0
    for (u, v), expect in direct.items():
        got = effective_weight(g, u, v)
        rel = abs(got - expect) / max(abs(expect), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-9
    assert {(u, v) for u, v, _ in g.edges()} == set(direct)
    ok = g.rescales > 0
    _report("C5 TVIG lazy decay == direct recomputation", ok,
            f"(worst rel err {worst:.2e}, {g.rescales} rescales)")
    assert ok


def test_c06_centrality():
    rng = random.Random(66)
    worst_cos = 0.0
    for trial in range(50):
        n = rng.randint(5, 30)
        g = edge_list_tvig(n, random_weighted_edges(n, rng))
        got = eigenvector_centrality(g, iterations=100).scores[1:]
        a = np.zeros((n, n))
        for u in range(1, n + 1):
            for v, w in g.adj[u].items():
                a[u - 1, v - 1] = w
        vals, vecs = np.linalg.eigh(a)
        principal = np.abs(vecs[:, np.argmax(vals)])
        cos = float(np.dot(got, principal) / (np.linalg.norm(got) * np.linalg.norm(principal)))
        worst_cos = max(worst_cos, 1.0 - cos)
        assert 1.0 - cos < 1e-6, f"trial {trial}: cosine distance {1.0 - cos:.2e}"

    # TDC additivity: +1 per variable per added clause, bit-exact at unit scale
    for k in range(2, 9):
        g = Tvig(12)
        g.add_clause(Clause(tuple(range(1, k + 1))))
        g.add_clause(Clause(tuple(range(2, k + 2))))
        before = degree_centrality(g).scores.copy()
        g.add_clause(Clause(tuple(range(1, k + 1))))
        after = degree_centrality(g).scores
        for v in range(1, k + 1):
            assert after[v] - before[v] == 1.0
    # and within 1e-12 once the lazy scale is no longer exactly 1.0
    g = Tvig(6, alpha=0.95)
    g.add_clause(Clause((1, 2, 3, 4)))
    for _ in range(25):
        g.advance()
    before = degree_centrality(g).scores.copy()
    g.add_clause(Clause((1, 2, 3), timestamp=25))
    after = degree_centrality(g).scores
    for v in (1, 2, 3):
        assert after[v] - before[v] == pytest.approx(1.0, rel=1e-12)
    _report("C6 TEC==dense-eigensolver, TDC additivity", True,
            f"(worst cosine distance {worst_cos:.2e})")


def test_c07_community():
    def ring(vs):
        return [Clause((vs[i], vs[(i + 1) % len(vs)])) for i in range(len(vs))]

    fixed_graphs = [
        Formula(6, ring([1, 2, 3]) + ring([4, 5, 6])),
        Formula(6, ring([1, 2, 3]) + ring([4, 5, 6]) + [Clause((3, 4))]),
        Formula(4, [Clause((u, v)) for u in range(1, 5) for v in range(u + 1, 5)]),
        Formula(5, [Clause((i, i + 1)) for i in range(1, 5)]),
        Formula(6, ring([1, 2, 3, 4, 5, 6])),
        Formula(6, [Clause((1, v)) for v in range(2, 7)]),
        Formula(8, ring([1, 2, 3, 4]) + ring([5, 6, 7, 8]) + [Clause((4, 5))]),
        Formula(8, ring([1, 2, 3]) + ring([4, 5, 6]) + [Clause((7, 8))]),
        Formula(3, ring([1, 2, 3]) + [Clause((1, 2))]),
        Formula(7, ring([1, 2, 3]) + ring([4, 5, 6, 7]) + [Clause((1, 4))]),
    ]
    for i, f in enumerate(fixed_graphs):
        g = build_vig(f)
        found = louvain(g, seed=0)
        best = best_partition_modularity(g)
        assert found.modularity == pytest.approx(best, abs=1e-9), (
            f"graph {i}: louvain {found.modularity} vs optimum {best}"
        )

    agreements = []
    for seed in range(3):
        cfg = PlantedConfig(400, 4, 1700, 3, 0.95, seed=9000 + seed)
        f, planted = gen_planted_community(cfg)
        found = louvain(build_vig(f), seed=0)
        agreements.append(label_agreement(found, planted))
    ok = all(a >= 0.9 for a in agreements)
    _report("C7 Louvain exhaustive-optimum + planted recovery", ok,
            f"(agreements {['%.3f' % a for a in agreements]})")
    assert ok


def test_c08_bridge_directional(planted50_report):
    recs = [r for r in planted50_report.records
            if r.heuristic == "mvsids" and not r.excluded]
    assert len(recs) == 50
    mean_var = float(np.mean([r.bridge_variables_pct for r in recs]))
    mean_picked = float(np.mean([r.bridge_picked_pct for r in recs]))
    ok = mean_picked > mean_var
    _report("C8 picked-bridge% > variable-bridge% (mVSIDS)", ok,
            f"(picked {mean_picked:.1f} > vars {mean_var:.1f}, 50 instances)")
    assert ok


def test_c09_focus_directional(planted50_report):
    by_h = {}
    for h in ("mvsids", "random"):
        recs = [r for r in planted50_report.records if r.heuristic == h and not r.excluded]
        assert len(recs) == 50
        by_h[h] = (
            float(np.mean([r.ss for r in recs])),
            float(np.mean([r.ts for r in recs])),
        )
    ss_m, ts_m = by_h["mvsids"]
    ss_r, ts_r = by_h["random"]
    ok = ss_m > ss_r and ts_m > ts_r
    _report("C9 spatial/temporal focus mVSIDS > random", ok,
            f"(ss {ss_m:.3f}>{ss_r:.3f}, ts {ts_m:.3f}>{ts_r:.3f})")
    assert ok


def test_c10_statistics_unit_suite():
    tol = 1e-12

    def close(a, b):
        assert a == pytest.approx(b, abs=tol)

    # spearman
    close(spearman([3, 1, 4, 2], [3, 1, 4, 2]), 1.0)
    close(spearman([1, 2, 3, 4], [4, 3, 2, 1]), -1.0)
    close(spearman([1, 2, 3, 4], [1, 3, 2, 4]), 0.8)
    assert spearman([5, 5, 5], [1, 2, 3]) is None
    # pearson
    close(pearson([1, 2, 5], [2 * x + 1 for x in (1, 2, 5)]), 1.0)
    close(pearson([1, 2, 5], [-x for x in (1, 2, 5)]), -1.0)
    close(pearson([1, 2, 3], [1, 2, 4]), 9 / math.sqrt(84))
    assert pearson([2, 2], [1, 3]) is None
    # fisher
    assert fisher_mean([0.5, 0.5, 0.5]) == pytest.approx(0.5, abs=1e-6)
    close(fisher_mean([0.0]), 0.0)
    close(fisher_mean([0.5, 0.5, 0.8]),
          math.tanh((2 * math.atanh(0.5) + math.atanh(0.8)) / 3))
    with pytest.raises(ValueError):
        fisher_mean([])
    # gini
    close(gini([2.0, 2.0, 2.0]), 0.0)
    close(gini([1.0, 0.0]), 0.5)
    close(gini([1.0, 0.0, 0.0, 0.0]), 0.75)
    close(gini([0.0, 0.0]), 0.0)
    # top-k
    scores = np.zeros(21)
    scores[1:] = range(20, 0, -1)
    cv = CentralityVector(scores)
    assert top_k(1, cv, assigned_mask(20), 1) == 1
    assert top_k(11, cv, assigned_mask(20), 10) == 0
    assert top_k(2, cv, assigned_mask(20, {1}), 1) == 1
    # temporal score
    close(temporal_score([0] * 10, 1), 0.9)
    close(temporal_score([0, 1, 2, 3], 40), 0.0)
    _report("C10 statistics unit suite", True)


def test_c11_adapt_degeneracy():
    mismatches = 0
    for i in range(20):
        if i % 2 == 0:
            f = gen_random_ksat(40 + i, 170 + 4 * i, 3, seed=11_000 + i)
        else:
            cfg = PlantedConfig(120, 4, 500, 3, 0.8, seed=11_000 + i)
            f, _ = gen_planted_community(cfg)
        logs = []
        for kind in ("mvsids", "degenerate"):
            cfg_s = SolverConfig(seed=9, conflict_budget=600)
            if kind == "mvsids":
                heuristic = MvsidsHeuristic(f.num_vars, decay=0.95)
            else:
                heuristic = AdaptVsidsHeuristic(
                    f.num_vars, fast_decay=0.95, slow_decay=0.95, lbd_smoothing=0.0
                )
            hook = DecisionLogHook()
            Solver(f, cfg_s, heuristic, hook).solve()
            logs.append(hook.log)
        mismatches += logs[0] != logs[1]
    ok = mismatches == 0
    _report("C11 frozen-adaptVSIDS == mVSIDS decision sequence", ok,
            f"({20 - mismatches}/20 instances bit-identical)")
    assert ok


def test_c12_non_interference():
    mismatches = 0
    for i in range(20):
        if i % 2 == 0:
            f = gen_random_ksat(50 + i, 212 + 4 * i, 3, seed=12_000 + i)
            cfg_p = PlantedConfig(100, 4, 420, 3, 0.85, seed=12_000 + i)
            communities = None
        else:
            cfg_p = PlantedConfig(100, 4, 420, 3, 0.85, seed=12_000 + i)
            f, communities = gen_planted_community(cfg_p)
        logs = []
        for instrumented in (True, False):
            cfg_s = SolverConfig(seed=13, conflict_budget=400)
            heuristic = make_heuristic(cfg_s, f.num_vars)
            recorder = DecisionLogHook()
            if instrumented:
                hooks = [recorder, CorrelationHook(f, alpha=0.95, sample_interval=100)]
                if communities is not None:
                    hooks.append(FocusHook(communities, bridge_variables(f, communities)))
                hook = CompositeHooks(*hooks)
            else:
                hook = recorder
            Solver(f, cfg_s, heuristic, hook).solve()
            logs.append(recorder.log)
        mismatches += logs[0] != logs[1]
    ok = mismatches == 0
    _report("C12 instrumented == uninstrumented decision logs", ok,
            f"({20 - mismatches}/20 instances identical)")
    assert ok
