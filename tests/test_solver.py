import random
import re

import numpy as np
import pytest

from helpers import (
    brute_force_sat,
    check_formula,
    clause_implied,
    dimacs_lits,
    learnt_clause,
    naive_unit_closure,
    propagate_closure,
    random_formula,
    solve,
)
from satscope.cnf import Clause, Formula, parse_dimacs
from satscope.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    ConflictAnalysis,
    InstrumentationHooks,
    Solver,
    SolverConfig,
    _ClauseRec,
    luby,
    select_retained,
)


def F(text):
    return parse_dimacs(text)


def cfg(**kw):
    return SolverConfig(**kw)


def test_trivial_unsat():
    assert solve(F("p cnf 1 2\n1 0\n-1 0\n")).status == UNSAT


def test_trivial_sat_with_model():
    r = solve(F("p cnf 2 1\n1 2 0\n"))
    assert r.status == SAT
    assert r.model[1] or r.model[2]


def test_empty_clause_is_unsat():
    assert solve(F("p cnf 2 2\n0\n1 2 0\n")).status == UNSAT


def test_empty_formula_is_sat():
    r = solve(Formula(0, []))
    assert r.status == SAT and r.model == {}


def test_variable_without_clauses_gets_assigned():
    r = solve(F("p cnf 3 1\n1 0\n"))
    assert r.status == SAT and set(r.model) == {1, 2, 3}


def test_malformed_formula_rejected():
    with pytest.raises(ValueError):
        solve(Formula(2, [Clause((1, 3))]))  # literal above num_vars
    with pytest.raises(ValueError):
        solve(Formula(2, [Clause((1, -1))]))  # tautology violates the clause contract


@pytest.mark.parametrize("lits", [(1, 3), (-3,), (0, 1), (2, -4), (1, -1), (2, 1, 2)])
def test_solver_rejects_what_formula_check_rejects(lits):
    f = Formula(2, [Clause((1, 2)), Clause(lits)])
    with pytest.raises(ValueError) as expected:
        check_formula(f)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        Solver(f)


@pytest.mark.parametrize("knobs", [
    {"decay": 1.0}, {"fast_decay": 0.0}, {"slow_decay": 1.5}, {"lbd_smoothing": 1.0},
    {"conflict_budget": 0}, {"timeout_s": 0.0}, {"timeout_s": -1.0}, {"lbd_smoothing": -0.1},
    {"conflict_budget": -1}, {"timeout_s": float("nan")},
])
def test_solver_config_rejects_out_of_range_knobs(knobs):
    with pytest.raises(ValueError):
        SolverConfig(**knobs)


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    with pytest.raises(ValueError):
        luby(0)


# -- propagation ------------------------------------------------------------


def test_propagate_unit_implication():
    trail, confl = propagate_closure(F("p cnf 2 1\n1 2 0\n"), assumptions=(-1,))
    assert confl is None
    assert 2 in trail


def test_propagate_root_conflict():
    trail, confl = propagate_closure(F("p cnf 1 2\n1 0\n-1 0\n"))
    assert confl == ()  # contradictory input units


def test_propagate_detects_falsified_clause():
    trail, confl = propagate_closure(F("p cnf 3 2\n1 2 0\n-2 3 0\n"), assumptions=(-1, -3))
    assert confl is not None


@pytest.mark.parametrize("assumptions", [(0,), (-3, -4), (4,)])
def test_propagate_closure_rejects_non_literal_assumptions(assumptions):
    f = F("p cnf 3 2\n1 2 0\n-2 3 0\n")
    with pytest.raises(ValueError, match="is not a literal over 3 variables"):
        propagate_closure(f, assumptions)


def test_propagation_closure_matches_naive_propagator():
    rng = random.Random(42)
    for _ in range(120):
        f = random_formula(rng, max_vars=10, max_clauses=25)
        if any(len(c.lits) == 0 for c in f.clauses):
            continue
        n_assume = rng.randint(0, min(3, f.num_vars))
        assumptions = tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, f.num_vars + 1), n_assume)
        )
        expect_assign, expect_conflict = naive_unit_closure(f, assumptions)
        trail, confl = propagate_closure(f, assumptions)
        if expect_conflict:
            assert confl is not None
        else:
            assert confl is None
            got = {abs(l): l > 0 for l in trail}
            assert got == expect_assign


# -- conflict analysis --------------------------------------------------------


def _capture_analyses(formula, config=None):
    analyses, learnts = [], []

    class Cap(InstrumentationHooks):
        def on_conflict(self, solver, analysis):
            analyses.append(analysis)
            learnts.append(learnt_clause(solver))

    result = solve(formula, config or cfg(), hooks=Cap())
    return result, analyses, learnts


def test_single_decision_conflict_learns_negated_decision():
    # Deciding -1 (default phase false) falsifies both clauses' futures:
    # propagation gives 2 then conflict, and the learnt clause must be (1).
    f = F("p cnf 2 2\n1 2 0\n1 -2 0\n")
    result, analyses, learnts = _capture_analyses(f)
    assert result.status == SAT
    first = analyses[0]
    assert learnts[0] == (1,)
    assert first.backjump_level == 0


def test_learnt_vars_subset_of_resolved_vars():
    f = F(
        "p cnf 6 8\n1 2 0\n1 -2 3 0\n-3 4 0\n-3 -4 5 0\n-5 6 0\n-5 -6 0\n2 3 5 0\n-1 2 5 0\n"
    )
    result, analyses, learnts = _capture_analyses(f)
    assert analyses, "expected at least one conflict"
    for a, learnt in zip(analyses, learnts):
        assert a.learnt_vars == Clause(learnt).variables()
        assert set(a.learnt_vars) <= set(a.resolved_vars)
        assert a.lbd >= 1


def test_lbd_counts_distinct_levels():
    rec = ConflictAnalysis(3, (1, 2, 3), (1, 2, 3), 2)
    assert rec.lbd == 2  # {3,3,7} -> 2 distinct levels, as computed at learning time


def test_learnt_clauses_implied_by_formula():
    rng = random.Random(9)
    checked = 0
    for i in range(30):
        n = rng.randint(5, 12)
        m = rng.randint(3 * n, 5 * n)
        from satscope.generator import gen_random_ksat

        f = gen_random_ksat(n, m, 3, seed=500 + i)
        _, _, learnts = _capture_analyses(f, cfg(seed=i))
        for learnt in learnts:
            assert clause_implied(f, learnt)
            checked += 1
    assert checked > 50


def test_timestamps_are_conflict_ordinals():
    from satscope.generator import gen_random_ksat

    f = gen_random_ksat(12, 55, 3, seed=77)
    learnts = []

    class Cap(InstrumentationHooks):
        def on_conflict(self, solver, analysis):
            learnts.append(learnt_clause(solver))

    s = Solver(f, cfg(clause_deletion=False), hooks=Cap())
    s.solve()
    # Without deletion every learnt clause but a unit (enqueued, not stored)
    # stays in ``learnts``, in conflict order, stamped with its conflict ordinal.
    stored = [(i, learnt) for i, learnt in enumerate(learnts, start=1) if len(learnt) > 1]
    assert stored
    assert [rec.timestamp for rec in s.learnts] == [i for i, _ in stored]
    assert [sorted(dimacs_lits(rec.lits)) for rec in s.learnts] == [
        sorted(learnt) for _, learnt in stored]


# -- solver vs brute force ----------------------------------------------------


def test_status_matches_truth_table_on_random_3sat():
    from satscope.generator import gen_random_ksat

    rng = random.Random(1)
    for i in range(200):
        n = 20
        m = 85
        f = gen_random_ksat(n, m, 3, seed=2000 + i)
        r = solve(f, cfg(seed=3))
        assert r.status in (SAT, UNSAT)
        assert (r.status == SAT) == brute_force_sat(f)
        if r.status == SAT:
            for c in f.clauses:
                assert any(r.model[abs(l)] == (l > 0) for l in c.lits)


def test_budget_gives_unknown():
    from satscope.generator import gen_random_ksat

    f = gen_random_ksat(120, 510, 3, seed=5)
    r = solve(f, cfg(conflict_budget=10))
    assert r.status == UNKNOWN
    assert r.model is None


def test_determinism_same_seed_same_counters():
    from satscope.generator import gen_random_ksat

    f = gen_random_ksat(40, 170, 3, seed=8)
    a = solve(f, cfg(heuristic="random", seed=12))
    b = solve(f, cfg(heuristic="random", seed=12))
    assert (a.status, a.stats.decisions, a.stats.conflicts, a.stats.propagations) == (
        b.status,
        b.stats.decisions,
        b.stats.conflicts,
        b.stats.propagations,
    )


# -- trail invariants ----------------------------------------------------------


def test_trail_invariants_throughout_run():
    from satscope.generator import gen_random_ksat

    class Check(InstrumentationHooks):
        def __init__(self):
            self.checks = 0

        def on_conflict(self, solver, analysis):
            trail = dimacs_lits(solver.trail)
            vars_seen = [abs(lit) for lit in trail]
            levels = [solver.levels[v] for v in vars_seen]
            assert levels == sorted(levels)
            assert len(set(vars_seen)) == len(vars_seen)
            for lit, v in zip(trail, vars_seen):
                reason = solver.reasons[v]
                assert reason is None or lit in dimacs_lits(reason)
            mask = solver.assigned_mask
            assert mask.dtype == bool and mask[0]
            assert set(np.flatnonzero(mask[1:]) + 1) == set(vars_seen)
            self.checks += 1

        on_decision = on_conflict

    f = gen_random_ksat(20, 86, 3, seed=21)
    hook = Check()
    solve(f, cfg(seed=2), hooks=hook)
    assert hook.checks > 10


# -- clause database reduction -------------------------------------------------


def _mkrec(lbd, ts):
    return _ClauseRec([1, 2, 3], ts, lbd)


def test_select_retained_none_locked_drops_half_by_lbd():
    rng = random.Random(0)
    learnts = [_mkrec(rng.randint(1, 20), i) for i in range(100)]
    retained, removed = select_retained(learnts, set())
    assert len(retained) == 50 and len(removed) == 50
    max_removed = max(c.lbd for c in removed)
    assert all(c.lbd <= max_removed for c in retained)
    # sort-based oracle: the retained set is exactly the best half
    ranked = sorted(learnts, key=lambda c: (c.lbd, -c.timestamp))
    assert {id(c) for c in retained} == {id(c) for c in ranked[:50]}


def test_select_retained_all_locked_keeps_everything():
    learnts = [_mkrec(5, i) for i in range(10)]
    retained, removed = select_retained(learnts, {id(c) for c in learnts})
    assert retained == learnts and removed == []


def test_clause_deletion_disabled_never_deletes():
    from satscope.generator import gen_random_ksat

    f = gen_random_ksat(60, 255, 3, seed=3)
    r = solve(f, cfg(clause_deletion=False, conflict_budget=2000))
    assert r.stats.deleted_clauses == 0


def test_clause_deletion_fires_and_preserves_correctness():
    from satscope.generator import gen_random_ksat

    hits = 0
    for i in range(40):
        f = gen_random_ksat(18, 77, 3, seed=900 + i)
        s = Solver(f, cfg(seed=1))
        s.max_learnts = 5  # force reduction on desk-sized instances
        r = s.solve()
        hits += r.stats.deleted_clauses > 0
        assert (r.status == SAT) == brute_force_sat(f)
    assert hits > 10


def test_assigned_mask_is_read_only_to_hooks():
    from satscope.generator import gen_random_ksat

    class Writer(InstrumentationHooks):
        def on_decision(self, solver, var):
            solver.assigned_mask[var] = False

    f = gen_random_ksat(30, 128, 3, seed=4)
    with pytest.raises(ValueError):
        solve(f, cfg(seed=0), hooks=Writer())
