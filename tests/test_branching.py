import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    DirectDecayActivity,
    NumpyBumpActivity,
    activity_order,
    assigned_mask,
    normalized_vsids,
    normalized_vsids_recursive,
)
from satscope.branching import (
    ActivityTable,
    AdaptVsidsHeuristic,
    CvsidsHeuristic,
    MvsidsHeuristic,
    RandomHeuristic,
    make_heuristic,
)
from satscope.solver import ConflictAnalysis, SolverConfig


def analysis(learnt_lits, resolved=None, lbd=1):
    learnt_vars = tuple(sorted({abs(l) for l in learnt_lits}))
    resolved = tuple(sorted(resolved)) if resolved else learnt_vars
    return ConflictAnalysis(0, learnt_vars, resolved, lbd)


# -- pick -----------------------------------------------------------------


def test_pick_argmax():
    h = CvsidsHeuristic(3)
    h.table.activity[1:] = [2.0, 5.0, 1.0]
    assert h.pick(assigned_mask(3)) == 2


def test_pick_skips_assigned():
    h = CvsidsHeuristic(3)
    h.table.activity[1:] = [2.0, 5.0, 1.0]
    assert h.pick(assigned_mask(3, assigned=[2])) == 1


def test_pick_tie_breaks_lowest_index():
    h = CvsidsHeuristic(4)
    h.table.activity[1:] = [3.0, 1.0, 2.0, 3.0]
    assert h.pick(assigned_mask(4)) == 1


def test_random_pick_uniform_and_seeded():
    h1 = RandomHeuristic(10, seed=4)
    h2 = RandomHeuristic(10, seed=4)
    seq1 = [h1.pick(assigned_mask(10)) for _ in range(50)]
    seq2 = [h2.pick(assigned_mask(10)) for _ in range(50)]
    assert seq1 == seq2
    assert set(seq1) <= set(range(1, 11))
    assert len(set(seq1)) > 3


# -- conflict updates -------------------------------------------------------


def test_cvsids_bumps_learnt_vars_only():
    h = CvsidsHeuristic(4, decay=0.95)
    h.on_conflict(analysis([1, -3], resolved={1, 2, 3}))
    norm = h.table.normalized()
    assert norm[1] == norm[3] > 0
    assert norm[2] == 0 and norm[4] == 0


def test_cvsids_min_bump_size_skips_learnt_units():
    h = CvsidsHeuristic(4, min_bump_size=2)
    assert h.bump_set(analysis([-3], resolved={1, 2, 3})) == ()
    assert h.bump_set(analysis([2, -4], resolved={1, 2, 4})) == (2, 4)


def test_unbumped_variable_stays_zero():
    h = CvsidsHeuristic(4)
    for i in range(10):
        h.on_conflict(analysis([1]))
    assert h.table.normalized()[2] == 0.0


def test_cvsids_matches_direct_decay_sum():
    # k conflicts all bumping var 1: reference value is sum_j f^(k-j).
    f = 0.95
    k = 25
    h = CvsidsHeuristic(2, decay=f)
    ref = DirectDecayActivity(2, decay=f)
    for i in range(k):
        h.on_conflict(analysis([1]))
        ref.on_conflict([1])
    expected = sum(f ** (k - j) for j in range(1, k + 1))
    assert ref.activity[1] == pytest.approx(expected, rel=1e-12)
    assert h.table.normalized()[1] == pytest.approx(expected, rel=1e-12)


def test_mvsids_bumps_resolved_superset():
    hc = CvsidsHeuristic(5)
    hm = MvsidsHeuristic(5)
    a = analysis([1, -2], resolved={1, 2, 3, 4})
    assert set(hc.bump_set(a)) <= set(hm.bump_set(a))
    b = analysis([1, -2], resolved={1, 2})
    assert set(hc.bump_set(b)) == set(hm.bump_set(b))


def test_mvsids_bump_count_dominates_cvsids_on_replayed_log():
    rng = random.Random(0)
    hc, hm = CvsidsHeuristic(20), MvsidsHeuristic(20)
    for t in range(200):
        learnt = rng.sample(range(1, 21), rng.randint(1, 5))
        resolved = set(learnt) | set(rng.sample(range(1, 21), rng.randint(0, 8)))
        a = analysis([v for v in learnt], resolved=resolved)
        assert len(hm.bump_set(a)) >= len(hc.bump_set(a))
        hc.on_conflict(a)
        hm.on_conflict(a)


def test_adapt_decay_selection():
    h = AdaptVsidsHeuristic(4, fast_decay=0.75, slow_decay=0.99, lbd_smoothing=0.05)
    h.lbdema = 3.2
    before = h.table.bump_quantum
    h.on_conflict(analysis([1], lbd=5))
    assert h.table.bump_quantum == pytest.approx(before / 0.75)

    h2 = AdaptVsidsHeuristic(4)
    h2.lbdema = 3.2
    before = h2.table.bump_quantum
    h2.on_conflict(analysis([1], lbd=2))
    assert h2.table.bump_quantum == pytest.approx(before / 0.99)


def test_adapt_boundary_equal_lbd_uses_slow_decay():
    h = AdaptVsidsHeuristic(4)
    h.lbdema = 3.0
    before = h.table.bump_quantum
    h.on_conflict(analysis([1], lbd=3))
    assert h.table.bump_quantum == pytest.approx(before / 0.99)


def test_adapt_lbdema_initialized_from_first_clause_then_smoothed():
    h = AdaptVsidsHeuristic(4, lbd_smoothing=0.05)
    h.on_conflict(analysis([1], lbd=7))
    assert h.lbdema == 7.0
    h.on_conflict(analysis([1], lbd=3))
    assert h.lbdema == pytest.approx(7.0 + 0.05 * (3 - 7.0))


def test_adapt_comparison_happens_before_ema_update():
    # lbdema 4; lbd 5 > 4 must pick fast decay even though the post-update
    # average would exceed 5 with large smoothing.
    h = AdaptVsidsHeuristic(4, fast_decay=0.5, slow_decay=0.9, lbd_smoothing=0.9)
    h.lbdema = 4.0
    before = h.table.bump_quantum
    h.on_conflict(analysis([1], lbd=5))
    assert h.table.bump_quantum == pytest.approx(before / 0.5)


# -- normalized VSIDS / EMA ----------------------------------------------------


def test_normalized_vsids_examples():
    assert normalized_vsids([1], 0.95) == pytest.approx(0.05)
    assert normalized_vsids([1, 0, 0], 0.95) == pytest.approx(0.045125)
    assert normalized_vsids([0, 0, 0, 0], 0.95) == 0.0
    assert normalized_vsids([], 0.95) == 0.0


def test_normalized_vsids_recursive_examples():
    assert normalized_vsids_recursive(0.0, 1, 0.95) == pytest.approx(0.05)
    assert normalized_vsids_recursive(0.05, 0, 0.95) == pytest.approx(0.0475)


def test_normalized_vsids_rejects_bad_decay():
    with pytest.raises(ValueError):
        normalized_vsids([1], 1.0)
    with pytest.raises(ValueError):
        normalized_vsids_recursive(0.0, 1, 0.0)


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=1000),
    st.sampled_from([0.5, 0.9, 0.95, 0.99]),
)
def test_ema_recursive_fold_equals_closed_form(deltas, f):
    s = 0.0
    for d in deltas:
        s = normalized_vsids_recursive(s, d, f)
    closed = normalized_vsids(deltas, f)
    assert s == pytest.approx(closed, rel=1e-9, abs=1e-300)


# -- EVSIDS bookkeeping ---------------------------------------------------------


def test_ranking_fresh_table_index_order():
    h = CvsidsHeuristic(4)
    assert activity_order(h.table) == [1, 2, 3, 4]
    assert all(s == 0.0 for s in h.table.normalized()[1:])


def test_ranking_after_single_bump():
    h = CvsidsHeuristic(4)
    h.on_conflict(analysis([3]))
    assert activity_order(h.table)[0] == 3


def test_rescale_preserves_order_and_argmax():
    # At decay 0.5 the bump quantum passes RESCALE_THRESHOLD after 333
    # conflicts (2^333 > 1e100).
    t = ActivityTable(6, decay=0.5)
    rng = random.Random(5)
    for i in range(400):
        t.decay()
        t.bump_all(rng.sample(range(1, 7), 2))
    assert t.rescales > 0
    # order induced by the table must match a fresh direct computation
    before = activity_order(t)
    t._rescale()
    after = activity_order(t)
    assert before == after


def test_evsids_ranking_matches_direct_decay_reference():
    rng = random.Random(11)
    n = 25
    h = CvsidsHeuristic(n, decay=0.95)
    ref = DirectDecayActivity(n, decay=0.95)
    for t in range(4000):
        bumped = sorted(rng.sample(range(1, n + 1), rng.randint(1, 6)))
        h.on_conflict(analysis(bumped))
        ref.on_conflict(bumped)
        if t % 10 == 0:
            assert activity_order(h.table) == ref.ranking_order()
    assert activity_order(h.table) == ref.ranking_order()


@pytest.mark.parametrize("seeded", [False, True], ids=["zeros", "initial_activities"])
def test_activity_store_matches_numpy_scalar_bumps(seeded):
    # Decays of 0.5 and 0.75 push the quantum past 1e100 every few hundred
    # conflicts, so some rescales fire before the last variable of a bump set.
    rng = random.Random(23)
    n = 40
    initial = np.array([0.0] + [rng.random() * 1e99 for _ in range(n)]) if seeded else None
    table = CvsidsHeuristic(n, decay=0.9).table
    if seeded:
        table.activity[:] = initial
    ref = NumpyBumpActivity(n, decay=0.9, initial=initial)
    for _ in range(3000):
        bumped = sorted(rng.sample(range(1, n + 1), rng.randint(1, 8)))
        factor = rng.choice((None, 0.5, 0.75))
        table.decay(factor)
        if rng.random() < 0.5:
            table.bump_all(bumped)
        else:
            for v in bumped:
                table.bump_all((v,))
        ref.on_conflict(bumped, factor)
        assert table.activity.tobytes() == ref.activity.tobytes()
        assert table.bump_quantum == ref.bump_quantum
        assert table.rescales == ref.rescales
    assert ref.mid_loop_rescales > 0


def test_activity_writes_reach_pick_and_bumps():
    h = MvsidsHeuristic(5)
    h.table.activity[4] = 3.0
    assert h.pick(assigned_mask(5)) == 4
    h.table.activity[2] = 5.0
    h.table.bump_all((2,))
    assert h.table.activity[2] == 6.0
    assert h.pick(assigned_mask(5)) == 2


def test_adapt_degenerates_to_mvsids_on_solver_runs():
    from helpers import DecisionLogHook
    from satscope.generator import gen_random_ksat
    from satscope.solver import Solver

    for i in range(5):
        f = gen_random_ksat(30, 128, 3, seed=300 + i)
        logs = []
        for name in ("mvsids", "degenerate-adapt"):
            cfg = SolverConfig(seed=7, conflict_budget=400)
            if name == "mvsids":
                heuristic = MvsidsHeuristic(f.num_vars, decay=0.95)
            else:
                heuristic = AdaptVsidsHeuristic(
                    f.num_vars, fast_decay=0.95, slow_decay=0.95, lbd_smoothing=0.0
                )
            hook = DecisionLogHook()
            Solver(f, cfg, heuristic, hook).solve()
            logs.append(hook.log)
        assert logs[0] == logs[1]


def test_make_heuristic_dispatch():
    cfg = SolverConfig()
    assert isinstance(make_heuristic(cfg, 5), MvsidsHeuristic)
    for name, cls in [
        ("cvsids", CvsidsHeuristic),
        ("adaptvsids", AdaptVsidsHeuristic),
        ("random", RandomHeuristic),
    ]:
        assert isinstance(make_heuristic(SolverConfig(heuristic=name), 5), cls)
    with pytest.raises(ValueError):
        make_heuristic(SolverConfig(heuristic="dlis"), 5)
