import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satscope.centrality import CentralityVector
from satscope.community import CommunityAssignment
from satscope.metrics import (
    _average_ranks,
    bridge_percentages,
    fisher_mean,
    gini,
    pearson,
    spatial_score,
    spearman,
    temporal_score,
    top_k,
)

from helpers import assigned_mask, window_temporal_score


def centrality(scores):
    arr = np.zeros(len(scores) + 1)
    arr[1:] = scores
    return CentralityVector(arr)


def make_assignment(community_of):
    arr = np.full(len(community_of) + 1, -1, dtype=int)
    arr[1:] = community_of
    return CommunityAssignment(arr, max(community_of) + 1, 0.0)


# -- spearman / pearson ------------------------------------------------------


def test_spearman_identical_vectors():
    assert spearman([3, 1, 4, 1.5], [3, 1, 4, 1.5]) == pytest.approx(1.0)


def test_spearman_reversed():
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_hand_example():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_spearman_zero_variance_missing():
    assert spearman([1, 1, 1], [1, 2, 3]) is None


def test_spearman_handles_ties_with_average_ranks():
    # ranks of a are (1, 2.5, 2.5, 4); Pearson against (1,2,3,4) is 4.5/sqrt(22.5)
    a = [1, 2, 2, 3]
    b = [1, 2, 3, 4]
    assert spearman(a, b) == pytest.approx(4.5 / math.sqrt(22.5), abs=1e-12)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40))
def test_average_ranks_match_counting_definition(xs):
    # An element with `less` smaller and `eq` equal values (itself included)
    # spans sorted positions less+1 .. less+eq, whose average is less + (eq + 1) / 2.
    expected = [(2 * sum(y < x for y in xs) + sum(y == x for y in xs) + 1) / 2.0 for x in xs]
    assert _average_ranks(np.array(xs, dtype=float)).tolist() == expected


@given(
    st.lists(st.integers(min_value=-100, max_value=100), min_size=3, max_size=40),
)
def test_spearman_invariant_under_monotone_transform(xs):
    rng = random.Random(0)
    ys = [rng.random() for _ in xs]
    base = spearman(xs, ys)
    transformed = spearman([math.exp(x / 50) for x in xs], ys)
    if base is None:
        assert transformed is None
    else:
        assert transformed == pytest.approx(base, abs=1e-9)


def test_pearson_affine():
    x = [1.0, 2.0, 5.0, 7.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_hand_example():
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)


def test_pearson_zero_variance_missing():
    assert pearson([1, 1], [1, 2]) is None


def test_correlation_of_fewer_than_two_values_missing():
    for corr in (pearson, spearman):
        assert corr([0.5], [2.0]) is None
        assert corr([], []) is None
        with pytest.raises(ValueError):
            corr([1.0, 2.0], [1.0])


# -- fisher -------------------------------------------------------------------


def test_fisher_mean_constant():
    assert fisher_mean([0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-6)


def test_fisher_mean_zero():
    assert fisher_mean([0.0]) == 0.0


def test_fisher_mean_hand_example():
    expected = math.tanh((2 * math.atanh(0.5) + math.atanh(0.8)) / 3)
    assert fisher_mean([0.5, 0.5, 0.8]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.6245, abs=1e-4)


def test_fisher_mean_clamps_exact_correlations():
    assert fisher_mean([1.0, 1.0]) == pytest.approx(1.0, abs=1e-5)


def test_fisher_mean_empty_raises():
    with pytest.raises(ValueError):
        fisher_mean([])


# -- top-k ---------------------------------------------------------------------


def test_top_k_rank_one():
    c = centrality([5.0, 3.0, 1.0])
    assert top_k(1, c, assigned_mask(3), 1) == 1


def test_top_k_rank_beyond_k():
    scores = list(range(20, 0, -1))  # var 1 highest
    c = centrality(scores)
    assert top_k(11, c, assigned_mask(20), 10) == 0
    assert top_k(11, c, assigned_mask(20), 11) == 1


def test_top_k_excludes_assigned():
    c = centrality([5.0, 4.0, 3.0])
    # with vars 1,2 assigned, var 3 is rank 1
    assert top_k(3, c, assigned_mask(3, {1, 2}), 1) == 1


def test_top_k_tie_breaks_by_index():
    c = centrality([2.0, 2.0, 2.0])
    assert top_k(1, c, assigned_mask(3), 1) == 1
    assert top_k(2, c, assigned_mask(3), 1) == 0


def test_top_k_assigned_top_var_rejected():
    c = centrality([1.0, 2.0])
    with pytest.raises(ValueError):
        top_k(1, c, assigned_mask(2, {1}), 1)


def test_top_k_matches_filter_then_sort_oracle():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(3, 25)
        scores = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)]
        assigned = set(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        unassigned = [v for v in range(1, n + 1) if v not in assigned]
        var = rng.choice(unassigned)
        k = rng.randint(1, n)
        order = sorted(unassigned, key=lambda v: (-scores[v - 1], v))
        expect = 1 if order.index(var) + 1 <= k else 0
        assert top_k(var, centrality(scores), assigned_mask(n, assigned), k) == expect


def test_top_k_monotone_in_k():
    rng = random.Random(6)
    scores = [rng.random() for _ in range(15)]
    c = centrality(scores)
    vals = [top_k(7, c, assigned_mask(15), k) for k in range(1, 16)]
    assert vals == sorted(vals)


# -- gini -----------------------------------------------------------------------


def test_gini_equal_values():
    assert gini([3.0, 3.0, 3.0]) == pytest.approx(0.0, abs=1e-12)


def test_gini_hand_examples():
    assert gini([1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
    assert gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75, abs=1e-12)


def test_gini_all_zero():
    assert gini([0.0, 0.0]) == 0.0


def test_gini_rejects_negatives_and_empty():
    with pytest.raises(ValueError):
        gini([-1.0, 1.0])
    with pytest.raises(ValueError):
        gini([])


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_gini_bounds_and_permutation_invariance(xs):
    g = gini(xs)
    n = len(xs)
    assert -1e-9 <= g <= (n - 1) / n + 1e-9
    rng = random.Random(0)
    perm = xs[:]
    rng.shuffle(perm)
    assert gini(perm) == pytest.approx(g, abs=1e-9)


@given(
    st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=100),
)
def test_gini_scale_invariance(xs, c):
    assert gini([c * x for x in xs]) == pytest.approx(gini(xs), abs=1e-9)


def test_gini_double_sum_oracle():
    rng = random.Random(8)
    for _ in range(30):
        xs = [rng.uniform(0, 10) for _ in range(rng.randint(1, 12))]
        s = sum(xs)
        if s == 0:
            continue
        n = len(xs)
        direct = sum(abs(a - b) for a in xs for b in xs) / (2 * n * s)
        assert gini(xs) == pytest.approx(direct, abs=1e-12)


# -- focus scores -----------------------------------------------------------------


def decision_log(community_of, picks=()):
    """The assignment of ``community_of`` and the communities of the picked variables."""
    a = make_assignment(community_of)
    return a.community_of[list(picks)], a


def test_spatial_score_proportional_picks_zero():
    # two equal communities, equal picks per community
    log, a = decision_log([0, 0, 1, 1], picks=[1, 3, 2, 4])
    assert spatial_score(log, a) == pytest.approx(0.0)


def test_spatial_score_single_community_focus():
    log, a = decision_log([0, 0, 1, 1], picks=[1, 2, 1, 2])
    assert spatial_score(log, a) == pytest.approx(0.5)


def test_spatial_score_requires_decisions():
    log, a = decision_log([0, 0, 1, 1])
    with pytest.raises(ValueError):
        spatial_score(log, a)


def test_temporal_score_single_community():
    for d in (1, 2, 5, 40):
        log = [0] * d
        assert temporal_score(log, 1) == pytest.approx((d - 1) / d)


def test_temporal_score_fresh_every_time():
    assert temporal_score([0, 1, 2, 3, 4], 50) == 0.0


def test_temporal_score_window_size_rounds_up():
    # 11 communities -> ws = 2: pattern a,b,a keeps a in the window
    assert temporal_score([0, 1, 0], 11) == pytest.approx(1 / 3)
    # 10 communities -> ws = 1: the middle decision evicts community 0
    assert temporal_score([0, 1, 0], 10) == 0.0


def test_temporal_score_bounds():
    rng = random.Random(2)
    for _ in range(50):
        q = rng.randint(1, 20)
        log = [rng.randrange(q) for _ in range(rng.randint(1, 100))]
        ts = temporal_score(log, q)
        assert 0.0 <= ts <= 1.0


@given(st.integers(1, 60).flatmap(
    lambda q: st.tuples(st.lists(st.integers(0, q + 5), min_size=1, max_size=300), st.just(q))))
def test_temporal_score_matches_sliding_window(case):
    # Ids above q - 1 are included: the score must not assume ids below the count.
    log, q = case
    assert temporal_score(log, q) == window_temporal_score(log, q)


def test_temporal_score_empty_raises():
    with pytest.raises(ValueError):
        temporal_score([], 5)


# -- bridge percentages --------------------------------------------------------


def test_bridge_percentages_all_bridges():
    # (bridge, total) for variables, picks, bumps and learnt occurrences
    assert bridge_percentages((4, 4), (2, 2), (2, 2), (2, 2)) == (100.0, 100.0, 100.0, 100.0)


def test_bridge_percentages_empty_bridge_set():
    assert bridge_percentages((0, 4), (0, 2), (0, 1), (0, 1)) == (0.0, 0.0, 0.0, 0.0)


def test_bridge_percentages_missing_on_zero_denominator():
    assert bridge_percentages((1, 4), (0, 0), (0, 0), (0, 0)) == (25.0, None, None, None)
