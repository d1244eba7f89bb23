import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satscope.centrality import eigenvector_centrality
from satscope.cnf import Clause, Formula
from satscope.graph import Tvig, build_vig

from helpers import DictCliqueGraph, effective_weight


def test_vig_single_clause_clique():
    f = Formula(3, [Clause((1, -2, 3))])
    g = build_vig(f)
    assert g.adj[1][2] == pytest.approx(0.5)
    assert g.adj[1][3] == pytest.approx(0.5)
    assert g.adj[2][3] == pytest.approx(0.5)


def test_vig_weights_sum_over_clauses():
    f = Formula(3, [Clause((1, 2)), Clause((1, 2, 3))])
    g = build_vig(f)
    assert g.adj[1][2] == pytest.approx(1.5)


def test_vig_unit_clause_no_edges():
    f = Formula(1, [Clause((1,))])
    g = build_vig(f)
    assert g.adj[1] == {}
    assert g.incident[1]


def test_vig_symmetry_and_positivity():
    rng = random.Random(3)
    from satscope.generator import gen_random_ksat

    f = gen_random_ksat(20, 60, 3, seed=5)
    g = build_vig(f)
    for u in range(1, 21):
        for v, w in g.adj[u].items():
            assert w > 0
            assert g.adj[v][u] == w
            assert v != u


# -- Tvig -----------------------------------------------------------------


def test_tvig_add_binary_clause():
    g = Tvig(3, alpha=0.95)
    g.add_clause((1, 2))
    assert effective_weight(g, 1, 2) == pytest.approx(1.0)


def test_tvig_unit_clause_noop():
    g = Tvig(2)
    g.add_clause((1,))
    assert g.adj[1] == {}
    assert g.effective_degree()[1] == 0.0


def test_tvig_triple_clause():
    g = Tvig(3)
    g.add_clause((1, 2))
    w0 = effective_weight(g, 1, 2)
    g.add_clause((1, 2, 3))
    assert effective_weight(g, 1, 2) == pytest.approx(w0 + 0.5)


def test_tvig_advance_decays():
    g = Tvig(2, alpha=0.95)
    g.add_clause((1, 2))
    g.advance()
    assert effective_weight(g, 1, 2) == pytest.approx(0.95)


def test_tvig_advance_then_add_is_age_zero():
    g = Tvig(2, alpha=0.95)
    g.advance()
    g.add_clause((1, 2))
    assert effective_weight(g, 1, 2) == pytest.approx(1.0)


def test_tvig_age_decay_matches_direct_formula():
    g = Tvig(3, alpha=0.95)
    g.add_clause((1, 2, 3))
    for _ in range(7):
        g.advance()
    assert effective_weight(g, 1, 2) == pytest.approx(0.95**7 / 2, rel=1e-12)


def _direct_weights(num_vars, log, alpha, t):
    """Oracle: recompute every pair weight as sum alpha^age / (|c|-1) from the log."""
    w = {}
    for ts, vs in log:
        k = len(vs)
        if k < 2:
            continue
        contrib = alpha ** (t - ts) / (k - 1)
        for i in range(k):
            for j in range(i + 1, k):
                key = (vs[i], vs[j])
                w[key] = w.get(key, 0.0) + contrib
    return w


def _check_against_oracle(g, log, alpha, t):
    direct = _direct_weights(g.num_vars, log, alpha, t)
    for (u, v), expect in direct.items():
        assert effective_weight(g, u, v) == pytest.approx(expect, rel=1e-9)
    seen = {(u, v) for u, v, _ in g.edges()}
    assert seen == set(direct)


def test_lazy_decay_equivalence_long_interleaving():
    rng = random.Random(7)
    alpha = 0.95
    n = 30
    g = Tvig(n, alpha=alpha)
    log = []
    now = 0  # advances so far
    for step in range(10_000):
        if rng.random() < 0.55:
            g.advance()
            now += 1
        else:
            k = rng.randint(1, 5)
            vs = tuple(sorted(rng.sample(range(1, n + 1), k)))
            g.add_clause(vs)
            log.append((now, vs))
        if step % 2500 == 0:
            _check_against_oracle(g, log, alpha, now)
    assert g.rescales > 0  # 10^4 steps at 0.95 crosses the 1e-100 floor
    _check_against_oracle(g, log, alpha, now)


def test_alpha_one_matches_static_vig():
    rng = random.Random(1)
    from satscope.generator import gen_random_ksat

    f = gen_random_ksat(15, 40, 3, seed=2)
    g = Tvig(15, alpha=1.0)
    g.add_formula(f)
    extra = []
    for t in range(1, 11):
        g.advance()
        vs = tuple(sorted(rng.sample(range(1, 16), 3)))
        g.add_clause(vs)
        extra.append(Clause(vs))
    static = build_vig(Formula(15, list(f.clauses) + extra))
    # Adding clauses over time at alpha = 1 inserts the same neighbours in the
    # same order as building the static graph at once.
    assert [list(d) for d in g.adj] == [list(d) for d in static.adj]
    for u in range(1, 16):
        for v, w in static.adj[u].items():
            assert effective_weight(g, u, v) == pytest.approx(w, rel=1e-12)


def test_symmetry_after_operations():
    rng = random.Random(9)
    g = Tvig(12, alpha=0.9)
    for t in range(200):
        if rng.random() < 0.5:
            g.advance()
        else:
            vs = tuple(sorted(rng.sample(range(1, 13), rng.randint(2, 4))))
            g.add_clause(vs)
    for u in range(1, 13):
        for v, w in g.adj[u].items():
            assert w >= 0
            assert g.adj[v][u] == w


# -- the clause store against the dict-of-dicts clique oracle ----------------------

_N = 12
_MAX_ADVANCES = 5  # at alpha 1e-40: one rescale (third advance), all weights stay normal
_clauses = st.lists(st.integers(-_N, _N).filter(bool), min_size=1, max_size=6)


def _oracle_power_iteration(ref: DictCliqueGraph) -> np.ndarray:
    """100 power-iteration steps on the oracle's merged adjacency, as a dense matrix.

    The global scale is left out: it is common to every weight, so the
    normalised iterates do not depend on it, and unscaled weights stay normal
    where effective ones underflow.
    """
    a = np.zeros((_N, _N))
    for v, d in enumerate(ref.adj):
        for u, w in d.items():
            a[v - 1, u - 1] = w
    x = np.full(_N, 1.0 / np.sqrt(_N))
    for _ in range(100):
        y = a @ x
        x = y / np.linalg.norm(y)
    return x


def _assert_tec_matches_oracle(g: Tvig, ref: DictCliqueGraph) -> None:
    tec = eigenvector_centrality(g)
    assert tec.degenerate == (not any(ref.adj))
    if not tec.degenerate:
        assert np.max(np.abs(tec.scores[1:] - _oracle_power_iteration(ref))) <= 1e-12


@given(st.sampled_from([1.0, 0.9, 1e-40]),
       st.lists(st.one_of(st.none(), st.just("tec"), _clauses), max_size=30))
def test_store_views_match_dict_clique_oracle(alpha, ops):
    g = Tvig(_N, alpha)
    ref = DictCliqueGraph(_N, alpha)
    advances = 0
    for op in ops:
        if op is None:
            if advances < _MAX_ADVANCES:
                g.advance()
                ref.advance()
                advances += 1
        elif op == "tec":
            _assert_tec_matches_oracle(g, ref)  # between clauses, not only at the end
        else:
            vs = Clause(tuple(op)).variables()
            g.add_clause(vs)
            ref.add_clause(vs)
    assert g.rescales == ref.rescales
    assert g.global_scale == ref.global_scale
    # Same neighbours in the same insertion order, rescaled or not.
    assert [list(d) for d in g.adj] == [list(d) for d in ref.adj]
    degree = ref.degree * ref.global_scale
    if g.rescales == 0:
        assert [list(d.values()) for d in g.adj] == [list(d.values()) for d in ref.adj]
        assert np.array_equal(g.effective_degree(), degree)
    else:
        for got, want in zip(g.adj, ref.adj):
            assert all(math.isclose(got[u], w, rel_tol=1e-12) for u, w in want.items())
        np.testing.assert_allclose(g.effective_degree(), degree, rtol=1e-12, atol=0)
    _assert_tec_matches_oracle(g, ref)


# -- add_formula against clause-by-clause add_clause -----------------------------


@given(st.sampled_from([1.0, 0.9, 1e-40]), st.integers(0, 3),
       st.lists(_clauses, max_size=20))
def test_add_formula_matches_add_clause_one_by_one(alpha, advances, rows):
    whole, single = Tvig(_N, alpha), Tvig(_N, alpha)
    for _ in range(advances):
        whole.advance()
        single.advance()
    clauses = [Clause(tuple(lits)) for lits in rows]
    whole.add_formula(Formula(_N, clauses))
    for clause in clauses:
        single.add_clause(clause.variables())
    for got, want in zip(whole.clause_store(), single.clause_store()):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(whole.incident, single.incident)
