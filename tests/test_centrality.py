import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satscope import centrality
from satscope.centrality import degree_centrality, eigenvector_centrality
from satscope.cnf import Clause, Formula
from satscope.graph import Tvig, build_vig

from helpers import (
    dfs_component_mass,
    edge_list_tvig,
    power_iteration_reference,
    random_weighted_edges,
    solve,
)


def random_weighted_tvig(n, rng, p=0.3, connected=True):
    """Synthetic symmetric weighted graph held as one 2-variable row per edge."""
    return edge_list_tvig(n, random_weighted_edges(n, rng, p, connected))


def test_degree_single_clause():
    f = Formula(3, [Clause((1, 2, 3))])
    dc = degree_centrality(build_vig(f))
    assert dc.scores[1] == pytest.approx(1.0)
    assert dc.scores[2] == pytest.approx(1.0)
    assert dc.scores[3] == pytest.approx(1.0)


def test_degree_isolated_variable_zero():
    f = Formula(4, [Clause((1, 2, 3))])
    dc = degree_centrality(build_vig(f))
    assert dc.scores[4] == 0.0


def test_temporal_degree_decays_with_advance():
    g = Tvig(3, alpha=0.95)
    g.add_clause((1, 2, 3))
    before = degree_centrality(g).scores.copy()
    g.advance()
    after = degree_centrality(g)
    np.testing.assert_allclose(after.scores[1:], before[1:] * 0.95, rtol=1e-12)


def test_tdc_additivity_exact_at_unit_scale():
    for k in range(2, 9):
        g = Tvig(10)
        g.add_clause(tuple(range(1, k + 1)))
        before = degree_centrality(g).scores.copy()
        g.add_clause(tuple(range(1, k + 1)))
        after = degree_centrality(g).scores
        for v in range(1, k + 1):
            assert after[v] - before[v] == 1.0  # exact, not approximate


def test_tdc_additivity_after_decay_within_tolerance():
    g = Tvig(6, alpha=0.95)
    g.add_clause((1, 2, 3, 4))
    for t in range(1, 30):
        g.advance()
    before = degree_centrality(g).scores.copy()
    g.add_clause((1, 2, 3))
    after = degree_centrality(g).scores
    for v in (1, 2, 3):
        assert after[v] - before[v] == pytest.approx(1.0, rel=1e-12)


def test_eigenvector_two_vertices():
    f = Formula(2, [Clause((1, 2))])
    ec = eigenvector_centrality(build_vig(f))
    assert ec.scores[1] == pytest.approx(1 / math.sqrt(2))
    assert ec.scores[2] == pytest.approx(1 / math.sqrt(2))


def test_eigenvector_star_center_dominates():
    # Three triangles sharing variable 1: a hub on a connected graph with odd
    # cycles, where power iteration converges.
    f = Formula(7, [Clause((1, 2, 3)), Clause((1, 4, 5)), Clause((1, 6, 7))])
    ec = eigenvector_centrality(build_vig(f))
    assert ec.scores[1] > ec.scores[2] + 0.1
    np.testing.assert_allclose(ec.scores[3:], ec.scores[2], rtol=1e-12)


def test_eigenvector_bipartite_star_alternates(monkeypatch):
    """The star K1,3 is bipartite: the iterates alternate with the step count's parity."""
    g = build_vig(Formula(4, [Clause((1, 2)), Clause((1, 3)), Clause((1, 4))]))
    assert centrality.ITERATIONS == 100
    even = eigenvector_centrality(g).scores[1:]
    monkeypatch.setattr(centrality, "ITERATIONS", 101)
    odd = eigenvector_centrality(g).scores[1:]
    np.testing.assert_allclose(even, 0.5, rtol=1e-12)
    np.testing.assert_allclose(odd, [math.sqrt(3) / 2] + [1 / math.sqrt(12)] * 3, rtol=1e-12)


@st.composite
def tec_graphs(draw):
    """Graphs on which power iteration converges, cycles or has nothing to iterate.

    Random weighted graphs, connected or not (a sparse one may have no edge);
    a bipartite graph of binary clauses beside an optional triangle; and a
    clause graph decayed past a rescale of its global scale.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    kind = draw(st.sampled_from(["random", "bipartite", "decayed"]))
    if kind == "random":
        p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
        return random_weighted_tvig(n, rng, p, connected=draw(st.booleans()))
    if kind == "bipartite":
        left = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        right = [v for v in range(1, n + 1) if v not in left]
        edges = [(u, v, rng.choice([1.0, rng.uniform(0.1, 2.0)]))
                 for u in left for v in right if rng.random() < 0.6]
        if draw(st.booleans()):  # an odd cycle in a component of its own
            edges += [(n + 1, n + 2, 1.0), (n + 1, n + 3, 1.0), (n + 2, n + 3, 1.0)]
            n += 3
        return edge_list_tvig(n, edges)
    g = Tvig(n, alpha=0.5)
    for advances in (340, rng.randint(0, 400)):  # 0.5 ** 333 is below SCALE_FLOOR
        for _ in range(rng.randint(1, 2 * n)):
            g.add_clause(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))))
        for _ in range(advances):
            g.advance()
    assert g.rescales > 0
    return g


@given(tec_graphs(), st.sampled_from([1, 2, 3, 100, 101]))
def test_eigenvector_same_bits_as_every_step(g, iterations):
    """Stopping at an exact repeat returns the bits the full loop returns."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(centrality, "ITERATIONS", iterations)
        got = eigenvector_centrality(g)
    want = power_iteration_reference(g, iterations)
    assert np.array_equal(got.scores, want.scores)
    assert got.degenerate == want.degenerate


class StepCounter:
    """Stands in for ``centrality.np`` and counts the ``bincount`` of each power-iteration step."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, *args, **kwargs):
        self.steps += 1
        return np.bincount(*args, **kwargs)


@pytest.mark.parametrize("iterations", [100, 101])
@pytest.mark.parametrize("clauses", [
    [(1, 2), (1, 3), (1, 4)],  # the star K1,3: bipartite, its iterates alternate
    [(1, 2, 3)],  # a triangle: the uniform start vector is its eigenvector
], ids=["star", "triangle"])
def test_eigenvector_stops_at_first_repeat(monkeypatch, clauses, iterations):
    g = build_vig(Formula(max(map(max, clauses)), [Clause(c) for c in clauses]))
    counter = StepCounter()
    monkeypatch.setattr(centrality, "ITERATIONS", iterations)
    monkeypatch.setattr(centrality, "np", counter)
    got = eigenvector_centrality(g).scores
    monkeypatch.undo()
    assert counter.steps < iterations // 10
    assert np.array_equal(got, power_iteration_reference(g, iterations).scores)


def test_eigenvector_matches_dense_eigensolver():
    rng = random.Random(17)
    for trial in range(20):
        n = rng.randint(5, 30)
        g = random_weighted_tvig(n, rng)
        got = eigenvector_centrality(g).scores[1:]
        a = np.zeros((n, n))
        for u in range(1, n + 1):
            for v, w in g.adj[u].items():
                a[u - 1, v - 1] = w
        vals, vecs = np.linalg.eigh(a)
        principal = np.abs(vecs[:, np.argmax(vals)])
        cos = float(np.dot(got, principal) / (np.linalg.norm(got) * np.linalg.norm(principal)))
        assert 1.0 - cos < 1e-6


def test_eigenvector_empty_graph_degenerate():
    f = Formula(3, [Clause((2,))])
    ec = eigenvector_centrality(build_vig(f))
    assert ec.degenerate
    assert ec.scores[2] == pytest.approx(1.0)
    assert ec.scores[1] == 0.0 and ec.scores[3] == 0.0


def test_scale_invariance_of_rankings():
    rng = random.Random(23)
    edges = random_weighted_edges(12, rng)
    g = edge_list_tvig(12, edges)
    dc1 = degree_centrality(g).scores
    ec1 = eigenvector_centrality(g).scores
    g = edge_list_tvig(12, [(u, v, w * 7.5) for u, v, w in edges])
    dc2 = degree_centrality(g).scores
    ec2 = eigenvector_centrality(g).scores
    assert list(np.argsort(-dc1[1:])) == list(np.argsort(-dc2[1:]))
    np.testing.assert_allclose(dc2[1:], dc1[1:] * 7.5, rtol=1e-12)
    np.testing.assert_allclose(ec2[1:], ec1[1:], rtol=1e-9)


def test_power_iteration_cosine_distance_nonincreasing_after_burnin(monkeypatch):
    rng = random.Random(31)
    g = random_weighted_tvig(15, rng)
    iterates = []
    for k in range(1, 40):
        monkeypatch.setattr(centrality, "ITERATIONS", k)
        iterates.append(eigenvector_centrality(g).scores[1:])
    dists = []
    for x, y in zip(iterates, iterates[1:]):
        cos = float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))
        dists.append(1.0 - cos)
    burnin = 5
    for d1, d2 in zip(dists[burnin:], dists[burnin + 1 :]):
        assert d2 <= d1 + 1e-12


def test_disconnected_graph_component_mass_diagnostic():
    g = edge_list_tvig(4, [(1, 2, 5.0), (3, 4, 0.5)])
    ec = eigenvector_centrality(g)
    masses = dfs_component_mass(g.adj, 4, ec.scores[1:])
    assert len(masses) == 2
    assert masses[0] > 0.99  # dominant component holds essentially all the mass


def test_eigenvector_memory_grows_with_clauses_not_n_squared():
    import tracemalloc
    from satscope.generator import gen_random_ksat

    g = build_vig(gen_random_ksat(5000, 20000, 3, seed=1))
    tracemalloc.start()
    try:
        eigenvector_centrality(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a dense 5000 x 5000 matrix alone is 200 MB


def test_tec_on_long_decayed_graph_stays_finite():
    # After 7300 steps at 0.95 every effective weight is below 1e-160: the
    # squared norm of an iterate scaled by them underflows to zero.
    fresh = Tvig(4, alpha=0.95)
    fresh.add_clause((1, 2, 3))
    old = Tvig(4, alpha=0.95)
    old.add_clause((1, 2, 3))
    for _ in range(7300):
        old.advance()
    assert old.rescales > 0
    tec = eigenvector_centrality(old)
    assert not tec.degenerate
    np.testing.assert_allclose(tec.scores, eigenvector_centrality(fresh).scores,
                               rtol=1e-12, atol=0)


def test_tec_on_decayed_tvig_equals_scaled_copy_reference():
    """TEC on the clause store matches power iteration on a per-edge scaled dense copy."""
    from satscope.generator import gen_random_ksat
    from satscope.solver import InstrumentationHooks, SolverConfig

    class GraphHook(InstrumentationHooks):
        def __init__(self, formula):
            self.tvig = Tvig(formula.num_vars, alpha=0.95)
            self.tvig.add_formula(formula)
            self.advances = 0

        def on_conflict(self, solver, analysis):
            self.tvig.advance()
            self.advances += 1
            self.tvig.add_clause(analysis.learnt_vars)

    f = gen_random_ksat(80, 340, 3, seed=6)
    hook = GraphHook(f)
    solve(f, SolverConfig(seed=1, conflict_budget=300), hooks=hook)
    g = hook.tvig
    assert g.global_scale != 1.0 and hook.advances > 0

    n = g.num_vars
    s = g.global_scale
    scaled = [{u: w * s for u, w in d.items()} for d in g.adj]
    a = np.zeros((n, n))
    for u in range(1, n + 1):
        for v, w in scaled[u].items():
            a[u - 1, v - 1] = w
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(100):
        y = a @ x
        x = y / np.linalg.norm(y)

    tec = eigenvector_centrality(g)
    assert np.max(np.abs(tec.scores[1:] - x)) <= 1e-12
