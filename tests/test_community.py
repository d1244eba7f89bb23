import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import best_partition_modularity, label_agreement, numpy_modularity
from satscope.cnf import Clause, Formula
from satscope.community import (
    CommunityAssignment,
    LouvainTimeout,
    assignment_from_mapping,
    bridge_variables,
    louvain,
    modularity,
    read_community_file,
    write_community_file,
)
from satscope.generator import PlantedConfig, gen_planted_community
from satscope.graph import build_vig


def triangle_pair_formula(bridge=False):
    clauses = [
        Clause((1, 2)), Clause((2, 3)), Clause((1, 3)),
        Clause((4, 5)), Clause((5, 6)), Clause((4, 6)),
    ]
    if bridge:
        clauses.append(Clause((3, 4)))
    return Formula(6, clauses)


def assign(n, mapping):
    arr = np.full(n + 1, -1, dtype=int)
    for v, c in mapping.items():
        arr[v] = c
    return arr


def test_modularity_two_disjoint_triangles():
    g = build_vig(triangle_pair_formula())
    q = modularity(g, assign(6, {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}))
    assert q == pytest.approx(0.5)


def test_modularity_single_community_zero():
    g = build_vig(triangle_pair_formula())
    assert modularity(g, assign(6, {v: 0 for v in range(1, 7)})) == pytest.approx(0.0)


def test_modularity_edgeless_graph_zero():
    g = build_vig(Formula(3, [Clause((1,))]))
    assert modularity(g, assign(3, {1: 0, 2: 1, 3: 2})) == 0.0


def test_random_partition_never_beats_exhaustive_best():
    rng = random.Random(13)
    for trial in range(10):
        n = rng.randint(3, 7)
        clauses = []
        for _ in range(rng.randint(2, 10)):
            u, v = rng.sample(range(1, n + 1), 2)
            clauses.append(Clause((u, v)))
        g = build_vig(Formula(n, clauses))
        best = best_partition_modularity(g)
        for _ in range(10):
            arr = assign(n, {v: rng.randrange(3) for v in range(1, n + 1)})
            assert modularity(g, arr) <= best + 1e-9


@st.composite
def formula_and_partition(draw):
    """A formula over 1-10 variables (some may have no clause) and a labelling of them."""
    n = draw(st.integers(1, 10))
    lits = st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=4)
    clauses = [Clause(tuple(c)) for c in draw(st.lists(lits, max_size=15))]
    labels = draw(st.one_of(st.just([0] * n),
                            st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return Formula(n, clauses), np.array([-1] + labels)


@given(formula_and_partition())
def test_modularity_equals_numpy_scalar_reference(case):
    formula, community_of = case
    g = build_vig(formula)
    assert modularity(g, community_of) == numpy_modularity(g, community_of)


def test_modularity_equals_numpy_scalar_reference_on_planted_and_louvain():
    f, planted = gen_planted_community(PlantedConfig(400, 8, 1650, 3, 0.9, seed=2))
    g = build_vig(f)
    found = louvain(g, seed=0)
    assert planted.modularity == numpy_modularity(g, planted.community_of)
    assert found.modularity == numpy_modularity(g, found.community_of)


# -- louvain ------------------------------------------------------------------


def test_louvain_two_triangles_with_bridge():
    g = build_vig(triangle_pair_formula(bridge=True))
    result = louvain(g, seed=0)
    assert result.num_communities == 2
    a = result.community_of
    assert a[1] == a[2] == a[3]
    assert a[4] == a[5] == a[6]
    assert a[1] != a[4]
    assert result.modularity == pytest.approx(best_partition_modularity(g), abs=1e-9)


def test_louvain_complete_graph_single_community():
    clauses = [Clause((u, v)) for u in range(1, 5) for v in range(u + 1, 5)]
    g = build_vig(Formula(4, clauses))
    result = louvain(g, seed=0)
    assert result.num_communities == 1
    assert result.modularity == pytest.approx(0.0)


def test_louvain_edgeless_graph_singletons():
    g = build_vig(Formula(4, []))
    result = louvain(g, seed=0)
    assert result.num_communities == 4
    assert result.modularity == 0.0


def test_louvain_deterministic_per_seed():
    cfg = PlantedConfig(120, 4, 400, 3, 0.9, seed=5)
    f, _ = gen_planted_community(cfg)
    g = build_vig(f)
    a = louvain(g, seed=3)
    b = louvain(g, seed=3)
    assert np.array_equal(a.community_of, b.community_of)
    assert a.modularity == b.modularity


def test_louvain_modularity_not_below_singletons():
    cfg = PlantedConfig(60, 3, 180, 3, 0.8, seed=2)
    f, _ = gen_planted_community(cfg)
    g = build_vig(f)
    result = louvain(g, seed=1)
    singleton = modularity(g, np.arange(-1, 60))  # arbitrary all-distinct labels
    singleton_q = modularity(g, assign(60, {v: v - 1 for v in range(1, 61)}))
    assert result.modularity >= singleton_q - 1e-12


def test_louvain_recovers_planted_communities():
    cfg = PlantedConfig(400, 4, 1700, 3, 0.95, seed=1)
    f, planted = gen_planted_community(cfg)
    found = louvain(build_vig(f), seed=0)
    assert label_agreement(found, planted) >= 0.9


def test_louvain_timeout_raises():
    cfg = PlantedConfig(400, 4, 1700, 3, 0.9, seed=0)
    f, _ = gen_planted_community(cfg)
    with pytest.raises(LouvainTimeout):
        louvain(build_vig(f), seed=0, time_budget_s=0.0)


def test_louvain_assignment_invariants():
    cfg = PlantedConfig(150, 5, 500, 3, 0.85, seed=8)
    f, _ = gen_planted_community(cfg)
    g = build_vig(f)
    result = louvain(g, seed=0)
    assert (result.community_of[1:] >= 0).all()
    ids = set(result.community_of[1:])
    assert ids == set(range(result.num_communities))
    assert result.modularity == pytest.approx(modularity(g, result.community_of), abs=1e-9)


# -- bridges -------------------------------------------------------------------


def test_bridge_variables_cross_clause():
    f = triangle_pair_formula(bridge=True)
    a = CommunityAssignment(assign(6, {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}), 2, 0.0)
    assert bridge_variables(f, a) == {3, 4}


def test_bridge_variables_single_community_empty():
    f = triangle_pair_formula()
    a = CommunityAssignment(assign(6, {v: 0 for v in range(1, 7)}), 1, 0.0)
    assert bridge_variables(f, a) == set()


def test_bridge_variables_matches_direct_scan():
    rng = random.Random(4)
    cfg = PlantedConfig(60, 4, 200, 3, 0.8, seed=9)
    f, planted = gen_planted_community(cfg)
    got = bridge_variables(f, planted)
    expect = set()
    for c in f.clauses:
        vs = c.variables()
        comms = {planted.community_of[v] for v in vs}
        if len(comms) > 1:
            expect |= set(vs)
    assert got == expect


@given(formula_and_partition(), st.integers(1, 10))
def test_bridge_variables_match_their_definition(case, var):
    formula, community_of = case
    v = var % formula.num_vars + 1
    # Built directly, so not normalised: an empty clause, a unit, and a clause
    # that repeats its variable in both polarities.
    clauses = formula.clauses + [Clause(()), Clause((v,)), Clause((v, -v, v))]
    labels = community_of.tolist()
    a = CommunityAssignment(community_of, max(labels) + 1, 0.0)
    # A variable is a bridge iff some clause holds it with a variable of another community.
    expect = {abs(l) for c in clauses for l in c.lits
              if any(labels[abs(m)] != labels[abs(l)] for m in c.lits)}
    assert bridge_variables(Formula(formula.num_vars, clauses), a) == expect


def test_bridge_monotone_under_extra_inter_clause():
    f = triangle_pair_formula(bridge=True)
    a = CommunityAssignment(assign(6, {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}), 2, 0.0)
    before = bridge_variables(f, a)
    f2 = Formula(6, f.clauses + [Clause((1, 6))])
    after = bridge_variables(f2, a)
    assert before <= after


# -- community files -------------------------------------------------------


def test_community_file_roundtrip(tmp_path):
    cfg = PlantedConfig(30, 3, 90, 3, 0.9, seed=4)
    f, planted = gen_planted_community(cfg)
    path = tmp_path / "x.comm"
    write_community_file(path, planted)
    mapping = read_community_file(path)
    rebuilt = assignment_from_mapping(build_vig(f), mapping)
    assert np.array_equal(rebuilt.community_of, planted.community_of)
    assert rebuilt.modularity == pytest.approx(planted.modularity)


def test_read_community_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.comm"
    for text, where in (("1 0 7\n", "bad.comm:1:"), ("1 0\n2 x\n", "bad.comm:2:"),
                        ("1 0\n2 1\n1 2\n", "bad.comm:3: variable 1")):
        path.write_text(text)
        with pytest.raises(ValueError, match=where):
            read_community_file(path)
