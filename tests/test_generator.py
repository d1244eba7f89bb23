import numpy as np
import pytest

from helpers import check_formula, solve
from satscope.community import bridge_variables, louvain
from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.graph import build_vig
from satscope.solver import SAT, SolverConfig


def test_random_ksat_shape():
    f = gen_random_ksat(20, 85, 3, seed=0)
    assert f.num_vars == 20
    assert len(f.clauses) == 85
    for c in f.clauses:
        assert len(c.lits) == 3
        assert len(set(c.variables())) == 3


def test_random_ksat_deterministic():
    a = gen_random_ksat(15, 60, 3, seed=9)
    b = gen_random_ksat(15, 60, 3, seed=9)
    assert a == b
    c = gen_random_ksat(15, 60, 3, seed=10)
    assert a != c


def test_random_ksat_rejects_wide_clauses():
    with pytest.raises(ValueError):
        gen_random_ksat(2, 5, 3)


def test_random_ksat_passes_formula_invariants():
    for seed in range(20):
        check_formula(gen_random_ksat(12, 50, 3, seed=seed))


def test_phase_transition_census():
    # SAT fraction should fall from ~1 to ~0 as the clause/variable ratio
    # sweeps 3 -> 6 (the 3-SAT threshold is near 4.26).
    n = 50
    fractions = {}
    for ratio in (3.0, 4.26, 6.0):
        m = round(ratio * n)
        sat = 0
        for i in range(100):
            f = gen_random_ksat(n, m, 3, seed=10_000 + int(ratio * 100) + i)
            r = solve(f, SolverConfig(seed=1))
            assert r.status in ("SAT", "UNSAT")
            sat += r.status == SAT
        fractions[ratio] = sat / 100
    assert fractions[3.0] >= 0.9
    assert fractions[6.0] <= 0.1
    assert fractions[3.0] > fractions[4.26] > fractions[6.0]


# -- planted ------------------------------------------------------------------


def test_planted_config_validation():
    with pytest.raises(ValueError):
        PlantedConfig(10, 20, 30)  # more communities than vars
    with pytest.raises(ValueError):
        PlantedConfig(10, 2, 30, clause_len=1)
    with pytest.raises(ValueError):
        PlantedConfig(10, 2, 30, intra_probability=1.5)
    with pytest.raises(ValueError):
        PlantedConfig(8, 4, 30, clause_len=3)  # blocks of 2 < clause length
    with pytest.raises(ValueError, match="clause count"):
        PlantedConfig(10, 2, -1)
    # No block is drawn from at intra probability 0, but the whole pool still
    # has to hold a clause.
    with pytest.raises(ValueError, match="clause length exceeds the variable count"):
        PlantedConfig(10, 2, 5, clause_len=20, intra_probability=0.0)
    PlantedConfig(10, 5, 5, clause_len=4, intra_probability=0.0)  # blocks of 2 are fine


def test_random_ksat_rejects_negative_clause_count():
    with pytest.raises(ValueError, match="clause count"):
        gen_random_ksat(5, -3)
    assert gen_random_ksat(5, 0).clauses == []


def test_planted_deterministic():
    cfg = PlantedConfig(40, 4, 120, 3, 0.9, seed=3)
    a, pa = gen_planted_community(cfg)
    b, pb = gen_planted_community(cfg)
    assert a == b
    assert np.array_equal(pa.community_of, pb.community_of)


def test_planted_pure_intra_has_disconnected_blocks_and_no_bridges():
    cfg = PlantedConfig(40, 4, 150, 3, 1.0, seed=1)
    f, planted = gen_planted_community(cfg)
    assert bridge_variables(f, planted) == set()
    # the graph splits into (at least) the 4 planted components
    vig = build_vig(f)
    for u in range(1, 41):
        for v in vig.adj[u]:
            assert planted.community_of[u] == planted.community_of[v]


def test_planted_noise_binary_clauses_mostly_bridges():
    cfg = PlantedConfig(30, 30, 120, 2, 0.0, seed=2)
    f, planted = gen_planted_community(cfg)
    participating = {v for c in f.clauses for v in c.variables()}
    bridges = bridge_variables(f, planted)
    # with one community per variable every binary clause is inter-community
    assert bridges == participating


def test_planted_blocks_cover_all_vars_with_remainder_in_last():
    cfg = PlantedConfig(43, 4, 50, 3, 0.9, seed=0)
    f, planted = gen_planted_community(cfg)
    sizes = planted.sizes()
    assert sizes.sum() == 43
    assert list(sizes) == [10, 10, 10, 13]


def test_planted_high_intra_has_high_modularity():
    cfg = PlantedConfig(400, 4, 1700, 3, 0.95, seed=7)
    f, planted = gen_planted_community(cfg)
    assert planted.modularity >= 0.5
    found = louvain(build_vig(f), seed=0)
    assert found.modularity >= 0.5


def test_planted_formulas_pass_invariants():
    cfg = PlantedConfig(60, 6, 250, 3, 0.85, seed=11)
    f, _ = gen_planted_community(cfg)
    check_formula(f)
    for c in f.clauses:
        assert len(set(c.variables())) == len(c.lits)
