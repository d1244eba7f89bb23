"""Golden search trajectories: the solver's counters on fixed instances.

The values were recorded from the solver before its propagate/backjump/
reduce_db hot path was rewritten, and every later version must reproduce
them exactly. A change that alters the search on purpose updates this table
and says why; a speed-up must leave it untouched.
"""

import pytest

from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.solver import SolverConfig, solve

BUDGET = 1500

# (instance, heuristic): (status, decisions, conflicts, propagations,
#                         restarts, learnt_clauses, deleted_clauses)
GOLDEN = {
    ("random", "cvsids"): ("UNKNOWN", 2007, 1500, 57782, 9, 1500, 966),
    ("random", "mvsids"): ("UNKNOWN", 1891, 1500, 55992, 9, 1500, 968),
    ("random", "adaptvsids"): ("UNKNOWN", 1826, 1500, 55744, 9, 1500, 968),
    ("random", "random"): ("UNKNOWN", 2834, 1500, 54603, 9, 1500, 967),
    ("planted", "cvsids"): ("UNSAT", 1608, 764, 20341, 5, 764, 280),
    ("planted", "mvsids"): ("UNSAT", 785, 441, 9954, 3, 441, 0),
    ("planted", "adaptvsids"): ("UNSAT", 1015, 580, 13811, 4, 580, 280),
    ("planted", "random"): ("UNKNOWN", 9677, 1500, 49335, 9, 1500, 645),
}


@pytest.fixture(scope="module")
def instances():
    return {
        "random": gen_random_ksat(150, 639, 3, seed=11),
        "planted": gen_planted_community(PlantedConfig(400, 8, 1680, seed=4))[0],
    }


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_golden_trajectory(instances, key):
    name, heuristic = key
    r = solve(instances[name], SolverConfig(heuristic=heuristic, seed=3, conflict_budget=BUDGET))
    st = r.stats
    got = (r.status, st.decisions, st.conflicts, st.propagations,
           st.restarts, st.learnt_clauses, st.deleted_clauses)
    assert got == GOLDEN[key]
    if name == "random":  # clause-database reduction is on every random run's path
        assert st.deleted_clauses > 0
