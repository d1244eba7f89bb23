"""Golden search trajectories: the solver's counters on fixed instances.

The values were recorded from the solver before its propagate/backjump/
reduce_db hot path was rewritten, and every later version must reproduce
them exactly. A change that alters the search on purpose updates this table
and says why; a speed-up must leave it untouched. ``DIGESTS`` pins more than
the counters: a sha256 of each run's decision sequence and of every learnt
clause's DIMACS literals in order.

The "mixed" rows, on a formula whose input clauses have lengths 2 to 5,
were added later and recorded before the watch visit gained its ternary
read: the "random" and "planted" instances are pure 3-SAT, so only learnt
clauses took the binary and general-scan branches there.
"""

import hashlib
import random

import pytest

from helpers import DecisionLogHook, learnt_clause, solve
from satscope.cnf import Clause, Formula
from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.solver import SolverConfig

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
    ("mixed", "cvsids"): ("SAT", 843, 565, 29161, 4, 565, 352),
    ("mixed", "mvsids"): ("SAT", 137, 98, 5257, 0, 98, 0),
    ("mixed", "adaptvsids"): ("SAT", 432, 326, 18042, 2, 326, 153),
    ("mixed", "random"): ("UNKNOWN", 3372, 1500, 76765, 9, 1500, 948),
}

# (instance, heuristic): sha256 of repr((decision variables, learnt clause lits))
DIGESTS = {
    ("planted", "adaptvsids"): "5247828f47b2eedc1f7c29700e1de9333b2dcd5a04113e26d6edc9269934adcd",
    ("planted", "cvsids"): "e04f1967cf5a4afb0d305f96121f10972e4cf87db0f595a6e9047f7e4025cee3",
    ("planted", "mvsids"): "f3a5303b511b030da449cf520e226730199483a5488faa9ca8d0d5cc269711e7",
    ("planted", "random"): "eb69461fce1132970883801a3ed63af95dab3905c0e3e8e199ad88e316efbd17",
    ("random", "adaptvsids"): "26d48363cfbad330999099adf028b3a4f35af52fd1f47ec698a7c8a62dd96a50",
    ("random", "cvsids"): "7defe10aa9692f0b620e1fdd26d7109be483ccfa8bcd5f86f5785be753e339b9",
    ("random", "mvsids"): "971797e029ee1969e896deb2f9dea04c998336faa3cf85b97ca5230279293ae9",
    ("random", "random"): "d616dadffca6795391c28200f80008c4b6d22587029b8418463aa0148f0c932f",
    ("mixed", "adaptvsids"): "07f2b04d38554347cd2c6ae40816d302ea4dc378e72e72b392137ff98d77a069",
    ("mixed", "cvsids"): "5b491c17a82e1bafbb7320b4b1613b09501b47fd5c2485b1558309cb4b23ed8f",
    ("mixed", "mvsids"): "d06355e8e96980a1e44cfe26cfb0a396f161b5a5f68f888849ebdfbc615d0c12",
    ("mixed", "random"): "9aec4bb9992ec270efcdce153fb27340eb9129ed98c6d446c503bd4c108e702c",
}


class TrajectoryLogHook(DecisionLogHook):
    """Records the decision sequence and each learnt clause's literals."""

    def __init__(self):
        super().__init__()
        self.learnts: list[tuple[int, ...]] = []

    def on_conflict(self, solver, analysis):
        self.learnts.append(learnt_clause(solver))


def mixed_ksat(num_vars: int, num_clauses: int, seed: int) -> Formula:
    """Random clauses of lengths 2 to 5 (mostly 3), distinct variables, fair-coin signs.

    Input clauses of every length reach each branch of the watch visit:
    binary, ternary and the general scan for a new watch.
    """
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), rng.choice((2, 3, 3, 3, 3, 4, 4, 5)))
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return Formula(num_vars, clauses)


@pytest.fixture(scope="module")
def instances():
    return {
        "random": gen_random_ksat(150, 639, 3, seed=11),
        "planted": gen_planted_community(PlantedConfig(400, 8, 1680, seed=4))[0],
        "mixed": mixed_ksat(200, 920, seed=7),
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


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_golden_decisions_and_learnts(instances, key):
    name, heuristic = key
    hook = TrajectoryLogHook()
    solve(instances[name], SolverConfig(heuristic=heuristic, seed=3, conflict_budget=BUDGET),
          hooks=hook)
    digest = hashlib.sha256(repr((hook.log, hook.learnts)).encode()).hexdigest()
    assert digest == DIGESTS[key]
