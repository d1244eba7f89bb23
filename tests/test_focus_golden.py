"""Golden focus records: the spatial experiment's records on fixed instances.

Spatial, temporal and bridge share one focus job, so these pin the bridge
percentages, the spatial and temporal scores, the Louvain partition's
modularity and size, and the solver counters of every heuristic that job
runs. The values were recorded while each experiment still had its own runner,
and every later version of the harness must reproduce them exactly.
"""

import pytest

from satscope.community import louvain
from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.graph import build_vig
from satscope.harness import Instance, RunPlan, run_experiment
from satscope.solver import SolverConfig

FIELDS = ("status", "decisions", "conflicts", "propagations", "restarts",
          "bridge_variables_pct", "bridge_picked_pct", "bridge_bumped_pct",
          "bridge_learnt_pct", "ss", "ts", "modularity", "num_communities")

GOLDEN = {
    ("planted", "mvsids"): (
        "SAT", 743, 362, 8960, 2, 74.75, 77.5235531628533, 79.15650052283026,
        84.81927710843374, 0.22291386271870794, 0.784656796769852, 0.7849443934292419, 8),
    ("planted", "cvsids"): (
        "SAT", 1273, 598, 14825, 4, 74.75, 81.2254516889238, 83.32901889723013,
        83.32901889723013, 0.3194226237234877, 0.6441476826394344, 0.7849443934292419, 8),
    ("planted", "random"): (
        "UNKNOWN", 4296, 600, 17678, 5, 74.75, 74.30167597765363, None,
        81.86638388123012, 0.04783519553072642, 0.12802607076350092, 0.7849443934292419, 8),
    ("random", "mvsids"): (
        "UNKNOWN", 774, 600, 23369, 5, 100.0, 100.0, 100.0, 100.0,
        0.17053339115351243, 0.18992248062015504, 0.17873601080195892, 8),
    ("random", "cvsids"): (
        "UNKNOWN", 886, 600, 23984, 5, 100.0, 100.0, 100.0, 100.0,
        0.14808796106489622, 0.17042889390519186, 0.17873601080195892, 8),
    ("random", "random"): (
        "UNKNOWN", 1230, 600, 21895, 5, 100.0, 100.0, None, 100.0,
        0.03853486648581159, 0.13089430894308943, 0.17873601080195892, 8),
}


@pytest.fixture(scope="module")
def records():
    formulas = {
        "planted": gen_planted_community(PlantedConfig(400, 8, 1650, 3, 0.9, seed=5))[0],
        "random": gen_random_ksat(150, 639, 3, seed=12),
    }
    # Both watched against Louvain's communities, as the records were pinned.
    instances = [Instance(name, f, louvain(build_vig(f), seed=0)) for name, f in formulas.items()]
    plan = RunPlan(instances, ["mvsids", "cvsids", "random"],
                   SolverConfig(seed=2, conflict_budget=600), "spatial", sample_interval=100)
    return run_experiment(plan).records


def test_golden_focus_records(records):
    got = {(r.instance, r.heuristic): tuple(getattr(r, f) for f in FIELDS) for r in records}
    assert got == GOLDEN
