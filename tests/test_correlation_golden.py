"""Golden TDC/TEC summaries: the correlation and theorem records on fixed instances.

The values were recorded while the temporal graph was still an incremental
dict-of-dicts, before it became an append-only clause store, and every later
version of the graph and centrality code must reproduce them exactly. A
change that alters a centrality on purpose updates this table and says why.
"""

import pytest

from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.harness import Instance, RunPlan, run_experiment
from satscope.solver import SolverConfig

FIELDS = ("num_samples", "mean_spearman_tdc", "min_spearman_tdc", "mean_top1_tdc",
          "mean_top10_tdc", "mean_pearson_tdc", "mean_spearman_tec", "mean_top1_tec",
          "mean_top10_tec")

GOLDEN = {
    ("correlation", "planted", "cvsids"): (
        18, 0.9400671313947219, 0.5015083174719414, 0.7777777777777778, 0.9444444444444444,
        None, 0.8805696277593912, 0.4444444444444444, 0.8888888888888888),
    ("correlation", "planted", "mvsids"): (
        11, 0.6363357548772931, 0.3530912853219926, 0.2727272727272727, 0.6363636363636364,
        None, 0.7350779638248374, 0.2727272727272727, 0.7272727272727273),
    ("correlation", "random", "cvsids"): (
        14, 0.9929103391448528, 0.74875665616412, 1.0, 1.0,
        None, 0.9884665645071217, 0.8571428571428571, 1.0),
    ("correlation", "random", "mvsids"): (
        13, 0.7843600758333635, 0.6989174292495169, 0.15384615384615385, 0.6923076923076923,
        None, 0.7877790274925442, 0.3076923076923077, 0.6923076923076923),
    ("theorem", "planted", "cvsids"): (
        6, 0.999999, 1.0, 1.0, 1.0, 0.999999, None, None, None),
    ("theorem", "random", "cvsids"): (
        5, 0.999999, 1.0, 1.0, 1.0, 0.999999, None, None, None),
}

HEURISTICS = {"correlation": ["cvsids", "mvsids"], "theorem": ["cvsids"]}


@pytest.fixture(scope="module")
def instances():
    return [
        Instance("planted", gen_planted_community(PlantedConfig(400, 8, 1650, 3, 0.9, seed=5))[0]),
        Instance("random", gen_random_ksat(150, 639, 3, seed=12)),
    ]


@pytest.mark.parametrize("experiment", sorted(HEURISTICS))
def test_golden_centrality_summaries(instances, experiment):
    plan = RunPlan(instances, HEURISTICS[experiment],
                   SolverConfig(seed=2, conflict_budget=600), experiment, sample_interval=100)
    for record in run_experiment(plan).records:
        got = tuple(getattr(record, f) for f in FIELDS)
        assert got == GOLDEN[experiment, record.instance, record.heuristic]
