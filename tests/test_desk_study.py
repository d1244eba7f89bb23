"""Smoke test of scripts/run_desk_study.py: suite, all six experiments, reports."""

import csv
import importlib.util
import json
from pathlib import Path

from satscope.harness import DEFAULT_HEURISTICS, EXPERIMENTS
from satscope.solver import Solver

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_study.py"


def test_desk_study_writes_every_report(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_desk_study", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    solves = []
    original = Solver.solve

    def solve(self):
        solves.append(self)
        return original(self)

    monkeypatch.setattr(Solver, "solve", solve)
    out = tmp_path / "desk"
    assert script.main(["--out", str(out), "--seed", "1", "--planted", "2",
                        "--random", "1", "--conflict-budget", "200"]) == 0
    instances = 3
    assert len(list((out / "instances").glob("*.cnf"))) == instances
    assert len(list((out / "communities").glob("*.comm"))) == instances
    # One solve per distinct (instance, heuristic, effective config,
    # instrument): bridge 1, spatial 2 more, temporal 0, correlation 2,
    # theorem 1 and adapt-compare 2 per instance, not 12.
    assert len(solves) == 8 * instances
    reports = out / "reports"
    records = {}
    for experiment in EXPERIMENTS:
        expected = instances * len(DEFAULT_HEURISTICS[experiment])
        payload = json.loads((reports / f"{experiment}.json").read_text())
        assert payload["experiment"] == experiment
        assert len(payload["records"]) == expected
        records[experiment] = payload["records"]
        with open(reports / f"{experiment}.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == expected
    spatial = {(r["instance"], r["heuristic"]): r for r in records["spatial"]}
    for experiment in ("bridge", "temporal"):
        for r in records[experiment]:
            assert r == spatial[(r["instance"], r["heuristic"])]
    cactus = (reports / "adapt-compare.cactus.csv").read_text()
    assert cactus.startswith("heuristic,solved_count,seconds")
