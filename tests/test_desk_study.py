"""Smoke test of scripts/run_desk_study.py: suite, all six experiments, reports."""

import csv
import importlib.util
import json
from pathlib import Path

from satscope.harness import DEFAULT_HEURISTICS, EXPERIMENTS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_study.py"


def test_desk_study_writes_every_report(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_desk_study", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "desk"
    assert script.main(["--out", str(out), "--seed", "1", "--planted", "2",
                        "--random", "1", "--conflict-budget", "200"]) == 0
    instances = 3
    assert len(list((out / "instances").glob("*.cnf"))) == instances
    assert len(list((out / "communities").glob("*.comm"))) == instances
    reports = out / "reports"
    for experiment in EXPERIMENTS:
        expected = instances * len(DEFAULT_HEURISTICS[experiment])
        payload = json.loads((reports / f"{experiment}.json").read_text())
        assert payload["experiment"] == experiment
        assert len(payload["records"]) == expected
        with open(reports / f"{experiment}.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == expected
    cactus = (reports / "adapt-compare.cactus.csv").read_text()
    assert cactus.startswith("heuristic,solved_count,seconds")
