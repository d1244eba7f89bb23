"""Smoke test of scripts/run_desk_study.py: suite, all six experiments, reports."""

import csv
import hashlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

from satscope import harness
from satscope.harness import DEFAULT_HEURISTICS, EXPERIMENTS

from helpers import count_solves, emit_untimed, report_from_json

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_study.py"

# sha256 of each report re-emitted without its wall times, and of each
# community file, for the suite below (seed 1, 2 planted + 1 random, budget
# 200). A change that keeps every result keeps these bytes; one that moves a
# trajectory, a float or a community id does not.
EXPECTED_SHA256 = {
    "adapt-compare.json": "f1760fd2a8ea62cc6fb3422a4675a64d1383d58fef7a139f7c5fbb299e657130",
    "bridge.json": "6e0d4475443aa3117d63262f12e2f9152577878f0cf98082382ef717a5d41a93",
    "correlation.json": "981b59cf5a00de68ff9c4c234017cf092fd841ccc29f2e96fbbdedae7af6f387",
    "spatial.json": "56d00b56144a84b2fc0259589e95f0213e341c9b0e5e065a3af7718d429efb41",
    "temporal.json": "fe98c69f939400221ef59620598ad9fc0bb49c0efb42483058d9d2388721ce10",
    "theorem.json": "2c788f938ae4f86da10c913143e09275ab0126b94283bcde3bae5a13079efaf3",
    "planted00.comm": "941e2e19043531c2c32576aae2e19383b15e98375ee8190c9936395f323cda03",
    "planted01.comm": "941e2e19043531c2c32576aae2e19383b15e98375ee8190c9936395f323cda03",
    "random00.comm": "4f6788282af3e01bea2dbf993b5ca07d740bd510a661b1c280f1c164660fb5c3",
}


def load_script():
    spec = importlib.util.spec_from_file_location("run_desk_study", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("cores", [1, 2])
def test_desk_study_writes_every_report(tmp_path, monkeypatch, cores):
    # The harness solves each batch on one worker per core it may run on.
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    script = load_script()
    solves = count_solves(monkeypatch, tmp_path / "solves")
    out = tmp_path / "desk"
    assert script.main(["--out", str(out), "--seed", "1", "--planted", "2",
                        "--random", "1", "--conflict-budget", "200"]) == 0
    instances = 3
    assert len(list((out / "instances").glob("*.cnf"))) == instances
    assert len(list((out / "communities").glob("*.comm"))) == instances
    # One solve per trajectory, watched by every instrument that needs it:
    # bridge 1 (mvsids, focus and correlation), spatial 2 more (cvsids with
    # correlation, random), temporal 0, correlation 0, theorem 1 and
    # adapt-compare 2 per instance, not 12.
    assert len(solves) == 6 * instances
    # On one core this process solves every trajectory; on two, forked workers share them.
    pids = set(solves.pids())
    assert os.getpid() in pids and (len(pids) > 1) == (cores > 1)
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
    digests = {}
    for experiment in EXPERIMENTS:
        report = report_from_json(json.loads((reports / f"{experiment}.json").read_text()))
        untimed = tmp_path / f"{experiment}.json"
        emit_untimed(report, untimed)
        digests[untimed.name] = hashlib.sha256(untimed.read_bytes()).hexdigest()
    for comm in (out / "communities").glob("*.comm"):
        digests[comm.name] = hashlib.sha256(comm.read_bytes()).hexdigest()
    assert digests == EXPECTED_SHA256


@pytest.mark.parametrize("flag, value, message", [
    ("--conflict-budget", "0", "conflict_budget must be >= 1"),
    ("--planted", "-1", "--planted must be >= 0, got -1"),
    ("--random", "-2", "--random must be >= 0, got -2"),
])
def test_desk_study_rejects_bad_flags_before_writing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "desk"
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--out", str(out), "--planted", "1", "--random", "0",
                            "--conflict-budget", "50", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_desk_study_rerun_reads_only_its_own_instances(tmp_path, capsys):
    script = load_script()
    out = tmp_path / "desk"
    base = ["--out", str(out), "--conflict-budget", "50"]
    assert script.main(base + ["--planted", "2", "--random", "1"]) == 0
    assert script.main(base + ["--planted", "1", "--random", "0"]) == 0
    assert "wrote 1 planted + 0 random instances" in capsys.readouterr().out
    for experiment in EXPERIMENTS:
        payload = json.loads((out / "reports" / f"{experiment}.json").read_text())
        assert {r["instance"] for r in payload["records"]} == {"planted00"}


def test_desk_study_rejects_a_file_as_out(tmp_path, capsys):
    out = tmp_path / "desk"
    out.write_text("not a directory\n")
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--out", str(out), "--planted", "1", "--random", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is not a directory" in err and "Traceback" not in err
    assert out.read_text() == "not a directory\n"
