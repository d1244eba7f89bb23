import json

import pytest

from satscope.cli import main
from satscope.cnf import parse_dimacs_file, write_dimacs_file
from satscope.generator import gen_random_ksat


def test_solve_sat_exit_code_and_model(tmp_path, capsys):
    path = tmp_path / "sat.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["solve", str(path)]) == 10
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out
    assert any(line.startswith("v ") for line in out.splitlines())


def test_solve_unsat_exit_code(tmp_path, capsys):
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["solve", str(path)]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_solve_unknown_on_budget(tmp_path, capsys):
    write_dimacs_file(gen_random_ksat(120, 510, 3, seed=5), tmp_path / "hard.cnf")
    code = main(["solve", str(tmp_path / "hard.cnf"), "--conflict-budget", "5"])
    assert code == 0
    assert "s UNKNOWN" in capsys.readouterr().out


def test_solve_heuristic_flags(tmp_path):
    path = tmp_path / "f.cnf"
    write_dimacs_file(gen_random_ksat(20, 80, 3, seed=2), path)
    for h in ("cvsids", "mvsids", "adaptvsids", "random"):
        code = main([
            "solve", str(path), "--heuristic", h, "--decay", "0.9",
            "--fast-decay", "0.7", "--slow-decay", "0.98",
            "--lbd-smoothing", "0.1", "--seed", "3",
        ])
        assert code in (10, 20)


def test_solve_rejects_out_of_range_flags_in_one_line(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    for flags in (["--decay", "1.5"], ["--timeout", "-1"], ["--timeout", "0"],
                  ["--timeout", "nan"],
                  ["--heuristic", "adaptvsids", "--fast-decay", "2"],
                  ["--conflict-budget", "0"]):
        assert main(["solve", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("satscope: error: ")
        assert captured.err.count("\n") == 1
        assert "s " not in captured.out


def test_gen_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.cnf"
    assert main(["gen", "random", "--vars", "25", "--clauses", "100",
                 "--seed", "4", "-o", str(out)]) == 0
    f = parse_dimacs_file(out)
    assert f.num_vars == 25 and len(f.clauses) == 100


def test_gen_planted_with_community_file(tmp_path):
    cnf = tmp_path / "p.cnf"
    comm = tmp_path / "p.comm"
    assert main(["gen", "planted", "--vars", "40", "--clauses", "150",
                 "--communities", "4", "--intra-probability", "0.9",
                 "--seed", "1", "-o", str(cnf), "--community-out", str(comm)]) == 0
    assert len(comm.read_text().splitlines()) == 40


def test_gen_rejects_out_of_range_flags_in_one_line(tmp_path, capsys):
    out = tmp_path / "g.cnf"
    for argv in (["random", "--vars", "2", "--clauses", "5"],
                 ["random", "--vars", "5", "--clauses", "-3"],
                 ["random", "--vars", "5", "--clauses", "2", "--clause-len", "0"],
                 ["planted", "--vars", "10", "--communities", "2", "--clauses", "-1"],
                 ["planted", "--vars", "10", "--communities", "20", "--clauses", "5"],
                 ["planted", "--vars", "10", "--communities", "2", "--clauses", "5",
                  "--intra-probability", "0", "--clause-len", "20"]):
        assert main(["gen", *argv, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("satscope: error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()


def test_gen_random_rejects_community_out(tmp_path, capsys):
    out, comm = tmp_path / "r.cnf", tmp_path / "r.comm"
    assert main(["gen", "random", "--vars", "20", "--clauses", "30", "-o", str(out),
                 "--community-out", str(comm)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("satscope: error: ")
    assert "--community-out" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists() and not comm.exists()


def test_analyze_communities(tmp_path, capsys):
    cnf = tmp_path / "p.cnf"
    main(["gen", "planted", "--vars", "60", "--clauses", "240",
          "--communities", "3", "--intra-probability", "0.95",
          "--seed", "2", "-o", str(cnf)])
    comm = tmp_path / "p.comm"
    assert main(["analyze-communities", str(cnf), "-o", str(comm)]) == 0
    assert "modularity" in capsys.readouterr().out
    assert len(comm.read_text().splitlines()) == 60


def test_experiment_end_to_end(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    comm_dir = tmp_path / "communities"
    inst_dir.mkdir()
    comm_dir.mkdir()
    for i in range(2):
        cnf = inst_dir / f"p{i}.cnf"
        main(["gen", "planted", "--vars", "100", "--clauses", "430",
              "--communities", "4", "--intra-probability", "0.8",
              "--seed", str(i), "-o", str(cnf),
              "--community-out", str(comm_dir / f"p{i}.comm")])
    report = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main([
        "experiment", "bridge", "--instances", str(inst_dir),
        "--communities", str(comm_dir), "--report", str(report),
        "--csv", str(csv_path), "--conflict-budget", "200", "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["experiment"] == "bridge"
    assert len(payload["records"]) == 2
    assert csv_path.exists()


def test_experiment_adapt_compare_writes_cactus(tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for i in range(2):
        write_dimacs_file(gen_random_ksat(30, 126, 3, seed=i), inst_dir / f"r{i}.cnf")
    report = tmp_path / "adapt.json"
    code = main([
        "experiment", "adapt-compare", "--instances", str(inst_dir),
        "--report", str(report), "--conflict-budget", "500",
    ])
    assert code == 0
    cactus = tmp_path / "adapt.cactus.csv"
    assert cactus.exists()
    assert cactus.read_text().startswith("heuristic,solved_count,seconds")


def test_experiment_empty_dir_fails(tmp_path, capsys):
    (tmp_path / "instances").mkdir()
    code = main(["experiment", "bridge", "--instances", str(tmp_path / "instances"),
                 "--report", str(tmp_path / "r.json")])
    assert code == 1


def test_malformed_input_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 x 0\n")
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "bad.cnf" in err and "non-integer token" in err
    assert "Traceback" not in err


def test_non_ascii_comment_byte_is_not_fatal(tmp_path, capsys):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c caf\xe9\np cnf 2 1\n1 2 0\n")
    assert main(["solve", str(path)]) == 10
    captured = capsys.readouterr()
    assert "s SATISFIABLE" in captured.out
    assert "Traceback" not in captured.err


def test_missing_input_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "missing.cnf"
    assert main(["analyze-communities", str(path), "-o", str(tmp_path / "m.comm")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "missing.cnf" in err


def test_instances_without_cnf_files_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["experiment", "bridge", "--instances", str(tmp_path),
                 "--report", str(report)]) == 1
    assert capsys.readouterr().err == f"satscope: error: no .cnf files under {tmp_path}\n"
    assert not report.exists()


def _one_instance_dir(tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    write_dimacs_file(gen_random_ksat(30, 126, 3, seed=1), inst_dir / "r0.cnf")
    return inst_dir


def test_correlation_with_random_heuristic_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "corr.json"
    code = main(["experiment", "correlation", "--instances", str(_one_instance_dir(tmp_path)),
                 "--heuristics", "random", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "correlation" in err and "Traceback" not in err
    assert not report.exists()


def test_theorem_with_other_heuristic_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "theorem.json"
    code = main(["experiment", "theorem", "--instances", str(_one_instance_dir(tmp_path)),
                 "--heuristics", "mvsids", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "cvsids only" in err and "Traceback" not in err
    assert not report.exists()


def test_tvig_alpha_out_of_range_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "corr.json"
    inst_dir = _one_instance_dir(tmp_path)
    for alpha in ("0", "1.5"):
        code = main(["experiment", "correlation", "--instances", str(inst_dir),
                     "--tvig-alpha", alpha, "--report", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "tvig_alpha" in err and "Traceback" not in err
        assert not report.exists()


def test_budget_not_positive_is_a_one_line_error(tmp_path, capsys):
    inst_dir = _one_instance_dir(tmp_path)
    out = tmp_path / "out"
    for budget in ("0", "-1"):
        for argv, name in (
            (["experiment", "spatial", "--instances", str(inst_dir), "--report", str(out),
              "--louvain-budget", budget], "louvain_budget_s"),
            (["analyze-communities", str(inst_dir / "r0.cnf"), "-o", str(out),
              "--time-budget", budget], "--time-budget"),
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert name in err and "timed out" not in err and "Traceback" not in err
            assert not out.exists()


def test_repeated_heuristic_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "adapt.json"
    code = main(["experiment", "adapt-compare", "--instances", str(_one_instance_dir(tmp_path)),
                 "--heuristics", "mvsids", "mvsids", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("satscope: error: ") and err.count("\n") == 1
    assert "'mvsids' is given twice" in err and "Traceback" not in err
    assert not report.exists()
    assert not report.with_suffix(".cactus.csv").exists()


def test_missing_communities_dir_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "spatial.json"
    missing = tmp_path / "no_such_dir"
    code = main(["experiment", "spatial", "--instances", str(_one_instance_dir(tmp_path)),
                 "--communities", str(missing), "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("satscope: error: ") and err.count("\n") == 1
    assert str(missing) in err and "not a directory" in err and "Traceback" not in err
    assert not report.exists()


def test_adapt_compare_reports_the_requested_heuristics(tmp_path):
    report = tmp_path / "adapt.json"
    code = main(["experiment", "adapt-compare", "--instances", str(_one_instance_dir(tmp_path)),
                 "--heuristics", "cvsids", "--report", str(report), "--conflict-budget", "200"])
    assert code == 0
    payload = json.loads(report.read_text())
    assert [r["heuristic"] for r in payload["records"]] == ["cvsids"]


def test_malformed_instance_in_sweep_is_an_excluded_record(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    write_dimacs_file(gen_random_ksat(40, 170, 3, seed=3), inst_dir / "good.cnf")
    args = ["experiment", "spatial", "--instances", str(inst_dir),
            "--conflict-budget", "200", "--seed", "1"]
    clean = tmp_path / "clean.json"
    assert main(args + ["--report", str(clean)]) == 0
    (inst_dir / "bad.cnf").write_text("p cnf 2 1\n1 x 0\n")
    capsys.readouterr()
    mixed = tmp_path / "mixed.json"
    assert main(args + ["--report", str(mixed)]) == 0
    out = capsys.readouterr().out
    assert "c note: bad [mvsids]: excluded" in out and "non-integer token" in out

    def untimed(d):
        return {k: v for k, v in d.items() if k != "wall_time_s"}

    clean, mixed = json.loads(clean.read_text()), json.loads(mixed.read_text())
    bad = [r for r in mixed["records"] if r["instance"] == "bad"]
    assert [r["heuristic"] for r in bad] == ["mvsids", "cvsids", "random"]
    assert all(r["excluded"] and "non-integer token" in r["note"] for r in bad)
    good = [untimed(r) for r in mixed["records"] if r["instance"] == "good"]
    assert good == [untimed(r) for r in clean["records"]]
    assert ({h: untimed(a) for h, a in mixed["aggregates"].items()}
            == {h: untimed(a) for h, a in clean["aggregates"].items()})


def test_each_subcommand_rejects_the_flag_it_would_ignore(tmp_path, capsys):
    inst_dir = _one_instance_dir(tmp_path)
    report = tmp_path / "spatial.json"
    for argv in (["experiment", "spatial", "--instances", str(inst_dir), "--report", str(report),
                  "--heuristic", "cvsids"],
                 ["solve", str(inst_dir / "r0.cnf"), "--sample-interval", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not report.exists()


def test_sample_interval_below_one_is_a_one_line_error(tmp_path, capsys):
    report = tmp_path / "corr.json"
    code = main(["experiment", "correlation", "--instances", str(_one_instance_dir(tmp_path)),
                 "--sample-interval", "0", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("satscope: error: ") and err.count("\n") == 1
    assert "sample_interval" in err and "Traceback" not in err
    assert not report.exists()


def test_missing_output_directory_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    import satscope.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "load_instances", never)
    monkeypatch.setattr(cli, "run_experiment", never)
    inst_dir = _one_instance_dir(tmp_path)
    missing = tmp_path / "missing_dir"
    report = str(tmp_path / "adapt.json")
    for flags in (["--report", str(missing / "x.json")],
                  ["--report", report, "--csv", str(missing / "x.csv")],
                  ["--report", report, "--cactus", str(missing / "x.cactus.csv")],
                  ["--report", str(missing / "x.json"), "--cactus", str(tmp_path / "c.csv")]):
        assert main(["experiment", "adapt-compare", "--instances", str(inst_dir), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("satscope: error: ") and err.count("\n") == 1
        assert str(missing) in err and "does not exist" in err and "Traceback" not in err
    assert not missing.exists()


def test_cactus_outside_adapt_compare_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    import satscope.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("an instance was read")

    monkeypatch.setattr(cli, "load_instances", never)
    inst_dir = _one_instance_dir(tmp_path)
    report, cactus = tmp_path / "ss.json", tmp_path / "c.csv"
    for kind in ("bridge", "spatial", "temporal", "correlation", "theorem"):
        code = main(["experiment", kind, "--instances", str(inst_dir), "--report", str(report),
                     "--cactus", str(cactus)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("satscope: error: ") and err.count("\n") == 1
        assert "--cactus" in err and "adapt-compare" in err
    assert not report.exists() and not cactus.exists()


def test_gen_missing_output_directory_writes_nothing(tmp_path, capsys):
    missing = tmp_path / "missing"
    cnf, comm = tmp_path / "p.cnf", tmp_path / "p.comm"
    planted = ["gen", "planted", "--vars", "40", "--clauses", "150", "--communities", "4"]
    for argv in ([*planted, "-o", str(cnf), "--community-out", str(missing / "p.comm")],
                 [*planted, "-o", str(missing / "p.cnf"), "--community-out", str(comm)],
                 ["gen", "random", "--vars", "20", "--clauses", "30",
                  "-o", str(missing / "r.cnf")]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("satscope: error: ") and captured.err.count("\n") == 1
        assert str(missing) in captured.err and "does not exist" in captured.err
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_analyze_communities_missing_output_directory_fails_before_louvain(
        tmp_path, capsys, monkeypatch):
    import satscope.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("Louvain ran")

    cnf = tmp_path / "p.cnf"
    write_dimacs_file(gen_random_ksat(30, 126, 3, seed=1), cnf)
    monkeypatch.setattr(cli, "louvain", never)
    missing = tmp_path / "missing"
    assert main(["analyze-communities", str(cnf), "-o", str(missing / "p.comm")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("satscope: error: ") and captured.err.count("\n") == 1
    assert str(missing) in captured.err and "does not exist" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [cnf]


def test_coinciding_experiment_outputs_fail_before_any_instance_is_read(
        tmp_path, capsys, monkeypatch):
    import satscope.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("an instance was read")

    monkeypatch.setattr(cli, "load_instances", never)
    inst_dir = _one_instance_dir(tmp_path)
    out = tmp_path / "out.json"
    for kind, flags, message in (
            ("adapt-compare", ["--report", str(out), "--cactus", str(out)],
             f"--cactus {out} is the same file as --report {out}"),
            ("bridge", ["--report", str(out), "--csv", str(tmp_path / "." / "out.json")],
             "--csv"),
            ("adapt-compare", ["--report", str(tmp_path / "a.json"),
                               "--csv", str(tmp_path / "a.cactus.csv")],
             "is the same file as --csv")):
        assert main(["experiment", kind, "--instances", str(inst_dir), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("satscope: error: ") and captured.err.count("\n") == 1
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [inst_dir]


def test_gen_outputs_that_coincide_write_nothing(tmp_path, capsys):
    out = tmp_path / "p.cnf"
    assert main(["gen", "planted", "--vars", "40", "--clauses", "150",
                 "-o", str(out), "--community-out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("satscope: error: ") and err.count("\n") == 1
    assert "is the same file as -o" in err
    assert list(tmp_path.iterdir()) == []


def test_analyze_communities_timeout_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    import satscope.cli as cli
    from satscope.community import LouvainTimeout

    def timed_out(*args, **kwargs):
        raise LouvainTimeout("local moving phase exceeded the time budget")

    cnf = tmp_path / "p.cnf"
    write_dimacs_file(gen_random_ksat(30, 126, 3, seed=1), cnf)
    monkeypatch.setattr(cli, "louvain", timed_out)
    assert main(["analyze-communities", str(cnf), "-o", str(tmp_path / "p.comm")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("satscope: error: community detection timed out: "
                            "local moving phase exceeded the time budget\n")
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [cnf]
