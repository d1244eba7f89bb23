#!/usr/bin/env python3
"""Generate a desk-scale instance suite and run all six experiment modes.

Produces, under --out:
  instances/   planted + random DIMACS files
  communities/ planted ground-truth and Louvain community files
  reports/     one JSON (+ CSV) report per experiment, cactus CSV for
               the adaptVSIDS comparison

Desk scale means minutes on a laptop, not competition scale; the point is
exercising the full pipeline and reproducing the directional findings.
"""

import argparse
import sys
import time
from pathlib import Path

from satscope.cnf import write_dimacs_file
from satscope.community import louvain, write_community_file
from satscope.generator import PlantedConfig, gen_planted_community, gen_random_ksat
from satscope.graph import build_vig
from satscope.harness import (
    DEFAULT_HEURISTICS,
    RunPlan,
    RunStore,
    emit_report,
    load_instances,
    run_experiment,
    write_cactus_csv,
)
from satscope.solver import SolverConfig


def build_suite(out: Path, seed: int, planted_count: int, random_count: int) -> list[Path]:
    """Write the suite's instances and community files; return the instance paths."""
    inst_dir = out / "instances"
    comm_dir = out / "communities"
    inst_dir.mkdir(parents=True, exist_ok=True)
    comm_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(planted_count):
        cfg = PlantedConfig(400, 8, 1650, 3, 0.9, seed=seed + i)
        formula, planted = gen_planted_community(cfg)
        paths.append(inst_dir / f"planted{i:02d}.cnf")
        write_dimacs_file(formula, paths[-1])
        write_community_file(comm_dir / f"planted{i:02d}.comm", planted)
    for i in range(random_count):
        n = 120 + 10 * i
        formula = gen_random_ksat(n, round(4.25 * n), 3, seed=seed + 500 + i)
        paths.append(inst_dir / f"random{i:02d}.cnf")
        write_dimacs_file(formula, paths[-1])
        assignment = louvain(build_vig(formula), seed=seed)
        write_community_file(comm_dir / f"random{i:02d}.comm", assignment)
    print(f"wrote {planted_count} planted + {random_count} random instances")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("desk_study"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--planted", type=int, default=10)
    parser.add_argument("--random", type=int, default=5)
    parser.add_argument("--conflict-budget", type=int, default=2000)
    args = parser.parse_args(argv)
    # Check every flag before anything is written under --out.
    if args.out.exists() and not args.out.is_dir():
        parser.error(f"--out {args.out} exists and is not a directory")
    for flag, count in (("--planted", args.planted), ("--random", args.random)):
        if count < 0:
            parser.error(f"{flag} must be >= 0, got {count}")
    try:
        base_cfg = SolverConfig(seed=args.seed, conflict_budget=args.conflict_budget,
                                timeout_s=60.0)
    except ValueError as exc:
        parser.error(str(exc))

    out = args.out
    # Only this run's instances: an earlier run's files under --out are not read.
    paths = build_suite(out, args.seed, args.planted, args.random)
    reports = out / "reports"
    reports.mkdir(exist_ok=True)

    instances = load_instances(paths, out / "communities")
    plans = [
        RunPlan(
            instances=instances,
            heuristics=heuristics,
            config=base_cfg,
            experiment=experiment,
            sample_interval=500,
        )
        for experiment, heuristics in DEFAULT_HEURISTICS.items()
    ]
    # One store for all plans: each trajectory is solved once, watched by
    # every instrument the plans need, and the other plans copy its records.
    runs = RunStore(plans)

    for plan in plans:
        plan.runs = runs
        experiment = plan.experiment
        t0 = time.time()
        solved, copied = runs.solved, runs.copied
        report = run_experiment(plan)
        emit_report(report, reports / f"{experiment}.json", fmt="json")
        emit_report(report, reports / f"{experiment}.csv", fmt="csv")
        if experiment == "adapt-compare":
            write_cactus_csv(report, reports / "adapt-compare.cactus.csv")
        print(f"[{experiment}] {time.time() - t0:.1f}s, {runs.solved - solved} jobs solved, "
              f"{runs.copied - copied} copied")
        for h, agg in report.aggregates.items():
            keys = [
                "ss", "ts", "bridge_variables_pct", "bridge_picked_pct",
                "mean_spearman_tdc", "mean_spearman_tec", "mean_pearson_tdc",
                "mean_top10_tdc", "solved_count",
            ]
            parts = [f"{k}={agg[k]:.3f}" if isinstance(agg.get(k), float) else f"{k}={agg[k]}"
                     for k in keys if k in agg]
            print(f"  {h}: " + " ".join(parts))
    print(f"reports under {reports}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
