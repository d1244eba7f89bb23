"""Command-line interface: solve, gen, analyze-communities, experiment.

``solve`` follows the competition convention for exit codes: 10 for
satisfiable, 20 for unsatisfiable, 0 otherwise. A missing, unreadable or
malformed input file, a solver or generator flag out of range (``--decay
1.5``, ``--timeout -1`` or ``nan``, ``--conflict-budget 0``, ``gen random
--vars 2`` with 3-literal clauses, a ``--clause-len`` below 1, a negative
``--clauses``, ``--community-out`` for ``gen random``), a ``--tvig-alpha``
outside (0, 1], a ``--louvain-budget`` or ``--time-budget`` that is not
positive, an experiment asked to run a heuristic it cannot (``random`` for
correlation, anything but ``cvsids`` for theorem) or the same heuristic twice,
``--cactus`` for any experiment but ``adapt-compare``, a ``--communities``
path that is not a directory, an output path whose directory does not exist,
that is a directory or that names the same file as another output of the
command (``gen``'s ``-o`` and ``--community-out`` before anything is
generated, ``analyze-communities``' ``-o`` before Louvain runs, and
``experiment``'s ``--report``, ``--csv`` and cactus path before any instance
is read), an ``--instances`` directory with no ``.cnf`` file, or an
``analyze-communities`` run out of ``--time-budget`` prints a one-line error
to stderr and exits with 1. ``experiment`` gives each solve 60 wall seconds
unless ``--timeout`` says otherwise; ``solve`` has no limit by default.
``--heuristic`` belongs to ``solve`` and ``--sample-interval`` (at least 1) to
``experiment``; each subcommand rejects the other's flag. In an ``experiment``
sweep a file that cannot be read is not fatal: its instance becomes excluded
records whose note is printed, and the other instances run as usual. A focus
experiment (bridge, spatial, temporal) finds the communities of each instance
without a ``.comm`` file by Louvain (``--seed``, ``--louvain-budget``), one
instance after another; if Louvain times out or fails, that instance's records
are excluded with a note.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .branching import HEURISTICS
from .cnf import parse_dimacs_file, write_dimacs_file
from .community import LouvainTimeout, louvain, write_community_file
from .generator import PlantedConfig, gen_planted, gen_random_ksat
from .graph import build_vig
from .harness import (
    DEFAULT_HEURISTICS,
    EXPERIMENTS,
    FOCUS_EXPERIMENTS,
    RunPlan,
    emit_report,
    load_instances,
    run_experiment,
    write_cactus_csv,
)
from .solver import SAT, UNSAT, Solver, SolverConfig


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--decay", type=float, default=0.95)
    p.add_argument("--fast-decay", type=float, default=0.75)
    p.add_argument("--slow-decay", type=float, default=0.99)
    p.add_argument("--lbd-smoothing", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-clause-deletion", action="store_true")
    p.add_argument("--conflict-budget", type=int, default=None)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-instance wall seconds (experiment: 60 by default)")


def _config_from_args(args, **extra) -> SolverConfig:
    return SolverConfig(
        decay=args.decay,
        fast_decay=args.fast_decay,
        slow_decay=args.slow_decay,
        lbd_smoothing=args.lbd_smoothing,
        seed=args.seed,
        clause_deletion=not args.no_clause_deletion,
        conflict_budget=args.conflict_budget,
        timeout_s=args.timeout,
        **extra,
    )


def _error(problem: Exception | str) -> int:
    print(f"satscope: error: {problem}", file=sys.stderr)
    return 1


def _check_outputs(*outputs) -> None:
    """Raise ValueError for the first (flag, path) whose directory does not exist,
    that is a directory, or that names the same file as an earlier one."""
    seen = {}
    for flag, out in outputs:
        if out is None:
            continue
        if not Path(out).parent.is_dir():
            raise ValueError(f"{flag} {out}: directory {Path(out).parent} does not exist")
        if Path(out).is_dir():
            raise ValueError(f"{flag} {out} is a directory")
        path = Path(out).resolve()
        if path in seen:
            raise ValueError(f"{flag} {out} is the same file as {seen[path]}")
        seen[path] = f"{flag} {out}"


def _cmd_solve(args) -> int:
    cfg = _config_from_args(args, heuristic=args.heuristic)
    result = Solver(parse_dimacs_file(args.cnf), cfg).solve()
    st = result.stats
    print(f"c decisions {st.decisions} conflicts {st.conflicts} "
          f"propagations {st.propagations} restarts {st.restarts}")
    print(f"c wall_time {st.wall_time_s:.3f}s")
    if result.status == SAT:
        print("s SATISFIABLE")
        lits = [v if val else -v for v, val in sorted(result.model.items())]
        for i in range(0, len(lits), 20):
            chunk = lits[i : i + 20]
            tail = " 0" if i + 20 >= len(lits) else ""
            print("v " + " ".join(str(l) for l in chunk) + tail)
        if not lits:
            print("v 0")
        return 10
    if result.status == UNSAT:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random" and args.community_out:
        raise ValueError("--community-out needs planted instances")
    _check_outputs(("-o", args.output), ("--community-out", args.community_out))
    if args.kind == "random":
        formula = gen_random_ksat(args.vars, args.clauses, args.clause_len, args.seed)
        labels = None
    else:
        formula, labels = gen_planted(PlantedConfig(
            num_vars=args.vars,
            num_communities=args.communities,
            num_clauses=args.clauses,
            clause_len=args.clause_len,
            intra_probability=args.intra_probability,
            seed=args.seed,
        ))
    write_dimacs_file(formula, args.output)
    if labels is not None and args.community_out:
        write_community_file(args.community_out, labels)
    print(f"c wrote {args.output}")
    return 0


def _cmd_analyze_communities(args) -> int:
    if not args.time_budget > 0:
        raise ValueError(f"--time-budget must be > 0, got {args.time_budget}")
    _check_outputs(("-o", args.output))
    formula = parse_dimacs_file(args.cnf)
    vig = build_vig(formula)
    try:
        assignment = louvain(vig, seed=args.seed, time_budget_s=args.time_budget)
    except LouvainTimeout as exc:
        return _error(f"community detection timed out: {exc}")
    write_community_file(args.output, assignment.community_of)
    print(f"c communities {assignment.num_communities} modularity {assignment.modularity:.4f}")
    return 0


def _find_communities(instances, seed: int, budget_s: float) -> list:
    """The instances, each that has a formula and no communities given Louvain's.

    Louvain runs on one instance after another in this process. An instance
    whose run times out or raises gets a note instead of its formula."""
    found = []
    for inst in instances:
        if inst.formula is not None and inst.communities is None:
            try:
                communities = louvain(build_vig(inst.formula), seed=seed, time_budget_s=budget_s)
            except LouvainTimeout:
                inst = replace(inst, formula=None, note="community detection timed out")
            except AssertionError:
                raise
            except Exception as exc:  # as for a job: one bad instance must not abort the sweep
                inst = replace(inst, formula=None, note=f"community detection failed: {exc!r}")
            else:
                inst = replace(inst, communities=communities)
        found.append(inst)
    return found


def _cmd_experiment(args) -> int:
    if not args.louvain_budget > 0:
        raise ValueError(f"louvain_budget_s must be > 0, got {args.louvain_budget}")
    cactus = None
    if args.kind == "adapt-compare":
        cactus = args.cactus or str(Path(args.report).with_suffix(".cactus.csv"))
    elif args.cactus is not None:
        raise ValueError(f"--cactus is written by adapt-compare only, not {args.kind}")
    # Check where the outputs go before the sweep, not after it.
    _check_outputs(("--report", args.report), ("--csv", args.csv), ("--cactus", cactus))
    paths = sorted(Path(args.instances).glob("*.cnf"))
    if not paths:
        raise ValueError(f"no .cnf files under {args.instances}")
    # A plan of no instances checks the other flags before any instance is read.
    plan = RunPlan(
        instances=[],
        heuristics=args.heuristics or DEFAULT_HEURISTICS[args.kind],
        config=_config_from_args(args),
        experiment=args.kind,
        tvig_alpha=args.tvig_alpha,
        sample_interval=args.sample_interval,
    )
    instances = load_instances(paths, args.communities)
    if args.kind in FOCUS_EXPERIMENTS:
        instances = _find_communities(instances, args.seed, args.louvain_budget)
    report = run_experiment(replace(plan, instances=instances))
    emit_report(report, args.report, fmt="json")
    if args.csv:
        emit_report(report, args.csv, fmt="csv")
    if cactus is not None:
        write_cactus_csv(report, cactus)
    for note in report.notes:
        print(f"c note: {note}")
    for h, agg in report.aggregates.items():
        parts = " ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(agg.items())
        )
        print(f"c [{h}] {parts}")
    print(f"c wrote {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satscope",
        description="Instrumented CDCL solver and structure-analysis experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one DIMACS CNF file")
    p_solve.add_argument("cnf")
    p_solve.add_argument("--heuristic", choices=HEURISTICS, default="mvsids")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate instances")
    p_gen.add_argument("kind", choices=["random", "planted"])
    p_gen.add_argument("--vars", type=int, required=True)
    p_gen.add_argument("--clauses", type=int, required=True)
    p_gen.add_argument("--clause-len", type=int, default=3)
    p_gen.add_argument("--communities", type=int, default=4)
    p_gen.add_argument("--intra-probability", type=float, default=0.9)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--community-out", default=None,
                       help="write the planted block labels (planted only)")
    p_gen.set_defaults(func=_cmd_gen)

    p_comm = sub.add_parser("analyze-communities",
                            help="detect communities and write a community file")
    p_comm.add_argument("cnf")
    p_comm.add_argument("-o", "--output", required=True)
    p_comm.add_argument("--seed", type=int, default=0)
    p_comm.add_argument("--time-budget", type=float, default=60.0)
    p_comm.set_defaults(func=_cmd_analyze_communities)

    # No prefix matching: ``--heuristic`` is a ``solve`` flag, not short for ``--heuristics``.
    p_exp = sub.add_parser("experiment", help="run an experiment over an instance set",
                           allow_abbrev=False)
    p_exp.add_argument("kind", choices=EXPERIMENTS)
    p_exp.add_argument("--instances", required=True, help="directory of .cnf files")
    p_exp.add_argument("--communities", default=None,
                       help="directory of <stem>.comm files")
    p_exp.add_argument("--heuristics", nargs="+", choices=HEURISTICS, default=None)
    p_exp.add_argument("--report", required=True, help="output JSON path")
    p_exp.add_argument("--csv", default=None, help="optional per-record CSV path")
    p_exp.add_argument("--cactus", default=None, help="cactus CSV path (adapt-compare)")
    p_exp.add_argument("--tvig-alpha", type=float, default=0.95)
    p_exp.add_argument("--sample-interval", type=int, default=5000)
    p_exp.add_argument("--louvain-budget", type=float, default=60.0)
    _add_solver_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment, timeout=60.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
