#!/usr/bin/env python3
"""satscope benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
The workload sets up its inputs, then runs whole passes (its fixed job list,
back to back) until ``--seconds``, counted from the start of the process, is
spent. With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced, and it holds the
per-layer metrics of the traced passes. End-to-end times are scaled to a
reference host speed (``hostspeed.py``). Earlier lines give the environment,
the trajectory fingerprint, the unscaled values and any failed check. See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()  # --seconds counts from here

# The BLAS thread count must be capped before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 1 <= int(_cur) <= NPROC:
        os.environ[_var] = str(NPROC)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 100


def env_stamp() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": NPROC,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def fingerprint(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(repr(job.trajectory()).encode())
    return h.hexdigest()[:16]


def check_jobs(jobs) -> list[str]:
    """Non-interference within a trajectory key and SAT/UNSAT agreement per instance."""
    failures = []
    groups: dict[tuple, set] = {}
    answers: dict[str, set] = {}
    for j in jobs:
        groups.setdefault(j.key, set()).add((j.status, j.decisions, j.conflicts,
                                             j.propagations))
        if j.status in ("SAT", "UNSAT"):
            answers.setdefault(j.instance, set()).add(j.status)
    failures += [f"{key}: runs diverge {sorted(v)}" for key, v in groups.items() if len(v) > 1]
    failures += [f"{inst}: both SAT and UNSAT" for inst, v in answers.items() if len(v) > 1]
    return failures


def hook_ratio(jobs) -> float:
    """Sum of hooked solve time over plain solve time, on keys that have both."""
    hooked: dict[tuple, float] = {}
    plain: dict[tuple, float] = {}
    for j in jobs:
        side = {"hooked": hooked, "plain": plain}.get(j.role)
        if side is not None:
            side[j.key] = side.get(j.key, 0.0) + j.solve_s
    both = hooked.keys() & plain.keys()
    return sum(hooked[k] for k in both) / sum(plain[k] for k in both)


def end_to_end(setups, passes, timed_roles) -> dict:
    """The end-to-end metrics of a run, each a median over its set-ups or passes.

    ``setups`` holds ``(seconds, factor)`` and ``passes`` ``(jobs, seconds,
    factor)``; every time is scaled by its step's host-speed factor. A job's
    time is its median over the passes. ``job_s_p50`` counts the jobs whose
    role is in ``timed_roles``: the workload's own jobs, not the runs it adds
    only as the other side of ``hook_overhead_ratio``.
    """
    # Every pass runs the same job list, so job i is the same job in each.
    first = passes[0][0]
    job_s = [statistics.median(jobs[i].solve_s * f for jobs, _, f in passes)
             for i in range(len(first))]
    plain = [i for i, job in enumerate(first) if job.role == "plain"]
    plain_s = sum(job_s[i] for i in plain)
    return {
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "run_s": (statistics.median(s * f for _, s, f in passes), "s"),
        "job_s_p50": (statistics.median(job_s[i] for i, job in enumerate(first)
                                        if job.role in timed_roles), "s"),
        "conflicts_per_s": (sum(first[i].conflicts for i in plain) / plain_s, "1/s"),
        "propagations_per_s": (sum(first[i].propagations for i in plain) / plain_s, "1/s"),
        "hook_overhead_ratio": (statistics.median(hook_ratio(jobs) for jobs, _, _ in passes),
                                "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class JobContext:
    """What a step gets from the runner: a span per job and host samples between jobs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.probe = None  # the current step's hostspeed.Probe

    def between(self) -> None:
        if self.probe is not None:
            self.probe.sample()

    def span(self):
        self.between()
        if self.tracer is None or not self.tracer.installed:
            return contextlib.nullcontext()
        return self.tracer.span("bench.job")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("solve", "desk"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "satscope").is_dir() or not (ROOT / "scripts").is_dir():
        print(f"perfbench: no satscope source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, ROOT, OUT_DIR)
    tracer = None
    if args.trace:
        # Set-up is traced too: the cnf, generator and community layers work there.
        tracer = tracing.Tracer(extra_modules=[workloads, getattr(wl, "script", workloads)])
        tracer.install()
    ctx = JobContext(tracer)
    made = {}

    def setup_step(probe) -> None:
        ctx.probe = probe
        with ctx.span():
            made["inputs"] = wl.setup(args.seed)
        ctx.probe = None

    def more_setups(steps) -> bool:
        spent = sum(seconds for _, seconds, _ in steps)
        return len(steps) < SETUP_MAX_REPEATS and (len(steps) < SETUP_MIN_REPEATS
                                                    or spent < SETUP_MIN_SECONDS)

    setups = [(s, f) for _, s, f in hostspeed.timed_steps(setup_step, more_setups)]
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()

    # With --trace 1 a round is an untraced pass then a traced one.
    per_round = 2 if tracer else 1
    done = []

    def pass_step(probe):
        traced = tracer is not None and len(done) % 2 == 1
        if traced:
            tracer.install()
        ctx.probe = probe
        try:
            return traced, wl.run_pass(made["inputs"], args.seed, ctx)
        finally:
            ctx.probe = None
            if traced:
                tracer.uninstall()
                # Pass times leave out the tracer-only work, as they leave out the samples.
                probe.spent += tracer.untimed_s
                tracer.untimed_s = 0.0

    def more_passes(steps) -> bool:
        done[:] = steps
        if len(steps) % per_round:
            return True
        last_round = sum(seconds for _, seconds, _ in steps[-per_round:])
        return time.perf_counter() - T_START + last_round <= args.seconds

    failures: list[str] = []
    attempted = 0
    passes = []  # (jobs, seconds, factor) of the passes that give the metrics
    untraced = []  # with --trace 1, the scaled times of the untraced passes
    first_fp = None
    for (traced, res), seconds, factor in hostspeed.timed_steps(pass_step, more_passes):
        attempted += res.attempted
        failures += res.failures + check_jobs(res.jobs)
        fp = fingerprint(res.jobs)
        first_fp = first_fp or fp
        if fp != first_fp:
            failures.append(f"pass fingerprint {fp} differs from {first_fp}")
        if tracer and not traced:
            untraced.append(seconds * factor)
        else:
            passes.append((res.jobs, seconds, factor))

    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    known = ref["fingerprints"].get(args.workload, {}).get(str(args.seed))
    trajectory = ("no reference for this seed" if known is None
                  else "unchanged" if known == first_fp else f"CHANGED from {known}")
    print(f"env {json.dumps(env_stamp(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: fingerprint {first_fp} "
          f"(trajectory {trajectory}); {len(setups)} set-ups, "
          f"{len(passes)} pass(es) of {len(passes[-1][0])} jobs")
    print("pass seconds " + " ".join(f"{s:.3f}" for _, s, _ in passes)
          + "; host-speed factors " + " ".join(f"{f:.3f}" for _, _, f in passes))
    if not passes[-1][0] or any(len(jobs) != len(passes[0][0]) for jobs, _, _ in passes):
        print("perfbench: jobs failed, no metrics", file=sys.stderr)
        return 1

    if tracer is None:
        values = end_to_end(setups, passes, wl.timed_roles)
        unscaled = end_to_end([(s, 1.0) for s, _ in setups],
                              [(jobs, s, 1.0) for jobs, s, _ in passes], wl.timed_roles)
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, (v, _) in unscaled.items()))
        kind = "end_to_end"
    else:
        pass_spans = tracer.take()
        seen = tracing.modules_seen(setup_spans) | tracing.modules_seen(pass_spans)
        failures += [f"trace: layer {m} recorded no spans" for m in sorted(wl.modules - seen)]
        tracing.save(OUT_DIR / f"trace-{args.workload}.npz",
                     {"setup": setup_spans, "passes": pass_spans})
        layer = tracing.layer_metrics([(setup_spans, len(setups)),
                                       (pass_spans, len(passes))])
        first = passes[0][0]
        layer["harness.unique_trajectory_ratio"] = len({j.key for j in first}) / len(first)
        layer["trace.overhead_ratio"] = (statistics.median(s * f for _, s, f in passes)
                                         / statistics.median(untraced))
        values = {k: (v, tracing.unit(k)) for k, v in layer.items()}
        kind = "per_layer"

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if {m["name"]: m["unit"] for m in declared} != {k: u for k, (_, u) in values.items()}:
        print(f"perfbench: metrics differ from the {kind} list in BENCHMARK.json",
              file=sys.stderr)
        return 1

    failed = len(failures)
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"failed_ops_frac {failed / attempted} ({failed} failed / {attempted} jobs)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
