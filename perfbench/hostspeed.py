"""Host-speed samples, so that a run's timings read at a reference host speed.

The machines the benchmark runs on switch between a fast state and one about
1.5x slower, for tens of seconds to minutes at a time, because other tenants
share the physical cores. Process CPU time drifts with wall time, so it is
not scheduling. The probe times a fixed pure-Python kernel of integer
arithmetic and dict updates, about 8 ms, before every job of a pass (before
every experiment, in the desk study, whose jobs run inside the harness). Timed
between jobs this way, the kernel's time follows the solver's: on one 2-vCPU
VM, over 10 s windows, the job time varied by 7.6 % (coefficient of
variation) and job time over probe time by 2.6 %.

A step's factor is ``REFERENCE_S`` over the median of its samples; its
seconds times the factor are what it would have taken with the host at the
reference speed. The kernel shares no code with satscope, so a change to the
program moves the scaled timings as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on the machine the bounds were set on (a 2-vCPU x86_64
# VM, Python 3.11.7) in its fast state.
REFERENCE_S = 0.0075


def _kernel() -> int:
    d: dict[int, int] = {}
    for i in range(40000):
        k = (i * 7919) & 4095
        d[k] = d.get(k, 0) + i
    return len(d)


class Probe:
    """The host-speed samples of one step of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        self.spent += seconds

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def timed_steps(step, more) -> list:
    """Run ``step(probe)`` until ``more(steps)`` is false.

    Returns ``[(result, seconds, factor)]``: the step's wall time less the
    sampling inside it, and its host-speed factor. The step samples between
    its jobs; one sample is also taken after it.
    """
    steps = []
    while True:
        probe = Probe()
        t0 = time.perf_counter()
        result = step(probe)
        seconds = time.perf_counter() - t0 - probe.spent
        probe.sample()
        steps.append((result, seconds, probe.factor()))
        if not more(steps):
            return steps
