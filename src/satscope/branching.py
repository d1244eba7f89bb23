"""Branching heuristics: activity-table VSIDS variants and uniform-random picking.

All VSIDS variants share one bookkeeping scheme: instead of multiplying every
activity by the decay factor each conflict, the bump quantum grows by the
reciprocal, and everything is rescaled by 1e-100 once a score passes 1e100.
The induced ranking is identical to per-conflict whole-table decay; the
equivalence is covered by tests against a direct-decay reference.

Per conflict the quantum grows first and the bump uses the grown quantum, so
a variable bumped at conflict k and read at conflict n carries normalized
weight f^(n-k). That matches the normalized closed form
(1 - f) * sum_k delta_k * f^(n-k) up to its constant factor, and keeps seeded
activities in lockstep with temporal degree centrality when both decay at the
same rate.

The scores live in an ``array('d')`` that starts at zero;
``ActivityTable.activity`` is a writable zero-copy numpy view of it, so
``pick``, ``normalized()``, the in-place rescale, the hooks and a caller that
seeds the scores (theorem mode) read and write the same memory. A conflict's
bump set goes through one loop, ``bump_all``, that adds plain Python floats
to the array: indexing a numpy array yields a numpy scalar, and a
read-add-write-compare through numpy scalars costs several times the same
steps on a Python float, with the same IEEE double result.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .solver import ConflictAnalysis, SolverConfig

RESCALE_THRESHOLD = 1e100
RESCALE_FACTOR = 1e-100


class ActivityTable:
    """Per-variable floating activity scores with grow-the-quantum decay."""

    def __init__(self, num_vars: int, decay: float = 0.95):
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.decay_factor = decay
        self._scores = array("d", bytes(8 * (num_vars + 1)))
        self.activity = np.frombuffer(self._scores)
        self.bump_quantum = 1.0
        self.rescales = 0

    def decay(self, factor: float | None = None) -> None:
        """One multiplicative decay step, applied lazily through the quantum."""
        self.bump_quantum /= self.decay_factor if factor is None else factor

    def bump_all(self, variables) -> None:
        """Add the quantum to each variable in order; rescale as soon as one passes 1e100."""
        scores = self._scores
        q = self.bump_quantum
        for v in variables:
            x = scores[v] + q
            scores[v] = x
            if x > RESCALE_THRESHOLD:
                self._rescale()
                q = self.bump_quantum

    def _rescale(self) -> None:
        self.activity *= RESCALE_FACTOR
        self.bump_quantum *= RESCALE_FACTOR
        self.rescales += 1

    def normalized(self) -> np.ndarray:
        """Scores scaled so the most recent bump is worth 1.0 (comparable across time)."""
        return self.activity / self.bump_quantum


class _ActivityHeuristic:
    """Shared activity table, pick and conflict update for the VSIDS family."""

    def __init__(self, num_vars: int, decay: float = 0.95):
        self.table = ActivityTable(num_vars, decay)

    def pick(self, assigned: np.ndarray) -> int:
        # Activities are >= 0 and assigned slots become -1, so argmax lands on
        # the unassigned variable of maximal activity, lowest index first.
        scores = np.where(assigned, -1.0, self.table.activity)
        return int(scores.argmax())

    def on_conflict(self, analysis: "ConflictAnalysis") -> None:
        table = self.table
        table.decay()
        table.bump_all(self.bump_set(analysis))


class CvsidsHeuristic(_ActivityHeuristic):
    """Bump the variables of the learnt clause, decay every conflict.

    ``min_bump_size`` exists for the centrality-theorem experiment: a learnt
    unit clause adds no edge to the clause graph, so exact activity/centrality
    lockstep requires skipping its bump (set it to 2 there; default 1 bumps
    everything).
    """

    def __init__(self, num_vars, decay=0.95, min_bump_size=1):
        super().__init__(num_vars, decay)
        self.min_bump_size = min_bump_size

    def bump_set(self, analysis):
        if len(analysis.learnt_vars) < self.min_bump_size:
            return ()
        return analysis.learnt_vars


class MvsidsHeuristic(_ActivityHeuristic):
    """Bump every variable resolved during conflict analysis (MiniSAT style)."""

    def bump_set(self, analysis):
        return analysis.resolved_vars


class AdaptVsidsHeuristic(MvsidsHeuristic):
    """mVSIDS with the decay factor switched by learnt-clause quality.

    Keeps an exponential moving average of learnt LBDs; a clause whose LBD
    exceeds the average (compared before folding it in) triggers the fast
    decay, otherwise the slow one. The average starts at the first clause's
    LBD; smoothing 0 freezes it there, which makes the heuristic degenerate
    to mVSIDS when fast and slow decay coincide. ``SolverConfig`` checks the
    three parameters' ranges.
    """

    def __init__(self, num_vars, fast_decay: float = 0.75, slow_decay: float = 0.99,
                 lbd_smoothing: float = 0.05):
        super().__init__(num_vars, decay=0.95)
        self.fast_decay = fast_decay
        self.slow_decay = slow_decay
        self.lbd_smoothing = lbd_smoothing
        self.lbdema: float | None = None

    def on_conflict(self, analysis):
        lbd = analysis.lbd
        if self.lbdema is None:
            self.lbdema = float(lbd)
        factor = self.fast_decay if lbd > self.lbdema else self.slow_decay
        table = self.table
        table.decay(factor)
        table.bump_all(self.bump_set(analysis))
        self.lbdema += self.lbd_smoothing * (lbd - self.lbdema)


class RandomHeuristic:
    """Uniform choice over unassigned variables from a seeded RNG.

    Only the variable choice differs from the VSIDS variants: polarity still
    comes from the solver's saved phases.
    """

    def __init__(self, num_vars: int, seed: int = 0):
        self.rng = random.Random(seed)

    def pick(self, assigned: np.ndarray) -> int:
        free = (~assigned).nonzero()[0]
        return int(free[self.rng.randrange(len(free))])

    def on_conflict(self, analysis) -> None:
        pass

    def bump_set(self, analysis) -> tuple[int, ...]:
        return ()


HEURISTICS = ("cvsids", "mvsids", "adaptvsids", "random")


def make_heuristic(config: "SolverConfig", num_vars: int):
    """Build the heuristic named by ``config.heuristic`` with its parameters."""
    name = config.heuristic
    if name == "cvsids":
        return CvsidsHeuristic(num_vars, config.decay)
    if name == "mvsids":
        return MvsidsHeuristic(num_vars, config.decay)
    if name == "adaptvsids":
        return AdaptVsidsHeuristic(num_vars, config.fast_decay, config.slow_decay,
                                   config.lbd_smoothing)
    if name == "random":
        return RandomHeuristic(num_vars, config.seed)
    raise ValueError(f"unknown heuristic {name!r} (expected one of {HEURISTICS})")
