"""CDCL search with two-watched-literal propagation and first-UIP clause learning.

The loop is MiniSAT-2.2-flavored: Luby restarts (base 100 conflicts), phase
saving with default polarity false, and optional LBD-ordered clause-database
reduction. A pluggable branching heuristic supplies decisions and receives
every conflict analysis; instrumentation hooks observe decisions and
conflicts without influencing the search. A hook that samples keeps its own
schedule from the solver's ``stats``; the solver knows nothing of sampling.

Preprocessing is root-level unit propagation plus the tautology/duplicate
removal done at parse time; there is no variable elimination.

Representation. Inside the solver a literal is a non-negative code, as in
MiniSAT: ``+v`` is ``2v`` and ``-v`` is ``2v+1``, so negation is ``x ^ 1``,
the variable is ``x >> 1`` and ``vals`` and ``watches`` are indexed by the
code itself. ``__init__`` encodes each input clause once, checking it in the
same pass. ``ConflictAnalysis`` hands the heuristic and the hooks variable
numbers only; nothing decodes a learnt clause per conflict. Every attached
clause is one mutable ``list`` of codes whose first two entries are its
watched literals.
Watch lists and ``reasons`` hold that list object itself, so the propagate
loop touches no wrapper; ``_ClauseRec`` appears only in ``learnts``, where
it carries the LBD and the timestamp (the conflict ordinal at which the
clause was learnt, kept nowhere else) that ``select_retained`` ranks by.
Clauses are identified by ``id`` of their list, never by content: two
learnt clauses can hold the same literals. The assignment state the
heuristic and hooks see, ``assigned_mask``, is a read-only numpy bool view
over a ``bytearray`` the solver writes directly (a bytearray store is about
half the cost of a numpy scalar store).

Watch visits. A visit from the list of a literal that just became false
first puts that literal in slot 1 and the other watch in slot 0, so a clause
that becomes a reason in a visit holds its implied literal first;
``_analyze`` relies on that. The swap is kept even when the other watch is
already true: the clause then stays on the same list with the true literal
first, and its next visit from that list takes the short path. A ternary
clause has one candidate for a new watch, read as ``lits[2]`` before the
general scan. Propagations are counted from how much the trail grew.
``reasons[v]`` is written on every assignment (``_enqueue`` and the
propagate loop) and read only for assigned variables, so ``_backjump``
leaves the reasons of the variables it unassigns stale; a stale reason can
keep a deleted learnt clause's list alive until the variable is assigned
again.

Trajectory rule. The hot path (propagate, analyze, backjump, reduce_db) is
pinned by golden counters in ``tests/test_trajectory.py``: decisions,
conflicts, propagations, restarts, learnt and deleted clauses for every
heuristic on fixed instances. A change here must keep those counters, or
declare the trajectory change and update them with the reason. The order of
each watch list is part of the trajectory, so it must be kept as well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cnf import Formula

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

RESTART_BASE = 100  # conflicts per unit of the Luby sequence


class SolverInternalError(RuntimeError):
    """A self-check of the solver failed: the solver, not its input, is wrong."""


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise ValueError("luby index is 1-based")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


@dataclass
class SolverConfig:
    """Knobs for one run. Defaults follow MiniSAT 2.2.0 where it has an opinion."""

    heuristic: str = "mvsids"
    decay: float = 0.95
    fast_decay: float = 0.75
    slow_decay: float = 0.99
    lbd_smoothing: float = 0.05
    seed: int = 0
    clause_deletion: bool = True
    conflict_budget: int | None = None
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("decay", "fast_decay", "slow_decay"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        if not 0.0 <= self.lbd_smoothing < 1.0:
            raise ValueError("lbd_smoothing must be in [0, 1)")
        if self.conflict_budget is not None and self.conflict_budget < 1:
            raise ValueError("conflict_budget must be >= 1")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError("timeout must be positive")


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learnt_clauses: int = 0
    deleted_clauses: int = 0
    wall_time_s: float = 0.0


class ConflictAnalysis(NamedTuple):
    """Result of first-UIP analysis of one conflict.

    ``learnt_vars`` is the learnt clause's variables and ``resolved_vars``
    every variable traversed during resolution (a superset), both sorted
    ascending: cVSIDS and mVSIDS bump them in that order and the focus
    counters read them as they are. ``lbd`` is the number of distinct
    decision levels among the learnt clause's literals. The clause itself
    is attached before the hooks run: it is the reason of the asserting
    literal at the end of the trail (none for a learnt unit).
    """

    backjump_level: int
    learnt_vars: tuple[int, ...]
    resolved_vars: tuple[int, ...]
    lbd: int


@dataclass
class SatResult:
    status: str
    model: dict[int, bool] | None
    stats: SolverStats


class InstrumentationHooks:
    """No-op observer base class.

    Callbacks run synchronously on the solver's thread and must treat the
    solver as read-only; the non-interference tests rely on that.
    """

    def on_decision(self, solver: "Solver", var: int) -> None:
        pass

    def on_conflict(self, solver: "Solver", analysis: ConflictAnalysis) -> None:
        pass


class _ClauseRec:
    """A learnt clause's attached code list plus the LBD and timestamp it is ranked by."""

    __slots__ = ("lits", "timestamp", "lbd")

    def __init__(self, lits: list[int], timestamp: int, lbd: int | None):
        self.lits = lits
        self.timestamp = timestamp
        self.lbd = lbd


def select_retained(learnts: list, locked: set) -> tuple[list, list]:
    """Split learnt clauses into (retained, removed), dropping about half.

    Clauses are ranked by (LBD ascending, timestamp descending); locked
    clauses (reasons of currently assigned literals) are always retained.
    """
    unlocked = [c for c in learnts if id(c) not in locked]
    unlocked.sort(key=lambda c: (c.lbd, -c.timestamp))
    target = len(learnts) // 2
    removed = unlocked[len(unlocked) - min(target, len(unlocked)):]
    removed_ids = {id(c) for c in removed}
    retained = [c for c in learnts if id(c) not in removed_ids]
    return retained, removed


class Solver:
    """Single-shot CDCL solver instance; owns all mutable search state."""

    def __init__(
        self,
        formula: Formula,
        config: SolverConfig | None = None,
        heuristic=None,
        hooks: InstrumentationHooks | None = None,
    ):
        self.formula = formula
        self.cfg = config or SolverConfig()
        nv = formula.num_vars
        self.nv = nv
        self.stats = SolverStats()
        self.hooks = hooks

        if heuristic is None:
            from .branching import make_heuristic

            heuristic = make_heuristic(self.cfg, nv)
        self.heuristic = heuristic

        # vals is indexed by literal code (2v for +v, 2v+1 for -v; codes 0
        # and 1 are unused): 1 literal true, -1 false, 0 unassigned.
        self.vals = [0] * (2 * nv + 2)
        self.levels = [0] * (nv + 1)
        self.reasons: list = [None] * (nv + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # The saved phase is the sign bit of the code: 1 (false) by default.
        self.saved = [1] * (nv + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nv + 2)]
        self._assigned = bytearray(nv + 1)
        self._assigned[0] = 1
        self.assigned_mask = np.frombuffer(self._assigned, dtype=bool)
        self.assigned_mask.flags.writeable = False
        self.learnts: list[_ClauseRec] = []
        self._seen = bytearray(nv + 1)
        self._broken = False  # empty clause or contradictory units in the input

        # One pass per clause encodes it and checks it: a literal outside
        # +-1..nv has no code, and a repeated variable shows as fewer
        # distinct variables than literals.
        code_of = {}
        for v in range(1, nv + 1):
            code_of[v] = v + v
            code_of[-v] = v + v + 1
        encode = code_of.__getitem__
        n_attached = 0
        for clause in formula.clauses:
            try:
                lits = list(map(encode, clause.lits))
            except KeyError:
                raise ValueError(f"clause {clause.lits} mentions a variable above {nv}") from None
            n = len(lits)
            if n == 0:
                self._broken = True
            elif n == 1:
                cur = self.vals[lits[0]]
                if cur == -1:
                    self._broken = True
                elif cur == 0:
                    self._enqueue(lits[0], None)
            elif len({*map(abs, clause.lits)}) != n:
                raise ValueError(f"clause {clause.lits} repeats a variable")
            else:
                self._attach(lits)
                n_attached += 1
        self.max_learnts = max(100, n_attached // 3)

    # -- state helpers ----------------------------------------------------

    def _attach(self, lits: list[int]) -> None:
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)

    def _enqueue(self, lit: int, reason) -> None:
        v = lit >> 1
        self.vals[lit] = 1
        self.vals[lit ^ 1] = -1
        self.levels[v] = len(self.trail_lim)
        self.reasons[v] = reason
        self.trail.append(lit)
        self._assigned[v] = 1

    # -- propagation ------------------------------------------------------

    def _propagate(self):
        """Unit propagation to fixpoint; returns the conflicting clause's codes or None."""
        vals = self.vals
        watches = self.watches
        trail = self.trail
        levels = self.levels
        reasons = self.reasons
        mask = self._assigned
        lvl = len(self.trail_lim)
        qhead = self.qhead
        start = len(trail)
        confl = None
        while qhead < len(trail):
            falselit = trail[qhead] ^ 1
            qhead += 1
            # One pass rebuilds the list; the watchers that stay keep their order.
            it = iter(watches[falselit])
            keep = watches[falselit] = []
            for lits in it:
                first = lits[0]
                if first == falselit:
                    first = lits[0] = lits[1]
                    lits[1] = falselit
                fval = vals[first]
                if fval == 1:
                    keep.append(lits)
                    continue
                n = len(lits)
                if n == 3:
                    lk = lits[2]
                    if vals[lk] >= 0:
                        lits[1] = lk
                        lits[2] = falselit
                        watches[lk].append(lits)
                        continue
                    k = 3
                else:
                    k = 2
                while k < n:
                    lk = lits[k]
                    if vals[lk] >= 0:
                        lits[1] = lk
                        lits[k] = falselit
                        watches[lk].append(lits)
                        break
                    k += 1
                else:
                    keep.append(lits)
                    if fval == -1:
                        confl = lits
                        keep.extend(it)
                        qhead = len(trail)
                        break
                    v = first >> 1
                    vals[first] = 1
                    vals[first ^ 1] = -1
                    levels[v] = lvl
                    reasons[v] = lits
                    trail.append(first)
                    mask[v] = 1
        self.qhead = qhead
        self.stats.propagations += len(trail) - start
        return confl

    # -- conflict analysis ------------------------------------------------

    def _analyze(self, confl: list[int]) -> tuple[ConflictAnalysis, list[int]]:
        """First-UIP analysis; returns the analysis and the learnt clause's codes."""
        levels = self.levels
        reasons = self.reasons
        trail = self.trail
        seen = self._seen
        cur = len(self.trail_lim)
        learnt: list[int] = [0]
        resolved: list[int] = []
        pathc = 0
        idx = len(trail) - 1
        reason_lits = confl
        p = 0
        while True:
            # A reason's first literal is the implied one, whose variable is
            # still marked, so the loop passes over it.
            for q in reason_lits:
                v = q >> 1
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    resolved.append(v)
                    if levels[v] >= cur:
                        pathc += 1
                    else:
                        learnt.append(q)
            assert pathc > 0, "conflict clause has no literal at the current level"
            while True:
                p = trail[idx]
                pv = p >> 1
                if seen[pv]:
                    break
                idx -= 1
            idx -= 1
            pathc -= 1
            if pathc == 0:
                break
            reason_lits = reasons[pv]
        learnt[0] = p ^ 1
        for v in resolved:
            seen[v] = 0
        if len(learnt) == 1:
            bj = 0
        else:
            mi = 1
            ml = levels[learnt[1] >> 1]
            for k in range(2, len(learnt)):
                lv = levels[learnt[k] >> 1]
                if lv > ml:
                    ml, mi = lv, k
            learnt[1], learnt[mi] = learnt[mi], learnt[1]
            bj = ml
        lbd = len({levels[q >> 1] for q in learnt})
        learnt_vars = [q >> 1 for q in learnt]
        learnt_vars.sort()
        resolved.sort()
        return ConflictAnalysis(bj, tuple(learnt_vars), tuple(resolved), lbd), learnt

    def _backjump(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        tl = trail_lim[target_level]
        trail = self.trail
        vals = self.vals
        mask = self._assigned
        saved = self.saved
        for lit in trail[tl:]:
            v = lit >> 1
            saved[v] = lit & 1
            vals[lit] = 0
            vals[lit ^ 1] = 0
            mask[v] = 0
        del trail[tl:]
        del trail_lim[target_level:]
        self.qhead = tl

    # -- clause database --------------------------------------------------

    def _reduce_db(self) -> None:
        reasons = self.reasons
        reason_ids = set()
        for lit in self.trail:
            r = reasons[lit >> 1]
            if r is not None:
                reason_ids.add(id(r))
        locked = {id(rec) for rec in self.learnts if id(rec.lits) in reason_ids}
        retained, removed = select_retained(self.learnts, locked)
        # One sweep of the watch lists the removed clauses sit on, matching
        # by identity and keeping the survivors' order.
        watches = self.watches
        removed_ids = {id(rec.lits) for rec in removed}
        touched = {rec.lits[w] for rec in removed for w in (0, 1)}
        for i in touched:
            watches[i] = [c for c in watches[i] if id(c) not in removed_ids]
        self.learnts = retained
        self.stats.deleted_clauses += len(removed)
        self.max_learnts = int(self.max_learnts * 1.3) + 1

    # -- main loop ----------------------------------------------------------

    def solve(self) -> SatResult:
        t0 = time.monotonic()
        st = self.stats
        result = self._search(t0)
        st.wall_time_s = time.monotonic() - t0
        if result == SAT:
            model = self._extract_model()
            self._verify_model(model)
            return SatResult(SAT, model, st)
        return SatResult(result, None, st)

    def _search(self, t0: float) -> str:
        st = self.stats
        cfg = self.cfg
        hooks = self.hooks
        if self._broken:
            return UNSAT
        if self._propagate() is not None:
            return UNSAT
        if self.nv == 0:
            return SAT
        restart_limit = RESTART_BASE * luby(1)
        conflicts_at_restart = 0
        deadline = None if cfg.timeout_s is None else t0 + cfg.timeout_s
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    return UNSAT
                st.conflicts += 1
                analysis, lits = self._analyze(confl)
                self._backjump(analysis.backjump_level)
                if len(lits) == 1:
                    self._enqueue(lits[0], None)
                else:
                    self.learnts.append(_ClauseRec(lits, st.conflicts, analysis.lbd))
                    self._attach(lits)
                    self._enqueue(lits[0], lits)
                st.learnt_clauses += 1
                self.heuristic.on_conflict(analysis)
                if hooks is not None:
                    hooks.on_conflict(self, analysis)
                if st.conflicts - conflicts_at_restart >= restart_limit:
                    st.restarts += 1
                    conflicts_at_restart = st.conflicts
                    restart_limit = RESTART_BASE * luby(st.restarts + 1)
                    self._backjump(0)
                if cfg.conflict_budget is not None and st.conflicts >= cfg.conflict_budget:
                    return UNKNOWN
                if deadline is not None and st.conflicts % 128 == 0 and time.monotonic() > deadline:
                    return UNKNOWN
            else:
                if len(self.trail) == self.nv:
                    return SAT
                if cfg.clause_deletion and len(self.learnts) >= self.max_learnts:
                    self._reduce_db()
                var = self.heuristic.pick(self.assigned_mask)
                st.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(var + var + self.saved[var], None)
                if hooks is not None:
                    hooks.on_decision(self, var)
                if deadline is not None and st.decisions % 512 == 0 and time.monotonic() > deadline:
                    return UNKNOWN

    def _extract_model(self) -> dict[int, bool]:
        vals = self.vals
        return {v: vals[v + v] == 1 for v in range(1, self.nv + 1)}

    def _verify_model(self, model: dict[int, bool]) -> None:
        for clause in self.formula.clauses:
            for l in clause.lits:
                v = l if l > 0 else -l
                if model[v] == (l > 0):
                    break
            else:
                raise SolverInternalError(f"internal error: model does not satisfy {clause.lits}")
