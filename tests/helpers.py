"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the production code paths it checks:
satisfiability via bitmask truth tables, unit propagation via naive clause
re-scanning, activity decay via literal whole-table multiplication, the
activity store via per-variable numpy-scalar bumps, modularity
optima via exhaustive partition enumeration, modularity itself via numpy
scalar accumulators, the clause graph via an incremental dict-of-dicts clique
loop, component masses via depth-first search, the temporal focus score
via a sliding window of the last decisions' communities, and eigenvector
centrality via every one of its power-iteration steps. ``DecisionLogHook``
records a run's decision sequence for the non-interference and degeneracy
checks. The small accessors after the
imports (an assignment mask, solver literal codes decoded to DIMACS, the
clause a conflict just learnt, an activity ranking, one edge weight, a report
read back from JSON, a report written without its wall times, a one-shot
``solve``, a count of a function's calls across forked workers) are what
tests need and the package does not offer.
So are the checks and closed forms the package's own code has no use for: a
formula's clause invariants, the root-level propagation closure, and the
normalized-VSIDS closed form and its one-step recurrence.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from collections import deque
from pathlib import Path

import numpy as np

from satscope.centrality import CentralityVector
from satscope.cnf import Clause, Formula
from satscope.graph import SCALE_FLOOR, Tvig
from satscope.harness import ExperimentReport, InstanceRecord, emit_report
from satscope.solver import InstrumentationHooks, SatResult, Solver, SolverConfig


def assigned_mask(n: int, assigned=()) -> np.ndarray:
    """A solver-style mask over variables 0..n: index 0 and ``assigned`` set."""
    m = np.zeros(n + 1, dtype=bool)
    m[0] = True
    m[list(assigned)] = True
    return m


def dimacs_lits(codes) -> list[int]:
    """DIMACS literals of solver literal codes (2v for +v, 2v+1 for -v)."""
    return [-(q >> 1) if q & 1 else q >> 1 for q in codes]


def learnt_clause(solver) -> tuple[int, ...]:
    """The DIMACS literals of the clause learnt at this conflict, asserting literal first.

    For use inside a hook's ``on_conflict``: the solver has backjumped and
    enqueued the asserting literal, last on the trail, with the attached
    learnt clause as its reason; a learnt unit has no reason.
    """
    lit = solver.trail[-1]
    reason = solver.reasons[lit >> 1]
    return tuple(dimacs_lits((lit,) if reason is None else reason))


def solve(formula: Formula, config: SolverConfig | None = None,
          hooks: InstrumentationHooks | None = None) -> SatResult:
    """Solve a formula with a one-shot ``Solver``."""
    return Solver(formula, config, hooks=hooks).solve()


def check_formula(formula: Formula) -> None:
    """Raise ValueError if any clause mentions an out-of-range or repeated variable."""
    for c in formula.clauses:
        vs = [abs(l) for l in c.lits]
        if any(v < 1 or v > formula.num_vars for v in vs):
            raise ValueError(f"clause {c.lits} mentions a variable above {formula.num_vars}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"clause {c.lits} repeats a variable")


def propagate_closure(
    formula: Formula, assumptions: tuple[int, ...] = ()
) -> tuple[list[int], tuple[int, ...] | None]:
    """Root-level unit-propagation closure under the given assumed literals.

    Returns (assigned literals in trail order, conflicting clause lits or
    None), all as DIMACS literals: a seam into the solver's watched-literal
    propagator. Raises ValueError for an assumption that is not a literal of
    the formula.
    """
    nv = formula.num_vars
    for l in assumptions:
        if l == 0 or abs(l) > nv:
            raise ValueError(f"assumption {l} is not a literal over {nv} variables")
    s = Solver(formula, SolverConfig(clause_deletion=False))
    if s._broken:
        return dimacs_lits(s.trail), ()
    for l in assumptions:
        code = l + l if l > 0 else 1 - l - l
        cur = s.vals[code]
        if cur == -1:
            return dimacs_lits(s.trail), (l, -l)
        if cur == 0:
            s._enqueue(code, None)
    confl = s._propagate()
    return dimacs_lits(s.trail), (tuple(dimacs_lits(confl)) if confl is not None else None)


def normalized_vsids(deltas, f: float) -> float:
    """Closed-form normalized activity: (1 - f) * sum_k delta_k * f^(n - k)."""
    if not 0.0 < f < 1.0:
        raise ValueError("decay factor must be in (0, 1)")
    d = np.asarray(list(deltas), dtype=float)
    n = len(d)
    if n == 0:
        return 0.0
    powers = f ** np.arange(n - 1, -1, -1, dtype=float)
    return float((1.0 - f) * np.dot(d, powers))


def normalized_vsids_recursive(s_prev: float, delta: float, f: float) -> float:
    """One exponential-moving-average step: s_n = (1 - f) * delta_n + f * s_{n-1}."""
    if not 0.0 < f < 1.0:
        raise ValueError("decay factor must be in (0, 1)")
    return (1.0 - f) * delta + f * s_prev


def activity_order(table) -> list[int]:
    """Variables by decreasing normalized activity, ties by lowest index."""
    return (np.argsort(-table.normalized()[1:], kind="stable") + 1).tolist()


def effective_weight(g: Tvig, u: int, v: int) -> float:
    """The decayed weight of edge (u, v), 0.0 if absent."""
    return g.adj[u].get(v, 0.0) * g.global_scale


def report_from_json(d: dict) -> ExperimentReport:
    """The report that ``emit_report`` wrote as ``d`` (records back as InstanceRecord)."""
    records = [InstanceRecord(**r) for r in d["records"]]
    return ExperimentReport(d["experiment"], records, d["aggregates"], list(d["notes"]))


def emit_untimed(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Write ``report`` with ``emit_report``, then drop its wall times.

    JSON loses the ``wall_time_s`` key of every record and aggregate, and is
    dumped again as ``emit_report`` dumps it; CSV loses the ``wall_time_s``
    column. Two runs of the same searches then give the same bytes.
    """
    path = Path(path)
    emit_report(report, path, fmt)
    if fmt == "json":
        d = json.loads(path.read_text())
        for entry in d["records"] + list(d["aggregates"].values()):
            entry.pop("wall_time_s", None)
        path.write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_time_s")
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(row[:drop] + row[drop + 1:] for row in rows)


class CallLog:
    """The calls of one function made since ``count_calls``, as lines of a file.

    The harness forks workers, whose calls a list in this process would not
    see; each call appends its process id to the file, which all of them share.
    """

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def pids(self) -> list[int]:
        return [int(line) for line in self.path.read_text().split()]

    def __len__(self) -> int:
        return len(self.pids())


def count_calls(monkeypatch, owner, name: str, path) -> CallLog:
    """Log every call of ``owner.name``, in this process or a forked worker, to ``path``."""
    log = CallLog(path)
    original = getattr(owner, name)

    def logged(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)
    return log


def count_solves(monkeypatch, path) -> CallLog:
    """Log every ``Solver.solve`` call, in this process or a forked worker, to ``path``."""
    return count_calls(monkeypatch, Solver, "solve", path)


_mask_cache: dict[int, dict[int, int]] = {}


def var_masks(n: int) -> dict[int, int]:
    """masks[v] has bit a set iff variable v is true in assignment a (a in [0, 2^n))."""
    if n in _mask_cache:
        return _mask_cache[n]
    total = 1 << n
    masks = {}
    for v in range(1, n + 1):
        block = 1 << (v - 1)
        m = ((1 << block) - 1) << block
        width = 2 * block
        while width < total:
            m |= m << width
            width <<= 1
        masks[v] = m
    _mask_cache[n] = masks
    return masks


def clause_mask(lits, n: int) -> int:
    full = (1 << (1 << n)) - 1
    masks = var_masks(n)
    cm = 0
    for l in lits:
        m = masks[abs(l)]
        cm |= m if l > 0 else (~m & full)
    return cm


def formula_mask(formula: Formula) -> int:
    """Bitmask of all satisfying assignments (exhaustive truth table)."""
    n = formula.num_vars
    fm = (1 << (1 << n)) - 1
    for c in formula.clauses:
        fm &= clause_mask(c.lits, n)
        if fm == 0:
            return 0
    return fm


def brute_force_sat(formula: Formula) -> bool:
    return formula_mask(formula) != 0


def brute_force_model(formula: Formula) -> dict[int, bool] | None:
    fm = formula_mask(formula)
    if fm == 0:
        return None
    a = (fm & -fm).bit_length() - 1  # lowest satisfying assignment
    return {v: bool(a >> (v - 1) & 1) for v in range(1, formula.num_vars + 1)}


def clause_implied(formula: Formula, lits) -> bool:
    """True iff every satisfying assignment of the formula satisfies the clause."""
    n = formula.num_vars
    return formula_mask(formula) & ~clause_mask(lits, n) == 0


def naive_unit_closure(formula: Formula, assumptions=()):
    """Quadratic re-scanning unit propagation; returns (assignment dict, conflicted)."""
    assign: dict[int, bool] = {}
    for l in assumptions:
        v = abs(l)
        want = l > 0
        if v in assign and assign[v] != want:
            return assign, True
        assign[v] = want
    changed = True
    while changed:
        changed = False
        for clause in formula.clauses:
            unassigned = []
            satisfied = False
            for l in clause.lits:
                v = abs(l)
                if v in assign:
                    if assign[v] == (l > 0):
                        satisfied = True
                        break
                else:
                    unassigned.append(l)
            if satisfied:
                continue
            if not unassigned:
                return assign, True
            if len(unassigned) == 1:
                l = unassigned[0]
                assign[abs(l)] = l > 0
                changed = True
    return assign, False


class DirectDecayActivity:
    """Reference VSIDS bookkeeping: decay the whole table, then bump by 1.

    After k conflicts, a variable bumped at conflicts J holds
    sum_{j in J} f^(k-j); this is the normalized closed form up to the (1-f)
    factor and serves as the ranking oracle for the grow-the-quantum scheme.
    """

    def __init__(self, num_vars: int, decay: float = 0.95):
        self.decay = decay
        self.activity = np.zeros(num_vars + 1)

    def on_conflict(self, bumped_vars) -> None:
        self.activity *= self.decay
        for v in bumped_vars:
            self.activity[v] += 1.0

    def ranking_order(self):
        scores = self.activity[1:]
        return [int(i) + 1 for i in np.argsort(-scores, kind="stable")]


class NumpyBumpActivity:
    """Reference activity store: a numpy float array bumped one variable at a time.

    The same grow-the-quantum bookkeeping as ``ActivityTable``, with each
    bump a numpy-scalar read-add-write and the rescale check read back from
    the array. ``mid_loop_rescales`` counts rescales that fired before the
    last variable of a bump set.
    """

    def __init__(self, num_vars: int, decay: float = 0.95, initial=None):
        self.decay_factor = decay
        self.activity = (np.zeros(num_vars + 1) if initial is None
                         else np.array(initial, dtype=float))
        self.bump_quantum = 1.0
        self.rescales = 0
        self.mid_loop_rescales = 0

    def on_conflict(self, bumped_vars, factor: float | None = None) -> None:
        self.bump_quantum /= self.decay_factor if factor is None else factor
        a = self.activity
        for i, v in enumerate(bumped_vars):
            a[v] += self.bump_quantum
            if a[v] > 1e100:
                a *= 1e-100
                self.bump_quantum *= 1e-100
                self.rescales += 1
                self.mid_loop_rescales += i < len(bumped_vars) - 1


def window_temporal_score(decision_community_log, num_communities: int) -> float:
    """The temporal score by replaying a window of the last ws decisions' communities.

    ws is 10% of the community count rounded up; each decision is checked
    against the window before being inserted, so the first can never hit.
    """
    log = list(decision_community_log)
    ws = math.ceil(0.1 * num_communities)
    window: deque[int] = deque()
    counts: dict[int, int] = {}
    hits = 0
    for c in log:
        if counts.get(c, 0) > 0:
            hits += 1
        window.append(c)
        counts[c] = counts.get(c, 0) + 1
        if len(window) > ws:
            old = window.popleft()
            counts[old] -= 1
    return hits / len(log)


def power_iteration_reference(graph, iterations: int) -> CentralityVector:
    """Eigenvector centrality by running every one of ``iterations`` power-iteration steps.

    The oracle for the bits ``centrality.eigenvector_centrality`` returns
    when it stops at an exact repeat of an earlier iterate.
    """
    n = graph.num_vars
    flat, ends, factors = graph.clause_store()
    top = factors.max(initial=0.0)
    if top == 0.0:  # no edges, or every weight has decayed to zero
        scores = np.zeros(n + 1)
        inc = np.flatnonzero(graph.incident)
        if len(inc):
            scores[inc] = 1.0 / np.sqrt(len(inc))
        return CentralityVector(scores, degenerate=True)
    k = np.diff(ends, prepend=0)
    starts = ends - k
    clause_of = np.repeat(np.arange(len(k)), k)
    w = (factors / top / (k - 1))[clause_of]
    x = np.full(n + 1, 1.0 / np.sqrt(n))
    x[0] = 0.0
    for _ in range(iterations):
        xf = x[flat]
        z = np.add.reduceat(xf, starts)[clause_of]
        z -= xf
        z *= w
        y = np.bincount(flat, weights=z, minlength=n + 1)
        x = y / np.sqrt(y.dot(y))
    return CentralityVector(x)


def set_partitions(items):
    """All partitions of a small collection (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def numpy_modularity(vig, community_of: np.ndarray) -> float:
    """Weighted Newman modularity accumulated in numpy arrays, one scalar at a time.

    The reference for ``community.modularity``, which walks the same terms in
    the same order on Python lists and must return the same float.
    """
    n = vig.num_vars
    adj = vig.adj
    ncomm = int(community_of[1:].max()) + 1 if n else 0
    tot = np.zeros(ncomm)
    inw = np.zeros(ncomm)
    two_m = 0.0
    for v in range(1, n + 1):
        c = community_of[v]
        d = adj[v]
        if not d:
            continue
        kv = sum(d.values())
        two_m += kv
        tot[c] += kv
        for u, w in d.items():
            if community_of[u] == c:
                inw[c] += w
    if two_m == 0.0:
        return 0.0
    return float((inw / two_m - (tot / two_m) ** 2).sum())


def best_partition_modularity(vig) -> float:
    """Exhaustive maximum modularity over every partition (graphs <= ~8 vertices)."""
    from satscope.community import modularity

    n = vig.num_vars
    best = -1.0
    community_of = np.zeros(n + 1, dtype=int)
    for part in set_partitions(range(1, n + 1)):
        for cid, group in enumerate(part):
            for v in group:
                community_of[v] = cid
        q = modularity(vig, community_of)
        if q > best:
            best = q
    return best


def label_agreement(found, planted) -> float:
    """Best-matching label agreement between two assignments (Hungarian on overlaps)."""
    from scipy.optimize import linear_sum_assignment

    n = found.num_vars
    overlap = np.zeros((found.num_communities, planted.num_communities), dtype=int)
    for v in range(1, n + 1):
        overlap[found.community_of[v], planted.community_of[v]] += 1
    rows, cols = linear_sum_assignment(-overlap)
    return overlap[rows, cols].sum() / n


def random_formula(rng: random.Random, max_vars: int = 12, max_clauses: int = 30) -> Formula:
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(4, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return Formula(n, clauses)


def random_weighted_edges(n: int, rng: random.Random, p: float = 0.3, connected: bool = True):
    """Synthetic simple weighted graph as (u, v, w) edges with u < v.

    A random spanning path (when ``connected``) plus each other pair with
    probability ``p``; weights are uniform in [0.1, 2.0].
    """
    edges = {}
    if connected:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            edges[min(a, b), max(a, b)] = rng.uniform(0.1, 2.0)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p and (u, v) not in edges:
                edges[u, v] = rng.uniform(0.1, 2.0)
    return [(u, v, w) for (u, v), w in edges.items()]


def edge_list_tvig(num_vars: int, edges, alpha: float = 0.95) -> Tvig:
    """A Tvig whose store holds one 2-variable row per (u, v, w) edge.

    Each row gets factor w; a 2-clause's clique weight is (1/(2-1)) * factor,
    exactly w, so the graph's adjacency is the edge list itself.
    """
    g = Tvig(num_vars, alpha)
    for u, v, w in edges:
        g._vars.extend((min(u, v), max(u, v)))
        g._ends.append(len(g._vars))
        g._factors.append(w)
    return g


class DictCliqueGraph:
    """Reference clause graph: each clause updates a dict-of-dicts as it arrives.

    Every clause of length k >= 2 adds (1/(k-1)) / scale to each ordered pair
    of its variables and 1 / scale to each variable's degree; ``advance``
    decays the global scale and a rescale folds it into every stored entry.
    """

    def __init__(self, num_vars: int, alpha: float):
        self.alpha = alpha
        self.adj = [{} for _ in range(num_vars + 1)]
        self.degree = np.zeros(num_vars + 1)
        self.global_scale = 1.0
        self.rescales = 0

    def add_clause(self, vs: tuple[int, ...]) -> None:
        k = len(vs)
        if k < 2:
            return
        inv = 1.0 / self.global_scale
        w = (1.0 / (k - 1)) * inv
        for v in vs:
            a = self.adj[v]
            for u in vs:
                if u != v:
                    a[u] = a.get(u, 0.0) + w
            self.degree[v] += inv

    def advance(self) -> None:
        self.global_scale *= self.alpha
        if self.global_scale < SCALE_FLOOR:
            s = self.global_scale
            for d in self.adj:
                for u in d:
                    d[u] *= s
            self.degree *= s
            self.global_scale = 1.0
            self.rescales += 1


def dfs_components(adj, n: int) -> list[list[int]]:
    """Connected components of the vertices with edges, by depth-first search."""
    seen = [False] * (n + 1)
    components = []
    for start in range(1, n + 1):
        if seen[start] or not adj[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(members)
    return components


def dfs_component_mass(adj, n: int, x) -> list[float]:
    """Per-component sum of x^2 (exactly rounded) over an adjacency dict list, largest first."""
    masses = [math.fsum(x[u - 1] ** 2 for u in c) for c in dfs_components(adj, n)]
    masses.sort(reverse=True)
    return masses


class DecisionLogHook(InstrumentationHooks):
    """Records every decision variable, in order."""

    def __init__(self):
        self.log: list[int] = []

    def on_decision(self, solver, var):
        self.log.append(var)
