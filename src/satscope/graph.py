"""The clause-clique variable graph: the TVIG, and at alpha = 1 the static VIG.

Every clause of length k contributes a k-clique over its variables; each of
the clique's edges carries weight 1/(k-1), and parallel edges are merged by
summing. Unit clauses contribute no edges (a 1-clique has none). The TVIG
multiplies each clause's contribution by alpha^age where age is the number of
conflicts since the clause was learnt; the decay is applied lazily through a
single global scale factor so advancing time is O(1). With alpha = 1 every
weight keeps its full value, so the TVIG of a formula's clauses at time 0 is
exactly the static variable incidence graph (VIG); ``build_vig`` builds it.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .cnf import Clause, Formula

SCALE_FLOOR = 1e-100


class Tvig:
    """Temporal clause graph with exponentially decayed edge weights.

    Stored weights are unscaled; the effective weight of an edge is
    ``unscaled * global_scale``. ``advance`` multiplies the scale by alpha
    (one decay step for every clause at once) and folds the scale back into
    the stored weights when it drops below 1e-100. A per-variable degree
    accumulator is maintained alongside the edges: each clause adds exactly
    one effective unit of degree to each of its variables, which mirrors how
    the clause bumps activity scores and avoids re-rounding the 1/(k-1) split.

    At alpha = 1 nothing decays and the graph is the static VIG; ``temporal``
    is False then, so centralities over it are tagged "dc"/"ec".
    """

    def __init__(self, num_vars: int, alpha: float = 0.95):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]; 1.0 disables decay (the static VIG)")
        self.num_vars = num_vars
        self.alpha = alpha
        self.temporal = alpha < 1.0
        self.adj: list = [{} for _ in range(num_vars + 1)]
        self.degree = np.zeros(num_vars + 1)
        self.incident = np.zeros(num_vars + 1, dtype=bool)
        self.global_scale = 1.0
        self.time = 0
        self.rescales = 0

    def add_clause(self, clause: Clause) -> None:
        """Add a clause's clique at the current time (its timestamp must match)."""
        if clause.timestamp != self.time:
            raise ValueError(
                f"clause timestamp {clause.timestamp} != graph time {self.time}"
            )
        vs = clause.variables()
        k = len(vs)
        inc = self.incident
        if k < 2:
            for v in vs:
                inc[v] = True
            return
        inv = 1.0 / self.global_scale
        w = (1.0 / (k - 1)) * inv
        adj = self.adj
        deg = self.degree
        for v in vs:
            inc[v] = True
            a = adj[v]
            for u in vs:
                if u != v:
                    a[u] = a.get(u, 0.0) + w
            deg[v] += inv

    def add_formula(self, formula: Formula) -> None:
        for clause in formula.clauses:
            self.add_clause(clause)

    def advance(self) -> None:
        """Move time forward one conflict: every effective weight decays by alpha."""
        self.time += 1
        self.global_scale *= self.alpha
        if self.global_scale < SCALE_FLOOR:
            self._rescale()

    def _rescale(self) -> None:
        s = self.global_scale
        for d in self.adj:
            for u in d:
                d[u] *= s
        self.degree *= s
        self.global_scale = 1.0
        self.rescales += 1

    def effective_weight(self, u: int, v: int) -> float:
        return self.adj[u].get(v, 0.0) * self.global_scale

    def effective_degree(self) -> np.ndarray:
        return self.degree * self.global_scale

    def edges(self):
        s = self.global_scale
        for u in range(1, self.num_vars + 1):
            for v, w in self.adj[u].items():
                if u < v:
                    yield u, v, w * s

    def write_edge_csv(self, path: str | Path) -> None:
        """Dump the effective edge list as var1,var2,weight rows (debug aid)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["var1", "var2", "weight"])
            for u, v, w in self.edges():
                writer.writerow([u, v, repr(w)])


def build_vig(formula: Formula) -> Tvig:
    """The static VIG of ``formula``: its TVIG at alpha = 1 and time 0."""
    g = Tvig(formula.num_vars, alpha=1.0)
    g.add_formula(formula)
    return g
