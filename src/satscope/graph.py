"""The clause-clique variable graph: the TVIG, and at alpha = 1 the static VIG.

Every clause of length k contributes a k-clique over its variables; each of
the clique's edges carries weight 1/(k-1), and parallel edges are merged by
summing. Unit clauses contribute no edges (a 1-clique has none). The TVIG
multiplies each clause's contribution by alpha^age where age is the number of
conflicts since the clause was learnt; the decay is applied lazily through a
single global scale factor so advancing time is O(1). With alpha = 1 every
weight keeps its full value, so the TVIG of a formula's clauses at time 0 is
exactly the static variable incidence graph (VIG); ``build_vig`` builds it.

The graph is stored as its clauses, not as an adjacency structure. A clause
arrives as its sorted, distinct variables. Each clause of length k >= 2
appends its variables to one flat array, its end offset to a second and its
unscaled factor 1/global_scale to a third, so adding a clause is O(k)
appends; the factor alone dates the clause, as the global scale has decayed
once per ``advance`` since. A unit clause only marks its variable incident.
Everything else is derived from the store:

* the effective degree is one ``bincount`` of the factors over the flat array
  (each clause adds one effective unit to each of its variables, as it bumps
  activity scores, rather than re-rounding the 1/(k-1) split);
* ``adj`` is a merged dict-of-dicts built from the store in one loop on
  first read and kept until the store grows or rescales (community detection
  and the static graph's edges read it; the temporal centralities do not);
* ``clause_store`` hands out the store itself, which is the clause-variable
  incidence: eigenvector centrality multiplies by the adjacency through it in
  O(clause literals) per step, with no n x n matrix to build or keep.

The ``adj`` loop is the update an incremental dict-of-dicts graph makes per
clause, replayed over the store in arrival order: each edge's terms are
summed from 0.0 in clause order and a neighbour enters its row at its first
clause, so ``adj`` has that graph's neighbour order and floats. The degree's
``bincount`` also sums in clause order. Both match the incremental graph bit
for bit until the first rescale folds the scale into the stored factors.

The per-clause loops run on Python containers: ``adj`` reads the flat store
through ``tolist()``, and ``add_clause`` and ``add_formula`` share one loop
that appends a sequence of clauses' variables to the arrays directly.
Indexing a numpy array one scalar at a time costs several times a list
index, and a method call per clause costs more than the append it wraps;
numpy is kept for whole-array work such as the degree ``bincount`` and the
incidence mask.
"""

from __future__ import annotations

from array import array

import numpy as np

from .cnf import Formula

SCALE_FLOOR = 1e-100


class Tvig:
    """Temporal clause graph with exponentially decayed edge weights.

    Stored weights are unscaled; the effective weight of an edge is
    ``unscaled * global_scale``. ``advance`` multiplies the scale by alpha
    (one decay step for every clause at once) and folds the scale back into
    the stored clause factors when it drops below 1e-100.

    At alpha = 1 nothing decays and the graph is the static VIG.
    """

    def __init__(self, num_vars: int, alpha: float = 0.95):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]; 1.0 disables decay (the static VIG)")
        self.num_vars = num_vars
        self.alpha = alpha
        # Numpy views of these arrays are taken per call and never kept: a live
        # view would stop the arrays from growing.
        self._vars = array("q")
        self._ends = array("q")
        self._factors = array("d")
        self._units = np.zeros(num_vars + 1, dtype=bool)
        self._adj: list | None = None
        self._adj_key = None
        self.global_scale = 1.0
        self.rescales = 0

    def add_clause(self, variables: tuple[int, ...]) -> None:
        """Add a clause, given as its sorted, distinct variables, at the current time."""
        self._add_clauses((variables,))

    def add_formula(self, formula: Formula) -> None:
        """Add every clause of ``formula`` at the current time, in order."""
        self._add_clauses([c.variables() for c in formula.clauses])

    def _add_clauses(self, clauses) -> None:
        """Store each clause, given as its sorted, distinct variables, at the current time."""
        flat, ends, factors, units = self._vars, self._ends, self._factors, self._units
        factor = 1.0 / self.global_scale
        for vs in clauses:
            if len(vs) < 2:
                for v in vs:
                    units[v] = True
                continue
            flat.extend(vs)
            ends.append(len(flat))
            factors.append(factor)

    def advance(self) -> None:
        """Move time forward one conflict: every effective weight decays by alpha."""
        self.global_scale *= self.alpha
        if self.global_scale < SCALE_FLOOR:
            self._rescale()

    def _rescale(self) -> None:
        factors = np.frombuffer(self._factors)
        factors *= self.global_scale
        self.global_scale = 1.0
        self.rescales += 1

    def clause_store(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fresh numpy views of the flat variables, end offsets and unscaled factors.

        Clause i holds ``vars[ends[i-1]:ends[i]]`` (sorted, distinct, at least
        two) with factor ``factors[i]``; unit clauses are not stored. The views
        are for reading only and must not be kept: a live view stops the store
        from growing.
        """
        return (np.frombuffer(self._vars, dtype=np.int64),
                np.frombuffer(self._ends, dtype=np.int64),
                np.frombuffer(self._factors))

    @property
    def incident(self) -> np.ndarray:
        """Mask of the variables that occur in at least one clause."""
        inc = self._units.copy()
        inc[np.frombuffer(self._vars, dtype=np.int64)] = True
        return inc

    def effective_degree(self) -> np.ndarray:
        """Temporal degree: each clause adds its effective factor to each of its variables."""
        flat, ends, factors = self.clause_store()
        lengths = np.diff(ends, prepend=0)
        deg = np.bincount(flat, weights=np.repeat(factors, lengths),
                          minlength=self.num_vars + 1)
        return deg * self.global_scale

    @property
    def adj(self) -> list:
        """Unscaled merged weights, ``adj[v][u]``; neighbours in first-insertion order.

        Built on first read by one pass over the clause store, in clause
        order: a clause of length k with factor f adds (1/(k-1)) * f to
        ``adj[v][u]`` for every ordered pair of its distinct variables. A
        read-only view: it is rebuilt after the store grows or rescales.
        """
        key = (len(self._factors), self.rescales)
        if self._adj_key != key:
            adj = [{} for _ in range(self.num_vars + 1)]
            flat = self._vars.tolist()
            start = 0
            for end, f in zip(self._ends, self._factors):
                vs = flat[start:end]
                w = (1.0 / (end - start - 1)) * f
                for v in vs:
                    a = adj[v]
                    for u in vs:
                        if u != v:
                            a[u] = a.get(u, 0.0) + w
                start = end
            self._adj = adj
            self._adj_key = key
        return self._adj

    def edges(self):
        s = self.global_scale
        for u, d in enumerate(self.adj):
            for v, w in d.items():
                if u < v:
                    yield u, v, w * s


def build_vig(formula: Formula) -> Tvig:
    """The static VIG of ``formula``: its TVIG at alpha = 1 and time 0."""
    g = Tvig(formula.num_vars, alpha=1.0)
    g.add_formula(formula)
    return g
