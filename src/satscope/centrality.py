"""Degree and eigenvector centrality over the clause graphs.

On the static graph (the TVIG at alpha = 1) these are plain degree/eigenvector
centrality; computed over the temporal graph at time t they become the
temporal variants (TDC and TEC). Eigenvector centrality is ``ITERATIONS``
(100) steps of power iteration from the uniform positive vector with
Euclidean normalization each step, which converges to the principal
eigenvector of the weighted adjacency.
On a disconnected graph that is the dominant component's eigenvector: the
other components' share of the vector's mass decays towards zero.

Power iteration finds the dominant eigenvalue in absolute value. A bipartite
component (a star, an even cycle, any tree; only binary clauses can build one,
as a longer clause is an odd clique) has -lambda beside lambda, so on it the
iterates alternate between two vectors and do not converge: the result after
a fixed number of steps depends on its parity.

The loop stops early, with the same bits, at the first exact repeat. Each
step is a deterministic function of the previous iterate and the fixed graph
arrays, so once the iterate of step s equals, byte for byte, that of an
earlier step f, the iterates cycle with period p = s - f, and step
``ITERATIONS`` would produce the iterate of step f + (ITERATIONS - f) mod p,
which is returned. Bytes are compared, not floats: ``-0.0 == 0.0`` and
``NaN != NaN`` as floats, and either would break the argument. Rounded
iterates do become periodic: the 519 calls of five default desk studies
(seeds 1-5) ran 49 % of their steps, and the star K1,3 stops after 4.
Keeping each iterate's bytes until the repeat costs 8 (n + 1) bytes per step
run, at most ``ITERATIONS`` of them: 4 MB at n = 5000.

Both read the graph's clause store, never its dict view: degree is the
store's ``bincount`` of clause factors, and each power-iteration step
multiplies by the adjacency through the clause-variable incidence B,

    A x = B^T (w * B x) - d * x,   w_c = factor_c * global_scale / (k_c - 1),

where d_v is the sum of w_c over the clauses c that hold v (the diagonal that
B^T W B adds and a graph without self-loops does not have). The step is
computed per clause membership as w_c ((B x)_c - x_v), so the diagonal is
never added and taken away again, and with every w_c divided by a common
factor, which changes no normalised iterate but keeps the norm from
underflowing on a long-decayed graph. A step costs O(clause literals) time
and memory, and a call keeps no state beyond its own kept iterates, where a
dense n x n adjacency would take 8 n^2 bytes (200 MB at n = 5000) and O(n^2)
time per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ITERATIONS = 100  # power-iteration steps per eigenvector centrality


@dataclass
class CentralityVector:
    """Per-variable scores (index 0 unused); ``degenerate`` marks a fallback vector."""

    scores: np.ndarray
    degenerate: bool = False


def degree_centrality(graph) -> CentralityVector:
    """Sum of effective incident edge weights per variable."""
    return CentralityVector(graph.effective_degree())


def eigenvector_centrality(graph) -> CentralityVector:
    """Power iteration on the weighted adjacency from the uniform start vector.

    On a bipartite component the iterates alternate between two vectors and
    do not converge (see the module docstring). The loop stops at the first
    iterate that repeats an earlier one byte for byte and returns the iterate
    that step ``ITERATIONS`` would produce, the same bits as running every
    step. An edgeless graph has no
    meaningful eigenvector, nor has one whose every weight has decayed to
    zero; in that case the result is flagged degenerate and holds a uniform
    unit vector over the variables that appear in at least one clause, zeros
    elsewhere.
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
    # A factor common to every weight leaves the iterates unchanged, so the
    # weights are scaled to a largest factor of 1 instead of by global_scale:
    # effective weights that all sit below 1e-154 would underflow the norm.
    w = (factors / top / (k - 1))[clause_of]
    # Index 0 is no variable: it stays 0 and adds nothing to the norm.
    x = np.full(n + 1, 1.0 / np.sqrt(n))
    x[0] = 0.0
    # Each iterate's bytes -> its step; the keys are in step order. At the
    # first exact repeat the rest of the loop would cycle through the keys
    # from step `first` on, so step ITERATIONS's iterate is already here.
    seen: dict[bytes, int] = {}
    for step in range(ITERATIONS):
        first = seen.setdefault(x.tobytes(), step)
        if first != step:
            key = list(seen)[first + (ITERATIONS - first) % (step - first)]
            return CentralityVector(np.frombuffer(key).copy())
        xf = x.take(flat)
        z = np.add.reduceat(xf, starts).take(clause_of)
        z -= xf
        z *= w
        y = np.bincount(flat, weights=z, minlength=n + 1)
        x = y / np.sqrt(y.dot(y))  # np.linalg.norm's own formula for 1-D floats
    return CentralityVector(x)
