"""Degree and eigenvector centrality over the clause graphs.

On the static graph (the TVIG at alpha = 1) these are plain degree/eigenvector
centrality; computed over the temporal graph at time t they become the
temporal variants (TDC and TEC). Eigenvector centrality is 100 steps of power
iteration from the uniform positive vector with Euclidean normalization each
step, which converges to the principal eigenvector of the weighted adjacency.
On a disconnected graph that is the dominant component's eigenvector: the
other components' share of the vector's mass decays towards zero.

Both read the graph's clause store, never its dict view: degree is the
store's ``bincount`` of clause factors, and the power iteration runs on the
dense matrix the graph accumulates from its single clique expansion, times the
global scale. The matvec stays dense. The sparse identity
A x = B^T (w * B x) - d * x over the clause-variable incidence B runs in
O(nnz) per step, but at n = 400 it is about three times slower than the dense
matvec, and it rounds differently, so reports would change; it pays off only
from a few thousand variables on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CentralityVector:
    """Per-variable scores (index 0 unused) tagged with their kind and time."""

    scores: np.ndarray
    kind: str  # "dc" | "ec" | "tdc" | "tec"
    sample_time: int = 0
    degenerate: bool = False


def degree_centrality(graph) -> CentralityVector:
    """Sum of effective incident edge weights per variable."""
    kind = "tdc" if graph.temporal else "dc"
    return CentralityVector(graph.effective_degree(), kind, sample_time=graph.time)


def _dense_adjacency(graph) -> np.ndarray:
    """Dense effective adjacency: the graph's unscaled matrix times the global scale."""
    return graph.dense_weights() * graph.global_scale


def eigenvector_centrality(graph, iterations: int = 100) -> CentralityVector:
    """Power iteration on the weighted adjacency from the uniform start vector.

    An edgeless graph has no meaningful eigenvector; in that case the result
    is flagged degenerate and holds a uniform unit vector over the variables
    that appear in at least one clause, zeros elsewhere.
    """
    n = graph.num_vars
    kind = "tec" if graph.temporal else "ec"
    t = graph.time
    scores = np.zeros(n + 1)
    if n == 0:
        return CentralityVector(scores, kind, sample_time=t, degenerate=True)
    if not graph.has_edges():
        inc = np.flatnonzero(graph.incident)
        if len(inc):
            scores[inc] = 1.0 / np.sqrt(len(inc))
        return CentralityVector(scores, kind, sample_time=t, degenerate=True)
    a = _dense_adjacency(graph)
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iterations):
        y = a @ x
        x = y / np.sqrt(y.dot(y))  # np.linalg.norm's own formula for 1-D floats
    scores[1:] = x
    return CentralityVector(scores, kind, sample_time=t)
