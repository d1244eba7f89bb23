"""Degree and eigenvector centrality over the clause graphs.

On the static graph (the TVIG at alpha = 1) these are plain degree/eigenvector
centrality; computed over the temporal graph at time t they become the
temporal variants (TDC and TEC). Eigenvector centrality is 100 steps of power
iteration from the uniform positive vector with Euclidean normalization each
step, which converges to the principal eigenvector of the weighted adjacency
(of the dominant component, if the graph is disconnected).
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
    diagnostics: dict | None = None


def degree_centrality(graph) -> CentralityVector:
    """Sum of effective incident edge weights per variable."""
    kind = "tdc" if graph.temporal else "dc"
    return CentralityVector(graph.effective_degree(), kind, sample_time=graph.time)


def _dense_adjacency(graph) -> np.ndarray:
    """Dense effective adjacency: stored weights times the global scale."""
    n = graph.num_vars
    a = np.zeros((n, n))
    for u in range(1, n + 1):
        row = a[u - 1]
        for v, w in graph.adj[u].items():
            row[v - 1] = w
    a *= graph.global_scale
    return a


def _component_mass(adj: list, n: int, x: np.ndarray) -> list[float]:
    """Squared-norm mass of the iterate per connected component, largest first."""
    seen = [False] * (n + 1)
    masses = []
    for start in range(1, n + 1):
        if seen[start] or not adj[start]:
            continue
        stack = [start]
        seen[start] = True
        mass = 0.0
        while stack:
            u = stack.pop()
            mass += float(x[u - 1] ** 2)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        masses.append(mass)
    masses.sort(reverse=True)
    return masses


def eigenvector_centrality(graph, iterations: int = 100) -> CentralityVector:
    """Power iteration on the weighted adjacency from the uniform start vector.

    An edgeless graph has no meaningful eigenvector; in that case the result
    is flagged degenerate and holds a uniform unit vector over the variables
    that appear in at least one clause, zeros elsewhere.
    """
    n = graph.num_vars
    kind = "tec" if graph.temporal else "ec"
    t = graph.time
    adj = graph.adj
    scores = np.zeros(n + 1)
    if n == 0:
        return CentralityVector(scores, kind, sample_time=t, degenerate=True)
    if not any(adj[v] for v in range(1, n + 1)):
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
    diag = {"component_mass": _component_mass(adj, n, x)}
    return CentralityVector(scores, kind, sample_time=t, diagnostics=diag)
