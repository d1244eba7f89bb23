"""Statistics for the experiments: rank correlation, Gini, focus scores, bridge percentages.

Each is a pure function of the counts, logs or vectors it is given.
Correlations return None (a missing sample) instead of raising when one side
has zero variance, since a run can legitimately produce constant scores, or
when there are fewer than two values, as on a one-variable formula.
"""

from __future__ import annotations

import math

import numpy as np

from .centrality import CentralityVector
from .community import CommunityAssignment

FISHER_CLAMP = 0.999999


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    n = len(x)
    # Tie groups are runs of equal sorted values; group [i, j] gets (i + j + 2) / 2.
    starts = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1])))
    ends = np.append(starts[1:], n) - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 2) / 2.0, ends - starts + 1)
    return ranks


def pearson(x, y) -> float | None:
    """Sample Pearson correlation; None for zero variance on either side or under two values."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two 1-d vectors of equal length")
    if len(x) < 2:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(np.dot(dx, dy) / math.sqrt(sx * sy))
    return min(1.0, max(-1.0, r))


def spearman(a, b) -> float | None:
    """Spearman rank correlation with average-rank tie handling; None if undefined."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("spearman needs two 1-d vectors of equal length")
    return pearson(_average_ranks(a), _average_ranks(b))


def fisher_mean(rhos) -> float:
    """Fisher-transformed mean of correlations: tanh(mean(atanh(rho)))."""
    rhos = list(rhos)
    if not rhos:
        raise ValueError("fisher_mean of an empty list")
    z = np.arctanh(np.clip(np.asarray(rhos, dtype=float), -FISHER_CLAMP, FISHER_CLAMP))
    return float(np.tanh(z.mean()))


def top_k(top_var: int, tgc: CentralityVector, assigned: np.ndarray, k: int) -> int:
    """1 if ``top_var`` ranks within the best k centrality scores among unassigned vars.

    ``assigned`` is a boolean mask over the variables (index 0 counts as
    assigned). Centrality ties are broken by lowest variable index.
    """
    if assigned[top_var]:
        raise ValueError("top_var must be unassigned")
    scores = tgc.scores
    sv = scores[top_var]
    unassigned = ~assigned
    unassigned[0] = False
    idx = np.arange(len(scores))
    better = np.count_nonzero(unassigned & ((scores > sv) | ((scores == sv) & (idx < top_var))))
    return 1 if better + 1 <= k else 0


def gini(values) -> float:
    """Gini coefficient of non-negative values: sum|xi - xj| / (2 n sum x).

    Ranges over [0, (n-1)/n]; an all-zero vector scores 0 by convention.
    """
    x = np.asarray(list(values), dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValueError("gini needs a non-empty 1-d vector")
    if (x < 0).any():
        raise ValueError("gini is defined for non-negative values")
    s = float(x.sum())
    if s == 0.0:
        return 0.0
    xs = np.sort(x)
    n = len(xs)
    i = np.arange(1, n + 1)
    return float((2.0 * np.dot(i, xs) - (n + 1) * s) / (n * s))


def bridge_percentages(*pairs) -> tuple:
    """Percent ``100 * bridge / total`` of each ``(bridge, total)`` count pair, or None on 0."""
    return tuple(100.0 * bridge / total if total else None for bridge, total in pairs)


def spatial_score(decision_community_log, assignment: CommunityAssignment) -> float:
    """Gini of size-normalized per-community pick counts (zero-pick communities included).

    ``decision_community_log`` gives each decision's community, as for
    ``temporal_score``.
    """
    if len(decision_community_log) == 0:
        raise ValueError("spatial score needs at least one decision")
    sizes = assignment.sizes()
    if (sizes == 0).any():
        raise ValueError("assignment has an empty community")
    return gini(np.bincount(decision_community_log, minlength=len(sizes)) / sizes)


def temporal_score(decision_community_log, num_communities: int) -> float:
    """Fraction of decisions whose community was among the last ws decisions' communities.

    The window size ws is 10% of the community count rounded up. A decision
    hits exactly when the previous decision in its community lies at most ws
    decisions back, so the first decision can never hit. A stable sort by
    community puts each decision right after its community's previous one, so
    the gaps are differences of adjacent sorted positions.
    """
    log = np.asarray(decision_community_log)
    if len(log) == 0:
        raise ValueError("temporal score needs at least one decision")
    if num_communities < 1:
        raise ValueError("need at least one community")
    ws = math.ceil(0.1 * num_communities)
    order = np.argsort(log, kind="stable")
    same = log[order[1:]] == log[order[:-1]]
    return int(np.count_nonzero(same & (np.diff(order) <= ws))) / len(log)
