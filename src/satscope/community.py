"""Louvain community detection on the clause graph, modularity, and bridge variables.

Modularity follows the standard weighted Newman form
Q = sum_c [in_c/(2m) - (tot_c/(2m))^2] where in_c counts ordered intra-community
pairs, tot_c the total weighted degree of the community, and 2m the total
ordered-pair weight. Louvain alternates seeded local moving with graph
aggregation until no move improves Q; resolution is fixed at 1.

The per-variable loops here (modularity, bridge variables, the id
renumbering) read ``community_of`` through ``tolist()`` and accumulate into
Python lists: indexing a numpy array one scalar at a time costs several times
a list index. Whole-array work (``sizes``, the final modularity sum) stays in
numpy. A float accumulator in a list adds the same terms in the same order as
one in a numpy array, so modularity is bit for bit the numpy-scalar walk.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cnf import Formula
from .graph import Tvig

GAIN_EPS = 1e-12


class LouvainTimeout(RuntimeError):
    """Community detection exceeded its wall-clock budget; no partial output."""


@dataclass(eq=False)
class CommunityAssignment:
    """Variable -> community map with dense ids from 0 and the partition's modularity.

    Assignments compare and hash by identity, so one can name what an
    instrument watches: a run store keys a focus instrument by its assignment
    object, and a copy with the same contents is another assignment.
    """

    community_of: np.ndarray  # int array of size num_vars + 1; index 0 is -1
    num_communities: int
    modularity: float

    @property
    def num_vars(self) -> int:
        return len(self.community_of) - 1

    def sizes(self) -> np.ndarray:
        return np.bincount(self.community_of[1:], minlength=self.num_communities)


def modularity(vig: Tvig, community_of: np.ndarray) -> float:
    """Weighted Newman modularity of the partition; 0 for an edgeless graph."""
    n = vig.num_vars
    adj = vig.adj
    comm = community_of.tolist()
    ncomm = max(comm[1:]) + 1 if n else 0
    tot = [0.0] * ncomm
    inw = [0.0] * ncomm
    two_m = 0.0
    for v in range(1, n + 1):
        d = adj[v]
        if not d:
            continue
        c = comm[v]
        kv = sum(d.values())
        two_m += kv
        tot[c] += kv
        s = inw[c]
        for u, w in d.items():
            if comm[u] == c:
                s += w
        inw[c] = s
    if two_m == 0.0:
        return 0.0
    tot, inw = np.array(tot), np.array(inw)
    return float((inw / two_m - (tot / two_m) ** 2).sum())


def _one_level(adj, loops, k, two_m, comm, tot, inw, rng, deadline):
    """Local-moving phase; mutates comm/tot/inw in place, returns move count."""
    n = len(adj)
    moves_total = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise LouvainTimeout("local moving phase exceeded the time budget")
        moves = 0
        order = list(range(n))
        rng.shuffle(order)
        for node in order:
            c_old = comm[node]
            ncw: dict[int, float] = {}
            for u, w in adj[node].items():
                cu = comm[u]
                ncw[cu] = ncw.get(cu, 0.0) + w
            kn = k[node]
            tot[c_old] -= kn
            inw[c_old] -= 2.0 * ncw.get(c_old, 0.0) + loops[node]
            best_c = c_old
            best_gain = ncw.get(c_old, 0.0) - tot[c_old] * kn / two_m
            for c in sorted(ncw):
                if c == c_old:
                    continue
                gain = ncw[c] - tot[c] * kn / two_m
                if gain > best_gain + GAIN_EPS:
                    best_gain = gain
                    best_c = c
            comm[node] = best_c
            tot[best_c] += kn
            inw[best_c] += 2.0 * ncw.get(best_c, 0.0) + loops[node]
            if best_c != c_old:
                moves += 1
        moves_total += moves
        if moves == 0:
            return moves_total


def _aggregate(adj, loops, comm):
    """Condense communities into super-nodes, preserving ordered-pair weights."""
    labels = sorted(set(comm))
    remap = {c: i for i, c in enumerate(labels)}
    m = len(labels)
    new_adj: list[dict[int, float]] = [{} for _ in range(m)]
    new_loops = [0.0] * m
    for node, d in enumerate(adj):
        c = remap[comm[node]]
        new_loops[c] += loops[node]
        for u, w in d.items():
            cu = remap[comm[u]]
            if cu == c:
                new_loops[c] += w
            else:
                new_adj[c][cu] = new_adj[c].get(cu, 0.0) + w
    return new_adj, new_loops, remap


def _consecutive_ids(labels) -> tuple[np.ndarray, int]:
    """Community ids 0, 1, 2, ... numbered by each community's smallest variable.

    ``labels[i]`` is the raw community of variable i + 1. Returns the
    ``community_of`` array (index 0 is -1) and the number of communities.
    """
    ids: dict[int, int] = {}
    community_of = [-1] + [ids.setdefault(c, len(ids)) for c in labels]
    return np.array(community_of, dtype=int), len(ids)


def louvain(vig: Tvig, seed: int = 0, time_budget_s: float | None = 60.0) -> CommunityAssignment:
    """Louvain partition of the clause graph; deterministic for a fixed seed.

    Raises LouvainTimeout (rather than returning partial output) if the
    wall-clock budget is exhausted. An edgeless graph yields one singleton
    community per variable with modularity 0.
    """
    n = vig.num_vars
    rng = random.Random(seed)
    deadline = None if time_budget_s is None else time.monotonic() + time_budget_s

    # Level-0 working graph over nodes 0..n-1 (variable v -> node v-1).
    adj = [dict((u - 1, w) for u, w in vig.adj[v].items()) for v in range(1, n + 1)]
    loops = [0.0] * n
    two_m = sum(sum(d.values()) for d in adj)
    node_of_var = list(range(n))

    if two_m > 0.0:
        while True:
            k = [loops[i] + sum(adj[i].values()) for i in range(len(adj))]
            comm = list(range(len(adj)))
            tot = k.copy()
            inw = loops.copy()
            moved = _one_level(adj, loops, k, two_m, comm, tot, inw, rng, deadline)
            if moved == 0:
                break
            adj, loops, remap = _aggregate(adj, loops, comm)
            node_of_var = [remap[comm[node]] for node in node_of_var]
            if len(adj) == 1:
                break

    community_of, count = _consecutive_ids(node_of_var)
    return CommunityAssignment(community_of, count, modularity(vig, community_of))


def assignment_from_mapping(vig: Tvig, mapping: dict[int, int]) -> CommunityAssignment:
    """Build an assignment (consecutive ids, recomputed modularity) from a var->community dict.

    A ValueError names the first variable outside 1..n, or a missing one.
    """
    n = vig.num_vars
    outside = [v for v in mapping if not 1 <= v <= n]
    if outside:
        raise ValueError(f"mapping names variable {outside[0]}, outside 1..{n}")
    missing = [v for v in range(1, n + 1) if v not in mapping]
    if missing:
        raise ValueError(f"mapping misses variables, e.g. {missing[0]}")
    community_of, count = _consecutive_ids([mapping[v] for v in range(1, n + 1)])
    return CommunityAssignment(community_of, count, modularity(vig, community_of))


def bridge_variables(formula: Formula, assignment: CommunityAssignment) -> set[int]:
    """Variables sharing at least one original clause with a different community.

    Reads each clause's literals once: one whose community differs from the
    first literal's makes every variable of the clause a bridge.
    """
    community_of = assignment.community_of.tolist()
    bridges: set[int] = set()
    for clause in formula.clauses:
        lits = clause.lits
        if not lits:
            continue
        c0 = community_of[abs(lits[0])]
        for lit in lits:
            if community_of[abs(lit)] != c0:
                bridges.update(map(abs, lits))
                break
    return bridges


def write_community_file(path: str | Path, assignment: CommunityAssignment) -> None:
    """One line per variable: ``<var_index> <community_id>``."""
    community_of = assignment.community_of.tolist()
    with open(path, "w") as fh:
        for v in range(1, assignment.num_vars + 1):
            fh.write(f"{v} {community_of[v]}\n")


def read_community_file(path: str | Path) -> dict[int, int]:
    """The var->community dict of a ``.comm`` file; a ValueError names a bad or repeated line."""
    mapping: dict[int, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        try:
            var, comm = (int(x) for x in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'var community'") from None
        if var in mapping:
            raise ValueError(f"{path}:{lineno}: variable {var} appears a second time")
        mapping[var] = comm
    return mapping
