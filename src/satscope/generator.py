"""Instance generators with known ground truth: uniform random k-SAT and
community-planted k-SAT.

Planted instances split the variables into equal blocks; each clause draws all
its variables from one random block with the configured probability, otherwise
uniformly from the whole variable pool. The planted block structure is returned
as a community assignment for use as ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .cnf import Clause, Formula
from .community import CommunityAssignment, modularity
from .graph import build_vig


@dataclass(frozen=True)
class PlantedConfig:
    num_vars: int
    num_communities: int
    num_clauses: int
    clause_len: int = 3
    intra_probability: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_communities < 1 or self.num_communities > self.num_vars:
            raise ValueError("need 1 <= num_communities <= num_vars")
        if self.num_clauses < 0:
            raise ValueError("the clause count must be >= 0")
        if self.clause_len < 2:
            raise ValueError("clauses must have length >= 2")
        if self.clause_len > self.num_vars:
            raise ValueError("clause length exceeds the variable count")
        if not 0.0 <= self.intra_probability <= 1.0:
            raise ValueError("intra_probability must be in [0, 1]")
        if self.intra_probability > 0 and self.num_vars // self.num_communities < self.clause_len:
            raise ValueError("blocks are smaller than the clause length")


def gen_random_ksat(num_vars: int, num_clauses: int, clause_len: int = 3, seed: int = 0) -> Formula:
    """Uniform random k-SAT: k distinct variables per clause, fair-coin polarities."""
    if num_clauses < 0:
        raise ValueError("the clause count must be >= 0")
    if clause_len < 1:
        raise ValueError("clauses must have length >= 1")
    if clause_len > num_vars:
        raise ValueError("clause length exceeds the variable count")
    rng = random.Random(seed)
    population = range(1, num_vars + 1)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(population, clause_len)
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    return Formula(num_vars, clauses)


def gen_planted_community(cfg: PlantedConfig) -> tuple[Formula, CommunityAssignment]:
    """Planted-community k-SAT plus its ground-truth block assignment."""
    rng = random.Random(cfg.seed)
    n, q, k = cfg.num_vars, cfg.num_communities, cfg.clause_len
    block_size = n // q
    blocks = []
    for b in range(q):
        lo = b * block_size + 1
        hi = n + 1 if b == q - 1 else (b + 1) * block_size + 1
        blocks.append(range(lo, hi))
    clauses = []
    for _ in range(cfg.num_clauses):
        if rng.random() < cfg.intra_probability:
            pool = blocks[rng.randrange(q)]
        else:
            pool = range(1, n + 1)
        vs = rng.sample(pool, k)
        clauses.append(Clause(tuple(v if rng.random() < 0.5 else -v for v in vs)))
    formula = Formula(n, clauses)
    community_of = np.full(n + 1, -1, dtype=int)
    for b, block in enumerate(blocks):
        community_of[block.start:block.stop] = b
    q_mod = modularity(build_vig(formula), community_of)
    planted = CommunityAssignment(community_of, q, q_mod)
    return formula, planted
