"""DIMACS CNF parsing/writing and the clause/formula types shared by the solver and graphs.

Literals are signed DIMACS integers: variable ``v`` appears positively as ``v``
and negatively as ``-v``. Clauses are normalized on construction from text:
duplicate literals are dropped and tautological clauses (a variable in both
polarities) are removed entirely.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

log = logging.getLogger(__name__)


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


# A DIMACS integer. ``int()`` also takes a sign "+", digit-group underscores
# and non-ASCII decimal digits, so a line holding any of them is checked
# token by token against this first.
_DIMACS_INT = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class Clause:
    """A disjunction of signed literals: a clause of an input formula, never a learnt one."""

    lits: tuple[int, ...]

    def variables(self) -> tuple[int, ...]:
        """Distinct variables of the clause, sorted ascending."""
        return tuple(sorted({abs(l) for l in self.lits}))


@dataclass
class Formula:
    """A CNF formula: a variable count and its input clauses."""

    num_vars: int
    clauses: list[Clause] = field(default_factory=list)


def normalize_lits(lits) -> tuple[int, ...] | None:
    """Drop duplicate literals (keeping first-seen order); return None for tautologies."""
    seen: set[int] = set()
    out: list[int] = []
    for l in lits:
        if l in seen:
            continue
        if -l in seen:
            return None
        seen.add(l)
        out.append(l)
    return tuple(out)


def parse_dimacs(source: str | bytes) -> Formula:
    """Parse DIMACS CNF text into a normalized Formula.

    Tolerates a clause count that disagrees with the header (a warning is
    logged, as competition files are occasionally inconsistent). A line
    starting with ``%`` ends the clause data: SATLIB's uf*/uuf* files close
    with a ``%`` line followed by a lone ``0``, and both are ignored. Raises
    DimacsError on a missing/garbled header, non-integer tokens, literals
    above the declared variable count, or an unterminated final clause. A
    literal or header count is an optional ``-`` and ASCII digits: ``+2``,
    ``1_0`` and non-ASCII digits are non-integer.
    """
    if isinstance(source, bytes):
        source = source.decode("ascii", errors="replace")
    num_vars: int | None = None
    declared = 0
    pending: list[int] = []
    clauses: list[Clause] = []
    dropped = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate 'p cnf' header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: bad header {line!r}")
            if not (_DIMACS_INT.fullmatch(parts[2]) and _DIMACS_INT.fullmatch(parts[3])):
                raise DimacsError(f"line {lineno}: non-integer header field")
            num_vars, declared = int(parts[2]), int(parts[3])
            if num_vars < 0 or declared < 0:
                raise DimacsError(f"line {lineno}: negative header field")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        if "_" in line or "+" in line or not line.isascii():
            for tok in line.split():
                if not _DIMACS_INT.fullmatch(tok):
                    raise DimacsError(f"line {lineno}: non-integer token {tok!r}")
        for tok in line.split():
            try:
                l = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer token {tok!r}") from exc
            if l == 0:
                norm = normalize_lits(pending)
                if norm is None:
                    dropped += 1
                else:
                    clauses.append(Clause(norm))
                pending = []
            else:
                if abs(l) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: literal {l} exceeds declared {num_vars} variables"
                    )
                pending.append(l)
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated final clause (missing trailing 0)")
    found = len(clauses) + dropped
    if declared != found:
        log.warning("header declares %d clauses but input has %d", declared, found)
    if dropped:
        log.debug("dropped %d tautological clause(s)", dropped)
    return Formula(num_vars, clauses)


def parse_dimacs_file(path: str | Path) -> Formula:
    """Parse a DIMACS file's bytes; a DimacsError names the file.

    A non-ASCII byte is harmless in a comment; in clause data it fails as a
    non-integer token.
    """
    data = Path(path).read_bytes()
    try:
        return parse_dimacs(data)
    except DimacsError as exc:
        raise DimacsError(f"{path}: {exc}") from exc


def write_dimacs(formula: Formula) -> str:
    """Render a Formula as DIMACS CNF text; round-trips through parse_dimacs."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for c in formula.clauses:
        lines.append(" ".join(str(l) for l in c.lits) + " 0")
    return "\n".join(lines) + "\n"


def write_dimacs_file(formula: Formula, path: str | Path) -> None:
    Path(path).write_text(write_dimacs(formula))
