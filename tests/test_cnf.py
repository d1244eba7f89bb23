import logging

import pytest
from hypothesis import given, strategies as st

from satscope.cnf import (
    Clause,
    DimacsError,
    Formula,
    normalize_lits,
    parse_dimacs,
    parse_dimacs_file,
    write_dimacs,
)


def test_parse_basic():
    f = parse_dimacs("p cnf 2 1\n1 -2 0")
    assert f.num_vars == 2
    assert f.clauses == [Clause((1, -2))]


def test_parse_drops_tautology():
    f = parse_dimacs("p cnf 1 1\n1 -1 0")
    assert f.num_vars == 1
    assert f.clauses == []


def test_parse_dedups_literals():
    f = parse_dimacs("p cnf 2 1\n1 1 -2 0")
    assert f.clauses == [Clause((1, -2))]


def test_parse_comments_and_multiline_clauses():
    text = "c a comment\np cnf 3 2\n1 2\n3 0 -1\n-2 0\n"
    f = parse_dimacs(text)
    assert [c.lits for c in f.clauses] == [(1, 2, 3), (-1, -2)]


def test_parse_accepts_bytes():
    f = parse_dimacs(b"p cnf 1 1\n1 0\n")
    assert f.clauses == [Clause((1,))]


def test_parse_file_skips_non_ascii_comment_bytes(tmp_path):
    path = tmp_path / "latin1.cnf"
    path.write_bytes(b"c caf\xe9\np cnf 2 1\n1 2 0\n")
    assert parse_dimacs_file(path).clauses == [Clause((1, 2))]


def test_parse_file_rejects_non_ascii_clause_bytes_in_one_line(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_bytes(b"p cnf 2 1\n1 \xe9 0\n")
    with pytest.raises(DimacsError, match=r"bad\.cnf: line 2: non-integer token") as exc:
        parse_dimacs_file(path)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("text", ["p cnf 10 1\n1_0 +2 0\n", "p cnf 10 1\n+2 0\n",
                                  "p cnf 10 1\n1 \u0663 0\n"])
def test_parse_rejects_what_only_python_int_reads(text):
    # int() takes "1_0" as 10, "+2" as 2 and the Arabic-Indic digit three as 3.
    with pytest.raises(DimacsError, match=r"^line 2: non-integer token '(1_0|\+2|\u0663)'$"):
        parse_dimacs(text)


@pytest.mark.parametrize("header", ["p cnf 1_0 1", "p cnf 10 +1", "p cnf \u0663 1"])
def test_parse_rejects_non_dimacs_header_integers(header):
    with pytest.raises(DimacsError, match=r"^line 1: non-integer header field$"):
        parse_dimacs(header + "\n1 0\n")


def test_parse_records_empty_clause():
    f = parse_dimacs("p cnf 2 2\n0\n1 2 0\n")
    assert f.clauses[0] == Clause(())


def test_parse_satlib_percent_trailer(caplog):
    # SATLIB uf*/uuf* files end with a "%" line and a lone "0".
    text = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"
    with caplog.at_level(logging.WARNING):
        f = parse_dimacs(text)
    assert [c.lits for c in f.clauses] == [(1, -2, 3), (-1, 2)]
    assert not caplog.records


def test_parse_count_mismatch_warns(caplog):
    with caplog.at_level(logging.WARNING):
        f = parse_dimacs("p cnf 2 5\n1 0\n")
    assert len(f.clauses) == 1
    assert any("declares" in r.message for r in caplog.records)


@pytest.mark.parametrize(
    "text",
    [
        "1 2 0\n",  # missing header
        "p cnf 2 1\n1 3 0\n",  # literal out of range
        "p cnf 2 1\n1 x 0\n",  # non-integer token
        "p cnf 2 1\n1 2\n",  # unterminated clause
        "p dnf 2 1\n1 0\n",  # wrong format tag
        "p cnf 2 1\np cnf 2 1\n1 0\n",  # duplicate header
    ],
)
def test_parse_errors(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


def test_write_basic():
    f = Formula(2, [Clause((1, -2))])
    assert write_dimacs(f) == "p cnf 2 1\n1 -2 0\n"


def test_write_empty():
    assert write_dimacs(Formula(0, [])) == "p cnf 0 0\n"


def test_normalize_lits():
    assert normalize_lits([1, 1, -2]) == (1, -2)
    assert normalize_lits([1, -1]) is None
    assert normalize_lits([]) == ()


@st.composite
def formulas(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = draw(st.integers(min_value=0, max_value=15))
    clauses = []
    for _ in range(m):
        k = draw(st.integers(min_value=1, max_value=min(4, n)))
        vs = draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        clauses.append(Clause(tuple(v if s else -v for v, s in zip(vs, signs))))
    return Formula(n, clauses)


@given(formulas())
def test_roundtrip(f):
    assert parse_dimacs(write_dimacs(f)) == f


@given(formulas())
def test_parsed_clauses_have_distinct_variables(f):
    g = parse_dimacs(write_dimacs(f))
    for c in g.clauses:
        vs = [abs(l) for l in c.lits]
        assert len(set(vs)) == len(vs)
