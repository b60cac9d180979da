"""Repeated rows of a degree table are parsed and checked once, and shared.

``parse_pid_table`` parses a repeated matrix line once, and ``from_pid_table``
lets a row of plain floats that equals a checked row, and equals its column
of plain floats past the diagonal, share that row's distance tuple.  These
tests compare the bridge with ``reference_from_pid_table`` on grouped tables
whose mirrored entries are swapped for equal non-floats, pin each condition
of the sharing with a case that a path without it gets wrong, and pin the
sharing itself.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from indist.cli import ParseError, parse_pid_table
from indist.qmetric import from_pid_table
from indist.quasiset import AxiomReport
from test_qmetric_oracle import _compare_bridges

NAN = math.nan  # one shared object: tuple equality finds it equal to itself

# The substitutes for a float entry v. "int", "decimal", "fraction" and "negzero" give
# a value == v, and tuple equality finds the one NaN object equal to itself, so rows
# holding them still equal the rows of their group; the others give unequal values.
SUBSTITUTES = {
    "int": lambda v: int(v) if v.is_integer() else v,
    "decimal": Decimal,
    "fraction": Fraction,
    "string": repr,
    "negzero": lambda v: -0.0 if v == 0.0 else v,
    "ulp": lambda v: math.nextafter(v, math.inf),
    "nan": lambda v: NAN,
    "quarter": lambda v: v + 0.25 if v <= 0.75 else v - 0.25,  # asymmetric past tol 0.1
}

TOLERANCES = [0.0, 1e-12, 0.1, math.inf, -1.0, math.nan]


@st.composite
def repeated_row_tables(draw):
    """Tables of up to 4 groups whose rows repeat, with a few mirrored entries swapped.

    A swap replaces (i, j), (j, i), both, or column j in every row of i's group, so
    rows stay equal to their group's rows while their types or their columns differ.
    """
    k = draw(st.integers(1, 4))
    group_pid = [[1.0] * k for _ in range(k)]
    for g in range(k):
        for h in range(g + 1, k):
            group_pid[g][h] = group_pid[h][g] = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    n = draw(st.integers(2, 8))
    group = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    pid = [[group_pid[group[i]][group[j]] for j in range(n)] for i in range(n)]
    swaps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from(sorted(SUBSTITUTES)),
                      st.sampled_from(["upper", "lower", "both", "column"]))
    for i, j, kind, where in draw(st.lists(swaps, max_size=3)):
        sub = SUBSTITUTES[kind]
        cells = {"upper": [(i, j)], "lower": [(j, i)], "both": [(i, j), (j, i)],
                 "column": [(r, j) for r in range(n) if group[r] == group[i]]}[where]
        for r, c in cells:
            if isinstance(pid[r][c], float) and math.isfinite(pid[r][c]):
                pid[r][c] = sub(pid[r][c])
    names = [f"s{i}" for i in range(n)]
    return names, pid, draw(st.sampled_from(TOLERANCES))


@settings(max_examples=400, deadline=None)
@given(case=repeated_row_tables())
def test_repeated_rows_match_reference(case):
    _compare_bridges(*case)


@pytest.mark.parametrize("pid, error", [
    # Row 1 equals row 0 and equals its column past the diagonal, but that column
    # holds a Decimal: row 1's symmetry check subtracts it from a float.
    ([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, Decimal("0.5"), 1.0]], TypeError),
    # Row 1 equals row 0, but not its column past the diagonal.
    ([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.75, 1.0]], "asymmetry at (1, 2)"),
])
def test_a_repeated_row_is_checked_when_its_column_differs(pid, error):
    got = _compare_bridges(["a", "b", "c"], pid, 1e-12)
    assert got[0] == "raised" and (got[1] is error or got[2] == error)


@pytest.mark.parametrize("entry, kind", [(bytearray(b"0.5"), "ok"), ([0.5], "raised")])
def test_an_unhashable_entry_is_read_as_the_reference_reads_it(entry, kind):
    # float() reads a bytearray and refuses a list; neither may be hashed as a row key.
    assert _compare_bridges(["a", "b"], [[1.0, entry], [0.5, 1.0]], 1e-12)[0] == kind


def test_a_shared_row_adds_its_own_zero_distance_neighbours():
    # Row "a" equals row "z" and shares its distances. Its zero-distance neighbour "c"
    # must still be its own: the chain of the breach (a, d) is a - c - d, not a - z - c - d.
    pid = [[1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0],
           [0.5, 0.5, 1.0, 1.0]]
    got = _compare_bridges(["z", "a", "c", "d"], pid, 0.0)
    assert got[1][0] == AxiomReport("zero-transitivity", False, ("a", "c", "d"))


def test_grouped_table_holds_one_tuple_per_distinct_row():
    # 200 sources in 12 groups at distinct points of a line, as in the benchmark.
    x = ([k / 256 for k in range(0, 240, 20)] * 17)[:200]
    lines = ["sources: " + " ".join(f"s{i:03d}" for i in range(len(x))), "pid:"]
    lines += [" ".join(repr(1.0 - abs(a - b)) for b in x) for a in x]
    space, reports = from_pid_table(*parse_pid_table("\n".join(lines) + "\n"))
    assert all(r.holds for r in reports)
    rows = space.base.rows
    assert len(rows) == 200 and len(set(map(id, rows))) == 12
    assert len(set(rows)) == 12


class TestParseRepeatedLines:
    def test_repeated_lines_give_equal_independent_lists(self):
        sources, rows = parse_pid_table(
            "sources: a b c\npid:\n  1.0 1.0 0.5\n  1.0 1.0 0.5\n  0.5 0.5 1.0\n")
        assert rows == [[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]]
        assert all(type(row) is list for row in rows)
        rows[0][2] = 0.25
        assert rows[1] == [1.0, 1.0, 0.5]
        rows[1].append(2.0)
        assert rows[0] == [1.0, 1.0, 0.25]

    def test_a_repeated_bad_line_is_reported_at_its_first_line(self):
        with pytest.raises(ParseError, match="bad matrix row '1.0 x'") as info:
            parse_pid_table("sources: a b\npid:\n  1.0 0.5\n  1.0 x\n  1.0 x\n")
        assert info.value.line == 4

    def test_a_short_repeated_line_is_reported_at_its_own_line(self):
        with pytest.raises(ParseError, match="matrix must be 2x2") as info:
            parse_pid_table("sources: a b\npid:\n  1.0 0.5 # a\n  0.5\n  0.5\n")
        assert info.value.line == 4

    def test_an_extra_row_repeating_a_good_line_is_reported_at_its_own_line(self):
        with pytest.raises(ParseError, match="matrix must be 2x2") as info:
            parse_pid_table("sources: a b\npid:\n  1.0 0.5\n  0.5 1.0\n  1.0 0.5\n")
        assert info.value.line == 5
