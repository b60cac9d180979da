"""The axiom checks on tables equal, or almost equal, to their transpose.

When every row of the table equals its column, ``verify_qm_axioms`` gives the
columns the row ids and QM6 starts each chain at c = a.  These tests compare it
with the frozen triple loop ``reference_verify_qm_axioms``, on the default path
and with ``indist`` passed as a user relation, on tables that are exactly
symmetric, one ulp off symmetric, or symmetric up to a 0.0 and -0.0 swapped
across the diagonal; whose equal rows are one shared object or equal copies;
and whose NaN entries are one shared object (which tuple equality finds equal
to itself) or distinct objects (which it does not).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from indist.qmetric import QuasiMetricSpace, _RowTable, verify_qm_axioms
from indist.quasiset import MICRO, Atom, AxiomReport, Universe, indist
from test_qmetric_oracle import reference_verify_qm_axioms

TOLERANCES = [0.0, 1e-12, 0.25, -1e-12, -0.5, math.inf, math.nan]
VALUES = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 0.3, 0.1 + 0.2, 5e-324, 1e308,
          math.inf, -math.inf]
KINDS = ["ulp", "zero_swap", "shared_nan", "distinct_nans", "one_nan", "negate"]


def _space(names, species, rows):
    universe = Universe(species=sorted(set(species)),
                        atoms=[Atom(name, MICRO, sp) for name, sp in zip(names, species)])
    carrier = tuple(names)
    return QuasiMetricSpace(carrier, _RowTable(carrier, tuple(rows))), universe


@st.composite
def near_symmetric_spaces(draw):
    """Grouped symmetric tables, some entries then nudged; equal rows shared or copied."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    group = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # groups on a line: every triangle through a middle group is tight
        x = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=k, max_size=k))
        group_d = [[abs(p - q) for q in x] for p in x]
    else:
        group_d = [[0.0] * k for _ in range(k)]
        for g in range(k):
            for h in range(g + 1, k):
                group_d[g][h] = group_d[h][g] = draw(st.sampled_from(VALUES) | st.floats(0, 2))
    d = [[group_d[group[i]][group[j]] for j in range(n)] for i in range(n)]
    for i, j, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              st.sampled_from(KINDS)), max_size=3)):
        if kind == "ulp":  # one entry one ulp up: the table is no longer its transpose
            d[i][j] = math.nextafter(d[i][j], math.inf)
        elif kind == "zero_swap":  # still equal to its transpose
            d[i][j], d[j][i] = 0.0, -0.0
        elif kind == "shared_nan":  # one object on both sides: still equal
            d[i][j] = d[j][i] = math.nan
        elif kind == "distinct_nans":  # two objects: unequal, as NaN != NaN
            d[i][j], d[j][i] = float("nan"), float("nan")
        elif kind == "one_nan":
            d[i][j] = math.nan
        else:
            d[i][j] = d[j][i] = -d[i][j]
    rows = []
    for values in map(tuple, d):
        equal = [row for row in rows if row == values]
        rows.append(equal[0] if equal and draw(st.booleans()) else values)
    if draw(st.booleans()):
        species = [f"g{g}" for g in group]
    else:
        species = draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n))
    return _space([f"t{i}" for i in range(n)], species, rows)


@settings(max_examples=600, deadline=None)
@given(case=near_symmetric_spaces(), tol=st.sampled_from(TOLERANCES),
       relation=st.sampled_from([None, indist]))
def test_near_symmetric_tables_match_reference(case, tol, relation):
    space, universe = case
    assert verify_qm_axioms(space, universe, tol=tol, relation=relation) == (
        reference_verify_qm_axioms(space, universe, tol=tol, relation=relation))


# d(t1, t0) exceeds d(t1, t2) + d(t2, t0) + tol, while d(t0, t1), one tol lower, is a tight
# triangle: the first witness (t1, t2, t0) has c before a, and no triple from a chain that
# starts at c = a fails. With d(t0, t1) raised to match, the table is its transpose, and
# the mirrored triple (t0, t2, t1) becomes the first witness.
T = 2.0 ** -10
LOPSIDED = [[0.0, 0.5 + T, 0.25], [0.5 + 2 * T, 0.0, 0.25], [0.25, 0.25, 0.0]]


@pytest.mark.parametrize("rows, witness", [
    (LOPSIDED, ("t1", "t2", "t0")),
    ([[0.0, 0.5 + 2 * T, 0.25], LOPSIDED[1], LOPSIDED[2]], ("t0", "t2", "t1")),
], ids=["one-tol-lopsided", "symmetric"])
@pytest.mark.parametrize("relation", [None, indist], ids=["default", "indist"])
def test_first_witness_before_the_diagonal(rows, witness, relation):
    space, universe = _space(["t0", "t1", "t2"], ["x", "y", "z"], map(tuple, rows))
    reports = verify_qm_axioms(space, universe, tol=T, relation=relation)
    assert reports == reference_verify_qm_axioms(space, universe, tol=T, relation=relation)
    assert reports[5] == AxiomReport("QM6", False, witness)
    assert all(r.holds for r in reports if r.axiom != "QM6")
