"""The row-matrix axiom checks against a frozen pair-table reference.

``reference_verify_qm_axioms`` and ``reference_differentiation_space`` are
the triple-loop implementations the row-matrix code replaced, kept verbatim
as oracles: reports, counterexamples and raised errors must agree exactly,
including on NaN, infinite, negative and tolerance-edge entries.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from indist.qmetric import (
    DEFAULT_TOL,
    IncompleteTable,
    OutOfRange,
    QuasiMetricSpace,
    differentiation_space,
    verify_qm_axioms,
)
from indist.quasiset import MICRO, Atom, AxiomReport, Universe, indist


def reference_verify_qm_axioms(space, universe, tol=DEFAULT_TOL, relation=None):
    rel = relation if relation is not None else indist
    carrier = space.carrier

    table = {}
    for a in carrier:
        for b in carrier:
            table[(a, b)] = space.distance(a, b)

    reports = [AxiomReport("QM1", len(carrier) > 0, None if carrier else ())]

    qm2 = AxiomReport("QM2", True)
    qm3 = AxiomReport("QM3", True)
    qm4 = AxiomReport("QM4", True)
    qm5 = AxiomReport("QM5", True)
    for a in carrier:
        for b in carrier:
            d = table[(a, b)]
            if qm2.holds and not math.isfinite(d):
                qm2 = AxiomReport("QM2", False, counterexample=(a, b))
            if qm3.holds and d < -tol:
                qm3 = AxiomReport("QM3", False, counterexample=(a, b))
            if qm4.holds and math.isfinite(d) and (abs(d) <= tol) != bool(rel(universe, a, b)):
                qm4 = AxiomReport("QM4", False, counterexample=(a, b))
            if qm5.holds and not (
                math.isfinite(d)
                and math.isfinite(table[(b, a)])
                and abs(d - table[(b, a)]) <= tol
            ):
                qm5 = AxiomReport("QM5", False, counterexample=(a, b))

    qm6 = AxiomReport("QM6", True)
    for a in carrier:
        for b in carrier:
            for c in carrier:
                if table[(a, c)] > table[(a, b)] + table[(b, c)] + tol:
                    qm6 = AxiomReport("QM6", False, counterexample=(a, b, c))
                    break
            if not qm6.holds:
                break
        if not qm6.holds:
            break

    congruence = AxiomReport("congruence", True)
    for a in carrier:
        for a2 in carrier:
            if a == a2 or not rel(universe, a, a2):
                continue
            for b in carrier:
                if abs(table[(a, b)] - table[(a2, b)]) > tol:
                    congruence = AxiomReport("congruence", False, counterexample=(a, a2, b))
                    break
            if not congruence.holds:
                break
        if not congruence.holds:
            break

    reports.extend([qm2, qm3, qm4, qm5, qm6, congruence])
    return reports


def reference_differentiation_space(base, universe, tol=DEFAULT_TOL):
    for a in base.carrier:
        for b in base.carrier:
            d = base.distance(a, b)
            if math.isfinite(d) and not (-tol <= d <= 1.0 + tol):
                raise OutOfRange(f"distance d({a!r}, {b!r}) = {d!r} outside [0, 1]")
    return tuple(reference_verify_qm_axioms(base, universe, tol=tol))


def outcome(fn, *args, **kwargs):
    """A call's reports, or the type and message of the error it raised."""
    try:
        return ("ok", list(fn(*args, **kwargs)))
    except (IncompleteTable, OutOfRange) as exc:
        return ("raised", type(exc), str(exc))


def uid_equality(_, a, b):
    return a == b


TOLERANCES = [0.0, 1e-12, 1e-6, 0.1]


@st.composite
def spaces(draw, allow_missing=False):
    """Small tables whose entries sit on and around every threshold the checks use."""
    tol = draw(st.sampled_from(TOLERANCES))
    edges = [
        0.0, -0.0, tol, -tol, math.nextafter(tol, math.inf), math.nextafter(-tol, -math.inf),
        0.25, 0.5, 0.75, 1.0, 1.0 + tol, math.nextafter(1.0 + tol, math.inf), 1.4, -0.3,
        math.nan, math.inf, -math.inf,
    ]
    value = st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    )
    n = draw(st.integers(min_value=0, max_value=7))
    names = [f"t{i}" for i in range(n)]
    species = draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    universe = Universe(
        species=sorted(set(species)),
        atoms=[Atom(name, MICRO, sp) for name, sp in zip(names, species)],
    )
    # Mostly symmetric tables with a zero diagonal, so the later axioms are
    # reached in a consistent state as well as in a broken one.
    distances = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if j < i and draw(st.booleans()):
                distances[(a, b)] = distances[(b, a)]
            elif i == j and draw(st.booleans()):
                distances[(a, b)] = 0.0
            else:
                distances[(a, b)] = draw(value)
    if allow_missing and distances:
        keys = sorted(distances)
        for k in draw(st.sets(st.integers(0, len(keys) - 1), max_size=3)):
            del distances[keys[k]]
    return QuasiMetricSpace(tuple(names), distances), universe, tol


@settings(max_examples=200, deadline=None)
@given(case=spaces(), uid=st.booleans())
def test_reports_match_reference(case, uid):
    space, universe, tol = case
    relation = uid_equality if uid else None
    assert verify_qm_axioms(space, universe, tol=tol, relation=relation) == (
        reference_verify_qm_axioms(space, universe, tol=tol, relation=relation)
    )


@settings(max_examples=150, deadline=None)
@given(case=spaces(allow_missing=True))
def test_errors_and_precedence_match_reference(case):
    space, universe, tol = case
    got = outcome(lambda: differentiation_space(space, universe, tol=tol).axiom_reports)
    assert got == outcome(reference_differentiation_space, space, universe, tol=tol)
    assert outcome(verify_qm_axioms, space, universe, tol=tol) == outcome(
        reference_verify_qm_axioms, space, universe, tol=tol
    )


def _three_term(distances):
    universe = Universe(
        species=["x", "y", "z"],
        atoms=[Atom("a", MICRO, "x"), Atom("b", MICRO, "y"), Atom("c", MICRO, "z")],
    )
    full = {(p, q): 0.0 if p == q else 0.5 for p in "abc" for q in "abc"}
    full.update(distances)
    return full, universe


@pytest.mark.parametrize(
    "missing, entry, expected",
    [
        # Row-major scan: the earlier of the two problems decides the error.
        (("b", "c"), (("a", "c"), 1.4), OutOfRange),
        (("a", "c"), (("b", "c"), 1.4), IncompleteTable),
        (("a", "b"), (("a", "c"), 1.4), IncompleteTable),
    ],
)
def test_out_of_range_and_missing_pair_precedence(missing, entry, expected):
    full, universe = _three_term(dict([entry]))
    del full[missing]
    base = QuasiMetricSpace(("a", "b", "c"), full)
    with pytest.raises(expected) as info:
        differentiation_space(base, universe)
    with pytest.raises(type(info.value)) as ref:
        reference_differentiation_space(base, universe)
    assert str(info.value) == str(ref.value)
    if expected is IncompleteTable:
        assert repr(missing[0]) in str(info.value) and repr(missing[1]) in str(info.value)


def test_missing_pair_named_first_in_row_major_order():
    full, universe = _three_term({})
    del full[("c", "a")]
    del full[("b", "a")]
    with pytest.raises(IncompleteTable, match=r"\('b', 'a'\)"):
        verify_qm_axioms(QuasiMetricSpace(("a", "b", "c"), full), universe)


@pytest.mark.parametrize(
    "d_ab, d_bc, tol",
    # (d_ab + d_bc) + tol rounds below d_ab + (d_bc + tol) for these values.
    [(0.13, 0.117, 0.1), (0.313, 0.033, 1e-12)],
)
def test_triangle_sum_is_evaluated_left_to_right(d_ab, d_bc, tol):
    d_ac = d_ab + (d_bc + tol)
    assert d_ac > d_ab + d_bc + tol
    full, universe = _three_term(
        {("a", "b"): d_ab, ("b", "a"): d_ab, ("b", "c"): d_bc, ("c", "b"): d_bc,
         ("a", "c"): d_ac, ("c", "a"): d_ac}
    )
    space = QuasiMetricSpace(("a", "b", "c"), full)
    reports = verify_qm_axioms(space, universe, tol=tol)
    assert reports == reference_verify_qm_axioms(space, universe, tol=tol)
    assert reports[5] == AxiomReport("QM6", False, ("a", "b", "c"))


def _perturb(x, kind):
    if kind == "flip_zero":
        return -x if x == 0 else x
    if kind == "negate":
        return -x
    if kind == "ulp":
        return math.nextafter(x, math.inf)
    if kind == "fresh_nan":
        return float("nan")  # a NaN object distinct from math.nan
    return {"sum": 0.1 + 0.2, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}[kind]


@st.composite
def grouped_spaces(draw):
    """Tables whose rows repeat by group, with near-copies the row ids must tell apart.

    d(a, b) comes from a group-by-group matrix, so sources in one group share
    a row; then a few entries are perturbed: a zero's sign flipped (still an
    equal row), the entry negated, 1 ulp up, 0.1 + 0.2 in place of 0.3, or
    NaN/inf.
    """
    tol = draw(st.sampled_from([0.0, 1e-12, 0.1]))
    value = st.sampled_from(
        [0.0, -0.0, 0.3, 0.1 + 0.2, 0.25, 0.5, 0.75, 1.0, tol, math.nextafter(0.3, 1.0),
         math.nan, math.inf, -math.inf])
    k = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        # Groups on a line: triangles through a middle group are tight, so
        # a 1-ulp nudge breaks QM6 exactly there.
        x = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=k, max_size=k))
        group_d = [[abs(p - q) for q in x] for p in x]
    else:
        symmetric = draw(st.booleans())
        group_d = [[None] * k for _ in range(k)]
        for g in range(k):
            for h in range(k):
                if g == h:
                    group_d[g][h] = draw(st.one_of(st.sampled_from([0.0, -0.0]), value))
                elif symmetric and h < g:
                    group_d[g][h] = group_d[h][g]
                else:
                    group_d[g][h] = draw(value)
    n = draw(st.integers(min_value=1, max_value=8))
    group = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    names = [f"t{i}" for i in range(n)]
    rows = [[group_d[group[i]][group[j]] for j in range(n)] for i in range(n)]
    kinds = st.sampled_from(["flip_zero", "negate", "ulp", "sum", "nan", "fresh_nan", "inf",
                             "-inf"])
    for i, j, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              kinds), max_size=4)):
        rows[i][j] = _perturb(rows[i][j], kind)
    if draw(st.booleans()):
        species = [f"g{g}" for g in group]
    else:
        species = draw(st.lists(st.sampled_from(["x", "y"]), min_size=n, max_size=n))
    universe = Universe(
        species=sorted(set(species)),
        atoms=[Atom(name, MICRO, sp) for name, sp in zip(names, species)],
    )
    distances = {(a, b): d for a, row in zip(names, rows) for b, d in zip(names, row)}
    return QuasiMetricSpace(tuple(names), distances), universe, tol


@settings(max_examples=400, deadline=None)
@given(case=grouped_spaces(), uid=st.booleans())
def test_repeated_rows_match_reference(case, uid):
    space, universe, tol = case
    relation = uid_equality if uid else None
    assert verify_qm_axioms(space, universe, tol=tol, relation=relation) == (
        reference_verify_qm_axioms(space, universe, tol=tol, relation=relation)
    )
