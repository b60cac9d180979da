"""The row-matrix axiom checks against a frozen pair-table reference.

``reference_verify_qm_axioms`` and ``reference_differentiation_space`` are
the triple-loop implementations the row-matrix code replaced, kept verbatim
as oracles: reports, counterexamples and raised errors must agree exactly,
including on NaN, infinite, negative and tolerance-edge entries.
``reference_from_pid_table`` is the bridge that stored a pair-keyed
distance dict and ran the range scan a second time; the row-matrix bridge
must match its reports, species, distances (bit for bit) and errors.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from indist.qmetric import (
    DEFAULT_TOL,
    DifferentiationSpace,
    IncompleteTable,
    MalformedTable,
    OutOfRange,
    QuasiMetricSpace,
    differentiation_space,
    from_pid_table,
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


def reference_from_pid_table(sources, pid, tol=DEFAULT_TOL):
    # The former bridge, verbatim but for two names: it runs the frozen
    # reference_differentiation_space and reference_zero_tree.
    names = list(sources)
    n = len(names)
    if n == 0:
        raise MalformedTable("no sources")
    if len(set(names)) != n:
        repeated = next(a for i, a in enumerate(names) if names.index(a) != i)
        raise MalformedTable(f"duplicate source name {repeated!r}")
    if len(pid) != n or any(len(row) != n for row in pid):
        raise MalformedTable(f"table must be {n}x{n}")

    hi = 1.0 + tol
    distances = {}
    adjacency = {name: [] for name in names}
    for i, (a, row) in enumerate(zip(names, pid)):
        for j, (b, v) in enumerate(zip(names, row)):
            v = float(v)
            d = 1.0 - v
            if not (math.isfinite(v) and -tol <= v <= hi and -tol <= d <= hi):
                raise MalformedTable(f"value {v!r} at ({i}, {j}) outside [0, 1]")
            distances[a, b] = d
            if j > i:
                if abs(v - pid[j][i]) > tol:
                    raise MalformedTable(f"asymmetry at ({i}, {j})")
                if d <= tol:
                    adjacency[a].append(b)
                    adjacency[b].append(a)
        if abs(row[i] - 1.0) > tol:
            raise MalformedTable(f"diagonal entry {row[i]!r} at ({i}, {i}) is not 1")

    species_of = {}
    members = {}
    for name in names:
        if name not in species_of:
            component = reference_zero_tree(adjacency, name)
            species_of.update(dict.fromkeys(component, min(component)))
        members.setdefault(species_of[name], []).append(name)

    breach = next(((a, b) for a in names for b in members[species_of[a]]
                   if a < b and distances[a, b] > tol), None)
    chain = None
    if breach is not None:
        start, goal = breach
        tree = reference_zero_tree(adjacency, start)
        chain = (goal,)
        while chain[0] != start:
            chain = (tree[chain[0]], *chain)
    zero_report = AxiomReport("zero-transitivity", chain is None, chain)

    universe = Universe(species=sorted(members),
                        atoms=[Atom(name, MICRO, species_of[name]) for name in names])
    base = QuasiMetricSpace(carrier=tuple(names), distances=distances)
    reports = reference_differentiation_space(base, universe, tol=tol)
    space = DifferentiationSpace(base=base, universe=universe, axiom_reports=reports, tol=tol)
    return space, [zero_report] + list(space.axiom_reports)


def reference_zero_tree(adjacency, start):
    tree = {start: start}
    queue = [start]
    for node in queue:
        for nxt in sorted(adjacency[node]):
            if nxt not in tree:
                tree[nxt] = node
                queue.append(nxt)
    return tree


def _bits(rows):
    """Each distance as (type, float.hex()): -0.0 and 0.0 differ, as do 1-ulp neighbours."""
    return [[(type(d), d.hex()) for d in row] for row in rows]


def bridge_outcome(build, sources, pid, tol):
    """Reports, species, tolerance and distance bits of a bridge, or its error's type and text."""
    try:
        space, reports = build(sources, pid, tol=tol)
    except (TypeError, ValueError) as exc:  # MalformedTable is a ValueError
        return ("raised", type(exc), str(exc))
    carrier = space.base.carrier
    species = [space.universe.atoms[a].species for a in carrier]
    return ("ok", reports, list(space.axiom_reports), species, space.tol, carrier,
            _bits(space.base.rows))


def _compare_bridges(sources, pid, tol):
    got = bridge_outcome(from_pid_table, sources, pid, tol)
    assert got == bridge_outcome(reference_from_pid_table, sources, pid, tol)
    return got


# tol = 1.5e-16 rounds 1 + tol up to 1 + 2**-52, so v = 1 + 2**-52 passes the
# v <= 1 + tol test and only the 1 - v >= -tol test rejects it.
BRIDGE_TOLERANCES = [0.0, 1.5e-16, 1e-12, 1e-6, 0.1]


@st.composite
def degree_tables(draw):
    """Grouped degree tables, then a few entries set to edge values or skewed by ulps and tol.

    Sources in one group share degree 1 and groups sit at fixed degrees, so
    most tables reach the species and axiom stages; edits add NaN, +-inf,
    -0.0, ints, numeric and non-numeric strings, off-unit diagonals,
    asymmetry at and 1 ulp past ``tol``, zero chains across groups, and now
    and then a repeated name or a ragged row.
    """
    tol = draw(st.sampled_from(BRIDGE_TOLERANCES))
    edges = [
        1.0, 0.0, -0.0, 0.5, 0.25, 1 + 2**-52, math.nextafter(1.0, 0.0), tol, -tol,
        math.nextafter(-tol, -math.inf), 1.0 + tol, math.nextafter(1.0 + tol, math.inf),
        1.0 - tol, math.nan, math.inf, -math.inf, 1, 0, "0.5", "1", "x",
    ]
    k = draw(st.integers(min_value=1, max_value=3))
    group_pid = [[1.0] * k for _ in range(k)]
    for g in range(k):
        for h in range(g + 1, k):
            group_pid[g][h] = group_pid[h][g] = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
    n = draw(st.integers(min_value=1, max_value=6))
    group = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    pid = [[group_pid[group[i]][group[j]] for j in range(n)] for i in range(n)]
    kinds = st.sampled_from(["edge", "edge", "ulp", "tol", "past_tol", "one"])
    for i, j, kind in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                              kinds), min_size=1, max_size=4)):
        v = pid[i][j]
        if kind == "edge":
            pid[i][j] = draw(st.sampled_from(edges))
        elif kind == "one":
            pid[i][j] = pid[j][i] = 1.0
        elif isinstance(v, float):
            pid[i][j] = {"ulp": math.nextafter(v, math.inf), "tol": v + tol,
                         "past_tol": math.nextafter(v + tol, math.inf)}[kind]
    # Names in shuffled order, so name order and source order disagree.
    names = draw(st.permutations("abcdef"))[:n]
    rarely = st.sampled_from([False] * 9 + [True])
    if n > 1 and draw(rarely):
        names[draw(st.integers(1, n - 1))] = names[0]
    if draw(rarely):
        pid[draw(st.integers(0, n - 1))].append(1.0)
    return names, pid, tol


@settings(max_examples=500, deadline=None)
@given(case=degree_tables())
def test_bridge_matches_reference(case):
    _compare_bridges(*case)


@pytest.mark.parametrize(
    "pid, tol, kind",
    [
        # Only the 1 - v check rejects v = 1 + 2**-52 at tol = 1.5e-16.
        ([[1.0, 1 + 2**-52], [1 + 2**-52, 1.0]], 1.5e-16, MalformedTable),
        # Asymmetry exactly at tol passes; 1 ulp past it does not.
        ([[1.0, 0.5], [0.5 + 2**-40, 1.0]], 2**-40, "ok"),
        ([[1.0, 0.5], [math.nextafter(0.5 + 2**-40, 1.0), 1.0]], 2**-40, MalformedTable),
        ([[1.0, math.nan], [math.nan, 1.0]], 1e-12, MalformedTable),
        ([[1.0, math.inf], [math.inf, 1.0]], 1e-12, MalformedTable),
        ([[1.0, -math.inf], [-math.inf, 1.0]], 1e-12, MalformedTable),
        ([[1.0, -0.0], [-0.0, 1.0]], 1e-12, "ok"),
        ([[1.0, 0.5], [0.5, 0.9]], 1e-12, MalformedTable),
        ([[1, 0], [0, 1]], 0.0, "ok"),
        ([[1.0, "0.5"], [0.5, 1.0]], 1e-12, "ok"),
        ([[1.0, 0.5], ["0.5", 1.0]], 1e-12, TypeError),
        (([["1", 0.5], [0.5, 1.0]]), 1e-12, TypeError),
        ([[1.0, 1.4, "x"], [1.4, 1.0, 0.5], ["x", 0.5, 1.0]], 1e-12, MalformedTable),
        ([[1.0, "x"], ["x", 1.0]], 1e-12, ValueError),
        # A zero chain b ~ a ~ c whose ends are apart.
        ([[1.0, 1.0, 1.0], [1.0, 1.0, 0.5], [1.0, 0.5, 1.0]], 1e-12, "ok"),
    ],
)
def test_bridge_edge_tables_match_reference(pid, tol, kind):
    got = _compare_bridges(["b", "a", "c"][: len(pid)], pid, tol)
    assert got[0] == "ok" if kind == "ok" else got[1] is kind
