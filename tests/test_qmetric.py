"""Quasi-metric axiom checking, degrees, the bridge, and Heyting operations."""

import gc
import math
import re
import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_universe
from indist.onephoton import degree_of_indistinguishability
from indist.qmetric import (
    AxiomsViolated,
    DifferentiationSpace,
    IncompleteTable,
    MalformedTable,
    NotInCarrier,
    OutOfRange,
    QuasiMetricSpace,
    degree,
    degree_assignment,
    degree_relation_holds,
    differentiation_space,
    from_pid_table,
    heyting_implies,
    heyting_join,
    heyting_meet,
    heyting_not,
    identity_semantic_value,
    verify_qm_axioms,
)
from indist.quasiset import (
    MICRO,
    Atom,
    AxiomReport,
    Universe,
    check_equivalence_axioms,
    indist,
    permutation_theorem_check,
    theorem_instances,
)
from indist.zwm import ZwmSetup, zwm_signal_state

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def two_atom_universe(same_species: bool) -> Universe:
    if same_species:
        return Universe(species=["s"], atoms=[Atom("a", MICRO, "s"), Atom("b", MICRO, "s")])
    return Universe(
        species=["s", "t"], atoms=[Atom("a", MICRO, "s"), Atom("b", MICRO, "t")]
    )


def table(carrier, entries):
    d = {}
    for (a, b), v in entries.items():
        d[(a, b)] = v
        d.setdefault((b, a), v)
    for c in carrier:
        d.setdefault((c, c), 0.0)
    return d


def reports_by_axiom(space, universe, **kw):
    return {r.axiom: r for r in verify_qm_axioms(space, universe, **kw)}


class TestVerifyAxioms:
    def test_indiscrete_space_of_twins(self):
        u = two_atom_universe(same_species=True)
        space = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): 0.0}))
        assert all(r.holds for r in verify_qm_axioms(space, u))

    def test_qm1_empty_carrier(self):
        space = QuasiMetricSpace((), {})
        reports = reports_by_axiom(space, Universe())
        assert not reports["QM1"].holds

    def test_qm2_non_finite_entry(self):
        u = two_atom_universe(same_species=False)
        space = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): math.nan}))
        reports = reports_by_axiom(space, u)
        assert not reports["QM2"].holds
        assert tuple(reports["QM2"].counterexample) in {("a", "b"), ("b", "a")}

    def test_qm3_negative_distance(self):
        u = two_atom_universe(same_species=False)
        space = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): -0.2}))
        reports = reports_by_axiom(space, u)
        assert not reports["QM3"].holds

    def test_qm4_zero_without_indistinguishability(self):
        u = two_atom_universe(same_species=False)
        space = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): 0.0}))
        reports = reports_by_axiom(space, u)
        assert not reports["QM4"].holds
        a, b = reports["QM4"].counterexample
        assert space.distance(a, b) == 0.0 and not indist(u, a, b)

    def test_qm4_nonzero_between_twins(self):
        u = two_atom_universe(same_species=True)
        space = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): 0.4}))
        assert not reports_by_axiom(space, u)["QM4"].holds

    def test_qm5_asymmetry(self):
        u = two_atom_universe(same_species=False)
        d = table(("a", "b"), {("a", "b"): 0.5})
        d[("b", "a")] = 0.6
        reports = reports_by_axiom(QuasiMetricSpace(("a", "b"), d), u)
        assert not reports["QM5"].holds

    def test_qm6_triangle_breach_with_triple(self):
        u = Universe(
            species=["s", "t", "v"],
            atoms=[Atom("a", MICRO, "s"), Atom("b", MICRO, "t"), Atom("c", MICRO, "v")],
        )
        d = table(
            ("a", "b", "c"),
            {("a", "b"): 0.1, ("a", "c"): 0.1, ("b", "c"): 1.0},
        )
        reports = reports_by_axiom(QuasiMetricSpace(("a", "b", "c"), d), u)
        assert not reports["QM6"].holds
        x, y, z = reports["QM6"].counterexample
        assert QuasiMetricSpace(("a", "b", "c"), d).distance(x, z) > d[(x, y)] + d[(y, z)]

    def test_congruence_violation(self):
        u = Universe(
            species=["s", "t"],
            atoms=[Atom("a", MICRO, "s"), Atom("a2", MICRO, "s"), Atom("b", MICRO, "t")],
        )
        d = table(
            ("a", "a2", "b"),
            {("a", "a2"): 0.0, ("a", "b"): 0.3, ("a2", "b"): 0.6},
        )
        reports = reports_by_axiom(QuasiMetricSpace(("a", "a2", "b"), d), u)
        assert not reports["congruence"].holds
        p, q, r = reports["congruence"].counterexample
        assert indist(u, p, q) and abs(d[(p, r)] - d[(q, r)]) > 1e-12

    def test_missing_pair_raises(self):
        u = two_atom_universe(same_species=False)
        space = QuasiMetricSpace(("a", "b"), {("a", "a"): 0.0, ("b", "b"): 0.0, ("a", "b"): 0.1})
        with pytest.raises(IncompleteTable):
            verify_qm_axioms(space, u)

    def test_metric_specialization_with_uid_equality(self):
        # Every element its own species: swapping the relation for uid
        # equality must accept any genuine metric, here |pos difference|.
        u = Universe(
            species=["s1", "s2", "s3"],
            atoms=[Atom("a", MICRO, "s1"), Atom("b", MICRO, "s2"), Atom("c", MICRO, "s3")],
        )
        pos = {"a": 0.0, "b": 0.35, "c": 0.9}
        d = {(x, y): abs(pos[x] - pos[y]) for x in pos for y in pos}
        space = QuasiMetricSpace(("a", "b", "c"), d)
        assert all(r.holds for r in verify_qm_axioms(space, u))
        uid_eq = lambda _, s, t: s == t
        assert all(r.holds for r in verify_qm_axioms(space, u, relation=uid_eq))


class TestDegree:
    def make_space(self, d_ab: float) -> DifferentiationSpace:
        u = two_atom_universe(same_species=(d_ab == 0.0))
        base = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): d_ab}))
        return differentiation_space(base, u)

    def test_indistinguishable_pair_has_degree_one(self):
        assert degree(self.make_space(0.0), "a", "b") == 1.0

    def test_partial(self):
        assert degree(self.make_space(0.3), "a", "b") == pytest.approx(0.7, abs=1e-15)

    def test_maximal_distance(self):
        assert degree(self.make_space(1.0), "a", "b") == 0.0

    def test_relation_holds(self):
        space = self.make_space(0.5)
        assert degree_relation_holds(space, "a", "b", 0.5)
        assert not degree_relation_holds(space, "a", "b", 0.4)
        assert degree_relation_holds(self.make_space(0.0), "a", "b", 1.0)

    def test_axioms_gate(self):
        u = two_atom_universe(same_species=False)
        base = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): 0.0}))
        space = differentiation_space(base, u)  # QM4 fails: d=0, not indist
        with pytest.raises(AxiomsViolated):
            degree(space, "a", "b")

    def test_not_in_carrier(self):
        with pytest.raises(NotInCarrier):
            degree(self.make_space(0.2), "a", "zz")

    def test_out_of_range_distance_rejected(self):
        u = two_atom_universe(same_species=False)
        base = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): 1.4}))
        with pytest.raises(OutOfRange):
            differentiation_space(base, u)


class TestDictSpaceReads:
    """A user dict space is read through its mapping; distance() only names a missing pair."""

    @pytest.fixture
    def distance_calls(self, monkeypatch):
        calls = []
        distance = QuasiMetricSpace.distance

        def counted(self, a, b):
            calls.append((a, b))
            return distance(self, a, b)

        monkeypatch.setattr(QuasiMetricSpace, "distance", counted)
        return calls

    def test_complete_dict_space_makes_no_distance_calls(self, distance_calls):
        u = Universe(species=["s", "t"], atoms=[Atom("a", MICRO, "s"), Atom("a2", MICRO, "s"),
                                                Atom("b", MICRO, "t")])
        d = table(("a", "a2", "b"), {("a", "a2"): 0.0, ("a", "b"): 0.5, ("a2", "b"): 0.5})
        space = differentiation_space(QuasiMetricSpace(("a", "a2", "b"), d), u)
        assert space.axioms_hold
        assert space.base.rows == ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5), (0.5, 0.5, 0.0))
        assert distance_calls == []

    @pytest.mark.parametrize("out, missing, error, message", [
        (("b", "a"), ("a", "b"), IncompleteTable, "no distance entry for ('a', 'b')"),
        (("a", "b"), ("b", "a"), OutOfRange, "distance d('a', 'b') = 1.5 outside [0, 1]"),
        (("a", "c"), ("a", "b"), IncompleteTable, "no distance entry for ('a', 'b')"),
        (("a", "b"), ("a", "c"), OutOfRange, "distance d('a', 'b') = 1.5 outside [0, 1]"),
        (("c", "c"), ("c", "b"), IncompleteTable, "no distance entry for ('c', 'b')"),
    ])
    def test_first_fault_in_row_major_order_wins(self, out, missing, error, message):
        d = {(p, q): 0.25 if p != q else 0.0 for p in "abc" for q in "abc"}
        d[out] = 1.5
        del d[missing]
        u = Universe(species=list("abc"), atoms=[Atom(t, MICRO, t) for t in "abc"])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            differentiation_space(QuasiMetricSpace(tuple("abc"), d), u)
        with pytest.raises(IncompleteTable, match=re.escape(f"no distance entry for {missing}")):
            QuasiMetricSpace(tuple("abc"), d).rows


class TestFromPidTable:
    def test_coherent_double_slit(self):
        space, reports = from_pid_table(["s1", "s2"], [[1.0, 1.0], [1.0, 1.0]])
        assert all(r.holds for r in reports)
        assert indist(space.universe, "s1", "s2")
        assert degree(space, "s1", "s2") == 1.0

    def test_three_sources_hand_checkable(self):
        pid = [[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]]
        space, reports = from_pid_table(["s1", "s2", "s3"], pid)
        assert all(r.holds for r in reports)
        assert space.base.distance("s1", "s2") == 0.0
        assert space.base.distance("s1", "s3") == 0.5
        assert degree(space, "s2", "s3") == 0.5

    def test_planted_triangle_violation(self):
        pid = [[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]]
        space, reports = from_pid_table(["s1", "s2", "s3"], pid)
        by_axiom = {r.axiom: r for r in reports}
        assert not by_axiom["QM6"].holds
        assert not space.axioms_hold
        with pytest.raises(AxiomsViolated):
            degree(space, "s1", "s2")

    def test_non_transitive_zeroes_reported(self):
        pid = [[1.0, 1.0, 0.5], [1.0, 1.0, 1.0], [0.5, 1.0, 1.0]]
        space, reports = from_pid_table(["s1", "s2", "s3"], pid)
        by_axiom = {r.axiom: r for r in reports}
        assert not by_axiom["zero-transitivity"].holds
        chain = by_axiom["zero-transitivity"].counterexample
        # Endpoints of the witness chain sit at positive distance while every
        # link is a zero-distance pair.
        assert space.base.distance(chain[0], chain[-1]) > 1e-12
        for u_, v_ in zip(chain, chain[1:]):
            assert space.base.distance(u_, v_) <= 1e-12
        assert not by_axiom["QM4"].holds

    @pytest.mark.parametrize(
        "pid",
        [
            [[1.0, 0.5], [0.6, 1.0]],          # asymmetric
            [[0.9, 0.5], [0.5, 1.0]],          # diagonal not 1
            [[1.0, 1.5], [1.5, 1.0]],          # out of range
            [[1.0]],                           # wrong shape for 2 sources
        ],
    )
    def test_malformed_tables(self, pid):
        with pytest.raises(MalformedTable):
            from_pid_table(["s1", "s2"], pid)

    def test_no_sources(self):
        with pytest.raises(MalformedTable, match="no sources"):
            from_pid_table([], [])

    def test_duplicate_sources(self):
        with pytest.raises(MalformedTable):
            from_pid_table(["s", "s"], [[1.0, 1.0], [1.0, 1.0]])

    def test_degree_comparison_uses_space_tolerance(self):
        space, reports = from_pid_table(["s1", "s2"], [[1.0, 0.5], [0.5, 1.0]], tol=1e-6)
        assert all(r.holds for r in reports)
        assert space.tol == 1e-6
        assert degree_relation_holds(space, "s1", "s2", 0.5 + 1e-9)
        assert not degree_relation_holds(space, "s1", "s2", 0.5 + 1e-5)

    def test_round_trip_recovers_degrees(self):
        rng = Random(303)
        for _ in range(30):
            names, pid = _random_clean_table(rng)
            space, reports = from_pid_table(names, pid)
            assert all(r.holds for r in reports)
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    assert abs(degree(space, a, b) - pid[i][j]) <= 1e-12


def _random_clean_table(rng: Random, max_sources: int = 8):
    """Degrees from an embedding: sources at per-species positions in [0,1].

    d = |pos_a - pos_b| is symmetric, triangular, zero exactly within a
    species, and congruent, so the resulting table always passes the axioms.
    """
    n = rng.randint(2, max_sources)
    n_groups = rng.randint(1, n)
    positions = sorted(rng.uniform(0.0, 1.0) for _ in range(n_groups))
    # Enforce separation so cross-group distances cannot collide with 0.
    positions = [p + 0.02 * i for i, p in enumerate(positions)]
    scale = max(positions) if max(positions) > 0 else 1.0
    positions = [p / max(1.0, scale) for p in positions]
    assignment = [rng.randrange(n_groups) for _ in range(n)]
    names = [f"src{i}" for i in range(n)]
    pid = [
        [1.0 - abs(positions[assignment[i]] - positions[assignment[j]]) for j in range(n)]
        for i in range(n)
    ]
    return names, pid


@st.composite
def edge_degree_tables(draw):
    """Small symmetric tables of edge degrees, sometimes with one entry broken."""
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-7, 0.1]))
    value = st.one_of(st.sampled_from([0.0, 1.0, 1.0 + tol, -tol, 1.1, math.nan, math.inf]),
                      st.floats(min_value=-0.5, max_value=1.5))
    n = draw(st.integers(min_value=1, max_value=4))
    pid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or draw(st.booleans()):
                pid[i][j] = pid[j][i] = draw(value)
    if draw(st.booleans()):
        pid[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(value)
    return [f"s{i}" for i in range(n)], pid, tol


@settings(max_examples=300, deadline=None)
@given(edge_degree_tables())
def test_from_pid_table_returns_or_rejects(case):
    """A table either becomes a space whose distances are in range or is MalformedTable."""
    names, pid, tol = case
    try:
        space, _ = from_pid_table(names, pid, tol=tol)
    except MalformedTable:
        return
    assert all(-tol <= d <= 1.0 + tol for d in space.base.distances.values())


class TestDegreeRelations:
    def test_degree_one_iff_indist_exhaustively(self):
        rng = Random(41)
        for _ in range(60):
            names, pid = _random_clean_table(rng)
            space, _ = from_pid_table(names, pid)
            assert len(space.base.carrier) <= 8
            for a in names:
                for b in names:
                    r = degree(space, a, b)
                    if abs(r - 1.0) <= 1e-12:
                        assert indist(space.universe, a, b)
                    else:
                        assert not indist(space.universe, a, b)

    def test_degree_table_matches_pointwise(self):
        names, pid = _random_clean_table(Random(1))
        space, _ = from_pid_table(names, pid)
        assert degree_assignment(space) == {
            (a, b): degree(space, a, b) for a in names for b in names
        }


class TestHeyting:
    def test_implies_reflexive(self):
        for a in (0.0, 0.25, 0.5, 1.0):
            assert heyting_implies(a, a) == 1.0

    def test_meet_join(self):
        assert heyting_meet(0.3, 0.7) == 0.3
        assert heyting_join(0.3, 0.7) == 0.7

    def test_double_negation_is_not_identity(self):
        assert heyting_not(0.5) == 0.0
        assert heyting_not(heyting_not(0.5)) == 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            heyting_meet(1.2, 0.5)
        with pytest.raises(OutOfRange):
            heyting_not(-0.1)

    @given(a=unit, b=unit, c=unit)
    def test_adjunction(self, a, b, c):
        assert (c <= heyting_implies(a, b)) == (heyting_meet(c, a) <= b)

    @given(a=unit, b=unit)
    def test_lattice_bounds(self, a, b):
        assert heyting_meet(a, b) <= a <= heyting_join(a, b)

    @given(a=unit, b=unit)
    def test_absorption_and_idempotence(self, a, b):
        assert heyting_join(a, heyting_meet(a, b)) == a
        assert heyting_meet(a, heyting_join(a, b)) == a
        assert heyting_meet(a, a) == a and heyting_join(a, a) == a


class TestSemanticValues:
    def test_full_identity(self):
        space, _ = from_pid_table(["s1", "s2"], [[1.0, 1.0], [1.0, 1.0]])
        assert identity_semantic_value(space, "s1", "s2") == 1.0

    def test_zwm_pipeline_end_to_end(self):
        # Two-crystal model at half transmission -> p_id -> degree table.
        rho = zwm_signal_state(ZwmSetup(1 / math.sqrt(2), 1 / math.sqrt(2), 0.5))
        p = degree_of_indistinguishability(rho)
        space, reports = from_pid_table(["path1", "path2"], [[1.0, p], [p, 1.0]])
        assert all(r.holds for r in reports)
        value = identity_semantic_value(space, "path1", "path2")
        assert value == pytest.approx(0.5, abs=1e-12)
        # (x = y) and not (x = y) evaluates to min(r, 0) = 0.
        assert heyting_meet(value, heyting_not(value)) == 0.0


def _grouped_line_table(n: int, groups: int = 12):
    """n sources in equal groups at multiples of 1/16 on a line: every d is exact."""
    position = [(i * groups // n) / 16 for i in range(n)]
    pid = [[1.0 - abs(p - q) for q in position] for p in position]
    return [f"s{i:03d}" for i in range(n)], pid


class TestBridgeSpaceStorage:
    """A bridge space keeps its distances once, as rows behind a read-only pair view."""

    def test_view_reads_the_rows_as_the_former_pair_table(self):
        names, pid = _grouped_line_table(7, groups=3)
        space, _ = from_pid_table(names, pid)
        view, rows = space.base.distances, space.base.rows
        pairs = {(a, b): 1.0 - v for a, row in zip(names, pid) for b, v in zip(names, row)}
        assert list(dict(view).items()) == list(pairs.items())
        assert len(view) == 49
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                assert view[a, b] is rows[i][j]
        assert space.base.rows is rows

    def test_view_rejects_pairs_outside_the_carrier(self):
        space, _ = from_pid_table(["a", "b"], [[1.0, 0.5], [0.5, 1.0]])
        view = space.base.distances
        for key in [("a", "zz"), ("zz", "a"), "ab", ("a", "b", "a"), ("a",)]:
            assert key not in view
            with pytest.raises(KeyError):
                view[key]
        with pytest.raises(TypeError):
            view["a", "b"] = 0.0
        with pytest.raises(NotInCarrier):
            space.base.distance("a", "zz")

    def test_view_names_the_whole_key_it_rejects(self):
        space, _ = from_pid_table(["a", "b"], [[1.0, 0.5], [0.5, 1.0]])
        plain = dict(space.base.distances)
        for key in [("a", "zz"), ("zz", "a"), ("zz", "zz"), "ab", ("a", "b", "a"), ("a",)]:
            with pytest.raises(KeyError) as exc:
                space.base.distances[key]
            with pytest.raises(KeyError) as plain_exc:
                plain[key]
            assert exc.value.args == plain_exc.value.args == (key,)

    def test_view_finds_no_bare_name(self):
        space, _ = from_pid_table(["s1", "s2"], [[1.0, 0.5], [0.5, 1.0]])
        view, plain = space.base.distances, dict(space.base.distances)
        assert "s1" not in view and view.get("s1") is None
        with pytest.raises(KeyError) as exc:
            view["s1"]
        assert exc.value.args == ("s1",)
        for key in [["s1"], (["s1"], "s2"), (["s1"], "s2", "s1")]:  # unhashable
            with pytest.raises(TypeError):
                view[key]
            with pytest.raises(TypeError):
                plain[key]

    def test_user_dict_space_is_unchanged(self):
        d = {("a", "a"): 0.0, ("a", "b"): 0.25, ("b", "a"): 0.25, ("b", "b"): 0.0}
        space = QuasiMetricSpace(("a", "b"), d)
        assert space.distances is d
        assert space.rows == ((0.0, 0.25), (0.25, 0.0))
        assert space.distance("b", "a") == 0.25
        del d[("b", "a")]
        with pytest.raises(IncompleteTable, match=r"^no distance entry for \('b', 'a'\)$"):
            QuasiMetricSpace(("a", "b"), d).rows
        with pytest.raises(IncompleteTable, match=r"^no distance entry for \('b', 'a'\)$"):
            space.distance("b", "a")

    def test_result_keeps_little_beyond_its_rows(self):
        names, pid = _grouped_line_table(150)
        from_pid_table(*_grouped_line_table(12))  # first-call allocations stay out
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = from_pid_table(names, pid)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = result[0].base.rows
        floats = {id(d): d for row in rows for d in row}.values()
        row_bytes = (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
                     + sum(map(sys.getsizeof, floats)))
        assert kept <= 2 * row_bytes, (kept, row_bytes)


class TestRecordTypes:
    """Records are tuples, so == against a plain tuple cannot check their type."""

    def test_every_report_is_an_axiom_report(self):
        rng = Random(17)
        reports = []
        for _ in range(30):
            u = random_universe(rng, max_micro=5, max_qsets=3)
            reports += check_equivalence_axioms(u)
            reports += check_equivalence_axioms(u, relation=lambda u, a, b: False)
            for x, z, w, report in theorem_instances(u):
                reports += [report, permutation_theorem_check(u, x, z, w)]
        universe = two_atom_universe(same_species=True)
        for d in (0.0, 0.5):  # 0.5 fails QM4
            space = QuasiMetricSpace(("a", "b"), table(("a", "b"), {("a", "b"): d}))
            reports += verify_qm_axioms(space, universe)
        # a ~ b ~ c at distance 0, but d(a, c) = 0.5: zero-transitivity and QM6 fail.
        space, bridge = from_pid_table("abc", [[1, 1, 0.5], [1, 1, 1], [0.5, 1, 1]])
        reports += [*bridge, *space.axiom_reports]
        assert {r.holds for r in reports} == {True, False}
        assert any(r.axiom == "permutation" for r in reports)
        assert all(type(r) is AxiomReport for r in reports)
        assert type(space) is DifferentiationSpace

    def test_space_fields_are_read_only(self):
        space = QuasiMetricSpace(("a",), {("a", "a"): 0.0})
        with pytest.raises(AttributeError):
            space.carrier = ("b",)
        with pytest.raises(AttributeError):
            space.distances = {}
        with pytest.raises(AttributeError):
            del space.carrier
        assert space.carrier == ("a",) and space.rows == ((0.0,),)

    def test_space_repr_names_its_fields(self):
        space = QuasiMetricSpace(("a",), {("a", "a"): 0.0})
        assert repr(space) == "QuasiMetricSpace(carrier=('a',), distances={('a', 'a'): 0.0})"
