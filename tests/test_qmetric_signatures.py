"""The default relation of ``verify_qm_axioms`` against the frozen reference.

With ``relation=None`` the relation matrix is built from one signature per
carrier term, and QM2-QM5 scan a repeated (row, column, relation row) key
once.  These tests compare that path with ``reference_verify_qm_axioms`` on
carriers of micro-atoms, macro-atoms, named and anonymous qsets, and with
the per-pair path (``indist`` passed as a user relation), which must raise
the same ``UnknownTerm`` for a term missing from the universe.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from indist.qmetric import QuasiMetricSpace, verify_qm_axioms
from indist.quasiset import MACRO, MICRO, Atom, AxiomReport, Universe, UnknownTerm, indist
from test_qmetric_oracle import reference_verify_qm_axioms


def outcome(fn, *args, **kwargs):
    """A call's reports, or the type and message of the error it raised."""
    try:
        return ("ok", list(fn(*args, **kwargs)))
    except UnknownTerm as exc:
        return ("raised", type(exc), str(exc))


@st.composite
def universes(draw):
    """Micro-atoms of two species, macro-atoms and qsets nesting earlier terms."""
    species = draw(st.lists(st.sampled_from("xy"), max_size=4))
    atoms = [Atom(f"m{i}", MICRO, sp) for i, sp in enumerate(species)]
    atoms += [Atom(f"M{i}", MACRO) for i in range(draw(st.integers(0, 3)))]
    terms = [atom.uid for atom in atoms]
    qsets = {}
    for i in range(draw(st.integers(0, 4))):
        members = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
        qsets[f"q{i}"] = members
        terms.append(f"q{i}")
    universe = Universe(species=sorted(set(species)), atoms=atoms, qsets=qsets)
    return universe, terms


@st.composite
def model_spaces(draw, unknown=False):
    """Tables over model terms whose rows and columns repeat by group.

    Terms in one group share a row and a column but may differ in kind or
    species, and some tables are asymmetric, so equal rows can sit above
    unequal columns.  Anonymous qsets join the carrier: one whose members
    match no term has a tuple signature.
    """
    universe, terms = draw(universes())
    atoms = sorted(universe.atoms)
    pool = terms + [frozenset(draw(st.lists(st.sampled_from(atoms), max_size=3)))
                    for _ in range(2 if atoms else 0)]
    if unknown:
        pool.append("ghost")
    if not pool:
        pool = [frozenset()]
    carrier = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7)))
    if unknown and "ghost" not in carrier:
        carrier += ("ghost",)
    tol = draw(st.sampled_from([0.0, 1e-12, 0.1]))
    value = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, tol, math.nan, math.inf])
    k = draw(st.integers(1, 3))
    group_d = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=k, max_size=k))
    group = draw(st.lists(st.integers(0, k - 1), min_size=len(carrier), max_size=len(carrier)))
    distances = {(a, b): group_d[g][h] for a, g in zip(carrier, group)
                 for b, h in zip(carrier, group)}
    for i, j, d in draw(st.lists(st.tuples(st.sampled_from(carrier), st.sampled_from(carrier),
                                           value), max_size=3)):
        distances[i, j] = d
    return QuasiMetricSpace(carrier, distances), universe, tol


@settings(max_examples=400, deadline=None)
@given(case=model_spaces())
def test_default_relation_matches_reference(case):
    space, universe, tol = case
    reports = verify_qm_axioms(space, universe, tol=tol)
    assert reports == reference_verify_qm_axioms(space, universe, tol=tol)
    assert reports == verify_qm_axioms(space, universe, tol=tol, relation=indist)


@settings(max_examples=100, deadline=None)
@given(case=model_spaces(unknown=True))
def test_unknown_term_raises_as_the_per_pair_path_does(case):
    space, universe, tol = case
    got = outcome(verify_qm_axioms, space, universe, tol=tol)
    assert got[:2] == ("raised", UnknownTerm)
    assert got == outcome(verify_qm_axioms, space, universe, tol=tol, relation=indist)


@settings(max_examples=50, deadline=None)
@given(case=model_spaces())
def test_user_relation_is_called_once_per_ordered_pair(case):
    space, universe, tol = case
    calls = []

    def counted(u, a, b):
        calls.append((a, b))
        return indist(u, a, b)

    verify_qm_axioms(space, universe, tol=tol, relation=counted)
    assert calls == [(a, b) for a in space.carrier for b in space.carrier]


INF = math.inf


@pytest.mark.parametrize("species, rows, axiom, witness", [
    # p and q share a row and a column (the infinite block hides their own
    # pairs from QM4) but differ in species: only q's relation row fails at r.
    ("xyx", [[INF, INF, 0.0], [INF, INF, 0.0], [0.0, 0.0, 0.0]], "QM4", ("q", "r")),
    # p and q share a row but not a column: p's row is symmetric, q's is not.
    ("xxx", [[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [0.5, 0.75, 0.0]], "QM5", ("q", "r")),
])
def test_repeated_row_key_keeps_the_first_witness(species, rows, axiom, witness):
    carrier = ("p", "q", "r")
    universe = Universe(species=sorted(set(species)),
                        atoms=[Atom(t, MICRO, sp) for t, sp in zip(carrier, species)])
    distances = {(a, b): d for a, row in zip(carrier, rows) for b, d in zip(carrier, row)}
    space = QuasiMetricSpace(carrier, distances)
    reports = verify_qm_axioms(space, universe)
    assert reports == reference_verify_qm_axioms(space, universe)
    assert AxiomReport(axiom, False, witness) in reports


NAN = math.nan


@pytest.mark.parametrize("carrier, rows", [
    (("ghost",), [[NAN]]),
    (("a", "ghost"), [[0.0, 0.5], [NAN, NAN]]),
], ids=["alone", "after-a-known-term"])
def test_unknown_term_raises_before_any_report(carrier, rows):
    # The reference calls the relation lazily, so on ("ghost",) it reports QM2/QM5
    # witnesses; the library raises on a term missing from the universe, whatever its
    # row holds, before any report.
    universe = Universe(species=["x"], atoms=[Atom("a", MICRO, "x")])
    distances = {(a, b): d for a, row in zip(carrier, rows) for b, d in zip(carrier, row)}
    space = QuasiMetricSpace(carrier, distances)
    for relation in (None, indist):
        with pytest.raises(UnknownTerm) as exc:
            verify_qm_axioms(space, universe, relation=relation)
        assert str(exc.value) == "unknown term 'ghost'"
