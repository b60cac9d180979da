"""Interned signatures, bitset Q1-Q3, per-orbit theorem checks and witnesses against references.

``reference_check_equivalence_axioms`` is the lazy triple loop that the
bitset checks replaced, and ``reference_signature`` the recursive
nested-tuple signature that the interned ints replaced; both are kept
verbatim as oracles.  Reports, counterexamples, indistinguishability and
classes must agree exactly, for any relation, including non-reflexive,
asymmetric and intransitive ones.  ``reference_separation_witnesses`` is
the pairwise scan that the per-class ``cli._separation_witnesses`` replaced.
``reference_substitutivity_surrogate`` also compares the quasi-cardinality
and the class, which ext identity already decides; the surrogate must
return its report, or raise its exception type, for every pair of terms.
The interned ints depend on the order a universe lists its atoms, qsets and
members; ``test_listing_order_changes_no_observation`` checks that nothing
observable does.
"""

import io
from collections import Counter
from random import Random

from hypothesis import given, settings, strategies as st

import indist.quasiset as quasiset
from conftest import (
    admissible_theorem_instances,
    random_universe,
    relabel_micro_uids,
    relabel_species,
    theorem_outcomes,
)
from indist import cli
from indist.cli import _separation_witnesses
from indist.quasiset import (
    MACRO,
    MICRO,
    Atom,
    AxiomReport,
    PreconditionViolated,
    Universe,
    check_equivalence_axioms,
    check_substitutivity_surrogate,
    ext_identity,
    indist,
    indist_class,
    is_classical_qset,
    permutation_theorem_check,
    quasi_cardinality,
    theorem_instances,
)


def reference_check_equivalence_axioms(u, relation=None):
    rel = relation if relation is not None else indist
    terms = u.terms()

    q1 = AxiomReport("Q1", True)
    for t in terms:
        if not rel(u, t, t):
            q1 = AxiomReport("Q1", False, counterexample=(t,))
            break

    q2 = AxiomReport("Q2", True)
    for a in terms:
        for b in terms:
            if rel(u, a, b) != rel(u, b, a):
                q2 = AxiomReport("Q2", False, counterexample=(a, b))
                break
        if not q2.holds:
            break

    q3 = AxiomReport("Q3", True)
    for a in terms:
        for b in terms:
            if not rel(u, a, b):
                continue
            for c in terms:
                if rel(u, b, c) and not rel(u, a, c):
                    q3 = AxiomReport("Q3", False, counterexample=(a, b, c))
                    break
            if not q3.holds:
                break
        if not q3.holds:
            break

    return [q1, q2, q3]


def reference_signature(u, x):
    """Hereditary species-count signature as a nested tuple (names or member sets)."""
    if isinstance(x, str) and x in u.atoms:
        atom = u.atoms[x]
        if atom.kind == MICRO:
            return ("m", atom.species)
        group = [m for m in u.atoms if u.is_macro(m)
                 and u.macro_fingerprint(m) == u.macro_fingerprint(x)]
        return ("M", min(group))
    members = u.qsets[x] if isinstance(x, str) else x
    counts = Counter(reference_signature(u, m) for m in members)
    return ("q", tuple(sorted(counts.items())))


def reference_is_classical(u, x):
    members = u.qsets[x] if isinstance(x, str) else x
    return all(
        not u.is_micro(m) and (not u.is_qset(m) or reference_is_classical(u, m))
        for m in members
    )


@st.composite
def universes(draw):
    """Micro- and macro-atoms and qsets that may nest earlier qsets."""
    species = [f"sp{i}" for i in range(draw(st.integers(1, 3)))]
    n_micro = draw(st.integers(0, 7))
    atoms = [Atom(f"m{i}", MICRO, draw(st.sampled_from(species))) for i in range(n_micro)]
    atoms += [Atom(f"M{i}", MACRO) for i in range(draw(st.integers(0, 3)))]
    pool = [a.uid for a in atoms]
    qsets = {}
    for j in range(draw(st.integers(0, 5))):
        members = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True)) if pool else []
        qsets[f"q{j}"] = members
        pool.append(f"q{j}")
    return Universe(species=species, atoms=atoms, qsets=qsets)


@st.composite
def relations(draw, u):
    """A boolean relation on the terms: arbitrary, symmetric, or a partition, then flipped."""
    terms = u.terms()
    n = len(terms)
    kind = draw(st.sampled_from(["arbitrary", "symmetric", "partition"]))
    if kind == "partition":
        label = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        pairs = {(a, b) for i, a in enumerate(terms) for j, b in enumerate(terms)
                 if label[i] == label[j]}
    else:
        bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        pairs = {(a, b) for i, a in enumerate(terms) for j, b in enumerate(terms)
                 if bits[i * n + j] or (kind == "symmetric" and bits[j * n + i])}
    if n:
        flips = draw(st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(terms)),
                              max_size=2))
        pairs ^= set(flips)
    return lambda _, a, b: (a, b) in pairs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_equivalence_reports_match_reference(data):
    u = data.draw(universes())
    relation = data.draw(st.one_of(st.none(), relations(u)))
    assert check_equivalence_axioms(u, relation) == (
        reference_check_equivalence_axioms(u, relation)
    )


def test_equivalence_counterexamples_on_every_axiom():
    u = Universe(species=["s"], atoms=[Atom(n, MICRO, "s") for n in "abc"])
    # b ~ a, a ~ c and b ~ b only: Q1 fails at a, Q2 at (a, b), Q3 at (b, a, c).
    pairs = {("b", "a"), ("a", "c"), ("b", "b")}

    def rel(_, s, t):
        return (s, t) in pairs

    reports = check_equivalence_axioms(u, rel)
    assert reports == reference_check_equivalence_axioms(u, rel)
    assert [r.counterexample for r in reports] == [("a",), ("a", "b"), ("b", "a", "c")]


@settings(max_examples=200, deadline=None)
@given(u=universes(), data=st.data())
def test_signatures_match_nested_tuple_reference(u, data):
    terms = u.terms()
    anonymous = [
        frozenset(data.draw(st.lists(st.sampled_from(terms), max_size=4, unique=True)))
        for _ in range(3)
    ] if terms else [frozenset()]
    for s in list(terms) + anonymous:
        for t in list(terms) + anonymous:
            assert indist(u, s, t) == (reference_signature(u, s) == reference_signature(u, t))
        assert indist_class(u, s) == frozenset(
            t for t in terms if reference_signature(u, t) == reference_signature(u, s)
        )
    for x in list(u.qsets) + anonymous:
        assert is_classical_qset(u, x) == reference_is_classical(u, x)


def universe_text(u, rng=None):
    """The universe file of ``u``; with ``rng``, its entry lines and members are shuffled."""
    order = (lambda xs: rng.sample(xs, len(xs))) if rng else list
    atoms = [f"  {a.uid} {a.kind}" + (f" {a.species}" if a.species else "")
             for a in u.atoms.values()]
    qsets = [f"  {name} = {' '.join(order(sorted(ms)))}" for name, ms in u.qsets.items()]
    return "\n".join([f"species: {' '.join(sorted(u.species))}", "atoms:", *order(atoms),
                      "qsets:", *order(qsets), ""])


@settings(max_examples=200, deadline=None)
@given(u=universes(), rng=st.randoms(use_true_random=False))
def test_listing_order_changes_no_observation(tmp_path_factory, u, rng):
    # The draws list every qset after its members; a shuffle lists containers
    # first as often as not, so the members-first walk meets them out of order.
    atoms = rng.sample(list(u.atoms.values()), len(u.atoms))
    qsets = {name: rng.sample(sorted(u.qsets[name]), len(u.qsets[name]))
             for name in rng.sample(list(u.qsets), len(u.qsets))}
    v = Universe(u.species, atoms, qsets)
    terms = u.terms()
    assert v.terms() == terms
    for s in terms:
        assert [indist(v, s, t) for t in terms] == [indist(u, s, t) for t in terms]
        assert indist_class(v, s) == indist_class(u, s)
    assert [is_classical_qset(v, x) for x in u.qsets] == [is_classical_qset(u, x) for x in u.qsets]
    assert check_equivalence_axioms(v) == check_equivalence_axioms(u)
    assert list(theorem_instances(v)) == list(theorem_instances(u))

    path = tmp_path_factory.getbasetemp() / "listing_order.univ"
    reports = []
    for text in (universe_text(u), universe_text(u, rng)):
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        reports.append((cli.main(["qset-check", str(path)], stdout=out), out.getvalue()))
    assert reports[0] == reports[1]
    assert reports[0][0] in (0, 4)


def reference_separation_witnesses(u):
    """The former pairwise scan: a < b in terms() order, indist but not ext-identical."""
    terms = u.terms()
    return [[a, b] for i, a in enumerate(terms) for b in terms[i + 1 :]
            if indist(u, a, b) and not ext_identity(u, a, b)]


@settings(max_examples=300, deadline=None)
@given(u=universes())
def test_separation_witnesses_match_pairwise_definition(u):
    assert _separation_witnesses(u) == reference_separation_witnesses(u)


def test_separation_witnesses_keep_row_major_order_across_classes():
    # Class {a, d, e} straddles class {b, c}: (a, d), (a, e), (b, c), (d, e).
    species = {"a": "s", "b": "t", "c": "t", "d": "s", "e": "s"}
    u = Universe(species=["s", "t"], atoms=[Atom(n, MICRO, sp) for n, sp in species.items()])
    assert _separation_witnesses(u) == reference_separation_witnesses(u) == [
        ["a", "d"], ["a", "e"], ["b", "c"], ["d", "e"]]


def test_theorem_instances_match_brute_force_oracle():
    rng = Random(91)
    for _ in range(150):
        u = random_universe(rng, max_micro=8, max_macro=3, max_qsets=6)
        rows = list(theorem_instances(u))
        assert [(x, z, w) for x, z, w, _ in rows] == list(admissible_theorem_instances(u))
        assert {(x, z, w): r.holds for x, z, w, r in rows} == theorem_outcomes(u)
        for x, z, w, report in rows:
            assert report == permutation_theorem_check(u, x, z, w)


def test_theorem_instances_check_once_per_orbit(monkeypatch):
    u = Universe(
        species=["p", "e"],
        atoms=[Atom(f"p{i}", MICRO, "p") for i in range(4)]
        + [Atom(f"e{i}", MICRO, "e") for i in range(3)],
        qsets={"x": ["p0", "p1", "e0"], "y": ["p2", "e1", "e2"]},
    )
    calls = []
    real = quasiset.permutation_theorem_check

    def counting(u, x, z, w):
        calls.append((x, z, w))
        return real(u, x, z, w)

    monkeypatch.setattr(quasiset, "permutation_theorem_check", counting)
    rows = list(theorem_instances(u))
    # x: 1 electron and 2 photons, 2 of each outside; y: 2 electrons with
    # 1 outside and 1 photon with 3 outside.  One check per (qset, species).
    assert len(rows) == 11
    assert calls == [("x", "e0", "e1"), ("x", "p0", "p2"), ("y", "e1", "e0"), ("y", "p2", "p0")]


def test_indist_and_classes_survive_relabeling():
    rng = Random(123)
    for _ in range(60):
        u = random_universe(rng, max_micro=8, max_macro=3, max_qsets=6)
        u2, name_map = relabel_micro_uids(u, rng)
        u3 = relabel_species(u, rng)
        terms = u.terms()
        for s in terms:
            for t in terms:
                assert indist(u, s, t) == indist(u2, name_map[s], name_map[t])
                assert indist(u, s, t) == indist(u3, s, t)
            assert indist_class(u2, name_map[s]) == frozenset(
                name_map[t] for t in indist_class(u, s)
            )
            assert indist_class(u3, s) == indist_class(u, s)
        anonymous = frozenset(rng.sample(terms, min(3, len(terms))))
        assert indist_class(u2, frozenset(name_map[t] for t in anonymous)) == frozenset(
            name_map[t] for t in indist_class(u, anonymous)
        )
        assert indist_class(u3, anonymous) == indist_class(u, anonymous)


@st.composite
def macro_heavy_universes(draw):
    """Up to 12 macro-atoms, each placed by one of a few holder patterns, in nested qsets.

    Sharing patterns makes extensionally identical macros common; qsets may
    also hold micro-atoms and earlier qsets.
    """
    n_qsets = draw(st.integers(0, 6))
    patterns = draw(st.lists(st.frozensets(st.integers(0, max(n_qsets - 1, 0))),
                             min_size=1, max_size=4))
    macros = [f"M{i}" for i in range(draw(st.integers(1, 12)))]
    holders = {m: draw(st.sampled_from(patterns)) for m in macros}
    micros = [f"m{i}" for i in range(draw(st.integers(0, 3)))]
    qsets = {}
    for j in range(n_qsets):
        members = [m for m in macros if j in holders[m]]
        pool = micros + list(qsets)
        if pool:
            members += draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        qsets[f"q{j}"] = members
    atoms = [Atom(m, MICRO, "sp") for m in micros] + [Atom(m, MACRO) for m in macros]
    return Universe(species=["sp"], atoms=atoms, qsets=qsets)


def membership_holders(u, uid):
    """The qsets of u that hold uid, read straight from u.qsets."""
    return frozenset(name for name, members in u.qsets.items() if uid in members)


def membership_signature(u, x):
    """Nested-tuple signature with each macro keyed by its holders read from u.qsets."""
    if x in u.atoms:
        atom = u.atoms[x]
        return ("m", atom.species) if atom.kind == MICRO else ("M", membership_holders(u, x))
    return ("q", frozenset(Counter(membership_signature(u, m) for m in u.qsets[x]).items()))


@settings(max_examples=300, deadline=None)
@given(u=macro_heavy_universes())
def test_macros_match_membership_definition(u):
    macros = [uid for uid in u.atoms if u.is_macro(uid)]
    for a in macros:
        assert u.macro_fingerprint(a) == membership_holders(u, a)
        same = {b for b in macros if membership_holders(u, a) == membership_holders(u, b)}
        assert indist_class(u, a) == same
        for b in macros:
            expected = membership_holders(u, a) == membership_holders(u, b)
            assert ext_identity(u, a, b) == expected
            assert indist(u, a, b) == expected
    terms = u.terms()
    for s in terms:
        for t in terms:
            assert indist(u, s, t) == (membership_signature(u, s) == membership_signature(u, t))


def reference_substitutivity_surrogate(u, x, y):
    """The surrogate that also compared quasi-cardinality and the class after membership."""
    if not ext_identity(u, x, y):
        raise PreconditionViolated("substitutivity applies only to extensionally identical terms")

    for q in sorted(u.qsets):
        x_in = isinstance(x, str) and x in u.qsets[q]
        y_in = isinstance(y, str) and y in u.qsets[q]
        if x_in != y_in:
            return AxiomReport("Q4-surrogate", False, counterexample=("membership", q))

    def qset_like(t):
        return not isinstance(t, str) or t in u.qsets

    if qset_like(x) and qset_like(y):
        if quasi_cardinality(u, x) != quasi_cardinality(u, y):
            return AxiomReport("Q4-surrogate", False, counterexample=("quasi_cardinality",))

    if indist_class(u, x) != indist_class(u, y):
        return AxiomReport("Q4-surrogate", False, counterexample=("indist_class",))

    return AxiomReport("Q4-surrogate", True)


def surrogate_outcome(check, u, x, y):
    """The report, or the type of the ValueError raised."""
    try:
        return check(u, x, y)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(u=st.one_of(universes(), macro_heavy_universes()), data=st.data())
def test_substitutivity_surrogate_matches_reference(u, data):
    # Anonymous terms: each named qset's member set (ext-identical to it), drawn
    # subsets, and an unknown name in either kind of term.
    names = u.terms()
    anonymous = [u.qsets[q] for q in sorted(u.qsets)] + [frozenset(), frozenset({"unknown"})]
    if names:
        anonymous += data.draw(st.lists(st.frozensets(st.sampled_from(names), max_size=4),
                                        max_size=4))
    terms = [*names, "unknown", *anonymous]
    for x in terms:
        for y in terms:
            assert surrogate_outcome(check_substitutivity_surrogate, u, x, y) == (
                surrogate_outcome(reference_substitutivity_surrogate, u, x, y))
