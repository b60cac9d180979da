"""Finite-model semantics: indistinguishability, identity, and the axioms."""

import os
import pickle
import subprocess
import sys
import time
from random import Random

import pytest

from conftest import (
    plant_unrepeated_collection_key,
    random_universe,
    relabel_micro_uids,
    relabel_species,
    theorem_outcomes,
)
from indist.quasiset import (
    MACRO,
    MICRO,
    Atom,
    AxiomReport,
    EmptyClass,
    MalformedUniverse,
    NotAQset,
    NotSingleton,
    PreconditionViolated,
    UnknownTerm,
    Universe,
    check_equivalence_axioms,
    check_substitutivity_surrogate,
    ext_identity,
    indist,
    indist_class,
    is_classical_qset,
    permutation_theorem_check,
    qset_difference,
    qset_union,
    quasi_cardinality,
    quasi_function_check,
    singleton_sub,
    singleton_sub_choices,
)


@pytest.fixture
def photons():
    """Three photons plus one two-photon qset."""
    return Universe(
        species=["photon"],
        atoms=[Atom(n, MICRO, "photon") for n in "abc"],
        qsets={"x": ["a", "b"], "y": ["b", "c"]},
    )


@pytest.fixture
def mixed():
    """Two photons, one electron, one macro-atom, singleton qsets."""
    return Universe(
        species=["photon", "electron"],
        atoms=[
            Atom("p1", MICRO, "photon"),
            Atom("p2", MICRO, "photon"),
            Atom("e1", MICRO, "electron"),
            Atom("big", MACRO),
        ],
        qsets={"sa": ["p1"], "sb": ["p2"], "holder": ["big"]},
    )


class TestIndist:
    def test_same_species_micro_atoms(self, photons):
        assert indist(photons, "a", "b")

    def test_micro_vs_macro(self, mixed):
        assert not indist(mixed, "p1", "big")

    def test_different_species(self, mixed):
        assert not indist(mixed, "p1", "e1")

    def test_qsets_with_equal_signatures(self, photons):
        # {a,b} and {b,c} both hold two photons: the permutation payload.
        assert indist(photons, "x", "y")
        assert indist(photons, frozenset({"b", "c"}), "x")

    def test_qset_never_indistinguishable_from_atom(self, photons):
        assert not indist(photons, "x", "a")

    def test_nested_signatures(self):
        u = Universe(
            species=["photon"],
            atoms=[Atom(n, MICRO, "photon") for n in "abcd"],
            qsets={"inner1": ["a", "b"], "inner2": ["c", "d"],
                   "outer1": ["inner1"], "outer2": ["inner2"]},
        )
        assert indist(u, "outer1", "outer2")
        # A nested pair is not the same as its flattened contents.
        assert not indist(u, "outer1", "inner1")

    def test_unknown_term(self, photons):
        with pytest.raises(UnknownTerm):
            indist(photons, "a", "ghost")


class TestExtIdentity:
    def test_reflexive_on_qsets(self, photons):
        assert ext_identity(photons, "x", "x")

    def test_macros_sharing_memberships(self):
        u = Universe(
            species=[],
            atoms=[Atom("M1", MACRO), Atom("M2", MACRO)],
            qsets={"s": ["M1", "M2"]},
        )
        # Definition-level coarseness: nothing in the model tells them apart.
        assert ext_identity(u, "M1", "M2")
        assert indist(u, "M1", "M2")

    def test_indist_without_ext_identity(self, photons):
        # {a} and {b} hold one photon each but different members.
        a_only, b_only = frozenset({"a"}), frozenset({"b"})
        assert indist(photons, a_only, b_only)
        assert not ext_identity(photons, a_only, b_only)

    def test_unknown_term(self, photons):
        with pytest.raises(UnknownTerm, match="unknown term 'zz'"):
            ext_identity(photons, "a", "zz")

    def test_micro_atoms_never_ext_identical(self, photons):
        assert not ext_identity(photons, "a", "a")
        assert not ext_identity(photons, "a", "b")

    def test_ext_identity_entails_indist_on_random_universes(self):
        rng = Random(31)
        for _ in range(100):
            u = random_universe(rng)
            terms = u.terms()
            for a in terms:
                for b in terms:
                    if ext_identity(u, a, b):
                        assert indist(u, a, b), (a, b)


class TestQuasiCardinality:
    def test_empty(self):
        u = Universe(qsets={"empty": []})
        assert quasi_cardinality(u, "empty") == 0

    def test_flat(self):
        u = Universe(
            species=["photon"],
            atoms=[Atom(n, MICRO, "photon") for n in "abc"],
            qsets={"all3": ["a", "b", "c"]},
        )
        assert quasi_cardinality(u, "all3") == 3

    def test_nesting_counts_as_one(self):
        u = Universe(
            species=["photon"],
            atoms=[Atom(n, MICRO, "photon") for n in "abc"],
            qsets={"inner": ["b", "c"], "outer": ["a", "inner"]},
        )
        assert quasi_cardinality(u, "outer") == 2

    def test_atom_is_not_a_qset(self, photons):
        with pytest.raises(NotAQset):
            quasi_cardinality(photons, "a")

    def test_unknown_term(self, photons):
        with pytest.raises(UnknownTerm):
            quasi_cardinality(photons, "nope")

    def test_invariant_under_indist(self):
        rng = Random(17)
        for _ in range(100):
            u = random_universe(rng)
            qnames = sorted(u.qsets)
            for i, q1 in enumerate(qnames):
                for q2 in qnames[i:]:
                    if indist(u, q1, q2):
                        assert quasi_cardinality(u, q1) == quasi_cardinality(u, q2)


class TestIndistClass:
    def test_photon_class(self, photons):
        assert indist_class(photons, "a") == frozenset({"a", "b", "c"})

    def test_macro_class_is_singleton(self, mixed):
        assert indist_class(mixed, "big") == frozenset({"big"})

    def test_mixed_universe(self, mixed):
        assert indist_class(mixed, "p1") == frozenset({"p1", "p2"})
        assert indist_class(mixed, "e1") == frozenset({"e1"})


class TestSingletonSub:
    def test_forced_choice(self):
        u = Universe(species=["photon"], atoms=[Atom("a", MICRO, "photon")])
        assert singleton_sub(u, "a") == frozenset({"a"})

    def test_all_choices(self, photons):
        choices = singleton_sub_choices(u=photons, z="a", x="x")
        assert set(choices) == {frozenset({"a"}), frozenset({"b"})}

    def test_empty_class(self, mixed):
        with pytest.raises(EmptyClass):
            singleton_sub(mixed, "e1", x="sa")  # no electron inside {p1}


class TestUnionDifference:
    def test_union(self, mixed):
        assert qset_union(mixed, "sa", "sb") == frozenset({"p1", "p2"})

    def test_difference(self, photons):
        assert qset_difference(photons, "x", frozenset({"a"})) == frozenset({"b"})

    def test_difference_needs_singleton(self, photons):
        with pytest.raises(NotSingleton):
            qset_difference(photons, "x", frozenset({"a", "b"}))

    def test_difference_element_must_be_member(self, photons):
        with pytest.raises(ValueError):
            qset_difference(photons, "x", frozenset({"c"}))

    def test_cardinality_additive_on_disjoint(self):
        rng = Random(8)
        for _ in range(50):
            u = random_universe(rng)
            qnames = sorted(u.qsets)
            for i, q1 in enumerate(qnames):
                for q2 in qnames[i + 1 :]:
                    if not (u.qsets[q1] & u.qsets[q2]):
                        expected = quasi_cardinality(u, q1) + quasi_cardinality(u, q2)
                        assert len(qset_union(u, q1, q2)) == expected


class TestPermutationTheorem:
    def test_basic_instance(self, photons):
        report = permutation_theorem_check(photons, "x", "a", "c")
        assert report.holds and report.counterexample is None

    def test_forbidden_when_x_is_the_whole_class(self):
        u = Universe(
            species=["photon"],
            atoms=[Atom("a", MICRO, "photon"), Atom("b", MICRO, "photon")],
            qsets={"x": ["a", "b"]},
        )
        with pytest.raises(PreconditionViolated):
            permutation_theorem_check(u, "x", "a", "b")

    def test_other_preconditions(self, photons, mixed):
        with pytest.raises(PreconditionViolated):
            permutation_theorem_check(photons, "x", "c", "a")  # z not in x
        with pytest.raises(PreconditionViolated):
            permutation_theorem_check(photons, "x", "a", "b")  # w already in x
        with pytest.raises(PreconditionViolated):
            permutation_theorem_check(mixed, "holder", "big", "p1")  # z not micro

    def test_w_preconditions(self, photons, mixed):
        with pytest.raises(PreconditionViolated, match="w = 'y' is not an atom"):
            permutation_theorem_check(photons, "x", "a", "y")  # w a qset
        with pytest.raises(PreconditionViolated, match="w = 'e1' is not indistinguishable"):
            permutation_theorem_check(mixed, "sa", "p1", "e1")  # w of another species

    def test_anonymous_x(self, photons):
        report = permutation_theorem_check(photons, frozenset({"a", "c"}), "a", "b")
        assert report.holds

    def test_planted_key_fault_fails_at_the_first_removal(self, photons, monkeypatch):
        # Each removal z1 may be put back as w1 = z1, so (x - z1) + w1 is x itself and a
        # correct model always holds; only a model fault reaches the failing branch.
        plant_unrepeated_collection_key(monkeypatch)
        report = permutation_theorem_check(photons, "x", "a", "c")
        assert report == AxiomReport("permutation", False, counterexample=("a",))

    def test_one_signature_per_removal(self, monkeypatch):
        # Here the first w1 outside x - z1 is z1 itself, which puts x back together.
        u = Universe(species=["p"], atoms=[Atom(n, MICRO, "p") for n in "abcd"],
                     qsets={"x": ["a", "b", "c"]})
        calls, key = [], Universe._collection_key
        monkeypatch.setattr(Universe, "_collection_key",
                            lambda u, members: calls.append(members) or key(u, members))
        assert permutation_theorem_check(u, "x", "a", "d").holds
        assert len(calls) == 4  # x's key, then one per removal a, b, c


class TestEquivalenceAxioms:
    def test_model_satisfies_q1_q2_q3(self, photons, mixed):
        for u in (photons, mixed):
            assert all(r.holds for r in check_equivalence_axioms(u))

    def test_empty_universe_vacuously_holds(self):
        assert all(r.holds for r in check_equivalence_axioms(Universe()))

    def test_corrupted_relation_breaks_transitivity(self, photons):
        # Distance-threshold lookalike: a~b and b~c but not a~c.
        position = {"a": 0.0, "b": 0.6, "c": 1.2, "x": 5.0, "y": 7.0}

        def close(u, s, t):
            return abs(position[str(s)] - position[str(t)]) <= 1.0

        reports = {r.axiom: r for r in check_equivalence_axioms(photons, relation=close)}
        assert reports["Q1"].holds and reports["Q2"].holds
        assert not reports["Q3"].holds
        a, b, c = reports["Q3"].counterexample
        assert close(photons, a, b) and close(photons, b, c) and not close(photons, a, c)

    def test_exhaustive_on_small_random_universes(self):
        rng = Random(4)
        for _ in range(60):
            u = random_universe(rng, max_micro=4, max_macro=2, max_qsets=2)
            assert len(u.terms()) <= 8
            assert all(r.holds for r in check_equivalence_axioms(u))


class TestSubstitutivitySurrogate:
    def test_literal_same_term(self, photons):
        assert check_substitutivity_surrogate(photons, "x", "x").holds

    def test_ext_identical_macros_agree_everywhere(self):
        u = Universe(
            species=[],
            atoms=[Atom("M1", MACRO), Atom("M2", MACRO), Atom("M3", MACRO)],
            qsets={"s": ["M1", "M2"], "t": ["M3"]},
        )
        report = check_substitutivity_surrogate(u, "M1", "M2")
        assert report.holds

    def test_refuses_indistinguishable_but_not_identical(self, photons):
        with pytest.raises(PreconditionViolated):
            check_substitutivity_surrogate(photons, "a", "b")

    @pytest.mark.parametrize("x, y, counterexample", [
        ("q1", "q2", ("membership", "Q")),
        (frozenset({"a"}), "q1", ("membership", "Q")),
        ("q1", frozenset({"a"}), ("membership", "Q")),
        (frozenset({"a", "b"}), "x", None),
    ], ids=["named-twins", "anonymous-first", "anonymous-second", "held-by-none"])
    def test_membership(self, x, y, counterexample):
        # q1 and q2 have the same members, but only q1 belongs to Q; no qset holds x.
        u = Universe(
            species=["photon"],
            atoms=[Atom(n, MICRO, "photon") for n in "abc"],
            qsets={"q1": ["a"], "q2": ["a"], "Q": ["q1"], "x": ["a", "b"]},
        )
        report = check_substitutivity_surrogate(u, x, y)
        assert report.holds == (counterexample is None)
        assert report.counterexample == counterexample


class TestQuasiFunction:
    def test_identity_pairing(self, photons):
        u = Universe(
            species=["photon"],
            atoms=[Atom(n, MICRO, "photon") for n in "ab"],
            qsets={"dom": ["a", "b"]},
        )
        report = quasi_function_check(u, [("a", "a"), ("b", "b")], "dom", "dom")
        assert report.holds

    def test_congruence_violation(self, mixed):
        pairs = [("p1", "p1"), ("p2", "e1")]
        report = quasi_function_check(
            mixed, pairs, frozenset({"p1", "p2"}), frozenset({"p1", "e1"})
        )
        assert not report.holds
        assert report.counterexample[0] == "congruence"

    def test_totality_violation(self, mixed):
        report = quasi_function_check(
            mixed, [("p1", "p1")], frozenset({"p1", "p2"}), frozenset({"p1"})
        )
        assert not report.holds
        assert report.counterexample == ("totality", "p2")


@pytest.fixture
def terms():
    """A photon; macro-atoms M and N with the same holders, P with others; qsets q and r."""
    return Universe(
        species=["photon"],
        atoms=[Atom("a", MICRO, "photon"), Atom("M", MACRO), Atom("N", MACRO), Atom("P", MACRO)],
        qsets={"q": ["a", "M", "N"], "r": ["a", "P"]},
    )


QSET_PARTNERS = {"qset": "q", "anonymous": frozenset({"a"})}
PARTNERS = {**QSET_PARTNERS, "micro": "a", "macro": "M"}
TERM_POSITIONS = {
    "ext_identity-x": (lambda u, t, o: ext_identity(u, t, o), PARTNERS),
    "ext_identity-y": (lambda u, t, o: ext_identity(u, o, t), PARTNERS),
    "substitutivity-x": (lambda u, t, o: check_substitutivity_surrogate(u, t, o), PARTNERS),
    "substitutivity-y": (lambda u, t, o: check_substitutivity_surrogate(u, o, t), PARTNERS),
    "domain": (lambda u, t, o: quasi_function_check(u, [], t, o), QSET_PARTNERS),
    "codomain": (lambda u, t, o: quasi_function_check(u, [], o, t), QSET_PARTNERS),
    "permutation-z": (lambda u, t, o: permutation_theorem_check(u, "r", t, o), PARTNERS),
    "permutation-w": (lambda u, t, o: permutation_theorem_check(u, "r", o, t), PARTNERS),
}


class TestUnknownTermContract:
    """Each term position resolves its term as ``indist`` does, whatever the other term is."""

    @pytest.mark.parametrize("bad", ["zz", frozenset({"a", "zz"})], ids=["name", "anonymous"])
    @pytest.mark.parametrize("call,partner", [
        pytest.param(call, partner, id=f"{position}-{kind}")
        for position, (call, partners) in TERM_POSITIONS.items()
        for kind, partner in partners.items()
    ])
    def test_unknown_term_raises_as_in_indist(self, terms, call, partner, bad):
        with pytest.raises(UnknownTerm):
            indist(terms, bad, partner)
        with pytest.raises(UnknownTerm):
            call(terms, bad, partner)

    @pytest.mark.parametrize("atom", ["a", "M"])
    def test_atom_codomain_is_not_a_qset(self, terms, atom):
        with pytest.raises(NotAQset):
            quasi_function_check(terms, [("a", "a")], "r", atom)

    @pytest.mark.parametrize("atom", ["a", "M"])
    def test_anonymous_list_against_an_atom_is_false(self, terms, atom):
        assert not ext_identity(terms, ["a"], atom)
        assert not ext_identity(terms, atom, ["a"])

    def test_macros_are_ext_identical_exactly_when_their_holders_agree(self, terms):
        assert ext_identity(terms, "M", "N")
        assert not ext_identity(terms, "M", "P")


class TestUniverseConstruction:
    def test_duplicate_atom(self):
        with pytest.raises(MalformedUniverse):
            Universe(species=["s"], atoms=[Atom("a", MICRO, "s"), Atom("a", MICRO, "s")])

    def test_unregistered_species(self):
        with pytest.raises(MalformedUniverse):
            Universe(species=[], atoms=[Atom("a", MICRO, "ghost")])

    def test_unknown_member(self):
        with pytest.raises(MalformedUniverse):
            Universe(qsets={"x": ["nothing"]})

    def test_many_macros_build_in_one_membership_pass(self):
        # Each macro's holders come from one pass over the memberships, not
        # from a scan of every qset per macro.
        n = 20_000
        atoms = [Atom(f"M{i}", MACRO) for i in range(n)]
        qsets = {f"q{i}": [f"M{i}", f"M{(i + 1) % n}"] for i in range(n)}
        started = time.process_time()
        u = Universe(atoms=atoms, qsets=qsets)
        elapsed = time.process_time() - started
        assert elapsed < 5.0, f"Universe with {n} macros took {elapsed:.2f} s"
        assert u.macro_fingerprint("M0") == {"q0", f"q{n - 1}"}
        assert indist_class(u, "M0") == {"M0"}

    def test_cycle_rejected(self):
        with pytest.raises(MalformedUniverse):
            Universe(qsets={"x": ["y"], "y": ["x"]})

    def test_kind_validation(self):
        with pytest.raises(MalformedUniverse):
            Atom("a", "meso")
        with pytest.raises(MalformedUniverse):
            Atom("a", MICRO)  # species required
        with pytest.raises(MalformedUniverse):
            Atom("a", MACRO, "photon")  # species forbidden

    @pytest.mark.parametrize("build,term", [
        (lambda: Atom("a", "meso"), "a"),
        (lambda: Atom("a", MICRO), "a"),
        (lambda: Atom("a", MACRO, "photon"), "a"),
        (lambda: Universe(species=["s"], atoms=[Atom("a", MICRO, "s")] * 2), "a"),
        (lambda: Universe(atoms=[Atom("a", MICRO, "ghost")]), "a"),
        (lambda: Universe(atoms=[Atom("a", MACRO)], qsets={"a": []}), "a"),
        (lambda: Universe(atoms=[Atom("a", MACRO)], qsets={"w": ["a"], "x": ["b"]}), "x"),
        (lambda: Universe(qsets={"w": [], "x": ["w", "x"]}), "x"),
    ], ids=["kind", "no-species", "macro-species", "duplicate-atom", "unregistered-species",
            "duplicate-name", "unknown-member", "cycle"])
    def test_error_names_the_faulty_entry(self, build, term):
        with pytest.raises(MalformedUniverse) as info:
            build()
        assert info.value.term == term

    def test_unknown_member_is_the_first_listed(self):
        with pytest.raises(MalformedUniverse) as info:
            Universe(qsets={"x": ["p", "q", "r"]})
        assert str(info.value) == "qset 'x' references unknown term 'p'"
        with pytest.raises(MalformedUniverse) as info:
            Universe(atoms=[Atom("M", MACRO)], qsets={"w": ["M"], "x": ["M", "r", "q", "p"]})
        assert str(info.value) == "qset 'x' references unknown term 'r'"

    def test_cycle_is_named_in_listed_order(self):
        # The walk starts at x and follows q before r, so it re-enters q first.
        with pytest.raises(MalformedUniverse) as info:
            Universe(qsets={"x": ["q", "r"], "q": ["r"], "r": ["q"]})
        assert str(info.value) == "qset 'q' contains itself (directly or transitively)"
        assert info.value.term == "q"


class TestAtomRecord:
    @pytest.mark.parametrize("build", [
        lambda: Atom("a", MICRO, "s")._replace(kind="meso"),
        lambda: Atom._make(("a", MICRO, None)),
        lambda: Atom("a", MACRO)._replace(species="s"),
    ], ids=["replace-kind", "make-no-species", "replace-macro-species"])
    def test_make_and_replace_check_like_the_constructor(self, build):
        with pytest.raises(MalformedUniverse, match="'a'") as info:
            build()
        assert info.value.term == "a"

    def test_replace_and_pickle_keep_the_type(self):
        atom = Atom("a", MICRO, "s")
        for twin in (atom._replace(uid="b"), pickle.loads(pickle.dumps(atom))):
            assert type(twin) is Atom
        assert pickle.loads(pickle.dumps(atom)) == atom


class TestClassicalFlag:
    def test_no_micro_content(self, mixed):
        assert is_classical_qset(mixed, "holder")
        assert not is_classical_qset(mixed, "sa")

    def test_hereditary(self):
        u = Universe(
            species=["photon"],
            atoms=[Atom("p", MICRO, "photon"), Atom("M", MACRO)],
            qsets={"inner": ["p"], "outer": ["M", "inner"], "pure": ["M"]},
        )
        assert not is_classical_qset(u, "outer")
        assert is_classical_qset(u, "pure")


class TestUidRelabeling:
    def test_observations_survive_micro_uid_permutation(self):
        rng = Random(55)
        for _ in range(40):
            u = random_universe(rng)
            u2, name_map = relabel_micro_uids(u, rng)
            terms = u.terms()
            for s in terms:
                for t in terms:
                    assert indist(u, s, t) == indist(u2, name_map[s], name_map[t])
                    assert ext_identity(u, s, t) == ext_identity(u2, name_map[s], name_map[t])
                assert len(indist_class(u, s)) == len(indist_class(u2, name_map[s]))
            for q in u.qsets:
                assert quasi_cardinality(u, q) == quasi_cardinality(u2, q)

    def test_species_relabeling_changes_nothing(self):
        rng = Random(77)
        for _ in range(40):
            u = random_universe(rng)
            u2 = relabel_species(u, rng)
            terms = u.terms()
            for s in terms:
                for t in terms:
                    assert indist(u, s, t) == indist(u2, s, t)
            assert theorem_outcomes(u) == theorem_outcomes(u2)


class TestDeepNesting:
    DEPTH = 3000

    def chain(self, members_first):
        qsets = {"q0": ["a"], **{f"q{i}": [f"q{i - 1}"] for i in range(1, self.DEPTH)}}
        names = list(qsets) if members_first else list(reversed(qsets))
        return Universe(
            species=["s"], atoms=[Atom("a", MICRO, "s"), Atom("M", MACRO)],
            qsets={name: qsets[name] for name in names},
        )

    @pytest.mark.parametrize("members_first", [True, False])
    def test_deep_chain_is_checked_without_recursion(self, members_first):
        u = self.chain(members_first)
        top = f"q{self.DEPTH - 1}"
        assert not is_classical_qset(u, top)
        assert indist_class(u, top) == frozenset({top})
        assert indist(u, frozenset({f"q{self.DEPTH - 2}"}), top)
        assert not indist(u, top, f"q{self.DEPTH - 2}")

    def test_deep_cycle_rejected(self):
        qsets = {f"q{i}": [f"q{(i + 1) % self.DEPTH}"] for i in range(self.DEPTH)}
        with pytest.raises(MalformedUniverse, match="contains itself"):
            Universe(qsets=qsets)


# Prints the error for an anonymous qset with three unknown members, given as
# a list in caller's order and as a set.
ANONYMOUS_UNKNOWNS_CHILD = """
from indist.quasiset import Universe, UnknownTerm, indist
for members in (["r", "q", "p"], {"p", "q", "r"}):
    try:
        indist(Universe(qsets={"x": []}), members, "x")
    except UnknownTerm as exc:
        print(exc)
"""


class TestAnonymousQsetHashSeed:
    def test_unknown_member_named_the_same_under_two_seeds(self):
        outputs = [subprocess.run([sys.executable, "-c", ANONYMOUS_UNKNOWNS_CHILD],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONHASHSEED": seed}).stdout
                   for seed in ("0", "1")]
        # The first unknown in the list's order; the least one of the set.
        assert outputs == ["unknown term 'r' in anonymous qset\n"
                           "unknown term 'p' in anonymous qset\n"] * 2


class TestAnonymousQsetUnknownMember:
    """An anonymous qset with members missing from the universe names one of them."""

    @pytest.mark.parametrize("members", [["a", "r", "q", "p"], ("a", "r", "q", "p")],
                             ids=["list", "tuple"])
    def test_sequence_names_its_first_unknown(self, photons, members):
        with pytest.raises(UnknownTerm) as exc:
            indist(photons, members, "x")
        assert str(exc.value) == "unknown term 'r' in anonymous qset"

    def test_set_names_its_least_unknown_by_repr(self, photons):
        # repr("z'") starts with '"', which sorts before the quote of repr("p").
        with pytest.raises(UnknownTerm) as exc:
            indist(photons, {"a", "p", "z'"}, "x")
        assert str(exc.value) == "unknown term \"z'\" in anonymous qset"
