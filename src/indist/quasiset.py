"""Finite models of a set theory with primitive indistinguishability.

Terms of a :class:`Universe` are micro-atoms (which carry a species but no
observable identity), macro-atoms (ordinary individuals), and qsets (finite
collections given by the names of their members).  Two relations drive
everything:

* ``indist`` (the primitive ``x == y``-replacement): micro-atoms of the same
  species are indistinguishable; macro-atoms are indistinguishable exactly
  when they are extensionally identical; qsets are indistinguishable when
  they contain the same quantities of each indistinguishable kind of
  element, computed hereditarily (weak extensionality).
* ``ext_identity`` (the defined, stricter relation): qsets with the same
  members, or macro-atoms belonging to exactly the same qsets of the
  universe.  Micro-atoms are never extensionally identical to anything,
  which is the point of having them.

Every atom and qset carries a uid so that a computer can store the model.
No observational operation lets a micro-atom's uid leak into a boolean or a
count; the test suite checks this by relabeling uids and comparing results.

Anywhere a "term" is expected, a string names an atom or qset registered in
the universe, and a set/frozenset of such names denotes an anonymous qset of
those members (handy for derived collections such as ``x - z1``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

MICRO = "micro"
MACRO = "macro"

Term = Union[str, frozenset, set]


class UnknownTerm(ValueError):
    """Name does not refer to any atom or qset of the universe."""


class NotAQset(ValueError):
    """Operation needs a qset but was handed an atom."""


class EmptyClass(ValueError):
    """No indistinguishable partner exists to choose from."""


class NotSingleton(ValueError):
    """Operation needs a one-element qset."""


class PreconditionViolated(ValueError):
    """A theorem hypothesis does not hold for the given instance."""


class MalformedUniverse(ValueError):
    """Universe description is internally inconsistent; ``term`` names the faulty entry."""

    def __init__(self, message: str, term: str):
        super().__init__(message)
        self.term = term


class _AtomFields(NamedTuple):
    uid: str
    kind: str
    species: Optional[str] = None


class Atom(_AtomFields):
    """Atomic term: kind is exactly one of micro/macro, species micro-only."""

    __slots__ = ()

    def __new__(cls, uid: str, kind: str, species: Optional[str] = None) -> Atom:
        if kind not in (MICRO, MACRO):
            raise MalformedUniverse(f"atom {uid!r} has unknown kind {kind!r}", uid)
        if kind == MICRO and species is None:
            raise MalformedUniverse(f"micro-atom {uid!r} needs a species", uid)
        if kind == MACRO and species is not None:
            raise MalformedUniverse(f"macro-atom {uid!r} must not carry a species", uid)
        return super().__new__(cls, uid, kind, species)

    @classmethod
    def _make(cls, iterable: Iterable) -> Atom:  # namedtuple's skips __new__; _replace calls it
        return cls(*iterable)


class AxiomReport(NamedTuple):
    """Outcome of one checked axiom or theorem instance.

    ``holds`` false comes with a counterexample tuple that can be replayed
    against the same universe to re-derive the failure.
    """

    axiom: str
    holds: bool
    counterexample: Optional[tuple] = None


class Universe:
    """Immutable finite model: species registry, atoms, and named qsets.

    ``qsets`` maps a name to the collection of member names; members may be
    atoms or previously meaningful qsets, but cycles are rejected.
    """

    def __init__(
        self,
        species: Iterable[str] = (),
        atoms: Iterable[Atom] = (),
        qsets: Optional[Mapping[str, Iterable[str]]] = None,
    ) -> None:
        self.species = frozenset(species)
        self.atoms: dict[str, Atom] = {}
        for atom in atoms:
            if atom.uid in self.atoms:
                raise MalformedUniverse(f"duplicate atom uid {atom.uid!r}", atom.uid)
            if atom.kind == MICRO and atom.species not in self.species:
                raise MalformedUniverse(
                    f"micro-atom {atom.uid!r} has unregistered species {atom.species!r}", atom.uid
                )
            self.atoms[atom.uid] = atom

        # Listed member order makes the errors below independent of the hash seed.
        listed = {name: tuple(members) for name, members in (qsets or {}).items()}
        self.qsets: dict[str, frozenset[str]] = {}
        for name, members in listed.items():
            if name in self.atoms:
                raise MalformedUniverse(f"duplicate term name {name!r}", name)
            self.qsets[name] = frozenset(members)
        # One pass over the (qset, member) pairs checks every reference and
        # records the qsets holding each macro-atom.  Macro-atoms with the same
        # holders are ext-identical, so the holders key their signature below.
        holders: dict[str, set] = {a.uid: set() for a in self.atoms.values() if a.kind == MACRO}
        for name, members in listed.items():
            for m in members:
                if m in holders:
                    holders[m].add(name)
                elif m not in self.atoms and m not in self.qsets:
                    raise MalformedUniverse(f"qset {name!r} references unknown term {m!r}", name)
        self._macro_fingerprint = macro_keys = {m: frozenset(qs) for m, qs in holders.items()}

        # Hash-consed signatures: each term gets a small int, equal exactly
        # when the hereditary species-count signatures are equal.  A qset's
        # key is the sorted tuple of its members' ints, so members come first.
        self._ids: dict[tuple, int] = {}
        self._sig: dict[str, int] = {}
        self._classical: dict[str, bool] = {}
        for uid, atom in self.atoms.items():
            key = ("m", atom.species) if atom.kind == MICRO else ("M", macro_keys[uid])
            self._sig[uid] = self._ids.setdefault(key, len(self._ids))
            self._classical[uid] = atom.kind == MACRO
        # An iterative DFS signs each qset as it finishes it, so _sig holds the
        # finished terms; a started qset met again before it finishes is a cycle.
        started: set[str] = set()
        for root in listed:
            if root in self._sig:
                continue
            started.add(root)
            stack = [(root, iter(listed[root]))]
            while stack:
                name, members = stack[-1]
                for m in members:
                    if m in self._sig:
                        continue
                    if m in started:
                        raise MalformedUniverse(
                            f"qset {m!r} contains itself (directly or transitively)", m
                        )
                    started.add(m)
                    stack.append((m, iter(listed[m])))
                    break
                else:
                    stack.pop()
                    key = self._collection_key(self.qsets[name])
                    self._sig[name] = self._ids.setdefault(key, len(self._ids))
                    self._classical[name] = all(self._classical[m] for m in listed[name])

        classes: dict[int, list[str]] = {}
        for name, sig in self._sig.items():
            classes.setdefault(sig, []).append(name)
        self._classes = {sig: frozenset(names) for sig, names in classes.items()}

    def _collection_key(self, members: frozenset[str]) -> tuple:
        return ("q", tuple(sorted([self._sig[m] for m in members])))

    # -- lookups ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._sig

    def terms(self) -> tuple[str, ...]:
        """All term names, atoms then qsets, in sorted order."""
        return tuple(sorted(self.atoms)) + tuple(sorted(self.qsets))

    def is_atom(self, name: str) -> bool:
        return name in self.atoms

    def is_micro(self, name: str) -> bool:
        a = self.atoms.get(name)
        return a is not None and a.kind == MICRO

    def is_macro(self, name: str) -> bool:
        a = self.atoms.get(name)
        return a is not None and a.kind == MACRO

    def is_qset(self, name: str) -> bool:
        return name in self.qsets

    def macro_fingerprint(self, uid: str) -> frozenset[str]:
        return self._macro_fingerprint[uid]


def _members(u: Universe, x: Term) -> frozenset[str]:
    """Member names of a qset term (named or anonymous)."""
    if isinstance(x, str):
        if x in u.qsets:
            return u.qsets[x]
        if x in u.atoms:
            raise NotAQset(f"{x!r} is an atom, not a qset")
        raise UnknownTerm(f"unknown term {x!r}")
    ms = frozenset(x)
    if not ms <= u._sig.keys():
        # Name the first unknown in the caller's order, or the least one of a set.
        order = x if isinstance(x, (list, tuple)) else sorted(ms, key=repr)
        bad = next(t for t in order if t not in u)
        raise UnknownTerm(f"unknown term {bad!r} in anonymous qset")
    return ms


def _signature(u: Universe, x: Term) -> Union[int, tuple]:
    # An anonymous qset that no term matches keeps its key, which is never
    # equal to an int, so the universe stays unchanged.
    if isinstance(x, str):
        sig = u._sig.get(x)
        if sig is None:
            raise UnknownTerm(f"unknown term {x!r}")
        return sig
    key = u._collection_key(_members(u, x))
    return u._ids.get(key, key)


def indist(u: Universe, x: Term, y: Term) -> bool:
    """The primitive indistinguishability relation of the model.

    Same-species micro-atoms, ext-identical macro-atoms, and qsets with equal
    hereditary species-count signatures are indistinguishable; a qset is
    never indistinguishable from an atom.
    """
    return _signature(u, x) == _signature(u, y)


def ext_identity(u: Universe, x: Term, y: Term) -> bool:
    """Extensional identity: same members (qsets) or same memberships (macros).

    Micro-atoms are never extensionally identical to anything, themselves
    included.  Terms resolve as in :func:`indist`, which ext identity entails.
    """
    if _signature(u, x) != _signature(u, y):
        return False
    if not isinstance(x, str) or x in u.qsets:  # equal signatures: y is a qset too
        return _members(u, x) == _members(u, y)
    # A macro-atom's signature is keyed by its holders, so equal ints suffice.
    return u.is_macro(x)


def quasi_cardinality(u: Universe, x: Term) -> int:
    """Number of members of a qset, at uid level and top level only."""
    return len(_members(u, x))


def indist_class(u: Universe, z: Term) -> frozenset[str]:
    """The qset [z] of all universe terms indistinguishable from z."""
    return u._classes.get(_signature(u, z), frozenset())


def singleton_sub(u: Universe, z: Term, x: Optional[Term] = None) -> frozenset[str]:
    """A one-element qset {t} with t indistinguishable from z.

    When ``x`` is supplied the element is chosen from x.  The chooser is
    deterministic over uid order; callers needing every admissible choice
    should use :func:`singleton_sub_choices`.
    """
    choices = singleton_sub_choices(u, z, x)
    if not choices:
        raise EmptyClass("no indistinguishable partner available to choose")
    return choices[0]


def singleton_sub_choices(
    u: Universe, z: Term, x: Optional[Term] = None
) -> tuple[frozenset[str], ...]:
    """All one-element qsets {t} with t = z up to indistinguishability."""
    pool = indist_class(u, z)
    if x is not None:
        pool = pool & _members(u, x)
    return tuple(frozenset((t,)) for t in sorted(pool))


def qset_union(u: Universe, x: Term, y: Term) -> frozenset[str]:
    """Union of two qsets at uid level."""
    return _members(u, x) | _members(u, y)


def qset_difference(u: Universe, x: Term, z1: Term) -> frozenset[str]:
    """Remove the single element of z1 from x, at uid level."""
    xm = _members(u, x)
    z1m = _members(u, z1)
    if len(z1m) != 1:
        raise NotSingleton(f"z1 has quasi-cardinality {len(z1m)}, expected 1")
    (elem,) = z1m
    if elem not in xm:
        raise ValueError(f"element {elem!r} of z1 is not a member of x")
    return xm - {elem}


def permutation_theorem_check(u: Universe, x: Term, z: str, w: str) -> AxiomReport:
    """Brute-force one instance of the permutation theorem.

    Hypotheses: x is a finite qset not extensionally identical to [z]; z is a
    micro-atom member of x; w is indistinguishable from z and not in x.  For
    each removal of one z1 of [z] from x, the check searches the one-element
    qsets w1 of [w] = [z] outside x - z1 for one with (x - z1) + w1 = x up to
    indistinguishability.  A failing removal is the counterexample.
    """
    xm = _members(u, x)
    z_sig, w_sig = _signature(u, z), _signature(u, w)
    if not (isinstance(z, str) and u.is_micro(z)):
        raise PreconditionViolated(f"z = {z!r} is not a micro-atom of the universe")
    if z not in xm:
        raise PreconditionViolated(f"z = {z!r} is not a member of x")
    z_class = indist_class(u, z)
    if xm == z_class:
        raise PreconditionViolated("x is extensionally identical to the class [z]")
    if not (isinstance(w, str) and u.is_atom(w)):
        raise PreconditionViolated(f"w = {w!r} is not an atom of the universe")
    if w_sig != z_sig:
        raise PreconditionViolated(f"w = {w!r} is not indistinguishable from z = {z!r}")
    if w in xm:
        raise PreconditionViolated(f"w = {w!r} already belongs to x")

    x_sig = _signature(u, xm)
    for removal in sorted(xm & z_class):
        reduced = xm - {removal}
        # A w1 inside x - z1 leaves it one member short of x, so it never matches.
        if not any(_signature(u, reduced | {s}) == x_sig for s in sorted(z_class - reduced)):
            return AxiomReport("permutation", False, counterexample=(removal,))
    return AxiomReport("permutation", True)


def theorem_instances(u: Universe) -> Iterator[tuple[str, str, str, AxiomReport]]:
    """Every admissible permutation-theorem instance over the named qsets.

    Yields ``(x, z, w, report)`` sorted by x, then z, then w, for each micro
    member z of x and each w of [z] outside x; there is none when x is [z].
    The brute force sees z and w only through [z] = [w], so its report is
    computed once per orbit (x, [z]) and shared by every instance in it.
    """
    for x in sorted(u.qsets):
        members = u.qsets[x]
        per_class: dict[frozenset[str], AxiomReport] = {}
        for z in sorted(filter(u.is_micro, members)):
            z_class = indist_class(u, z)
            for w in sorted(z_class - members):
                if z_class not in per_class:
                    per_class[z_class] = permutation_theorem_check(u, x, z, w)
                yield x, z, w, per_class[z_class]


RelationFn = Callable[[Universe, Term, Term], bool]


def check_equivalence_axioms(
    u: Universe, relation: Optional[RelationFn] = None
) -> list[AxiomReport]:
    """Verify reflexivity (Q1), symmetry (Q2), transitivity (Q3) of a relation.

    Defaults to the model's ``indist``; tests can inject a corrupted relation
    to confirm counterexamples are found and reported.
    """
    rel = relation if relation is not None else indist
    terms = u.terms()
    # One relation call per ordered pair: bit j of rows[i] (and bit i of
    # cols[j]) is set when rel(terms[i], terms[j]) holds.
    rows = [0] * len(terms)
    cols = [0] * len(terms)
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            if rel(u, a, b):
                rows[i] |= 1 << j
                cols[j] |= 1 << i

    # Each axiom reports its first failure in row-major order, or holds.
    q1 = next((AxiomReport("Q1", False, (terms[i],))
               for i, row in enumerate(rows) if not row >> i & 1), AxiomReport("Q1", True))
    q2 = next((AxiomReport("Q2", False, (terms[i], terms[_lowest(row ^ col)]))
               for i, (row, col) in enumerate(zip(rows, cols)) if row != col),
              AxiomReport("Q2", True))
    q3 = next((AxiomReport("Q3", False, (terms[i], terms[j], terms[_lowest(other & ~row)]))
               for i, row in enumerate(rows) for j, other in enumerate(rows)
               if row >> j & 1 and other & ~row),  # some c with b ~ c but not a ~ c
              AxiomReport("Q3", True))
    return [q1, q2, q3]


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def check_substitutivity_surrogate(u: Universe, x: Term, y: Term) -> AxiomReport:
    """Check that an extensionally identical pair agrees on every observation.

    The schema behind substitutivity ranges over all formulas and is not
    finitely checkable; the surrogate compares membership in each qset of the
    universe.  Ext identity entails equal signatures, hence an equal class, and
    for qsets equal members, hence an equal quasi-cardinality.
    """
    if not ext_identity(u, x, y):
        raise PreconditionViolated("substitutivity applies only to extensionally identical terms")

    for q in sorted(u.qsets):
        x_in = isinstance(x, str) and x in u.qsets[q]
        y_in = isinstance(y, str) and y in u.qsets[q]
        if x_in != y_in:
            return AxiomReport("Q4-surrogate", False, counterexample=("membership", q))
    return AxiomReport("Q4-surrogate", True)


def quasi_function_check(
    u: Universe,
    pairs: Iterable[tuple[Term, Term]],
    domain: Term,
    codomain: Term,
) -> AxiomReport:
    """Check the quasi-function laws for a pairing between two qsets.

    (i) every domain element has an image; (ii) indistinguishable domain
    elements have indistinguishable images.  ``pairs`` is assumed to lie in
    domain x codomain.
    """
    pair_list = list(pairs)
    dom = _members(u, domain)
    _members(u, codomain)  # resolved like the domain, so a bad codomain raises

    unmapped = sorted(dom - {a for a, _ in pair_list if isinstance(a, str)})
    if unmapped:
        return AxiomReport("quasi-function", False, counterexample=("totality", unmapped[0]))

    for i, (a, b) in enumerate(pair_list):
        for a2, b2 in pair_list[i:]:
            if indist(u, a, a2) and not indist(u, b, b2):
                return AxiomReport("quasi-function", False, ("congruence", a, b, a2, b2))

    return AxiomReport("quasi-function", True)


def is_classical_qset(u: Universe, x: Term) -> bool:
    """True when the qset contains no micro-atoms, hereditarily.

    Such collections behave exactly like ordinary sets with urelements; the
    flag is only used for reporting.
    """
    return all(u._classical[m] for m in _members(u, x))
