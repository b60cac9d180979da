"""Quasi-metric spaces, graded indistinguishability, and [0,1] Heyting logic.

A quasi-metric space is a carrier of model terms plus a distance table whose
zero set must coincide with the indistinguishability relation (that is the
axiom that separates it from an ordinary metric space, where d = 0 forces
identity).  The axioms checked here:

    QM1  carrier is nonempty
    QM2  d is a total function into the reals (entries finite)
    QM3  d(a, b) >= 0
    QM4  d(a, b) = 0  iff  a and b are indistinguishable
    QM5  d(a, b) = d(b, a)
    QM6  d(a, c) <= d(a, b) + d(b, c)

plus the congruence that makes d a quasi-function: indistinguishable points
must sit at equal distance from everything.

A differentiation space restricts distances to [0, 1] so that

    r = 1 - d(a, b)

reads as the degree to which a and b are indistinguishable; r = 1 recovers
the two-valued relation.  Degrees compose under the Heyting operations of
the linearly ordered [0, 1] lattice (min, max, and the implication that is
1 when a <= b and b otherwise), under which double negation does not return
the starting value: the logic of degrees is intuitionistic, not classical.

``from_pid_table`` bridges interferometry into this picture: a symmetric
table of pairwise indistinguishability degrees between sources becomes a
candidate differentiation space with d = 1 - degree, and the axiom report
answers whether the physical numbers actually form one.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress, repeat
from operator import add, countOf, eq, ge, gt, sub
from typing import Mapping, NamedTuple, Optional, Sequence

from . import _read
from .quasiset import (
    MICRO,
    Atom,
    AxiomReport,
    RelationFn,
    Universe,
    _signature,
    indist,  # never called here; benchmark/tracing.py wraps qmetric.indist, a KeyError if gone
)

DEFAULT_TOL = 1e-12


class IncompleteTable(ValueError):
    """Distance table is missing an ordered carrier pair."""


class NotInCarrier(ValueError):
    """Term is not an element of the space's carrier."""


class AxiomsViolated(ValueError):
    """Operation requires a space whose axiom report is clean."""


class MalformedTable(ValueError):
    """Degree table is not square/symmetric/unit-diagonal/in-range."""


class OutOfRange(ValueError):
    """Heyting operand outside the [0, 1] interval."""


class _RowTable(Mapping):
    """Read-only pair-keyed view of a row matrix: ``view[a, b]`` is ``rows[i][j]``."""

    def __init__(self, carrier: tuple[str, ...], rows: tuple[tuple[float, ...], ...]):
        self.rows = rows
        self.index = {name: i for i, name in enumerate(carrier)}

    def __getitem__(self, pair: tuple[str, str]) -> float:
        # Any other key is hashed (TypeError if it cannot be, as in a dict), then not found.
        a, b = pair if isinstance(pair, tuple) and len(pair) == 2 else (pair, object())
        try:
            return self.rows[self.index[a]][self.index[b]]
        except KeyError:
            raise KeyError(pair) from None  # name the whole key, as a pair-keyed dict does

    def __iter__(self):
        return ((a, b) for a in self.index for b in self.index)

    def __len__(self) -> int:
        return len(self.index) ** 2


class QuasiMetricSpace:
    """Carrier terms plus a distance table indexed by ordered pairs.

    The table may violate any of QM1-QM6; :func:`verify_qm_axioms` is the
    judge, not the constructor.  The checks read the table through
    :attr:`rows`, a dense matrix indexed by carrier position, built once on
    first use; :func:`from_pid_table` keeps only that matrix, behind a view.
    Attributes are read-only; spaces compare by identity.
    """

    def __init__(self, carrier: tuple[str, ...], distances: Mapping[tuple[str, str], float]):
        # Straight into __dict__, past __setattr__, as cached_property writes its caches.
        vars(self).update(carrier=carrier, distances=distances)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"QuasiMetricSpace(carrier={self.carrier!r}, distances={self.distances!r})"

    @cached_property
    def index(self) -> dict[str, int]:
        """Carrier name -> position (the last one, should a name repeat)."""
        return {name: i for i, name in enumerate(self.carrier)}

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """Row-major matrix with ``rows[i][j] = d(carrier[i], carrier[j])``, read as floats.

        Raises IncompleteTable naming the first missing pair in row-major order.
        """
        if isinstance(self.distances, _RowTable):
            return self.distances.rows
        try:
            return tuple(tuple([_read(self.distances[a, b]) for b in self.carrier])
                         for a in self.carrier)
        except KeyError:  # distance() names the first missing pair
            return tuple(tuple([self.distance(a, b) for b in self.carrier]) for a in self.carrier)

    def distance(self, a: str, b: str) -> float:
        if a not in self.index or b not in self.index:
            raise NotInCarrier(f"({a!r}, {b!r}) not in carrier")
        try:
            return _read(self.distances[(a, b)])
        except KeyError:
            raise IncompleteTable(f"no distance entry for ({a!r}, {b!r})") from None


class DifferentiationSpace(NamedTuple):
    """Quasi-metric space with distances in [0, 1], plus its axiom audit.

    ``tol`` is the tolerance the audit was made at; degree comparisons on
    the space use it too.
    """

    base: QuasiMetricSpace
    universe: Universe
    axiom_reports: tuple[AxiomReport, ...] = ()
    tol: float = DEFAULT_TOL

    @property
    def axioms_hold(self) -> bool:
        return all(r.holds for r in self.axiom_reports)


def verify_qm_axioms(
    space: QuasiMetricSpace,
    universe: Universe,
    tol: float = DEFAULT_TOL,
    relation: Optional[RelationFn] = None,
) -> list[AxiomReport]:
    """Check QM1-QM6 and distance congruence, one report per axiom.

    ``relation`` defaults to the model's indistinguishability; swapping in
    uid equality turns QM4 into the ordinary metric-space axiom.  Numeric
    comparisons use ``tol``.  Raises IncompleteTable when an ordered pair
    has no entry.  Each counterexample is the first failing pair or triple
    in row-major carrier order.

    A user ``relation`` is called once per ordered pair; ``indist`` builds
    one relation row per distinct signature.  Rows and columns get ids by
    exact tuple equality (a row object is hashed once; columns equal to the
    rows take the row ids).  QM2-QM5 scan a repeated (row id, column id,
    relation row) key once.  QM6 and congruence run a C-level chain per
    row and skip what an equal row decided: QM6 costs O(k m n) for k
    distinct rows and m distinct (d(a, b), row of b) keys per row, halved
    when rows equal columns; congruence O(r + p n) for r related pairs and
    p distinct related row-id pairs.
    """
    tol = _read(tol)
    carrier = space.carrier
    rows = space.rows
    if relation is None:  # indist(u, a, b) is _signature(u, a) == _signature(u, b)
        sigs = [_signature(universe, a) for a in carrier]
        by_sig = {s: list(map(eq, repeat(s), sigs)) for s in dict.fromkeys(sigs)}
        related = [by_sig[s] for s in sigs]  # one row object per distinct signature
    else:
        related = [[bool(relation(universe, a, b)) for b in carrier] for a in carrier]
    ids: dict[tuple[float, ...], int] = {}
    objects = {id(row): row for row in rows}  # a row object several terms share is hashed once
    by_object = {key: ids.setdefault(row, len(ids)) for key, row in objects.items()}
    row_ids = [by_object[id(row)] for row in rows]
    columns = tuple(zip(*rows))
    symmetric = columns == rows
    column_ids = row_ids if symmetric else [ids.setdefault(column, len(ids)) for column in columns]
    rel_keys = map(id if relation is None else tuple, related)  # indist: a row per signature

    reports = [AxiomReport("QM1", len(carrier) > 0, None if carrier else ())]

    qm2 = qm3 = qm4 = qm5 = None
    scanned: set[tuple[int, int, object]] = set()
    for a, row, column, rel_row, key in zip(carrier, rows, columns, related,
                                           zip(row_ids, column_ids, rel_keys)):
        if key in scanned:
            continue
        scanned.add(key)
        for b, d, d_ba, r in zip(carrier, row, column, rel_row):
            finite = math.isfinite(d)
            if qm2 is None and not finite:
                qm2 = (a, b)
            if qm3 is None and d < -tol:
                qm3 = (a, b)
            if qm4 is None and finite and (abs(d) <= tol) != r:
                qm4 = (a, b)
            if qm5 is None and not (finite and math.isfinite(d_ba) and abs(d - d_ba) <= tol):
                qm5 = (a, b)
    witnesses = {"QM2": qm2, "QM3": qm3, "QM4": qm4, "QM5": qm5,
                 "QM6": _triangle_breach(carrier, rows, row_ids, tol, symmetric),
                 "congruence": _congruence_breach(carrier, rows, row_ids, related, tol)}
    reports.extend(AxiomReport(axiom, w is None, w) for axiom, w in witnesses.items())
    return reports


def _triangle_breach(carrier: Sequence[str], rows: Sequence[Sequence[float]],
                     row_ids: Sequence[int], tol: float,
                     symmetric: bool) -> Optional[tuple[str, str, str]]:
    """First (a, b, c) with d(a, c) > d(a, b) + d(b, c) + tol, or None.

    Whether (a, b, c) fails depends only on row a, d(a, b) and row b, so an
    a whose row already passed, and a b whose (d(a, b), row of b) key was
    already checked for this a, are skipped without moving the first witness.
    When rows equal columns, (c, b, a) adds what (a, b, c) adds: chains start at c = a.
    """
    ties = repeat(tol)
    passed: set[int] = set()
    for i, (a, row_a, id_a) in enumerate(zip(carrier, rows, row_ids)):
        if id_a in passed:
            continue
        start = i if symmetric else 0
        cs, tail_a = carrier[start:], row_a[start:]
        checked: set[tuple[float, int]] = set()
        for b, d_ab, row_b, id_b in zip(carrier, row_a, rows, row_ids):
            key = d_ab, id_b
            if key in checked:
                continue
            checked.add(key)
            # d(a, c) > d(a, b) + d(b, c) + tol per c, in C; the first c that fails is the witness.
            fails = map(gt, tail_a, map(add, map(add, repeat(d_ab), row_b[start:]), ties))
            for c in compress(cs, fails):
                return a, b, c
        passed.add(id_a)
    return None


def _congruence_breach(carrier: Sequence[str], rows: Sequence[Sequence[float]],
                       row_ids: Sequence[int], related: Sequence[Sequence[bool]],
                       tol: float) -> Optional[tuple[str, str, str]]:
    """First (a, a2, b) with a ~ a2, a != a2 and |d(a, b) - d(a2, b)| > tol, or None.

    Only the a2 related to a are walked, and the outcome of a pair depends
    only on its two rows, so a pair whose row ids already passed is skipped.
    """
    ties = repeat(tol)
    passed: set[tuple[int, int]] = set()
    for a, row_a, id_a, rel_row in zip(carrier, rows, row_ids, related):
        for a2, row_a2, id_a2 in compress(zip(carrier, rows, row_ids), rel_row):
            if a != a2 and (id_a, id_a2) not in passed:
                for b in compress(carrier, map(gt, map(abs, map(sub, row_a, row_a2)), ties)):
                    return a, a2, b
                passed.add((id_a, id_a2))
    return None


def differentiation_space(
    base: QuasiMetricSpace,
    universe: Universe,
    tol: float = DEFAULT_TOL,
) -> DifferentiationSpace:
    """Wrap a [0,1]-valued space together with its verified axiom reports."""
    tol = _read(tol)
    try:
        rows = base.rows
    except IncompleteTable:  # pair by pair, so an out-of-range entry ahead of the missing one wins
        rows = ((base.distance(a, b) for b in base.carrier) for a in base.carrier)
    for a, row in zip(base.carrier, rows):
        for b, d in zip(base.carrier, row):
            if math.isfinite(d) and not (-tol <= d <= 1.0 + tol):
                raise OutOfRange(f"distance d({a!r}, {b!r}) = {d!r} outside [0, 1]")
    reports = tuple(verify_qm_axioms(base, universe, tol=tol))
    return DifferentiationSpace(base=base, universe=universe, axiom_reports=reports, tol=tol)


def degree(space: DifferentiationSpace, a: str, b: str) -> float:
    """Degree of indistinguishability r = 1 - d(a, b), in [0, 1].

    Only meaningful on a space whose axiom report is clean; degree 1 is then
    equivalent to plain indistinguishability, and any other degree certifies
    the pair distinguishable.
    """
    if not space.axioms_hold:
        failing = [r.axiom for r in space.axiom_reports if not r.holds]
        raise AxiomsViolated(f"space violates {', '.join(failing)}")
    return 1.0 - space.base.distance(a, b)


def degree_relation_holds(space: DifferentiationSpace, a: str, b: str, r: float) -> bool:
    """Whether a and b are indistinguishable exactly to degree r."""
    return abs(_read(r) - degree(space, a, b)) <= space.tol


def degree_assignment(space: DifferentiationSpace) -> dict[tuple[str, str], float]:
    """The full pair -> degree table of the space."""
    carrier = space.base.carrier
    return {(a, b): degree(space, a, b) for a in carrier for b in carrier}


def from_pid_table(
    sources: Sequence[str],
    pid: Sequence[Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> tuple[DifferentiationSpace, list[AxiomReport]]:
    """Build a differentiation space from pairwise indistinguishability degrees.

    ``pid`` must be symmetric with unit diagonal, and each degree v and its
    distance d = 1 - v must lie in [0, 1], within ``tol``; any other table,
    or a repeated source name, raises MalformedTable.  A source's species is
    its class under the transitive closure of the zero-distance pairs, so
    species equality matches d = 0 only when those pairs form an equivalence;
    a "zero-transitivity" report (with a witnessing chain) and the QM axiom
    reports answer whether the physical degrees form such a space.  A row of
    plain floats equal to a checked row and, past the diagonal, to its column
    of plain floats passes its checks as that row did: it shares its distances.
    """
    names = list(sources)
    n = len(names)
    if n == 0:
        raise MalformedTable("no sources")
    if len(set(names)) != n:
        repeated = next(a for i, a in enumerate(names) if names.index(a) != i)
        raise MalformedTable(f"duplicate source name {repeated!r}")
    if len(pid) != n or any(len(row) != n for row in pid):
        raise MalformedTable(f"table must be {n}x{n}")

    # One row-major pass checks each entry by differentiation_space's range rule and builds
    # the distance rows; symmetry is checked at a pair's upper entry.
    tol = _read(tol)
    hi = 1.0 + tol
    rows: list[tuple[float, ...]] = []
    checked: dict[tuple[float, ...], list[tuple[float, ...]]] = {}  # row -> [its distances]
    try:
        for i, (row, column) in enumerate(zip(pid, zip(*pid))):
            key, upper = tuple(row), column[i + 1 :]
            shared = checked.setdefault(key, []) if countOf(map(type, key), float) == n else []
            if shared and key[i + 1 :] == upper and countOf(map(type, upper), float) == len(upper):
                d_row = shared[0]
            else:
                d_row = []
                for j, v in enumerate(row):
                    v = float(v)
                    d = 1.0 - v
                    if not (math.isfinite(v) and -tol <= v <= hi and -tol <= d <= hi):
                        raise MalformedTable(f"value {v!r} at ({i}, {j}) outside [0, 1]")
                    d_row.append(d)
                    if j > i and abs(v - pid[j][i]) > tol:
                        raise MalformedTable(f"asymmetry at ({i}, {j})")
                d_row = tuple(d_row)
                shared.append(d_row)
            if abs(row[i] - 1.0) > tol:
                raise MalformedTable(f"diagonal entry {row[i]!r} at ({i}, {i}) is not 1")
            rows.append(d_row)
    except OverflowError:  # an int past the largest float: v, or pid[j][i] read for symmetry
        at = (j, i) if isinstance(v, float) else (i, j)
        raise MalformedTable(f"value at {at} outside [0, 1]: too large for a float") from None
    # The zero-distance graph: an edge for each pair past the diagonal at distance <= tol.
    adjacency: dict[str, list[str]] = {name: [] for name in names}
    for i, (a, d_row) in enumerate(zip(names, rows)):
        for b in compress(names[i + 1 :], map(ge, repeat(tol), d_row[i + 1 :])):
            adjacency[a].append(b)
            adjacency[b].append(a)
    base = QuasiMetricSpace(tuple(names), _RowTable(tuple(names), tuple(rows)))

    # Species = connected components of the zero-distance graph, each
    # labelled by its least name; members are listed in source order.
    species_of: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    for name in names:
        if name not in species_of:
            component = _zero_tree(adjacency, name)
            species_of.update(dict.fromkeys(component, min(component)))
        members.setdefault(species_of[name], []).append(name)

    # A witness is a zero-distance chain whose endpoints are a positive
    # distance apart; replaying the chain against the table re-derives it.
    breach = next(((a, b) for a, row in zip(names, base.rows) for b in members[species_of[a]]
                   if a < b and row[base.index[b]] > tol), None)
    chain = None
    if breach is not None:
        start, goal = breach
        tree = _zero_tree(adjacency, start)
        chain = (goal,)
        while chain[0] != start:
            chain = (tree[chain[0]], *chain)
    zero_report = AxiomReport("zero-transitivity", chain is None, chain)

    universe = Universe(species=sorted(members),
                        atoms=[Atom(name, MICRO, species_of[name]) for name in names])
    reports = tuple(verify_qm_axioms(base, universe, tol=tol))
    return DifferentiationSpace(base, universe, reports, tol), [zero_report, *reports]


def _zero_tree(adjacency: Mapping[str, Sequence[str]], start: str) -> dict[str, str]:
    """Breadth-first tree of start's zero-distance component: node -> parent.

    Neighbours are visited in name order, so the tree path from ``start`` to
    a node is the lexicographically least of the shortest chains between them.
    """
    tree = {start: start}
    queue = [start]
    for node in queue:
        for nxt in sorted(adjacency[node]):
            if nxt not in tree:
                tree[nxt] = node
                queue.append(nxt)
    return tree


# -- Heyting operations on the [0, 1] chain ---------------------------------

def _check_unit(*values: float) -> None:
    for v in values:
        if not 0.0 <= v <= 1.0:  # compared as given: NaN, inf and ints past the floats fail too
            n = v.bit_length() if isinstance(v, int) else 0  # repr may pass the digit limit
            raise OutOfRange(f"value {f'of {n} bits' if n > 1024 else repr(v)} outside [0, 1]")


def heyting_meet(a: float, b: float) -> float:
    _check_unit(a, b)
    return min(a, b)


def heyting_join(a: float, b: float) -> float:
    _check_unit(a, b)
    return max(a, b)


def heyting_implies(a: float, b: float) -> float:
    """Relative pseudo-complement of the linear order: 1 if a <= b, else b."""
    _check_unit(a, b)
    return 1.0 if a <= b else b


def heyting_not(a: float) -> float:
    """Pseudo-complement, i.e. a => 0.  Not an involution: ~~0.5 = 1."""
    return heyting_implies(a, 0.0)


def identity_semantic_value(space: DifferentiationSpace, a: str, b: str) -> float:
    """Semantic value of the identity statement "a = b" in the [0,1] algebra.

    The value is the pair's degree of indistinguishability; composite
    formulas over such atomic identities evaluate with the Heyting
    operations.
    """
    return degree(space, a, b)
