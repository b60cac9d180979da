"""Shared generators for the model-checking tests."""

from __future__ import annotations

import itertools
from random import Random

from indist.quasiset import (
    MACRO,
    MICRO,
    Atom,
    Universe,
    indist_class,
    permutation_theorem_check,
)


def random_universe(
    rng: Random,
    max_species: int = 3,
    max_micro: int = 6,
    max_macro: int = 2,
    max_qsets: int = 4,
) -> Universe:
    """Random finite universe with micro/macro atoms and (possibly nested) qsets."""
    species = [f"sp{i}" for i in range(rng.randint(1, max_species))]
    atoms = [
        Atom(f"m{i}", MICRO, rng.choice(species)) for i in range(rng.randint(1, max_micro))
    ]
    atoms += [Atom(f"M{i}", MACRO) for i in range(rng.randint(0, max_macro))]
    pool = [a.uid for a in atoms]
    qsets: dict[str, list[str]] = {}
    for j in range(rng.randint(0, max_qsets)):
        name = f"q{j}"
        size = rng.randint(0, min(len(pool), 4))
        qsets[name] = rng.sample(pool, size)
        pool.append(name)  # later qsets may nest earlier ones; stays acyclic
    return Universe(species=species, atoms=atoms, qsets=qsets)


def relabel_micro_uids(u: Universe, rng: Random) -> tuple[Universe, dict[str, str]]:
    """Permute micro-atom uids; returns the new universe and the name map."""
    micros = sorted(uid for uid in u.atoms if u.atoms[uid].kind == MICRO)
    shuffled = micros[:]
    rng.shuffle(shuffled)
    mapping = {uid: new for uid, new in zip(micros, shuffled)}
    full = {name: mapping.get(name, name) for name in list(u.atoms) + list(u.qsets)}
    atoms = [Atom(full[a.uid], a.kind, a.species) for a in u.atoms.values()]
    qsets = {name: [full[m] for m in members] for name, members in u.qsets.items()}
    return Universe(u.species, atoms, qsets), full


def relabel_species(u: Universe, rng: Random) -> Universe:
    """Rename every species label; observational structure must not change."""
    labels = sorted(u.species)
    fresh = [f"renamed{i}" for i in range(len(labels))]
    rng.shuffle(fresh)
    mapping = dict(zip(labels, fresh))
    atoms = [
        Atom(a.uid, a.kind, mapping[a.species] if a.species is not None else None)
        for a in u.atoms.values()
    ]
    return Universe(mapping.values(), atoms, {k: list(v) for k, v in u.qsets.items()})


def admissible_theorem_instances(u: Universe):
    """All (x, z, w) meeting the permutation-theorem hypotheses, x a named qset."""
    for x in sorted(u.qsets):
        members = u.qsets[x]
        for z in sorted(members):
            if not u.is_micro(z):
                continue
            z_class = indist_class(u, z)
            if z_class == members:
                continue
            for w in sorted(z_class - members):
                yield x, z, w


def theorem_outcomes(u: Universe) -> dict[tuple[str, str, str], bool]:
    return {
        (x, z, w): permutation_theorem_check(u, x, z, w).holds
        for x, z, w in admissible_theorem_instances(u)
    }


def plant_unrepeated_collection_key(monkeypatch) -> None:
    """Model fault: each collection key gets a fresh count, so no two collections are
    indistinguishable and every permutation-theorem instance fails."""
    counter, key = itertools.count(), Universe._collection_key
    monkeypatch.setattr(Universe, "_collection_key",
                        lambda u, members: key(u, members) + (next(counter),))
