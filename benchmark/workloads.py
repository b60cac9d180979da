"""Seeded inputs, command lists and output checks for the three workloads.

Each generator writes its input files into a directory and returns the
commands of one pass.  A command is the argv handed to ``indist`` plus a
check that parses the command's stdout and raises :class:`BadOutput` when a
number is wrong.  The checks are semantic (row counts, identities, counts
derived from the generator's own data), never byte digests, so a change that
reformats or extends a report without changing its numbers still passes.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from random import Random
from typing import Callable

#: Tolerance handed to ``bridge``; printed with the sizes for replay.
BRIDGE_TOL = 1e-12

#: Full sizes; the traced run repeats every workload at ``scale=0.5``.
SWEEP_ROWS = 100_000
FRINGE_SAMPLES = 200_000
DECOMPOSE_CALLS = 16
QSET_ATOMS = 64
QSET_MACROS = 4
QSET_SPECIES = 3
BRIDGE_SOURCES = 200
BRIDGE_GROUPS = 12


class BadOutput(Exception):
    """A command's output contradicts what its inputs imply."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    size: dict


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BadOutput(message)


def _close(a: float, b: float, rel: float = 1e-12, abs_: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# -- optics -------------------------------------------------------------------

def _density(rng: Random, small: float, coherence: float) -> tuple[float, float, float, float]:
    """A valid operator with smaller source weight ``small`` and |gamma12| = coherence."""
    rho11, rho22 = (small, 1.0 - small) if rng.random() < 0.5 else (1.0 - small, small)
    phase = rng.uniform(-math.pi, math.pi)
    rho12 = coherence * math.sqrt(rho11 * rho22) * cmath.exp(1j * phase)
    return rho11, rho22, rho12.real, rho12.imag


def _density_argv(rho: tuple[float, float, float, float]) -> tuple[str, ...]:
    r11, r22, re, im = rho
    # "--opt=value": argparse reads a lone "-1e-05" as an option, not a number.
    return (f"--rho11={r11!r}", f"--rho22={r22!r}", f"--rho12-re={re!r}", f"--rho12-im={im!r}")


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"csv header is not {header!r}")
    rows = []
    for line in lines[1:]:
        key, _, rest = line.partition(",")
        rows.append([key] + [float(v) for v in rest.split(",")])
    return rows


def _check_sweep(steps: int, rho11: float, rho22: float) -> Callable[[str], None]:
    balance = 2.0 * math.sqrt(rho11 * rho22)

    def check(text: str) -> None:
        rows = _csv_rows(text, "t_mag,p_id,visibility,coincidence_id_prob")
        _require(len(rows) == steps, f"sweep has {len(rows)} rows, expected {steps}")
        for i, (t, p_id, vis, coinc) in enumerate(rows):
            t = float(t)
            _require(_close(t, i / (steps - 1)), f"row {i}: t_mag {t!r} off the grid")
            _require(abs(p_id - t) <= 1e-12, f"row {i}: p_id {p_id!r} != t_mag {t!r}")
            _require(abs(vis - balance * p_id) <= 1e-12, f"row {i}: visibility {vis!r}")
            _require(abs(coinc - (1.0 - t * t)) <= 1e-12, f"row {i}: coincidence {coinc!r}")

    return check


def _check_fringes(samples: int, rho: tuple[float, float, float, float]) -> Callable[[str], None]:
    r11, r22, re, im = rho
    g12 = complex(re, im).conjugate()
    p_id = abs(g12) / math.sqrt(r11 * r22)
    expected_vis = 2.0 * math.sqrt(r11 * r22) * p_id
    step = 2.0 * math.pi / samples

    def check(text: str) -> None:
        rows = _csv_rows(text, "phase_rad,rate")
        _require(len(rows) == samples + 1, f"fringes has {len(rows) - 1} samples, expected {samples}")
        *scan, footer = rows
        _require(footer[0] == "visibility", "last fringe row is not the visibility footer")
        for k, (phase, rate) in enumerate(scan):
            phase = float(phase)
            _require(_close(phase, k * step), f"sample {k}: phase {phase!r}")
            want = r11 + r22 + 2.0 * (g12 * cmath.exp(1j * phase)).real
            _require(abs(rate - want) <= 1e-12, f"sample {k}: rate {rate!r}, expected {want!r}")
        # Sampling the cosine at `samples` points loses at most (pi/samples)^2/2.
        _require(abs(footer[1] - expected_vis) <= 1e-9,
                 f"visibility {footer[1]!r}, expected 2*sqrt(rho11*rho22)*p_id = {expected_vis!r}")

    return check


def _check_decompose(rho: tuple[float, float, float, float], coherence: float) -> Callable[[str], None]:
    r11, r22, re, im = rho

    def check(text: str) -> None:
        out = json.loads(text)
        _require(out["status"] == 0, f"decompose status {out['status']}")
        o = out["outputs"]
        p_id, p_d = o["p_id"], o["p_d"]
        _require(_close(p_id, coherence, rel=1e-9), f"p_id {p_id!r}, expected {coherence!r}")
        _require(abs(p_id + p_d - 1.0) <= 1e-12, f"p_id + p_d = {p_id + p_d!r}")
        _require(abs(o["gamma12_abs"] - p_id) <= 1e-12, "|gamma12| differs from p_id")
        for key, want in (("rho11", r11), ("rho22", r22), ("rho12_re", re), ("rho12_im", im)):
            got = p_id * o["rho_id"][key] + p_d * o["rho_d"][key]
            _require(_close(got, want, rel=1e-12, abs_=1e-18),
                     f"p_id*rho_id + p_d*rho_d gives {key} = {got!r}, expected {want!r}")

    return check


def optics(rng: Random, workdir: str, scale: float) -> Workload:
    del workdir  # every optics input travels in argv
    steps = int(SWEEP_ROWS * scale)
    samples = int(FRINGE_SAMPLES * scale)
    calls = int(DECOMPOSE_CALLS * scale)

    alpha, beta = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
    norm = alpha * alpha + beta * beta
    commands = [Command(
        ("zwm-sweep", f"--alpha={alpha!r}", f"--beta={beta!r}",
         "--steps", str(steps), "--output", "csv"),
        _check_sweep(steps, alpha * alpha / norm, beta * beta / norm),
    )]

    rho = _density(rng, rng.uniform(0.05, 0.5), rng.uniform(0.0, 0.999))
    commands.append(Command(
        ("fringes", *_density_argv(rho), "--samples", str(samples), "--output", "csv"),
        _check_fringes(samples, rho),
    ))

    # Smaller source weights log-uniform over 1e-9..0.5; coherence stays
    # below 1 so every operator is valid by construction at any scale.
    for _ in range(calls):
        coherence = rng.uniform(0.0, 0.999)
        rho = _density(rng, 10.0 ** rng.uniform(-9.0, math.log10(0.5)), coherence)
        commands.append(Command(("decompose", *_density_argv(rho)), _check_decompose(rho, coherence)))

    size = {"sweep_rows": steps, "fringe_samples": samples, "decompose_calls": calls}
    return Workload(tuple(commands), size)


# -- qset ---------------------------------------------------------------------

def _theorem_instance_count(qsets: dict[str, list[str]], species_of: dict[str, str]) -> int:
    """Permutation-theorem instances the CLI must enumerate, from generator data.

    For each qset x and micro member z, [z] is every micro-atom of z's
    species; each such atom w outside x is one instance, unless x is exactly
    [z] (the theorem's hypothesis excludes it).
    """
    by_species: dict[str, set[str]] = {}
    for uid, sp in species_of.items():
        by_species.setdefault(sp, set()).add(uid)
    count = 0
    for members in qsets.values():
        member_set = set(members)
        for z in members:
            if z not in species_of:
                continue
            z_class = by_species[species_of[z]]
            if z_class != member_set:
                count += len(z_class - member_set)
    return count


def qset(rng: Random, workdir: str, scale: float) -> Workload:
    n = int(QSET_ATOMS * scale)
    macros = int(QSET_MACROS * scale)
    per_species = (n - macros) // QSET_SPECIES
    per_qset = (n // 2 - 1) // QSET_SPECIES
    others = n // 2 - QSET_SPECIES * per_qset
    species = [f"sp{i}" for i in range(QSET_SPECIES)]
    species_of = {f"m{i:03d}": species[i // per_species] for i in range(per_species * QSET_SPECIES)}
    pools = {sp: [uid for uid, s in species_of.items() if s == sp] for sp in species}
    macro_atoms = [f"M{i}" for i in range(macros)]

    # Every qset draws the same number of micro-atoms per species, so the
    # instance count (and the work) is the same for every seed; 30 % of the
    # qsets swap a macro-atom for an earlier qset.
    n_qsets = n // 4
    nesting = set(rng.sample(range(1, n_qsets), round(0.3 * n_qsets)))
    qsets: dict[str, list[str]] = {}
    for i in range(n_qsets):
        members = []
        for pool in pools.values():
            members += rng.sample(pool, per_qset)
        members += rng.sample(macro_atoms, others - (i in nesting))
        if i in nesting:
            members.append(f"x{rng.randrange(i):02d}")
        qsets[f"x{i:02d}"] = members

    lines = ["species: " + " ".join(species), "atoms:"]
    lines += [f"  {uid} micro {sp}" for uid, sp in species_of.items()]
    lines += [f"  {uid} macro" for uid in macro_atoms]
    lines.append("qsets:")
    lines += [f"  {name} = {' '.join(members)}" for name, members in qsets.items()]
    path = os.path.join(workdir, "universe.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    expected = _theorem_instance_count(qsets, species_of)

    def check(text: str) -> None:
        out = json.loads(text)
        o = out["outputs"]
        _require(out["status"] == 0, f"qset-check status {out['status']}")
        _require(o["all_hold"] is True, "all_hold is not true")
        _require(all(r["holds"] for r in o["equivalence_axioms"]), "an equivalence axiom fails")
        got = len(o["theorem_instances"])
        _require(got == expected, f"{got} theorem instances, expected {expected}")
        _require(all(i["holds"] for i in o["theorem_instances"]), "a theorem instance fails")

    size = {"micro": len(species_of), "macro": macros, "species": QSET_SPECIES,
            "qsets": n_qsets, "members": n // 2, "nesting": len(nesting), "theorem_instances": expected}
    return Workload((Command(("qset-check", path), check),), size)


# -- bridge -------------------------------------------------------------------

def bridge(rng: Random, workdir: str, scale: float) -> Workload:
    n = int(BRIDGE_SOURCES * scale)
    # Groups sit at distinct dyadic points of [0, 1], so d = 1 - pid is the
    # line distance between groups: every QM axiom and congruence hold, and
    # every distance is exact in binary floating point.
    positions = [k / 256 for k in rng.sample(range(257), BRIDGE_GROUPS)]
    # Equal group sizes keep the congruence work the same for every seed.
    group = [i % BRIDGE_GROUPS for i in range(n)]
    rng.shuffle(group)
    x = [positions[g] for g in group]
    pid = [[1.0 - abs(a - b) for b in x] for a in x]
    sources = [f"s{i:03d}" for i in range(n)]

    lines = ["sources: " + " ".join(sources), "pid:"]
    lines += ["  " + " ".join(repr(v) for v in row) for row in pid]
    path = os.path.join(workdir, "table.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    def check(text: str) -> None:
        out = json.loads(text)
        o = out["outputs"]
        _require(out["status"] == 0, f"bridge status {out['status']}")
        _require(o["axioms_hold"] is True, "axioms_hold is not true")
        _require(all(r["holds"] for r in o["reports"]), "an axiom report fails")
        dist = o["distance"]
        _require(len(dist) == n and all(len(row) == n for row in dist), "distance table shape")
        for i in range(n):
            for j in range(n):
                _require(abs(dist[i][j] - (1.0 - pid[i][j])) <= BRIDGE_TOL,
                         f"distance[{i}][{j}] = {dist[i][j]!r} != 1 - pid")
        degrees = o["degrees"]
        _require(len(degrees) == n * (n - 1) // 2, f"{len(degrees)} degrees, expected n(n-1)/2")
        pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
        for (i, j), d in zip(pairs, degrees):
            _require(d["a"] == sources[i] and d["b"] == sources[j], f"degree pair {d['a']},{d['b']}")
            _require(abs(d["degree"] - pid[i][j]) <= BRIDGE_TOL, f"degree({d['a']}, {d['b']})")

    argv = ("bridge", path, "--tolerance", repr(BRIDGE_TOL))
    size = {"sources": n, "groups": BRIDGE_GROUPS, "tolerance": BRIDGE_TOL}
    return Workload((Command(argv, check),), size)


GENERATORS = {"optics": optics, "qset": qset, "bridge": bridge}


def generate(name: str, seed: int, workdir: str, scale: float = 1.0) -> Workload:
    """Write the inputs of one workload into ``workdir`` and return its commands."""
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[name](Random(f"{name}:{seed}"), workdir, scale)
