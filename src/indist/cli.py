"""Command-line front end.

Commands
--------
decompose    split a density operator, report p_id, coherence, visibility
zwm-sweep    tabulate the induced-coherence model over idler transmission
fringes      sample the detection rate over one phase period
qset-check   run the finite-model axiom and permutation-theorem checks
bridge       turn a pairwise-degree table into a differentiation space

Machine output is a single JSON document per run (deterministic field order,
shortest round-trip number formatting); sweep and fringe data can also be
emitted as CSV since rows are the natural plot input.

Exit codes: 0 success, 2 unparseable or invalid input, 3 degenerate source,
4 bridge table accepted but axioms violated.

File formats
------------
Universe description (UTF-8, ``#`` comments)::

    species: photon electron
    atoms:
      a micro photon
      b micro photon
      M1 macro
    qsets:
      x = a b

Degree table::

    sources: s1 s2 s3
    pid:
      1.0 0.5 0.5
      0.5 1.0 1.0
      0.5 1.0 1.0
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from . import __version__, onephoton

if TYPE_CHECKING:
    from . import quasiset

# quasiset, qmetric and zwm are imported by the commands that use them, so
# that a process running one command loads only that command's modules.

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_AXIOMS_FAILED = 4


class OutputError(Exception):
    """The ``--out`` file could not be written."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message)
        self.line = line
        self.column = column


# -- input files --------------------------------------------------------------

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def parse_universe(text: str) -> quasiset.Universe:
    """Parse the sectioned universe format into a Universe."""
    from . import quasiset

    species: list[str] = []
    atoms: list[quasiset.Atom] = []
    atom_names: set[str] = set()
    qsets: dict[str, list[str]] = {}
    qset_lines: dict[str, int] = {}
    section = None

    for lineno, line in _content_lines(text):
        stripped = line.strip()
        head = stripped.split(":", 1)[0].strip() if ":" in stripped else None
        if head in ("species", "atoms", "qsets"):
            section = head
            rest = stripped.split(":", 1)[1].strip()
            if rest:
                if section != "species":
                    raise ParseError(f"section {head!r} takes no inline entries", lineno)
                species.extend(rest.split())
            continue
        if section is None:
            raise ParseError(f"expected a section header, got {stripped!r}", lineno)
        # Error columns are the 1-based offsets of the tokens in the line.
        columns = [m.start() + 1 for m in re.finditer(r"\S+", line)]

        if section == "species":
            species.extend(stripped.split())
        elif section == "atoms":
            fields = stripped.split()
            if len(fields) == 2 and fields[1] == quasiset.MACRO:
                name, sp = fields[0], None
            elif len(fields) == 3 and fields[1] == quasiset.MICRO:
                name, sp = fields[0], fields[2]
            else:
                raise ParseError(
                    "atom entry must be '<name> micro <species>' or '<name> macro'", lineno
                )
            if name in atom_names or name in qsets:
                raise ParseError(f"duplicate name {name!r}", lineno, columns[0])
            if sp is not None and sp not in species:
                raise ParseError(f"unregistered species {sp!r}", lineno, columns[2])
            atoms.append(quasiset.Atom(name, fields[1], sp))
            atom_names.add(name)
        else:  # qsets
            if "=" not in stripped:
                raise ParseError("qset entry must be '<name> = <members...>'", lineno)
            name_part, members_part = stripped.split("=", 1)
            name = name_part.strip()
            if not name or len(name.split()) != 1:
                raise ParseError("qset entry must be '<name> = <members...>'", lineno)
            if name in qsets or name in atom_names:
                raise ParseError(f"duplicate name {name!r}", lineno, columns[0])
            members = members_part.split()
            qsets[name] = members
            qset_lines[name] = lineno

    known = atom_names | set(qsets)
    for name, members in qsets.items():
        for m in members:
            if m not in known:
                raise ParseError(f"qset {name!r} references unknown term {m!r}", qset_lines[name])

    if len(set(species)) != len(species):
        raise ParseError("duplicate species label", 1)

    try:
        return quasiset.Universe(species=species, atoms=atoms, qsets=qsets)
    except quasiset.MalformedUniverse as exc:
        raise ParseError(str(exc), 1) from exc


def parse_pid_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Parse the degree-table format into (sources, row-major matrix)."""
    sources: list[str] = []
    rows: list[list[float]] = []
    section = None
    for lineno, line in _content_lines(text):
        stripped = line.strip()
        if stripped.startswith("sources:"):
            section = "sources"
            sources.extend(stripped.split(":", 1)[1].split())
            continue
        if stripped.startswith("pid:"):
            section = "pid"
            if stripped.split(":", 1)[1].strip():
                raise ParseError("matrix rows go on their own lines", lineno)
            continue
        if section == "sources":
            sources.extend(stripped.split())
        elif section == "pid":
            try:
                rows.append([float(tok) for tok in stripped.split()])
            except ValueError:
                raise ParseError(f"bad matrix row {stripped!r}", lineno) from None
        else:
            raise ParseError(f"expected a section header, got {stripped!r}", lineno)
    if not sources:
        raise ParseError("missing 'sources:' section", 1)
    if len(rows) != len(sources) or any(len(r) != len(sources) for r in rows):
        raise ParseError(f"matrix must be {len(sources)}x{len(sources)}", 1)
    return sources, rows


# -- output -------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(float(value))


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _report(command: str, inputs: dict, outputs: dict, status: int) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "status": status,
    }


def _emit(text: str, out_path: Optional[str], stdout: TextIO) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(str(exc)) from exc
    else:
        stdout.write(text)


def _emit_json(report: dict, out_path: Optional[str], stdout: TextIO) -> None:
    _emit(json.dumps(report, indent=2) + "\n", out_path, stdout)


def _axiom_report_dict(report: quasiset.AxiomReport) -> dict:
    counterexample = None
    if report.counterexample is not None:
        counterexample = list(report.counterexample)
    return {"axiom": report.axiom, "holds": report.holds, "counterexample": counterexample}


def _density_dict(rho: onephoton.DensityOperator2) -> dict:
    r12 = complex(rho.rho12)
    return {
        "rho11": _jsonable(rho.rho11),
        "rho22": _jsonable(rho.rho22),
        "rho12_re": _jsonable(r12.real),
        "rho12_im": _jsonable(r12.imag),
    }


# -- commands -----------------------------------------------------------------

def _density_from_args(args) -> onephoton.DensityOperator2:
    return onephoton.DensityOperator2(
        rho11=args.rho11, rho22=args.rho22, rho12=complex(args.rho12_re, args.rho12_im)
    )


def cmd_decompose(args, stdout: TextIO, stderr: TextIO) -> int:
    rho = _density_from_args(args)
    issues = onephoton.validate_density(rho)
    if issues:
        for issue in issues:
            stderr.write(f"invalid density: {issue.invariant} residual {_fmt(issue.residual)}\n")
        return EXIT_INVALID_INPUT
    try:
        dec = onephoton.mandel_decompose(rho)
        coh = onephoton.coherence_functions(rho, 1.0)
        vis = onephoton.visibility_vs_pid(rho)
    except onephoton.DegenerateSource as exc:
        stderr.write(f"degenerate source: {exc}\n")
        return EXIT_DEGENERATE

    gamma_abs = abs(coh.gamma12_normalized)
    outputs = {
        "p_id": dec.p_id,
        "p_d": dec.p_d,
        "rho_id": _density_dict(dec.rho_id),
        "rho_d": _density_dict(dec.rho_d),
        "gamma12_abs": gamma_abs,
        "mandel_residual": abs(gamma_abs - dec.p_id),
        "visibility_analytic": vis.visibility,
        "visibility_over_p_id": _jsonable(vis.ratio),
    }
    inputs = {
        "rho11": args.rho11,
        "rho22": args.rho22,
        "rho12_re": args.rho12_re,
        "rho12_im": args.rho12_im,
    }
    if args.output == "csv":
        lines = ["key,value"]
        for key in ("p_id", "p_d", "gamma12_abs", "mandel_residual",
                    "visibility_analytic", "visibility_over_p_id"):
            lines.append(f"{key},{_fmt(outputs[key]) if outputs[key] is not None else 'nan'}")
        for tag, rho_part in (("rho_id", dec.rho_id), ("rho_d", dec.rho_d)):
            for key, value in _density_dict(rho_part).items():
                lines.append(f"{tag}_{key},{_fmt(value)}")
        _emit("\n".join(lines) + "\n", args.out, stdout)
    else:
        _emit_json(_report("decompose", inputs, outputs, EXIT_OK), args.out, stdout)
    return EXIT_OK


def cmd_zwm_sweep(args, stdout: TextIO, stderr: TextIO) -> int:
    from . import zwm

    try:
        norm = args.alpha ** 2 + args.beta ** 2
    except OverflowError:
        stderr.write("bad amplitudes: the squared pump amplitudes overflow\n")
        return EXIT_INVALID_INPUT
    if norm <= 0 or not math.isfinite(norm) or args.alpha == 0 or args.beta == 0:
        stderr.write("bad amplitudes: both pump amplitudes must be nonzero\n")
        return EXIT_INVALID_INPUT
    if args.steps < 2:
        stderr.write(f"steps must be >= 2, got {args.steps}\n")
        return EXIT_INVALID_INPUT
    scale = math.sqrt(norm)
    setup = zwm.ZwmSetup(
        pump_alpha=args.alpha / scale,
        pump_beta=args.beta / scale,
        idler_transmission=1.0,
    )
    try:
        rows = zwm.sweep_transmission(setup, args.steps)
    except zwm.InvalidSetup as exc:
        # Subnormal amplitudes lose the precision the normalization needs.
        stderr.write(f"bad amplitudes: {exc}\n")
        return EXIT_INVALID_INPUT
    except onephoton.DegenerateSource as exc:
        stderr.write(f"degenerate source: {exc}\n")
        return EXIT_DEGENERATE

    if args.output == "csv":
        # Every row value is a float, so repr() is the _fmt() text.
        lines = ["t_mag,p_id,visibility,coincidence_id_prob"]
        lines.extend(
            f"{row.t_mag!r},{row.p_id!r},{row.visibility!r},{row.coincidence_id_prob!r}"
            for row in rows
        )
        _emit("\n".join(lines) + "\n", args.out, stdout)
    else:
        inputs = {"alpha": args.alpha, "beta": args.beta, "steps": args.steps}
        outputs = {
            "rows": [
                {
                    "t_mag": row.t_mag,
                    "p_id": row.p_id,
                    "visibility": row.visibility,
                    "coincidence_id_prob": row.coincidence_id_prob,
                }
                for row in rows
            ]
        }
        _emit_json(_report("zwm-sweep", inputs, outputs, EXIT_OK), args.out, stdout)
    return EXIT_OK


def cmd_fringes(args, stdout: TextIO, stderr: TextIO) -> int:
    rho = _density_from_args(args)
    issues = onephoton.validate_density(rho)
    if issues:
        for issue in issues:
            stderr.write(f"invalid density: {issue.invariant} residual {_fmt(issue.residual)}\n")
        return EXIT_INVALID_INPUT
    if args.samples < 8:
        stderr.write(f"samples must be >= 8, got {args.samples}\n")
        return EXIT_INVALID_INPUT
    scan = onephoton.fringe_scan(rho, 1.0, args.samples)

    if args.output == "csv":
        lines = ["phase_rad,rate"]
        lines.extend(f"{phase!r},{rate!r}" for phase, rate in scan.samples)
        lines.append(f"visibility,{_fmt(scan.visibility)}")
        _emit("\n".join(lines) + "\n", args.out, stdout)
    else:
        inputs = {
            "rho11": args.rho11,
            "rho22": args.rho22,
            "rho12_re": args.rho12_re,
            "rho12_im": args.rho12_im,
            "samples": args.samples,
        }
        outputs = {
            "samples": [[phase, rate] for phase, rate in scan.samples],
            "visibility": scan.visibility,
        }
        _emit_json(_report("fringes", inputs, outputs, EXIT_OK), args.out, stdout)
    return EXIT_OK


def _separation_witnesses(universe: quasiset.Universe) -> list[list[str]]:
    from . import quasiset

    witnesses = []
    terms = universe.terms()
    for i, a in enumerate(terms):
        for b in terms[i + 1 :]:
            if quasiset.indist(universe, a, b) and not quasiset.ext_identity(universe, a, b):
                witnesses.append([a, b])
    return witnesses


def cmd_qset_check(args, stdout: TextIO, stderr: TextIO) -> int:
    from . import quasiset

    try:
        with open(args.universe_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        stderr.write(f"cannot read universe file: {exc}\n")
        return EXIT_INVALID_INPUT
    try:
        universe = parse_universe(text)
    except ParseError as exc:
        stderr.write(f"parse error at line {exc.line}, column {exc.column}: {exc}\n")
        return EXIT_INVALID_INPUT

    eq_reports = quasiset.check_equivalence_axioms(universe)
    instances = [
        {"x": x, "z": z, "w": w, "holds": r.holds,
         "counterexample": None if r.counterexample is None else list(r.counterexample)}
        for x, z, w, r in quasiset.theorem_instances(universe)
    ]
    witnesses = _separation_witnesses(universe)
    all_hold = all(r.holds for r in eq_reports) and all(i["holds"] for i in instances)

    inputs = {
        "species": sorted(universe.species),
        "atoms": [
            {"uid": a.uid, "kind": a.kind, "species": a.species}
            for a in (universe.atoms[k] for k in sorted(universe.atoms))
        ],
        "qsets": {name: sorted(universe.qsets[name]) for name in sorted(universe.qsets)},
    }
    status = EXIT_OK if all_hold else EXIT_AXIOMS_FAILED
    outputs = {
        "equivalence_axioms": [_axiom_report_dict(r) for r in eq_reports],
        "theorem_instances": instances,
        "separation_witnesses": witnesses,
        "classical_qsets": [
            name for name in sorted(universe.qsets)
            if quasiset.is_classical_qset(universe, name)
        ],
        "all_hold": all_hold,
    }
    _emit_json(_report("qset-check", inputs, outputs, status), args.out, stdout)
    return status


def cmd_bridge(args, stdout: TextIO, stderr: TextIO) -> int:
    from . import qmetric

    tolerance = qmetric.DEFAULT_TOL if args.tolerance is None else args.tolerance
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        stderr.write(f"invalid tolerance {tolerance!r}: need a finite number >= 0\n")
        return EXIT_INVALID_INPUT
    try:
        with open(args.table_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        stderr.write(f"cannot read table file: {exc}\n")
        return EXIT_INVALID_INPUT
    try:
        sources, pid = parse_pid_table(text)
    except ParseError as exc:
        stderr.write(f"parse error at line {exc.line}, column {exc.column}: {exc}\n")
        return EXIT_INVALID_INPUT
    try:
        space, reports = qmetric.from_pid_table(sources, pid, tol=tolerance)
    except qmetric.MalformedTable as exc:
        stderr.write(f"malformed table: {exc}\n")
        return EXIT_INVALID_INPUT

    axioms_hold = all(r.holds for r in reports)
    rows = space.base.rows
    degrees = []
    if space.axioms_hold:
        # Pairs a < b in source order; r = 1 - d as in qmetric.degree.
        for i, (a, row) in enumerate(zip(sources, rows)):
            for b, d in zip(sources[i + 1 :], row[i + 1 :]):
                degrees.append({"a": a, "b": b, "degree": 1.0 - d})

    inputs = {
        "sources": sources,
        "pid": [[float(v) for v in row] for row in pid],
        "tolerance": tolerance,
    }
    status = EXIT_OK if axioms_hold else EXIT_AXIOMS_FAILED
    outputs = {
        "distance": rows,
        "reports": [_axiom_report_dict(r) for r in reports],
        "degrees": degrees,
        "axioms_hold": axioms_hold,
    }
    _emit_json(_report("bridge", inputs, outputs, status), args.out, stdout)
    return status


# -- argument parsing ----------------------------------------------------------

def _add_density_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho11", type=float, required=True)
    parser.add_argument("--rho22", type=float, required=True)
    parser.add_argument("--rho12-re", dest="rho12_re", type=float, default=0.0)
    parser.add_argument("--rho12-im", dest="rho12_im", type=float, default=0.0)


def _add_output_args(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        parser.add_argument("--output", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indist",
        description="Degrees of indistinguishability: decomposition, sweeps, model checks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="split a density operator into coherent + which-way parts")
    _add_density_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("zwm-sweep", help="sweep idler transmission in the two-crystal model")
    p.add_argument("--alpha", type=float, required=True, help="pump amplitude toward crystal 1")
    p.add_argument("--beta", type=float, required=True, help="pump amplitude toward crystal 2")
    p.add_argument("--steps", type=int, default=11)
    _add_output_args(p)
    p.set_defaults(func=cmd_zwm_sweep)

    p = sub.add_parser("fringes", help="sample the detection rate over one phase period")
    _add_density_args(p)
    p.add_argument("--samples", type=int, default=360)
    _add_output_args(p)
    p.set_defaults(func=cmd_fringes)

    p = sub.add_parser("qset-check", help="check axioms and the permutation theorem on a universe")
    p.add_argument("universe_file")
    _add_output_args(p, formats=False)
    p.set_defaults(func=cmd_qset_check)

    p = sub.add_parser("bridge", help="build a differentiation space from a degree table")
    p.add_argument("table_file")
    p.add_argument("--tolerance", type=float, default=None,
                   help="numeric tolerance for the axiom checks")
    _add_output_args(p, formats=False)
    p.set_defaults(func=cmd_bridge)

    return parser


def main(
    argv: Optional[Sequence[str]] = None,
    stdout: TextIO = sys.stdout,
    stderr: TextIO = sys.stderr,
) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, stdout, stderr)
    except OutputError as exc:
        stderr.write(f"cannot write output file: {exc}\n")
        return EXIT_INVALID_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
