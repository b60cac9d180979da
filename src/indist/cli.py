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
import contextlib
import math
import os
import re
import sys
from itertools import chain, combinations, repeat, starmap
from operator import add, countOf, sub
from struct import Struct
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, TextIO

from . import __version__

if TYPE_CHECKING:
    from . import onephoton, quasiset

# onephoton, quasiset, qmetric and zwm are imported by the commands that use
# them, so that a process running one command loads only that command's modules.

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_AXIOMS_FAILED = 4

DENSITY_ARGS = ("rho11", "rho22", "rho12_re", "rho12_im")

# A model error's class name -> (exit code, diagnostic prefix); main exits 2 with the
# text alone on any other ValueError (InvalidDensity, ZeroField, a count out of range).
_MODEL_ERRORS = {"DegenerateSource": (EXIT_DEGENERATE, "degenerate source: "),
                 # Subnormal amplitudes lose the precision the normalization needs.
                 "InvalidSetup": (EXIT_INVALID_INPUT, "bad amplitudes: "),
                 "MalformedTable": (EXIT_INVALID_INPUT, "malformed table: ")}


class CliExit(Exception):
    """Ends a command with an exit code and one diagnostic line for stderr."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(message)
        self.line = line
        self.column = column


# -- input files --------------------------------------------------------------

_TOKEN = re.compile(r"\S+")


def _sections(text: str, *names: str):
    """Yield (section, lineno, line, start) for each content line of a sectioned file.

    A line ends at its first '#' and is skipped when blank. A header is one of names,
    then ':' (whitespace may come between); start is the offset after its colon, and 0
    on an entry line. Only the first name's section takes entries after its header's colon."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        head, colon, rest = line.partition(":")
        if colon and head.strip() in names:
            section = head.strip()
            if section != names[0] and rest.strip():
                raise ParseError(f"section {section!r} takes no inline entries", lineno)
            yield section, lineno, line, len(head) + 1
        elif line:
            if section is None:
                raise ParseError(f"expected a section header, got {line.strip()!r}", lineno)
            yield section, lineno, line, 0


def parse_universe(text: str) -> quasiset.Universe:
    """Parse the sectioned universe format into a Universe."""
    from . import quasiset

    species: set[str] = set()
    atoms: list[quasiset.Atom] = []
    qsets: dict[str, list[str]] = {}
    lines: dict[str, int] = {}  # the line of every atom and qset entry

    for section, lineno, line, start in _sections(text, "species", "atoms", "qsets"):
        if section == "species":
            for m in _TOKEN.finditer(line, start):
                label = m.group()
                if label in species:
                    raise ParseError(f"duplicate species label {label!r}", lineno, m.start() + 1)
                species.add(label)
            continue
        if start:  # an atoms: or qsets: header
            continue
        # Error columns are the 1-based offsets of the tokens in the line.
        columns = [m.start() + 1 for m in _TOKEN.finditer(line)]
        if section == "atoms":
            fields = line.split()
            if len(fields) == 2 and fields[1] == quasiset.MACRO:
                name, sp = fields[0], None
            elif len(fields) == 3 and fields[1] == quasiset.MICRO:
                name, sp = fields[0], fields[2]
            else:
                raise ParseError(
                    "atom entry must be '<name> micro <species>' or '<name> macro'", lineno
                )
            if name in lines:
                raise ParseError(f"duplicate name {name!r}", lineno, columns[0])
            if sp is not None and sp not in species:
                raise ParseError(f"unregistered species {sp!r}", lineno, columns[2])
            atoms.append(quasiset.Atom(name, fields[1], sp))
        else:  # qsets
            name_part, eq, members_part = line.partition("=")
            if not eq or len(name_part.split()) != 1:
                raise ParseError("qset entry must be '<name> = <members...>'", lineno)
            name = name_part.strip()
            if name in lines:
                raise ParseError(f"duplicate name {name!r}", lineno, columns[0])
            qsets[name] = members_part.split()
        lines[name] = lineno

    # Universe checks member references and cycles; report them at the entry's line.
    try:
        return quasiset.Universe(species=species, atoms=atoms, qsets=qsets)
    except quasiset.MalformedUniverse as exc:
        raise ParseError(str(exc), lines[exc.term]) from exc


def parse_pid_table(text: str) -> tuple[list[str], list[list[float]]]:
    """Parse the degree-table format into (sources, row-major matrix). A repeated matrix
    line is parsed once, and every row is still a list of its own."""
    sources: list[str] = []
    rows: list[tuple[int, list[float]]] = []  # (line, row)
    headers: dict[str, int] = {}  # the first line of each header
    parsed: dict[str, list[float]] = {}  # line text -> its floats
    for section, lineno, line, start in _sections(text, "sources", "pid"):
        if start:
            headers.setdefault(section, lineno)
        if section == "sources":
            sources.extend(line[start:].split())
        elif not start:
            try:
                values = parsed[line] = parsed.get(line) or [float(tok) for tok in line.split()]
            except ValueError:
                raise ParseError(f"bad matrix row {line.strip()!r}", lineno) from None
            rows.append((lineno, values[:]))
    if not sources:
        if "sources" not in headers:
            raise ParseError("missing 'sources:' section", 1)
        raise ParseError("empty 'sources:' section", headers["sources"])
    # A bad or extra row is reported at its own line, missing rows at the header.
    n = len(sources)
    for i, (lineno, row) in enumerate(rows):
        if i == n or len(row) != n:
            raise ParseError(f"matrix must be {n}x{n}", lineno)
    if len(rows) < n:
        raise ParseError(f"matrix must be {n}x{n}", headers.get("pid", headers["sources"]))
    return sources, [row for _, row in rows]


# -- output -------------------------------------------------------------------

def _json(args, inputs: dict, outputs: dict, status: int = EXIT_OK) -> tuple[int, Iterable[str]]:
    try:  # json.encoder's own C function, imported here so that CSV runs load no json
        from _json import encode_basestring_ascii
    except ImportError:
        from json.encoder import encode_basestring_ascii
    report = {"command": args.command, "version": __version__,
              "inputs": inputs, "outputs": outputs, "status": status}
    return status, chain(_json_chunks(report, encode_basestring_ascii), "\n")


def _csv(header: str, columns, footer: str = ""):
    """Yield the header line, the columns' rows as %r texts _BLOCK rows a chunk, the footer."""
    width, n = len(columns), len(columns[0])
    row = ",".join(["%r"] * width) + "\n"
    yield header + "\n"
    flat = [None] * (width * _BLOCK)
    for i in range(0, n, _BLOCK):
        del flat[width * (n - i):]  # only the last block is shorter
        for j, column in enumerate(columns):
            flat[j::width] = column[i:i + _BLOCK]
        yield row * (len(flat) // width) % tuple(flat)
    yield footer


def _floats(values, sep: str) -> str:
    """Join float reprs by sep, spelled as json spells them: only nan and inf hold an 'n'."""
    text = sep.join(map(float.__repr__, values))
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _scalars(values, esc) -> Optional[list[str]]:
    """The JSON text of each value of a column of one scalar type, else None: a mixed
    column (True == 1 == 1.0) or one that nests goes value by value through _json_chunks.

    Only an exact str or int column formats each distinct value once, as equal values may
    print differently (0.0 == -0.0, a subclass's ==). An unwritable type raises json's TypeError."""
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else list  # mixed: value by value, as nested
    if issubclass(kind, _NESTED):
        return None
    if issubclass(kind, float):
        return _floats(values, "\n").split("\n")
    if issubclass(kind, str):
        text = esc
    elif kind is bool or kind is type(None):
        text = {True: "true", False: "false", None: "null"}.__getitem__
    elif issubclass(kind, int):
        text = int.__repr__
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if kind is str or kind is int:
        text = {key: text(key) for key in set(values)}.__getitem__
    return list(map(text, values))


class _DictRows:
    """A list of rows with one key order, held as one list per key: the writer fills its
    row template from these columns and never builds the rows. A keyed row is a dict,
    any other row the list of its values."""

    def __init__(self, columns: dict, keyed: bool = True):
        self.columns, self.keyed = columns, keyed

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))  # no columns: no rows


class _PairTable:
    """The list of {"a": a, "b": b, "degree": 1 - d(a, b)} for a before b in source order
    (r = 1 - d as in qmetric.degree), held as the sources and the distance rows."""

    def __init__(self, sources: Sequence[str], rows: Sequence[Sequence[float]]):
        self.sources, self.rows = sources, rows

    def __len__(self) -> int:
        return len(self.sources) * (len(self.sources) - 1) // 2


_NESTED = (list, tuple, dict, _DictRows, _PairTable)  # what _json_chunks writes as nested

_BLOCK = 4096  # list items (or row values) per chunk, so the texts of one chunk bound the memory


def _items(value, esc, pad: str):
    """Yield the texts of a non-empty list's items, joined a block at a time.

    A _DictRows is a column per key, filled into a row template. A list of list or tuple
    rows of one nonzero width, every value a plain float, goes through _kept_rows; any
    other list is a table of one column whose template adds nothing to its texts."""
    if isinstance(value, _DictRows):
        columns, brackets = list(value.columns.values()), "{}" if value.keyed else "[]"
        heads = [esc(k) + ": " if value.keyed else "" for k in value.columns]
        parts = [brackets[0] + "\n  " + pad + heads[0],
                 *[",\n  " + pad + head for head in heads[1:]], "\n" + pad + brackets[1]]
        inner = pad + "  "
    else:
        widths = set(map(len, value)) if set(map(type, value)) <= {list, tuple} else ()
        width = widths.pop() if len(widths) == 1 else 0
        if width and countOf(map(type, chain.from_iterable(value)), float) == width * len(value):
            head, sep, close = "[\n  " + pad, ",\n  " + pad, "\n" + pad + "]"
            yield from _kept_rows(value, ",\n" + pad, lambda i, row: head + _floats(
                row, sep) + close, lambda i, text: text, 0)
            return
        columns, parts, inner = [value], ["", ""], pad
    for i in range(0, len(value), _BLOCK):
        yield _block([column[i:i + _BLOCK] for column in columns], parts, esc, pad, inner)


def _kept_rows(rows, sep: str, texts, join, step: int):
    """Yield join(i, t) for each row i (from 1) of rows of plain floats of one width, whole
    rows a chunk, about _BLOCK values each; t = texts(i, row) formats row[step * i:], one
    text per value when step is 1. Rows are keyed by their packed doubles (0.0 == -0.0
    merges rows whose texts differ) in an up-front index of the next row with the same
    bytes; the keys are then dropped, so one int per row is held while writing. A row's t
    is formatted once and kept, less the part that next row does not need, until that row."""
    after, seen = [0] * len(rows), {}  # after[k]: the next row (from 1) with row k's bytes
    for k, key in zip(range(len(rows), 0, -1),
                      starmap(Struct("%dd" % len(rows[0])).pack, reversed(rows))):
        after[k - 1], seen[key] = seen.get(key, 0), k
    del seen, key
    kept, chunk, room = {}, [], _BLOCK
    for i, (row, nxt) in enumerate(zip(rows, after), 1):
        t = kept.pop(i, None) or texts(i, row)
        if nxt:
            kept[nxt] = t[step * (nxt - i):]
        chunk.append(join(i, t))
        room -= len(row) - step * i
        if room <= 0 or i == len(rows):
            yield sep.join(chunk)
            chunk, room = [], _BLOCK


def _pair_blocks(table: _PairTable, esc, pad: str):
    """The pair table's items as _items writes the equal dicts, through _kept_rows: a row's
    "b" and "degree" texts are the tail of its distance row past the diagonal, and its pairs
    are one join whose separator carries its "a" text. The last source starts no pair."""
    sources, close, sep = table.sources, "\n" + pad + "}", ",\n" + pad
    a_part, b_part, d_part = ("\n  " + pad + esc(key) + ": " for key in ("a", "b", "degree"))
    names = [esc(b) + "," + d_part for b in sources]
    heads = ["{" + a_part + esc(a) + "," + b_part for a in sources]
    return _kept_rows(table.rows[:-1], sep, lambda i, row: list(map(add, names[i:], _floats(
        map(sub, repeat(1.0), row[i:]), "\n").split("\n"))),
        lambda i, tail: heads[i - 1] + (close + sep + heads[i - 1]).join(tail) + close, 1)


def _block(columns, parts, esc, pad: str, inner: str) -> str:
    """Join a block of rows in one join, each row its template's parts around its field
    texts and each but the first led by the separator. A column that _scalars leaves is
    written value by value at inner, its field's depth."""
    cols = [_scalars(col, esc) or ["".join(_json_chunks(v, esc, inner)) for v in col]
            for col in columns]
    fields = chain.from_iterable(zip(cols, map(repeat, parts[1:])))  # column k, then part k + 1
    return "".join(chain.from_iterable(
        zip(chain(parts[:1], repeat(",\n" + pad + parts[0])), *fields)))


def _json_chunks(value, esc, pad: str = ""):
    """Yield value as the json module writes it with indent=2, in pieces, nested at pad.

    A list is written through _items (a _PairTable through _pair_blocks), one chunk per block."""
    if not isinstance(value, _NESTED):
        yield _scalars([value], esc)[0]
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        head = "{\n" + inner
        for key, item in value.items():
            yield head + esc(key) + ": "
            yield from _json_chunks(item, esc, inner)
            head = sep
        yield "\n" + pad + "}"
        return
    head = "[\n" + inner
    for text in (_pair_blocks if isinstance(value, _PairTable) else _items)(value, esc, inner):
        yield head
        yield text
        head = sep
    yield "\n" + pad + "]"


def _density_dict(rho: onephoton.DensityOperator2) -> dict:
    return dict(zip(DENSITY_ARGS, (rho.rho11, rho.rho22, rho.rho12.real, rho.rho12.imag)))


# -- commands -----------------------------------------------------------------
#
# Each command returns (exit status, output chunks) or raises CliExit; main owns stdout,
# stderr and the --out file. Checks and columns come before the first chunk, and a model
# ValueError from them goes through to main, which maps it by _MODEL_ERRORS.


def _density(args) -> onephoton.DensityOperator2:
    from .onephoton import DensityOperator2
    return DensityOperator2(args.rho11, args.rho22, complex(args.rho12_re, args.rho12_im))


def _read(path: str, what: str, parse):
    """Read a UTF-8 input file and parse it; any failure exits 2."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliExit(EXIT_INVALID_INPUT, f"cannot read {what} file: {exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise CliExit(EXIT_INVALID_INPUT,
                      f"parse error at line {exc.line}, column {exc.column}: {exc}") from None


def cmd_decompose(args) -> tuple[int, Iterable[str]]:
    from . import onephoton
    rho = _density(args)
    dec = onephoton.mandel_decompose(rho)  # validity before degeneracy: exit 2 before exit 3
    coh = onephoton.coherence_functions(rho, 1.0)
    vis = onephoton.visibility_vs_pid(rho)

    gamma_abs = abs(coh.gamma12_normalized)
    weights = {"p_id": dec.p_id, "p_d": dec.p_d}
    parts = {"rho_id": _density_dict(dec.rho_id), "rho_d": _density_dict(dec.rho_d)}
    scalars = {
        "gamma12_abs": gamma_abs,
        "mandel_residual": abs(gamma_abs - dec.p_id),
        "visibility_analytic": vis.visibility,
        "visibility_over_p_id": vis.ratio,  # NaN when p_id = 0
    }
    if args.output == "csv":
        table = {**weights, **scalars, **{f"{tag}_{key}": value for tag, part in parts.items()
                                          for key, value in part.items()}}
        return EXIT_OK, ["key,value\n" + "%s,%r\n" * len(table) % tuple(
            chain.from_iterable(table.items()))]
    outputs = {key: None if isinstance(value, float) and not math.isfinite(value) else value
               for key, value in {**weights, **parts, **scalars}.items()}
    return _json(args, {name: getattr(args, name) for name in DENSITY_ARGS}, outputs)


def cmd_zwm_sweep(args) -> tuple[int, Iterable[str]]:
    from . import onephoton, zwm

    alpha, beta = args.alpha, args.beta
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise CliExit(EXIT_INVALID_INPUT, "bad amplitudes: pump amplitudes must be finite")
    norm = onephoton._abs2(alpha) + onephoton._abs2(beta)
    if norm == math.inf:
        raise CliExit(EXIT_INVALID_INPUT, "bad amplitudes: the squared pump amplitudes overflow")
    if norm <= 0 or alpha == 0 or beta == 0:
        raise CliExit(EXIT_INVALID_INPUT, "bad amplitudes: both pump amplitudes must be nonzero")
    scale = math.sqrt(norm)
    setup = zwm.ZwmSetup(pump_alpha=alpha / scale, pump_beta=beta / scale,
                         idler_transmission=1.0)
    columns = zwm.sweep_columns(setup, args.steps)

    names = zwm.SweepRow._fields
    if args.output == "csv":
        return EXIT_OK, _csv(",".join(names), columns)
    inputs = {name: getattr(args, name) for name in ("alpha", "beta", "steps")}
    return _json(args, inputs, {"rows": _DictRows(dict(zip(names, columns)))})


def cmd_fringes(args) -> tuple[int, Iterable[str]]:
    from . import onephoton
    # fringe_scan's columns, with no (phase, rate) tuple per sample
    phis, rates, visibility = onephoton._fringe_columns(_density(args), 1.0, args.samples)

    if args.output == "csv":
        return EXIT_OK, _csv("phase_rad,rate", (phis, rates), f"visibility,{visibility!r}\n")
    inputs = {name: getattr(args, name) for name in (*DENSITY_ARGS, "samples")}
    samples = _DictRows({"phase_rad": phis, "rate": rates}, keyed=False)
    return _json(args, inputs, {"samples": samples, "visibility": visibility})


def _separation_witnesses(universe: quasiset.Universe) -> list[list[str]]:
    """Pairs a < b in terms() order that are indistinguishable but not ext-identical."""
    from . import quasiset

    # Each class is one frozenset the universe holds; ext_identity only within a class.
    terms = universe.terms()
    rank = {t: i for i, t in enumerate(terms)}
    classes = {quasiset.indist_class(universe, t) for t in terms}
    pairs = sorted((i, j) for members in classes
                   for i, j in combinations(sorted(map(rank.__getitem__, members)), 2)
                   if not quasiset.ext_identity(universe, terms[i], terms[j]))
    return [[terms[i], terms[j]] for i, j in pairs]


def cmd_qset_check(args) -> tuple[int, Iterable[str]]:
    from . import quasiset

    universe = _read(args.universe_file, "universe", parse_universe)
    eq_reports = quasiset.check_equivalence_axioms(universe)
    x, z, w, reports = list(zip(*quasiset.theorem_instances(universe))) or [()] * 4
    instances = _DictRows({"x": x, "z": z, "w": w, "holds": [r.holds for r in reports],
                           "counterexample": [r.counterexample for r in reports]})
    witnesses = _DictRows(dict(zip("ab", zip(*_separation_witnesses(universe)))), keyed=False)
    all_hold = all(r.holds for r in eq_reports) and all(instances.columns["holds"])

    atoms = [universe.atoms[k] for k in sorted(universe.atoms)]
    inputs = {
        "species": sorted(universe.species),
        "atoms": _DictRows({key: [getattr(a, key) for a in atoms]
                            for key in quasiset.Atom._fields}),
        "qsets": {name: sorted(universe.qsets[name]) for name in sorted(universe.qsets)},
    }
    outputs = {
        "equivalence_axioms": [r._asdict() for r in eq_reports],
        "theorem_instances": instances,
        "separation_witnesses": witnesses,
        "classical_qsets": [name for name in sorted(universe.qsets)
                            if quasiset.is_classical_qset(universe, name)],
        "all_hold": all_hold,
    }
    return _json(args, inputs, outputs, EXIT_OK if all_hold else EXIT_AXIOMS_FAILED)


def cmd_bridge(args) -> tuple[int, Iterable[str]]:
    from . import qmetric

    tolerance = qmetric.DEFAULT_TOL if args.tolerance is None else args.tolerance
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise CliExit(EXIT_INVALID_INPUT,
                      f"invalid tolerance {tolerance!r}: need a finite number >= 0")
    sources, pid = _read(args.table_file, "table", parse_pid_table)
    space, reports = qmetric.from_pid_table(sources, pid, tol=tolerance)

    axioms_hold = all(r.holds for r in reports)
    rows = space.base.rows
    degrees = _PairTable(sources, rows) if space.axioms_hold else []
    inputs = {"sources": sources, "pid": pid, "tolerance": tolerance}
    outputs = {
        "distance": rows,
        "reports": [r._asdict() for r in reports],
        "degrees": degrees,
        "axioms_hold": axioms_hold,
    }
    return _json(args, inputs, outputs, EXIT_OK if axioms_hold else EXIT_AXIOMS_FAILED)


# -- argument parsing ----------------------------------------------------------

class _Shown(Exception):
    """Ends parsing with the --help or --version text, which main writes to stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line through main
        raise CliExit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}")

    def _print_message(self, message: str, file=None):  # reached only by --help and --version
        raise _Shown(message)


COMMANDS = (
    ("decompose", cmd_decompose, "split a density operator into coherent + which-way parts"),
    ("zwm-sweep", cmd_zwm_sweep, "sweep idler transmission in the two-crystal model"),
    ("fringes", cmd_fringes, "sample the detection rate over one phase period"),
    ("qset-check", cmd_qset_check, "check axioms and the permutation theorem on a universe"),
    ("bridge", cmd_bridge, "build a differentiation space from a degree table"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="indist",
        description="Degrees of indistinguishability: decomposition, sweeps, model checks")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {}
    for name, func, text in COMMANDS:
        cmd[name] = sub.add_parser(name, help=text)
        cmd[name].set_defaults(func=func)

    for name in ("decompose", "fringes"):
        for arg in DENSITY_ARGS:
            cmd[name].add_argument("--" + arg.replace("_", "-"), type=float, default=0.0,
                                   required=arg in ("rho11", "rho22"))
    p = cmd["zwm-sweep"]
    p.add_argument("--alpha", type=float, required=True, help="pump amplitude toward crystal 1")
    p.add_argument("--beta", type=float, required=True, help="pump amplitude toward crystal 2")
    p.add_argument("--steps", type=int, default=11)
    cmd["fringes"].add_argument("--samples", type=int, default=360)
    cmd["qset-check"].add_argument("universe_file")
    p = cmd["bridge"]
    p.add_argument("table_file")
    p.add_argument("--tolerance", type=float, default=None,
                   help="numeric tolerance for the axiom checks")
    for name in ("decompose", "zwm-sweep", "fringes"):
        cmd[name].add_argument("--output", choices=("json", "csv"), default="json")
    for p in cmd.values():
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None, stdout: TextIO = sys.stdout,
         stderr: TextIO = sys.stderr) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            out, (status, chunks) = args.out, args.func(args)
        except _Shown as shown:
            out, status, chunks = None, EXIT_OK, [str(shown)]
        except ValueError as exc:  # by class name, so that main imports no model module
            code, prefix = _MODEL_ERRORS.get(type(exc).__name__, (EXIT_INVALID_INPUT, ""))
            raise CliExit(code, prefix + str(exc)) from None
        if not out and stdout is None:  # fd 1 was closed when the interpreter started
            raise CliExit(EXIT_INVALID_INPUT, "cannot write output: stdout is closed")
        try:
            with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(stdout) as fh:
                fh.writelines(chunks)  # a write per chunk
                fh.flush()
        except OSError as exc:
            # fd 1 goes to os.devnull, so that the exit-time flush cannot fail on it
            # again (the Python docs' note on SIGPIPE).
            if not out and stdout is sys.stdout:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
            raise CliExit(EXIT_INVALID_INPUT,
                          f"cannot write output{' file' if out else ''}: {exc}") from None
    except CliExit as exc:
        stderr.write(f"{exc}\n")
        return exc.code
    except MemoryError:  # a --steps or --samples too large for this host
        stderr.write("out of memory\n")
        return EXIT_INVALID_INPUT
    return status


def entrypoint() -> None:
    sys.exit(main())
