"""CLI behavior: golden outputs, exit codes, round trips, determinism."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from conftest import plant_unrepeated_collection_key
from test_qmetric_oracle import reference_from_pid_table

from indist import cli, onephoton, qmetric, quasiset, zwm
from indist.cli import ParseError, parse_pid_table, parse_universe

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "indist", *args], capture_output=True, text=True
    )


DECOMPOSE_EXAMPLE = ("decompose", "--rho11", "0.64", "--rho22", "0.36",
                     "--rho12-re", "0.24", "--rho12-im", "0")


class TestGoldenFiles:
    def test_decompose_worked_example(self):
        cp = run_cli(*DECOMPOSE_EXAMPLE)
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "decompose_064.json").read_text()

    def test_balanced_zwm_sweep(self):
        cp = run_cli("zwm-sweep", "--alpha", "1", "--beta", "1",
                     "--steps", "11", "--output", "csv")
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "zwm_balanced_sweep.csv").read_text()

    def test_three_photon_universe_check(self):
        cp = run_cli("qset-check", str(DATA / "three_photons.univ"))
        assert cp.returncode == 0
        assert cp.stdout == (GOLDEN / "qset_check_three_photons.json").read_text()


class TestDecompose:
    def test_balanced_coherent(self):
        cp = run_cli("decompose", "--rho11", "0.5", "--rho22", "0.5", "--rho12-re", "0.5")
        data = json.loads(cp.stdout)
        assert data["outputs"]["p_id"] == 1.0
        assert data["outputs"]["mandel_residual"] == 0.0

    def test_invalid_density_exits_2(self):
        cp = run_cli("decompose", "--rho11", "0.5", "--rho22", "0.5", "--rho12-re", "0.6")
        assert cp.returncode == 2
        assert "positivity" in cp.stderr

    def test_degenerate_source_exits_3(self):
        cp = run_cli("decompose", "--rho11", "1", "--rho22", "0")
        assert cp.returncode == 3
        assert "degenerate" in cp.stderr.lower()

    def test_json_round_trip(self):
        cp = run_cli(*DECOMPOSE_EXAMPLE)
        data = json.loads(cp.stdout)
        assert data["command"] == "decompose"
        assert data["status"] == 0
        assert data["inputs"]["rho11"] == 0.64
        # Re-serializing the parsed document reproduces the bytes.
        assert json.dumps(data, indent=2) + "\n" == cp.stdout

    def test_csv_output(self):
        cp = run_cli(*DECOMPOSE_EXAMPLE, "--output", "csv")
        lines = cp.stdout.splitlines()
        assert lines[0] == "key,value"
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["p_id"]) == 0.5
        assert float(values["rho_id_rho12_re"]) == 0.48

    def test_determinism(self):
        a = run_cli(*DECOMPOSE_EXAMPLE)
        b = run_cli(*DECOMPOSE_EXAMPLE)
        assert a.stdout == b.stdout

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        cp = run_cli(*DECOMPOSE_EXAMPLE, "--out", str(target))
        assert cp.returncode == 0 and cp.stdout == ""
        assert json.loads(target.read_text())["outputs"]["p_id"] == 0.5


class TestZwmSweep:
    def test_eleven_rows_with_monotone_p_id(self):
        cp = run_cli("zwm-sweep", "--alpha", "1", "--beta", "1",
                     "--steps", "11", "--output", "csv")
        rows = cp.stdout.splitlines()[1:]
        assert len(rows) == 11
        p_ids = [float(r.split(",")[1]) for r in rows]
        assert p_ids == pytest.approx([i / 10 for i in range(11)], abs=1e-12)

    def test_unbalanced_pump_same_p_id_column(self):
        balanced = run_cli("zwm-sweep", "--alpha", "1", "--beta", "1",
                           "--steps", "11", "--output", "csv")
        unbalanced = run_cli("zwm-sweep", "--alpha", "0.8", "--beta", "0.6",
                             "--steps", "11", "--output", "csv")
        col_b = [float(r.split(",")[1]) for r in balanced.stdout.splitlines()[1:]]
        col_u = [float(r.split(",")[1]) for r in unbalanced.stdout.splitlines()[1:]]
        assert col_u == pytest.approx(col_b, abs=1e-12)

    def test_single_step_exits_2(self):
        cp = run_cli("zwm-sweep", "--alpha", "1", "--beta", "1", "--steps", "1")
        assert cp.returncode == 2

    def test_zero_amplitude_exits_2(self):
        cp = run_cli("zwm-sweep", "--alpha", "1", "--beta", "0")
        assert cp.returncode == 2

    def test_json_output(self):
        cp = run_cli("zwm-sweep", "--alpha", "1", "--beta", "1", "--steps", "3")
        data = json.loads(cp.stdout)
        assert [row["t_mag"] for row in data["outputs"]["rows"]] == [0.0, 0.5, 1.0]


class TestFringes:
    def test_coherent_balanced_sinusoid(self):
        cp = run_cli("fringes", "--rho11", "0.5", "--rho22", "0.5",
                     "--rho12-re", "0.5", "--samples", "360", "--output", "csv")
        lines = cp.stdout.splitlines()
        assert lines[0] == "phase_rad,rate"
        assert lines[-1] == "visibility,1.0"
        rates = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert len(rates) == 360
        assert max(rates) == pytest.approx(2.0, abs=1e-12)
        assert min(rates) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_state_flat(self):
        cp = run_cli("fringes", "--rho11", "0.5", "--rho22", "0.5",
                     "--samples", "16", "--output", "csv")
        rates = {line.split(",")[1] for line in cp.stdout.splitlines()[1:-1]}
        assert rates == {"1.0"}

    def test_worked_example_visibility(self):
        cp = run_cli("fringes", "--rho11", "0.64", "--rho22", "0.36",
                     "--rho12-re", "0.24", "--samples", "1024")
        data = json.loads(cp.stdout)
        assert data["outputs"]["visibility"] == pytest.approx(0.48, abs=1e-6)
        assert len(data["outputs"]["samples"]) == 1024

    def test_bad_samples_exits_2(self):
        cp = run_cli("fringes", "--rho11", "0.5", "--rho22", "0.5", "--samples", "4")
        assert cp.returncode == 2

    def test_invalid_density_exits_2(self):
        cp = run_cli("fringes", "--rho11", "0.7", "--rho22", "0.4")
        assert cp.returncode == 2


class TestQsetCheck:
    def test_parse_error_has_line_info(self, tmp_path):
        bad = tmp_path / "bad.univ"
        bad.write_text("species: s\natoms:\n  a micro s\n  a micro s\n")
        cp = run_cli("qset-check", str(bad))
        assert cp.returncode == 2
        assert "line 4" in cp.stderr

    def test_unknown_species_rejected(self, tmp_path):
        bad = tmp_path / "bad.univ"
        bad.write_text("species: s\natoms:\n  a micro ghost\n")
        cp = run_cli("qset-check", str(bad))
        assert cp.returncode == 2

    def test_missing_file_exits_2(self):
        cp = run_cli("qset-check", "no_such_file.univ")
        assert cp.returncode == 2

    def test_non_utf8_file_exits_2(self, tmp_path):
        bad = tmp_path / "latin1.univ"
        bad.write_bytes("species: s\natoms:\n  \u00e9 micro s\n".encode("latin-1"))
        cp = run_cli("qset-check", str(bad))
        assert cp.returncode == 2
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("cannot read universe file:")
        assert cp.stderr.count("\n") == 1

    def test_two_species_witness(self, tmp_path):
        f = tmp_path / "two_species.univ"
        f.write_text(
            "species: photon electron\n"
            "atoms:\n"
            "  a micro photon\n"
            "  b micro photon\n"
            "  e micro electron\n"
            "qsets:\n"
            "  x = a e\n"
        )
        cp = run_cli("qset-check", str(f))
        data = json.loads(cp.stdout)
        assert cp.returncode == 0
        assert ["a", "b"] in data["outputs"]["separation_witnesses"]

    def test_macro_universe(self, tmp_path):
        f = tmp_path / "macro.univ"
        f.write_text("atoms:\n  M1 macro\n  M2 macro\nqsets:\n  s = M1\n")
        cp = run_cli("qset-check", str(f))
        data = json.loads(cp.stdout)
        assert cp.returncode == 0
        assert data["outputs"]["theorem_instances"] == []
        assert data["outputs"]["classical_qsets"] == ["s"]


class TestBridge:
    def write_table(self, tmp_path, body: str) -> str:
        f = tmp_path / "table.pid"
        f.write_text(body)
        return str(f)

    def test_all_ones_table(self, tmp_path):
        path = self.write_table(tmp_path, "sources: s1 s2\npid:\n  1.0 1.0\n  1.0 1.0\n")
        cp = run_cli("bridge", path)
        data = json.loads(cp.stdout)
        assert cp.returncode == 0
        assert data["outputs"]["axioms_hold"] is True
        assert data["outputs"]["degrees"] == [{"a": "s1", "b": "s2", "degree": 1.0}]

    def test_triangle_violation_exits_4(self, tmp_path):
        path = self.write_table(
            tmp_path,
            "sources: s1 s2 s3\npid:\n  1.0 0.9 0.9\n  0.9 1.0 0.0\n  0.9 0.0 1.0\n",
        )
        cp = run_cli("bridge", path)
        assert cp.returncode == 4
        data = json.loads(cp.stdout)
        failing = [r for r in data["outputs"]["reports"] if not r["holds"]]
        assert any(r["axiom"] == "QM6" and r["counterexample"] for r in failing)

    def test_asymmetric_table_exits_2(self, tmp_path):
        path = self.write_table(tmp_path, "sources: s1 s2\npid:\n  1.0 0.5\n  0.6 1.0\n")
        cp = run_cli("bridge", path)
        assert cp.returncode == 2

    def test_round_trip(self, tmp_path):
        path = self.write_table(
            tmp_path, "sources: s1 s2 s3\npid:\n  1.0 1.0 0.5\n  1.0 1.0 0.5\n  0.5 0.5 1.0\n"
        )
        cp = run_cli("bridge", path)
        data = json.loads(cp.stdout)
        assert json.dumps(data, indent=2) + "\n" == cp.stdout
        assert data["outputs"]["distance"][0][2] == 0.5

    def test_tolerance_override(self, tmp_path):
        # Asymmetry of 1e-9 fails at the default 1e-12 but passes at 1e-6.
        body = "sources: s1 s2\npid:\n  1.0 0.500000001\n  0.5 1.0\n"
        path = self.write_table(tmp_path, body)
        assert run_cli("bridge", path).returncode == 2
        cp = run_cli("bridge", path, "--tolerance", "1e-6")
        assert cp.returncode == 0

    def test_tolerance_recorded_in_inputs(self, tmp_path):
        path = self.write_table(tmp_path, "sources: s1 s2\npid:\n  1.0 0.5\n  0.5 1.0\n")
        data = json.loads(run_cli("bridge", path, "--tolerance", "1e-6").stdout)
        assert data["inputs"]["tolerance"] == 1e-6
        assert json.loads(run_cli("bridge", path).stdout)["inputs"]["tolerance"] == 1e-12

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-12", "inf"])
    def test_bad_tolerance_exits_2(self, tmp_path, tolerance):
        path = self.write_table(tmp_path, "sources: s1 s2\npid:\n  1.0 0.5\n  0.5 1.0\n")
        cp = run_cli("bridge", path, f"--tolerance={tolerance}")
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("invalid tolerance")
        assert cp.stderr.count("\n") == 1

    def test_non_utf8_table_exits_2(self, tmp_path):
        f = tmp_path / "latin1.pid"
        f.write_bytes("sources: \u00e91 s2\npid:\n  1.0 1.0\n  1.0 1.0\n".encode("latin-1"))
        cp = run_cli("bridge", str(f))
        assert cp.returncode == 2
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("cannot read table file:")
        assert cp.stderr.count("\n") == 1


class TestParsers:
    def test_universe_comments_and_inline_species(self):
        u = parse_universe(
            "# a comment\nspecies: photon electron\natoms:\n"
            "  a micro photon  # trailing comment\n  M macro\nqsets:\n  x = a\n  e =\n"
        )
        assert u.is_micro("a") and u.is_macro("M")
        assert u.qsets["e"] == frozenset()

    def test_universe_bad_atom_entry(self):
        with pytest.raises(ParseError) as err:
            parse_universe("species: s\natoms:\n  a micro\n")
        assert err.value.line == 3

    def test_universe_unknown_member(self):
        with pytest.raises(ParseError):
            parse_universe("species: s\natoms:\n  a micro s\nqsets:\n  x = a ghost\n")

    def test_universe_text_outside_section(self):
        with pytest.raises(ParseError) as err:
            parse_universe("photon\n")
        assert err.value.line == 1

    def test_universe_atom_qset_name_clash(self):
        with pytest.raises(ParseError, match="duplicate name 'x'") as err:
            parse_universe("species: s\natoms:\n  x micro s\nqsets:\n   x = x\n")
        assert (err.value.line, err.value.column) == (5, 4)
        with pytest.raises(ParseError, match="duplicate name 'x'") as err:
            parse_universe("species: s\nqsets:\n  x =\natoms:\n    x micro s\n")
        assert (err.value.line, err.value.column) == (5, 5)

    def test_pid_table(self):
        sources, rows = parse_pid_table("sources: s1 s2\npid:\n  1.0 0.5\n  0.5 1.0\n")
        assert sources == ["s1", "s2"]
        assert rows == [[1.0, 0.5], [0.5, 1.0]]

    def test_pid_table_shape_error(self):
        with pytest.raises(ParseError):
            parse_pid_table("sources: s1 s2\npid:\n  1.0 0.5\n")

    def test_pid_table_bad_value(self):
        with pytest.raises(ParseError) as err:
            parse_pid_table("sources: s1 s2\npid:\n  1.0 x\n  0.5 1.0\n")
        assert err.value.line == 3

    def test_universe_qset_entry_without_equals(self):
        with pytest.raises(ParseError, match="qset entry must be '<name> = <members...>'") as err:
            parse_universe("species: s\natoms:\n  a micro s\nqsets:\n  x a\n")
        assert (err.value.line, err.value.column) == (5, 1)

    def test_pid_table_headers_take_space_before_the_colon(self):
        # Both formats share one header rule: 'sources :' opens its section as 'species :' does.
        assert parse_pid_table("sources : a\npid:\n  1.0\n") == (["a"], [[1.0]])
        assert parse_pid_table("sources: a\npid :\n  1.0\n") == (["a"], [[1.0]])

    def test_pid_table_inline_row_exits_2(self, tmp_path):
        path = tmp_path / "inline_row.pid"
        path.write_text("sources: a\npid: 1.0\n")
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(["bridge", str(path)], stdout=out, stderr=err) == 2
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "parse error at line 2, column 1: section 'pid' takes no inline entries\n")


class TestDeepNestingAndErrors:
    @pytest.mark.parametrize("members_first", [True, False])
    def test_deep_nesting_exits_0(self, tmp_path, members_first):
        # 1500 levels is past the default recursion limit of 1000.
        chain = ["  q0 = a"] + [f"  q{i} = q{i - 1}" for i in range(1, 1500)]
        if not members_first:
            chain.reverse()
        f = tmp_path / "deep.univ"
        f.write_text("species: s\natoms:\n  a micro s\nqsets:\n" + "\n".join(chain) + "\n")
        cp = run_cli("qset-check", str(f))
        assert cp.returncode == 0
        assert "Traceback" not in cp.stderr
        data = json.loads(cp.stdout)
        assert data["outputs"]["classical_qsets"] == []
        assert data["outputs"]["all_hold"] is True

    def test_parse_error_column_points_at_the_token(self, tmp_path):
        bad = tmp_path / "bad.univ"
        bad.write_text("species: photon\natoms:\n  ph micro p\n")
        cp = run_cli("qset-check", str(bad))
        assert cp.returncode == 2
        assert cp.stderr == "parse error at line 3, column 12: unregistered species 'p'\n"

    @pytest.mark.parametrize("argv", [("qset-check", str(DATA / "three_photons.univ")),
                                      DECOMPOSE_EXAMPLE])
    def test_unwritable_out_exits_2(self, tmp_path, argv):
        cp = run_cli(*argv, "--out", str(tmp_path / "missing" / "report.json"))
        assert cp.returncode == 2
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("cannot write output file:")
        assert cp.stderr.count("\n") == 1


class TestOpticsInputErrors:
    @pytest.mark.parametrize("argv,code,prefix", [
        (("zwm-sweep", "--alpha", "1e-7", "--beta", "1"), 3, "degenerate source: "),
        (("zwm-sweep", "--alpha", "1e200", "--beta", "1e200"), 2, "bad amplitudes: "),
        # Subnormal squares: the rescaled pump misses unit norm.
        (("zwm-sweep", "--alpha", "1e-160", "--beta", "1e-160"), 2, "bad amplitudes: "),
        (("decompose", "--rho11", "0.5", "--rho22", "0.5", "--rho12-re", "1e200"), 2,
         "invalid density: positivity residual inf\n"),
        (("fringes", "--rho11", "0.5", "--rho22", "0.5", "--rho12-re", "1e200"), 2,
         "invalid density: positivity residual inf\n"),
    ], ids=["degenerate-pump", "overflowing-pump", "subnormal-pump",
            "decompose-overflow", "fringes-overflow"])
    def test_exits_with_one_line(self, argv, code, prefix):
        cp = run_cli(*argv)
        assert cp.returncode == code
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith(prefix)
        assert cp.stderr.count("\n") == 1


class TestModelOwnsDensityText:
    """decompose and fringes print the model's InvalidDensity text as it stands."""

    @pytest.mark.parametrize("rho,line", [
        ((1e-12, 0.999999999999, 1.4e-6),
         "invalid density: positivity residual 9.600000000009998e-13"),
        ((0.3, 0.3, 0.5), "invalid density: trace residual 0.4; positivity residual 0.16"),
    ])
    def test_mandel_decompose_raises_the_cli_line(self, rho, line):
        from indist import onephoton
        with pytest.raises(onephoton.InvalidDensity) as exc:
            onephoton.mandel_decompose(onephoton.DensityOperator2(*rho))
        assert str(exc.value) == line
        for command in ("decompose", "fringes"):
            err = io.StringIO()
            argv = [command, "--rho11", repr(rho[0]), "--rho22", repr(rho[1]),
                    "--rho12-re", repr(rho[2])]
            assert cli.main(argv, stdout=io.StringIO(), stderr=err) == 2
            assert err.getvalue() == line + "\n"


class TestOutOfMemory:
    def test_too_many_samples_end_in_one_line(self):
        # The child caps its own address space at 512 MiB before it runs main.
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (512 << 20,) * 2); "
                "from indist import cli; sys.exit(cli.main(sys.argv[1:]))")
        cp = subprocess.run([sys.executable, "-c", code, "fringes", "--rho11", "0.5", "--rho22",
                             "0.5", "--samples", "50000000", "--output", "csv"],
                            capture_output=True, text=True, timeout=300)
        assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", "out of memory\n")


class TestVersionFlag:
    def test_version(self):
        cp = run_cli("--version")
        assert cp.returncode == 0
        assert "0.1.0" in cp.stdout


class TestLazyImports:
    @pytest.mark.parametrize("argv", [DECOMPOSE_EXAMPLE, ("--version",)])
    def test_optics_commands_skip_model_theory_modules(self, argv):
        # -X importtime logs every module the process imports to stderr.
        cp = subprocess.run([sys.executable, "-X", "importtime", "-m", "indist", *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0
        imported = {line.rsplit("|", 1)[1].strip() for line in cp.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "indist.cli" in imported
        assert not imported & {"indist.quasiset", "indist.qmetric", "indist.zwm"}


class TestModelCommandsSkipOnephoton:
    @pytest.mark.parametrize("argv", [
        ("bridge", str(DATA / "bridge_clean.pid")),
        ("qset-check", str(DATA / "three_photons.univ")),
        ("--version",),
    ], ids=lambda argv: argv[0])
    def test_onephoton_is_not_imported(self, argv):
        # -X importtime logs every module the process imports to stderr.
        cp = subprocess.run([sys.executable, "-X", "importtime", "-m", "indist", *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0
        imported = {line.rsplit("|", 1)[1].strip() for line in cp.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "indist.cli" in imported
        assert "indist.onephoton" not in imported


FRINGES_EXAMPLE = ("fringes", "--rho11", "0.64", "--rho22", "0.36",
                   "--rho12-re", "0.24", "--samples", "8")
ZWM_EXAMPLE = ("zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", "5")


# Writes to stderr which of dataclasses and inspect running argv newly imports.
LEAN_START_CHILD = """
import sys
from io import StringIO
before = set(sys.modules)
from indist.cli import main
try:
    main(sys.argv[1:], stdout=StringIO())
except SystemExit:  # --version exits through argparse
    pass
sys.stderr.write(repr(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


class TestLeanStart:
    # sys.modules is diffed instead of reading -X importtime, because site
    # may import dataclasses before indist on some installations.
    @pytest.mark.parametrize("argv", [
        DECOMPOSE_EXAMPLE, FRINGES_EXAMPLE, ("--version",),
        pytest.param(ZWM_EXAMPLE, id="zwm-sweep-json"),
        pytest.param((*ZWM_EXAMPLE, "--output", "csv"), id="zwm-sweep-csv"),
    ], ids=lambda argv: argv[0])
    def test_optics_commands_skip_dataclasses_and_inspect(self, argv):
        cp = subprocess.run([sys.executable, "-c", LEAN_START_CHILD, *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr == "[]"

    @pytest.mark.parametrize("argv", [
        ("bridge", str(DATA / "bridge_clean.pid")),
        ("qset-check", str(DATA / "three_photons.univ")),
    ], ids=lambda argv: argv[0])
    def test_model_commands_skip_dataclasses_and_inspect(self, argv):
        cp = subprocess.run([sys.executable, "-c", LEAN_START_CHILD, *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr == "[]"


# Writes to stderr which json modules running argv newly imports.
NO_JSON_CHILD = """
import sys
from io import StringIO
before = set(sys.modules)
from indist.cli import main
try:
    main(sys.argv[1:], stdout=StringIO())
except SystemExit:  # --version exits through argparse
    pass
sys.stderr.write(repr(sorted(m for m in set(sys.modules) - before if m.startswith("json"))))
"""


class TestCsvStartLoadsNoJson:
    @pytest.mark.parametrize("argv", [
        ("--version",),
        (*FRINGES_EXAMPLE, "--output", "csv"),
        ("zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", "5", "--output", "csv"),
    ], ids=lambda argv: argv[0])
    def test_no_json_module(self, argv):
        cp = subprocess.run([sys.executable, "-c", NO_JSON_CHILD, *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr == "[]"


class TestJsonReportLoadsNoJsonPackage:
    # The writer takes its string escaper from the C module _json, which json.encoder
    # wraps, so a JSON report loads none of the json package either.
    @pytest.mark.parametrize("argv", [
        DECOMPOSE_EXAMPLE,
        ("bridge", str(DATA / "bridge_clean.pid")),
    ], ids=lambda argv: argv[0])
    def test_no_json_package(self, argv):
        cp = subprocess.run([sys.executable, "-c", NO_JSON_CHILD, *argv],
                            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr == "[]"


# Runs argv with the C module _json unimportable, then writes to stderr whether the
# report went through json.encoder's pure-Python string escaper.
NO_C_JSON_CHILD = """
import sys
sys.modules["_json"] = None  # every import of _json now raises ImportError
from indist.cli import main
status = main(sys.argv[1:])
from json import encoder
sys.stderr.write(repr(encoder.encode_basestring_ascii is encoder.py_encode_basestring_ascii))
sys.exit(status)
"""


class TestJsonEscaperFallback:
    # python -S: site may import json, and with it _json, before the child hides _json.
    @pytest.mark.parametrize("argv,golden", [
        (DECOMPOSE_EXAMPLE, "decompose_064.json"),
        (("bridge", str(DATA / "bridge_escapes.pid")), "bridge_escapes.json"),
    ], ids=["decompose", "bridge-escapes"])
    def test_golden_bytes_without_c_json(self, argv, golden):
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        cp = subprocess.run([sys.executable, "-S", "-c", NO_C_JSON_CHILD, *argv],
                            capture_output=True, env=env)
        assert (cp.returncode, cp.stderr) == (0, b"True")
        assert cp.stdout == (GOLDEN / golden).read_bytes()


# Writes to stderr which of random and cmath the process holds after running argv.
NO_RANDOM_CHILD = """
import sys
from io import StringIO
from indist.cli import main
main(sys.argv[1:], stdout=StringIO())
sys.stderr.write(repr(sorted({"random", "cmath"} & set(sys.modules))))
"""


class TestDecomposeLoadsNoRandom:
    # python -S: site imports random on some installations, before indist runs.
    def test_no_random_or_cmath_module(self):
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        cp = subprocess.run([sys.executable, "-S", "-c", NO_RANDOM_CHILD, *DECOMPOSE_EXAMPLE],
                            capture_output=True, text=True, env=env)
        assert cp.returncode == 0, cp.stderr
        assert cp.stderr == "[]"


# Quote, backslash, %, control, non-ASCII, lone-surrogate and astral characters.
json_text = st.text(
    st.characters() | st.sampled_from('"\\%\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'), max_size=6)
json_floats = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
json_scalars = st.none() | st.booleans() | st.integers() | json_floats | json_text


@st.composite
def same_keyed_dicts(draw, values):
    """Dicts sharing their keys; the last may list them in another order."""
    keys = draw(st.lists(json_text, min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.lists(values, min_size=len(keys), max_size=len(keys)),
                         min_size=1, max_size=4))
    last = draw(st.permutations(keys))
    return [dict(zip(keys, row)) for row in rows[:-1]] + [dict(zip(last, rows[-1]))]


json_values = st.recursive(
    json_scalars | st.lists(json_floats, max_size=6),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(json_text, children, max_size=4)
                      | same_keyed_dicts(json_scalars | children)),
    max_leaves=24)


class TestJsonWriter:
    """The report writer prints exactly what json.dumps(value, indent=2) prints."""

    @settings(max_examples=400, deadline=None)
    @given(report=st.dictionaries(json_text, json_values, max_size=5))
    def test_matches_json_dumps(self, report):
        from json.encoder import encode_basestring_ascii
        assert "".join(cli._json_chunks(report, encode_basestring_ascii)) == \
            json.dumps(report, indent=2)

    @pytest.mark.parametrize("value", [
        [-0.0, 5e-324, math.nan, math.inf, -math.inf, 1e300],
        [True, 1, 1.0, False, 0, None],
        [{"a": 1.0, "%s": "%"}, {"a": math.nan, "%s": "\u00e9"}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1, "b": 2}, {"a": [1.0], "b": {}}],
        [{}, {}, [], ()],
    ], ids=["floats", "bools", "percent-keys", "key-order", "nested", "empty"])
    def test_named_cases(self, value):
        from json.encoder import encode_basestring_ascii
        report = {"k": value, "\u00e9\"\\": (value,)}
        assert "".join(cli._json_chunks(report, encode_basestring_ascii)) == \
            json.dumps(report, indent=2)


class _Float(float):
    pass


NAN = math.nan  # one NaN object, reused
FRESH_NAN = object()  # drawn as float("nan"), a new NaN object each time
POOLS = [
    [0.0, -0.0, NAN, FRESH_NAN, math.inf, -math.inf, 0.5, 5e-324],
    [_Float(0.0), _Float(-0.0), _Float(0.25), _Float("inf")],
    [True, 1, 1.0, False, 0, 0.0, -0.0, None, FRESH_NAN],
    ["%", "%s", "%%", "a", "\u00e9", ""],
    [0, -1, 2 ** 70],
    [True, False, None],
]
ROW_KEYS = ["%", "%s", "a", "\u00e9\"", "k%%"]


@st.composite
def pooled_rows(draw):
    """Equal-length rows (lists, tuples or same-keyed dicts) whose columns repeat pool values."""
    pools = draw(st.lists(st.sampled_from(POOLS), min_size=1, max_size=4))
    columns = [st.sampled_from(pool).map(lambda v: float("nan") if v is FRESH_NAN else v)
               for pool in pools]
    n = draw(st.integers(1, 100))  # rows that repeat values, and rows that do not
    rows = draw(st.lists(st.tuples(*columns), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["list", "tuple", "mixed", "dict"]))
    if kind == "dict":
        keys = draw(st.lists(st.sampled_from(ROW_KEYS), min_size=len(pools),
                             max_size=len(pools), unique=True))
        return [dict(zip(keys, row)) for row in rows]
    if kind == "mixed":
        return [list(row) if i % 3 else row for i, row in enumerate(rows)]
    return [list(row) for row in rows] if kind == "list" else rows


def _written(value) -> str:
    from json.encoder import encode_basestring_ascii
    return "".join(cli._json_chunks(value, encode_basestring_ascii))


class TestUnserializableValue:
    def test_raises_the_text_of_json_dumps(self):
        value = {"k": object()}
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as exc:
            _written(value)
        assert str(exc.value) == str(expected.value)


class _Int(int):
    pass


class _Str(str):
    pass


class TestScalarTexts:
    """Lone scalars and columns of one scalar type print json.dumps bytes, and a column of
    one type json cannot write raises json's TypeError."""

    @pytest.mark.parametrize("values", [
        [True, False, True],
        [None, None],
        [2 ** 70, -(2 ** 70), 2 ** 70],
        [_Int(3), _Int(-1), _Int(3)],
        [_Str("%s"), _Str("\u00e9"), _Str("%s")],
        [_Float(-0.0), _Float(0.0), _Float("nan")],
    ], ids=["bool", "none", "big-int", "int-subclass", "str-subclass", "float-subclass"])
    def test_match_json_dumps(self, values):
        report = {"lone": {str(i): v for i, v in enumerate(values)},
                  "items": [[v] for v in values], "column": values,
                  "rows": cli._DictRows({"v": values})}
        expected = {**report, "rows": [{"v": v} for v in values]}
        assert _written(report) == json.dumps(expected, indent=2)

    @pytest.mark.parametrize("value", [[{1}, {2}], [{1}, 1.0], {1}])
    def test_set_raises_the_text_of_json_dumps(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps({"k": value}, indent=2)
        with pytest.raises(TypeError) as exc:
            _written({"k": value})
        assert str(exc.value) == str(expected.value)


class TestColumnarWriter:
    """Columns of repeated values and same-shaped rows still print json.dumps(indent=2) bytes."""

    @settings(max_examples=300, deadline=None)
    @given(rows=pooled_rows())
    def test_pooled_rows_match_json_dumps(self, rows):
        column = [next(iter(row.values())) if isinstance(row, dict) else row[0] for row in rows]
        report = {"rows": rows, "column": column, "nested": {"%s": [rows, column]}}
        assert _written(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize("value", [
        [[1.0, 2.0], [1.0]],
        [[1.0], (2.0,), [3.0, 4.0]],
        [[], [], []],
        [(), ()],
        [{}, {}],
        [[_Float(0.0), _Float(-0.0)], [_Float(-0.0), _Float(0.0)]] * 50,
        [_Float(-0.0), _Float(0.0), _Float(1.5)] * 50,
        [-0.0, 0.0, NAN] * 50 + [float("nan"), float("nan")],
        [[0.5, [1.0]], [0.5, [2.0]]] * 40,
        [[0.5, 1.0]] * 5000 + [[0.5, {"x": -0.0}]],
    ], ids=["ragged", "ragged-tuples", "empty-lists", "empty-tuples", "empty-dicts",
            "float-subclass-rows", "float-subclass-column", "zeros-and-nans",
            "nested-rows", "nested-in-last-block"])
    def test_named_cases(self, value):
        report = {"k": value, "%": [value]}
        assert _written(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize("kind", ["dict", "list"])
    def test_rows_longer_than_one_block(self, kind):
        n = 3 * 4096 + 1
        rows = [[i / 7, i % 5 * 0.5, "s%d" % (i % 3), i % 2 == 0] for i in range(n)]
        if kind == "dict":
            rows = [{"t": a, "p%": b, "name": c, "ok": d} for a, b, c, d in rows]
        assert _written({"rows": rows}) == json.dumps({"rows": rows}, indent=2)

    @pytest.mark.parametrize("kind", ["samples", "dict-rows"])
    def test_memory_stays_within_two_and_a_half_output_sizes(self, kind):
        import tracemalloc

        n = 3 * 4096 + 1
        rows = [[i / n * 6.283185307179586, 1.0 + math.cos(i / 7)] for i in range(n)]
        if kind == "dict-rows":
            rows = [{"t_mag": a, "p_id": b, "visibility": b / 2, "coincidence_id_prob": 1 - a}
                    for a, b in rows]
        value = {"rows": rows}
        _written(value)  # import json.encoder outside the trace
        tracemalloc.start()
        try:
            text = _written(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == json.dumps(value, indent=2)
        assert peak <= 2.5 * len(text), f"peak {peak / len(text):.2f}x the output"


@st.composite
def float_row_matrices(draw):
    """Lists of float rows drawn from a small pool: signed zeros, NaNs, equal copies of
    one row and the same row object, as lists or tuples; sometimes one pool row whose
    zeros and ones are bools, ints or a float subclass."""
    width = draw(st.integers(1, 4))
    cell = st.sampled_from([0.0, -0.0, NAN, FRESH_NAN, 1.0, -1.5, math.inf, 5e-324]).map(
        lambda v: float("nan") if v is FRESH_NAN else v)
    pool = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=3))
    pool += [[-v if v == 0 else v for v in row] for row in pool]  # the signed-zero twin rows
    n = draw(st.integers(1, 150))  # plain-float rows go through cli._kept_rows at any width
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.sampled_from(["same", "copy", "tuple"])),
                          min_size=n, max_size=n))
    rows = [pool[i] if how == "same" else list(pool[i]) if how == "copy" else tuple(pool[i])
            for i, how in picks]
    odd = draw(st.sampled_from([None, bool, int, _Float]))  # packs to a pool row's bytes
    if odd is not None:
        row = [odd(v) if v in (0.0, 1.0) else v for v in draw(st.sampled_from(pool))]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


class TestRepeatedRows:
    """Lists of repeated float rows 1 to 4 wide, written row by row (or, holding a bool, an
    int or a float subclass, as one column of rows), print json.dumps bytes."""

    @settings(max_examples=300, deadline=None)
    @given(rows=float_row_matrices())
    def test_pooled_float_rows_match_json_dumps(self, rows):
        report = {"rows": rows, "nested": {"m": [rows, rows[:1]]}}
        assert _written(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize("value", [
        [[0.0, 1.5], [-0.0, 1.5]] * 40,
        [[True, 1.0], [1, 1.0], [1.0, 1.0]] * 30,
        [[1.0, 1.0]] * 70 + [[True, 1.0]],
        [[NAN, 0.5], [float("nan"), 0.5], [math.inf, -math.inf]] * 30,
        [[_Float(0.5), _Float(-0.0)], [0.5, 0.0]] * 40,
        [[0.25, -0.0, 1e300]] * 4096 + [[0.0, 5e-324, -1e300]] * 4097,
        [[i / 3, -0.0] for i in range(64)] + [[0.5, 0.5]] * 200,
        [[0.5, 0.5]] * 64 + [(i / 3, -0.0) for i in range(200)],
    ], ids=["signed-zero-twins", "bool-int-float-rows", "bool-row-after-repeats", "nan-rows",
            "float-subclass-rows", "two-blocks", "distinct-then-repeats",
            "repeats-then-distinct"])
    def test_named_cases(self, value):
        report = {"k": value, "%": [value]}
        assert _written(report) == json.dumps(report, indent=2)


@st.composite
def wide_float_rows(draw):
    """Lists of rows 14 to 40 wide, written row by row when every value is a plain float:
    signed zeros, NaNs, infinities and 5e-324, the same row object and equal copies as
    lists or tuples, and sometimes one row holding a float subclass, a bool or an int, which
    packs to a float row's bytes and must make the list one column of rows."""
    width = draw(st.integers(14, 40))
    cell = st.sampled_from([0.0, -0.0, NAN, FRESH_NAN, math.inf, -math.inf, 5e-324, 1.0, 0.5])
    cell = cell.map(lambda v: float("nan") if v is FRESH_NAN else v)
    pool = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=3))
    pool += [[-v if v == 0 else v for v in row] for row in pool]  # the signed-zero twin rows
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.sampled_from(["same", "copy", "tuple"])),
                          min_size=1, max_size=40))
    rows = [pool[i] if how == "same" else list(pool[i]) if how == "copy" else tuple(pool[i])
            for i, how in picks]
    odd = draw(st.sampled_from([None, bool, int, _Float]))
    if odd is not None:
        row, k = list(draw(st.sampled_from(pool))), draw(st.integers(0, width - 1))
        row[k] = odd(row[k] if math.isfinite(row[k]) else 1.0)
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


class TestWideFloatRows:
    """Wide rows of plain floats, each distinct row's bytes formatted once, print json.dumps
    bytes; whole rows go into each chunk, so a block of 5 values holds one row."""

    @pytest.mark.parametrize("block", [4096, 5])
    @settings(max_examples=150, deadline=None)
    @given(rows=wide_float_rows())
    def test_match_json_dumps(self, block, rows):
        from unittest import mock

        report = {"rows": rows, "nested": {"m": [rows, rows[:1]]}}
        with mock.patch.object(cli, "_BLOCK", block):
            assert _written(report) == json.dumps(report, indent=2)


class TestBridgeReportBytes:
    """The bridge report equals json.dumps of the report built with per-pair degree dicts."""

    @staticmethod
    def expected(sources, pid, tolerance):
        from indist import __version__, qmetric

        space, reports = qmetric.from_pid_table(sources, pid, tol=tolerance)
        rows = space.base.rows
        degrees = [{"a": a, "b": b, "degree": 1.0 - d}
                   for i, (a, row) in enumerate(zip(sources, rows))
                   for b, d in zip(sources[i + 1:], row[i + 1:])] if space.axioms_hold else []
        holds = all(r.holds for r in reports)
        report = {
            "command": "bridge", "version": __version__,
            "inputs": {"sources": sources, "pid": pid, "tolerance": tolerance},
            "outputs": {"distance": rows,
                        "reports": [{"axiom": r.axiom, "holds": r.holds,
                                     "counterexample": None if r.counterexample is None
                                     else list(r.counterexample)} for r in reports],
                        "degrees": degrees, "axioms_hold": holds},
            "status": 0 if holds else 4,
        }
        return report["status"], json.dumps(report, indent=2) + "\n"

    @staticmethod
    def run(tmp_path, sources, pid, tolerance=1e-12):
        path = tmp_path / "table.pid"
        path.write_text("sources: " + " ".join(sources) + "\npid:\n"
                        + "".join("  " + " ".join(map(repr, row)) + "\n" for row in pid))
        out = io.StringIO()
        status = cli.main(["bridge", str(path), "--tolerance", repr(tolerance)], stdout=out)
        return status, out.getvalue()

    def test_one_source_has_no_degrees(self, tmp_path):
        status, text = self.run(tmp_path, ["s1"], [[1.0]])
        assert (status, text) == self.expected(["s1"], [[1.0]], 1e-12)
        assert '"degrees": []' in text

    def test_axioms_failing_table_has_no_degrees(self, tmp_path):
        pid = [[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]]
        status, text = self.run(tmp_path, ["s1", "s2", "s3"], pid)
        assert status == 4
        assert (status, text) == self.expected(["s1", "s2", "s3"], pid, 1e-12)
        assert '"degrees": []' in text

    @settings(max_examples=40, deadline=None)
    @given(groups=st.lists(st.sampled_from([k / 16 for k in range(17)]) | st.floats(0, 1),
                           min_size=1, max_size=6),
           picks=st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_random_grouped_tables(self, tmp_path_factory, groups, picks):
        x = [groups[i % len(groups)] for i in picks]
        pid = [[1.0 - abs(a - b) for b in x] for a in x]
        sources = [f"s{i}" for i in range(len(x))]
        got = self.run(tmp_path_factory.mktemp("bridge"), sources, pid)
        assert got == self.expected(sources, pid, 1e-12)

    # The pair table formats a row object's degree texts once and keeps them until the last
    # row that shares the object; a block of 5 pairs splits rows across blocks.
    @pytest.mark.parametrize("block", [4096, 5])
    @pytest.mark.parametrize("x", [
        [i / 1024 for i in range(70)],
        [min(i, 59 - i) / 64 for i in range(60)],
        [(i % 7) / 8 for i in range(50)],
        [0.5],
        [0.0, 0.25],
        [0.5, 0.5],
    ], ids=["all-distinct", "pairs-far-apart", "groups-interleaved", "n1", "n2", "n2-equal"])
    def test_pair_tables_match_json_dumps(self, tmp_path, monkeypatch, x, block):
        monkeypatch.setattr(cli, "_BLOCK", block)
        pid = [[1.0 - abs(a - b) for b in x] for a in x]
        sources = [f"s{i}" for i in range(len(x))]
        assert self.run(tmp_path, sources, pid) == self.expected(sources, pid, 1e-12)


class TestPairTableBytes:
    """A pair table whose equal rows are separate list and tuple objects shares their texts:
    rows are keyed by their bytes, so each distinct row is formatted once."""

    @pytest.mark.parametrize("block", [4096, 5])
    def test_equal_rows_held_apart_match_json_dumps(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK", block)
        row = [0.0, 0.5, 0.25, -0.0, 0.75, 0.5, 0.0, 1.0, 0.125]
        signed = [-v if v == 0 else v for v in row]  # equal as tuples, not in bytes
        other = [v / 2 for v in row]
        rows = [row, list(row), tuple(row), signed, other, tuple(row), list(signed), other,
                row]
        sources = ["s0", "\u00e9", 's"2', "s%3", "s4", "s5", "s6", "s7", "s8"]
        formatted = []
        floats = cli._floats
        monkeypatch.setattr(cli, "_floats", lambda values, sep: formatted.append(sep)
                            or floats(values, sep))
        got = _written({"degrees": cli._PairTable(sources, rows)})
        degrees = [{"a": a, "b": b, "degree": 1.0 - d}
                   for i, (a, row) in enumerate(zip(sources, rows))
                   for b, d in zip(sources[i + 1:], row[i + 1:])]
        assert got == json.dumps({"degrees": degrees}, indent=2)
        assert len(formatted) == 3  # row, signed and other; the last row starts no pair


@st.composite
def perturbed_bridge_tables(draw):
    """Tables 1 - |a - b| of 2 to 80 sources on a line: a few group points, equal rows far
    apart (i and n - 1 - i), or 64 distinct rows and then repeats. Then any of: a zero's
    sign swapped between two equal rows, one entry moved by 1 ulp, and the extreme accepted
    values 5e-324 (for a 0) and 1 - 2**-53 (for a 1)."""
    n = draw(st.integers(2, 80))
    layout = draw(st.sampled_from(["groups", "far-apart", "late-repeats"]))
    if layout == "groups":
        points = draw(st.lists(st.sampled_from([k / 16 for k in range(17)]), min_size=1,
                               max_size=4))
        x = draw(st.lists(st.sampled_from(points), min_size=n, max_size=n))
    elif layout == "far-apart":
        x = [min(i, n - 1 - i) / 128 for i in range(n)]
    else:
        n = max(n, 66)
        x = [i / 1024 for i in range(64)]
        x += draw(st.lists(st.sampled_from(x), min_size=n - 64, max_size=n - 64))
    edits = draw(st.sets(st.sampled_from(["signed-zero", "ulp", "extremes"])))
    i, j, k = draw(st.permutations(range(n)))[:3] if n > 2 else (0, 1, None)
    if k is not None and edits & {"signed-zero", "extremes"}:
        x[i], x[j], x[k] = 0.0, 0.0, 1.0  # pid 0.0 at (i, k) and (j, k)
    pid = [[1.0 - abs(a - b) for b in x] for a in x]
    if k is not None and "signed-zero" in edits:
        pid[i][k] = pid[k][i] = -0.0  # rows i and j stay equal as tuples
    if k is not None and "extremes" in edits:
        pid[j][k] = pid[k][j] = 5e-324
        pid[i][j] = pid[j][i] = 1 - 2 ** -53
    if "ulp" in edits:
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        pid[a][b] = math.nextafter(pid[a][b], draw(st.sampled_from([-1.0, 2.0])))
    return [f"s{m}" for m in range(n)], pid


class TestBridgeReportMatchesReference:
    """The bridge report's bytes equal json.dumps of the report of the reference bridge
    (tests/test_qmetric_oracle.py), whose rows share no object, at blocks of 4096 and 5."""

    @staticmethod
    def expected(sources, pid, tolerance):
        from indist import __version__

        space, reports = reference_from_pid_table(sources, pid, tol=tolerance)
        rows = space.base.rows
        degrees = [{"a": a, "b": b, "degree": 1.0 - d}
                   for i, (a, row) in enumerate(zip(sources, rows))
                   for b, d in zip(sources[i + 1:], row[i + 1:])] if space.axioms_hold else []
        holds = all(r.holds for r in reports)
        report = {
            "command": "bridge", "version": __version__,
            "inputs": {"sources": sources, "pid": pid, "tolerance": tolerance},
            "outputs": {"distance": rows, "reports": [r._asdict() for r in reports],
                        "degrees": degrees, "axioms_hold": holds},
            "status": 0 if holds else 4,
        }
        return report["status"], json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("block", [4096, 5])
    @settings(max_examples=25, deadline=None)
    @given(table=perturbed_bridge_tables())
    def test_cli_bytes(self, tmp_path_factory, block, table):
        from unittest import mock

        with mock.patch.object(cli, "_BLOCK", block):
            got = TestBridgeReportBytes.run(tmp_path_factory.mktemp("bridge"), *table)
        assert got == self.expected(*table, 1e-12)


class TestColumnReportBytes:
    """zwm-sweep, fringes and qset-check hand the writer columns; their reports equal
    the bytes built from the former per-row records, dicts and lists."""

    @staticmethod
    def report(command, inputs, outputs, status=0):
        from indist import __version__
        return json.dumps({"command": command, "version": __version__, "inputs": inputs,
                           "outputs": outputs, "status": status}, indent=2) + "\n"

    @staticmethod
    def main(*argv):
        out = io.StringIO()
        status = cli.main(list(argv), stdout=out)
        return status, out.getvalue()

    @pytest.mark.parametrize("steps", [2, 5, 4097, 8193])
    def test_zwm_sweep(self, steps):
        from indist import zwm

        alpha, beta = 0.8, 0.6
        scale = math.sqrt(alpha ** 2 + beta ** 2)
        rows = zwm.sweep_transmission(zwm.ZwmSetup(alpha / scale, beta / scale, 1.0), steps)
        argv = ("zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", str(steps))
        inputs = {"alpha": alpha, "beta": beta, "steps": steps}
        assert self.main(*argv) == (0, self.report("zwm-sweep", inputs,
                                                   {"rows": [r._asdict() for r in rows]}))
        lines = ["t_mag,p_id,visibility,coincidence_id_prob"]
        lines.extend(f"{r.t_mag!r},{r.p_id!r},{r.visibility!r},{r.coincidence_id_prob!r}"
                     for r in rows)
        assert self.main(*argv, "--output", "csv") == (0, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("samples", [8, 8195])
    def test_fringes(self, samples):
        from indist import onephoton

        rho = onephoton.DensityOperator2(0.64, 0.36, complex(0.24, 0.0))
        scan = onephoton.fringe_scan(rho, 1.0, samples)
        argv = (*FRINGES_EXAMPLE[:-1], str(samples))
        inputs = {"rho11": 0.64, "rho22": 0.36, "rho12_re": 0.24, "rho12_im": 0.0,
                  "samples": samples}
        outputs = {"samples": [[phase, rate] for phase, rate in scan.samples],
                   "visibility": scan.visibility}
        assert self.main(*argv) == (0, self.report("fringes", inputs, outputs))
        lines = ["phase_rad,rate", *(f"{phase!r},{rate!r}" for phase, rate in scan.samples),
                 f"visibility,{scan.visibility!r}"]
        assert self.main(*argv, "--output", "csv") == (0, "\n".join(lines) + "\n")

    TWO_SPECIES = ("species: p q\natoms:\n  a micro p\n  b micro p\n  c micro p\n  d micro q\n"
                   "  e micro q\n  M macro\nqsets:\n  x = a d\n  y = a b d e\n  z = x c M\n")

    @pytest.mark.parametrize("text, fault", [
        ((DATA / "three_photons.univ").read_text(), False),
        (TWO_SPECIES, False),
        ("species: p\natoms:\n  a micro p\n  M macro\n", False),
        ("species: p\natoms:\nqsets:\n  e =\n  f = e\n", False),
        (TWO_SPECIES, True),
    ], ids=["three-photons", "two-species", "no-qsets", "no-atoms", "two-species-key-fault"])
    def test_qset_check(self, tmp_path, monkeypatch, text, fault):
        from indist import quasiset

        if fault:
            # Before the parse, so the reference below and the CLI both see the fault.
            plant_unrepeated_collection_key(monkeypatch)
        path = tmp_path / "universe.univ"
        path.write_text(text)
        universe = parse_universe(text)
        eq_reports = quasiset.check_equivalence_axioms(universe)
        instances = [{"x": x, "z": z, "w": w, "holds": r.holds,
                      "counterexample": None if r.counterexample is None
                      else list(r.counterexample)}
                     for x, z, w, r in quasiset.theorem_instances(universe)]
        holds = all(r.holds for r in eq_reports) and all(i["holds"] for i in instances)
        inputs = {
            "species": sorted(universe.species),
            "atoms": [{"uid": a.uid, "kind": a.kind, "species": a.species}
                      for a in (universe.atoms[k] for k in sorted(universe.atoms))],
            "qsets": {name: sorted(universe.qsets[name]) for name in sorted(universe.qsets)},
        }
        outputs = {
            "equivalence_axioms": [{"axiom": r.axiom, "holds": r.holds,
                                    "counterexample": None if r.counterexample is None
                                    else list(r.counterexample)} for r in eq_reports],
            "theorem_instances": instances,
            "separation_witnesses": cli._separation_witnesses(universe),
            "classical_qsets": [name for name in sorted(universe.qsets)
                                if quasiset.is_classical_qset(universe, name)],
            "all_hold": holds,
        }
        status = 0 if holds else 4
        assert self.main("qset-check", str(path)) == (
            status, self.report("qset-check", inputs, outputs, status))
        if fault:  # every instance fails, with its removal as the counterexample
            assert status == 4 and instances and all(i["counterexample"] for i in instances)

    @pytest.mark.parametrize("columns", [
        {"t": [i / 7 for i in range(2 * 4096 + 3)], "p%": [i % 5 * 0.5 for i in range(8195)],
         "name": ["s%d" % (i % 3) for i in range(8195)], "ok": [i % 2 == 0 for i in range(8195)]},
        {"a": (1.0, -0.0, math.nan), "c": (None, [1, [2.0]], None)},
        {"a": [0.5] * 4100, "c": [None] * 4097 + [[-0.0], None, {"x": None}]},
        {"a": [], "b": []},
        {"x": ("a", "b"), "%s": (True, None)},
    ], ids=["three-blocks", "nested-column", "nested-in-second-block", "empty", "tuples"])
    def test_dict_rows_writer(self, columns):
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        value = {"rows": cli._DictRows(columns), "nested": {"%s": cli._DictRows(columns)}}
        assert _written(value) == json.dumps({"rows": rows, "nested": {"%s": rows}}, indent=2)

    @pytest.mark.parametrize("where", ["in-a-list", "in-a-nested-column"])
    def test_dict_rows_anywhere(self, where):
        columns = {"a": [1.0, -0.0, 1.0], "%s": ["x", None, [0.5]]}
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        if where == "in-a-list":
            value = [cli._DictRows(columns), 0.5, [cli._DictRows(columns)]]
            expected = [rows, 0.5, [rows]]
        else:
            value = cli._DictRows({"n": [1, 2, 3], "t": [cli._DictRows(columns)] * 3})
            expected = [{"n": n, "t": rows} for n in (1, 2, 3)]
        report = {"k": value, "nested": {"%": [value]}}
        assert _written(report) == json.dumps(
            {"k": expected, "nested": {"%": [expected]}}, indent=2)

    def test_dict_rows_without_columns(self):
        assert _written({"k": cli._DictRows({})}) == json.dumps({"k": []}, indent=2)

    @pytest.mark.parametrize("block", [4096, 5])
    @pytest.mark.parametrize("columns", [
        {"phase": [i / 7 for i in range(13)], "rate": [-0.0, math.nan, math.inf] * 4 + [5e-324]},
        {"a": ["x", "%s", "\u00e9\"", "x"] * 3, "b": ["", "\ud800", "y", "%"] * 3},
        {"n": [1, True, 1.0, None] * 3, "t": [[0.5], {"k": -0.0}, (), "s"] * 3},
        {"only": [0.25, -0.0] * 6},
        {},
    ], ids=["floats", "strings", "mixed-and-nested", "one-column", "no-columns"])
    def test_unkeyed_dict_rows_are_list_rows(self, block, columns):
        from unittest import mock

        rows = [list(values) for values in zip(*columns.values())]
        value = {"rows": cli._DictRows(columns, keyed=False),
                 "nested": [cli._DictRows(columns, keyed=False)]}
        with mock.patch.object(cli, "_BLOCK", block):
            assert _written(value) == json.dumps({"rows": rows, "nested": [rows]}, indent=2)

    def test_zwm_sweep_builds_no_rows(self, monkeypatch):
        from indist import zwm

        built = []
        new = zwm.SweepRow.__new__

        def counted(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(zwm.SweepRow, "__new__", counted)
        for output in ("json", "csv"):
            status, _ = self.main("zwm-sweep", "--alpha", "1", "--beta", "2",
                                  "--steps", "50", "--output", output)
            assert status == 0
        assert built == []
        zwm.sweep_transmission(zwm.ZwmSetup(0.6, 0.8, 1.0), 3)  # the counter does count
        assert len(built) == 3


class TestStdoutWriteFailures:
    """A stdout that fails or is closed ends like a failing --out: one line, exit 2."""

    @staticmethod
    def assert_one_line(returncode, stderr, reason):
        assert returncode == 2
        assert "Traceback" not in stderr
        assert stderr.startswith("cannot write output: " + reason)
        assert stderr.count("\n") == 1

    def test_broken_pipe(self):
        argv = ("fringes", "--rho11", "0.5", "--rho22", "0.5", "--rho12-re", "0.3",
                "--samples", "200000", "--output", "csv")
        child = subprocess.Popen([sys.executable, "-m", "indist", *argv],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()  # the reader goes away, as in `| true`
        stderr = child.stderr.read()
        child.stderr.close()
        self.assert_one_line(child.wait(), stderr, "[Errno 32]")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            cp = subprocess.run([sys.executable, "-m", "indist", "zwm-sweep", "--alpha", "1",
                                 "--beta", "1", "--steps", "5"],
                                stdout=full, stderr=subprocess.PIPE, text=True)
        self.assert_one_line(cp.returncode, cp.stderr, "[Errno 28]")

    def test_closed_stdout(self):
        # sh closes fd 1 before python starts, so sys.stdout is None.
        cp = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "indist",
                             "fringes", "--rho11", "0.5", "--rho22", "0.5"],
                            stderr=subprocess.PIPE, text=True)
        self.assert_one_line(cp.returncode, cp.stderr, "stdout is closed")

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_flag_text_goes_through_main(self, flag):
        out = io.StringIO()
        assert cli.main([flag], stdout=out) == 0
        assert out.getvalue() == run_cli(flag).stdout
        assert out.getvalue().startswith("indist 0.1.0\n" if flag == "--version" else "usage: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_flag_text_to_full_device(self, flag):
        with open("/dev/full", "w") as full:
            cp = subprocess.run([sys.executable, "-m", "indist", flag],
                                stdout=full, stderr=subprocess.PIPE, text=True)
        self.assert_one_line(cp.returncode, cp.stderr, "[Errno 28]")

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_flag_text_to_closed_stdout(self, flag):
        cp = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "indist",
                             flag], stderr=subprocess.PIPE, text=True)
        self.assert_one_line(cp.returncode, cp.stderr, "stdout is closed")


class TestMoreGoldenFiles:
    @pytest.mark.parametrize("argv,code,golden", [
        ((*DECOMPOSE_EXAMPLE, "--output", "csv"), 0, "decompose_064.csv"),
        (FRINGES_EXAMPLE, 0, "fringes_064_8.json"),
        ((*FRINGES_EXAMPLE, "--output", "csv"), 0, "fringes_064_8.csv"),
        (("zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", "5"), 0,
         "zwm_unbalanced_sweep_5.json"),
        (("bridge", str(DATA / "bridge_clean.pid")), 0, "bridge_clean.json"),
        # QM6 fails: exit 4 with the counterexample in the report.
        (("bridge", str(DATA / "bridge_qm6.pid")), 4, "bridge_qm6.json"),
        # Repeated rows: congruence fails at (b1, b3) after (a1, a2) and (b1, b2) pass.
        (("bridge", str(DATA / "bridge_groups.pid")), 4, "bridge_groups.json"),
        # Source names that JSON must escape: non-ASCII, '"', '\\' and '%'.
        (("bridge", str(DATA / "bridge_escapes.pid")), 0, "bridge_escapes.json"),
        # A broken zero chain: zero-transitivity, QM4, QM6 and congruence fail on repeated rows.
        (("bridge", str(DATA / "bridge_zero_chain.pid")), 4, "bridge_zero_chain.json"),
        # Accepted at its tolerance but not its own transpose: the QM6 witness has c before a.
        (("bridge", str(DATA / "bridge_asymmetric_qm6.pid"), "--tolerance", "0.0009765625"), 4,
         "bridge_asymmetric_qm6.json"),
        # Rows s00 and s01 are equal as tuples but differ in one zero's sign: each row of
        # the pid echo keeps its own text.
        (("bridge", str(DATA / "bridge_signed_zero.pid")), 0, "bridge_signed_zero.json"),
        # Two species: w = d e is [d] and lists no instance; z = x c M nests x beside a macro.
        (("qset-check", str(DATA / "two_species.univ")), 0, "qset_check_two_species.json"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_output_bytes(self, argv, code, golden):
        cp = run_cli(*argv)
        assert cp.returncode == code, cp.stderr
        assert cp.stderr == ""
        assert cp.stdout == (GOLDEN / golden).read_text()

    def test_decompose_csv_in_process(self):
        out, err = io.StringIO(), io.StringIO()
        assert cli.main([*DECOMPOSE_EXAMPLE, "--output", "csv"], stdout=out, stderr=err) == 0
        assert (out.getvalue(), err.getvalue()) == ((GOLDEN / "decompose_064.csv").read_text(), "")

    def test_ci_golden_step_names_every_golden_file_once_per_list(self):
        # Both lists in the workflow's python -S step are kept by hand.
        workflow = (HERE.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
        (step,) = [s for s in re.split(r"\n\s*- name: ", workflow) if "python -S -u -W error" in s]
        files = sorted(path.name for path in GOLDEN.iterdir())
        for helper in ("golden", "golden_out"):
            assert sorted(re.findall(rf"^\s*{helper} \d+ (\S+)", step, re.M)) == files, helper


@pytest.fixture
def bad_inputs(tmp_path):
    """Input files for the error paths; argv tokens name them as {tmp}/<file>."""
    (tmp_path / "latin1.univ").write_bytes("species: s\natoms:\n  é micro s\n".encode("latin-1"))
    (tmp_path / "latin1.pid").write_bytes(
        "sources: é1 s2\npid:\n  1.0 1.0\n  1.0 1.0\n".encode("latin-1"))
    (tmp_path / "bad.univ").write_text("species: photon\natoms:\n  ph micro p\n")
    (tmp_path / "bad.pid").write_text("sources: s1 s2\npid:\n  1.0 x\n  0.5 1.0\n")
    (tmp_path / "asym.pid").write_text("sources: s1 s2\npid:\n  1.0 0.5\n  0.6 1.0\n")
    # Degrees inside [-tol, 1 + tol] whose distance 1 - v rounds below -tol.
    for name, v in (("over.pid", "1.000000000001"), ("over_tenth.pid", "1.1"),
                    ("over_1e-7.pid", "1.0000001")):
        (tmp_path / name).write_text(f"sources: s1 s2\npid:\n  1.0 {v}\n  {v} 1.0\n")
    (tmp_path / "no_names.pid").write_text("# no names\n\nsources:\npid:\n  1.0\n")
    (tmp_path / "short_row.pid").write_text("# c\nsources: a b\npid:\n  1.0 0.5\n\n  0.5\n")
    (tmp_path / "no_rows.pid").write_text("sources: a b\npid:\n")
    (tmp_path / "extra_row.pid").write_text("sources: a\npid:\n  1.0\n  1.0\n")
    (tmp_path / "dup_species.univ").write_text("species: s\natoms:\n  a micro s\nspecies: s\n")
    universe = "species: s\natoms:\n  a micro s\n  b micro s\nqsets:\n"
    (tmp_path / "cycle.univ").write_text(universe + "  x = a y\n  y = x\n")
    # In frozenset order the cycle below was named 'q' or 'r' by hash seed.
    (tmp_path / "cycle3.univ").write_text(universe + "  x = q r\n  q = r\n  r = q\n")
    (tmp_path / "unknowns.univ").write_text(universe + "  w = a\n  x = a r q p\n")
    (tmp_path / "dup_source.pid").write_text("sources: a a\npid:\n  1.0 1.0\n  1.0 1.0\n")
    return tmp_path


UNWRITABLE = "--out {tmp}/missing/report"
DECOMPOSE = "decompose --rho11 0.64 --rho22 0.36 --rho12-re 0.24"
ZWM = "zwm-sweep --alpha 1 --beta 1"
FRINGES = "fringes --rho11 0.5 --rho22 0.5"
QSET = "qset-check {data}/three_photons.univ"
BRIDGE = "bridge {data}/bridge_clean.pid"


ERROR_PATHS = [
    ("decompose --rho11 0.5 --rho22 0.5 --rho12-re 0.6", 2,
     "invalid density: positivity residual "),
    ("decompose --rho11 0.3 --rho22 0.3 --rho12-re 0.5", 2,
     "invalid density: trace residual 0.4; positivity residual 0.16\n"),
    ("decompose --rho11 0.5 --rho22 0.5 --rho12-re 1e200", 2,
     "invalid density: positivity residual inf\n"),
    ("decompose --rho11 1 --rho22 0", 3, "degenerate source: "),
    (f"{DECOMPOSE} {UNWRITABLE}", 2, "cannot write output file: "),
    (f"{ZWM} --steps 1", 2, "steps must be >= 2, got 1\n"),
    ("zwm-sweep --alpha 0 --beta 1", 2,
     "bad amplitudes: both pump amplitudes must be nonzero\n"),
    ("zwm-sweep --alpha inf --beta 1", 2, "bad amplitudes: pump amplitudes must be finite\n"),
    ("zwm-sweep --alpha nan --beta 1", 2, "bad amplitudes: pump amplitudes must be finite\n"),
    ("zwm-sweep --alpha 1e154 --beta 1e154", 2,
     "bad amplitudes: the squared pump amplitudes overflow\n"),
    ("zwm-sweep --alpha 1e200 --beta 1e200", 2,
     "bad amplitudes: the squared pump amplitudes overflow\n"),
    ("zwm-sweep --alpha 1e-160 --beta 1e-160", 2,
     "bad amplitudes: pump amplitudes square-sum to "),
    ("zwm-sweep --alpha 1e-7 --beta 1", 3, "degenerate source: "),
    (f"{ZWM} {UNWRITABLE}", 2, "cannot write output file: "),
    (f"{FRINGES} --samples 4", 2, "samples must be >= 8, got 4\n"),
    ("fringes --rho11 0.7 --rho22 0.4", 2, "invalid density: trace residual "),
    (f"{FRINGES} {UNWRITABLE}", 2, "cannot write output file: "),
    ("qset-check {tmp}/absent.univ", 2, "cannot read universe file: "),
    ("qset-check {tmp}/latin1.univ", 2, "cannot read universe file: "),
    ("qset-check {tmp}/bad.univ", 2,
     "parse error at line 3, column 12: unregistered species 'p'\n"),
    (f"{QSET} {UNWRITABLE}", 2, "cannot write output file: "),
    (f"{BRIDGE} --tolerance nan", 2, "invalid tolerance nan: need a finite number >= 0\n"),
    ("bridge {tmp}/absent.pid", 2, "cannot read table file: "),
    ("bridge {tmp}/latin1.pid", 2, "cannot read table file: "),
    ("bridge {tmp}/bad.pid", 2, "parse error at line 3, column 1: bad matrix row '1.0 x'\n"),
    ("bridge {tmp}/asym.pid", 2, "malformed table: "),
    (f"{BRIDGE} {UNWRITABLE}", 2, "cannot write output file: "),
    ("fringes --rho11 0.5 --rho22 0.5 --samples 1e3", 2,
     "indist fringes: error: argument --samples: invalid int value: '1e3'\n"),
    ("decompose --rho11 0.5", 2,
     "indist decompose: error: the following arguments are required: --rho22\n"),
    ("bridge {tmp}/over.pid", 2,
     "malformed table: value 1.000000000001 at (0, 1) outside [0, 1]\n"),
    ("bridge {tmp}/over_tenth.pid --tolerance 0.1", 2,
     "malformed table: value 1.1 at (0, 1) outside [0, 1]\n"),
    ("bridge {tmp}/over_1e-7.pid --tolerance 1e-7", 2,
     "malformed table: value 1.0000001 at (0, 1) outside [0, 1]\n"),
    ("decompose --rho11 1e-12 --rho22 0.999999999999 --rho12-re 1.4e-6", 2,
     "invalid density: positivity residual "),
    ("bridge {tmp}/no_names.pid", 2, "parse error at line 3, column 1: empty 'sources:' section\n"),
    ("bridge {tmp}/short_row.pid", 2, "parse error at line 6, column 1: matrix must be 2x2\n"),
    ("bridge {tmp}/no_rows.pid", 2, "parse error at line 2, column 1: matrix must be 2x2\n"),
    ("bridge {tmp}/extra_row.pid", 2, "parse error at line 4, column 1: matrix must be 1x1\n"),
    ("qset-check {tmp}/dup_species.univ", 2,
     "parse error at line 4, column 10: duplicate species label 's'\n"),
    ("qset-check {tmp}/cycle.univ", 2,
     "parse error at line 6, column 1: qset 'x' contains itself (directly or transitively)\n"),
    ("qset-check {tmp}/unknowns.univ", 2,
     "parse error at line 7, column 1: qset 'x' references unknown term 'r'\n"),
    ("bridge {tmp}/dup_source.pid", 2, "malformed table: duplicate source name 'a'\n"),
    # Two faults: zwm checks the pump before the step count.
    ("zwm-sweep --alpha 1e-160 --beta 1e-160 --steps 1", 2,
     "bad amplitudes: pump amplitudes square-sum to "),
]


class TestErrorPaths:
    """Every exit-2/3 path: one stderr line, nothing on stdout (exit 4 is a report)."""

    @pytest.mark.parametrize("argv,code,prefix",
                             [pytest.param(*case, id=case[0]) for case in ERROR_PATHS])
    def test_one_line_diagnostic(self, bad_inputs, argv, code, prefix):
        out, err = io.StringIO(), io.StringIO()
        rc = cli.main([tok.format(tmp=bad_inputs, data=DATA) for tok in argv.split()],
                      stdout=out, stderr=err)
        assert rc == code
        assert out.getvalue() == ""
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


class TestModelErrorExits:
    """main maps a model ValueError raised by a command's checks, by its class name; one
    raised while the report is written goes through."""

    @pytest.mark.parametrize("argv,module,name,error,code,line", [
        (DECOMPOSE, onephoton, "mandel_decompose", onephoton.DegenerateSource, 3,
         "degenerate source: planted"),
        (ZWM, zwm, "sweep_columns", zwm.InvalidSetup, 2, "bad amplitudes: planted"),
        (BRIDGE, qmetric, "from_pid_table", qmetric.MalformedTable, 2,
         "malformed table: planted"),
        (FRINGES, onephoton, "_fringe_columns", onephoton.ZeroField, 2, "planted"),
        (QSET, quasiset, "check_equivalence_axioms", ValueError, 2, "planted"),
        (BRIDGE, qmetric, "from_pid_table", ValueError, 2, "planted"),
    ], ids=["decompose-DegenerateSource", "zwm-sweep-InvalidSetup", "bridge-MalformedTable",
            "fringes-ZeroField", "qset-check-ValueError", "bridge-ValueError"])
    def test_one_line_diagnostic(self, monkeypatch, argv, module, name, error, code, line):
        def planted(*args, **kwargs):
            raise error("planted")

        monkeypatch.setattr(module, name, planted)
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv.format(data=DATA).split(), stdout=out, stderr=err) == code
        assert (out.getvalue(), err.getvalue()) == ("", line + "\n")

    def test_error_while_writing_is_not_an_exit(self, monkeypatch):
        def planted(values, sep):
            raise ValueError("planted")

        monkeypatch.setattr(cli, "_floats", planted)
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(ValueError, match="planted"):
            cli.main(list(FRINGES_EXAMPLE), stdout=out, stderr=err)
        assert out.getvalue().startswith('{\n  "command": "fringes"')
        assert err.getvalue() == ""


class TestByteOrderMark:
    @pytest.mark.parametrize("command,data,golden", [
        ("qset-check", "three_photons.univ", "qset_check_three_photons.json"),
        ("bridge", "bridge_clean.pid", "bridge_clean.json"),
    ])
    def test_bom_prefixed_input_matches_golden(self, tmp_path, command, data, golden):
        path = tmp_path / data
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / data).read_bytes())
        out, err = io.StringIO(), io.StringIO()
        assert cli.main([command, str(path)], stdout=out, stderr=err) == 0
        assert err.getvalue() == ""
        assert out.getvalue() == (GOLDEN / golden).read_text()


class TestHashSeedDeterminism:
    """Exit code, stdout and stderr do not depend on the string hash seed."""

    @pytest.mark.parametrize("argv", [
        "qset-check {data}/three_photons.univ",
        "bridge {data}/bridge_clean.pid",
        "bridge {data}/bridge_groups.pid",
        "bridge {data}/bridge_qm6.pid",
        "qset-check {tmp}/cycle.univ",
        "qset-check {tmp}/cycle3.univ",
        "qset-check {tmp}/unknowns.univ",
    ], ids=lambda argv: argv.split("/")[-1])
    def test_same_result_under_two_seeds(self, bad_inputs, argv):
        args = [sys.executable, "-m", "indist", *argv.format(tmp=bad_inputs, data=DATA).split()]
        results = []
        for seed in ("0", "1"):
            cp = subprocess.run(args, capture_output=True, text=True,
                                env={**os.environ, "PYTHONHASHSEED": seed})
            results.append((cp.returncode, cp.stdout, cp.stderr))
        assert results[0] == results[1]


FUZZ_TOKENS = ("species:", "atoms:", "qsets:", "sources:", "pid:", "a", "b", "x", "photon",
               "micro", "macro", "0", "0.5", "1.0", "-1", "1e400", "nan", "=", ":", "#")
fuzz_text = st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=6), max_size=8).map(
    lambda lines: "\n".join("  " * (i % 2) + " ".join(line) for i, line in enumerate(lines)))


class TestParserFuzz:
    """Random token files either parse or raise ParseError, nothing else."""

    @pytest.mark.parametrize("parse", [parse_universe, parse_pid_table],
                             ids=lambda parse: parse.__name__)
    @settings(max_examples=300, deadline=None)
    @given(text=fuzz_text)
    def test_value_or_parse_error(self, parse, text):
        try:
            parse(text)
        except ParseError:
            pass


NUMBERS = ("0", "-0.0", "0.5", "0.64", "0.36", "0.24", "1", "-1", "1e-12", "nan", "NaN", "inf",
           "-inf", "5e-324", "1e308", "1_0", "0x1", "junk", "")
# --steps and --samples draw only sizes <= 1000, or text that int() rejects.
COUNTS = ("-3", "0", "1", "2", "7", "8", "11", "1000", "1_0", "1e3", "1.5", "nan", "junk", "")
DENSITIES = (("0.64", "0.36"), ("0.5", "0.5"), ("1", "0"), ("0.25", "0.75"))
ATOM_LINES = ("  a micro p", "  b micro p", "  c micro q", "  M macro", "  N macro")
QSET_LINES = ("  x = a b", "  y = x c M", "  u = a M N", "  e =", "  z = z", "  w = a nope")
JUNK_LINES = ("species: p p", "  c micro r", "  a macro", "x = a", "qsets: x", "# note", "",
              "junk", "pid:")


def _option(name: str, pool, keep: bool = False) -> st.SearchStrategy:
    """["--name", value] from pool, or (unless keep) no option at all."""
    option = st.sampled_from(pool).map(lambda value: ["--" + name, value])
    return option if keep else option | st.just([])


@st.composite
def _universe_text(draw) -> str:
    lines = ["species: p q", "atoms:",
             *draw(st.lists(st.sampled_from(ATOM_LINES), max_size=5, unique=True)),
             "qsets:", *draw(st.lists(st.sampled_from(QSET_LINES), max_size=3, unique=True))]
    for junk in draw(st.lists(st.sampled_from(JUNK_LINES), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@st.composite
def _table_text(draw) -> str:
    x = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=1, max_size=4))
    rows = [[repr(1.0 - abs(a - b)) for b in x] for a in x]
    for i, j, token in draw(st.lists(st.tuples(st.integers(0, len(x) - 1),
                                               st.integers(0, len(x) - 1),
                                               st.sampled_from(NUMBERS)), max_size=1)):
        rows[i][j] = rows[j][i] = token
    lines = ["sources: " + " ".join(f"s{i}" for i in range(len(x))), "pid:"]
    lines += ["  " + " ".join(row) for row in rows]
    for junk in draw(st.lists(st.sampled_from(JUNK_LINES + ("sources: s0",)), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines)


@st.composite
def cli_calls(draw):
    """An argv for one of the five commands, and the bytes of its input file."""
    command = draw(st.sampled_from([name for name, _, _ in cli.COMMANDS]))
    argv, text = [command], ""
    if command in ("decompose", "fringes"):
        rho11, rho22 = draw(st.sampled_from(DENSITIES) | st.tuples(*[st.sampled_from(NUMBERS)] * 2))
        both = ["--rho11", rho11, "--rho22", rho22]
        argv += draw(st.sampled_from([both] * 3 + [both[:2]]))
        argv += draw(_option("rho12-re", NUMBERS)) + draw(_option("rho12-im", NUMBERS))
    if command == "zwm-sweep":
        argv += draw(_option("alpha", NUMBERS, keep=True)) + draw(_option("beta", NUMBERS))
        argv += draw(_option("steps", COUNTS))
    if command == "fringes":
        argv += draw(_option("samples", COUNTS))
    if command in ("decompose", "zwm-sweep", "fringes"):
        argv += draw(_option("output", ("json", "csv") * 2 + ("xml",)))
    if command == "qset-check":
        argv.append("{input}")
        text = draw(_universe_text())
    if command == "bridge":
        argv += ["{input}", *draw(_option("tolerance", NUMBERS))]
        text = draw(_table_text())
    argv += draw(st.sampled_from([[]] * 6 + [["--out", "{missing}"], ["--bogus"]]))
    return argv, draw(st.sampled_from([b""] * 4 + [b"\xef\xbb\xbf", b"\xff"])) + text.encode()


class TestCliFuzz:
    """Any call of the five commands ends in exit 0, 2, 3 or 4; exits 2 and 3 write one
    stderr line and no stdout, exits 0 and 4 a report and no stderr."""

    @settings(max_examples=250, deadline=None)
    @given(call=cli_calls())
    def test_exit_code_and_streams(self, tmp_path_factory, call):
        argv, data = call
        path = tmp_path_factory.getbasetemp() / "cli_fuzz_input"
        path.write_bytes(data)
        missing = tmp_path_factory.getbasetemp() / "no_such_dir" / "out"
        out, err = io.StringIO(), io.StringIO()
        code = cli.main([arg.format(input=path, missing=missing) for arg in argv],
                        stdout=out, stderr=err)
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            assert err.getvalue() == ""


SWEEP_8193_CSV = ("zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", "8193",
                  "--output", "csv")
FRINGES_8195_CSV = (*FRINGES_EXAMPLE[:-1], "8195", "--output", "csv")


class TestOutFile:
    """--out writes the bytes stdout gets, chunk by chunk, and fails like stdout does."""

    @pytest.mark.parametrize("argv", [SWEEP_8193_CSV, FRINGES_8195_CSV,
                                      ("bridge", str(DATA / "bridge_clean.pid"))],
                             ids=["zwm-sweep-csv", "fringes-csv", "bridge-json"])
    def test_file_bytes_equal_stdout_bytes(self, tmp_path, argv):
        path = tmp_path / "report"
        to_stdout = subprocess.run([sys.executable, "-m", "indist", *argv], capture_output=True)
        to_file = run_cli(*argv, "--out", str(path))
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, "", "")
        assert path.read_bytes() == to_stdout.stdout

    @pytest.mark.parametrize("argv", [SWEEP_8193_CSV, FRINGES_8195_CSV],
                             ids=["zwm-sweep-csv", "fringes-csv"])
    @pytest.mark.parametrize("where", ["missing-dir", "full-device"])
    def test_unwritable_out_exits_2(self, tmp_path, argv, where):
        # /dev/full opens, then fails a write: the table is past its first chunk by then.
        if where == "full-device" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        path = "/dev/full" if where == "full-device" else str(tmp_path / "missing" / "t.csv")
        cp = run_cli(*argv, "--out", path)
        assert (cp.returncode, cp.stdout) == (2, "")
        assert "Traceback" not in cp.stderr
        assert cp.stderr.startswith("cannot write output file:")
        assert cp.stderr.count("\n") == 1


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


class TestCsvEmitMemory:
    """A CSV table is written a block at a time: the emit adds a few blocks of text to
    the memory the model's columns take, not a string of the whole table."""

    N = 50_000

    @staticmethod
    def traced(call):
        """The traced (current, peak) bytes once call returns, its result still held."""
        import tracemalloc
        tracemalloc.start()
        try:
            result = call()  # held while the numbers are read
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["fringes", "zwm-sweep"])
    def test_peak_is_the_model_plus_a_few_blocks(self, command):
        from indist import onephoton, zwm

        if command == "fringes":
            argv = [*FRINGES_EXAMPLE[:-1], str(self.N), "--output", "csv"]
            columns, model_peak = self.traced(lambda: onephoton._fringe_columns(
                onephoton.DensityOperator2(0.64, 0.36, 0.24), 1.0, self.N))
        else:
            argv = ["zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", str(self.N),
                    "--output", "csv"]
            columns, model_peak = self.traced(
                lambda: zwm.sweep_columns(zwm.ZwmSetup(0.8, 0.6, 1.0), self.N))
        assert cli.main(argv, stdout=_CountingSink()) == 0  # imports outside the trace
        sink = _CountingSink()
        peak = self.traced(lambda: cli.main(argv, stdout=sink))[1]
        block = sink.written * 4096 / self.N  # the text of one 4096-row block
        added = peak - max(model_peak, columns)
        assert added <= 4 * block, f"{added / block:.2f} blocks"
        assert added <= sink.written / 4


class TestJsonEmitMemory:
    """A JSON report is written a block at a time, as a CSV table is: the emit adds a
    few blocks of text to the model's peak, not a string of the whole report."""

    traced = staticmethod(TestCsvEmitMemory.traced)

    def test_sweep_adds_a_few_blocks(self):
        from indist import zwm

        n = TestCsvEmitMemory.N
        argv = ["zwm-sweep", "--alpha", "0.8", "--beta", "0.6", "--steps", str(n)]
        columns, model_peak = self.traced(
            lambda: zwm.sweep_columns(zwm.ZwmSetup(0.8, 0.6, 1.0), n))
        assert cli.main(argv, stdout=_CountingSink()) == 0  # imports outside the trace
        sink = _CountingSink()
        peak = self.traced(lambda: cli.main(argv, stdout=sink))[1]
        block = sink.written * 4096 / n  # the text of one 4096-row block
        added = peak - max(model_peak, columns)
        assert added <= 4 * block, f"{added / block:.2f} blocks"

    def test_fringes_adds_less_than_its_text(self):
        # The samples go to the writer as the model's two columns: no (phase, rate) tuple
        # per sample, which alone would add about the report's text again.
        from indist import onephoton

        n = TestCsvEmitMemory.N
        argv = [*FRINGES_EXAMPLE[:-1], str(n)]
        columns, model_peak = self.traced(lambda: onephoton._fringe_columns(
            onephoton.DensityOperator2(0.64, 0.36, 0.24), 1.0, n))
        assert cli.main(argv, stdout=_CountingSink()) == 0  # imports outside the trace
        sink = _CountingSink()
        peak = self.traced(lambda: cli.main(argv, stdout=sink))[1]
        added = peak - max(model_peak, columns)
        assert added < 0.6 * sink.written, f"{added / sink.written:.2f} texts"

    def test_bridge_adds_less_than_the_report(self, tmp_path):
        from indist import qmetric

        # 200 sources in 12 groups at distinct points of a line, as in the benchmark.
        x = ([k / 256 for k in range(0, 240, 20)] * 17)[:200]
        lines = ["sources: " + " ".join(f"s{i:03d}" for i in range(len(x))), "pid:"]
        lines += [" ".join(repr(1.0 - abs(a - b)) for b in x) for a in x]
        text = "\n".join(lines) + "\n"
        path = tmp_path / "grouped.pid"
        path.write_text(text, encoding="utf-8")
        argv = ["bridge", str(path)]
        model, model_peak = self.traced(
            lambda: qmetric.from_pid_table(*parse_pid_table(text)))
        assert cli.main(argv, stdout=_CountingSink()) == 0
        sink = _CountingSink()
        peak = self.traced(lambda: cli.main(argv, stdout=sink))[1]
        added = peak - max(model_peak, model)
        assert added < sink.written, f"{added / sink.written:.2f} reports"

    def test_pair_table_of_distinct_rows_keeps_no_degree_texts(self):
        from json.encoder import encode_basestring_ascii

        from indist import qmetric

        # 200 sources at distinct points: no row repeats, so the writer keeps no row's
        # degree texts and holds about a block of pairs. Kept texts for every row's tail
        # would add the list's whole text again.
        x = [i / 1024 for i in range(200)]
        sources = [f"s{i:03d}" for i in range(len(x))]
        space, _ = qmetric.from_pid_table(sources, [[1.0 - abs(a - b) for b in x] for a in x])
        assert space.axioms_hold and len(set(space.base.rows)) == len(x)
        report = {"degrees": cli._PairTable(sources, space.base.rows)}
        sink = _CountingSink()
        added = self.traced(
            lambda: sink.writelines(cli._json_chunks(report, encode_basestring_ascii)))[1]
        assert added < sink.written, f"{added / sink.written:.2f} reports"

    @staticmethod
    def space_on_a_line(x):
        from indist import qmetric

        sources = [f"s{i:03d}" for i in range(len(x))]
        space, _ = qmetric.from_pid_table(sources, [[1.0 - abs(a - b) for b in x] for a in x])
        assert space.axioms_hold
        return sources, space.base.rows

    def added_by(self, report):
        """The peak bytes that writing report's chunks adds, and the text's length."""
        from json.encoder import encode_basestring_ascii

        sink = _CountingSink()
        added = self.traced(
            lambda: sink.writelines(cli._json_chunks(report, encode_basestring_ascii)))[1]
        return added, sink.written

    def test_distinct_distance_matrix_adds_less_than_its_text(self):
        # No row repeats, so no row's text is kept past its chunk: the writer holds one
        # int per row and about a block of values, not a block of 4096 rows (the matrix).
        _, rows = self.space_on_a_line([i / 1024 for i in range(200)])
        added, written = self.added_by({"distance": rows})
        assert added < written, f"{added / written:.2f} texts"

    def test_distinct_distance_matrix_holds_no_row_keys(self):
        # Once the next-use index is built the row keys are dropped: the writer holds one
        # int per row and about a block of values. Every row's packed key held for the
        # whole emit would add 0.44x the matrix's text on its own.
        _, rows = self.space_on_a_line([i / 1024 for i in range(200)])
        added, written = self.added_by({"distance": rows})
        assert added < 0.6 * written, f"{added / written:.2f} texts"

    def test_pair_table_of_rows_equal_far_apart_adds_less_than_its_text(self):
        # Rows i and 199 - i are equal: each shared row object keeps only the part of its
        # tail that its next row needs, not its first row's whole tail.
        sources, rows = self.space_on_a_line([min(i, 199 - i) / 1024 for i in range(200)])
        assert len(set(map(id, rows))) == 100
        added, written = self.added_by({"degrees": cli._PairTable(sources, rows)})
        assert added < written, f"{added / written:.2f} texts"
