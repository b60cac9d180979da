"""Python ints and bools reach the library as numbers, and it raises only its own errors.

``indist._read`` is the library's one reading rule: a number reads as a float
(or, for rho12 and tau, a complex), and one too large for a float reads as inf
of its sign, so the finite and overflow checks see it.  The optics validators
return what they read; ``qmetric`` reads user distances, tolerances and
degrees through it too.  The pool here adds to the float pool of
``test_library_errors`` the ints a user may pass: small ones, one past 2**53,
and ones past the largest float.  Counts and ``random_density``'s ``min_diag``
may also raise the plain ``ValueError`` that names them; ``onephoton._count``
is the one count rule, and refuses a count past ``sys.maxsize``.
"""

import inspect
import math
import signal
import subprocess
import sys
import typing
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from indist import onephoton, qmetric, quasiset, zwm
from indist.onephoton import (
    DensityOperator2,
    InvalidDensity,
    NotNormalized,
    OnePhotonState,
    ZeroField,
    coherence_functions,
    fringe_scan,
    make_pure_state,
    mandel_decompose,
    random_density,
    validate_density,
    visibility_vs_pid,
)
from indist.qmetric import (
    DifferentiationSpace,
    MalformedTable,
    OutOfRange,
    QuasiMetricSpace,
    degree,
    degree_assignment,
    degree_relation_holds,
    differentiation_space,
    from_pid_table,
    heyting_meet,
    verify_qm_axioms,
)
from indist.quasiset import MICRO, Atom, Universe
from indist.zwm import (
    InvalidSetup,
    ZwmSetup,
    sweep_columns,
    whichway_coincidence_prob,
    zwm_signal_state,
)

RHO = DensityOperator2(0.64, 0.36, 0.24)

INTS = [0, 1, -1, 2**53 + 1, 10**200, 10**400, -10**400, True, False]
FLOAT_POOL = [0.0, 5e-324, 1e-170, 0.5, 1.0, 1e154, 1e308, math.nan, math.inf]
NUMBERS = st.sampled_from(INTS + FLOAT_POOL + [-x for x in FLOAT_POOL])
COMPLEXES = NUMBERS | st.builds(complex, NUMBERS.filter(lambda x: abs(x) < 2**1024),
                                NUMBERS.filter(lambda x: abs(x) < 2**1024))
# Counts around their minimum, ints and bools among them; no count large enough to allocate.
COUNTS = st.sampled_from([8, 9, 2, 1, 0, -1, -10**400, True, False])
# Records with valid float fields and one int field reach the checks past the first one.
VALID = {
    DensityOperator2: st.sampled_from([RHO, DensityOperator2(1, 0, 0), DensityOperator2(0.5, 0.5, 0),
                                       DensityOperator2(True, False, 0j)])
    | st.builds(DensityOperator2, st.just(0.5), st.just(0.5), NUMBERS),
    ZwmSetup: st.builds(ZwmSetup, st.just(0.6), st.just(-0.8j), COMPLEXES)
    | st.builds(ZwmSetup, st.sampled_from([1, True, 0.6]), st.sampled_from([0, False, 0.8]),
                st.sampled_from(INTS)),
}
# The plain ValueErrors of the count and min_diag checks.
COUNT_ERRORS = ("samples must be >= 8", "steps must be >= 2", "min_diag must be below 0.5")


def _strategy(hint):
    """Draw a value for a parameter or field annotated ``hint``."""
    if hint is float:
        return NUMBERS
    if hint is complex:
        return COMPLEXES
    if hint is int:
        return COUNTS
    fields = st.builds(hint, *map(_strategy, typing.get_type_hints(hint).values()))
    return fields | VALID[hint] if hint in VALID else fields


@contextmanager
def _deadline(seconds: int = 5):
    """Fail, rather than hang the suite, where a call does not return."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _raises_only_own_errors(owners, fn, *args):
    try:
        with _deadline():
            fn(*args)
    except ValueError as exc:
        if type(exc) is ValueError:
            assert str(exc).startswith(COUNT_ERRORS), (fn.__name__, args, exc)
        else:
            assert type(exc).__module__ in {m.__name__ for m in owners}, (fn.__name__, args, exc)


PUBLIC = [f for module in (onephoton, zwm) for name, f in vars(module).items()
          if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")]


def test_every_public_function_is_drawn():
    assert len(PUBLIC) == 12 and random_density in PUBLIC


@pytest.mark.parametrize("fn", PUBLIC, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_optics_functions_read_python_numbers(fn, data):
    if fn is random_density:  # a seeded generator, and min_diag from the pool
        args = [Random(data.draw(st.integers(0, 99), label="seed")), data.draw(NUMBERS, label="min_diag")]
    else:
        hints = typing.get_type_hints(fn)
        args = [data.draw(_strategy(hints[name]), label=name) for name in inspect.signature(fn).parameters]
    owners = {onephoton} if fn.__module__ == onephoton.__name__ else {zwm, onephoton}
    _raises_only_own_errors(owners, fn, *args)


@pytest.mark.parametrize("fn", [qmetric.heyting_meet, qmetric.heyting_join,
                                qmetric.heyting_implies, qmetric.heyting_not],
                         ids=lambda f: f.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_heyting_operations_read_python_numbers(fn, data):
    args = [data.draw(NUMBERS | st.just(10**5000)) for _ in inspect.signature(fn).parameters]
    _raises_only_own_errors({qmetric}, fn, *args)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_from_pid_table_reads_python_numbers(n, data):
    values = NUMBERS | st.sampled_from([0.25, 0.75, 10**5000])
    table = [[data.draw(values) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):  # a well-formed shape more often reaches the checks
        for i in range(n):
            table[i][i] = data.draw(st.sampled_from([1, 1.0, True]))
            for j in range(i):
                table[i][j] = table[j][i]
    _raises_only_own_errors({qmetric}, from_pid_table, [f"s{i}" for i in range(n)], table)


class TestIntPastTheFloats:
    """Each call that ended in a bare OverflowError ("int too large to convert to float")."""

    def test_make_pure_state(self):
        with pytest.raises(NotNormalized, match=r"= inf, deviates"):
            make_pure_state(OnePhotonState(10**200, 0))

    def test_zwm_pump(self):
        with pytest.raises(InvalidSetup, match=r"^pump amplitudes square-sum to inf, expected 1$"):
            zwm_signal_state(ZwmSetup(10**200, 0, 1))

    @pytest.mark.parametrize("call", [zwm_signal_state, whichway_coincidence_prob,
                                      lambda setup: sweep_columns(setup, 3)])
    def test_zwm_transmission(self, call):
        with pytest.raises(InvalidSetup, match=r"^idler transmission magnitude inf exceeds 1$"):
            call(ZwmSetup(1.0, 0, 10**400))

    @pytest.mark.parametrize("rho", [DensityOperator2(10**400, 0, 0), DensityOperator2(0.5, 0.5, -10**400)])
    def test_density(self, rho):
        assert [tuple(issue) for issue in validate_density(rho)] == [("finite", math.inf)]
        with pytest.raises(InvalidDensity, match=r"^invalid density: finite residual inf$"):
            mandel_decompose(rho)

    def test_field_constant(self):
        with pytest.raises(ZeroField, match=r"^\|k_const\|\^2 must be a nonzero finite float, got inf$"):
            coherence_functions(RHO, 10**400)

    def test_heyting(self):
        # An int past the floats is named by its size: past sys.get_int_max_str_digits()
        # digits (4300 by default), repr() itself raises a plain ValueError.
        with pytest.raises(OutOfRange, match=r"^value of 1329 bits outside \[0, 1\]$"):
            heyting_meet(10**400, 0.5)
        with pytest.raises(OutOfRange, match=r"^value of 16610 bits outside \[0, 1\]$"):
            heyting_meet(0.5, -10**5000)
        with pytest.raises(OutOfRange, match=r"^value 2 outside \[0, 1\]$"):
            heyting_meet(0.5, 2)

    @pytest.mark.parametrize("table,at", [([[1.0, 10**400], [10**400, 1.0]], (0, 1)),
                                          ([[1.0, 0.5], [-10**400, 1.0]], (1, 0)),
                                          ([[10**5000]], (0, 0))])
    def test_pid_table_names_the_entry(self, table, at):
        with pytest.raises(MalformedTable) as info:
            from_pid_table(["a", "b"][:len(table)], table)
        assert str(info.value) == f"value at {at} outside [0, 1]: too large for a float"


class TestIntsReadAsFloats:
    """Ints that a float holds are read as those floats, in results and in error texts."""

    def test_invalid_density_text_prints_the_floats_read(self):
        with pytest.raises(InvalidDensity, match=r"^invalid density: trace residual 1\.0; "
                                                  r"positivity residual 1\.0$"):
            mandel_decompose(DensityOperator2(2, 0, 1))

    def test_degenerate_text_prints_the_floats_read(self):
        with pytest.raises(onephoton.DegenerateSource, match=r"^source weights \(1\.0, 0\.0\) leave"):
            coherence_functions(DensityOperator2(1, 0, 0), 1)

    def test_int_past_2_53_reads_rounded(self):
        issues = validate_density(DensityOperator2(2**53 + 1, 0, 0))
        assert [tuple(issue) for issue in issues] == [("trace", float(2**53) - 1.0)]

    def test_signal_state_of_ints(self):
        assert zwm_signal_state(ZwmSetup(1, 0, True)) == (1.0, 0.0, 0j)

    def test_visibility_uses_the_weights_read(self):
        # Ints cannot show it: the only valid integer weights, 0 and 1, are degenerate.
        read = visibility_vs_pid(DensityOperator2(Fraction(1, 7), Fraction(6, 7), 0.1))
        assert read == visibility_vs_pid(DensityOperator2(1 / 7, 6 / 7, 0.1))
        assert (read.visibility, read.ratio) == (0.2, 0.6998542122237651)


@pytest.mark.parametrize("min_diag", [0.5, 0.7, 1, pytest.param(10**400, id="10**400"),
                                      math.inf, math.nan])
def test_random_density_rejects_an_unreachable_min_diag(min_diag):
    with _deadline(), pytest.raises(ValueError, match=r"^min_diag must be below 0\.5"):
        random_density(Random(0), min_diag)


@pytest.mark.parametrize("min_diag", [pytest.param(-10**400, id="-10**400"), -math.inf, 0,
                                      1e-6, 0.4, 0.49])
def test_random_density_draws_as_before_where_min_diag_is_reachable(min_diag):
    # The guard draws nothing, so a seeded generator yields what the bare loop yields.
    rng, ref = Random(7), Random(7)
    with _deadline():
        rho = random_density(rng, min_diag)
    while True:
        a = complex(ref.gauss(0.0, 1.0), ref.gauss(0.0, 1.0))
        b = complex(ref.gauss(0.0, 1.0), ref.gauss(0.0, 1.0))
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if nrm < 1e-6:
            continue
        a, b = a / nrm, b / nrm
        d11, w = ref.random(), ref.random()
        expected = (w * abs(a) ** 2 + (1.0 - w) * d11, w * abs(b) ** 2 + (1.0 - w) * (1.0 - d11),
                    w * a * b.conjugate())
        if min(expected[:2]) >= min_diag:
            break
    assert rho == expected and rng.getstate() == ref.getstate()


class TestFringeRateOverflow:
    """The fringe rates scale with |K|^2, and a float holds only so much of them."""

    def test_overflowing_rate_raises(self):
        # The peak rate is 2e308, past the largest float: the visibility was NaN.
        with pytest.raises(ZeroField, match=r"^\|k_const\|\^2 = 1e\+308 makes a detection rate overflow"):
            fringe_scan(DensityOperator2(0.5, 0.5, 0.5), 1e154, 8)

    @pytest.mark.parametrize("rho,k", [(RHO, 1e154), (RHO, -1e154j),
                                       (DensityOperator2(0.5, 0.5, 0.1), 1.2e154)])
    def test_visibility_of_finite_rates_whose_sum_overflows(self, rho, k):
        # On RHO at k = 1e154 the peak rate is 1.48e308 and the trough 0.52e308: every rate
        # is finite, but their sum overflows, and the visibility read 0.0.  It does not
        # depend on K.
        rates = [rate for _, rate in fringe_scan(rho, k, 8).samples]
        assert all(map(math.isfinite, rates)) and max(rates) + min(rates) == math.inf
        expected = fringe_scan(rho, 1.0, 8).visibility
        assert fringe_scan(rho, k, 8).visibility == pytest.approx(expected, rel=1e-12)


# -- qmetric: user distances, tolerances and degrees ---------------------------

NAMES = ("a", "b", "c")


def _space(off_diagonal, n=2):
    """A symmetric space on the first n names, with a zero diagonal."""
    names = NAMES[:n]
    return QuasiMetricSpace(names, {(a, b): 0 if a == b else off_diagonal
                                    for a in names for b in names})


def _universe(n):
    """a and c are one species, b another: QM4 and congruence see both kinds of pair."""
    return Universe(species=["x", "y"], atoms=[Atom(a, MICRO, sp) for a, sp in zip(NAMES[:n], "xyx")])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 3), data=st.data())
def test_qmetric_reads_python_numbers(n, data):
    values = NUMBERS | st.just(10**5000)
    names = NAMES[:n]
    distances = {(a, b): data.draw(values, label=f"d{a}{b}") for a in names for b in names}
    tol, r = data.draw(NUMBERS, label="tol"), data.draw(NUMBERS, label="r")
    universe, owners = _universe(n), {qmetric, quasiset}
    _raises_only_own_errors(owners, verify_qm_axioms, QuasiMetricSpace(names, distances), universe,
                            tol)
    _raises_only_own_errors(owners, differentiation_space, QuasiMetricSpace(names, distances),
                            universe, tol)
    table = [[distances[a, b] for b in names] for a in names]
    _raises_only_own_errors(owners, from_pid_table, list(names), table, tol)
    # A space that claims a clean audit reaches the degree arithmetic on every entry.
    space = DifferentiationSpace(QuasiMetricSpace(names, distances), universe, (), tol)
    _raises_only_own_errors(owners, degree_relation_holds, space, "a", "b", r)
    _raises_only_own_errors(owners, degree, space, "b", "a")
    _raises_only_own_errors(owners, degree_assignment, space)


def _witnesses(reports):
    return {report.axiom: report.counterexample for report in reports if not report.holds}


class TestQmetricIntPastTheFloats:
    """Each call that ended in a bare OverflowError ("int too large to convert to float")."""

    def test_distance_past_the_floats_is_not_finite_nor_symmetric(self):
        space = _space(10**400)
        assert _witnesses(verify_qm_axioms(space, _universe(2))) == {"QM2": ("a", "b"),
                                                                   "QM5": ("a", "b")}
        dspace = differentiation_space(_space(10**400), _universe(2))
        assert not dspace.axioms_hold
        assert _witnesses(dspace.axiom_reports) == {"QM2": ("a", "b"), "QM5": ("a", "b")}

    def test_negative_distance_past_the_floats(self):
        reports = differentiation_space(_space(-10**400), _universe(2)).axiom_reports
        witnesses = _witnesses(reports)
        assert {"QM2", "QM3", "QM5"} <= set(witnesses)
        assert witnesses["QM2"] == witnesses["QM3"] == witnesses["QM5"] == ("a", "b")

    @pytest.mark.parametrize("tol", [10**400, -10**400], ids=["10**400", "-10**400"])
    def test_tolerance_past_the_floats(self, tol):
        for call in (lambda: verify_qm_axioms(_space(0.5), _universe(2), tol),
                     lambda: differentiation_space(_space(0.5), _universe(2), tol),
                     lambda: from_pid_table(["a", "b"], [[1, 0.5], [0.5, 1]], tol)):
            try:
                reports = call()
            except (OutOfRange, MalformedTable):
                continue
            assert reports  # a report, not an error

    def test_huge_tolerance_reads_as_inf(self):
        # Every distance is within an infinite tolerance of zero and of its transpose.
        witnesses = _witnesses(verify_qm_axioms(_space(0.5), _universe(2), 10**400))
        assert "QM5" not in witnesses and witnesses["QM4"] == ("a", "b")

    def test_degree_past_the_floats_does_not_hold(self):
        space = differentiation_space(_space(0.5), _universe(2))
        assert space.axioms_hold
        assert degree_relation_holds(space, "a", "b", 0.5)
        assert not degree_relation_holds(space, "a", "b", 10**400)
        assert not degree_relation_holds(space, "a", "b", -10**400)

    def test_int_distance_prints_as_the_float_read(self):
        with pytest.raises(OutOfRange, match=r"^distance d\('a', 'b'\) = 2\.0 outside \[0, 1\]$"):
            differentiation_space(_space(2), _universe(2))

    def test_int_distances_read_as_floats(self):
        space = _space(1)
        assert space.rows == ((0.0, 1.0), (1.0, 0.0))
        assert all(type(d) is float for row in space.rows for d in row)
        assert type(space.distance("a", "b")) is float


# -- counts past what a list can hold ------------------------------------------

# The child caps its own address space at 512 MiB, so a count that is not refused ends
# in MemoryError (or its own error) rather than growing until the host kills it.
LIMITED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20,) * 2)
from indist import cli, onephoton, zwm
RHO = onephoton.DensityOperator2(0.64, 0.36, 0.24)
SETUP = zwm.ZwmSetup(0.6, 0.8, 1)
if sys.argv[1] == "cli":
    sys.exit(cli.main(sys.argv[2:]))
try:
    eval(sys.argv[1])
except ValueError as exc:
    print(type(exc).__name__, exc)
"""


def _limited(*argv):
    with _deadline(120):
        return subprocess.run([sys.executable, "-c", LIMITED_CHILD, *argv],
                              capture_output=True, text=True, timeout=120)


def _past_a_list(name, n):
    got = f"an int of {n.bit_length()} bits" if n.bit_length() > 1024 else n
    return f"{name} must be <= {sys.maxsize}, got {got}"


class TestCountPastAList:
    """A count past sys.maxsize is refused before any column is allocated."""

    @pytest.mark.parametrize("n", [2**63, 10**400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize("call,name", [("onephoton.fringe_scan(RHO, 1.0, {n})", "samples"),
                                           ("onephoton._fringe_columns(RHO, 1.0, {n})", "samples"),
                                           ("zwm.sweep_columns(SETUP, {n})", "steps"),
                                           ("zwm.sweep_transmission(SETUP, {n})", "steps")],
                             ids=["fringe_scan", "_fringe_columns", "sweep_columns",
                                  "sweep_transmission"])
    def test_library(self, call, name, n):
        cp = _limited(call.format(n=n))
        assert (cp.returncode, cp.stdout, cp.stderr) == (0, f"ValueError {_past_a_list(name, n)}\n", "")

    @pytest.mark.parametrize("argv,prefix", [
        (("fringes", "--rho11", "0.5", "--rho22", "0.5", "--samples"), "samples must be"),
        (("zwm-sweep", "--alpha", "1", "--beta", "1", "--steps"), "steps must be"),
    ], ids=["fringes", "zwm-sweep"])
    def test_cli_exits_2_with_one_line(self, argv, prefix):
        cp = _limited("cli", *argv, "1" + "0" * 400, "--output", "csv")
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr.startswith(prefix) and cp.stderr.count("\n") == 1
        assert cp.stderr == _past_a_list(prefix.split()[0], 10**400) + "\n"

    def test_the_largest_count_passes_the_rule(self):
        assert onephoton._count(sys.maxsize, 8, "samples") == sys.maxsize

    def test_below_the_least_past_the_digit_limit(self):
        # str() of this int raises its own ValueError; the rule names it by its size.
        with _deadline(), pytest.raises(ValueError, match=r"^steps must be >= 2, got an int of 16610 bits$"):
            sweep_columns(ZwmSetup(0.6, 0.8, 1), -10**5000)
