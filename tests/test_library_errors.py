"""The library raises only its own errors.

Every numeric entry point of ``onephoton`` and ``zwm``, plus the degree-table
bridge and the Heyting operations of ``qmetric``, either returns or raises a
``ValueError`` subclass that its module defines (``zwm`` also raises
``onephoton.DegenerateSource``), on any float or complex it is given.  A
squared magnitude that overflows is inf (``onephoton._abs2``), and the field
constant must have a nonzero finite |K|^2 (``ZeroField``).
"""

import inspect
import math
import sys
import typing

import pytest
from hypothesis import given, settings, strategies as st

from indist import onephoton, qmetric, zwm
from indist.onephoton import (
    DensityOperator2,
    NotNormalized,
    OnePhotonState,
    ZeroField,
    coherence_functions,
    fringe_scan,
    make_pure_state,
)
from indist.zwm import InvalidSetup, ZwmSetup, sweep_columns, whichway_coincidence_prob, zwm_signal_state

M = sys.float_info.max
RHO = DensityOperator2(0.64, 0.36, 0.24)

POOL = [0.0, 5e-324, 1e-170, 1e-160, 0.5, 1.0, 1e154, 1e200, 1e308, math.nan, math.inf]
FLOATS = st.sampled_from(POOL + [-x for x in POOL])
COMPLEXES = FLOATS | st.builds(complex, FLOATS, FLOATS) | st.just(complex(M, M))
# Counts at their minimum or above: a count below it is a plain ValueError
# ("samples must be >= 8", "steps must be >= 2"), pinned by the module tests.
COUNTS = st.sampled_from([8, 9, 16])
# Records drawn field by field from the pool are almost never valid, so half
# the draws hold a valid operator or pump split and reach the checks past them.
VALID = {
    DensityOperator2: st.sampled_from([RHO, DensityOperator2(0.5, 0.5, 0.5j),
                                       DensityOperator2(1.0, 0.0, 0j)]),
    ZwmSetup: st.builds(ZwmSetup, st.just(0.6), st.just(-0.8j), COMPLEXES),
}


def _strategy(hint):
    """Draw a value for a parameter or field annotated ``hint``."""
    if hint is float:
        return FLOATS
    if hint is complex:
        return COMPLEXES
    if hint is int:
        return COUNTS
    fields = st.builds(hint, *map(_strategy, typing.get_type_hints(hint).values()))
    return fields | VALID[hint] if hint in VALID else fields


def _public_functions(module):
    return [f for name, f in vars(module).items() if inspect.isfunction(f)
            and f.__module__ == module.__name__ and not name.startswith("_")]


# random_density takes a generator, not a number, and draws until it succeeds.
NUMERIC = [f for module in (onephoton, zwm) for f in _public_functions(module)
           if f is not onephoton.random_density]


# The modules whose ValueError subclasses each module may raise.
OWN_ERRORS = {onephoton: {onephoton}, zwm: {zwm, onephoton}, qmetric: {qmetric}}


def _raises_only_own_errors(module, fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        owners = {m.__name__ for m in OWN_ERRORS[module]}
        assert type(exc).__module__ in owners, (fn.__name__, args, exc)


def test_every_public_function_is_fuzzed():
    names = {f.__name__ for f in NUMERIC}
    assert names == {
        "make_pure_state", "validate_density", "mandel_decompose",
        "degree_of_indistinguishability", "coherence_functions", "fringe_scan",
        "visibility_vs_pid", "zwm_signal_state", "whichway_coincidence_prob",
        "sweep_columns", "sweep_transmission",
    }


@pytest.mark.parametrize("fn", NUMERIC, ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_optics_functions_raise_only_their_modules_errors(fn, data):
    hints = typing.get_type_hints(fn)
    args = [data.draw(_strategy(hints[name]), label=name)
            for name in inspect.signature(fn).parameters]
    _raises_only_own_errors(sys.modules[fn.__module__], fn, *args)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_from_pid_table_raises_only_its_modules_errors(n, data):
    values = FLOATS | st.sampled_from([0.25, 0.75])
    table = [[data.draw(values) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):  # a well-formed shape more often reaches the checks
        for i in range(n):
            table[i][i] = 1.0
            for j in range(i):
                table[i][j] = table[j][i]
    tol = data.draw(FLOATS | st.just(qmetric.DEFAULT_TOL))
    _raises_only_own_errors(qmetric, qmetric.from_pid_table, [f"s{i}" for i in range(n)], table, tol)


@pytest.mark.parametrize("fn", [qmetric.heyting_meet, qmetric.heyting_join,
                                qmetric.heyting_implies, qmetric.heyting_not],
                         ids=lambda f: f.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_heyting_operations_raise_only_their_modules_errors(fn, data):
    args = [data.draw(FLOATS) for _ in inspect.signature(fn).parameters]
    _raises_only_own_errors(qmetric, fn, *args)


class TestSquareOverflow:
    """Each site where an |x|^2 overflowed into a bare OverflowError."""

    def test_make_pure_state(self):
        with pytest.raises(NotNormalized, match=r"= inf, deviates"):
            make_pure_state(OnePhotonState(1e200, 0))

    @pytest.mark.parametrize("call", [zwm_signal_state, whichway_coincidence_prob,
                                      lambda setup: sweep_columns(setup, 3)])
    def test_zwm_pump(self, call):
        with pytest.raises(InvalidSetup, match=r"^pump amplitudes square-sum to inf, expected 1$"):
            call(ZwmSetup(1e200, 1.0, 1.0))

    def test_zwm_transmission_past_the_largest_float(self):
        with pytest.raises(InvalidSetup, match=r"^idler transmission magnitude inf exceeds 1$"):
            zwm_signal_state(ZwmSetup(1.0, 0.0, complex(M, M)))

    @pytest.mark.parametrize("tau", [1e308, complex(1e308, 1e308), complex(-M, 0.0),
                                     complex(1e200, 5e-324), complex(1e154, 1e154)])
    def test_zwm_transmission_text_is_its_magnitude(self, tau):
        # A finite |tau| is printed as abs() gives it, also where |tau|^2 overflows.
        with pytest.raises(InvalidSetup) as info:
            zwm_signal_state(ZwmSetup(1.0, 0.0, tau))
        assert str(info.value) == f"idler transmission magnitude {abs(tau)!r} exceeds 1"

    def test_validate_density_overflow_is_an_excess_of_inf(self):
        issues = onephoton.validate_density(DensityOperator2(1e154, 1e200, complex(M, M)))
        assert [tuple(issue) for issue in issues] == [("trace", 1e200), ("positivity", math.inf)]


class TestNanPump:
    """A pump amplitude with a NaN part and no infinite part squares to NaN, also right
    after another amplitude's square overflowed (CPython's complex abs() keeps errno)."""

    @pytest.mark.parametrize("pump", [(complex(0.24, 1e200), complex(math.nan, 0.0)),
                                      (complex(math.nan, 0.0), complex(0.24, 1e200))],
                             ids=["overflow-first", "nan-first"])
    def test_square_sum_is_nan_in_either_order(self, pump):
        with pytest.raises(InvalidSetup, match=r"^pump amplitudes square-sum to nan, expected 1$"):
            zwm_signal_state(ZwmSetup(*pump, 1.0))
        assert onephoton._abs2(complex(1e200, 0.0)) == math.inf
        assert math.isnan(onephoton._abs2(complex(math.nan, 0.0)))
        assert onephoton._abs2(complex(math.nan, math.inf)) == math.inf


class TestFieldConstant:
    """|K|^2 must be a nonzero finite float, in both functions that take K."""

    @pytest.mark.parametrize("k", [1e200, complex(M, M), 1e-170, 5e-324, math.inf, math.nan,
                                   complex(math.nan, 1.0), 0, 0.0, -0.0])
    def test_rejected(self, k):
        with pytest.raises(ZeroField, match=r"^\|k_const\|\^2 must be a nonzero finite float"):
            coherence_functions(RHO, k)
        with pytest.raises(ZeroField, match=r"^\|k_const\|\^2 must be a nonzero finite float"):
            fringe_scan(RHO, k, 8)

    @pytest.mark.parametrize("k", [1e-160, 1e154, -1.0, 1j])
    def test_accepted(self, k):
        k2 = abs(k) ** 2
        assert coherence_functions(RHO, k).gamma11 == k2 * RHO.rho11
        assert fringe_scan(RHO, k, 8).samples[0][1] == k2 * (RHO.rho11 + RHO.rho22) + 2.0 * (
            k2 * complex(RHO.rho12).conjugate()).real
