"""``sweep_transmission`` against the per-row composition it replaced.

``reference_sweep`` evaluates every row through the public model functions
(``zwm_signal_state`` -> ``visibility_vs_pid`` and
``whichway_coincidence_prob``), as the sweep did before it validated the
fixed pump once.  Rows must agree to the last bit (``repr`` of every field),
and setups the reference rejects must raise the same exception.
"""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from indist.onephoton import DIAG_FLOOR, DegenerateSource, visibility_vs_pid
from indist.zwm import (
    InvalidSetup,
    SweepRow,
    ZwmSetup,
    sweep_transmission,
    whichway_coincidence_prob,
    zwm_signal_state,
)

BALANCED = 1 / math.sqrt(2)


def reference_sweep(setup, steps):
    whichway_coincidence_prob(setup)  # validates the setup before the steps check
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    t0 = abs(setup.idler_transmission)
    phase = complex(setup.idler_transmission) / t0 if t0 > 0.0 else complex(1.0)
    rows = []
    for i in range(steps):
        t = i / (steps - 1)
        at_t = ZwmSetup(setup.pump_alpha, setup.pump_beta, t * phase)
        comparison = visibility_vs_pid(zwm_signal_state(at_t))
        rows.append(SweepRow(t, comparison.p_id, comparison.visibility,
                             whichway_coincidence_prob(at_t)))
    return rows


def outcome(fn, setup, steps):
    try:
        rows = fn(setup, steps)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [tuple(repr(v) for v in row) for row in rows]


# Smaller source weight: log-uniform down past DIAG_FLOOR, plus its edge.
small_weights = st.one_of(
    st.floats(min_value=-14.0, max_value=math.log10(0.5)).map(lambda e: 10.0 ** e),
    st.sampled_from([DIAG_FLOOR * (1 - 1e-6), DIAG_FLOOR, DIAG_FLOOR * (1 + 1e-6)]),
    st.sampled_from([0.0, 0.5]),
)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def setups(draw):
    small = draw(small_weights)
    alpha = math.sqrt(small) * cmath.exp(1j * draw(angles))
    beta = math.sqrt(1.0 - small) * cmath.exp(1j * draw(angles))
    if draw(st.booleans()):
        alpha, beta = beta, alpha
    if draw(st.booleans()):
        alpha, beta = abs(alpha), abs(beta)  # real amplitudes
    # Mostly normalized; sometimes off by less or more than AMPLITUDE_TOL.
    norm = draw(st.sampled_from([1.0] * 6 + [1.0 + 1e-13, 1.0 + 1e-11, 0.9]))
    t0 = draw(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                        st.sampled_from([0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-9])))
    tau = t0 * cmath.exp(1j * draw(angles)) if draw(st.booleans()) else t0
    return ZwmSetup(alpha * norm, beta, tau)


@settings(max_examples=300, deadline=None)
@given(setup=setups(), steps=st.integers(min_value=2, max_value=300))
def test_sweep_matches_reference(setup, steps):
    assert outcome(sweep_transmission, setup, steps) == outcome(reference_sweep, setup, steps)


@pytest.mark.parametrize(
    "setup,steps,error",
    [
        (ZwmSetup(1.0, 0.5, 1.0), 5, InvalidSetup),
        (ZwmSetup(BALANCED, BALANCED, 1.5), 5, InvalidSetup),
        (ZwmSetup(math.nan, BALANCED, 1.0), 5, InvalidSetup),
        (ZwmSetup(BALANCED, BALANCED, math.inf), 5, InvalidSetup),
        (ZwmSetup(1.0, 0.0, 1.0), 3, DegenerateSource),
        (ZwmSetup(0.0, 1.0, 0.5j), 3, DegenerateSource),
        (ZwmSetup(BALANCED, BALANCED, 1.0), 1, ValueError),
        (ZwmSetup(BALANCED, BALANCED, 1.0), -3, ValueError),
        # The setup is validated before steps, steps before degeneracy.
        (ZwmSetup(1.0, 0.5, 1.0), 1, InvalidSetup),
        (ZwmSetup(1.0, 0.0, 1.0), 1, ValueError),
    ],
)
def test_rejections_match_reference(setup, steps, error):
    got = outcome(sweep_transmission, setup, steps)
    assert got == outcome(reference_sweep, setup, steps)
    assert got[0] is error


@pytest.mark.parametrize("steps", [5, 101])
@pytest.mark.parametrize("tau", [5e-324 + 5e-324j, 1e-320 + 1e-320j, 3e-323 + 5e-324j, 5e-324])
def test_subnormal_transmission_matches_reference(tau, steps):
    # A subnormal complex tau divides into a phase off unit modulus, so a row
    # past some t exceeds |tau| = 1; both sides must name the first such row.
    setup = ZwmSetup(0.6, 0.8, tau)
    assert outcome(sweep_transmission, setup, steps) == outcome(reference_sweep, setup, steps)
