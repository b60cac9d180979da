"""Two-crystal induced-coherence model (Zou-Wang-Mandel experiment).

A pump photon is split toward two nonlinear crystals, each of which can
down-convert it into a signal/idler pair.  When the idler path of the first
crystal is aligned into the second, detecting an idler photon cannot reveal
which crystal fired, and the signal field keeps the pump coherence.  An
obstacle or misalignment that transmits only the amplitude tau between the
idler paths leaves which-way information behind; the signal coherence is
scaled by the same overlap:

    rho11 = |alpha|^2,  rho22 = |beta|^2,  rho12 = alpha * conj(beta) * conj(tau)

so the degree of indistinguishability of the two signal paths is |tau|,
independent of the pump split.  |tau| = 1 is perfect alignment, |tau| = 0 an
opaque obstacle.  The blocked amplitude feeds the coincidence protocol that
identifies the source: an idler photon escapes the aligned path with
probability 1 - |tau|^2, which is the chance that signal/idler coincidence
counting can tag the emitting crystal.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _read, onephoton
from .onephoton import DensityOperator2, _abs2

AMPLITUDE_TOL = onephoton.ANALYTIC_TOL  # one bound, so sweep_columns may skip the density check


class InvalidSetup(ValueError):
    """Pump split not normalized or idler transmission above unit magnitude."""


class ZwmSetup(NamedTuple):
    """Beam-splitter amplitudes toward the two crystals, plus idler overlap."""

    pump_alpha: complex
    pump_beta: complex
    idler_transmission: complex


class SweepRow(NamedTuple):
    t_mag: float
    p_id: float
    visibility: float
    coincidence_id_prob: float


def _require_valid(setup: ZwmSetup) -> tuple[complex, complex, complex]:
    """The setup's (alpha, beta, tau) as read, once the pump split and |tau| pass."""
    alpha, beta = _read(setup.pump_alpha), _read(setup.pump_beta)
    norm = _abs2(alpha) + _abs2(beta)
    if not math.isfinite(norm) or abs(norm - 1.0) > AMPLITUDE_TOL:
        raise InvalidSetup(f"pump amplitudes square-sum to {norm!r}, expected 1")
    tau = _read(setup.idler_transmission, complex)
    # abs() overflows past the largest float; where |tau|^2 does, halving tau is exact.
    t = abs(tau) if _abs2(tau) < math.inf else 2 * abs(complex(tau.real / 2, tau.imag / 2))
    if not math.isfinite(t) or t > 1.0 + AMPLITUDE_TOL:
        raise InvalidSetup(f"idler transmission magnitude {t!r} exceeds 1")
    return complex(alpha), complex(beta), tau


def _signal_state(a: complex, b: complex, tau: complex) -> DensityOperator2:
    """The one signal-state formula, on (alpha, beta, tau) as _require_valid returns them."""
    return DensityOperator2(abs(a) ** 2, abs(b) ** 2, a * b.conjugate() * tau.conjugate())


def zwm_signal_state(setup: ZwmSetup) -> DensityOperator2:
    """Signal-photon density operator for the given alignment.

    The pump coherence alpha*conj(beta) survives only to the extent the two
    idler modes overlap, which is what makes the experiment a which-way knob.
    """
    return _signal_state(*_require_valid(setup))


def whichway_coincidence_prob(setup: ZwmSetup) -> float:
    """Probability 1 - |tau|^2 that coincidence counting can tag the source.

    This equals p_d = 1 - p_id only at |tau| in {0, 1}; it is reported
    separately so the two notions stay visibly distinct.
    """
    return 1.0 - abs(_require_valid(setup)[2]) ** 2


def sweep_columns(setup: ZwmSetup, steps: int) -> tuple[list[float], ...]:
    """The four ``SweepRow`` columns of the model on a uniform |tau| grid from 0 to 1.

    The phase of tau and the pump split are held fixed; values come back in
    grid order and the p_id column is monotone nondecreasing.

    Each row evaluates the same expressions, in the same order, as
    ``zwm_signal_state`` -> ``onephoton.visibility_vs_pid`` ->
    ``whichway_coincidence_prob`` on the setup with idler overlap ``t * phase``.
    Only tau changes along the grid, so the setup and the source weights are
    checked once and each row checks only |tau|; the first row over the bound
    raises.  No row needs a density check: the pump check bounds |rho11 +
    rho22 - 1| by the same float sum and tolerance, and |rho12| /
    sqrt(rho11*rho22) = |tau| = t*|phase| <= |phase|, which is 1 within a few
    ulp, so the relative positivity excess is far below that tolerance.
    """
    alpha, beta, tau = _require_valid(setup)
    rho = _signal_state(alpha, beta, tau)
    steps = onephoton._count(steps, 2, "steps")
    onephoton._require_nondegenerate(rho.rho11, rho.rho22)

    t0 = abs(tau)
    phase = tau / t0 if t0 > 0.0 else complex(1.0)
    ab = alpha * beta.conjugate()
    geo = math.sqrt(rho.rho11 * rho.rho22)
    two_geo = 2.0 * geo

    ts = [i / (steps - 1) for i in range(steps)]
    taus = [t * phase for t in ts]
    tau_mags = list(map(abs, taus))
    # NaN is not within the bound either; the full check raises at the first row out.
    within = list(map((1.0 + AMPLITUDE_TOL).__ge__, tau_mags))
    if False in within:
        _require_valid(ZwmSetup(alpha, beta, taus[within.index(False)]))
    p_ids = [min(abs(ab * tau.conjugate()) / geo, 1.0) for tau in taus]
    return ts, p_ids, [two_geo * p_id for p_id in p_ids], [1.0 - m ** 2 for m in tau_mags]


def sweep_transmission(setup: ZwmSetup, steps: int) -> list[SweepRow]:
    """The rows of ``sweep_columns``, in grid order."""
    return list(map(SweepRow, *sweep_columns(setup, steps)))
