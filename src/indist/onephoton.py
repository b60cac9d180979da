"""One-photon, two-source density operators and their coherence content.

A single photon that may come from either of two secondary sources lives in
the span of |1>_1 |0>_2 and |0>_1 |1>_2, so its state is fixed by the 2x2
density operator

    rho = [[rho11,        rho12],
           [conj(rho12),  rho22]],        rho11 + rho22 = 1.

Every valid operator splits uniquely into a maximally coherent component and
a purely diagonal (which-way) component with the same populations:

    rho = p_id * rho_id + p_d * rho_d,    p_id + p_d = 1,
    p_id = |rho12| / sqrt(rho11 * rho22).

``p_id`` is the degree to which the two sources are indistinguishable.  It
equals the modulus of the normalized mutual coherence between the source
fields and, up to the source-imbalance factor 2*sqrt(rho11*rho22), the
visibility of the fringes a detector coupled equally to both sources records.

All value types here are immutable ``NamedTuple`` records and all operations
are pure functions.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import _read

if TYPE_CHECKING:
    from random import Random

#: Below this diagonal weight a source has no support and p_id is undefined.
DIAG_FLOOR = 1e-12

#: Tolerance for analytic identities (double precision on 2x2 is ~1e-15).
ANALYTIC_TOL = 1e-12

#: Tolerance for user-supplied amplitudes, which arrive rounded.
INPUT_TOL = 1e-9


class NotNormalized(ValueError):
    """Pure-state amplitudes do not square-sum to one."""


class InvalidDensity(ValueError):
    """Density operator violates the trace or positivity invariant."""


class DegenerateSource(ValueError):
    """A source has numerically no support, so p_id is undefined."""


class ZeroField(ValueError):
    """|K|^2 is not a nonzero finite float (zero, overflow, NaN), or a rate it scales overflows."""


class OnePhotonState(NamedTuple):
    """Pure superposition alpha |1,0> + beta |0,1> of the two source modes."""

    alpha: complex
    beta: complex


class DensityOperator2(NamedTuple):
    """2x2 density operator on the two-source subspace.

    Hermiticity is structural: only the upper off-diagonal element is stored
    and rho21 is implicitly its conjugate.  Validity (unit trace, positivity)
    is checked by :func:`validate_density`, not by the constructor, so that
    invalid operators can be represented and reported on.
    """

    rho11: float
    rho22: float
    rho12: complex

    @property
    def rho21(self) -> complex:
        return complex(self.rho12).conjugate()


class DensityIssue(NamedTuple):
    """One violated density-operator invariant with its residual magnitude."""

    invariant: str
    residual: float


class MandelDecomposition(NamedTuple):
    """Unique split rho = p_id * rho_id + p_d * rho_d."""

    p_id: float
    p_d: float
    rho_id: DensityOperator2
    rho_d: DensityOperator2


class CoherenceReport(NamedTuple):
    """Mutual coherence functions of the two source fields.

    ``gamma11``, ``gamma22`` and ``gamma12`` carry units of |K|^2; the
    normalized ``gamma12_normalized`` is dimensionless and independent of K.
    """

    gamma11: float
    gamma22: float
    gamma12: complex
    gamma12_normalized: complex
    k_const: complex


class FringeScan(NamedTuple):
    """Detection rate sampled over one period of interferometer phase."""

    samples: tuple[tuple[float, float], ...]
    visibility: float


class VisibilityComparison(NamedTuple):
    visibility: float
    p_id: float
    ratio: float


def _count(n: int, least: int, name: str) -> int:
    """n, a count of at least ``least`` items that a list holds (sys.maxsize); else ValueError."""
    if least <= n <= sys.maxsize:
        return n
    bound = f"<= {sys.maxsize}" if n > sys.maxsize else f">= {least}"
    bits = n.bit_length() if isinstance(n, int) else 0  # as _check_unit: str() caps digits
    got = f"an int of {bits} bits" if bits > 1024 else n
    raise ValueError(f"{name} must be {bound}, got {got}")


def _abs2(x: complex) -> float:
    """|x|^2 of a read number, or inf where it overflows a float: the model's overflow rule."""
    try:
        return abs(x) ** 2
    except OverflowError:  # also a stale one from abs() of a NaN part (CPython keeps errno)
        return math.inf if x == x else math.nan


def _field_k2(k_const: complex) -> float:
    """|K|^2 of the field constant, which must be a nonzero finite float (else ZeroField)."""
    k2 = _abs2(_read(k_const))
    if not 0.0 < k2 < math.inf:
        raise ZeroField(f"|k_const|^2 must be a nonzero finite float, got {k2!r}")
    return k2


def make_pure_state(psi: OnePhotonState) -> DensityOperator2:
    """Density operator |psi><psi| of a pure two-source state.

    Raises NotNormalized when |alpha|^2 + |beta|^2 strays from 1 by more
    than INPUT_TOL.
    """
    alpha, beta = _read(psi.alpha), _read(psi.beta)
    rho11, rho22 = _abs2(alpha), _abs2(beta)
    norm = rho11 + rho22
    if not math.isfinite(norm) or abs(norm - 1.0) > INPUT_TOL:
        raise NotNormalized(
            f"|alpha|^2 + |beta|^2 = {norm!r}, deviates from 1 by more than {INPUT_TOL}"
        )
    return DensityOperator2(rho11, rho22, complex(alpha) * complex(beta).conjugate())


def validate_density(rho: DensityOperator2, tol: float = ANALYTIC_TOL) -> list[DensityIssue]:
    """Report every violated invariant of ``rho``; an empty list means valid.

    Checks the unit trace and positivity, which fails when the excess
    |rho12|^2 - rho11*rho22 (the reported residual) exceeds ``tol`` or when
    |rho12| > sqrt(rho11*rho22) * (1 + tol), so tiny weights hide no excess.
    Non-finite entries short-circuit into a single "finite" issue; a
    |rho12|^2 that overflows (|rho12| itself may too) is an excess of inf.
    """
    return _checked(rho, _read(tol))[1]


def _checked(rho: DensityOperator2, tol: float) -> tuple[tuple[float, float, complex], list]:
    """The entries (rho11, rho22, rho12) as read, and the issues validate_density reports."""
    rho11, rho22, rho12 = entries = _read(rho.rho11), _read(rho.rho22), _read(rho.rho12, complex)
    if not all(math.isfinite(v) for v in (rho11, rho22, rho12.real, rho12.imag)):
        return entries, [DensityIssue("finite", math.inf)]

    issues = []
    trace_residual = abs(rho11 + rho22 - 1.0)
    if trace_residual > tol:
        issues.append(DensityIssue("trace", trace_residual))
    product = rho11 * rho22
    mag2 = _abs2(rho12)
    mag, positivity_excess = (abs(rho12), mag2 - product) if mag2 < math.inf else (mag2, mag2)
    if positivity_excess > tol or (product > 0.0 and mag > math.sqrt(product) * (1.0 + tol)):
        issues.append(DensityIssue("positivity", positivity_excess))
    return entries, issues


def _require_valid(rho: DensityOperator2) -> tuple[float, float, complex]:
    """The entries (rho11, rho22, rho12) of a valid ``rho`` as read; else InvalidDensity."""
    entries, issues = _checked(rho, ANALYTIC_TOL)
    if issues:
        raise InvalidDensity("invalid density: " + "; ".join(
            f"{issue.invariant} residual {issue.residual!r}" for issue in issues))
    return entries


def _require_nondegenerate(rho11: float, rho22: float) -> None:
    if min(rho11, rho22) < DIAG_FLOOR:
        raise DegenerateSource(f"source weights ({rho11!r}, {rho22!r}) leave one source empty; "
                               "indistinguishability of the two sources is undefined")


def mandel_decompose(rho: DensityOperator2) -> MandelDecomposition:
    """Split ``rho`` into its coherent and which-way components.

    rho_d is the diagonal of rho; rho_id carries the same diagonal with the
    maximal off-diagonal sqrt(rho11*rho22) * exp(i*arg rho12).  When rho12 is
    exactly zero the phase is fixed to 0; the choice is unobservable because
    p_id is then 0.
    """
    rho11, rho22, rho12 = _require_valid(rho)
    _require_nondegenerate(rho11, rho22)

    geo = math.sqrt(rho11 * rho22)
    mag = abs(rho12)
    # Positivity slack can push mag a hair over geo; p_id is a probability.
    p_id = min(mag / geo, 1.0)
    p_d = 1.0 - p_id
    off = geo * (rho12 / mag) if mag != 0.0 else complex(geo)
    return MandelDecomposition(p_id=p_id, p_d=p_d, rho_id=DensityOperator2(rho11, rho22, off),
                               rho_d=DensityOperator2(rho11, rho22, 0j))


def degree_of_indistinguishability(rho: DensityOperator2) -> float:
    """p_id = |rho12| / sqrt(rho11*rho22), the weight of the coherent part."""
    return mandel_decompose(rho).p_id


def coherence_functions(rho: DensityOperator2, k_const: complex) -> CoherenceReport:
    """Mutual coherence functions for fields E_j = K * a_j.

    gamma11 = |K|^2 rho11, gamma22 = |K|^2 rho22, gamma12 = |K|^2 rho21,
    and the normalized gamma12 is rho21 / sqrt(rho11*rho22), whose modulus
    equals the degree of indistinguishability and does not depend on K.
    """
    rho11, rho22, rho12 = _require_valid(rho)
    k2 = _field_k2(k_const)
    _require_nondegenerate(rho11, rho22)

    rho21 = rho12.conjugate()
    return CoherenceReport(gamma11=k2 * rho11, gamma22=k2 * rho22, gamma12=k2 * rho21,
                           gamma12_normalized=rho21 / math.sqrt(rho11 * rho22),
                           k_const=complex(k_const))


def fringe_scan(rho: DensityOperator2, k_const: complex, n_samples: int) -> FringeScan:
    """Sample R(phi) = gamma11 + gamma22 + 2*Re(gamma12 * e^{i phi}).

    Phases are the n_samples equally spaced points of [0, 2*pi); the scan's
    visibility is (max - min) / (max + min) over the sampled rates.  The
    detector is coupled equally to both sources.
    """
    phis, rates, visibility = _fringe_columns(rho, k_const, n_samples)
    return FringeScan(samples=tuple(zip(phis, rates)), visibility=visibility)


def _fringe_columns(rho: DensityOperator2, k_const: complex,
                    n_samples: int) -> tuple[list[float], list[float], float]:
    """The phases, rates and visibility of ``fringe_scan``, as two columns and a float."""
    rho11, rho22, rho12 = _require_valid(rho)
    k2 = _field_k2(k_const)
    n_samples = _count(n_samples, 8, "samples")

    g12 = k2 * rho12.conjugate()
    gr, gi, base = g12.real, g12.imag, k2 * (rho11 + rho22)
    step = 2.0 * math.pi / n_samples
    phis = [k * step for k in range(n_samples)]
    # Re(g12 * cmath.exp(1j * phi)) bit for bit, as CPython's complex product forms it.
    rates = [base + 2.0 * (gr * math.cos(phi) - gi * math.sin(phi)) for phi in phis]
    hi, lo = max(rates), min(rates)
    # An inf rate is hi or lo; a NaN one is inf - inf, where base is inf and so is hi.
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ZeroField(f"|k_const|^2 = {k2!r} makes a detection rate overflow a float")
    hi, lo = (hi / 2, lo / 2) if math.inf in (hi + lo, hi - lo) else (hi, lo)  # exact halving
    return phis, rates, (hi - lo) / (hi + lo)


def visibility_vs_pid(rho: DensityOperator2) -> VisibilityComparison:
    """Analytic fringe visibility next to p_id, plus their ratio.

    With equal detector coupling the visibility is 2*sqrt(rho11*rho22)*p_id,
    which never exceeds p_id and matches it exactly on balanced sources.
    Both numbers (and the ratio, NaN when p_id = 0) are reported so the
    relation between them can be examined rather than assumed.
    """
    dec = mandel_decompose(rho)
    v = 2.0 * math.sqrt(dec.rho_d.rho11 * dec.rho_d.rho22) * dec.p_id
    ratio = v / dec.p_id if dec.p_id > 0.0 else math.nan
    return VisibilityComparison(visibility=v, p_id=dec.p_id, ratio=ratio)


def random_density(rng: Random, min_diag: float = 1e-6) -> DensityOperator2:
    """Random valid density operator for tests.

    Draws a random pure two-mode state and a random diagonal mixture, mixes
    them with a random weight, and rejects draws whose smallest source weight
    falls under ``min_diag``.  Validity holds by construction: convex mixes
    of unit-trace positive operators stay unit-trace positive.
    """
    if not min_diag < 0.5:  # the lighter of two weights summing to 1 never exceeds 0.5
        raise ValueError("min_diag must be below 0.5, or no draw is ever accepted")
    while True:
        a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if nrm < 1e-6:
            continue
        a, b = a / nrm, b / nrm
        d11 = rng.random()
        w = rng.random()
        rho11 = w * abs(a) ** 2 + (1.0 - w) * d11
        rho22 = w * abs(b) ** 2 + (1.0 - w) * (1.0 - d11)
        rho12 = w * a * b.conjugate()
        if min(rho11, rho22) >= min_diag:
            return DensityOperator2(rho11, rho22, rho12)
