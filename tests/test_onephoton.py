"""Density-operator operations checked against independent matrix oracles."""

import cmath
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indist.onephoton import (
    ANALYTIC_TOL,
    CoherenceReport,
    DegenerateSource,
    DensityIssue,
    DensityOperator2,
    FringeScan,
    InvalidDensity,
    MandelDecomposition,
    NotNormalized,
    OnePhotonState,
    VisibilityComparison,
    ZeroField,
    _fringe_columns,
    coherence_functions,
    degree_of_indistinguishability,
    fringe_scan,
    make_pure_state,
    mandel_decompose,
    random_density,
    validate_density,
    visibility_vs_pid,
)


def as_matrix(rho: DensityOperator2) -> np.ndarray:
    r12 = complex(rho.rho12)
    return np.array([[rho.rho11, r12], [r12.conjugate(), rho.rho22]], dtype=complex)


class TestMakePureState:
    def test_balanced_superposition(self):
        s = 1 / math.sqrt(2)
        rho = make_pure_state(OnePhotonState(s, s))
        assert rho.rho11 == pytest.approx(0.5, abs=1e-12)
        assert rho.rho22 == pytest.approx(0.5, abs=1e-12)
        assert complex(rho.rho12) == pytest.approx(0.5, abs=1e-12)

    def test_single_source(self):
        rho = make_pure_state(OnePhotonState(1.0, 0.0))
        assert (rho.rho11, rho.rho22, complex(rho.rho12)) == (1.0, 0.0, 0j)

    def test_complex_amplitudes_against_outer_product_oracle(self):
        # Oracle: |psi><psi| built by numpy, independent of the formulas.
        psi = OnePhotonState(0.8, 0.6j)
        rho = make_pure_state(psi)
        vec = np.array([psi.alpha, psi.beta], dtype=complex)
        oracle = np.outer(vec, vec.conj())
        assert np.max(np.abs(as_matrix(rho) - oracle)) < 1e-15
        assert rho.rho11 == pytest.approx(0.64, abs=1e-12)
        assert rho.rho22 == pytest.approx(0.36, abs=1e-12)
        assert complex(rho.rho12) == pytest.approx(-0.48j, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            make_pure_state(OnePhotonState(1.0, 0.5))


class TestValidateDensity:
    def test_valid_diagonal(self):
        assert validate_density(DensityOperator2(0.5, 0.5, 0j)) == []

    def test_positivity_violation_matches_eigenvalue_oracle(self):
        rho = DensityOperator2(0.5, 0.5, 0.6)
        issues = validate_density(rho)
        assert [i.invariant for i in issues] == ["positivity"]
        assert issues[0].residual == pytest.approx(0.36 - 0.25, abs=1e-12)
        assert np.linalg.eigvalsh(as_matrix(rho)).min() < 0

    def test_trace_violation(self):
        issues = validate_density(DensityOperator2(0.7, 0.4, 0j))
        assert [i.invariant for i in issues] == ["trace"]
        assert issues[0].residual == pytest.approx(0.1, abs=1e-12)

    def test_non_finite_entries(self):
        issues = validate_density(DensityOperator2(math.nan, 0.5, 0j))
        assert [i.invariant for i in issues] == ["finite"]

    @pytest.mark.parametrize("rho12", [1e200, complex(1e308, 1e308)])
    def test_overflowing_coherence_is_a_positivity_issue(self, rho12):
        # |rho12|**2 overflows a float; the excess is reported, not raised.
        issues = validate_density(DensityOperator2(0.5, 0.5, rho12))
        assert [(i.invariant, i.residual) for i in issues] == [("positivity", math.inf)]


class TestMandelDecompose:
    def test_fully_coherent_balanced_state(self):
        rho = DensityOperator2(0.5, 0.5, 0.5)
        dec = mandel_decompose(rho)
        assert dec.p_id == pytest.approx(1.0, abs=1e-12)
        assert dec.p_d == pytest.approx(0.0, abs=1e-12)
        assert complex(dec.rho_id.rho12) == pytest.approx(0.5, abs=1e-12)

    def test_incoherent_mixture(self):
        rho = DensityOperator2(0.5, 0.5, 0j)
        dec = mandel_decompose(rho)
        assert dec.p_id == 0.0 and dec.p_d == 1.0
        assert dec.rho_d == rho

    def test_worked_example_with_reconstruction_oracle(self):
        rho = DensityOperator2(0.64, 0.36, 0.24)
        dec = mandel_decompose(rho)
        assert dec.p_id == pytest.approx(0.5, abs=1e-12)
        assert dec.p_d == pytest.approx(0.5, abs=1e-12)
        # Oracle: rebuild the operator entrywise with numpy.
        rebuilt = dec.p_id * as_matrix(dec.rho_id) + dec.p_d * as_matrix(dec.rho_d)
        assert np.max(np.abs(rebuilt - as_matrix(rho))) < 1e-12

    def test_zero_offdiagonal_phase_convention(self):
        dec = mandel_decompose(DensityOperator2(0.3, 0.7, 0j))
        off = complex(dec.rho_id.rho12)
        assert off.imag == 0.0 and off.real == pytest.approx(math.sqrt(0.21), abs=1e-15)

    def test_degenerate_source_raises(self):
        with pytest.raises(DegenerateSource):
            mandel_decompose(DensityOperator2(1.0, 0.0, 0j))

    def test_invalid_density_raises(self):
        with pytest.raises(InvalidDensity):
            mandel_decompose(DensityOperator2(0.5, 0.5, 0.6))


class TestDegreeOfIndistinguishability:
    def test_pure_states_saturate(self):
        rng = Random(7)
        for _ in range(200):
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            rho = make_pure_state(OnePhotonState(math.cos(theta), math.sin(theta) * phase))
            assert degree_of_indistinguishability(rho) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_state(self):
        assert degree_of_indistinguishability(DensityOperator2(0.3, 0.7, 0j)) == 0.0

    def test_complex_offdiagonal_cross_checked_by_coherence(self):
        rho = DensityOperator2(0.64, 0.36, 0.12 - 0.12j)
        p_id = degree_of_indistinguishability(rho)
        assert p_id == pytest.approx(0.12 * math.sqrt(2) / 0.48, abs=1e-12)
        assert p_id == pytest.approx(0.353553, abs=1e-6)
        gamma = coherence_functions(rho, 1.0).gamma12_normalized
        assert abs(gamma) == pytest.approx(p_id, abs=1e-12)


class TestCoherenceFunctions:
    def test_balanced_coherent(self):
        rep = coherence_functions(DensityOperator2(0.5, 0.5, 0.5), 1.0)
        assert rep.gamma11 == rep.gamma22 == 0.5
        assert complex(rep.gamma12) == 0.5
        assert abs(rep.gamma12_normalized) == pytest.approx(1.0, abs=1e-12)

    def test_k_scales_gammas_but_not_normalized(self):
        rho = DensityOperator2(0.5, 0.5, 0.5)
        one = coherence_functions(rho, 1.0)
        four = coherence_functions(rho, 2.0)
        assert four.gamma11 == pytest.approx(4 * one.gamma11, rel=1e-15)
        assert complex(four.gamma12) == pytest.approx(4 * complex(one.gamma12), rel=1e-15)
        assert four.gamma12_normalized == one.gamma12_normalized

    def test_gamma12_uses_conjugate_element(self):
        rep = coherence_functions(DensityOperator2(0.5, 0.5, 0.1 + 0.2j), 1.0)
        assert complex(rep.gamma12) == pytest.approx(0.1 - 0.2j, abs=1e-15)

    def test_worked_example(self):
        rep = coherence_functions(DensityOperator2(0.64, 0.36, 0.24), 1.0)
        assert complex(rep.gamma12_normalized) == pytest.approx(0.5, abs=1e-12)

    def test_zero_field_raises(self):
        with pytest.raises(ZeroField):
            coherence_functions(DensityOperator2(0.5, 0.5, 0.5), 0.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSource):
            coherence_functions(DensityOperator2(1.0, 0.0, 0j), 1.0)


class TestFringeScan:
    def test_incoherent_state_is_flat(self):
        scan = fringe_scan(DensityOperator2(0.5, 0.5, 0j), 1.0, 64)
        assert scan.visibility == 0.0
        assert all(rate == 1.0 for _, rate in scan.samples)

    def test_fully_coherent_state(self):
        scan = fringe_scan(DensityOperator2(0.5, 0.5, 0.5), 1.0, 360)
        rates = [r for _, r in scan.samples]
        assert max(rates) == pytest.approx(2.0, abs=1e-12)
        assert min(rates) == pytest.approx(0.0, abs=1e-12)
        assert scan.visibility == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_raises(self):
        with pytest.raises(ZeroField):
            fringe_scan(DensityOperator2(0.64, 0.36, 0.24), 0, 8)

    def test_worked_example_visibility(self):
        scan = fringe_scan(DensityOperator2(0.64, 0.36, 0.24), 1.0, 1024)
        assert scan.visibility == pytest.approx(0.48, abs=1e-6)

    def test_visibility_matches_sample_extrema(self):
        scan = fringe_scan(DensityOperator2(0.6, 0.4, 0.1 + 0.2j), 1.0, 97)
        rates = [r for _, r in scan.samples]
        expected = (max(rates) - min(rates)) / (max(rates) + min(rates))
        assert scan.visibility == expected

    def test_rates_never_negative(self):
        rng = Random(11)
        for _ in range(50):
            scan = fringe_scan(random_density(rng), 1.0, 64)
            assert all(rate >= -1e-12 for _, rate in scan.samples)

    @pytest.mark.parametrize("n", [64, 100, 128, 257, 1024])
    def test_sampled_visibility_convergence_bound(self, n):
        # Random off-diagonal phases: extrema can fall between samples, but
        # the quadratic extremum keeps the error under 10/n^2.
        rng = Random(n)
        for _ in range(20):
            rho = random_density(rng)
            sampled = fringe_scan(rho, 1.0, n).visibility
            analytic = visibility_vs_pid(rho).visibility
            assert abs(sampled - analytic) <= 10.0 / n**2

    def test_k_invariance_of_visibility(self):
        rho = DensityOperator2(0.64, 0.36, 0.1 + 0.2j)
        base = fringe_scan(rho, 1.0, 256)
        scaled = fringe_scan(rho, 1.5 - 2.0j, 256)
        assert scaled.visibility == pytest.approx(base.visibility, abs=1e-12)
        k2 = abs(1.5 - 2.0j) ** 2
        for (_, r0), (_, r1) in zip(base.samples, scaled.samples):
            assert r1 == pytest.approx(k2 * r0, rel=1e-12, abs=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fringe_scan(DensityOperator2(0.5, 0.5, 0j), 1.0, 7)

    def test_too_few_samples_message_is_the_cli_line(self):
        with pytest.raises(ValueError, match=r"^samples must be >= 8, got 4$"):
            fringe_scan(DensityOperator2(0.5, 0.5, 0j), 1.0, 4)


@st.composite
def fringe_inputs(draw):
    """A valid density (random, diagonal or pure), a field constant and a sample count."""
    rng = Random(draw(st.integers(0, 2**32)))
    rho = draw(st.sampled_from([
        random_density(rng), DensityOperator2(0.5, 0.5, 0j), DensityOperator2(0.5, 0.5, 0.5j),
        DensityOperator2(0.64, 0.36, 0.24)]))
    k = draw(st.sampled_from([1.0, 1e154, 1j, 1.5 - 2j, -1.0, 1e-150])
             | st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
    return rho, k, draw(st.integers(8, 10_000))


class TestFringeColumns:
    """The column form behind fringe_scan and the CLI keeps every bit of the former rates."""

    @settings(max_examples=60, deadline=None)
    @given(inputs=fringe_inputs())
    def test_rates_match_the_complex_exponential(self, inputs):
        rho, k, n = inputs
        k2 = abs(k) ** 2
        g12 = k2 * complex(rho.rho12).conjugate()
        base = k2 * (rho.rho11 + rho.rho22)
        phis = [i * (2.0 * math.pi / n) for i in range(n)]
        expected = [base + 2.0 * (g12 * cmath.exp(1j * phi)).real for phi in phis]
        if not all(map(math.isfinite, expected)):
            with pytest.raises(ZeroField, match="makes a detection rate overflow"):
                _fringe_columns(rho, k, n)
            return
        phases, rates, visibility = _fringe_columns(rho, k, n)
        assert list(map(float.hex, phases)) == list(map(float.hex, phis))
        assert list(map(float.hex, rates)) == list(map(float.hex, expected))
        scan = fringe_scan(rho, k, n)
        assert scan.samples == tuple(zip(phases, rates))
        assert scan.visibility.hex() == visibility.hex()


class TestVisibilityVsPid:
    def test_balanced_sources_give_equality(self):
        res = visibility_vs_pid(DensityOperator2(0.5, 0.5, 0.3))
        assert res.visibility == pytest.approx(res.p_id, abs=1e-15)
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_worked_example(self):
        res = visibility_vs_pid(DensityOperator2(0.64, 0.36, 0.24))
        assert res.visibility == pytest.approx(0.48, abs=1e-12)
        assert res.p_id == pytest.approx(0.5, abs=1e-12)
        assert res.ratio == pytest.approx(0.96, abs=1e-12)

    def test_diagonal_state_reports_nan_ratio(self):
        res = visibility_vs_pid(DensityOperator2(0.3, 0.7, 0j))
        assert res.visibility == 0.0 and res.p_id == 0.0
        assert math.isnan(res.ratio)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSource):
            visibility_vs_pid(DensityOperator2(0.0, 1.0, 0j))


class TestInvariants:
    def test_mandel_identity_on_random_operators(self):
        rng = Random(2024)
        for _ in range(1000):
            rho = random_density(rng)
            p_id = degree_of_indistinguishability(rho)
            gamma = coherence_functions(rho, 2.0 + 0.5j).gamma12_normalized
            assert abs(abs(gamma) - p_id) <= 1e-12

    def test_reconstruction_with_numpy_oracle(self):
        rng = Random(99)
        for _ in range(1000):
            rho = random_density(rng)
            dec = mandel_decompose(rho)
            rebuilt = dec.p_id * as_matrix(dec.rho_id) + dec.p_d * as_matrix(dec.rho_d)
            assert np.max(np.abs(rebuilt - as_matrix(rho))) <= 1e-12
            assert abs(dec.p_id + dec.p_d - 1.0) <= 1e-15
            assert 0.0 <= dec.p_id <= 1.0

    def test_phase_covariance(self):
        rng = Random(5)
        n = 360
        for _ in range(25):
            rho = random_density(rng)
            base = visibility_vs_pid(rho)
            shift_steps = rng.randrange(1, n)
            theta = 2 * math.pi * shift_steps / n
            rotated = DensityOperator2(
                rho.rho11, rho.rho22, complex(rho.rho12) * cmath.exp(1j * theta)
            )
            moved = visibility_vs_pid(rotated)
            assert moved.p_id == pytest.approx(base.p_id, abs=1e-12)
            assert moved.visibility == pytest.approx(base.visibility, abs=1e-12)
            # The detection-rate maximum sits at arg(rho12); rotating the
            # off-diagonal by theta moves it by exactly +theta on the grid.
            if abs(complex(rho.rho12)) > 1e-6:
                rates0 = [r for _, r in fringe_scan(rho, 1.0, n).samples]
                rates1 = [r for _, r in fringe_scan(rotated, 1.0, n).samples]
                i0 = rates0.index(max(rates0))
                i1 = rates1.index(max(rates1))
                assert (i0 + shift_steps) % n == i1

    def test_random_density_is_always_valid(self):
        rng = Random(123)
        for _ in range(500):
            assert validate_density(random_density(rng)) == []


def absolute_rule_rejects(rho, tol=ANALYTIC_TOL):
    """Frozen reference: the positivity rule before it became relative."""
    try:
        excess = abs(rho.rho12) ** 2 - rho.rho11 * rho.rho22
    except OverflowError:
        excess = math.inf
    return excess > tol


# Smaller source weight log-uniform on 1e-12..0.5; the other gets the rest.
small_weights = st.floats(min_value=-12.0, max_value=math.log10(0.5)).map(lambda e: 10.0 ** e)
# c = |rho12| / sqrt(rho11*rho22): inside the cone, near its edge, and outside.
ratios = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 0.5, 0.9, 1.1, 1.5, 2.0, 3.0, 10.0]).flatmap(
        lambda k: st.sampled_from([1.0 - k * ANALYTIC_TOL, 1.0 + k * ANALYTIC_TOL])),
    st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
)


class TestRelativePositivity:
    @settings(max_examples=500, deadline=None)
    @given(small=small_weights, c=ratios, swap=st.booleans(),
           phase=st.floats(min_value=-math.pi, max_value=math.pi))
    def test_rule_scales_with_the_source_weights(self, small, c, swap, phase):
        rho11, rho22 = (1.0 - small, small) if swap else (small, 1.0 - small)
        rho = DensityOperator2(rho11, rho22,
                               c * math.sqrt(rho11 * rho22) * cmath.exp(1j * phase))
        rejected = "positivity" in [i.invariant for i in validate_density(rho)]
        if c <= 1.0:
            assert not rejected
        if c > 1.0 + 2 * ANALYTIC_TOL:
            assert rejected
        if absolute_rule_rejects(rho):
            assert rejected
        elif rejected:
            assert c > 1.0 + ANALYTIC_TOL


class _ZeroNormFirst:
    """A stub generator: four gauss draws of 0.0 (a zero-norm state), then 1.0; random 0.5."""

    def __init__(self):
        self.gauss_draws = 0

    def gauss(self, mu, sigma):
        self.gauss_draws += 1
        return 0.0 if self.gauss_draws <= 4 else 1.0

    def random(self):
        return 0.5


class TestRandomDensity:
    def test_near_zero_norm_draw_is_redrawn(self):
        rng = _ZeroNormFirst()
        rho = random_density(rng)
        assert rng.gauss_draws == 8
        assert validate_density(rho) == []


class TestRecordApi:
    def test_records_are_immutable_tuples_with_stable_repr(self):
        rho = DensityOperator2(rho11=0.64, rho22=0.36, rho12=0.24)
        records = {
            "OnePhotonState(alpha=0.8, beta=0.6j)": OnePhotonState(0.8, 0.6j),
            "DensityOperator2(rho11=0.64, rho22=0.36, rho12=0.24)": rho,
            "DensityIssue(invariant='trace', residual=0.1)": DensityIssue("trace", 0.1),
            "MandelDecomposition(p_id=0.5, p_d=0.5, "
            "rho_id=DensityOperator2(rho11=0.64, rho22=0.36, rho12=(0.48+0j)), "
            "rho_d=DensityOperator2(rho11=0.64, rho22=0.36, rho12=0j))":
                MandelDecomposition(0.5, 0.5, DensityOperator2(0.64, 0.36, 0.48 + 0j),
                                    DensityOperator2(0.64, 0.36, 0j)),
            "CoherenceReport(gamma11=0.64, gamma22=0.36, gamma12=(0.24+0j), "
            "gamma12_normalized=(0.5+0j), k_const=(1+0j))":
                CoherenceReport(0.64, 0.36, 0.24 + 0j, 0.5 + 0j, 1 + 0j),
            "FringeScan(samples=((0.0, 2.0), (3.14, 0.0)), visibility=1.0)":
                FringeScan(((0.0, 2.0), (3.14, 0.0)), 1.0),
            "VisibilityComparison(visibility=0.48, p_id=0.5, ratio=0.96)":
                VisibilityComparison(0.48, 0.5, 0.96),
        }
        for text, record in records.items():
            assert repr(record) == text
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            twin = type(record)(*record)
            assert twin == record and hash(twin) == hash(record)
        assert rho.rho21 == 0.24 - 0j
        # The records are tuples: equal to a plain tuple of their fields.
        assert DensityOperator2(0.5, 0.5, 0j) == (0.5, 0.5, 0j)
