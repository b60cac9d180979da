"""Induced-coherence model: overlap law, endpoints, sweep behavior."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from indist import zwm
from indist.onephoton import (
    DegenerateSource,
    DensityOperator2,
    degree_of_indistinguishability,
    fringe_scan,
    validate_density,
    visibility_vs_pid,
)
from indist.zwm import InvalidSetup, SweepRow, ZwmSetup, sweep_transmission, whichway_coincidence_prob, zwm_signal_state

BALANCED = 1 / math.sqrt(2)


class TestSignalState:
    def test_perfect_alignment_is_fully_coherent(self):
        rho = zwm_signal_state(ZwmSetup(BALANCED, BALANCED, 1.0))
        assert degree_of_indistinguishability(rho) == pytest.approx(1.0, abs=1e-12)

    def test_blocked_idler_wipes_out_coherence(self):
        rho = zwm_signal_state(ZwmSetup(BALANCED, BALANCED, 0.0))
        assert complex(rho.rho12) == 0j
        assert degree_of_indistinguishability(rho) == 0.0

    def test_partial_transmission(self):
        rho = zwm_signal_state(ZwmSetup(0.8, 0.6, 0.5))
        assert complex(rho.rho12) == pytest.approx(0.24, abs=1e-12)
        assert degree_of_indistinguishability(rho) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_setups(self):
        with pytest.raises(InvalidSetup):
            zwm_signal_state(ZwmSetup(1.0, 0.5, 1.0))
        with pytest.raises(InvalidSetup):
            zwm_signal_state(ZwmSetup(BALANCED, BALANCED, 1.5))


class TestCoincidenceProbability:
    @pytest.mark.parametrize(
        "tau,expected", [(0.0, 1.0), (1.0, 0.0), (0.6, 0.64)]
    )
    def test_values(self, tau, expected):
        assert whichway_coincidence_prob(
            ZwmSetup(BALANCED, BALANCED, tau)
        ) == pytest.approx(expected, abs=1e-12)


class TestSweep:
    def test_two_step_endpoints(self):
        rows = sweep_transmission(ZwmSetup(BALANCED, BALANCED, 1.0), 2)
        assert rows[0].t_mag == 0.0 and rows[0].p_id == 0.0
        assert rows[0].visibility == 0.0 and rows[0].coincidence_id_prob == 1.0
        assert rows[1].t_mag == 1.0
        assert rows[1].p_id == pytest.approx(1.0, abs=1e-12)
        assert rows[1].visibility == pytest.approx(1.0, abs=1e-12)
        assert rows[1].coincidence_id_prob == pytest.approx(0.0, abs=1e-12)

    def test_three_step_middle_row(self):
        middle = sweep_transmission(ZwmSetup(BALANCED, BALANCED, 1.0), 3)[1]
        assert middle.t_mag == 0.5
        assert middle.p_id == pytest.approx(0.5, abs=1e-12)
        assert middle.visibility == pytest.approx(0.5, abs=1e-12)
        assert middle.coincidence_id_prob == pytest.approx(0.75, abs=1e-12)

    def test_p_id_column_is_pump_split_invariant(self):
        balanced = sweep_transmission(ZwmSetup(BALANCED, BALANCED, 1.0), 11)
        unbalanced = sweep_transmission(ZwmSetup(0.8, 0.6, 1.0), 11)
        for row_b, row_u in zip(balanced, unbalanced):
            assert row_u.p_id == pytest.approx(row_b.p_id, abs=1e-12)

    def test_monotonicity(self):
        rows = sweep_transmission(ZwmSetup(0.8, 0.6, 1.0), 21)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.p_id > prev.p_id
            assert cur.visibility > prev.visibility
            assert cur.coincidence_id_prob < prev.coincidence_id_prob

    def test_row_invariants(self):
        rows = sweep_transmission(ZwmSetup(0.6, 0.8, 1.0), 17)
        for row in rows:
            assert row.p_id == pytest.approx(row.t_mag, abs=1e-12)
            assert row.coincidence_id_prob == pytest.approx(1 - row.t_mag**2, abs=1e-12)

    def test_rejects_single_step(self):
        with pytest.raises(ValueError):
            sweep_transmission(ZwmSetup(BALANCED, BALANCED, 1.0), 1)

    def test_degenerate_pump_propagates(self):
        with pytest.raises(DegenerateSource):
            sweep_transmission(ZwmSetup(1.0, 0.0, 1.0), 3)


class TestRecordApi:
    """Both records keep the NamedTuple contract of the other model records."""

    @pytest.mark.parametrize("cls,fields,values", [
        (ZwmSetup, ("pump_alpha", "pump_beta", "idler_transmission"), (0.8, 0.6j, 1.0)),
        (SweepRow, ("t_mag", "p_id", "visibility", "coincidence_id_prob"), (0.5, 0.5, 0.5, 0.75)),
    ], ids=["ZwmSetup", "SweepRow"])
    def test_records_are_named_tuples(self, cls, fields, values):
        record = cls(**dict(zip(fields, values)))
        assert cls._fields == fields
        assert record == cls(*values) == values
        assert hash(record) == hash(values)
        assert list(record._asdict()) == list(fields)
        assert tuple(record._asdict().values()) == values
        assert record._replace(**{fields[-1]: 0.0}) == (*values[:-1], 0.0)
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(fields, values)) + ")"
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)


class TestTauPhase:
    def test_phase_leaves_p_id_and_visibility_alone(self):
        plain = ZwmSetup(0.8, 0.6, 0.5)
        tilted = ZwmSetup(0.8, 0.6, 0.5 * cmath.exp(0.7j))
        rho_plain = zwm_signal_state(plain)
        rho_tilted = zwm_signal_state(tilted)
        assert degree_of_indistinguishability(rho_tilted) == pytest.approx(
            degree_of_indistinguishability(rho_plain), abs=1e-12
        )
        assert visibility_vs_pid(rho_tilted).visibility == pytest.approx(
            visibility_vs_pid(rho_plain).visibility, abs=1e-12
        )
        # Sampled visibility only agrees up to the grid-sampling bound.
        n = 256
        assert fringe_scan(rho_tilted, 1.0, n).visibility == pytest.approx(
            fringe_scan(rho_plain, 1.0, n).visibility, abs=10.0 / n**2
        )

    def test_phase_moves_the_fringe_offset(self):
        n = 256
        rho_plain = zwm_signal_state(ZwmSetup(BALANCED, BALANCED, 0.5))
        shifted = ZwmSetup(BALANCED, BALANCED, 0.5 * cmath.exp(2j * math.pi * 32 / n))
        rho_shift = zwm_signal_state(shifted)
        rates0 = [r for _, r in fringe_scan(rho_plain, 1.0, n).samples]
        rates1 = [r for _, r in fringe_scan(rho_shift, 1.0, n).samples]
        assert rates0.index(max(rates0)) != rates1.index(max(rates1))

    def test_sweep_keeps_tau_phase(self):
        setup = ZwmSetup(BALANCED, BALANCED, 0.3 * cmath.exp(1.1j))
        rows = sweep_transmission(setup, 5)
        assert [r.p_id for r in rows] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)


@given(
    split=st.floats(min_value=0.05, max_value=0.95),
    t=st.floats(min_value=0.0, max_value=1.0),
    pump_phase=st.floats(min_value=0.0, max_value=2 * math.pi),
    tau_phase=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_overlap_law(split, t, pump_phase, tau_phase):
    """degree_of_indistinguishability(signal) = |tau|; the pump split cancels."""
    alpha = math.sqrt(split)
    beta = math.sqrt(1.0 - split) * cmath.exp(1j * pump_phase)
    setup = ZwmSetup(alpha, beta, t * cmath.exp(1j * tau_phase))
    rho = zwm_signal_state(setup)
    assert abs(degree_of_indistinguishability(rho) - t) <= 1e-12
    assert abs(whichway_coincidence_prob(setup) - (1.0 - t * t)) <= 1e-12


@settings(max_examples=500, deadline=None)
@given(parts=st.tuples(*[st.floats(-1.0, 1.0)] * 4), scale=st.floats(1 - 2e-12, 1 + 2e-12))
def test_accepted_pump_gives_valid_populations(parts, scale):
    """sweep_columns runs no density check: every pump zwm accepts has valid populations."""
    a, b = complex(*parts[:2]), complex(*parts[2:])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2) or 1.0
    setup = ZwmSetup(a / norm * scale, b / norm * scale, 1.0)
    try:
        zwm._require_valid(setup)
    except InvalidSetup:
        return
    a, b = complex(setup.pump_alpha), complex(setup.pump_beta)
    assert validate_density(DensityOperator2(abs(a) ** 2, abs(b) ** 2, 0j)) == []
