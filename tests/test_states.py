import math
from dataclasses import replace

import numpy as np
import pytest

from timelens import (
    EscortPulse,
    GaussianJSA,
    PhasematchingModel,
    chirped_temporal_width,
    grids_for_state,
    jsa_amplitude,
    joint_energy_uncertainty,
    sample_jsa,
    schmidt_number,
    statistical_correlation,
)
from timelens.states import escort_amplitude

import oracles


def make_state(**kw):
    base = dict(
        omega1=2.32e15, omegah=2.54e15, sigma1=1.2e12, sigmah=0.9e12, rho=-0.6
    )
    base.update(kw)
    return GaussianJSA(**base)


class TestGaussianJSA:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_state(sigma1=0.0)
        with pytest.raises(ValueError):
            make_state(sigmah=-1.0)
        with pytest.raises(ValueError):
            make_state(omega1=-2e15)
        with pytest.raises(ValueError):
            make_state(rho=0.99995)
        with pytest.raises(ValueError):
            make_state(rho=-1.0)

    def test_peak_amplitude(self):
        state = make_state(rho=-0.8)
        peak = abs(jsa_amplitude(state, state.omega1, state.omegah))
        expected = 1.0 / math.sqrt(
            2.0 * math.pi * state.sigma1 * state.sigmah
        ) / (1.0 - state.rho**2) ** 0.25
        assert peak == pytest.approx(expected, rel=1e-14)

    def test_separable_factorizes(self):
        state = make_state(rho=0.0)
        w1 = state.omega1 + np.linspace(-2, 2, 7) * state.sigma1
        wh = state.omegah + np.linspace(-2, 2, 5) * state.sigmah
        joint = jsa_amplitude(state, w1[:, None], wh[None, :])
        f1 = jsa_amplitude(state, w1, np.full_like(w1, state.omegah))
        fh = jsa_amplitude(state, np.full_like(wh, state.omega1), wh)
        peak = jsa_amplitude(state, state.omega1, state.omegah)
        assert np.allclose(joint, np.outer(f1, fh) / peak, rtol=1e-12)

    @pytest.mark.parametrize("rho,chirp,delay", [(0.0, 0.0, 0.0), (-0.9, 3e-25, 1e-12), (0.7, -2e-25, -2e-12)])
    def test_normalization_quadrature(self, rho, chirp, delay):
        state = make_state(rho=rho, chirp=chirp, delay=delay)
        total = oracles.simpson_norm(
            lambda w1, wh: jsa_amplitude(state, w1, wh),
            state.omega1,
            state.omegah,
            state.sigma1,
            state.sigmah,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_phases_leave_intensity_alone(self):
        plain = make_state()
        phased = replace(plain, chirp=5e-25, delay=2e-12)
        w1 = plain.omega1 + np.linspace(-3, 3, 11) * plain.sigma1
        wh = plain.omegah + np.linspace(-3, 3, 11) * plain.sigmah
        a = np.abs(jsa_amplitude(plain, w1[:, None], wh[None, :]))
        b = np.abs(jsa_amplitude(phased, w1[:, None], wh[None, :]))
        assert np.allclose(a, b, rtol=1e-13)

    @pytest.mark.parametrize("rho", [0.97, -0.97])
    @pytest.mark.parametrize("full", [False, True], ids=["broadcast", "full"])
    def test_matches_per_cell_exponential(self, rho, full):
        # one complex factor per signal sample times a real Gaussian per
        # cell, against exp(quad + i phase) per cell; a +-9 sigma grid
        # reaches cells whose exponent is below -708, where both are
        # subnormal or zero and may differ by a subnormal spacing or two
        state = make_state(rho=rho, chirp=3e-25, delay=1.5e-12)
        g1, gh = grids_for_state(state, n=301, nh=257, span_sigmas=9.0)
        w1, wh = g1.points[:, None], gh.points[None, :]
        if full:
            w1, wh = np.broadcast_arrays(w1, wh)
        d1, dh = w1 - state.omega1, wh - state.omegah
        quad = (
            -(d1**2) / (4.0 * state.sigma1**2)
            - dh**2 / (4.0 * state.sigmah**2)
            + rho * d1 * dh / (2.0 * state.sigma1 * state.sigmah)
        ) / (1.0 - rho**2)
        assert np.count_nonzero(quad < -708.0) > 1000
        got = jsa_amplitude(state, w1, wh)
        ref = oracles.jsa_amplitude(state, w1, wh)
        subnormal = (0.0 < np.abs(ref)) & (np.abs(ref) < np.finfo(float).tiny)
        assert np.any(subnormal) and np.any(ref == 0.0)
        assert got.shape == ref.shape == (301, 257)
        np.testing.assert_allclose(
            got, ref, rtol=1e-14, atol=2 * np.finfo(float).smallest_subnormal
        )
        cell = g1.step * gh.step
        norm = np.sum(np.abs(got) ** 2) * cell
        assert norm == pytest.approx(np.sum(np.abs(ref) ** 2) * cell, rel=1e-12)


class TestEscort:
    def test_validation(self):
        with pytest.raises(ValueError):
            EscortPulse(center=2.4e15, sigma=0.0)
        with pytest.raises(ValueError):
            EscortPulse(center=-1.0, sigma=1e12)

    def test_normalized(self):
        esc = EscortPulse(center=2.4e15, sigma=1.1e12, chirp=2e-25)
        w = esc.center + np.linspace(-8, 8, 4001) * esc.sigma
        total = np.trapezoid(np.abs(escort_amplitude(esc, w)) ** 2, w)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPhasematching:
    def test_infinite(self):
        pm = PhasematchingModel.infinite()
        assert pm.is_infinite
        assert np.all(pm.amplitude(np.array([1e15, 2e15]), 1.5e15) == 1.0)

    def test_finite_width(self):
        pm = PhasematchingModel(sigma=1e12)
        # amplitude falls to exp(-1/4) at one sigma so the intensity
        # acceptance has a 1/sqrt(e) width of sigma
        val = pm.amplitude(4.76e15 + 1e12, 4.76e15)
        assert val == pytest.approx(math.exp(-0.25), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhasematchingModel(sigma=0.0)
        with pytest.raises(ValueError):
            PhasematchingModel(sigma=-1e12)


class TestStatisticalCorrelation:
    def test_stored_rho_exact(self):
        assert statistical_correlation(make_state(rho=-0.9776)) == -0.9776

    def test_separable_zero(self):
        assert statistical_correlation(make_state(rho=0.0)) == 0.0

    def test_grid_dispatch(self):
        state = make_state(rho=0.5)
        field = sample_jsa(state, *grids_for_state(state, n=256))
        assert statistical_correlation(field) == pytest.approx(0.5, abs=1e-3)


class TestSchmidtNumber:
    def test_values(self):
        assert schmidt_number(-0.9776) == pytest.approx(4.75, abs=0.01)
        assert schmidt_number(0.0) == 1.0
        assert schmidt_number(0.909) == pytest.approx(2.40, abs=0.01)
        # measured value 2.39 +- 0.06 brackets the formula output
        assert abs(schmidt_number(0.909) - 2.39) < 0.06

    def test_domain(self):
        with pytest.raises(ValueError):
            schmidt_number(1.0)
        with pytest.raises(ValueError):
            schmidt_number(-1.2)


class TestChirpedWidth:
    def test_unchirped(self):
        state = make_state(rho=0.0, chirp=0.0)
        assert chirped_temporal_width(state) == pytest.approx(
            1.0 / (2.0 * state.sigma1), rel=1e-12
        )

    def test_experimental_value(self, exp_state, exp_lens):
        chirped = replace(exp_state, chirp=exp_lens.signal_chirp)
        assert chirped_temporal_width(chirped) == pytest.approx(6.85e-12, rel=2e-3)

    def test_monotone_in_chirp(self):
        widths = [
            chirped_temporal_width(make_state(chirp=a)) for a in (0.0, 1e-25, 3e-25, 1e-24)
        ]
        assert all(b > a for a, b in zip(widths, widths[1:]))


class TestJointEnergyUncertainty:
    def test_raw_input_row(self):
        # raw fit parameters: 4.047 nm at 811.006 nm, 3.733 nm at 740.194 nm
        s1 = 299792458.0 * 4.047e-9 / 811.006e-9**2 / 1e12 / oracles.FWHM
        sh = 299792458.0 * 3.733e-9 / 740.194e-9**2 / 1e12 / oracles.FWHM
        got = joint_energy_uncertainty(s1, sh, -0.97024)
        assert got == pytest.approx(oracles.minor_axis_fwhm(s1, sh, -0.97024), rel=1e-12)
        assert got == pytest.approx(0.334, abs=2e-3)

    def test_raw_output_row(self):
        s1 = 299792458.0 * 0.621e-9 / 396.113e-9**2 / 1e12 / oracles.FWHM
        sh = 299792458.0 * 2.50e-9 / 740.126e-9**2 / 1e12 / oracles.FWHM
        assert joint_energy_uncertainty(s1, sh, 0.863) == pytest.approx(0.469, abs=2e-3)

    def test_isotropic(self):
        assert joint_energy_uncertainty(1.0, 1.0, 0.0) == pytest.approx(
            oracles.FWHM, rel=1e-12
        )

    def test_symmetries(self):
        a = joint_energy_uncertainty(1.3, 0.8, 0.6)
        assert joint_energy_uncertainty(1.3, 0.8, -0.6) == pytest.approx(a, rel=1e-12)
        assert joint_energy_uncertainty(0.8, 1.3, 0.6) == pytest.approx(a, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            joint_energy_uncertainty(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            joint_energy_uncertainty(0.0, 1.0, 0.5)
