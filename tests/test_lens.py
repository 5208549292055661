import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timelens import (
    EscortPulse,
    GaussianJSA,
    LensConfig,
    PhasematchingModel,
    SingularConfigurationError,
    TimeToFrequencyError,
    limit_infinite_escort,
    limit_m_minus1,
    magnification,
    output_correlation,
    output_sigma3,
    predict_output,
    solve_imaging,
    tunability,
)
from timelens import lens, units
from timelens.config import parse_config

import oracles


class TestSolveImaging:
    def test_symmetric_m_minus1(self):
        assert solve_imaging(signal_chirp=2.0, escort_chirp=-1.0) == pytest.approx(2.0)

    def test_experimental_chirps(self):
        ao = solve_imaging(signal_chirp=oracles.A1, escort_chirp=oracles.AE)
        expected = -oracles.A1 * oracles.AE / (oracles.A1 + oracles.AE)
        assert ao == pytest.approx(expected, rel=1e-15)
        assert ao / 1e-30 / 1e3 == pytest.approx(680.2, abs=0.05)

    def test_equal_chirps_identity(self):
        assert solve_imaging(signal_chirp=3.0, escort_chirp=3.0) == pytest.approx(-1.5)

    def test_degenerate_configurations(self):
        with pytest.raises(TimeToFrequencyError):
            solve_imaging(signal_chirp=1.0, escort_chirp=-1.0)
        with pytest.raises(SingularConfigurationError):
            solve_imaging(signal_chirp=0.0, escort_chirp=1.0)


class TestMagnification:
    def test_m_minus1(self):
        m_s, m_t = magnification(2.0, -1.0)
        assert m_s == -1.0 and m_t == -1.0

    def test_experimental(self):
        m_s, m_t = magnification(oracles.A1, oracles.AE)
        assert m_s == pytest.approx(1.0 + 696.0 / -344.0, rel=1e-15)
        assert round(m_s, 4) == -1.0233
        assert m_s * m_t == pytest.approx(1.0, rel=1e-15)

    def test_zero_signal_chirp(self):
        assert magnification(0.0, -1.0)[0] == 1.0

    def test_errors(self):
        with pytest.raises(SingularConfigurationError):
            magnification(1.0, 0.0)
        with pytest.raises(TimeToFrequencyError):
            magnification(1.0, -1.0)

    def test_consistency_with_imaging(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a1 = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
            ae = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
            if a1 + ae == 0.0:
                continue
            ao = solve_imaging(signal_chirp=a1, escort_chirp=ae)
            assert magnification(a1, ae)[0] == pytest.approx(-a1 / ao, rel=1e-12)


class TestOutputClosedForms:
    def test_sigma3_experimental_golden(self, exp_state, exp_lens):
        # golden value frozen from the quadratic-form oracle
        got = output_sigma3(exp_lens, exp_state)
        assert got == pytest.approx(3.033807e12, rel=1e-5)
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1, oracles.SIGMAE, oracles.AE
        )
        assert got == pytest.approx(ref[0], rel=1e-12)

    def test_correlation_experimental_golden(self, exp_state, exp_lens):
        got = output_correlation(exp_lens, exp_state)
        assert got == pytest.approx(0.915010, abs=1e-5)
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1, oracles.SIGMAE, oracles.AE
        )
        assert got == pytest.approx(ref[2], abs=1e-12)

    def test_against_oracle_random(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            sigma1 = rng.uniform(0.6, 1.6) * 1e12
            sigmah = rng.uniform(0.6, 1.6) * 1e12
            sigmae = rng.uniform(0.3, 3.0) * 1e12
            rho = rng.uniform(-0.97, 0.97)
            a1 = rng.uniform(-6, 6) / (4 * sigma1**2)
            ae = rng.uniform(-4, 4) / (4 * sigma1**2)
            state = GaussianJSA(
                omega1=2.3e15, omegah=2.5e15, sigma1=sigma1, sigmah=sigmah, rho=rho
            )
            cfg = LensConfig(
                signal_chirp=a1, escort=EscortPulse(center=2.4e15, sigma=sigmae, chirp=ae)
            )
            ref = oracles.output_moments(sigma1, sigmah, rho, a1, sigmae, ae)
            sigma3_exp, rho_exp = oracles.expanded_output_moments(
                sigma1, sigmah, rho, a1, sigmae, ae
            )
            assert output_sigma3(cfg, state) == pytest.approx(ref[0], rel=1e-10)
            assert output_sigma3(cfg, state) == pytest.approx(sigma3_exp, rel=1e-10)
            assert output_correlation(cfg, state) == pytest.approx(ref[2], abs=1e-10)
            assert output_correlation(cfg, state) == pytest.approx(rho_exp, abs=1e-10)

    def test_core_finite_phasematching(self, exp_state, exp_escort):
        for pm_sigma in (1e12, 3.3e12, 2e13):
            cfg = LensConfig(
                signal_chirp=oracles.A1,
                escort=exp_escort,
                phasematching=PhasematchingModel(sigma=pm_sigma),
            )
            got = lens.gaussian_output(cfg, exp_state)
            ref = oracles.output_moments(
                oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1,
                oracles.SIGMAE, oracles.AE, pm_sigma=pm_sigma,
            )
            assert got.sigma3 == pytest.approx(ref[0], rel=1e-10)
            assert got.sigmah == pytest.approx(ref[1], rel=1e-10)
            assert got.rho_f == pytest.approx(ref[2], abs=1e-10)
            assert got.slope3 == pytest.approx(ref[3], rel=1e-10)
            assert got.slopeh == pytest.approx(ref[4], rel=1e-10)
            # the acceptance multiplies the signal marginal
            open_sigma3 = output_sigma3(replace(cfg, phasematching=PhasematchingModel()), exp_state)
            assert got.sigma3 == pytest.approx(
                1.0 / math.hypot(1.0 / open_sigma3, 1.0 / pm_sigma), rel=1e-12
            )

    def test_uncorrelated_input_stays_uncorrelated(self, exp_escort):
        state = GaussianJSA(
            omega1=2.3e15, omegah=2.5e15, sigma1=1.1e12, sigmah=0.9e12, rho=0.0
        )
        cfg = LensConfig(signal_chirp=oracles.A1, escort=exp_escort)
        assert output_correlation(cfg, state) == 0.0

    def test_unchirped_convolution_identity(self):
        # with no chirps the output width is the plain convolution width
        # for any correlation
        for rho in (0.0, 0.5, -0.9):
            state = GaussianJSA(
                omega1=2.3e15, omegah=2.5e15, sigma1=1.1e12, sigmah=0.9e12, rho=rho
            )
            cfg = LensConfig(
                signal_chirp=0.0, escort=EscortPulse(center=2.4e15, sigma=1.7e12)
            )
            assert output_sigma3(cfg, state) == pytest.approx(
                math.hypot(1.1e12, 1.7e12), rel=1e-12
            )

    def test_total_chirp_includes_state(self, exp_state, exp_escort):
        # chirp carried on the state adds to the lens-applied chirp
        cfg_all_on_lens = LensConfig(signal_chirp=oracles.A1, escort=exp_escort)
        cfg_split = LensConfig(signal_chirp=oracles.A1 / 2, escort=exp_escort)
        state_chirped = replace(exp_state, chirp=oracles.A1 / 2)
        assert output_sigma3(cfg_split, state_chirped) == pytest.approx(
            output_sigma3(cfg_all_on_lens, exp_state), rel=1e-14
        )

    def test_finite_phasematching_closed_forms(self, exp_state, exp_escort):
        # the public closed forms read the core for a finite acceptance too
        pm = PhasematchingModel(sigma=1e12)
        cfg = LensConfig(signal_chirp=oracles.A1, escort=exp_escort, phasematching=pm)
        core = lens.gaussian_output(cfg, exp_state)
        assert output_sigma3(cfg, exp_state) == core.sigma3
        assert output_correlation(cfg, exp_state) == core.rho_f
        pred = predict_output(cfg, exp_state)
        assert (pred.sigma3, pred.sigmah_f, pred.rho_f) == (core.sigma3, core.sigmah, core.rho_f)
        assert core.shift3 == core.shifth == 0.0
        open_sigma3 = output_sigma3(replace(cfg, phasematching=PhasematchingModel()), exp_state)
        assert output_sigma3(cfg, exp_state) < open_sigma3

    def test_off_nominal_acceptance_shifts_centers(self, exp_state, exp_escort):
        # an acceptance centered delta off the nominal sum frequency pulls
        # the intensity by exp(d3 delta / sigma_phi^2): the centers move
        # along the inverse of the form, the widths and slopes stay
        sigma_phi, delta = 2e12, 0.7e12
        nominal = exp_state.omega1 + exp_escort.center
        centered = LensConfig(
            signal_chirp=oracles.A1,
            escort=exp_escort,
            phasematching=PhasematchingModel(sigma=sigma_phi),
        )
        shifted = replace(
            centered, phasematching=PhasematchingModel(sigma=sigma_phi, center=nominal + delta)
        )
        a = lens.gaussian_output(centered, exp_state)
        b = lens.gaussian_output(shifted, exp_state)
        assert (b.sigma3, b.sigmah, b.rho_f) == (a.sigma3, a.sigmah, a.rho_f)
        assert b.slope3 == a.slope3 and b.slopeh == a.slopeh
        # marginal of a correlated Gaussian times the acceptance: the
        # signal center is sigma3^2 delta / sigma_phi^2 and the herald
        # follows through the output correlation
        assert b.shift3 == pytest.approx(b.sigma3**2 * delta / sigma_phi**2, rel=1e-12)
        assert b.shifth == pytest.approx(b.rho_f * b.sigmah / b.sigma3 * b.shift3, rel=1e-12)
        tau = 0.8e-12
        pred = predict_output(shifted, replace(exp_state, delay=tau))
        assert pred.omega3_center == nominal + b.shift3 + b.slope3 * tau
        assert pred.omegah_center == exp_state.omegah + b.shifth + b.slopeh * tau

    def test_rho_symmetry(self, exp_state, exp_lens):
        flipped = replace(exp_state, rho=-exp_state.rho)
        assert output_sigma3(exp_lens, flipped) == output_sigma3(exp_lens, exp_state)
        assert abs(output_correlation(exp_lens, flipped)) == pytest.approx(
            abs(output_correlation(exp_lens, exp_state)), rel=1e-14
        )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rho=st.floats(-0.97, 0.97),
    u1=st.floats(-6.0, 6.0),
    ue=st.floats(-4.0, 4.0),
    sigmae_ratio=st.floats(0.3, 3.0),
    pm_ratio=st.one_of(st.just(math.inf), st.floats(0.2, 5.0)),
    offset_ratio=st.one_of(st.none(), st.floats(-2.0, 2.0)),
)
def test_core_rho_sign_symmetry(rho, u1, ue, sigmae_ratio, pm_ratio, offset_ratio):
    # flipping the input correlation flips every herald-odd quantity of
    # the core and leaves the rest bit for bit, for any acceptance
    sigma1 = 1.1e12
    state = GaussianJSA(omega1=2.3e15, omegah=2.5e15, sigma1=sigma1, sigmah=0.9e12, rho=rho)
    escort = EscortPulse(center=2.4e15, sigma=sigmae_ratio * sigma1, chirp=ue / (4 * sigma1**2))
    center = None
    if offset_ratio is not None and math.isfinite(pm_ratio):
        center = state.omega1 + escort.center + offset_ratio * pm_ratio * sigma1
    cfg = LensConfig(
        signal_chirp=u1 / (4 * sigma1**2),
        escort=escort,
        phasematching=PhasematchingModel(sigma=pm_ratio * sigma1, center=center),
    )
    a = lens.gaussian_output(cfg, state)
    b = lens.gaussian_output(cfg, replace(state, rho=-rho))
    assert (b.sigma3, b.sigmah, b.slope3, b.shift3) == (a.sigma3, a.sigmah, a.slope3, a.shift3)
    assert (b.rho_f, b.slopeh, b.shifth) == (-a.rho_f, -a.slopeh, -a.shifth)


class TestLimits:
    def test_infinite_escort_consistency(self, exp_state):
        big = EscortPulse(center=oracles.OMEGAE, sigma=1e3 * oracles.SIGMA1, chirp=oracles.AE)
        cfg = LensConfig(signal_chirp=oracles.A1, escort=big)
        s3_lim, rf_lim = limit_infinite_escort(exp_state, oracles.A1, oracles.AE)
        assert output_sigma3(cfg, exp_state) == pytest.approx(s3_lim, rel=1e-3)
        assert output_correlation(cfg, exp_state) == pytest.approx(rf_lim, abs=1e-3)

    def test_infinite_escort_lcl_magnitudes(self, exp_state):
        s3_lim, rf_lim = limit_infinite_escort(exp_state, 10 * oracles.A1, 10 * oracles.AE)
        m_s, _ = magnification(oracles.A1, oracles.AE)
        assert s3_lim == pytest.approx(abs(m_s) * oracles.SIGMA1, rel=2e-3)
        assert rf_lim == pytest.approx(-oracles.RHO_IN, abs=1e-3)

    def test_sign_flip_formula(self):
        # at rho=-0.98 the large-chirp criterion needs very strong chirps
        state = GaussianJSA(
            omega1=2.3e15, omegah=2.5e15, sigma1=1e12, sigmah=1e12, rho=-0.98
        )
        a1 = 600.0 / (4e24)
        ae = -200.0 / (4e24)
        assert lens.lcl_parameter(a1, ae, 1e12, -0.98) > lens.LCL_THRESHOLD
        _, rf = limit_infinite_escort(state, a1, ae)
        assert rf == pytest.approx(0.98, abs=5e-3)

    def test_errors(self, exp_state):
        with pytest.raises(TimeToFrequencyError):
            limit_infinite_escort(exp_state, 1e-25, -1e-25)
        with pytest.raises(SingularConfigurationError):
            limit_infinite_escort(exp_state, 1e-25, 0.0)

    def test_m_minus1_limits(self, exp_state):
        sigma3, rho_f = limit_m_minus1(exp_state, oracles.SIGMAE)
        # plain plug-in of the quoted expressions
        r = 4.0 * oracles.SIGMA1**2 / oracles.SIGMAE**2
        assert sigma3 == pytest.approx(oracles.SIGMA1 / math.sqrt(r + 1.0), rel=1e-14)
        expected_rf = 0.9776 / math.sqrt((1 - 0.9776**2) * r + 1.0)
        assert rho_f == pytest.approx(expected_rf, rel=1e-12)
        assert rho_f == pytest.approx(0.94139, abs=1e-4)
        # deep large-chirp oracle agrees with the limit expressions
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, 200 * oracles.A1,
            oracles.SIGMAE, -100 * oracles.A1,
        )
        assert sigma3 == pytest.approx(ref[0], rel=1e-4)
        assert rho_f == pytest.approx(ref[2], abs=1e-4)

    def test_m_minus1_broad_escort_recovers_input(self, exp_state):
        sigma3, rho_f = limit_m_minus1(exp_state, 1e4 * oracles.SIGMA1)
        assert sigma3 == pytest.approx(oracles.SIGMA1, rel=1e-6)
        assert rho_f == pytest.approx(-oracles.RHO_IN, abs=1e-6)

    def test_m_minus1_simple_plug_in(self):
        state = GaussianJSA(
            omega1=2.3e15, omegah=2.5e15, sigma1=1e12, sigmah=1e12, rho=0.0
        )
        sigma3, _ = limit_m_minus1(state, 2e12)
        assert sigma3 == pytest.approx(1e12 / math.sqrt(2.0), rel=1e-12)

    def test_m_minus1_errors(self, exp_state):
        with pytest.raises(ValueError):
            limit_m_minus1(exp_state, 0.0)


class TestTunability:
    def test_ideal(self, exp_state, exp_lens):
        s, h = tunability(exp_lens, exp_state, lens.IDEAL)
        assert units.slope_rad_to_thz_per_ps(s) == pytest.approx(0.229, abs=1e-3)
        assert h == 0.0

    def test_filter_limit(self, exp_state, exp_lens):
        s, h = tunability(exp_lens, exp_state, lens.FILTER_LIMIT)
        assert units.slope_rad_to_thz_per_ps(s) == pytest.approx(0.114, abs=1e-3)
        expected_h = oracles.RHO_IN * oracles.SIGMAH / (2 * oracles.A1 * oracles.SIGMA1)
        assert h == pytest.approx(expected_h, rel=1e-12)

    def test_phasematch_limit(self, exp_state, exp_lens):
        s, h = tunability(exp_lens, exp_state, lens.PHASEMATCH_LIMIT)
        assert s == 0.0
        assert units.slope_rad_to_thz_per_ps(h) == pytest.approx(-0.247, abs=1e-3)

    def test_unknown_regime(self, exp_state, exp_lens):
        with pytest.raises(ValueError):
            tunability(exp_lens, exp_state, "nonsense")

    def test_zero_chirp(self, exp_state, exp_escort):
        cfg = LensConfig(signal_chirp=0.0, escort=exp_escort)
        with pytest.raises(SingularConfigurationError):
            tunability(cfg, exp_state, lens.IDEAL)


class TestPredictOutput:
    def test_fields(self, exp_state, exp_lens):
        pred = predict_output(exp_lens, exp_state)
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1, oracles.SIGMAE, oracles.AE
        )
        assert pred.sigma3 == pytest.approx(ref[0], rel=1e-10)
        assert pred.sigmah_f == pytest.approx(ref[1], rel=1e-10)
        assert pred.rho_f == pytest.approx(ref[2], abs=1e-10)
        assert pred.omega3_center == pytest.approx(exp_state.omega1 + oracles.OMEGAE, rel=1e-12)
        assert pred.omegah_center == pytest.approx(exp_state.omegah, rel=1e-12)
        assert pred.lcl_parameter == pytest.approx(2.26, abs=0.02)
        assert "escort_aperture_limited" in pred.flags
        assert "lcl_satisfied" not in pred.flags

    def test_delay_shifts_center(self, exp_state, exp_lens):
        tau = 1.5e-12
        pred0 = predict_output(exp_lens, exp_state)
        pred = predict_output(exp_lens, replace(exp_state, delay=tau))
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1, oracles.SIGMAE, oracles.AE
        )
        assert pred.omega3_center - pred0.omega3_center == pytest.approx(ref[3] * tau, rel=1e-9)
        assert pred.omegah_center - pred0.omegah_center == pytest.approx(ref[4] * tau, rel=1e-9)

    def test_lcl_flag_set_when_satisfied(self, exp_state, exp_escort):
        big = EscortPulse(center=oracles.OMEGAE, sigma=oracles.SIGMAE, chirp=10 * oracles.AE)
        cfg = LensConfig(signal_chirp=10 * oracles.A1, escort=big)
        pred = predict_output(cfg, exp_state)
        assert "lcl_satisfied" in pred.flags

    @pytest.mark.parametrize("name, limited", [("experimental.cfg", True), ("ideal.cfg", False)])
    def test_escort_aperture_limited_flag(self, name, limited):
        # set when the chirped escort is shorter than the chirped signal;
        # the ideal lens's broad, chirped escort outlasts the signal
        cfg = parse_config(resources.files("timelens") / "configs" / name)
        pred = predict_output(cfg.lens, cfg.state)
        assert ("escort_aperture_limited" in pred.flags) == limited

    @pytest.mark.parametrize(
        "name, limited", [("longcrystal.cfg", True), ("experimental.cfg", False)]
    )
    def test_phasematch_limited_flag(self, name, limited):
        cfg = parse_config(resources.files("timelens") / "configs" / name)
        pred = predict_output(cfg.lens, cfg.state)
        assert ("phasematch_limited" in pred.flags) == limited
