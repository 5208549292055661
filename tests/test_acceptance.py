"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line after its assertions (visible with -s);
a failing criterion fails its test.  The measured operating point is the
bundled experimental configuration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import timelens as tl
from timelens import lens, units
from timelens.analysis import (
    deconvolve_resolution,
    montecarlo_errorbars,
)
from timelens.grid import prepare_sweep
from timelens.states import schmidt_number

import oracles
from test_analysis import RAW_INPUT, RAW_OUTPUT, RES_INPUT, RES_OUTPUT, synth_spectrum


@pytest.fixture(scope="module")
def exp():
    state = tl.GaussianJSA(
        omega1=oracles.OMEGA1,
        omegah=oracles.OMEGAH,
        sigma1=oracles.SIGMA1,
        sigmah=oracles.SIGMAH,
        rho=oracles.RHO_IN,
    )
    escort = tl.EscortPulse(center=oracles.OMEGAE, sigma=oracles.SIGMAE, chirp=oracles.AE)
    return state, tl.LensConfig(signal_chirp=oracles.A1, escort=escort)


@pytest.fixture(scope="module")
def calibration(exp):
    """One-parameter acceptance-width calibration to the measured signal slope."""
    state, cfg = exp
    taus = np.linspace(-2e-12, 2e-12, 5)
    target = 0.14e12 * 2 * math.pi * 1e12  # 0.14 THz/ps in rad/s per s
    pairs = [(t, (oracles.OMEGA1 + oracles.OMEGAE) + target * t) for t in taus]
    start = time.perf_counter()
    cal = tl.calibrate_phasematching(pairs, cfg, state)
    return cal, taus, time.perf_counter() - start


def test_criterion_01_magnification_and_imaging():
    start = time.perf_counter()
    m_spec, m_temp = tl.magnification(oracles.A1, oracles.AE)
    ao = tl.solve_imaging(signal_chirp=oracles.A1, escort_chirp=oracles.AE)
    elapsed = time.perf_counter() - start
    assert m_spec == 1.0 + oracles.A1 / oracles.AE  # algebraically exact
    assert round(m_spec, 4) == -1.0233
    assert m_spec * m_temp == pytest.approx(1.0, rel=1e-15)
    assert ao == pytest.approx(680.2e3 * 1e-30, rel=2e-4)
    assert elapsed < 1e-3
    print(
        f"\nACCEPTANCE 01 PASS - M_spectral={m_spec:.6f}, "
        f"Ao={ao / 1e-30 / 1e3:.1f}e3 fs^2, {elapsed * 1e6:.0f} us"
    )


def test_criterion_02_cross_engine_100_configs():
    rng = np.random.default_rng(20240808)
    start = time.perf_counter()
    worst_sigma = 0.0
    worst_rho = 0.0
    for _ in range(100):
        sigma1 = rng.uniform(0.7, 1.5) * 1e12
        sigmah = rng.uniform(0.7, 1.5) * 1e12
        sigmae = rng.uniform(0.3, 2.5) * 1e12
        rho = rng.uniform(-0.95, 0.95)
        while True:
            u1 = rng.uniform(-6.0, 6.0)
            ue = rng.uniform(-4.0, 4.0)
            if abs(u1 + ue) > 0.2:
                break
        a1 = u1 / (4.0 * sigma1**2)
        ae = ue / (4.0 * sigma1**2)
        state = tl.GaussianJSA(
            omega1=2.32e15, omegah=2.54e15, sigma1=sigma1, sigmah=sigmah, rho=rho
        )
        escort = tl.EscortPulse(center=2.43e15, sigma=sigmae, chirp=ae)
        cfg = tl.LensConfig(signal_chirp=a1, escort=escort)
        field, out_grid = prepare_sweep(cfg, state, [0.0], n=512)
        out, _ = tl.sfg_convolve(field, escort, out_grid=out_grid, method="fft")
        st = tl.compute_stats(out)
        worst_sigma = max(
            worst_sigma, abs(st.sigma1 - tl.output_sigma3(cfg, state)) / st.sigma1
        )
        worst_rho = max(worst_rho, abs(st.rho - tl.output_correlation(cfg, state)))
    elapsed = time.perf_counter() - start
    assert worst_sigma < 1e-3
    assert worst_rho < 1e-3
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 02 PASS - 100 configs at 512^2: width dev {worst_sigma:.2e}, "
        f"correlation dev {worst_rho:.2e}, {elapsed:.1f} s"
    )


def test_criterion_03_correlation_reversal(exp, calibration):
    state, cfg = exp
    assert state.rho == -0.9776  # by construction
    field, out_grid = prepare_sweep(cfg, state, [0.0], n=512)
    out, _ = tl.sfg_convolve(field, cfg.escort, out_grid=out_grid, method="fft")
    rho_grid = tl.compute_stats(out).rho
    assert rho_grid > 0.85

    # broad-escort, large-chirp limit restores the full magnitude
    big_escort = tl.EscortPulse(
        center=oracles.OMEGAE, sigma=1e3 * oracles.SIGMA1, chirp=10 * oracles.AE
    )
    lcl_cfg = tl.LensConfig(signal_chirp=10 * oracles.A1, escort=big_escort)
    rho_lcl = tl.output_correlation(lcl_cfg, state)
    assert rho_lcl == pytest.approx(0.9776, abs=0.002)

    # with the calibrated acceptance the measured value is reproduced
    cal, _, _ = calibration
    cal_cfg = replace(cfg, phasematching=cal.model)
    field_pm, out_grid_pm = prepare_sweep(cal_cfg, state, [0.0], n=512)
    out_pm, _ = tl.sfg_convolve(
        field_pm, cfg.escort, cal.model, out_grid=out_grid_pm, method="fft"
    )
    rho_cal = tl.compute_stats(out_pm).rho
    assert rho_cal == pytest.approx(0.909, abs=0.03)
    print(
        f"\nACCEPTANCE 03 PASS - reversal {state.rho:+.4f} -> {rho_grid:+.4f} (open), "
        f"{rho_lcl:+.4f} (broad-escort LCL), {rho_cal:+.4f} (calibrated; measured +0.909)"
    )


def test_criterion_04_schmidt_identity(exp):
    state, _ = exp
    k_in = schmidt_number(-0.9776)
    k_out = schmidt_number(0.909)
    assert k_in == pytest.approx(4.75, abs=0.01)
    assert abs(k_out - 2.39) < 0.06
    assert k_out == pytest.approx(2.40, abs=0.01)
    worst = 0.0
    for rho in (-0.9776, -0.5, 0.0, 0.7, 0.909):
        probe = replace(state, rho=rho)
        st = tl.compute_stats(tl.sample_jsa(probe, *tl.grids_for_state(probe, n=512)))
        worst = max(worst, abs(st.schmidt_k - schmidt_number(rho)) / schmidt_number(rho))
    assert worst < 0.01
    print(
        f"\nACCEPTANCE 04 PASS - K(-0.9776)={k_in:.3f}, K(0.909)={k_out:.3f}, "
        f"grid SVD dev {worst:.2e}"
    )


def test_criterion_05_deconvolution_pipeline():
    start = time.perf_counter()
    dec_in = deconvolve_resolution(RAW_INPUT, RES_INPUT)
    dec_out = deconvolve_resolution(RAW_OUTPUT, RES_OUTPUT)
    elapsed = time.perf_counter() - start
    fw1_in, fwh_in = (units.sigma_to_fwhm(s) for s in (dec_in.sigma1_nm, dec_in.sigmah_nm))
    fw1_out, fwh_out = (units.sigma_to_fwhm(s) for s in (dec_out.sigma1_nm, dec_out.sigmah_nm))
    assert fw1_in == pytest.approx(4.034, abs=0.006)
    assert fwh_in == pytest.approx(3.716, abs=0.006)
    assert fw1_out == pytest.approx(0.60, abs=0.01)
    assert fw1_out == pytest.approx(0.596, abs=1e-3)
    assert fwh_out == pytest.approx(2.47, abs=0.04)
    assert fwh_out == pytest.approx(2.476, abs=1e-3)
    assert dec_in.rho == pytest.approx(-0.9776, abs=0.0009)
    assert dec_out.rho == pytest.approx(0.909, abs=0.005)
    assert dec_out.rho == pytest.approx(0.908, abs=1e-3)
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 05 PASS - 4.047->{fw1_in:.3f}, 3.733->{fwh_in:.3f}, "
        f"0.621->{fw1_out:.3f}, 2.50->{fwh_out:.3f} nm; "
        f"rho {dec_in.rho:+.4f} / {dec_out.rho:+.4f}; {elapsed * 1e3:.0f} ms"
    )


def test_criterion_06_joint_energy_uncertainty():
    s1 = units.fwhm_to_sigma(units.bandwidth_nm_to_thz(4.047, 811.006))
    sh = units.fwhm_to_sigma(units.bandwidth_nm_to_thz(3.733, 740.194))
    jeu_in = tl.joint_energy_uncertainty(s1, sh, -0.97024)
    s1o = units.fwhm_to_sigma(units.bandwidth_nm_to_thz(0.621, 396.113))
    sho = units.fwhm_to_sigma(units.bandwidth_nm_to_thz(2.50, 740.126))
    jeu_out = tl.joint_energy_uncertainty(s1o, sho, 0.863)
    assert jeu_in == pytest.approx(0.334, abs=0.002)
    assert jeu_out == pytest.approx(0.468, abs=0.002)
    print(
        f"\nACCEPTANCE 06 PASS - joint energy uncertainty {jeu_in:.4f} THz (input), "
        f"{jeu_out:.4f} THz (output)"
    )


def test_criterion_07_tunability(exp, calibration):
    state, cfg = exp
    start = time.perf_counter()

    # (a) ideal regime
    ideal_escort = tl.EscortPulse(
        center=oracles.OMEGAE, sigma=1e3 * oracles.SIGMA1, chirp=-oracles.A1 / 2
    )
    ideal_cfg = tl.LensConfig(signal_chirp=oracles.A1, escort=ideal_escort)
    taus = np.linspace(-2e-12, 2e-12, 5)
    sw = tl.delay_sweep(ideal_cfg, state, taus)
    sig_thzps = units.slope_rad_to_thz_per_ps(sw.signal_slope)
    her_thzps = units.slope_rad_to_thz_per_ps(sw.herald_slope)
    assert sig_thzps == pytest.approx(0.229, rel=0.01)
    assert abs(her_thzps) < 0.005
    lam3 = units.angular_to_wavelength(sw.signal_intercept) * 1e9
    nmps = units.slope_thz_to_nm_per_ps(sig_thzps, lam3)
    assert nmps == pytest.approx(0.121, abs=0.002)

    # (b) calibrated acceptance predicts the herald slope
    cal, cal_taus, cal_time = calibration
    assert cal.achieved_slope == pytest.approx(cal.target_slope, rel=1e-3)
    cal_cfg = tl.LensConfig(
        signal_chirp=oracles.A1, escort=cfg.escort, phasematching=cal.model
    )
    sw_cal = tl.delay_sweep(cal_cfg, state, cal_taus)
    herald_pred = units.slope_rad_to_thz_per_ps(sw_cal.herald_slope)
    signal_cal = units.slope_rad_to_thz_per_ps(sw_cal.signal_slope)
    assert signal_cal == pytest.approx(0.14, abs=0.002)
    assert herald_pred == pytest.approx(-0.099, abs=0.010)
    # the measured values fall inside the same tolerance band
    assert abs(0.14 - signal_cal) <= 0.010
    assert abs(-0.097 - herald_pred) <= 0.010
    elapsed = time.perf_counter() - start + cal_time
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 07 PASS - ideal {sig_thzps:.4f} THz/ps = {nmps:.4f} nm/ps, "
        f"herald {her_thzps:+.5f}; calibrated sigma_phi={cal.model.sigma:.3e} rad/s "
        f"-> signal {signal_cal:.4f}, herald {herald_pred:+.4f} THz/ps; {elapsed:.0f} s"
    )


def test_criterion_08_chirped_width(exp):
    state, cfg = exp
    chirped = replace(state, chirp=oracles.A1)
    formula = tl.chirped_temporal_width(chirped)
    assert formula == pytest.approx(6.85e-12, rel=0.002)
    g1, gh = tl.grids_for_state(chirped, n=2048, nh=256, span_sigmas=8.0)
    jta = tl.to_time_domain(tl.sample_jsa(chirped, g1, gh))
    numeric = tl.compute_stats(jta).sigma1
    assert numeric == pytest.approx(formula, rel=0.02)
    print(
        f"\nACCEPTANCE 08 PASS - chirped width formula {formula * 1e12:.3f} ps, "
        f"time-domain grid {numeric * 1e12:.3f} ps"
    )


def test_criterion_09_g2():
    rates = tl.CountRates(
        singles_signal=2.5e6, singles_herald=3.2e6, coincidences=4.15e5, rep_rate=8e7
    )
    g2 = tl.g2_cross_correlation(rates)
    assert g2 == pytest.approx(4.15, rel=1e-12)  # formula-level exactness
    assert 4.0 < g2 < 4.3  # consistent with the measured 4.190 given rounding
    # exact unit behavior
    assert tl.g2_cross_correlation(
        tl.CountRates(1e6, 1e6, 1e6 * 1e6 / 8e7, 8e7)
    ) == pytest.approx(1.0, rel=1e-12)
    print(f"\nACCEPTANCE 09 PASS - g2 = {g2:.4f} (measured 4.190, band 4.0-4.3)")


def test_criterion_10_fit_montecarlo():
    # noiseless identity
    truth = RAW_INPUT
    spec = synth_spectrum(truth)
    fit = tl.fit_gaussian_2d(spec)
    worst = 0.0
    for name in ("amplitude", "center1_nm", "centerh_nm", "sigma1_nm", "sigmah_nm", "rho"):
        t, f = getattr(truth, name), getattr(fit, name)
        worst = max(worst, abs(f - t) / abs(t))
    assert worst < 1e-6

    # Poissonian error bars scale as one over root total counts
    sigmas = []
    scales = [1e2, 1e3, 1e4, 1e5]
    for peak in scales:
        params = replace(truth, amplitude=peak, offset=0.02 * peak)
        mc = montecarlo_errorbars(synth_spectrum(params, n1=28, nh=26), n_trials=120, seed=17)
        sigmas.append(mc.errors["raw_rho"])
    slope = np.polyfit(np.log(scales), np.log(sigmas), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)

    # seeded determinism is exact
    a = montecarlo_errorbars(synth_spectrum(truth, n1=24, nh=22), RES_INPUT, n_trials=50, seed=23)
    b = montecarlo_errorbars(synth_spectrum(truth, n1=24, nh=22), RES_INPUT, n_trials=50, seed=23)
    assert a.errors == b.errors
    print(
        f"\nACCEPTANCE 10 PASS - identity dev {worst:.1e}, error-bar scaling "
        f"exponent {slope:.3f}, seeded Monte Carlo byte-identical"
    )
