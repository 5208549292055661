import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from timelens import (
    ApertureError,
    CoverageError,
    EscortPulse,
    GaussianJSA,
    Grid1D,
    GridField2D,
    GridIntensity2D,
    LensConfig,
    PhasematchingModel,
    compute_stats,
    delay_sweep,
    grids_for_state,
    intensity_moments,
    jsa_amplitude,
    output_correlation,
    output_sigma3,
    predict_output,
    sample_jsa,
    schmidt_number,
    sfg_convolve,
    to_time_domain,
)
from timelens.grid import (
    NormalizationError,
    ResamplingRequiredError,
    grid_bytes,
    prepare_sweep,
    row_blocks,
    weighted_moments,
)
from timelens import analysis, cli, grid, units
from timelens.config import parse_config
from timelens.lens import gaussian_output

import oracles
from test_cli import FAST_SIM


def planned_output(cfg, state, **grid):
    """sfg_convolve at zero delay on prepare_sweep's grids and the FFT path."""
    field, out_grid = prepare_sweep(cfg, state, [0.0], **grid)
    return sfg_convolve(field, cfg.escort, cfg.phasematching, out_grid=out_grid, method="fft")


def kept_fields(count):
    """A delay_sweep panel that keeps the output intensities of the first count delays, and that list."""
    fields = []

    def panel(index, tau, intensity, moments):
        if index < count:
            fields.append(intensity)

    return panel, fields


def mild_state(**kw):
    base = dict(omega1=2.32e15, omegah=2.54e15, sigma1=1.1e12, sigmah=0.9e12, rho=-0.7)
    base.update(kw)
    return GaussianJSA(**base)


class TestGrid1D:
    def test_points_and_center(self):
        g = Grid1D.centered(10.0, 4.0, 17)
        assert g.points[0] == pytest.approx(6.0)
        assert g.points[-1] == pytest.approx(14.0)
        assert g.center == pytest.approx(10.0)
        assert g.stop == pytest.approx(14.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, -1.0, 64)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            Grid1D.centered(0.0, -1.0, 64)


class TestSampleJSA:
    def test_norm_unity_riemann(self):
        state = mild_state()
        # the analytic normalization: the Riemann sum approaches one on a fine grid
        g1, gh = grids_for_state(state, n=512)
        values = jsa_amplitude(state, g1.points[:, None], gh.points[None, :])
        assert np.sum(np.abs(values) ** 2) * g1.step * gh.step == pytest.approx(1.0, abs=1e-6)

    def test_normalized_exact(self):
        state = mild_state()
        field = sample_jsa(state, *grids_for_state(state, n=256))
        assert field.norm() == pytest.approx(1.0, abs=1e-12)

    def test_separable_rank_one(self):
        state = mild_state(rho=0.0)
        field = sample_jsa(state, *grids_for_state(state, n=128))
        s = np.linalg.svd(field.values, compute_uv=False)
        assert s[1] / s[0] < 1e-12

    def test_peak_location(self):
        state = mild_state()
        g1, gh = grids_for_state(state, n=129, nh=127)
        field = sample_jsa(state, g1, gh)
        i, j = np.unravel_index(np.argmax(field.intensity()), field.values.shape)
        assert abs(g1.points[i] - state.omega1) <= g1.step / 2
        assert abs(gh.points[j] - state.omegah) <= gh.step / 2

    def test_coverage_error(self):
        state = mild_state()
        narrow = Grid1D.centered(state.omega1, 2.0 * state.sigma1, 64)
        _, gh = grids_for_state(state, n=64)
        with pytest.raises(CoverageError):
            sample_jsa(state, narrow, gh)

    def test_values_read_only(self):
        state = mild_state()
        field = sample_jsa(state, *grids_for_state(state, n=64))
        with pytest.raises(ValueError):
            field.values[0, 0] = 0.0

    def test_callers_array_stays_writeable(self):
        axis = Grid1D(start=1.0, step=1.0, n=16)
        values = np.ones((16, 16), dtype=complex)
        field = GridField2D(axis, axis, values)
        assert values.flags.writeable
        assert not field.values.flags.writeable
        assert np.shares_memory(values, field.values)


class TestComputeStats:
    def test_moments_match_parameters(self):
        state = mild_state(rho=0.5)
        st = compute_stats(sample_jsa(state, *grids_for_state(state, n=512)))
        assert st.mean1 == pytest.approx(state.omega1, rel=1e-12)
        assert st.sigma1 == pytest.approx(state.sigma1, rel=1e-6)
        assert st.sigmah == pytest.approx(state.sigmah, rel=1e-6)
        assert st.rho == pytest.approx(0.5, abs=1e-6)
        assert st.schmidt_k == pytest.approx(schmidt_number(0.5), rel=5e-3)

    def test_strong_anticorrelation(self):
        state = mild_state(rho=-0.9776, sigma1=oracles.SIGMA1, sigmah=oracles.SIGMAH)
        st = compute_stats(sample_jsa(state, *grids_for_state(state, n=512)))
        assert st.rho == pytest.approx(-0.9776, abs=1e-3)
        assert st.schmidt_k == pytest.approx(4.75, abs=0.05)

    def test_rank_one_k(self):
        state = mild_state(rho=0.0)
        st = compute_stats(sample_jsa(state, *grids_for_state(state, n=128)))
        assert st.schmidt_k == pytest.approx(1.0, abs=1e-6)

    def test_requires_normalization(self):
        state = mild_state()
        field = sample_jsa(state, *grids_for_state(state, n=64))
        bad = type(field)(field.axis1, field.axis_h, field.values * 2.0)
        with pytest.raises(NormalizationError):
            compute_stats(bad)
        with pytest.raises(NormalizationError):
            intensity_moments(bad)

    @pytest.mark.parametrize("n1, nh", [(96, 64), (64, 96), (80, 80)])
    def test_gram_schmidt_number_matches_svd(self, n1, nh):
        # tall, wide and square amplitude matrices take both Gram sides
        state = mild_state(rho=-0.8, chirp=2e-25)
        field = sample_jsa(state, *grids_for_state(state, n=n1, nh=nh))
        expected = oracles.svd_schmidt_number(field.values)
        assert expected > 1.5
        assert compute_stats(field).schmidt_k == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["chirped", "plain", "wide"])
    def test_floored_tiled_gram_matches_single_gram(self, exp_state, exp_lens, kind):
        # the experimental input's tails reach the subnormal range, and
        # compute_stats zeroes the Gram factors' parts there; K must not move
        if kind == "wide":
            field = sample_jsa(exp_state, *grids_for_state(exp_state, n=256, nh=512))
        else:
            field, _ = prepare_sweep(exp_lens, exp_state, [0.0], n=512, nh=512)
            if kind == "plain":
                field = sample_jsa(exp_state, field.axis1, field.axis_h)
        a = field.values
        assert np.any((0.0 < np.abs(a)) & (np.abs(a) < np.finfo(float).tiny))
        expected = oracles.gram_schmidt_number(a)
        assert compute_stats(field).schmidt_k == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_schmidt_number_holds_no_full_size_copy(self, exp_state):
        # a conjugate copy of the input and a full Gram took 8 MiB on 512 x 512
        field = sample_jsa(exp_state, *grids_for_state(exp_state, n=512))
        tracemalloc.start()
        try:
            compute_stats(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2 * 16 * 512**2

    def test_moments_bits_match_compute_stats(self):
        state = mild_state(rho=-0.8, chirp=2e-25)
        field = sample_jsa(state, *grids_for_state(state, n=256, nh=96))
        st = compute_stats(field)
        mo = intensity_moments(field)
        for name in ("mean1", "meanh", "sigma1", "sigmah", "rho", "norm"):
            assert getattr(mo, name) == getattr(st, name), name


class TestSfgConvolve:
    def test_unchirped_gaussian_identity(self):
        state = mild_state(rho=0.0)
        escort = EscortPulse(center=2.43e15, sigma=1.3e12)
        out, weight = planned_output(LensConfig(signal_chirp=0.0, escort=escort), state, n=512)
        st = compute_stats(out)
        # 1e-4 allows the second-moment bias of the 6 sigma truncation
        assert st.sigma1 == pytest.approx(math.hypot(state.sigma1, escort.sigma), rel=1e-4)
        assert st.mean1 == pytest.approx(state.omega1 + escort.center, rel=1e-12)
        assert weight > 0

    def test_cross_engine_experimental(self, exp_state, exp_lens):
        out, _ = planned_output(exp_lens, exp_state, n=512)
        st = compute_stats(out)
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1,
            oracles.SIGMAE, oracles.AE,
        )
        assert st.sigma1 == pytest.approx(ref[0], rel=1e-4)
        assert st.rho == pytest.approx(ref[2], abs=1e-4)
        assert st.rho > 0.85  # correlation reversal with the measured escort

    def test_filter_regime_narrow_escort(self):
        # the strongly chirped signal is far longer in time than the
        # spectrally narrow escort, which then gates it temporally: the
        # output collapses to the escort's instantaneous-frequency window
        sigma1 = 1.0e12
        a1 = 100.0 / (4 * sigma1**2)
        state = mild_state(sigma1=sigma1, rho=-0.9)
        escort = EscortPulse(center=2.43e15, sigma=sigma1 / 20.0, chirp=-50.0 / (4 * sigma1**2))
        out, _ = planned_output(LensConfig(signal_chirp=a1, escort=escort), state, nh=128)
        st = compute_stats(out)
        ref = oracles.output_moments(
            sigma1, state.sigmah, state.rho, a1, escort.sigma, escort.chirp
        )
        assert st.sigma1 == pytest.approx(ref[0], rel=1e-3)
        assert st.rho == pytest.approx(ref[2], abs=1e-3)
        # strongly narrowed relative to the open-aperture case
        assert st.sigma1 < 0.25 * sigma1

    def test_filter_regime_tunability(self):
        # in the same gating regime the center slopes approach the
        # temporal-filter predictions (half the ideal slope, herald
        # dragged through the input correlations)
        sigma1 = 1.0e12
        a1 = 100.0 / (4 * sigma1**2)
        state = mild_state(sigma1=sigma1, rho=-0.9)
        escort = EscortPulse(center=2.43e15, sigma=sigma1 / 20.0, chirp=-a1 / 2)
        cfg = LensConfig(signal_chirp=a1, escort=escort)
        sw = delay_sweep(cfg, state, np.linspace(-2e-12, 2e-12, 3), nh=128)
        ref = oracles.output_moments(
            sigma1, state.sigmah, state.rho, a1, escort.sigma, escort.chirp
        )
        assert sw.signal_slope == pytest.approx(ref[3], rel=1e-3)
        assert sw.herald_slope == pytest.approx(ref[4], rel=1e-3)
        assert sw.signal_slope == pytest.approx(1.0 / (2.0 * a1), rel=0.05)
        assert sw.herald_slope == pytest.approx(
            state.rho * state.sigmah / (2.0 * a1 * sigma1), rel=0.05
        )

    def test_direct_and_fft_agree(self):
        state = mild_state(chirp=1.5 / (4 * (1.1e12) ** 2))
        escort = EscortPulse(center=2.43e15, sigma=1.2e12, chirp=-1e-25)
        g1, gh = grids_for_state(state, n=256)
        field = sample_jsa(state, g1, gh)
        out_grid = Grid1D(
            start=state.omega1 + escort.center - g1.step * 511 / 2, step=g1.step, n=512
        )
        a, wa = sfg_convolve(field, escort, tau=0.4e-12, out_grid=out_grid, method="direct")
        b, wb = sfg_convolve(field, escort, tau=0.4e-12, out_grid=out_grid, method="fft")
        assert np.max(np.abs(a.values - b.values)) / np.max(np.abs(a.values)) < 1e-9
        assert wa == pytest.approx(wb, rel=1e-9)

    @pytest.mark.parametrize(
        "n_in, n_out, padded",
        [
            (64, 70, True),  # output longer than input: 133 -> 135
            (96, 64, True),  # output shorter than input: 159 -> 160
            (64, 37, False),  # 100 is already fast, and so is 99
        ],
    )
    def test_fft_exact_length_does_not_wrap(self, n_in, n_out, padded):
        # a wrap reaches the kept rows only at the last one, through the
        # two ends of the kernel; moving the output grid half a step off
        # center makes those ends differ, so a circular transform one row
        # too short moves that row by 2e-7 to 9e-6 of the peak here
        assert (scipy.fft.next_fast_len(n_in + n_out - 1) > n_in + n_out - 1) == padded
        sigma1 = 1.1e12
        chirp = 1.0 / sigma1**2
        state = mild_state(sigma1=sigma1, chirp=chirp)
        g1 = Grid1D.centered(state.omega1, 4.2 * sigma1, n_in)
        gh = Grid1D.centered(state.omegah, 6.0 * state.sigmah, 32)
        field = sample_jsa(state, g1, gh)
        escort = EscortPulse(center=2.43e15, sigma=1.5 * sigma1, chirp=-chirp)
        out_grid = Grid1D(
            start=state.omega1 + escort.center - g1.step * (n_out - 2) / 2,
            step=g1.step,
            n=n_out,
        )
        a, wa = sfg_convolve(field, escort, tau=0.3e-12, out_grid=out_grid, method="direct")
        b, wb = sfg_convolve(field, escort, tau=0.3e-12, out_grid=out_grid, method="fft")
        assert np.max(np.abs(a.values - b.values)) / np.max(np.abs(a.values)) < 1e-9
        assert wa == pytest.approx(wb, rel=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_in=st.integers(48, 160),
        span_in=st.floats(6.0, 14.0),
        extra_out=st.integers(0, 40),
        offset=st.floats(0.0, 1.0, exclude_max=True),
        sigmae_ratio=st.floats(0.3, 2.5),
        u1=st.floats(-4.0, 4.0),
        ue=st.floats(-4.0, 4.0),
        tau=st.floats(-1e-12, 1e-12),
    )
    def test_direct_and_fft_agree_property(
        self, n_in, span_in, extra_out, offset, sigmae_ratio, u1, ue, tau
    ):
        # both paths evaluate the same discrete sum, so they agree on any
        # input length, output length (shorter or longer than the input)
        # and fractional grid offset
        sigma1 = 1.1e12
        state = mild_state(sigma1=sigma1, chirp=u1 / (4 * sigma1**2))
        g1 = Grid1D.centered(state.omega1, span_in * sigma1, n_in)
        gh = Grid1D.centered(state.omegah, 6.0 * state.sigmah, 24)
        field = sample_jsa(state, g1, gh)
        escort = EscortPulse(
            center=2.43e15, sigma=sigmae_ratio * sigma1, chirp=ue / (4 * sigma1**2)
        )
        half = 7.0 * math.hypot(sigma1, escort.sigma)
        n_out = 2 * math.ceil(half / g1.step) + 1 + extra_out
        out_grid = Grid1D(
            start=state.omega1 + escort.center - half + offset * g1.step, step=g1.step, n=n_out
        )
        a, wa = sfg_convolve(field, escort, tau=tau, out_grid=out_grid, method="direct")
        b, wb = sfg_convolve(field, escort, tau=tau, out_grid=out_grid, method="fft")
        assert np.max(np.abs(a.values - b.values)) / np.max(np.abs(a.values)) < 1e-9
        assert wa == pytest.approx(wb, rel=1e-9)

    @pytest.mark.parametrize("sigma_pm", [math.inf, 3e12])
    def test_fft_row_blocks_match_one_shot_bitwise(self, exp_state, exp_lens, sigma_pm):
        # 200 herald rows cross the edges of the row blocks and end in a
        # partial one; at zero delay no phase is applied, so the blocked
        # transforms give the one-shot route's bits
        pm = PhasematchingModel(sigma=sigma_pm)
        lens_cfg = replace(exp_lens, phasematching=pm)
        field, out_grid = prepare_sweep(lens_cfg, exp_state, [0.0], n=512, nh=200)
        rows = row_blocks(200, scipy.fft.next_fast_len(512 + out_grid.n - 1))[0].stop
        assert rows < 200 and 200 % rows != 0
        out, weight = sfg_convolve(field, exp_lens.escort, pm, out_grid=out_grid, method="fft")
        want, want_weight = oracles.fft_convolve_one_shot(field, exp_lens.escort, pm, out_grid)
        assert np.array_equal(out.values, want)
        assert weight == want_weight

    def test_fft_requires_matching_step(self):
        state = mild_state()
        escort = EscortPulse(center=2.43e15, sigma=1.2e12)
        g1, gh = grids_for_state(state, n=128)
        field = sample_jsa(state, g1, gh)
        mismatched = Grid1D.centered(state.omega1 + escort.center, 6 * 1.7e12, 128)
        with pytest.raises(ResamplingRequiredError):
            sfg_convolve(field, escort, out_grid=mismatched, method="fft")

    def test_output_coverage_error(self):
        state = mild_state()
        escort = EscortPulse(center=2.43e15, sigma=1.2e12)
        field = sample_jsa(state, *grids_for_state(state, n=128))
        clipped = Grid1D.centered(state.omega1 + escort.center, 1.0e12, 64)
        with pytest.raises(CoverageError):
            sfg_convolve(field, escort, out_grid=clipped)

    def test_phasematching_narrows(self, exp_state, exp_lens):
        open_out, w_open = planned_output(exp_lens, exp_state, n=512)
        pm = PhasematchingModel(sigma=2e12)
        tight_out, w_tight = planned_output(replace(exp_lens, phasematching=pm), exp_state, n=512)
        assert compute_stats(tight_out).sigma1 < compute_stats(open_out).sigma1
        assert w_tight < w_open
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1,
            oracles.SIGMAE, oracles.AE, pm_sigma=2e12,
        )
        assert compute_stats(tight_out).sigma1 == pytest.approx(ref[0], rel=1e-4)

    def test_phase_invariance_of_spectrum(self):
        state = mild_state()
        g1, gh = grids_for_state(state, n=256)
        a = compute_stats(sample_jsa(state, g1, gh))
        b = compute_stats(sample_jsa(replace(state, chirp=3e-25, delay=1e-12), g1, gh))
        assert abs(a.mean1 - b.mean1) / state.omega1 < 1e-12
        assert abs(a.sigma1 - b.sigma1) / a.sigma1 < 1e-12
        assert abs(a.rho - b.rho) < 1e-12


class TestCrossEngineRandom:
    def test_random_configs(self):
        rng = np.random.default_rng(2718)
        worst_s = worst_r = 0.0
        for _ in range(25):
            sigma1 = rng.uniform(0.7, 1.5) * 1e12
            sigmah = rng.uniform(0.7, 1.5) * 1e12
            sigmae = rng.uniform(0.3, 2.5) * 1e12
            rho = rng.uniform(-0.95, 0.95)
            while True:
                u1 = rng.uniform(-6, 6)
                ue = rng.uniform(-4, 4)
                if abs(u1 + ue) > 0.2:
                    break
            a1 = u1 / (4 * sigma1**2)
            ae = ue / (4 * sigma1**2)
            state = GaussianJSA(
                omega1=2.32e15, omegah=2.54e15, sigma1=sigma1, sigmah=sigmah, rho=rho
            )
            escort = EscortPulse(center=2.43e15, sigma=sigmae, chirp=ae)
            out, _ = planned_output(LensConfig(signal_chirp=a1, escort=escort), state, n=512)
            st = compute_stats(out)
            ref = oracles.output_moments(sigma1, sigmah, rho, a1, sigmae, ae)
            worst_s = max(worst_s, abs(st.sigma1 - ref[0]) / ref[0])
            worst_r = max(worst_r, abs(st.rho - ref[2]))
        assert worst_s < 1e-3
        assert worst_r < 1e-3


    def test_random_finite_acceptance(self):
        # finite, and sometimes off-nominal, acceptances: the closed forms
        # against the grid's statistics and the centers at two delays
        rng = np.random.default_rng(3141)
        worst = 0.0
        for i in range(20):
            sigma1 = rng.uniform(0.7, 1.5) * 1e12
            sigmah = rng.uniform(0.7, 1.5) * 1e12
            sigmae = rng.uniform(0.5, 2.5) * 1e12
            rho = rng.uniform(-0.95, 0.95)
            a1 = rng.uniform(-4, 4) / (4 * sigma1**2)
            ae = rng.uniform(-3, 3) / (4 * sigma1**2)
            state = GaussianJSA(
                omega1=2.32e15, omegah=2.54e15, sigma1=sigma1, sigmah=sigmah, rho=rho
            )
            escort = EscortPulse(center=2.43e15, sigma=sigmae, chirp=ae)
            sigma_phi = rng.uniform(0.3, 3.0) * 1e12
            center = None
            if i % 2:
                center = state.omega1 + escort.center + rng.uniform(-1.0, 1.0) * sigma_phi
            cfg = LensConfig(
                signal_chirp=a1,
                escort=escort,
                phasematching=PhasematchingModel(sigma=sigma_phi, center=center),
            )
            tau = 0.3e-12
            sw = delay_sweep(cfg, state, [0.0, tau], n=512, nh=128)
            st0 = sw.points[0].moments
            s3 = output_sigma3(cfg, state)
            pred0 = predict_output(cfg, state)
            pred1 = predict_output(cfg, replace(state, delay=tau))
            errors = [
                abs(st0.sigma1 - s3) / s3,
                abs(st0.rho - output_correlation(cfg, state)),
                abs(st0.sigmah - pred0.sigmah_f) / pred0.sigmah_f,
            ]
            for pred, point in zip((pred0, pred1), sw.points):
                errors.append(abs(point.moments.mean1 - pred.omega3_center) / pred.sigma3)
                errors.append(abs(point.moments.meanh - pred.omegah_center) / pred.sigmah_f)
            worst = max(worst, *errors)
        assert worst < 1e-3


class TestTimeDomain:
    def test_transform_limited_width(self):
        state = mild_state(rho=0.0)
        field = sample_jsa(state, *grids_for_state(state, n=256))
        jta = to_time_domain(field)
        st = compute_stats(jta)
        assert st.sigma1 == pytest.approx(1.0 / (2.0 * state.sigma1), rel=1e-2)
        assert st.sigmah == pytest.approx(1.0 / (2.0 * state.sigmah), rel=1e-2)

    def test_parseval(self):
        state = mild_state(chirp=2e-25)
        field = sample_jsa(state, *grids_for_state(state, n=256))
        assert to_time_domain(field).norm() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n1=st.integers(16, 300),
        nh=st.integers(16, 120),
        rho=st.floats(-0.95, 0.95),
        u=st.floats(-8.0, 8.0),
        delay=st.floats(-2e-12, 2e-12),
        span=st.floats(3.0, 8.0),
    )
    def test_parseval_property(self, n1, nh, rho, u, delay, span):
        # the transform is unitary on any grid, resolved or not, so the
        # norm is kept whatever the sampling
        state = mild_state(rho=rho, chirp=u / (4 * 1.1e12**2), delay=delay)
        g1, gh = grids_for_state(state, n=n1, nh=nh, span_sigmas=span)
        field = GridField2D(g1, gh, jsa_amplitude(state, g1.points[:, None], gh.points[None, :]))
        assert to_time_domain(field).norm() == pytest.approx(field.norm(), rel=1e-12)

    def test_chirped_width_matches_formula(self, exp_state, exp_lens):
        from timelens import chirped_temporal_width

        chirped = replace(exp_state, chirp=oracles.A1)
        g1, gh = grids_for_state(chirped, n=2048, nh=256, span_sigmas=8.0)
        jta = to_time_domain(sample_jsa(chirped, g1, gh))
        st = compute_stats(jta)
        assert st.sigma1 == pytest.approx(chirped_temporal_width(chirped), rel=0.02)

    def test_group_delay_sign(self):
        # positive chirp delays blue components: keeping only the upper
        # spectral half must move the mean arrival time late
        sigma1 = 1.1e12
        state = mild_state(rho=0.0, chirp=8.0 / (4 * sigma1**2), sigma1=sigma1)
        g1, gh = grids_for_state(state, n=512, nh=64)
        field = sample_jsa(state, g1, gh)
        mask = (g1.points > state.omega1).astype(float)[:, None]
        masked = field.values * mask
        masked /= math.sqrt(GridField2D(g1, gh, masked).norm())
        upper = GridField2D(g1, gh, masked)
        t = to_time_domain(upper).axis1.points
        marginal_t = to_time_domain(upper).intensity().sum(axis=1)
        mean_t = marginal_t @ t / marginal_t.sum()
        expected_delay = 2.0 * state.chirp * sigma1  # chirp maps detuning to time
        assert mean_t > 0.5 * expected_delay


class TestDelaySweep:
    def test_ideal_regime(self, exp_state):
        escort = EscortPulse(center=oracles.OMEGAE, sigma=1e3 * oracles.SIGMA1, chirp=-oracles.A1 / 2)
        cfg = LensConfig(signal_chirp=oracles.A1, escort=escort)
        taus = np.linspace(-2e-12, 2e-12, 5)
        sw = delay_sweep(cfg, exp_state, taus)
        sig = units.slope_rad_to_thz_per_ps(sw.signal_slope)
        her = units.slope_rad_to_thz_per_ps(sw.herald_slope)
        assert sig == pytest.approx(0.229, rel=0.01)
        assert abs(her) < 0.005
        assert all(not p.aperture_warning for p in sw.points)

    def test_tau_zero_intercept(self, exp_state, exp_lens):
        taus = np.linspace(-1e-12, 1e-12, 5)
        sw = delay_sweep(exp_lens, exp_state, taus, n=512)
        mid = sw.points[2]
        assert mid.tau == 0.0
        assert sw.signal_intercept == pytest.approx(mid.moments.mean1, rel=1e-9)

    def test_slopes_match_oracle(self, exp_state, exp_lens):
        taus = np.linspace(-1e-12, 1e-12, 5)
        sw = delay_sweep(exp_lens, exp_state, taus, n=1024)
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1,
            oracles.SIGMAE, oracles.AE,
        )
        assert sw.signal_slope == pytest.approx(ref[3], rel=1e-3)
        assert sw.herald_slope == pytest.approx(ref[4], rel=1e-3)

    def test_aperture_warning(self, exp_state, exp_lens):
        # far outside the chirped escort duration the conversion weight
        # collapses and the row is flagged
        taus = [0.0, 1e-12, 32e-12]
        sw = delay_sweep(exp_lens, exp_state, taus, n=2048, span_sigmas=8.0)
        assert not sw.points[0].aperture_warning
        assert not sw.points[1].aperture_warning
        assert sw.points[2].aperture_warning

    def test_slopes_from_unflagged_rows_only(self, exp_state, exp_lens):
        # at n = 1024 the far delays' phases are not resolved, so those rows
        # carry garbage centers; their weight is below 1e-3 of the peak,
        # they are flagged, and the lines are fitted through the rest
        taus = np.array([-32e-12, -1e-12, 0.0, 1e-12, 2e-12, 40e-12])
        sw = delay_sweep(exp_lens, exp_state, taus, n=1024, nh=64, span_sigmas=8.0)
        flagged = [p.aperture_warning for p in sw.points]
        assert flagged == [True, False, False, False, False, True]
        assert sw.slope_rows == 4
        valid = ~np.array(flagged)
        centers = np.array([(p.moments.mean1, p.moments.meanh) for p in sw.points])
        sig_slope, sig_icpt = np.polyfit(taus[valid], centers[valid, 0], 1)
        her_slope, _ = np.polyfit(taus[valid], centers[valid, 1], 1)
        assert sw.signal_slope == pytest.approx(sig_slope, rel=1e-12)
        assert sw.signal_intercept == pytest.approx(sig_icpt, rel=1e-15)
        assert sw.herald_slope == pytest.approx(her_slope, rel=1e-12)
        ref = oracles.output_moments(
            oracles.SIGMA1, oracles.SIGMAH, oracles.RHO_IN, oracles.A1,
            oracles.SIGMAE, oracles.AE,
        )
        assert sw.signal_slope == pytest.approx(ref[3], rel=1e-6)
        assert sw.herald_slope == pytest.approx(ref[4], rel=1e-6)

    def test_needs_two_unflagged_rows(self, exp_state, exp_lens):
        with pytest.raises(ApertureError, match="aperture"):
            delay_sweep(exp_lens, exp_state, [-40e-12, 0.0, 40e-12], n=1024, nh=64, span_sigmas=8.0)

    def test_keep_fields(self, exp_state, exp_lens):
        taus = np.linspace(-1e-12, 1e-12, 3)
        calls = []
        delay_sweep(
            exp_lens, exp_state, taus, n=512, nh=64,
            panel=lambda index, tau, field, moments: calls.append((index, tau)),
        )
        assert calls == list(enumerate(taus))
        panel, fields = kept_fields(2)
        sw = delay_sweep(exp_lens, exp_state, taus, n=512, nh=64, panel=panel)
        assert len(fields) == 2
        for point, kept in zip(sw.points, fields):
            # each panel gets its own read-only intensity with unit discrete norm
            assert isinstance(kept, GridIntensity2D) and not kept.values.flags.writeable
            assert float(np.sum(kept.values) * kept.cell) == pytest.approx(1.0, abs=1e-12)
            assert point.moments.norm == pytest.approx(1.0, abs=1e-12)
            mean1, meanh, var1, varh, cov = weighted_moments(
                kept.values, kept.axis1.points, kept.axis_h.points
            )
            got = point.moments
            assert mean1 == pytest.approx(got.mean1, rel=1e-12)
            assert meanh == pytest.approx(got.meanh, rel=1e-12)
            assert math.sqrt(var1) == pytest.approx(got.sigma1, rel=1e-12)
            assert math.sqrt(varh) == pytest.approx(got.sigmah, rel=1e-12)
            assert cov / math.sqrt(var1 * varh) == pytest.approx(got.rho, abs=1e-12)

    def test_rows_and_fields_match_direct_per_delay(self, exp_state, exp_lens):
        # the sweep puts the delay phase on the kernel and the output of one
        # shared transform; the direct path keeps exp(-i w1 tau) on the input
        taus = [-1.0e-12, 0.4e-12, 1.0e-12]
        panel, fields = kept_fields(3)
        sw = delay_sweep(exp_lens, exp_state, taus, n=512, nh=200, panel=panel)
        field, out_grid = prepare_sweep(exp_lens, exp_state, taus, n=512, nh=200)
        for tau, point, got in zip(taus, sw.points, fields):
            want, weight = sfg_convolve(
                field, exp_lens.escort, exp_lens.phasematching, tau, out_grid=out_grid,
                method="direct",
            )
            # the panel's intensity is the direct output's, normalized by the weight
            direct = np.abs(want.values) ** 2 * weight / point.weight
            assert np.max(np.abs(got.values - direct)) / np.max(direct) < 1e-9
            assert point.weight == pytest.approx(weight, rel=1e-9)
            mo = intensity_moments(want)
            assert abs(point.moments.mean1 - mo.mean1) < 1e-9 * mo.sigma1
            assert abs(point.moments.meanh - mo.meanh) < 1e-9 * mo.sigmah
            assert point.moments.sigma1 == pytest.approx(mo.sigma1, rel=1e-9)
            assert point.moments.sigmah == pytest.approx(mo.sigmah, rel=1e-9)
            assert point.moments.rho == pytest.approx(mo.rho, abs=1e-9)

    @pytest.mark.parametrize("sigma_pm", [math.inf, 3e12])
    def test_panel_spectrum_matches_complex_field(self, exp_state, exp_lens, sigma_pm):
        # a panel resampled from the sweep's herald-major intensity reads as
        # one resampled from sfg_convolve's complex output at that delay
        cfg = replace(exp_lens, phasematching=PhasematchingModel(sigma=sigma_pm))
        taus = [-0.5e-12, 0.7e-12]
        panel, kept = kept_fields(2)
        delay_sweep(cfg, exp_state, taus, n=512, nh=96, panel=panel)
        field, out_grid = prepare_sweep(cfg, exp_state, taus, n=512, nh=96)
        for tau, intensity in zip(taus, kept):
            out, _ = sfg_convolve(
                field, cfg.escort, cfg.phasematching, tau, out_grid=out_grid, method="fft"
            )
            for shape in (None, (300, 70)):
                got = analysis.spectrum_from_field(intensity, shape)
                want = analysis.spectrum_from_field(out, shape)
                assert np.array_equal(got.lambda1_nm, want.lambda1_nm)
                assert np.array_equal(got.lambdah_nm, want.lambdah_nm)
                assert np.max(np.abs(got.counts - want.counts)) < 1e-12 * want.counts.max()

    @pytest.mark.parametrize("offset", [-1.0e12, 3.0e12])
    def test_off_nominal_acceptance_intercepts(self, offset):
        # an acceptance centered off the nominal sum frequency moves the
        # intercepts by the core's shifts and leaves the slopes; the output
        # grid widens by the shift, or 3 sigma_phi off would clip it
        cfg = parse_config(resources.files("timelens") / "configs" / "longcrystal.cfg")
        state, lens_cfg = cfg.state, cfg.lens
        taus = np.linspace(*cfg.sweep)
        nominal = state.omega1 + lens_cfg.escort.center
        pm = lens_cfg.phasematching
        shifted = replace(
            lens_cfg, phasematching=PhasematchingModel(sigma=pm.sigma, center=nominal + offset)
        )
        core = gaussian_output(shifted, state)
        assert core.shift3 != 0.0
        sw = delay_sweep(shifted, state, taus)
        assert sw.signal_intercept - nominal == pytest.approx(core.shift3, rel=1e-6)
        assert sw.herald_intercept - state.omegah == pytest.approx(core.shifth, rel=1e-6)
        centered = delay_sweep(lens_cfg, state, taus)
        assert sw.signal_slope == pytest.approx(centered.signal_slope, rel=1e-6)
        assert sw.herald_slope == pytest.approx(centered.herald_slope, rel=1e-6)

    def test_needs_two_points(self, exp_state, exp_lens):
        with pytest.raises(ValueError):
            delay_sweep(exp_lens, exp_state, [0.0])

    def test_prepare_sweep_fft_step_match(self, exp_state, exp_lens):
        field, out_grid = prepare_sweep(exp_lens, exp_state, [0.0, 1e-12], n=512)
        assert out_grid.step == pytest.approx(field.axis1.step, rel=1e-12)

    @pytest.mark.parametrize(
        "name, n_out", [("ideal.cfg", 4737), ("filterlimit.cfg", 512), ("longcrystal.cfg", 835)]
    )
    def test_prepare_sweep_bundled_sizes(self, name, n_out):
        cfg = parse_config(resources.files("timelens") / "configs" / name)
        start, stop, npts = cfg.sweep
        field, out_grid = prepare_sweep(
            cfg.lens,
            cfg.state,
            np.linspace(start, stop, npts),
            n=cfg.grid.n,
            nh=cfg.grid.herald_n,
            n_out=cfg.grid.output_n,
            span_sigmas=cfg.grid.span,
        )
        assert field.values.shape == (4096, 512)
        assert out_grid.n == n_out


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n_rows, row_cells, budget", [(1000, 70, 2**14), (512, 200, 2**16), (4737, 8910, 2**16)]
    )
    def test_covers_every_row_once_in_order(self, n_rows, row_cells, budget):
        blocks = row_blocks(n_rows, row_cells, budget)
        assert [r for b in blocks for r in range(n_rows)[b]] == list(range(n_rows))
        sizes = [len(range(n_rows)[b]) for b in blocks]
        assert set(sizes[:-1]) == {budget // row_cells}
        assert 0 < sizes[-1] < sizes[0]

    def test_row_wider_than_budget_is_a_block_of_its_own(self):
        assert row_blocks(3, 2**16 + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024])
    def test_fewer_rows_than_one_block_give_one_slice(self, n_rows):
        assert row_blocks(n_rows, 64) == [slice(0, n_rows)]


def threaded_grids(cfg, state, taus):
    """prepare_sweep's field and output grid, on a grid whose three block loops reach the gate.

    512 herald samples and as many signal rows as the gate's count of
    sampling blocks; the transforms' rows are longer than the 128 cells
    a sampling row has, so they hold at least as many blocks.
    """
    nh = 512
    n = grid._THREAD_MIN_BLOCKS * (grid._BLOCK_CELLS // nh)
    field, out_grid = prepare_sweep(cfg, state, taus, n=n, nh=nh)
    size = grid._next_fast_len(n + out_grid.n - 1)
    assert len(row_blocks(n, nh)) >= grid._THREAD_MIN_BLOCKS
    assert len(row_blocks(nh, size)) >= grid._THREAD_MIN_BLOCKS
    return field, out_grid


@pytest.fixture
def fast_switching():
    """A 10 us switch interval, so threads interleave between numpy calls as often as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestThreadedBlocks:
    """The FFT path's block loops give the same bytes on any number of threads."""

    TAUS = [-0.5e-12, 0.0, 0.5e-12]

    @pytest.mark.parametrize(
        "part, loops",
        # threaded loops per call: a sweep samples, transforms, then convolves each delay
        [("sample_jsa", 1), ("input_spectrum", 1), ("sfg_convolve", 2), ("delay_sweep", 5)],
    )
    def test_outputs_do_not_depend_on_the_worker_count(
        self, part, loops, exp_state, exp_lens, set_workers, thread_starts, fast_switching
    ):
        field, out_grid = threaded_grids(exp_lens, exp_state, self.TAUS)

        def run():
            if part == "sample_jsa":
                return [sample_jsa(exp_state, field.axis1, field.axis_h).values]
            if part == "input_spectrum":
                return [grid._input_spectrum(field, out_grid.n)]
            if part == "sfg_convolve":
                out, weight = sfg_convolve(
                    field, exp_lens.escort, exp_lens.phasematching, 0.5e-12,
                    out_grid=out_grid, method="fft",
                )
                return [out.values, weight]
            panels = []
            sweep = delay_sweep(
                exp_lens, exp_state, self.TAUS, n=field.axis1.n, nh=field.axis_h.n,
                panel=lambda index, tau, x, moments: panels.extend([x.values.copy(), moments]),
            )
            return [sweep] + panels

        reference = None
        # three threads on two CPUs as well: more threads than cores
        for count in (1, 2, 3):
            set_workers(count)
            thread_starts.clear()
            result = run()
            assert len(thread_starts) == (count - 1) * loops
            if reference is None:
                reference = result
                continue
            assert len(result) == len(reference)
            for got, want in zip(result, reference):
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                else:
                    assert got == want
            del result

    def test_a_failing_block_is_raised_once_every_thread_is_joined(
        self, exp_state, set_workers, thread_starts, monkeypatch
    ):
        set_workers(2)
        nh = 512
        rows = grid._BLOCK_CELLS // nh
        g1, gh = grids_for_state(exp_state, n=grid._THREAD_MIN_BLOCKS * rows, nh=nh)
        failing = g1.points[rows]  # the first signal sample of block 1
        amplitude = grid.jsa_amplitude
        finished = []

        def one_block_fails(state, w1, wh):
            if w1[0, 0] == failing:
                raise RuntimeError("block 1 fails")
            # the other thread is still in its block when block 1 fails
            time.sleep(0.02)
            values = amplitude(state, w1, wh)
            finished.append(time.perf_counter())
            return values

        monkeypatch.setattr(grid, "jsa_amplitude", one_block_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 1 fails"):
            sample_jsa(exp_state, g1, gh)
        raised = time.perf_counter()
        assert len(thread_starts) == 1
        assert threading.active_count() == before
        assert finished and max(finished) < raised
        # no thread took another block once block 1 had failed
        assert len(finished) <= 2

    def test_a_loop_below_the_gate_starts_no_thread(
        self, exp_state, exp_lens, set_workers, thread_starts
    ):
        set_workers(2)
        field, out_grid = prepare_sweep(exp_lens, exp_state, [0.0], n=512, nh=64)
        size = grid._next_fast_len(field.axis1.n + out_grid.n - 1)
        assert len(row_blocks(512, 64)) < grid._THREAD_MIN_BLOCKS
        assert len(row_blocks(64, size)) < grid._THREAD_MIN_BLOCKS
        sample_jsa(exp_state, field.axis1, field.axis_h)
        sfg_convolve(
            field, exp_lens.escort, exp_lens.phasematching, out_grid=out_grid, method="fft"
        )
        delay_sweep(exp_lens, exp_state, [-1e-12, 1e-12], n=512, nh=64)
        assert thread_starts == []


def test_next_fast_len_matches_scipy():
    # the transform length rule: the smallest 11-smooth length, as scipy
    # picks it for complex input
    lengths = range(1, 20001)
    assert [grid._next_fast_len(n) for n in lengths] == [scipy.fft.next_fast_len(n) for n in lengths]


class TestGridBytes:
    """grid_bytes bounds what numpy allocates; pocketfft's own scratch is untraced."""

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bounds_one_simulate_convolution(self, exp_state, exp_lens):
        tau = 0.3e-12
        plans = []

        def simulate():
            # the grid work of cmd_simulate, delay phase included
            field, out_grid = prepare_sweep(exp_lens, exp_state, [tau], n=512, nh=64)
            compute_stats(sample_jsa(exp_state, field.axis1, field.axis_h))
            out, _ = sfg_convolve(
                field, exp_lens.escort, exp_lens.phasematching, tau, out_grid=out_grid,
                method="fft",
            )
            compute_stats(out)
            plans.append((field.axis1.n, field.axis_h.n, out_grid.n))

        peak = self.traced_peak(simulate)
        bound = grid_bytes(*plans[0])
        assert 0.5 * bound < peak <= bound

    @pytest.mark.parametrize(
        "config, grid_args",
        [
            pytest.param("experimental.cfg", [], id="experimental"),
            pytest.param(None, ["--grid", "1024"], id="fast-1024"),
            pytest.param(None, [], id="fast-256"),
        ],
    )
    def test_bounds_a_whole_simulate_run(self, config, grid_args, tmp_path, monkeypatch):
        # all of cmd_simulate --format bin, its two heatmap panels included,
        # on the grids its planner chose; None runs test_cli's FAST_SIM
        if config is None:
            config = tmp_path / "fast.cfg"
            config.write_text(FAST_SIM)
        plans = []
        prepare = cli.prepare_sweep

        def recording(*args, **kwargs):
            field, out_grid = prepare(*args, **kwargs)
            plans.append((field.axis1.n, field.axis_h.n, out_grid.n))
            return field, out_grid

        monkeypatch.setattr(cli, "prepare_sweep", recording)
        argv = ["simulate", "--config", str(config), "--format", "bin", "--out", str(tmp_path)]
        codes = []
        peak = self.traced_peak(lambda: codes.append(cli.main(argv + grid_args)))
        bound = grid_bytes(*plans[0])
        assert codes == [0]
        assert 0.5 * bound < peak <= bound

    def test_sweep_holds_no_complex_output(self, exp_state, exp_lens):
        # a sweep holds the input's transform and one delay's intensity (8
        # bytes per output cell) at a time; a complex n_out x herald_n
        # output beside the transform would reach the bound asserted here
        n, nh, taus = 256, 128, [-0.5e-12, 0.5e-12]
        _, out_grid = prepare_sweep(exp_lens, exp_state, taus, n=n, nh=nh, n_out=4096)
        spectrum = 16 * nh * grid._next_fast_len(n + out_grid.n - 1)
        peak = self.traced_peak(
            lambda: delay_sweep(exp_lens, exp_state, taus, n=n, nh=nh, n_out=4096)
        )
        assert peak < spectrum + 16 * out_grid.n * nh

    def test_bounds_a_threaded_sweep(self, exp_state, exp_lens, set_workers, thread_starts):
        # every block loop at or above the gate, on as many threads as
        # grid_bytes counts workspaces for, each delay drawn as a panel
        set_workers(grid._MAX_WORKERS)
        taus = [-1e-12, 0.0, 1e-12]
        field, out_grid = threaded_grids(exp_lens, exp_state, taus)
        n, nh = field.axis1.n, field.axis_h.n
        del field
        thread_starts.clear()
        svgs = []
        peak = self.traced_peak(
            lambda: delay_sweep(
                exp_lens, exp_state, taus, n=n, nh=nh,
                panel=lambda *args: cli._sweep_panel(svgs, *args),
            )
        )
        bound = grid_bytes(n, nh, out_grid.n)
        assert len(svgs) == len(taus)
        assert len(thread_starts) == (grid._MAX_WORKERS - 1) * (2 + len(taus))
        assert 0.5 * bound < peak <= bound

    @pytest.mark.parametrize(
        "panels, n, nh, n_out",
        [pytest.param(p, 512, 64, 512, id=f"{p}") for p in (0, 1, 3)]
        + [pytest.param(p, 256, 16, 2048, id=f"256x16-to-2048-{p}") for p in (0, 1, 3)],
    )
    def test_bounds_one_sweep(self, exp_state, exp_lens, panels, n, nh, n_out):
        # the CLI's panel callable renders the first panels delays while
        # each output is alive.  On 16 herald rows one row block holds the
        # whole panel, so its block temporaries are not per cell
        taus = [-1e-12, 0.0, 1e-12]
        svgs = []

        def panel(index, tau, field, moments):
            if index < panels:
                cli._sweep_panel(svgs, index, tau, field, moments)

        peak = self.traced_peak(
            lambda: delay_sweep(
                exp_lens, exp_state, taus, n=n, nh=nh, n_out=n_out, panel=panel
            )
        )
        _, out_grid = prepare_sweep(exp_lens, exp_state, taus, n=n, nh=nh, n_out=n_out)
        bound = grid_bytes(n, nh, out_grid.n)
        assert len(svgs) == panels
        assert 0.5 * bound < peak <= bound
