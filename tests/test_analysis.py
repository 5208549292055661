import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from timelens import (
    CalibrationError,
    CountRates,
    EscortPulse,
    LensConfig,
    PhasematchingModel,
    ResolutionModel,
    Spectrum2D,
    calibrate_phasematching,
    deconvolve_resolution,
    delay_sweep,
    fit_gaussian_2d,
    g2_cross_correlation,
    grids_for_state,
    montecarlo_errorbars,
    sample_jsa,
)
from timelens import analysis, grid, lens
from timelens.analysis import (
    DegenerateDataError,
    FitConvergenceError,
    GaussianFitParams,
    UnphysicalDeconvolutionError,
    derived_quantities,
    gaussian2d_model,
    read_spectrum_csv,
    spectrum_from_field,
    write_spectrum_csv,
)
from timelens import units

import oracles

RAW_INPUT = GaussianFitParams(
    amplitude=1000.0,
    center1_nm=811.006,
    centerh_nm=740.194,
    sigma1_nm=units.fwhm_to_sigma(4.047),
    sigmah_nm=units.fwhm_to_sigma(3.733),
    rho=-0.97024,
    offset=5.0,
)

RAW_OUTPUT = GaussianFitParams(
    amplitude=800.0,
    center1_nm=396.113,
    centerh_nm=740.126,
    sigma1_nm=units.fwhm_to_sigma(0.621),
    sigmah_nm=units.fwhm_to_sigma(2.50),
    rho=0.863,
    offset=3.0,
)

RES_INPUT = ResolutionModel(r1_nm=0.136, rh_nm=0.148)
RES_OUTPUT = ResolutionModel(r1_nm=0.0741, rh_nm=0.148)


def synth_spectrum(params, n1=48, nh=44, span=3.2):
    s1, sh = params.sigma1_nm, params.sigmah_nm
    lam1 = np.linspace(params.center1_nm - span * s1 * 2.5, params.center1_nm + span * s1 * 2.5, n1)
    lamh = np.linspace(params.centerh_nm - span * sh * 2.5, params.centerh_nm + span * sh * 2.5, nh)
    return Spectrum2D(lam1, lamh, gaussian2d_model(params, lam1, lamh))


class TestSpectrum2D:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum2D(np.array([1.0, 2.0]), np.array([1.0, 2.0]), -np.ones((2, 2)))
        with pytest.raises(ValueError):
            Spectrum2D(np.array([2.0, 1.0]), np.array([1.0, 2.0]), np.ones((2, 2)))
        with pytest.raises(ValueError):
            Spectrum2D(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0]), np.ones((3, 2)))
        with pytest.raises(ValueError):
            Spectrum2D(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_or_axes_rejected(self, bad):
        lam = np.array([1.0, 2.0, 3.0])
        counts = np.ones((3, 3))
        counts[1, 2] = bad
        with pytest.raises(ValueError, match="counts must be finite"):
            Spectrum2D(lam, lam, counts)
        axis = lam.copy()
        axis[2] = bad
        with pytest.raises(ValueError, match="signal axis must be finite"):
            Spectrum2D(axis, lam, np.ones((3, 3)))
        with pytest.raises(ValueError, match="herald axis must be finite"):
            Spectrum2D(lam, axis, np.ones((3, 3)))

    def test_csv_round_trip(self, tmp_path):
        spec = synth_spectrum(RAW_INPUT, n1=12, nh=10)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        assert np.allclose(back.lambda1_nm, spec.lambda1_nm)
        assert np.allclose(back.lambdah_nm, spec.lambdah_nm)
        assert np.allclose(back.counts, spec.counts, rtol=1e-6)

    def test_csv_parse_errors(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        with pytest.raises(ValueError):
            read_spectrum_csv(empty)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("corner,740.0,740.1\n811.0,1,2\n811.1,3\n")
        with pytest.raises(ValueError, match="row 3"):
            read_spectrum_csv(ragged)
        bad = tmp_path / "bad.csv"
        bad.write_text("corner,740.0,740.1\n811.0,1,x\n")
        with pytest.raises(ValueError, match="row 2"):
            read_spectrum_csv(bad)


class TestFitGaussian2D:
    def test_noiseless_identity_table_values(self):
        spec = synth_spectrum(RAW_INPUT)
        fit = fit_gaussian_2d(spec)
        for name in ("amplitude", "center1_nm", "centerh_nm", "sigma1_nm", "sigmah_nm", "rho", "offset"):
            assert getattr(fit, name) == pytest.approx(
                getattr(RAW_INPUT, name), rel=1e-6, abs=1e-9
            ), name

    def test_noiseless_identity_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            span1, spanh = 20.0, 18.0
            truth = GaussianFitParams(
                amplitude=rng.uniform(100, 5000),
                center1_nm=810.0 + rng.uniform(-2, 2),
                centerh_nm=740.0 + rng.uniform(-2, 2),
                sigma1_nm=units.fwhm_to_sigma(rng.uniform(0.1, 0.5) * span1),
                sigmah_nm=units.fwhm_to_sigma(rng.uniform(0.1, 0.5) * spanh),
                rho=rng.choice([-1, 1]) * rng.uniform(0.1, 0.99),
                offset=rng.uniform(0, 50),
            )
            lam1 = np.linspace(810.0 - span1 / 2, 810.0 + span1 / 2, 40)
            lamh = np.linspace(740.0 - spanh / 2, 740.0 + spanh / 2, 36)
            spec = Spectrum2D(lam1, lamh, gaussian2d_model(truth, lam1, lamh))
            fit = fit_gaussian_2d(spec)
            for name in ("amplitude", "center1_nm", "centerh_nm", "sigma1_nm", "sigmah_nm", "rho"):
                assert getattr(fit, name) == pytest.approx(
                    getattr(truth, name), rel=1e-6
                ), name

    def test_exact_stationary_point_small_grid(self):
        # a biased analytic gradient would stall the optimizer short of
        # the true optimum; on noiseless data the fit must land on the
        # generating parameters to well beyond the acceptance tolerance
        spec = synth_spectrum(RAW_INPUT, n1=20, nh=18)
        fit = fit_gaussian_2d(spec)
        for name in ("amplitude", "center1_nm", "centerh_nm", "sigma1_nm", "sigmah_nm", "rho"):
            assert getattr(fit, name) == pytest.approx(
                getattr(RAW_INPUT, name), rel=1e-7
            ), name

    def test_residuals_and_jacobian_match_oracle(self):
        # one stack of two parameter sets, against the precision-matrix
        # Jacobian of the oracle; widths enter the helper as sigma
        lam1 = np.linspace(800.0, 822.0, 30)
        lamh = np.linspace(730.0, 750.0, 26)
        sets = [
            RAW_INPUT,
            replace(RAW_INPUT, rho=0.4, center1_nm=806.0, sigmah_nm=units.fwhm_to_sigma(6.1)),
        ]
        counts = np.random.default_rng(3).poisson(50.0, (2, 30, 26)).astype(float)
        r, jac_t = analysis._gaussian_residuals(
            np.array([astuple(p) for p in sets]), lam1, lamh, counts
        )
        for i, params in enumerate(sets):
            want_r = (gaussian2d_model(params, lam1, lamh) - counts[i]).ravel()
            np.testing.assert_allclose(r[i], want_r, rtol=0, atol=1e-12 * params.amplitude)
            want = oracles.gaussian_jacobian(params, lam1, lamh)
            got = jac_t[i].T * np.array([1, 1, 1, 1 / oracles.FWHM, 1 / oracles.FWHM, 1, 1])
            for k in range(7):
                np.testing.assert_allclose(
                    got[:, k], want[:, k], rtol=0, atol=1e-10 * np.abs(want[:, k]).max()
                )

    def test_moment_start_converges_at_high_counts(self):
        # the test_matches_linearized_oracle histogram: the shot noise of
        # its 100-count background once widened the moment start enough
        # that 3 of these 200 fits ran out of evaluations
        rng = np.random.default_rng(17)
        model = synth_spectrum(replace(RAW_INPUT, amplitude=2e4, offset=100.0), n1=32, nh=30)
        spec = Spectrum2D(model.lambda1_nm, model.lambdah_nm, rng.poisson(model.counts))
        for child in np.random.SeedSequence(5).spawn(200):
            counts = np.random.default_rng(child).poisson(spec.counts)
            fit_gaussian_2d(Spectrum2D(spec.lambda1_nm, spec.lambdah_nm, counts))

    @pytest.mark.parametrize("case", ["benchmark-56x48", "peak-2e4"])
    def test_moment_and_observed_starts_print_the_same_digits(self, case):
        # fitreport.csv prints 12 significant digits of the fit from the
        # moments; a refit started from that fit must print the same ones
        if case == "peak-2e4":
            rng = np.random.default_rng(17)
            model = synth_spectrum(replace(RAW_INPUT, amplitude=2e4, offset=100.0), n1=32, nh=30)
            spec = Spectrum2D(model.lambda1_nm, model.lambdah_nm, rng.poisson(model.counts))
        else:
            spec = benchmark_histogram()
        fit = fit_gaussian_2d(spec)
        x = analysis._levenberg_marquardt(
            np.array(astuple(fit)), spec.lambda1_nm, spec.lambdah_nm, spec.counts[None]
        )[0]
        refit = GaussianFitParams(*x.tolist())
        want = {k: "%.12g" % v for k, v in analysis.fit_values(fit).items()}
        assert {k: "%.12g" % v for k, v in analysis.fit_values(refit).items()} == want

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "LM_MAX_ITERATIONS", 2)
        with pytest.raises(FitConvergenceError):
            fit_gaussian_2d(synth_spectrum(RAW_INPUT))

    def test_flat_background_degenerate(self):
        lam = np.linspace(810, 812, 10)
        with pytest.raises(DegenerateDataError):
            fit_gaussian_2d(Spectrum2D(lam, lam, np.full((10, 10), 7.0)))

    def test_all_zero_degenerate(self):
        lam = np.linspace(810, 812, 10)
        with pytest.raises(DegenerateDataError):
            fit_gaussian_2d(Spectrum2D(lam, lam, np.zeros((10, 10))))

    def test_too_few_bins(self):
        lam = np.linspace(810, 812, 4)
        with pytest.raises(ValueError):
            fit_gaussian_2d(Spectrum2D(lam, lam, np.ones((4, 4))))

    def test_poisson_recovery_within_errorbars(self):
        # a hundred independent shot-noise realizations stay within
        # three Monte Carlo sigma of the truth for every parameter
        spec = synth_spectrum(RAW_INPUT, n1=40, nh=36)
        mc = montecarlo_errorbars(spec, n_trials=180, seed=7)
        names = ("signal_center_nm", "herald_center_nm", "signal_fwhm_nm", "herald_fwhm_nm", "rho")
        truth = dict(
            signal_center_nm=RAW_INPUT.center1_nm,
            herald_center_nm=RAW_INPUT.centerh_nm,
            signal_fwhm_nm=units.sigma_to_fwhm(RAW_INPUT.sigma1_nm),
            herald_fwhm_nm=units.sigma_to_fwhm(RAW_INPUT.sigmah_nm),
            rho=RAW_INPUT.rho,
        )
        rng = np.random.default_rng(12345)
        hits = {name: 0 for name in names}
        n_trials = 100
        for _ in range(n_trials):
            noisy = Spectrum2D(
                spec.lambda1_nm, spec.lambdah_nm, rng.poisson(spec.counts).astype(float)
            )
            fit = fit_gaussian_2d(noisy)
            got = dict(
                signal_center_nm=fit.center1_nm,
                herald_center_nm=fit.centerh_nm,
                signal_fwhm_nm=units.sigma_to_fwhm(fit.sigma1_nm),
                herald_fwhm_nm=units.sigma_to_fwhm(fit.sigmah_nm),
                rho=fit.rho,
            )
            for name in names:
                if abs(got[name] - truth[name]) <= 3.0 * mc.errors[f"raw_{name}"]:
                    hits[name] += 1
        for name in names:
            assert hits[name] >= 99, (name, hits[name])


class TestDeconvolution:
    def test_table_values_input(self):
        dec = deconvolve_resolution(RAW_INPUT, RES_INPUT)
        assert units.sigma_to_fwhm(dec.sigma1_nm) == pytest.approx(
            oracles.quadrature_deconvolve(4.047, 0.136), rel=1e-12
        )
        assert units.sigma_to_fwhm(dec.sigma1_nm) == pytest.approx(4.034, abs=1e-3)
        assert units.sigma_to_fwhm(dec.sigmah_nm) == pytest.approx(3.716, abs=1e-3)
        # covariance-preserving rescaling of the raw correlation
        ratio = (RAW_INPUT.sigma1_nm * RAW_INPUT.sigmah_nm) / (dec.sigma1_nm * dec.sigmah_nm)
        assert dec.rho == pytest.approx(RAW_INPUT.rho * ratio, rel=1e-12)
        # measured resolution-corrected value with its quoted error
        assert dec.rho == pytest.approx(-0.9776, abs=9e-4)

    def test_table_values_output(self):
        dec = deconvolve_resolution(RAW_OUTPUT, RES_OUTPUT)
        fwhm1, fwhmh = units.sigma_to_fwhm(dec.sigma1_nm), units.sigma_to_fwhm(dec.sigmah_nm)
        assert fwhm1 == pytest.approx(oracles.quadrature_deconvolve(0.621, 0.0741), rel=1e-12)
        assert fwhmh == pytest.approx(oracles.quadrature_deconvolve(2.50, 0.148), rel=1e-12)
        assert fwhm1 == pytest.approx(0.596, abs=1e-3)
        assert abs(fwhm1 - 0.60) < 0.01
        assert fwhmh == pytest.approx(2.476, abs=1e-3)
        assert abs(fwhmh - 2.47) < 0.04
        assert dec.rho == pytest.approx(0.908, abs=1e-3)
        assert abs(dec.rho - 0.909) < 0.005

    def test_covariance_preserved(self):
        dec = deconvolve_resolution(RAW_INPUT, RES_INPUT)
        cov_raw = RAW_INPUT.sigma1_nm * RAW_INPUT.sigmah_nm * RAW_INPUT.rho
        cov_dec = dec.sigma1_nm * dec.sigmah_nm * dec.rho
        assert cov_dec == pytest.approx(cov_raw, rel=1e-12)

    def test_unphysical_resolution(self):
        wide = ResolutionModel(r1_nm=2.0, rh_nm=2.0)
        with pytest.raises(UnphysicalDeconvolutionError):
            deconvolve_resolution(RAW_OUTPUT, wide)

    def test_zero_resolution_identity(self):
        dec = deconvolve_resolution(RAW_INPUT, ResolutionModel(0.0, 0.0))
        assert dec.sigma1_nm == RAW_INPUT.sigma1_nm
        assert dec.rho == RAW_INPUT.rho

    def test_derived_quantities(self):
        d = derived_quantities(RAW_INPUT)
        assert d["signal_fwhm_thz"] == pytest.approx(1.845, abs=2e-3)
        assert d["joint_energy_uncertainty_thz"] == pytest.approx(0.334, abs=2e-3)
        d_out = derived_quantities(RAW_OUTPUT)
        assert d_out["joint_energy_uncertainty_thz"] == pytest.approx(0.469, abs=2e-3)


class TestMonteCarlo:
    def test_deterministic(self):
        spec = synth_spectrum(RAW_INPUT, n1=24, nh=22)
        a = montecarlo_errorbars(spec, RES_INPUT, n_trials=40, seed=3)
        b = montecarlo_errorbars(spec, RES_INPUT, n_trials=40, seed=3)
        assert a.errors == b.errors
        assert a.failure_rate == b.failure_rate

    def test_scaling_with_counts(self):
        # error bars fall as one over the square root of the total counts
        sigmas = []
        scales = [1e2, 1e3, 1e4, 1e5]
        for peak in scales:
            params = replace(RAW_INPUT, amplitude=peak, offset=0.02 * peak)
            spec = synth_spectrum(params, n1=28, nh=26)
            mc = montecarlo_errorbars(spec, n_trials=120, seed=11)
            sigmas.append(mc.errors["raw_rho"])
        slope = np.polyfit(np.log(scales), np.log(sigmas), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_rho_errorbar_magnitude(self):
        # statistics comparable to a measured joint spectrum give a
        # correlation error bar between 1e-4 and 1.5e-3
        params = replace(RAW_INPUT, amplitude=3500.0, offset=20.0)
        spec = synth_spectrum(params, n1=40, nh=36)
        mc = montecarlo_errorbars(spec, RES_INPUT, n_trials=150, seed=5)
        assert 1e-4 <= mc.errors["raw_rho"] <= 1.5e-3
        assert not mc.unreliable
        assert mc.failures == {}

    def test_failures_counted_by_type(self, monkeypatch):
        fail_every_third_refit(monkeypatch)
        spec = synth_spectrum(RAW_INPUT, n1=24, nh=22)
        mc = montecarlo_errorbars(spec, n_trials=30, seed=3)
        assert mc.failures == {"FitConvergenceError": 10}
        assert mc.failure_rate == pytest.approx(1.0 / 3.0)
        assert mc.unreliable

    def test_needs_trials(self):
        spec = synth_spectrum(RAW_INPUT, n1=12, nh=12)
        with pytest.raises(ValueError):
            montecarlo_errorbars(spec, n_trials=1)

    @pytest.mark.parametrize("res", [None, RES_INPUT], ids=["raw", "deconvolved"])
    def test_warm_start_finds_moment_started_optima(self, res):
        # starting each refit from the observed fit moves only the path
        # of the optimizer, not the optimum it converges to
        rng = np.random.default_rng(41)
        model = synth_spectrum(replace(RAW_INPUT, amplitude=3000.0, offset=20.0), n1=28, nh=26)
        spec = Spectrum2D(model.lambda1_nm, model.lambdah_nm, rng.poisson(model.counts))
        mc = montecarlo_errorbars(spec, res, n_trials=40, seed=9)
        errors, failures = oracles.moment_started_errorbars(spec, res, n_trials=40, seed=9)
        assert mc.failures == failures == {}
        assert mc.errors.keys() == errors.keys()
        for key, sigma in errors.items():
            assert mc.errors[key] == pytest.approx(sigma, rel=1e-6, abs=0.0), key

    def test_refits_start_from_observed_fit(self, monkeypatch):
        # the observed fit is one stack of one from the moments; every
        # trial is refit in a stack started from the observed fit
        spec = synth_spectrum(RAW_INPUT, n1=24, nh=22)
        observed = fit_gaussian_2d(spec)
        stacks = []
        original = analysis._levenberg_marquardt

        def recording(x0, l1, lh, counts):
            stacks.append((x0.copy(), len(counts)))
            return original(x0, l1, lh, counts)

        monkeypatch.setattr(analysis, "_levenberg_marquardt", recording)
        fits = count_fit_calls(monkeypatch)
        montecarlo_errorbars(spec, n_trials=10, seed=3)
        assert len(fits) == 1
        assert [n for _, n in stacks] == [1, 10]
        for x0, _ in stacks[1:]:
            np.testing.assert_array_equal(x0, astuple(observed))

    def test_well_conditioned_refits_converge_in_few_steps(self, monkeypatch):
        # on the benchmark-shaped histogram the observed fit and every
        # refit from it stop within 15 steps
        monkeypatch.setattr(analysis, "LM_MAX_ITERATIONS", 15)
        mc = montecarlo_errorbars(benchmark_histogram(), RES_INPUT, n_trials=100, seed=7)
        assert mc.failures == {}

    @pytest.mark.parametrize("case", ["benchmark-56x48", "peak-100"])
    def test_matches_trust_region_refits(self, monkeypatch, case):
        # the observed fit and every trial against scipy's trust-region
        # fit, per trial started from the observed fit, to 1e-6 relative
        if case == "peak-100":
            params = replace(RAW_INPUT, amplitude=100.0, offset=2.0)
            spec, res, n_trials, seed = synth_spectrum(params, n1=28, nh=26), None, 120, 11
        else:
            spec, res, n_trials, seed = benchmark_histogram(), RES_INPUT, 100, 7
        recorded = record_fit_values(monkeypatch)
        fits = count_fit_calls(monkeypatch)
        mc = montecarlo_errorbars(spec, res, n_trials=n_trials, seed=seed)
        assert len(fits) == 1
        np.testing.assert_allclose(
            astuple(mc.observed),
            astuple(oracles.trf_fit(spec)),
            rtol=1e-6,
            atol=0.0,
        )
        trials = list(recorded)
        recorded.clear()
        samples, failures = oracles.trf_trials(spec, res, n_trials, seed, mc.observed)
        assert mc.failures == failures == {}
        assert len(trials) == len(recorded)
        for got, want in zip(trials, recorded):
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-6, abs=0.0), key
        for key, values in samples.items():
            sigma = float(np.std(values, ddof=1))
            assert mc.errors[key] == pytest.approx(sigma, rel=1e-6, abs=0.0), key

    def test_refits_stay_inside_the_bounds(self, monkeypatch):
        # with the correlation bound at the observed value, about half the
        # refits end on it, as the bounded trust-region refits do
        spec = synth_spectrum(RAW_INPUT, n1=24, nh=22)
        cap = fit_gaussian_2d(spec).rho
        original_bounds = analysis._fit_bounds

        def capped_bounds(l1, lh):
            lower, upper = original_bounds(l1, lh)
            upper[5] = cap
            return lower, upper

        monkeypatch.setattr(analysis, "_fit_bounds", capped_bounds)
        recorded = record_fit_values(monkeypatch)
        mc = montecarlo_errorbars(spec, n_trials=30, seed=3)
        assert mc.failures == {}
        trials = list(recorded)
        assert 5 < sum(values["rho"] == cap for values in trials) < 25
        assert max(values["rho"] for values in trials) <= cap
        recorded.clear()
        _, failures = oracles.trf_trials(spec, None, 30, 3, mc.observed)
        assert failures == {}
        for got, want in zip(trials, recorded, strict=True):
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-6, abs=0.0), key

    def test_chunk_size_does_not_change_errors(self, monkeypatch):
        spec = synth_spectrum(RAW_INPUT, n1=24, nh=22)
        reference = montecarlo_errorbars(spec, RES_INPUT, n_trials=23, seed=3)
        for chunk in (1, 4, 7):
            monkeypatch.setattr(analysis, "MC_STACK_CELLS", chunk * spec.counts.size)
            mc = montecarlo_errorbars(spec, RES_INPUT, n_trials=23, seed=3)
            assert mc.errors == reference.errors, chunk
            assert mc.failures == reference.failures == {}

    def test_gauss_newton_failures_counted_by_type(self, monkeypatch):
        # a response that leaves the observed correlation at -0.9991 after
        # deconvolution: some Gauss-Newton refits deconvolve to |rho| >= 1,
        # and they are counted as the trust-region loop counts them
        spec = synth_spectrum(RAW_INPUT, n1=24, nh=22)
        res = ResolutionModel(r1_nm=0.28, rh_nm=0.28)
        fits = count_fit_calls(monkeypatch)
        mc = montecarlo_errorbars(spec, res, n_trials=30, seed=3)
        assert len(fits) == 1
        _, failures = oracles.trf_trials(spec, res, 30, 3, mc.observed)
        assert mc.failures == failures == {"UnphysicalDeconvolutionError": 6}
        assert mc.unreliable

    def test_degenerate_observed_histogram_raises_before_trials(self, monkeypatch):
        calls = []
        original = analysis.fit_gaussian_2d

        def counting(spec, **kwargs):
            calls.append(spec)
            return original(spec, **kwargs)

        monkeypatch.setattr(analysis, "fit_gaussian_2d", counting)
        lam = np.linspace(810.0, 812.0, 12)
        flat = Spectrum2D(lam, lam, np.full((12, 12), 50.0))
        with pytest.raises(DegenerateDataError):
            montecarlo_errorbars(flat, n_trials=20, seed=1)
        assert len(calls) == 1

    def test_matches_linearized_oracle(self):
        # at 2e4 peak counts the fit is close to linear in the bin
        # fluctuations, so the sandwich covariance at the observed fit
        # predicts every raw error bar; a Monte Carlo error bar is a
        # standard deviation over N trials, with relative sampling error
        # 1/sqrt(2(N-1)) = 0.050 at N = 200, and the bound is four of those
        n_trials = 200
        rng = np.random.default_rng(17)
        model = synth_spectrum(replace(RAW_INPUT, amplitude=2e4, offset=100.0), n1=32, nh=30)
        spec = Spectrum2D(model.lambda1_nm, model.lambdah_nm, rng.poisson(model.counts))
        mc = montecarlo_errorbars(spec, n_trials=n_trials, seed=5)
        linear = oracles.linearized_errorbars(spec, fit_gaussian_2d(spec))
        bound = 4.0 / math.sqrt(2.0 * (n_trials - 1))
        assert mc.failures == {}
        for key, sigma in linear.items():
            assert mc.errors[f"raw_{key}"] == pytest.approx(sigma, rel=bound), key


def fail_every_third_refit(monkeypatch):
    """Make every third row that analysis's solver fits (the observed fit,
    then one per trial) come back unconverged."""
    rows = []
    original = analysis._levenberg_marquardt

    def flaky(x0, l1, lh, counts):
        fitted = original(x0, l1, lh, counts)
        for x in fitted:
            rows.append(x)
            if len(rows) % 3 == 0:
                x[:] = np.nan
        return fitted

    monkeypatch.setattr(analysis, "_levenberg_marquardt", flaky)


def count_fit_calls(monkeypatch):
    """Count the calls of fit_gaussian_2d looked up in analysis."""
    calls = []
    original = analysis.fit_gaussian_2d

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(analysis, "fit_gaussian_2d", counting)
    return calls


def record_fit_values(monkeypatch):
    """Record what analysis.fit_values returns, in call order."""
    recorded = []
    original = analysis.fit_values

    def recording(params):
        recorded.append(original(params))
        return recorded[-1]

    monkeypatch.setattr(analysis, "fit_values", recording)
    return recorded


def benchmark_histogram():
    """One Poisson draw on the benchmark's 56x48 grid: +-4 sigma per axis."""
    model = synth_spectrum(RAW_INPUT, n1=56, nh=48, span=1.6)
    counts = np.random.default_rng(1).poisson(model.counts)
    return Spectrum2D(model.lambda1_nm, model.lambdah_nm, counts)


class TestG2:
    def test_measured_rates(self):
        rates = CountRates(
            singles_signal=2.5e6, singles_herald=3.2e6, coincidences=4.15e5, rep_rate=8e7
        )
        g2 = g2_cross_correlation(rates)
        assert g2 == pytest.approx(4.15, rel=1e-12)
        assert 4.0 < g2 < 4.3  # consistent with the measured 4.190 given rounding

    def test_uncorrelated_unity(self):
        rates = CountRates(
            singles_signal=1e6, singles_herald=2e6, coincidences=1e6 * 2e6 / 8e7, rep_rate=8e7
        )
        assert g2_cross_correlation(rates) == pytest.approx(1.0, rel=1e-12)

    def test_rep_rate_linearity(self):
        a = CountRates(1e6, 2e6, 1e4, 8e7)
        b = CountRates(1e6, 2e6, 1e4, 1.6e8)
        assert g2_cross_correlation(b) == pytest.approx(2 * g2_cross_correlation(a), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CountRates(1e6, 2e6, 3e6, 8e7)  # coincidences above singles
        with pytest.raises(ValueError):
            g2_cross_correlation(CountRates(0.0, 2e6, 0.0, 8e7))
        with pytest.raises(ValueError):
            g2_cross_correlation(CountRates(1e6, 2e6, 1e4, 0.0))


def simulated_fields(name: str, nh: int):
    """The input and output fields that simulate resamples, at tau != 0."""
    from importlib import resources

    from timelens.config import parse_config
    from timelens.grid import lens_chirp, prepare_sweep, sfg_convolve

    cfg = parse_config(resources.files("timelens") / "configs" / f"{name}.cfg")
    tau = 0.5e-12
    field, out_grid = prepare_sweep(cfg.lens, cfg.state, [tau], n=512, nh=nh, n_out=64)
    return [
        field,
        sfg_convolve(
            field, cfg.lens.escort, cfg.lens.phasematching, tau, out_grid=out_grid,
            method="fft", chirp=lens_chirp(cfg.lens, cfg.state, field.axis1),
        )[0],
    ]


def assert_spectrum_matches_reference(field, shape=None):
    spec = spectrum_from_field(field, shape)
    lam1, lamh, counts = oracles.spectrum_from_field_reference(field, shape)
    assert np.array_equal(spec.lambda1_nm, lam1)
    assert np.array_equal(spec.lambdah_nm, lamh)
    assert np.array_equal(spec.counts, counts)


class TestSpectrumFromField:
    @pytest.mark.parametrize("name", ["experimental", "ideal", "filterlimit", "longcrystal"])
    def test_matches_reference_bitwise(self, name):
        for field in simulated_fields(name, nh=64):
            assert_spectrum_matches_reference(field)

    @pytest.mark.parametrize("name", ["experimental", "ideal", "filterlimit", "longcrystal"])
    def test_matches_reference_across_row_blocks(self, name):
        # with 200 herald samples the 512 input rows are resampled in two
        # row blocks, the second one partial
        field = simulated_fields(name, nh=200)[0]
        block = grid.row_blocks(field.axis1.n, 200)[0].stop
        assert field.axis1.n > block and field.axis1.n % block != 0
        assert_spectrum_matches_reference(field)

    @pytest.mark.parametrize("name", ["experimental", "ideal", "filterlimit", "longcrystal"])
    def test_display_counts_match_reference_bitwise(self, name):
        # fewer wavelength samples than the field has, on the same extents;
        # 400 rows of 200 gathered herald samples take two row blocks
        input_field, output_field = simulated_fields(name, nh=200)
        assert grid.row_blocks(400, 200)[0].stop < 400
        for shape in ((400, 150), (17, 200)):
            assert_spectrum_matches_reference(input_field, shape)
        assert_spectrum_matches_reference(output_field, (40, 33))
        full, shown = spectrum_from_field(input_field), spectrum_from_field(input_field, (400, 150))
        assert shown.lambda1_nm[[0, -1]].tolist() == full.lambda1_nm[[0, -1]].tolist()
        assert shown.lambdah_nm[[0, -1]].tolist() == full.lambdah_nm[[0, -1]].tolist()

    def test_off_grid_points_match_reference(self):
        # query points below, on and above both grid ends, on interior
        # knots and between them.  A NaN sample in range is not zeroed,
        # and a query on a knot reads the cell above it, as the reference
        # does, so the NaN at (11.0, -2.5) stays out of (11.5, -2.5).  The
        # resampled quantity is the intensity of complex amplitudes
        grid1 = 10.0 + 0.5 * np.arange(7)
        gridh = -3.0 + 0.25 * np.arange(5)
        rng = np.random.default_rng(3)
        amplitude = rng.uniform(0.5, 2.0, (7, 5)) * np.exp(2j * np.pi * rng.random((7, 5)))
        amplitude[2, 2] = np.nan
        values = np.abs(amplitude) ** 2
        x1 = np.array([9.0, np.nextafter(10.0, 0.0), 10.0, 10.2, 11.2, 11.5, 12.75, 13.0,
                       np.nextafter(13.0, 14.0), 14.0])
        xh = np.array([-4.0, -3.0, -2.9, -2.5, -2.0, np.nextafter(-2.0, 0.0), -1.0])
        got = analysis._bilinear_intensity(amplitude, grid1, gridh, x1, xh)
        want = oracles.bilinear_reference(values, grid1, gridh, x1, xh)
        assert np.array_equal(got, want, equal_nan=True)
        off1 = (x1 < grid1[0]) | (x1 > grid1[-1])
        offh = (xh < gridh[0]) | (xh > gridh[-1])
        off = off1[:, None] | offh
        assert np.all(got[off] == 0.0)
        assert np.any(np.isnan(got[~off]))
        assert got[7, 1] == values[-1, 0]
        assert np.isnan(got[4, 3]) and np.isfinite(got[5, 3])

    def test_axes_and_peak(self, exp_state):
        field = sample_jsa(exp_state, *grids_for_state(exp_state, n=128))
        spec = spectrum_from_field(field)
        assert spec.counts.max() == pytest.approx(1e4)
        lam_center = units.angular_to_wavelength(exp_state.omega1) * 1e9
        assert spec.lambda1_nm[0] < lam_center < spec.lambda1_nm[-1]
        fit = fit_gaussian_2d(spec)
        assert fit.center1_nm == pytest.approx(lam_center, abs=1e-2)
        assert fit.rho == pytest.approx(exp_state.rho, abs=2e-3)
        assert units.sigma_to_fwhm(fit.sigma1_nm) == pytest.approx(
            oracles.sigma_rad_to_fwhm_nm(exp_state.sigma1, lam_center), rel=2e-3
        )


class TestCalibration:
    @pytest.fixture
    def setup(self, exp_state, exp_escort):
        cfg = LensConfig(signal_chirp=oracles.A1, escort=exp_escort)
        taus = np.linspace(-2e-12, 2e-12, 5)
        return exp_state, cfg, taus

    def test_infinite_branch(self, exp_state):
        escort = EscortPulse(
            center=oracles.OMEGAE, sigma=1e3 * oracles.SIGMA1, chirp=-oracles.A1 / 2
        )
        cfg = LensConfig(signal_chirp=oracles.A1, escort=escort)
        slope = 0.229e12 * 2 * math.pi * 1e12
        taus = np.linspace(-2e-12, 2e-12, 5)
        pairs = [(t, 4.7553e15 + slope * t) for t in taus]
        cal = calibrate_phasematching(pairs, cfg, exp_state)
        assert cal.model.is_infinite

    def test_calibrates_and_predicts_herald(self, setup):
        state, cfg, taus = setup
        slope = 0.14e12 * 2 * math.pi * 1e12
        pairs = [(t, 4.7553e15 + slope * t) for t in taus]
        cal = calibrate_phasematching(pairs, cfg, state)
        assert not cal.model.is_infinite
        assert cal.model.sigma == pytest.approx(9.135e12, rel=0.01)
        assert abs(cal.residual) < 1e-4 * abs(cal.target_slope)
        # held-out herald prediction via a full sweep with the calibrated model
        cal_cfg = LensConfig(
            signal_chirp=oracles.A1, escort=cfg.escort, phasematching=cal.model
        )
        sw = delay_sweep(cal_cfg, state, taus)
        herald_thzps = units.slope_rad_to_thz_per_ps(sw.herald_slope)
        assert herald_thzps == pytest.approx(-0.099, abs=0.010)

    def test_fast_path_matches_full_sweep(self, setup):
        state, cfg, taus = setup
        pm = PhasematchingModel(sigma=6e12)
        cal_cfg = LensConfig(signal_chirp=oracles.A1, escort=cfg.escort, phasematching=pm)
        sw = delay_sweep(cal_cfg, state, taus)
        # calibrating to the sweep's own slope must return the same width
        pairs = [(p.tau, sw.signal_intercept + sw.signal_slope * p.tau) for p in sw.points]
        cal = calibrate_phasematching(pairs, cal_cfg, state)
        assert cal.model.sigma == pytest.approx(6e12, rel=5e-3)

    @pytest.mark.parametrize("slope_thz_per_ps", [0.14, "sweep"])
    def test_log_root_matches_brentq(self, setup, slope_thz_per_ps):
        # the targets of the two calibrations above, against scipy's brentq
        # on the same log bracket with the same 1e-12 tolerance
        from scipy.optimize import brentq

        state, cfg, taus = setup
        if slope_thz_per_ps == "sweep":
            pm = PhasematchingModel(sigma=6e12)
            cfg = LensConfig(signal_chirp=oracles.A1, escort=cfg.escort, phasematching=pm)
            slope = delay_sweep(cfg, state, taus).signal_slope
        else:
            slope = slope_thz_per_ps * 2 * math.pi * 1e12 * 1e12
        pairs = [(t, 4.7553e15 + slope * t) for t in taus]
        cal = calibrate_phasematching(pairs, cfg, state)
        target = np.polyfit(taus, [c for _, c in pairs], 1)[0]

        def core_slope(log_sigma):
            pm = PhasematchingModel(sigma=math.exp(log_sigma), center=cfg.phasematching.center)
            return lens.gaussian_output(replace(cfg, phasematching=pm), state).slope3 - target

        scale = math.hypot(state.sigma1, cfg.escort.sigma)
        want = brentq(core_slope, math.log(1e-4 * scale), math.log(1e3 * scale), xtol=1e-12)
        assert math.log(cal.model.sigma) == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_unreachable_slope(self, setup):
        state, cfg, taus = setup
        slope = 0.40e12 * 2 * math.pi * 1e12  # above the unrestricted slope
        pairs = [(t, 4.7553e15 + slope * t) for t in taus]
        with pytest.raises(CalibrationError):
            calibrate_phasematching(pairs, cfg, state)

    def test_needs_three_points(self, setup):
        state, cfg, _ = setup
        with pytest.raises(ValueError):
            calibrate_phasematching([(0.0, 1.0), (1e-12, 2.0)], cfg, state)
