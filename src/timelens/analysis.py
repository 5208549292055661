"""Measurement-side pipeline for joint spectra.

Coincidence histograms over two wavelength axes are fit to an elliptical
Gaussian with a constant background, the fitted widths are corrected for
the Gaussian spectrometer response by quadrature subtraction with the
covariance term preserved, Poissonian Monte Carlo resampling supplies
the parameter error bars, and the heralded cross-correlation g2 is
computed from count rates.  A one-parameter calibration of the
phasematching acceptance against a measured delay-tunability slope is
also provided: the width is solved on the closed-form core and every
reported slope comes from one grid delay sweep at that width.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace as dc_replace

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import brentq, least_squares

from . import units
# sfg_convolve is unused here but stays bound: perfbench/selftest.py
# checks that its traced wrapper reaches this module
from .grid import GridField2D, delay_sweep, sfg_convolve  # noqa: F401
from .lens import LensConfig, gaussian_output
from .states import (
    GaussianJSA,
    PhasematchingModel,
    joint_energy_uncertainty,
    schmidt_number,
)


class DegenerateDataError(ValueError):
    """Histogram carries no usable peak (empty or structureless)."""


class FitConvergenceError(RuntimeError):
    """Least-squares fit did not converge."""


class UnphysicalDeconvolutionError(ValueError):
    """Resolution subtraction would produce a non-positive width or |rho| >= 1."""


class CalibrationError(RuntimeError):
    """No acceptance width reproduces the requested tunability slope."""


@dataclass(frozen=True)
class Spectrum2D:
    """Coincidence histogram over signal and herald wavelength bins (nm)."""

    lambda1_nm: np.ndarray
    lambdah_nm: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        l1 = np.asarray(self.lambda1_nm, dtype=float)
        lh = np.asarray(self.lambdah_nm, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "lambda1_nm", l1)
        object.__setattr__(self, "lambdah_nm", lh)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (l1.size, lh.size):
            raise ValueError(
                f"counts shape {counts.shape} does not match axes ({l1.size}, {lh.size})"
            )
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        for name, ax in (("signal", l1), ("herald", lh)):
            d = np.diff(ax)
            if ax.size < 2 or np.any(d <= 0):
                raise ValueError(f"{name} axis must be strictly increasing")
            if not np.allclose(d, d[0], rtol=1e-6, atol=0.0):
                raise ValueError(f"{name} axis must be uniformly spaced")


@dataclass(frozen=True)
class ResolutionModel:
    """Gaussian sigma of each spectrometer response, nm."""

    r1_nm: float
    rh_nm: float

    def __post_init__(self):
        if self.r1_nm < 0.0 or self.rh_nm < 0.0:
            raise ValueError("resolutions must be non-negative")


@dataclass(frozen=True)
class GaussianFitParams:
    """Elliptical Gaussian surface over two wavelength axes."""

    amplitude: float
    center1_nm: float
    centerh_nm: float
    fwhm1_nm: float
    fwhmh_nm: float
    rho: float
    offset: float


@dataclass(frozen=True)
class FitReport:
    """Raw and resolution-corrected fit parameters with optional error bars."""

    raw: GaussianFitParams
    deconvolved: GaussianFitParams | None = None
    errors_raw: dict | None = None
    errors_deconvolved: dict | None = None


@dataclass(frozen=True)
class CountRates:
    """Singles, coincidence, and repetition rates in Hz."""

    singles_signal: float
    singles_herald: float
    coincidences: float
    rep_rate: float

    def __post_init__(self):
        for name in ("singles_signal", "singles_herald", "coincidences", "rep_rate"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.coincidences > min(self.singles_signal, self.singles_herald):
            raise ValueError("coincidence rate cannot exceed either singles rate")


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-parameter standard deviations from Poissonian resampling.

    failures counts the failed trials by exception type name; it is empty
    when every trial converged.
    """

    errors: dict
    n_trials: int
    failure_rate: float
    unreliable: bool
    failures: dict[str, int]


@dataclass(frozen=True)
class CalibrationResult:
    model: PhasematchingModel
    target_slope: float
    achieved_slope: float
    residual: float


def gaussian2d_model(params: GaussianFitParams, lambda1_nm, lambdah_nm) -> np.ndarray:
    """Evaluate the fit surface on an axis pair (outer product layout)."""
    d1 = (np.asarray(lambda1_nm, dtype=float)[:, None] - params.center1_nm)
    dh = (np.asarray(lambdah_nm, dtype=float)[None, :] - params.centerh_nm)
    s1 = units.fwhm_to_sigma(params.fwhm1_nm)
    sh = units.fwhm_to_sigma(params.fwhmh_nm)
    m = 1.0 - params.rho**2
    q = ((d1 / s1) ** 2 - 2.0 * params.rho * d1 * dh / (s1 * sh) + (dh / sh) ** 2) / m
    return params.offset + params.amplitude * np.exp(-0.5 * q)


def _moment_initialization(spec: Spectrum2D) -> GaussianFitParams:
    counts = spec.counts
    if counts.max() <= counts.min():
        raise DegenerateDataError("histogram is constant; nothing to fit")
    border = np.concatenate(
        [counts[0, :], counts[-1, :], counts[1:-1, 0], counts[1:-1, -1]]
    )
    offset0 = float(np.median(border))
    w = np.clip(counts - offset0, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise DegenerateDataError("no counts above the background level")
    l1 = spec.lambda1_nm
    lh = spec.lambdah_nm
    p1 = w.sum(axis=1) / total
    ph = w.sum(axis=0) / total
    c1 = float(p1 @ l1)
    ch = float(ph @ lh)
    v1 = float(p1 @ (l1 - c1) ** 2)
    vh = float(ph @ (lh - ch) ** 2)
    if v1 <= 0.0 or vh <= 0.0:
        raise DegenerateDataError("histogram has zero spread above background")
    cov = float((l1 - c1) @ w @ (lh - ch)) / total
    rho0 = float(np.clip(cov / math.sqrt(v1 * vh), -0.98, 0.98))
    amp0 = float(counts.max() - offset0)
    if amp0 <= 0.0:
        raise DegenerateDataError("no peak above the background level")
    return GaussianFitParams(
        amplitude=amp0,
        center1_nm=c1,
        centerh_nm=ch,
        fwhm1_nm=units.sigma_to_fwhm(math.sqrt(v1)),
        fwhmh_nm=units.sigma_to_fwhm(math.sqrt(vh)),
        rho=rho0,
        offset=offset0,
    )


def fit_gaussian_2d(spec: Spectrum2D) -> FitReport:
    """Least-squares elliptical-Gaussian fit with a constant offset.

    Initialization comes from intensity moments of the background-
    subtracted histogram; the optimizer is a damped trust-region
    least-squares scheme with relative parameter tolerance 1e-10 and an
    iteration cap of 200.
    """
    if spec.counts.shape[0] < 6 or spec.counts.shape[1] < 6:
        raise ValueError("need at least 6x6 bins to fit")
    if spec.counts.sum() <= 0:
        raise DegenerateDataError("histogram holds no counts")
    init = _moment_initialization(spec)

    l1 = spec.lambda1_nm
    lh = spec.lambdah_nm
    span1 = l1[-1] - l1[0]
    spanh = lh[-1] - lh[0]
    x0 = np.array(
        [
            init.amplitude,
            init.center1_nm,
            init.centerh_nm,
            units.fwhm_to_sigma(init.fwhm1_nm),
            units.fwhm_to_sigma(init.fwhmh_nm),
            init.rho,
            init.offset,
        ]
    )
    lower = [0.0, l1[0] - span1, lh[0] - spanh, 1e-6 * span1, 1e-6 * spanh, -0.999, -np.inf]
    upper = [np.inf, l1[-1] + span1, lh[-1] + spanh, 10.0 * span1, 10.0 * spanh, 0.999, np.inf]
    x0 = np.clip(x0, lower, upper)

    counts = spec.counts

    def residuals(p):
        amp, c1, ch, s1, sh, rho, off = p
        d1 = (l1[:, None] - c1) / s1
        dh = (lh[None, :] - ch) / sh
        q = (d1**2 - 2.0 * rho * d1 * dh + dh**2) / (1.0 - rho**2)
        return (off + amp * np.exp(-0.5 * q) - counts).ravel()

    def jacobian(p):
        amp, c1, ch, s1, sh, rho, off = p
        m = 1.0 - rho**2
        d1 = (l1[:, None] - c1) / s1
        dh = (lh[None, :] - ch) / sh
        q = (d1**2 - 2.0 * rho * d1 * dh + dh**2) / m
        e = np.exp(-0.5 * q)
        ae = amp * e
        cols = (
            e,
            ae * (d1 - rho * dh) / (s1 * m),
            ae * (dh - rho * d1) / (sh * m),
            ae * d1 * (d1 - rho * dh) / (s1 * m),
            ae * dh * (dh - rho * d1) / (sh * m),
            -ae * (rho * q - d1 * dh) / m,
            np.ones_like(e),
        )
        return np.stack([c.ravel() for c in cols], axis=1)

    result = least_squares(
        residuals,
        x0,
        jac=jacobian,
        bounds=(lower, upper),
        method="trf",
        xtol=1e-10,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=1000,
        x_scale="jac",
    )
    if not result.success:
        raise FitConvergenceError(f"fit did not converge: {result.message}")
    amp, c1, ch, s1, sh, rho, off = result.x
    raw = GaussianFitParams(
        amplitude=float(amp),
        center1_nm=float(c1),
        centerh_nm=float(ch),
        fwhm1_nm=units.sigma_to_fwhm(float(s1)),
        fwhmh_nm=units.sigma_to_fwhm(float(sh)),
        rho=float(rho),
        offset=float(off),
    )
    return FitReport(raw=raw)


# bins kept per axis by contour_subsample, and bins it keeps across a peak
CONTOUR_MAX_BINS = 128
CONTOUR_MIN_BINS_PER_FWHM = 8


def contour_subsample(spec: Spectrum2D) -> Spectrum2D:
    """Strided copy of a spectrum, small enough for a cheap contour fit.

    Each axis keeps every s-th bin, s = max(1, min(ceil(n / 128),
    floor(fwhm_bins / 8))), where fwhm_bins is that axis's moment FWHM
    in bins on the full spectrum: at most about 128 bins per axis, and
    never fewer than 8 across the peak, so a narrow peak on a wide grid
    does not fall between samples.  Raises DegenerateDataError where the
    moments do.
    """
    init = _moment_initialization(spec)
    strides = []
    for axis, fwhm in ((spec.lambda1_nm, init.fwhm1_nm), (spec.lambdah_nm, init.fwhmh_nm)):
        fwhm_bins = fwhm / (axis[1] - axis[0])
        cap = math.ceil(axis.size / CONTOUR_MAX_BINS)
        strides.append(max(1, min(cap, math.floor(fwhm_bins / CONTOUR_MIN_BINS_PER_FWHM))))
    s1, sh = strides
    return Spectrum2D(spec.lambda1_nm[::s1], spec.lambdah_nm[::sh], spec.counts[::s1, ::sh])


def deconvolve_resolution(report: FitReport, res: ResolutionModel) -> FitReport:
    """Correct the fitted widths for the spectrometer response.

    The response FWHM is subtracted in quadrature on each axis; the
    covariance term sigma1 sigmah rho is preserved exactly, which raises
    the magnitude of the correlation as the marginals shrink.
    """
    raw = report.raw
    fw1_res = units.sigma_to_fwhm(res.r1_nm)
    fwh_res = units.sigma_to_fwhm(res.rh_nm)
    arg1 = raw.fwhm1_nm**2 - fw1_res**2
    argh = raw.fwhmh_nm**2 - fwh_res**2
    if arg1 <= 0.0 or argh <= 0.0:
        raise UnphysicalDeconvolutionError(
            "spectrometer response is as wide as the fitted feature; "
            "deconvolved width would not be positive"
        )
    fw1 = math.sqrt(arg1)
    fwh = math.sqrt(argh)
    rho_dec = raw.rho * (raw.fwhm1_nm * raw.fwhmh_nm) / (fw1 * fwh)
    if abs(rho_dec) >= 1.0:
        raise UnphysicalDeconvolutionError(
            f"covariance preservation gives |rho| = {abs(rho_dec):.4f} >= 1"
        )
    volume_ratio = (raw.fwhm1_nm * raw.fwhmh_nm * math.sqrt(1.0 - raw.rho**2)) / (
        fw1 * fwh * math.sqrt(1.0 - rho_dec**2)
    )
    dec = GaussianFitParams(
        amplitude=raw.amplitude * volume_ratio,
        center1_nm=raw.center1_nm,
        centerh_nm=raw.centerh_nm,
        fwhm1_nm=fw1,
        fwhmh_nm=fwh,
        rho=rho_dec,
        offset=raw.offset,
    )
    return dc_replace(report, deconvolved=dec)


def derived_quantities(params: GaussianFitParams) -> dict:
    """Bandwidths in THz, Schmidt number, and joint energy uncertainty."""
    fw1_thz = units.bandwidth_nm_to_thz(params.fwhm1_nm, params.center1_nm)
    fwh_thz = units.bandwidth_nm_to_thz(params.fwhmh_nm, params.centerh_nm)
    jeu = joint_energy_uncertainty(
        units.fwhm_to_sigma(fw1_thz), units.fwhm_to_sigma(fwh_thz), params.rho
    )
    return {
        "signal_fwhm_thz": fw1_thz,
        "herald_fwhm_thz": fwh_thz,
        "schmidt_k": schmidt_number(params.rho),
        "joint_energy_uncertainty_thz": jeu,
    }


_PARAM_KEYS = (
    "amplitude",
    "signal_center_nm",
    "herald_center_nm",
    "signal_fwhm_nm",
    "herald_fwhm_nm",
    "rho",
    "offset",
)


def fit_values(params: GaussianFitParams) -> dict:
    """Fitted parameters and derived quantities by report key."""
    out = dict(
        zip(
            _PARAM_KEYS,
            (
                params.amplitude,
                params.center1_nm,
                params.centerh_nm,
                params.fwhm1_nm,
                params.fwhmh_nm,
                params.rho,
                params.offset,
            ),
        )
    )
    out.update(derived_quantities(params))
    return out


def montecarlo_errorbars(
    spec: Spectrum2D,
    res: ResolutionModel | None = None,
    n_trials: int = 500,
    seed: int = 0,
) -> MonteCarloResult:
    """Poissonian parameter error bars.

    Each trial redraws every bin from a Poisson law whose mean is the
    observed count, refits, and (when a resolution model is given)
    deconvolves; the reported error bars are the standard deviations of
    each parameter over the successful trials.  Per-trial generators are
    spawned from the seed, so results do not depend on execution order.
    A failure rate above 5 percent marks the result as unreliable.
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials")
    children = np.random.SeedSequence(seed).spawn(n_trials)
    samples: dict[str, list] = {}
    failures: Counter[str] = Counter()
    for child in children:
        rng = np.random.default_rng(child)
        resampled = Spectrum2D(
            spec.lambda1_nm, spec.lambdah_nm, rng.poisson(spec.counts).astype(float)
        )
        try:
            report = fit_gaussian_2d(resampled)
            values = {f"raw_{k}": v for k, v in fit_values(report.raw).items()}
            if res is not None:
                report = deconvolve_resolution(report, res)
                values.update(
                    {f"dec_{k}": v for k, v in fit_values(report.deconvolved).items()}
                )
        except (DegenerateDataError, FitConvergenceError, UnphysicalDeconvolutionError) as exc:
            failures[type(exc).__name__] += 1
            continue
        for k, v in values.items():
            samples.setdefault(k, []).append(v)

    n_failed = failures.total()
    n_ok = n_trials - n_failed
    if n_ok < 2:
        raise FitConvergenceError(
            f"only {n_ok} of {n_trials} Monte Carlo trials converged"
        )
    errors = {k: float(np.std(v, ddof=1)) for k, v in samples.items()}
    failure_rate = n_failed / n_trials
    return MonteCarloResult(
        errors=errors,
        n_trials=n_trials,
        failure_rate=failure_rate,
        unreliable=failure_rate > 0.05,
        failures=dict(failures),
    )


def g2_cross_correlation(rates: CountRates) -> float:
    """Second-order cross-correlation between signal and herald.

    The ratio of the per-pulse coincidence probability to the product of
    the per-pulse singles probabilities; values above 2 indicate
    nonclassical correlations for at-most-thermal marginals.
    """
    if rates.rep_rate <= 0.0:
        raise ValueError("repetition rate must be positive")
    if rates.singles_signal <= 0.0 or rates.singles_herald <= 0.0:
        raise ValueError("singles rates must be positive")
    return rates.coincidences * rates.rep_rate / (rates.singles_signal * rates.singles_herald)


def spectrum_from_field(field: GridField2D, peak_counts: float = 1e4) -> Spectrum2D:
    """Resample a spectral grid field onto uniform wavelength axes.

    The intensity is interpolated bilinearly in angular frequency,
    multiplied by the frequency-to-wavelength Jacobian, and scaled so
    the peak bin equals peak_counts.  Simulated spectra therefore carry
    float 'counts' usable directly as Poisson means.
    """
    w1 = field.axis1.points
    wh = field.axis_h.points
    lam1 = np.linspace(
        units.angular_to_wavelength(w1[-1]) * 1e9,
        units.angular_to_wavelength(w1[0]) * 1e9,
        field.axis1.n,
    )
    lamh = np.linspace(
        units.angular_to_wavelength(wh[-1]) * 1e9,
        units.angular_to_wavelength(wh[0]) * 1e9,
        field.axis_h.n,
    )
    interp = RegularGridInterpolator(
        (w1, wh), field.intensity(), method="linear", bounds_error=False, fill_value=0.0
    )
    wq1 = units.TWO_PI * units.C_LIGHT / (lam1 * 1e-9)
    wqh = units.TWO_PI * units.C_LIGHT / (lamh * 1e-9)
    pts = np.stack(np.meshgrid(wq1, wqh, indexing="ij"), axis=-1)
    intensity = interp(pts)
    jac = (wq1[:, None] / lam1[:, None]) * (wqh[None, :] / lamh[None, :])
    counts = intensity * jac
    peak = counts.max()
    if peak <= 0.0:
        raise DegenerateDataError("field intensity vanishes on the wavelength grid")
    return Spectrum2D(lam1, lamh, counts / peak * peak_counts)


def read_spectrum_csv(path) -> Spectrum2D:
    """Read a coincidence histogram CSV.

    The header row lists the herald wavelength bins after a free-form
    corner label, each following row starts with its signal wavelength
    bin, and the body holds the counts.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: no histogram rows found")
    header = lines[0].split(",")
    try:
        lamh = np.array([float(v) for v in header[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: row 1: bad herald bin: {exc}") from None
    lam1 = []
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != lamh.size + 1:
            raise ValueError(
                f"{path}: row {i}: expected {lamh.size + 1} columns, got {len(cells)}"
            )
        try:
            lam1.append(float(cells[0]))
            rows.append([float(v) for v in cells[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    return Spectrum2D(np.array(lam1), lamh, np.array(rows))


def write_spectrum_csv(spec: Spectrum2D, path) -> None:
    """Write a histogram in the format read by :func:`read_spectrum_csv`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "signal_nm\\herald_nm," + ",".join("%.17g" % v for v in spec.lambdah_nm) + "\n"
        )
        for lam, row in zip(spec.lambda1_nm, spec.counts):
            fh.write("%.17g," % lam + ",".join("%.17g" % v for v in row) + "\n")


def calibrate_phasematching(
    sweep_data,
    cfg: LensConfig,
    state: GaussianJSA,
    n: int | None = None,
    nh: int = 512,
    n_out: int = 512,
    span_sigmas: float = 6.0,
    slope_match_rtol: float = 0.01,
    bracket: tuple[float, float] | None = None,
) -> CalibrationResult:
    """Fit the acceptance width to a measured signal-tunability slope.

    sweep_data is a sequence of (delay s, signal center rad/s) pairs,
    at least three of them; their least-squares slope is the calibration
    target.  The acceptance width is solved on the closed-form core, by
    a root of its signal-center slope on a log bracket, and one grid
    delay sweep at the same delays with that width supplies the achieved
    slope and the residual.  A target within slope_match_rtol of the
    core's unrestricted slope returns the infinite model, with its slope
    from one sweep; a target above the unrestricted slope (restriction
    can only slow the signal tuning) or below the bracket raises
    CalibrationError with the bracket diagnostics.

    The herald-center slope simulated with the calibrated model is an
    independent prediction, not used in the fit.
    """
    data = np.asarray(list(sweep_data), dtype=float)
    if data.ndim != 2 or data.shape[0] < 3 or data.shape[1] != 2:
        raise ValueError("sweep data must be at least three (delay, center) pairs")
    taus = data[:, 0]
    target = float(np.polyfit(taus, data[:, 1], 1)[0])

    def model_for(sigma_phi: float) -> PhasematchingModel:
        return PhasematchingModel(sigma=sigma_phi, center=cfg.phasematching.center)

    def core_slope(sigma_phi: float) -> float:
        return gaussian_output(dc_replace(cfg, phasematching=model_for(sigma_phi)), state).slope3

    def result(model: PhasematchingModel) -> CalibrationResult:
        sweep = delay_sweep(
            dc_replace(cfg, phasematching=model), state, taus,
            n=n, nh=nh, n_out=n_out, span_sigmas=span_sigmas,
        )
        return CalibrationResult(
            model=model,
            target_slope=target,
            achieved_slope=sweep.signal_slope,
            residual=sweep.signal_slope - target,
        )

    slope_open = core_slope(math.inf)
    if abs(target) > abs(slope_open) * (1.0 + slope_match_rtol) or target * slope_open < 0.0:
        raise CalibrationError(
            f"target slope {target:.4e} is outside the reachable range "
            f"(unrestricted slope {slope_open:.4e}, shrinking toward 0 with "
            "tighter phasematching)"
        )
    if abs(target - slope_open) <= slope_match_rtol * abs(slope_open):
        return result(PhasematchingModel.infinite())

    sigma3_scale = math.hypot(state.sigma1, cfg.escort.sigma)
    lo, hi = bracket if bracket is not None else (1e-4 * sigma3_scale, 1e3 * sigma3_scale)
    f_lo = core_slope(lo) - target
    f_hi = core_slope(hi) - target
    if f_lo * f_hi > 0.0:
        raise CalibrationError(
            f"no acceptance width in [{lo:.3e}, {hi:.3e}] rad/s reproduces slope "
            f"{target:.4e} (bracket slopes {f_lo + target:.4e}, {f_hi + target:.4e})"
        )
    log_root = brentq(
        lambda x: core_slope(math.exp(x)) - target, math.log(lo), math.log(hi), xtol=1e-12
    )
    return result(model_for(math.exp(log_root)))
