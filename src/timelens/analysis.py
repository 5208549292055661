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
from dataclasses import astuple, dataclass, replace as dc_replace

import numpy as np

from . import units
# sfg_convolve is unused here but stays bound: perfbench/selftest.py
# checks that its traced wrapper reaches this module
from .grid import (  # noqa: F401
    GridField2D,
    GridIntensity2D,
    delay_sweep,
    row_blocks,
    sfg_convolve,
    weighted_moments,
)
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
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        for name, ax in (("signal", l1), ("herald", lh)):
            if not np.all(np.isfinite(ax)):
                raise ValueError(f"{name} axis must be finite")
            d = np.diff(ax)
            if ax.size < 2 or np.any(d <= 0):
                raise ValueError(f"{name} axis must be strictly increasing")
            if not np.allclose(d, d[0], rtol=1e-6, atol=0.0):
                raise ValueError(f"{name} axis must be uniformly spaced")


@dataclass(frozen=True)
class ResolutionModel:
    """Gaussian sigma of each spectrometer response, nm: finite and at least 0."""

    r1_nm: float
    rh_nm: float

    def __post_init__(self):
        for axis, r in (("signal", self.r1_nm), ("herald", self.rh_nm)):
            if not 0.0 <= r < math.inf:
                raise ValueError(
                    f"the {axis} resolution must be finite and at least 0 nm, got {r:g}"
                )


@dataclass(frozen=True)
class GaussianFitParams:
    """Elliptical Gaussian surface over two wavelength axes, widths as intensity sigma.

    The fields are in the order of the fit solver's parameter vector.
    """

    amplitude: float
    center1_nm: float
    centerh_nm: float
    sigma1_nm: float
    sigmah_nm: float
    rho: float
    offset: float


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
    when every trial converged.  observed is the fit of the observed
    spectrum, which starts every refit, and deconvolved its deconvolution,
    None when no resolution model was given.
    """

    errors: dict
    n_trials: int
    failure_rate: float
    unreliable: bool
    failures: dict[str, int]
    observed: GaussianFitParams
    deconvolved: GaussianFitParams | None


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
    s1, sh = params.sigma1_nm, params.sigmah_nm
    m = 1.0 - params.rho**2
    q = ((d1 / s1) ** 2 - 2.0 * params.rho * d1 * dh / (s1 * sh) + (dh / sh) ** 2) / m
    return params.offset + params.amplitude * np.exp(-0.5 * q)


def _moment_initialization(l1: np.ndarray, lh: np.ndarray, counts: np.ndarray) -> GaussianFitParams:
    if counts.sum() <= 0:
        raise DegenerateDataError("histogram holds no counts")
    if counts.max() <= counts.min():
        raise DegenerateDataError("histogram is constant; nothing to fit")
    border = np.concatenate(
        [counts[0, :], counts[-1, :], counts[1:-1, 0], counts[1:-1, -1]]
    )
    offset0 = float(np.median(border))
    # only bins 3 Poisson sigma above the background weigh in: the
    # shot noise of a large background would otherwise widen the moments
    above = counts - offset0
    w = np.where(above > 3.0 * math.sqrt(offset0), above, 0.0)
    if not w.any():
        raise DegenerateDataError("no counts above the background level")
    c1, ch, v1, vh, cov = weighted_moments(w, l1, lh)
    if v1 <= 0.0 or vh <= 0.0:
        raise DegenerateDataError("histogram has zero spread above background")
    rho0 = float(np.clip(cov / math.sqrt(v1 * vh), -0.98, 0.98))
    amp0 = float(counts.max() - offset0)
    if amp0 <= 0.0:
        raise DegenerateDataError("no peak above the background level")
    return GaussianFitParams(
        amplitude=amp0,
        center1_nm=c1,
        centerh_nm=ch,
        sigma1_nm=math.sqrt(v1),
        sigmah_nm=math.sqrt(vh),
        rho=rho0,
        offset=offset0,
    )


def _fit_bounds(l1: np.ndarray, lh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the fit vector on an axis pair."""
    span1 = l1[-1] - l1[0]
    spanh = lh[-1] - lh[0]
    lower = [0.0, l1[0] - span1, lh[0] - spanh, 1e-6 * span1, 1e-6 * spanh, -0.999, -np.inf]
    upper = [np.inf, l1[-1] + span1, lh[-1] + spanh, 10.0 * span1, 10.0 * spanh, 0.999, np.inf]
    return np.array(lower), np.array(upper)


def _gaussian_residuals(p, l1: np.ndarray, lh: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the fit surface and their Jacobian, transposed.

    p holds (amplitude, center1, centerh, sigma1, sigmah, rho, offset)
    on its last axis, and counts the histograms on their last two; any
    leading axes (one per trial) broadcast.  Returns the residuals,
    shape (..., bins), and the Jacobian with one row per parameter,
    shape (..., 7, bins), on the leading axes of p alone.
    """
    amp, c1, ch, s1, sh, rho, off = (p[..., i, None, None] for i in range(7))
    m = 1.0 - rho**2
    d1 = (l1[:, None] - c1) / s1
    dh = (lh[None, :] - ch) / sh
    u1 = d1 - rho * dh
    uh = dh - rho * d1
    q = (d1 * u1 + dh * uh) / m
    lead = q.shape[:-2]
    # each row is written in place: fresh temporaries per row cost more
    # than the arithmetic on a histogram of a few thousand bins
    jac = np.empty(lead + (7,) + q.shape[-2:])
    e = np.exp(-0.5 * q, out=jac[..., 0, :, :])
    ae = amp * e
    g = ae / m
    a1 = np.multiply(g, u1 / s1, out=jac[..., 1, :, :])
    ah = np.multiply(g, uh / sh, out=jac[..., 2, :, :])
    np.multiply(a1, d1, out=jac[..., 3, :, :])
    np.multiply(ah, dh, out=jac[..., 4, :, :])
    np.multiply(g, d1 * dh - rho * q, out=jac[..., 5, :, :])
    jac[..., 6, :, :] = 1.0
    r = off + ae - counts
    return r.reshape(*r.shape[:-2], -1), jac.reshape(*lead, 7, -1)


# relative Jacobian-scaled step at which a fit stops, and the most steps it takes
XTOL = 1e-12
LM_MAX_ITERATIONS = 1000


def _levenberg_marquardt(x0, l1: np.ndarray, lh: np.ndarray, counts) -> np.ndarray:
    """Bounded Levenberg-Marquardt fits of a stack of histograms (trials, n1, nh), all from x0.

    A row steps by (J^T J + lam D^2) dx = -J^T r, D the Jacobian's column
    norms (More, 1978); lam starts at 1e-3, falls tenfold after a step
    that lowers the sum of squares and rises tenfold, dropping the step,
    after one that does not.  Parameters on a bound of _fit_bounds with
    the gradient pointing out are held; steps are projected into the
    box.  A row stops before a step with ||D dx|| < XTOL (XTOL + ||D x||)
    or a gain below the rounding of the sum, so a refit from a result
    reached with lam <= 1e-3 stops there.  Rows are independent.  NaN
    marks a row not stopped in LM_MAX_ITERATIONS steps or one whose
    Jacobian lost a column.
    """
    lower, upper = _fit_bounds(l1, lh)
    x = np.repeat(np.clip(x0, lower, upper)[None, :], counts.shape[0], axis=0)
    rows = np.arange(counts.shape[0])
    lam = np.full(rows.size, 1e-3)
    # every row starts at x0, so one Jacobian serves them all
    r, jac_t = _gaussian_residuals(x[:1], l1, lh, counts)
    jac_t = np.broadcast_to(jac_t, (rows.size,) + jac_t.shape[1:])
    cost = np.einsum("ij,ij->i", r, r)
    fitted = np.full(x.shape, np.nan)
    for _ in range(LM_MAX_ITERATIONS):
        normal = jac_t @ jac_t.swapaxes(1, 2)
        grad = (jac_t @ r[..., None])[..., 0]
        d2 = np.diagonal(normal, axis1=1, axis2=2)
        usable = ((d2 > 0.0) & (d2 < np.inf)).all(axis=1)
        held = ((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)) | ~usable[:, None]
        damped = normal * ~(held[:, :, None] | held[:, None, :])
        damped[:, range(7), range(7)] += np.where(held, 1.0, lam[:, None] * d2)
        grad[held] = 0.0
        step = -np.linalg.solve(damped, grad[..., None])[..., 0]
        trial = np.clip(x + step, lower, upper)
        d = np.sqrt(d2)
        limit = XTOL * (XTOL + np.linalg.norm(d * x, axis=1))
        small = np.linalg.norm(d * (trial - x), axis=1) < limit
        gain = -np.einsum("ij,ij->i", 2.0 * grad + (normal @ step[..., None])[..., 0], step)
        small |= gain < 4.0 * np.finfo(float).eps * cost
        fitted[rows[small & usable]] = x[small & usable]
        going = ~small & usable
        if not going.all():
            x, r, jac_t, cost, lam, counts, rows, trial = (
                v[going] for v in (x, r, jac_t, cost, lam, counts, rows, trial)
            )
            if rows.size == 0:
                break
        r_trial, jac_trial = _gaussian_residuals(trial, l1, lh, counts)
        cost_trial = np.einsum("ij,ij->i", r_trial, r_trial)
        worse = ~(cost_trial < cost)
        for new, old in ((trial, x), (r_trial, r), (jac_trial, jac_t), (cost_trial, cost)):
            new[worse] = old[worse]
        x, r, jac_t, cost = trial, r_trial, jac_trial, cost_trial
        lam = np.where(worse, 10.0 * lam, 0.1 * lam)
    return fitted


def fit_gaussian_2d(spec: Spectrum2D) -> GaussianFitParams:
    """Least-squares elliptical-Gaussian fit with a constant offset.

    Initialization comes from intensity moments of the background-
    subtracted histogram; the solver is _levenberg_marquardt on a stack
    of one, and a fit that does not converge raises FitConvergenceError.
    """
    if spec.counts.shape[0] < 6 or spec.counts.shape[1] < 6:
        raise ValueError("need at least 6x6 bins to fit")
    l1, lh, counts = spec.lambda1_nm, spec.lambdah_nm, spec.counts
    init = _moment_initialization(l1, lh, counts)
    x = _levenberg_marquardt(np.array(astuple(init)), l1, lh, counts[None])[0]
    if np.isnan(x).any():
        raise FitConvergenceError(f"fit did not converge within {LM_MAX_ITERATIONS} steps")
    return GaussianFitParams(*x.tolist())


def deconvolve_resolution(params: GaussianFitParams, res: ResolutionModel) -> GaussianFitParams:
    """Correct the fitted widths for the spectrometer response.

    The response sigma is subtracted in quadrature on each axis; the
    covariance term sigma1 sigmah rho is preserved exactly, which raises
    the magnitude of the correlation as the marginals shrink, and the
    amplitude keeps the surface's volume.
    """
    arg1 = params.sigma1_nm**2 - res.r1_nm**2
    argh = params.sigmah_nm**2 - res.rh_nm**2
    if arg1 <= 0.0 or argh <= 0.0:
        raise UnphysicalDeconvolutionError(
            "spectrometer response is as wide as the fitted feature; "
            "deconvolved width would not be positive"
        )
    s1 = math.sqrt(arg1)
    sh = math.sqrt(argh)
    # exactly 1 with a zero response, which leaves rho and the amplitude as they are
    ratio = (params.sigma1_nm * params.sigmah_nm) / (s1 * sh)
    rho = params.rho * ratio
    if abs(rho) >= 1.0:
        raise UnphysicalDeconvolutionError(
            f"covariance preservation gives |rho| = {abs(rho):.4f} >= 1"
        )
    volume_ratio = ratio * math.sqrt(1.0 - params.rho**2) / math.sqrt(1.0 - rho**2)
    return dc_replace(
        params, amplitude=params.amplitude * volume_ratio, sigma1_nm=s1, sigmah_nm=sh, rho=rho
    )


def derived_quantities(params: GaussianFitParams) -> dict:
    """Bandwidths in THz, Schmidt number, and joint energy uncertainty."""
    fw1_thz = units.bandwidth_nm_to_thz(units.sigma_to_fwhm(params.sigma1_nm), params.center1_nm)
    fwh_thz = units.bandwidth_nm_to_thz(units.sigma_to_fwhm(params.sigmah_nm), params.centerh_nm)
    jeu = joint_energy_uncertainty(
        units.fwhm_to_sigma(fw1_thz), units.fwhm_to_sigma(fwh_thz), params.rho
    )
    return {
        "signal_fwhm_thz": fw1_thz,
        "herald_fwhm_thz": fwh_thz,
        "schmidt_k": schmidt_number(params.rho),
        "joint_energy_uncertainty_thz": jeu,
    }


def fit_values(params: GaussianFitParams) -> dict:
    """Fitted parameters, widths as FWHM, and derived quantities by report key."""
    return {
        "amplitude": params.amplitude,
        "signal_center_nm": params.center1_nm,
        "herald_center_nm": params.centerh_nm,
        "signal_fwhm_nm": units.sigma_to_fwhm(params.sigma1_nm),
        "herald_fwhm_nm": units.sigma_to_fwhm(params.sigmah_nm),
        "rho": params.rho,
        "offset": params.offset,
        **derived_quantities(params),
    }


# histogram bins per Monte Carlo refit stack: 2 MB of Jacobian rows
MC_STACK_CELLS = 2**15


def montecarlo_errorbars(
    spec: Spectrum2D,
    res: ResolutionModel | None = None,
    n_trials: int = 500,
    seed: int = 0,
) -> MonteCarloResult:
    """Poissonian parameter error bars.

    The observed spectrum is fit (and deconvolved) once, and a failure
    of either is raised before any trial runs.  Each trial redraws every
    bin from a Poisson law whose mean is the observed count, refits
    starting from the observed fit, and (when a resolution model is
    given) deconvolves; the reported error bars are the standard
    deviations of each parameter over the successful trials.  Draws,
    counts arrays on the observed axes, are refit in stacks of about
    MC_STACK_CELLS bins; a degenerate draw, a refit that does not
    converge and a failed deconvolution are counted by exception name.
    Per-trial generators are spawned from the seed and each draw is
    made when its stack runs, so results depend neither on execution
    order nor on the stack size.  A failure rate above 5 percent marks
    the result as unreliable.
    """
    if n_trials < 2:
        raise ValueError("need at least 2 trials")
    observed = fit_gaussian_2d(spec)
    deconvolved = None if res is None else deconvolve_resolution(observed, res)
    start = np.array(astuple(observed))
    l1, lh = spec.lambda1_nm, spec.lambdah_nm
    children = np.random.SeedSequence(seed).spawn(n_trials)
    samples: dict[str, list] = {}
    failures: Counter[str] = Counter()
    for trials in row_blocks(n_trials, spec.counts.size, MC_STACK_CELLS):
        draws = []
        for child in children[trials]:
            counts = np.random.default_rng(child).poisson(spec.counts).astype(float)
            try:
                _moment_initialization(l1, lh, counts)
            except DegenerateDataError as exc:
                failures[type(exc).__name__] += 1
                continue
            draws.append(counts)
        if not draws:
            continue
        for x in _levenberg_marquardt(start, l1, lh, np.stack(draws)):
            try:
                if np.isnan(x).any():
                    raise FitConvergenceError("refit did not converge")
                fit = GaussianFitParams(*x.tolist())
                values = {f"raw_{k}": v for k, v in fit_values(fit).items()}
                if res is not None:
                    dec = deconvolve_resolution(fit, res)
                    values.update({f"dec_{k}": v for k, v in fit_values(dec).items()})
            except (FitConvergenceError, UnphysicalDeconvolutionError) as exc:
                failures[type(exc).__name__] += 1
                continue
            for k, v in values.items():
                samples.setdefault(k, []).append(v)

    n_failed = failures.total()
    n_ok = n_trials - n_failed
    if n_ok < 2:
        raise FitConvergenceError(f"only {n_ok} of {n_trials} Monte Carlo trials converged")
    errors = {k: float(np.std(v, ddof=1)) for k, v in samples.items()}
    failure_rate = n_failed / n_trials
    return MonteCarloResult(
        errors=errors,
        n_trials=n_trials,
        failure_rate=failure_rate,
        unreliable=failure_rate > 0.05,
        failures=dict(failures),
        observed=observed,
        deconvolved=deconvolved,
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


def _linear_weights(grid: np.ndarray, x: np.ndarray):
    """Lower neighbour index, both linear weights and in-band mask of each x.

    The interval rule is grid[i] <= x < grid[i + 1], clipped to the end
    intervals; points outside [grid[0], grid[-1]] are marked off-grid.
    """
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    t = (x - grid[i]) / (grid[i + 1] - grid[i])
    return i, 1.0 - t, t, (x >= grid[0]) & (x <= grid[-1])


def _bilinear_intensity(values, grid1, gridh, x1, xh) -> np.ndarray:
    """Bilinear resampling of the intensity on the rectilinear grid (x1, xh).

    values holds complex amplitudes, whose intensity is |values|^2, or a
    real intensity.  Each axis is searched once.  Output rows are filled
    in row blocks of about 64K gathered cells (1 MB of complex128, near
    the 2 MB L2 cache): the block's lower and upper neighbour rows are
    gathered, and squared when complex, so the intensity is taken only
    on the rows the output reads, then the four corners by column, and
    the terms are summed in the order v00, v01, v10, v11.  Off-grid
    points are 0, and a non-finite value in range stays so.
    """
    i1, a1, b1, in1 = _linear_weights(grid1, x1)
    ih, ah, bh, inh = _linear_weights(gridh, xh)
    out = np.empty((x1.size, xh.size))
    blocks = row_blocks(x1.size, values.shape[1])
    term = np.empty((blocks[0].stop, xh.size))
    for rows in blocks:
        block = out[rows]
        t = term[: len(block)]
        a, b = a1[rows, None], b1[rows, None]
        lower = values.take(i1[rows], axis=0)
        upper = values.take(i1[rows] + 1, axis=0)
        if np.iscomplexobj(values):
            lower, upper = np.abs(lower), np.abs(upper)
            # squared in place as np.abs(v) ** 2 squares, so the intensity is bit-equal
            lower *= lower
            upper *= upper
        # the indices are in range; mode="clip" lets take write into block and t unbuffered
        lower.take(ih, axis=1, out=block, mode="clip")
        block *= a
        block *= ah
        lower.take(ih + 1, axis=1, out=t, mode="clip")
        t *= a
        t *= bh
        block += t
        upper.take(ih, axis=1, out=t, mode="clip")
        t *= b
        t *= ah
        block += t
        upper.take(ih + 1, axis=1, out=t, mode="clip")
        t *= b
        t *= bh
        block += t
        block[~in1[rows]] = 0.0
        block[:, ~inh] = 0.0
    return out


def spectrum_from_field(
    field: GridField2D | GridIntensity2D, shape: tuple[int, int] | None = None
) -> Spectrum2D:
    """Resample a spectral grid field, or its intensity, onto uniform wavelength axes.

    The wavelength axes span the field's band, end to end, with shape
    samples per axis (default: the field's own counts).  The intensity
    is interpolated bilinearly in angular frequency by two separable
    index gathers, one per axis, and is zero outside the sampled band;
    it is then multiplied by the frequency-to-wavelength Jacobian and
    scaled so the peak bin holds 1e4 counts.  Simulated spectra
    therefore carry float 'counts' usable directly as Poisson means.
    Values stored herald-major (F-ordered, as a delay sweep's intensity
    is) are resampled through their transpose, so each gather reads
    contiguous rows.
    """
    w1 = field.axis1.points
    wh = field.axis_h.points
    m1, mh = (field.axis1.n, field.axis_h.n) if shape is None else shape
    lam1 = np.linspace(
        units.angular_to_wavelength(w1[-1]) * 1e9,
        units.angular_to_wavelength(w1[0]) * 1e9,
        m1,
    )
    lamh = np.linspace(
        units.angular_to_wavelength(wh[-1]) * 1e9,
        units.angular_to_wavelength(wh[0]) * 1e9,
        mh,
    )
    wq1 = units.TWO_PI * units.C_LIGHT / (lam1 * 1e-9)
    wqh = units.TWO_PI * units.C_LIGHT / (lamh * 1e-9)
    values = field.values
    if values.flags.f_contiguous and not values.flags.c_contiguous:
        # back to row-major, as the Jacobian's row blocks and the render read it
        counts = np.ascontiguousarray(_bilinear_intensity(values.T, wh, w1, wqh, wq1).T)
    else:
        counts = _bilinear_intensity(values, w1, wh, wq1, wqh)
    jac1, jach = wq1 / lam1, wqh / lamh
    for rows in row_blocks(jac1.size, jach.size):
        counts[rows] *= jac1[rows, None] * jach
    peak = counts.max()
    if not np.isfinite(peak):
        raise ValueError("field intensity is not finite on the wavelength grid")
    if peak <= 0.0:
        raise DegenerateDataError("field intensity vanishes on the wavelength grid")
    counts /= peak
    counts *= 1e4
    return Spectrum2D(lam1, lamh, counts)


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


def calibrate_phasematching(sweep_data, cfg: LensConfig, state: GaussianJSA) -> CalibrationResult:
    """Fit the acceptance width to a measured signal-tunability slope.

    sweep_data is a sequence of (delay s, signal center rad/s) pairs,
    at least three of them; their least-squares slope is the calibration
    target.  The acceptance width is solved on the closed-form core, by
    bisecting its log bracket to 1e-12 for a root of the signal-center
    slope, which is monotone in the width, and one grid
    delay sweep at the same delays with that width, on delay_sweep's
    default grids, supplies the achieved slope and the residual.  A
    target within 1 percent of the core's unrestricted slope returns the
    infinite model, with its slope from one sweep; a target more than 1
    percent above it (restriction can only slow the signal tuning) or
    below the bracket, 1e-4 to 1e3 times hypot(sigma1, escort sigma),
    raises CalibrationError with the bracket diagnostics.

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
        sweep = delay_sweep(dc_replace(cfg, phasematching=model), state, taus)
        return CalibrationResult(
            model=model,
            target_slope=target,
            achieved_slope=sweep.signal_slope,
            residual=sweep.signal_slope - target,
        )

    slope_open = core_slope(math.inf)
    if abs(target) > abs(slope_open) * 1.01 or target * slope_open < 0.0:
        raise CalibrationError(
            f"target slope {target:.4e} is outside the reachable range "
            f"(unrestricted slope {slope_open:.4e}, shrinking toward 0 with "
            "tighter phasematching)"
        )
    if abs(target - slope_open) <= 0.01 * abs(slope_open):
        return result(PhasematchingModel.infinite())

    sigma3_scale = math.hypot(state.sigma1, cfg.escort.sigma)
    lo, hi = 1e-4 * sigma3_scale, 1e3 * sigma3_scale
    f_lo = core_slope(lo) - target
    f_hi = core_slope(hi) - target
    if f_lo * f_hi > 0.0:
        raise CalibrationError(
            f"no acceptance width in [{lo:.3e}, {hi:.3e}] rad/s reproduces slope "
            f"{target:.4e} (bracket slopes {f_lo + target:.4e}, {f_hi + target:.4e})"
        )
    a, b = math.log(lo), math.log(hi)
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if (core_slope(math.exp(mid)) - target) * f_lo > 0.0 else (a, mid)
    return result(model_for(math.exp(0.5 * (a + b))))
