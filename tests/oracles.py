"""Independent oracles used to freeze expected values.

These implementations deliberately avoid the package's code paths: the
output moments come from assembling the complex Gaussian quadratic form
of the upconverted amplitude and inverting a 2x2 matrix, and again from
the paper's hand-expanded width and correlation formulas, the
normalization checks from composite Simpson quadrature, expected
deconvolutions from direct quadrature subtraction, heatmap colors
from fancy-indexing whole rows of the color ramp, the FFT convolution
at zero delay from one full-width transform of the whole input,
Schmidt numbers from a full singular value decomposition and from one
unfloored Gram matrix summed exactly, joint amplitudes with one complex
exponential per cell, field CSV files from one formatted tuple per
grid point, wavelength resampling from scipy's RegularGridInterpolator
on a full meshgrid of query points, Gaussian fits from scipy's bounded
trust-region least squares, and Monte Carlo error bars from the
linearized least-squares covariance and from a trial loop that refits
each trial with that trust-region fit, from the intensity moments or
from the observed fit.  Tests compare the
package against numbers produced here, and the two engines against each
other.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

TWO_PI = 2.0 * math.pi
C_LIGHT = 299_792_458.0
FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))


def output_moments(
    sigma1: float,
    sigmah: float,
    rho: float,
    a1: float,
    sigmae: float,
    ae: float,
    pm_sigma: float = math.inf,
):
    """Second moments of the upconverted joint intensity.

    Returns (sigma3, sigmah_f, rho_f, dcenter3_dtau, dcenterh_dtau)
    from the complex Gaussian quadratic form of the convolved amplitude.
    """
    m = 1.0 - rho**2
    a = 1.0 / (4.0 * sigma1**2 * m)
    b = 1.0 / (4.0 * sigmah**2 * m)
    c = rho / (2.0 * sigma1 * sigmah * m)
    alpha = a - 1j * a1
    gamma_e = 1.0 / (4.0 * sigmae**2) - 1j * ae
    p = alpha + gamma_e
    q33 = 2.0 * (alpha * gamma_e / p).real
    if math.isfinite(pm_sigma):
        q33 += 0.5 / pm_sigma**2
    qhh = 2.0 * b - 0.5 * c**2 * (1.0 / p).real
    q3h = -c * (gamma_e / p).real
    det = q33 * qhh - q3h**2
    sigma3 = math.sqrt(qhh / (2.0 * det))
    sigmah_f = math.sqrt(q33 / (2.0 * det))
    rho_f = -q3h / math.sqrt(q33 * qhh)
    l3 = 2.0 * (gamma_e / p).imag
    lh = c * (1.0 / p).imag
    slope3 = (qhh * l3 - q3h * lh) / (2.0 * det)
    slopeh = (q33 * lh - q3h * l3) / (2.0 * det)
    return sigma3, sigmah_f, rho_f, slope3, slopeh


def expanded_output_moments(
    sigma1: float, sigmah: float, rho: float, a1: float, sigmae: float, ae: float
):
    """Paper's hand-expanded output width and correlation (unrestricted acceptance).

    Returns (sigma3, rho_f) written in the width ratio s = sigmae / sigma1
    and the chirps scaled by 4 sigma1^2; a second derivation next to the
    quadratic form of output_moments.
    """
    s = sigmae / sigma1
    u1 = 4.0 * a1 * sigma1**2
    ue = 4.0 * ae * sigma1**2
    uo = u1 + ue
    m = 1.0 - rho**2
    num3 = (2.0 - rho**2) * s**2 + s**4 + m * (1.0 + uo**2 * s**4)
    den3 = s**2 + m * (1.0 + u1**2 * s**2 + ue**2 * s**4)
    sigma3 = sigma1 * math.sqrt(num3 / den3)
    num_r = rho * (s**2 + m * (1.0 + ue * uo * s**4))
    den_r = s**2 + m * (1.0 + u1**2 * m * s**2 + ue**2 * s**4)
    rho_f = num_r / math.sqrt(den_r * num3)
    return sigma3, rho_f


def simpson_2d(values, x1, xh) -> float:
    """scipy's composite-Simpson integral of values over the grid x1 x xh."""
    from scipy.integrate import simpson

    return float(simpson(simpson(values, x=xh, axis=1), x=x1))


def simpson_norm(state_amplitude, center1, centerh, sigma1, sigmah, n=801, span=6.0):
    """Composite-Simpson integral of |amplitude|^2 over a +-span sigma box."""
    w1 = np.linspace(center1 - span * sigma1, center1 + span * sigma1, n)
    wh = np.linspace(centerh - span * sigmah, centerh + span * sigmah, n)
    return simpson_2d(np.abs(state_amplitude(w1[:, None], wh[None, :])) ** 2, w1, wh)


def minor_axis_fwhm(sigma1: float, sigmah: float, rho: float) -> float:
    """FWHM along the minor covariance axis via explicit eigendecomposition."""
    cov = np.array(
        [[sigma1**2, rho * sigma1 * sigmah], [rho * sigma1 * sigmah, sigmah**2]]
    )
    lam = np.linalg.eigvalsh(cov)
    return FWHM * math.sqrt(lam[0])


def quadrature_deconvolve(fwhm_raw: float, resolution_sigma: float) -> float:
    """Quadrature subtraction of a Gaussian response from a FWHM."""
    return math.sqrt(fwhm_raw**2 - (FWHM * resolution_sigma) ** 2)


def ramp_colors(values, ramp: np.ndarray) -> np.ndarray:
    """RGB bytes of values in [0, 1], linear between the rows of an (m, 3) ramp."""
    v = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    pos = v * (ramp.shape[0] - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, ramp.shape[0] - 1)
    frac = (pos - lo)[..., None]
    rgb = ramp[lo] * (1.0 - frac) + ramp[hi] * frac
    return np.round(rgb).astype(np.uint8)


def fft_convolve_one_shot(field, escort, pm, out_grid):
    """(values, weight) of the zero-delay FFT convolution, all herald rows at once.

    The herald-major copy of the input is transformed at the full
    next_fast_len(n_in + n_out - 1) length, multiplied by the kernel's
    transform and transformed back in one call; the kept rows are copied
    out, scaled by the step, weighted by the acceptance, and divided by
    the square root of the weight into a new array.
    """
    import scipy.fft

    from timelens.states import escort_amplitude

    n1, n3 = field.axis1.n, out_grid.n
    step = field.axis1.step
    offsets = out_grid.start - field.axis1.start + (np.arange(n3 + n1 - 1) - (n1 - 1)) * step
    size = scipy.fft.next_fast_len(n1 + n3 - 1)
    spectrum = scipy.fft.fft(np.ascontiguousarray(field.values.T), n=size, axis=-1)
    spectrum *= scipy.fft.fft(escort_amplitude(escort, offsets), n=size)
    circular = scipy.fft.ifft(spectrum, axis=-1, overwrite_x=True)
    values = np.ascontiguousarray(circular[:, n1 - 1 : n1 - 1 + n3].T) * step
    if not pm.is_infinite:
        nominal = field.axis1.center + escort.center
        values = values * pm.amplitude(out_grid.points, nominal)[:, None]
    weight = float(np.sum(np.abs(values) ** 2) * (out_grid.step * field.axis_h.step))
    return values / math.sqrt(weight), weight


def svd_schmidt_number(values: np.ndarray) -> float:
    """1 over the sum of squared normalized Schmidt coefficients, from the SVD."""
    s = np.linalg.svd(values, compute_uv=False)
    lam = s**2 / np.sum(s**2)
    return float(1.0 / np.sum(lam**2))


def gram_schmidt_number(values: np.ndarray) -> float:
    """K = tr(G)^2 / ||G||_F^2 from one unfloored Gram G, its sums rounded once.

    G is the full product on the smaller side; its trace and squared
    Frobenius norm are summed with math.fsum, so the only rounding left
    is the product's own.
    """
    a = values
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    trace = math.fsum(np.diagonal(gram).real)
    frobenius_sq = math.fsum((gram.real**2).ravel()) + math.fsum((gram.imag**2).ravel())
    return trace**2 / frobenius_sq


def jsa_amplitude(state, omega1, omegah):
    """Joint spectral amplitude with one complex exponential per cell."""
    d1 = np.asarray(omega1, dtype=float) - state.omega1
    dh = np.asarray(omegah, dtype=float) - state.omegah
    m = 1.0 - state.rho**2
    prefactor = 1.0 / math.sqrt(2.0 * math.pi * state.sigma1 * state.sigmah) / m**0.25
    quad = (
        -(d1**2) / (4.0 * state.sigma1**2)
        - dh**2 / (4.0 * state.sigmah**2)
        + state.rho * d1 * dh / (2.0 * state.sigma1 * state.sigmah)
    ) / m
    phase = state.chirp * d1**2 - np.asarray(omega1, dtype=float) * state.delay
    return prefactor * np.exp(quad + 1j * phase)


def write_field_csv_rows(field, path, header: str) -> None:
    """Field CSV written one grid point at a time, each value as %.17g."""
    w1 = np.repeat(field.axis1.points, field.axis_h.n)
    wh = np.tile(field.axis_h.points, field.axis1.n)
    intensity = field.intensity().ravel()
    phase = np.angle(field.values).ravel()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(w1, wh, intensity, phase):
            fh.write("%.17g,%.17g,%.17g,%.17g\n" % row)


FIT_KEYS = (
    "amplitude",
    "signal_center_nm",
    "herald_center_nm",
    "signal_fwhm_nm",
    "herald_fwhm_nm",
    "rho",
    "offset",
)


def gaussian_jacobian(params, lambda1_nm, lambdah_nm) -> np.ndarray:
    """Derivatives of the fit surface by the FIT_KEYS parameters, one row per bin.

    Written from the precision-matrix form: with d = (l1 - c1, lh - ch)
    and P the inverse of the covariance [[s1^2, rho s1 sh], [rho s1 sh,
    sh^2]], the surface is offset + amplitude exp(-q / 2) with q = d^T P d,
    and every shape derivative is -amplitude exp(-q / 2) / 2 times that
    of q.  The width derivatives are by FWHM = FWHM-factor x sigma.
    """
    s1 = params.sigma1_nm
    sh = params.sigmah_nm
    rho = params.rho
    m = 1.0 - rho**2
    d1 = np.asarray(lambda1_nm, dtype=float)[:, None] - params.center1_nm
    dh = np.asarray(lambdah_nm, dtype=float)[None, :] - params.centerh_nm
    p11, p12, phh = 1.0 / (m * s1**2), -rho / (m * s1 * sh), 1.0 / (m * sh**2)
    q = p11 * d1**2 + 2.0 * p12 * d1 * dh + phh * dh**2
    e = np.exp(-0.5 * q)
    dq = (
        -2.0 * (p11 * d1 + p12 * dh),
        -2.0 * (p12 * d1 + phh * dh),
        (-2.0 * p11 * d1**2 - 2.0 * p12 * d1 * dh) / s1 / FWHM,
        (-2.0 * phh * dh**2 - 2.0 * p12 * d1 * dh) / sh / FWHM,
        (2.0 * rho * q - 2.0 * d1 * dh / (s1 * sh)) / m,
    )
    cols = [e] + [-0.5 * params.amplitude * e * g for g in dq] + [np.ones_like(e)]
    return np.stack([c.ravel() for c in cols], axis=1)


def linearized_errorbars(spec, params) -> dict:
    """Poissonian error bars of the unweighted fit, linearized at params.

    The sandwich (J^T J)^-1 J^T diag(counts) J (J^T J)^-1 with the
    Jacobian of gaussian_jacobian: the covariance of a least-squares
    estimate whose bins are independent with variance equal to their
    observed counts, to first order in the fluctuations.
    """
    jac = gaussian_jacobian(params, spec.lambda1_nm, spec.lambdah_nm)
    scale = np.linalg.norm(jac, axis=0)
    js = jac / scale
    bread = np.linalg.inv(js.T @ js)
    meat = (js.T * spec.counts.ravel()) @ js
    cov = bread @ meat @ bread / np.outer(scale, scale)
    return dict(zip(FIT_KEYS, np.sqrt(np.diag(cov))))


def trf_fit(spec, start=None):
    """timelens.analysis.fit_gaussian_2d solved by scipy's bounded trust-region fit.

    The same start (the intensity moments unless start is given), the
    same bounds and the same residual and Jacobian, minimized by
    least_squares(method="trf", x_scale="jac") with xtol 1e-10 and at
    most 1000 evaluations.  ftol and gtol are 1e-15: at 1e-12 the fit
    stopped up to 3e-6 (relative) short of the optimum on low-count
    histograms, where each Gauss-Newton step removes only a fifth of
    the error.  Raises FitConvergenceError when it does not converge.
    """
    from scipy.optimize import least_squares

    from timelens import analysis

    l1, lh, counts = spec.lambda1_nm, spec.lambdah_nm, spec.counts
    init = analysis._moment_initialization(l1, lh, counts)
    lower, upper = analysis._fit_bounds(l1, lh)
    result = least_squares(
        lambda p: analysis._gaussian_residuals(p, l1, lh, counts)[0],
        np.clip(astuple(init if start is None else start), lower, upper),
        jac=lambda p: analysis._gaussian_residuals(p, l1, lh, counts)[1].T,
        bounds=(lower, upper),
        method="trf",
        xtol=1e-10,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=1000,
        x_scale="jac",
    )
    if not result.success:
        raise analysis.FitConvergenceError(f"fit did not converge: {result.message}")
    return analysis.GaussianFitParams(*result.x.tolist())


def trf_trials(spec, res, n_trials: int, seed: int, start):
    """Monte Carlo trials refit one by one with the trust-region fit.

    The per-trial loop of timelens.analysis.montecarlo_errorbars with the
    same per-trial generators: every resampled histogram is refit by
    trf_fit from start, or from its own intensity moments when start is
    None, then deconvolved when res is given.  Returns (per-trial values
    by key, over the successful trials in order; failure counts by
    exception name).
    """
    from timelens import analysis

    children = np.random.SeedSequence(seed).spawn(n_trials)
    samples: dict = {}
    failures: dict = {}
    for child in children:
        rng = np.random.default_rng(child)
        resampled = analysis.Spectrum2D(
            spec.lambda1_nm, spec.lambdah_nm, rng.poisson(spec.counts).astype(float)
        )
        try:
            fit = trf_fit(resampled, start=start)
            values = {f"raw_{k}": v for k, v in analysis.fit_values(fit).items()}
            if res is not None:
                dec = analysis.deconvolve_resolution(fit, res)
                values.update({f"dec_{k}": v for k, v in analysis.fit_values(dec).items()})
        except (
            analysis.DegenerateDataError,
            analysis.FitConvergenceError,
            analysis.UnphysicalDeconvolutionError,
        ) as exc:
            failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
            continue
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
    return samples, failures


def moment_started_errorbars(spec, res, n_trials: int, seed: int):
    """Monte Carlo error bars with every refit started from its intensity moments.

    trf_trials with no start: each refit begins at the moment estimate
    of its own resampled histogram instead of at the observed fit.
    Returns (errors by key, failure counts by exception name).
    """
    samples, failures = trf_trials(spec, res, n_trials, seed, None)
    return {k: float(np.std(v, ddof=1)) for k, v in samples.items()}, failures


def bilinear_reference(values, grid1, gridh, x1, xh) -> np.ndarray:
    """scipy's RegularGridInterpolator evaluated on the grid x1 x xh.

    Linear in both axes with fill value 0 off the grid: every query
    point of a full meshgrid is searched on both axes.
    """
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        (grid1, gridh), values, method="linear", bounds_error=False, fill_value=0.0
    )
    return interp(np.stack(np.meshgrid(x1, xh, indexing="ij"), axis=-1))


def spectrum_from_field_reference(field, shape=None):
    """(lambda1_nm, lambdah_nm, counts) of a field resampled by bilinear_reference.

    The wavelength axes (shape samples, default the field's own counts),
    Jacobian and 1e4 peak scaling of timelens.analysis.spectrum_from_field,
    with the whole intensity interpolated over a full meshgrid of query
    points.
    """
    w1 = field.axis1.points
    wh = field.axis_h.points
    m1, mh = (w1.size, wh.size) if shape is None else shape
    lam1 = np.linspace(TWO_PI * C_LIGHT / w1[-1] * 1e9, TWO_PI * C_LIGHT / w1[0] * 1e9, m1)
    lamh = np.linspace(TWO_PI * C_LIGHT / wh[-1] * 1e9, TWO_PI * C_LIGHT / wh[0] * 1e9, mh)
    wq1 = TWO_PI * C_LIGHT / (lam1 * 1e-9)
    wqh = TWO_PI * C_LIGHT / (lamh * 1e-9)
    intensity = bilinear_reference(field.intensity(), w1, wh, wq1, wqh)
    counts = intensity * ((wq1[:, None] / lam1[:, None]) * (wqh[None, :] / lamh[None, :]))
    return lam1, lamh, counts / counts.max() * 1e4


def thz_per_ps(slope_rad_per_s2: float) -> float:
    return slope_rad_per_s2 / TWO_PI * 1e-24


def sigma_rad_to_fwhm_nm(sigma: float, center_nm: float) -> float:
    """Sigma in rad/s to FWHM in nm, first order: dlambda = lambda^2 dnu / c."""
    return FWHM * sigma / TWO_PI * (center_nm * 1e-9) ** 2 / C_LIGHT * 1e9


# Measured operating point used across the acceptance tests
SIGMA1 = 4.909e12       # rad/s, from a 1.840 THz FWHM marginal
SIGMAH = 5.427e12       # rad/s, from a 2.034 THz FWHM marginal
RHO_IN = -0.9776
A1 = 6.96e-25           # s^2 (696e3 fs^2)
AE = -3.44e-25          # s^2 (-344e3 fs^2)
SIGMAE = 7.38e12        # rad/s
OMEGA1 = TWO_PI * C_LIGHT / 811.006e-9
OMEGAH = TWO_PI * C_LIGHT / 740.194e-9
OMEGAE = TWO_PI * C_LIGHT / 774.6e-9
