"""Brute-force grid engine for two-photon spectra.

Complex joint amplitudes are sampled on uniform angular-frequency grids,
spectral phases are applied exactly, the sum-frequency convolution with
the escort is carried out either by direct summation or by an FFT fast
path, and every statistic is computed from the sampled intensity with no
reference to the closed forms.  This module is the independent numerical
cross-check for the analytic lens formulas.

All functions are pure and operate on immutable inputs.  A field holds
a read-only view of the array it is given, not a copy, so fields can be
shared freely across threads; the caller's own array stays writeable,
and writing to it changes the field.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.fft
from scipy.special import erfc

from .lens import LensConfig, gaussian_output
from .states import EscortPulse, GaussianJSA, PhasematchingModel, escort_amplitude, jsa_amplitude

NORM_TOLERANCE = 1e-6
EDGE_MASS_LIMIT = 1e-5
APERTURE_WEIGHT_RATIO = 1e-3


class CoverageError(ValueError):
    """Grid does not hold the requested feature to the required mass."""


class NormalizationError(ValueError):
    """Field norm differs from unity beyond tolerance."""


class ResamplingRequiredError(ValueError):
    """Grids with mismatched steps were passed to a step-aligned code path."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: first sample, step, and sample count."""

    start: float
    step: float
    n: int

    def __post_init__(self):
        if self.step <= 0.0:
            raise ValueError("grid step must be positive")
        if self.n < 16:
            raise ValueError("grid must have at least 16 samples")

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n)

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.n - 1)

    @property
    def center(self) -> float:
        return self.start + 0.5 * self.step * (self.n - 1)

    @classmethod
    def centered(cls, center: float, half_span: float, n: int) -> "Grid1D":
        if half_span <= 0.0:
            raise ValueError("half span must be positive")
        step = 2.0 * half_span / (n - 1)
        return cls(start=center - half_span, step=step, n=n)


@dataclass(frozen=True, eq=False)
class GridField2D:
    """Complex amplitude sampled on a 2D grid (first axis x herald axis)."""

    axis1: Grid1D
    axis_h: Grid1D
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.axis1.n, self.axis_h.n):
            raise ValueError(
                f"values shape {self.values.shape} does not match grids "
                f"({self.axis1.n}, {self.axis_h.n})"
            )
        view = self.values.view()
        view.setflags(write=False)
        object.__setattr__(self, "values", view)

    @property
    def cell(self) -> float:
        return self.axis1.step * self.axis_h.step

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        return float(np.sum(self.intensity()) * self.cell)

    def normalized(self) -> "GridField2D":
        n = self.norm()
        if n <= 0.0:
            raise NormalizationError("field has zero norm")
        return GridField2D(self.axis1, self.axis_h, self.values / math.sqrt(n))


@dataclass(frozen=True)
class IntensityMoments:
    """First and second moments of a sampled joint intensity."""

    mean1: float
    meanh: float
    sigma1: float
    sigmah: float
    rho: float
    norm: float


@dataclass(frozen=True)
class StatsReport:
    """Intensity moments and Schmidt mode count of a sampled joint field."""

    mean1: float
    meanh: float
    sigma1: float
    sigmah: float
    rho: float
    schmidt_k: float
    norm: float


@dataclass(frozen=True)
class SweepPoint:
    tau: float
    omega3_center: float
    omegah_center: float
    sigma3: float
    sigmah: float
    rho_f: float
    weight: float
    aperture_warning: bool


@dataclass(frozen=True)
class SweepResult:
    """Per-delay rows, the center lines fitted through the valid ones, and kept fields.

    slope_rows counts the rows not flagged outside the aperture, the
    only rows the slopes and intercepts are fitted on; fields holds the
    output fields of the first keep_fields delays.
    """

    points: tuple[SweepPoint, ...]
    signal_slope: float
    herald_slope: float
    signal_intercept: float
    herald_intercept: float
    slope_rows: int
    fields: tuple[GridField2D, ...] = ()


def _gaussian_tail_mass(center: float, sigma: float, lo: float, hi: float) -> float:
    sq2 = math.sqrt(2.0)
    return 0.5 * (erfc((center - lo) / (sigma * sq2)) + erfc((hi - center) / (sigma * sq2)))


def grids_for_state(
    state: GaussianJSA, n: int = 512, nh: int | None = None, span_sigmas: float = 6.0
) -> tuple[Grid1D, Grid1D]:
    """Grids covering the state's marginals to +-span_sigmas on each axis."""
    nh = n if nh is None else nh
    g1 = Grid1D.centered(state.omega1, span_sigmas * state.sigma1, n)
    gh = Grid1D.centered(state.omegah, span_sigmas * state.sigmah, nh)
    return g1, gh


def sample_jsa(
    state: GaussianJSA, grid1: Grid1D, gridh: Grid1D, normalize: bool = True
) -> GridField2D:
    """Sample the joint amplitude on the grid pair.

    The marginal mass falling outside either grid must not exceed 1e-4,
    otherwise a CoverageError is raised.  With normalize=True the
    discrete norm is set exactly to one; without it the samples carry
    the analytic normalization (discrete norm approaches one as the grid
    is refined).
    """
    outside = _gaussian_tail_mass(
        state.omega1, state.sigma1, grid1.start, grid1.stop
    ) + _gaussian_tail_mass(state.omegah, state.sigmah, gridh.start, gridh.stop)
    if outside > 1e-4:
        raise CoverageError(
            f"marginal mass outside grid is {outside:.2e} (limit 1e-4); widen the grids"
        )
    w1 = grid1.points[:, None]
    wh = gridh.points[None, :]
    values = jsa_amplitude(state, w1, wh)
    field = GridField2D(grid1, gridh, values)
    return field.normalized() if normalize else field


def default_output_grid(
    state: GaussianJSA,
    escort: EscortPulse,
    n: int = 512,
    span_sigmas: float = 6.0,
    extra_half_span: float = 0.0,
    sigma3_hint: float | None = None,
) -> Grid1D:
    """Output-frequency grid centered on the nominal sum frequency.

    By default the half span is span_sigmas times the unchirped
    convolution width sqrt(sigma1^2 + sigma_e^2), an upper bound on the
    output width for any chirp combination.  A sigma3_hint narrows the
    span for strongly chirped configurations where the default would
    waste resolution; actual coverage is always enforced numerically by
    the convolution's edge-mass check.
    """
    width = sigma3_hint if sigma3_hint is not None else math.hypot(state.sigma1, escort.sigma)
    return Grid1D.centered(
        state.omega1 + escort.center, span_sigmas * width + extra_half_span, n
    )


def sfg_output_grid(axis1: Grid1D, escort: EscortPulse) -> Grid1D:
    """Default output grid of :func:`sfg_convolve` for an input axis.

    The input half span widened by six escort widths, an upper bound on
    the output width for any chirp combination, centered on the sum of
    the input center and the escort center, with as many samples as the
    input axis.  A broad escort can push its start below zero frequency.
    """
    half_in = 0.5 * (axis1.stop - axis1.start)
    half = math.hypot(half_in, 6.0 * escort.sigma)
    return Grid1D.centered(axis1.center + escort.center, half, axis1.n)


def _check_edge_mass(field: GridField2D, band: int = 2):
    intensity = field.intensity()
    total = intensity.sum()
    if total <= 0.0:
        raise CoverageError("output field is identically zero on the grid")
    edge = (
        intensity[:band, :].sum()
        + intensity[-band:, :].sum()
        + intensity[:, :band].sum()
        + intensity[:, -band:].sum()
    )
    frac = edge / total
    if frac > EDGE_MASS_LIMIT:
        raise CoverageError(
            f"output grid clips the field: edge bands hold {frac:.2e} of the "
            f"intensity (limit {EDGE_MASS_LIMIT:.0e}); widen or recenter the output grid"
        )


def sfg_convolve(
    field: GridField2D,
    escort: EscortPulse,
    pm: PhasematchingModel = PhasematchingModel.infinite(),
    tau: float = 0.0,
    out_grid: Grid1D | None = None,
    method: str = "direct",
) -> tuple[GridField2D, float]:
    """Upconvert the sampled input field with a chirped escort.

    The output amplitude on frequency w3 is the escort-weighted sum over
    input frequencies w1 of the field times escort_amplitude(w3 - w1),
    multiplied by the phasematching acceptance in w3.  A relative delay
    tau applies the phase exp(-i w1 tau) to the input.  Returns the
    renormalized output field together with the pre-normalization norm
    (the relative conversion weight).

    method="direct" evaluates the kernel sum exactly per output sample;
    method="fft" is a fast path requiring equal steps on the input and
    output axes (ResamplingRequiredError otherwise).  It takes a circular
    convolution of length next_fast_len(n_in + n_out - 1) along the
    input axis; the n_out rows it keeps never wrap at that length, so
    the result is the linear one.  Both agree to better than 1e-9.
    """
    if out_grid is None:
        out_grid = sfg_output_grid(field.axis1, escort)

    w1 = field.axis1.points
    values = field.values
    if tau != 0.0:
        values = values * np.exp(-1j * w1 * tau)[:, None]

    w3 = out_grid.points
    if method == "direct":
        kernel = escort_amplitude(escort, w3[:, None] - w1[None, :])
        out_values = kernel @ values * field.axis1.step
    elif method == "fft":
        if not math.isclose(out_grid.step, field.axis1.step, rel_tol=1e-9):
            raise ResamplingRequiredError(
                f"fft path needs equal steps, got output {out_grid.step} "
                f"vs input {field.axis1.step}; resample or use method='direct'"
            )
        n1, n3 = field.axis1.n, out_grid.n
        offsets = out_grid.start - field.axis1.start + (np.arange(n3 + n1 - 1) - (n1 - 1)) * field.axis1.step
        kvec = escort_amplitude(escort, offsets)
        # rows n1-1 .. n1+n3-2 of the linear convolution read kernel
        # indices 0 .. n1+n3-2 only, so any length >= n1+n3-1 is exact;
        # transform the herald-major copy along its contiguous last axis
        size = scipy.fft.next_fast_len(n1 + n3 - 1)
        spectrum = scipy.fft.fft(np.ascontiguousarray(values.T), n=size, axis=-1)
        spectrum *= scipy.fft.fft(kvec, n=size)
        circular = scipy.fft.ifft(spectrum, axis=-1, overwrite_x=True)
        out_values = np.ascontiguousarray(circular[:, n1 - 1 : n1 - 1 + n3].T) * field.axis1.step
    else:
        raise ValueError(f"unknown convolution method: {method!r}")

    nominal = field.axis1.center + escort.center
    if not pm.is_infinite:
        out_values = out_values * pm.amplitude(w3, nominal)[:, None]

    out = GridField2D(out_grid, field.axis_h, out_values)
    weight = out.norm()
    if weight <= 0.0:
        raise CoverageError("conversion weight is zero; no overlap on the grid")
    out = out.normalized()
    _check_edge_mass(out)
    return out, weight


def intensity_moments(field: GridField2D) -> IntensityMoments:
    """Centers, widths and correlation of the sampled intensity.

    The field must be normalized to within 1e-6.
    """
    norm = field.norm()
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise NormalizationError(
            f"field norm {norm} differs from 1 beyond {NORM_TOLERANCE:.0e}; "
            "normalize before computing statistics"
        )
    intensity = field.intensity() * field.cell
    total = intensity.sum()
    p1 = intensity.sum(axis=1) / total
    ph = intensity.sum(axis=0) / total
    x1 = field.axis1.points
    xh = field.axis_h.points
    mean1 = float(p1 @ x1)
    meanh = float(ph @ xh)
    var1 = float(p1 @ (x1 - mean1) ** 2)
    varh = float(ph @ (xh - meanh) ** 2)
    if var1 <= 0.0 or varh <= 0.0:
        raise ValueError("zero marginal variance; correlation undefined")
    cov = float((x1 - mean1) @ intensity @ (xh - meanh)) / total
    return IntensityMoments(
        mean1=mean1,
        meanh=meanh,
        sigma1=math.sqrt(var1),
        sigmah=math.sqrt(varh),
        rho=cov / math.sqrt(var1 * varh),
        norm=norm,
    )


def compute_stats(field: GridField2D) -> StatsReport:
    """Intensity moments plus the singular-value mode count.

    The field must be normalized to within 1e-6.  The Schmidt number is
    1 over the sum of squared normalized Schmidt coefficients, obtained
    from the singular values of the amplitude matrix A.  The squared
    singular values are the eigenvalues of the Gram matrix G, so
    K = tr(G)^2 / ||G||_F^2 with no decomposition; G is taken on the
    smaller side, A^H A for a tall or square A and A A^H for a wide one.
    """
    moments = intensity_moments(field)
    a = field.values
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    trace = float(np.trace(gram).real)
    frobenius_sq = float(np.vdot(gram, gram).real)
    return StatsReport(**asdict(moments), schmidt_k=trace**2 / frobenius_sq)


def _axis_to_time(grid: Grid1D, values: np.ndarray, axis: int) -> tuple[Grid1D, np.ndarray]:
    n = grid.n
    dt = 2.0 * math.pi / (n * grid.step)
    t = (np.arange(n) - n // 2) * dt
    k = np.arange(n)
    pre = np.exp(2j * math.pi * k * (n // 2) / n)
    shape = [1, 1]
    shape[axis] = n
    transformed = np.fft.fft(values * pre.reshape(shape), axis=axis)
    post = np.exp(-1j * grid.start * t) * grid.step / math.sqrt(2.0 * math.pi)
    transformed = transformed * post.reshape(shape)
    return Grid1D(start=float(t[0]), step=dt, n=n), transformed


def to_time_domain(field: GridField2D) -> GridField2D:
    """Joint temporal amplitude of a spectral field.

    Applies the exp(-i w t) transform on both axes with unitary scaling,
    so the norm is preserved (Parseval).  The returned grids are in
    seconds with span 2 pi over the frequency step.
    """
    taxis1, values = _axis_to_time(field.axis1, field.values, axis=0)
    taxish, values = _axis_to_time(field.axis_h, values, axis=1)
    return GridField2D(taxis1, taxish, values)


def suggested_input_samples(
    state: GaussianJSA,
    escort: EscortPulse,
    span_sigmas: float = 6.0,
    max_tau: float = 0.0,
    out_half_span: float | None = None,
    n_min: int = 512,
    n_max: int = 16384,
) -> int:
    """Power-of-two sample count resolving all spectral phases on the input axis.

    The bound keeps the per-sample phase increment of the chirp, escort
    kernel, and delay phases below pi/2 inside the regions where the
    amplitudes are non-negligible, and keeps at least three samples per
    escort kernel width.  The escort kernel only matters where its
    envelope survives and where the output grid looks, whichever window
    is smaller; pass out_half_span when the output grid is narrower than
    the default coverage rule.
    """
    half1 = span_sigmas * state.sigma1
    if out_half_span is None:
        out_half_span = span_sigmas * math.hypot(state.sigma1, escort.sigma)
    kernel_window = min(span_sigmas * escort.sigma, half1 + out_half_span)
    slope = (
        2.0 * abs(state.chirp) * half1 + 2.0 * abs(escort.chirp) * kernel_window + abs(max_tau)
    )
    step_phase = math.pi / (2.0 * slope) if slope > 0.0 else math.inf
    step_kernel = escort.sigma / 3.0
    step = min(step_phase, step_kernel)
    n = max(n_min, int(math.ceil(2.0 * half1 / step)))
    n = 2 ** math.ceil(math.log2(n))
    return min(n, n_max)


def prepare_sweep(
    cfg: LensConfig,
    state: GaussianJSA,
    taus,
    n: int | None = None,
    nh: int = 512,
    n_out: int = 512,
    span_sigmas: float = 6.0,
    method: str = "fft",
) -> tuple[GridField2D, Grid1D]:
    """Sample the chirped input and size an output grid for a delay sweep.

    The input state is augmented with the lens signal chirp and sampled
    once; the output grid is centered on the nominal sum frequency with
    a half span following the output-width hint plus a margin for the
    center drift across the requested delays and for the center shift
    of an off-nominal acceptance.  With the fft method the output grid
    is rebuilt on the input step.
    """
    taus = np.asarray(list(taus), dtype=float)
    effective = replace(state, chirp=state.chirp + cfg.signal_chirp)
    max_tau = float(np.max(np.abs(taus)))
    # sizing hints only (coverage is enforced by the edge-mass check);
    # the core adds the lens chirp to the state itself
    moments = gaussian_output(cfg, state)
    margin = 1.5 * max_tau * abs(moments.slope3) + abs(moments.shift3)
    hint = moments.sigma3
    if not cfg.phasematching.is_infinite:
        open_cfg = replace(cfg, phasematching=PhasematchingModel.infinite())
        hint = max(hint, 0.05 * gaussian_output(open_cfg, state).sigma3)
    out_half = span_sigmas * hint + margin
    if n is None:
        n = suggested_input_samples(
            effective, cfg.escort, span_sigmas, max_tau, out_half_span=out_half
        )
    g1, gh = grids_for_state(effective, n=n, nh=nh, span_sigmas=span_sigmas)
    field = sample_jsa(effective, g1, gh)

    out_grid = default_output_grid(
        effective,
        cfg.escort,
        n=n_out,
        span_sigmas=span_sigmas,
        extra_half_span=margin,
        sigma3_hint=hint,
    )
    if method == "fft" and not math.isclose(out_grid.step, g1.step, rel_tol=1e-9):
        # the fft fast path needs commensurate steps; rebuild the output
        # grid on the input step around the same span
        half = 0.5 * (out_grid.stop - out_grid.start)
        n_match = max(n_out, 2 * int(math.ceil(half / g1.step)) + 1)
        out_grid = Grid1D(
            start=out_grid.center - g1.step * (n_match - 1) / 2.0,
            step=g1.step,
            n=n_match,
        )
    return field, out_grid


def delay_sweep(
    cfg: LensConfig,
    state: GaussianJSA,
    taus,
    n: int | None = None,
    nh: int = 512,
    n_out: int = 512,
    span_sigmas: float = 6.0,
    method: str = "fft",
    out_grid: Grid1D | None = None,
    keep_fields: int = 0,
) -> SweepResult:
    """Upconvert the state at each delay and regress the output centers.

    The input state is augmented with the lens signal chirp, sampled
    once, and convolved per delay; centers are intensity-weighted means.
    Rows whose conversion weight falls below 1e-3 of the sweep maximum
    are flagged as outside the temporal aperture, and the reported
    slopes and intercepts come from unweighted least-squares lines
    through the unflagged rows only; fewer than two of them raise
    ValueError.  The output fields of the first keep_fields delays are
    kept in the result, for plotting.
    """
    taus = np.asarray(list(taus), dtype=float)
    if taus.size < 2:
        raise ValueError("a sweep needs at least two delay values")
    field, sized_grid = prepare_sweep(
        cfg, state, taus, n=n, nh=nh, n_out=n_out, span_sigmas=span_sigmas, method=method
    )
    if out_grid is None:
        out_grid = sized_grid

    points = []
    fields = []
    for tau in taus:
        out, weight = sfg_convolve(
            field, cfg.escort, cfg.phasematching, tau=float(tau), out_grid=out_grid, method=method
        )
        points.append((float(tau), intensity_moments(out), weight))
        if len(fields) < keep_fields:
            fields.append(out)

    max_weight = max(w for _, _, w in points)
    rows = tuple(
        SweepPoint(
            tau=tau,
            omega3_center=st.mean1,
            omegah_center=st.meanh,
            sigma3=st.sigma1,
            sigmah=st.sigmah,
            rho_f=st.rho,
            weight=weight,
            aperture_warning=weight < APERTURE_WEIGHT_RATIO * max_weight,
        )
        for tau, st, weight in points
    )
    valid = np.array([not r.aperture_warning for r in rows])
    n_valid = int(valid.sum())
    if n_valid < 2:
        raise ValueError(
            f"only {n_valid} of {len(rows)} sweep rows lie inside the temporal "
            "aperture; a slope needs at least two"
        )
    centers = np.array([(r.omega3_center, r.omegah_center) for r in rows])
    sig_slope, sig_icpt = np.polyfit(taus[valid], centers[valid, 0], 1)
    her_slope, her_icpt = np.polyfit(taus[valid], centers[valid, 1], 1)
    return SweepResult(
        points=rows,
        signal_slope=float(sig_slope),
        herald_slope=float(her_slope),
        signal_intercept=float(sig_icpt),
        herald_intercept=float(her_icpt),
        slope_rows=n_valid,
        fields=tuple(fields),
    )
