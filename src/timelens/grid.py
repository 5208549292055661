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

The lens signal chirp is one complex factor per signal sample
(lens_chirp): simulate and sweep sample the unchirped state once, and the
factor multiplies the input inside each block's transform.

The FFT path's block loops, sampling (sample_jsa), the convolution
(_fft_blocks, which sfg_convolve feeds each block's forward transform
through _transform_rows) and a sweep's one input transform
(_input_spectrum), run on up to _MAX_WORKERS threads when they have at
least _THREAD_MIN_BLOCKS blocks (_run_blocks).  The threads are started
and joined inside each call, so none is alive between calls, and none is
left when gridio forks.  Every block writes rows of its own, and each
sum across blocks, an output's edge bands or a sweep's w3 marginal, adds
per-block partials in block order, so every output is byte-identical for
any thread count.  numpy releases the interpreter lock inside its ufunc
loops and transforms, and np.fft may be called from several threads at
once: numpy's own suite checks it (TestFFTThreadSafe in
numpy/fft/tests/test_pocketfft.py, as of 2.4.6), and on numpy 2.0, the
oldest pyproject.toml admits, CI's job on that version runs these
loops.  A thread calls jsa_amplitude and numpy only, never a public
function of this package.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import MIN_GRID_SAMPLES, ConfigError
from .lens import LensConfig, gaussian_output
from .states import EscortPulse, GaussianJSA, PhasematchingModel, escort_amplitude, jsa_amplitude

NORM_TOLERANCE = 1e-6
EDGE_MASS_LIMIT = 1e-5
APERTURE_WEIGHT_RATIO = 1e-3
# the grid planner refuses a run whose grid_bytes estimate exceeds this
GRID_BYTES_LIMIT = 2**30
# default cells per row block of row_blocks: 1 MB of complex128, so a
# block and its temporaries stay near the 2 MB L2 cache
_BLOCK_CELLS = 2**16
# most threads that _run_blocks spreads one loop over; 2 is the only count
# measured (a 2-vCPU Xeon), a larger one is untested
_MAX_WORKERS = 2
# a loop of fewer blocks runs on the calling thread alone.  In a size scan
# on a 2-vCPU Xeon, sample_jsa's loop ran 6-11% slower on two threads below
# 32 blocks and broke even at 32; the FFT loops gained 1.4-2x from 8 blocks,
# some 2-5 ms a call, while the second thread's workspace and malloc arena
# added 1-3 MB to the peak RSS
_THREAD_MIN_BLOCKS = 32
# compute_stats zeroes the Gram's factor parts below the square root of
# the smallest normal double, so no product of two kept parts is subnormal
_GRAM_FLOOR = math.sqrt(np.finfo(float).tiny)
# cells per column tile of compute_stats' Gram: its fastest on 512 and 1024
# columns with one OpenBLAS thread on a 2-vCPU Xeon
_GRAM_TILE_CELLS = 2**15
# bytes of a heatmap panel per display cell once it is rendered: the
# wavelength counts (8), the render's RGB image, PNG rows and join beside
# them (9) and the per-axis vectors (1)
_PANEL_BYTES = 18
# bytes per cell of the panel resampling's row block of gathered
# neighbour rows, with the block's term: complex rows and their moduli
# (16 + 16 + 8 + 8 + 8), or rows of a real intensity (8 + 8 + 8)
_GATHER_BYTES_COMPLEX = 56
_GATHER_BYTES_REAL = 24
# bytes per cell of the colormap's row block of temporaries, beside the
# counts and the RGB image (11 bytes per display cell)
_COLORMAP_BYTES = 72
# the run's Python objects and small arrays, the PNG and SVG text of a
# small panel among them
_OBJECT_BYTES = 2**19
# the runs grid_bytes estimates: a sweep, and simulate writing its field
# dumps in either format
COMMANDS = ("sweep", "simulate-bin", "simulate-csv")


class CoverageError(ValueError):
    """Grid does not hold the requested feature to the required mass."""


class ApertureError(ValueError):
    """Too few delay-sweep rows lie inside the temporal aperture to fit a slope."""


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
        if self.n < MIN_GRID_SAMPLES:
            raise ValueError(f"grid must have at least {MIN_GRID_SAMPLES} samples")

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
class _Sampled2D:
    """Values on a 2D grid (first axis x herald axis), held as a read-only view."""

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


@dataclass(frozen=True, eq=False)
class GridIntensity2D(_Sampled2D):
    """Joint intensity sampled on a 2D grid (first axis x herald axis).

    A delay sweep hands each delay's output to its panel as this record,
    scaled to discrete norm one: values[i1, ih] is a transposed view of
    the herald-major array the sweep writes, so it is F-ordered.
    """


@dataclass(frozen=True, eq=False)
class GridField2D(_Sampled2D):
    """Complex amplitude sampled on a 2D grid (first axis x herald axis)."""

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        return float(np.sum(self.intensity()) * self.cell)


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
class StatsReport(IntensityMoments):
    """Intensity moments and Schmidt mode count of a sampled joint field."""

    schmidt_k: float


@dataclass(frozen=True)
class SweepPoint:
    """One delay's output moments and conversion weight."""

    tau: float
    moments: IntensityMoments
    weight: float
    aperture_warning: bool


@dataclass(frozen=True)
class SweepResult:
    """Per-delay rows and the center lines fitted through the valid ones.

    slope_rows counts the rows not flagged outside the aperture, the
    only rows the slopes and intercepts are fitted on; input_samples is
    the signal-axis sample count of the input grid.
    """

    points: tuple[SweepPoint, ...]
    signal_slope: float
    herald_slope: float
    signal_intercept: float
    herald_intercept: float
    slope_rows: int
    input_samples: int


def _gaussian_tail_mass(center: float, sigma: float, lo: float, hi: float) -> float:
    sq2 = math.sqrt(2.0)
    return 0.5 * (
        math.erfc((center - lo) / (sigma * sq2)) + math.erfc((hi - center) / (sigma * sq2))
    )


def grids_for_state(
    state: GaussianJSA, n: int = 512, nh: int | None = None, span_sigmas: float = 6.0
) -> tuple[Grid1D, Grid1D]:
    """Grids covering the state's marginals to +-span_sigmas on each axis."""
    nh = n if nh is None else nh
    g1 = Grid1D.centered(state.omega1, span_sigmas * state.sigma1, n)
    gh = Grid1D.centered(state.omegah, span_sigmas * state.sigmah, nh)
    return g1, gh


def sample_jsa(state: GaussianJSA, grid1: Grid1D, gridh: Grid1D) -> GridField2D:
    """Sample the joint amplitude on the grid pair, with discrete norm exactly one.

    The marginal mass falling outside either grid must not exceed 1e-4,
    otherwise a CoverageError is raised.  Rows are sampled in blocks of
    about _BLOCK_CELLS cells into one array, on threads when there are
    enough blocks (_run_blocks), which is then normalized in place.
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
    values = np.empty((grid1.n, gridh.n), dtype=complex)

    def sample(index, rows):
        values[rows] = jsa_amplitude(state, w1[rows], wh)

    _run_blocks(row_blocks(grid1.n, gridh.n), lambda: sample)
    field = GridField2D(grid1, gridh, values)
    norm = field.norm()
    if norm <= 0.0:
        raise NormalizationError("field has zero norm")
    # field views values, so this normalizes it with no second copy
    values /= math.sqrt(norm)
    return field


def default_output_grid(
    state: GaussianJSA, escort: EscortPulse, half_span: float, step: float, n: int
) -> Grid1D:
    """Output-frequency grid on the input step, centered on the nominal sum frequency.

    n is the least sample count, raised to cover the half span on the
    given step, which the FFT path needs equal to the input step.  Actual
    coverage is always enforced numerically by the convolution's
    edge-mass check.
    """
    n = max(n, 2 * math.ceil(half_span / step) + 1)
    center = state.omega1 + escort.center
    return Grid1D(start=center - step * (n - 1) / 2.0, step=step, n=n)


def lens_chirp(cfg: LensConfig, state: GaussianJSA, axis1: Grid1D) -> np.ndarray:
    """The lens signal chirp on the signal axis, one complex factor per sample.

    exp(i signal_chirp (w1 - state.omega1)^2), with the phase formed as
    jsa_amplitude forms the state's own chirp: the state sampled on
    axis1 times this factor per signal row is the chirped state,
    replace(state, chirp=state.chirp + cfg.signal_chirp), sampled there,
    to rounding.
    """
    d1 = axis1.points - state.omega1
    return np.exp(1j * (cfg.signal_chirp * d1**2))


def sfg_convolve(
    field: GridField2D,
    escort: EscortPulse,
    pm: PhasematchingModel = PhasematchingModel.infinite(),
    tau: float = 0.0,
    *,
    out_grid: Grid1D,
    method: str = "direct",
    chirp: np.ndarray | None = None,
) -> tuple[GridField2D, float]:
    """Upconvert the sampled input field with a chirped escort.

    The output amplitude on frequency w3 is the escort-weighted sum over
    input frequencies w1 of the field times escort_amplitude(w3 - w1),
    multiplied by the phasematching acceptance in w3.  chirp, when
    given, is one complex factor per signal sample that multiplies the
    input first (lens_chirp, so an unchirped sample serves as the
    chirped input), and a relative delay tau multiplies the input by
    exp(-i w1 tau).  Returns the renormalized output field together with
    the pre-normalization norm (the relative conversion weight).
    CoverageError is raised when that weight is zero or when the
    two-sample bands along the output grid's edges hold more than
    EDGE_MASS_LIMIT of the intensity.  The weight and the edge bands are
    summed per block of herald columns of the output, and the blocks'
    sums are added in block order, so no whole-output intensity is
    formed.

    method="direct" evaluates the kernel sum exactly per output sample,
    with the chirp and delay phase applied to the input.  method="fft"
    is a fast path requiring equal steps on the input and output axes
    (ResamplingRequiredError otherwise).  It convolves one block of
    herald rows at a time (_fft_blocks): each block is transformed
    forward into its thread's workspace, chirp included
    (_transform_rows), multiplied by the kernel spectrum and transformed
    back, and its kept rows, times the output factor step * exp(-i w3
    tau), are written into that block's herald columns of the output,
    from whichever thread ran the block.  Both paths agree to better
    than 1e-9.
    """
    w3 = out_grid.points
    step = field.axis1.step
    nh = field.axis_h.n
    acceptance = None
    if not pm.is_infinite:
        acceptance = pm.amplitude(w3, field.axis1.center + escort.center)[:, None]
    out_values = np.empty((out_grid.n, nh), dtype=complex)
    row_total = np.empty(nh)
    edges = {}

    def accumulate(index, rows):
        # the block's columns of the output: acceptance, then the sums
        block = out_values[:, rows]
        if acceptance is not None:
            block *= acceptance
        intensity = np.abs(block)
        intensity *= intensity
        row_total[rows] = intensity.sum(axis=0)
        edges[index] = intensity[:2].sum() + intensity[-2:].sum()

    if method == "direct":
        w1 = field.axis1.points
        values = field.values
        factor = chirp
        if tau != 0.0:
            delay = np.exp(-1j * w1 * tau)
            factor = delay if chirp is None else chirp * delay
        if factor is not None:
            values = values * factor[:, None]
        kernel = escort_amplitude(escort, w3[:, None] - w1[None, :])
        np.matmul(kernel, values, out=out_values)
        out_values *= step
        for index, rows in enumerate(row_blocks(nh, out_grid.n)):
            accumulate(index, rows)
    elif method == "fft":
        if not math.isclose(out_grid.step, step, rel_tol=1e-9):
            raise ResamplingRequiredError(
                f"fft path needs equal steps, got output {out_grid.step} "
                f"vs input {step}; resample or use method='direct'"
            )
        factor = step
        if tau != 0.0:
            factor = step * np.exp(-1j * w3 * tau)[:, None]

        def forward(rows, kspec, out):
            _transform_rows(field.values, rows, chirp, out)
            out *= kspec

        def multiply(index, rows, kept):
            np.multiply(kept.T, factor, out=out_values[:, rows])
            accumulate(index, rows)

        _fft_blocks(forward, nh, field.axis1, escort, tau, out_grid, multiply)
    else:
        raise ValueError(f"unknown convolution method: {method!r}")

    total = row_total.sum()
    weight = float(total * (out_grid.step * field.axis_h.step))
    # the blocks' edge sums in block order, whichever thread took each block
    edge = sum(edges[index] for index in range(len(edges)))
    _check_output(weight, edge + row_total[:2].sum() + row_total[-2:].sum(), total)
    out_values /= math.sqrt(weight)
    return GridField2D(out_grid, field.axis_h, out_values), weight


def _check_output(weight: float, edge: float, total: float) -> None:
    """CoverageError for a zero conversion weight or edge bands above EDGE_MASS_LIMIT.

    edge is the intensity summed over the two-sample bands along the
    output grid's four edges, and total over the whole grid.
    """
    if weight <= 0.0:
        raise CoverageError("conversion weight is zero; no overlap on the grid")
    frac = edge / total
    if frac > EDGE_MASS_LIMIT:
        raise CoverageError(
            f"output grid clips the field: edge bands hold {frac:.2e} of the "
            f"intensity (limit {EDGE_MASS_LIMIT:.0e}); widen or recenter the output grid"
        )


def _fft_blocks(
    forward: Callable[[slice, np.ndarray, np.ndarray], None],
    n_rows: int,
    axis1: Grid1D,
    escort: EscortPulse,
    tau: float,
    out_grid: Grid1D,
    consume: Callable[[int, slice, np.ndarray], None],
) -> None:
    """The FFT path's convolution, one block of the n_rows herald rows at a time.

    The circular convolution has length next_fast_len(n_in + n_out - 1)
    along the input axis; the n_out rows kept never wrap at that length,
    so they are the linear convolution.  The delay phase is split as
    exp(-i w1 tau) = exp(i (w3 - w1) tau) exp(-i w3 tau): the first factor
    goes onto the escort kernel here, and the second, with the step, is
    the output factor the caller applies, so the input's transform does
    not depend on tau and a sweep computes it once.  Per block of about
    _BLOCK_CELLS cells, index counting blocks from 0, forward(rows,
    kspec, out) writes the input's transform of the block's herald rows,
    times kspec, the kernel's transform, into out, the running thread's
    workspace; then consume(index, rows, kept) is called, kept[j, k]
    being herald row rows[j] at output sample k, before the output
    factor, a view of that workspace that the thread's next block
    overwrites.  The blocks run through _run_blocks, one workspace per
    thread, so forward and consume may be called from several threads at
    once and must write only into rows of their own.
    """
    n1, n3 = axis1.n, out_grid.n
    size = _next_fast_len(n1 + n3 - 1)
    offsets = out_grid.start - axis1.start + (np.arange(n3 + n1 - 1) - (n1 - 1)) * axis1.step
    kvec = escort_amplitude(escort, offsets)
    if tau != 0.0:
        kvec *= np.exp(1j * offsets * tau)
    kspec = np.fft.fft(kvec, n=size)
    # rows n1-1 .. n1+n3-2 of the linear convolution read kernel
    # indices 0 .. n1+n3-2 only, so any length >= n1+n3-1 is exact
    blocks = row_blocks(n_rows, size)

    def worker():
        workspace = np.empty((blocks[0].stop, size), dtype=complex)

        def convolve(index, rows):
            circular = workspace[: rows.stop - rows.start]
            forward(rows, kspec, circular)
            np.fft.ifft(circular, out=circular)
            consume(index, rows, circular[:, n1 - 1 : n1 - 1 + n3])

        return convolve

    _run_blocks(blocks, worker)


def _transform_rows(
    values: np.ndarray, rows: slice, chirp: np.ndarray | None, out: np.ndarray
) -> None:
    """Transform along w1 of the herald rows `rows` of values, into out.

    values is an n_in x nh input; out has one row per herald row and the
    FFT path's circular length.  Each row is the input column times the
    chirp factor per signal sample when one is given, zero-padded to
    that length and transformed in place, so no temporary of the block
    is made.
    """
    n1 = values.shape[0]
    head = out[:, :n1]
    if chirp is None:
        np.copyto(head, values[:, rows].T)
    else:
        np.multiply(values[:, rows].T, chirp, out=head)
    out[:, n1:] = 0.0
    np.fft.fft(out, out=out)


def _input_spectrum(field: GridField2D, n_out: int, chirp: np.ndarray) -> np.ndarray:
    """The whole input's transform for an n_out-sample convolution: a sweep's, kept for every delay.

    One row per herald sample, of length next_fast_len(n_in + n_out - 1),
    the FFT path's circular length, each the input column times the
    chirp factor (_transform_rows); herald rows are transformed in
    blocks of about _BLOCK_CELLS cells, on threads when there are enough
    blocks (_run_blocks), straight into the result.
    """
    n1, nh = field.values.shape
    size = _next_fast_len(n1 + n_out - 1)
    spectrum = np.empty((nh, size), dtype=complex)

    def transform(index, rows):
        _transform_rows(field.values, rows, chirp, spectrum[rows])

    _run_blocks(row_blocks(nh, size), lambda: transform)
    return spectrum


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth length >= n, scipy.fft.next_fast_len's rule for complex input."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def weighted_moments(weights: np.ndarray, x1: np.ndarray, xh: np.ndarray) -> tuple:
    """(mean1, meanh, var1, varh, cov) of a nonnegative, unnormalized 2D weight."""
    total = weights.sum()
    mean1, var1 = _marginal_moments(weights.sum(axis=1) / total, x1)
    meanh, varh = _marginal_moments(weights.sum(axis=0) / total, xh)
    cov = float((x1 - mean1) @ weights @ (xh - meanh)) / total
    return mean1, meanh, var1, varh, cov


def _marginal_moments(p: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the normalized 1D weight p on the points x."""
    mean = float(p @ x)
    return mean, float(p @ (x - mean) ** 2)


def _moments_record(mean1, meanh, var1, varh, cov, norm: float) -> IntensityMoments:
    """IntensityMoments of weighted_moments' five numbers and the norm."""
    if var1 <= 0.0 or varh <= 0.0:
        raise ValueError("zero marginal variance; correlation undefined")
    return IntensityMoments(
        mean1=mean1,
        meanh=meanh,
        sigma1=math.sqrt(var1),
        sigmah=math.sqrt(varh),
        rho=cov / math.sqrt(var1 * varh),
        norm=norm,
    )


def intensity_moments(field: GridField2D) -> IntensityMoments:
    """Centers, widths and correlation of the sampled intensity.

    The field must be normalized to within 1e-6.
    """
    # one intensity pass: the norm as norm() computes it, then the weights
    intensity = field.intensity()
    norm = float(np.sum(intensity) * field.cell)
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise NormalizationError(
            f"field norm {norm} differs from 1 beyond {NORM_TOLERANCE:.0e}; "
            "normalize before computing statistics"
        )
    intensity *= field.cell
    moments = weighted_moments(intensity, field.axis1.points, field.axis_h.points)
    return _moments_record(*moments, norm=norm)


def compute_stats(field: GridField2D) -> StatsReport:
    """Intensity moments plus the singular-value mode count.

    The field must be normalized to within 1e-6.  The Schmidt number is
    1 over the sum of squared normalized Schmidt coefficients, obtained
    from the singular values of the amplitude matrix A.  The squared
    singular values are the eigenvalues of the Gram matrix G, so
    K = tr(G)^2 / ||G||_F^2 with no decomposition; G is taken on the
    smaller side, B^H B with B = A for a tall or square A and B = A^T
    (giving the conjugate of A A^H, same K) for a wide one.

    G is summed over row blocks of B.  In each block's copy, a real or
    imaginary part below _GRAM_FLOOR is zeroed first, so no product of
    two kept parts is subnormal; a zeroed part moves an entry of G by
    less than _GRAM_FLOOR times the largest |B| per summed row, some
    1e-140 of G's diagonal on the bundled states, far below K's
    rounding.  G is Hermitian, so only the column tiles on and above its
    diagonal are formed, each as a product with the block's leading
    columns; no full-size copy of A or n x n product is made.
    """
    moments = intensity_moments(field)
    a = field.values
    tall = a.shape[0] >= a.shape[1]
    side = min(a.shape)
    tiles = row_blocks(side, side, _GRAM_TILE_CELLS)
    # upper[j] holds rows :stop of tile j's columns: its diagonal block last
    upper = [np.zeros((cols.stop, cols.stop - cols.start), dtype=complex) for cols in tiles]
    for rows in row_blocks(max(a.shape), side):
        _add_block_gram(upper, tiles, a[rows] if tall else a[:, rows].T)
    trace = frobenius_sq = 0.0
    for tile, cols in zip(upper, tiles):
        above, diagonal = tile[: cols.start], tile[cols.start :]
        trace += float(np.trace(diagonal).real)
        frobenius_sq += 2.0 * float(np.vdot(above, above).real)
        frobenius_sq += float(np.vdot(diagonal, diagonal).real)
    return StatsReport(**asdict(moments), schmidt_k=trace**2 / frobenius_sq)


def _add_block_gram(upper: list[np.ndarray], tiles: list[slice], rows: np.ndarray) -> None:
    """Add the tiles on and above the diagonal of rows^H rows, rows floored in a copy, to upper."""
    block = np.array(rows, order="C")
    parts = block.view(float)
    np.copyto(parts, 0.0, where=np.abs(parts) < _GRAM_FLOOR)
    conj = block.conj()
    for tile, cols in zip(upper, tiles):
        tile += conj[:, : cols.stop].T @ block[:, cols]


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
    state: GaussianJSA, escort: EscortPulse, span_sigmas: float, max_tau: float,
    out_half_span: float,
) -> int:
    """Power-of-two sample count (512 to 16384) resolving the spectral phases on the input axis.

    The bound keeps the per-sample phase increment of the chirp, escort
    kernel, and delay phases below pi/2 inside the regions where the
    amplitudes are non-negligible, and keeps at least three samples per
    escort kernel width.  The escort kernel only matters where its
    envelope survives and where the output grid looks, whichever window
    is smaller.
    """
    half1 = span_sigmas * state.sigma1
    kernel_window = min(span_sigmas * escort.sigma, half1 + out_half_span)
    slope = (
        2.0 * abs(state.chirp) * half1 + 2.0 * abs(escort.chirp) * kernel_window + abs(max_tau)
    )
    step_phase = math.pi / (2.0 * slope) if slope > 0.0 else math.inf
    step_kernel = escort.sigma / 3.0
    step = min(step_phase, step_kernel)
    n = max(512, int(math.ceil(2.0 * half1 / step)))
    n = 2 ** math.ceil(math.log2(n))
    return min(n, 16384)


def _run_blocks(blocks: list[slice], worker: Callable[[], Callable[[int, slice], None]]) -> None:
    """Run a block loop: worker() once per thread, then its body(index, rows) per block.

    A loop of at least _THREAD_MIN_BLOCKS blocks is spread over as many
    threads as the process may run on CPUs, at most _MAX_WORKERS: this
    one and the rest started here, which take the blocks in order from
    one shared queue.  A shorter loop, or one CPU, runs every block on
    this thread and starts none.  Each body must write rows of its own
    only, and a sum across blocks must be taken afterwards in block
    order, so no result depends on the thread count.  Once a body
    raises, no thread takes another block, and the first exception is
    raised again after every thread has been joined, so no thread
    outlives the call.
    """
    count = 1
    # sched_getaffinity is missing on some POSIX systems (macOS)
    if len(blocks) >= _THREAD_MIN_BLOCKS and hasattr(os, "sched_getaffinity"):
        count = min(_MAX_WORKERS, len(os.sched_getaffinity(0)))
    if count == 1:
        body = worker()
        for index, rows in enumerate(blocks):
            body(index, rows)
        return
    queue = enumerate(blocks)
    lock = threading.Lock()
    errors = []

    def run():
        try:
            body = worker()
            while not errors:
                with lock:
                    task = next(queue, None)
                if task is None:
                    return
                body(*task)
        except BaseException as exc:  # raised again by the caller once all are joined
            errors.append(exc)

    threads = []
    try:
        for _ in range(count - 1):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
        run()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def row_blocks(n_rows: int, row_cells: int, budget: int = _BLOCK_CELLS) -> list[slice]:
    """Slices that take n_rows rows of row_cells cells, in order, about budget cells at a time.

    Every block holds at least one row, so a row wider than the budget
    is a block of its own, and only the last block may be short; fewer
    rows than one block, none included, make one slice.
    """
    rows = max(1, budget // max(1, row_cells))
    return [slice(r, min(r + rows, n_rows)) for r in range(0, max(1, n_rows), rows)]


def grid_bytes(n: int, nh: int, n_out: int, command: str) -> int:
    """Estimated peak bytes that numpy allocates in one command's FFT convolution run.

    Counted for complex n x nh inputs and n_out x nh outputs, 16 bytes a
    cell, and command, one of COMMANDS:

    - "sweep": its one input and the input's transform, size x nh with
      size = _next_fast_len(n + n_out - 1), while the transform is taken;
      then, the input released, the transform beside one delay's output
      intensity (8 bytes a cell), its per-block w3 marginals (8 bytes per
      output sample and block) and the larger of the blocks and a panel
      of the intensity.
    - "simulate-bin" (simulate --format bin, and validate's
      convolutions): its one input and the output, and on top the
      largest of the blocks, compute_stats of either field and a panel
      of either field.
    - "simulate-csv": the same, with the field CSV writer's parent
      (gridio.csv_writer_bytes) among the candidates on top.

    Both count the per-axis vectors, 64 bytes per input and output
    sample (the chirp, the grid points, the kernel and its spectrum), and
    _OBJECT_BYTES for the rest of the run's small objects.  The
    blocks are the FFT path's per-thread workspaces, about _BLOCK_CELLS
    cells of the circular length each (all nh rows when fewer),
    transformed in place through numpy's out=, and the kept rows'
    intensity (8 bytes per output cell); there is one per thread,
    _MAX_WORKERS of them when the loop has _THREAD_MIN_BLOCKS blocks,
    whatever the machine's CPU count.  compute_stats first takes a
    field's intensity and its |v| temporary (16 bytes a cell), then the
    upper Gram tiles on the smaller side with one row block, its
    conjugate and floor mask (34 bytes a cell), and one tile product.  A
    panel is drawn at display resolution, at most the plot box; it holds
    the largest of three moments, each beside the display's counts: the
    resampling's row block of gathered neighbour rows, the colormap's
    image and row block, and the rendered PNG and SVG text (see
    _PANEL_BYTES).  A peak narrower than 8 display bins asks for more
    samples, up to the field's own, and that is not counted.
    pocketfft's working buffers, about one transform row per thread, are
    allocated outside numpy and are not counted.
    """
    # gridio and svgplot import this module, so they are read at call time
    from .gridio import csv_writer_bytes
    from .svgplot import _BLOCK_CELLS as colormap_cells
    from .svgplot import PLOT_HEIGHT, PLOT_WIDTH

    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    size = _next_fast_len(n + n_out - 1)
    blocks = row_blocks(nh, size)
    workers = _MAX_WORKERS if len(blocks) >= _THREAD_MIN_BLOCKS else 1
    block = workers * blocks[0].stop * (16 * size + 8 * n_out)
    small = _OBJECT_BYTES + 64 * (n + n_out)
    shown_h = min(nh, PLOT_HEIGHT)

    def panel(display: int, gathered: int, per_gathered: int) -> int:
        colormap = 11 * display + _COLORMAP_BYTES * min(display, colormap_cells)
        gather = 8 * display + per_gathered * gathered
        return max(gather, colormap, _PANEL_BYTES * display)

    if command == "sweep":
        # the intensity is herald-major, so its panel is resampled along
        # the herald axis first, gathering rows of n_out samples
        shown = min(shown_h, max(1, _BLOCK_CELLS // n_out)) * n_out
        drawn = panel(min(n_out, PLOT_WIDTH) * shown_h, shown, _GATHER_BYTES_REAL)
        delay = 8 * n_out * (nh + len(blocks)) + max(block, drawn)
        return small + 16 * nh * size + max(16 * nh * n, delay)

    def stats(rows: int) -> int:
        side = min(rows, nh)
        tiles = row_blocks(side, side, _GRAM_TILE_CELLS)
        gram = 16 * sum(cols.stop * (cols.stop - cols.start) for cols in tiles)
        gram_block = 34 * row_blocks(max(rows, nh), side)[0].stop * side
        return max(16 * rows * nh, gram + gram_block + 16 * side * tiles[0].stop)

    def field_panel(rows: int) -> int:
        shown = min(rows, PLOT_WIDTH)
        gathered = min(shown, max(1, _BLOCK_CELLS // nh)) * nh
        return panel(shown * shown_h, gathered, _GATHER_BYTES_COMPLEX)

    moments = [block, stats(n), stats(n_out), field_panel(n), field_panel(n_out)]
    if command == "simulate-csv":
        moments.append(csv_writer_bytes(max(n, n_out), nh))
    return small + 16 * nh * (n + n_out) + max(moments)


def _planning_hints(cfg: LensConfig, state: GaussianJSA, max_tau: float, span_sigmas: float):
    """Output half span, center-drift margin and automatic n; the chirped state sets n."""
    # sizing hints only (coverage is enforced by the edge-mass check);
    # the core adds the lens chirp to the state itself
    moments = gaussian_output(cfg, state)
    margin = 1.5 * max_tau * abs(moments.slope3) + abs(moments.shift3)
    hint = moments.sigma3
    if not cfg.phasematching.is_infinite:
        open_cfg = replace(cfg, phasematching=PhasematchingModel.infinite())
        hint = max(hint, 0.05 * gaussian_output(open_cfg, state).sigma3)
    effective = replace(state, chirp=state.chirp + cfg.signal_chirp)
    out_half = span_sigmas * hint + margin
    auto = suggested_input_samples(effective, cfg.escort, span_sigmas, max_tau, out_half)
    return out_half, margin, auto


def prepare_sweep(
    cfg: LensConfig,
    state: GaussianJSA,
    taus,
    n: int | None = None,
    nh: int = 512,
    n_out: int = 512,
    span_sigmas: float = 6.0,
    command: str = "sweep",
) -> tuple[GridField2D, Grid1D]:
    """Plan the grids of an FFT convolution run and sample the unchirped input.

    The one grid planner of simulate and sweep.  The input state is
    sampled as it is: the lens signal chirp is the caller's to pass on,
    lens_chirp(cfg, state, field.axis1), to sfg_convolve or the sweep's
    transform, and the chirped state only sizes the automatic n.  The
    output grid, centered on the nominal sum frequency, spans the
    output-width hint plus a margin for the center drift over the delays
    and the shift of an off-nominal acceptance, on the input step.
    command names the run planned for, as grid_bytes takes it.  Before
    sampling, ConfigError is raised if that command's grid_bytes exceeds
    GRID_BYTES_LIMIT or the output grid reaches zero frequency.
    """
    taus = np.asarray(list(taus), dtype=float)
    max_tau = float(np.max(np.abs(taus)))
    out_half, margin, auto = _planning_hints(cfg, state, max_tau, span_sigmas)
    n = auto if n is None else n
    g1, gh = grids_for_state(state, n=n, nh=nh, span_sigmas=span_sigmas)
    out_grid = default_output_grid(state, cfg.escort, out_half, g1.step, n_out)
    need = grid_bytes(g1.n, gh.n, out_grid.n, command)
    if need > GRID_BYTES_LIMIT:
        raise ConfigError(
            f"{g1.n} x {gh.n} input and {out_grid.n} x {gh.n} output samples "
            f"need about {need / 2**30:.2f} GiB, above the {GRID_BYTES_LIMIT / 2**30:.2f} GiB "
            "limit; set a smaller [grid] n, herald_n or output_n, or a narrower delay range"
        )
    if out_grid.start <= 0.0:
        raise ConfigError(
            f"the {out_grid.n}-sample output grid starts at {out_grid.start:.3e} rad/s, at or "
            f"below zero frequency (center {out_grid.center:.3e} rad/s, center-drift margin "
            f"{margin:.3e} rad/s for delays up to {max_tau * 1e12:.3g} ps)"
        )
    return sample_jsa(state, g1, gh), out_grid


def _output_intensity(
    spectrum: np.ndarray,
    axis1: Grid1D,
    axis_h: Grid1D,
    escort: EscortPulse,
    pm: PhasematchingModel,
    tau: float,
    out_grid: Grid1D,
) -> tuple[GridIntensity2D, IntensityMoments, float]:
    """One delay of a sweep as output intensity only: its record, moments and weight.

    spectrum is the input's transform on the grids axis1 x axis_h, lens
    chirp included (_input_spectrum).  The FFT path's blocks (_fft_blocks)
    are taken as sfg_convolve takes them, each block's rows of spectrum
    times the kernel spectrum standing in for its forward transform, but
    the output factor step * exp(-i w3 tau) has modulus step, so each
    block's kept rows enter as |kept|^2, times the acceptance squared when
    finite, written into one herald-major array.  While a block is in cache
    its herald-row totals, its w3 marginal and each herald row's first
    moment along w3 are summed; the blocks' w3 marginals are added
    afterwards in block order, whichever thread ran each.  From those sums
    come the conversion weight, step^2 * cell times the total
    (sfg_convolve's weight), the same CoverageErrors, and the moments; the
    array is then scaled to unit discrete norm.  No complex output is
    formed, and the intensity is taken once.
    """
    w3, wh = out_grid.points, axis_h.points
    acceptance = None
    if not pm.is_infinite:
        acceptance = pm.amplitude(w3, axis1.center + escort.center) ** 2
    # first moments about the grid center, so the covariance cancels little
    d3 = w3 - out_grid.center
    intensity = np.empty((axis_h.n, out_grid.n))
    row_total = np.empty(axis_h.n)
    row_first = np.empty(axis_h.n)
    partials = {}

    def accumulate(index, rows, kept):
        block = intensity[rows]
        np.abs(kept, out=block)
        block *= block
        if acceptance is not None:
            block *= acceptance
        row_total[rows] = block.sum(axis=1)
        row_first[rows] = block @ d3
        partials[index] = block.sum(axis=0)

    def forward(rows, kspec, out):
        np.multiply(spectrum[rows], kspec, out=out)

    _fft_blocks(forward, axis_h.n, axis1, escort, tau, out_grid, accumulate)
    # the w3 marginal adds the blocks' partials in block order, whichever
    # thread took each block
    marginal3 = np.zeros(out_grid.n)
    for index in range(len(partials)):
        marginal3 += partials[index]
    total = row_total.sum()
    cell = out_grid.step * axis_h.step
    weight = float(axis1.step**2 * total * cell)
    edge = marginal3[:2].sum() + marginal3[-2:].sum() + row_total[:2].sum() + row_total[-2:].sum()
    _check_output(weight, edge, total)
    mean1, var1 = _marginal_moments(marginal3 / total, w3)
    meanh, varh = _marginal_moments(row_total / total, wh)
    cov = float((wh - meanh) @ (row_first - (mean1 - out_grid.center) * row_total)) / total
    scale = axis1.step**2 / weight
    intensity *= scale
    moments = _moments_record(mean1, meanh, var1, varh, cov, norm=float(total * scale * cell))
    return GridIntensity2D(out_grid, axis_h, intensity.T), moments, weight


def delay_sweep(
    cfg: LensConfig,
    state: GaussianJSA,
    taus,
    n: int | None = None,
    nh: int = 512,
    n_out: int = 512,
    span_sigmas: float = 6.0,
    panel: Callable[[int, float, GridIntensity2D, IntensityMoments], None] | None = None,
) -> SweepResult:
    """Upconvert the state at each delay and regress the output centers.

    The input state is sampled once, unchirped, on the grids of
    :func:`prepare_sweep`, transformed once with the lens signal chirp
    (lens_chirp, _input_spectrum), and convolved per delay on the FFT
    path from that one transform; the sampled values are released once
    transformed.  Each delay is taken
    as output intensity only (_output_intensity): no complex output
    field is formed.  Centers are intensity-weighted means.  A
    CoverageError at one delay is raised again naming that delay.  Rows
    whose conversion weight falls below 1e-3 of the sweep maximum are
    flagged as outside the temporal aperture, and the reported slopes
    and intercepts come from unweighted least-squares lines through the
    unflagged rows only; fewer than two of them raise ApertureError.
    panel, when given, is called as panel(index, tau, intensity,
    moments) on each delay's GridIntensity2D, normalized to unit
    discrete norm, and its moments before the next delay is convolved,
    so one output intensity is alive at a time however many delays
    there are.
    """
    taus = np.asarray(list(taus), dtype=float)
    if taus.size < 2:
        raise ValueError("a sweep needs at least two delay values")
    field, out_grid = prepare_sweep(
        cfg, state, taus, n=n, nh=nh, n_out=n_out, span_sigmas=span_sigmas
    )
    axis1, axis_h = field.axis1, field.axis_h
    # the FFT path puts the delay phase on the kernel, so one transform
    # of the input serves every delay
    spectrum = _input_spectrum(field, out_grid.n, lens_chirp(cfg, state, axis1))
    del field
    points = []
    for index, tau in enumerate(taus):
        try:
            intensity, moments, weight = _output_intensity(
                spectrum, axis1, axis_h, cfg.escort, cfg.phasematching, float(tau), out_grid
            )
        except CoverageError as exc:
            note = ""
            max_tau = float(np.max(np.abs(taus)))
            auto = _planning_hints(cfg, state, max_tau, span_sigmas)[2]
            if n is not None and auto > n:
                # a given n is never checked against the delay phase exp(-i w1 tau)
                note = (
                    f"; the input axis has the given {n} samples, and n = auto would pick "
                    f"{auto} to resolve the delay phase up to {max_tau * 1e12:.3g} ps"
                )
            raise CoverageError(f"at delay {tau * 1e12:+.3f} ps: {exc}{note}") from exc
        points.append((float(tau), moments, weight))
        if panel is not None:
            panel(index, float(tau), intensity, moments)
        # free this delay's output before the next one is convolved
        del intensity

    max_weight = max(w for _, _, w in points)
    rows = tuple(
        SweepPoint(tau, moments, weight, weight < APERTURE_WEIGHT_RATIO * max_weight)
        for tau, moments, weight in points
    )
    valid = np.array([not r.aperture_warning for r in rows])
    n_valid = int(valid.sum())
    if n_valid < 2:
        raise ApertureError(
            f"only {n_valid} of {len(rows)} sweep rows lie inside the temporal "
            "aperture; a slope needs at least two"
        )
    centers = np.array([(r.moments.mean1, r.moments.meanh) for r in rows])
    sig_slope, sig_icpt = np.polyfit(taus[valid], centers[valid, 0], 1)
    her_slope, her_icpt = np.polyfit(taus[valid], centers[valid, 1], 1)
    return SweepResult(
        points=rows,
        signal_slope=float(sig_slope),
        herald_slope=float(her_slope),
        signal_intercept=float(sig_icpt),
        herald_intercept=float(her_icpt),
        slope_rows=n_valid,
        input_samples=axis1.n,
    )
