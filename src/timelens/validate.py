"""Self-validation suites: every documented invariant, runnable on demand.

Each suite returns (ok, detail).  The cross-engine suites compare the
closed-form lens predictions against the brute-force grid engine and are
sensitive to sub-percent errors in either.  check_closed_form is the
contract that the cross-engine suite, ``simulate`` and ``sweep`` share.
A NaN deviation always fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import lens, units
from .analysis import (
    GaussianFitParams,
    ResolutionModel,
    Spectrum2D,
    deconvolve_resolution,
    fit_gaussian_2d,
    g2_cross_correlation,
    gaussian2d_model,
    CountRates,
)
from .config import parse_config_text
from .grid import (
    IntensityMoments,
    compute_stats,
    default_output_grid,
    grids_for_state,
    intensity_moments,
    lens_chirp,
    prepare_sweep,
    sample_jsa,
    sfg_convolve,
    to_time_domain,
)
from .lens import LensConfig, OutputStatePrediction
from .states import (
    EscortPulse,
    GaussianJSA,
    chirped_temporal_width,
    jsa_amplitude,
    schmidt_number,
)

# largest gap between a grid output's moments and the closed form
CLOSED_FORM_TOLERANCE = 1e-3


class GridAccuracyError(RuntimeError):
    """A run's grid statistics stray from the closed form by more than CLOSED_FORM_TOLERANCE."""


def _worst(*devs) -> float:
    """Largest deviation, NaN if any is NaN (the builtin max drops a NaN after the first)."""
    return float(np.max(devs))


def closed_form_gaps(pred: OutputStatePrediction, moments: IntensityMoments) -> dict[str, float]:
    """Gaps of a grid output's moments from their closed-form prediction.

    Widths are relative to the prediction, rho absolute and the centers
    in units of the predicted width.
    """
    return {
        "signal sigma": abs(moments.sigma1 - pred.sigma3) / pred.sigma3,
        "herald sigma": abs(moments.sigmah - pred.sigmah_f) / pred.sigmah_f,
        "rho": abs(moments.rho - pred.rho_f),
        "signal center": abs(moments.mean1 - pred.omega3_center) / pred.sigma3,
        "herald center": abs(moments.meanh - pred.omegah_center) / pred.sigmah_f,
    }


def _off_closed_form(gaps: dict[str, float]) -> list[str]:
    """The gaps beyond CLOSED_FORM_TOLERANCE, each as "name (gap)"; a NaN gap is off."""
    return [f"{name} ({gap:.3g})" for name, gap in gaps.items() if not gap <= CLOSED_FORM_TOLERANCE]


def check_closed_form(row: str, n: int, pred, moments: IntensityMoments) -> None:
    """Raise GridAccuracyError if a grid output row strays from its closed-form prediction.

    pred is the row's lens.predict_output, moments the grid's own record
    of the row and n its input sample count.  The prediction is read only
    after the grid has its numbers, so neither engine reads the other.
    """
    off = _off_closed_form(closed_form_gaps(pred, moments))
    if off:
        raise GridAccuracyError(
            f"{row}: the grid's {', '.join(off)} differ from the closed form by more than "
            f"{CLOSED_FORM_TOLERANCE:g} on n = {n} input samples; a larger --grid or [grid] n "
            "may resolve it"
        )


@dataclass(frozen=True)
class SuiteParams:
    seed: int = 2024
    quick: bool = False

    @property
    def cross_configs(self) -> int:
        return 8 if self.quick else 40

    @property
    def grid_n(self) -> int:
        return 256 if self.quick else 512


def experimental_setup() -> tuple[GaussianJSA, LensConfig]:
    """State and lens settings of the bundled measured operating point."""
    text = (resources.files("timelens") / "configs" / "experimental.cfg").read_text()
    cfg = parse_config_text(text)
    return cfg.state, cfg.lens


def _random_state_and_lens(rng: np.random.Generator):
    scale = 1e12
    sigma1 = rng.uniform(0.7, 1.5) * scale
    sigmah = rng.uniform(0.7, 1.5) * scale
    sigmae = rng.uniform(0.3, 2.5) * scale
    rho = rng.uniform(-0.95, 0.95)
    while True:
        u1 = rng.uniform(-6.0, 6.0)
        ue = rng.uniform(-4.0, 4.0)
        if abs(u1 + ue) > 0.2:
            break
    a1 = u1 / (4.0 * sigma1**2)
    ae = ue / (4.0 * sigma1**2)
    state = GaussianJSA(
        omega1=2.32e15, omegah=2.54e15, sigma1=sigma1, sigmah=sigmah, rho=rho
    )
    escort = EscortPulse(center=2.43e15, sigma=sigmae, chirp=ae)
    return state, LensConfig(signal_chirp=a1, escort=escort)


def _upconverted(cfg: LensConfig, state: GaussianJSA, n: int, nh: int | None = None):
    """Unchirped input and output field at zero delay on the route simulate ships.

    The sweep planner's grids (n input samples, and at least n output
    samples on the input step) and the FFT path, the lens chirp applied
    in the convolution.
    """
    field, out_grid = prepare_sweep(
        cfg, state, [0.0], n=n, nh=n if nh is None else nh, n_out=n, command="simulate-bin"
    )
    out, _ = sfg_convolve(
        field, cfg.escort, cfg.phasematching, out_grid=out_grid, method="fft",
        chirp=lens_chirp(cfg, state, field.axis1),
    )
    return field, out


def suite_units_roundtrip(p: SuiteParams):
    rng = np.random.default_rng(p.seed)
    worst = 0.0
    for _ in range(200):
        lam = rng.uniform(3e-7, 2e-6)
        back = units.angular_to_wavelength(units.wavelength_to_angular(lam))
        worst = _worst(worst, abs(back - lam) / lam)
    if not worst <= 1e-12:
        return False, f"wavelength round trip error {worst:.2e} exceeds 1e-12"
    sig = units.fwhm_nm_to_sigma_rad(5.53, 774.6)
    rel = abs(sig - 7.38e12) / 7.38e12
    if not rel <= 2e-3:
        return False, f"escort width consistency off by {rel:.2e} (limit 2e-3)"
    return True, f"round trip {worst:.1e}; escort consistency {rel:.1e}"


def _simpson(values: np.ndarray, x: np.ndarray):
    """Composite Simpson integral along the last axis on a uniform grid x of odd length."""
    weights = np.tile([2.0, 4.0], x.size // 2 + 1)[: x.size]
    weights[0] = weights[-1] = 1.0
    return values @ weights * ((x[-1] - x[0]) / (x.size - 1) / 3.0)


def suite_jsa_normalization(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 1)
    worst = 0.0
    for _ in range(3 if p.quick else 6):
        state = GaussianJSA(
            omega1=2.3e15,
            omegah=2.5e15,
            sigma1=rng.uniform(0.5, 2.0) * 1e12,
            sigmah=rng.uniform(0.5, 2.0) * 1e12,
            rho=rng.uniform(-0.97, 0.97),
            chirp=rng.uniform(-1.0, 1.0) * 1e-25,
            delay=rng.uniform(-1.0, 1.0) * 1e-12,
        )
        w1 = np.linspace(-6 * state.sigma1, 6 * state.sigma1, 801) + state.omega1
        wh = np.linspace(-6 * state.sigmah, 6 * state.sigmah, 801) + state.omegah
        intensity = np.abs(jsa_amplitude(state, w1[:, None], wh[None, :])) ** 2
        total = _simpson(_simpson(intensity, wh), w1)
        worst = _worst(worst, abs(total - 1.0))
    ok = worst <= 1e-6
    return ok, f"max |integral - 1| = {worst:.2e} (limit 1e-6)"


def suite_phase_invariance(p: SuiteParams):
    state = GaussianJSA(
        omega1=2.3e15, omegah=2.5e15, sigma1=1.1e12, sigmah=0.9e12, rho=-0.8
    )
    g1, gh = grids_for_state(state, n=p.grid_n)
    bare = intensity_moments(sample_jsa(state, g1, gh))
    phased = intensity_moments(
        sample_jsa(replace(state, chirp=4e-25, delay=3e-12), g1, gh)
    )
    devs = [
        abs(bare.mean1 - phased.mean1) / state.omega1,
        abs(bare.meanh - phased.meanh) / state.omegah,
        abs(bare.sigma1 - phased.sigma1) / bare.sigma1,
        abs(bare.sigmah - phased.sigmah) / bare.sigmah,
        abs(bare.rho - phased.rho),
        abs(bare.norm - phased.norm),
    ]
    worst = _worst(*devs)
    return worst <= 1e-12, f"max moment change under phases {worst:.2e} (limit 1e-12)"


def suite_imaging_consistency(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 2)
    worst = 0.0
    n = 200 if p.quick else 1000
    for _ in range(n):
        a1 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        ae = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        if a1 + ae == 0.0:
            continue
        ao = lens.solve_imaging(signal_chirp=a1, escort_chirp=ae)
        m_spec, m_temp = lens.magnification(a1, ae)
        worst = _worst(worst, abs(m_spec - (-a1 / ao)), abs(m_spec * m_temp - 1.0))
    return worst <= 1e-12, f"max |M - (-A1/Ao)| = {worst:.2e} over {n} draws"


def suite_limit_consistency(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 3)
    worst_inf = 0.0
    for _ in range(10 if p.quick else 30):
        sigma1 = rng.uniform(0.7, 1.5) * 1e12
        rho = rng.uniform(-0.95, 0.95)
        a1 = rng.uniform(0.5, 3.0) / (4 * sigma1**2) * rng.choice([-1.0, 1.0])
        ae = rng.uniform(0.5, 3.0) / (4 * sigma1**2) * rng.choice([-1.0, 1.0])
        if abs(4 * (a1 + ae) * sigma1**2) < 0.3:
            continue
        state = GaussianJSA(
            omega1=2.3e15, omegah=2.5e15, sigma1=sigma1, sigmah=1.1e12, rho=rho
        )
        escort = EscortPulse(center=2.4e15, sigma=1e3 * sigma1, chirp=ae)
        cfg = LensConfig(signal_chirp=a1, escort=escort)
        s3 = lens.output_sigma3(cfg, state)
        rf = lens.output_correlation(cfg, state)
        s3_lim, rf_lim = lens.limit_infinite_escort(state, a1, ae)
        worst_inf = _worst(worst_inf, abs(s3 - s3_lim) / s3_lim, abs(rf - rf_lim))

    # unit-negative-magnification limit: measured operating point with the
    # chirps scaled tenfold so the large-chirp criterion holds strongly
    state, cfg = experimental_setup()
    worst_m1 = 0.0
    a1_big = 10.0 * cfg.signal_chirp
    for scale in (0.8, 1.0, 2.0):
        sigmae = scale * cfg.escort.sigma
        escort_m1 = EscortPulse(center=cfg.escort.center, sigma=sigmae, chirp=-a1_big / 2)
        cfg_m1 = LensConfig(signal_chirp=a1_big, escort=escort_m1)
        s3b = lens.output_sigma3(cfg_m1, state)
        rfb = lens.output_correlation(cfg_m1, state)
        s3b_lim, rfb_lim = lens.limit_m_minus1(state, sigmae)
        worst_m1 = _worst(worst_m1, abs(s3b - s3b_lim) / s3b_lim, abs(rfb - rfb_lim))
    ok = worst_inf <= 1e-3 and worst_m1 <= 5e-3
    return ok, (
        f"broad-escort limit dev {worst_inf:.2e} (limit 1e-3); "
        f"unit-negative-magnification dev {worst_m1:.2e} (limit 5e-3)"
    )


def suite_sign_law(p: SuiteParams):
    """Correlation reversal for an anti-chirped escort in the large-chirp regime.

    The sign flip needs the escort chirp phase to dominate the bare
    escort envelope, which holds once the escort is appreciably chirped
    and spectrally broad; the broad-escort closed form obeys the law for
    every large-chirp draw.
    """
    rng = np.random.default_rng(p.seed + 4)
    checked = 0
    for _ in range(600):
        sigma1 = rng.uniform(0.7, 1.5) * 1e12
        rho = rng.uniform(-0.9, 0.9)
        if abs(rho) < 0.05:
            continue
        ae = -rng.uniform(1.0, 4.0) / (4 * sigma1**2)  # anti-chirped escort
        a1 = rng.uniform(0.5, 8.0) / (4 * sigma1**2) * rng.choice([-1.0, 1.0])
        if lens.lcl_parameter(a1, ae, sigma1, rho) <= lens.LCL_THRESHOLD:
            continue
        expected = -math.copysign(1.0, rho) * math.copysign(1.0, a1 + ae)
        state = GaussianJSA(
            omega1=2.3e15, omegah=2.5e15, sigma1=sigma1, sigmah=1.1e12, rho=rho
        )
        draw = f"rho={rho:.3f}, u1={4 * a1 * sigma1**2:.2f}, ue={4 * ae * sigma1**2:.2f}"
        _, rf_limit = lens.limit_infinite_escort(state, a1, ae)
        # copysign reads a NaN's sign bit, so a NaN is named before any sign
        if not math.isfinite(rf_limit):
            return False, f"broad-escort output correlation is {rf_limit} at {draw}"
        if math.copysign(1.0, rf_limit) != expected:
            return False, f"broad-escort sign law violated at {draw}"
        escort = EscortPulse(center=2.4e15, sigma=rng.uniform(2.0, 4.0) * sigma1, chirp=ae)
        draw += f", se={escort.sigma / sigma1:.2f} sigma1"
        rf = lens.output_correlation(LensConfig(signal_chirp=a1, escort=escort), state)
        if not math.isfinite(rf):
            return False, f"output correlation is {rf} at {draw}"
        if math.copysign(1.0, rf) != expected:
            return False, f"sign law violated at {draw}"
        checked += 1
    return checked > 20, f"sign law held on {checked} large-chirp broad-escort draws"


def suite_rho_symmetry(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 5)
    worst = 0.0
    for _ in range(100):
        state, cfg = _random_state_and_lens(rng)
        flipped = replace(state, rho=-state.rho)
        s3, s3_flipped = lens.output_sigma3(cfg, state), lens.output_sigma3(cfg, flipped)
        rf, rf_flipped = lens.output_correlation(cfg, state), lens.output_correlation(cfg, flipped)
        worst = _worst(worst, abs(s3 - s3_flipped) / s3, abs(abs(rf) - abs(rf_flipped)))
    return worst <= 1e-12, f"max asymmetry under rho sign flip {worst:.2e}"


def suite_tunability_linearity(p: SuiteParams):
    state, cfg = experimental_setup()
    worst = 0.0
    for regime in (lens.IDEAL, lens.FILTER_LIMIT, lens.PHASEMATCH_LIMIT):
        base = lens.tunability(cfg, state, regime)
        for k in (2.0, 5.0, 0.5):
            scaled_cfg = replace(cfg, signal_chirp=cfg.signal_chirp * k)
            got = lens.tunability(scaled_cfg, state, regime)
            for b, g in zip(base, got):
                if b == 0.0:
                    worst = _worst(worst, abs(g))
                else:
                    worst = _worst(worst, abs(g - b / k) / abs(b / k))
    return worst <= 1e-12, f"slopes scale as 1/A1 to {worst:.1e} relative"


def suite_cross_engine(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 6)
    gaps = []
    for _ in range(p.cross_configs):
        state, cfg = _random_state_and_lens(rng)
        moments = intensity_moments(_upconverted(cfg, state, p.grid_n)[1])
        gaps.append(closed_form_gaps(lens.predict_output(cfg, state), moments))
    worst = {name: _worst(*(g[name] for g in gaps)) for name in gaps[0]}
    return not _off_closed_form(worst), (
        f"{p.cross_configs} configs at {p.grid_n}^2: max width dev {worst['signal sigma']:.2e} "
        f"rel, max correlation dev {worst['rho']:.2e} abs, max herald width dev "
        f"{worst['herald sigma']:.2e} rel, max center devs {worst['signal center']:.2e} and "
        f"{worst['herald center']:.2e} sigma (limits {CLOSED_FORM_TOLERANCE:g})"
    )


def suite_grid_refinement(p: SuiteParams):
    # the measured chirps need the default 512-point grid; quick mode
    # must not drop below it
    base = max(512, p.grid_n)
    state, cfg = experimental_setup()
    a, b = (compute_stats(_upconverted(cfg, state, n, nh=base)[1]) for n in (base, 2 * base))
    worst = _worst(
        abs(a.mean1 - b.mean1) / abs(b.mean1),
        abs(a.sigma1 - b.sigma1) / b.sigma1,
        abs(a.sigmah - b.sigmah) / b.sigmah,
        abs(a.rho - b.rho),
        abs(a.schmidt_k - b.schmidt_k) / b.schmidt_k,
    )
    return worst <= 1e-4, f"halving the step changes stats by {worst:.2e} (limit 1e-4)"


def suite_time_domain(p: SuiteParams):
    state, cfg = experimental_setup()
    chirped = replace(state, chirp=cfg.signal_chirp)
    g1, gh = grids_for_state(chirped, n=2048, nh=256, span_sigmas=8.0)
    field = sample_jsa(chirped, g1, gh)
    jta = to_time_domain(field)
    parseval = abs(jta.norm() - 1.0)
    st = intensity_moments(jta)
    width = chirped_temporal_width(chirped)
    dev = abs(st.sigma1 - width) / width
    ok = parseval <= 1e-9 and dev <= 0.02
    return ok, (
        f"Parseval defect {parseval:.1e} (limit 1e-9); chirped width "
        f"{st.sigma1 * 1e12:.3f} ps vs formula {width * 1e12:.3f} ps ({dev:.2%}, limit 2%)"
    )


def suite_schmidt_consistency(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 7)
    worst = 0.0
    for _ in range(3 if p.quick else 8):
        rho = rng.uniform(-0.97, 0.97)
        state = GaussianJSA(
            omega1=2.3e15, omegah=2.5e15, sigma1=1.2e12, sigmah=0.9e12, rho=rho
        )
        g1, gh = grids_for_state(state, n=p.grid_n)
        st = compute_stats(sample_jsa(state, g1, gh))
        worst = _worst(worst, abs(st.schmidt_k - schmidt_number(rho)) / schmidt_number(rho))
    # single-arm phases are local unitaries and leave the Schmidt
    # spectrum exactly alone; the upconverted field instead carries a
    # non-factorable joint phase, so its mode count exceeds the
    # phase-free value implied by its own correlation
    state, cfg = experimental_setup()
    plain, out = _upconverted(cfg, state, max(512, p.grid_n))
    k_plain = compute_stats(plain).schmidt_k
    chirped = replace(state, chirp=state.chirp + cfg.signal_chirp)
    k_chirped = compute_stats(sample_jsa(chirped, plain.axis1, plain.axis_h)).schmidt_k
    local_invariant = abs(k_chirped - k_plain) / k_plain <= 1e-6
    st = compute_stats(out)
    excess = st.schmidt_k > schmidt_number(st.rho) + 0.05
    # the input-K gap measured at most 7.3e-9 over seeds 0-29 and 2024,
    # quick and full; 1e-6 is about 140 times that, and a 1% error in K fails
    ok = worst <= 1e-6 and local_invariant and excess
    return ok, (
        f"SVD vs formula dev {worst:.2e} (limit 1e-6); local chirp leaves K "
        f"unchanged: {local_invariant}; upconverted K {st.schmidt_k:.3f} exceeds "
        f"phase-free {schmidt_number(st.rho):.3f}: {excess}"
    )


def suite_center_conservation(p: SuiteParams):
    # at 256 input samples the measured chirps clip the planned output
    # grid (edge bands 4.9e-4), so quick mode keeps 512
    state, cfg = experimental_setup()
    _, out = _upconverted(cfg, state, max(512, p.grid_n))
    st = intensity_moments(out)
    dev = abs(st.mean1 - (state.omega1 + cfg.escort.center))
    ok = dev <= out.axis1.step
    return ok, f"sum-frequency center off by {dev:.2e} rad/s (limit one step {out.axis1.step:.2e})"


def suite_convolution_paths(p: SuiteParams):
    sigma1 = 1.0e12
    state = GaussianJSA(
        omega1=2.32e15, omegah=2.54e15, sigma1=sigma1, sigmah=1.1e12, rho=-0.7,
        chirp=1.5 / (4 * sigma1**2),
    )
    escort = EscortPulse(center=2.43e15, sigma=1.2e12, chirp=-1.0 / (4 * sigma1**2))
    g1, gh = grids_for_state(state, n=p.grid_n)
    field = sample_jsa(state, g1, gh)
    out_grid = default_output_grid(state, escort, 0.0, g1.step, 2 * p.grid_n)
    a, wa = sfg_convolve(field, escort, tau=0.7e-12, out_grid=out_grid, method="direct")
    b, wb = sfg_convolve(field, escort, tau=0.7e-12, out_grid=out_grid, method="fft")
    dev = float(np.max(np.abs(a.values - b.values)) / np.max(np.abs(a.values)))
    dev = _worst(dev, abs(wa - wb) / wa)
    return dev <= 1e-9, f"direct vs fft path max deviation {dev:.2e} (limit 1e-9)"


def suite_fit_roundtrip(p: SuiteParams):
    rng = np.random.default_rng(p.seed + 8)
    worst = 0.0
    for _ in range(2 if p.quick else 5):
        truth = GaussianFitParams(
            amplitude=rng.uniform(500, 2000),
            center1_nm=811.0 + rng.uniform(-0.5, 0.5),
            centerh_nm=740.2 + rng.uniform(-0.5, 0.5),
            sigma1_nm=units.fwhm_to_sigma(rng.uniform(2.0, 5.0)),
            sigmah_nm=units.fwhm_to_sigma(rng.uniform(2.0, 5.0)),
            rho=rng.uniform(-0.97, 0.97),
            offset=rng.uniform(0, 30),
        )
        lam1 = np.linspace(800, 822, 56)
        lamh = np.linspace(730, 750, 48)
        spec = Spectrum2D(lam1, lamh, gaussian2d_model(truth, lam1, lamh))
        fit = fit_gaussian_2d(spec)
        for name in ("amplitude", "center1_nm", "centerh_nm", "sigma1_nm", "sigmah_nm", "rho"):
            t, f = getattr(truth, name), getattr(fit, name)
            worst = _worst(worst, abs(f - t) / max(abs(t), 1e-12))
    if not worst <= 1e-6:
        return False, f"noiseless identity dev {worst:.2e} (limit 1e-6)"

    # blur then deconvolve must restore the unblurred parameters
    res = ResolutionModel(r1_nm=0.14, rh_nm=0.15)
    truth = GaussianFitParams(
        1000.0, 811.0, 740.2, units.fwhm_to_sigma(4.047), units.fwhm_to_sigma(3.733), -0.9702, 5.0
    )
    s1b = math.hypot(truth.sigma1_nm, res.r1_nm)
    shb = math.hypot(truth.sigmah_nm, res.rh_nm)
    rho_b = truth.rho * (truth.sigma1_nm * truth.sigmah_nm) / (s1b * shb)
    blurred = replace(truth, sigma1_nm=s1b, sigmah_nm=shb, rho=rho_b)
    lam1 = np.linspace(800, 822, 64)
    lamh = np.linspace(730, 750, 64)
    spec = Spectrum2D(lam1, lamh, gaussian2d_model(blurred, lam1, lamh))
    raw = fit_gaussian_2d(spec)
    dec = deconvolve_resolution(raw, res)
    dev = _worst(
        abs(dec.sigma1_nm - truth.sigma1_nm) / truth.sigma1_nm,
        abs(dec.sigmah_nm - truth.sigmah_nm) / truth.sigmah_nm,
        abs(dec.rho - truth.rho) / abs(truth.rho),
    )
    if not dev <= 1e-3:
        return False, f"blur/deconvolve round trip dev {dev:.2e} (limit 1e-3)"

    cov_raw = raw.sigma1_nm * raw.sigmah_nm * raw.rho
    cov_dec = dec.sigma1_nm * dec.sigmah_nm * dec.rho
    cov_dev = abs(cov_raw - cov_dec) / abs(cov_raw)
    ok = cov_dev <= 1e-12
    return ok, (
        f"identity {worst:.1e}; round trip {dev:.1e}; covariance preserved to {cov_dev:.1e}"
    )


def suite_g2_properties(p: SuiteParams):
    base = CountRates(
        singles_signal=2.5e6, singles_herald=3.2e6, coincidences=4.15e5, rep_rate=8e7
    )
    swapped = CountRates(
        singles_signal=3.2e6, singles_herald=2.5e6, coincidences=4.15e5, rep_rate=8e7
    )
    sym = abs(g2_cross_correlation(base) - g2_cross_correlation(swapped))
    uncorrelated = CountRates(
        singles_signal=1e6, singles_herald=2e6, coincidences=1e6 * 2e6 / 8e7, rep_rate=8e7
    )
    indep = abs(g2_cross_correlation(uncorrelated) - 1.0)
    doubled = replace(base, rep_rate=2 * base.rep_rate)
    linear = abs(g2_cross_correlation(doubled) - 2 * g2_cross_correlation(base))
    worst = _worst(sym, indep, linear)
    return worst <= 1e-12, f"exchange/independence/linearity max dev {worst:.1e}"


def suite_experimental_regime(p: SuiteParams):
    state, cfg = experimental_setup()
    param = lens.lcl_parameter(
        cfg.total_signal_chirp(state), cfg.escort_chirp, state.sigma1, state.rho
    )
    regime = lens.lcl_regime(param)
    ok = regime == "marginal" and 2.0 < param < 2.6
    return ok, f"large-chirp parameter {param:.3f}, regime {regime!r}"


SUITES = {
    "units-roundtrip": suite_units_roundtrip,
    "jsa-normalization": suite_jsa_normalization,
    "phase-invariance": suite_phase_invariance,
    "imaging-consistency": suite_imaging_consistency,
    "limit-consistency": suite_limit_consistency,
    "sign-law": suite_sign_law,
    "rho-symmetry": suite_rho_symmetry,
    "tunability-linearity": suite_tunability_linearity,
    "cross-engine": suite_cross_engine,
    "grid-refinement": suite_grid_refinement,
    "time-domain": suite_time_domain,
    "schmidt-consistency": suite_schmidt_consistency,
    "center-conservation": suite_center_conservation,
    "convolution-paths": suite_convolution_paths,
    "fit-roundtrip": suite_fit_roundtrip,
    "g2-properties": suite_g2_properties,
    "experimental-regime": suite_experimental_regime,
}


def run_suites(params: SuiteParams | None = None, names=None):
    """Run the requested suites, returning (report dict, all_ok).

    The report maps each suite's name to its ok flag, its detail text and
    elapsed_s, the suite's wall time in seconds.
    """
    params = params or SuiteParams()
    selected = list(SUITES) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")

    report = {}
    for name in selected:
        start = time.perf_counter()
        try:
            ok, detail = SUITES[name](params)
        except Exception as exc:  # suite crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        report[name] = {"ok": bool(ok), "detail": detail, "elapsed_s": elapsed}
    all_ok = all(entry["ok"] for entry in report.values())
    return report, all_ok
