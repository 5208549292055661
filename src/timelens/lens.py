"""Closed-form physics of the upconversion time lens.

Covers the imaging relation between the three chirps, the spectral and
temporal magnifications, the output bandwidth, correlation and centers
of a Gaussian two-photon state sent through the lens with any Gaussian
phasematching acceptance (unrestricted, finite, or centered off the
nominal sum frequency), the analytic limits (broad escort, unit-negative
magnification), and the delay-tunability slopes in the three tractable
regimes.  Every output moment is read from one Gaussian quadratic-form
core, gaussian_output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .states import EscortPulse, GaussianJSA, PhasematchingModel

LCL_THRESHOLD = 10.0  # dimensionless large-chirp criterion

IDEAL = "ideal"
FILTER_LIMIT = "filter-limit"
PHASEMATCH_LIMIT = "phasematch-limit"


class SingularConfigurationError(ValueError):
    """Chirp configuration with no finite solution."""


class TimeToFrequencyError(SingularConfigurationError):
    """Signal and escort chirps cancel (A1 = -Ae).

    The device then maps time to frequency instead of imaging; that
    regime is outside this model.
    """


@dataclass(frozen=True)
class LensConfig:
    """Upconversion time-lens settings.

    signal_chirp: dispersion applied to the signal arm, s^2 (adds to any
                  chirp already carried by the input state)
    escort:       escort pulse, whose chirp is the lens focal parameter
    phasematching: acceptance model of the upconversion crystal
    output_chirp: recompression dispersion, s^2; None leaves it unset
                  (it does not affect the output spectrum)
    """

    signal_chirp: float
    escort: EscortPulse
    phasematching: PhasematchingModel = PhasematchingModel.infinite()
    output_chirp: float | None = None

    @property
    def escort_chirp(self) -> float:
        return self.escort.chirp

    def total_signal_chirp(self, state: GaussianJSA) -> float:
        return self.signal_chirp + state.chirp


@dataclass(frozen=True)
class OutputStatePrediction:
    """Closed-form second-moment prediction for the upconverted joint spectrum."""

    sigma3: float
    rho_f: float
    omega3_center: float
    sigmah_f: float
    omegah_center: float
    lcl_parameter: float
    flags: frozenset[str]


@dataclass(frozen=True)
class GaussianOutput:
    """Second moments of the upconverted joint intensity and their delay response.

    sigma3, sigmah: marginal widths of the output signal and herald, rad/s
    rho_f:          statistical correlation of the output joint intensity
    slope3, slopeh: center shifts per unit signal delay, rad/s per second
    shift3, shifth: center shifts at zero delay caused by an acceptance
                    centered off the nominal sum frequency, rad/s
    """

    sigma3: float
    sigmah: float
    rho_f: float
    slope3: float
    slopeh: float
    shift3: float
    shifth: float


def solve_imaging(
    signal_chirp: float | None = None,
    escort_chirp: float | None = None,
    output_chirp: float | None = None,
) -> float:
    """Solve 1/A_signal + 1/A_output = -1/A_escort for the missing chirp.

    Exactly one of the three arguments must be None; the other two must
    be nonzero.  Returns the unique finite solution, raising
    SingularConfigurationError (or TimeToFrequencyError for the
    cancelling signal/escort case) when none exists.
    """
    given = [signal_chirp, escort_chirp, output_chirp]
    if sum(v is None for v in given) != 1:
        raise ValueError("exactly one chirp must be left unspecified")
    for name, v in zip(("signal", "escort", "output"), given):
        if v is not None and v == 0.0:
            raise SingularConfigurationError(f"{name} chirp must be nonzero")

    if output_chirp is None:
        if signal_chirp + escort_chirp == 0.0:
            raise TimeToFrequencyError(
                "signal and escort chirps cancel: time-to-frequency regime, "
                "no finite output chirp recompresses the state"
            )
        return -signal_chirp * escort_chirp / (signal_chirp + escort_chirp)
    if signal_chirp is None:
        if output_chirp + escort_chirp == 0.0:
            raise SingularConfigurationError(
                "output and escort chirps cancel: no finite signal chirp solves "
                "the imaging relation"
            )
        return -output_chirp * escort_chirp / (output_chirp + escort_chirp)
    if signal_chirp + output_chirp == 0.0:
        raise SingularConfigurationError(
            "signal and output chirps cancel: escort chirp would be infinite"
        )
    return -signal_chirp * output_chirp / (signal_chirp + output_chirp)


def magnification(signal_chirp: float, escort_chirp: float) -> tuple[float, float]:
    """Spectral and temporal magnification of the lens; their product is one."""
    if escort_chirp == 0.0:
        raise SingularConfigurationError("escort chirp must be nonzero")
    m_spectral = 1.0 + signal_chirp / escort_chirp
    if m_spectral == 0.0:
        raise TimeToFrequencyError(
            "signal and escort chirps cancel: time-to-frequency regime"
        )
    return m_spectral, 1.0 / m_spectral


def lcl_parameter(
    signal_chirp: float, escort_chirp: float, sigma1: float, rho: float
) -> float:
    """Dimensionless large-chirp criterion 16 (A1+Ae)^2 (1-rho^2)^2 sigma1^4.

    The closed-form limits become exact when this is much greater than
    one; LCL_THRESHOLD is the default flag threshold.
    """
    u = 4.0 * (signal_chirp + escort_chirp) * sigma1**2
    return u**2 * (1.0 - rho**2) ** 2


def lcl_regime(parameter: float, threshold: float = LCL_THRESHOLD) -> str:
    """Classify a large-chirp parameter as satisfied, marginal, or violated."""
    if parameter > threshold:
        return "satisfied"
    if parameter > 1.0:
        return "marginal"
    return "violated"


def gaussian_output(cfg: LensConfig, state: GaussianJSA) -> GaussianOutput:
    """Solve the Gaussian quadratic form of the upconverted joint intensity.

    The chirped signal amplitude exp(-alpha d1^2 + c d1 dh - b dh^2) times
    the chirped escort exp(-gamma_e (d3 - d1)^2) is integrated over the
    signal detuning d1 (Kolner's temporal-imaging ABCD treatment, IEEE
    JQE 30, 1951, 1994).  The joint intensity is then proportional to
    exp(-(q33 d3^2 + 2 q3h d3 dh + qhh dh^2)) in the output detunings, and
    a signal delay tau adds the linear term (l3 d3 + lh dh) tau, which
    moves the centers along the inverse of the form.  A finite Gaussian
    acceptance multiplies the intensity by exp(-(d3 - delta)^2 /
    (2 sigma_phi^2)), delta being its center's offset from the nominal sum
    frequency; the linear term d3 delta / sigma_phi^2 moves the centers
    along the inverse of the form in the same way.
    """
    m = 1.0 - state.rho**2
    a = 1.0 / (4.0 * state.sigma1**2 * m)
    b = 1.0 / (4.0 * state.sigmah**2 * m)
    c = state.rho / (2.0 * state.sigma1 * state.sigmah * m)
    alpha = a - 1j * cfg.total_signal_chirp(state)
    gamma_e = 1.0 / (4.0 * cfg.escort.sigma**2) - 1j * cfg.escort_chirp
    p = alpha + gamma_e
    q33 = 2.0 * (alpha * gamma_e / p).real
    pm = cfg.phasematching
    k = 0.0
    if not pm.is_infinite:
        q33 += 0.5 / pm.sigma**2
        if pm.center is not None:
            k = (pm.center - state.omega1 - cfg.escort.center) / pm.sigma**2
    qhh = 2.0 * b - 0.5 * c**2 * (1.0 / p).real
    q3h = -c * (gamma_e / p).real
    det = q33 * qhh - q3h**2
    l3 = 2.0 * (gamma_e / p).imag
    lh = c * (1.0 / p).imag
    return GaussianOutput(
        sigma3=math.sqrt(qhh / (2.0 * det)),
        sigmah=math.sqrt(q33 / (2.0 * det)),
        rho_f=-q3h / math.sqrt(q33 * qhh),
        slope3=(qhh * l3 - q3h * lh) / (2.0 * det),
        slopeh=(q33 * lh - q3h * l3) / (2.0 * det),
        shift3=qhh * k / (2.0 * det),
        shifth=-q3h * k / (2.0 * det),
    )


def output_sigma3(cfg: LensConfig, state: GaussianJSA) -> float:
    """Spectral width of the upconverted signal, rad/s."""
    return gaussian_output(cfg, state).sigma3


def output_correlation(cfg: LensConfig, state: GaussianJSA) -> float:
    """Statistical correlation of the upconverted joint spectrum.

    The sign reverses relative to the input when the escort anti-chirp
    overcompensates the signal chirp, the regime of a negative-
    magnification lens.
    """
    return gaussian_output(cfg, state).rho_f


def limit_infinite_escort(
    state: GaussianJSA, signal_chirp: float, escort_chirp: float
) -> tuple[float, float]:
    """Output width and correlation in the broad-escort limit.

    Returns (sigma3, rho_f) for an escort of unbounded spectral support.
    In the large-chirp limit sigma3 approaches |M_spectral| sigma1 and
    rho_f approaches -rho * sign(A1 + Ae) for an anti-chirped escort.
    """
    if escort_chirp == 0.0:
        raise SingularConfigurationError("escort chirp must be nonzero")
    if signal_chirp + escort_chirp == 0.0:
        raise TimeToFrequencyError(
            "signal and escort chirps cancel: time-to-frequency regime"
        )
    m = 1.0 - state.rho**2
    u1 = 4.0 * signal_chirp * state.sigma1**2
    ue = 4.0 * escort_chirp * state.sigma1**2
    uo = u1 + ue
    sigma3 = state.sigma1 * math.sqrt(1.0 / m + uo**2) / abs(ue)
    rho_f = (
        state.rho
        * math.copysign(1.0, ue)
        * uo
        * math.sqrt(m)
        / math.sqrt(1.0 + uo**2 * m)
    )
    return sigma3, rho_f


def limit_m_minus1(state: GaussianJSA, escort_sigma: float) -> tuple[float, float]:
    """Output width and correlation for a unit-negative-magnification lens.

    Large-chirp limit with the escort anti-chirped at half the signal
    chirp; both quantities recover the input magnitudes as the escort
    bandwidth grows, and the correlation changes sign.
    """
    if escort_sigma <= 0.0:
        raise ValueError("escort width must be positive")
    r = 4.0 * state.sigma1**2 / escort_sigma**2
    sigma3 = state.sigma1 / math.sqrt(r + 1.0)
    rho_f = -state.rho / math.sqrt((1.0 - state.rho**2) * r + 1.0)
    return sigma3, rho_f


def tunability(
    cfg: LensConfig, state: GaussianJSA, regime: str
) -> tuple[float, float]:
    """Center-frequency tuning slopes versus signal delay, rad/s per second.

    Returns (signal slope, herald slope) for the requested regime:

    - IDEAL: broad escort, unrestricted acceptance, half-anti-chirped
      escort; the signal tunes at 1/A1 and the herald stays put.
    - FILTER_LIMIT: spectrally narrow escort acting as a temporal gate;
      both slopes halve relative to naive expectation, the herald moving
      through the input correlations.
    - PHASEMATCH_LIMIT: long-crystal limit pinning the output frequency;
      the signal is untunable and only the herald moves.
    """
    a1 = cfg.total_signal_chirp(state)
    if a1 == 0.0:
        raise SingularConfigurationError("signal chirp must be nonzero")
    herald_scale = state.rho * state.sigmah / (a1 * state.sigma1)
    if regime == IDEAL:
        return 1.0 / a1, 0.0
    if regime == FILTER_LIMIT:
        return 0.5 / a1, 0.5 * herald_scale
    if regime == PHASEMATCH_LIMIT:
        return 0.0, herald_scale
    raise ValueError(f"unknown tunability regime: {regime!r}")


def predict_output(
    cfg: LensConfig, state: GaussianJSA, lcl_threshold: float = LCL_THRESHOLD
) -> OutputStatePrediction:
    """Full closed-form output prediction for any Gaussian acceptance.

    Each center sits at its nominal frequency plus the shift of an
    off-nominal acceptance plus the tuning slope times any delay carried
    by the input state.  The regime flags report whether the large-chirp
    limit holds, whether the chirped escort is temporally shorter than
    the chirped signal (escort-aperture limiting), and whether the
    acceptance narrows the output signal (phasematch limiting).
    """
    out = gaussian_output(cfg, state)

    a1 = cfg.total_signal_chirp(state)
    lcl = lcl_parameter(a1, cfg.escort_chirp, state.sigma1, state.rho)
    flags = set()
    if lcl > lcl_threshold:
        flags.add("lcl_satisfied")
    escort_duration = (
        math.sqrt(1.0 + 16.0 * cfg.escort_chirp**2 * cfg.escort.sigma**4)
        / (2.0 * cfg.escort.sigma)
    )
    m = 1.0 - state.rho**2
    signal_duration = math.sqrt(1.0 + 16.0 * a1**2 * m * state.sigma1**4) / (
        2.0 * math.sqrt(m) * state.sigma1
    )
    if escort_duration < signal_duration:
        flags.add("escort_aperture_limited")
    if phasematch_restrictive(cfg, state):
        flags.add("phasematch_limited")

    return OutputStatePrediction(
        sigma3=out.sigma3,
        rho_f=out.rho_f,
        omega3_center=state.omega1 + cfg.escort.center + out.shift3 + out.slope3 * state.delay,
        sigmah_f=out.sigmah,
        omegah_center=state.omegah + out.shifth + out.slopeh * state.delay,
        lcl_parameter=lcl,
        flags=frozenset(flags),
    )


def phasematch_restrictive(cfg: LensConfig, state: GaussianJSA, tolerance: float = 0.01) -> bool:
    """Whether the acceptance narrows the output signal beyond the tolerance.

    Compares the core's signal width with and without the acceptance; a
    fractional narrowing above the tolerance flags the configuration as
    phasematch limited.
    """
    if cfg.phasematching.is_infinite:
        return False
    open_cfg = replace(cfg, phasematching=PhasematchingModel.infinite())
    open_sigma3 = gaussian_output(open_cfg, state).sigma3
    return gaussian_output(cfg, state).sigma3 < (1.0 - tolerance) * open_sigma3
