"""Gaussian model of the two-photon spectral state and the escort pulse.

The joint spectral amplitude is a correlated two-variable Gaussian in the
signal and herald angular frequencies, parameterized by the two centers,
the two intensity-marginal widths, and the statistical (Pearson)
correlation rho of the joint spectral intensity.  Quadratic (chirp) and
linear (delay) spectral phases can be attached to the signal arm; they
leave the joint intensity and all its moments unchanged.

Sign conventions: fields oscillate as exp(-i omega t), a positive chirp
A in exp(+i A (omega - omega0)^2) delays blue components (normal
dispersion), and the delay phase exp(-i omega1 tau) advances the signal
by tau (equivalently, delays the escort by tau relative to the signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RHO_LIMIT = 0.9999  # guard band: closed forms contain 1/(1-rho^2)


@dataclass(frozen=True)
class GaussianJSA:
    """Two-photon Gaussian joint spectral amplitude with signal-arm phases.

    omega1, omegah: carrier angular frequencies, rad/s
    sigma1, sigmah: intensity-marginal widths, rad/s
    rho:            statistical correlation of the joint intensity
    chirp:          quadratic spectral phase on the signal, s^2
    delay:          relative delay applied to the signal, s
    """

    omega1: float
    omegah: float
    sigma1: float
    sigmah: float
    rho: float
    chirp: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        if self.sigma1 <= 0.0 or self.sigmah <= 0.0:
            raise ValueError("marginal widths must be positive")
        if self.omega1 <= 0.0 or self.omegah <= 0.0:
            raise ValueError("carrier frequencies must be positive")
        if abs(self.rho) > RHO_LIMIT:
            raise ValueError(
                f"|rho| = {abs(self.rho)} exceeds the guard band {RHO_LIMIT}; "
                "perfectly correlated states are singular"
            )


@dataclass(frozen=True)
class EscortPulse:
    """Chirped Gaussian escort spectrum: center (rad/s), width (rad/s), chirp (s^2)."""

    center: float
    sigma: float
    chirp: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("escort width must be positive")
        if self.center <= 0.0:
            raise ValueError("escort center must be positive")


@dataclass(frozen=True)
class PhasematchingModel:
    """Gaussian acceptance of the upconversion crystal versus output frequency.

    sigma:  intensity-acceptance width in rad/s, math.inf for an
            unrestricted (infinitely broad) phasematching.
    center: acceptance center in rad/s; None places it at the nominal
            sum frequency of the interacting carriers.
    """

    sigma: float = math.inf
    center: float | None = None

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("phasematching width must be positive or infinite")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.sigma)

    @classmethod
    def infinite(cls) -> "PhasematchingModel":
        return cls(sigma=math.inf)

    def amplitude(self, omega3, nominal_center: float):
        """Acceptance amplitude at output frequency omega3 (array ok)."""
        if self.is_infinite:
            return np.ones_like(np.asarray(omega3, dtype=float))
        w0 = self.center if self.center is not None else nominal_center
        d = np.asarray(omega3, dtype=float) - w0
        return np.exp(-(d**2) / (4.0 * self.sigma**2))


def jsa_amplitude(state: GaussianJSA, omega1, omegah):
    """Complex joint spectral amplitude at (omega1, omegah); broadcasts.

    Normalized so the squared magnitude integrates to one over the plane.
    The intensity Pearson correlation equals state.rho.  The spectral
    phase depends on omega1 alone, so the amplitude is a real Gaussian
    per cell times one complex factor per signal sample: on a broadcast
    grid, omega1 a column, that is one complex exponential per row.
    """
    w1 = np.asarray(omega1, dtype=float)
    d1 = w1 - state.omega1
    dh = np.asarray(omegah, dtype=float) - state.omegah
    m = 1.0 - state.rho**2
    prefactor = 1.0 / math.sqrt(2.0 * math.pi * state.sigma1 * state.sigmah) / m**0.25
    quad = (
        -(d1**2) / (4.0 * state.sigma1**2)
        - dh**2 / (4.0 * state.sigmah**2)
        + state.rho * d1 * dh / (2.0 * state.sigma1 * state.sigmah)
    ) / m
    phase = state.chirp * d1**2 - w1 * state.delay
    return np.exp(quad) * (prefactor * np.exp(1j * phase))


def escort_amplitude(escort: EscortPulse, omega):
    """Complex escort spectral amplitude at omega; broadcasts.

    Normalized so the squared magnitude integrates to one.
    """
    d = np.asarray(omega, dtype=float) - escort.center
    prefactor = (2.0 * math.pi) ** (-0.25) / math.sqrt(escort.sigma)
    return prefactor * np.exp(-(d**2) / (4.0 * escort.sigma**2) + 1j * escort.chirp * d**2)


def statistical_correlation(obj) -> float:
    """Pearson correlation of the joint spectral intensity.

    Accepts a GaussianJSA (returns the stored rho exactly) or a sampled
    grid field (computes intensity-weighted moments).
    """
    if isinstance(obj, GaussianJSA):
        return obj.rho
    from .grid import intensity_moments  # deferred: grid depends on this module

    return intensity_moments(obj).rho


def schmidt_number(rho: float) -> float:
    """Effective mode count K of a real Gaussian joint amplitude with correlation rho."""
    if abs(rho) >= 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    return (1.0 - rho**2) ** -0.5


def chirped_temporal_width(state: GaussianJSA) -> float:
    """Temporal intensity 1/sqrt(e) half-width of the (chirped) signal marginal, s.

    Reduces to 1/(2 sigma1) for an unchirped uncorrelated state; grows
    linearly with |chirp| once the state is chirped well beyond its
    transform limit.
    """
    return _chirped_duration(state.sigma1, state.chirp, state.rho)


def _chirped_duration(sigma: float, chirp: float, rho: float) -> float:
    """Temporal 1/sqrt(e) half-width, s, of a pulse of width sigma and chirp, correlated by rho.

    rho is the correlation with a partner photon, 0 for a single pulse.
    """
    m = 1.0 - rho**2
    return math.sqrt(1.0 + 16.0 * chirp**2 * m * sigma**4) / (2.0 * math.sqrt(m) * sigma)


def joint_energy_uncertainty(sigma1: float, sigmah: float, rho: float) -> float:
    """FWHM along the minor axis of the joint-intensity covariance ellipse.

    Inputs are intensity-marginal sigmas in any common unit (output FWHM
    is in that same unit); the minor axis is the square root of the
    smaller eigenvalue of the 2x2 covariance matrix.
    """
    if sigma1 <= 0.0 or sigmah <= 0.0:
        raise ValueError("widths must be positive")
    if abs(rho) >= 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    cov = rho * sigma1 * sigmah
    tr = sigma1**2 + sigmah**2
    det = sigma1**2 * sigmah**2 - cov**2
    lam_min = 0.5 * (tr - math.sqrt(tr**2 - 4.0 * det))
    return 2.0 * math.sqrt(2.0 * math.log(2.0)) * math.sqrt(lam_min)
