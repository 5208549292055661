"""Independent oracles used to freeze expected values.

These implementations deliberately avoid the package's code paths: the
output moments come from assembling the complex Gaussian quadratic form
of the upconverted amplitude and inverting a 2x2 matrix, and again from
the paper's hand-expanded width and correlation formulas, the
normalization checks from composite Simpson quadrature, and expected
deconvolutions from direct quadrature subtraction.  Tests compare the
package against numbers produced here, and the two engines against each
other.
"""

from __future__ import annotations

import math

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


def simpson_norm(state_amplitude, center1, centerh, sigma1, sigmah, n=801, span=6.0):
    """Composite-Simpson integral of |amplitude|^2 over a +-span sigma box."""
    from scipy.integrate import simpson

    w1 = np.linspace(center1 - span * sigma1, center1 + span * sigma1, n)
    wh = np.linspace(centerh - span * sigmah, centerh + span * sigmah, n)
    intensity = np.abs(state_amplitude(w1[:, None], wh[None, :])) ** 2
    return float(simpson(simpson(intensity, x=wh, axis=1), x=w1))


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


def thz_per_ps(slope_rad_per_s2: float) -> float:
    return slope_rad_per_s2 / TWO_PI * 1e-24


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
