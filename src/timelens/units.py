"""Units and numeric conventions shared by the whole package.

Internal spectral math is done in angular frequency (rad/s) with widths
expressed as the standard deviation sigma of the *intensity* marginal
(the intensity falls to 1/sqrt(e) at one sigma of detuning).  Wavelengths
(nm), ordinary frequencies (THz) and FWHM widths appear only at I/O
boundaries; the converters below are the single place those conventions
are pinned down.

Chirp parameters are the quadratic spectral-phase coefficient A in
phi(omega) = A (omega - omega0)^2 and are carried in s^2.
"""

from __future__ import annotations

import math

C_LIGHT = 299_792_458.0  # m/s, exact
FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # 2.35482...
TWO_PI = 2.0 * math.pi


def wavelength_to_angular(wavelength_m: float) -> float:
    """Carrier wavelength in meters to angular frequency in rad/s."""
    if wavelength_m <= 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    return TWO_PI * C_LIGHT / wavelength_m


def angular_to_wavelength(omega: float) -> float:
    """Angular frequency in rad/s to wavelength in meters."""
    if omega <= 0.0:
        raise ValueError(f"angular frequency must be positive, got {omega}")
    return TWO_PI * C_LIGHT / omega


def bandwidth_nm_to_thz(fwhm_nm: float, center_nm: float) -> float:
    """FWHM wavelength bandwidth (nm) to FWHM ordinary-frequency bandwidth (THz).

    First-order conversion dnu = c * dlambda / lambda0^2, valid for
    bandwidths much smaller than the carrier.
    """
    if center_nm <= 0.0:
        raise ValueError(f"center wavelength must be positive, got {center_nm}")
    if fwhm_nm < 0.0:
        raise ValueError(f"bandwidth must be non-negative, got {fwhm_nm}")
    return C_LIGHT * (fwhm_nm * 1e-9) / (center_nm * 1e-9) ** 2 / 1e12


def fwhm_to_sigma(fwhm: float) -> float:
    """FWHM to Gaussian intensity standard deviation, any unit."""
    if fwhm < 0.0:
        raise ValueError(f"FWHM must be non-negative, got {fwhm}")
    return fwhm / FWHM_OVER_SIGMA


def sigma_to_fwhm(sigma: float) -> float:
    """Gaussian intensity standard deviation to FWHM, any unit."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    return sigma * FWHM_OVER_SIGMA


def fwhm_thz_to_sigma_rad(fwhm_thz: float) -> float:
    """FWHM in THz (ordinary frequency) to sigma in rad/s."""
    return fwhm_to_sigma(fwhm_thz) * 1e12 * TWO_PI


def sigma_rad_to_fwhm_thz(sigma: float) -> float:
    """Sigma in rad/s to FWHM in THz (ordinary frequency)."""
    return sigma_to_fwhm(sigma) / TWO_PI / 1e12


def fwhm_nm_to_sigma_rad(fwhm_nm: float, center_nm: float) -> float:
    """FWHM in nm at a given carrier to sigma in rad/s."""
    return fwhm_thz_to_sigma_rad(bandwidth_nm_to_thz(fwhm_nm, center_nm))


def slope_rad_to_thz_per_ps(slope: float) -> float:
    """Center-frequency tuning slope, rad/s per s to THz per ps."""
    return slope / TWO_PI * 1e-24


def slope_thz_to_nm_per_ps(slope_thz_per_ps: float, center_nm: float) -> float:
    """Companion wavelength slope in nm/ps for a THz/ps tuning slope.

    Reported with the same sign as the frequency slope (magnitude
    conversion dlambda = lambda^2 dnu / c), matching the convention used
    for tunability tables.
    """
    if center_nm <= 0.0:
        raise ValueError(f"center wavelength must be positive, got {center_nm}")
    return slope_thz_per_ps * 1e12 * (center_nm * 1e-9) ** 2 / C_LIGHT * 1e9
