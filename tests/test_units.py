import math

import numpy as np
import pytest

from timelens import units

import oracles


def test_wavelength_to_angular_values():
    # direct arithmetic 2 pi c / lambda
    w = units.wavelength_to_angular(811.006e-9)
    assert w == pytest.approx(2.0 * math.pi * 299792458.0 / 811.006e-9, rel=1e-15)
    assert w == pytest.approx(2.3226e15, rel=1e-4)
    assert units.wavelength_to_angular(396.113e-9) == pytest.approx(4.7553e15, rel=1e-4)


def test_wavelength_round_trip():
    rng = np.random.default_rng(11)
    for lam in rng.uniform(2e-7, 3e-6, size=500):
        assert units.angular_to_wavelength(units.wavelength_to_angular(lam)) == pytest.approx(
            lam, rel=1e-12
        )


def test_wavelength_domain_errors():
    with pytest.raises(ValueError):
        units.wavelength_to_angular(0.0)
    with pytest.raises(ValueError):
        units.wavelength_to_angular(-1e-9)
    with pytest.raises(ValueError):
        units.angular_to_wavelength(0.0)


def test_bandwidth_nm_to_thz_signal():
    # deconvolved signal bandwidth against its quoted FWHM in THz
    assert units.bandwidth_nm_to_thz(4.034, 811.006) == pytest.approx(1.840, abs=2e-3)


def test_bandwidth_zero_and_errors():
    assert units.bandwidth_nm_to_thz(0.0, 811.0) == 0.0
    with pytest.raises(ValueError):
        units.bandwidth_nm_to_thz(1.0, 0.0)
    with pytest.raises(ValueError):
        units.bandwidth_nm_to_thz(-1.0, 811.0)


def test_bandwidth_linearity_and_scaling():
    base = units.bandwidth_nm_to_thz(1.0, 800.0)
    assert units.bandwidth_nm_to_thz(3.0, 800.0) == pytest.approx(3.0 * base, rel=1e-12)
    assert units.bandwidth_nm_to_thz(1.0, 1600.0) == pytest.approx(base / 4.0, rel=1e-12)


def test_escort_consistency():
    # 7.38e12 rad/s sigma versus 5.53 nm FWHM at 774.6 nm; the quoted
    # values round at each conversion step, so three significant figures
    # only hold to about a part in a thousand
    thz = units.bandwidth_nm_to_thz(5.53, 774.6)
    assert thz == pytest.approx(2.766, rel=2e-3)
    sigma = units.fwhm_thz_to_sigma_rad(thz)
    assert sigma == pytest.approx(7.38e12, rel=2e-3)


def test_fwhm_sigma_definitional():
    assert units.fwhm_to_sigma(2.35482) == pytest.approx(1.0, abs=1e-5)
    assert units.sigma_to_fwhm(units.fwhm_to_sigma(3.7)) == pytest.approx(3.7, rel=1e-15)
    with pytest.raises(ValueError):
        units.fwhm_to_sigma(-1.0)
    with pytest.raises(ValueError):
        units.sigma_to_fwhm(-1.0)


def test_fwhm_thz_to_sigma_rad_values():
    assert units.fwhm_thz_to_sigma_rad(2.766) == pytest.approx(7.380e12, rel=1e-3)
    assert units.fwhm_thz_to_sigma_rad(1.840) == pytest.approx(4.909e12, rel=1e-3)


def test_nm_sigma_chain_round_trip():
    sigma = units.fwhm_nm_to_sigma_rad(4.034, 811.006)
    assert oracles.sigma_rad_to_fwhm_nm(sigma, 811.006) == pytest.approx(4.034, rel=1e-12)


def test_slope_conversions():
    thzps = units.slope_rad_to_thz_per_ps(2.0 * math.pi * 1e24)
    assert thzps == pytest.approx(1.0, rel=1e-12)
    # nm/ps companion value keeps the frequency-slope sign
    nmps = units.slope_thz_to_nm_per_ps(0.229, 396.113)
    assert nmps == pytest.approx(0.1198, abs=2e-3)
    assert units.slope_thz_to_nm_per_ps(-0.229, 396.113) == pytest.approx(-nmps, rel=1e-12)
