"""Sectioned key-value experiment configuration with mandatory units.

A configuration file looks like::

    [input]
    signal_center = 811.006 nm
    signal_bandwidth = 1.840 THz
    herald_center = 740.194 nm
    herald_bandwidth = 2.034 THz
    correlation = -0.9776

    [escort]
    center = 774.6 nm
    bandwidth = 2.766 THz
    chirp = -344e3 fs^2

    [lens]
    signal_chirp = 696e3 fs^2

Every physical quantity must carry a unit suffix; dimensionless values
(correlation, grid sizes, seeds) must not.  Unknown sections or keys are
rejected.  Spectral widths may be given as FWHM bandwidths in nm or THz,
or directly as intensity sigmas in rad/s.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from . import units
from .lens import LensConfig, solve_imaging
from .states import EscortPulse, GaussianJSA, PhasematchingModel


class ConfigError(ValueError):
    """Configuration file failed schema validation."""


LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "m": 1.0}
TIME_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "s": 1.0}
CHIRP_UNITS = {"fs^2": 1e-30, "ps^2": 1e-24, "s^2": 1.0}

_SCHEMA = {
    "input": {
        "signal_center",
        "signal_bandwidth",
        "signal_sigma",
        "herald_center",
        "herald_bandwidth",
        "herald_sigma",
        "correlation",
    },
    "escort": {"center", "bandwidth", "sigma", "chirp"},
    "lens": {"signal_chirp", "output_chirp"},
    "phasematching": {"sigma", "center"},
    "delay": {"tau", "sweep_start", "sweep_stop", "sweep_points"},
    "grid": {"n", "herald_n", "output_n", "span"},
    "analysis": {"resolution_signal", "resolution_herald", "trials", "seed"},
}


@dataclass(frozen=True)
class GridSettings:
    n: int | None = None  # None: choose automatically from the phase budget
    herald_n: int = 512
    output_n: int = 512
    span: float = 6.0


@dataclass(frozen=True)
class AnalysisSettings:
    resolution_signal_nm: float | None = None
    resolution_herald_nm: float | None = None
    trials: int = 500
    seed: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    state: GaussianJSA
    lens: LensConfig
    tau: float = 0.0
    sweep: tuple[float, float, int] | None = None
    grid: GridSettings = GridSettings()
    analysis: AnalysisSettings = AnalysisSettings()


def _parse_quantity(section: str, key: str, raw: str) -> tuple[float, str | None]:
    parts = raw.split()
    if not parts:
        raise ConfigError(f"[{section}] {key}: empty value")
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse number from {raw!r}") from None
    unit = " ".join(parts[1:]) if len(parts) > 1 else None
    return value, unit


def _dimensional(section: str, key: str, raw: str, table: dict, quantity: str) -> float:
    value, unit = _parse_quantity(section, key, raw)
    if unit is None:
        raise ConfigError(
            f"[{section}] {key}: missing unit suffix on a physical quantity "
            f"(expected one of {sorted(table)})"
        )
    if unit not in table:
        raise ConfigError(
            f"[{section}] {key}: unknown {quantity} unit {unit!r} "
            f"(expected one of {sorted(table)})"
        )
    return value * table[unit]


def _unitless(section: str, key: str, raw: str) -> float:
    value, unit = _parse_quantity(section, key, raw)
    if unit is not None:
        raise ConfigError(f"[{section}] {key}: dimensionless value must not carry a unit")
    return value


def _integer(section: str, key: str, raw: str) -> int:
    value = _unitless(section, key, raw)
    if value != int(value):
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")
    return int(value)


def _center_rad(section: str, key: str, raw: str) -> float:
    value, unit = _parse_quantity(section, key, raw)
    if unit is None:
        raise ConfigError(f"[{section}] {key}: missing unit suffix (nm, um, m or rad/s)")
    if unit == "rad/s":
        return value
    if unit in LENGTH_UNITS:
        return units.wavelength_to_angular(value * LENGTH_UNITS[unit])
    raise ConfigError(f"[{section}] {key}: unknown center unit {unit!r}")


def _width_rad(section: str, parser, prefix: str, center_rad: float) -> float:
    """Resolve a spectral width from <prefix>_bandwidth or <prefix>_sigma keys."""
    name_bw = f"{prefix}_bandwidth" if prefix else "bandwidth"
    name_sig = f"{prefix}_sigma" if prefix else "sigma"
    has_bw = parser.has_option(section, name_bw)
    has_sig = parser.has_option(section, name_sig)
    if has_bw and has_sig:
        raise ConfigError(f"[{section}]: give either {name_bw} or {name_sig}, not both")
    if not has_bw and not has_sig:
        raise ConfigError(f"[{section}]: one of {name_bw} or {name_sig} is required")
    if has_sig:
        raw = parser.get(section, name_sig)
        value, unit = _parse_quantity(section, name_sig, raw)
        if unit != "rad/s":
            raise ConfigError(f"[{section}] {name_sig}: width sigma must be in rad/s")
        return value
    raw = parser.get(section, name_bw)
    value, unit = _parse_quantity(section, name_bw, raw)
    if unit is None:
        raise ConfigError(f"[{section}] {name_bw}: missing unit suffix (nm or THz)")
    if unit == "THz":
        return units.fwhm_thz_to_sigma_rad(value)
    if unit in LENGTH_UNITS:
        center_nm = units.angular_to_wavelength(center_rad) * 1e9
        return units.fwhm_nm_to_sigma_rad(value * LENGTH_UNITS[unit] * 1e9, center_nm)
    raise ConfigError(f"[{section}] {name_bw}: unknown bandwidth unit {unit!r}")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate configuration text into engine objects."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
    for required in ("input", "escort", "lens"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    def need(section: str, key: str) -> str:
        if not parser.has_option(section, key):
            raise ConfigError(f"[{section}] {key}: required key is missing")
        return parser.get(section, key)

    sig_center = _center_rad("input", "signal_center", need("input", "signal_center"))
    her_center = _center_rad("input", "herald_center", need("input", "herald_center"))
    sig_sigma = _width_rad("input", parser, "signal", sig_center)
    her_sigma = _width_rad("input", parser, "herald", her_center)
    rho = _unitless("input", "correlation", need("input", "correlation"))
    try:
        state = GaussianJSA(
            omega1=sig_center, omegah=her_center, sigma1=sig_sigma, sigmah=her_sigma, rho=rho
        )
    except ValueError as exc:
        raise ConfigError(f"[input]: {exc}") from None

    esc_center = _center_rad("escort", "center", need("escort", "center"))
    esc_sigma = _width_rad("escort", parser, "", esc_center)
    esc_chirp = _dimensional("escort", "chirp", need("escort", "chirp"), CHIRP_UNITS, "chirp")
    escort = EscortPulse(center=esc_center, sigma=esc_sigma, chirp=esc_chirp)

    signal_chirp = _dimensional(
        "lens", "signal_chirp", need("lens", "signal_chirp"), CHIRP_UNITS, "chirp"
    )
    output_chirp = None
    if parser.has_option("lens", "output_chirp"):
        raw = parser.get("lens", "output_chirp")
        if raw.strip() == "solve":
            output_chirp = solve_imaging(signal_chirp=signal_chirp, escort_chirp=esc_chirp)
        else:
            output_chirp = _dimensional("lens", "output_chirp", raw, CHIRP_UNITS, "chirp")

    pm = PhasematchingModel.infinite()
    if parser.has_section("phasematching"):
        sigma_phi = math.inf
        if parser.has_option("phasematching", "sigma"):
            raw = parser.get("phasematching", "sigma")
            if raw.strip() != "infinite":
                value, unit = _parse_quantity("phasematching", "sigma", raw)
                if unit == "rad/s":
                    sigma_phi = value
                elif unit == "THz":
                    sigma_phi = units.fwhm_thz_to_sigma_rad(value)
                else:
                    raise ConfigError(
                        "[phasematching] sigma: expected rad/s, THz, or 'infinite'"
                    )
        pm_center = None
        if parser.has_option("phasematching", "center"):
            pm_center = _center_rad(
                "phasematching", "center", parser.get("phasematching", "center")
            )
        pm = PhasematchingModel(sigma=sigma_phi, center=pm_center)

    lens = LensConfig(
        signal_chirp=signal_chirp, escort=escort, phasematching=pm, output_chirp=output_chirp
    )

    tau = 0.0
    sweep = None
    if parser.has_section("delay"):
        if parser.has_option("delay", "tau"):
            tau = _dimensional("delay", "tau", parser.get("delay", "tau"), TIME_UNITS, "time")
        sweep_keys = [k for k in ("sweep_start", "sweep_stop", "sweep_points") if parser.has_option("delay", k)]
        if sweep_keys and len(sweep_keys) != 3:
            raise ConfigError(
                "[delay]: sweep_start, sweep_stop, and sweep_points must appear together"
            )
        if sweep_keys:
            start = _dimensional("delay", "sweep_start", parser.get("delay", "sweep_start"), TIME_UNITS, "time")
            stop = _dimensional("delay", "sweep_stop", parser.get("delay", "sweep_stop"), TIME_UNITS, "time")
            points = _integer("delay", "sweep_points", parser.get("delay", "sweep_points"))
            if points < 3:
                raise ConfigError("[delay] sweep_points: need at least 3 points")
            if stop <= start:
                raise ConfigError("[delay]: sweep_stop must exceed sweep_start")
            sweep = (start, stop, points)

    grid = GridSettings()
    if parser.has_section("grid"):
        kw = {}
        if parser.has_option("grid", "n"):
            raw = parser.get("grid", "n")
            kw["n"] = None if raw.strip() == "auto" else _integer("grid", "n", raw)
        if parser.has_option("grid", "herald_n"):
            kw["herald_n"] = _integer("grid", "herald_n", parser.get("grid", "herald_n"))
        if parser.has_option("grid", "output_n"):
            kw["output_n"] = _integer("grid", "output_n", parser.get("grid", "output_n"))
        if parser.has_option("grid", "span"):
            kw["span"] = _unitless("grid", "span", parser.get("grid", "span"))
            if kw["span"] < 4.0:
                raise ConfigError("[grid] span: need at least 4 sigma of coverage")
        grid = GridSettings(**kw)

    analysis = AnalysisSettings()
    if parser.has_section("analysis"):
        kw = {}
        if parser.has_option("analysis", "resolution_signal"):
            kw["resolution_signal_nm"] = (
                _dimensional(
                    "analysis",
                    "resolution_signal",
                    parser.get("analysis", "resolution_signal"),
                    LENGTH_UNITS,
                    "length",
                )
                * 1e9
            )
        if parser.has_option("analysis", "resolution_herald"):
            kw["resolution_herald_nm"] = (
                _dimensional(
                    "analysis",
                    "resolution_herald",
                    parser.get("analysis", "resolution_herald"),
                    LENGTH_UNITS,
                    "length",
                )
                * 1e9
            )
        if parser.has_option("analysis", "trials"):
            kw["trials"] = _integer("analysis", "trials", parser.get("analysis", "trials"))
        if parser.has_option("analysis", "seed"):
            kw["seed"] = _integer("analysis", "seed", parser.get("analysis", "seed"))
        analysis = AnalysisSettings(**kw)

    return ExperimentConfig(
        state=state, lens=lens, tau=tau, sweep=sweep, grid=grid, analysis=analysis
    )


def parse_config(path) -> ExperimentConfig:
    """Parse a configuration file (see :func:`parse_config_text`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from None
    return parse_config_text(text)
