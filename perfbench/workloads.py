"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload passes the program only files generated here from the
seed.  The seed changes only parameters that leave the cost unchanged:
center wavelengths (and, where the grid is fixed, the correlation) for
the configuration workloads, the Monte Carlo seed for the fit.  The fit's
histogram is one fixed Poisson draw: the number of least-squares
evaluations, and so the cost, moves by about 30% from one draw to
another, and by about 5% with the Monte Carlo seed.  ``selftest.py``
asserts that grid sizes, trial counts and the histogram do not depend on
the seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

_INPUT = """\
[input]
signal_center = {signal_nm:.4f} nm
signal_bandwidth = 1.840 THz
herald_center = {herald_nm:.4f} nm
herald_bandwidth = 2.034 THz
correlation = {correlation:.5f}
"""

# ideal.cfg with seeded center wavelengths and 3 delays (-2, 0 and 2 ps;
# the fewest the parser accepts) instead of 5, so that a run holds two
# cold calls; the auto-sized grids, set by the largest delay, are
# unchanged.  The correlation stays fixed because the auto-sized output
# grid depends on it.
SWEEP_CONFIG = _INPUT + """
[escort]
center = 774.6 nm
sigma = 4.909e15 rad/s
chirp = -348e3 fs^2

[lens]
signal_chirp = 696e3 fs^2

[phasematching]
sigma = infinite

[delay]
sweep_start = -2 ps
sweep_stop = 2 ps
sweep_points = 3

[grid]
n = auto
"""

# experimental.cfg with seeded centers and correlation; the grid is fixed
# at 512 x 512, so neither changes the cost.
SIMULATE_CONFIG = _INPUT + """
[escort]
center = 774.6 nm
bandwidth = 2.766 THz
chirp = -344e3 fs^2

[lens]
signal_chirp = 696e3 fs^2
output_chirp = solve

[phasematching]
sigma = infinite

[delay]
tau = 0 ps

[grid]
n = 512
herald_n = 512
output_n = 512
span = 6
"""

# Generating surface of the fit histogram: the measured input state.
HIST_SHAPE = (56, 48)
HIST_PARAMS = {
    "amplitude": 1000.0,
    "center1_nm": 811.006,
    "centerh_nm": 740.194,
    "fwhm1_nm": 4.047,
    "fwhmh_nm": 3.733,
    "rho": -0.97024,
    "offset": 5.0,
}
HIST_HALF_SPAN_SIGMAS = 4.0
HIST_DRAW_SEED = 1
FIT_TRIALS = 100


def _config_text(template: str, seed: int, vary_correlation: bool) -> str:
    rng = random.Random(seed)
    return template.format(
        signal_nm=811.006 + rng.uniform(-0.5, 0.5),
        herald_nm=740.194 + rng.uniform(-0.5, 0.5),
        correlation=-0.9776 + (rng.uniform(-0.002, 0.002) if vary_correlation else 0.0),
    )


def histogram(seed: int):
    """Axes (nm) and Poisson counts of the fit workload's histogram."""
    import numpy as np

    p = HIST_PARAMS
    fwhm_per_sigma = 2.0 * math.sqrt(2.0 * math.log(2.0))
    s1 = p["fwhm1_nm"] / fwhm_per_sigma
    sh = p["fwhmh_nm"] / fwhm_per_sigma
    lam1 = np.linspace(-HIST_HALF_SPAN_SIGMAS, HIST_HALF_SPAN_SIGMAS, HIST_SHAPE[0]) * s1
    lamh = np.linspace(-HIST_HALF_SPAN_SIGMAS, HIST_HALF_SPAN_SIGMAS, HIST_SHAPE[1]) * sh
    d1 = lam1[:, None] / s1
    dh = lamh[None, :] / sh
    q = (d1**2 - 2.0 * p["rho"] * d1 * dh + dh**2) / (1.0 - p["rho"] ** 2)
    mean = p["offset"] + p["amplitude"] * np.exp(-0.5 * q)
    counts = np.random.default_rng(seed).poisson(mean)
    return lam1 + p["center1_nm"], lamh + p["centerh_nm"], counts


def _write_histogram(seed: int, inputs: Path) -> None:
    """The fixed draw as a fixed-width CSV; the seed goes to ``--seed``."""
    lam1, lamh, counts = histogram(HIST_DRAW_SEED)
    with open(inputs / "hist.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("signal_nm\\herald_nm," + ",".join("%.9f" % v for v in lamh) + "\n")
        for lam, row in zip(lam1, counts):
            fh.write("%.9f," % lam + ",".join("%05d" % v for v in row) + "\n")


def _rows(path: Path, key: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row[key]: row for row in csv.DictReader(fh)}


def _check_sweep(inputs: Path, out: Path, stdout: str) -> list[str]:
    from timelens import lens, units
    from timelens.config import parse_config

    cfg = parse_config(inputs / "sweep.cfg")
    ideal = lens.tunability(cfg.lens, cfg.state, lens.IDEAL)[0]
    expected = units.slope_rad_to_thz_per_ps(ideal)
    slopes = {}
    for line in (out / "slopes.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        slopes[key.strip()] = float(value)
    problems = []
    signal = slopes["signal_slope_thz_per_ps"]
    if abs(signal - expected) > 0.01 * abs(expected):
        problems.append(f"signal slope {signal} THz/ps is not within 1% of {expected}")
    herald = slopes["herald_slope_thz_per_ps"]
    if abs(herald) >= 0.005:
        problems.append(f"herald slope {herald} THz/ps is not below 0.005")
    return problems


def _check_simulate(inputs: Path, out: Path, stdout: str) -> list[str]:
    rows = _rows(out / "stats.csv", "engine")
    grid, closed = rows["grid-output"], rows["closed-form-output"]
    problems = []
    for col in ("sigma_signal_rad_s", "sigma_herald_rad_s"):
        g, c = float(grid[col]), float(closed[col])
        if abs(g - c) > 1e-3 * abs(c):
            problems.append(f"{col}: grid {g} vs closed form {c} differ by more than 1e-3")
    g, c = float(grid["rho"]), float(closed["rho"])
    if abs(g - c) > 1e-3:
        problems.append(f"rho: grid {g} vs closed form {c} differ by more than 1e-3")
    return problems


def _check_fit(inputs: Path, out: Path, stdout: str) -> list[str]:
    rho = _rows(out / "fitreport.csv", "parameter")["rho"]
    value, error = float(rho["raw_value"]), float(rho["raw_error"])
    problems = []
    if not abs(value - HIST_PARAMS["rho"]) <= 5.0 * error:
        problems.append(
            f"fitted rho {value} +- {error} is not within 5 error bars of {HIST_PARAMS['rho']}"
        )
    if "UNRELIABLE" in stdout:
        problems.append("Monte Carlo run flagged unreliable")
    return problems


def _check_validate(inputs: Path, out: Path, stdout: str) -> list[str]:
    report = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    return [
        f"suite {name} failed: {entry['detail']}"
        for name, entry in report.items()
        if not entry["ok"]
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Path], None]
    argv: Callable[[Path, Path, int], list]
    check: Callable[[Path, Path, str], list]


def _writer(filename: str, template: str, vary_correlation: bool):
    def make(seed: int, inputs: Path) -> None:
        text = _config_text(template, seed, vary_correlation)
        (inputs / filename).write_text(text, encoding="utf-8")

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-ideal",
            "3-delay sweep on an auto-sized 4096x512 grid: FFT convolution, SVD stats and "
            "heatmap rendering of ~38 MB fields",
            _writer("sweep.cfg", SWEEP_CONFIG, vary_correlation=False),
            lambda i, o, seed: ["sweep", "--config", str(i / "sweep.cfg"), "--out", str(o)],
            _check_sweep,
        ),
        Workload(
            "simulate-experimental",
            "512x512 fields near L2 size: direct convolution, 35 MB of field CSV and "
            "two 512x512 contour fits",
            _writer("simulate.cfg", SIMULATE_CONFIG, vary_correlation=True),
            lambda i, o, seed: [
                "simulate", "--config", str(i / "simulate.cfg"), "--out", str(o)
            ],
            _check_simulate,
        ),
        Workload(
            "fit-mc100",
            "100 Monte Carlo refits of a cache-sized 56x48 histogram; no grid, CSV-dump or "
            "SVG work, so grid changes read no change",
            _write_histogram,
            lambda i, o, seed: [
                "fit", str(i / "hist.csv"), "--res-signal", "0.136", "--res-herald", "0.148",
                "--trials", str(FIT_TRIALS), "--seed", str(seed),
                "--out", str(o),
            ],
            _check_fit,
        ),
        Workload(
            "validate-quick",
            "many small calls (256-sample grids, both convolution paths, closed-form lens) "
            "where per-call setup outweighs throughput",
            lambda seed, inputs: None,
            lambda i, o, seed: ["validate", "--quick", "--out", str(o)],
            _check_validate,
        ),
    )
}


def differing_outputs(first: Path, second: Path) -> list[str]:
    """CSV and SVG files that are missing from one run or differ in bytes."""
    def outputs(d: Path) -> dict:
        return {p.name: p for p in d.iterdir() if p.suffix in (".csv", ".svg")}

    a, b = outputs(first), outputs(second)
    problems = [f"{name} written by only one call" for name in sorted(a.keys() ^ b.keys())]
    for name in sorted(a.keys() & b.keys()):
        if a[name].read_bytes() != b[name].read_bytes():
            problems.append(f"{name} differs between the cold and a repeated call")
    return problems
