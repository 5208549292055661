import re
from dataclasses import replace

import numpy as np
import pytest

from timelens import grid, lens, validate
from timelens.validate import PERTURBABLE, SUITES, SuiteParams, run_suites
from timelens.svgplot import _png_encode, colormap

import oracles


def test_all_suites_green_quick():
    report, all_ok = run_suites(SuiteParams(quick=True))
    failing = [name for name, entry in report.items() if not entry["ok"]]
    assert all_ok, failing
    assert set(report) == set(SUITES)


# the cross-engine deviation that each perturbable entry point moves
DEVIATION = {"output_sigma3": "width", "output_correlation": "correlation"}


@pytest.mark.parametrize("key", PERTURBABLE)
def test_mutation_breaks_cross_engine(key):
    original = getattr(lens, key)
    report, all_ok = run_suites(
        SuiteParams(quick=True),
        names=["cross-engine"],
        perturbations={key: 1.01},
    )
    assert not all_ok
    # the suite fails on its comparison: the scaled quantity deviates by
    # about 1e-2, above the 1e-3 limit
    detail = report["cross-engine"]["detail"]
    dev = re.search(rf"max {DEVIATION[key]} dev (\S+)", detail)
    assert dev and float(dev.group(1)) > 1e-3, detail
    # entry points restored afterwards
    assert getattr(lens, key) is original


@pytest.mark.parametrize("key", PERTURBABLE)
def test_nan_mutation_fails_every_closed_form_suite(key):
    # a NaN deviation is never read as agreement: builtin max(worst, nan)
    # keeps worst, so every worst-case tracker propagates the NaN.  The
    # sign law reads output_correlation, and names its NaN rather than a
    # sign, which copysign would take from the NaN's sign bit
    suites = ["cross-engine", "limit-consistency", "rho-symmetry"]
    if key == "output_correlation":
        suites.append("sign-law")
    report, all_ok = run_suites(
        SuiteParams(quick=True), names=suites, perturbations={key: float("nan")}
    )
    assert not all_ok
    for name in suites:
        assert not report[name]["ok"], report[name]
        assert "nan" in report[name]["detail"]
    if key == "output_correlation":
        assert report["sign-law"]["detail"].startswith("output correlation is nan at rho=")


@pytest.mark.parametrize(
    "change, dev",
    [
        (lambda m: replace(m, sigmah=1.01 * m.sigmah), r"max herald width dev (\S+) rel"),
        (lambda m: replace(m, meanh=m.meanh + 2e-3 * m.sigmah), r"and (\S+) sigma"),
    ],
    ids=["herald-width-1.01", "herald-center-2e-3-sigma"],
)
def test_cross_engine_checks_herald_width_and_centers(change, dev, monkeypatch):
    # the suite holds the grid to all five closed-form gaps, not only the
    # signal width and the correlation
    monkeypatch.setattr(
        validate, "intensity_moments", lambda field: change(grid.intensity_moments(field))
    )
    report, all_ok = run_suites(SuiteParams(quick=True), names=["cross-engine"])
    assert not all_ok
    detail = report["cross-engine"]["detail"]
    found = re.search(dev, detail)
    assert found and float(found.group(1)) > 1e-3, detail


@pytest.mark.parametrize(
    "gap, value",
    [("rho", float("nan")), ("rho", 2e-3), ("signal center", 1.1e-3)],
    ids=["rho-nan", "rho-2e-3", "signal-center-1.1e-3"],
)
def test_check_closed_form_refuses_nan_and_large_gaps(exp_state, exp_lens, gap, value):
    pred = lens.predict_output(exp_lens, exp_state)
    exact = grid.IntensityMoments(
        mean1=pred.omega3_center, meanh=pred.omegah_center, sigma1=pred.sigma3,
        sigmah=pred.sigmah_f, rho=pred.rho_f, norm=1.0,
    )
    validate.check_closed_form("row", 512, pred, exact)
    if gap == "rho":
        moments = replace(exact, rho=exact.rho + value)
    else:
        moments = replace(exact, mean1=exact.mean1 + value * pred.sigma3)
    with pytest.raises(validate.GridAccuracyError, match=rf"^row: the grid's {gap} \("):
        validate.check_closed_form("row", 512, pred, moments)


ENGINE_SUITES = ("cross-engine", "grid-refinement", "schmidt-consistency", "center-conservation")


def test_engine_suites_convolve_on_the_shipped_route(monkeypatch):
    # every convolution runs the FFT path on a field and output grid
    # planned by prepare_sweep, as simulate and sweep do
    plans, calls = [], []

    def planner(*args, **kwargs):
        plans.append(grid.prepare_sweep(*args, **kwargs))
        return plans[-1]

    def convolve(field, *args, **kwargs):
        calls.append((field, kwargs.get("out_grid"), kwargs.get("method")))
        return grid.sfg_convolve(field, *args, **kwargs)

    monkeypatch.setattr(validate, "prepare_sweep", planner)
    monkeypatch.setattr(validate, "sfg_convolve", convolve)
    report, all_ok = run_suites(SuiteParams(quick=True), names=ENGINE_SUITES)
    assert all_ok, report
    assert len(calls) >= len(ENGINE_SUITES)
    for field, out_grid, method in calls:
        assert method == "fft"
        assert any(field is f and out_grid is g for f, g in plans)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(names=["no-such-suite"])


def test_unknown_perturbation_rejected():
    original = lens.output_sigma3
    with pytest.raises(ValueError):
        run_suites(
            names=["units-roundtrip"], perturbations={"output_sigma3": 2.0, "bogus": 2.0}
        )
    assert lens.output_sigma3 is original


def test_png_encoder_deterministic():
    rgb = colormap(np.linspace(0, 1, 64).reshape(8, 8), 1.0)
    assert rgb.shape == (8, 8, 3)
    assert _png_encode(rgb) == _png_encode(rgb)
    assert _png_encode(rgb)[:8] == b"\x89PNG\r\n\x1a\n"


def test_colormap_clips_and_interpolates():
    rgb = colormap(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]), 1.0)
    assert np.array_equal(rgb[0], rgb[1])
    assert np.array_equal(rgb[3], rgb[4])
    assert not np.array_equal(rgb[1], rgb[2])


def test_simpson_matches_scipy():
    # the JSA normalization suite's 801-point rule, against scipy's simpson
    rng = np.random.default_rng(8)
    w1 = np.linspace(2.29e15, 2.31e15, 801)
    wh = np.linspace(2.49e15, 2.51e15, 801)
    values = rng.uniform(0.0, 1.0, (801, 801)) * 1e-24
    got = validate._simpson(validate._simpson(values, wh), w1)
    assert got == pytest.approx(oracles.simpson_2d(values, w1, wh), rel=1e-12)
