import re

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
