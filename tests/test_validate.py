import re
from dataclasses import replace

import numpy as np
import pytest

from timelens import grid, lens, validate
from timelens.validate import SUITES, SuiteParams, run_suites
from timelens.svgplot import _png_encode, colormap

import oracles


def test_all_suites_green_quick():
    report, all_ok = run_suites(SuiteParams(quick=True))
    failing = [name for name, entry in report.items() if not entry["ok"]]
    assert all_ok, failing
    assert set(report) == set(SUITES)


NAN = float("nan")

# Each row replaces a name where the suites look it up, by a wrapper that
# alters its result, and lists every suite of a quick run that must fail,
# each with a pattern for its detail text.  The pattern's group is the
# deviation the suite reports, which must be NaN or above 1e-3: the suite
# fails on its comparison and does not crash.  Rows patch the closed-form
# core in ``lens`` or a grid name that ``validate`` imported, never a
# ``timelens`` re-export, which the suites do not read.
MUTATIONS = [
    pytest.param(
        lens, "gaussian_output", lambda out: replace(out, sigma3=1.01 * out.sigma3),
        {
            "cross-engine": r"max width dev (\S+) rel",
            "limit-consistency": r"broad-escort limit dev (\S+) ",
        },
        id="sigma3-x1.01",
    ),
    pytest.param(
        lens, "gaussian_output", lambda out: replace(out, rho_f=1.01 * out.rho_f),
        {
            "cross-engine": r"max correlation dev (\S+) abs",
            "limit-consistency": r"broad-escort limit dev (\S+) ",
        },
        id="rho_f-x1.01",
    ),
    # every worst-case tracker propagates NaN, so a NaN never reads as
    # agreement
    pytest.param(
        lens, "gaussian_output", lambda out: replace(out, sigma3=NAN),
        {
            "cross-engine": r"max width dev (\S+) rel",
            "limit-consistency": r"broad-escort limit dev (\S+) ",
            "rho-symmetry": r"under rho sign flip (\S+)$",
        },
        id="sigma3-nan",
    ),
    # the sign law names a NaN correlation rather than reading a sign,
    # which copysign would take from the NaN's sign bit
    pytest.param(
        lens, "gaussian_output", lambda out: replace(out, rho_f=NAN),
        {
            "cross-engine": r"max correlation dev (\S+) abs",
            "limit-consistency": r"broad-escort limit dev (\S+) ",
            "rho-symmetry": r"under rho sign flip (\S+)$",
            "sign-law": r"^output correlation is (nan) at rho=",
        },
        id="rho_f-nan",
    ),
    # the cross-engine suite holds the grid to all five closed-form gaps,
    # not only the signal width and the correlation
    pytest.param(
        validate, "intensity_moments", lambda m: replace(m, sigmah=1.01 * m.sigmah),
        {"cross-engine": r"max herald width dev (\S+) rel"},
        id="herald-width-x1.01",
    ),
    pytest.param(
        validate, "intensity_moments", lambda m: replace(m, meanh=m.meanh + 2e-3 * m.sigmah),
        {"cross-engine": r"and (\S+) sigma"},
        id="herald-center-2e-3-sigma",
    ),
    pytest.param(
        validate, "compute_stats", lambda st: replace(st, schmidt_k=1.01 * st.schmidt_k),
        {"schmidt-consistency": r"SVD vs formula dev (\S+) "},
        id="schmidt-k-x1.01",
    ),
]


@pytest.mark.parametrize("module, name, change, failing", MUTATIONS)
def test_mutation_matrix(module, name, change, failing, monkeypatch):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args)))
    report, all_ok = run_suites(SuiteParams(quick=True))
    assert not all_ok
    failed = {suite: entry["detail"] for suite, entry in report.items() if not entry["ok"]}
    assert set(failed) == set(failing), failed
    for suite, pattern in failing.items():
        found = re.search(pattern, failed[suite])
        assert found and not float(found.group(1)) <= 1e-3, failed[suite]
    monkeypatch.undo()
    assert getattr(module, name) is original


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
