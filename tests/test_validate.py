import numpy as np
import pytest

from timelens import lens
from timelens.validate import SUITES, SuiteParams, run_suites
from timelens.svgplot import _png_encode, colormap


def test_all_suites_green_quick():
    report, all_ok = run_suites(SuiteParams(quick=True))
    failing = [name for name, entry in report.items() if not entry["ok"]]
    assert all_ok, failing
    assert set(report) == set(SUITES)


def test_mutation_breaks_cross_engine():
    original = lens.output_correlation
    report, all_ok = run_suites(
        SuiteParams(quick=True),
        names=["cross-engine"],
        perturbations={"output_correlation": 1.01},
    )
    assert not all_ok
    # entry points restored afterwards
    assert lens.output_correlation is original


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
    rgb = colormap(np.linspace(0, 1, 64).reshape(8, 8))
    assert rgb.shape == (8, 8, 3)
    assert _png_encode(rgb) == _png_encode(rgb)
    assert _png_encode(rgb)[:8] == b"\x89PNG\r\n\x1a\n"


def test_colormap_clips_and_interpolates():
    rgb = colormap(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]))
    assert np.array_equal(rgb[0], rgb[1])
    assert np.array_equal(rgb[3], rgb[4])
    assert not np.array_equal(rgb[1], rgb[2])
