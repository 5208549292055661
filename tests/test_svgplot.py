import numpy as np
import pytest

from timelens import svgplot

import oracles


def assert_matches_oracle(values):
    got = svgplot.colormap(values)
    want = oracles.ramp_colors(values, svgplot._RAMP)
    assert got.dtype == np.uint8
    assert got.shape == np.shape(values) + (3,)
    assert np.array_equal(got, want)


class TestColormap:
    def test_random_values_with_out_of_range(self):
        rng = np.random.default_rng(5)
        assert_matches_oracle(rng.uniform(-0.5, 1.5, size=(37, 23)))

    def test_anchors(self):
        anchors = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert_matches_oracle(anchors)
        for value in anchors:
            assert_matches_oracle(value)
        assert np.array_equal(svgplot.colormap(anchors), svgplot._RAMP.astype(np.uint8))

    @pytest.mark.parametrize("layout", ["c_contiguous", "heatmap_view"])
    def test_layouts(self, layout):
        # render_heatmap passes the transposed, row-reversed view of the
        # normalized matrix
        rng = np.random.default_rng(9)
        normed = rng.random((61, 40)) ** 3
        values = np.ascontiguousarray(normed) if layout == "c_contiguous" else normed.T[::-1, :]
        assert values.flags.c_contiguous == (layout == "c_contiguous")
        assert_matches_oracle(values)
