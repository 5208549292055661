import numpy as np
import pytest

from timelens import svgplot
from timelens.grid import row_blocks

import oracles


def assert_matches_oracle(values, peak=1.0):
    got = svgplot.colormap(values, peak)
    want = oracles.ramp_colors(np.asarray(values) / peak, svgplot._RAMP)
    assert got.dtype == np.uint8
    assert got.shape == np.shape(values) + (3,)
    assert np.array_equal(got, want)


def layout_values(layout, shape):
    """Random values in [0, 1] of the given shape, contiguous or as render_heatmap's view."""
    rng = np.random.default_rng(9)
    normed = rng.random(shape) ** 3
    values = np.ascontiguousarray(normed) if layout == "c_contiguous" else normed.T[::-1, :]
    assert values.flags.c_contiguous == (layout == "c_contiguous")
    return values


class TestColormap:
    def test_random_values_with_out_of_range(self):
        rng = np.random.default_rng(5)
        assert_matches_oracle(rng.uniform(-0.5, 1.5, size=(37, 23)))

    def test_anchors(self):
        anchors = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert_matches_oracle(anchors)
        for value in anchors:
            assert_matches_oracle(value)
        assert np.array_equal(svgplot.colormap(anchors, 1.0), svgplot._RAMP.astype(np.uint8))

    @pytest.mark.parametrize("layout", ["c_contiguous", "heatmap_view"])
    def test_layouts(self, layout):
        # render_heatmap passes the transposed, row-reversed view of the
        # matrix
        assert_matches_oracle(layout_values(layout, (61, 40)))

    @pytest.mark.parametrize("layout", ["c_contiguous", "heatmap_view"])
    def test_divides_by_peak_per_block(self, layout):
        # the blocks divide by the peak, byte for byte as the whole matrix
        # divided once; the values span several blocks
        values = 1e4 * layout_values(layout, (1000, 70))
        assert_matches_oracle(values, values.max())

    @pytest.mark.parametrize("layout", ["c_contiguous", "heatmap_view"])
    def test_rows_span_several_blocks(self, layout):
        # either way round, the rows are mapped in several blocks, the last
        # one partial
        values = layout_values(layout, (1000, 70))
        block = row_blocks(values.shape[0], values.shape[1], svgplot._BLOCK_CELLS)[0].stop
        assert values.shape[0] > block and values.shape[0] % block != 0
        assert_matches_oracle(values)
