"""Self-contained SVG heatmaps of joint spectra with an optional Gaussian contour overlay.

The intensity over signal and herald wavelength (nm) is rendered as a
base64-embedded PNG (written with the standard library, no filtering,
maximum deflate level, so identical inputs give identical bytes) under a
fixed five-anchor color ramp.  Axis extents are drawn as five tick labels
and also embedded at full precision, with the sample counts, in a
metadata block so downstream checks can match the image's extents
against the exported grids exactly.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import zlib

import numpy as np

from .grid import row_blocks

# fixed color ramp, dark violet to bright yellow, anchors at even spacing
_RAMP = np.array(
    [
        (13, 8, 135),
        (126, 3, 168),
        (204, 71, 120),
        (248, 149, 64),
        (240, 249, 33),
    ],
    dtype=float,
)

# cells per row block of colormap: 128 KB per float64 temporary, so a
# block's dozen temporaries fit the 2 MB L2 cache
_BLOCK_CELLS = 2**14

_WIDTH = 640
_HEIGHT = 560
_MARGIN_L = 90
_MARGIN_R = 30
_MARGIN_T = 50
_MARGIN_B = 70
# the plot box in pixels: a heatmap panel needs no more samples than these
PLOT_WIDTH = _WIDTH - _MARGIN_L - _MARGIN_R
PLOT_HEIGHT = _HEIGHT - _MARGIN_T - _MARGIN_B


def colormap(values: np.ndarray, peak: float) -> np.ndarray:
    """Map values over peak, clipped to [0, 1], to RGB bytes via the fixed ramp.

    Rows of the first axis are divided by peak and mapped in blocks of
    about _BLOCK_CELLS cells, each with one gather per channel, so no
    normalized copy of the whole array is made.
    """
    v = np.asarray(values, dtype=float)
    rows = np.atleast_2d(v)
    rgb = np.empty(rows.shape + (3,), dtype=np.uint8)
    for r in row_blocks(len(rows), math.prod(rows.shape[1:]), _BLOCK_CELLS):
        pos = rows[r] / peak
        np.clip(pos, 0.0, 1.0, out=pos)
        pos *= _RAMP.shape[0] - 1
        lo = np.floor(pos).astype(np.intp)
        hi = np.minimum(lo + 1, _RAMP.shape[0] - 1)
        frac = pos - lo
        rest = 1.0 - frac
        block = rgb[r]
        for channel, ramp in enumerate(_RAMP.T):
            block[..., channel] = np.round(ramp.take(lo) * rest + ramp.take(hi) * frac)
    return rgb.reshape(v.shape + (3,))


def _png_encode(rgb: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array as a minimal deterministic PNG."""
    h, w, _ = rgb.shape

    def chunk(tag: bytes, payload: bytes) -> bytes:
        raw = tag + payload
        return struct.pack(">I", len(payload)) + raw + struct.pack(">I", zlib.crc32(raw))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = b"".join(b"\x00" + rgb[i].tobytes() for i in range(h))
    idat = zlib.compress(rows, 9)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )


def render_heatmap(
    matrix: np.ndarray,
    x_axis: np.ndarray,
    y_axis: np.ndarray,
    title: str,
    contour=None,
) -> str:
    """SVG text of a heatmap of matrix[i, j] over (x_axis[i], y_axis[j]) in nm.

    contour, when given, is (cx, cy, cov, level) describing the ellipse
    x^T cov^-1 x = level around (cx, cy) in data coordinates; it is drawn
    in white on top of the image.  The axis extents and unit are embedded
    as JSON metadata.
    """
    matrix = np.asarray(matrix, dtype=float)
    x_axis = np.asarray(x_axis, dtype=float)
    y_axis = np.asarray(y_axis, dtype=float)
    if matrix.shape != (x_axis.size, y_axis.size):
        raise ValueError("matrix shape does not match the axes")

    peak = matrix.max()
    # image rows run top to bottom: row 0 is the largest y; x / 1.0 is x,
    # so a matrix with no positive peak is mapped as it is
    rgb = colormap(matrix.T[::-1, :], peak if peak > 0 else 1.0)
    png = base64.b64encode(_png_encode(rgb)).decode("ascii")

    plot_w, plot_h = PLOT_WIDTH, PLOT_HEIGHT
    x_lo, x_hi = float(x_axis[0]), float(x_axis[-1])
    y_lo, y_hi = float(y_axis[0]), float(y_axis[-1])

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    ]
    meta = {
        "x_start": x_lo,
        "x_stop": x_hi,
        "x_n": int(x_axis.size),
        "y_start": y_lo,
        "y_stop": y_hi,
        "y_n": int(y_axis.size),
        "axes_unit": "nm",
    }
    parts.append("<metadata>" + json.dumps(meta, sort_keys=True) + "</metadata>")
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )
    parts.append(
        f'<image x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'preserveAspectRatio="none" style="image-rendering:pixelated" '
        f'href="data:image/png;base64,{png}"/>'
    )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for xv in np.linspace(x_lo, x_hi, 5):
        xp = px(xv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{_MARGIN_T + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{_MARGIN_T + plot_h + 22}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xv:.6g}</text>'
        )
    for yv in np.linspace(y_lo, y_hi, 5):
        yp = py(yv)
        parts.append(
            f'<line x1="{_MARGIN_L - 6}" y1="{yp:.2f}" x2="{_MARGIN_L}" '
            f'y2="{yp:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 10}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="14">signal wavelength (nm)</text>'
    )
    parts.append(
        f'<text x="24" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 24 {_MARGIN_T + plot_h / 2:.1f})">'
        "herald wavelength (nm)</text>"
    )

    if contour is not None:
        cx, cy, cov, level = contour
        # transform the covariance to (anisotropic) pixel coordinates,
        # then eigendecompose there so the drawn ellipse is exact
        sx = plot_w / (x_hi - x_lo)
        sy = -plot_h / (y_hi - y_lo)
        scale = np.array([[sx, 0.0], [0.0, sy]])
        cov_px = scale @ np.asarray(cov, dtype=float) @ scale.T
        evals, evecs = np.linalg.eigh(cov_px)
        r1 = math.sqrt(max(evals[0], 0.0) * level)
        r2 = math.sqrt(max(evals[1], 0.0) * level)
        angle = math.degrees(math.atan2(evecs[1, 0], evecs[0, 0]))
        parts.append(
            f'<ellipse cx="0" cy="0" rx="{r1:.3f}" ry="{r2:.3f}" fill="none" '
            f'stroke="white" stroke-width="1.8" '
            f'transform="translate({px(cx):.3f} {py(cy):.3f}) rotate({angle:.3f})"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
