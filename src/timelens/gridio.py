"""Export and import of sampled grid fields.

Two on-disk forms are supported:

* CSV, one row per grid point in row-major order with columns
  omega1_rad_s, omegah_rad_s, intensity_per_rad_s_sq, phase_rad.

* A binary dump: a header of eight little-endian float64 values
  (magic, format version, n1, nh, axis-1 start, herald start, axis-1
  step, herald step) followed by the complex amplitudes row-major as
  interleaved little-endian float64 (real, imag) pairs.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import Grid1D, GridField2D

BINARY_MAGIC = 21580.0  # 'TL' as a float-coded tag
BINARY_VERSION = 1.0

CSV_HEADER = "omega1_rad_s,omegah_rad_s,intensity_per_rad_s_sq,phase_rad"


def write_field_csv(field: GridField2D, path) -> None:
    """Write the field as CSV with intensity and phase columns.

    Every value is written with %.17g, so it reads back exactly.  Each
    axis value is formatted once, and each signal row of nh lines is
    formatted by one % call and written before the next is built.
    """
    nh = field.axis_h.n
    w1 = ["%.17g," % w for w in field.axis1.points.tolist()]
    wh = ["%.17g," % w for w in field.axis_h.points.tolist()]
    intensity = field.intensity()
    phase = np.angle(field.values)
    row_format = "%s%s%.17g,%.17g\n" * nh
    cells = [None] * (4 * nh)
    cells[1::4] = wh
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i, w in enumerate(w1):
            cells[0::4] = [w] * nh
            cells[2::4] = intensity[i].tolist()
            cells[3::4] = phase[i].tolist()
            fh.write(row_format % tuple(cells))


def write_field_binary(field: GridField2D, path) -> None:
    """Write the field in the documented binary layout."""
    header = struct.pack(
        "<8d",
        BINARY_MAGIC,
        BINARY_VERSION,
        float(field.axis1.n),
        float(field.axis_h.n),
        field.axis1.start,
        field.axis_h.start,
        field.axis1.step,
        field.axis_h.step,
    )
    body = np.ascontiguousarray(field.values, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.astype("<c16").tobytes())


def read_field_binary(path) -> GridField2D:
    """Read a field written by :func:`write_field_binary`."""
    with open(path, "rb") as fh:
        raw = fh.read(64)
        if len(raw) != 64:
            raise ValueError(f"{path}: truncated header")
        magic, version, n1f, nhf, s1, sh, d1, dh = struct.unpack("<8d", raw)
        if magic != BINARY_MAGIC:
            raise ValueError(f"{path}: not a grid-field binary dump (magic {magic})")
        if version != BINARY_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        n1, nh = int(n1f), int(nhf)
        body = np.frombuffer(fh.read(), dtype="<c16")
    if body.size != n1 * nh:
        raise ValueError(f"{path}: expected {n1 * nh} samples, found {body.size}")
    values = body.reshape(n1, nh).astype(np.complex128)
    return GridField2D(Grid1D(s1, d1, n1), Grid1D(sh, dh, nh), values)


def is_field_binary(path) -> bool:
    """Cheap check whether a file starts with the binary dump magic."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(8)
    except OSError:
        return False
    if len(raw) != 8:
        return False
    return struct.unpack("<d", raw)[0] == BINARY_MAGIC
