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

import os
import struct
from typing import NoReturn

import numpy as np

from .grid import Grid1D, GridField2D

BINARY_MAGIC = 21580.0  # 'TL' as a float-coded tag
BINARY_VERSION = 1.0

CSV_HEADER = "omega1_rad_s,omegah_rad_s,intensity_per_rad_s_sq,phase_rad"


def write_field_csv(field: GridField2D, path) -> None:
    """Write the field as CSV with intensity and phase columns.

    Every value is written with %.17g, so it reads back exactly.  The
    signal rows are formatted by two processes at once (POSIX only): a
    helper forked here formats the second half into one buffer and sends
    it through a pipe while this process formats and writes the first
    half, then appends the helper's bytes.  The bytes are those of a
    single process writing every row in order.
    """
    w1 = ["%.17g," % w for w in field.axis1.points.tolist()]
    wh = ["%.17g," % w for w in field.axis_h.points.tolist()]
    intensity = field.intensity()
    phase = np.angle(field.values)
    half = len(w1) // 2
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode("ascii") + b"\n")
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            _send_rows(read_end, write_end, w1[half:], wh, intensity[half:], phase[half:])
        os.close(write_end)
        try:
            for text in _format_rows(w1[:half], wh, intensity[:half], phase[:half]):
                fh.write(text.encode("ascii"))
            while chunk := os.read(read_end, 1 << 20):
                fh.write(chunk)
        finally:
            # a helper blocked on a full pipe gets EPIPE once the read
            # end is closed, so waiting for it cannot deadlock
            os.close(read_end)
            status = os.waitpid(pid, 0)[1]
    if status != 0:
        raise OSError(
            f"{path}: helper formatting signal rows {half}..{len(w1) - 1} failed "
            f"with exit code {os.waitstatus_to_exitcode(status)}"
        )


def _format_rows(w1, wh, intensity, phase):
    """Yield the CSV lines of each signal row, one string per row.

    w1 and wh hold the formatted axis values ending in a comma; each row
    of len(wh) lines is formatted by one % call.
    """
    nh = len(wh)
    row_format = "%s%s%.17g,%.17g\n" * nh
    cells = [None] * (4 * nh)
    cells[1::4] = wh
    for w, row_intensity, row_phase in zip(w1, intensity, phase):
        cells[0::4] = [w] * nh
        cells[2::4] = row_intensity.tolist()
        cells[3::4] = row_phase.tolist()
        yield row_format % tuple(cells)


def _send_rows(read_end: int, write_end: int, *rows) -> NoReturn:
    """Helper body: format every row before writing, then leave by os._exit.

    Formatting the whole half first lets both processes format at once
    (the pipe holds only 64 KiB).  The helper closes its copy of the read
    end, so a reader that closes early makes its write fail instead of
    blocking.  os._exit runs no atexit handler and flushes none of the
    buffers inherited from the parent; any failure gives exit code 1.
    """
    status = 1
    try:
        os.close(read_end)
        data = memoryview("".join(_format_rows(*rows)).encode("ascii"))
        while data:
            data = data[os.write(write_end, data):]
        status = 0
    finally:
        os._exit(status)


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
    # a C-contiguous complex128 field on a little-endian machine is
    # written from its own buffer, without a copy
    body = np.ascontiguousarray(field.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(body))


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
