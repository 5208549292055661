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

import functools
import os
import struct
from typing import NoReturn

import numpy as np

from .grid import Grid1D, GridField2D, row_blocks

BINARY_MAGIC = 21580.0  # 'TL' as a float-coded tag
BINARY_VERSION = 1.0

CSV_HEADER = "omega1_rad_s,omegah_rad_s,intensity_per_rad_s_sq,phase_rad"

# cells per row block of the CSV text: a block's padded lines, their bytes
# and the formatter's temporaries take under 4 MiB
_CSV_BLOCK_CELLS = 2**13
# bytes the parent of write_field_csv holds per cell of its largest row
# block, and per axis sample: a block's padded words, their bytes and the
# formatter's temporaries (measured 430-470), and an axis value's text
# and its padded words
_CSV_BLOCK_BYTES = 450
_CSV_AXIS_BYTES = 128
# uint64 words per value of _format_g17: sign and lead, then the digits,
# dot and exponent suffix
_G17_WORDS = 4
# np.frexp exponents of doubles run from -1073 (5e-324) to 1024, their
# decimal exponents from -324 to 308
_EXP2_MIN = -1073
_EXP10_MIN = -324
_ASCII_ZEROS = 0x3030303030303030
_ASCII_DOTS = 0x2E2E2E2E2E2E2E2E
_ALL_BYTES = 2**64 - 1
# the masks of a word's lowest 0..8 bytes
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# _g17_scales' table, one column per frexp exponent, filled on its first use
_SCALES = np.zeros((5, 1025 - _EXP2_MIN))
_SCALES_BUILT = np.zeros(1025 - _EXP2_MIN, dtype=bool)


def write_field_csv(field: GridField2D, path) -> None:
    """Write the field as CSV with intensity and phase columns.

    Every value is written with %.17g, so it reads back exactly.  The
    signal rows are formatted by two processes at once (POSIX only): a
    helper forked here formats the second half into one buffer and sends
    it through a pipe while this process formats and writes the first
    half, then appends the helper's bytes.  The bytes are those of a
    single process writing every row in order.  The intensity and phase
    are taken per row block (_format_rows), so neither process holds a
    whole-field column.
    """
    w1 = ["%.17g," % w for w in field.axis1.points.tolist()]
    wh = ["%.17g," % w for w in field.axis_h.points.tolist()]
    values = field.values
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
            _send_rows(read_end, write_end, w1[half:], wh, values[half:])
        os.close(write_end)
        try:
            for chunk in _format_rows(w1[:half], wh, values[:half]):
                fh.write(chunk)
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


def csv_writer_bytes(n1: int, nh: int) -> int:
    """Estimated peak bytes that numpy and Python allocate in write_field_csv's parent.

    For an n1 x nh field: the largest row block of the half this process
    formats itself, _CSV_BLOCK_BYTES a cell, and the formatted axis
    values.  The helper's half is another process's, and not counted.
    """
    rows = row_blocks(n1 // 2, nh, _CSV_BLOCK_CELLS)[0]
    return _CSV_BLOCK_BYTES * (rows.stop - rows.start) * nh + _CSV_AXIS_BYTES * (n1 + nh)


def _format_rows(w1, wh, values):
    """Yield the CSV lines of the signal rows as bytes, one chunk per row block.

    w1 and wh hold the formatted axis values ending in a comma, and
    values the rows' complex amplitudes.  Each line is laid out in
    NUL-padded 8-byte words: its signal and herald values, then the
    intensity |v|^2 and phase angle(v), taken for the block alone, by
    _format_g17 with the comma and newline in their last bytes; the
    padding is dropped in one pass.
    """
    nh = len(wh)
    signal, herald = _padded_words(w1), _padded_words(wh)
    # the first word of the herald value, the intensity and the phase
    h = signal.shape[1]
    i = h + herald.shape[1]
    p = i + _G17_WORDS
    for rows in row_blocks(len(w1), nh, _CSV_BLOCK_CELLS):
        block = np.empty((rows.stop - rows.start, nh, p + _G17_WORDS), dtype=np.uint64)
        block[:, :, :h] = signal[rows, None]
        block[:, :, h:i] = herald
        cells = block.reshape(-1, block.shape[2])
        _format_g17((np.abs(values[rows]) ** 2).ravel(), cells[:, i:p])
        _format_g17(np.angle(values[rows]).ravel(), cells[:, p:])
        cells[:, p - 1] |= ord(",") << 56
        cells[:, -1] |= ord("\n") << 56
        yield block.tobytes().translate(None, b"\0")


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
        data = memoryview(b"".join(_format_rows(*rows)))
        while data:
            data = data[os.write(write_end, data):]
        status = 0
    finally:
        os._exit(status)


def _padded_words(texts: list[str]) -> np.ndarray:
    """ASCII texts as rows of uint64 words, NUL-padded to the longest."""
    words = -(-max(map(len, texts)) // 8)
    text = np.array([t.encode("ascii") for t in texts], dtype=f"S{8 * words}")
    return text.view(np.uint64).reshape(len(texts), words)


def _format_g17(values: np.ndarray, out: np.ndarray) -> None:
    """Write '%.17g' % v of each float64 v into a row of out, NUL-padded.

    out has one row of _G17_WORDS uint64 per value; dropping its NUL
    bytes leaves the text, and the row's last byte is always NUL.  The
    17 digits of _decimal_digits are converted eight at a time inside a
    word and laid out by %g's rules: fixed notation for decimal exponents
    -4 <= X < 17, otherwise d.ddde+XX with at least two exponent digits,
    trailing zeros and a bare dot dropped, and +-0.0 written 0 and -0.
    The values _decimal_digits cannot decide are formatted by Python.
    """
    digits, exp10, undecided = _decimal_digits(values)
    layout = _g17_layout().take(exp10 - _EXP10_MIN, axis=1)
    # the digits as bytes of three words: digits 0-7, 8-15 and 16
    first = digits // 10**9
    digits -= first * 10**9
    second = digits // 10
    last = digits - second * 10
    first, second = _digit_bytes(first), _digit_bytes(second)
    # the count of digits up to the last nonzero one, from the top byte's exponent
    significant = np.frexp(last * 2.0**128 + second * 2.0**64 + first)[1]
    significant += 7
    significant >>= 3
    significant = significant.astype(np.uint64)
    before_dot = layout[2]
    kept = np.maximum(significant, before_dot)
    first |= _ASCII_ZEROS
    first &= _BYTE_MASKS.take(np.clip(kept, 0, 8))
    second |= _ASCII_ZEROS
    second &= _BYTE_MASKS.take(np.clip(kept, 8, 16) - 8)
    last |= ord("0")
    last *= kept > 16
    # the dot goes at byte before_dot when a kept digit follows it: the
    # bytes below it come from the digits, those above from the digits
    # shifted up one byte
    dot = -(significant > before_dot).astype(np.uint64)
    text = np.empty((_G17_WORDS, values.size), dtype=np.uint64)
    np.multiply(np.signbit(values), np.uint64(ord("-")), out=text[0])
    text[0] |= layout[0]
    carry = 0
    for i, word in enumerate((first, second, last)):
        shifted = (word << 8) | carry
        carry = word >> 56
        np.bitwise_and(word, layout[3 * i + 3], out=text[i + 1])
        shifted &= layout[3 * i + 4]
        text[i + 1] |= shifted
        shifted = dot & layout[3 * i + 5]
        text[i + 1] |= shifted
    text[3] |= layout[1]
    out[:] = text.T
    if undecided.size:
        text = out.view(np.uint8)
        for i in undecided.tolist():
            encoded = ("%.17g" % values[i]).encode("ascii")
            text[i] = 0
            text[i, : len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)


def _decimal_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|v| rounded to 17 significant digits: the digits, the decimal exponent, the undecided.

    A finite v = m 2**e (np.frexp, 0.5 <= m < 1) is scaled by the
    double-double 2**e 10**(16 - k) of _g17_scales into [1e16, 2e17).
    An exact Veltkamp product (numpy has no fused multiply-add) gives
    the integer part and the fraction, which decides the rounding, half
    to even, to a 17-digit integer (uint64); one that reaches 1e17 takes
    k + 1, from the integer and fraction divided by 10.  Zero gives 0
    with exponent 0.  The error of the scaled value is below 2**-46 of
    one unit in the last digit: below the 2**59 scale, hi + lo misses it
    by at most 2**-48, and m lo and the sum of the small parts (below
    2**6) are each rounded by at most 2**-48.  So the indices of the
    values whose fraction lies within 2**-30 of one half, an exact tie
    among them, are returned as undecided, with those of NaN and the
    infinities.
    """
    mant, exp2 = np.frexp(np.abs(values))
    finite = np.isfinite(values)
    mant[~finite] = 0.0
    hi, hi_high, hi_low, lo, exp10 = _g17_scales(exp2)
    split = mant * 134217729.0  # 2**27 + 1
    high = split - (split - mant)
    low = mant - high
    product = mant * hi
    rest = ((high * hi_high - product) + high * hi_low + low * hi_high) + low * hi_low
    rest += mant * lo
    floor = np.floor(rest)
    frac = rest - floor
    whole = product.astype(np.int64) + floor.astype(np.int64)
    digits = whole + (frac > 0.5)
    exp10 = exp10.astype(np.int64)
    exp10 += mant == 0.0
    over = np.flatnonzero(digits >= 10**17)
    if over.size:
        tens, units = np.divmod(whole[over], 10)
        frac[over] = frac_over = (units + frac[over]) / 10.0
        digits[over] = tens + (frac_over > 0.5)
        exp10[over] += 1
    undecided = np.flatnonzero(~finite | (np.abs(frac - 0.5) < 2.0**-30))
    return digits.view(np.uint64), exp10, undecided


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10**8, one per byte, the first in the lowest."""
    high = x // 10000
    x = high | ((x - high * 10000) << 32)
    high = ((x * 10486) >> 20) & 0x0000007F0000007F  # x // 100 in each 32-bit lane
    x = high | ((x - high * 100) << 16)
    high = ((x * 103) >> 10) & 0x000F000F000F000F  # x // 10 in each 16-bit lane
    return high | ((x - high * 10) << 8)


def _g17_scales(exp2: np.ndarray) -> np.ndarray:
    """Rows hi, hi's two Veltkamp halves, lo and k for the frexp exponents exp2.

    hi + lo is 2**e 10**(16 - k) to about 2**-106 relative, with k =
    floor(log10(2**(e - 1))), so a value of exponent e scales into
    [1e16, 2e17).  Each row is computed from exact integers on the
    first use of its exponent.
    """
    index = exp2 - _EXP2_MIN
    # a set, not np.unique, which imports numpy.ma on its first call
    for i in set(index[~_SCALES_BUILT[index]].tolist()):
        e = i + _EXP2_MIN
        k = len(str(2 ** (e - 1))) - 1 if e > 0 else -len(str(2 ** (1 - e)))
        num = 2 ** max(e, 0) * 10 ** max(16 - k, 0)
        den = 2 ** max(-e, 0) * 10 ** max(k - 16, 0)
        hi = num / den  # int / int rounds correctly
        p, q = hi.as_integer_ratio()
        split = hi * 134217729.0
        hi_high = split - (split - hi)
        _SCALES[:, i] = hi, hi_high, hi - hi_high, (num * q - p * den) / (den * q), k
        _SCALES_BUILT[i] = True
    return _SCALES.take(index, axis=1)


@functools.cache
def _g17_layout() -> np.ndarray:
    """Per decimal exponent X, in column X - _EXP10_MIN, the words that lay out its digits.

    Rows: the first word's "0.000" lead (bytes 1-5; byte 0 takes the
    sign), the exponent suffix (bytes 2-6 of the last word), the count of
    digits before the dot, and for each of the three digit words a mask
    of the bytes below the dot, one of the bytes above it, and the dot.
    """
    rows = []
    for x in range(_EXP10_MIN, 309):
        fixed = -4 <= x < 17
        before = max(x + 1, 0) if fixed else 1
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        suffix = b"" if fixed else b"e%+03d" % x
        row = [int.from_bytes(b"\0" + lead, "little"), int.from_bytes(suffix, "little") << 16]
        row.append(before)
        for i in range(3):
            below = int(_BYTE_MASKS[min(max(before - 8 * i, 0), 8)])
            through = int(_BYTE_MASKS[min(max(before + 1 - 8 * i, 0), 8)])
            dot = (through ^ below) & _ASCII_DOTS if 1 <= before <= 16 else 0
            row += [below, _ALL_BYTES ^ through, dot]
        rows.append(row)
    return np.array(rows, dtype=np.uint64).T.copy()


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
        size = os.fstat(fh.fileno()).st_size - len(raw)
        if size != 16 * n1 * nh:
            raise ValueError(
                f"{path}: expected {n1 * nh} samples ({16 * n1 * nh} bytes) after the "
                f"header, found {size} bytes"
            )
        # read into one array: fh.read() after the header joined its
        # buffered bytes to the rest and held the body twice
        body = np.fromfile(fh, dtype="<c16", count=n1 * nh)
    # no copy on a little-endian machine; GridField2D keeps it read-only
    values = body.reshape(n1, nh).astype(np.complex128, copy=False)
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
