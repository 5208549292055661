import os
import re
import signal
import struct
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from timelens import GaussianJSA, Grid1D, GridField2D, grids_for_state, sample_jsa
from timelens import gridio
from timelens.cli import main


@pytest.fixture
def small_field():
    state = GaussianJSA(
        omega1=2.32e15, omegah=2.54e15, sigma1=1.1e12, sigmah=0.9e12, rho=-0.6,
        chirp=2e-25,
    )
    return sample_jsa(state, *grids_for_state(state, n=32, nh=24))


def test_binary_round_trip(small_field, tmp_path):
    path = tmp_path / "field.bin"
    gridio.write_field_binary(small_field, path)
    back = gridio.read_field_binary(path)
    assert back.axis1 == small_field.axis1
    assert back.axis_h == small_field.axis_h
    assert np.array_equal(back.values, small_field.values)


def test_binary_read_holds_one_body(tmp_path):
    # the body is read into one array that the field views; a complex
    # copy of it, or the buffered read joined to the rest, doubled the peak
    field = _random_field(256, 128, seed=5)
    path = tmp_path / "field.bin"
    gridio.write_field_binary(field, path)
    tracemalloc.start()
    try:
        back = gridio.read_field_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    body = field.values.nbytes
    assert peak < 1.25 * body
    assert np.array_equal(back.values, field.values)
    assert not back.values.flags.writeable


def test_binary_magic_detection(small_field, tmp_path):
    path = tmp_path / "field.bin"
    gridio.write_field_binary(small_field, path)
    assert gridio.is_field_binary(path)
    other = tmp_path / "notafield.csv"
    other.write_text("a,b\n1,2\n")
    assert not gridio.is_field_binary(other)
    assert not gridio.is_field_binary(tmp_path / "missing.bin")


def test_binary_errors(small_field, tmp_path):
    path = tmp_path / "field.bin"
    gridio.write_field_binary(small_field, path)
    data = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(data[:40])
    with pytest.raises(ValueError):
        gridio.read_field_binary(tmp_path / "trunc.bin")
    (tmp_path / "short.bin").write_bytes(data[:-16])
    with pytest.raises(ValueError):
        gridio.read_field_binary(tmp_path / "short.bin")
    bad = bytearray(data)
    bad[0] ^= 0xFF
    (tmp_path / "badmagic.bin").write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        gridio.read_field_binary(tmp_path / "badmagic.bin")


def test_csv_layout(small_field, tmp_path):
    path = tmp_path / "field.csv"
    gridio.write_field_csv(small_field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == gridio.CSV_HEADER
    assert len(lines) == 1 + 32 * 24
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(small_field.axis1.start)
    assert first[1] == pytest.approx(small_field.axis_h.start)
    assert first[2] == pytest.approx(abs(small_field.values[0, 0]) ** 2, rel=1e-12)
    # last row is the opposite grid corner (row-major order)
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(small_field.axis1.stop)
    assert last[1] == pytest.approx(small_field.axis_h.stop)


def _edge_case_field() -> GridField2D:
    # 23 x 17 (n1 != nh) on axes whose centers sit off any state center,
    # one of them crossing zero; phases of both signs, -0.0 and pi among
    # them, exact zeros and intensities below 1e-300
    rng = np.random.default_rng(17)
    axis1 = Grid1D(start=2.3187e15 + 3.3e11, step=1.7e11 / 3.0, n=23)
    axis_h = Grid1D(start=-4.1e12 / 3.0, step=2.2e12 / 3.0, n=17)
    values = rng.normal(size=(23, 17)) + 1j * rng.normal(size=(23, 17))
    values[0, 0] = 0.0
    values[3, :] = 0.0
    values[5, 2] = complex(-1.0, -0.0)
    values[5, 3] = complex(-1.0, 0.0)
    values[6, 4] = 1e-155
    values[6, 5] = -1e-160j
    values[7, 6] = complex(3e-170, -4e-170)
    values[8, 7] = complex(2.0, -0.0)
    values[20, 12] = complex(-2.5, -1e-300)
    return GridField2D(axis1, axis_h, values)


def test_csv_bytes_match_per_row_writer(small_field, tmp_path):
    edge = _edge_case_field()
    intensity, phase = edge.intensity(), np.angle(edge.values)
    assert np.any(intensity == 0.0) and np.any((intensity > 0.0) & (intensity < 1e-300))
    assert np.any(phase < 0.0) and np.any(np.signbit(phase) & (phase == 0.0))
    for field in (edge, small_field):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        gridio.write_field_csv(field, new)
        oracles.write_field_csv_rows(field, ref, gridio.CSV_HEADER)
        assert new.read_bytes() == ref.read_bytes()


def _random_field(n1: int, nh: int, seed: int) -> GridField2D:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n1, nh)) + 1j * rng.normal(size=(n1, nh))
    return GridField2D(Grid1D(2.3e15, 1.1e10, n1), Grid1D(2.5e15, 1.3e10, nh), values)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    # a write that deadlocks against its helper fails the test instead
    # of hanging the run
    def expired(signum, frame):
        pytest.fail("write_field_csv did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_binary_bytes_are_header_and_little_endian_values(tmp_path):
    # written from the field's own buffer; -0.0, subnormal and -1e-300
    # imaginary parts keep their bits
    edge = _edge_case_field()
    header = struct.pack(
        "<8d", gridio.BINARY_MAGIC, gridio.BINARY_VERSION, 23.0, 17.0,
        edge.axis1.start, edge.axis_h.start, edge.axis1.step, edge.axis_h.step,
    )
    for values in (edge.values, np.asfortranarray(edge.values), edge.values.astype(">c16")):
        path = tmp_path / "field.bin"
        gridio.write_field_binary(GridField2D(edge.axis1, edge.axis_h, values), path)
        assert path.read_bytes() == header + edge.values.astype("<c16").tobytes()


@pytest.mark.parametrize("n1", [16, 17])
def test_split_csv_bytes_match_per_row_writer(n1, tmp_path, deadline):
    # the parent writes rows :n1 // 2 and the helper the rest; an odd
    # count gives the helper the extra row
    field = _random_field(n1, 40, seed=n1)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    gridio.write_field_csv(field, new)
    oracles.write_field_csv_rows(field, ref, gridio.CSV_HEADER)
    assert new.read_bytes() == ref.read_bytes()
    _assert_no_child_left()


def test_csv_missing_directory_fails_before_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked before opening the destination")

    monkeypatch.setattr(gridio.os, "fork", no_fork)
    with pytest.raises(FileNotFoundError):
        gridio.write_field_csv(_random_field(16, 16, seed=1), tmp_path / "missing" / "f.csv")
    _assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_csv_full_device_raises_and_reaps_helper(deadline):
    # each half (about 200 KB) outgrows the 64 KiB pipe: the parent fails
    # on its first rows while the helper is blocked writing, and closing
    # the read end before waiting lets the helper fail too
    with pytest.raises(OSError):
        gridio.write_field_csv(_random_field(64, 64, seed=2), "/dev/full")
    _assert_no_child_left()


def test_csv_helper_failure_names_path(tmp_path, monkeypatch, deadline):
    field = _random_field(17, 16, seed=3)
    first_row = "%.17g," % field.axis1.start
    format_rows = gridio._format_rows

    def fail_second_half(w1, *rest):
        if w1[0] != first_row:
            raise ValueError("cannot format")
        return format_rows(w1, *rest)

    monkeypatch.setattr(gridio, "_format_rows", fail_second_half)
    path = tmp_path / "f.csv"
    with pytest.raises(OSError, match=re.escape(str(path))):
        gridio.write_field_csv(field, path)
    _assert_no_child_left()


def test_csv_helper_leaves_parent_stdio_alone(tmp_path, capfd, deadline):
    # the helper leaves by os._exit: it flushes none of the buffers it
    # inherits, so text still buffered in the parent is written once
    with open(os.dup(1), "w", buffering=1 << 16) as stdout, redirect_stdout(stdout):
        print("buffered before the write", end="")
        gridio.write_field_csv(_random_field(16, 16, seed=4), tmp_path / "f.csv")
    assert capfd.readouterr().out == "buffered before the write"
    _assert_no_child_left()


def _g17_lines(values: np.ndarray) -> bytes:
    # the formatter's text of each value, one per line
    out = np.zeros((values.size, gridio._G17_WORDS + 1), dtype=np.uint64)
    gridio._format_g17(values, out[:, :-1])
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _assert_g17_matches_percent(values: np.ndarray) -> None:
    got = _g17_lines(values)
    want = ("%.17g\n" * values.size % tuple(values.tolist())).encode("ascii")
    if got != want:
        pairs = zip(values.tolist(), got.split(b"\n"), want.split(b"\n"))
        bad = next((v, g, w) for v, g, w in pairs if g != w)
        pytest.fail(f"%.17g of {bad[0]!r}: formatter wrote {bad[1]!r}, Python {bad[2]!r}")


def test_g17_matches_percent_on_random_bit_patterns():
    # 2**20 uniform bit patterns hold every exponent, about 500 subnormals
    # and about 500 NaNs; more subnormals and both infinities are set by hand
    rng = np.random.default_rng(25)
    bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64)
    bits[:4096] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormal or zero, either sign
    values = bits.view(np.float64)
    values[4096:4106] = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]
    assert np.sum(np.isnan(values)) > 100 and np.sum(np.isinf(values)) == 2
    assert np.sum((values != 0) & (np.abs(values) < np.finfo(float).tiny)) > 4000
    for chunk in np.split(values, 16):
        _assert_g17_matches_percent(chunk)


def test_g17_named_values():
    tie = np.nextafter(1e15, 0.0)
    assert "%.17g" % tie == "999999999999999.88"  # ...999.875, rounded half to even
    named = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, tie, 0.5, 1.0, np.pi]
    for k in range(-300, 301):
        named.append(10.0**k)
    # the %g switch points: fixed notation for decimal exponents -4..16
    named += [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0]
    named += [1.5e16, 2.5e16, 123456789012345678.0]
    named = np.array(named)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        values = np.concatenate([named, np.nextafter(named, 0.0), np.nextafter(named, np.inf)])
    _assert_g17_matches_percent(np.concatenate([values, -values]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_matches_percent_on_any_float(values):
    _assert_g17_matches_percent(np.array(values, dtype=np.float64))


@pytest.fixture(scope="module")
def experimental_dumps(tmp_path_factory):
    # the fields of simulate experimental.cfg, sampled as simulate samples them
    out = tmp_path_factory.mktemp("experimental")
    argv = ["simulate", "--config", "experimental.cfg", "--out", str(out), "--format", "bin"]
    assert main(argv) == 0
    return [gridio.read_field_binary(out / f"{name}.bin") for name in ("jsi_input", "jsi_output")]


def test_experimental_csv_bytes_match_per_point_writer(experimental_dumps, tmp_path, deadline):
    # the input's far tails are exact zeros and subnormals, and whole
    # columns of its phase are zero
    field_in = experimental_dumps[0]
    intensity = field_in.intensity()
    assert field_in.values.shape == (512, 512)
    assert np.sum(intensity == 0.0) > 10000
    assert np.sum((intensity > 0.0) & (intensity < np.finfo(float).tiny)) > 1000
    assert np.any(np.all(np.angle(field_in.values) == 0.0, axis=0))
    for field in experimental_dumps:
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        gridio.write_field_csv(field, new)
        oracles.write_field_csv_rows(field, ref, gridio.CSV_HEADER)
        assert new.read_bytes() == ref.read_bytes()
    _assert_no_child_left()


def test_csv_writer_peak_is_columns_and_one_block(experimental_dumps, tmp_path, deadline):
    # this process holds the intensity and phase columns (16 B a cell)
    # and one row block's buffers: its NUL-padded lines (112 B a cell on
    # these axes), their bytes and the formatter's word temporaries
    for field in experimental_dumps:
        tracemalloc.start()
        try:
            gridio.write_field_csv(field, tmp_path / "f.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * field.values.size + 512 * gridio._CSV_BLOCK_CELLS
    _assert_no_child_left()
