import numpy as np
import pytest

import oracles
from timelens import GaussianJSA, Grid1D, GridField2D, grids_for_state, sample_jsa
from timelens import gridio


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
