import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from timelens import analysis, cli, grid, svgplot
from timelens.analysis import fit_gaussian_2d, spectrum_from_field
from timelens.cli import CONTOUR_MIN_BINS_PER_FWHM, build_parser, main
from timelens import gridio, units
from timelens.analysis import write_spectrum_csv
from timelens.config import parse_config

# mild chirps so a 256-point grid is fully converged; the measured
# operating point (bundled experimental.cfg) is exercised separately
FAST_SIM = """
[input]
signal_center = 811.006 nm
signal_bandwidth = 1.840 THz
herald_center = 740.194 nm
herald_bandwidth = 2.034 THz
correlation = -0.9776

[escort]
center = 774.6 nm
bandwidth = 2.766 THz
chirp = -25e3 fs^2

[lens]
signal_chirp = 50e3 fs^2

[delay]
tau = 0 ps
sweep_start = -1 ps
sweep_stop = 1 ps
sweep_points = 3

[grid]
n = 256
herald_n = 128
output_n = 256
"""


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_SIM)
    return path


def read_stats(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = dict(zip(header, cells))
    return rows


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the grid checks")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("key, value", [("n", 2**20), ("herald_n", 2**20), ("output_n", 2**24)])
def test_oversized_grid_rejected_before_sampling(command, key, value, tmp_path, monkeypatch, capsys):
    # both commands plan with prepare_sweep, whose estimate alone refuses
    # the grid; nothing of that size is ever allocated
    monkeypatch.setattr(grid, "sample_jsa", _no_sampling)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(re.sub(rf"(?m)^{key} = \d+$", f"{key} = {value}", FAST_SIM))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "1.00 GiB limit" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "flag, n, where",
    [("15", "256", "--grid"), ("0", "256", "--grid"), ("-4", "256", "--grid"),
     (None, "8", "[grid] n")],
    ids=["flag-15", "flag-0", "flag-minus-4", "config-8"],
)
def test_grid_below_16_samples_rejected_before_sampling(
    command, flag, n, where, tmp_path, monkeypatch, capsys
):
    # --grid 0 is refused, not read as "no flag"
    monkeypatch.setattr(grid, "sample_jsa", _no_sampling)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(FAST_SIM.replace("n = 256\nherald_n", f"n = {n}\nherald_n"))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--grid", flag] if flag else [])) == 2
    assert f"{where}: need at least 16 samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_grid_off_closed_form_exit_3(command, fast_cfg, tmp_path, capsys):
    # 32 input samples raise no coverage error, but leave the output
    # moments 3e-3 (simulate) and 0.27 (sweep) off the closed form
    out = tmp_path / "out"
    assert main([command, "--config", str(fast_cfg), "--out", str(out), "--grid", "32"]) == 3
    err = capsys.readouterr().err
    assert "GridAccuracyError" in err and "on n = 32 input samples" in err
    assert "signal sigma (" in err and "rho (" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, row", [("simulate", "grid-output"), ("sweep", "sweep row 0 (delay -1.000 ps)")]
)
def test_filterlimit_grid_512_off_closed_form_exit_3(command, row, tmp_path, capsys):
    # 512 input samples leave the output signal width off by a factor of
    # about 3 on this config, with no coverage error
    out = tmp_path / "out"
    argv = [command, "--config", "filterlimit.cfg", "--out", str(out), "--grid", "512"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"GridAccuracyError: {row}: the grid's signal sigma (" in err
    assert "on n = 512 input samples" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "where, old, new",
    [
        ("[input] correlation", "correlation = -0.9776", "correlation = nan"),
        ("[grid] span", "output_n = 256", "output_n = 256\nspan = nan"),
        ("[lens] signal_chirp", "signal_chirp = 50e3 fs^2", "signal_chirp = nan fs^2"),
        ("[delay] tau", "tau = 0 ps", "tau = nan ps"),
        ("[delay] sweep_stop", "sweep_stop = 1 ps", "sweep_stop = nan ps"),
        ("[escort] chirp", "chirp = -25e3 fs^2", "chirp = inf fs^2"),
    ],
    ids=["correlation", "span", "signal_chirp", "tau", "sweep_stop", "escort_chirp"],
)
def test_non_finite_number_exit_2(tmp_path, capsys, where, old, new):
    # a nan or inf passed the number parser and reached the physics,
    # which exited 3 on an integer conversion or a division by zero
    bad = tmp_path / "nonfinite.cfg"
    bad.write_text(FAST_SIM.replace(old, new))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 2
    assert f"{where}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def display_shape(n, nh, fwhm_bins, fwhmh_bins):
    """cli._display_shape of an n x nh field whose peak spans the given FWHMs in samples."""
    step = 1e10
    field = grid.GridField2D(
        grid.Grid1D(start=2e15, step=step, n=n), grid.Grid1D(start=2.5e15, step=step, n=nh),
        np.broadcast_to(np.complex128(0.0), (n, nh)),
    )
    moments = grid.IntensityMoments(
        mean1=2e15, meanh=2.5e15, sigma1=units.fwhm_to_sigma(fwhm_bins * step),
        sigmah=units.fwhm_to_sigma(fwhmh_bins * step), rho=0.0, norm=1.0,
    )
    return cli._display_shape(field, moments)


class TestDisplayShape:
    def test_capped_at_the_plot_box(self):
        # ideal.cfg's sweep output: 4737 x 512 samples, peaks of about 812
        # and 100 samples, drawn one sample per pixel of the 520 x 440 box
        assert (svgplot.PLOT_WIDTH, svgplot.PLOT_HEIGHT) == (520, 440)
        assert display_shape(4737, 512, 811.6, 100.3) == (520, 440)

    def test_never_above_the_field(self):
        assert display_shape(256, 128, 40.0, 30.0) == (256, 128)
        # a 2-sample herald peak would need 2045 samples; 512 is all there is
        assert display_shape(600, 512, 100.0, 2.0) == (520, 512)

    def test_narrow_peak_keeps_eight_bins_across(self):
        # 8 bins across a 20-sample FWHM on 4000 samples need a display
        # step of at most 2.5 samples: ceil(8 * 3999 / 20) + 1 = 1601
        m1, mh = display_shape(4000, 512, 20.0, 100.0)
        assert (m1, mh) == (1601, 440)
        assert 20.0 * (m1 - 1) / (4000 - 1) >= CONTOUR_MIN_BINS_PER_FWHM


def ellipse_geometry(svg: str) -> np.ndarray:
    """Center x, center y, rx and ry in pixels, and rotation in degrees, of an SVG's ellipse."""
    match = re.search(
        r'<ellipse cx="0" cy="0" rx="([^"]+)" ry="([^"]+)" .*?'
        r'transform="translate\(([^ ]+) ([^)]+)\) rotate\(([^)]+)\)"',
        svg,
    )
    rx, ry, x, y, angle = (float(v) for v in match.groups())
    return np.array([x, y, rx, ry, angle])


class TestSimulate:
    def test_outputs_and_values(self, fast_cfg, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)]) == 0
        for name in ("stats.csv", "jsi_input.csv", "jsi_output.csv",
                     "jsi_input.svg", "jsi_output.svg", "manifest.json"):
            assert (out / name).exists(), name
        rows = read_stats(out / "stats.csv")
        assert float(rows["grid-input"]["rho"]) == pytest.approx(-0.9776, abs=1e-3)
        assert float(rows["closed-form-output"]["rho"]) == pytest.approx(
            float(rows["grid-output"]["rho"]), abs=1e-3
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert "stats.csv" in manifest["outputs"]

    def test_finite_acceptance_closed_form_row(self, tmp_path):
        # a finite acceptance gets a closed-form row like any other
        # config, and the phasematch flag sits on that row
        cfg = tmp_path / "pm.cfg"
        cfg.write_text(FAST_SIM.replace("[grid]", "[phasematching]\nsigma = 1.0e12 rad/s\n\n[grid]"))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_stats(out / "stats.csv")
        grid_row, cf_row = rows["grid-output"], rows["closed-form-output"]
        for col in ("sigma_signal_rad_s", "sigma_herald_rad_s"):
            assert float(cf_row[col]) == pytest.approx(float(grid_row[col]), rel=1e-3)
        assert float(cf_row["rho"]) == pytest.approx(float(grid_row["rho"]), abs=1e-3)
        assert "phasematch_limited" in cf_row["flags"].split(";")
        assert grid_row["flags"] == ""

    def test_closed_form_row_at_the_run_delay(self, tmp_path):
        # the grid convolves at [delay] tau, and the closed-form row and
        # the run-time check predict at that delay
        cfg = tmp_path / "delayed.cfg"
        cfg.write_text(FAST_SIM.replace("tau = 0 ps", "tau = 0.5 ps"))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_stats(out / "stats.csv")
        grid_row, cf_row = rows["grid-output"], rows["closed-form-output"]
        for center, sigma in (("center_signal_rad_s", "sigma_signal_rad_s"),
                              ("center_herald_rad_s", "sigma_herald_rad_s")):
            gap = abs(float(grid_row[center]) - float(cf_row[center])) / float(cf_row[sigma])
            assert gap < 1e-3, center

    @pytest.mark.parametrize("name", ["ideal.cfg", "filterlimit.cfg", "longcrystal.cfg"])
    def test_bundled_grid_output_matches_closed_form(self, name, tmp_path):
        # one planner for simulate and sweep: the output grid follows the
        # closed-form width hint, so ideal.cfg's broad escort runs too
        out = tmp_path / "sim"
        assert main(["simulate", "--config", name, "--format", "bin", "--out", str(out)]) == 0
        rows = read_stats(out / "stats.csv")
        grid_row, cf_row = rows["grid-output"], rows["closed-form-output"]
        for col in ("sigma_signal_rad_s", "sigma_herald_rad_s"):
            assert float(grid_row[col]) == pytest.approx(float(cf_row[col]), rel=1e-3)
        assert float(grid_row["rho"]) == pytest.approx(float(cf_row["rho"]), abs=1e-3)

    def test_schmidt_number_computes_no_svd(self, fast_cfg, tmp_path, monkeypatch):
        # the Gram-trace Schmidt number needs no decomposition
        def no_svd(*args, **kwargs):
            raise AssertionError("singular value decomposition in simulate")

        monkeypatch.setattr(grid.np.linalg, "svd", no_svd)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)]) == 0
        assert float(read_stats(out / "stats.csv")["grid-output"]["schmidt_k"]) > 1.0

    def test_one_spectrum_per_panel(self, fast_cfg, tmp_path, monkeypatch):
        # each panel is drawn from one spectrum at its display shape, and
        # its ellipse from the moments, with no fit; a field within the plot
        # box (256 x 128 in, 313 x 128 out) keeps every sample
        calls = []
        original = cli.spectrum_from_field

        def counting(field, shape=None):
            calls.append(shape)
            return original(field, shape)

        def no_fit(*args, **kwargs):
            raise AssertionError("simulate fitted a spectrum")

        monkeypatch.setattr(cli, "spectrum_from_field", counting)
        monkeypatch.setattr(analysis, "fit_gaussian_2d", no_fit)
        monkeypatch.setattr(cli, "fit_gaussian_2d", no_fit, raising=False)
        for grid_args, shapes in (
            ([], [(256, 128), (313, 128)]),
            (["--grid", "1024"], [(520, 128), (520, 128)]),
        ):
            calls.clear()
            out = tmp_path / f"sim{len(grid_args)}"
            assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)] + grid_args) == 0
            assert calls == shapes
            for name in ("jsi_input.svg", "jsi_output.svg"):
                assert "<ellipse" in (out / name).read_text()

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_samples_once_and_transforms_no_whole_input(
        self, fmt, fast_cfg, tmp_path, monkeypatch
    ):
        # the one sampled input is dumped, measured and convolved with the
        # lens chirp applied per block; only a sweep keeps a whole transform
        calls = {"sample_jsa": 0, "_input_spectrum": 0}
        for name in calls:
            original = getattr(grid, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(grid, name, counting)
        out = tmp_path / "sim"
        argv = ["simulate", "--config", str(fast_cfg), "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        assert calls == {"sample_jsa": 1, "_input_spectrum": 0}

    @pytest.mark.parametrize(
        "name", ["experimental.cfg", "ideal.cfg", "filterlimit.cfg", "longcrystal.cfg"]
    )
    def test_ellipse_matches_full_resolution_fit(self, name, tmp_path):
        # the moments' ellipse lies within 0.2 px of the 25 percent contour
        # of a Gaussian fitted to the full-resolution wavelength spectrum
        out = tmp_path / "sim"
        assert main(["simulate", "--config", name, "--format", "bin", "--out", str(out)]) == 0
        for field_name in ("jsi_input", "jsi_output"):
            svg = (out / f"{field_name}.svg").read_text()
            meta = json.loads(re.search(r"<metadata>(.*?)</metadata>", svg).group(1))
            fit = fit_gaussian_2d(
                spectrum_from_field(gridio.read_field_binary(out / f"{field_name}.bin"))
            )
            s1, sh = fit.sigma1_nm, fit.sigmah_nm
            cov = [[s1**2, fit.rho * s1 * sh], [fit.rho * s1 * sh, sh**2]]
            fitted = svgplot.render_heatmap(
                np.ones((2, 2)), [meta["x_start"], meta["x_stop"]],
                [meta["y_start"], meta["y_stop"]], title="",
                contour=(fit.center1_nm, fit.centerh_nm, cov, 2.0 * np.log(4.0)),
            )
            drawn, want = ellipse_geometry(svg), ellipse_geometry(fitted)
            assert np.abs(drawn[:4] - want[:4]).max() < 0.2, field_name
            turn = (drawn[4] - want[4] + 90.0) % 180.0 - 90.0
            assert abs(turn) < 0.01, field_name

    def test_experimental_correlation_reversal(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", "experimental.cfg", "--out", str(out)]) == 0
        rows = read_stats(out / "stats.csv")
        assert float(rows["grid-input"]["rho"]) == pytest.approx(-0.9776, abs=1e-3)
        # anti-correlation reverses to strong positive correlation
        assert float(rows["grid-output"]["rho"]) > 0.85
        assert float(rows["closed-form-output"]["rho"]) == pytest.approx(
            float(rows["grid-output"]["rho"]), abs=1e-3
        )
        assert "escort_aperture_limited" in rows["closed-form-output"]["flags"]

    def test_unit_suffixes_on_columns(self, fast_cfg, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", str(fast_cfg), "--out", str(out)])
        dimensionless = {"engine", "rho", "schmidt_k", "conversion_weight",
                         "lcl_parameter", "flags"}
        for path in (out / "stats.csv", out / "jsi_input.csv"):
            header = path.read_text().splitlines()[0].split(",")
            for col in header:
                if col in dimensionless:
                    continue
                assert re.search(r"_(nm|thz|rad_s|ps|s|rad|counts|rad_s_sq)$", col), (
                    path.name, col)

    def test_determinism_byte_identical(self, fast_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(fast_cfg), "--out", str(out1)])
        main(["simulate", "--config", str(fast_cfg), "--out", str(out2)])
        for name in ("stats.csv", "jsi_input.csv", "jsi_output.csv",
                     "jsi_input.svg", "jsi_output.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_binary_format(self, fast_cfg, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", str(fast_cfg), "--out", str(out), "--format", "bin"])
        field = gridio.read_field_binary(out / "jsi_output.bin")
        assert field.norm() == pytest.approx(1.0, abs=1e-9)

    def test_csv_dump_matches_binary_dump_written_per_point(self, fast_cfg, tmp_path):
        # the CSV dump, formatted by two processes, equals the binary
        # dump's fields written one grid point at a time
        csv_out, bin_out = tmp_path / "csv", tmp_path / "bin"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(csv_out)]) == 0
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(bin_out),
                     "--format", "bin"]) == 0
        for name in ("jsi_input", "jsi_output"):
            ref = tmp_path / f"{name}.csv"
            field = gridio.read_field_binary(bin_out / f"{name}.bin")
            oracles.write_field_csv_rows(field, ref, gridio.CSV_HEADER)
            assert (csv_out / f"{name}.csv").read_bytes() == ref.read_bytes(), name
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_csv_helper_failure_exits_3(self, fast_cfg, tmp_path, monkeypatch, capsys):
        parent, format_rows = os.getpid(), gridio._format_rows

        def fail_in_helper(*rows):
            if os.getpid() != parent:
                raise ValueError("cannot format")
            return format_rows(*rows)

        monkeypatch.setattr(gridio, "_format_rows", fail_in_helper)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)]) == 3
        assert f"OSError: {out / 'jsi_input.csv'}: helper" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_grid_convergence_smoke(self, fast_cfg, tmp_path):
        outs = {}
        for n in (256, 512):
            out = tmp_path / f"sim{n}"
            main(["simulate", "--config", str(fast_cfg), "--out", str(out), "--grid", str(n)])
            outs[n] = read_stats(out / "stats.csv")["grid-output"]
        for col in ("sigma_signal_rad_s", "sigma_herald_rad_s", "rho"):
            a = float(outs[256][col])
            b = float(outs[512][col])
            assert abs(a - b) / abs(b) < 1e-4, col

    def test_svg_matches_csv_grid(self, fast_cfg, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", str(fast_cfg), "--out", str(out)])
        svg = (out / "jsi_input.svg").read_text()
        meta = json.loads(re.search(r"<metadata>(.*?)</metadata>", svg).group(1))
        csv_lines = (out / "jsi_input.csv").read_text().splitlines()
        first = [float(v) for v in csv_lines[1].split(",")]
        last = [float(v) for v in csv_lines[-1].split(",")]
        # csv corners in rad/s map exactly to the svg wavelength extents
        lam_hi = units.angular_to_wavelength(first[0]) * 1e9
        lam_lo = units.angular_to_wavelength(last[0]) * 1e9
        assert meta["x_start"] == pytest.approx(lam_lo, rel=1e-12)
        assert meta["x_stop"] == pytest.approx(lam_hi, rel=1e-12)
        assert meta["x_n"] == 256

    def test_svg_display_keeps_full_resolution_extents(self, fast_cfg, tmp_path):
        # 1024 signal samples are drawn on the 520-pixel plot box; the
        # wavelength extents are those of the full-resolution spectrum
        out = tmp_path / "sim"
        args = ["--grid", "1024", "--format", "bin"]
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)] + args) == 0
        for name in ("jsi_input", "jsi_output"):
            svg = (out / f"{name}.svg").read_text()
            meta = json.loads(re.search(r"<metadata>(.*?)</metadata>", svg).group(1))
            full = spectrum_from_field(gridio.read_field_binary(out / f"{name}.bin"))
            assert full.counts.shape[0] > svgplot.PLOT_WIDTH
            assert (meta["x_n"], meta["y_n"]) == (svgplot.PLOT_WIDTH, full.counts.shape[1])
            assert meta["x_start"] == full.lambda1_nm[0]
            assert meta["x_stop"] == full.lambda1_nm[-1]
            assert meta["y_start"] == full.lambdah_nm[0]
            assert meta["y_stop"] == full.lambdah_nm[-1]

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_SIM.replace("chirp = -25e3 fs^2", "chirp = -25e3"))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_runtime_error_exit_3(self, tmp_path):
        # minimum-span coverage leaves too much marginal mass outside the
        # grid and the engine raises; the command maps that to exit 3
        bad = tmp_path / "tiny.cfg"
        bad.write_text(FAST_SIM.replace("output_n = 256", "output_n = 256\nspan = 4"))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3


class TestSweep:
    def test_ideal_bundled(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", "ideal.cfg", "--out", str(out)]) == 0
        slopes = dict(
            line.split(" = ") for line in (out / "slopes.txt").read_text().splitlines()
        )
        sig = float(slopes["signal_slope_thz_per_ps"])
        her = float(slopes["herald_slope_thz_per_ps"])
        assert sig == pytest.approx(0.229, rel=0.01)
        assert abs(her) < 0.005
        # unit identity: nm/ps equals THz/ps times lambda^2 over c
        nmps = float(slopes["signal_slope_nm_per_ps"])
        lam = float(slopes["signal_center_nm"])
        assert nmps == pytest.approx(units.slope_thz_to_nm_per_ps(sig, lam), rel=1e-6)
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert len(sweep_lines) == 1 + 5
        assert (out / "sweep_panel_0.svg").exists()

    def test_sweep_csv_unit_identity_rows(self, fast_cfg, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--config", str(fast_cfg), "--out", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            lam_nm = float(row["signal_center_nm"])
            omega = float(row["signal_center_rad_s"])
            assert lam_nm == pytest.approx(
                units.angular_to_wavelength(omega) * 1e9, rel=1e-9
            )

    def test_calibrated_config_herald_slope(self, tmp_path):
        # with the calibrated acceptance width the herald tunability
        # lands on the measured value
        cfg = tmp_path / "cal.cfg"
        text = (
            FAST_SIM.replace("chirp = -25e3 fs^2", "chirp = -344e3 fs^2")
            .replace("signal_chirp = 50e3 fs^2", "signal_chirp = 696e3 fs^2")
            .replace("[grid]", "[phasematching]\nsigma = 9.1354e12 rad/s\n\n[grid]")
            .replace("\nn = 256", "\nn = auto")
            .replace("sweep_start = -1 ps", "sweep_start = -2 ps")
            .replace("sweep_stop = 1 ps", "sweep_stop = 2 ps")
            .replace("sweep_points = 3", "sweep_points = 5")
        )
        cfg.write_text(text)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        slopes = dict(
            line.split(" = ") for line in (out / "slopes.txt").read_text().splitlines()
        )
        assert float(slopes["signal_slope_thz_per_ps"]) == pytest.approx(0.14, abs=0.005)
        assert float(slopes["herald_slope_thz_per_ps"]) == pytest.approx(-0.099, abs=0.010)

    def test_sweep_computes_no_svd(self, fast_cfg, tmp_path, monkeypatch):
        # the sweep reports no Schmidt number, so it must not pay for one
        def no_svd(*args, **kwargs):
            raise AssertionError("singular value decomposition in a sweep")

        monkeypatch.setattr(grid.np.linalg, "svd", no_svd)
        cfg = parse_config(fast_cfg)
        start, stop, npts = cfg.sweep
        sw = grid.delay_sweep(
            cfg.lens, cfg.state, np.linspace(start, stop, npts), n=cfg.grid.n,
            nh=cfg.grid.herald_n, n_out=cfg.grid.output_n,
        )
        assert len(sw.points) == npts
        assert main(["sweep", "--config", str(fast_cfg), "--out", str(tmp_path / "sweep")]) == 0

    def test_slopes_report_rows_used(self, fast_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(fast_cfg), "--out", str(out)]) == 0
        assert (out / "slopes.txt").read_text().splitlines()[-1] == "slope_rows = 3"

    def test_too_few_rows_inside_aperture_exit_3(self, tmp_path, capsys):
        # +-40 ps lie far outside the chirped escort: one valid row is left
        text = (
            FAST_SIM.replace("chirp = -25e3 fs^2", "chirp = -344e3 fs^2")
            .replace("signal_chirp = 50e3 fs^2", "signal_chirp = 696e3 fs^2")
            .replace("sweep_start = -1 ps", "sweep_start = -40 ps")
            .replace("sweep_stop = 1 ps", "sweep_stop = 40 ps")
            .replace("n = 256\nherald_n = 128", "n = 1024\nherald_n = 64\nspan = 8")
        )
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "ApertureError: only 1 of 3 sweep rows" in capsys.readouterr().err

    def test_output_grid_below_zero_frequency_rejected_before_sampling(
        self, tmp_path, monkeypatch, capsys
    ):
        # the margin for the center drift over +-400 ps widens the output
        # grid past zero frequency
        monkeypatch.setattr(grid, "sample_jsa", _no_sampling)
        text = FAST_SIM.replace("sweep_start = -1 ps", "sweep_start = -400 ps").replace(
            "sweep_stop = 1 ps", "sweep_stop = 400 ps"
        )
        cfg = tmp_path / "drift.cfg"
        cfg.write_text(text)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "at or below zero frequency" in err and "delays up to 400 ps" in err
        assert not out.exists()

    def test_coarse_given_n_names_the_delay(self, tmp_path, capsys):
        # n = 256 does not resolve the delay phase at +-20 ps; the error
        # names the delay and the count n = auto would pick
        text = FAST_SIM.replace("sweep_start = -1 ps", "sweep_start = -20 ps").replace(
            "sweep_stop = 1 ps", "sweep_stop = 20 ps"
        )
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "CoverageError: at delay -20.000 ps" in err
        assert re.search(r"given 256 samples, and n = auto would pick \d+", err)

    def test_later_delay_coverage_error_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # 0 ps converts and its panel is rendered; +4 ps clips the output
        # grid of the given 256 samples.  The panel's text is held, and no
        # file is written unless the whole sweep succeeds
        titles = []
        render = cli.svgplot.render_heatmap

        def recording(*args, **kwargs):
            titles.append(kwargs["title"])
            return render(*args, **kwargs)

        monkeypatch.setattr(cli.svgplot, "render_heatmap", recording)
        text = FAST_SIM.replace("sweep_start = -1 ps", "sweep_start = 0 ps").replace(
            "sweep_stop = 1 ps", "sweep_stop = 8 ps"
        )
        cfg = tmp_path / "later.cfg"
        cfg.write_text(text)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
        assert "CoverageError: at delay +4.000 ps" in capsys.readouterr().err
        assert titles == ["delay +0.000 ps"]
        assert not out.exists()

    def test_peak_memory_flat_in_delay_count(self, fast_cfg, tmp_path):
        # one output field is alive at a time, so 9 delays and 9 panels
        # peak where 3 delays and 3 panels do, on the same grids
        peaks = {}
        for points in (3, 9):
            cfg = tmp_path / f"points{points}.cfg"
            cfg.write_text(FAST_SIM.replace("sweep_points = 3", f"sweep_points = {points}"))
            out = tmp_path / f"sweep{points}"
            tracemalloc.start()
            try:
                assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
                peaks[points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(list(out.glob("sweep_panel_*.svg"))) == points
        parsed = parse_config(fast_cfg)
        field, out_grid = grid.prepare_sweep(
            parsed.lens, parsed.state, np.linspace(*parsed.sweep), n=parsed.grid.n,
            nh=parsed.grid.herald_n, n_out=parsed.grid.output_n,
        )
        assert abs(peaks[9] - peaks[3]) < 16 * out_grid.n * field.axis_h.n

    @pytest.mark.parametrize("points", [10_001, 10_000_000])
    def test_sweep_points_above_maximum_exit_2(self, points, tmp_path, monkeypatch, capsys):
        # each delay is one convolution: ten million of them passed the
        # parser and ran for hours
        monkeypatch.setattr(grid, "sample_jsa", _no_sampling)
        cfg = tmp_path / "many.cfg"
        cfg.write_text(FAST_SIM.replace("sweep_points = 3", f"sweep_points = {points}"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"[delay] sweep_points: at most 10000 points, got {points}" in err
        assert not out.exists()

    def test_sweep_requires_range(self, tmp_path):
        cfg = tmp_path / "norange.cfg"
        cfg.write_text(
            FAST_SIM.replace("sweep_start = -1 ps\n", "")
            .replace("sweep_stop = 1 ps\n", "")
            .replace("sweep_points = 3\n", "")
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestFit:
    def test_fit_csv_histogram(self, tmp_path):
        from test_analysis import RAW_INPUT, synth_spectrum

        spec = synth_spectrum(RAW_INPUT, n1=36, nh=32)
        rng = np.random.default_rng(4)
        noisy = type(spec)(spec.lambda1_nm, spec.lambdah_nm,
                           rng.poisson(spec.counts * 3).astype(float))
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(noisy, hist)
        out = tmp_path / "fit"
        code = main([
            "fit", str(hist), "--res-signal", "0.136", "--res-herald", "0.148",
            "--trials", "60", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "fitreport.csv").read_text().splitlines()
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        rho_raw = float(rows["rho"][1])
        rho_err = float(rows["rho"][2])
        assert rho_raw == pytest.approx(RAW_INPUT.rho, abs=0.01)
        assert 0 < rho_err < 0.05
        assert float(rows["rho"][3]) < rho_raw  # deconvolution strengthens |rho|
        assert rows["signal_fwhm_nm"][5] == "nm"

    def test_fit_binary_field(self, tmp_path, exp_state):
        from timelens import grids_for_state, sample_jsa

        field = sample_jsa(exp_state, *grids_for_state(exp_state, n=96))
        path = tmp_path / "field.bin"
        gridio.write_field_binary(field, path)
        out = tmp_path / "fit"
        assert main(["fit", str(path), "--trials", "40", "--out", str(out)]) == 0
        lines = (out / "fitreport.csv").read_text().splitlines()
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert float(rows["rho"][1]) == pytest.approx(-0.9776, abs=5e-3)

    def test_fit_resolutions_from_config(self, tmp_path, fast_cfg):
        from test_analysis import RAW_INPUT, synth_spectrum

        cfg = tmp_path / "withres.cfg"
        cfg.write_text(
            FAST_SIM
            + "\n[analysis]\nresolution_signal = 0.136 nm\nresolution_herald = 0.148 nm\n"
        )
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        out = tmp_path / "fit"
        code = main([
            "fit", str(hist), "--config", str(cfg), "--trials", "30", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "fitreport.csv").read_text().splitlines()
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        # deconvolution happened: corrected width below the raw one
        assert float(rows["signal_fwhm_nm"][3]) < float(rows["signal_fwhm_nm"][1])

    @pytest.mark.parametrize("given", ["resolution_signal", "resolution_herald"])
    def test_fit_one_sided_resolution_config_exit_2(self, tmp_path, capsys, given):
        # one resolution alone is neither ignored nor paired with a zero
        from test_analysis import RAW_INPUT, synth_spectrum

        cfg = tmp_path / "oneres.cfg"
        cfg.write_text(FAST_SIM + f"\n[analysis]\n{given} = 0.136 nm\n")
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        out = tmp_path / "fit"
        argv = ["fit", str(hist), "--config", str(cfg), "--trials", "5", "--out", str(out)]
        assert main(argv) == 2
        assert "give both resolution_signal and resolution_herald" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, analysis, where",
        [
            (["--res-signal", "nan"], "", "--res-signal"),
            (["--res-signal", "-0.1"], "", "--res-signal"),
            (["--res-signal", "inf"], "", "--res-signal"),
            ([], "resolution_signal = -0.1 nm", "[analysis] resolution_signal"),
        ],
        ids=["flag-nan", "flag-negative", "flag-inf", "config-negative"],
    )
    def test_fit_resolution_not_finite_or_negative_exit_2(
        self, tmp_path, capsys, flags, analysis, where
    ):
        # every resolution passes ResolutionModel's one rule, finite and at
        # least 0, before any fit; nan used to write nan deconvolved rows
        from test_analysis import RAW_INPUT, synth_spectrum

        cfg = tmp_path / "res.cfg"
        cfg.write_text(FAST_SIM + f"\n[analysis]\n{analysis}\nresolution_herald = 0.148 nm\n")
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        out = tmp_path / "fit"
        argv = ["fit", str(hist), "--trials", "5", "--out", str(out)]
        if flags:
            argv += flags + ["--res-herald", "0.148"]
        else:
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {where}" in err
        assert "the signal resolution must be finite and at least 0 nm" in err
        assert not out.exists()

    def test_fit_trials_and_seed_from_config(self, tmp_path, capsys):
        from test_analysis import RAW_INPUT, synth_spectrum

        cfg = tmp_path / "mc.cfg"
        cfg.write_text(FAST_SIM + "\n[analysis]\ntrials = 7\nseed = 5\n")
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)

        def run(name, *flags):
            out = tmp_path / name
            assert main(["fit", str(hist), "--out", str(out), *flags]) == 0
            return (out / "fitreport.csv").read_bytes(), capsys.readouterr().out

        from_config, stdout = run("config", "--config", str(cfg))
        assert "7 Monte Carlo trials" in stdout
        assert "failed" not in stdout
        manifest = json.loads((tmp_path / "config" / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert run("flags", "--trials", "7", "--seed", "5")[0] == from_config
        assert run("other-seed", "--config", str(cfg), "--seed", "6")[0] != from_config
        assert "5 Monte Carlo trials" in run("override", "--config", str(cfg), "--trials", "5")[1]

    @pytest.mark.parametrize("trials", ["1", "0", "-3"])
    def test_fit_trials_flag_below_two_exit_2(self, tmp_path, capsys, trials):
        # the flag is checked as the [analysis] trials key is, before fitting
        from test_analysis import RAW_INPUT, synth_spectrum

        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        out = tmp_path / "fit"
        assert main(["fit", str(hist), "--trials", trials, "--out", str(out)]) == 2
        assert "at least 2 Monte Carlo trials" in capsys.readouterr().err
        assert not (out / "fitreport.csv").exists()

    @pytest.mark.parametrize("where", ["--seed", "[analysis] seed"])
    def test_fit_negative_seed_exit_2(self, tmp_path, monkeypatch, capsys, where):
        from test_analysis import RAW_INPUT, synth_spectrum

        monkeypatch.setattr(cli, "montecarlo_errorbars", _no_sampling)
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        out = tmp_path / "fit"
        argv = ["fit", str(hist), "--out", str(out)]
        if where == "--seed":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "seed.cfg"
            cfg.write_text(FAST_SIM + "\n[analysis]\nseed = -3\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert f"{where}: need at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_reports_monte_carlo_failures(self, tmp_path, monkeypatch, capsys):
        from test_analysis import RAW_INPUT, fail_every_third_refit, synth_spectrum

        fail_every_third_refit(monkeypatch)
        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        argv = ["fit", str(hist), "--trials", "30", "--out", str(tmp_path / "fit")]
        assert main(argv) == 0
        assert "fit: 10 Monte Carlo trials failed: FitConvergenceError 10" in capsys.readouterr().out

    def test_fit_zero_resolution_identity(self, tmp_path):
        from test_analysis import RAW_INPUT, synth_spectrum

        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=24, nh=22), hist)
        out = tmp_path / "fit"
        code = main([
            "fit", str(hist), "--res-signal", "0", "--res-herald", "0",
            "--trials", "30", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "fitreport.csv").read_text().splitlines()
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        for key in ("rho", "signal_fwhm_nm", "herald_fwhm_nm"):
            assert rows[key][3] == rows[key][1], key  # deconvolved equals raw

    def test_fit_field_csv_exit_2_before_fitting(self, fast_cfg, tmp_path, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a field dump")

        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(sim)]) == 0
        monkeypatch.setattr(cli, "montecarlo_errorbars", no_fit)
        out = tmp_path / "fit"
        assert main(["fit", str(sim / "jsi_output.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "is a simulate field dump" in err
        assert "fit reads histogram CSVs and simulate --format bin dumps" in err
        assert not out.exists()

    def test_fit_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "o")]) == 3

    def test_fit_missing_file(self, tmp_path):
        assert main(["fit", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_fit_directory_exit_2(self, tmp_path, capsys):
        # a directory passed an existence check and failed to open, exit 3
        assert main(["fit", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert "not found or not a file" in capsys.readouterr().err

    def test_fit_non_finite_csv_cell_exit_3(self, tmp_path, capsys):
        from test_analysis import RAW_INPUT, synth_spectrum

        hist = tmp_path / "hist.csv"
        write_spectrum_csv(synth_spectrum(RAW_INPUT, n1=20, nh=18), hist)
        lines = hist.read_text().splitlines()
        cells = lines[7].split(",")
        cells[5] = "nan"
        lines[7] = ",".join(cells)
        hist.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(hist), "--trials", "5", "--out", str(tmp_path / "o")]) == 3
        assert "counts must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_non_finite_binary_sample_exit_3(self, bad, tmp_path, exp_state, capsys):
        from timelens import GridField2D, grids_for_state, sample_jsa

        field = sample_jsa(exp_state, *grids_for_state(exp_state, n=64))
        values = field.values.copy()
        values[32, 32] = bad
        path = tmp_path / "field.bin"
        gridio.write_field_binary(GridField2D(field.axis1, field.axis_h, values), path)
        # the error comes before any invalid divide
        with np.errstate(invalid="raise", divide="raise"):
            assert main(["fit", str(path), "--trials", "5", "--out", str(tmp_path / "o")]) == 3
        assert "not finite" in capsys.readouterr().err


class TestValidateCommand:
    def test_quick_green(self, tmp_path):
        out = tmp_path / "val"
        assert main(["validate", "--quick", "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert all(entry["ok"] for entry in report.values())

    def test_report_records_each_suite_time(self, tmp_path, capsys):
        # the JSON report times every suite; stdout keeps its ok/detail lines
        out = tmp_path / "val"
        assert main(["validate", "--quick", "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        for entry in report.values():
            assert isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] >= 0.0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines[: len(report)]) == sorted(
            f"ok   {name}: {entry['detail']}" for name, entry in report.items()
        )

    def test_mutation_detected(self, monkeypatch, tmp_path):
        # a closed form 1% off fails cross-engine: exit 1, and the report
        # says so; the retired --mutate flag is an argparse error
        from timelens import lens

        def wide(*args):
            out = core(*args)
            return replace(out, sigma3=1.01 * out.sigma3)

        core = lens.gaussian_output
        monkeypatch.setattr(lens, "gaussian_output", wide)
        out = tmp_path / "val"
        assert main(["validate", "--quick", "--out", str(out)]) == 1
        report = json.loads((out / "validation.json").read_text())
        assert not report["cross-engine"]["ok"]
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--quick", "--mutate", "x=1"])
        assert exc.value.code == 2

    def test_negative_seed_exit_2(self, monkeypatch, capsys):
        from timelens import validate

        monkeypatch.setattr(validate, "run_suites", _no_sampling)
        assert main(["validate", "--quick", "--seed", "-1"]) == 2
        assert "--seed: need at least 0" in capsys.readouterr().err


def _scipy_modules_after(argv, prefix: str) -> str:
    """Run timelens.cli.main(argv) in a fresh interpreter; list the loaded modules under prefix."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, timelens.cli; "
        f"code = timelens.cli.main({argv!r}); "
        f"print(code, sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_signal():
    # importing scipy's submodules took most of a second; --version and a
    # configuration error need none of them, so no scipy module loads
    assert _scipy_modules_after(["simulate", "--config", "no-such.cfg"], "scipy") == "2 []"


@pytest.mark.parametrize("prefix", ["multiprocessing", "concurrent.futures", "subprocess"])
def test_cli_import_leaves_out_process_pools(prefix, tmp_path):
    # the field CSV's helper process comes from one os.fork and the block
    # loops' threads from threading; nothing that starts pools or
    # subprocesses is imported, up front or by a sweep whose loops run
    # on threads
    assert _scipy_modules_after(["simulate", "--config", "no-such.cfg"], prefix) == "2 []"
    argv = ["sweep", "--config", "filterlimit.cfg", "--out", str(tmp_path / "out")]
    assert _scipy_modules_after(argv, prefix) == "0 []"


@pytest.mark.parametrize(
    "argv",
    [["sweep"], ["simulate", "--format", "bin"]],
    ids=["sweep", "simulate"],
)
def test_commands_leave_no_thread_alive(argv, tmp_path, set_workers, thread_starts):
    # filterlimit.cfg's grids put every block loop above the gate
    set_workers(2)
    before = threading.active_count()
    out = str(tmp_path / "out")
    assert main(argv[:1] + ["--config", "filterlimit.cfg", "--out", out] + argv[1:]) == 0
    assert thread_starts
    assert threading.active_count() == before


def test_field_csv_forks_with_no_other_thread_alive(
    fast_cfg, tmp_path, monkeypatch, set_workers, thread_starts
):
    # a process with threads that forks is unsafe (CPython 3.12 warns);
    # every block loop runs on threads here, so the fork comes after them
    set_workers(2)
    monkeypatch.setattr(grid, "_THREAD_MIN_BLOCKS", 1)
    before = threading.active_count()
    alive = []
    fork = os.fork

    def counted_fork():
        alive.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert main(["simulate", "--config", str(fast_cfg), "--out", str(tmp_path / "out")]) == 0
    assert thread_starts
    assert alive == [before, before]


def test_sweep_leaves_out_scipy_interpolate(fast_cfg, tmp_path):
    # the wavelength resampling gathers with numpy; importing
    # scipy.interpolate would add about 0.26 s to every sweep
    argv = ["sweep", "--config", str(fast_cfg), "--out", str(tmp_path / "out")]
    assert _scipy_modules_after(argv, "scipy.interpolate") == "0 []"


@pytest.mark.parametrize("command", ["simulate", "sweep", "fit", "validate"])
def test_commands_load_no_scipy(command, fast_cfg, tmp_path):
    # numpy does the transforms, the fits, the calibration and the
    # quadrature, so no command loads a scipy module
    out = str(tmp_path / "out")
    if command == "simulate":
        argv = ["simulate", "--config", "experimental.cfg", "--out", out]
    elif command == "sweep":
        argv = ["sweep", "--config", str(fast_cfg), "--out", out]
    elif command == "fit":
        from test_analysis import benchmark_histogram

        write_spectrum_csv(benchmark_histogram(), tmp_path / "hist.csv")
        argv = ["fit", str(tmp_path / "hist.csv"), "--trials", "20", "--out", out]
    else:
        argv = ["validate", "--quick", "--out", out]
    assert _scipy_modules_after(argv, "scipy") == "0 []"


def test_package_never_imports_scipy():
    # the import statements of every module, wherever they stand
    package = Path(cli.__file__).resolve().parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert imported == []


class TestParser:
    def test_sweep_has_no_format(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--config", "ideal.cfg", "--format", "bin"])
        assert exc.value.code == 2
