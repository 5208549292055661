import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from timelens import cli, grid
from timelens.analysis import FitConvergenceError, fit_gaussian_2d
from timelens.cli import build_parser, main
from timelens import gridio, units
from timelens.analysis import write_spectrum_csv
from timelens.config import parse_config
from test_analysis import assert_same_fit

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

    def test_oversized_direct_kernel_rejected_before_sampling(self, tmp_path, monkeypatch, capsys):
        # ideal.cfg sizes its grid automatically to 16384 samples, whose
        # 16384 x 16384 direct kernel would take 4 GiB
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the memory check")

        monkeypatch.setattr(cli, "sample_jsa", no_sampling)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", "ideal.cfg", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "16384 x 16384" in err and "4.00 GiB" in err
        assert not out.exists()

    def test_output_grid_below_zero_frequency_rejected_before_sampling(
        self, tmp_path, monkeypatch, capsys
    ):
        # the broad ideal escort widens the output grid of a 2048-sample
        # input axis past zero frequency
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the output grid check")

        monkeypatch.setattr(cli, "sample_jsa", no_sampling)
        cfg = parse_config(cli._resolve_config("ideal.cfg"))
        g1, _ = grid.grids_for_state(cfg.state, n=2048, nh=cfg.grid.herald_n, span_sigmas=cfg.grid.span)
        start = grid.sfg_output_grid(g1, cfg.lens.escort).start
        assert start < 0.0
        out = tmp_path / "sim"
        argv = ["simulate", "--config", "ideal.cfg", "--grid", "2048", "--format", "bin"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{start:.3e} rad/s" in err
        assert not out.exists()

    def test_schmidt_number_computes_no_svd(self, fast_cfg, tmp_path, monkeypatch):
        # the Gram-trace Schmidt number needs no decomposition
        def no_svd(*args, **kwargs):
            raise AssertionError("singular value decomposition in simulate")

        monkeypatch.setattr(grid.np.linalg, "svd", no_svd)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)]) == 0
        assert float(read_stats(out / "stats.csv")["grid-output"]["schmidt_k"]) > 1.0

    def test_one_spectrum_per_panel(self, fast_cfg, tmp_path, monkeypatch):
        # the contour fit and the heatmap of a panel share one spectrum
        calls = []
        original = cli.spectrum_from_field

        def counting(field, *args, **kwargs):
            calls.append(field)
            return original(field, *args, **kwargs)

        monkeypatch.setattr(cli, "spectrum_from_field", counting)
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(tmp_path / "sim")]) == 0
        assert len(calls) == 2

    def test_contour_fit_on_subsample(self, tmp_path, monkeypatch):
        # the 512 x 512 panels of the measured operating point are fitted on
        # at most 128 bins per axis, as a full-resolution fit places them
        full_spectra, fits = [], []
        subsample, fit = cli.contour_subsample, cli.fit_gaussian_2d

        def recording_subsample(spec):
            full_spectra.append(spec)
            return subsample(spec)

        def recording_fit(spec):
            report = fit(spec)
            fits.append((spec.counts.shape, report.raw))
            return report

        monkeypatch.setattr(cli, "contour_subsample", recording_subsample)
        monkeypatch.setattr(cli, "fit_gaussian_2d", recording_fit)
        assert main(["simulate", "--config", "experimental.cfg", "--out", str(tmp_path / "sim")]) == 0
        assert [spec.counts.shape for spec in full_spectra] == [(512, 512)] * 2
        assert len(fits) == 2
        for spec, (shape, raw) in zip(full_spectra, fits):
            assert max(shape) <= 128
            assert_same_fit(raw, fit_gaussian_2d(spec).raw)

    def test_subsample_contour_svgs_match_full_fit(self, fast_cfg, tmp_path, monkeypatch):
        sub, full = tmp_path / "sub", tmp_path / "full"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(sub)]) == 0
        monkeypatch.setattr(cli, "contour_subsample", lambda spec: spec)
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(full)]) == 0
        for name in ("jsi_input.svg", "jsi_output.svg"):
            assert "<ellipse" in (sub / name).read_text()
            assert (sub / name).read_bytes() == (full / name).read_bytes(), name

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

    def test_contour_fit_failure_drops_ellipse(self, fast_cfg, tmp_path, monkeypatch, capsys):
        def fail(spec):
            raise FitConvergenceError("no convergence")

        monkeypatch.setattr(cli, "fit_gaussian_2d", fail)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)]) == 0
        assert "<ellipse" not in (out / "jsi_output.svg").read_text()
        assert "no contour" in capsys.readouterr().err

    def test_contour_fit_bug_is_runtime_error(self, fast_cfg, tmp_path, monkeypatch):
        def crash(spec):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "fit_gaussian_2d", crash)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(fast_cfg), "--out", str(out)]) == 3

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
        assert "only 1 of 3 sweep rows" in capsys.readouterr().err

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

    def test_fit_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", str(empty), "--out", str(tmp_path / "o")]) == 3

    def test_fit_missing_file(self, tmp_path):
        assert main(["fit", str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")]) == 2


class TestValidateCommand:
    def test_quick_green(self, tmp_path):
        out = tmp_path / "val"
        assert main(["validate", "--quick", "--out", str(out)]) == 0
        report = json.loads((out / "validation.json").read_text())
        assert all(entry["ok"] for entry in report.values())

    def test_mutation_detected(self):
        assert main(["validate", "--quick", "--mutate", "output_correlation=1.01"]) == 1
        assert main(["validate", "--quick", "--mutate", "output_sigma3=1.01"]) == 1

    def test_mutation_hook_restored(self):
        from timelens import lens

        original = lens.output_correlation
        main(["validate", "--quick", "--mutate", "output_correlation=1.5"])
        assert lens.output_correlation is original

    def test_bad_mutation_spec(self):
        assert main(["validate", "--quick", "--mutate", "nonsense"]) == 2

    def test_unknown_mutation_key_exit_2(self, capsys):
        assert main(["validate", "--quick", "--mutate", "bogus=2"]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal alone took about half a second to import
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, timelens.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy.signal' or m.startswith('scipy.signal.')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


class TestParser:
    def test_sweep_has_no_format(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--config", "ideal.cfg", "--format", "bin"])
        assert exc.value.code == 2
