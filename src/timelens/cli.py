"""Command-line front end.

Commands: simulate (joint spectra and statistics from a configuration),
sweep (delay tunability with slope fits), fit (2D Gaussian fitting of a
measured or simulated histogram), validate (run the invariant suites).
Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, gridio, lens, svgplot, units, validate
from .analysis import (
    DegenerateDataError,
    FitConvergenceError,
    ResolutionModel,
    contour_subsample,
    deconvolve_resolution,
    fit_gaussian_2d,
    fit_values,
    montecarlo_errorbars,
    read_spectrum_csv,
    spectrum_from_field,
)
from .config import AnalysisSettings, ConfigError, parse_config
from .grid import (
    compute_stats,
    delay_sweep,
    grids_for_state,
    sample_jsa,
    sfg_convolve,
    sfg_output_grid,
    suggested_input_samples,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# simulate convolves by direct summation, whose dense n_out x n_in complex
# kernel dominates its memory; larger grids are refused before sampling
DIRECT_KERNEL_BYTES_LIMIT = 512 * 2**20

# sweep renders a heatmap panel for each of the first delays, up to this many
SWEEP_PANELS = 9


def _resolve_config(path_arg: str) -> Path:
    path = Path(path_arg)
    if path.exists():
        return path
    bundled = resources.files("timelens") / "configs" / path_arg
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"configuration {path_arg!r} not found (not a file or bundled name)")


def _write_manifest(out_dir: Path, config_path: Path | None, outputs: list[str]) -> None:
    digest = ""
    if config_path is not None:
        digest = hashlib.sha256(config_path.read_bytes()).hexdigest()
    manifest = {
        "config_sha256": digest,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_write(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _heatmap_from_spectrum(spec, path: Path, title: str, contour_fit=None):
    contour = None
    if contour_fit is not None:
        s1 = units.fwhm_to_sigma(contour_fit.fwhm1_nm)
        sh = units.fwhm_to_sigma(contour_fit.fwhmh_nm)
        cov = np.array(
            [
                [s1**2, contour_fit.rho * s1 * sh],
                [contour_fit.rho * s1 * sh, sh**2],
            ]
        )
        # 25 percent contour of the fitted peak: quadratic form equals 2 ln 4
        contour = (contour_fit.center1_nm, contour_fit.centerh_nm, cov, 2.0 * math.log(4.0))
    svgplot.render_heatmap(
        spec.counts,
        spec.lambda1_nm,
        spec.lambdah_nm,
        path,
        title=title,
        x_label="signal wavelength (nm)",
        y_label="herald wavelength (nm)",
        contour=contour,
        metadata={"axes_unit": "nm"},
    )


def _stats_row(label: str, st, extra: dict | None = None) -> dict:
    row = {
        "engine": label,
        "center_signal_rad_s": st.mean1,
        "center_herald_rad_s": st.meanh,
        "sigma_signal_rad_s": st.sigma1,
        "sigma_herald_rad_s": st.sigmah,
        "rho": st.rho,
        "schmidt_k": st.schmidt_k,
        "signal_fwhm_thz": units.sigma_rad_to_fwhm_thz(st.sigma1),
        "herald_fwhm_thz": units.sigma_rad_to_fwhm_thz(st.sigmah),
    }
    if extra:
        row.update(extra)
    return row


_STATS_COLUMNS = [
    "engine",
    "center_signal_rad_s",
    "center_herald_rad_s",
    "sigma_signal_rad_s",
    "sigma_herald_rad_s",
    "rho",
    "schmidt_k",
    "signal_fwhm_thz",
    "herald_fwhm_thz",
    "conversion_weight",
    "lcl_parameter",
    "flags",
]


def cmd_simulate(args) -> int:
    config_path = _resolve_config(args.config)
    cfg = parse_config(config_path)
    state, lens_cfg = cfg.state, cfg.lens
    effective = replace(state, chirp=state.chirp + lens_cfg.signal_chirp)
    n = args.grid or cfg.grid.n
    if n is None:
        n = suggested_input_samples(
            effective,
            lens_cfg.escort,
            span_sigmas=cfg.grid.span,
            max_tau=abs(cfg.tau),
        )
    g1, gh = grids_for_state(state, n=n, nh=cfg.grid.herald_n, span_sigmas=cfg.grid.span)
    out_grid = sfg_output_grid(g1, lens_cfg.escort)
    kernel_bytes = out_grid.n * g1.n * 16
    if kernel_bytes > DIRECT_KERNEL_BYTES_LIMIT:
        raise ConfigError(
            f"a {n}-sample grid needs a {out_grid.n} x {g1.n} direct convolution kernel of "
            f"{kernel_bytes / 2**30:.2f} GiB, above the {DIRECT_KERNEL_BYTES_LIMIT / 2**30:.2f} GiB "
            "limit; set a smaller [grid] n or --grid"
        )
    if out_grid.start <= 0.0:
        raise ConfigError(
            f"the output grid starts at {out_grid.start:.3e} rad/s, at or below zero "
            f"frequency: its half span, the input half span widened by six escort widths "
            f"(sigma {lens_cfg.escort.sigma:.3e} rad/s), exceeds its center "
            f"{out_grid.center:.3e} rad/s"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    input_field = sample_jsa(state, g1, gh)
    input_stats = compute_stats(input_field)

    eff_field = sample_jsa(effective, g1, gh)
    out_field, weight = sfg_convolve(
        eff_field, lens_cfg.escort, lens_cfg.phasematching, tau=cfg.tau, out_grid=out_grid
    )
    output_stats = compute_stats(out_field)

    rows = [
        _stats_row("grid-input", input_stats),
        _stats_row("grid-output", output_stats, {"conversion_weight": weight}),
    ]
    pred = lens.predict_output(lens_cfg, state)
    rows.append(
        {
            "engine": "closed-form-output",
            "center_signal_rad_s": pred.omega3_center,
            "center_herald_rad_s": pred.omegah_center,
            "sigma_signal_rad_s": pred.sigma3,
            "sigma_herald_rad_s": pred.sigmah_f,
            "rho": pred.rho_f,
            "signal_fwhm_thz": units.sigma_rad_to_fwhm_thz(pred.sigma3),
            "herald_fwhm_thz": units.sigma_rad_to_fwhm_thz(pred.sigmah_f),
            "lcl_parameter": pred.lcl_parameter,
            "flags": ";".join(sorted(pred.flags)),
        }
    )

    outputs = []
    table = [[row.get(col, "") for col in _STATS_COLUMNS] for row in rows]
    _csv_write(out_dir / "stats.csv", _STATS_COLUMNS, table)
    outputs.append("stats.csv")

    if args.format == "bin":
        gridio.write_field_binary(input_field, out_dir / "jsi_input.bin")
        gridio.write_field_binary(out_field, out_dir / "jsi_output.bin")
        outputs += ["jsi_input.bin", "jsi_output.bin"]
    else:
        gridio.write_field_csv(input_field, out_dir / "jsi_input.csv")
        gridio.write_field_csv(out_field, out_dir / "jsi_output.csv")
        outputs += ["jsi_input.csv", "jsi_output.csv"]

    for field, name, title in (
        (input_field, "jsi_input.svg", "input joint spectral intensity"),
        (out_field, "jsi_output.svg", "upconverted joint spectral intensity"),
    ):
        spec = spectrum_from_field(field)
        try:
            # the ellipse is drawn to a thousandth of a pixel; a subsample
            # places it as the full fit does at a fraction of the cost
            fit = fit_gaussian_2d(contour_subsample(spec)).raw
        except (DegenerateDataError, FitConvergenceError) as exc:
            print(f"simulate: no contour on {name}: {exc}", file=sys.stderr)
            fit = None
        _heatmap_from_spectrum(spec, out_dir / name, title, contour_fit=fit)
        outputs.append(name)

    _write_manifest(out_dir, config_path, outputs)
    print(f"simulate: wrote {len(outputs)} files to {out_dir}")
    return EXIT_OK


_SWEEP_COLUMNS = [
    "tau_ps",
    "signal_center_rad_s",
    "herald_center_rad_s",
    "signal_center_nm",
    "herald_center_nm",
    "sigma_signal_rad_s",
    "sigma_herald_rad_s",
    "rho",
    "conversion_weight",
    "aperture_warning",
]


def cmd_sweep(args) -> int:
    config_path = _resolve_config(args.config)
    cfg = parse_config(config_path)
    if cfg.sweep is None:
        raise ConfigError("configuration has no [delay] sweep_start/sweep_stop/sweep_points")
    start, stop, npts = cfg.sweep
    taus = np.linspace(start, stop, npts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sw = delay_sweep(
        cfg.lens,
        cfg.state,
        taus,
        n=args.grid or cfg.grid.n,
        nh=cfg.grid.herald_n,
        n_out=cfg.grid.output_n,
        span_sigmas=cfg.grid.span,
        keep_fields=SWEEP_PANELS,
    )
    rows = [
        [
            p.tau * 1e12,
            p.omega3_center,
            p.omegah_center,
            units.angular_to_wavelength(p.omega3_center) * 1e9,
            units.angular_to_wavelength(p.omegah_center) * 1e9,
            p.sigma3,
            p.sigmah,
            p.rho_f,
            p.weight,
            int(p.aperture_warning),
        ]
        for p in sw.points
    ]
    _csv_write(out_dir / "sweep.csv", _SWEEP_COLUMNS, rows)
    outputs = ["sweep.csv"]

    sig_thzps = units.slope_rad_to_thz_per_ps(sw.signal_slope)
    her_thzps = units.slope_rad_to_thz_per_ps(sw.herald_slope)
    sig_nm = units.angular_to_wavelength(sw.signal_intercept) * 1e9
    her_nm = units.angular_to_wavelength(sw.herald_intercept) * 1e9
    lines = [
        "signal_slope_thz_per_ps = %.9g" % sig_thzps,
        "signal_slope_nm_per_ps = %.9g" % units.slope_thz_to_nm_per_ps(sig_thzps, sig_nm),
        "signal_center_nm = %.9g" % sig_nm,
        "herald_slope_thz_per_ps = %.9g" % her_thzps,
        "herald_slope_nm_per_ps = %.9g" % units.slope_thz_to_nm_per_ps(her_thzps, her_nm),
        "herald_center_nm = %.9g" % her_nm,
        "slope_rows = %d" % sw.slope_rows,
    ]
    (out_dir / "slopes.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs.append("slopes.txt")

    for idx, (point, fld) in enumerate(zip(sw.points, sw.fields)):
        name = f"sweep_panel_{idx}.svg"
        _heatmap_from_spectrum(
            spectrum_from_field(fld), out_dir / name, f"delay {point.tau * 1e12:+.3f} ps"
        )
        outputs.append(name)

    _write_manifest(out_dir, config_path, outputs)
    print(f"sweep: signal {sig_thzps:+.4f} THz/ps, herald {her_thzps:+.4f} THz/ps")
    print(f"sweep: wrote {len(outputs)} files to {out_dir}")
    return EXIT_OK


_FIT_ROWS = [
    ("signal_center_nm", "nm"),
    ("herald_center_nm", "nm"),
    ("signal_fwhm_nm", "nm"),
    ("herald_fwhm_nm", "nm"),
    ("signal_fwhm_thz", "THz"),
    ("herald_fwhm_thz", "THz"),
    ("rho", "dimensionless"),
    ("schmidt_k", "dimensionless"),
    ("joint_energy_uncertainty_thz", "THz"),
    ("amplitude", "counts"),
    ("offset", "counts"),
]


def cmd_fit(args) -> int:
    path = Path(args.histogram)
    if not path.exists():
        raise ConfigError(f"histogram file {path} not found")
    if gridio.is_field_binary(path):
        spec = spectrum_from_field(gridio.read_field_binary(path))
    else:
        spec = read_spectrum_csv(path)

    # a command-line flag wins over its config key, which wins over the default
    config_path = _resolve_config(args.config) if args.config else None
    settings = parse_config(config_path).analysis if config_path else AnalysisSettings()
    res = None
    if args.res_signal is not None or args.res_herald is not None:
        if args.res_signal is None or args.res_herald is None:
            raise ConfigError("give both --res-signal and --res-herald or neither")
        res = ResolutionModel(r1_nm=args.res_signal, rh_nm=args.res_herald)
    elif settings.resolution_signal_nm is not None:
        res = ResolutionModel(
            r1_nm=settings.resolution_signal_nm,
            rh_nm=settings.resolution_herald_nm or 0.0,
        )
    trials = settings.trials if args.trials is None else args.trials
    if trials < 2:
        raise ConfigError(f"--trials: need at least 2 Monte Carlo trials, got {trials}")
    seed = settings.seed if args.seed is None else args.seed

    report = fit_gaussian_2d(spec)
    if res is not None:
        # zero resolutions give the identity deconvolution
        report = deconvolve_resolution(report, res)
    mc = montecarlo_errorbars(spec, res, n_trials=trials, seed=seed)

    raw_vals = fit_values(report.raw)
    dec_vals = fit_values(report.deconvolved) if report.deconvolved else {}
    rows = []
    for key, unit in _FIT_ROWS:
        rows.append(
            [
                key,
                raw_vals.get(key, ""),
                mc.errors.get(f"raw_{key}", ""),
                dec_vals.get(key, ""),
                mc.errors.get(f"dec_{key}", ""),
                unit,
            ]
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _csv_write(
        out_dir / "fitreport.csv",
        ["parameter", "raw_value", "raw_error", "deconvolved_value", "deconvolved_error", "unit"],
        rows,
    )
    outputs = ["fitreport.csv"]
    _write_manifest(out_dir, config_path, outputs)
    flag = " (UNRELIABLE: fit failures above 5%)" if mc.unreliable else ""
    print(
        f"fit: rho_raw={report.raw.rho:+.5f}"
        + (f" rho_dec={report.deconvolved.rho:+.5f}" if report.deconvolved else "")
        + f", {mc.n_trials} Monte Carlo trials{flag}"
    )
    if mc.failures:
        reasons = ", ".join(f"{name} {count}" for name, count in sorted(mc.failures.items()))
        print(f"fit: {sum(mc.failures.values())} Monte Carlo trials failed: {reasons}")
    print(f"fit: wrote fitreport.csv to {out_dir}")
    return EXIT_OK


def cmd_validate(args) -> int:
    perturbations = {}
    for spec in args.mutate or []:
        if "=" not in spec:
            raise ConfigError(f"--mutate expects KEY=FACTOR, got {spec!r}")
        key, _, factor = spec.partition("=")
        if key not in validate.PERTURBABLE:
            raise ConfigError(
                f"--mutate key must be one of {', '.join(validate.PERTURBABLE)}, got {key!r}"
            )
        try:
            perturbations[key] = float(factor)
        except ValueError:
            raise ConfigError(f"--mutate factor must be a number, got {factor!r}") from None

    params = validate.SuiteParams(seed=args.seed, quick=args.quick)
    report, all_ok = validate.run_suites(params, perturbations=perturbations or None)
    for name, entry in report.items():
        status = "ok  " if entry["ok"] else "FAIL"
        print(f"{status} {name}: {entry['detail']}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "validation.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"validate: report written to {out_dir / 'validation.json'}")
    print("validate:", "all suites passed" if all_ok else "SUITE FAILURES PRESENT")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timelens",
        description="Upconversion time-lens simulator for two-photon joint spectra",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="joint spectra and statistics from a configuration")
    p_sim.add_argument("--config", required=True, help="configuration file or bundled name")
    p_sim.add_argument("--out", default="out", help="output directory")
    p_sim.add_argument("--grid", type=int, default=None, help="override signal-axis grid size")
    p_sim.add_argument("--format", choices=("csv", "bin"), default="csv", help="field dump format")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="delay sweep with tunability slopes")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--grid", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit a coincidence histogram")
    p_fit.add_argument("histogram", help="histogram CSV or binary field dump")
    p_fit.add_argument("--config", default=None, help="configuration supplying resolutions")
    p_fit.add_argument("--res-signal", type=float, default=None, help="signal response sigma, nm")
    p_fit.add_argument("--res-herald", type=float, default=None, help="herald response sigma, nm")
    p_fit.add_argument("--out", default="out")
    p_fit.add_argument(
        "--trials", type=int, default=None,
        help="Monte Carlo trials (default: [analysis] trials, else 500)",
    )
    p_fit.add_argument(
        "--seed", type=int, default=None,
        help="Monte Carlo seed (default: [analysis] seed, else 1)",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_val = sub.add_parser("validate", help="run the invariant suites")
    p_val.add_argument("--out", default=None, help="directory for the JSON report")
    p_val.add_argument("--seed", type=int, default=2024)
    p_val.add_argument("--quick", action="store_true", help="reduced rounds and grids")
    p_val.add_argument(
        "--mutate",
        action="append",
        metavar="KEY=FACTOR",
        help=f"self-check: scale a closed-form entry point ({' or '.join(validate.PERTURBABLE)}) "
        "for the run and expect the suites to notice",
    )
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
