"""Command-line front end.

Commands: simulate (joint spectra and statistics from a configuration),
sweep (delay tunability with slope fits), fit (2D Gaussian fitting of a
measured or simulated histogram), validate (run the invariant suites).
Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import functools
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
    ResolutionModel,
    fit_values,
    montecarlo_errorbars,
    read_spectrum_csv,
    spectrum_from_field,
)
from .config import (
    MIN_GRID_SAMPLES,
    MIN_TRIALS,
    AnalysisSettings,
    ConfigError,
    at_least,
    parse_config,
)
from .grid import compute_stats, delay_sweep, lens_chirp, prepare_sweep, sfg_convolve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# sweep renders a heatmap panel for each of the first delays, up to this many
SWEEP_PANELS = 9
# a heatmap panel keeps at least this many display bins across a peak's FWHM
CONTOUR_MIN_BINS_PER_FWHM = 8


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


def _input_samples(args, cfg) -> int | None:
    """--grid, else [grid] n (None: automatic)."""
    if args.grid is None:
        return cfg.grid.n
    return at_least("--grid", args.grid, MIN_GRID_SAMPLES, "samples")


def _display_shape(field, moments) -> tuple[int, int]:
    """Samples per axis of a field's heatmap panel, from its intensity moments.

    An axis of n samples gets min(n, max(P, ceil(8 (n - 1) / fwhm_bins) + 1)),
    P being the plot box's pixels on that axis and fwhm_bins the
    moments' FWHM in field samples: at most one sample per pixel, unless
    a peak needs more to keep CONTOUR_MIN_BINS_PER_FWHM bins across it.
    """
    shape = []
    for axis, sigma, pixels in (
        (field.axis1, moments.sigma1, svgplot.PLOT_WIDTH),
        (field.axis_h, moments.sigmah, svgplot.PLOT_HEIGHT),
    ):
        fwhm_bins = units.sigma_to_fwhm(sigma) / axis.step
        need = math.ceil(CONTOUR_MIN_BINS_PER_FWHM * (axis.n - 1) / fwhm_bins) + 1
        shape.append(min(axis.n, max(pixels, need)))
    return shape[0], shape[1]


def _heatmap_svg(field, moments, title: str, contour: bool) -> str:
    """SVG text of a field's heatmap, resampled once at its display shape.

    With contour, the panel carries the 25 percent contour of the
    Gaussian with the field's intensity moments, as stats.csv reports
    them, mapped to wavelength: each center through lambda = 2 pi c /
    omega, each width to first order, sigma_lambda = lambda sigma_omega
    / omega, and rho with its sign, since both axes reverse.
    """
    spec = spectrum_from_field(field, _display_shape(field, moments))
    ellipse = None
    if contour:
        c1 = units.angular_to_wavelength(moments.mean1) * 1e9
        ch = units.angular_to_wavelength(moments.meanh) * 1e9
        s1 = c1 * moments.sigma1 / moments.mean1
        sh = ch * moments.sigmah / moments.meanh
        cov = np.array([[s1**2, moments.rho * s1 * sh], [moments.rho * s1 * sh, sh**2]])
        # 25 percent of the peak: the quadratic form equals 2 ln 4
        ellipse = (c1, ch, cov, 2.0 * math.log(4.0))
    return svgplot.render_heatmap(
        spec.counts, spec.lambda1_nm, spec.lambdah_nm, title=title, contour=ellipse
    )


def _stats_row(engine: str, center1, centerh, sigma1, sigmah, rho, **extra) -> dict:
    """One stats.csv row: signal and herald centers and widths in rad/s, widths also as FWHM."""
    return {
        "engine": engine,
        "center_signal_rad_s": center1,
        "center_herald_rad_s": centerh,
        "sigma_signal_rad_s": sigma1,
        "sigma_herald_rad_s": sigmah,
        "rho": rho,
        "signal_fwhm_thz": units.sigma_rad_to_fwhm_thz(sigma1),
        "herald_fwhm_thz": units.sigma_rad_to_fwhm_thz(sigmah),
        **extra,
    }


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
    # the sweep's planner sizes the grids and refuses oversized ones
    # before sampling; simulate convolves once, at its one delay, the one
    # sampled input times the lens chirp
    input_field, out_grid = prepare_sweep(
        lens_cfg, state, [cfg.tau], n=_input_samples(args, cfg), nh=cfg.grid.herald_n,
        n_out=cfg.grid.output_n, span_sigmas=cfg.grid.span, command=f"simulate-{args.format}",
    )
    input_stats = compute_stats(input_field)
    out_field, weight = sfg_convolve(
        input_field, lens_cfg.escort, lens_cfg.phasematching, cfg.tau, out_grid=out_grid,
        method="fft", chirp=lens_chirp(lens_cfg, state, input_field.axis1),
    )
    output_stats = compute_stats(out_field)
    pred = lens.predict_output(lens_cfg, replace(state, delay=cfg.tau))
    validate.check_closed_form("grid-output", input_field.axis1.n, pred, output_stats)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = [
        _stats_row(
            label, st.mean1, st.meanh, st.sigma1, st.sigmah, st.rho, schmidt_k=st.schmidt_k, **extra
        )
        for label, st, extra in (
            ("grid-input", input_stats, {}),
            ("grid-output", output_stats, {"conversion_weight": weight}),
        )
    ]
    rows.append(
        _stats_row(
            "closed-form-output", pred.omega3_center, pred.omegah_center, pred.sigma3,
            pred.sigmah_f, pred.rho_f, lcl_parameter=pred.lcl_parameter,
            flags=";".join(sorted(pred.flags)),
        )
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

    for field, stats, name, title in (
        (input_field, input_stats, "jsi_input.svg", "input joint spectral intensity"),
        (out_field, output_stats, "jsi_output.svg", "upconverted joint spectral intensity"),
    ):
        svg = _heatmap_svg(field, stats, title, contour=True)
        (out_dir / name).write_text(svg, encoding="utf-8", newline="\n")
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


def _sweep_panel(svgs: list[str], index: int, tau: float, intensity, moments) -> None:
    """delay_sweep's panel: the heatmap SVG text of each of the first SWEEP_PANELS delays."""
    if index < SWEEP_PANELS:
        title = f"delay {tau * 1e12:+.3f} ps"
        svgs.append(_heatmap_svg(intensity, moments, title, contour=False))


def cmd_sweep(args) -> int:
    config_path = _resolve_config(args.config)
    cfg = parse_config(config_path)
    if cfg.sweep is None:
        raise ConfigError("configuration has no [delay] sweep_start/sweep_stop/sweep_points")
    start, stop, npts = cfg.sweep
    taus = np.linspace(start, stop, npts)
    # each panel is rendered while its output intensity is alive, and its
    # text is written with the other files once the whole sweep succeeded
    svgs = []
    sw = delay_sweep(
        cfg.lens,
        cfg.state,
        taus,
        n=_input_samples(args, cfg),
        nh=cfg.grid.herald_n,
        n_out=cfg.grid.output_n,
        span_sigmas=cfg.grid.span,
        panel=functools.partial(_sweep_panel, svgs),
    )
    for i, p in enumerate(sw.points):
        if not p.aperture_warning:
            validate.check_closed_form(
                f"sweep row {i} (delay {p.tau * 1e12:+.3f} ps)", sw.input_samples,
                lens.predict_output(cfg.lens, replace(cfg.state, delay=p.tau)), p.moments,
            )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [
            p.tau * 1e12,
            p.moments.mean1,
            p.moments.meanh,
            units.angular_to_wavelength(p.moments.mean1) * 1e9,
            units.angular_to_wavelength(p.moments.meanh) * 1e9,
            p.moments.sigma1,
            p.moments.sigmah,
            p.moments.rho,
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

    for idx, svg in enumerate(svgs):
        name = f"sweep_panel_{idx}.svg"
        (out_dir / name).write_text(svg, encoding="utf-8", newline="\n")
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
    if not path.is_file():
        raise ConfigError(f"histogram file {path} not found or not a file")
    if gridio.is_field_binary(path):
        spec = spectrum_from_field(gridio.read_field_binary(path))
    else:
        with open(path, "rb") as fh:
            if fh.readline().strip() == gridio.CSV_HEADER.encode("ascii"):
                raise ConfigError(
                    f"{path} is a simulate field dump (CSV); fit reads histogram CSVs "
                    "and simulate --format bin dumps"
                )
        spec = read_spectrum_csv(path)

    # a command-line flag wins over its config key, which wins over the default
    config_path = _resolve_config(args.config) if args.config else None
    settings = parse_config(config_path).analysis if config_path else AnalysisSettings()
    if args.res_signal is not None or args.res_herald is not None:
        if args.res_signal is None or args.res_herald is None:
            raise ConfigError("give both --res-signal and --res-herald or neither")
        where, r1, rh = "--res-signal, --res-herald", args.res_signal, args.res_herald
    else:
        where = "[analysis] resolution_signal, resolution_herald"
        r1, rh = settings.resolution_signal_nm, settings.resolution_herald_nm
    try:
        res = None if r1 is None else ResolutionModel(r1_nm=r1, rh_nm=rh)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    trials, seed = settings.trials, settings.seed
    if args.trials is not None:
        trials = at_least("--trials", args.trials, MIN_TRIALS, "Monte Carlo trials")
    if args.seed is not None:
        seed = at_least("--seed", args.seed, 0, "for a seed")

    # the report's values are the observed fit the Monte Carlo starts from;
    # zero resolutions give the identity deconvolution
    mc = montecarlo_errorbars(spec, res, n_trials=trials, seed=seed)
    raw_vals = fit_values(mc.observed)
    dec_vals = {} if mc.deconvolved is None else fit_values(mc.deconvolved)
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
        f"fit: rho_raw={mc.observed.rho:+.5f}"
        + ("" if mc.deconvolved is None else f" rho_dec={mc.deconvolved.rho:+.5f}")
        + f", {mc.n_trials} Monte Carlo trials{flag}"
    )
    if mc.failures:
        reasons = ", ".join(f"{name} {count}" for name, count in sorted(mc.failures.items()))
        print(f"fit: {sum(mc.failures.values())} Monte Carlo trials failed: {reasons}")
    print(f"fit: wrote fitreport.csv to {out_dir}")
    return EXIT_OK


def cmd_validate(args) -> int:
    seed = at_least("--seed", args.seed, 0, "for a seed")
    params = validate.SuiteParams(seed=seed, quick=args.quick)
    report, all_ok = validate.run_suites(params)
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
