"""Span recorder for the traced run, installed from outside the package.

Every module of ``timelens`` that holds a binding of a traced function
gets a wrapper in its place for the length of the run (``sfg_convolve``,
for example, is bound in ``grid``, ``cli``, ``analysis``, ``validate``
and the package itself).  Each call records a span: name, start, end,
parent span and run id, plus counts derived from the argument shapes.
Spans stay in memory; ``Recorder.dump`` writes them out when the run
ends, and ``layer_metrics`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from contextlib import contextmanager

# Traced functions by module.  ``cli`` traces only ``main``: its command
# functions and private helpers are the orchestration counted in
# ``cli.main.self_s``.  ``validate`` traces only ``run_suites``: the suite
# bodies are the validate layer's own work.  The two samplers in
# ``states`` are left out because they are the grid's array kernels, not
# closed-form evaluations.
TRACED = {
    "cli": ("main",),
    "config": ("parse_config", "parse_config_text"),
    "lens": (
        "solve_imaging", "magnification", "lcl_parameter", "lcl_regime",
        "output_sigma3", "output_correlation", "limit_infinite_escort",
        "limit_m_minus1", "tunability", "predict_output", "phasematch_restrictive",
    ),
    "states": (
        "statistical_correlation", "schmidt_number", "chirped_temporal_width",
        "joint_energy_uncertainty",
    ),
    "grid": (
        "grids_for_state", "sample_jsa", "default_output_grid", "sfg_convolve",
        "compute_stats", "to_time_domain", "suggested_input_samples",
        "prepare_sweep", "delay_sweep",
    ),
    "analysis": (
        "gaussian2d_model", "fit_gaussian_2d", "deconvolve_resolution",
        "derived_quantities", "montecarlo_errorbars", "g2_cross_correlation",
        "spectrum_from_field", "read_spectrum_csv", "write_spectrum_csv",
        "calibrate_phasematching",
    ),
    "gridio": ("write_field_csv", "write_field_binary", "read_field_binary", "is_field_binary"),
    "svgplot": ("colormap", "render_heatmap"),
    "validate": ("run_suites",),
}

# Unit of each per-layer metric, by the last component of its name.
UNITS = {
    "busy_s": "s", "self_s": "s",
    "calls": "count", "trials": "count", "failed": "count", "suites_failed": "count",
    "cells": "cells", "bytes": "B", "bytes_computed": "B", "flops_computed": "flop",
    "kept_ratio": "ratio", "ok_ratio": "ratio", "cells_per_pixel": "ratio",
    "overhead_frac": "ratio",
}

# Plot area of svgplot.render_heatmap: 640x560 canvas minus margins.
PLOT_PIXELS = 520 * 440
COMPLEX_BYTES = 16


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name: str, parent: int, run: str):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "counts": self.counts,
        }


def unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def _cells(field) -> int:
    return int(field.values.size)


def _count_sfg(args: dict, result) -> dict:
    """Work of one convolution from its argument shapes.

    direct: the dense kernel (n_out x n_in) times the field (n_in x nh),
    8 real flops per complex multiply-add.  fft: one complex transform of
    the kernel, one forward and one inverse per herald column, each
    5 N log2 N flops, plus the pointwise product; N is the padded length
    of the full linear convolution, of which only n_out rows are kept.
    """
    field = args["field"]
    n_in, nh = field.values.shape
    out = result[0]
    n_out = out.axis1.n
    method = args["method"]
    if method == "fft":
        full_rows = 2 * n_in + n_out - 2
        from scipy.fft import next_fast_len

        n_fft = next_fast_len(full_rows)
        flops = 5 * n_fft * math.log2(n_fft) * (2 * nh + 1) + 6 * n_fft * nh
        computed = (full_rows - n_in + 1) + full_rows * nh
    else:
        full_rows = n_out
        flops = 8 * n_out * n_in * nh
        computed = n_out * n_in + n_out * nh
    return {
        "method": method,
        "flops": float(flops),
        "bytes": computed * COMPLEX_BYTES,
        "rows_kept": n_out,
        "rows_computed": full_rows,
        "shape": [n_in, nh, n_out],
    }


def _count_mc(args: dict, result) -> dict:
    return {"trials": result.n_trials, "ok": result.n_trials * (1.0 - result.failure_rate)}


def _count_suites(args: dict, result) -> dict:
    report, _ = result
    return {"suites_failed": sum(1 for entry in report.values() if not entry["ok"])}


# Count hooks: (arguments bound by name, result) -> counts for a span whose
# call returned; a call that raises records only ``failed``.
# Byte counts are array sizes in memory, or the size of an input file the
# benchmark writes at a fixed width, so they do not depend on the seed.
COUNTERS = {
    "grid.sfg_convolve": _count_sfg,
    "grid.compute_stats": lambda a, r: {
        "cells": _cells(a["field"]),
        "shape": list(a["field"].values.shape),
    },
    "grid.sample_jsa": lambda a, r: {"cells": a["grid1"].n * a["gridh"].n},
    "analysis.spectrum_from_field": lambda a, r: {"cells": _cells(a["field"])},
    "analysis.fit_gaussian_2d": lambda a, r: {
        "cells": int(a["spec"].counts.size),
        "shape": list(a["spec"].counts.shape),
    },
    "analysis.montecarlo_errorbars": _count_mc,
    "analysis.read_spectrum_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "gridio.write_field_csv": lambda a, r: {"bytes": int(a["field"].values.nbytes)},
    "svgplot.render_heatmap": lambda a, r: {
        "cells": int(a["matrix"].size),
        "bytes": int(a["matrix"].nbytes),
    },
    "validate.run_suites": _count_suites,
}

class Recorder:
    """Collects spans from the wrappers installed by :meth:`installed`."""

    def __init__(self, run: str = "run"):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                self._stack.pop()
                span.counts["failed"] = 1
                raise
            span.end = time.perf_counter()
            self._stack.pop()
            if counter is not None:
                span.counts.update(counter(_bind(signature, args, kwargs), result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"timelens.{module_name}"]
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    wrappers[fn] = self.wrap(f"{module_name}.{name}", fn)
        patched = []
        try:
            for module_name, module in list(sys.modules.items()):
                if module_name != "timelens" and not module_name.startswith("timelens."):
                    continue
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([span.as_dict() for span in self.spans], fh)
            fh.write("\n")


def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _union(intervals) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def busy_s(spans, match) -> float:
    """Wall time covered by the spans that ``match`` selects."""
    return _union((s.start, s.end) for s in spans if match(s))


def self_s(spans, match) -> float:
    """Busy time of the selected spans minus the time their children cover."""
    selected = {i for i, s in enumerate(spans) if match(s)}
    children = [s for s in spans if s.parent in selected and not match(s)]
    return busy_s(spans, match) - _union((c.start, c.end) for c in children)


def _named(name):
    return lambda s: s.name == name


def _total(spans, name, key) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Per-layer metric values (name -> number) from one traced call."""
    sfg = "grid.sfg_convolve"
    m = {}
    for method in ("fft", "direct"):
        pick = lambda s, method=method: s.name == sfg and s.counts.get("method") == method
        m[f"{sfg}.{method}.busy_s"] = busy_s(spans, pick)
        m[f"{sfg}.{method}.calls"] = sum(1 for s in spans if pick(s))
    m[f"{sfg}.flops_computed"] = _total(spans, sfg, "flops")
    m[f"{sfg}.bytes_computed"] = _total(spans, sfg, "bytes")
    m[f"{sfg}.kept_ratio"] = _ratio(
        _total(spans, sfg, "rows_kept"), _total(spans, sfg, "rows_computed")
    )

    for name in ("grid.compute_stats", "svgplot.render_heatmap", "analysis.fit_gaussian_2d"):
        m[f"{name}.calls"] = sum(1 for s in spans if s.name == name)
    for name in (
        "grid.compute_stats", "grid.sample_jsa", "grid.to_time_domain",
        "analysis.spectrum_from_field", "svgplot.render_heatmap",
        "analysis.fit_gaussian_2d", "analysis.montecarlo_errorbars",
        "analysis.read_spectrum_csv", "gridio.write_field_csv", "cli.main",
    ):
        m[f"{name}.busy_s"] = busy_s(spans, _named(name))
    for name in (
        "grid.compute_stats", "grid.sample_jsa", "analysis.spectrum_from_field",
        "svgplot.render_heatmap", "analysis.fit_gaussian_2d",
    ):
        m[f"{name}.cells"] = _total(spans, name, "cells")
    for name in ("svgplot.render_heatmap", "analysis.read_spectrum_csv", "gridio.write_field_csv"):
        m[f"{name}.bytes"] = _total(spans, name, "bytes")
    for name in (
        "grid.prepare_sweep", "analysis.montecarlo_errorbars", "validate.run_suites", "cli.main",
    ):
        m[f"{name}.self_s"] = self_s(spans, _named(name))

    heat = "svgplot.render_heatmap"
    m[f"{heat}.cells_per_pixel"] = _ratio(m[f"{heat}.cells"], m[f"{heat}.calls"] * PLOT_PIXELS)
    fit = "analysis.fit_gaussian_2d"
    m[f"{fit}.failed"] = _total(spans, fit, "failed")
    mc = "analysis.montecarlo_errorbars"
    m[f"{mc}.trials"] = _total(spans, mc, "trials")
    m[f"{mc}.ok_ratio"] = _ratio(_total(spans, mc, "ok"), m[f"{mc}.trials"])

    m["config.parse_config.busy_s"] = busy_s(spans, lambda s: s.name.startswith("config."))
    closed_form = lambda s: s.name.startswith(("lens.", "states."))
    m["lens.busy_s"] = busy_s(spans, closed_form)
    m["lens.calls"] = sum(1 for s in spans if closed_form(s))
    m["validate.suites_failed"] = _total(spans, "validate.run_suites", "suites_failed")
    m["trace.overhead_frac"] = overhead_frac
    return m
