"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check the span arithmetic, that every wrapped binding is restored,
that the seed leaves grid sizes and trial counts unchanged, and that
each output check passes on a small real run and fails on a corrupted
output.  Named so that the repository's own pytest run does not collect it.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import timelens  # noqa: E402
import timelens.cli  # noqa: E402
from timelens.config import parse_config  # noqa: E402
from timelens.grid import prepare_sweep  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, busy_s, layer_metrics, self_s  # noqa: E402

SEEDS = range(6)


def _span(name, start, end, parent=-1):
    s = Span(name, parent, "test")
    s.start, s.end = start, end
    return s


def _bindings() -> dict:
    """(module name, attribute) -> object for every timelens function binding."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "timelens" or name.startswith("timelens.")
        for attr, value in vars(module).items()
        if callable(value)
    }


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        spans_ = [
            _span("a.outer", 0.0, 10.0),
            _span("b.child", 1.0, 3.0, parent=0),
            _span("c.grandchild", 1.5, 2.5, parent=1),
            _span("b.child", 5.0, 6.0, parent=0),
        ]
        named = lambda n: (lambda s: s.name == n)
        self.assertAlmostEqual(self_s(spans_, named("a.outer")), 7.0)
        self.assertAlmostEqual(self_s(spans_, named("b.child")), 2.0)
        self.assertAlmostEqual(busy_s(spans_, named("b.child")), 3.0)
        # a group that nests in itself is counted once
        self.assertAlmostEqual(busy_s(spans_, lambda s: s.name != "a.outer"), 3.0)

    def test_wrappers_link_parents(self):
        rec = Recorder()
        inner = rec.wrap("m.inner", lambda: None)
        outer = rec.wrap("m.outer", lambda: (inner(), inner()))
        outer()
        self.assertEqual([s.name for s in rec.spans], ["m.outer", "m.inner", "m.inner"])
        self.assertEqual([s.parent for s in rec.spans], [-1, 0, 0])
        outer_self = self_s(rec.spans, lambda s: s.name == "m.outer")
        self.assertLessEqual(outer_self, rec.spans[0].duration)

    def test_every_metric_reported_without_spans(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(sorted(names), sorted(layer_metrics([], 0.0)))


class Bindings(unittest.TestCase):
    def test_restored_after_run_and_after_error(self):
        before = _bindings()
        original = timelens.grid.sfg_convolve
        rec = Recorder()
        with rec.installed():
            wrapped = timelens.grid.sfg_convolve
            self.assertIsNot(wrapped, original)
            for module in (timelens.cli, timelens.analysis, timelens.validate, timelens):
                self.assertIs(module.sfg_convolve, wrapped)
        self.assertEqual(_bindings(), before)
        self.assertIs(timelens.grid.sfg_convolve, original)
        with self.assertRaises(KeyError):
            with rec.installed():
                raise KeyError("boom")
        self.assertEqual(_bindings(), before)

    def test_every_traced_name_exists(self):
        for module, names in spans.TRACED.items():
            for name in names:
                self.assertTrue(callable(getattr(sys.modules[f"timelens.{module}"], name)), name)


class SeedInvariance(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=SCRATCH))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _config(self, workload, seed):
        workloads.WORKLOADS[workload].make_inputs(seed, self.tmp)
        path = next(self.tmp.glob("*.cfg"))
        return path.read_text(), parse_config(path)

    def test_sweep_grid_sizes(self):
        sizes, texts = set(), set()
        for seed in SEEDS:
            text, cfg = self._config("sweep-ideal", seed)
            texts.add(text)
            field, out_grid = prepare_sweep(
                cfg.lens, cfg.state, np.linspace(*cfg.sweep), n=cfg.grid.n,
                nh=cfg.grid.herald_n, n_out=cfg.grid.output_n, span_sigmas=cfg.grid.span,
            )
            sizes.add((field.values.shape, out_grid.n, cfg.sweep[2]))
        self.assertEqual(len(texts), len(SEEDS))
        self.assertEqual(sizes, {((4096, 512), 4737, 3)})

    def test_simulate_grid_sizes(self):
        sizes = {self._config("simulate-experimental", s)[1].grid for s in SEEDS}
        self.assertEqual(len(sizes), 1)
        (grid,) = sizes
        self.assertEqual((grid.n, grid.herald_n, grid.output_n), (512, 512, 512))

    def test_histogram_shape_and_trials(self):
        _, _, counts = workloads.histogram(workloads.HIST_DRAW_SEED)
        self.assertEqual(counts.shape, workloads.HIST_SHAPE)
        files, mc_seeds = set(), set()
        for seed in SEEDS:
            workloads.WORKLOADS["fit-mc100"].make_inputs(seed, self.tmp)
            files.add((self.tmp / "hist.csv").read_bytes())
            argv = workloads.WORKLOADS["fit-mc100"].argv(self.tmp, self.tmp, seed)
            self.assertEqual(argv[argv.index("--trials") + 1], "100")
            mc_seeds.add(argv[argv.index("--seed") + 1])
        self.assertEqual(len(files), 1)
        self.assertEqual(len(mc_seeds), len(SEEDS))


# Small versions of the workloads: same checks, a fraction of the cost.
SMALL_SWEEP = workloads.SWEEP_CONFIG.replace("n = auto", "n = 1024")


class OutputChecks(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
        self.inputs = self.tmp / "inputs"
        self.inputs.mkdir()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _run(self, name, argv=None, tag="cold"):
        workload = workloads.WORKLOADS[name]
        out = self.tmp / tag
        argv = argv or workload.argv(self.inputs, out, 7)
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            self.assertEqual(timelens.cli.main(argv + ["--out", str(out)]), 0)
        return workload, out, stdout.getvalue()

    def test_sweep(self):
        (self.inputs / "sweep.cfg").write_text(workloads._config_text(SMALL_SWEEP, 7, False))
        workload, out, stdout = self._run(
            "sweep-ideal", ["sweep", "--config", str(self.inputs / "sweep.cfg")]
        )
        self.assertEqual(workload.check(self.inputs, out, stdout), [])
        slopes = out / "slopes.txt"
        lines = slopes.read_text().splitlines()
        key, _, value = lines[0].partition("=")
        slopes.write_text("\n".join([f"{key}= {float(value) * 1.05}"] + lines[1:]) + "\n")
        self.assertEqual(len(workload.check(self.inputs, out, stdout)), 1)

    def test_simulate(self):
        workloads.WORKLOADS["simulate-experimental"].make_inputs(7, self.inputs)
        cfg = self.inputs / "simulate.cfg"
        workload, out, stdout = self._run(
            "simulate-experimental", ["simulate", "--config", str(cfg), "--format", "bin"]
        )
        self.assertEqual(workload.check(self.inputs, out, stdout), [])
        stats = out / "stats.csv"
        rows = stats.read_text().splitlines()
        cells = rows[-1].split(",")
        cells[5] = str(float(cells[5]) + 0.01)  # rho of the closed-form row
        stats.write_text("\n".join(rows[:-1] + [",".join(cells)]) + "\n")
        self.assertEqual(len(workload.check(self.inputs, out, stdout)), 1)

    def test_fit(self):
        workloads.WORKLOADS["fit-mc100"].make_inputs(7, self.inputs)
        argv = workloads.WORKLOADS["fit-mc100"].argv(self.inputs, self.tmp, 7)[:-2]
        argv[argv.index("--trials") + 1] = "20"
        workload, out, stdout = self._run("fit-mc100", argv)
        self.assertEqual(workload.check(self.inputs, out, stdout), [])
        self.assertEqual(len(workload.check(self.inputs, out, stdout + " (UNRELIABLE")), 1)

    def test_validate(self):
        workload = workloads.WORKLOADS["validate-quick"]
        report, ok = timelens.validate.run_suites(
            timelens.validate.SuiteParams(quick=True), names=["units-roundtrip", "g2-properties"]
        )
        self.assertTrue(ok)
        (self.tmp / "validation.json").write_text(json.dumps(report))
        self.assertEqual(workload.check(self.inputs, self.tmp, ""), [])
        report["g2-properties"]["ok"] = False
        (self.tmp / "validation.json").write_text(json.dumps(report))
        self.assertEqual(len(workload.check(self.inputs, self.tmp, "")), 1)

    def test_repeated_calls_compared_byte_for_byte(self):
        workloads.WORKLOADS["fit-mc100"].make_inputs(7, self.inputs)
        argv = workloads.WORKLOADS["fit-mc100"].argv(self.inputs, self.tmp, 7)[:-2]
        argv[argv.index("--trials") + 1] = "5"
        _, first, _ = self._run("fit-mc100", argv, "cold")
        _, second, _ = self._run("fit-mc100", argv, "warm")
        self.assertEqual(workloads.differing_outputs(first, second), [])
        report = second / "fitreport.csv"
        report.write_text(report.read_text() + "\n")
        self.assertEqual(len(workloads.differing_outputs(first, second)), 1)


if __name__ == "__main__":
    unittest.main()
