"""One measured process: a cold CLI call, then a warm call in-process.

Usage (from run.py): python3 perfbench/child.py SPEC.json SPAWNED_AT

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process; the monotonic clock is system-wide on Linux.  ``setup_s``
is the time until ``timelens.cli`` is imported (interpreter start plus
import, the cost of ``timelens --version``).  The first call into
``timelens.cli.main`` is the cold call: ``wall_s`` runs from the start of
the process to its end, as a CLI user waits, and the peak RSS is read
right after it.  The warm call after it gives ``run_s``, with import and
first-call costs removed; in trace mode a traced call follows the warm
one.
Every call is checked: exit code, the workload's output check, and byte
identity of its CSV and SVG files with the cold call's.
"""

from __future__ import annotations

import sys
import time

SPAWNED_AT = float(sys.argv[2])

import timelens.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, layer_metrics  # noqa: E402
from workloads import WORKLOADS, differing_outputs  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def array_sizes(spans) -> dict:
    """Distinct argument shapes seen by the traced grid and fit calls."""
    sizes: dict = {}
    for s in spans:
        shape = s.counts.get("shape")
        if shape is not None:
            sizes.setdefault(s.name, set()).add(tuple(shape))
    return {name: sorted(shapes) for name, shapes in sizes.items()}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]]
    inputs, out = Path(spec["inputs"]), Path(spec["out"])
    result = {"attempted": 0, "failed": 0, "problems": [],
              "setup_s": IMPORTED_AT - SPAWNED_AT}

    def call(tag: str, recorder: Recorder | None = None) -> tuple[float, float]:
        target = out / tag
        shutil.rmtree(target, ignore_errors=True)
        argv = workload.argv(inputs, target, spec["seed"])
        stdout, stderr = io.StringIO(), io.StringIO()
        tracing = recorder.installed() if recorder else nullcontext()
        with redirect_stdout(stdout), redirect_stderr(stderr), tracing:
            start = time.monotonic()
            code = cli.main(argv)
            end = time.monotonic()
        if code != 0:
            problems = [f"exit code {code}: {stderr.getvalue().strip()}"]
        else:
            problems = workload.check(inputs, target, stdout.getvalue())
            if tag != "cold":
                problems += differing_outputs(out / "cold", target)
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["problems"] += [f"{tag} call: {p}" for p in problems]
        return start, end

    _, end = call("cold")
    result["wall_s"] = end - SPAWNED_AT
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start, end = call("warm")
    result["run_s"] = end - start
    if spec["trace"]:
        recorder = Recorder(run=f"{spec['workload']}-{spec['seed']}")
        start, end = call("traced", recorder)
        recorder.dump(spec["spans"])
        overhead = (end - start) / result["run_s"] - 1.0
        result["layer"] = layer_metrics(recorder.spans, overhead)
        result["array_sizes"] = array_sizes(recorder.spans)

    result["env"] = environment()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
