"""Benchmark of the timelens command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is used from ``src/`` as it stands; nothing is installed.
Inputs are generated from the seed (see workloads.py).  This process
runs one child process at a time, and each child runs BLAS on one
thread (``BLAS_THREADS``): on a small shared machine two busy-waiting
BLAS threads make every small fit and matmul time the scheduler.

--trace 0 measures the end-to-end metrics:

* setup_s: median time from starting a child to ``timelens.cli`` being
  imported (interpreter start plus import, the ``--version`` path);
* wall_s: median wall time of the cold call in a fresh child, from the
  moment it is started to the end of the CLI call (import included);
* run_s: median time of ``timelens.cli.main(argv)`` called again in the
  same child after the cold call, with tracing off;
* peak_rss_mb: median peak RSS of the children right after the cold call.

Children are started one after another (at least two) while the next
one, taking as long as the slowest so far, still ends within
``--seconds``; each makes one cold call and one warm call.  Timings
vary more from one process to the next than between calls in one
process, so many short children steady the medians more than repeated
calls do.

--trace 1 makes one child that runs a cold call, an untraced repeated
call and a traced call, and reports the per-layer metrics of the traced
call (spans.py); ``trace.overhead_frac`` compares it with the untraced one.

Every CLI call counts as an attempted invocation; it fails when it exits
non-zero or fails its output check.  A summary with sample counts and
``failed_frac`` goes to stdout, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans,
samples and the environment are kept in ``.perfbench_work/``; the large
CLI outputs are deleted after each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
MIN_CHILDREN = 2
RUN_LIMIT_S = 175.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def cache_sizes() -> dict:
    try:
        text = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes


def run_child(spec: dict, env: dict, timeout: float) -> dict:
    """Start one child, wait for it and return its result (or a failure)."""
    spec_path = Path(spec["result"]).with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(spec_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(spawned)], env=env, stdout=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": [f"child exceeded {timeout:.0f} s"]}
    if proc.returncode != 0 or not result_path.exists():
        return {"attempted": 1, "failed": 1, "problems": [f"child exited with {proc.returncode}"]}
    return json.loads(result_path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "timelens" / "cli.py").is_file():
        print(
            "perfbench: src/timelens/cli.py not found; run from the root of a timelens checkout",
            file=sys.stderr,
        )
        return 2
    began = time.monotonic()

    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    workload = WORKLOADS[args.workload]
    workload.make_inputs(args.seed, inputs)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update(BLAS_THREADS)

    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + args.seconds
    children, durations = [], []
    while True:
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": str(inputs),
            "out": str(out),
            "trace": bool(args.trace),
            "result": str(work / f"child{len(children)}.json"),
            "spans": str(work / "spans.json"),
        }
        started = time.monotonic()
        child = run_child(spec, env, RUN_LIMIT_S - (started - began))
        durations.append(time.monotonic() - started)
        children.append(child)
        attempted += child["attempted"]
        failed += child["failed"]
        problems += child["problems"]
        if args.trace or child["failed"]:
            break
        if len(children) >= MIN_CHILDREN and time.monotonic() + max(durations) > deadline:
            break
    shutil.rmtree(out, ignore_errors=True)

    measured = [c for c in children if "wall_s" in c]
    correct = failed == 0 and len(measured) == len(children)
    if args.trace:
        layer = measured[0]["layer"] if measured else {}
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in layer.items()}
        samples = {name: 1 for name in layer}
    else:
        values = {
            "setup_s": [c["setup_s"] for c in measured],
            "wall_s": [c["wall_s"] for c in measured],
            "run_s": [c["run_s"] for c in measured],
            "peak_rss_mb": [c["peak_rss_mb"] for c in measured],
        }
        metrics = {
            name: {"value": statistics.median(v), "unit": END_TO_END_UNITS[name]}
            for name, v in values.items()
            if v
        }
        samples = {name: len(v) for name, v in values.items()}

    env_record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        **(measured[0]["env"] if measured else {}),
        "array_sizes": measured[0].get("array_sizes") if measured else None,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": metrics,
        "samples": samples,
        "children": children,
        "problems": problems,
        "env": env_record,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {workload.why}")
    for name, metric in metrics.items():
        value, unit_ = metric["value"], metric["unit"]
        print(f"  {name:<44} {value:>14.6g} {unit_:<6} (samples: {samples[name]})")
    frac = failed / max(attempted, 1)
    print(f"  {'failed_frac':<44} {frac:>14.6g} ratio  ({failed} of {attempted} invocations)")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    print("env " + json.dumps(env_record, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
