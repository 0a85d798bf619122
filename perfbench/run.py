"""The locbench benchmark: four CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The command generates the
workload's inputs from ``--seed``, times ``locbench.cli.run_cli(argv)`` on
them in a fresh worker process (the argv a user would type), checks the
reports the program wrote against computations made apart from it, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` they are the per-layer
ones from wrapped module functions (see spans.py).  ``attempted`` counts
CLI invocations, warm-up included; ``failed`` counts those that exited
non-zero.  The exit code is 0 when the run completed, even if a check
failed (``correct`` says so), and 2 when the program is missing or the
worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import checks
import gen
from spans import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: Fresh interpreters timed per run for the set-up, half before the worker
#: and half after it, so that their median spans the run rather than one
#: slow or fast spell of the machine.  One more untimed launch comes first
#: (it may compile bytecode).
SETUP_LAUNCHES = 16
WORKER_TIMEOUT_S = 150.0

_SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import locbench.cli\n"
    "locbench.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable  # (seed, csv path) -> generator ground truth
    argv: Callable  # (csv path, out dir) -> locbench argv
    check: Callable  # (ground truth, out dir, stdout text) -> failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zone-imu-forest",
            lambda seed, path: gen.imu_rows(2000, seed, path),
            lambda data, out: ["zone-imu", "--data", data, "--out-dir", out],
            lambda inp, out, text: checks.check_zone_imu(inp, out),
        ),
        Workload(
            "compare-families",
            lambda seed, path: gen.beacon_walk(250, seed, path),
            lambda data, out: ["compare", "--data", data, "--out-dir", out],
            lambda inp, out, text: checks.check_compare(inp, out),
        ),
        Workload(
            "zone-rssi-knn",
            lambda seed, path: gen.rssi_rows(10000, seed, path),
            lambda data, out: ["zone-rssi", "--data", data, "--out-dir", out],
            lambda inp, out, text: checks.check_zone_rssi(inp, out),
        ),
        Workload(
            "coords-ingest",
            lambda seed, path: gen.beacon_walk(100_000, seed, path),
            lambda data, out: ["coords", "--data", data, "--model", "linear_regression", "--out-dir", out],
            checks.check_coords,
        ),
    )
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_setup(env, launches: int) -> list[float]:
    """In-interpreter times of fresh interpreters importing locbench.cli and building the parser."""
    times = []
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_worker(argv, seconds, trace, work, env) -> dict:
    result_path = os.path.join(work, "worker.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--result",
        result_path,
        "--stdout",
        os.path.join(work, "stdout.txt"),
        "--",
        *argv,
    ]
    subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S, check=True)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(worker: dict) -> dict:
    """Per-layer medians over the traced invocations, plus the trace's own cost."""
    layers = worker["layers"]
    out = {}
    for name, unit in LAYER_METRICS.items():
        median = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
        out[name] = _metric(median(m[name] for m in layers), unit)
    traced = statistics.median(worker["traced_walls"])
    coverage = statistics.median(m["trace.covered_s"] / w for m, w in zip(layers, worker["traced_walls"]))
    out["trace.wall_s"] = _metric(traced, "s")
    out["trace.overhead_s"] = _metric(traced - statistics.median(worker["walls"]), "s")
    out["trace.coverage"] = _metric(coverage, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "locbench", "cli.py")):
        print(f"error: no locbench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    env = _child_env()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        data = os.path.join(work, "input.csv")
        out_dir = os.path.join(work, "out")
        truth = workload.make_input(args.seed, data)
        if not args.trace:
            time_setup(env, 1)
            setup_times = time_setup(env, SETUP_LAUNCHES // 2)
        worker = run_worker(workload.argv(data, out_dir), args.seconds, args.trace, work, env)
        if not args.trace:
            setup_times += time_setup(env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        failed = sum(1 for code in worker["codes"] if code != 0)
        problems = [] if worker["identical_outputs"] else ["repeated invocations wrote different reports"]
        if failed == 0:
            with open(os.path.join(work, "stdout.txt"), encoding="utf-8") as handle:
                stdout_text = handle.read()
            try:
                problems += workload.check(truth, out_dir, stdout_text)
            except Exception:  # a malformed report is a failed check, not a crash
                problems.append(traceback.format_exc(limit=3))
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if args.trace:
            metrics = layer_metrics(worker)
        else:
            metrics = {
                "wall_s": _metric(statistics.median(worker["walls"]), "s"),
                "peak_rss_mb": _metric(worker["peak_rss_mb"], "MiB"),
                "setup_s": _metric(statistics.median(setup_times), "s"),
            }
        result = {
            "correct": not problems,
            "attempted": len(worker["codes"]),
            "failed": failed,
            "metrics": metrics,
        }
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
