"""Run one workload's CLI invocations in a fresh process and time them.

Usage (run.py starts this; the process runs the workload and nothing else,
so its peak RSS is the workload's):

    python3 perfbench/worker.py --seconds S --trace 0|1 --result R.json \
        --stdout OUT.txt -- <locbench argv...>

One untimed warm-up invocation comes first.  Then invocations repeat until
``--seconds`` have passed (at least MIN_REPS of them).  With ``--trace 1``
the timed invocations alternate untraced and traced, so the tracing
overhead is measured in the same process.  Each invocation's stdout goes
to ``--stdout`` (the last one is kept for the output checks), and the
report files are hashed after each invocation, outside the timed region,
to confirm that every repetition wrote the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

MIN_REPS = 3


def _out_dir(argv: list[str]) -> str:
    return argv[argv.index("--out-dir") + 1]


def _digest(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--stdout", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from locbench.cli import run_cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    def invoke(traced: bool):
        with open(args.stdout, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            if traced:
                tracer.install()
                try:
                    return tracer.run(run_cli, list(argv))
                finally:
                    tracer.uninstall()
            start = time.perf_counter()
            code = run_cli(list(argv))
            return code, time.perf_counter() - start, None

    codes = []
    code, _, _ = invoke(traced=False)  # warm-up
    codes.append(code)
    reference = _digest(_out_dir(argv)) if code == 0 else {}
    identical = True
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        code, wall, metrics = invoke(traced)
        codes.append(code)
        if traced:
            traced_walls.append(wall)
            layers.append(metrics)
        else:
            walls.append(wall)
        identical = identical and code == 0 and _digest(_out_dir(argv)) == reference
        elapsed = time.perf_counter() - began
        reps = len(walls) + len(traced_walls)
        typical = elapsed / reps
        if reps >= MIN_REPS and (tracer is None or traced) and elapsed + typical / 2 >= args.seconds:
            break

    result = {
        "codes": codes,
        "identical_outputs": identical,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["traced_walls"] = traced_walls
        result["layers"] = layers
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
