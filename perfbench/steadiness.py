"""Check that the benchmark repeats within its own bounds.

    python3 perfbench/steadiness.py

Runs ``perfbench/run.py --trace 0`` ten times on every workload of
BENCHMARK.json in each of two sets, each run with its own seed (workloads
interleaved, so a slow spell of the machine is shared between them).  For
every end-to-end metric it reports the median and the spread of each set,
the spread being the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It
fails when a spread other than ``setup_s``'s exceeds the metric's bound,
when the second set's median is worse than the first set's by more than
the bound (``setup_s`` included), or when the share of failed operations
differs between sets.

``setup_s``'s spread is reported but not held to its bound: it is a
0.2 s figure whose run-to-run spread on a shared 2-vCPU machine (0.09 to
0.27 measured) comes from the machine's CPU speed drifting over minutes,
which no number of launches within one run averages out (see README.md).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def verdicts(sets: list[dict], spec: dict) -> list[str]:
    """Problems found in the sets; each set maps workload -> metric -> values,
    plus ``"_failed_share"`` per workload."""
    problems = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            medians = []
            for number, values in enumerate(s[workload][name] for s in sets):
                medians.append(statistics.median(values))
                if name != "setup_s" and spread(values) > bound:
                    problems.append(f"{workload} {name}: set {number + 1} spread {spread(values):.3f} > bound {bound}")
            for number, median in enumerate(medians[1:], start=2):
                if worse_by(medians[0], median, metric["better"]) > bound:
                    problems.append(f"{workload} {name}: set {number} median {median:.4g} vs {medians[0]:.4g} exceeds bound {bound}")
    for workload in sets[0]:
        shares = {s[workload]["_failed_share"] for s in sets}
        if len(shares) > 1:
            problems.append(f"{workload}: failed share differs between sets: {sorted(shares)}")
    return problems


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]

    all_correct = True
    sets = []
    for set_no in range(SETS):
        collected = {w: {n: [] for n in names} | {"_attempted": 0, "_failed": 0} for w in workloads}
        for run in range(RUNS):
            for workload in workloads:
                seed = 1000 * (set_no + 1) + run
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    all_correct = False
                    print(f"{workload} seed {seed}: output checks failed", file=sys.stderr)
                for n in names:
                    collected[workload][n].append(result["metrics"][n]["value"])
                collected[workload]["_attempted"] += result["attempted"]
                collected[workload]["_failed"] += result["failed"]
                print(f"set {set_no + 1} {workload} seed {seed}: "
                      + " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in names), flush=True)
        for values in collected.values():
            values["_failed_share"] = values["_failed"] / values["_attempted"]
        sets.append(collected)

    print(f"\n{'workload':18} {'metric':12} {'bound':>6} " + " ".join(f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8}" for i in range(SETS)))
    for metric in spec["end_to_end"]:
        for workload in workloads:
            cells = " ".join(
                f"{statistics.median(s[workload][metric['name']]):10.4g} {spread(s[workload][metric['name']]):8.3f}"
                for s in sets
            )
            print(f"{workload:18} {metric['name']:12} {metric['bound']:6.2f} {cells}")
    problems = verdicts(sets, spec) if all_correct else ["some runs failed their output checks"]
    for problem in problems:
        print(f"FAIL {problem}")
    print("steady" if not problems else "not steady")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
