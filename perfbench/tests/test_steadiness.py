"""The two-set comparison holds each end-to-end metric to its bound."""

from __future__ import annotations

import json
import os

import pytest

import steadiness

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
}


def _set(wall, setup, failed_share=0.0):
    return {"w": {"wall_s": list(wall), "setup_s": list(setup), "_failed_share": failed_share}}


STEADY = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.03, 0.97, 1.0, 1.01]


def test_spread_is_interquartile_distance_over_median():
    assert steadiness.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


def test_steady_sets_pass():
    assert steadiness.verdicts([_set(STEADY, STEADY), _set(STEADY, STEADY)], SPEC) == []


def test_wide_spread_fails_except_for_setup():
    wide = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    problems = steadiness.verdicts([_set(wide, wide), _set(STEADY, STEADY)], SPEC)
    assert len(problems) == 1 and problems[0].startswith("w wall_s: set 1 spread")


def test_second_median_worse_than_bound_fails_and_better_passes():
    slower = [v * 1.3 for v in STEADY]
    faster = [v * 0.7 for v in STEADY]
    problems = steadiness.verdicts([_set(STEADY, STEADY), _set(slower, slower)], SPEC)
    assert [p.split(":")[0] for p in problems] == ["w wall_s", "w setup_s"]
    assert steadiness.verdicts([_set(STEADY, STEADY), _set(faster, faster)], SPEC) == []


def test_failed_share_must_match_exactly():
    problems = steadiness.verdicts([_set(STEADY, STEADY, 0.0), _set(STEADY, STEADY, 0.01)], SPEC)
    assert problems and "failed share" in problems[0]


def test_benchmark_json_matches_the_runner():
    import run
    from spans import LAYER_METRICS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert set(bounds) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert all(0 < b <= 0.25 for b in bounds.values())
    traced = {name: unit for name, unit in LAYER_METRICS.items()}
    traced.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.coverage": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
