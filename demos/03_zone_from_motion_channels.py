#!/usr/bin/env python3
"""Zone detection from accelerometer/gyroscope channels.

No scanner infrastructure here: the six motion channels alone carry the
zone signal, because activity patterns differ between zones (sleeping in
the bedroom moves differently from cooking in the kitchen).  A random
forest on the raw channels is the default; an optional window setting
aggregates consecutive samples into mean+std features instead.
"""

from locbench.data import ZONES, synthetic_imu_dataset
from locbench.pipelines import default_zone_imu_config, run_zone_imu
from locbench.render import confusion_markdown

dataset = synthetic_imu_dataset(rows=400, seed=11)
print(f"{len(dataset)} synthetic motion rows in zone-dwelling runs")
tags = sorted(set(dataset.activities))
print(f"activity tags carried through (never used as features): {tags}\n")

print("=== per-sample features (default) ===")
result = run_zone_imu(dataset)
print(confusion_markdown(result.report))

print("=== windowed features (5 samples -> mean+std per channel) ===")
windowed = run_zone_imu(dataset, default_zone_imu_config(seed=42, window=5))
print(confusion_markdown(windowed.report))

print("first five per-sample predictions:")
rows = zip(result.actual[:5], result.predicted[:5], result.confidence[:5])
for row_no, (actual, predicted, scores) in enumerate(rows, start=1):
    conf = "  ".join(f"{z}={v:.3f}" for z, v in zip(ZONES, scores))
    print(f"  #{row_no}: truth={ZONES[actual]:8s} predicted={ZONES[predicted]:8s} {conf}")
