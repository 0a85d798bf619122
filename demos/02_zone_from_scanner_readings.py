#!/usr/bin/env python3
"""Zone detection from scanner readings: the rule and the learned model.

Each row carries one reading per zone; -120 means that zone's scanner did
not see the wearable beacon.  A reading above -120 already localizes the
person, so the rule-based inference and a k-NN classifier trained on the
same data should rarely disagree.
"""

from locbench.data import ZONES, synthetic_rssi_dataset
from locbench.pipelines import run_zone_rssi, zone_from_rssi_rule
from locbench.render import confusion_markdown

dataset = synthetic_rssi_dataset(rows=400, seed=7)
print(f"{len(dataset)} synthetic scanner rows, one visible zone per row\n")

print("rule-based inference on the first five rows:")
for readings, zone in zip(dataset.values[:5], dataset.zones[:5]):
    shown = "  ".join(f"{z}:{v:6.1f}" for z, v in zip(ZONES, readings))
    print(f"  {shown}  ->  {zone_from_rssi_rule(readings)}  (truth: {ZONES[zone]})")
print()

# Stratified 80/20 split, standardized features, k-NN with k=5.
result = run_zone_rssi(dataset)
report = result.report

print(f"k-NN pipeline on {report.matrix.total} held-out rows:")
print(confusion_markdown(report))

print("first five prediction rows with per-zone confidences:")
rows = zip(result.actual[:5], result.predicted[:5], result.confidence[:5])
for row_no, (actual, predicted, scores) in enumerate(rows, start=1):
    conf = "  ".join(f"{z}={v:.3f}" for z, v in zip(ZONES, scores))
    print(f"  #{row_no}: truth={ZONES[actual]:8s} predicted={ZONES[predicted]:8s} {conf}")

# Apply the rule to the very rows the learner was tested on.
rule_on_test = [zone_from_rssi_rule(dataset.values[i]) for i in result.test_idx]
agree = sum(1 for rule, pred in zip(rule_on_test, result.predicted) if rule == ZONES[pred])
print(f"\nrule vs learned agreement on the test rows: {agree}/{len(result.predicted)}")
