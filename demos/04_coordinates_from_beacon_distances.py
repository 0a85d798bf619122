#!/usr/bin/env python3
"""Coordinate regression from distances to three reference beacons.

The synthetic walk knows its own geometry: waypoints in centimeters,
distances in meters plus Gaussian noise.  Two independent forests (one
per axis) regress position from the three distances; errors are judged
by per-axis RMSE and their quadrature sum, the horizontal error.
"""

from locbench.data import DEFAULT_BEACONS, synthetic_walk_dataset
from locbench.pipelines import run_coords

dataset = synthetic_walk_dataset(rows=250, noise_sigma=0.05, seed=42)
print(f"{len(dataset)} samples along a random walk; beacons at {DEFAULT_BEACONS} cm")
print("distance noise: 0.05 m per reading\n")

result = run_coords(dataset)  # 70/30 split, forest with 100 trees, depth 10
report = result.report

print(f"test rows: {report.n}")
print(f"rmse_x            {report.rmse_x:7.2f} cm")
print(f"rmse_y            {report.rmse_y:7.2f} cm")
print(f"horizontal error  {report.horizontal_error:7.2f} cm\n")

print("feature importance (normalized impurity decrease):")
print(f"  x-coordinate model: "
      + "  ".join(f"{k}={v:.3f}" for k, v in result.importance_x.weights.items()))
print(f"  y-coordinate model: "
      + "  ".join(f"{k}={v:.3f}" for k, v in result.importance_y.weights.items()))
print("  (beacon A sits nearest the walk centroid on its center line, so")
print("   distance_a dominates the x-coordinate model)\n")

print("first five x-coordinate prediction rows:")
print("  row   actual  predicted   dist_a  dist_b  dist_c")
rows = zip(result.actual[:5, 0], result.predicted[:5, 0], result.distances[:5])
for row_no, (actual, predicted, (a, b, c)) in enumerate(rows, start=1):
    print(f"  {row_no:3d}  {actual:7.1f}  {predicted:9.2f}  {a:6.3f}  {b:6.3f}  {c:6.3f}")
