"""Seeded input generators for the benchmark workloads.

These are written apart from ``locbench.data``'s synthetic generators on
purpose: a change to the program's generators must not change what the
benchmark feeds it.  Each generator returns the arrays it wrote (the
ground truth the output checks need) and writes a CSV in the program's
schema.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

ZONES = ("bedroom", "kitchen", "office", "toilet")
ACTIVITIES = ("sleeping", "cooking", "working", "washing")
OUT_OF_RANGE = -120.0

#: Per-zone mean of the six motion channels (acc x/y/z, gyro x/y/z).
#: With isotropic Gaussian noise and equal zone priors, the nearest
#: signature is the Bayes rule for these rows.
IMU_SIGNATURES = np.array(
    [
        [0.0, 0.1, 1.0, 0.1, 0.0, 0.2],
        [1.1, 0.5, 0.8, 1.4, 0.9, 0.5],
        [0.3, 1.2, 0.9, 0.4, 1.1, 0.1],
        [0.9, 0.8, 0.2, 0.6, 0.3, 1.2],
    ]
)
IMU_NOISE = 0.45
IMU_DWELL = (8, 26)  # run lengths in [8, 26) rows

#: Beacon layout (cm) and walk area (cm) of the beacon-distance inputs.
BEACONS = np.array([[60.0, 190.0], [210.0, 340.0], [390.0, 30.0]])
WALK_LOW = np.array([40.0, 70.0])
WALK_HIGH = np.array([360.0, 290.0])
DISTANCE_NOISE_M = 0.05
WALK_STEP_CM = 30.0  # per-axis step spread: a few hundred rows cover the area


def _fmt(value: float) -> str:
    return repr(float(value))


@dataclass(frozen=True)
class ImuInput:
    channels: np.ndarray  # (n, 6)
    labels: np.ndarray  # (n,) zone indices


@dataclass(frozen=True)
class RssiInput:
    readings: np.ndarray  # (n, 4), -120 where the scanner does not see the beacon
    labels: np.ndarray  # (n,) zone indices


@dataclass(frozen=True)
class BeaconInput:
    positions: np.ndarray  # (n, 2) cm
    distances: np.ndarray  # (n, 3) m
    times: tuple[str, ...]  # unique per row
    zero_rows: int  # rows holding a distance of exactly 0.0


def imu_rows(rows: int, seed: int, path) -> ImuInput:
    """Motion rows in dwell runs of 8-25 samples around a zone signature."""
    rng = np.random.default_rng([seed, 11])
    labels = np.empty(rows, dtype=int)
    filled = 0
    while filled < rows:
        zone = int(rng.integers(0, len(ZONES)))
        dwell = min(int(rng.integers(*IMU_DWELL)), rows - filled)
        labels[filled : filled + dwell] = zone
        filled += dwell
    channels = IMU_SIGNATURES[labels] + rng.normal(0.0, IMU_NOISE, size=(rows, 6))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z", "location", "activity"])
        for values, zone in zip(channels.tolist(), labels.tolist()):
            writer.writerow([_fmt(v) for v in values] + [ZONES[zone], ACTIVITIES[zone]])
    return ImuInput(channels=channels, labels=labels)


def rssi_rows(rows: int, seed: int, path) -> RssiInput:
    """Scanner rows where exactly one scanner, the label's, sees the beacon."""
    rng = np.random.default_rng([seed, 12])
    labels = rng.integers(0, len(ZONES), size=rows)
    readings = np.full((rows, len(ZONES)), OUT_OF_RANGE)
    readings[np.arange(rows), labels] = np.round(rng.uniform(-95.0, -35.0, size=rows), 1)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"RSSI {z.capitalize()}" for z in ZONES] + ["Location"])
        for values, zone in zip(readings.tolist(), labels.tolist()):
            writer.writerow([_fmt(v) for v in values] + [ZONES[zone]])
    return RssiInput(readings=readings, labels=labels)


def beacon_walk(rows: int, seed: int, path) -> BeaconInput:
    """A random walk with noisy beacon distances and some zero readings.

    The walk moves by small Gaussian steps and reflects off the walk area.
    A seed-chosen number of rows (at least one) get exactly one distance
    replaced by 0.0, as real recordings sometimes have; the count is
    returned so the ingest note can be checked against it.
    """
    rng = np.random.default_rng([seed, 13])
    steps = rng.normal(0.0, WALK_STEP_CM, size=(rows, 2))
    span = WALK_HIGH - WALK_LOW
    raw = np.cumsum(steps, axis=0) + rng.uniform(0.0, 1.0, size=2) * span
    folded = np.mod(raw, 2.0 * span)
    positions = WALK_LOW + np.where(folded > span, 2.0 * span - folded, folded)
    positions = np.round(positions, 1)
    distances = np.linalg.norm(positions[:, None, :] - BEACONS[None, :, :], axis=2) / 100.0
    distances = np.maximum(distances + rng.normal(0.0, DISTANCE_NOISE_M, size=distances.shape), 1e-3)
    distances = np.round(distances, 4)
    zero_rows = max(1, rows // 500 + int(rng.integers(0, 1 + rows // 1000)))
    chosen = rng.choice(rows, size=zero_rows, replace=False)
    distances[chosen, rng.integers(0, 3, size=zero_rows)] = 0.0
    times = tuple(f"t{i:07d}" for i in range(rows))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Position X", "Position Y", "Distance A", "Distance B", "Distance C", "Time"])
        for pos, dist, stamp in zip(positions.tolist(), distances.tolist(), times):
            writer.writerow([_fmt(v) for v in pos] + [_fmt(v) for v in dist] + [stamp])
    return BeaconInput(positions=positions, distances=distances, times=times, zero_rows=zero_rows)
