"""The stratified split and the motion windows against their per-row loops.

``tests/reference_data.py`` keeps the loops that grouped rows by class
and cut windows row by row.  The array versions in ``locbench`` must give
the same bytes: the same train and test indices, and the same window
features and labels.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_data as ref
from locbench.data import ZONES, Dataset, SplitConfig, ValidationError, split_indices
from locbench.pipelines import build_imu_features

#: Runs of one zone: (zone index, run length).  Neighbouring runs may share a zone.
label_runs = st.lists(
    st.tuples(st.integers(0, len(ZONES) - 1), st.integers(1, 30)), min_size=1, max_size=40
)
ratios = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def zones_of(runs):
    return np.repeat([zone for zone, _ in runs], [length for _, length in runs])


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(runs=label_runs, seed=seeds, scale=st.sampled_from([1e-3, 1.0, 1e4]), data=st.data())
def test_windows_match_the_loop(runs, seed, scale, data):
    zones = zones_of(runs)
    channels = np.random.default_rng(seed).normal(0.5, 1.0, size=(len(zones), 6)) * scale
    window = data.draw(st.integers(1, max(length for _, length in runs) + 2), label="window")
    dataset = Dataset("imu", channels, zones=zones)
    try:
        want = ref.imu_windows(dataset.values, dataset.zones, window)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{exc}$"):
            build_imu_features(dataset, window=window)
        return
    features, labels = build_imu_features(dataset, window=window)
    assert_same_bytes(features, want[0])
    assert_same_bytes(labels, want[1])


@settings(max_examples=200, deadline=None)
@given(runs=label_runs, ratio=ratios, seed=seeds, stratified=st.booleans())
@example(runs=[(0, 5), (1, 5), (2, 5), (3, 5)], ratio=0.5, seed=1, stratified=True)  # tied top-ups
# Each class's floor is 1 row, the total's 1 row: the floors overshoot and one is trimmed.
@example(runs=[(0, 1), (1, 1)], ratio=0.9999999994, seed=1, stratified=True)
def test_split_matches_the_loop(runs, ratio, seed, stratified):
    zones = zones_of(runs)
    names = [ZONES[i] for i in zones]
    config = SplitConfig(train_ratio=ratio, seed=seed, stratified=stratified)
    want = ref.split_indices(len(zones), config, names)
    for labels in (zones, names):
        got = split_indices(len(zones), config, labels)
        for side, expected in zip(got, want):
            assert_same_bytes(side, expected)
    # The sizes, independently of the reference.
    floor = lambda n: math.floor(ratio * n + 1e-9)
    train = zones[got[0]]
    assert len(train) == floor(len(zones))
    if stratified:
        for zone, size in zip(*np.unique(zones, return_counts=True)):
            assert abs(np.count_nonzero(train == zone) - floor(size)) <= 1


@settings(max_examples=100, deadline=None)
@given(
    zones=st.lists(st.integers(0, len(ZONES) - 1), min_size=1, max_size=200),
    ratio=ratios,
    seed=seeds,
)
def test_zone_names_and_indices_give_one_partition(zones, ratio, seed):
    config = SplitConfig(train_ratio=ratio, seed=seed, stratified=True)
    by_index = split_indices(len(zones), config, np.array(zones))
    by_name = split_indices(len(zones), config, [ZONES[i] for i in zones])
    for a, b in zip(by_index, by_name):
        assert_same_bytes(a, b)
