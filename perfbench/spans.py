"""Per-layer tracing by wrapping the program's public functions from outside.

Nothing under ``src/`` changes: a :class:`Tracer` replaces each target
attribute with a timing wrapper while it is installed and puts the
original back afterwards.  Targets are patched where the name is looked
up at call time (the importing module's namespace, or the class for a
method), and a missing target raises instead of being skipped, so a
refactor that moves a function shows up as a broken benchmark rather
than as a silently empty metric.

Counts come from call arguments and return shapes only, never from the
internal layout of fitted models.  Per-row functions (``eval_tree``,
``prediction_from_scores``) are deliberately not wrapped: the wrapper
would cost more than the work it measured.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

# Counters: each takes (bound call arguments, return value, memory) and
# returns (counter name, amount) or None.  ``memory`` lives for one traced
# invocation, for counts that need a value seen at fit time.


def _parse_rows(args, result, memory):
    return "data.parse_rows", len(result)


def _forest_fit_rows(args, result, memory):
    return "learners.forest.fit_rows", len(args["X"]) * args["n_trees"]


def _forest_predict_rows(args, result, memory):
    return "learners.forest.predict_rows", len(result)


def _mlp_batch_steps(args, result, memory):
    return "learners.mlp.batch_steps", args["epochs"] * math.ceil(len(args["X"]) / args["batch_size"])


def _tree_fits(args, result, memory):
    return "learners.tree.fits", 1


def _knn_fit(args, result, memory):
    memory[id(result)] = (result, len(args["X"]))  # keep the model so its id stays unique


def _knn_cells(args, result, memory):
    return "learners.neighbors.distance_cells", len(args["X"]) * memory[id(args["self"])][1]


def _render_bytes(args, result, memory):
    return "render.bytes", len(args["text"].encode("utf-8"))


@dataclass(frozen=True)
class Target:
    module: str  # where the name is looked up at call time
    attr: str  # "name" or "Class.method"
    span: str | None  # layer name, or None for a count-only wrapper
    counter: Callable | None = None


def _targets() -> tuple[Target, ...]:
    out = []
    add = lambda module, attrs, span, counter=None: out.extend(
        Target(module, a, span, counter) for a in attrs
    )
    add("locbench.cli", ("parse_beacon_csv", "parse_imu_csv", "parse_rssi_csv"), "data.parse", _parse_rows)
    add("locbench.cli", ("run_coords", "run_zone_imu", "run_zone_rssi", "compare_models"), "pipelines")
    add("locbench.pipelines", ("build_beacon_features", "build_imu_features", "build_rssi_features"), "pipelines.features")
    add("locbench.pipelines", ("split_indices",), "data.split")
    add("locbench.pipelines", ("standardize",), "learners.standardize")
    add("locbench.pipelines", ("fit_regressor", "fit_classifier"), "learners.fit")
    add("locbench.pipelines", ("feature_importance",), "learners.forest.importance")
    add(
        "locbench.pipelines",
        ("classification_report", "confusion_matrix", "rank_models", "regression_report"),
        "evaluation",
    )
    add("locbench.learners", ("fit_forest",), "learners.forest.fit", _forest_fit_rows)
    add("locbench.learners", ("fit_gbt",), "learners.boosting.fit")
    add("locbench.learners", ("fit_mlp",), "learners.mlp.fit", _mlp_batch_steps)
    add("locbench.learners", ("fit_svr",), "learners.svr.fit")
    add("locbench.learners", ("fit_knn",), "learners.neighbors.fit", _knn_fit)
    add("locbench.learners", ("fit_ols",), "learners.linear.fit")
    # fit_tree is looked up in three places: the package (decision trees),
    # the tree module (the forest imports it lazily) and boosting.
    for module in ("locbench.learners", "locbench.learners.tree", "locbench.learners.boosting"):
        add(module, ("fit_tree",), None, _tree_fits)
    add(
        "locbench.learners",
        ("ForestModel.predict", "ForestModel.predict_confidence"),
        "learners.forest.predict",
        _forest_predict_rows,
    )
    add("locbench.learners", ("GbtModel.predict",), "learners.boosting.predict")
    add(
        "locbench.learners",
        ("KnnModel.predict", "KnnModel.predict_confidence"),
        "learners.neighbors.predict",
        _knn_cells,
    )
    add("locbench.learners", ("MlpModel.predict", "MlpModel.predict_confidence"), "learners.mlp.predict")
    add("locbench.learners", ("SvrModel.predict",), "learners.svr.predict")
    add("locbench.learners", ("LinearModel.predict",), "learners.linear.predict")
    add(
        "locbench.render",
        (
            "to_json",
            "zone_report_payload",
            "zone_predictions_csv",
            "confusion_markdown",
            "coords_report_payload",
            "coord_predictions_csv",
            "comparison_csv",
            "comparison_markdown",
            "comparison_report_payload",
        ),
        "render",
    )
    add("locbench.render", ("write_atomic",), "render.write", _render_bytes)
    return tuple(out)


TARGETS = _targets()

#: The per-layer metrics a traced invocation reports, with units.  A time
#: is the inclusive time of the layer's outermost spans; a ``.self_s`` time
#: is the layer's spans minus the traced calls made inside them.
LAYER_METRICS = {
    "data.parse_s": "s",
    "data.parse_rows": "count",
    "data.split_s": "s",
    "pipelines.features_s": "s",
    "pipelines.self_s": "s",
    "learners.fit_s": "s",
    "learners.standardize_s": "s",
    "learners.forest.fit_s": "s",
    "learners.forest.fit_rows": "count",
    "learners.forest.predict_s": "s",
    "learners.forest.predict_rows": "count",
    "learners.forest.importance_s": "s",
    "learners.tree.fits": "count",
    "learners.mlp.fit_s": "s",
    "learners.mlp.predict_s": "s",
    "learners.mlp.batch_steps": "count",
    "learners.boosting.fit_s": "s",
    "learners.boosting.predict_s": "s",
    "learners.svr.fit_s": "s",
    "learners.svr.predict_s": "s",
    "learners.linear.fit_s": "s",
    "learners.linear.predict_s": "s",
    "learners.neighbors.predict_s": "s",
    "learners.neighbors.distance_cells": "count",
    "evaluation.s": "s",
    "render.s": "s",
    "render.write_s": "s",
    "render.bytes": "bytes",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
}


def _resolve(target: Target):
    """(owner object, attribute name, current value); raises if missing."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"trace target {target.module}.{target.attr}: {part} not found")
    value = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(value):
        raise LookupError(f"trace target {target.module}.{target.attr} not found")
    return owner, name, value


class Tracer:
    """Wraps the targets, times nested spans, and sums them per layer."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []
        self._memory: dict = {}
        self.reset()

    def reset(self) -> None:
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._children: list[float] = []  # per open span: time inside its traced calls
        self._open: dict[str, int] = {}
        self._memory.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        resolved = [(t, *_resolve(t)) for t in self.targets]
        for target, owner, name, original in resolved:
            setattr(owner, name, self._wrap(target, original))
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, target: Target, original):
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            if target.span is None:
                result = original(*args, **kwargs)
            else:
                result = tracer.call(target.span, original, *args, **kwargs)
            if target.counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counted = target.counter(bound.arguments, result, tracer._memory)
                if counted is not None:
                    key, amount = counted
                    tracer.counts[key] = tracer.counts.get(key, 0) + amount
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- spans -------------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        self._children.append(0.0)
        self._open[layer] = self._open.get(layer, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self._open[layer] -= 1
            if self._open[layer] == 0:  # outermost span of its layer
                self.inclusive[layer] = self.inclusive.get(layer, 0.0) + elapsed
            self.self_time[layer] = self.self_time.get(layer, 0.0) + elapsed - children
            if self._children:
                self._children[-1] += elapsed

    def run(self, fn, *args, **kwargs):
        """One traced invocation of ``fn`` under the top-level ``cli`` span.

        Returns (result, wall seconds, per-layer metrics).
        """
        self.reset()
        cpu0 = os.times()
        start = time.perf_counter()
        result = self.call("cli", fn, *args, **kwargs)
        wall = time.perf_counter() - start
        cpu1 = os.times()
        cpu = sum(cpu1[:4]) - sum(cpu0[:4])
        return result, wall, self.metrics(cpu)

    def metrics(self, cpu_s: float) -> dict[str, float]:
        out = {}
        for name, unit in LAYER_METRICS.items():
            if unit != "s":
                out[name] = self.counts.get(name, 0)
                continue
            layer = name[:-2].rstrip(".")  # "data.parse_s" -> "data.parse", "render.s" -> "render"
            if layer.endswith(".self"):
                out[name] = self.self_time.get(layer[: -len(".self")], 0.0)
            else:
                out[name] = self.inclusive.get(layer, 0.0)
        out["cli.cpu_s"] = cpu_s
        out["trace.covered_s"] = self.inclusive.get("cli", 0.0) - self.self_time.get("cli", 0.0)
        return out
