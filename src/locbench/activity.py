"""Weighted complex-activity models and activity-based zone mapping.

A complex activity (e.g. preparing breakfast) decomposes into atomic
actions, each acting on a context attribute, with a weight per element.
The highest-weight elements are the activity's core set; completion
requires every core element plus a weighted coverage above the model's
threshold.  Zone mapping pairs each activity with one distinct label,
partitioning a space into non-overlapping activity-based zones.

Element indices are 1-based throughout, matching the element numbering
that model files use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .data import ParseError, ValidationError

WEIGHT_SUM_TOL = 1e-6
COMPLETION_TOL = 1e-9


@dataclass(frozen=True)
class WeightedElement:
    """A named element with a relevance weight in (0, 1]."""

    name: str
    weight: float


@dataclass(frozen=True)
class ComplexActivityModel:
    """A complex activity as index-aligned atomic/context element pairs.

    ``atomic[i]`` acts on ``context[i]``; the core/start/end index sets
    refer to positions 1..n in both sequences at once.  ``threshold`` is
    the weighted-coverage fraction required for completion.
    """

    name: str
    atomic: tuple[WeightedElement, ...]
    context: tuple[WeightedElement, ...]
    core_indices: frozenset[int]
    start_indices: frozenset[int]
    end_indices: frozenset[int]
    threshold: float

    @property
    def size(self) -> int:
        return len(self.atomic)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of model validation; ``failures`` lists every violation."""

    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ZoneMap:
    """Activity name -> zone label pairs; labels are pairwise distinct."""

    entries: tuple[tuple[str, str], ...]


def _weight_sum(elements: Sequence[WeightedElement]) -> float:
    """The exact sum of the weights, or NaN (which fails every check) if it is not finite."""
    try:
        total = math.fsum(e.weight for e in elements)
    except (ValueError, OverflowError):  # inf + -inf, or an intermediate overflow
        return math.nan
    return total if math.isfinite(total) else math.nan


def validate_activity_model(model: ComplexActivityModel) -> ValidationResult:
    """Check every structural invariant, collecting all violations."""
    failures: list[str] = []

    if len(model.atomic) != len(model.context):
        failures.append(
            f"element count mismatch: {len(model.atomic)} atomic vs {len(model.context)} context"
        )
    if not model.atomic:
        failures.append("model has no elements")

    for kind, elements in (("atomic", model.atomic), ("context", model.context)):
        for pos, element in enumerate(elements, start=1):
            if not (math.isfinite(element.weight) and 0.0 < element.weight <= 1.0):
                failures.append(f"{kind} element {pos} weight {element.weight} outside (0, 1]")
        total = _weight_sum(elements)
        if elements and abs(total - 1.0) > WEIGHT_SUM_TOL:
            failures.append(f"{kind} weight sum {total:.6f} differs from 1")

    n = len(model.atomic)
    valid = range(1, n + 1)
    for label, indices in (
        ("core", model.core_indices),
        ("start", model.start_indices),
        ("end", model.end_indices),
    ):
        out = sorted(i for i in indices if i not in valid)
        if out:
            failures.append(f"{label} indices out of range: {out}")
    if not model.start_indices:
        failures.append("start index set is empty")
    if not model.end_indices:
        failures.append("end index set is empty")
    if not model.core_indices:
        failures.append("core index set is empty")

    if not (0.0 < model.threshold <= 1.0):
        failures.append(f"threshold {model.threshold} outside (0, 1]")
    total_weight = _weight_sum(model.atomic)
    if model.atomic and model.threshold > total_weight + WEIGHT_SUM_TOL:
        failures.append(f"threshold {model.threshold} exceeds total weight {total_weight:.6f}")

    # Core separation: every core element must outweigh every non-core one.
    # Ties across the boundary are rejected rather than broken arbitrarily.
    cores = {i for i in model.core_indices if i in valid}
    non_cores = set(valid) - cores
    if cores and non_cores and len(model.atomic) == n:
        min_core = min(model.atomic[i - 1].weight for i in cores)
        max_rest = max(model.atomic[i - 1].weight for i in non_cores)
        if min_core <= max_rest:
            failures.append(
                f"core separation violated: core weight {min_core} "
                f"does not exceed non-core weight {max_rest}"
            )

    return ValidationResult(failures=tuple(failures))


def _check_indices(model: ComplexActivityModel, observed: Iterable[int]) -> frozenset[int]:
    observed = frozenset(observed)
    bad = sorted(i for i in observed if not (1 <= i <= model.size))
    if bad:
        raise ValidationError(f"observed indices out of range 1..{model.size}: {bad}")
    return observed


def completion_score(model: ComplexActivityModel, observed: Iterable[int]) -> float:
    """Total atomic weight of the observed element indices."""
    observed = _check_indices(model, observed)
    return math.fsum(model.atomic[i - 1].weight for i in sorted(observed))


def is_complete(model: ComplexActivityModel, observed: Iterable[int]) -> bool:
    """True when all core elements were observed and coverage meets the threshold."""
    observed = _check_indices(model, observed)
    if not model.core_indices <= observed:
        return False
    return completion_score(model, observed) >= model.threshold - COMPLETION_TOL


def derive_zone_map(models: Sequence[ComplexActivityModel], zone_names: Sequence[str]) -> ZoneMap:
    """Pair each activity with a zone label, positionally."""
    if len(models) != len(zone_names):
        raise ValidationError(
            f"{len(models)} models cannot map onto {len(zone_names)} zone names"
        )
    seen: dict[str, str] = {}
    for model, zone in zip(models, zone_names):
        if zone in seen:
            raise ValidationError(
                f"zone label {zone!r} assigned to both {seen[zone]!r} and {model.name!r}; "
                "activity-based zones must not overlap"
            )
        seen[zone] = model.name
    return ZoneMap(entries=tuple((m.name, z) for m, z in zip(models, zone_names)))


# --------------------------------------------------------------------------
# Plain-text model files
# --------------------------------------------------------------------------
#
# One model per block, blocks separated by blank lines:
#
#   model: Preparing Breakfast
#   threshold: 0.73
#   1, Standing, 0.10, Lights on, 0.10, start
#   ...
#   6, Taking out bread, 0.18, Bread cool, 0.18, core|end
#
# Element lines are: index, atomic name, atomic weight, context name,
# context weight, flags.  Flags are |-separated tokens from
# {core, start, end}; "-" means no flags.  Lines starting with # are
# comments.


def parse_activity_models(text: str) -> list[ComplexActivityModel]:
    """Parse the plain-text model format; raises on malformed blocks."""
    models = []
    blocks: list[list[tuple[int, str]]] = [[]]
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((line_no, line))
    for block in blocks:
        if block:
            models.append(_parse_block(block))
    return models


def _parse_block(block: list[tuple[int, str]]) -> ComplexActivityModel:
    name = None
    threshold = None
    atomic: list[WeightedElement] = []
    context: list[WeightedElement] = []
    cores: set[int] = set()
    starts: set[int] = set()
    ends: set[int] = set()

    for line_no, line in block:
        if ":" in line and "," not in line.split(":", 1)[0]:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "model":
                name = value
            elif key == "threshold":
                try:
                    threshold = float(value)
                except ValueError:
                    raise ParseError(f"line {line_no}: non-numeric threshold {value!r}") from None
            else:
                raise ParseError(f"line {line_no}: unknown key {key!r}")
            continue

        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            raise ParseError(
                f"line {line_no}: expected 6 comma-separated fields, got {len(parts)}"
            )
        idx_text, at_name, at_weight, ct_name, ct_weight, flags = parts
        try:
            idx = int(idx_text)
            at_w = float(at_weight)
            ct_w = float(ct_weight)
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric index or weight in {line!r}") from None
        if idx != len(atomic) + 1:
            raise ParseError(f"line {line_no}: element index {idx} out of sequence")
        atomic.append(WeightedElement(name=at_name, weight=at_w))
        context.append(WeightedElement(name=ct_name, weight=ct_w))
        for flag in (f.strip().lower() for f in flags.split("|")):
            if flag in ("", "-"):
                continue
            if flag == "core":
                cores.add(idx)
            elif flag == "start":
                starts.add(idx)
            elif flag == "end":
                ends.add(idx)
            else:
                raise ParseError(f"line {line_no}: unknown flag {flag!r}")

    first_line = block[0][0]
    if name is None:
        raise ParseError(f"line {first_line}: block is missing a 'model:' line")
    if threshold is None:
        raise ParseError(f"line {first_line}: model {name!r} is missing a 'threshold:' line")
    if not atomic:
        raise ParseError(f"line {first_line}: model {name!r} has no element lines")

    return ComplexActivityModel(
        name=name,
        atomic=tuple(atomic),
        context=tuple(context),
        core_indices=frozenset(cores),
        start_indices=frozenset(starts),
        end_indices=frozenset(ends),
        threshold=threshold,
    )


def load_activity_models(path) -> list[ComplexActivityModel]:
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: file is not UTF-8 text") from None
    return parse_activity_models(text)


def bundled_models_path():
    """Path of the activity-model fixtures shipped with the package."""
    from importlib import resources

    return resources.files("locbench") / "fixtures" / "adl_models.txt"


def load_bundled_models() -> list[ComplexActivityModel]:
    return load_activity_models(bundled_models_path())
