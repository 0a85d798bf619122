import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.activity import (
    WeightedElement,
    completion_score,
    derive_zone_map,
    is_complete,
    load_bundled_models,
    parse_activity_models,
    validate_activity_model,
)
from locbench.data import ParseError, ValidationError


@pytest.fixture(scope="module")
def models():
    return {m.name: m for m in load_bundled_models()}


@pytest.fixture(scope="module")
def breakfast(models):
    return models["Preparing Breakfast"]


@pytest.fixture(scope="module")
def lunch(models):
    return models["Eating Lunch"]


class TestBundledModels:
    def test_two_models_ship(self, models):
        assert set(models) == {"Preparing Breakfast", "Eating Lunch"}

    def test_both_validate(self, models):
        for model in models.values():
            result = validate_activity_model(model)
            assert result.ok, result.failures

    def test_breakfast_structure(self, breakfast):
        assert breakfast.size == 7
        assert breakfast.threshold == 0.73
        assert breakfast.core_indices == {3, 4, 5, 6}
        assert breakfast.start_indices == {1, 2}
        assert breakfast.end_indices == {6, 7}
        assert [e.weight for e in breakfast.atomic] == [0.10, 0.12, 0.15, 0.15, 0.25, 0.18, 0.05]
        assert [e.weight for e in breakfast.context] == [e.weight for e in breakfast.atomic]

    def test_lunch_structure(self, lunch):
        assert lunch.size == 6
        assert lunch.threshold == 0.72
        assert lunch.core_indices == {2, 3, 4}
        assert lunch.start_indices == {1, 2}
        assert lunch.end_indices == {5, 6}
        assert [e.weight for e in lunch.atomic] == [0.08, 0.20, 0.25, 0.20, 0.08, 0.19]

    def test_core_separation_holds_in_both(self, models):
        for model in models.values():
            weights = [e.weight for e in model.atomic]
            min_core = min(weights[i - 1] for i in model.core_indices)
            max_rest = max(
                weights[i - 1] for i in range(1, model.size + 1) if i not in model.core_indices
            )
            assert min_core > max_rest


class TestCompletionScore:
    def test_breakfast_core_sum_is_exact(self, breakfast):
        assert abs(completion_score(breakfast, breakfast.core_indices) - 0.73) < 1e-12

    def test_empty_observation_scores_zero(self, breakfast):
        assert completion_score(breakfast, set()) == 0.0

    def test_lunch_partial_sum(self, lunch):
        assert abs(completion_score(lunch, {2, 3, 4, 6}) - 0.84) < 1e-12

    def test_out_of_range_index_rejected(self, breakfast):
        with pytest.raises(ValidationError, match="out of range"):
            completion_score(breakfast, {0})
        with pytest.raises(ValidationError, match="out of range"):
            completion_score(breakfast, {8})


class TestIsComplete:
    def test_cores_alone_meet_breakfast_threshold_exactly(self, breakfast):
        assert is_complete(breakfast, breakfast.core_indices) is True

    def test_cores_alone_fall_short_of_lunch_threshold(self, lunch):
        # 0.20 + 0.25 + 0.20 = 0.65 < 0.72: cores observed but coverage short.
        assert abs(completion_score(lunch, lunch.core_indices) - 0.65) < 1e-12
        assert is_complete(lunch, lunch.core_indices) is False

    def test_all_indices_always_complete(self, breakfast, lunch):
        for model in (breakfast, lunch):
            assert is_complete(model, set(range(1, model.size + 1))) is True

    def test_missing_core_fails_even_with_high_score(self, breakfast):
        observed = {1, 2, 4, 5, 6, 7}  # skips core 3; score 0.85 >= 0.73
        assert completion_score(breakfast, observed) >= breakfast.threshold
        assert is_complete(breakfast, observed) is False

    @settings(max_examples=80, deadline=None)
    @given(
        observed=st.sets(st.integers(min_value=1, max_value=6)),
        extra=st.sets(st.integers(min_value=1, max_value=6)),
    )
    def test_monotone_in_observed(self, lunch, observed, extra):
        grown = observed | extra
        assert completion_score(lunch, observed) <= completion_score(lunch, grown) + 1e-12
        if is_complete(lunch, observed):
            assert is_complete(lunch, grown)


def remodel(model, **changes):
    return dataclasses.replace(model, **changes)


class TestValidation:
    def test_shrunk_core_set_breaks_separation(self, lunch):
        # Dropping index 4 leaves a non-core element at weight 0.20, equal
        # to the smallest remaining core weight.
        bad = remodel(lunch, core_indices=frozenset({2, 3}))
        result = validate_activity_model(bad)
        assert not result.ok
        assert any("core separation" in f for f in result.failures)

    def test_weight_sum_failure_is_reported(self, lunch):
        atomic = list(lunch.atomic)
        atomic[0] = WeightedElement(name=atomic[0].name, weight=0.01)
        result = validate_activity_model(remodel(lunch, atomic=tuple(atomic)))
        assert any("weight sum" in f for f in result.failures)

    def test_multiple_failures_all_enumerate(self, lunch):
        bad = remodel(
            lunch,
            threshold=1.5,
            start_indices=frozenset(),
            core_indices=frozenset({99}),
        )
        failures = validate_activity_model(bad).failures
        assert any("threshold" in f for f in failures)
        assert any("start index set is empty" in f for f in failures)
        assert any("out of range" in f for f in failures)

    def test_mismatched_lengths(self, lunch):
        bad = remodel(lunch, context=lunch.context[:-1])
        assert any("mismatch" in f for f in validate_activity_model(bad).failures)


class TestZoneMap:
    def test_positional_pairing(self, breakfast, lunch):
        zm = derive_zone_map([breakfast, lunch], ["Cooking zone", "Dining zone"])
        assert zm.entries == (
            ("Preparing Breakfast", "Cooking zone"),
            ("Eating Lunch", "Dining zone"),
        )

    def test_duplicate_zone_rejected(self, breakfast, lunch):
        with pytest.raises(ValidationError, match="overlap"):
            derive_zone_map([breakfast, lunch], ["Kitchen", "Kitchen"])

    def test_empty_input(self):
        assert derive_zone_map([], []).entries == ()

    def test_count_mismatch(self, breakfast):
        with pytest.raises(ValidationError):
            derive_zone_map([breakfast], ["a", "b"])


class TestModelFileParsing:
    def test_unknown_flag_rejected(self):
        text = "model: m\nthreshold: 0.5\n1, a, 0.5, c, 0.5, core|loop\n"
        with pytest.raises(ParseError, match="^line 3: unknown flag"):
            parse_activity_models(text)

    def test_missing_threshold_rejected(self):
        text = "model: m\n1, a, 1.0, c, 1.0, core\n"
        with pytest.raises(ParseError, match="^line 1: .*threshold"):
            parse_activity_models(text)

    def test_out_of_sequence_index_rejected(self):
        text = "model: m\nthreshold: 0.5\n2, a, 1.0, c, 1.0, core\n"
        with pytest.raises(ParseError, match="^line 3: .*out of sequence"):
            parse_activity_models(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "model: m\nthreshold: 0.5\ncolour: red\n1, a, 1.0, c, 1.0, core\n",
                "line 3: unknown key 'colour'",
            ),
            (
                "model: m\nthreshold: 0.5\n1, a, heavy, c, 1.0, core\n",
                "line 3: non-numeric index or weight in '1, a, heavy, c, 1.0, core'",
            ),
            (
                "model: m\nthreshold: 0.5\none, a, 1.0, c, 1.0, core\n",
                "line 3: non-numeric index or weight in 'one, a, 1.0, c, 1.0, core'",
            ),
            (
                "# header\n\nthreshold: 0.5\n1, a, 1.0, c, 1.0, core\n",
                "line 3: block is missing a 'model:' line",
            ),
            (
                "model: one\nthreshold: 0.5\n1, a, 1.0, c, 1.0, core\n\n"
                "model: two\n1, a, 1.0, c, 1.0, core\n",
                "line 5: model 'two' is missing a 'threshold:' line",
            ),
            ("\nmodel: m\nthreshold: 0.5\n", "line 2: model 'm' has no element lines"),
        ],
        ids=["unknown-key", "weight", "index", "no-model", "no-threshold", "no-elements"],
    )
    def test_block_errors_name_their_line(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_activity_models(text)
        assert str(caught.value) == message

    def test_empty_text_parses_to_no_models(self):
        assert parse_activity_models("") == []
        assert parse_activity_models("# just a comment\n") == []

    def test_blocks_split_on_blank_lines(self):
        text = (
            "model: one\nthreshold: 0.5\n1, a, 1.0, c, 1.0, core|start|end\n"
            "\n"
            "model: two\nthreshold: 0.4\n1, b, 1.0, d, 1.0, core|start|end\n"
        )
        models = parse_activity_models(text)
        assert [m.name for m in models] == ["one", "two"]
        assert all(validate_activity_model(m).ok for m in models)
