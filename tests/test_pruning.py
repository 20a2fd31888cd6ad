"""Pruning operators: counts, masks, and the three zeroing strategies."""

from __future__ import annotations

import re
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecheck import (
    Layer,
    PolicyFormatError,
    PruneMask,
    PruneSpec,
    PruneSpecError,
    apply_mask,
    dump_mask,
    feature_prune,
    l1_prune,
    load_mask,
    make_policy,
    prune,
    prune_count,
    random_prune,
)

from . import oracles
from .conftest import random_policy


def single_layer(weights):
    """A linear policy over generic feature/action names for the matrix."""
    w = np.array(weights, dtype=float)
    features = tuple(f"f{j}" for j in range(w.shape[1]))
    actions = tuple(f"a{i}" for i in range(w.shape[0]))
    return make_policy(features, actions, [(w, np.zeros(w.shape[0]))])


def layer_bytes(policy, layer: int) -> bytes:
    return policy.layers[layer - 1].weights.tobytes()


def outcome(call):
    """A prune's mask coordinates, mask spec and every layer's weight bytes, or its error's type and message."""
    try:
        pruned, mask = call()
    except PruneSpecError as error:
        return type(error), str(error)
    return mask.zeroed, mask.spec, [layer.weights.tobytes() for layer in pruned.layers]


def reference_outcome(policy, spec: PruneSpec):
    """``outcome`` of the reference operator in ``oracles`` on ``policy``'s weights as they are now."""
    try:
        zeroed, weights = oracles.prune_reference(
            [layer.weights for layer in policy.layers], policy.feature_names,
            spec.method, spec.layer, spec.fraction, spec.seed, spec.feature,
        )
    except PruneSpecError as error:
        return type(error), str(error)
    return zeroed, spec, [w.tobytes() for w in weights]


def operator_call(policy, spec: PruneSpec):
    """The public operator's own call for ``spec``."""
    if spec.method == "l1":
        return lambda: l1_prune(policy, spec.layer, spec.fraction)
    if spec.method == "random":
        return lambda: random_prune(policy, spec.layer, spec.fraction, spec.seed)
    return lambda: feature_prune(policy, spec.feature)


# ===== Counting =====


class TestPruneCount:
    @pytest.mark.parametrize(
        "fraction, nonzeros, expected",
        [
            (0.5, 4, 2),
            (0.0, 10, 0),
            (1.0, 7, 7),
            (0.25, 2, 1),
            (0.1, 4, 0),
            (0.05, 10, 1),
            (0.45, 10, 5),
            (0.75, 0, 0),
        ],
    )
    def test_round_half_up(self, fraction, nonzeros, expected):
        assert prune_count(fraction, nonzeros) == expected

    def test_tie_rounds_up_despite_float_representation(self):
        # 0.15 as a float sits just below 3/20; the decimal the caller wrote
        # is what counts, so 0.15 * 10 = 1.5 rounds up.
        assert prune_count(0.15, 10) == 2

    def test_accepts_strings_and_fractions(self):
        assert prune_count("0.15", 10) == 2
        assert prune_count("1/3", 5) == 2
        assert prune_count(Fraction(1, 3), 4) == 1
        assert prune_count(1, 6) == 6

    @given(
        p=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=0, max_value=500),
    )
    def test_count_stays_within_bounds(self, p, n):
        m = prune_count(p, n)
        assert 0 <= m <= n

    @given(
        p=st.fractions(min_value=0, max_value=1),
        n=st.integers(min_value=0, max_value=200),
    )
    def test_count_monotone_in_population(self, p, n):
        assert prune_count(p, n) <= prune_count(p, n + 1)


# ===== Specs =====


class TestPruneSpec:
    def test_valid_specs_construct(self):
        PruneSpec(method="l1", layer=1, fraction=0.5)
        PruneSpec(method="random", layer=2, fraction=0.0, seed=7)
        PruneSpec(method="feature", feature="fuel")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"method": "taylor"}, "unknown prune method"),
            ({"method": "l1", "fraction": 0.5}, "needs 'layer' and 'fraction'"),
            ({"method": "l1", "layer": 1}, "needs 'layer' and 'fraction'"),
            ({"method": "l1", "layer": 1, "fraction": 1.5}, r"outside \[0, 1\]"),
            ({"method": "l1", "layer": 1, "fraction": -0.1}, r"outside \[0, 1\]"),
            ({"method": "l1", "layer": 0, "fraction": 0.5}, "1-based"),
            ({"method": "random", "layer": 1, "fraction": 0.5}, "needs 'seed'"),
            ({"method": "feature"}, "needs 'feature'"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, message):
        with pytest.raises(PruneSpecError, match=message):
            PruneSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"method": "l1", "layer": 1, "fraction": "0.5"}, "'fraction' must be a number, got '0.5'"),
            ({"method": "l1", "layer": 1.5, "fraction": 0.5}, "'layer' must be an integer, got 1.5"),
            ({"method": "l1", "layer": True, "fraction": 0.5}, "'layer' must be an integer, got True"),
            ({"method": "l1", "layer": 1, "fraction": Fraction(1, 2)}, "'fraction' must be a number, got Fraction(1, 2)"),
            ({"method": "random", "layer": 1, "fraction": 0.5, "seed": "7"}, "'seed' must be an integer, got '7'"),
            ({"method": "feature", "feature": 3}, "'feature' must be a string, got 3"),
            ({"method": "feature", "feature": "x", "layer": "1"}, "'layer' must be an integer, got '1'"),
        ],
    )
    def test_constructor_checks_value_types(self, kwargs, message):
        with pytest.raises(PruneSpecError, match=f"^prune spec {re.escape(message)}$"):
            PruneSpec(**kwargs)

    def test_to_dict_drops_unused_fields(self):
        spec = PruneSpec(method="feature", feature="x")
        assert spec.to_dict() == {"method": "feature", "feature": "x"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"method": "l1", "layer": 2, "fraction": 0.25},
            {"method": "random", "layer": 1, "fraction": 1.0, "seed": 3},
            {"method": "feature", "feature": "ay"},
        ],
    )
    def test_dict_round_trip(self, doc):
        spec = PruneSpec.from_dict(doc)
        assert spec.to_dict() == doc
        assert PruneSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(PruneSpecError, match="unknown prune spec keys"):
            PruneSpec.from_dict({"method": "l1", "layer": 1, "fraction": 0.5, "rate": 2})

    @pytest.mark.parametrize(
        "doc",
        [
            {"method": 5},
            {"method": "l1", "layer": 1, "fraction": "0.5"},
            {"method": "l1", "layer": True, "fraction": 0.5},
            {"method": "l1", "layer": 1.0, "fraction": 0.5},
            {"method": "l1", "layer": 1, "fraction": True},
            {"method": "random", "layer": 1, "fraction": 0.5, "seed": "abc"},
            {"method": "random", "layer": 1, "fraction": 0.5, "seed": False},
            {"method": "feature", "feature": 3},
            {"method": "feature", "feature": "x", "layer": None},
        ],
    )
    def test_from_dict_rejects_wrong_value_types(self, doc):
        with pytest.raises(PruneSpecError, match=r"^prune spec '\w+' must be (a string|an integer|a number), got "):
            PruneSpec.from_dict(doc)

    @pytest.mark.parametrize("doc", [7, ["l1"], {"layer": 1}])
    def test_from_dict_needs_method_object(self, doc):
        with pytest.raises(PruneSpecError, match="object with a 'method' key"):
            PruneSpec.from_dict(doc)


# ===== Masks =====


class TestPruneMask:
    def spec(self) -> PruneSpec:
        return PruneSpec(method="l1", layer=1, fraction=0.5)

    def test_size_counts_coordinates(self):
        mask = PruneMask(spec=self.spec(), zeroed=((1, 1, 1), (1, 2, 2)))
        assert mask.size == 2

    def test_coordinates_must_be_sorted(self):
        with pytest.raises(PruneSpecError, match="sorted ascending"):
            PruneMask(spec=self.spec(), zeroed=((1, 2, 2), (1, 1, 1)))

    def test_coordinates_must_not_repeat(self):
        with pytest.raises(PruneSpecError, match="sorted ascending"):
            PruneMask(spec=self.spec(), zeroed=((1, 1, 1), (1, 1, 1)))

    def test_load_rejects_a_repeated_coordinate(self):
        text = '{"spec": {"method": "feature", "feature": "x"}, "zeroed": [[1, 1, 1], [1, 1, 1]]}'
        with pytest.raises(PruneSpecError, match="^mask coordinates must be sorted ascending, each once$"):
            load_mask(text)

    def test_serialization_round_trip(self):
        _, mask = random_prune(random_policy(3, ("a", "b"), ("x", "y")), 1, 0.5, seed=9)
        assert load_mask(dump_mask(mask)) == mask

    def test_feature_mask_round_trip(self):
        _, mask = feature_prune(single_layer([[1.0, 2.0], [3.0, 4.0]]), "f1")
        assert load_mask(dump_mask(mask)) == mask

    def test_load_rejects_invalid_json(self):
        with pytest.raises(PruneSpecError, match="^line 1 column 2: "):
            load_mask("{nope")

    def test_load_rejects_wrong_keys(self):
        with pytest.raises(PruneSpecError, match="^missing top-level key 'zeroed'$"):
            load_mask('{"spec": {"method": "feature", "feature": "x"}}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"spec": {"method": "feature", "feature": "x"}, "zeroed": 5}', "^'zeroed' must be a list"),
            ('{"spec": {"method": "feature", "feature": "x"}, "zeroed": [[true, 1, 1]]}', "^bad mask coordinate"),
            ('{"spec": {"method": "feature", "feature": "x"}, "zeroed": [[1, 1, false]]}', "^bad mask coordinate"),
            ('{"spec": {"method": "l1", "layer": 1, "fraction": "0.5"}, "zeroed": []}', "^prune spec 'fraction'"),
            ('{"spec": {"method": "l1", "layer": true, "fraction": 0.5}, "zeroed": []}', "^prune spec 'layer'"),
            ('{"spec": {"method": "feature", "feature": "x"}, "zeroed": [], "zeroed": []}', "^duplicate key 'zeroed'"),
            ('{"spec": {"method": "feature", "feature": "x", "feature": "y"}, "zeroed": []}', "^duplicate key 'feature'"),
            ('{"spec": {"method": "l1", "layer": 1, "fraction": %s}, "zeroed": []}' % ("1" * 5000), "digits|outside"),
        ],
        ids=[
            "zeroed-not-a-list",
            "boolean-layer",
            "boolean-column",
            "string-fraction",
            "boolean-spec-layer",
            "repeated-top-level-key",
            "repeated-spec-key",
            "past-digit-limit",
        ],
    )
    def test_load_rejects_bad_values(self, text, message):
        with pytest.raises(PruneSpecError, match=message):
            load_mask(text)

    def test_repeated_key_wording(self):
        with pytest.raises(PruneSpecError, match=r"^duplicate key 'spec' in mask document$"):
            load_mask('{"spec": {"method": "feature", "feature": "x"}, "spec": {}, "zeroed": []}')

    @pytest.mark.parametrize("coord", ["[1, 1]", "[1, 1, 1.5]", '"111"'])
    def test_load_rejects_bad_coordinates(self, coord):
        text = '{"spec": {"method": "feature", "feature": "x"}, "zeroed": [%s]}' % coord
        with pytest.raises(PruneSpecError, match="bad mask coordinate"):
            load_mask(text)


    @pytest.mark.parametrize(
        "spec, coord",
        [
            ('{"method": "l1", "layer": 1, "fraction": 0.5}', "[0, -1, 1]"),
            ('{"method": "l1", "layer": 1, "fraction": 0.5}', "[1, 0, 1]"),
            ('{"method": "l1", "layer": 1, "fraction": 0.5}', "[1, 1, 0]"),
            ('{"method": "l1", "layer": 2, "fraction": 0.5}', "[1, 1, 1]"),
            ('{"method": "random", "layer": 1, "fraction": 0.5, "seed": 3}', "[2, 1, 1]"),
            ('{"method": "feature", "feature": "x"}', "[3, 4, 5]"),
            ('{"method": "feature", "feature": "x", "layer": 2}', "[2, 1, 1]"),
        ],
        ids=["layer-0", "row-0", "column-0", "l1-off-layer", "random-off-layer", "feature-off-layer-1",
             "feature-ignores-spec-layer"],
    )
    def test_load_rejects_impossible_coordinates(self, spec, coord):
        text = '{"spec": %s, "zeroed": [[1, 1, 1], %s]}' % (spec, coord)
        with pytest.raises(PruneSpecError, match=r"^mask coordinate \[.*\] must be a 1-based \[layer, row, column\] in layer \d$"):
            load_mask(text)

    @pytest.mark.parametrize(
        "spec, coords",
        [
            ('{"method": "l1", "layer": 2, "fraction": 0.5}', "[[2, 1, 1], [2, 3, 4]]"),
            ('{"method": "feature", "feature": "x"}', "[[1, 1, 2], [1, 2, 2]]"),
        ],
    )
    def test_load_accepts_coordinates_in_the_spec_layer(self, spec, coords):
        assert load_mask('{"spec": %s, "zeroed": %s}' % (spec, coords)).size == 2

# ===== Magnitude pruning =====


class TestL1Prune:
    def test_worked_example(self):
        policy = single_layer([[0.1, -2.0], [0.5, 0.05]])
        pruned, mask = l1_prune(policy, 1, 0.5)
        assert mask.zeroed == ((1, 1, 1), (1, 2, 2))
        assert pruned.layers[0].weights.tolist() == [[0.0, -2.0], [0.5, 0.0]]

    def test_ties_break_by_position(self):
        # Three entries share magnitude 0.5; only the earliest (row, col)
        # joins 0.25 in the mask.
        pruned, mask = l1_prune(single_layer([[0.5, -0.5], [0.5, 0.25]]), 1, 0.5)
        assert mask.zeroed == ((1, 1, 1), (1, 2, 2))
        assert pruned.layers[0].weights.tolist() == [[0.0, -0.5], [0.5, 0.0]]

    def test_existing_zeros_do_not_count(self):
        # Three nonzeros, so half rounds up to two.
        pruned, mask = l1_prune(single_layer([[0.1, 0.0], [0.5, 0.05]]), 1, 0.5)
        assert mask.zeroed == ((1, 1, 1), (1, 2, 2))
        assert pruned.layers[0].weights.tolist() == [[0.0, 0.0], [0.5, 0.0]]

    def test_zero_fraction_is_identity(self):
        policy = single_layer([[0.1, -2.0], [0.5, 0.05]])
        pruned, mask = l1_prune(policy, 1, 0.0)
        assert mask.zeroed == ()
        assert layer_bytes(pruned, 1) == layer_bytes(policy, 1)

    def test_full_fraction_clears_every_nonzero(self):
        pruned, mask = l1_prune(single_layer([[0.1, 0.0], [0.5, 0.05]]), 1, 1.0)
        assert mask.size == 3
        assert not pruned.layers[0].weights.any()

    def test_spec_records_the_call(self):
        _, mask = l1_prune(single_layer([[1.0, 2.0]]), 1, 0.5)
        assert mask.spec == PruneSpec(method="l1", layer=1, fraction=0.5)

    def test_deeper_layers_stay_untouched(self):
        policy = random_policy(41, ("a", "b", "c"), ("x", "y"), hidden=(5,))
        pruned, _ = l1_prune(policy, 1, 0.5)
        assert layer_bytes(pruned, 2) == layer_bytes(policy, 2)

    def test_layer_out_of_range(self):
        with pytest.raises(PruneSpecError, match="layer 3 out of range"):
            l1_prune(single_layer([[1.0]]), 3, 0.5)

    def test_input_policy_is_never_mutated(self):
        policy = single_layer([[0.1, -2.0], [0.5, 0.05]])
        before = layer_bytes(policy, 1)
        l1_prune(policy, 1, 1.0)
        assert layer_bytes(policy, 1) == before


# ===== Random pruning =====


class TestRandomPrune:
    def test_same_seed_same_outcome(self):
        policy = random_policy(12, ("a", "b", "c"), ("x", "y"), hidden=(4,))
        first_policy, first_mask = random_prune(policy, 1, 0.5, seed=7)
        second_policy, second_mask = random_prune(policy, 1, 0.5, seed=7)
        assert first_mask == second_mask
        assert layer_bytes(first_policy, 1) == layer_bytes(second_policy, 1)

    def test_seeds_actually_vary_the_sample(self):
        policy = single_layer([[1.0, 2.0], [3.0, 4.0]])
        masks = {random_prune(policy, 1, 0.5, seed=s)[1].zeroed for s in range(20)}
        assert len(masks) > 1

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_full_fraction_clears_layer_for_any_seed(self, seed):
        pruned, mask = random_prune(single_layer([[1.0, 0.0], [3.0, 4.0]]), 1, 1.0, seed)
        assert mask.size == 3
        assert not pruned.layers[0].weights.any()

    def test_mask_only_selects_nonzero_coordinates(self):
        policy = single_layer([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        for seed in range(10):
            _, mask = random_prune(policy, 1, 0.5, seed)
            assert set(mask.zeroed) <= {(1, 1, 1), (1, 1, 3), (1, 2, 2)}
            assert mask.size == prune_count(0.5, 3)

    def test_spec_records_the_seed(self):
        _, mask = random_prune(single_layer([[1.0]]), 1, 0.5, seed=42)
        assert mask.spec == PruneSpec(method="random", layer=1, fraction=0.5, seed=42)


# ===== Feature pruning =====


class TestFeaturePrune:
    def test_worked_example(self):
        pruned, mask = feature_prune(single_layer([[1.0, 2.0], [3.0, 4.0]]), "f0")
        assert pruned.layers[0].weights.tolist() == [[0.0, 2.0], [0.0, 4.0]]
        assert mask.zeroed == ((1, 1, 1), (1, 2, 1))
        assert mask.spec == PruneSpec(method="feature", feature="f0")

    def test_mask_covers_the_full_column(self):
        # One coordinate per first-layer row, even where the weight was
        # already zero.
        policy = random_policy(8, ("p", "q", "r"), ("x", "y"), hidden=(6,))
        _, mask = feature_prune(policy, "q")
        assert mask.zeroed == tuple((1, row, 2) for row in range(1, 7))

    def test_all_zero_column_masks_but_changes_nothing(self):
        policy = single_layer([[0.0, 2.0], [0.0, 4.0]])
        pruned, mask = feature_prune(policy, "f0")
        assert mask.zeroed == ((1, 1, 1), (1, 2, 1))
        assert layer_bytes(pruned, 1) == layer_bytes(policy, 1)
        for state in [(0.0, 0.0), (5.0, -3.0), (-1.0, 7.0)]:
            assert policy.forward(state).tobytes() == pruned.forward(state).tobytes()

    def test_logits_become_independent_of_the_feature(self):
        policy = random_policy(5, ("x", "y", "z"), ("u", "v"), hidden=(7,))
        pruned, _ = feature_prune(policy, "y")
        for left, right in [((1.0, 5.0, 2.0), (1.0, -3.0, 2.0)), ((0.0, 9.0, -4.0), (0.0, 0.0, -4.0))]:
            assert pruned.forward(left).tobytes() == pruned.forward(right).tobytes()

    def test_other_columns_stay_bit_identical(self):
        policy = random_policy(6, ("x", "y", "z"), ("u", "v"), hidden=(4,))
        pruned, _ = feature_prune(policy, "y")
        original = policy.layers[0].weights
        updated = pruned.layers[0].weights
        assert updated[:, 0].tobytes() == original[:, 0].tobytes()
        assert updated[:, 2].tobytes() == original[:, 2].tobytes()
        assert not updated[:, 1].any()

    def test_unknown_feature_rejected(self):
        with pytest.raises(PruneSpecError, match="not in the policy's feature schema"):
            feature_prune(single_layer([[1.0, 2.0]]), "altitude")


# ===== Mask application =====


class TestApplyMask:
    def test_reproduces_the_pruned_policy(self):
        policy = random_policy(31, ("a", "b", "c"), ("x", "y"), hidden=(5,))
        for pruned, mask in [
            l1_prune(policy, 1, 0.5),
            random_prune(policy, 2, 0.5, seed=4),
            feature_prune(policy, "b"),
        ]:
            replayed = apply_mask(policy, mask)
            for layer in (1, 2):
                assert layer_bytes(replayed, layer) == layer_bytes(pruned, layer)

    def test_idempotent(self):
        policy = random_policy(32, ("a", "b"), ("x", "y"), hidden=(3,))
        pruned, mask = l1_prune(policy, 1, 0.5)
        again = apply_mask(pruned, mask)
        assert layer_bytes(again, 1) == layer_bytes(pruned, 1)

    def test_masks_compose_in_any_order(self):
        policy = random_policy(33, ("a", "b", "c"), ("x", "y"), hidden=(4,))
        _, magnitude_mask = l1_prune(policy, 2, 0.5)
        _, feature_mask = feature_prune(policy, "c")
        one_way = apply_mask(apply_mask(policy, magnitude_mask), feature_mask)
        other_way = apply_mask(apply_mask(policy, feature_mask), magnitude_mask)
        for layer in (1, 2):
            assert layer_bytes(one_way, layer) == layer_bytes(other_way, layer)

    def test_biases_never_change(self):
        policy = random_policy(34, ("a", "b"), ("x", "y", "z"), hidden=(6,))
        pruned, _ = l1_prune(policy, 1, 1.0)
        for before, after in zip(policy.layers, pruned.layers):
            assert after.bias.tobytes() == before.bias.tobytes()

    def test_layer_out_of_range(self):
        mask = PruneMask(spec=PruneSpec(method="feature", feature="f0"), zeroed=((5, 1, 1),))
        with pytest.raises(PruneSpecError, match="mask layer 5 out of range"):
            apply_mask(single_layer([[1.0]]), mask)

    def test_coordinate_out_of_range(self):
        mask = PruneMask(spec=PruneSpec(method="feature", feature="f0"), zeroed=((1, 3, 1),))
        with pytest.raises(PruneSpecError, match=r"mask coordinate \(1,3,1\) out of range"):
            apply_mask(single_layer([[1.0, 2.0]]), mask)


    def test_untouched_layers_are_shared(self):
        policy = random_policy(35, ("a", "b"), ("x", "y"), hidden=(3, 4))
        pruned, _ = l1_prune(policy, 2, 0.5)
        assert [after is before for before, after in zip(policy.layers, pruned.layers)] == [True, False, True]
        assert pruned.layers[1].bias is policy.layers[1].bias
        assert not pruned.layers[1].weights.flags.writeable

    def test_every_layer_must_stay_finite(self):
        """A policy built without ``make_policy`` can carry a NaN; a mask elsewhere does not let it through."""
        policy = random_policy(36, ("a", "b"), ("x", "y"), hidden=(3,))
        weights = np.array(policy.layers[1].weights)
        weights[0, 0] = np.nan
        broken = replace(policy, layers=(policy.layers[0], Layer(weights, policy.layers[1].bias)))
        mask = PruneMask(spec=PruneSpec(method="feature", feature="a"), zeroed=((1, 1, 1),))
        with pytest.raises(PolicyFormatError, match=r"^layer 2: weights and biases must be finite"):
            apply_mask(broken, mask)
        # Zeroing the NaN itself leaves a finite policy, as a copy through make_policy would.
        mended = apply_mask(broken, PruneMask(spec=mask.spec, zeroed=((2, 1, 1),)))
        assert mended.layers[1].weights[0, 0] == 0.0

    def test_range_errors_come_before_name_errors(self):
        policy = random_policy(37, ("a", "b"), ("x", "y"), hidden=(3,))
        twice = replace(policy, feature_names=("a", "a"))
        mask = PruneMask(spec=PruneSpec(method="feature", feature="a"), zeroed=((3, 1, 1),))
        with pytest.raises(PruneSpecError, match="mask layer 3 out of range"):
            apply_mask(twice, mask)
        with pytest.raises(PolicyFormatError, match="'features' contains duplicates"):
            apply_mask(twice, PruneMask(spec=mask.spec, zeroed=()))

    @pytest.mark.parametrize(
        "zeroed, message",
        [
            (((1, 3, 1), (2, 1, 1)), "mask coordinate (1,3,1) out of range"),
            (((1, 1, 3), (1, 2, 1)), "mask coordinate (1,1,3) out of range"),
            (((1, 0, 1), (1, 1, 1)), "mask coordinate (1,0,1) out of range"),
            (((1, 1, 1), (1, 2, 2), (3, 1, 1)), "mask layer 3 out of range"),
            (((0, 1, 1), (1, 9, 9)), "mask layer 0 out of range"),
            (((1, 1, 1), (2, 1, 2**70)), f"mask coordinate (2,1,{2**70}) out of range"),
            (((1, 1, 1), (2**70, 1, 1)), f"mask layer {2**70} out of range"),
        ],
    )
    def test_first_bad_coordinate_is_the_error(self, zeroed, message):
        """The first coordinate out of range, in mask order, words the error, as one zeroed at a time would."""
        policy = random_policy(38, ("a", "b"), ("x", "y"), hidden=(2,))
        mask = PruneMask(spec=PruneSpec(method="feature", feature="a"), zeroed=zeroed)
        with pytest.raises(PruneSpecError) as raised:
            oracles.apply_mask_reference([layer.weights for layer in policy.layers], zeroed)
        assert str(raised.value) == message
        with pytest.raises(PruneSpecError, match=f"^{re.escape(message)}$"):
            apply_mask(policy, mask)

    def test_empty_mask_copies_nothing(self):
        policy = random_policy(39, ("a", "b"), ("x", "y"), hidden=(2,))
        kept = apply_mask(policy, PruneMask(spec=PruneSpec(method="feature", feature="a"), zeroed=()))
        assert all(after is before for before, after in zip(policy.layers, kept.layers))

    def test_two_layers_zeroed_as_one_at_a_time(self):
        policy = random_policy(40, ("a", "b", "c"), ("x", "y"), hidden=(3,))
        zeroed = ((1, 1, 2), (1, 3, 3), (2, 2, 1), (2, 2, 3))
        replayed = apply_mask(policy, PruneMask(spec=PruneSpec(method="feature", feature="a"), zeroed=zeroed))
        expected = oracles.apply_mask_reference([layer.weights for layer in policy.layers], zeroed)
        assert [layer.weights.tobytes() for layer in replayed.layers] == [w.tobytes() for w in expected]


class TestDispatcher:
    def test_matches_direct_calls(self):
        policy = random_policy(51, ("a", "b", "c"), ("x", "y"), hidden=(4,))
        cases = [
            (PruneSpec(method="l1", layer=2, fraction=0.5), l1_prune(policy, 2, 0.5)),
            (
                PruneSpec(method="random", layer=1, fraction=0.25, seed=6),
                random_prune(policy, 1, 0.25, seed=6),
            ),
            (PruneSpec(method="feature", feature="a"), feature_prune(policy, "a")),
            # A field the method does not read is not recorded in the mask.
            (PruneSpec(method="l1", layer=2, fraction=0.5, seed=3), l1_prune(policy, 2, 0.5)),
            (PruneSpec("random", 1, 0.25, 6, feature="a"), random_prune(policy, 1, 0.25, seed=6)),
            (PruneSpec(method="feature", layer=2, fraction=1.0, feature="a"), feature_prune(policy, "a")),
        ]
        for spec, (direct_policy, direct_mask) in cases:
            via_spec_policy, via_spec_mask = prune(policy, spec)
            assert via_spec_mask == direct_mask
            for layer in (1, 2):
                assert layer_bytes(via_spec_policy, layer) == layer_bytes(direct_policy, layer)

    @given(policy=st.deferred(lambda: tied_policies()), spec=st.deferred(lambda: specs_with_unread_fields))
    def test_fields_a_method_does_not_read_never_reach_the_mask(self, policy, spec):
        """``prune`` passes a spec on only when it holds nothing its method does not read."""
        assert outcome(lambda: prune(policy, spec)) == outcome(operator_call(policy, spec))


# ===== Finiteness, checked once per read-only layer =====


def with_layer(policy, k: int, weights, bias=None):
    """``policy`` with its layer ``k`` (1-based) built by hand, without ``make_policy``'s checks."""
    layers = list(policy.layers)
    layers[k - 1] = Layer(weights, layers[k - 1].bias if bias is None else bias)
    return replace(policy, layers=tuple(layers))


def read_only(array):
    array.flags.writeable = False
    return array


def prune_calls(policy):
    """Each operator, ``prune`` and ``apply_mask`` on ``policy``, zeroing (1, 1, 1) among others, never layer 2."""
    mask = PruneMask(spec=PruneSpec(method="feature", feature="a"), zeroed=((1, 1, 1),))
    return {
        "l1": lambda: l1_prune(policy, 1, 0.5),
        "random": lambda: random_prune(policy, 1, 0.5, 3),
        "feature": lambda: feature_prune(policy, "a"),
        "prune": lambda: prune(policy, PruneSpec("random", 1, 0.5, 3)),
        "apply_mask": lambda: apply_mask(policy, mask),
    }


class TestFiniteOnce:
    """Each layer is checked finite, or known finite as the zeroed copy of a layer that was."""

    @pytest.mark.parametrize("call", ["l1", "random", "feature", "prune", "apply_mask"])
    @pytest.mark.parametrize("kind", ["writable", "read-only", "view", "bias"])
    def test_a_nan_in_a_layer_left_alone_is_found_on_every_call(self, call, kind):
        policy = random_policy(61, ("a", "b"), ("x", "y"), hidden=(3,))
        weights, bias = np.array(policy.layers[1].weights), np.array(policy.layers[1].bias)
        (bias if kind == "bias" else weights)[0] = np.nan
        if kind == "read-only":
            weights, bias = read_only(weights), read_only(bias)
        elif kind == "view":
            weights = read_only(weights.view())
        broken = with_layer(policy, 2, weights, bias)
        for _ in range(2):
            with pytest.raises(PolicyFormatError, match=r"^layer 2: weights and biases must be finite"):
                prune_calls(broken)[call]()

    @pytest.mark.parametrize("call", ["feature", "apply_mask"])
    @pytest.mark.parametrize("kind", ["writable", "read-only"])
    def test_a_nan_the_prune_leaves_in_its_own_layer_is_found(self, call, kind):
        """The zeroed copy of a layer not found finite is scanned: a NaN it keeps raises."""
        policy = random_policy(62, ("a", "b"), ("x", "y"), hidden=(3,))
        weights = np.array(policy.layers[0].weights)
        weights[2, 1] = np.nan  # column "b", kept by both calls, which zero column "a"
        broken = with_layer(policy, 1, read_only(weights) if kind == "read-only" else weights)
        for _ in range(2):
            with pytest.raises(PolicyFormatError, match=r"^layer 1: weights and biases must be finite"):
                prune_calls(broken)[call]()

    @pytest.mark.parametrize("writable", ["weights", "bias"])
    def test_a_writable_layer_set_to_nan_between_two_prunes(self, writable):
        policy = random_policy(63, ("a", "b"), ("x", "y"), hidden=(3,))
        weights, bias = np.array(policy.layers[1].weights), np.array(policy.layers[1].bias)
        live = with_layer(policy, 2, weights, bias) if writable == "weights" else with_layer(policy, 2, read_only(weights), bias)
        mask = PruneMask(spec=PruneSpec("feature", feature="a"), zeroed=((2, 2, 2),))  # copies layer 2, keeping (1, 1)
        calls = (lambda: random_prune(live, 1, 0.5, 1), lambda: apply_mask(live, mask))
        for call in calls:
            call()
        if writable == "weights":
            weights[0, 0] = np.nan
        else:
            bias[0] = np.nan
        for call in calls:
            with pytest.raises(PolicyFormatError, match=r"^layer 2: weights and biases must be finite"):
                call()

    def test_read_only_weights_set_writable_again_are_scanned_again(self):
        """The flags are read at each call, so a layer found finite is scanned again once its weights are writable."""
        policy = random_policy(64, ("a", "b"), ("x", "y"), hidden=(3,))
        weights = np.array(policy.layers[1].weights)
        live = with_layer(policy, 2, read_only(weights), read_only(np.array(policy.layers[1].bias)))
        mask = PruneMask(spec=PruneSpec("feature", feature="a"), zeroed=((2, 2, 2),))  # copies layer 2, keeping (1, 1)
        calls = (lambda: l1_prune(live, 1, 0.5), lambda: apply_mask(live, mask))
        for call in calls:
            call()
        weights.flags.writeable = True
        weights[0, 0] = np.nan
        for call in calls:
            with pytest.raises(PolicyFormatError, match=r"^layer 2: weights and biases must be finite"):
                call()

    def test_a_prune_of_a_pruned_policy_shares_the_untouched_layers(self):
        policy = random_policy(65, ("a", "b"), ("x", "y"), hidden=(3, 4))
        once, _ = l1_prune(policy, 2, 0.5)
        twice, _ = random_prune(once, 2, 0.5, 4)
        assert [after is before for before, after in zip(policy.layers, twice.layers)] == [True, False, True]
        thrice, _ = feature_prune(twice, "b")
        assert [after is before for before, after in zip(twice.layers, thrice.layers)] == [False, True, True]
        replayed = apply_mask(thrice, PruneMask(spec=PruneSpec("feature", feature="a"), zeroed=((3, 1, 1),)))
        assert [after is before for before, after in zip(thrice.layers, replayed.layers)] == [True, True, False]
        assert all(not layer.weights.flags.writeable for layer in replayed.layers)


# ===== Property tests =====

matrices = st.integers(min_value=-8, max_value=8).flatmap(
    lambda _: st.tuples(st.integers(2, 4), st.integers(2, 4))
).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-8, 8).map(lambda v: v / 4), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)

eighths = st.integers(0, 8).map(lambda k: k / 8)


class TestInvariants:
    @given(rows=matrices, fraction=eighths)
    def test_l1_mask_and_weights_agree(self, rows, fraction):
        policy = single_layer(rows)
        weights = policy.layers[0].weights
        pruned, mask = l1_prune(policy, 1, fraction)
        updated = pruned.layers[0].weights

        nonzeros = list(zip(*(a.tolist() for a in np.nonzero(weights))))
        assert mask.size == prune_count(fraction, len(nonzeros))

        zeroed = {(r - 1, c - 1) for _, r, c in mask.zeroed}
        assert zeroed <= set(nonzeros)
        for r in range(weights.shape[0]):
            for c in range(weights.shape[1]):
                if (r, c) in zeroed:
                    assert updated[r, c] == 0.0
                else:
                    assert updated[r, c].tobytes() == weights[r, c].tobytes()

        kept = [abs(weights[r, c]) for r, c in nonzeros if (r, c) not in zeroed]
        dropped = [abs(weights[r, c]) for r, c in zeroed]
        if kept and dropped:
            assert max(dropped) <= min(kept)

    @given(rows=matrices, fraction=eighths, seed=st.integers(0, 2**31 - 1))
    def test_random_mask_and_weights_agree(self, rows, fraction, seed):
        policy = single_layer(rows)
        weights = policy.layers[0].weights
        pruned, mask = random_prune(policy, 1, fraction, seed)

        nonzeros = set(zip(*(a.tolist() for a in np.nonzero(weights))))
        zeroed = {(r - 1, c - 1) for _, r, c in mask.zeroed}
        assert mask.size == prune_count(fraction, len(nonzeros))
        assert zeroed <= nonzeros

        replay_policy, replay_mask = random_prune(policy, 1, fraction, seed)
        assert replay_mask == mask
        assert layer_bytes(replay_policy, 1) == layer_bytes(pruned, 1)

    @given(rows=matrices, col=st.integers(0, 3), probe=st.integers(-16, 16))
    def test_feature_prune_silences_exactly_one_column(self, rows, col, probe):
        policy = single_layer(rows)
        width = policy.layers[0].weights.shape[1]
        name = f"f{col % width}"
        pruned, mask = feature_prune(policy, name)

        index = col % width
        assert mask.zeroed == tuple((1, row + 1, index + 1) for row in range(len(rows)))
        assert not pruned.layers[0].weights[:, index].any()

        base = [1.0] * width
        bumped = list(base)
        bumped[index] = float(probe)
        assert pruned.forward(tuple(base)).tobytes() == pruned.forward(tuple(bumped)).tobytes()


# ===== Equivalence with the operators as first written =====

halves = st.integers(-3, 3).map(lambda v: v / 2)  # exact zeros and tied magnitudes


@st.composite
def tied_policies(draw):
    """Policies of 1-3 layers of small matrices, entries in halves from -3/2 to 3/2."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    layers = [
        (np.array(draw(st.lists(st.lists(halves, min_size=d_in, max_size=d_in), min_size=d_out, max_size=d_out))), np.zeros(d_out))
        for d_in, d_out in zip(sizes, sizes[1:])
    ]
    return make_policy(tuple(f"f{j}" for j in range(sizes[0])), tuple(f"a{j}" for j in range(sizes[-1])), layers)


spec_fractions = st.one_of(st.integers(0, 1), st.integers(0, 20).map(lambda k: k / 20), st.sampled_from([0.15, 1 / 3, 0.35]))
specs = st.one_of(
    st.builds(PruneSpec, st.just("l1"), st.integers(1, 4), spec_fractions),
    st.builds(PruneSpec, st.just("random"), st.integers(1, 4), spec_fractions, st.integers(-(2**40), 2**40)),
    st.builds(lambda feature: PruneSpec(method="feature", feature=feature), st.sampled_from(["f0", "f1", "f3", "g"])),
)


# Specs holding a field their method does not read, valid or not on the policies drawn.
specs_with_unread_fields = st.one_of(
    st.builds(PruneSpec, st.just("l1"), st.integers(1, 4), spec_fractions, st.integers(-(2**40), 2**40)),
    st.builds(
        PruneSpec, st.just("l1"), st.integers(1, 4), spec_fractions, st.none() | st.integers(0, 9), st.sampled_from(["f0", "g"])
    ),
    st.builds(PruneSpec, st.just("random"), st.integers(1, 4), spec_fractions, st.integers(0, 9), st.sampled_from(["f0", "g"])),
    st.builds(
        PruneSpec, st.just("feature"), st.none() | st.integers(-3, 9), st.none() | spec_fractions | st.just(7),
        st.none() | st.integers(0, 9), st.sampled_from(["f0", "f1", "g"]),
    ).filter(lambda spec: (spec.layer, spec.fraction, spec.seed) != (None, None, None)),
)


class TestAgainstReference:
    @given(policy=tied_policies(), stream=st.lists(specs, min_size=1, max_size=5))
    def test_operators_match_the_reference(self, policy, stream):
        """Every spec of a stream on one policy, through ``prune`` and the operator itself, twice."""
        for spec in stream:
            expected = reference_outcome(policy, spec)
            assert outcome(lambda: prune(policy, spec)) == expected
            assert outcome(operator_call(policy, spec)) == expected
            assert outcome(lambda: prune(policy, spec)) == expected

    @pytest.mark.parametrize("spec", [PruneSpec("l1", 1, 0.5), PruneSpec("random", 1, 0.5, 2), PruneSpec("random", 1, 1.0, 7)])
    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_weights_that_can_change_are_read_again(self, spec, read_only_view):
        """A layer whose weights are writable, or a read-only view of writable ones, is pruned as it is now."""
        weights = np.array([[1.0, 2.0, 0.0], [0.0, 4.0, 3.0]])
        held = weights.view() if read_only_view else weights
        held.flags.writeable = not read_only_view
        policy = make_policy(("f0", "f1", "f2"), ("a0", "a1"), [(weights, np.zeros(2))])
        live = replace(policy, layers=(Layer(held, policy.layers[0].bias),))
        assert outcome(lambda: prune(live, spec)) == reference_outcome(live, spec)
        weights[0, 0], weights[0, 2], weights[1, 0] = 0.0, 5.0, 0.5
        assert outcome(lambda: prune(live, spec)) == reference_outcome(live, spec)
        assert prune(live, spec)[1].size == prune_count(spec.fraction, 5)

    def test_a_pruned_layer_is_not_kept_alive(self):
        policy = random_policy(53, ("a", "b"), ("x", "y"), hidden=(3,))
        layer = weakref.ref(policy.layers[1])
        pruned = [prune(policy, PruneSpec(method, 2, 0.5, 1))[0] for method in ("l1", "random")]
        assert layer() is policy.layers[1]
        del policy, pruned
        assert layer() is None
