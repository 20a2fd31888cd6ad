"""Feed-forward policies: inference, selection, schemas, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prunecheck import (
    NeuralPolicy,
    PolicyFormatError,
    SchemaMismatchError,
    dump_policy,
    load_policy,
    make_policy,
    mini_taxi,
)

from .conftest import random_policy
from .oracles import linear_logits, pick_in_order

# ===== Forward passes =====


def two_layer_policy() -> NeuralPolicy:
    return make_policy(
        ("f1", "f2"),
        ("a", "b"),
        [
            (np.array([[1.0, -1.0], [0.0, 2.0]]), np.array([0.0, -3.0])),
            (np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.0])),
        ],
    )


class TestForward:
    def test_hand_computed_values(self):
        policy = two_layer_policy()
        # hidden = relu([f1 - f2, 2*f2 - 3]); logits = [h1 + 0.5, h1 + h2]
        logits = policy.forward((4, 3))
        assert logits.tolist() == [1.5, 4.0]

    def test_rectifier_clips_hidden_layer_only(self):
        policy = two_layer_policy()
        # f1 - f2 < 0 is clipped to zero in the hidden layer ...
        assert policy.forward((0, 1)).tolist() == [0.5, 0.0 - 1.0 + 0.5 + 0.5]
        # ... but output logits may be negative.
        linear = make_policy(("f",), ("a",), [(np.array([[-2.0]]), np.array([0.0]))])
        assert linear.forward((3,)).tolist() == [-6.0]

    def test_output_dtype_and_shape(self):
        logits = two_layer_policy().forward((1, 1))
        assert logits.dtype == np.float64
        assert logits.shape == (2,)

    def test_integer_states_are_cast(self):
        policy = two_layer_policy()
        assert np.array_equal(policy.forward((4, 3)), policy.forward((4.0, 3.0)))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="expects"):
            two_layer_policy().forward((1, 2, 3))

    @pytest.mark.parametrize("seed, hidden", [(31, ()), (32, (7,)), (33, (16, 9)), (34, (3, 12, 5))])
    def test_rows_match_single_states_bit_for_bit(self, seed, hidden):
        policy = random_policy(seed, ("a", "b", "c", "d"), ("v", "w", "x", "y", "z"), hidden=hidden)
        states = np.random.default_rng(seed).integers(-30, 30, size=(500, 4))
        batch = policy.forward(states)
        assert batch.shape == (500, 5)
        for state, row in zip(states, batch):
            # One gemv per layer and row, written out apart from forward.
            x = state.astype(np.float64)
            for k, layer in enumerate(policy.layers):
                x = layer.weights @ x + layer.bias
                if k != len(policy.layers) - 1:
                    x = np.maximum(x, 0.0)
            assert row.tobytes() == x.tobytes()
            assert row.tobytes() == policy.forward(tuple(state)).tobytes()

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="expects"):
            two_layer_policy().forward(np.zeros((2, 2, 2)))

    def test_repeated_calls_are_bit_identical(self):
        policy = random_policy(11, ("a", "b", "c"), ("x", "y"), hidden=(7, 5))
        first = policy.forward((3, -2, 8))
        second = policy.forward((3, -2, 8))
        assert np.array_equal(first, second)

    def test_finite_difference_jacobian(self):
        policy = two_layer_policy()
        # At (4.0, 3.0) both hidden units are strictly active, so locally
        # J = W2 @ W1. Central differences should agree to ~1e-6.
        w1 = policy.layers[0].weights
        w2 = policy.layers[1].weights
        analytic = w2 @ w1
        eps = 1e-6
        base = np.array([4.0, 3.0])
        for j in range(2):
            bump = np.zeros(2)
            bump[j] = eps
            column = (policy.forward(base + bump) - policy.forward(base - bump)) / (2 * eps)
            assert column == pytest.approx(analytic[:, j], abs=1e-6)

    @given(st.lists(st.integers(-20, 20), min_size=3, max_size=3))
    def test_single_layer_matches_plain_arithmetic(self, state):
        policy = random_policy(5, ("p", "q", "r"), ("u", "v"), hidden=())
        expected = linear_logits(policy.layers[0].weights.tolist(), policy.layers[0].bias.tolist(), state)
        assert policy.forward(tuple(state)) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ===== Action selection =====


class TestSelectAction:
    def test_picks_largest_logit(self):
        policy = make_policy(
            ("f",), ("a", "b", "c"), [(np.array([[0.0], [1.0], [0.0]]), np.array([0.0, 0.0, 0.5]))]
        )
        assert policy.select_action((2,), ("a", "b", "c")) == "b"

    def test_masked_top_logit_is_skipped(self):
        policy = make_policy(
            ("f",), ("a", "b", "c"), [(np.array([[0.0], [1.0], [0.0]]), np.array([0.0, 0.0, 0.5]))]
        )
        assert policy.select_action((2,), ("a", "c")) == "c"

    def test_ties_break_toward_schema_order(self):
        zero = make_policy(("f",), ("a", "b", "c"), [(np.zeros((3, 1)), np.zeros(3))])
        assert zero.select_action((0,), ("b", "c")) == "b"
        assert zero.select_action((0,), ("c", "b")) == "b"

    def test_available_order_never_matters(self):
        policy = random_policy(23, ("f", "g"), ("a", "b", "c", "d"))
        available = ("a", "b", "c", "d")
        chosen = policy.select_action((1, 2), available)
        assert policy.select_action((1, 2), tuple(reversed(available))) == chosen

    def test_action_index_is_built_once(self):
        policy = two_layer_policy()
        assert policy.action_index == {"a": 0, "b": 1}
        assert policy.action_index is policy.action_index

    def test_no_actions_rejected(self):
        with pytest.raises(ValueError, match="no available actions"):
            two_layer_policy().select_action((0, 0), ())

    def test_unknown_action_name_rejected(self):
        with pytest.raises(SchemaMismatchError, match="not in the policy's schema"):
            two_layer_policy().select_action((0, 0), ("a", "zigzag"))


class LogitsAsInputs(NeuralPolicy):
    """A policy whose logits are its inputs, so that a test can give it any logits."""

    def forward(self, states) -> np.ndarray:
        return np.array(states, dtype=np.float64)


class NoForward(NeuralPolicy):
    def forward(self, states) -> np.ndarray:
        raise AssertionError("forward was called")


ACTIONS = ("a", "b", "c", "d")
# Ties (0.0 == -0.0, repeated values), rows that are all -inf, and NaN rows.
SPECIAL_LOGITS = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e308)


@st.composite
def decision_rows(draw) -> list[tuple[list[float], tuple[str, ...]]]:
    """Rows of (logits, offered actions), each action set in any order."""
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        logits = draw(st.lists(st.sampled_from(SPECIAL_LOGITS), min_size=len(ACTIONS), max_size=len(ACTIONS)))
        offered = draw(st.sets(st.sampled_from(ACTIONS), min_size=1))
        rows.append((logits, tuple(draw(st.permutations(sorted(offered))))))
    return rows


class TestPick:
    """``pick`` checks each distinct action set once and keeps its schema indices."""

    @given(decision_rows())
    def test_pick_follows_the_unchecked_rule(self, rows):
        # Twice per row: the first call checks the set, the second reads what
        # it kept. A list is checked on every call.
        policy = LogitsAsInputs(ACTIONS, ACTIONS, ())
        for logits, offered in rows:
            want = pick_in_order(ACTIONS, logits, offered)
            assert [policy.pick(logits, names) for names in (offered, offered, list(offered))] == [want] * 3

    @pytest.mark.parametrize(
        "available, error, message",
        [((), ValueError, "no available actions"), (("a", "zigzag"), SchemaMismatchError, "'zigzag' is not in")],
    )
    def test_a_bad_set_raises_on_every_call(self, available, error, message):
        policy = LogitsAsInputs(ACTIONS, ACTIONS, ())
        assert policy.pick([0.0, 1.0, 0.0, 0.0], ("a", "b")) == "b"
        for container in (tuple, list, tuple):
            with pytest.raises(error, match=message):
                policy.pick([0.0, 1.0, 0.0, 0.0], container(available))

    def test_a_list_is_read_as_it_is_on_each_call(self):
        policy = LogitsAsInputs(ACTIONS, ACTIONS, ())
        offered = ["a", "b"]
        assert policy.pick([0.0, 1.0, 0.0, 0.0], offered) == "b"
        offered[1] = "c"
        assert policy.pick([0.0, 1.0, 0.0, 0.0], offered) == "a"
        offered.append("zigzag")
        with pytest.raises(SchemaMismatchError, match="'zigzag' is not in"):
            policy.pick([0.0, 1.0, 0.0, 0.0], offered)


class TestPickRows:
    @given(decision_rows())
    @example([([0.0, -0.0, 1.0, 1.0], ("d", "c", "b", "a")), ([-np.inf] * 4, ("c", "b"))])
    @example([([np.nan, 1.0, 1.0, 0.0], ("d", "b", "a", "c")), ([1.0, np.nan, 1e308, 1e308], ("b", "d", "c"))])
    def test_equals_pick_on_each_row(self, rows):
        policy = LogitsAsInputs(ACTIONS, ACTIONS, ())
        logits = np.array([row for row, _ in rows], dtype=np.float64)
        offered = [names for _, names in rows]
        available = np.array([[name in names for name in ACTIONS] for names in offered])
        picks = policy.pick_rows(logits, available, offered)
        assert [ACTIONS[i] for i in picks.tolist()] == [policy.pick(row, names) for row, names in rows]

    def test_an_empty_table_takes_no_forward_pass(self):
        policy = NoForward(ACTIONS, ACTIONS, ())
        picks = policy.pick_rows(np.zeros((0, len(ACTIONS))), np.zeros((0, len(ACTIONS)), dtype=bool), ())
        assert picks.shape == (0,)


# ===== Schema checks =====


class TestCheckSchemas:
    def test_matching_schemas_pass(self):
        env = mini_taxi()
        policy = random_policy(1, env.feature_schema, env.action_schema)
        policy.check_schemas(env)

    def test_feature_mismatch(self):
        env = mini_taxi()
        policy = random_policy(1, ("x", "y"), env.action_schema)
        with pytest.raises(SchemaMismatchError, match="features"):
            policy.check_schemas(env)

    def test_action_mismatch(self):
        env = mini_taxi()
        policy = random_policy(1, env.feature_schema, ("go", "wait"))
        with pytest.raises(SchemaMismatchError, match="actions"):
            policy.check_schemas(env)


# ===== Construction =====


class TestMakePolicy:
    def test_arrays_are_read_only(self):
        policy = two_layer_policy()
        with pytest.raises(ValueError, match="read-only"):
            policy.layers[0].weights[0, 0] = 9.0

    def test_layer_dimensions_exposed(self):
        policy = two_layer_policy()
        assert policy.layers[0].weights.shape == (2, 2)

    @pytest.mark.parametrize(
        "layers, fragment",
        [
            ([], "at least one layer"),
            ([(np.zeros(3), np.zeros(3))], "2-dimensional"),
            ([(np.zeros((2, 2)), np.zeros(3))], "bias has shape"),
            ([(np.zeros((2, 3)), np.zeros(2))], "columns, expected 2"),
            ([(np.zeros((3, 2)), np.zeros(3))], "logits, action schema has 2"),
        ],
    )
    def test_dimension_chain_errors(self, layers, fragment):
        with pytest.raises(PolicyFormatError, match=fragment):
            make_policy(("f1", "f2"), ("a", "b"), layers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_non_finite_values_rejected(self, bad, where):
        w, b = np.ones((2, 2)), np.zeros(2)
        (w if where == "weights" else b)[1] = bad
        with pytest.raises(PolicyFormatError, match="layer 2: weights and biases must be finite"):
            make_policy(("f1", "f2"), ("a", "b"), [(np.eye(2), np.zeros(2)), (w, b)])

    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_integer_too_large_for_a_float_is_not_finite(self, where):
        w, b = [[1, 0], [0, 1]], [0, 0]
        (w[1] if where == "weights" else b)[1] = -(10**400)
        with pytest.raises(PolicyFormatError, match="^layer 2: weights and biases must be finite"):
            make_policy(("f1", "f2"), ("a", "b"), [(np.eye(2), np.zeros(2)), (w, b)])

    @pytest.mark.parametrize(
        "entry",
        [[1.0, 2.0, 3.0], [1.0, [2.0]], "x", {"w": 1.0}],
        ids=["ragged", "nested", "string", "object"],
    )
    @pytest.mark.parametrize("where", ["w", "b"])
    def test_an_array_numpy_cannot_convert_is_named_by_layer_and_name(self, entry, where):
        # NumPy's own ValueError or TypeError must not escape.
        w, b = [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]
        (w if where == "w" else b)[1] = entry
        with pytest.raises(PolicyFormatError) as caught:
            make_policy(("f1", "f2"), ("a", "b"), [(np.eye(2), np.zeros(2)), (w, b)])
        assert str(caught.value) == f"layer 2: '{where}' must be an array of numbers"


# ===== Serialization =====


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        policy = random_policy(77, ("a", "b", "c"), ("x", "y", "z"), hidden=(6,))
        again = load_policy(dump_policy(policy))
        assert again.feature_names == policy.feature_names
        assert again.action_names == policy.action_names
        assert len(again.layers) == len(policy.layers)
        for mine, theirs in zip(policy.layers, again.layers):
            assert np.array_equal(mine.weights, theirs.weights)
            assert np.array_equal(mine.bias, theirs.bias)

    def test_dump_is_stable(self):
        policy = random_policy(78, ("a",), ("x", "y"))
        text = dump_policy(policy)
        assert dump_policy(load_policy(text)) == text

    def test_awkward_floats_survive(self):
        w = np.array([[0.1, -0.0, 1e-17]])
        policy = make_policy(("a", "b", "c"), ("x",), [(w, np.array([1e300]))])
        again = load_policy(dump_policy(policy))
        assert np.array_equal(again.layers[0].weights, w)
        assert str(again.layers[0].weights[0, 1]) == "-0.0"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("{nope", "line 1"),
            ("[1, 2]", "top level"),
            ('{"features": ["f"], "actions": ["a"]}', "missing top-level key 'layers'"),
            (
                '{"features": ["f"], "actions": ["a"], "layers": [], "extra": 1}',
                "unknown top-level keys",
            ),
            ('{"features": [], "actions": ["a"], "layers": []}', "non-empty list of strings"),
            ('{"features": ["f"], "actions": ["a"], "layers": []}', "non-empty list"),
            (
                '{"features": ["f"], "actions": ["a"], "layers": [{"w": [[1]]}]}',
                "keys 'w' and 'b'",
            ),
            (
                '{"features": ["f"], "actions": ["a"], "layers": [{"w": [[1], [1, 2]], "b": [0, 0]}]}',
                "rectangular",
            ),
            (
                '{"features": ["f"], "actions": ["a"], "layers": [{"w": [[true]], "b": [0]}]}',
                "rectangular",
            ),
            (
                '{"features": ["f"], "actions": ["a"], "layers": [{"w": [[1]], "b": "zero"}]}',
                "list of numbers",
            ),
        ],
    )
    def test_document_errors(self, text, fragment):
        with pytest.raises(PolicyFormatError, match=fragment):
            load_policy(text)

    @pytest.mark.parametrize(
        "w, b",
        [("[[NaN]]", "[0]"), ("[[1]]", "[Infinity]"), ("[[-Infinity]]", "[0]"), ("[[NaN]]", "[Infinity]")],
    )
    def test_non_finite_literals_rejected(self, w, b):
        text = f'{{"features": ["f"], "actions": ["a"], "layers": [{{"w": {w}, "b": {b}}}]}}'
        with pytest.raises(PolicyFormatError, match="must be finite") as caught:
            load_policy(text)
        assert caught.value.exit_code == 2

    @pytest.mark.parametrize(
        "w, b, fragment",
        [
            ("[[%s]]" % ("1" * 400), "[0]", "^layer 1: weights and biases must be finite"),
            ("[[1]]", "[-%s]" % ("1" * 400), "^layer 1: weights and biases must be finite"),
            ("[[%s]]" % ("1" * 5000), "[0]", "digits|must be finite"),
        ],
        ids=["weight", "bias", "past-digit-limit"],
    )
    def test_integer_too_large_for_a_float(self, w, b, fragment):
        text = f'{{"features": ["f"], "actions": ["a"], "layers": [{{"w": {w}, "b": {b}}}]}}'
        with pytest.raises(PolicyFormatError, match=fragment) as caught:
            load_policy(text)
        assert caught.value.exit_code == 2

    def test_duplicate_key_rejected(self):
        text = '{"features": ["f"], "features": ["g"], "actions": ["a"], "layers": [{"w": [[1]], "b": [0]}]}'
        with pytest.raises(PolicyFormatError, match="duplicate key"):
            load_policy(text)

    @pytest.mark.parametrize(
        "features, actions, key",
        [(["x", "x"], ["a", "b"], "features"), (["x", "y"], ["a", "a"], "actions")],
    )
    def test_repeated_name_rejected(self, features, actions, key):
        doc = {"features": features, "actions": actions, "layers": [{"w": [[1, 0], [0, 1]], "b": [0, 0]}]}
        with pytest.raises(PolicyFormatError, match=f"^'{key}' contains duplicates$") as caught:
            load_policy(json.dumps(doc))
        assert caught.value.exit_code == 2

    def test_dimension_error_names_the_layer(self):
        doc = {
            "features": ["f"],
            "actions": ["a", "b"],
            "layers": [
                {"w": [[1.0], [2.0]], "b": [0.0, 0.0]},
                {"w": [[1.0, 2.0, 3.0]], "b": [0.0]},
            ],
        }
        with pytest.raises(PolicyFormatError, match="layer 2"):
            load_policy(json.dumps(doc))

    def test_exit_code(self):
        assert PolicyFormatError("x").exit_code == 2
