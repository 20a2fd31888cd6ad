"""Closed-loop chain construction: ordering, limits, and rule fidelity."""

from __future__ import annotations

import dataclasses
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecheck import (
    BuildLimits,
    Distribution,
    EnvironmentModel,
    LimitExceededError,
    ModelSemanticError,
    SchemaMismatchError,
    avoidance,
    build_induced_dtmc,
    induced_to_explicit,
    load_explicit_model,
    make_policy,
    mini_taxi,
)
from prunecheck.environments import AVOIDANCE_ACTIONS, AVOIDANCE_FEATURES, TAXI_ACTIONS, TAXI_FEATURES

from .conftest import random_policy
from .oracles import (
    argmax_in_schema,
    avoid_induced_chain,
    closure,
    linear_logits,
    taxi_actions,
    taxi_step,
)


def branching_env(rows: dict, initial=(0,)) -> EnvironmentModel:
    """One-action environment whose successor rows are given literally."""
    return EnvironmentModel(
        feature_schema=("pos",),
        action_schema=("step",),
        initial=initial,
        available_actions=lambda s: ("step",) if s in rows else (),
        successors=lambda s, a: Distribution(tuple(rows[s])),
        labels=lambda s: frozenset(),
    )


# ===== Fixture chains =====


class TestFixtureChains:
    def test_chain3_rebuilds_exactly(self, chain3_env, chain3, step_policy):
        result = build_induced_dtmc(chain3_env, step_policy)
        assert result.dtmc.state_vectors == chain3.state_vectors
        assert result.dtmc.state_labels == chain3.state_labels
        assert result.dtmc.rows == chain3.rows

    def test_loop_rebuilds_exactly(self, loop_env, loop, step_policy):
        result = build_induced_dtmc(loop_env, step_policy)
        assert result.dtmc.rows == loop.rows

    def test_two_coin_rebuilds_exactly(self, two_coin_env, two_coin, step_policy):
        result = build_induced_dtmc(two_coin_env, step_policy)
        assert result.dtmc.state_vectors == two_coin.state_vectors
        assert result.dtmc.rows == two_coin.rows

    def test_chosen_actions_and_stats(self, chain3_env, step_policy):
        result = build_induced_dtmc(chain3_env, step_policy)
        assert result.chosen_actions == ("step", "step", "step")
        assert result.stats.states == result.dtmc.num_states == 3
        assert result.stats.transitions == result.dtmc.num_transitions == 4
        assert result.stats.duration_ms >= 0.0

    def test_state_index_matches_vector_order(self, two_coin_env, step_policy):
        result = build_induced_dtmc(two_coin_env, step_policy)
        for vector, i in result.state_index.items():
            assert result.dtmc.state_vectors[i] == vector
        assert len(result.state_index) == result.dtmc.num_states


# ===== Discovery order =====


class TestDiscoveryOrder:
    def test_breadth_first_not_depth_first(self, step_policy):
        env = branching_env(
            {
                (0,): [((1,), 0.5), ((2,), 0.5)],
                (1,): [((3,), 1.0)],
                (2,): [((3,), 1.0)],
                (3,): [((3,), 1.0)],
            }
        )
        result = build_induced_dtmc(env, step_policy)
        # Depth-first would visit (3,) before (2,).
        assert result.dtmc.state_vectors == ((0,), (1,), (2,), (3,))

    def test_numbering_follows_row_mention_order(self, step_policy):
        env = branching_env(
            {
                (0,): [((2,), 0.5), ((1,), 0.5)],
                (1,): [((1,), 1.0)],
                (2,): [((2,), 1.0)],
            }
        )
        result = build_induced_dtmc(env, step_policy)
        assert result.dtmc.state_vectors == ((0,), (2,), (1,))
        assert result.state_index == {(0,): 0, (2,): 1, (1,): 2}

    def test_rebuild_is_deterministic(self, step_policy):
        env = avoidance()
        policy = random_policy(9, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))
        first = build_induced_dtmc(env, policy)
        second = build_induced_dtmc(env, policy)
        assert first.dtmc.state_vectors == second.dtmc.state_vectors
        assert first.dtmc.rows == second.dtmc.rows
        assert first.chosen_actions == second.chosen_actions


# ===== Failure modes =====


class TestFailureModes:
    def test_reachable_deadlock_raises(self, step_policy):
        env = branching_env({(0,): [((1,), 1.0)]})
        with pytest.raises(ModelSemanticError, match=r"deadlock at state \[1\]"):
            build_induced_dtmc(env, step_policy)

    def test_schema_mismatch_raises(self, chain3_env):
        policy = make_policy(("x", "y"), ("step",), [(np.zeros((1, 2)), np.zeros(1))])
        with pytest.raises(SchemaMismatchError):
            build_induced_dtmc(chain3_env, policy)

    def test_state_cap(self, chain3_env, step_policy):
        with pytest.raises(LimitExceededError, match="max_states=2") as exc:
            build_induced_dtmc(chain3_env, step_policy, BuildLimits(max_states=2))
        assert exc.value.exit_code == 4
        assert exc.value.states_seen == 2
        assert exc.value.transitions_seen == 2

    def test_transition_cap(self, chain3_env, step_policy):
        with pytest.raises(LimitExceededError, match="max_transitions=3") as exc:
            build_induced_dtmc(chain3_env, step_policy, BuildLimits(max_transitions=3))
        assert exc.value.states_seen == 3
        assert exc.value.transitions_seen == 4

    def test_exact_fit_passes(self, chain3_env, step_policy):
        limits = BuildLimits(max_states=3, max_transitions=4)
        result = build_induced_dtmc(chain3_env, step_policy, limits)
        assert result.stats.states == 3
        assert result.stats.transitions == 4


# ===== Rule fidelity =====


class TestAvoidanceFidelity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_rewritten_rules(self, seed):
        env = avoidance()
        policy = random_policy(seed, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=())
        result = build_induced_dtmc(env, policy)

        weights = policy.layers[0].weights.tolist()
        bias = policy.layers[0].bias.tolist()
        states, rows = avoid_induced_chain(weights, bias, 3, 3, (2, 2), 0.5)

        assert sorted(result.dtmc.state_vectors) == states
        for i, vector in enumerate(result.dtmc.state_vectors):
            built = sorted(
                (result.dtmc.state_vectors[j], p) for j, p in result.dtmc.rows[i]
            )
            assert built == sorted(rows[vector])

    def test_labels_follow_the_collision_rule(self):
        env = avoidance()
        policy = random_policy(17, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(5,))
        result = build_induced_dtmc(env, policy)
        for vector, labels in zip(result.dtmc.state_vectors, result.dtmc.state_labels):
            ax, ay, ox, oy = vector
            assert (("collision" in labels)) == ((ax, ay) == (ox, oy))


class TestTaxiFidelity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_replay_the_environment(self, seed):
        env = mini_taxi()
        policy = random_policy(seed, TAXI_FEATURES, TAXI_ACTIONS, hidden=(6,))
        result = build_induced_dtmc(env, policy)
        for i, vector in enumerate(result.dtmc.state_vectors):
            action = policy.select_action(vector, env.available_actions(vector))
            assert result.chosen_actions[i] == action
            expected = tuple(
                (result.state_index[target], p)
                for target, p in env.successors(vector, action).support
            )
            assert result.dtmc.rows[i] == expected

    def test_reachable_set_matches_independent_walk(self):
        env = mini_taxi()
        policy = random_policy(3, TAXI_FEATURES, TAXI_ACTIONS, hidden=())
        result = build_induced_dtmc(env, policy)

        weights = policy.layers[0].weights.tolist()
        bias = policy.layers[0].bias.tolist()

        def expand(state):
            available = taxi_actions(state, 4, 4, (3, 3), (3, 0), (0, 0))
            picked = argmax_in_schema(
                linear_logits(weights, bias, state), list(TAXI_ACTIONS), available
            )
            yield taxi_step(state, picked, 8, 2, (0, 0))

        expected = closure((0, 0, 8, 0, 0), expand)
        assert set(result.dtmc.state_vectors) == expected


# ===== Equivalence with a per-state builder =====

GRAPH_FEATURES = ("x", "y")
GRAPH_ACTIONS = ("a", "b", "c")


def per_state_build(env, policy, limits):
    """The builder with a FIFO frontier and one ``select_action`` call (one
    one-state forward pass) per state, written out apart from the package."""
    policy.check_schemas(env)
    index = {env.initial: 0}
    order = [env.initial]
    frontier = deque([env.initial])
    rows, chosen, labels = [], [], []
    transitions = 0
    while frontier:
        state = frontier.popleft()
        available = env.available_actions(state)
        if not available:
            raise ModelSemanticError(f"deadlock at state {list(state)}: empty action set")
        action = policy.select_action(state, available)
        dist = env.successors(state, action)
        transitions += len(dist.support)
        if transitions > limits.max_transitions:
            raise LimitExceededError(
                f"transition count exceeds max_transitions={limits.max_transitions}",
                states_seen=len(index),
                transitions_seen=transitions,
            )
        row = []
        for target, prob in dist.support:
            if target not in index:
                if len(index) >= limits.max_states:
                    raise LimitExceededError(
                        f"state count exceeds max_states={limits.max_states}",
                        states_seen=len(index),
                        transitions_seen=transitions,
                    )
                index[target] = len(index)
                order.append(target)
                frontier.append(target)
            row.append((index[target], prob))
        rows.append(tuple(row))
        chosen.append(action)
        labels.append(env.labels(state))
    return tuple(order), tuple(rows), tuple(labels), tuple(chosen)


def package_build(env, policy, limits):
    result = build_induced_dtmc(env, policy, limits)
    dtmc = result.dtmc
    return dtmc.state_vectors, dtmc.rows, dtmc.state_labels, result.chosen_actions


def outcome(build, env, policy, limits):
    """The build's result or error, and every environment call it made in order."""
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append((name, args))
            return fn(*args)

        return call

    env = dataclasses.replace(
        env, **{name: recorded(name, getattr(env, name)) for name in ("available_actions", "successors", "labels")}
    )
    try:
        return build(env, policy, limits), calls
    except LimitExceededError as err:
        return (type(err), str(err), err.states_seen, err.transitions_seen), calls
    except ModelSemanticError as err:
        return (type(err), str(err)), calls


def graph_env(available: dict, successors: dict, initial=(0, 0)) -> EnvironmentModel:
    """Environment given by tables; states missing from ``available`` deadlock."""
    return EnvironmentModel(
        feature_schema=GRAPH_FEATURES,
        action_schema=GRAPH_ACTIONS,
        initial=initial,
        available_actions=lambda s: available.get(s, ()),
        successors=lambda s, a: Distribution(tuple(successors[s, a])),
        labels=lambda s: frozenset({"even"}) if sum(s) % 2 == 0 else frozenset(),
    )


@st.composite
def graph_envs(draw) -> EnvironmentModel:
    """Random tables: available actions in any order, some deadlocks."""
    states = draw(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=10, unique=True)
    )
    available, successors = {}, {}
    for state in states:
        if state != states[0] and draw(st.integers(0, 9)) == 0:
            continue
        actions = tuple(draw(st.lists(st.sampled_from(GRAPH_ACTIONS), min_size=1, max_size=3, unique=True)))
        available[state] = actions
        for action in actions:
            targets = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))
            successors[state, action] = [(t, 1.0 / len(targets)) for t in targets]
    return graph_env(available, successors, initial=states[0])


# Zeros give exact ties; 1e300 overflows to +-inf in a hidden layer and to
# NaN once +inf and -inf meet.
WEIGHT_VALUES = (0.0, 1.0, -1.0, 0.5, 1e300, -1e300)


@st.composite
def graph_policies(draw):
    hidden = draw(st.lists(st.integers(1, 3), max_size=1))
    sizes = [len(GRAPH_FEATURES), *hidden, len(GRAPH_ACTIONS)]
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights = draw(st.lists(st.sampled_from(WEIGHT_VALUES), min_size=fan_in * fan_out, max_size=fan_in * fan_out))
        bias = draw(st.lists(st.sampled_from(WEIGHT_VALUES), min_size=fan_out, max_size=fan_out))
        layers.append((np.array(weights).reshape(fan_out, fan_in), np.array(bias)))
    return make_policy(GRAPH_FEATURES, GRAPH_ACTIONS, layers)


def zero_policy():
    """All logits tie, so the earliest available action in the schema wins."""
    return make_policy(GRAPH_FEATURES, GRAPH_ACTIONS, [(np.zeros((3, 2)), np.zeros(3))])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLevelOrderEquivalence:
    """Level-order exploration with one forward pass per level gives what a
    per-state builder gives: the same chain, the same chosen actions, the
    same environment calls in the same order, and the same error."""

    @given(env=graph_envs(), policy=graph_policies(), max_states=st.integers(1, 12), max_transitions=st.integers(1, 30))
    def test_random_tables_and_weights(self, env, policy, max_states, max_transitions):
        limits = BuildLimits(max_states=max_states, max_transitions=max_transitions)
        assert outcome(package_build, env, policy, limits) == outcome(per_state_build, env, policy, limits)

    def test_exact_ties_and_overflowing_logits(self):
        big = 10**9

        def cell(x, y):
            return ((x + 2) % 5 - 2) * big, ((y + 2) % 5 - 2) * big

        grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
        states = sorted(cell(x, y) for x, y in grid)
        # Availability in reverse or rotated schema order: ties must still
        # go to the earliest action in the schema.
        available = {
            cell(x, y): GRAPH_ACTIONS[::-1] if (x + y) % 2 else GRAPH_ACTIONS[1:] + GRAPH_ACTIONS[:1] for x, y in grid
        }
        successors = {}
        for x, y in grid:
            for k, action in enumerate(GRAPH_ACTIONS):
                # East, north, and k steps diagonally (a self-loop for k = 0).
                targets = list(dict.fromkeys([cell(x + 1, y), cell(x, y + 1), cell(x + k, y + k)]))
                successors[cell(x, y), action] = [(t, 1.0 / len(targets)) for t in targets]
        env = graph_env(available, successors)
        # 1e300 times a coordinate of 1e9 overflows the hidden layer to inf;
        # inf - inf and 0 * inf give NaN logits. Where both hidden units are
        # 0 the three logits tie exactly.
        hidden = (np.array([[1e300, 0.0], [1e300, 1e300]]), np.array([0.0, 0.0]))
        out = (np.array([[1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]), np.array([0.0, 0.0, 0.0]))
        overflowing = make_policy(GRAPH_FEATURES, GRAPH_ACTIONS, [hidden, out])
        logits = overflowing.forward(states)
        assert np.isposinf(logits).any() and np.isnan(logits).any() and (logits == 0.0).all(axis=1).any()
        for policy in (zero_policy(), overflowing):
            got = outcome(package_build, env, policy, BuildLimits())
            assert got == outcome(per_state_build, env, policy, BuildLimits())
            assert sorted(got[0][0]) == states

    @pytest.mark.parametrize("deadlock_first", [False, True])
    @pytest.mark.parametrize("limits", [BuildLimits(max_states=3), BuildLimits(max_transitions=3)])
    def test_deadlock_and_overflow_in_one_level(self, deadlock_first, limits):
        # Level 1 holds (1, 0) and (2, 0): one deadlocks, the other's row
        # breaks the cap. Whichever comes first in the level decides.
        grows, stuck = ((2, 0), (1, 0)) if deadlock_first else ((1, 0), (2, 0))
        available = {(0, 0): ("a",), grows: ("a",)}
        successors = {
            ((0, 0), "a"): [((1, 0), 0.5), ((2, 0), 0.5)],
            (grows, "a"): [((3, 0), 0.5), ((4, 0), 0.5)],
        }
        env = graph_env(available, successors)
        got = outcome(package_build, env, zero_policy(), limits)
        assert got == outcome(per_state_build, env, zero_policy(), limits)
        error = got[0]
        if deadlock_first:
            assert error == (ModelSemanticError, "deadlock at state [1, 0]: empty action set")
        else:
            assert error[0] is LimitExceededError
            assert error[2:] == (3, 4)


# ===== Export =====


class TestExport:
    def test_round_trips_through_the_explicit_loader(self, two_coin_env, two_coin, step_policy):
        built = build_induced_dtmc(two_coin_env, step_policy).dtmc
        text = induced_to_explicit(built, ("pos",))

        reloaded_env = load_explicit_model(text)
        pi_policy = make_policy(("pos",), ("pi",), [(np.zeros((1, 1)), np.zeros(1))])
        round_tripped = build_induced_dtmc(reloaded_env, pi_policy).dtmc

        assert round_tripped.state_vectors == built.state_vectors
        assert round_tripped.state_labels == built.state_labels
        assert round_tripped.rows == built.rows

    def test_document_shape(self, chain3_env, step_policy):
        built = build_induced_dtmc(chain3_env, step_policy).dtmc
        doc = json.loads(induced_to_explicit(built, ("pos",)))
        assert doc["actions"] == ["pi"]
        assert doc["initial"] == [0]
        assert [s["s"] for s in doc["states"]] == [[0], [1], [2]]
        assert "labels" not in doc["states"][0]
        assert doc["states"][1]["labels"] == ["goal"]
        assert all(set(s["act"]) == {"pi"} for s in doc["states"])
