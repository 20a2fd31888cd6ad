"""A rebuild from an original chain's rows equals a full build, and asks less.

``rebuild_induced_dtmc`` reuses each row of an original build whose chosen
action the new policy keeps, and calls the environment only for flipped
states and states the original never reached. Whatever it reuses, its
result must be that of ``build_induced_dtmc`` of the new policy: the same
chain field by field, or the same error with the same counts.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunecheck import (
    AvoidanceConfig,
    BuildLimits,
    Distribution,
    EnvironmentModel,
    LimitExceededError,
    MiniTaxiConfig,
    ModelSemanticError,
    PruneSpec,
    avoidance,
    build_induced_dtmc,
    check,
    load_explicit_model,
    make_policy,
    mini_taxi,
    parse_property,
    prune,
)
from prunecheck.environments import AVOIDANCE_ACTIONS, AVOIDANCE_FEATURES, TAXI_ACTIONS, TAXI_FEATURES
from prunecheck.induced import rebuild_induced_dtmc
from prunecheck.workflow import _Decisions

from .conftest import random_policy

# ===== Comparing a rebuild with a full build =====


def changed_actions(original, policy, extra=()):
    """The new action on each state whose pick changes, as the workflow decides it and a rebuild takes it.

    ``extra`` original state indices are given their pick as well, which
    must not change the result: a kept action is fetched again.
    """
    decisions = _Decisions.of(original, range(original.stats.states), policy)
    picks = decisions.picks(policy)
    changed = picks != decisions.chosen
    changed[list(extra)] = True
    states = original.dtmc.state_vectors
    return {states[s]: policy.action_names[picks[s]] for s in np.flatnonzero(changed)}


def fields(build) -> tuple:
    dtmc = build.dtmc
    return (
        dtmc.state_vectors,
        dtmc.state_labels,
        dtmc.indptr.tolist(),
        dtmc.indices.tolist(),
        dtmc.probs.tolist(),
        dtmc.exact_probs,
        build.chosen_actions,
        build.available_actions,
        build.stats,
    )


def outcome(make) -> tuple:
    """A build's fields, or the type, message and counts of the error it raised."""
    try:
        return ("built", fields(make()))
    except LimitExceededError as err:
        return (type(err), str(err), err.states_seen, err.transitions_seen)
    except ModelSemanticError as err:
        return (type(err), str(err))


def assert_rebuild_is_full_build(env, original_policy, policy, limits=None, extra=()):
    original = build_induced_dtmc(env, original_policy)
    changed = changed_actions(original, policy, extra)
    rebuilt = outcome(lambda: rebuild_induced_dtmc(original, env, policy, changed, limits))
    assert rebuilt == outcome(lambda: build_induced_dtmc(env, policy, limits))
    return rebuilt


# ===== Builtins under the workflow's prunes =====


def prune_specs(layers: int, features: tuple[str, ...]):
    fractions = st.sampled_from([0.25, 0.5, 0.75, 1.0])
    return st.one_of(
        st.builds(lambda l, f: PruneSpec("l1", l, f), st.integers(1, layers), fractions),
        st.builds(lambda l, f, s: PruneSpec("random", l, f, s), st.integers(1, layers), fractions, st.integers(0, 9)),
        st.builds(lambda f: PruneSpec("feature", feature=f), st.sampled_from(features)),
    )


avoidance_envs = st.builds(
    lambda w, h, p: avoidance(AvoidanceConfig(width=w, height=h, obstacle_move_prob=p)),
    st.integers(2, 4),
    st.integers(2, 4),
    st.sampled_from([0.25, 0.5, 1 / 3]),
)


@settings(max_examples=60, deadline=None)
@given(avoidance_envs, st.integers(0, 50), prune_specs(2, AVOIDANCE_FEATURES))
def test_avoidance_prunes(env, seed, spec):
    policy = random_policy(seed, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))
    assert_rebuild_is_full_build(env, policy, prune(policy, spec)[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 50), prune_specs(2, TAXI_FEATURES))
def test_mini_taxi_prunes(seed, spec):
    env = mini_taxi(MiniTaxiConfig(width=3, height=3, max_fuel=5))
    policy = random_policy(seed, TAXI_FEATURES, TAXI_ACTIONS, hidden=(6,))
    assert_rebuild_is_full_build(env, policy, prune(policy, spec)[0])


@settings(max_examples=40, deadline=None)
@given(avoidance_envs, st.integers(0, 50), st.integers(51, 99), st.data())
def test_another_policy_with_extra_picks_and_small_caps(env, seed, other, data):
    """The rows of any policy serve any other; a kept state may be picked again."""
    policy = random_policy(seed, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))
    states = build_induced_dtmc(env, policy).dtmc.num_states
    extra = data.draw(st.sets(st.integers(0, states - 1)))
    limits = BuildLimits(max_states=data.draw(st.integers(1, 60)), max_transitions=data.draw(st.integers(1, 150)))
    pruned = random_policy(other, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))
    assert_rebuild_is_full_build(env, policy, pruned, limits, extra)


# ===== Explicit models with exact and float rows =====


@st.composite
def explicit_models(draw):
    """A document on states 0..n-1 (feature "pos") with actions "a" and "b".

    Each row is written in fraction strings or, one time in four, in JSON
    floats, so a chain keeps its rationals only while it avoids every float
    row.
    """
    n = draw(st.integers(2, 6))
    states = []
    for s in range(n):
        act = {}
        for action in draw(st.sampled_from([["a", "b"], ["a", "b"], ["a"], ["b"]])):
            targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
            weights = draw(st.lists(st.integers(1, 4), min_size=len(targets), max_size=len(targets)))
            total = sum(weights)
            exact = draw(st.sampled_from([True, True, True, False]))
            act[action] = [
                {"to": [t], "p": str(Fraction(w, total)) if exact else w / total} for t, w in zip(targets, weights)
            ]
        states.append({"s": [s], "labels": ["goal"] if s == n - 1 else [], "act": act})
    return load_explicit_model(json.dumps({"features": ["pos"], "actions": ["a", "b"], "initial": [0], "states": states}))


def linear_policy(weights, bias):
    return make_policy(("pos",), ("a", "b"), [(np.array(weights, dtype=float).reshape(2, 1), np.array(bias, dtype=float))])


linear_policies = st.builds(
    linear_policy,
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(explicit_models(), linear_policies, linear_policies, st.integers(1, 7), st.integers(1, 20))
def test_explicit_models_with_exact_and_float_rows(env, policy, other, max_states, max_transitions):
    assert_rebuild_is_full_build(env, policy, other)
    assert_rebuild_is_full_build(env, policy, other, BuildLimits(max_states, max_transitions))


def trap_model() -> EnvironmentModel:
    """The original reaches one float row, (2,), which the pruned chain avoids.

    State (1,) chooses between "a", to (2,), and "b", to (3,); (3,) splits
    evenly between (1,) and (4,), and (4,) is absorbing. Every row is written
    in fractions but (2,)'s.
    """
    rows = {
        1: {"a": [{"to": [2], "p": "1"}], "b": [{"to": [3], "p": "1"}]},
        2: {"a": [{"to": [4], "p": 0.5}, {"to": [1], "p": 0.5}]},
        3: {"a": [{"to": [4], "p": "1/2"}, {"to": [1], "p": "1/2"}]},
        4: {"a": [{"to": [4], "p": "1"}]},
    }
    states = [{"s": [s], "act": act} for s, act in rows.items()]
    return load_explicit_model(json.dumps({"features": ["pos"], "actions": ["a", "b"], "initial": [1], "states": states}))


def test_a_kept_row_keeps_its_rationals_when_the_original_chain_lost_them():
    """The original chain has no rationals; the pruned chain keeps all of its own.

    The original picks "a" at (1,) (logit pos - 0.5 against 0). Zeroing the
    weight picks "b" there, and (4,) is kept with no environment call: its
    original row must bring the rationals the original chain dropped.
    """
    env = trap_model()
    policy = linear_policy([1, 0], [-0.5, 0])
    pruned = prune(policy, PruneSpec("l1", 1, 1.0))[0]
    assert build_induced_dtmc(env, policy).dtmc.exact_probs is None
    _, built = assert_rebuild_is_full_build(env, policy, pruned)
    half = Fraction(1, 2)
    assert built[0] == ((1,), (3,), (4,))
    assert built[5] == (Fraction(1), half, half, Fraction(1))


def test_a_deadlock_in_a_newly_reached_state():
    """Only the pruned policy reaches (2,), which offers no action."""

    def successors(state, action):
        return Distribution((((1,) if action == "a" else (2,), 1.0),))

    env = EnvironmentModel(
        feature_schema=("pos",),
        action_schema=("a", "b"),
        initial=(0,),
        available_actions=lambda s: {(0,): ("a", "b"), (1,): ("a",)}.get(s, ()),
        successors=successors,
        labels=lambda s: frozenset(),
    )
    policy = linear_policy([0, 0], [1, 0])
    pruned = linear_policy([0, 0], [0, 1])
    result = assert_rebuild_is_full_build(env, policy, pruned)
    assert result == (ModelSemanticError, "deadlock at state [2]: empty action set")


# ===== Environment calls =====


def counted(env):
    """``env`` with its callables counting their calls by state."""
    calls = {"available_actions": Counter(), "successors": Counter(), "labels": Counter()}

    def counting(name):
        fn = getattr(env, name)

        def call(state, *args):
            calls[name][state] += 1
            return fn(state, *args)

        return call

    return replace(env, **{name: counting(name) for name in calls}), calls


def written_in_fractions(env) -> EnvironmentModel:
    """The reachable part of a builtin, every probability a fraction string."""
    states, seen, frontier = [], {env.initial}, [env.initial]
    while frontier:
        state = frontier.pop()
        act = {}
        for action in env.available_actions(state):
            branches = env.successors(state, action).support
            act[action] = [{"to": list(t), "p": str(Fraction(p))} for t, p in branches]
            frontier.extend(t for t, _ in branches if t not in seen)
            seen.update(t for t, _ in branches)
        states.append({"s": list(state), "labels": sorted(env.labels(state)), "act": act})
    doc = {
        "features": list(env.feature_schema),
        "actions": list(env.action_schema),
        "initial": list(env.initial),
        "states": states,
    }
    return load_explicit_model(json.dumps(doc))


@pytest.mark.parametrize("exact", [False, True])
def test_only_flipped_and_new_states_call_the_environment(exact):
    """Each flipped or newly reached state is asked once, kept states not at all.

    That holds for the builtin, whose chain has no rationals, and for the
    same model written in fractions, whose chain has them.
    """
    env = avoidance(AvoidanceConfig(width=4, height=4))
    if exact:
        env = written_in_fractions(env)
    policy = random_policy(3, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))
    pruned = prune(policy, PruneSpec("l1", 1, 0.5))[0]
    original = build_induced_dtmc(env, policy)
    changed = changed_actions(original, pruned)
    env, calls = counted(env)
    rebuilt = rebuild_induced_dtmc(original, env, pruned, changed)
    assert (rebuilt.dtmc.exact_probs is not None) == exact

    states = set(rebuilt.dtmc.state_vectors)
    new = states - set(original.dtmc.state_vectors)
    assert changed and new and env.initial not in changed
    assert calls["successors"] == Counter((states & set(changed)) | new)
    assert calls["available_actions"] == calls["labels"] == Counter(new)


# ===== Distribution rationals must be its floats =====


def test_a_walk_whose_rationals_are_not_its_floats_is_rejected(step_policy):
    """A fair walk on 0..4 from 2 whose inner rows claim 1/3 and 2/3.

    Trusted, those rationals checked ``P=? [F "goal"]`` as exactly 0.2,
    where the floats give 0.5.
    """

    def walk(exact):
        def successors(state, action):
            c = state[0]
            if c in (0, 4):
                return Distribution((((c,), 1.0),), (Fraction(1),))
            return Distribution((((c + 1,), 0.5), ((c - 1,), 0.5)), exact)

        return EnvironmentModel(
            feature_schema=("pos",),
            action_schema=("step",),
            initial=(2,),
            available_actions=lambda s: ("step",),
            successors=successors,
            labels=lambda s: frozenset({"goal"}) if s == (4,) else frozenset(),
        )

    with pytest.raises(ValueError, match=r"^exact probability 1/3 is not 0\.5 for target \(3,\)$"):
        build_induced_dtmc(walk((Fraction(1, 3), Fraction(2, 3))), step_policy)
    half = Fraction(1, 2)
    result = check(build_induced_dtmc(walk((half, half)), step_policy).dtmc, parse_property('P=? [F "goal"]'))
    assert result.value == result.lower == result.upper == 0.5
