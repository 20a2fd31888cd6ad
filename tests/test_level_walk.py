"""The level-by-level walk of builtin models against the state-by-state walk.

``validate_model`` walks a model with an ``expansion`` one breadth-first
level at a time over arrays, and any other model one state at a time over
its callables. Setting ``expansion`` to None forces the second walk on the
same model, so the two must agree on everything: counts, reachable states,
violations in order, and where and how a state cap trips. The level walk
trusts its rows and checks none, so the rules for broken rows are tested
on the state walk alone.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunecheck
from prunecheck import (
    AvoidanceConfig,
    Distribution,
    EnvironmentModel,
    LimitExceededError,
    MiniTaxiConfig,
    ValidationReport,
    avoidance,
    from_uri,
    mini_taxi,
    validate_model,
)
from prunecheck.environments import _BUILTINS
from prunecheck.model import LEVEL_WALK_MAX_CELLS, Expansion, _first_mentions


def outcome(env: EnvironmentModel, cap: int) -> tuple:
    """A walk's report, or the message and counts of the cap it tripped."""
    try:
        report = validate_model(env, max_states=cap)
    except LimitExceededError as err:
        return ("limit", str(err), err.states_seen, err.transitions_seen)
    return ("report", report.states, report.transitions, report.violations, report.reachable)


def assert_walks_agree(env: EnvironmentModel) -> None:
    scalar = replace(env, expansion=None)
    report = validate_model(env)
    assert outcome(env, report.states) == outcome(scalar, report.states)
    for cap in range(1, report.states + 1):
        assert outcome(env, cap) == outcome(scalar, cap), cap


# ===== Builtin configs =====


def cells(width: int, height: int):
    return st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))


@st.composite
def avoidance_configs(draw) -> AvoidanceConfig:
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return AvoidanceConfig(
        width=width,
        height=height,
        obstacle_start=draw(cells(width, height)),
        obstacle_move_prob=draw(st.sampled_from([0.0, 1.0, 0.25, 1 / 3, 0.5, 0.75])),
    )


@st.composite
def taxi_configs(draw) -> MiniTaxiConfig:
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return MiniTaxiConfig(
        width=width,
        height=height,
        max_fuel=draw(st.integers(1, 3)),
        station=draw(cells(width, height)),
        passenger_spawn=draw(cells(width, height)),
        destination=draw(cells(width, height)),
        jobs_target=draw(st.integers(1, 2)),
    )


@settings(max_examples=40, deadline=None)
@given(avoidance_configs())
def test_avoidance_walks_agree(cfg):
    assert_walks_agree(avoidance(cfg))


@settings(max_examples=40, deadline=None)
@given(taxi_configs())
def test_taxi_walks_agree(cfg):
    assert_walks_agree(mini_taxi(cfg))


@pytest.mark.parametrize(
    "cfg",
    [
        AvoidanceConfig(width=1, height=1),
        AvoidanceConfig(width=1, height=4, obstacle_move_prob=1 / 3),
        AvoidanceConfig(width=4, height=1, obstacle_move_prob=0.0),
        AvoidanceConfig(width=3, height=2, obstacle_move_prob=1.0),
        # The obstacle starts on the agent: moved and stayed coincide.
        AvoidanceConfig(obstacle_start=(0, 0), obstacle_move_prob=0.25),
    ],
    ids=repr,
)
def test_avoidance_corners_agree(cfg):
    assert_walks_agree(avoidance(cfg))


@pytest.mark.parametrize(
    "cfg",
    [
        MiniTaxiConfig(width=2, height=1, max_fuel=1),
        MiniTaxiConfig(width=1, height=3, max_fuel=1, station=(0, 2)),
        MiniTaxiConfig(width=3, height=2, max_fuel=2, station=(1, 1), jobs_target=1),
    ],
    ids=repr,
)
def test_taxi_walks_that_run_the_tank_dry_agree(cfg):
    env = mini_taxi(cfg)
    assert any("empty" in env.labels(state) for state in validate_model(env).reachable)
    assert_walks_agree(env)


def test_the_benchmark_sized_grid_agrees():
    env = from_uri("builtin:avoidance?width=6&height=6&obstacle_start=3,4&obstacle_move_prob=2/3")
    assert validate_model(env) == validate_model(replace(env, expansion=None))


# ===== Rows of the expansions =====


def scalar_rows(env: EnvironmentModel, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arrays ``(counts, targets)`` that ``Expansion.step`` must return for ``level``, read off the callables."""
    counts, targets = [], []
    for state in map(tuple, level.tolist()):
        for name in env.available_actions(state):
            support = env.successors(state, name).support
            counts.append(len(support))
            targets.extend(target for target, _ in support)
    return (
        np.array(counts, dtype=np.intp),
        np.array(targets, dtype=level.dtype).reshape(-1, level.shape[1]),
    )


def assert_rows_match(env: EnvironmentModel, level: np.ndarray) -> None:
    """Both arrays of the step, shape, dtype and bytes, are the callables' row for row."""
    got, expected = env.expansion.step(level), scalar_rows(env, level)
    assert len(got) == 2
    for name, a, b in zip(("counts", "targets"), got, expected):
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        assert a.tobytes() == b.tobytes(), name


def box_levels(env: EnvironmentModel):
    """Every state of the expansion's box, in a drawn order, cut into drawn levels."""
    box = np.argwhere(np.ones(env.expansion.shape, dtype=bool)).astype(np.int64)
    return st.permutations(range(len(box))).flatmap(
        lambda order: st.lists(st.integers(0, len(box)), max_size=4).map(
            lambda cuts: np.split(box[list(order)], sorted(cuts))
        )
    )


@settings(max_examples=40, deadline=None)
@given(st.data(), st.one_of(avoidance_configs().map(avoidance), taxi_configs().map(mini_taxi)))
def test_expansion_rows_are_the_callables_rows(data, env):
    for level in data.draw(box_levels(env)):
        assert_rows_match(env, level)


@given(st.lists(st.lists(st.integers(0, 40), max_size=120), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_first_mentions_are_the_sorted_unique_first_indices(levels, seed):
    # One stamp serves every level, as in a walk, and starts out as garbage.
    stamp = np.random.default_rng(seed).integers(-(2**31), 2**31, 41, dtype=np.int32)
    for codes in map(np.array, levels):
        _, first = np.unique(codes, return_index=True)
        assert _first_mentions(codes.astype(np.intp), stamp).tolist() == np.sort(first).tolist()


@pytest.mark.parametrize(
    "env",
    [
        avoidance(AvoidanceConfig(width=1, height=1, obstacle_move_prob=0.25)),
        avoidance(AvoidanceConfig(width=1, height=3, obstacle_move_prob=0.0)),
        avoidance(AvoidanceConfig(width=3, height=1, obstacle_move_prob=1.0)),
        avoidance(AvoidanceConfig(width=3, height=2, obstacle_start=(0, 0), obstacle_move_prob=1 / 3)),
        mini_taxi(MiniTaxiConfig(width=1, height=1, max_fuel=1)),
        mini_taxi(MiniTaxiConfig(width=2, height=3, max_fuel=2, station=(1, 2), jobs_target=1)),
    ],
    ids=lambda env: env.feature_schema[0] + str(env.expansion.shape),
)
def test_every_box_state_and_no_state_give_the_callables_rows(env):
    box = np.argwhere(np.ones(env.expansion.shape, dtype=bool)).astype(np.int64)
    assert_rows_match(env, box)
    assert_rows_match(env, box[::-1])
    assert_rows_match(env, box[:0])


# ===== Broken rows =====

# state -> its rows in schema order, as (action, support); broken rows are
# marked. A state listed with no rows has an empty action set. No builtin
# writes such rows, so the model is built without an expansion and walked
# state by state.
BROKEN_TABLE = {
    0: [("a", [(1, 0.5), (2, 0.5)]), ("b", [(3, 0.9)]), ("c", [(4, 1.0)])],  # b: mass 0.9
    1: [],  # empty action set
    2: [("a", [(5, 0.5), (5, 0.5)]), ("b", [(6, 0.0), (2, 1.0)]), ("c", [(2, 1.0)])],  # a: repeated, b: 0
    3: [("a", [(3, 1.0)])],  # reached only through a broken row
    4: [("a", [(4, 0.25), (7, 0.75)]), ("c", [(8, 1.5), (4, -0.5)])],  # c: outside (0, 1]
    5: [("a", [(5, 1.0)])],
    6: [("a", [(6, 1.0)])],
    7: [("a", []), ("b", [(7, 1.0)])],  # a: empty support
    8: [("a", [(8, 1.0)])],
}
BROKEN_ACTIONS = ("a", "b", "c")


def broken_env() -> EnvironmentModel:
    rows = {(n, name): support for n, table in BROKEN_TABLE.items() for name, support in table}
    return EnvironmentModel(
        feature_schema=("n",),
        action_schema=BROKEN_ACTIONS,
        initial=(0,),
        available_actions=lambda s: tuple(name for name, _ in BROKEN_TABLE[s[0]]),
        successors=lambda s, a: Distribution(tuple(((t,), p) for t, p in rows[(s[0], a)])),
        labels=lambda s: frozenset(),
    )


def test_the_state_walk_lists_broken_rows_in_order():
    env = broken_env()
    report = validate_model(env)
    assert report.violations == [
        "state [0] action 'b': distribution mass 0.9 differs from 1 beyond tolerance",
        "deadlock at state [1]: empty action set",
        "state [2] action 'a': duplicate target (5,) in distribution",
        "state [2] action 'b': probability 0.0 outside (0, 1] for target (6,)",
        "state [4] action 'c': probability 1.5 outside (0, 1] for target (8,)",
        "state [7] action 'a': distribution has empty support",
    ]
    assert report.reachable == {(0,), (1,), (2,), (4,), (7,)}


# ===== Which walk runs =====


@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_every_builtin_sets_its_expansion(name):
    factory, config_type, _ = _BUILTINS[name]
    assert factory(config_type()).expansion is not None
    assert from_uri(f"builtin:{name}").expansion is not None


def test_the_expansion_is_walked_instead_of_the_callables():
    env = avoidance()

    def unavailable(state):
        raise AssertionError("the callables are not walked")

    assert validate_model(replace(env, available_actions=unavailable)) == validate_model(env)


def test_a_box_too_large_for_flags_is_walked_state_by_state():
    env = mini_taxi(MiniTaxiConfig(width=1, height=1, max_fuel=LEVEL_WALK_MAX_CELLS))

    def unwalked(level):
        raise AssertionError("the expansion is not walked")

    report = validate_model(replace(env, expansion=replace(env.expansion, step=unwalked)))
    assert report == validate_model(replace(env, expansion=None))


def test_the_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from prunecheck import *", namespace)
    assert set(prunecheck.__all__) <= namespace.keys()
    # An expansion is trusted unchecked, so only the builtins set one.
    assert "Expansion" not in prunecheck.__all__ and not hasattr(prunecheck, "Expansion")
    assert type(mini_taxi().expansion) is Expansion


# ===== The reachable set =====


def breadth_first_states(env: EnvironmentModel) -> set:
    """Every state reachable under some action, read off the callables."""
    seen, frontier = {env.initial}, deque([env.initial])
    while frontier:
        state = frontier.popleft()
        for name in env.available_actions(state):
            for target, _ in env.successors(state, name).support:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
    return seen


def test_reports_differing_only_in_reachable_are_unequal():
    one = ValidationReport(1, 1, [], lambda: frozenset({(0,)}))
    other = ValidationReport(1, 1, [], lambda: frozenset({(1,)}))
    assert one != other
    assert one == ValidationReport(1, 1, [], lambda: frozenset({(0,)}))


def test_reachable_is_built_once():
    calls = []
    report = ValidationReport(1, 1, [], lambda: calls.append(1) or frozenset({(0,)}))
    assert calls == []
    assert report.reachable is report.reachable
    assert calls == [1]


@pytest.mark.parametrize(
    "env",
    [
        avoidance(AvoidanceConfig(width=4, height=3, obstacle_start=(1, 2), obstacle_move_prob=0.25)),
        mini_taxi(MiniTaxiConfig(width=3, height=2, max_fuel=2, station=(1, 1), jobs_target=1)),
    ],
    ids=lambda env: env.feature_schema[0],
)
def test_both_walks_build_the_reachable_set(env):
    expected = breadth_first_states(env)
    for walked in (env, replace(env, expansion=None)):
        reachable = validate_model(walked).reachable
        assert type(reachable) is frozenset
        assert reachable == expected
        assert {type(feature) for state in reachable for feature in state} == {int}


# ===== Building a builtin =====


@pytest.mark.parametrize(
    "uri",
    ["builtin:avoidance?width=3000&height=3000", "builtin:mini_taxi?width=3000&height=3000&max_fuel=3000"],
)
def test_building_a_large_builtin_allocates_no_grid_table(uri):
    tracemalloc.start()
    try:
        from_uri(uri)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A byte per cell of the 3000 x 3000 grid would be 9 MB.
    assert peak < 1 << 20
