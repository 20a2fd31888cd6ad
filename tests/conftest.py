"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from prunecheck import AvoidanceConfig, Distribution, Dtmc, NeuralPolicy, avoidance, load_explicit_model, make_policy
from prunecheck.environments import AVOIDANCE_ACTIONS, AVOIDANCE_FEATURES

FIXTURES = Path(__file__).parent / "fixtures"

# Selected with --hypothesis-profile=ci: a failing property also prints the
# blob that reproduces it with @reproduce_failure. Deadlines and example
# counts stay as each test sets them.
settings.register_profile("ci", print_blob=True)

# ===== Chains written as rows =====


def dtmc_from_rows(state_vectors, state_labels, rows) -> Dtmc:
    """A Dtmc from rows of (target, probability) pairs, kept in row order."""
    indptr = np.cumsum([0, *(len(row) for row in rows)])
    indices = [t for row in rows for t, _ in row]
    probs = [p for row in rows for _, p in row]
    return Dtmc(tuple(state_vectors), tuple(state_labels), indptr, indices, probs)


def rows_of(dtmc: Dtmc) -> tuple[tuple[tuple[int, float], ...], ...]:
    """A chain's transitions as rows of (target, probability) pairs."""
    indptr, indices, probs = dtmc.indptr.tolist(), dtmc.indices.tolist(), dtmc.probs.tolist()
    return tuple(
        tuple(zip(indices[indptr[i] : indptr[i + 1]], probs[indptr[i] : indptr[i + 1]])) for i in range(dtmc.num_states)
    )


# ===== Small hand-built chains =====


@pytest.fixture
def chain3() -> Dtmc:
    """Fair split into an absorbing goal state and an absorbing bad state."""
    return dtmc_from_rows(
        state_vectors=((0,), (1,), (2,)),
        state_labels=(frozenset(), frozenset({"goal"}), frozenset({"bad"})),
        rows=(((1, 0.5), (2, 0.5)), ((1, 1.0),), ((2, 1.0),)),
    )


@pytest.fixture
def loop() -> Dtmc:
    """Self-loop with a 0.1 escape into an absorbing goal state."""
    return dtmc_from_rows(
        state_vectors=((0,), (1,)),
        state_labels=(frozenset(), frozenset({"goal"})),
        rows=(((0, 0.9), (1, 0.1)), ((1, 1.0),)),
    )


@pytest.fixture
def two_coin() -> Dtmc:
    """Two fair coin flips must both succeed to reach the goal."""
    return dtmc_from_rows(
        state_vectors=((0,), (1,), (2,), (3,)),
        state_labels=(frozenset(), frozenset(), frozenset({"bad"}), frozenset({"goal"})),
        rows=(((1, 0.5), (2, 0.5)), ((3, 0.5), (2, 0.5)), ((2, 1.0),), ((3, 1.0),)),
    )


def gambler_text(p: object = "1/2", top: int = 40, start: int = 10) -> str:
    """Gambler's ruin on 0..``top`` from ``start`` as an explicit model that
    ``step_policy`` drives: win 1 with probability ``p`` (a JSON value, so a
    fraction string or a float), else lose 1; 0 is "bad" and ``top`` "goal",
    both absorbing. For the fair walk, "goal" has probability start/top."""
    lose = str(1 - Fraction(p)) if isinstance(p, str) else 1.0 - p
    states = []
    for c in range(top + 1):
        if c in (0, top):
            entry = {"s": [c], "labels": ["bad" if c == 0 else "goal"], "act": {"step": [{"to": [c], "p": "1"}]}}
        else:
            entry = {"s": [c], "act": {"step": [{"to": [c + 1], "p": p}, {"to": [c - 1], "p": lose}]}}
        states.append(entry)
    return json.dumps({"features": ["pos"], "actions": ["step"], "initial": [start], "states": states})


# ===== Fixture files =====


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def fixture_doc(name: str) -> dict:
    return json.loads(fixture_text(name))


@pytest.fixture
def chain3_env():
    return load_explicit_model(fixture_text("chain3.json"))


@pytest.fixture
def loop_env():
    return load_explicit_model(fixture_text("loop.json"))


@pytest.fixture
def two_coin_env():
    return load_explicit_model(fixture_text("two_coin.json"))


# Goal with 1/10, a trap with 1/5, and a 7/10 self-loop: P(F<=2 "goal") is exactly 17/100.
FRACTION3 = json.dumps(
    {
        "features": ["pos"],
        "actions": ["step"],
        "initial": [0],
        "states": [
            {"s": [0], "act": {"step": [{"to": [1], "p": "1/10"}, {"to": [2], "p": "1/5"}, {"to": [0], "p": "7/10"}]}},
            {"s": [1], "labels": ["goal"], "act": {"step": [{"to": [1], "p": 1}]}},
            {"s": [2], "labels": ["trap"], "act": {"step": [{"to": [2], "p": 1}]}},
        ],
    }
)


@pytest.fixture
def step_policy() -> NeuralPolicy:
    """Single-action policy matching the fixture-file schemas."""
    return make_policy(("pos",), ("step",), [(np.zeros((1, 1)), np.zeros(1))])


# ===== Chase scenario used for pruning deltas =====

# A 3x3 grid whose obstacle starts at (2, 1) and pursues with probability
# 1/4. All measurements on it are dyadic rationals, so equality checks on
# the frozen values below are exact in floats.
NO_COLLISION_6 = 'P=? [G<=6 !"collision"]'


def drift_avoidance_env():
    return avoidance(AvoidanceConfig(obstacle_start=(2, 1), obstacle_move_prob=0.25))


def lazy_walker_policy() -> NeuralPolicy:
    """Steps east once, then parks at (1, 0): east logit 1 - 2*ax vs stay 0.25.

    Only the ax column is nonzero, so pruning any other feature is a no-op
    by construction, while pruning "ax" turns the policy into a wall-hugger
    that marches under the obstacle. Measured with NO_COLLISION_6 on
    drift_avoidance_env: m = 2187/4096, after pruning "ax" 1377/4096.
    """
    weights = np.zeros((5, 4))
    weights[AVOIDANCE_ACTIONS.index("east"), AVOIDANCE_FEATURES.index("ax")] = -2.0
    bias = np.array([-10.0, -10.0, 1.0, -10.0, 0.25])
    return make_policy(AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, [(weights, bias)])


def chaser_policy() -> NeuralPolicy:
    """Pursues the obstacle: east logit ox - ax + 0.5 vs stay 0.25.

    Pruning "ox" leaves east at 0.5 - ax, which selects exactly the lazy
    walker's actions, so the measurement swings from 1377/4096 up to
    2187/4096: a pruning that improves safety.
    """
    weights = np.zeros((5, 4))
    east = AVOIDANCE_ACTIONS.index("east")
    weights[east, AVOIDANCE_FEATURES.index("ax")] = -1.0
    weights[east, AVOIDANCE_FEATURES.index("ox")] = 1.0
    bias = np.array([-10.0, -10.0, 0.5, -10.0, 0.25])
    return make_policy(AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, [(weights, bias)])


# ===== Random generators =====


def random_dtmc(rng: random.Random, max_states: int = 8, max_successors: int = 3) -> Dtmc:
    """Small random chain with integer-ratio probabilities and a/b labels."""
    n = rng.randint(2, max_states)
    rows = []
    for _ in range(n):
        count = min(rng.randint(1, max_successors), n)
        targets = rng.sample(range(n), count)
        weights = [rng.randint(1, 9) for _ in targets]
        total = sum(weights)
        rows.append(tuple((t, w / total) for t, w in zip(targets, weights)))
    labels = []
    for _ in range(n):
        tags = set()
        if rng.random() < 0.5:
            tags.add("a")
        if rng.random() < 0.4:
            tags.add("b")
        labels.append(frozenset(tags))
    return dtmc_from_rows(
        state_vectors=tuple((s,) for s in range(n)),
        state_labels=tuple(labels),
        rows=tuple(rows),
    )


def random_policy(
    seed: int,
    features: tuple[str, ...],
    actions: tuple[str, ...],
    hidden: tuple[int, ...] = (8,),
) -> NeuralPolicy:
    """Gaussian-weight network with the given hidden widths."""
    gen = np.random.default_rng(seed)
    sizes = [len(features), *hidden, len(actions)]
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        layers.append((gen.normal(size=(fan_out, fan_in)), gen.normal(size=fan_out)))
    return make_policy(features, actions, layers)


def states_labelled(dtmc: Dtmc, label: str) -> set[int]:
    """Indices of the states that carry ``label``."""
    return {i for i, tags in enumerate(dtmc.state_labels) if label in tags}


def label_sets(dtmc: Dtmc) -> tuple[set, set]:
    """Index sets for the labels "a" and "b"."""
    return states_labelled(dtmc, "a"), states_labelled(dtmc, "b")


def state_mask(dtmc: Dtmc, states) -> np.ndarray:
    """The boolean mask, over the chain's states, of the state indices ``states``."""
    mask = np.zeros(dtmc.num_states, dtype=bool)
    mask[list(states)] = True
    return mask


__all__ = [
    "Distribution",
    "FIXTURES",
    "NO_COLLISION_6",
    "chaser_policy",
    "drift_avoidance_env",
    "dtmc_from_rows",
    "fixture_doc",
    "fixture_text",
    "label_sets",
    "lazy_walker_policy",
    "random_dtmc",
    "random_policy",
    "rows_of",
    "state_mask",
    "states_labelled",
]
