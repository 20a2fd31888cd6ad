"""Acceptance suite: the ten gate criteria, one test (and one line) each.

Every criterion prints a single PASS line with its measured evidence; a
failure keeps the line out and pytest reports the assertion instead. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines directly.
"""

from __future__ import annotations

import random
import time
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from prunecheck import (
    PruneSpec,
    check,
    feature_importance,
    l1_prune,
    parse_property,
    prob01,
    prune_and_measure,
    random_prune,
    sweep,
)
from prunecheck.environments import TAXI_ACTIONS, TAXI_FEATURES
from prunecheck.induced import build_induced_dtmc
from prunecheck.pruning import feature_prune
from prunecheck.workflow import CSV_HEADER
from prunecheck import mini_taxi

from .conftest import (
    NO_COLLISION_6,
    chaser_policy,
    drift_avoidance_env,
    label_sets,
    lazy_walker_policy,
    random_dtmc,
    random_policy,
    rows_of,
)
from .oracles import (
    argmax_in_schema,
    closure,
    globally_paths,
    linear_logits,
    next_paths,
    taxi_actions,
    taxi_step,
    until_paths,
)

pytestmark = pytest.mark.filterwarnings("ignore::prunecheck.UnknownLabelWarning")

BOUNDED_TOLERANCE = 1e-9
UNBOUNDED_TOLERANCE = 1e-8
DUALITY_TOLERANCE = 1e-12
FREQUENCY_SLACK = 0.02

LAZY_M = 2187 / 4096
LAZY_PRUNED = 1377 / 4096


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:>2} PASS: {detail}")


# ===== 1. Bounded checking vs. exhaustive enumeration =====


def test_criterion_01_bounded_checker_matches_path_enumeration():
    rng = random.Random(20240501)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dtmc = random_dtmc(rng, max_states=8, max_successors=3)
        a, b = label_sets(dtmc)
        rows = rows_of(dtmc)
        everything = set(range(dtmc.num_states))
        k = rng.randint(0, 12)
        kind = rng.choice(("until", "eventually", "globally", "next"))
        if kind == "until":
            text = f'P=? ["a" U<={k} "b"]'
            expected = until_paths(rows, a, b, k, 0)
        elif kind == "eventually":
            text = f'P=? [F<={k} "b"]'
            expected = until_paths(rows, everything, b, k, 0)
        elif kind == "globally":
            text = f'P=? [G<={k} "a"]'
            expected = globally_paths(rows, a, k, 0)
        else:
            text = 'P=? [X "b"]'
            expected = next_paths(rows, b, 0)
        got = check(dtmc, parse_property(text)).value
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= BOUNDED_TOLERANCE
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"200 random chains vs enumeration, max error {worst:.3e}, {elapsed:.2f}s")


# ===== 2. Unbounded fixtures =====


def test_criterion_02_unbounded_fixture_values(chain3, loop, two_coin):
    started = time.perf_counter()
    prop = parse_property('P=? [F "goal"]')

    chain3_result = check(chain3, prop)
    assert abs(chain3_result.value - 0.5) <= UNBOUNDED_TOLERANCE

    loop_result = check(loop, prop)
    assert loop_result.value == 1.0
    assert loop_result.iterations == 0

    two_coin_result = check(two_coin, prop)
    assert abs(two_coin_result.value - 0.25) <= UNBOUNDED_TOLERANCE

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(
        2,
        f"chain3 {chain3_result.value}, loop {loop_result.value} "
        f"(graph-only), two-coin {two_coin_result.value}, {elapsed:.3f}s",
    )


# ===== 3. Qualitative exactness =====


def test_criterion_03_qualitative_states_are_exact():
    rng = random.Random(777)
    checked = 0
    for _ in range(100):
        dtmc = random_dtmc(rng)
        a, b = label_sets(dtmc)
        zero, one = prob01(dtmc, a, b)
        per_state = check(dtmc, parse_property('P=? ["a" U "b"]')).per_state
        for s in zero:
            assert per_state[s] == 0.0
        for s in one:
            assert per_state[s] == 1.0
        checked += len(zero) + len(one)
    report(3, f"100 random chains, {checked} qualitative states exactly 0.0/1.0")


# ===== 4. Duality and monotonicity =====


def test_criterion_04_duality_and_monotonicity(chain3, loop, two_coin):
    fixtures = {"chain3": chain3, "loop": loop, "two_coin": two_coin}
    worst = 0.0
    for dtmc in fixtures.values():
        for label in sorted(frozenset().union(*dtmc.state_labels)):
            for k in range(13):
                g = check(dtmc, parse_property(f'P=? [G<={k} "{label}"]')).value
                f = check(dtmc, parse_property(f'P=? [F<={k} !"{label}"]')).value
                worst = max(worst, abs(g - (1.0 - f)))
                assert abs(g - (1.0 - f)) <= DUALITY_TOLERANCE
            g = check(dtmc, parse_property(f'P=? [G "{label}"]')).value
            f = check(dtmc, parse_property(f'P=? [F !"{label}"]')).value
            assert abs(g - (1.0 - f)) <= DUALITY_TOLERANCE

            values = [
                check(dtmc, parse_property(f'P=? [F<={k} "{label}"]')).value for k in range(13)
            ]
            assert all(lo <= hi for lo, hi in zip(values, values[1:]))
    report(4, f"G/F duality within {worst:.3e} and F<=k monotone on all fixtures")


# ===== 5. Pruning invariants at scale =====


def _random_matrix(rng: random.Random) -> list[list[float]]:
    rows, cols = rng.randint(2, 5), rng.randint(2, 5)
    return [
        [
            0.0 if rng.random() < 0.3 else rng.choice((-1, 1)) * rng.randint(1, 8) / 4
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def test_criterion_05_pruning_invariants():
    from .test_pruning import single_layer

    rng = random.Random(31337)
    pool = (0.0, 0.05, 0.1, 0.15, 0.25, 0.375, 0.5, 0.6, 0.75, 0.9, 1.0)
    for case in range(1000):
        matrix = _random_matrix(rng)
        fraction = rng.choice(pool)
        policy = single_layer(matrix)
        weights = policy.layers[0].weights

        nonzeros = list(zip(*(x.tolist() for x in np.nonzero(weights))))
        expected_count = int(
            (Decimal(str(fraction)) * len(nonzeros)).quantize(Decimal("1"), rounding=ROUND_HALF_UP)
        )

        _, mask = l1_prune(policy, 1, fraction)
        zeroed = {(r - 1, c - 1) for _, r, c in mask.zeroed}
        assert mask.size == expected_count

        ranked = sorted(nonzeros, key=lambda rc: (abs(weights[rc[0], rc[1]]), rc[0], rc[1]))
        assert zeroed == set(ranked[:expected_count])

        kept = [abs(weights[r, c]) for r, c in nonzeros if (r, c) not in zeroed]
        dropped = [abs(weights[r, c]) for r, c in zeroed]
        if kept and dropped:
            assert max(dropped) <= min(kept)

        _, again = l1_prune(policy, 1, fraction)
        assert again == mask

        seed = rng.randint(0, 2**31 - 1)
        _, first = random_prune(policy, 1, fraction, seed)
        _, second = random_prune(policy, 1, fraction, seed)
        assert first == second
        assert first.size == expected_count

    counts = {(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0}
    square = single_layer([[1.0, 2.0], [3.0, 4.0]])
    for seed in range(10000):
        _, mask = random_prune(square, 1, 0.5, seed)
        for _, r, c in mask.zeroed:
            counts[(r, c)] += 1
    frequencies = {coord: n / 10000 for coord, n in counts.items()}
    spread = max(abs(f - 0.5) for f in frequencies.values())
    assert spread <= FREQUENCY_SLACK
    report(5, f"1000 l1/random cases exact; selection frequency within {spread:.4f} of 0.5")


# ===== 6. Feature invariance =====


def test_criterion_06_feature_invariance():
    pairs_checked = 0
    for i in range(20):
        width = 3 + (i % 3)
        features = tuple(f"f{j}" for j in range(width))
        policy = random_policy(1000 + i, features, ("u", "v", "w"), hidden=(5,))
        target = features[i % width]
        pruned, _ = feature_prune(policy, target)
        gen = np.random.default_rng(5000 + i)
        for _ in range(50):
            base = gen.normal(size=width)
            bumped = np.array(base)
            bumped[features.index(target)] = gen.normal() * 10
            left = pruned.forward(tuple(base))
            right = pruned.forward(tuple(bumped))
            assert left.tobytes() == right.tobytes()
            pairs_checked += 1
    assert pairs_checked == 1000
    report(6, "1000 state pairs across 20 policies give bit-identical logits")


# ===== 7. Induced-chain correctness on the taxi =====


def test_criterion_07_induced_chain_matches_oracle():
    env = mini_taxi()
    sizes = []
    for seed in range(5):
        policy = random_policy(seed, TAXI_FEATURES, TAXI_ACTIONS, hidden=())
        started = time.perf_counter()
        result = build_induced_dtmc(env, policy)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0

        weights = policy.layers[0].weights.tolist()
        bias = policy.layers[0].bias.tolist()

        def expand(state):
            available = taxi_actions(state, 4, 4, (3, 3), (3, 0), (0, 0))
            picked = argmax_in_schema(
                linear_logits(weights, bias, state), list(TAXI_ACTIONS), available
            )
            yield taxi_step(state, picked, 8, 2, (0, 0))

        assert set(result.dtmc.state_vectors) == closure((0, 0, 8, 0, 0), expand)

        index = {vector: i for i, vector in enumerate(result.dtmc.state_vectors)}
        rows = rows_of(result.dtmc)
        for i, vector in enumerate(result.dtmc.state_vectors):
            action = policy.select_action(vector, env.available_actions(vector))
            expected = tuple(
                (index[target], p)
                for target, p in env.successors(vector, action).support
            )
            assert rows[i] == expected
        sizes.append(result.dtmc.num_states)
    report(7, f"5 taxi policies, chains of {sizes} states match the oracle walk")


# ===== 8. Mixed feature relevance on the chase fixture =====


def test_criterion_08_feature_deltas_match_frozen_oracle():
    reports = feature_importance(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6)
    by_feature = {r.prune_spec.feature: r for r in reports}

    assert by_feature["ax"].m == LAZY_M
    assert by_feature["ax"].m_hat == LAZY_PRUNED
    assert by_feature["ax"].delta == LAZY_PRUNED - LAZY_M
    for name in ("ay", "ox", "oy"):
        assert by_feature[name].delta == 0.0

    deltas = [r.delta for r in reports]
    assert any(d == 0.0 for d in deltas)
    assert any(abs(d) >= 0.05 for d in deltas)
    report(
        8,
        f"deltas {[round(d, 6) for d in deltas]}: three exact zeros, "
        f"one at {by_feature['ax'].delta}",
    )


# ===== 9. A pruning that improves the measurement =====


def test_criterion_09_pruning_can_improve_safety():
    result = prune_and_measure(
        drift_avoidance_env(),
        chaser_policy(),
        NO_COLLISION_6,
        PruneSpec(method="feature", feature="ox"),
    )
    assert result.m == LAZY_PRUNED
    assert result.m_hat == LAZY_M
    assert result.m_hat > result.m
    assert result.verdict == "improved"
    report(9, f"pruning 'ox' moves m from {result.m} up to {result.m_hat}")


# ===== 10. Byte-identical sweeps =====


def test_criterion_10_sweeps_are_byte_identical():
    env = drift_avoidance_env()
    header = ",".join(CSV_HEADER)

    first = sweep(env, chaser_policy(), NO_COLLISION_6, "random", 1, "0:1:0.5", seeds=(0, 1, 2))
    second = sweep(env, chaser_policy(), NO_COLLISION_6, "random", 1, "0:1:0.5", seeds=(0, 1, 2))
    assert first == second
    assert first.splitlines()[0] == header

    l1_first = sweep(env, lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:1:0.25")
    l1_second = sweep(env, lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:1:0.25")
    assert l1_first == l1_second
    assert l1_first.splitlines()[0] == header
    report(10, "repeated random and l1 sweeps byte-identical, header exact")
