"""Pruned rows reuse a measurement when their prune changes the same decisions.

``sweep``, ``feature_importance`` and ``prune_and_measure`` measure the
unpruned policy once. A pruned policy that keeps every action of the
original chain reuses that measurement. One that changes some is rebuilt
once per distinct set of changed (state, action) decisions: a later prune
with the same set reuses the first one's measurement when it also picks
the same actions on the states only the pruned chain reaches. These tests
count the builds, and hold every output against a reference that measures
each pruned policy on its own with ``measure``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunecheck import (
    AvoidanceConfig,
    BuildResult,
    MiniTaxiConfig,
    NeuralPolicy,
    PruneSpec,
    avoidance,
    build_induced_dtmc,
    feature_importance,
    feature_prune,
    load_explicit_model,
    make_policy,
    measure,
    mini_taxi,
    parse_fraction_grid,
    parse_property,
    prune,
    prune_and_measure,
    report_to_dict,
    sweep,
)
from prunecheck import workflow
from prunecheck.induced import rebuild_induced_dtmc
from prunecheck.environments import AVOIDANCE_ACTIONS, AVOIDANCE_FEATURES, TAXI_ACTIONS, TAXI_FEATURES
from prunecheck.workflow import CSV_HEADER, UNCHANGED_TOLERANCE

from .conftest import (
    NO_COLLISION_6,
    chaser_policy,
    drift_avoidance_env,
    lazy_walker_policy,
    random_policy,
)

TINY = 2.0**-40


def near_tie_policy():
    """East against stay at ax = 1 is decided by 2^-40 * (oy - ox).

    East scores 0.5 - 0.5 ax + 2^-40 (oy - ox) and stay scores 0, so at
    ax = 1 the two tie exactly when ox == oy (east wins, by schema order)
    and otherwise differ by a few 2^-40. Pruning either tiny weight, or
    both, settles those near ties the other way.
    """
    weights = np.zeros((5, 4))
    east = AVOIDANCE_ACTIONS.index("east")
    weights[east, AVOIDANCE_FEATURES.index("ax")] = -0.5
    weights[east, AVOIDANCE_FEATURES.index("ox")] = -TINY
    weights[east, AVOIDANCE_FEATURES.index("oy")] = TINY
    bias = np.array([-10.0, -10.0, 0.5, -10.0, 0.0])
    return make_policy(AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, [(weights, bias)])


def two_layer_policy():
    return random_policy(5, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))


POLICIES = {
    "lazy": lazy_walker_policy,
    "chaser": chaser_policy,
    "near_tie": near_tie_policy,
    "two_layer": two_layer_policy,
}
PROPERTIES = (NO_COLLISION_6, 'P>=0.4 [G<=6 !"collision"]', 'P=? [F<=4 "collision"]')


# ===== The reference: every pruned policy measured on its own =====


def reference_verdict(property_text, m, m_hat, satisfied_hat):
    comparator = parse_property(property_text).comparator
    delta = m_hat - m
    if comparator is not None and satisfied_hat is False:
        return "violation"
    if abs(delta) <= UNCHANGED_TOLERANCE:
        return "unchanged"
    higher_is_safer = comparator in (None, ">", ">=")
    return "improved" if (delta > 0) == higher_is_safer else "degraded"


def reference_sweep(env, policy, property_text, method, layer, grid, seeds=()):
    m = measure(env, policy, property_text).m
    rows = []
    for fraction in parse_fraction_grid(grid):
        value = float(fraction)
        if method == "l1":
            specs = [PruneSpec(method="l1", layer=layer, fraction=value)]
        else:
            specs = [PruneSpec(method="random", layer=layer, fraction=value, seed=s) for s in sorted(seeds)]
        batch = []
        for spec in specs:
            pruned = measure(env, prune(policy, spec)[0], property_text)
            batch.append((pruned.m, pruned.m - m))
            seed = "" if spec.seed is None else spec.seed
            rows.append(
                [method, layer, value, seed, property_text, m, pruned.m, pruned.m - m]
                + [pruned.original.states, pruned.original.transitions, 0]
            )
        if method == "random":
            mean_m_hat = sum(b[0] for b in batch) / len(batch)
            mean_delta = sum(b[1] for b in batch) / len(batch)
            rows.append(["random", layer, value, "mean", property_text, m, mean_m_hat, mean_delta, "", "", 0])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows([[str(cell) for cell in row] for row in rows])
    return buffer.getvalue()


def reference_features(env, policy, property_text):
    original = measure(env, policy, property_text)
    docs = []
    for feature in policy.feature_names:
        pruned_policy, mask = feature_prune(policy, feature)
        pruned = measure(env, pruned_policy, property_text)
        docs.append(
            {
                "property": property_text,
                "m": original.m,
                "satisfied": original.satisfied,
                "m_hat": pruned.m,
                "delta": pruned.m - original.m,
                "verdict": reference_verdict(property_text, original.m, pruned.m, pruned.satisfied),
                "prune_spec": {"method": "feature", "feature": feature},
                "mask_size": mask.size,
                "dtmc": {"states": original.original.states, "transitions": original.original.transitions, "time_ms": 0},
                "dtmc_pruned": {"states": pruned.original.states, "transitions": pruned.original.transitions, "time_ms": 0},
            }
        )
    return json.dumps(docs, indent=2)


# ===== Counting builds =====


class BuildCounter:
    """Wraps both builders the workflow calls and sorts builds by policy.

    A rebuild from the original build counts as a build of its policy.
    """

    def __init__(self, monkeypatch, original):
        self.fingerprint = self._fingerprint(original)
        self.original = 0
        self.pruned = 0
        monkeypatch.setattr(workflow, "build_induced_dtmc", self._build)
        monkeypatch.setattr(workflow, "rebuild_induced_dtmc", self._rebuild)

    @staticmethod
    def _fingerprint(policy):
        return tuple(layer.weights.tobytes() + layer.bias.tobytes() for layer in policy.layers)

    def _count(self, policy):
        if self._fingerprint(policy) == self.fingerprint:
            self.original += 1
        else:
            self.pruned += 1

    def _build(self, env, policy, limits=None):
        self._count(policy)
        return build_induced_dtmc(env, policy, limits)

    def _rebuild(self, original, env, policy, changed, limits=None):
        self._count(policy)
        return rebuild_induced_dtmc(original, env, policy, changed, limits)


class RowCounter:
    """Wraps ``BuildResult.rows`` and lists each build whose rows are gathered."""

    def __init__(self, monkeypatch):
        self.builds = []
        gather = BuildResult.rows.func

        def rows(build):
            self.builds.append(build)
            return gather(build)

        counted = functools.cached_property(rows)
        counted.__set_name__(BuildResult, "rows")
        monkeypatch.setattr(BuildResult, "rows", counted)


class TestOriginalMeasuredOnce:
    def test_random_sweep(self, monkeypatch):
        policy = two_layer_policy()
        counter = BuildCounter(monkeypatch, policy)
        text = sweep(drift_avoidance_env(), policy, NO_COLLISION_6, "random", 2, "0:1:1/4", seeds=(1, 2, 3))
        assert len(text.splitlines()) == 1 + 5 * 4
        assert counter.original == 1
        # The three fraction-0 rows keep the weights, so they cannot rebuild.
        assert counter.pruned <= 12

    def test_l1_sweep(self, monkeypatch):
        policy = lazy_walker_policy()
        counter = BuildCounter(monkeypatch, policy)
        sweep(drift_avoidance_env(), policy, NO_COLLISION_6, "l1", 1, "0:1:1/8")
        assert counter.original == 1
        # The ax weight is the layer's one nonzero; fractions 1/2 to 1 zero it
        # and move the walker. The five rows zero the same weight, so they
        # change the same decisions and only the first is rebuilt.
        assert counter.pruned == 1

    def test_features(self, monkeypatch):
        policy = lazy_walker_policy()
        counter = BuildCounter(monkeypatch, policy)
        reports = feature_importance(drift_avoidance_env(), policy, NO_COLLISION_6)
        assert len(reports) == 4
        assert (counter.original, counter.pruned) == (1, 1)

    def test_prune_and_measure_without_a_flip_builds_once(self, monkeypatch):
        policy = lazy_walker_policy()
        counter, rows = BuildCounter(monkeypatch, policy), RowCounter(monkeypatch)
        report = prune_and_measure(
            drift_avoidance_env(), policy, NO_COLLISION_6, PruneSpec(method="feature", feature="oy")
        )
        assert (counter.original, counter.pruned) == (1, 0)
        assert rows.builds == []
        assert report.m_hat == report.m and report.delta == 0.0
        assert report.pruned.states == report.original.states

    def test_only_pruned_reports_ask_for_the_flip_check_actions(self):
        """``measure`` asks each chain state's actions once, to build the chain.

        ``prune_and_measure`` asks nothing more: the flip check reads the
        action sets the build kept, and a prune that flips nothing rebuilds
        nothing.
        """
        asked = Counter()
        env = drift_avoidance_env()

        def available_actions(state):
            asked[state] += 1
            return env.available_actions(state)

        counted = replace(env, available_actions=available_actions)
        report = measure(counted, lazy_walker_policy(), NO_COLLISION_6)
        assert len(asked) == report.original.states
        assert set(asked.values()) == {1}
        asked.clear()
        prune_and_measure(counted, lazy_walker_policy(), NO_COLLISION_6, PruneSpec(method="feature", feature="oy"))
        assert len(asked) == report.original.states
        assert set(asked.values()) == {1}


# ===== The original's rows are gathered only for a rebuild =====


def steady_walker_policy():
    """Heads east whatever the obstacle does: east 1 + ox / 100 against stay 0.25.

    Its one nonzero weight reads "ox", and pruning it leaves east at 1, so
    no feature's prune changes a decision.
    """
    weights = np.zeros((5, 4))
    weights[AVOIDANCE_ACTIONS.index("east"), AVOIDANCE_FEATURES.index("ox")] = 0.01
    bias = np.array([-10.0, -10.0, 1.0, -10.0, 0.25])
    return make_policy(AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, [(weights, bias)])


class TestRowsGatheredOnlyToRebuild:
    def test_features_table_without_a_change(self, monkeypatch):
        policy = steady_walker_policy()
        counter, rows = BuildCounter(monkeypatch, policy), RowCounter(monkeypatch)
        reports = feature_importance(drift_avoidance_env(), policy, NO_COLLISION_6)
        assert [r.verdict for r in reports] == ["unchanged"] * 4
        assert (counter.original, counter.pruned) == (1, 0)
        assert rows.builds == []

    def test_many_rebuilds_gather_the_original_rows_once(self, monkeypatch):
        env = avoidance(AvoidanceConfig(width=4, height=4))
        policy = random_policy(3, AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, hidden=(6,))
        counter, rows = BuildCounter(monkeypatch, policy), RowCounter(monkeypatch)
        sweep(env, policy, NO_COLLISION_6, "random", 1, "0:1:1/4", seeds=(1, 2, 3))
        assert counter.original == 1 and counter.pruned > 1
        assert len(rows.builds) == 1
        assert rows.builds[0].chosen_actions == build_induced_dtmc(env, policy).chosen_actions


# ===== Byte-identical to measuring every prune on its own =====


@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("property_text", PROPERTIES)
class TestMatchesIndependentMeasures:
    def test_sweeps(self, monkeypatch, name, property_text):
        env, policy = drift_avoidance_env(), POLICIES[name]()
        layers = range(1, len(policy.layers) + 1)
        cases = [("l1", layer, "0:1:1/8", ()) for layer in layers]
        cases += [("random", layer, "0:1:1/4", (3, 1, 2)) for layer in layers]
        expected = [reference_sweep(env, policy, property_text, *case) for case in cases]
        counter = BuildCounter(monkeypatch, policy)
        found = [sweep(env, policy, property_text, *case[:3], seeds=case[3]) for case in cases]
        assert found == expected
        assert counter.original == len(cases)

    def test_features(self, monkeypatch, name, property_text):
        env, policy = drift_avoidance_env(), POLICIES[name]()
        expected = reference_features(env, policy, property_text)
        reports = feature_importance(env, policy, property_text)
        assert json.dumps([report_to_dict(r) for r in reports], indent=2) == expected


def test_both_kinds_of_rows_are_covered(monkeypatch):
    """The cases above hold rows that reuse the original and rows that rebuild."""
    reused = rebuilt = 0
    for make in POLICIES.values():
        policy = make()
        counter = BuildCounter(monkeypatch, policy)
        for layer in range(1, len(policy.layers) + 1):
            sweep(drift_avoidance_env(), policy, NO_COLLISION_6, "random", layer, "0:1:1/4", seeds=(1, 2, 3))
        rows = 15 * len(policy.layers)
        reused += rows - counter.pruned
        rebuilt += counter.pruned
    assert reused > 0 and rebuilt > 0


def test_near_tie_policy_has_exact_and_near_ties():
    env, policy = drift_avoidance_env(), near_tie_policy()
    build = build_induced_dtmc(env, policy)
    east, stay = AVOIDANCE_ACTIONS.index("east"), AVOIDANCE_ACTIONS.index("stay")
    gaps = {
        float(logits[east] - logits[stay])
        for state, logits in zip(build.dtmc.state_vectors, policy.forward(build.dtmc.state_vectors))
        if state[AVOIDANCE_FEATURES.index("ax")] == 1
    }
    assert 0.0 in gaps
    assert any(0 < abs(gap) <= 4 * TINY for gap in gaps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_logits_are_decided_by_pick(monkeypatch):
    """Finite weights can still overflow into NaN logits; ``pick`` decides those states.

    Both hidden units read 1e308 * ax, which is infinite once ax = 2, and
    north scores their difference: NaN there, like every output that reads
    them. East scores 1 elsewhere. A NaN orders nothing, so on those states
    the prune's choice is left to ``pick`` itself. The prune zeroes nothing,
    so ``pick`` keeps every action and the row reuses the original's
    measurement.
    """
    hidden = np.zeros((2, 4))
    hidden[:, AVOIDANCE_FEATURES.index("ax")] = 1e308
    out = np.zeros((5, 2))
    out[AVOIDANCE_ACTIONS.index("north")] = [1.0, -1.0]
    bias = np.array([0.0, -10.0, 1.0, -10.0, 0.5])
    policy = make_policy(AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, [(hidden, np.zeros(2)), (out, bias)])
    env = drift_avoidance_env()
    build = build_induced_dtmc(env, policy)
    logits = policy.forward(build.dtmc.state_vectors)
    nan_states = sum(
        any(np.isnan(logits[s, policy.action_index[name]]) for name in offered)
        for s, offered in enumerate(build.available_actions)
    )
    assert nan_states > 0
    picked = []
    pick = NeuralPolicy.pick

    def counted_pick(self, row, available):
        if any(np.isnan(row[policy.action_index[name]]) for name in available):
            picked.append(pick(self, row, available))
        return pick(self, row, available)

    monkeypatch.setattr(NeuralPolicy, "pick", counted_pick)
    counter = BuildCounter(monkeypatch, policy)
    report = prune_and_measure(env, policy, NO_COLLISION_6, PruneSpec(method="l1", layer=2, fraction=0.0))
    # Once per NaN state to build the original chain, once to take the prune's decisions.
    assert len(picked) == 2 * nan_states
    assert picked[:nan_states] == picked[nan_states:]
    assert (counter.original, counter.pruned) == (1, 0)
    assert report.m_hat == report.m == measure(env, policy, NO_COLLISION_6).m


# ===== One rebuild per distinct set of changed decisions =====


def decision_sets(env, policy, specs) -> list[frozenset]:
    """Each spec's changed (state index, action) decisions on the original chain, by ``select_action``."""
    build = build_induced_dtmc(env, policy)
    original = set(enumerate(build.chosen_actions))
    sets = []
    for spec in specs:
        pruned = prune(policy, spec)[0]
        picks = {
            (s, pruned.select_action(state, offered))
            for s, (state, offered) in enumerate(zip(build.dtmc.state_vectors, build.available_actions))
        }
        sets.append(frozenset(picks - original))
    return sets


def every_prune(policy) -> list[PruneSpec]:
    layers = range(1, len(policy.layers) + 1)
    grid = parse_fraction_grid("0:1:1/4")
    specs = [PruneSpec("random", layer, float(f), seed) for layer in layers for f in grid for seed in (1, 2, 3)]
    specs += [PruneSpec("l1", layer, float(f)) for layer in layers for f in grid]
    return specs + [PruneSpec("feature", feature=feature) for feature in policy.feature_names]


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_rebuilds_equal_distinct_decision_sets(monkeypatch, name):
    env, policy = drift_avoidance_env(), POLICIES[name]()
    specs = every_prune(policy)
    sets = decision_sets(env, policy, specs)
    counter = BuildCounter(monkeypatch, policy)
    reports = list(workflow._reports(env, policy, NO_COLLISION_6, specs, None))
    assert len(reports) == 1 + len(specs)
    assert counter.pruned == len(set(sets) - {frozenset()})


def test_rows_repeat_decision_sets():
    """The prunes above hold rows that change the same decisions as an earlier row."""
    repeats = 0
    for make in POLICIES.values():
        policy = make()
        changing = [s for s in decision_sets(drift_avoidance_env(), policy, every_prune(policy)) if s]
        repeats += len(changing) - len(set(changing))
    assert repeats > 0


# A model of three features whose prunes change the same decisions yet differ
# beyond them. Logits are W @ (f1, f2, f3), no bias; rows score a, b and c.
# At s1 = (1, 1, 1) the original picks a (6 against 5.5 and 5); pruning f1 or
# f2 picks b there (4.5 against 4 and 2.5), pruning f3 picks c (5 against 4
# and 2). b leads to g = (1, 0, 0), which only the pruned chains reach: with
# f1 pruned every logit there is 0 and a leads on to the goal; with f2 pruned
# c (2.5) leads to the trap h = (2, 0, 0). Pruning f3 leads from s1 to the
# trap d = (0, 2, 0), and would pick c on g and h too.
SAME_CHANGES_WEIGHTS = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 3.5], [2.5, 2.5, 0.0]])
SAME_CHANGES_STATES = {
    "s0": ((0, 0, 0), (), {"a": "s1", "b": "s0", "c": "s0"}),
    "s1": ((1, 1, 1), (), {"a": "s1", "b": "g", "c": "d"}),
    "g": ((1, 0, 0), (), {"a": "goal", "b": "g", "c": "h"}),
    "goal": ((3, 0, 0), ("goal",), {}),
    "h": ((2, 0, 0), ("trap",), {}),
    "d": ((0, 2, 0), ("trap",), {}),
}


def same_changes_case():
    """The explicit model and the policy that the comment above describes."""
    states = []
    for name, (vector, labels, moves) in SAME_CHANGES_STATES.items():
        act = {a: [{"to": list(SAME_CHANGES_STATES[moves.get(a, name)][0]), "p": "1"}] for a in "abc"}
        states.append({"s": list(vector), "labels": list(labels), "act": act})
    doc = {"features": ["f1", "f2", "f3"], "actions": ["a", "b", "c"], "initial": [0, 0, 0], "states": states}
    policy = make_policy(("f1", "f2", "f3"), ("a", "b", "c"), [(SAME_CHANGES_WEIGHTS, np.zeros(3))])
    return load_explicit_model(json.dumps(doc)), policy


@pytest.mark.filterwarnings("ignore::prunecheck.UnknownLabelWarning")
def test_same_changes_with_other_choices_beyond_them(monkeypatch):
    """A prune reuses an earlier measurement only if it also picks alike where only the pruned chains go."""
    env, policy = same_changes_case()
    prop = 'P=? [F "goal"]'
    sets = decision_sets(env, policy, [PruneSpec("feature", feature=f) for f in policy.feature_names])
    assert sets[0] == sets[1] != sets[2]
    assert {s for s, _ in sets[1]} == {s for s, _ in sets[2]}
    expected = reference_features(env, policy, prop)
    counter = BuildCounter(monkeypatch, policy)
    reports = feature_importance(env, policy, prop)
    assert json.dumps([report_to_dict(r) for r in reports], indent=2) == expected
    assert [(r.m_hat, r.pruned.states) for r in reports] == [(1.0, 4), (0.0, 4), (0.0, 3)]
    # f2's row is rebuilt although f1's changed the same decisions: it picks otherwise on g.
    assert counter.pruned == 3


# ===== Every row of seeded policies is its own measurement =====


def seeded_policy(seed, features, actions, hidden, coarse):
    """``random_policy``, or with every weight and bias rounded to a half when ``coarse``.

    Coarse policies tie logits exactly and zero many weights, so prunes
    often change the same decisions.
    """
    policy = random_policy(seed, features, actions, hidden)
    if not coarse:
        return policy
    layers = [(np.round(2 * layer.weights) / 2, np.round(2 * layer.bias) / 2) for layer in policy.layers]
    return make_policy(features, actions, layers)


builtin_cases = st.one_of(
    st.tuples(
        st.builds(
            lambda w, h, p: avoidance(AvoidanceConfig(width=w, height=h, obstacle_move_prob=p)),
            st.integers(2, 4),
            st.integers(2, 4),
            st.sampled_from([0.25, 0.5, 1 / 3]),
        ),
        st.just((AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS)),
        st.sampled_from([NO_COLLISION_6, 'P>=0.4 [G<=6 !"collision"]', 'P=? [F<=4 "collision"]']),
    ),
    st.tuples(
        st.just(mini_taxi(MiniTaxiConfig(width=3, height=3, max_fuel=5))),
        st.just((TAXI_FEATURES, TAXI_ACTIONS)),
        st.sampled_from(['P=? [F<=8 "empty"]', 'P>=0.5 [G<=6 !"empty"]']),
    ),
)


@pytest.mark.filterwarnings("ignore::prunecheck.UnknownLabelWarning")
@settings(max_examples=40, deadline=None)
@given(builtin_cases, st.integers(0, 10**4), st.sampled_from([(), (3,), (6,)]), st.booleans(), st.data())
def test_rows_equal_their_own_measures(case, seed, hidden, coarse, data):
    env, (features, actions), property_text = case
    policy = seeded_policy(seed, features, actions, hidden, coarse)
    layer = data.draw(st.integers(1, len(policy.layers)))
    for method, grid, seeds in (("random", "0:1:1/4", (3, 1, 2)), ("l1", "0:1:1/8", ())):
        expected = reference_sweep(env, policy, property_text, method, layer, grid, seeds)
        assert sweep(env, policy, property_text, method, layer, grid, seeds=seeds) == expected
    expected = reference_features(env, policy, property_text)
    reports = feature_importance(env, policy, property_text)
    assert json.dumps([report_to_dict(r) for r in reports], indent=2) == expected
