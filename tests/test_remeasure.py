"""Pruned rows that keep every action reuse the original's measurement.

``sweep``, ``feature_importance`` and ``prune_and_measure`` measure the
unpruned policy once and rebuild a pruned chain only when the pruned policy
changes the action chosen on some state of the original chain. These tests
count the builds, and hold every output against a reference that measures
each pruned policy on its own with ``measure``.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from prunecheck import (
    PruneSpec,
    build_induced_dtmc,
    feature_importance,
    feature_prune,
    make_policy,
    measure,
    parse_fraction_grid,
    parse_property,
    prune,
    prune_and_measure,
    report_to_dict,
    sweep,
)
from prunecheck import workflow
from prunecheck.environments import AVOIDANCE_ACTIONS, AVOIDANCE_FEATURES
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
                "model": "",
                "policy": "",
            }
        )
    return json.dumps(docs, indent=2)


# ===== Counting builds =====


class BuildCounter:
    """Wraps the builder the workflow calls and sorts builds by policy."""

    def __init__(self, monkeypatch, original):
        self.fingerprint = self._fingerprint(original)
        self.original = 0
        self.pruned = 0
        monkeypatch.setattr(workflow, "build_induced_dtmc", self._build)

    @staticmethod
    def _fingerprint(policy):
        return tuple(layer.weights.tobytes() + layer.bias.tobytes() for layer in policy.layers)

    def _build(self, env, policy, limits=None):
        if self._fingerprint(policy) == self.fingerprint:
            self.original += 1
        else:
            self.pruned += 1
        return build_induced_dtmc(env, policy, limits)


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
        # and move the walker, and each such row is rebuilt on its own.
        assert counter.pruned == 5

    def test_features(self, monkeypatch):
        policy = lazy_walker_policy()
        counter = BuildCounter(monkeypatch, policy)
        reports = feature_importance(drift_avoidance_env(), policy, NO_COLLISION_6)
        assert len(reports) == 4
        assert (counter.original, counter.pruned) == (1, 1)

    def test_prune_and_measure_without_a_flip_builds_once(self, monkeypatch):
        policy = lazy_walker_policy()
        counter = BuildCounter(monkeypatch, policy)
        report = prune_and_measure(
            drift_avoidance_env(), policy, NO_COLLISION_6, PruneSpec(method="feature", feature="oy")
        )
        assert (counter.original, counter.pruned) == (1, 0)
        assert report.m_hat == report.m and report.delta == 0.0
        assert report.pruned.states == report.original.states


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
def test_nan_logits_send_the_row_to_a_rebuild(monkeypatch):
    """Finite weights can still overflow into NaN logits; such rows are rebuilt.

    Both hidden units read 1e308 * ax, which is infinite once ax = 2, and
    north scores their difference: NaN there. East scores 1 elsewhere.
    """
    hidden = np.zeros((2, 4))
    hidden[:, AVOIDANCE_FEATURES.index("ax")] = 1e308
    out = np.zeros((5, 2))
    out[AVOIDANCE_ACTIONS.index("north")] = [1.0, -1.0]
    bias = np.array([0.0, -10.0, 1.0, -10.0, 0.5])
    policy = make_policy(AVOIDANCE_FEATURES, AVOIDANCE_ACTIONS, [(hidden, np.zeros(2)), (out, bias)])
    env = drift_avoidance_env()
    assert np.isnan(policy.forward(build_induced_dtmc(env, policy).dtmc.state_vectors)).any()
    counter = BuildCounter(monkeypatch, policy)
    report = prune_and_measure(env, policy, NO_COLLISION_6, PruneSpec(method="l1", layer=2, fraction=0.0))
    assert (counter.original, counter.pruned) == (2, 0)
    assert report.m_hat == report.m == measure(env, policy, NO_COLLISION_6).m
