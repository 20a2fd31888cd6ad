"""Core model types and the explicit JSON table format."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunecheck import (
    Distribution,
    Dtmc,
    EnvironmentModel,
    LimitExceededError,
    ModelSemanticError,
    ModelSyntaxError,
    build_induced_dtmc,
    from_uri,
    induced_to_explicit,
    load_explicit_model,
    make_policy,
    validate_model,
)

from . import oracles
from .conftest import fixture_doc, fixture_text

# ===== Distributions =====

_EDGE_PROBABILITIES = (0.0, -0.0, 5e-324, 0.25, 0.5, 1.0, 1.0 + 1e-9, math.nan, math.inf)


@st.composite
def _supports(draw):
    """Supports of 0-4 pairs: normalised weights, some replaced by edge values.

    Targets come from a pool of three, so repeats land before, after and on
    either side of a bad probability.
    """
    weights = draw(st.lists(st.integers(1, 9), max_size=4))
    probs = [w / sum(weights) for w in weights]
    for i in range(len(probs)):
        if draw(st.booleans()):
            probs[i] = draw(st.sampled_from(_EDGE_PROBABILITIES))
    targets = draw(st.lists(st.sampled_from([(0,), (1,), (2,)]), min_size=len(probs), max_size=len(probs)))
    return tuple(zip(targets, probs))


# One- to three-branch rows, as wide as builtin rows: each probability is a
# share of the mass or an edge value, the last may sit just inside or just
# outside SUM_TOLERANCE, targets repeat or cannot be hashed, and an item may
# be no (target, probability) pair at all.
_ROW_EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.0)
_ROW_NUDGES = (0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-10)
_ROW_TARGETS = ((0, 0), (0, 1), (1, 0), [0, 0], ((0,), [1]))
_NOT_PAIRS = ((0,), ((0, 0), 0.5, 0.5), 7, "ab", [(0, 2), 1.0], None)


@st.composite
def _short_rows(draw):
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    probs = [w / sum(weights) for w in weights]
    probs[-1] += draw(st.sampled_from(_ROW_NUDGES))
    for i in range(len(probs)):
        if draw(st.integers(0, 3)) == 0:
            probs[i] = draw(st.sampled_from(_ROW_EDGES))
    items = [(draw(st.sampled_from(_ROW_TARGETS)), prob) for prob in probs]
    for i in range(len(items)):
        if draw(st.integers(0, 5)) == 0:
            items[i] = draw(st.sampled_from(_NOT_PAIRS))
    return tuple(items) if draw(st.integers(0, 4)) else list(items)


def _outcome(make, support):
    """None if ``make(support)`` accepts it, else the error's type and message."""
    try:
        make(support)
    except Exception as err:
        return type(err), str(err)
    return None



class TestDistribution:
    def test_support_order_and_lookup(self):
        dist = Distribution((((0,), 0.25), ((1,), 0.75)))
        assert dist.support == (((0,), 0.25), ((1,), 0.75))
        assert [target for target, _ in dist.support] == [(0,), (1,)]
        assert dict(dist.support) == {(0,): 0.25, (1,): 0.75}
        assert (7,) not in dict(dist.support)
        assert dist != Distribution((((1,), 0.75), ((0,), 0.25)))

    def test_is_frozen(self):
        dist = Distribution((((0,), 1.0),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dist.support = ()

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            Distribution(())

    @pytest.mark.parametrize("bad", [0.0, -0.25, 1.25])
    def test_probability_range(self, bad):
        with pytest.raises(ValueError, match="outside"):
            Distribution((((0,), bad), ((1,), 1.0 - bad)))

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError, match="duplicate target"):
            Distribution((((0,), 0.5), ((0,), 0.5)))

    def test_mass_tolerance(self):
        third = 1.0 / 3.0
        Distribution((((0,), third), ((1,), third), ((2,), third)))
        with pytest.raises(ValueError, match="mass"):
            Distribution((((0,), 0.5), ((1,), 0.4)))

    def test_exact_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="^1 exact probabilities for 2 targets$"):
            Distribution((((0,), 0.5), ((1,), 0.5)), exact=(Fraction(1, 2),))

    @pytest.mark.parametrize(
        "exact",
        [(0.5, 0.5), ("1/2", "1/2"), (Fraction(1, 2), 0.5), [Fraction(1, 2), Fraction(1, 2)], Fraction(1, 2)],
        ids=["floats", "strings", "one-float", "list", "bare-fraction"],
    )
    def test_exact_that_is_not_a_tuple_of_fractions_rejected(self, exact):
        # A float or a string would reach ``.numerator``, and a list would
        # make the row unhashable.
        with pytest.raises(ValueError) as caught:
            Distribution((((0,), 0.5), ((1,), 0.5)), exact=exact)
        assert str(caught.value) == f"exact probabilities must be a tuple of Fractions, not {exact!r}"

    def test_exact_takes_part_in_equality(self):
        # A row with its rationals and the same row without them build
        # different chains, so they are different values.
        support = (((0,), 0.5), ((1,), 0.5))
        exact = Distribution(support, exact=(Fraction(1, 2), Fraction(1, 2)))
        assert exact.exact == (Fraction(1, 2), Fraction(1, 2))
        assert Distribution(support).exact is None
        assert exact == Distribution(support, (Fraction(1, 2), Fraction(1, 2)))
        assert hash(exact) == hash(Distribution(support, (Fraction(1, 2), Fraction(1, 2))))
        assert exact != Distribution(support)
        # Other rationals that round to the same floats.
        tiny = Fraction(1, 10**30)
        assert exact != Distribution(support, (Fraction(1, 2) + tiny, Fraction(1, 2) - tiny))

    def test_exact_must_round_to_its_float(self):
        support = (((0,), 0.5), ((1,), 0.5))
        with pytest.raises(ValueError, match=r"^exact probability 2/3 is not 0\.5 for target \(1,\)$"):
            Distribution(support, exact=(Fraction(1, 2), Fraction(2, 3)))
        Distribution((((0,), 1.0 / 3.0), ((1,), 2.0 / 3.0)), exact=(Fraction(1, 3), Fraction(2, 3)))

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    def test_normalized_weights_always_construct(self, weights):
        total = sum(weights)
        pairs = tuple(((i,), w / total) for i, w in enumerate(weights))
        dist = Distribution(pairs)
        assert dist.support == tuple(((i,), w / total) for i, w in enumerate(weights))


    @pytest.mark.parametrize(
        "support",
        [
            # A repeated target before a bad probability is reported first ...
            (((0,), 0.5), ((0,), 0.5), ((1,), math.nan)),
            (((0,), 0.25), ((0,), 0.25), ((1,), 0.0)),
            # ... and after one, the bad probability is.
            (((0,), 0.5), ((1,), math.nan), ((0,), 0.5)),
            (((0,), 0.5), ((1,), -0.0), ((0,), 0.5)),
            (((0,), 0.5), ((1,), math.inf), ((0,), 0.5)),
            (((0,), 1.0 + 1e-9),),
            (((0,), 0.5), ((1,), 0.5), ((0,), 0.25)),
            (((0,), 0.5), ((1,), 0.4)),
            (((0,), 5e-324),),
            (),
        ],
    )
    def test_first_violation_in_support_order(self, support):
        assert _outcome(Distribution, support) == _outcome(oracles.distribution_check_in_order, support)
        assert _outcome(Distribution, support) is not None

    @settings(max_examples=400)
    @given(_supports())
    def test_decides_as_the_ordered_check(self, support):
        assert _outcome(Distribution, support) == _outcome(oracles.distribution_check_in_order, support)

    @settings(max_examples=600)
    @given(_short_rows())
    def test_short_rows_as_the_ordered_check(self, support):
        outcome = _outcome(Distribution, support)
        assert outcome == _outcome(oracles.distribution_check_in_order, support)
        if outcome is None:
            dist = Distribution(support)
            assert dist.support is support and dist.exact is None
            assert dist == Distribution(support)


# ===== Chains =====


class TestDtmc:
    def test_counts_and_labels(self, chain3):
        assert chain3.num_states == 3
        assert chain3.num_transitions == 4
        assert chain3.state_labels == (frozenset(), frozenset({"goal"}), frozenset({"bad"}))

    def test_arrays_are_read_only_copies(self):
        probs = np.array([1.0])
        dtmc = Dtmc(((0,),), (frozenset(),), [0, 1], [0], probs)
        probs[0] = 0.5
        assert dtmc.probs.tolist() == [1.0]
        for array in (dtmc.indptr, dtmc.indices, dtmc.probs):
            with pytest.raises(ValueError):
                array[0] = 0


# ===== Explicit format: loading =====


class TestLoadExplicitModel:
    def test_chain3_schema_and_tables(self, chain3_env):
        env = chain3_env
        assert env.feature_schema == ("pos",)
        assert env.action_schema == ("step",)
        assert env.initial == (0,)
        assert env.declared_states == ((0,), (1,), (2,))
        assert env.available_actions((0,)) == ("step",)
        assert env.labels((1,)) == frozenset({"goal"})
        assert env.labels((0,)) == frozenset()

    def test_fraction_probabilities_are_exact(self, chain3_env):
        dist = chain3_env.successors((0,), "step")
        assert dist.support == (((1,), 0.5), ((2,), 0.5))

    def test_action_order_follows_schema_not_document(self):
        doc = {
            "features": ["v"],
            "actions": ["a", "b"],
            "initial": [0],
            "states": [
                {"s": [0], "act": {"b": [{"to": [0], "p": 1}], "a": [{"to": [0], "p": 1}]}}
            ],
        }
        env = load_explicit_model(json.dumps(doc))
        assert env.available_actions((0,)) == ("a", "b")

    def test_rew_key_is_unknown(self):
        doc = fixture_doc("chain3.json")
        doc["states"][0]["rew"] = {"step": 2.5}
        with pytest.raises(ModelSyntaxError) as exc:
            load_explicit_model(json.dumps(doc))
        assert str(exc.value) == "states[0]: unknown keys ['rew']"

    def test_malformed_json_reports_position(self):
        with pytest.raises(ModelSyntaxError, match="line 1 column"):
            load_explicit_model("{nope")

    def test_duplicate_json_key_rejected(self):
        text = '{"features": ["v"], "features": ["w"], "actions": ["a"], "initial": [0], "states": []}'
        with pytest.raises(ModelSyntaxError, match="duplicate key"):
            load_explicit_model(text)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("actions"), "missing top-level key"),
            (lambda d: d.update(extra=1), "unknown top-level keys"),
            (lambda d: d.update(features=["pos", "pos"]), "duplicates"),
            (lambda d: d.update(features=[]), "non-empty list"),
            (lambda d: d.update(initial=[0, 0]), "schema declares 1"),
            (lambda d: d["states"][0].pop("act"), "needs keys"),
            (lambda d: d["states"][0].update(labels=[1]), "list of strings"),
        ],
    )
    def test_syntax_errors(self, mutate, message):
        doc = fixture_doc("chain3.json")
        mutate(doc)
        with pytest.raises(ModelSyntaxError, match=message):
            load_explicit_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "p",
        [
            pytest.param("1" * 400, id="integer"),
            pytest.param('"%s/3"' % ("1" * 400), id="fraction"),
            pytest.param('"1e400"', id="decimal-string"),
        ],
    )
    def test_probability_too_large_for_a_float(self, p):
        text = json.dumps(fixture_doc("loop.json")).replace('"p": 0.1', f'"p": {p}', 1)
        with pytest.raises(ModelSyntaxError, match=r"^states\[0\]\.act\.step\[1\]\.p: ") as caught:
            load_explicit_model(text)
        assert caught.value.exit_code == 2

    def test_integer_past_the_digit_limit(self):
        text = json.dumps(fixture_doc("loop.json")).replace('"p": 0.1', f'"p": {"1" * 5000}', 1)
        with pytest.raises(ModelSyntaxError):
            load_explicit_model(text)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(initial=[10**400]), "'initial': feature value is too large for a float"),
            (lambda d: d["states"][1].update(s=[-(10**400)]), "states[1].s: feature value is too large for a float"),
            # A target must be a declared state, so it can be no larger.
            (
                lambda d: d["states"][1]["act"]["step"][0].update(to=[10**400]),
                f"state [1] action 'step' references undeclared state [{10**400}]",
            ),
        ],
        ids=["initial", "declared", "target"],
    )
    def test_feature_too_large_for_a_float(self, mutate, message):
        doc = fixture_doc("loop.json")
        mutate(doc)
        with pytest.raises((ModelSyntaxError, ModelSemanticError)) as caught:
            load_explicit_model(json.dumps(doc))
        assert str(caught.value) == message

    def test_largest_feature_a_float_holds_still_loads(self):
        doc = fixture_doc("loop.json")
        big = int(sys.float_info.max)
        doc["states"][1]["s"] = [big]
        doc["states"][0]["act"]["step"][1]["to"] = [big]
        doc["states"][1]["act"]["step"][0]["to"] = [big]
        assert load_explicit_model(json.dumps(doc)).declared_states == ((0,), (big,))

    def test_boolean_is_not_a_probability(self):
        doc = fixture_doc("loop.json")
        doc["states"][1]["act"]["step"][0]["p"] = True
        with pytest.raises(ModelSyntaxError, match="number or fraction"):
            load_explicit_model(json.dumps(doc))

    def test_boolean_is_not_a_feature_value(self):
        doc = fixture_doc("loop.json")
        doc["states"][1]["s"] = [True]
        with pytest.raises(ModelSyntaxError, match="list of integers"):
            load_explicit_model(json.dumps(doc))

    def test_zero_denominator_fraction(self):
        doc = fixture_doc("loop.json")
        doc["states"][1]["act"]["step"][0]["p"] = "2/0"
        with pytest.raises(ModelSyntaxError, match="cannot read"):
            load_explicit_model(json.dumps(doc))

    def test_action_outside_schema(self):
        doc = fixture_doc("loop.json")
        doc["states"][0]["act"]["jump"] = [{"to": [0], "p": 1}]
        with pytest.raises(ModelSyntaxError, match="not in the action schema"):
            load_explicit_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(initial=[9]), "is not declared"),
            (lambda d: d["states"][0].update(act={}), "zero actions"),
            (
                lambda d: d["states"][0]["act"]["step"].__setitem__(0, {"to": [9], "p": 0.9}),
                "undeclared state",
            ),
            (
                lambda d: d["states"][0]["act"]["step"].__setitem__(0, {"to": [1], "p": 0.4}),
                "mass",
            ),
            (lambda d: d["states"].append(dict(d["states"][0])), "declared twice"),
        ],
    )
    def test_semantic_errors(self, mutate, message):
        doc = fixture_doc("chain3.json")
        mutate(doc)
        with pytest.raises(ModelSemanticError, match=message):
            load_explicit_model(json.dumps(doc))

    def test_error_exit_codes(self):
        assert ModelSyntaxError("x").exit_code == 2
        assert ModelSemanticError("x").exit_code == 3

    def test_lookup_outside_model_is_semantic(self, chain3_env):
        with pytest.raises(ModelSemanticError, match="not part of the model"):
            chain3_env.available_actions((42,))
        with pytest.raises(ModelSemanticError, match="no distribution"):
            chain3_env.successors((0,), "jump")


# ===== Explicit format: repeated fraction strings =====


def _repeated_fractions_doc() -> dict:
    """Four states whose branches repeat "13/60" and mix 0.25 with "1/4"."""
    states = []
    for k in range(4):
        states.append(
            {
                "s": [k],
                "act": {
                    "a": [{"to": [(k + 1) % 4], "p": "13/60"}, {"to": [k], "p": "47/60"}],
                    "b": [
                        {"to": [0], "p": 0.25},
                        {"to": [1], "p": "1/4"},
                        {"to": [2], "p": "13/60" if k % 2 else "1/4"},
                        {"to": [3], "p": "17/60" if k % 2 else 0.25},
                    ],
                },
            }
        )
    return {"features": ["v"], "actions": ["a", "b"], "initial": [0], "states": states}


class TestFractionStrings:
    def test_every_branch_reads_its_own_value(self):
        doc = _repeated_fractions_doc()
        env = load_explicit_model(json.dumps(doc))
        for entry in doc["states"]:
            for action, branches in entry["act"].items():
                expected = tuple(
                    (tuple(b["to"]), float(Fraction(b["p"])) if isinstance(b["p"], str) else float(b["p"]))
                    for b in branches
                )
                assert env.successors(tuple(entry["s"]), action).support == expected

    def test_rationals_are_kept_where_every_branch_has_one(self):
        # Action "a" is all fraction strings; "b" mixes in the float 0.25.
        env = load_explicit_model(json.dumps(_repeated_fractions_doc()))
        for k in range(4):
            assert env.successors((k,), "a").exact == (Fraction(13, 60), Fraction(47, 60))
            assert env.successors((k,), "b").exact is None
        policies = {
            name: make_policy(("v",), ("a", "b"), [(np.zeros((2, 1)), np.array(bias))])
            for name, bias in (("a", [1.0, 0.0]), ("b", [0.0, 1.0]))
        }
        chain = build_induced_dtmc(env, policies["a"]).dtmc
        assert chain.exact_probs == (Fraction(13, 60), Fraction(47, 60)) * 4
        assert [float(r) for r in chain.exact_probs] == chain.probs.tolist()
        assert build_induced_dtmc(env, policies["b"]).dtmc.exact_probs is None

    def test_rationals_that_miss_one_are_dropped(self):
        # The floats pass the mass check, 5e-10 short of 1; the rationals are
        # exactly that short, so the row keeps none, and a row written the
        # same way elsewhere is judged the same.
        short = [{"to": [0], "p": "1/2"}, {"to": [1], "p": "1/4"}, {"to": [2], "p": "2499999995/10000000000"}]
        doc = {
            "features": ["v"],
            "actions": ["a", "b"],
            "initial": [0],
            "states": [
                {"s": [0], "act": {"a": short, "b": [{"to": [1], "p": "1/3"}, {"to": [0], "p": "2/3"}]}},
                {"s": [1], "act": {"a": short}},
                {"s": [2], "act": {"a": [{"to": [2], "p": "1"}]}},
            ],
        }
        env = load_explicit_model(json.dumps(doc))
        assert env.successors((0,), "a").exact is None
        assert env.successors((1,), "a").exact is None
        assert env.successors((0,), "b").exact == (Fraction(1, 3), Fraction(2, 3))

    def test_an_integer_one_is_exact(self):
        doc = {
            "features": ["v"],
            "actions": ["a"],
            "initial": [0],
            "states": [{"s": [0], "act": {"a": [{"to": [0], "p": 1}]}}],
        }
        assert load_explicit_model(json.dumps(doc)).successors((0,), "a").exact == (Fraction(1),)

    def test_a_bad_string_is_reported_where_it_first_occurs(self):
        doc = _repeated_fractions_doc()
        doc["states"][1]["act"]["a"][0]["p"] = "13/6x"
        doc["states"][2]["act"]["b"][1]["p"] = "13/6x"
        with pytest.raises(ModelSyntaxError) as exc:
            load_explicit_model(json.dumps(doc))
        assert str(exc.value) == "states[1].act.a[0].p: cannot read '13/6x' as a fraction"

    def test_a_bad_string_after_good_ones_is_still_reported(self):
        doc = _repeated_fractions_doc()
        doc["states"][3]["act"]["b"][1]["p"] = "1/0"
        with pytest.raises(ModelSyntaxError) as exc:
            load_explicit_model(json.dumps(doc))
        assert str(exc.value) == "states[3].act.b[1].p: cannot read '1/0' as a fraction"

    @pytest.mark.parametrize("earlier", [1, "1", "1/1", 1.0])
    def test_a_boolean_is_rejected_after_an_equal_value(self, earlier):
        doc = {
            "features": ["v"],
            "actions": ["a"],
            "initial": [0],
            "states": [
                {"s": [0], "act": {"a": [{"to": [1], "p": earlier}]}},
                {"s": [1], "act": {"a": [{"to": [0], "p": True}]}},
            ],
        }
        with pytest.raises(ModelSyntaxError) as exc:
            load_explicit_model(json.dumps(doc))
        assert str(exc.value) == "states[1].act.a[0].p: probability must be a number or fraction string"

    def test_round_trip_is_unchanged(self):
        # Export the chain each action induces and load it back: the values
        # parsed from the repeated strings survive bit for bit.
        env = load_explicit_model(json.dumps(_repeated_fractions_doc()))
        for bias in ([1.0, 0.0], [0.0, 1.0]):
            policy = make_policy(("v",), ("a", "b"), [(np.zeros((2, 1)), np.array(bias))])
            action = "a" if bias[0] else "b"
            text = induced_to_explicit(build_induced_dtmc(env, policy).dtmc, ("v",))
            again = load_explicit_model(text)
            pi = make_policy(("v",), ("pi",), [(np.zeros((1, 1)), np.zeros(1))])
            assert induced_to_explicit(build_induced_dtmc(again, pi).dtmc, ("v",)) == text
            for state in env.declared_states:
                assert again.successors(state, "pi") == env.successors(state, action)


# ===== Validation walks =====


def counter_env(limit: int | None = None) -> EnvironmentModel:
    """Behavioral model counting 0..9 with wraparound; optional deadlock."""

    def available(state):
        if limit is not None and state[0] >= limit:
            return ()
        return ("inc",)

    return EnvironmentModel(
        feature_schema=("n",),
        action_schema=("inc",),
        initial=(0,),
        available_actions=available,
        successors=lambda s, a: Distribution(((((s[0] + 1) % 10,), 1.0),)),
        labels=lambda s: frozenset(),
    )


class TestValidateModel:
    def test_clean_fixture(self, chain3_env):
        report = validate_model(chain3_env)
        assert report.ok
        assert report.states == 3
        assert report.transitions == 4
        assert report.reachable == {(0,), (1,), (2,)}

    def test_unreachable_declared_state_is_flagged(self):
        doc = fixture_doc("loop.json")
        doc["states"].append({"s": [5], "act": {"step": [{"to": [5], "p": 1}]}})
        report = validate_model(load_explicit_model(json.dumps(doc)))
        assert not report.ok
        assert any("unreachable" in v for v in report.violations)

    def test_deadlock_is_flagged(self):
        report = validate_model(counter_env(limit=3))
        assert not report.ok
        assert any("deadlock" in v for v in report.violations)

    def test_state_cap_raises_limit_error(self):
        with pytest.raises(LimitExceededError) as exc:
            validate_model(counter_env(), max_states=4)
        assert exc.value.exit_code == 4
        assert exc.value.states_seen == 4

    @pytest.mark.parametrize("cap", [0, -5])
    def test_state_cap_below_one_is_rejected(self, cap):
        env = from_uri("builtin:avoidance?width=1&height=1")
        with pytest.raises(ValueError) as exc:
            validate_model(env, max_states=cap)
        assert str(exc.value) == f"max_states must be at least 1, got {cap}"

    def test_wrong_width_successor_is_flagged(self):
        env = EnvironmentModel(
            feature_schema=("v",),
            action_schema=("a",),
            initial=(0,),
            available_actions=lambda s: ("a",),
            successors=lambda s, a: Distribution((((0, 0), 1.0),)),
            labels=lambda s: frozenset(),
        )
        report = validate_model(env)
        assert any("wrong width" in v for v in report.violations)

    def test_action_outside_schema_is_flagged(self):
        env = EnvironmentModel(
            feature_schema=("v",),
            action_schema=("a",),
            initial=(0,),
            available_actions=lambda s: ("mystery",),
            successors=lambda s, a: Distribution((((0,), 1.0),)),
            labels=lambda s: frozenset(),
        )
        report = validate_model(env)
        assert any("outside the schema" in v for v in report.violations)
