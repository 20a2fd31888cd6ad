"""The explicit model loader against the branch-by-branch reference, fault for fault."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prunecheck.model
from prunecheck import ModelSemanticError, ModelSyntaxError, load_explicit_model
from prunecheck.model import _read_probabilities

from . import oracles

# ===== Valid documents =====

# A key written "~dup~name" in a generated document is written "name" in its
# text, repeating the key "name" of the same object.
DUP = "~dup~"
# A string value written "~big~" becomes an integer past Python's digit limit.
BIG = "~big~"


def _written(rng: random.Random, value: Fraction) -> object:
    """One way a document can write the probability ``value``."""
    forms = [str(value), float(value)]
    if value == 1:
        forms.append(1)
    if value.denominator in (2, 4, 5, 8, 10):
        forms.append(str(float(value)))
    return rng.choice(forms)


def _row(rng: random.Random, targets: list) -> list:
    weights = [rng.randint(1, 4) for _ in targets]
    values = [Fraction(w, sum(weights)) for w in weights]
    written = [_written(rng, v) for v in values]
    if len(values) > 1 and rng.random() < 0.3:
        # Rationals 5e-10 short of 1: the floats pass the mass check, the row keeps none.
        written[-1] = str(values[-1] - Fraction(1, 2_000_000_000))
    return [{"to": list(t), "p": p} for t, p in zip(targets, written)]


def _valid_document(rng: random.Random) -> dict:
    width = rng.randint(1, 2)
    actions = rng.choice((["a"], ["a", "b"], ["c", "a", "b"]))
    states = rng.sample(list(itertools.product(range(-2, 3), repeat=width)), rng.randint(1, 4))
    entries = []
    for state in states:
        act = {}
        for action in rng.sample(actions, rng.randint(1, len(actions))):
            act[action] = _row(rng, rng.sample(states, rng.randint(1, min(3, len(states)))))
        entry = {"s": list(state), "act": act}
        labels = rng.choice((None, [], ["goal"], ["bad", "goal"]))
        if labels is not None:
            entry["labels"] = labels
        entries.append(entry)
    initial = rng.choice(states)
    return {"features": ["x", "y"][:width], "actions": actions, "initial": list(initial), "states": entries}


# Valid documents come from a seeded generator: drawing each choice through
# Hypothesis made a document cost ten times as much.
valid_documents = st.builds(_valid_document, st.randoms(use_true_random=True))


# ===== Faults =====
#
# Each fault takes a document (possibly broken by an earlier fault) and
# returns it with one more fault at a drawn position; where the position it
# needs is gone, it returns the document unchanged.


def _width(doc) -> int:
    features = doc.get("features") if isinstance(doc, dict) else None
    return len(features) if isinstance(features, list) else 1


def _entries(doc) -> list:
    states = doc.get("states") if isinstance(doc, dict) else None
    return [e for e in states if isinstance(e, dict)] if isinstance(states, list) else []


def _actions(doc) -> list:
    """(act, action) for every action of a state."""
    return [(e["act"], a) for e in _entries(doc) if isinstance(e.get("act"), dict) for a in e["act"]]


def _rows(doc) -> list:
    """(act, action) for every list of branches."""
    return [(act, a) for act, a in _actions(doc) if isinstance(act[a], list)]


def _branches(doc) -> list:
    return [b for act, a in _rows(doc) for b in act[a] if isinstance(b, dict)]


def _pick(draw, options: list):
    """The last option two times in three, so that two faults often meet in one place."""
    if not options:
        return None
    return options[-1] if draw(st.integers(0, 2)) else draw(st.sampled_from(options))


def _bad_vector(draw, width: int) -> object:
    return draw(
        st.sampled_from(
            (
                [True] * width,
                [0.0] * width,
                [0] * (width - 1) + [False],
                [0] * (width + 1),
                [True] * (width + 1),
                [],
                "0",
                None,
                {"0": 0},
                [[0]] * width,
            )
        )
    )


def _not_an_object(draw, doc):
    return draw(st.sampled_from(([], "doc", 1, None)))


def _top_key(draw, doc):
    if isinstance(doc, dict):
        if draw(st.booleans()) and doc:
            doc.pop(draw(st.sampled_from(sorted(doc))))
        else:
            doc["extra"] = 1
    return doc


def _duplicate_key(draw, doc):
    objects = [doc, *_entries(doc), *(act for act, _ in _rows(doc)), *_branches(doc)]
    target = _pick(draw, [o for o in objects if isinstance(o, dict) and o])
    if target is not None:
        key = draw(st.sampled_from(sorted(target)))
        target[DUP + key] = target[key]
    return doc


def _digit_limit(draw, doc):
    branch = _pick(draw, _branches(doc))
    if branch is not None:
        branch["p"] = BIG
    return doc


def _schema(draw, doc):
    if isinstance(doc, dict):
        key = draw(st.sampled_from(("features", "actions")))
        value = doc.get(key)
        duplicated = value + value[:1] if isinstance(value, list) else value
        doc[key] = draw(st.sampled_from(("x", ["x", 1], [], None, duplicated)))
    return doc


def _initial(draw, doc):
    if isinstance(doc, dict):
        doc["initial"] = _bad_vector(draw, _width(doc))
    return doc


def _initial_undeclared(draw, doc):
    if isinstance(doc, dict):
        doc["initial"] = [9] * _width(doc)
    return doc


def _states(draw, doc):
    if isinstance(doc, dict):
        doc["states"] = draw(st.sampled_from(([], {}, "s", None)))
    return doc


def _entry(draw, doc):
    states = doc.get("states") if isinstance(doc, dict) else None
    if isinstance(states, list) and states:
        states[_pick(draw, range(len(states)))] = draw(st.sampled_from(([], "s", 1, None)))
    return doc


def _entry_keys(draw, doc):
    entry = _pick(draw, _entries(doc))
    if entry is not None:
        if draw(st.booleans()):
            entry["rew"] = {}
        else:
            entry.pop(draw(st.sampled_from(("s", "act"))), None)
    return doc


def _state(draw, doc):
    entry = _pick(draw, _entries(doc))
    if entry is not None:
        entry["s"] = _bad_vector(draw, _width(doc))
    return doc


def _declared_twice(draw, doc):
    entries = _entries(doc)
    entry = _pick(draw, entries)
    if entry is not None and len(entries) > 1:
        entry["s"] = draw(st.sampled_from([e.get("s") for e in entries if e is not entry]))
    elif entry is not None:
        doc["states"].append(json.loads(json.dumps(entry)))
    return doc


def _labels(draw, doc):
    entry = _pick(draw, _entries(doc))
    if entry is not None:
        entry["labels"] = draw(st.sampled_from(("goal", [1], {}, [None])))
    return doc


def _act(draw, doc):
    entry = _pick(draw, _entries(doc))
    if entry is not None:
        entry["act"] = draw(st.sampled_from(([], "a", None, {})))
    return doc


def _action_outside_schema(draw, doc):
    act, action = _pick(draw, _actions(doc)) or (None, None)
    if act is not None:
        renamed = {("zz" if key == action else key): value for key, value in act.items()}
        act.clear()
        act.update(renamed)
    return doc


def _branch_list(draw, doc):
    act, action = _pick(draw, _rows(doc)) or (None, None)
    if act is not None:
        act[action] = draw(st.sampled_from(([], {}, "x", None)))
    return doc


def _branch_shape(draw, doc):
    act, action = _pick(draw, _rows(doc)) or (None, None)
    if act is not None and act[action]:
        b = _pick(draw, range(len(act[action])))
        branch = act[action][b] if isinstance(act[action][b], dict) else {}
        shapes = ([], "b", None, {}, {"to": branch.get("to")}, {"to": branch.get("to"), "q": 1}, {**branch, "q": 1})
        act[action][b] = draw(st.sampled_from(shapes))
    return doc


def _target(draw, doc):
    branch = _pick(draw, _branches(doc))
    if branch is not None:
        branch["to"] = _bad_vector(draw, _width(doc))
    return doc


def _target_undeclared(draw, doc):
    branch = _pick(draw, _branches(doc))
    if branch is not None:
        branch["to"] = [9] * _width(doc)
    return doc


def _probability(draw, doc):
    branch = _pick(draw, _branches(doc))
    if branch is not None:
        branch["p"] = draw(
            st.sampled_from(
                (True, False, None, [0.5], {}, "1/0", "abc", "1/3/4", "", 10**400, "1e400", "%s/3" % ("1" * 400))
            )
        )
    return doc


def _probability_range(draw, doc):
    branch = _pick(draw, _branches(doc))
    if branch is not None:
        branch["p"] = draw(st.sampled_from((0, 0.0, -0.0, "0", -0.5, "-1/2", 1.5, "3/2", 2, math.nan, math.inf)))
    return doc


def _duplicate_target(draw, doc):
    act, action = _pick(draw, _rows(doc)) or (None, None)
    if act is not None and act[action]:
        branches = act[action]
        b = _pick(draw, range(len(branches)))
        others = [x.get("to") for i, x in enumerate(branches) if i != b and isinstance(x, dict)]
        if others and isinstance(branches[b], dict):
            branches[b]["to"] = draw(st.sampled_from(others))
        else:
            branches.append(json.loads(json.dumps(branches[b])))
    return doc


def _mass(draw, doc):
    branch = _pick(draw, _branches(doc))
    if branch is not None:
        branch["p"] = draw(st.sampled_from(("1/1000", 0.001)))
    return doc


FAULTS = [
    _not_an_object,
    _top_key,
    _duplicate_key,
    _digit_limit,
    _schema,
    _initial,
    _initial_undeclared,
    _states,
    _entry,
    _entry_keys,
    _state,
    _declared_twice,
    _labels,
    _act,
    _action_outside_schema,
    _branch_list,
    _branch_shape,
    _target,
    _target_undeclared,
    _probability,
    _probability_range,
    _duplicate_target,
    _mass,
]
# Text-level faults: JSON the decoder rejects, nested past the recursion limit.
TEXT_FAULTS = ["truncate", "nest"]


def _text(draw, doc, text_fault: str | None) -> str:
    text = json.dumps(doc).replace(f'"{DUP}', '"').replace(f'"{BIG}"', "1" * 5000)
    if text_fault == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif text_fault == "nest":
        text = "[" * 100_000 + text + "]" * 100_000
    return text


@st.composite
def faulty_texts(draw, faults=st.lists(st.sampled_from(FAULTS + TEXT_FAULTS), max_size=2)) -> str:
    doc = draw(valid_documents)
    text_fault = None
    for fault in draw(faults):
        if fault in TEXT_FAULTS:
            text_fault = fault
        else:
            doc = fault(draw, doc)
    return _text(draw, doc, text_fault)


# ===== The loader equals the reference =====


def _name(fault) -> str:
    return fault if isinstance(fault, str) else fault.__name__[1:]


def _outcome(load, text):
    try:
        return load(text)
    except (ModelSyntaxError, ModelSemanticError) as err:
        return err


def _assert_same_outcome(text: str) -> None:
    expected = _outcome(oracles.explicit_model_reference, text)
    actual = _outcome(load_explicit_model, text)
    if isinstance(expected, Exception):
        assert (type(actual), str(actual)) == (type(expected), str(expected))
        return
    assert not isinstance(actual, Exception), actual
    assert actual.feature_schema == expected["features"]
    assert actual.action_schema == expected["actions"]
    assert actual.initial == expected["initial"]
    assert actual.declared_states == expected["declared"]
    for state in expected["declared"]:
        assert actual.labels(state) == expected["labels"][state]
        assert actual.available_actions(state) == expected["available"][state]
        for action in expected["available"][state]:
            row = actual.successors(state, action)
            support, exact = expected["rows"][(state, action)]
            assert (row.support, row.exact) == (support, exact)
            assert all(type(p) is float for _, p in row.support)


@settings(max_examples=400, deadline=None)
@given(faulty_texts())
def test_loader_equals_the_reference_on_documents_with_up_to_two_faults(text):
    _assert_same_outcome(text)


@pytest.mark.parametrize("fault", FAULTS + TEXT_FAULTS, ids=_name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_fault_kind_is_an_error_the_loader_words_as_the_reference(fault, data):
    text = data.draw(faulty_texts(st.just([fault])))
    with pytest.raises((ModelSyntaxError, ModelSemanticError)):
        oracles.explicit_model_reference(text)
    _assert_same_outcome(text)


@pytest.mark.parametrize(
    "pair",
    [(first, second) for i, first in enumerate(FAULTS) for second in FAULTS[i:]],
    ids=lambda pair: "+".join(map(_name, pair)),
)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_every_pair_of_fault_kinds_gives_the_reference_error(pair, data):
    # Both orders of application, and both faults often in one place: the
    # error is then decided by which check comes first.
    order = data.draw(st.permutations(pair))
    _assert_same_outcome(data.draw(faulty_texts(st.just(order))))


# ===== Rows that repeat a pattern of probabilities =====
#
# The loader reads and checks each pattern of probabilities, as written, once.
# A JSON 1, 1.0 and "1" are equal or alike but give different rows, 0.0 and
# -0.0 are equal but worded apart, and a pattern that passes still leaves
# each row's targets to be checked.


def _chain_text(rows: list, initial: int = 0) -> str:
    """States 0..len(rows) - 1 under action "a", state i's row ``rows[i]`` as [(target, p), ...]."""
    states = [{"s": [i], "act": {"a": [{"to": [t], "p": p} for t, p in row]}} for i, row in enumerate(rows)]
    return json.dumps({"features": ["v"], "actions": ["a"], "initial": [initial], "states": states})


@pytest.mark.parametrize("order", list(itertools.permutations([1, 1.0, "1"])), ids=repr)
def test_one_written_three_ways_keeps_its_own_rationals(order):
    text = _chain_text([[(i, p)] for i, p in enumerate(order)])
    _assert_same_outcome(text)
    env = load_explicit_model(text)
    for i, p in enumerate(order):
        row = env.successors((i,), "a")
        assert row.support == (((i,), 1.0),)
        assert row.exact == (None if type(p) is float else (Fraction(1),))


def test_halves_as_floats_and_fractions_in_one_document():
    halves = [[(0, 0.5), (1, 0.5)], [(0, "1/2"), (1, "1/2")], [(0, 0.5), (1, 0.5)], [(0, "1/2"), (1, "1/2")]]
    text = _chain_text(halves)
    _assert_same_outcome(text)
    env = load_explicit_model(text)
    assert [env.successors((i,), "a").exact for i in range(4)] == [None, (Fraction(1, 2),) * 2] * 2


@pytest.mark.parametrize("first", [True, False], ids=["first", "repeat"])
def test_a_repeated_pattern_still_checks_its_targets(first):
    rows = [[(0, "1/2"), (1, "1/2")], [(0, "1/2"), (0, "1/2")]]
    text = _chain_text(rows if first else rows[::-1])
    _assert_same_outcome(text)
    duplicate = r"^state \[[01]\] action 'a': duplicate target \(0,\) in distribution$"
    with pytest.raises(ModelSemanticError, match=duplicate):
        load_explicit_model(text)


@pytest.mark.parametrize(
    "rows, message",
    [
        # The rejected row comes first, in state 1, then an undeclared target in state 2.
        (
            [[(0, 1)], [(0, "1/3"), (1, "1/3")], [(9, 1)]],
            "state [1] action 'a': distribution mass 0.6666666666666666 differs from 1 beyond tolerance",
        ),
        # The undeclared target comes first, in state 1, then the rejected row in state 2.
        ([[(0, 1)], [(9, 1)], [(0, "1/3"), (1, "1/3")]], "state [1] action 'a' references undeclared state [9]"),
        # One row breaks both rules; its undeclared target is named first.
        ([[(0, 1)], [(0, 0.25), (9, 0.25)]], "state [1] action 'a' references undeclared state [9]"),
    ],
)
def test_row_errors_come_in_row_order(rows, message):
    text = _chain_text(rows)
    _assert_same_outcome(text)
    with pytest.raises(ModelSemanticError) as caught:
        load_explicit_model(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)], ids=repr)
def test_zero_and_negative_zero_are_worded_apart(zeros):
    # Equal as floats, both out of range: each document names its own first.
    text = _chain_text([[(0, zeros[0]), (1, 1.0)], [(0, zeros[1]), (1, 1.0)]])
    _assert_same_outcome(text)
    with pytest.raises(ModelSemanticError) as caught:
        load_explicit_model(text)
    assert str(caught.value) == f"state [0] action 'a': probability {zeros[0]!r} outside (0, 1] for target (0,)"


@pytest.mark.parametrize("bad", [True, [1], {"p": 1}, None], ids=repr)
def test_a_value_equal_to_a_passing_pattern_is_still_read(bad):
    # True equals 1 and hashes alike; a list or an object cannot be a key.
    text = _chain_text([[(0, 1)], [(1, bad)]])
    _assert_same_outcome(text)
    with pytest.raises(ModelSyntaxError, match=r"^states\[1\]\.act\.a\[0\]\.p: probability must be a number"):
        load_explicit_model(text)


def test_a_bad_probability_is_named_before_a_later_bad_branch():
    # Branch 0's probability is unreadable and branch 1 lacks "p": branch 0 is named.
    doc = json.loads(_chain_text([[(0, "1/2"), (0, "1/2")]]))
    doc["states"][0]["act"]["a"][0]["p"] = "abc"
    del doc["states"][0]["act"]["a"][1]["p"]
    text = json.dumps(doc)
    _assert_same_outcome(text)
    with pytest.raises(ModelSyntaxError, match=r"^states\[0\]\.act\.a\[0\]\.p: cannot read 'abc'"):
        load_explicit_model(text)


# ===== Fraction strings shared across patterns =====
#
# Each fraction string is parsed once per document, whichever pattern of
# probabilities it appears in; no perfbench document reads a string again
# from a new pattern.


def test_rows_of_distinct_patterns_share_their_fraction_strings():
    thirds = [[(0, "1/3"), (1, "2/3")], [(0, "2/3"), (1, "1/3")], [(0, "1/3"), (1, "1/3"), (2, "1/3")]]
    text = _chain_text(thirds + [[(0, "2/3"), (2, "1/3"), (1, 1e-300)]])
    _assert_same_outcome(text)
    env = load_explicit_model(text)
    assert env.successors((2,), "a").exact == (Fraction(1, 3),) * 3
    # The rationals of the last row sum to 1, but a JSON float holds none.
    assert env.successors((3,), "a").exact is None


@pytest.mark.parametrize(
    "bad, message",
    [("1/0", "cannot read '1/0' as a fraction"), ("abc", "cannot read 'abc' as a fraction"), ("1e400", "probability is too large for a float")],
)
def test_a_fraction_string_that_fails_is_never_remembered(bad, message):
    text = _chain_text([[(0, bad)]])
    _assert_same_outcome(text)
    # The loader raises at the first failure, so only a memo shared between
    # reads shows what a failure leaves behind: nothing, and a second read
    # raises as the first did.
    fractions = {"1/2": (0.5, Fraction(1, 2))}
    for _ in range(2):
        with pytest.raises(ModelSyntaxError) as caught:
            _read_probabilities(["1/2", bad], "row", fractions)
        assert str(caught.value) == f"row[1].p: {message}"
        assert fractions == {"1/2": (0.5, Fraction(1, 2))}


# ===== Repeated keys, proved absent by a count of ':' =====
#
# The loader decodes without a hook, which keeps the last of repeated keys,
# and counts the keys of the objects it reads against the ':' in the text.
# A string that holds a ':' in the text makes the count differ, and the hook
# decode then reads the text; one written \u003a leaves no ':' in the text.

# A state whose feature, action and label are each named by ``_NAMES``.
_NAMES = {"feature": "v", "action": "a", "label": "goal"}


def _colon_text(named: str, escaped: bool, repeated: str | None) -> str:
    """One state named by ``_NAMES``, except that ``named`` holds a ':', written
    plainly or escaped; the key ``repeated``, if any, is written twice."""
    names = dict(_NAMES)
    names[named] = "zone:" + names[named]
    v, a, label = names["feature"], names["action"], names["label"]
    doc = {
        "features": [v],
        "actions": [a],
        "initial": [0],
        "states": [{"s": [0], "labels": [label], "act": {a: [{"to": [0], "p": "1/1"}]}}],
    }
    text = json.dumps(doc)
    if repeated is not None:
        pair = next(p for p in (f'"{repeated}": "1/1"', f'"{repeated}": [0]', f'"{repeated}": ["{label}"]') if p in text)
        text = text.replace(pair, f"{pair}, {pair}", 1)
    return text.replace(":", "\\u003a").replace('"\\u003a ', '": ') if escaped else text


@pytest.mark.parametrize("repeated", [None, "p", "to", "labels", "initial"], ids=lambda key: f"repeats-{key}")
@pytest.mark.parametrize("escaped", [False, True], ids=["plain", "escaped"])
@pytest.mark.parametrize("named", sorted(_NAMES))
def test_a_name_that_holds_a_colon(named, escaped, repeated):
    text = _colon_text(named, escaped, repeated)
    assert ("zone:" in text) is not escaped
    _assert_same_outcome(text)
    if repeated is None:
        env = load_explicit_model(text)
        assert "zone:" in "".join(env.feature_schema + env.action_schema + tuple(env.labels((0,))))
    else:
        with pytest.raises(ModelSyntaxError, match=f"^duplicate key '{repeated}' in object$"):
            load_explicit_model(text)


def test_an_escaped_colon_does_not_hide_a_repeated_key():
    # One ':' too few for the keys written, one too many in the decoded
    # strings: counting those would cancel the repeat out.
    text = _colon_text("label", True, "p")
    assert text.count(":") == text.count('": ') and text.count('"p": ') == 2
    _assert_same_outcome(text)
    with pytest.raises(ModelSyntaxError, match="^duplicate key 'p' in object$"):
        load_explicit_model(text)


def test_a_repeated_key_inside_a_rejected_value_is_named():
    # Without the hook, the value is {"x": 2}, which the loader rejects as a probability.
    text = _chain_text([[(0, "~p~")]]).replace('"~p~"', '{"x": 1, "x": 2}')
    _assert_same_outcome(text)
    with pytest.raises(ModelSyntaxError, match="^duplicate key 'x' in object$"):
        load_explicit_model(text)


@pytest.mark.parametrize(
    "text, message",
    [
        # The branch that repeats "p" closes before the text breaks off.
        ('{"features": ["v"], "actions": ["a"], "states": [{"act": {"a": [{"to": [0], "p": 1, "p": 1}], ', "duplicate key 'p' in object"),
        # The top level, which repeats "actions", never closes.
        ('{"features": ["v"], "actions": ["a"], "actions": ["a"], "states": [', "line 1 column 68: Expecting value"),
        # The text breaks where the branch that would repeat "p" begins.
        ('{"features": ["v"], "actions": ["a"], "states": [{"act": {"a": [{"to": [0] "p": 1, "p": 1}]}}]}', "line 1 column 76: Expecting ',' delimiter"),
    ],
    ids=["repeat-closes-first", "repeat-never-closes", "repeat-after"],
)
def test_a_repeated_key_and_malformed_text_are_named_in_text_order(text, message):
    _assert_same_outcome(text)
    with pytest.raises(ModelSyntaxError) as caught:
        load_explicit_model(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("named", [None, "label"], ids=["no-colon", "colon-in-a-label"])
def test_the_hook_decode_reads_only_a_text_whose_count_differs(monkeypatch, named):
    hooked = []
    read = prunecheck.model.read_json_object
    monkeypatch.setattr(prunecheck.model, "read_json_object", lambda *args: hooked.append(args) or read(*args))
    text = _colon_text(named, False, None) if named else _chain_text([[(0, "1/2"), (1, "1/2")], [(1, 1)]])
    load_explicit_model(text)
    assert len(hooked) == (1 if named else 0)


# ===== The garbage collector =====


_ONE_STATE = {
    "features": ["v"],
    "actions": ["a"],
    "initial": [0],
    "states": [{"s": [0], "act": {"a": [{"to": [0], "p": 1}]}}],
}


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_the_collector_reads_after_a_load_as_it_did_before(collector, enabled, raises):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if raises:
        with pytest.raises(ModelSemanticError, match="initial state"):
            load_explicit_model(json.dumps(dict(_ONE_STATE, initial=[1])))
    else:
        assert load_explicit_model(json.dumps(_ONE_STATE)).declared_states == ((0,),)
    assert gc.isenabled() is enabled
