"""Core model types: factored states, distributions, environments, chains.

A state is a fixed-length tuple of integers read through a feature schema.
An environment model is a Markov decision process given behaviorally, as
pure functions of the state; an explicit JSON table format covers models
small enough to write down, while builtin environments generate the same
interface lazily. A ``Dtmc`` is the action-free chain that remains once a
policy has picked one action per state, stored as compressed sparse rows.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import LimitExceededError, ModelSemanticError, ModelSyntaxError

# ===== Constants =====

# Tolerance for a distribution's probabilities summing to one. Fractions in
# the explicit format are converted exactly, so only float-typed inputs ever
# consume this slack.
SUM_TOLERANCE = 1e-9

# Default cap on explored states for validation walks and chain builds.
DEFAULT_MAX_STATES = 1_000_000

# A state vector: one integer per feature, in schema order.
StateVector = tuple[int, ...]


# ===== Distributions =====


@dataclass(frozen=True)
class Distribution:
    """A finitely supported probability distribution over state vectors.

    The support order is part of the value: two distributions with the same
    pairs in different orders compare unequal, which is what lets callers
    rely on distributions being reproduced identically call after call.

    Raises:
        ValueError: if a probability is not in (0, 1], a target repeats,
            the support is empty, or the total mass is off by more than
            ``SUM_TOLERANCE``.
    """

    support: tuple[tuple[StateVector, float], ...]

    def __post_init__(self) -> None:
        # One pass decides: every probability in range, no target twice (else
        # the set holds fewer targets than the support has pairs), and the
        # mass, summed in support order, within tolerance (an empty support
        # has mass 0). Only a rejected support is walked again, to word the
        # error after its first violation in support order.
        support = self.support
        seen: set[StateVector] = set()
        total = 0.0
        for target, prob in support:
            if not 0.0 < prob <= 1.0:
                break
            seen.add(target)
            total += prob
        else:
            if abs(total - 1.0) <= SUM_TOLERANCE and len(seen) == len(support):
                return
        _check_in_order(support)


def _check_in_order(support: tuple[tuple[StateVector, float], ...]) -> None:
    """Raise the ValueError naming a support's first violation in support order."""
    if not support:
        raise ValueError("distribution has empty support")
    seen: set[StateVector] = set()
    total = 0.0
    for target, prob in support:
        if not (0.0 < prob <= 1.0):
            raise ValueError(f"probability {prob!r} outside (0, 1] for target {target}")
        if target in seen:
            raise ValueError(f"duplicate target {target} in distribution")
        seen.add(target)
        total += prob
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"distribution mass {total!r} differs from 1 beyond tolerance")


# ===== Environment models =====


@dataclass(frozen=True)
class EnvironmentModel:
    """A factored MDP described behaviorally.

    Attributes:
        feature_schema: ordered feature names; defines state-vector length.
        action_schema: ordered action names; ordering breaks policy ties.
        initial: the single initial state vector.
        available_actions: maps a state to its non-empty ordered action
            subset (schema order).
        successors: maps (state, action) to a Distribution. Must be a pure
            function: equal inputs return identical distributions.
        labels: maps a state to its set of atomic propositions.
        declared_states: for table-backed models, the full declared state
            list in document order; None for lazily generated models.
        rationals: for table-backed models, maps (state, action) to the
            rationals behind its distribution's probabilities, in support
            order, or to None when one was written as a float or they do
            not sum to exactly 1; None for models that keep no rationals.
    """

    feature_schema: tuple[str, ...]
    action_schema: tuple[str, ...]
    initial: StateVector
    available_actions: Callable[[StateVector], tuple[str, ...]]
    successors: Callable[[StateVector, str], Distribution]
    labels: Callable[[StateVector], frozenset[str]]
    declared_states: tuple[StateVector, ...] | None = None
    rationals: Callable[[StateVector, str], tuple[Fraction, ...] | None] | None = None


# ===== Induced chains =====


@dataclass(frozen=True, eq=False)
class Dtmc:
    """A discrete-time Markov chain over indexed states.

    State index 0 is the initial state. ``state_vectors`` keeps the original
    factored identity of each state. Transitions are compressed sparse rows:
    state i's (target, probability) pairs are ``indices[k]``, ``probs[k]``
    for k in ``indptr[i]:indptr[i + 1]``, in construction order. The three
    arrays are the chain's only transition storage; they are copied on
    construction and read-only. ``exact_probs``, when given, holds the
    rational behind every entry of ``probs``, in the same order. Chains
    compare by identity.
    """

    state_vectors: tuple[StateVector, ...]
    state_labels: tuple[frozenset[str], ...]
    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    exact_probs: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        for name, dtype in (("indptr", np.intp), ("indices", np.intp), ("probs", np.float64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def num_states(self) -> int:
        return len(self.state_vectors)

    @property
    def num_transitions(self) -> int:
        return len(self.indices)


# ===== Explicit model format =====


def read_json_object(text: str, keys: tuple[str, ...], error: type[Exception], where: str) -> dict:
    """Parse a JSON document whose top level is an object with exactly ``keys``.

    Malformed or undecodable JSON (with the decoder's line and column when it
    gives them), a key repeated in any object (named "in ``where``"), and a
    top level that is not an object or lacks or adds a key raise ``error``.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        mapping = dict(pairs)
        if len(mapping) < len(pairs):
            keys_read = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys_read) if key in keys_read[:i])
            raise error(f"duplicate key {repeated!r} in {where}")
        return mapping

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise error(f"line {err.lineno} column {err.colno}: {err.msg}") from err
    except (ValueError, RecursionError) as err:  # an integer past the digit limit, or deep nesting
        raise error(str(err)) from err
    if not isinstance(doc, dict):
        raise error("top level must be an object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise error(f"unknown top-level keys {sorted(unknown)}")
    for key in keys:
        if key not in doc:
            raise error(f"missing top-level key {key!r}")
    return doc


def _parse_probability(
    raw: object, where: str, fractions: dict[str, tuple[float, Fraction]]
) -> tuple[float, Fraction | None]:
    """Accept a JSON number or an exact "num/den" fraction string.

    Returns the float and, for a fraction string or a JSON integer, the
    rational it denotes; a JSON float has none, its decimal text being gone.
    ``fractions`` maps each fraction string already read to its pair, so a
    string repeated across a document is parsed once; a string that fails
    to parse is never stored, and raises again wherever it occurs.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ModelSyntaxError(f"{where}: probability must be a number or fraction string")
    try:
        if not isinstance(raw, str):
            return float(raw), Fraction(raw) if isinstance(raw, int) else None
        pair = fractions.get(raw)
        if pair is None:
            exact = Fraction(raw)
            pair = fractions[raw] = (float(exact), exact)
        return pair
    except (ValueError, ZeroDivisionError):
        raise ModelSyntaxError(f"{where}: cannot read {raw!r} as a fraction")
    except OverflowError:
        raise ModelSyntaxError(f"{where}: probability is too large for a float")


def _parse_state_vector(raw: object, width: int, where: str) -> StateVector:
    if not isinstance(raw, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        raise ModelSyntaxError(f"{where}: state must be a list of integers")
    if len(raw) != width:
        raise ModelSyntaxError(f"{where}: state has {len(raw)} features, schema declares {width}")
    return tuple(raw)


def load_explicit_model(text: str) -> EnvironmentModel:
    """Parse the explicit JSON table format into an EnvironmentModel.

    Syntax errors (malformed JSON, wrong shapes, unknown keys) raise
    ModelSyntaxError with position info where the JSON decoder provides it.
    Semantic errors (bad probability mass, dangling target states, missing
    initial state, a state without actions) raise ModelSemanticError naming
    the offending state and action.
    """
    doc = read_json_object(text, ("features", "actions", "initial", "states"), ModelSyntaxError, "object")

    features = doc["features"]
    actions = doc["actions"]
    if not isinstance(features, list) or not all(isinstance(f, str) for f in features) or not features:
        raise ModelSyntaxError("'features' must be a non-empty list of strings")
    if not isinstance(actions, list) or not all(isinstance(a, str) for a in actions) or not actions:
        raise ModelSyntaxError("'actions' must be a non-empty list of strings")
    if len(set(features)) != len(features):
        raise ModelSyntaxError("'features' contains duplicates")
    if len(set(actions)) != len(actions):
        raise ModelSyntaxError("'actions' contains duplicates")
    width = len(features)
    initial = _parse_state_vector(doc["initial"], width, "'initial'")

    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ModelSyntaxError("'states' must be a non-empty list")

    declared: list[StateVector] = []
    label_table: dict[StateVector, frozenset[str]] = {}
    action_table: dict[StateVector, tuple[str, ...]] = {}
    raw_rows: dict[tuple[StateVector, str], tuple[list[tuple[StateVector, float]], list[Fraction] | None]] = {}
    fractions: dict[str, tuple[float, Fraction]] = {}
    # Whether the rationals of a row, keyed by its probabilities as written,
    # sum to exactly 1; documents repeat a few rows many times.
    whole: dict[tuple[object, ...], bool] = {}

    for k, entry in enumerate(doc["states"]):
        where = f"states[{k}]"
        if not isinstance(entry, dict):
            raise ModelSyntaxError(f"{where}: must be an object")
        unknown = set(entry) - {"s", "labels", "act"}
        if unknown:
            raise ModelSyntaxError(f"{where}: unknown keys {sorted(unknown)}")
        if "s" not in entry or "act" not in entry:
            raise ModelSyntaxError(f"{where}: needs keys 's' and 'act'")
        state = _parse_state_vector(entry["s"], width, f"{where}.s")
        if state in label_table:
            raise ModelSemanticError(f"state {list(state)} declared twice")

        raw_labels = entry.get("labels", [])
        if not isinstance(raw_labels, list) or not all(isinstance(l, str) for l in raw_labels):
            raise ModelSyntaxError(f"{where}.labels: must be a list of strings")
        label_table[state] = frozenset(raw_labels)
        declared.append(state)

        act = entry["act"]
        if not isinstance(act, dict):
            raise ModelSyntaxError(f"{where}.act: must be an object")
        if not act:
            raise ModelSemanticError(f"state {list(state)} has zero actions")
        for action, branches in act.items():
            if action not in actions:
                raise ModelSyntaxError(f"{where}.act: action {action!r} not in the action schema")
            if not isinstance(branches, list) or not branches:
                raise ModelSyntaxError(f"{where}.act.{action}: must be a non-empty list of branches")
            pairs: list[tuple[StateVector, float]] = []
            exact: list[Fraction] | None = []
            for b, branch in enumerate(branches):
                spot = f"{where}.act.{action}[{b}]"
                if not isinstance(branch, dict) or set(branch) != {"to", "p"}:
                    raise ModelSyntaxError(f"{spot}: must be an object with keys 'to' and 'p'")
                target = _parse_state_vector(branch["to"], width, f"{spot}.to")
                prob, rational = _parse_probability(branch["p"], f"{spot}.p", fractions)
                pairs.append((target, prob))
                if rational is None:
                    exact = None
                elif exact is not None:
                    exact.append(rational)
            if exact is not None:
                written = tuple([branch["p"] for branch in branches])
                if written not in whole:
                    whole[written] = sum(exact) == 1
                # The float check forgives a mass off by a rounding; rationals
                # that miss 1 would pass a defective row off as exact.
                if not whole[written]:
                    exact = None
            raw_rows[(state, action)] = (pairs, exact)
        # Keep action order aligned with the schema, not document order.
        action_table[state] = tuple(a for a in actions if a in act)

    declared_set = set(declared)
    if initial not in declared_set:
        raise ModelSemanticError(f"initial state {list(initial)} is not declared")

    distributions: dict[tuple[StateVector, str], Distribution] = {}
    rationals: dict[tuple[StateVector, str], tuple[Fraction, ...] | None] = {}
    for (state, action), (pairs, exact) in raw_rows.items():
        for target, _ in pairs:
            if target not in declared_set:
                raise ModelSemanticError(
                    f"state {list(state)} action {action!r} references undeclared state {list(target)}"
                )
        try:
            distributions[(state, action)] = Distribution(tuple(pairs))
        except ValueError as err:
            raise ModelSemanticError(f"state {list(state)} action {action!r}: {err}")
        rationals[(state, action)] = None if exact is None else tuple(exact)

    def available_actions(state: StateVector) -> tuple[str, ...]:
        try:
            return action_table[state]
        except KeyError:
            raise ModelSemanticError(f"state {list(state)} is not part of the model") from None

    def successors(state: StateVector, action: str) -> Distribution:
        try:
            return distributions[(state, action)]
        except KeyError:
            raise ModelSemanticError(
                f"no distribution for state {list(state)} action {action!r}"
            ) from None

    def rationals_of(state: StateVector, action: str) -> tuple[Fraction, ...] | None:
        return rationals[(state, action)]

    def labels(state: StateVector) -> frozenset[str]:
        try:
            return label_table[state]
        except KeyError:
            raise ModelSemanticError(f"state {list(state)} is not part of the model") from None

    return EnvironmentModel(
        feature_schema=tuple(features),
        action_schema=tuple(actions),
        initial=initial,
        available_actions=available_actions,
        successors=successors,
        labels=labels,
        declared_states=tuple(declared),
        rationals=rationals_of,
    )


# ===== Validation =====


def check_cap(name: str, value: int) -> None:
    """Reject an exploration cap below 1, which would still admit the initial state."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class ValidationReport:
    """Outcome of a reachability walk over every action of a model."""

    states: int
    transitions: int
    violations: list[str]
    reachable: frozenset[StateVector]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(env: EnvironmentModel, max_states: int = DEFAULT_MAX_STATES) -> ValidationReport:
    """Walk the model breadth-first under all actions and check invariants.

    Checks, per reachable state: the action set is non-empty, every action's
    distribution is well formed (the Distribution type enforces mass and
    duplicate-target rules at construction), and action names fall inside
    the schema. For table-backed models, also reports declared states the
    walk never reached. The feature width, the action schema and the
    model's two functions are read once before the walk; violations are
    listed in the order the walk meets them.

    Args:
        env: the model to validate.
        max_states: exploration cap, at least 1; exceeding it raises
            LimitExceededError, which signals size rather than invalidity.

    Returns:
        A ValidationReport with counts, violation strings and the reachable
        state set.

    Raises:
        ValueError: ``max_states`` is below 1.
    """
    check_cap("max_states", max_states)
    width = len(env.feature_schema)
    schema = frozenset(env.action_schema)
    available_actions = env.available_actions
    successors = env.successors
    violations: list[str] = []
    seen: set[StateVector] = {env.initial}
    frontier: deque[StateVector] = deque([env.initial])
    visited = 0
    transitions = 0

    while frontier:
        state = frontier.popleft()
        visited += 1
        try:
            actions = available_actions(state)
        except ModelSemanticError as err:
            violations.append(str(err))
            continue
        if not actions:
            violations.append(f"deadlock at state {list(state)}: empty action set")
            continue
        for action in actions:
            if action not in schema:
                violations.append(f"state {list(state)}: action {action!r} outside the schema")
                continue
            try:
                dist = successors(state, action)
            except ValueError as err:
                violations.append(f"state {list(state)} action {action!r}: {err}")
                continue
            support = dist.support
            transitions += len(support)
            for target, _ in support:
                if len(target) != width:
                    violations.append(
                        f"state {list(state)} action {action!r}: target {list(target)} has wrong width"
                    )
                    continue
                if target not in seen:
                    if len(seen) >= max_states:
                        raise LimitExceededError(
                            f"reachable state count exceeds max_states={max_states}",
                            states_seen=len(seen),
                            transitions_seen=transitions,
                        )
                    seen.add(target)
                    frontier.append(target)

    if env.declared_states is not None:
        for state in env.declared_states:
            if state not in seen:
                violations.append(f"declared state {list(state)} is unreachable")

    return ValidationReport(
        states=visited,
        transitions=transitions,
        violations=violations,
        reachable=frozenset(seen),
    )
