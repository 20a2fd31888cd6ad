"""Core model types: factored states, distributions, environments, chains.

A state is a fixed-length tuple of integers read through a feature schema.
An environment model is a Markov decision process given behaviorally, as
pure functions of the state; an explicit JSON table format covers models
small enough to write down, while builtin environments generate the same
interface lazily. A ``Dtmc`` is the action-free chain that remains once a
policy has picked one action per state.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import LimitExceededError, ModelSemanticError, ModelSyntaxError

# ===== Constants =====

# Tolerance for a distribution's probabilities summing to one. Fractions in
# the explicit format are converted exactly, so only float-typed inputs ever
# consume this slack.
SUM_TOLERANCE = 1e-9

# Default cap on explored states for validation walks.
DEFAULT_MAX_STATES = 1_000_000

# A state vector: one integer per feature, in schema order.
StateVector = tuple[int, ...]

# One row of a Dtmc: (target state index, probability) pairs.
IndexRow = tuple[tuple[int, float], ...]


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
        if not self.support:
            raise ValueError("distribution has empty support")
        seen: set[StateVector] = set()
        total = 0.0
        for target, prob in self.support:
            if not (0.0 < prob <= 1.0):
                raise ValueError(f"probability {prob!r} outside (0, 1] for target {target}")
            if target in seen:
                raise ValueError(f"duplicate target {target} in distribution")
            seen.add(target)
            total += prob
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"distribution mass {total!r} differs from 1 beyond tolerance")

    def targets(self) -> tuple[StateVector, ...]:
        return tuple(target for target, _ in self.support)

    def probability(self, target: StateVector) -> float:
        for candidate, prob in self.support:
            if candidate == target:
                return prob
        return 0.0


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
        reward: maps (state, action) to a float; optional extra, zero when
            the model declares none.
        declared_states: for table-backed models, the full declared state
            list in document order; None for lazily generated models.
    """

    feature_schema: tuple[str, ...]
    action_schema: tuple[str, ...]
    initial: StateVector
    available_actions: Callable[[StateVector], tuple[str, ...]]
    successors: Callable[[StateVector, str], Distribution]
    labels: Callable[[StateVector], frozenset[str]]
    reward: Callable[[StateVector, str], float] = field(default=lambda state, action: 0.0)
    declared_states: tuple[StateVector, ...] | None = None


# ===== Induced chains =====


@dataclass(frozen=True)
class Dtmc:
    """A discrete-time Markov chain over indexed states.

    State index 0 is the initial state. ``state_vectors`` keeps the original
    factored identity of each state; ``rows`` hold sparse transition rows as
    (target index, probability) pairs in construction order. ``rows`` is the
    one source of truth; ``arrays`` is a read-only view of it computed on
    first use.
    """

    state_vectors: tuple[StateVector, ...]
    state_labels: tuple[frozenset[str], ...]
    rows: tuple[IndexRow, ...]

    @property
    def num_states(self) -> int:
        return len(self.state_vectors)

    @property
    def num_transitions(self) -> int:
        return sum(len(row) for row in self.rows)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rows`` flattened in row order: (source, target, probability).

        Entry i is the i-th transition when the rows are read one after
        another, so anything that accumulates over these arrays in order
        adds up each row from its first pair to its last.
        """
        counts = [len(row) for row in self.rows]
        total = sum(counts)
        source = np.repeat(np.arange(len(self.rows)), counts)
        target = np.fromiter((t for row in self.rows for t, _ in row), dtype=np.intp, count=total)
        prob = np.fromiter((p for row in self.rows for _, p in row), dtype=np.float64, count=total)
        for array in (source, target, prob):
            array.flags.writeable = False
        return source, target, prob

    def alphabet(self) -> frozenset[str]:
        """All labels that occur on some state."""
        atoms: set[str] = set()
        for labels in self.state_labels:
            atoms |= labels
        return frozenset(atoms)

    def states_with(self, label: str) -> frozenset[int]:
        return frozenset(i for i, labels in enumerate(self.state_labels) if label in labels)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        n = self.num_states
        if n == 0:
            raise ValueError("chain has no states")
        if not (len(self.state_labels) == len(self.rows) == n):
            raise ValueError("state_vectors, state_labels and rows disagree on length")
        for i, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"state {i} has no outgoing transitions")
            total = 0.0
            seen: set[int] = set()
            for j, prob in row:
                if not (0 <= j < n):
                    raise ValueError(f"state {i} references out-of-range target {j}")
                if j in seen:
                    raise ValueError(f"state {i} repeats target {j}")
                seen.add(j)
                if not (0.0 < prob <= 1.0):
                    raise ValueError(f"probability {prob!r} outside (0, 1] on state {i}")
                total += prob
            if abs(total - 1.0) > SUM_TOLERANCE:
                raise ValueError(f"row of state {i} sums to {total!r}")


# ===== Explicit model format =====


def _fail_syntax(message: str) -> None:
    raise ModelSyntaxError(message)


def _fail_semantic(message: str) -> None:
    raise ModelSemanticError(message)


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    mapping: dict = {}
    for key, value in pairs:
        if key in mapping:
            _fail_syntax(f"duplicate key {key!r} in object")
        mapping[key] = value
    return mapping


def _parse_probability(raw: object, where: str) -> float:
    """Accept a JSON number or an exact "num/den" fraction string."""
    if isinstance(raw, bool):
        _fail_syntax(f"{where}: probability must be a number or fraction string")
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, str):
        try:
            return float(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            _fail_syntax(f"{where}: cannot read {raw!r} as a fraction")
    _fail_syntax(f"{where}: probability must be a number or fraction string")
    raise AssertionError("unreachable")


def _parse_state_vector(raw: object, width: int, where: str) -> StateVector:
    if not isinstance(raw, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        _fail_syntax(f"{where}: state must be a list of integers")
    if len(raw) != width:
        _fail_syntax(f"{where}: state has {len(raw)} features, schema declares {width}")
    return tuple(raw)


def load_explicit_model(text: str) -> EnvironmentModel:
    """Parse the explicit JSON table format into an EnvironmentModel.

    Syntax errors (malformed JSON, wrong shapes, unknown keys) raise
    ModelSyntaxError with position info where the JSON decoder provides it.
    Semantic errors (bad probability mass, dangling target states, missing
    initial state, a state without actions) raise ModelSemanticError naming
    the offending state and action.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as err:
        raise ModelSyntaxError(f"line {err.lineno} column {err.colno}: {err.msg}") from err

    if not isinstance(doc, dict):
        _fail_syntax("top level must be an object")
    unknown = set(doc) - {"features", "actions", "initial", "states"}
    if unknown:
        _fail_syntax(f"unknown top-level keys {sorted(unknown)}")
    for key in ("features", "actions", "initial", "states"):
        if key not in doc:
            _fail_syntax(f"missing top-level key {key!r}")

    features = doc["features"]
    actions = doc["actions"]
    if not isinstance(features, list) or not all(isinstance(f, str) for f in features) or not features:
        _fail_syntax("'features' must be a non-empty list of strings")
    if not isinstance(actions, list) or not all(isinstance(a, str) for a in actions) or not actions:
        _fail_syntax("'actions' must be a non-empty list of strings")
    if len(set(features)) != len(features):
        _fail_syntax("'features' contains duplicates")
    if len(set(actions)) != len(actions):
        _fail_syntax("'actions' contains duplicates")
    width = len(features)
    initial = _parse_state_vector(doc["initial"], width, "'initial'")

    if not isinstance(doc["states"], list) or not doc["states"]:
        _fail_syntax("'states' must be a non-empty list")

    declared: list[StateVector] = []
    label_table: dict[StateVector, frozenset[str]] = {}
    action_table: dict[StateVector, tuple[str, ...]] = {}
    raw_rows: dict[tuple[StateVector, str], list[tuple[StateVector, float]]] = {}
    reward_table: dict[tuple[StateVector, str], float] = {}

    for k, entry in enumerate(doc["states"]):
        where = f"states[{k}]"
        if not isinstance(entry, dict):
            _fail_syntax(f"{where}: must be an object")
        unknown = set(entry) - {"s", "labels", "act", "rew"}
        if unknown:
            _fail_syntax(f"{where}: unknown keys {sorted(unknown)}")
        if "s" not in entry or "act" not in entry:
            _fail_syntax(f"{where}: needs keys 's' and 'act'")
        state = _parse_state_vector(entry["s"], width, f"{where}.s")
        if state in label_table:
            _fail_semantic(f"state {list(state)} declared twice")

        raw_labels = entry.get("labels", [])
        if not isinstance(raw_labels, list) or not all(isinstance(l, str) for l in raw_labels):
            _fail_syntax(f"{where}.labels: must be a list of strings")
        label_table[state] = frozenset(raw_labels)
        declared.append(state)

        act = entry["act"]
        if not isinstance(act, dict):
            _fail_syntax(f"{where}.act: must be an object")
        if not act:
            _fail_semantic(f"state {list(state)} has zero actions")
        for action, branches in act.items():
            if action not in actions:
                _fail_syntax(f"{where}.act: action {action!r} not in the action schema")
            if not isinstance(branches, list) or not branches:
                _fail_syntax(f"{where}.act.{action}: must be a non-empty list of branches")
            pairs: list[tuple[StateVector, float]] = []
            for b, branch in enumerate(branches):
                spot = f"{where}.act.{action}[{b}]"
                if not isinstance(branch, dict) or set(branch) != {"to", "p"}:
                    _fail_syntax(f"{spot}: must be an object with keys 'to' and 'p'")
                target = _parse_state_vector(branch["to"], width, f"{spot}.to")
                pairs.append((target, _parse_probability(branch["p"], f"{spot}.p")))
            raw_rows[(state, action)] = pairs
        # Keep action order aligned with the schema, not document order.
        action_table[state] = tuple(a for a in actions if a in act)

        rew = entry.get("rew", {})
        if not isinstance(rew, dict):
            _fail_syntax(f"{where}.rew: must be an object")
        for action, value in rew.items():
            if action not in act:
                _fail_semantic(f"state {list(state)} declares a reward for absent action {action!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail_syntax(f"{where}.rew.{action}: must be a number")
            reward_table[(state, action)] = float(value)

    declared_set = set(declared)
    if initial not in declared_set:
        _fail_semantic(f"initial state {list(initial)} is not declared")

    distributions: dict[tuple[StateVector, str], Distribution] = {}
    for (state, action), pairs in raw_rows.items():
        for target, _ in pairs:
            if target not in declared_set:
                _fail_semantic(
                    f"state {list(state)} action {action!r} references undeclared state {list(target)}"
                )
        try:
            distributions[(state, action)] = Distribution(tuple(pairs))
        except ValueError as err:
            _fail_semantic(f"state {list(state)} action {action!r}: {err}")

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

    def labels(state: StateVector) -> frozenset[str]:
        try:
            return label_table[state]
        except KeyError:
            raise ModelSemanticError(f"state {list(state)} is not part of the model") from None

    def reward(state: StateVector, action: str) -> float:
        return reward_table.get((state, action), 0.0)

    return EnvironmentModel(
        feature_schema=tuple(features),
        action_schema=tuple(actions),
        initial=initial,
        available_actions=available_actions,
        successors=successors,
        labels=labels,
        reward=reward,
        declared_states=tuple(declared),
    )


def dump_explicit_model(env: EnvironmentModel) -> str:
    """Serialize a table-backed model to the explicit JSON format.

    Floats are written with their shortest round-tripping representation, so
    a load/dump/load cycle reproduces distributions bit for bit. Models with
    lazily generated state spaces cannot be dumped directly; build the
    reachable chain or enumerate them first.
    """
    if env.declared_states is None:
        raise ModelSemanticError("model has no declared state table to serialize")
    states_out = []
    for state in env.declared_states:
        entry: dict[str, object] = {"s": list(state)}
        labels = sorted(env.labels(state))
        if labels:
            entry["labels"] = labels
        act: dict[str, object] = {}
        rew: dict[str, float] = {}
        for action in env.available_actions(state):
            dist = env.successors(state, action)
            act[action] = [{"to": list(t), "p": p} for t, p in dist.support]
            value = env.reward(state, action)
            if value != 0.0:
                rew[action] = value
        entry["act"] = act
        if rew:
            entry["rew"] = rew
        states_out.append(entry)
    doc = {
        "features": list(env.feature_schema),
        "actions": list(env.action_schema),
        "initial": list(env.initial),
        "states": states_out,
    }
    return json.dumps(doc, indent=2)


# ===== Validation =====


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
    walk never reached.

    Args:
        env: the model to validate.
        max_states: exploration cap; exceeding it raises LimitExceededError,
            which signals size rather than invalidity.

    Returns:
        A ValidationReport with counts, violation strings and the reachable
        state set.
    """
    violations: list[str] = []
    seen: set[StateVector] = {env.initial}
    frontier: deque[StateVector] = deque([env.initial])
    order: list[StateVector] = []
    transitions = 0

    while frontier:
        state = frontier.popleft()
        order.append(state)
        try:
            actions = env.available_actions(state)
        except ModelSemanticError as err:
            violations.append(str(err))
            continue
        if not actions:
            violations.append(f"deadlock at state {list(state)}: empty action set")
            continue
        for action in actions:
            if action not in env.action_schema:
                violations.append(f"state {list(state)}: action {action!r} outside the schema")
                continue
            try:
                dist = env.successors(state, action)
            except ValueError as err:
                violations.append(f"state {list(state)} action {action!r}: {err}")
                continue
            transitions += len(dist.support)
            for target, _ in dist.support:
                if len(target) != len(env.feature_schema):
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
        states=len(order),
        transitions=transitions,
        violations=violations,
        reachable=frozenset(seen),
    )
