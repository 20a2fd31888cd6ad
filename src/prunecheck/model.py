"""Core model types: factored states, distributions, environments, chains.

A state is a fixed-length tuple of integers read through a feature schema.
An environment model is a Markov decision process given behaviorally, as
pure functions of the state whose rows are ``Distribution``s, exact ones
carrying their rationals; an explicit JSON table format covers models
small enough to write down, while builtin environments generate the same
interface lazily, and describe the same rows for a whole level of states
at once as arrays. A row is checked against one rule, ``_support_fault``,
unless its writer vouches for it. A ``Dtmc`` is the action-free chain that
remains once a policy has picked one action per state, stored as
compressed sparse rows.
"""

from __future__ import annotations

import functools
import gc
import json
import math
from collections import deque
from dataclasses import dataclass, field
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

# Largest state box validate_model walks level by level, keeping one visited
# flag (a byte) and a first-mention stamp (four bytes, written only where a
# level mentions a state) per state of the box; a larger box is walked state
# by state.
LEVEL_WALK_MAX_CELLS = 1 << 24

# A state vector: one integer per feature, in schema order.
StateVector = tuple[int, ...]


# ===== Distributions =====


@dataclass(frozen=True, init=False)
class Distribution:
    """A finitely supported probability distribution over state vectors.

    The support order is part of the value: two distributions with the same
    pairs in different orders compare unequal, which is what lets callers
    rely on distributions being reproduced identically call after call.
    ``exact``, when given, holds the rationals behind the support's floats,
    in support order, and takes part in equality. Each must round to its
    branch's float; whoever writes them vouches that they sum to exactly 1.

    Raises:
        ValueError: at the first probability outside (0, 1] or repeated
            target in support order; else for an empty support, a mass off
            by more than ``SUM_TOLERANCE``, an ``exact`` that is not a tuple
            of ``Fraction``s, one of another length or the first rational in
            support order that is not its float.

    ``_trusted`` builds a row with none of these checks. Only code that
    vouches that the constructor would accept the row may call it:
    hashable, distinct targets, probabilities in (0, 1] whose mass is within
    the tolerance, and, if any, one rational per branch that rounds to its
    float. The builtin environments write their rows well formed by
    construction. The explicit loader checks the first row of each pattern
    of probabilities, as written, with the constructor's ``_support_fault``
    and every later one for repeated targets; a row that fails is worded by
    ``_support_fault`` too, as the constructor would word it. Every other
    caller goes through the constructor.
    """

    support: tuple[tuple[StateVector, float], ...]
    exact: tuple[Fraction, ...] | None = None

    def __init__(self, support: tuple[tuple[StateVector, float], ...], exact: tuple[Fraction, ...] | None = None):
        if not support:
            raise ValueError("distribution has empty support")
        fault = _support_fault(support)
        if fault is not None:
            raise ValueError(fault)
        object.__setattr__(self, "support", support)
        # A row without rationals reads the class default None; storing that
        # too, as a generated __init__ would, slows a builtin's row by a sixth.
        if exact is not None:
            if type(exact) is not tuple or not all(isinstance(rational, Fraction) for rational in exact):
                raise ValueError(f"exact probabilities must be a tuple of Fractions, not {exact!r}")
            if len(exact) != len(support):
                raise ValueError(f"{len(exact)} exact probabilities for {len(support)} targets")
            for (target, prob), rational in zip(support, exact):
                # Exactly float(rational), but Fraction converts through the
                # generic Rational.__float__, which costs twice as much a branch.
                if rational.numerator / rational.denominator != prob:
                    raise ValueError(f"exact probability {rational} is not {prob!r} for target {target}")
            object.__setattr__(self, "exact", exact)

    @classmethod
    def _trusted(cls, support: tuple[tuple[StateVector, float], ...], exact: tuple[Fraction, ...] | None = None):
        """The row the constructor would build from a well-formed ``support``, unchecked."""
        row = object.__new__(cls)
        row.__dict__["support"] = support
        if exact is not None:
            row.__dict__["exact"] = exact
        return row


def _support_fault(support: tuple[tuple[StateVector, float], ...]) -> str | None:
    """The first rule a non-empty ``support`` breaks, worded, or None.

    In support order, each probability must lie in (0, 1] and each target
    must not repeat an earlier one; then the probabilities, summed in that
    order, must lie within ``SUM_TOLERANCE`` of 1.
    """
    seen: set[StateVector] = set()
    total = 0.0
    for target, prob in support:
        if not 0.0 < prob <= 1.0:
            return f"probability {prob!r} outside (0, 1] for target {target}"
        if target in seen:
            return f"duplicate target {target} in distribution"
        seen.add(target)
        total += prob
    if abs(total - 1.0) > SUM_TOLERANCE:
        return f"distribution mass {total!r} differs from 1 beyond tolerance"
    return None


# ===== Environment models =====


@dataclass(frozen=True)
class Expansion:
    """A model's successor rows for a whole level of states, as arrays.

    Every state ``s`` of the model lies in the box ``0 <= s[i] < shape[i]``.
    ``step`` maps an (n, width) integer array of states to the arrays
    ``(counts, targets)``: one row per available (state, action) pair, in
    state order and then schema order, whose ``counts[r]`` branches follow
    those of row r - 1 in ``targets`` (one state per line), in support
    order. They are the rows that ``available_actions`` and ``successors``
    give, one for one.

    ``validate_model`` checks none of it, so only code that vouches, as for
    ``Distribution._trusted``, that every state of the box offers an action
    and that the constructor would accept every row may set one. The
    builtin environments do; every other model is walked through its
    callables, with every check.
    """

    shape: tuple[int, ...]
    step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class EnvironmentModel:
    """A factored MDP described behaviorally.

    The three callables must be pure functions: equal inputs return
    identical results, which lets a rebuild reuse another build's rows.

    Attributes:
        feature_schema: ordered feature names; defines state-vector length.
        action_schema: ordered action names; ordering breaks policy ties.
        initial: the single initial state vector.
        available_actions: maps a state to its non-empty ordered action
            subset (schema order).
        successors: maps (state, action) to a Distribution, with ``exact``
            set where the model knows its rationals.
        labels: maps a state to its set of atomic propositions.
        declared_states: for table-backed models, the full declared state
            list in document order; None for lazily generated models.
        expansion: for builtin environments, the rows of ``available_actions``
            and ``successors`` as array arithmetic over a level of states,
            trusted to be well formed (see ``Expansion``); ``validate_model``
            walks it instead of the two callables, unchecked, so a copy that
            replaces only the callables walks the original rows unless it
            sets this to None. None for other models.
    """

    feature_schema: tuple[str, ...]
    action_schema: tuple[str, ...]
    initial: StateVector
    available_actions: Callable[[StateVector], tuple[str, ...]]
    successors: Callable[[StateVector, str], Distribution]
    labels: Callable[[StateVector], frozenset[str]]
    declared_states: tuple[StateVector, ...] | None = None
    expansion: Expansion | None = None


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
    compare by identity. ``label_table`` reads ``state_labels`` once, on
    first use, into the distinct label sets and one index per state, so a
    check reads a label off the few distinct sets rather than every state's;
    the states of an explicit model that write the same labels share one
    set, which the table matches by identity. Beside it, each check of the
    chain reuses what an earlier one derived: ``predecessors``, the reverse
    graph, and ``bounded_kernels``, where the checker keeps the step of each
    bounded operator it has run.
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

    @functools.cached_property
    def label_table(self) -> tuple[tuple[frozenset[str], ...], np.ndarray]:
        """The distinct label sets, in order of first occurrence, and each state's index into them."""
        table: dict[frozenset[str], int] = {}
        codes = [table.setdefault(labels, len(table)) for labels in self.state_labels]
        return tuple(table), np.array(codes, dtype=np.intp)

    @functools.cached_property
    def predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        """The reverse graph, by ``reverse_graph``."""
        return reverse_graph(self.indptr, self.indices)

    @functools.cached_property
    def bounded_kernels(self) -> dict:
        """Empty until the checker keeps a bounded step here, by the bytes of the mask of states it steps."""
        return {}

    @property
    def num_states(self) -> int:
        return len(self.state_vectors)

    @property
    def num_transitions(self) -> int:
        return len(self.indices)


def reverse_graph(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, sources) of a chain's compressed sparse rows: state t's predecessors are
    ``sources[starts[t]:starts[t + 1]]``, one per transition into t, in row order."""
    n = len(indptr) - 1
    sources = np.repeat(np.arange(n), np.diff(indptr))[np.argsort(indices, kind="stable")]
    return np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n)))), sources


# ===== Explicit model format =====


def read_json_object(text: str, keys: tuple[str, ...], error: type[Exception], where: str) -> dict:
    """Parse a JSON document whose top level is an object with exactly ``keys``.

    Malformed or undecodable JSON (with the decoder's line and column when it
    gives them), a key repeated in any object (named "in ``where``"), and a
    top level that is not an object or lacks or adds a key raise ``error``.
    A hook sees every object as its pairs, so the first fault in the text is
    the one worded. Policies and masks are read this way. The explicit model
    loader decodes without the hook and rules repeated keys out by counting
    the ``:`` in the text against the keys it read (``load_explicit_model``);
    it calls this, which then words the fault, only when the count differs,
    as a name or label that holds a ``:`` makes it, or when its read raises.
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
    return _top_level(doc, keys, error)


def _top_level(doc: object, keys: tuple[str, ...], error: type[Exception]) -> dict:
    """``doc`` if it is an object with exactly ``keys``; else raise ``error``."""
    if not isinstance(doc, dict):
        raise error("top level must be an object")
    unknown = set(doc) - set(keys)
    if unknown:
        raise error(f"unknown top-level keys {sorted(unknown)}")
    for key in keys:
        if key not in doc:
            raise error(f"missing top-level key {key!r}")
    return doc


def _read_probabilities(
    written: list[object], where: str, fractions: dict[str, tuple[float, Fraction]]
) -> tuple[list[float], tuple[Fraction, ...] | None]:
    """The floats of probabilities as written, in order, and the rationals a row of them keeps.

    Each is a JSON number or an exact "num/den" fraction string; a fraction
    string or a JSON integer denotes a rational, a JSON float none, its
    decimal text being gone. The row keeps the rationals only when every
    probability has one and they sum to exactly 1: the float check forgives
    a mass off by a rounding, and rationals that miss 1 would pass a
    defective row off as exact. ``fractions`` maps each fraction string
    already read to its pair, so a string repeated across a document is
    parsed once; a string that fails to parse is never stored, and raises
    again wherever it occurs. The first probability that cannot be read
    raises ModelSyntaxError at ``where[b].p``.
    """
    probs: list[float] = []
    exact: list[Fraction] | None = []
    for b, p in enumerate(written):
        if type(p) is float:
            probs.append(p)
            exact = None
            continue
        try:
            if type(p) is str:
                pair = fractions.get(p)
                if pair is None:
                    rational = Fraction(p)
                    pair = fractions[p] = (float(rational), rational)
                prob, rational = pair
            elif type(p) is int:
                prob, rational = float(p), Fraction(p)
            else:
                raise ModelSyntaxError(f"{where}[{b}].p: probability must be a number or fraction string")
        except (ValueError, ZeroDivisionError):
            raise ModelSyntaxError(f"{where}[{b}].p: cannot read {p!r} as a fraction")
        except OverflowError:
            raise ModelSyntaxError(f"{where}[{b}].p: probability is too large for a float")
        probs.append(prob)
        if exact is not None:
            exact.append(rational)
    return probs, tuple(exact) if exact is not None and sum(exact) == 1 else None


def _parse_state_vector(raw: object, width: int, where: str) -> StateVector:
    """A state vector as written; each feature must also convert to a float, as a policy reads it.

    JSON decodes to exact int, bool, float, str, list and dict, so a feature
    whose type is int is an integer and not a boolean.
    """
    if type(raw) is not list or [*map(type, raw)] != [int] * width:
        if not isinstance(raw, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
            raise ModelSyntaxError(f"{where}: state must be a list of integers")
        if len(raw) != width:
            raise ModelSyntaxError(f"{where}: state has {len(raw)} features, schema declares {width}")
    try:
        list(map(float, raw))
    except OverflowError:
        raise ModelSyntaxError(f"{where}: feature value is too large for a float") from None
    return tuple(raw)


def load_explicit_model(text: str) -> EnvironmentModel:
    """Parse the explicit JSON table format into an EnvironmentModel.

    Syntax errors (malformed JSON, wrong shapes, unknown keys, a feature
    value too large for a float) raise ModelSyntaxError with position info
    where the JSON decoder provides it. Semantic errors (bad probability
    mass, dangling target states, missing initial state, a state without
    actions) raise ModelSemanticError naming the offending state and action.

    The load runs with Python's cyclic garbage collector paused: the decoded
    document and the rows built from it hold no reference cycles, so a
    collection could free nothing, yet it would walk them again and again as
    they grow. The collector's state on entry is restored on return or raise,
    so a caller who turned it off keeps it off.

    Repeated keys are ruled out by a count, not by a hook on every object.
    The text is decoded plainly, which keeps the last of repeated keys. In a
    document the loader accepts, objects sit only at the top level, in a
    state entry, in its ``act`` and in a branch, and the loader sums their
    keys. Each ``:`` outside a string separates a key written from its
    value, so the text holds at least as many ``:`` as keys written, and
    those are at least the sum: an equal count proves that no key repeats.
    A name or label that holds a ``:`` makes the count exceed the sum. Only
    the ``:`` of the text are counted, never those of decoded strings, where
    an escaped ``\\u003a`` would cancel a repeat out. When the count exceeds
    the sum, or the decoder or the loader raises, ``read_json_object``
    decodes the text with its hook, and a repeated key or malformed text
    raises there, whichever comes first in the text. Otherwise the loader's
    own error stands, or the model is returned.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_explicit_model(text)
    finally:
        if enabled:
            gc.enable()


_MODEL_KEYS = ("features", "actions", "initial", "states")
_ENTRY_KEYS = frozenset({"s", "labels", "act"})


def _load_explicit_model(text: str) -> EnvironmentModel:
    try:
        env, keys_read = _read_explicit_model(text)
    except (ValueError, RecursionError, ModelSyntaxError, ModelSemanticError) as err:  # the decoder's or the loader's
        fault = err
    else:
        if keys_read == text.count(":"):
            return env
        fault = None
    read_json_object(text, _MODEL_KEYS, ModelSyntaxError, "object")
    if fault is not None:
        raise fault
    return env


def _read_explicit_model(text: str) -> tuple[EnvironmentModel, int]:
    """The model the text holds, read with repeated keys unseen, and the number of keys of its objects."""
    doc = _top_level(json.loads(text), _MODEL_KEYS, ModelSyntaxError)
    keys_read = len(doc)

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

    int_types = [int] * width
    schema_order = tuple(actions)
    # The declared states, in document order, and their labels.
    label_table: dict[StateVector, frozenset[str]] = {}
    # One set per distinct list of labels as written, shared by its states.
    label_sets: dict[tuple[str, ...], frozenset[str]] = {}
    action_table: dict[StateVector, tuple[str, ...]] = {}
    # Every row in document order, None for a row the rules reject; such a
    # row's support waits in ``rejected`` with the fault ``_support_fault``
    # words, raised only if no earlier row names an undeclared target.
    distributions: dict[tuple[StateVector, str], Distribution | None] = {}
    rejected: dict[tuple[StateVector, str], tuple[tuple, str]] = {}
    mentioned: list[StateVector] = []
    fractions: dict[str, tuple[float, Fraction]] = {}
    # Keyed by the probabilities of a row as written and their types, each
    # pattern of a row that passed: its floats and the rationals a row of
    # them keeps, if they sum to exactly 1. Documents repeat a few patterns
    # many times, and a repeat is neither read nor checked again.
    patterns: dict[tuple[tuple[object, ...], tuple[type, ...]], tuple[list[float], tuple[Fraction, ...] | None]] = {}

    for k, entry in enumerate(doc["states"]):
        where = f"states[{k}]"
        if not isinstance(entry, dict):
            raise ModelSyntaxError(f"{where}: must be an object")
        if not _ENTRY_KEYS.issuperset(entry):
            raise ModelSyntaxError(f"{where}: unknown keys {sorted(set(entry) - _ENTRY_KEYS)}")
        if "s" not in entry or "act" not in entry:
            raise ModelSyntaxError(f"{where}: needs keys 's' and 'act'")
        state = _parse_state_vector(entry["s"], width, f"{where}.s")
        if state in label_table:
            raise ModelSemanticError(f"state {list(state)} declared twice")

        raw_labels = entry.get("labels", [])
        if not isinstance(raw_labels, list) or not all(isinstance(l, str) for l in raw_labels):
            raise ModelSyntaxError(f"{where}.labels: must be a list of strings")
        written_labels = tuple(raw_labels)
        label_set = label_sets.get(written_labels)
        if label_set is None:
            label_set = label_sets[written_labels] = frozenset(raw_labels)
        label_table[state] = label_set

        act = entry["act"]
        if not isinstance(act, dict):
            raise ModelSyntaxError(f"{where}.act: must be an object")
        if not act:
            raise ModelSemanticError(f"state {list(state)} has zero actions")
        keys_read += len(entry) + len(act)
        for action, branches in act.items():
            if action not in actions:
                raise ModelSyntaxError(f"{where}.act: action {action!r} not in the action schema")
            if not isinstance(branches, list) or not branches:
                raise ModelSyntaxError(f"{where}.act.{action}: must be a non-empty list of branches")
            # Each branch that passes has the two keys 'to' and 'p'.
            keys_read += 2 * len(branches)
            targets: list[StateVector] = []
            written: list[object] = []
            # The common shapes are checked inline; a branch that fails one
            # is handed to the helpers, which word the error, once the
            # probabilities before it have been read. The probabilities are
            # read only for a pattern not seen before. A failing branch's
            # index is the number of branches read before it.
            for branch in branches:
                if type(branch) is not dict or len(branch) != 2 or "to" not in branch or "p" not in branch:
                    _read_probabilities(written, f"{where}.act.{action}", fractions)
                    raise ModelSyntaxError(f"{where}.act.{action}[{len(written)}]: must be an object with keys 'to' and 'p'")
                to = branch["to"]
                if type(to) is not list or [*map(type, to)] != int_types:
                    _read_probabilities(written, f"{where}.act.{action}", fractions)
                    _parse_state_vector(to, width, f"{where}.act.{action}[{len(written)}].to")
                targets.append(tuple(to))
                written.append(branch["p"])
            # 1, 1.0 and True are equal, but give different rows.
            key = (tuple(written), tuple(map(type, written)))
            try:
                pattern = patterns.get(key)
            except TypeError:  # a list or an object as a probability, which reading rejects
                pattern = None
            if pattern is not None:
                probs, rationals = pattern
                support = tuple(zip(targets, probs))
                fault = None if len(set(targets)) == len(targets) else _support_fault(support)
            else:
                probs, rationals = _read_probabilities(written, f"{where}.act.{action}", fractions)
                support = tuple(zip(targets, probs))
                fault = _support_fault(support)
                # A row that passes shows that its pattern does, and only those
                # are kept: a repeat checks no rule but its targets'.
                if fault is None:
                    patterns[key] = (probs, rationals)
            mentioned += targets
            if fault is None:
                distributions[(state, action)] = Distribution._trusted(support, rationals)
            else:
                distributions[(state, action)] = None
                rejected[(state, action)] = (support, fault)
        # Keep action order aligned with the schema, not document order; a
        # state that offers every action shares the schema's own tuple.
        action_table[state] = schema_order if len(act) == len(actions) else tuple([a for a in actions if a in act])

    if initial not in label_table:
        raise ModelSemanticError(f"initial state {list(initial)} is not declared")
    if rejected or not set(label_table).issuperset(mentioned):
        # The first row, in document order, with an undeclared target or
        # rejected by the rules raises.
        for (state, action), row in distributions.items():
            support, fault = rejected.get((state, action)) or (row.support, None)
            target = next((t for t, _ in support if t not in label_table), None)
            if target is not None:
                raise ModelSemanticError(
                    f"state {list(state)} action {action!r} references undeclared state {list(target)}"
                )
            if fault is not None:
                raise ModelSemanticError(f"state {list(state)} action {action!r}: {fault}")

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

    return EnvironmentModel(
        feature_schema=tuple(features),
        action_schema=tuple(actions),
        initial=initial,
        available_actions=available_actions,
        successors=successors,
        labels=labels,
        declared_states=tuple(label_table),
    ), keys_read


# ===== Validation =====


def check_cap(name: str, value: int) -> None:
    """Reject an exploration cap below 1, which would still admit the initial state."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(eq=False)
class ValidationReport:
    """Outcome of a reachability walk over every action of a model.

    ``reachable``, the set of reachable states, is built from what the walk
    kept the first time it is read, and then kept; the validate command
    never reads it. Two reports are equal when their counts, violations and
    reachable sets are, so a comparison builds the sets it needs.
    """

    states: int
    transitions: int
    violations: list[str]
    build_reachable: Callable[[], frozenset[StateVector]] = field(repr=False)

    @functools.cached_property
    def reachable(self) -> frozenset[StateVector]:
        return self.build_reachable()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValidationReport):
            return NotImplemented
        counts = (self.states, self.transitions, self.violations)
        return counts == (other.states, other.transitions, other.violations) and self.reachable == other.reachable


def validate_model(env: EnvironmentModel, max_states: int = DEFAULT_MAX_STATES) -> ValidationReport:
    """Walk the model breadth-first under all actions and check invariants.

    Checks, per reachable state: the action set is non-empty, every action's
    distribution is well formed (the Distribution type enforces mass and
    duplicate-target rules at construction), and action names fall inside
    the schema. For table-backed models, also reports declared states the
    walk never reached. A model whose ``expansion`` box has at most
    ``LEVEL_WALK_MAX_CELLS`` states is walked level by level over its
    arrays, which are trusted and checked for nothing; any other is walked
    state by state. Both walks meet states, actions and branches in one
    order, so their counts and the cap's trip point agree.

    Args:
        env: the model to validate.
        max_states: exploration cap, at least 1; exceeding it raises
            LimitExceededError, which signals size rather than invalidity.

    Returns:
        A ValidationReport with counts, violation strings and the reachable
        state set, which is built on first read.

    Raises:
        ValueError: ``max_states`` is below 1.
    """
    check_cap("max_states", max_states)
    expansion = env.expansion
    if expansion is not None and math.prod(expansion.shape) <= LEVEL_WALK_MAX_CELLS:
        transitions, violations, states, build_reachable = _walk_levels(env, max_states)
    else:
        transitions, violations, states, build_reachable = _walk_states(env, max_states)
    report = ValidationReport(states, transitions, violations, build_reachable)

    if env.declared_states is not None:
        for state in env.declared_states:
            if state not in report.reachable:
                violations.append(f"declared state {list(state)} is unreachable")
    return report


def _limit_error(max_states: int, transitions: int) -> LimitExceededError:
    return LimitExceededError(
        f"reachable state count exceeds max_states={max_states}",
        states_seen=max_states,
        transitions_seen=transitions,
    )


# A walk's transition count, violations, reachable state count, and what
# builds its reachable set.
_Walk = tuple[int, list[str], int, Callable[[], frozenset[StateVector]]]


def _walk_states(env: EnvironmentModel, max_states: int) -> _Walk:
    """The walk one state at a time over the model's two functions, each read once."""
    width = len(env.feature_schema)
    schema = frozenset(env.action_schema)
    available_actions = env.available_actions
    successors = env.successors
    violations: list[str] = []
    seen: set[StateVector] = {env.initial}
    frontier: deque[StateVector] = deque([env.initial])
    transitions = 0

    while frontier:
        state = frontier.popleft()
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
                        raise _limit_error(max_states, transitions)
                    seen.add(target)
                    frontier.append(target)
    return transitions, violations, len(seen), functools.partial(frozenset, seen)


def _walk_levels(env: EnvironmentModel, max_states: int) -> _Walk:
    """The walk one breadth-first level at a time over the model's ``expansion``.

    A level's states come in discovery order, each state's rows in schema
    order and each row's branches in support order: the state-by-state
    walk's order, so the counts and the cap's trip point are its own. It
    reads only ``counts`` and ``targets``, and checks no row and finds no
    deadlock: an ``Expansion`` is trusted.
    """
    expansion, shape = env.expansion, env.expansion.shape
    visited = np.zeros(math.prod(shape), dtype=bool)
    # First mentions by cell; only the cells a level mentions are written.
    stamp = np.empty(len(visited), dtype=np.int32)
    level = np.array([env.initial])
    visited[np.ravel_multi_index(level.T, shape)] = True
    seen = 1
    transitions = 0

    while len(level):
        counts, targets = expansion.step(level)
        codes = np.ravel_multi_index(targets.T, shape)
        # Each new state at its first mention, in walk order.
        candidates = np.flatnonzero(~visited[codes])
        fresh = candidates[_first_mentions(codes[candidates], stamp)]
        room = max_states - seen
        if len(fresh) > room:
            # The trip counts the whole row that holds the first target past the cap.
            ends = np.cumsum(counts)
            raise _limit_error(max_states, transitions + int(ends[np.searchsorted(ends, fresh[room], side="right")]))
        visited[codes[fresh]] = True
        transitions += len(targets)
        seen += len(fresh)
        level = targets[fresh]

    return transitions, [], seen, functools.partial(_box_states, np.flatnonzero(visited), shape)


def _first_mentions(codes: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """The positions in ``codes`` where each code occurs first, in order.

    ``stamp`` has a slot per code; the slots of ``codes`` are overwritten.
    Each keeps the least position its code occurs at, and a position is a
    first mention when its code's slot holds it. An int32 stamp takes
    fewer than 2^31 codes, which as int64 would fill 16 GiB.
    """
    positions = np.arange(len(codes), dtype=stamp.dtype)
    stamp[codes] = len(codes)
    np.minimum.at(stamp, codes, positions)
    return np.flatnonzero(stamp[codes] == positions)


def _box_states(codes: np.ndarray, shape: tuple[int, ...]) -> frozenset[StateVector]:
    """The states at flat positions ``codes`` of a box of ``shape``."""
    columns = np.unravel_index(codes, shape)
    return frozenset(zip(*(column.tolist() for column in columns)))
