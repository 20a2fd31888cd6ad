"""Build the Markov chain a fixed policy induces on an environment.

Exploration starts at the initial state and only ever follows the action
the policy selects, so the result covers exactly the states the closed loop
can reach. Discovery is breadth-first, one level at a time: the policy's
forward pass runs once per level, over all of that level's states, and the
states are then visited in the order they were discovered. That is the order
a FIFO frontier gives, and new states are indexed in the order their
distributions mention them, which makes state numbering a deterministic
function of (environment, policy). The batched forward pass gives each state
bit for bit the logits of a one-state pass, and ``NeuralPolicy.pick`` chooses
the state's action from them. Each visited state's row is appended straight
onto the chain's compressed sparse row arrays, and its ``Distribution.exact``
rationals are kept per state; they make the chain's ``exact_probs`` when
every row has them.

``rebuild_induced_dtmc`` runs the same loop from an original ``BuildResult``
and the new action on each state where the new policy chooses another. The
other states take their original rows, rationals, action sets and labels
with no environment call; only changed and newly reached states call the
environment, and only the latter take the forward pass. The original's rows
are gathered from its arrays by the first rebuild that reads them and kept
with the build, so a build nothing rebuilds from never gathers them; no
other module reads them. Rows are appended in a full build's order, so the
result, errors and their counts included, is the full build's. The rebuild
also returns what its loop saw: which states are new, and whether the chain
is the original's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .errors import LimitExceededError, ModelSemanticError
from .model import DEFAULT_MAX_STATES, Dtmc, EnvironmentModel, StateVector, check_cap
from .policy import NeuralPolicy

# ===== Limits and results =====


@dataclass(frozen=True)
class BuildLimits:
    """Exploration caps, each at least 1 (else ValueError)."""

    max_states: int = DEFAULT_MAX_STATES
    max_transitions: int = 5_000_000

    def __post_init__(self) -> None:
        check_cap("max_states", self.max_states)
        check_cap("max_transitions", self.max_transitions)


@dataclass(frozen=True)
class BuildStats:
    states: int
    transitions: int


# A state's row as an original build left it: chosen action, available
# actions, (target, probability) support, its rationals or None, labels.
_Row = tuple[str, tuple[str, ...], tuple[tuple[StateVector, float], ...], tuple[Fraction, ...] | None, frozenset[str]]


@dataclass(frozen=True)
class BuildResult:
    """A chain with, per state in index order, its chosen action, available actions and rationals."""

    dtmc: Dtmc
    chosen_actions: tuple[str, ...]
    available_actions: tuple[tuple[str, ...], ...]
    exact_rows: tuple[tuple[Fraction, ...] | None, ...]  # each row's Distribution.exact

    @property
    def stats(self) -> BuildStats:
        return BuildStats(states=self.dtmc.num_states, transitions=self.dtmc.num_transitions)

    @cached_property
    def rows(self) -> dict[StateVector, _Row]:
        """Each state's row, keyed by state, with its own rationals: what a rebuild reuses."""
        dtmc = self.dtmc
        vectors = dtmc.state_vectors
        indptr, indices, probs = dtmc.indptr.tolist(), dtmc.indices.tolist(), dtmc.probs.tolist()
        return {
            state: (
                self.chosen_actions[i],
                self.available_actions[i],
                tuple(zip([vectors[t] for t in indices[indptr[i] : indptr[i + 1]]], probs[indptr[i] : indptr[i + 1]])),
                self.exact_rows[i],
                dtmc.state_labels[i],
            )
            for i, state in enumerate(vectors)
        }


# ===== Builder =====


def build_induced_dtmc(
    env: EnvironmentModel, policy: NeuralPolicy, limits: BuildLimits | None = None
) -> BuildResult:
    """Explore the closed loop of ``policy`` on ``env`` into a Dtmc.

    Args:
        env: the environment model; its schemas must match the policy's.
        policy: resolves each state to one available action.
        limits: exploration caps. Exceeding either cap raises
            LimitExceededError rather than returning a truncated chain, so
            a returned Dtmc is always closed under its own transitions.

    Raises:
        SchemaMismatchError: schemas disagree.
        ModelSemanticError: a reachable state has no available action.
        LimitExceededError: the reachable space outgrew the caps.
    """
    return _explore(env, policy, limits, {}, {})[0]


def rebuild_induced_dtmc(
    original: BuildResult,
    env: EnvironmentModel,
    policy: NeuralPolicy,
    changed: dict[StateVector, str],
    limits: BuildLimits | None = None,
) -> tuple[BuildResult, list[int], bool]:
    """``build_induced_dtmc(env, policy, limits)``, reusing ``original``'s rows.

    ``original`` is the build of another policy on the same ``env``, and
    ``changed`` maps each of its states on which ``policy`` chooses another
    action to that action, as ``pick`` decides it. Every other state of
    ``original`` takes its row from ``original.rows`` with no environment
    call: the environment's callables are pure, so they would give that row
    again. Only changed states and states the original never reached are
    asked, and only the latter are decided here. The build, errors
    included, is that of the full build.

    Returns the build, the ascending indices of its states that ``original``
    lacks, and whether its chain is ``original``'s. It is exactly when no
    state is new, every changed state reached kept its support and the
    ``exact_probs`` agree: BFS over the original's rows retraces its build.
    """
    rebuilt, new, moved = _explore(env, policy, limits, original.rows, changed)
    return rebuilt, new, not new and not moved and rebuilt.dtmc.exact_probs == original.dtmc.exact_probs


def _explore(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    limits: BuildLimits | None,
    known: dict[StateVector, _Row],
    changed: dict[StateVector, str],
) -> tuple[BuildResult, list[int], bool]:
    """The BFS level loop of both builds: ``known`` rows are reused unless ``changed``.

    Also returns the indices of states not ``known`` (if any are known) and
    whether a reached ``changed`` state's support differs from its known one.
    """
    limits = limits or BuildLimits()
    max_states, max_transitions = limits.max_states, limits.max_transitions
    policy.check_schemas(env)
    available_actions, successors, labels_of, pick = env.available_actions, env.successors, env.labels, policy.pick

    index: dict[StateVector, int] = {env.initial: 0}
    # The states in index order; each BFS level is the run of them found
    # while the level before it was visited.
    order: list[StateVector] = [env.initial]
    indptr: list[int] = [0]
    indices: list[int] = []
    probs: list[float] = []
    chosen: list[str] = []
    offered: list[tuple[str, ...]] = []
    exact_rows: list[tuple[Fraction, ...] | None] = []
    labels: list[frozenset[str]] = []
    new: list[int] = []
    moved = False
    transitions = 0
    start = 0

    while start < len(order):
        level = order[start:]
        start = len(order)
        fresh = [state for state in level if state not in known] if known else level
        if known:
            new += [index[state] for state in fresh]
        fresh_logits = iter(policy.forward(fresh).tolist() if fresh else ())
        for state in level:
            row = known.get(state)
            if row is None:
                available = available_actions(state)
                if not available:
                    raise ModelSemanticError(f"deadlock at state {list(state)}: empty action set")
                action = pick(next(fresh_logits), available)
                dist = successors(state, action)
                support, exact = dist.support, dist.exact
            else:
                action, available, support, exact, tags = row
                if state in changed:
                    action = changed[state]
                    dist = successors(state, action)
                    moved = moved or dist.support != support
                    support, exact = dist.support, dist.exact
            transitions += len(support)
            if transitions > max_transitions:
                raise LimitExceededError(
                    f"transition count exceeds max_transitions={max_transitions}",
                    states_seen=len(index),
                    transitions_seen=transitions,
                )
            for target, prob in support:
                code = index.get(target)
                if code is None:
                    if len(index) >= max_states:
                        raise LimitExceededError(
                            f"state count exceeds max_states={max_states}",
                            states_seen=len(index),
                            transitions_seen=transitions,
                        )
                    code = index[target] = len(index)
                    order.append(target)
                indices.append(code)
                probs.append(prob)
            indptr.append(transitions)
            chosen.append(action)
            offered.append(available)
            exact_rows.append(exact)
            labels.append(labels_of(state) if row is None else tags)

    rationals = None if None in exact_rows else tuple(chain.from_iterable(exact_rows))
    dtmc = Dtmc(tuple(order), tuple(labels), indptr, indices, probs, rationals)
    return BuildResult(dtmc, tuple(chosen), tuple(offered), tuple(exact_rows)), new, moved


# ===== Export =====


def induced_to_explicit(dtmc: Dtmc, feature_schema: tuple[str, ...]) -> str:
    """Write a chain as an explicit model document with one action "pi".

    The result loads back through the explicit model loader as an MDP with
    a single choice everywhere, which is exactly what a chain is. A chain
    with ``exact_probs`` writes each probability as its fraction string
    ("1/2", "1"), so the reloaded chain keeps its rationals.
    """
    vectors = dtmc.state_vectors
    indptr, indices = dtmc.indptr.tolist(), dtmc.indices.tolist()
    probs = dtmc.probs.tolist() if dtmc.exact_probs is None else [str(r) for r in dtmc.exact_probs]
    states_out = []
    for i in range(dtmc.num_states):
        entry: dict[str, object] = {"s": list(vectors[i])}
        labels = sorted(dtmc.state_labels[i])
        if labels:
            entry["labels"] = labels
        span = slice(indptr[i], indptr[i + 1])
        entry["act"] = {"pi": [{"to": list(vectors[j]), "p": p} for j, p in zip(indices[span], probs[span])]}
        states_out.append(entry)
    doc = {
        "features": list(feature_schema),
        "actions": ["pi"],
        "initial": list(dtmc.state_vectors[0]),
        "states": states_out,
    }
    return json.dumps(doc, indent=2)
