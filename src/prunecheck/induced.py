"""Build the Markov chain a fixed policy induces on an environment.

Exploration starts at the initial state and only ever follows the action
the policy selects, so the result covers exactly the states the closed loop
can reach. Discovery is breadth-first, one level at a time: the policy's
forward pass runs once per level, over all of that level's states, and the
states are then visited in the order they were discovered. That is the order
a FIFO frontier gives, and new states are indexed in the order their
distributions mention them, which makes state numbering a deterministic
function of (environment, policy). The batched forward pass gives each state
bit for bit the logits of a one-state pass, so the chosen actions are those
``NeuralPolicy.select_action`` would choose.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .errors import LimitExceededError, ModelSemanticError
from .model import Dtmc, EnvironmentModel, StateVector
from .policy import NeuralPolicy

# ===== Limits and results =====


@dataclass(frozen=True)
class BuildLimits:
    max_states: int = 1_000_000
    max_transitions: int = 5_000_000


@dataclass(frozen=True)
class BuildStats:
    states: int
    transitions: int
    duration_ms: float


@dataclass(frozen=True)
class BuildResult:
    dtmc: Dtmc
    state_index: dict[StateVector, int]
    chosen_actions: tuple[str, ...]
    stats: BuildStats


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
    limits = limits or BuildLimits()
    policy.check_schemas(env)
    started = time.perf_counter()

    index: dict[StateVector, int] = {env.initial: 0}
    order: list[StateVector] = [env.initial]
    level: list[StateVector] = [env.initial]
    rows: list[tuple[tuple[int, float], ...]] = []
    chosen: list[str] = []
    labels: list[frozenset[str]] = []
    transitions = 0

    while level:
        next_level: list[StateVector] = []
        for state, logits in zip(level, policy.forward(level).tolist()):
            available = env.available_actions(state)
            if not available:
                raise ModelSemanticError(f"deadlock at state {list(state)}: empty action set")
            action = policy.pick(logits, available)
            dist = env.successors(state, action)
            transitions += len(dist.support)
            if transitions > limits.max_transitions:
                raise LimitExceededError(
                    f"transition count exceeds max_transitions={limits.max_transitions}",
                    states_seen=len(index),
                    transitions_seen=transitions,
                )
            row = []
            for target, prob in dist.support:
                if target not in index:
                    if len(index) >= limits.max_states:
                        raise LimitExceededError(
                            f"state count exceeds max_states={limits.max_states}",
                            states_seen=len(index),
                            transitions_seen=transitions,
                        )
                    index[target] = len(index)
                    order.append(target)
                    next_level.append(target)
                row.append((index[target], prob))
            rows.append(tuple(row))
            chosen.append(action)
            labels.append(env.labels(state))
        level = next_level

    dtmc = Dtmc(
        state_vectors=tuple(order),
        state_labels=tuple(labels),
        rows=tuple(rows),
    )
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    stats = BuildStats(states=dtmc.num_states, transitions=dtmc.num_transitions, duration_ms=elapsed_ms)
    return BuildResult(dtmc=dtmc, state_index=index, chosen_actions=tuple(chosen), stats=stats)


# ===== Export =====


def induced_to_explicit(dtmc: Dtmc, feature_schema: tuple[str, ...]) -> str:
    """Write a chain as an explicit model document with one action "pi".

    The result loads back through the explicit model loader as an MDP with
    a single choice everywhere, which is exactly what a chain is.
    """
    states_out = []
    for i in range(dtmc.num_states):
        entry: dict[str, object] = {"s": list(dtmc.state_vectors[i])}
        labels = sorted(dtmc.state_labels[i])
        if labels:
            entry["labels"] = labels
        entry["act"] = {
            "pi": [
                {"to": list(dtmc.state_vectors[j]), "p": prob} for j, prob in dtmc.rows[i]
            ]
        }
        states_out.append(entry)
    doc = {
        "features": list(feature_schema),
        "actions": ["pi"],
        "initial": list(dtmc.state_vectors[0]),
        "states": states_out,
    }
    return json.dumps(doc, indent=2)
