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
``NeuralPolicy.select_action`` would choose. Each visited state's row is
appended straight onto the chain's compressed sparse row arrays, and, for
a model that keeps rationals, the rationals behind the row onto the chain's
``exact_probs``, as long as every row has them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class BuildResult:
    dtmc: Dtmc
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

    index: dict[StateVector, int] = {env.initial: 0}
    order: list[StateVector] = [env.initial]
    level: list[StateVector] = [env.initial]
    indptr: list[int] = [0]
    indices: list[int] = []
    probs: list[float] = []
    rationals_of = env.rationals
    rationals: list[Fraction] | None = None if rationals_of is None else []
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
                indices.append(index[target])
                probs.append(prob)
            if rationals is not None:
                exact = rationals_of(state, action)
                if exact is None:
                    rationals = None
                else:
                    rationals.extend(exact)
            indptr.append(transitions)
            chosen.append(action)
            labels.append(env.labels(state))
        level = next_level

    dtmc = Dtmc(tuple(order), tuple(labels), indptr, indices, probs, rationals and tuple(rationals))
    stats = BuildStats(states=dtmc.num_states, transitions=dtmc.num_transitions)
    return BuildResult(dtmc=dtmc, chosen_actions=tuple(chosen), stats=stats)


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
