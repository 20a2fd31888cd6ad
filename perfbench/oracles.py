"""Answers computed apart from prunecheck, used to judge the program's answers.

Nothing here imports prunecheck. The grid rules, the network forward pass,
the explorers, the qualitative graph analysis and the solvers are written
from the documented behaviour, so agreement with the program is evidence
rather than the program agreeing with itself.

* ``Chain``: an explored chain as CSR arrays, with bounded operators as
  sparse mat-vecs and unbounded ones as a sparse direct solve.
* avoidance and taxi rules, and an all-action closure for ``validate``.
* ``Mlp``: a ReLU network read straight from a policy document, with the
  documented argmax and schema-order tie-breaking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# The program's Gauss-Seidel stops once one sweep changes no value by more
# than this; ``solver_tolerance`` scales it into an error bound.
PROGRAM_STOP_RESIDUAL = 1e-10

# Slack for rounding: the direct solve and the reordered sums of a mat-vec
# differ from the program's own sums in the last bits only.
ROUNDING_SLACK = 1e-12

AVOID_ACTIONS = ("north", "south", "east", "west", "stay")
TAXI_ACTIONS = ("north", "south", "east", "west", "pickup", "dropoff", "refuel")
_STEP = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0), "stay": (0, 0)}


# ===== Chains =====


@dataclass
class Chain:
    """An explored chain; state 0 is the initial state."""

    states: list
    rows: list  # per state: list of (target index, probability)
    labels: list  # per state: set of label names

    @property
    def transitions(self) -> int:
        return sum(len(row) for row in self.rows)

    def mask(self, label: str) -> np.ndarray:
        return np.array([label in names for names in self.labels], dtype=bool)

    def matrix(self):
        from scipy.sparse import csr_matrix

        n = len(self.rows)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(row) for row in self.rows])
        indices = np.array([t for row in self.rows for t, _ in row], dtype=np.int64)
        data = np.array([p for row in self.rows for _, p in row], dtype=np.float64)
        return csr_matrix((data, indices, indptr), shape=(n, n))


def explore(initial, successors, max_states: int | None = None) -> tuple[list, list] | None:
    """Breadth-first closure from ``initial``; returns (states, rows).

    ``successors(state)`` gives (target, probability) pairs. States are
    numbered in discovery order, which only matters for state 0. Returns
    None once more than ``max_states`` states are found.
    """
    index = {initial: 0}
    states = [initial]
    rows = []
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        row = []
        for target, p in successors(state):
            if target not in index:
                if max_states is not None and len(states) >= max_states:
                    return None
                index[target] = len(states)
                states.append(target)
                queue.append(target)
            row.append((index[target], p))
        rows.append(row)
    return states, rows


def bounded_until(chain: Chain, a: np.ndarray, b: np.ndarray, k: int, matrix=None) -> np.ndarray:
    """P(a U<=k b) per state by k sparse mat-vecs."""
    matrix = chain.matrix() if matrix is None else matrix
    through = a & ~b
    x = b.astype(np.float64)
    for _ in range(k):
        x = np.where(through, matrix @ x, x)
    return x


def next_probability(chain: Chain, b: np.ndarray, matrix=None) -> np.ndarray:
    matrix = chain.matrix() if matrix is None else matrix
    return matrix @ b.astype(np.float64)


def _backward(matrix_t, seeds: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Seeds plus allowed states with a path into the set (matrix_t: P^T, CSR)."""
    reached = seeds.copy()
    stack = list(np.flatnonzero(seeds))
    indptr, indices = matrix_t.indptr, matrix_t.indices
    while stack:
        t = stack.pop()
        for s in indices[indptr[t] : indptr[t + 1]]:
            if not reached[s] and allowed[s]:
                reached[s] = True
                stack.append(s)
    return reached


def _solve(matrix, unknown: np.ndarray, known: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve x = P x on the ``unknown`` states, with x fixed to ``known`` elsewhere.

    A sparse direct solve of (I - P_UU) x_U = P_U. known, factored once for
    two right-hand sides. Also returns T = ||(I - P_UU)^-1||_inf, the
    largest expected number of steps a path spends among the unknown
    states; ``solver_tolerance`` turns it into the error the program's
    iteration may leave.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    x = np.where(unknown, 0.0, known)
    u = np.flatnonzero(unknown)
    if not len(u):
        return x, 0.0
    lu = splu((identity(len(u), format="csc") - matrix[u][:, u]).tocsc())
    solved = lu.solve(np.column_stack([matrix[u] @ x, np.ones(len(u))]))
    x[u] = solved[:, 0]
    return x, float(np.max(solved[:, 1]))


def until_exact(chain: Chain, a: np.ndarray, b: np.ndarray, matrix=None) -> tuple[np.ndarray, float]:
    """P(a U b) per state, and T over the uncertain states (see ``_solve``).

    The states with probability 0 and 1 come from graph analysis; the rest
    from the direct solve.
    """
    matrix = chain.matrix() if matrix is None else matrix
    matrix_t = matrix.T.tocsr()
    prob0 = ~_backward(matrix_t, b, a & ~b)
    prob1 = ~_backward(matrix_t, prob0, ~b)
    values, stay = _solve(matrix, ~(prob0 | prob1), prob1.astype(np.float64))
    return np.clip(values, 0.0, 1.0), stay


def seq_exact(chain: Chain, a: np.ndarray, b: np.ndarray, matrix=None) -> tuple[np.ndarray, float]:
    """P(reach a, and from there reach b) per state, and a bound on T.

    Formulated without a product: the value is P(F b) taken at the first
    a-state a path meets, and 0 if it meets none. The program instead
    iterates on a product with a two-phase monitor, whose uncertain states
    spend at most T(first phase) + T(second phase) steps, the bound returned.
    """
    matrix = chain.matrix() if matrix is None else matrix
    reach_b, stay_b = until_exact(chain, np.ones(len(chain.states), dtype=bool), b, matrix)
    reaches_a = _backward(matrix.T.tocsr(), a, ~a)
    values, stay_a = _solve(matrix, reaches_a & ~a, np.where(a, reach_b, 0.0))
    return np.clip(values, 0.0, 1.0), stay_a + stay_b


def solver_tolerance(expected_stay: float) -> float:
    """The error Gauss-Seidel may leave when it stops, given T from ``until_exact``.

    Split I - P = M - N with M the diagonal and the part below it, N the
    part above, as a sweep in index order uses them. With e the error after
    a sweep and d the change that sweep made, (I - P) e = N d, so
    |e| <= T * |N| * |d| <= T * d: rows of N sum to at most 1. The program
    stops once d <= PROGRAM_STOP_RESIDUAL, so it may be off by T times
    that, plus rounding.
    """
    return expected_stay * PROGRAM_STOP_RESIDUAL + ROUNDING_SLACK


# ===== Networks =====


class Mlp:
    """A policy document's network: ReLU hidden layers, affine output."""

    def __init__(self, doc: dict):
        self.actions = tuple(doc["actions"])
        self.layers = [
            (np.array(layer["w"], dtype=np.float64), np.array(layer["b"], dtype=np.float64))
            for layer in doc["layers"]
        ]

    def logits(self, state) -> np.ndarray:
        x = np.array(state, dtype=np.float64)
        for k, (w, b) in enumerate(self.layers):
            x = w @ x + b
            if k + 1 < len(self.layers):
                x = np.maximum(x, 0.0)
        return x

    def choose(self, state, available) -> str:
        """Largest logit among ``available``; the earlier schema action on ties."""
        logits = self.logits(state)
        best = None
        for i, name in enumerate(self.actions):
            if name in available and (best is None or logits[i] > logits[best]):
                best = i
        return self.actions[best]


# ===== Avoidance rules =====


def avoid_actions(state, width: int, height: int) -> tuple:
    ax, ay = state[0], state[1]
    out = []
    for name in AVOID_ACTIONS:
        dx, dy = _STEP[name]
        if 0 <= ax + dx < width and 0 <= ay + dy < height:
            out.append(name)
    return tuple(out)


def avoid_branches(state, action: str, move_prob: float) -> list:
    """Agent moves first; then the obstacle closes in along x, else y."""
    dx, dy = _STEP[action]
    ax, ay, ox, oy = state[0] + dx, state[1] + dy, state[2], state[3]
    if ox != ax:
        chased = (ox + (1 if ax > ox else -1), oy)
    elif oy != ay:
        chased = (ox, oy + (1 if ay > oy else -1))
    else:
        chased = (ox, oy)
    moved = (ax, ay) + chased
    stayed = (ax, ay, ox, oy)
    if moved == stayed or move_prob == 1.0:
        return [(moved, 1.0)]
    if move_prob == 0.0:
        return [(stayed, 1.0)]
    return [(moved, move_prob), (stayed, 1.0 - move_prob)]


def avoid_labels(state) -> set:
    return {"collision"} if (state[0], state[1]) == (state[2], state[3]) else set()


def avoid_choices(grid: dict, policy_doc: dict) -> np.ndarray:
    """The action index a policy picks in every state of a grid, batched.

    Indexed by ((ax * height + ay) * width + ox) * height + oy. The batched
    products may round differently from one state at a time, so this only
    sizes chains while inputs are drawn; judging uses ``avoid_chain``.
    """
    width, height = grid["width"], grid["height"]
    layers = Mlp(policy_doc).layers
    ay, ox, oy = np.meshgrid(np.arange(height), np.arange(width), np.arange(height), indexing="ij")
    out = []
    for ax in range(width):
        x = np.stack([np.full(ay.size, ax), ay.ravel(), ox.ravel(), oy.ravel()], axis=1).astype(np.float64)
        for k, (w, b) in enumerate(layers):
            x = x @ w.T + b
            if k + 1 < len(layers):
                x = np.maximum(x, 0.0)
        blocked = np.stack(
            [ay.ravel() + 1 >= height, ay.ravel() == 0, np.full(ay.size, ax + 1 >= width),
             np.full(ay.size, ax == 0), np.zeros(ay.size, dtype=bool)], axis=1)
        x[blocked] = -np.inf
        out.append(np.argmax(x, axis=1))  # the first maximum: ties go to the earlier action
    return np.concatenate(out)


def avoid_chain_size(grid: dict, policy_doc: dict, max_states: int) -> int | None:
    """States of the chain a policy induces on a grid, or None past ``max_states``."""
    width, height, p = grid["width"], grid["height"], float(Fraction(grid["move_prob"]))
    choices = avoid_choices(grid, policy_doc)

    def successors(state):
        ax, ay, ox, oy = state
        return avoid_branches(state, AVOID_ACTIONS[choices[((ax * height + ay) * width + ox) * height + oy]], p)

    explored = explore((0, 0) + tuple(grid["obstacle"]), successors, max_states)
    return None if explored is None else len(explored[0])


def avoid_chain(grid: dict, policy_doc: dict) -> Chain:
    """The chain a policy document induces on an avoidance grid."""
    mlp = Mlp(policy_doc)
    width, height, p = grid["width"], grid["height"], float(Fraction(grid["move_prob"]))

    def successors(state):
        action = mlp.choose(state, avoid_actions(state, width, height))
        return avoid_branches(state, action, p)

    states, rows = explore((0, 0) + tuple(grid["obstacle"]), successors)
    return Chain(states=states, rows=rows, labels=[avoid_labels(s) for s in states])


# ===== Taxi rules =====


def taxi_actions(state, cfg: dict) -> tuple:
    x, y, fuel, on_board, _jobs = state
    if fuel == 0:
        return TAXI_ACTIONS
    out = []
    for name in ("north", "south", "east", "west"):
        dx, dy = _STEP[name]
        if 0 <= x + dx < cfg["width"] and 0 <= y + dy < cfg["height"]:
            out.append(name)
    if (x, y) == tuple(cfg["spawn"]) and on_board == 0:
        out.append("pickup")
    if (x, y) == tuple(cfg["destination"]) and on_board == 1:
        out.append("dropoff")
    if (x, y) == tuple(cfg["station"]):
        out.append("refuel")
    return tuple(out)


def taxi_step(state, action: str, cfg: dict) -> tuple:
    x, y, fuel, on_board, jobs = state
    if fuel == 0:
        return state
    if action == "pickup":
        return (x, y, fuel, 1, jobs)
    if action == "dropoff":
        return (x, y, fuel, 0, min(jobs + 1, cfg["jobs_target"]))
    if action == "refuel":
        return (x, y, cfg["max_fuel"], on_board, jobs)
    dx, dy = _STEP[action]
    return (x + dx, y + dy, fuel - 1, on_board, jobs)


# ===== All-action closure =====


def all_action_counts(model: dict) -> tuple[int, int]:
    """(reachable states, transitions) of a model walked under every action.

    A transition is one branch of one action's distribution, as the
    program's validation walk counts them.
    """
    if model["kind"] == "avoidance":
        width, height, p = model["width"], model["height"], float(Fraction(model["move_prob"]))
        initial = (0, 0) + tuple(model["obstacle"])

        def branches(state):
            for action in avoid_actions(state, width, height):
                yield from avoid_branches(state, action, p)

    else:
        initial = tuple(model["station"]) + (model["max_fuel"], 0, 0)

        def branches(state):
            for action in taxi_actions(state, model):
                yield (taxi_step(state, action, model), 1.0)

    seen = {initial}
    queue = deque([initial])
    transitions = 0
    while queue:
        state = queue.popleft()
        for target, _ in branches(state):
            transitions += 1
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return len(seen), transitions
