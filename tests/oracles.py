"""Independent reference implementations used to pin expected values.

Nothing here imports the package's builder, checker, environments, or
pruning internals (only plain data goes in and out), so agreement between
these oracles and the package is evidence, not circularity.

* bounded operators: literal path enumeration (tree recursion over
  successor edges, probabilities multiplied along each path), and the
  per-element loops the checker must match bit for bit
* unbounded until: dense linear solve after a local reachability pass
* seq: a separately formulated monitor product (monitor consumes the
  current state on entry) plus the dense solver
* environments: the taxi and chase rules rewritten from scratch
* reachability: set-fixpoint closure, no queues or indices
"""

from __future__ import annotations

import numpy as np

# ===== Bounded path enumeration =====


def until_paths(rows, a: set, b: set, k: int, s: int) -> float:
    """P(a U<=k b) from s, summing over every path explicitly."""
    if s in b:
        return 1.0
    if s not in a or k == 0:
        return 0.0
    return sum(p * until_paths(rows, a, b, k - 1, t) for t, p in rows[s])


def globally_paths(rows, phi: set, k: int, s: int) -> float:
    """P(G<=k phi) from s by enumerating the paths that stay inside phi."""
    if s not in phi:
        return 0.0
    if k == 0:
        return 1.0
    return sum(p * globally_paths(rows, phi, k - 1, t) for t, p in rows[s])


def next_paths(rows, b: set, s: int) -> float:
    return sum(p for t, p in rows[s] if t in b)


# ===== Bounded operators as per-element loops =====
#
# The checker once evaluated X and U<=k with these loops. They fix the
# summation order (each row from 0.0, pair by pair, in row order), so the
# checker's array form must equal them with ==, not approximately.


def bounded_until_loop(rows, a: set, b: set, k: int) -> list[float]:
    """P(a U<=k b) per state by synchronous iteration, one pair at a time."""
    n = len(rows)
    x = [1.0 if s in b else 0.0 for s in range(n)]
    passthrough = a - b
    for _ in range(k):
        prev = x
        x = list(prev)
        for s in passthrough:
            total = 0.0
            for t, p in rows[s]:
                total += p * prev[t]
            x[s] = total
    return [min(1.0, max(0.0, v)) for v in x]


def next_loop(rows, b: set) -> list[float]:
    """P(X b) per state, each row's mass into b summed pair by pair."""
    out = []
    for row in rows:
        total = 0.0
        for t, p in row:
            if t in b:
                total += p
        out.append(min(1.0, max(0.0, total)))
    return out


# ===== Unbounded until by dense linear algebra =====


def _can_reach(rows, targets: set, through: set) -> set:
    """States in ``through`` (or targets) with a path to ``targets``."""
    reached = set(targets)
    changed = True
    while changed:
        changed = False
        for s in range(len(rows)):
            if s in reached or s not in through:
                continue
            if any(t in reached for t, _ in rows[s]):
                reached.add(s)
                changed = True
    return reached


def until_linear(rows, a: set, b: set) -> list[float]:
    """P(a U b) per state: zero where b is unreachable through a, else the
    solution of the dense linear system (I - P_UU) x = P_Ub."""
    n = len(rows)
    reach = _can_reach(rows, b, a - b)
    unknowns = sorted((a - b) & reach)
    x = [0.0] * n
    for s in b:
        x[s] = 1.0
    if unknowns:
        pos = {s: i for i, s in enumerate(unknowns)}
        m = len(unknowns)
        matrix = np.eye(m)
        rhs = np.zeros(m)
        for s in unknowns:
            for t, p in rows[s]:
                if t in b:
                    rhs[pos[s]] += p
                elif t in pos:
                    matrix[pos[s], pos[t]] -= p
        solution = np.linalg.solve(matrix, rhs)
        for s in unknowns:
            x[s] = float(solution[pos[s]])
    return x


# ===== Seq by an entry-consuming monitor product =====


def seq_linear(rows, a: set, b: set) -> list[float]:
    """P(reach a, then reach b) per state, via a product in which the
    monitor consumes each state as it is entered (acceptance is a product
    state, not a read), then the dense until solver."""
    n = len(rows)

    def consume(q: int, s: int) -> int:
        in_a, in_b = s in a, s in b
        if q == 0:
            if in_a and in_b:
                return 2
            return 1 if in_a else 0
        if q == 1:
            return 2 if in_b else 1
        return 2

    def pid(s: int, q: int) -> int:
        return s * 3 + q

    product_rows = []
    for s in range(n):
        for q in (0, 1, 2):
            if q == 2:
                product_rows.append(((pid(s, 2), 1.0),))
            else:
                product_rows.append(tuple((pid(t, consume(q, t)), p) for t, p in rows[s]))
    accepting = {pid(s, 2) for s in range(n)}
    everything = set(range(3 * n))
    x = until_linear(product_rows, everything, accepting)
    return [x[pid(s, consume(0, s))] for s in range(n)]


# ===== Set-fixpoint reachability closures =====


def closure(initial, expand) -> set:
    """Least set containing ``initial`` and closed under ``expand``."""
    seen = {initial}
    while True:
        fresh = set()
        for state in seen:
            for target in expand(state):
                if target not in seen:
                    fresh.add(target)
        if not fresh:
            return seen
        seen |= fresh


# ===== Taxi rules, rewritten =====


def taxi_actions(state, width, height, spawn, dest, station):
    x, y, fuel, on_board, _jobs = state
    if fuel == 0:
        return ["north", "south", "east", "west", "pickup", "dropoff", "refuel"]
    names = []
    if y + 1 < height:
        names.append("north")
    if y - 1 >= 0:
        names.append("south")
    if x + 1 < width:
        names.append("east")
    if x - 1 >= 0:
        names.append("west")
    if (x, y) == spawn and on_board == 0:
        names.append("pickup")
    if (x, y) == dest and on_board == 1:
        names.append("dropoff")
    if (x, y) == station:
        names.append("refuel")
    return names


def taxi_step(state, action, max_fuel, jobs_target, station):
    x, y, fuel, on_board, jobs = state
    if fuel == 0:
        return state
    if action == "north":
        return (x, y + 1, fuel - 1, on_board, jobs)
    if action == "south":
        return (x, y - 1, fuel - 1, on_board, jobs)
    if action == "east":
        return (x + 1, y, fuel - 1, on_board, jobs)
    if action == "west":
        return (x - 1, y, fuel - 1, on_board, jobs)
    if action == "pickup":
        return (x, y, fuel, 1, jobs)
    if action == "dropoff":
        capped = jobs + 1 if jobs + 1 < jobs_target else jobs_target
        return (x, y, fuel, 0, capped)
    if action == "refuel":
        return (x, y, max_fuel, on_board, jobs)
    raise AssertionError(action)


def taxi_reachable(width, height, max_fuel, spawn, dest, station, jobs_target) -> set:
    start = (station[0], station[1], max_fuel, 0, 0)

    def expand(state):
        for action in taxi_actions(state, width, height, spawn, dest, station):
            yield taxi_step(state, action, max_fuel, jobs_target, station)

    return closure(start, expand)


# ===== Chase rules, rewritten =====

AVOID_ACTIONS = ["north", "south", "east", "west", "stay"]


def avoid_actions(state, width, height):
    ax, ay = state[0], state[1]
    names = []
    if ay + 1 < height:
        names.append("north")
    if ay - 1 >= 0:
        names.append("south")
    if ax + 1 < width:
        names.append("east")
    if ax - 1 >= 0:
        names.append("west")
    names.append("stay")
    return names


def avoid_branches(state, action, move_prob):
    """(successor, probability) pairs after the agent takes ``action``."""
    ax, ay, ox, oy = state
    ax += {"north": 0, "south": 0, "east": 1, "west": -1, "stay": 0}[action]
    ay += {"north": 1, "south": -1, "east": 0, "west": 0, "stay": 0}[action]
    if ox < ax:
        chased = (ox + 1, oy)
    elif ox > ax:
        chased = (ox - 1, oy)
    elif oy < ay:
        chased = (ox, oy + 1)
    elif oy > ay:
        chased = (ox, oy - 1)
    else:
        chased = (ox, oy)
    moved = (ax, ay, chased[0], chased[1])
    stayed = (ax, ay, ox, oy)
    if moved == stayed or move_prob == 1.0:
        return [(moved, 1.0)]
    if move_prob == 0.0:
        return [(stayed, 1.0)]
    return [(moved, move_prob), (stayed, 1.0 - move_prob)]


# ===== A from-scratch linear policy evaluator =====


def linear_logits(weights, bias, state):
    """Single affine layer, plain Python arithmetic."""
    return [sum(w * v for w, v in zip(row, state)) + b for row, b in zip(weights, bias)]


def argmax_in_schema(logits, schema, available):
    """Largest logit among available actions; first schema index on ties."""
    best = None
    for i, name in enumerate(schema):
        if name not in available:
            continue
        if best is None or logits[i] > logits[best]:
            best = i
    return schema[best]


def avoid_induced_chain(weights, bias, width, height, obstacle, move_prob):
    """Induced chain of a one-layer policy on the chase rules.

    Returns (states list, rows dict state -> [(target, p)]), built by
    fixpoint closure; states are listed in sorted order, not discovery
    order, since only the set and the rows matter to the oracles.
    """
    start = (0, 0, obstacle[0], obstacle[1])

    def picked(state):
        available = avoid_actions(state, width, height)
        logits = linear_logits(weights, bias, state)
        return argmax_in_schema(logits, AVOID_ACTIONS, available)

    def expand(state):
        for target, _ in avoid_branches(state, picked(state), move_prob):
            yield target

    states = sorted(closure(start, expand))
    rows = {state: avoid_branches(state, picked(state), move_prob) for state in states}
    return states, rows


def avoid_globally_no_collision(weights, bias, width, height, obstacle, move_prob, horizon) -> float:
    """P(G<=horizon no-collision) from the start, by path enumeration."""
    states, rows = avoid_induced_chain(weights, bias, width, height, obstacle, move_prob)
    index = {state: i for i, state in enumerate(states)}
    indexed_rows = [
        [(index[t], p) for t, p in rows[state]] for state in states
    ]
    safe = {i for i, state in enumerate(states) if (state[0], state[1]) != (state[2], state[3])}
    return globally_paths(indexed_rows, safe, horizon, index[(0, 0, obstacle[0], obstacle[1])])
