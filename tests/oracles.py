"""Independent reference implementations used to pin expected values.

Nothing here imports the package's builder, checker, environments, or
pruning internals (only plain data goes in and out), so agreement between
these oracles and the package is evidence, not circularity.

* bounded operators: literal path enumeration (tree recursion over
  successor edges, probabilities multiplied along each path), the
  per-element loops the checker must match bit for bit, and the same
  iteration in ``Fraction``, which the checker's certified interval must hold
* unbounded until: dense linear solve after a local reachability pass, in
  floats or exactly in ``Fraction`` over the rationals the floats denote
* seq: a separately formulated monitor product (monitor consumes the
  current state on entry) plus the dense solver
* environments: the taxi and chase rules rewritten from scratch
* distributions: the ordered check whose first violation, in support
  order, a Distribution must report word for word
* the explicit model format: the loader as first written, branch by
  branch, whose first error the package's loader must raise word for word
* reachability: set-fixpoint closure, no queues or indices
* the probability-0 and probability-1 sets as the row-based searches the
  checker once ran, which its array form must match set for set
* state formulas as frozensets over the labels' alphabet, which the
  checker's boolean masks must match state for state and warning for warning
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np

from prunecheck.errors import ModelSemanticError, ModelSyntaxError, UnknownLabelWarning
from prunecheck.properties import And, FalseFormula, Label, Not, Or, TrueFormula

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


def bounded_until_fraction(rows, a: set, b: set, k: int) -> list[Fraction]:
    """P(a U<=k b) per state, exactly, over the rationals the row probabilities
    denote (``Fraction(p)`` of each), by synchronous iteration."""
    passthrough = a - b
    x = [Fraction(int(s in b)) for s in range(len(rows))]
    for _ in range(k):
        x = [sum((Fraction(p) * x[t] for t, p in row), Fraction(0)) if s in passthrough else x[s] for s, row in enumerate(rows)]
    return x


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


def until_fraction(rows, a: set, b: set) -> list[Fraction]:
    """P(a U b) per state, exactly, over the rationals the row probabilities
    denote, by Gauss-Jordan elimination with the first nonzero pivot of each
    column. States that cannot reach b through a are 0; states that cannot
    reach such a state before b are 1, even where float rows miss a sum of 1
    by a rounding."""
    n = len(rows)
    everything = set(range(n))
    zero = everything - _can_reach(rows, b, a - b)
    one = everything - _can_reach(rows, zero, everything - b)
    unknowns = sorted(everything - zero - one)
    pos = {s: i for i, s in enumerate(unknowns)}
    m = len(unknowns)
    matrix = [[Fraction(int(i == j)) for j in range(m)] + [Fraction(0)] for i in range(m)]
    for s in unknowns:
        for t, p in rows[s]:
            if t in one:
                matrix[pos[s]][m] += Fraction(p)
            elif t in pos:
                matrix[pos[s]][pos[t]] -= Fraction(p)
    for col in range(m):
        pivot = next(r for r in range(col, m) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        lead = matrix[col][col]
        matrix[col] = [v / lead for v in matrix[col]]
        for r in range(m):
            factor = matrix[r][col]
            if r != col and factor != 0:
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[col])]
    x = [Fraction(int(s in one)) for s in range(n)]
    for s in unknowns:
        x[s] = matrix[pos[s]][m]
    return x


# ===== The row-based qualitative sets =====
#
# The checker once found the probability-0 and probability-1 states with
# these searches over tuples of (target, probability) rows; its array form
# must give the same sets.


def _row_predecessors(rows) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t, _ in row:
            preds[t].append(s)
    return preds


def _row_backward_set(preds, seeds: set, allowed: set) -> set:
    reached = set(seeds)
    stack = list(seeds)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s not in reached and s in allowed:
                reached.add(s)
                stack.append(s)
    return reached


def row_prob01_sets(rows, a: set, b: set) -> tuple[set, set]:
    n = len(rows)
    preds = _row_predecessors(rows)
    can_reach = _row_backward_set(preds, set(b), a - b)
    prob0 = set(range(n)) - can_reach
    can_fail = _row_backward_set(preds, prob0, set(range(n)) - b)
    prob1 = set(range(n)) - can_fail
    return prob0, prob1



# ===== State formulas as frozensets =====


def evaluate_sets(state_labels, sf) -> frozenset:
    """The states satisfying ``sf``, given each state's label set.

    A label outside the alphabet (the labels some state carries) is the
    empty set and emits UnknownLabelWarning, once per occurrence.
    """
    alphabet = frozenset().union(*state_labels)
    return _evaluate_sets(state_labels, sf, alphabet)


def _evaluate_sets(state_labels, sf, alphabet: frozenset) -> frozenset:
    everything = frozenset(range(len(state_labels)))
    if isinstance(sf, TrueFormula):
        return everything
    if isinstance(sf, FalseFormula):
        return frozenset()
    if isinstance(sf, Label):
        if sf.name not in alphabet:
            warnings.warn(
                f"label {sf.name!r} does not occur in the checked chain; treating it as the empty set",
                UnknownLabelWarning,
            )
        return frozenset(i for i, labels in enumerate(state_labels) if sf.name in labels)
    if isinstance(sf, Not):
        return everything - _evaluate_sets(state_labels, sf.operand, alphabet)
    if isinstance(sf, And):
        return _evaluate_sets(state_labels, sf.left, alphabet) & _evaluate_sets(state_labels, sf.right, alphabet)
    if isinstance(sf, Or):
        return _evaluate_sets(state_labels, sf.left, alphabet) | _evaluate_sets(state_labels, sf.right, alphabet)
    raise TypeError(f"not a state formula: {sf!r}")


# ===== Seq by an entry-consuming monitor product =====


def seq_linear(rows, a: set, b: set, solve=until_linear) -> list:
    """P(reach a, then reach b) per state, via a product in which the
    monitor consumes each state as it is entered (acceptance is a product
    state, not a read), then the dense until solver ``solve``."""
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
    x = solve(product_rows, everything, accepting)
    return [x[pid(s, consume(0, s))] for s in range(n)]


# ===== Distribution check, in support order =====


def distribution_check_in_order(support, tolerance=1e-9) -> None:
    """Raise ValueError for the first rule a support breaks, pair by pair."""
    if not support:
        raise ValueError("distribution has empty support")
    seen = set()
    total = 0.0
    for target, prob in support:
        if not (0.0 < prob <= 1.0):
            raise ValueError(f"probability {prob!r} outside (0, 1] for target {target}")
        if target in seen:
            raise ValueError(f"duplicate target {target} in distribution")
        seen.add(target)
        total += prob
    if abs(total - 1.0) > tolerance:
        raise ValueError(f"distribution mass {total!r} differs from 1 beyond tolerance")



# ===== The explicit model format, branch by branch =====
#
# The loader as it first read a document: every branch through the same
# helpers with its location built up front, and no pause of the garbage
# collector. The package's loader must raise what this raises, type and
# message, at the same first fault, and read a valid document into the same
# rows. Only one rule was added since: a declared state with a feature value
# too large for a float is a format error, which this does not know.


def _read_json_object_reference(text: str, keys: tuple, error: type, where: str) -> dict:
    def unique_keys(pairs):
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
    except (ValueError, RecursionError) as err:
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


def _probability_reference(raw, where: str, fractions: dict):
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


def _state_vector_reference(raw, width: int, where: str) -> tuple:
    if not isinstance(raw, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in raw):
        raise ModelSyntaxError(f"{where}: state must be a list of integers")
    if len(raw) != width:
        raise ModelSyntaxError(f"{where}: state has {len(raw)} features, schema declares {width}")
    return tuple(raw)


def explicit_model_reference(text: str) -> dict:
    """The document's schemas, initial state, declared states in order, and
    per declared state its schema-ordered actions, its labels and, per
    action, its row as ``(support, exact)``; or the loader's error."""
    doc = _read_json_object_reference(text, ("features", "actions", "initial", "states"), ModelSyntaxError, "object")

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
    initial = _state_vector_reference(doc["initial"], width, "'initial'")

    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ModelSyntaxError("'states' must be a non-empty list")

    declared = []
    label_table = {}
    action_table = {}
    raw_rows = {}
    fractions = {}
    whole = {}

    for k, entry in enumerate(doc["states"]):
        where = f"states[{k}]"
        if not isinstance(entry, dict):
            raise ModelSyntaxError(f"{where}: must be an object")
        unknown = set(entry) - {"s", "labels", "act"}
        if unknown:
            raise ModelSyntaxError(f"{where}: unknown keys {sorted(unknown)}")
        if "s" not in entry or "act" not in entry:
            raise ModelSyntaxError(f"{where}: needs keys 's' and 'act'")
        state = _state_vector_reference(entry["s"], width, f"{where}.s")
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
            pairs = []
            exact = []
            for b, branch in enumerate(branches):
                spot = f"{where}.act.{action}[{b}]"
                if not isinstance(branch, dict) or set(branch) != {"to", "p"}:
                    raise ModelSyntaxError(f"{spot}: must be an object with keys 'to' and 'p'")
                target = _state_vector_reference(branch["to"], width, f"{spot}.to")
                prob, rational = _probability_reference(branch["p"], f"{spot}.p", fractions)
                pairs.append((target, prob))
                if rational is None:
                    exact = None
                elif exact is not None:
                    exact.append(rational)
            if exact is not None:
                written = tuple([branch["p"] for branch in branches])
                if written not in whole:
                    whole[written] = sum(exact) == 1
                if not whole[written]:
                    exact = None
            raw_rows[(state, action)] = (pairs, exact)
        action_table[state] = tuple(a for a in actions if a in act)

    declared_set = set(declared)
    if initial not in declared_set:
        raise ModelSemanticError(f"initial state {list(initial)} is not declared")

    rows = {}
    for (state, action), (pairs, exact) in raw_rows.items():
        for target, _ in pairs:
            if target not in declared_set:
                raise ModelSemanticError(
                    f"state {list(state)} action {action!r} references undeclared state {list(target)}"
                )
        try:
            distribution_check_in_order(pairs)
        except ValueError as err:
            raise ModelSemanticError(f"state {list(state)} action {action!r}: {err}")
        rows[(state, action)] = (tuple(pairs), exact and tuple(exact))

    return {
        "features": tuple(features),
        "actions": tuple(actions),
        "initial": initial,
        "declared": tuple(declared),
        "available": action_table,
        "labels": label_table,
        "rows": rows,
    }


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


def _moves_landing_inside(x, y, width, height):
    """Moves whose landing cell lies on the grid, from any cell (on it or not)."""
    landings = {"north": (x, y + 1), "south": (x, y - 1), "east": (x + 1, y), "west": (x - 1, y)}
    return [name for name, (cx, cy) in landings.items() if 0 <= cx < width and 0 <= cy < height]


def taxi_actions(state, width, height, spawn, dest, station):
    x, y, fuel, on_board, _jobs = state
    if fuel == 0:
        return ["north", "south", "east", "west", "pickup", "dropoff", "refuel"]
    names = _moves_landing_inside(x, y, width, height)
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
    return _moves_landing_inside(state[0], state[1], width, height) + ["stay"]


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
