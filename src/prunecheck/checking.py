"""Exact PCTL checking over chains.

The pipeline for an unbounded until is the classic two-phase one: first the
qualitative states are found by graph fixpoints alone (no arithmetic), then
the remaining linear system is solved by Gauss-Seidel sweeps. That split is
what lets probability-zero and probability-one states report exactly 0.0
and 1.0 instead of something a tolerance away.

Bounded operators (``X``, ``U<=k``, ``F<=k``, ``G<=k``) are evaluated by
exact synchronous iteration with no tolerance at all, one array operation
per step over the chain's transitions in row order. Every row is summed
from 0.0 pair by pair, as a per-element loop would, so the results are the
loop's bit for bit; a matrix product or a per-row reduction would sum in
another order. SEQ goes through a three-state monitor product and the
unbounded-until machinery.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, UnknownLabelWarning
from .model import Dtmc, IndexRow
from .properties import (
    And,
    Eventually,
    FalseFormula,
    Globally,
    Label,
    Next,
    Not,
    Or,
    PathFormula,
    Prob,
    Seq,
    StateFormula,
    TrueFormula,
    Until,
)

# ===== Solver constants =====

# Absolute residual (largest value update in a sweep) at which Gauss-Seidel
# stops. Tight enough that reported values are stable to far better than
# any tolerance the callers assert.
SOLVER_TOLERANCE = 1e-10

# Sweep budget before the solver gives up with SolverError.
MAX_SWEEPS = 1_000_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one property against one chain.

    ``value`` is always the initial state's probability; ``satisfied`` is
    the comparator verdict, or None for "=?" queries. ``per_state`` keeps
    the full vector for diagnostics. ``iterations`` and ``residual``
    describe the numeric solve (both zero when graph analysis settled
    everything or the operator is exact).
    """

    value: float
    satisfied: bool | None
    per_state: tuple[float, ...]
    iterations: int
    residual: float


# ===== Core routines over sparse rows =====


def _predecessors(rows: list[IndexRow] | tuple[IndexRow, ...]) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t, _ in row:
            preds[t].append(s)
    return preds


def _backward_set(preds: list[list[int]], seeds: set[int], allowed: set[int]) -> set[int]:
    """Least fixpoint: seeds plus allowed states with an edge into the set."""
    reached = set(seeds)
    stack = list(seeds)
    while stack:
        t = stack.pop()
        for s in preds[t]:
            if s not in reached and s in allowed:
                reached.add(s)
                stack.append(s)
    return reached


def _prob01_sets(rows, a: set[int], b: set[int]) -> tuple[set[int], set[int]]:
    n = len(rows)
    preds = _predecessors(rows)
    # States with a chance of satisfying the until: can reach b through a.
    can_reach = _backward_set(preds, set(b), a - b)
    prob0 = set(range(n)) - can_reach
    # States with a chance of failing it: can reach a prob0 state before b.
    can_fail = _backward_set(preds, prob0, set(range(n)) - b)
    prob1 = set(range(n)) - can_fail
    return prob0, prob1


def _gauss_seidel(rows, prob0: set[int], prob1: set[int]) -> tuple[list[float], int, float]:
    """Solve x = Px on the uncertain states, in place, in index order.

    Each row's diagonal is eliminated exactly
    (x_s = (sum_{t != s} p_st * x_t) / (1 - p_ss)), which keeps self-loop
    mass from slowing convergence. Determined states stay pinned at 0/1.
    """
    n = len(rows)
    x = [0.0] * n
    for s in prob1:
        x[s] = 1.0
    uncertain = [s for s in range(n) if s not in prob0 and s not in prob1]
    if not uncertain:
        return x, 0, 0.0

    prepared = []
    for s in uncertain:
        diag = 0.0
        off: list[tuple[int, float]] = []
        for t, p in rows[s]:
            if t == s:
                diag += p
            else:
                off.append((t, p))
        prepared.append((s, 1.0 - diag, off))

    for sweep in range(1, MAX_SWEEPS + 1):
        residual = 0.0
        for s, scale, off in prepared:
            total = 0.0
            for t, p in off:
                total += p * x[t]
            new = total / scale
            delta = new - x[s]
            if delta < 0.0:
                delta = -delta
            if delta > residual:
                residual = delta
            x[s] = new
        if residual <= SOLVER_TOLERANCE:
            for s, _, _ in prepared:
                x[s] = min(1.0, max(0.0, x[s]))
            return x, sweep, residual
    raise SolverError(
        f"Gauss-Seidel did not reach {SOLVER_TOLERANCE} within {MAX_SWEEPS} sweeps",
        iterations=MAX_SWEEPS,
        residual=residual,
    )


def _solve_until(rows, a: set[int], b: set[int]) -> tuple[list[float], int, float]:
    prob0, prob1 = _prob01_sets(rows, a, b)
    return _gauss_seidel(rows, prob0, prob1)


def _mask(n: int, states) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(states, dtype=np.intp)] = True
    return mask


def _bounded_until(dtmc: Dtmc, a: set[int], b: set[int], k: int) -> list[float]:
    """Synchronous iteration x_s = sum_t p_st * x_t on the states of a - b.

    ``np.bincount`` adds its weights in input order, and ``Dtmc.arrays``
    lists transitions in row order, so every row is summed from 0.0 pair by
    pair, exactly as a loop over the row would.
    """
    n = dtmc.num_states
    source, target, prob = dtmc.arrays
    in_b = _mask(n, b)
    passthrough = _mask(n, a) & ~in_b
    keep = passthrough[source]
    source, target, prob = source[keep], target[keep], prob[keep]
    x = in_b.astype(np.float64)
    for _ in range(k):
        x = np.where(passthrough, np.bincount(source, weights=prob * x[target], minlength=n), x)
    return np.clip(x, 0.0, 1.0).tolist()


# ===== Public per-operator API =====


def prob01(dtmc: Dtmc, a: frozenset[int] | set[int], b: frozenset[int] | set[int]):
    """Qualitative sets for ``a U b``: (probability-0, probability-1)."""
    zero, one = _prob01_sets(dtmc.rows, set(a), set(b))
    return frozenset(zero), frozenset(one)


def until_probability(dtmc: Dtmc, a, b) -> list[float]:
    """Per-state probability of ``a U b``, exact at the qualitative states."""
    vec, _, _ = _solve_until(dtmc.rows, set(a), set(b))
    return vec


def bounded_until_probability(dtmc: Dtmc, a, b, k: int) -> list[float]:
    """Per-state probability of ``a U<=k b`` by exact iteration."""
    if k < 0:
        raise ValueError("bound must be non-negative")
    return _bounded_until(dtmc, set(a), set(b), k)


def next_probability(dtmc: Dtmc, b) -> list[float]:
    """Per-state probability that the next state satisfies ``b``.

    Each row's transitions into ``b`` are summed from 0.0 in row order.
    """
    n = dtmc.num_states
    source, target, prob = dtmc.arrays
    hit = _mask(n, b)[target]
    return np.clip(np.bincount(source[hit], weights=prob[hit], minlength=n), 0.0, 1.0).tolist()


# -- SEQ monitor product --

# Monitor states: 0 = waiting for `first`, 1 = `first` seen, waiting for
# `then`. Acceptance is the act of reading a state that completes the
# sequence, so the product pairs each chain state with the monitor state
# *before* reading it and targets are pairs whose read accepts.
_WAIT_FIRST = 0
_WAIT_THEN = 1
_ACCEPT = 2


def _monitor_step(q: int, in_first: bool, in_then: bool) -> int:
    if q == _WAIT_FIRST:
        if in_first and in_then:
            return _ACCEPT
        if in_first:
            return _WAIT_THEN
        return _WAIT_FIRST
    return _ACCEPT if in_then else _WAIT_THEN


def seq_probability(dtmc: Dtmc, a, b) -> list[float]:
    """Per-state probability of reaching ``a`` and afterwards ``b``.

    Built as a product with the two-phase monitor, checked with the
    unbounded-until machinery, and projected back to the fresh-monitor
    copy of each state.
    """
    vec, _, _ = _seq_solve(dtmc, set(a), set(b))
    return vec


def _seq_solve(dtmc: Dtmc, a: set[int], b: set[int]) -> tuple[list[float], int, float]:
    n = dtmc.num_states
    steps = [
        (_monitor_step(_WAIT_FIRST, s in a, s in b), _monitor_step(_WAIT_THEN, s in a, s in b))
        for s in range(n)
    ]

    def pid(s: int, q: int) -> int:
        return s * 2 + q

    product_rows: list[IndexRow] = []
    targets: set[int] = set()
    for s in range(n):
        for q in (_WAIT_FIRST, _WAIT_THEN):
            q_next = steps[s][q]
            if q_next == _ACCEPT:
                targets.add(pid(s, q))
                product_rows.append(((pid(s, q), 1.0),))
            else:
                product_rows.append(tuple((pid(t, q_next), p) for t, p in dtmc.rows[s]))

    everything = set(range(2 * n))
    vec, iterations, residual = _solve_until(product_rows, everything, targets)
    return [vec[pid(s, _WAIT_FIRST)] for s in range(n)], iterations, residual


# ===== Formula evaluation =====


def evaluate_states(dtmc: Dtmc, sf: StateFormula) -> frozenset[int]:
    """Bottom-up state-set semantics of a state formula.

    A label absent from the chain's alphabet denotes the empty set; that is
    almost always a typo, so it additionally emits UnknownLabelWarning.
    """
    return _evaluate(dtmc, sf, dtmc.alphabet())


def _evaluate(dtmc: Dtmc, sf: StateFormula, alphabet: frozenset[str]) -> frozenset[int]:
    everything = frozenset(range(dtmc.num_states))
    if isinstance(sf, TrueFormula):
        return everything
    if isinstance(sf, FalseFormula):
        return frozenset()
    if isinstance(sf, Label):
        if sf.name not in alphabet:
            warnings.warn(
                f"label {sf.name!r} does not occur in the model; treating it as the empty set",
                UnknownLabelWarning,
                stacklevel=4,
            )
        return dtmc.states_with(sf.name)
    if isinstance(sf, Not):
        return everything - _evaluate(dtmc, sf.operand, alphabet)
    if isinstance(sf, And):
        return _evaluate(dtmc, sf.left, alphabet) & _evaluate(dtmc, sf.right, alphabet)
    if isinstance(sf, Or):
        return _evaluate(dtmc, sf.left, alphabet) | _evaluate(dtmc, sf.right, alphabet)
    raise TypeError(f"not a state formula: {sf!r}")


def _path_vector(dtmc: Dtmc, path: PathFormula, alphabet: frozenset[str]) -> tuple[list[float], int, float]:
    everything = set(range(dtmc.num_states))
    if isinstance(path, Next):
        return next_probability(dtmc, _evaluate(dtmc, path.target, alphabet)), 0, 0.0
    if isinstance(path, Until):
        a = set(_evaluate(dtmc, path.left, alphabet))
        b = set(_evaluate(dtmc, path.right, alphabet))
        if path.bound is None:
            return _solve_until(dtmc.rows, a, b)
        return _bounded_until(dtmc, a, b, path.bound), path.bound, 0.0
    if isinstance(path, Eventually):
        b = set(_evaluate(dtmc, path.target, alphabet))
        if path.bound is None:
            return _solve_until(dtmc.rows, everything, b)
        return _bounded_until(dtmc, everything, b, path.bound), path.bound, 0.0
    if isinstance(path, Globally):
        # G phi is the complement of eventually-not-phi, bounded or not.
        bad = everything - set(_evaluate(dtmc, path.target, alphabet))
        if path.bound is None:
            vec, iterations, residual = _solve_until(dtmc.rows, everything, bad)
        else:
            vec, iterations, residual = _bounded_until(dtmc, everything, bad, path.bound), path.bound, 0.0
        return [1.0 - v for v in vec], iterations, residual
    if isinstance(path, Seq):
        first = set(_evaluate(dtmc, path.first, alphabet))
        then = set(_evaluate(dtmc, path.then, alphabet))
        return _seq_solve(dtmc, first, then)
    raise TypeError(f"not a path formula: {path!r}")


_COMPARE = {
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
}


def check(dtmc: Dtmc, prop: Prob) -> CheckResult:
    """Check one parsed property; the initial state is index 0.

    Returns a CheckResult whose ``value`` is the initial state's
    probability for both query and bounded forms; bounded forms answer the
    comparator in ``satisfied`` as well.
    """
    alphabet = dtmc.alphabet()
    vector, iterations, residual = _path_vector(dtmc, prop.path, alphabet)
    value = vector[0]
    satisfied = None
    if prop.comparator is not None:
        satisfied = _COMPARE[prop.comparator](value, prop.threshold)
    return CheckResult(
        value=value,
        satisfied=satisfied,
        per_state=tuple(vector),
        iterations=iterations,
        residual=residual,
    )
