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

Every routine reads the chain's compressed sparse row arrays: the graph
searches and the bounded operators as NumPy arrays, the Gauss-Seidel sweeps
as Python lists in state order and row order. State sets are boolean masks
from the label lookup to the solver; a label that no state carries is the
empty mask and emits UnknownLabelWarning. The public helpers, which take
and give sets of state indices, convert at that boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, UnknownLabelWarning
from .model import Dtmc
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


# ===== Core routines over compressed sparse rows =====
#
# A chain is passed around as its three CSR arrays (``indptr``, ``indices``,
# ``probs``) and state sets as boolean masks, so the SEQ product, which has
# no state vectors, goes through the same routines as a Dtmc.


def _mask(n: int, states) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(states, dtype=np.intp)] = True
    return mask


def _sources(indptr: np.ndarray) -> np.ndarray:
    """The source state of every transition, in row order."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _backward_set(rev_ptr: np.ndarray, rev_src: np.ndarray, seeds: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Least fixpoint: seeds plus allowed states with an edge into the set.

    State t's predecessors are ``rev_src[rev_ptr[t]:rev_ptr[t + 1]]``; the
    search gathers those of a whole frontier at once.
    """
    reached = seeds.copy()
    frontier = np.flatnonzero(seeds)
    while frontier.size:
        starts = rev_ptr[frontier]
        counts = rev_ptr[frontier + 1] - starts
        # Every frontier state's span of rev_src, laid end to end.
        spans = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        preds = rev_src[spans]
        frontier = np.unique(preds[allowed[preds] & ~reached[preds]])
        reached[frontier] = True
    return reached


def _prob01_sets(indptr, indices, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(indptr) - 1
    rev_src = _sources(indptr)[np.argsort(indices, kind="stable")]
    rev_ptr = np.concatenate(([0], np.cumsum(np.bincount(indices, minlength=n))))
    # States with a chance of satisfying the until: can reach b through a.
    prob0 = ~_backward_set(rev_ptr, rev_src, b, a & ~b)
    # States with a chance of failing it: can reach a prob0 state before b.
    prob1 = ~_backward_set(rev_ptr, rev_src, prob0, ~b)
    return prob0, prob1


def _gauss_seidel(indptr, indices, probs, prob0: np.ndarray, prob1: np.ndarray) -> tuple[list[float], int, float]:
    """Solve x = Px on the uncertain states, in place, in index order.

    Each row's diagonal is eliminated exactly
    (x_s = (sum_{t != s} p_st * x_t) / (1 - p_ss)), which keeps self-loop
    mass from slowing convergence. Determined states stay pinned at 0/1.
    The sweeps run over Python lists, which beat per-element NumPy here.
    """
    x = prob1.astype(np.float64).tolist()
    uncertain = np.flatnonzero(~(prob0 | prob1)).tolist()
    if not uncertain:
        return x, 0, 0.0

    indptr, indices, probs = indptr.tolist(), indices.tolist(), probs.tolist()
    prepared = []
    for s in uncertain:
        diag = 0.0
        off: list[tuple[int, float]] = []
        for k in range(indptr[s], indptr[s + 1]):
            t, p = indices[k], probs[k]
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


def _solve_until(indptr, indices, probs, a: np.ndarray, b: np.ndarray) -> tuple[list[float], int, float]:
    prob0, prob1 = _prob01_sets(indptr, indices, a, b)
    return _gauss_seidel(indptr, indices, probs, prob0, prob1)


def _bounded_until(dtmc: Dtmc, passthrough: np.ndarray, start: np.ndarray, k: int) -> list[float]:
    """``k`` synchronous steps x_s = sum_t p_st * x_t on ``passthrough``, from the ``start`` mask.

    ``np.bincount`` adds its weights in input order, and the chain's arrays
    list transitions in row order, so every row is summed from 0.0 pair by
    pair, exactly as a loop over the row would. A transition into a state
    at 0 adds ``p * 0.0 = +0.0``, which leaves the non-negative sum as it was.
    """
    n = dtmc.num_states
    source = _sources(dtmc.indptr)
    keep = passthrough[source]
    source, target, prob = source[keep], dtmc.indices[keep], dtmc.probs[keep]
    x = start.astype(np.float64)
    for _ in range(k):
        x = np.where(passthrough, np.bincount(source, weights=prob * x[target], minlength=n), x)
    return np.clip(x, 0.0, 1.0).tolist()


# ===== Public per-operator API =====


def prob01(dtmc: Dtmc, a: frozenset[int] | set[int], b: frozenset[int] | set[int]):
    """Qualitative sets for ``a U b``: (probability-0, probability-1)."""
    n = dtmc.num_states
    zero, one = _prob01_sets(dtmc.indptr, dtmc.indices, _mask(n, a), _mask(n, b))
    return frozenset(np.flatnonzero(zero).tolist()), frozenset(np.flatnonzero(one).tolist())


def until_probability(dtmc: Dtmc, a, b) -> list[float]:
    """Per-state probability of ``a U b``, exact at the qualitative states."""
    n = dtmc.num_states
    vec, _, _ = _solve_until(dtmc.indptr, dtmc.indices, dtmc.probs, _mask(n, a), _mask(n, b))
    return vec


def bounded_until_probability(dtmc: Dtmc, a, b, k: int) -> list[float]:
    """Per-state probability of ``a U<=k b`` by exact iteration."""
    if k < 0:
        raise ValueError("bound must be non-negative")
    n = dtmc.num_states
    b = _mask(n, b)
    return _bounded_until(dtmc, _mask(n, a) & ~b, b, k)


def next_probability(dtmc: Dtmc, b) -> list[float]:
    """Per-state probability that the next state satisfies ``b``."""
    n = dtmc.num_states
    return _bounded_until(dtmc, np.ones(n, dtype=bool), _mask(n, b), 1)


# -- SEQ monitor product --

# Monitor states: 0 = waiting for `first`, 1 = `first` seen, waiting for
# `then`. Acceptance is the act of reading a state that completes the
# sequence, so the product pairs each chain state with the monitor state
# *before* reading it and targets are pairs whose read accepts.
_WAIT_FIRST = 0
_WAIT_THEN = 1
_ACCEPT = 2


def seq_probability(dtmc: Dtmc, a, b) -> list[float]:
    """Per-state probability of reaching ``a`` and afterwards ``b``.

    Built as a product with the two-phase monitor, checked with the
    unbounded-until machinery, and projected back to the fresh-monitor
    copy of each state.
    """
    n = dtmc.num_states
    vec, _, _ = _seq_solve(dtmc, _mask(n, a), _mask(n, b))
    return vec


def _seq_solve(dtmc: Dtmc, a: np.ndarray, b: np.ndarray) -> tuple[list[float], int, float]:
    """Solve SEQ on the product whose pair (s, q) is state ``2 * s + q``.

    A pair whose read accepts is an absorbing target; any other pair copies
    its state's row, each target t becoming the pair (t, monitor state
    after reading s).
    """
    n = dtmc.num_states
    indptr, indices, probs = dtmc.indptr, dtmc.indices, dtmc.probs
    step = np.empty((n, 2), dtype=np.intp)
    step[:, _WAIT_FIRST] = np.where(a & b, _ACCEPT, np.where(a, _WAIT_THEN, _WAIT_FIRST))
    step[:, _WAIT_THEN] = np.where(b, _ACCEPT, _WAIT_THEN)
    step = step.ravel()
    accept = step == _ACCEPT

    state = np.arange(2 * n) // 2
    lengths = np.where(accept, 1, np.diff(indptr)[state])
    product_indptr = np.concatenate(([0], np.cumsum(lengths)))
    row = np.repeat(np.arange(2 * n), lengths)
    product_indices = row.copy()
    product_probs = np.ones(len(row))
    copied = np.flatnonzero(~accept[row])
    position = copied + (indptr[state] - product_indptr[:-1])[row[copied]]
    product_indices[copied] = 2 * indices[position] + step[row[copied]]
    product_probs[copied] = probs[position]

    everything = np.ones(2 * n, dtype=bool)
    vec, iterations, residual = _solve_until(product_indptr, product_indices, product_probs, everything, accept)
    return vec[0::2], iterations, residual


# ===== Formula evaluation =====


def evaluate_states(dtmc: Dtmc, sf: StateFormula) -> frozenset[int]:
    """The states satisfying a state formula, read off the checker's mask.

    A label that no state carries denotes the empty mask; that is almost
    always a typo, so it additionally emits UnknownLabelWarning.
    """
    return frozenset(np.flatnonzero(_evaluate(dtmc, sf)).tolist())


def _evaluate(dtmc: Dtmc, sf: StateFormula) -> np.ndarray:
    n = dtmc.num_states
    if isinstance(sf, TrueFormula):
        return np.ones(n, dtype=bool)
    if isinstance(sf, FalseFormula):
        return np.zeros(n, dtype=bool)
    if isinstance(sf, Label):
        mask = np.fromiter((sf.name in labels for labels in dtmc.state_labels), dtype=bool, count=n)
        if not mask.any():
            warnings.warn(
                f"label {sf.name!r} does not occur in the model; treating it as the empty set",
                UnknownLabelWarning,
                stacklevel=4,
            )
        return mask
    if isinstance(sf, Not):
        return ~_evaluate(dtmc, sf.operand)
    if isinstance(sf, And):
        return _evaluate(dtmc, sf.left) & _evaluate(dtmc, sf.right)
    if isinstance(sf, Or):
        return _evaluate(dtmc, sf.left) | _evaluate(dtmc, sf.right)
    raise TypeError(f"not a state formula: {sf!r}")


def _path_vector(dtmc: Dtmc, path: PathFormula) -> tuple[list[float], int, float]:
    if isinstance(path, Seq):
        return _seq_solve(dtmc, _evaluate(dtmc, path.first), _evaluate(dtmc, path.then))
    everything = np.ones(dtmc.num_states, dtype=bool)
    if isinstance(path, Next):
        return _bounded_until(dtmc, everything, _evaluate(dtmc, path.target), 1), 0, 0.0
    # U, F and G are each one until a U b; G phi is the complement of F !phi.
    if isinstance(path, Until):
        a, b = _evaluate(dtmc, path.left), _evaluate(dtmc, path.right)
    elif isinstance(path, Eventually):
        a, b = everything, _evaluate(dtmc, path.target)
    elif isinstance(path, Globally):
        a, b = everything, ~_evaluate(dtmc, path.target)
    else:
        raise TypeError(f"not a path formula: {path!r}")
    if path.bound is None:
        vec, iterations, residual = _solve_until(dtmc.indptr, dtmc.indices, dtmc.probs, a, b)
    else:
        vec, iterations, residual = _bounded_until(dtmc, a & ~b, b, path.bound), path.bound, 0.0
    if isinstance(path, Globally):
        vec = [1.0 - v for v in vec]
    return vec, iterations, residual


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
    vector, iterations, residual = _path_vector(dtmc, prop.path)
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
