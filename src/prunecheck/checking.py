"""Exact PCTL checking over chains.

The pipeline for an unbounded until is the classic two-phase one: first the
qualitative states are found by graph fixpoints alone (no arithmetic), then
the remaining linear system is solved with a certified bound. That split is
what lets probability-zero and probability-one states report exactly 0.0
and 1.0 instead of something a tolerance away, and it removes the end
components that would stall an upper bound.

The linear system takes one of three paths. When every transition carries
its rational and the uncertain block is small, fraction-free sparse
elimination on Python integers solves it exactly; past a fill cap the
elimination is abandoned, and a block past it from the start reads no
rational. Otherwise a block of at most ``DENSE_MAX_STATES`` states is
solved densely in floats and certified a posteriori from its residual.
Everywhere else, and when that bound is too wide, Jacobi interval
iteration (Haddad & Monmege, TCS 2018) raises a lower and lowers an upper
sequence until they are within ``CERTIFIED_GAP`` of each other, rounding
slack included. The float paths report the midpoint of their bounds.
``CheckResult.lower``/``upper`` carry the certified interval; exact and
graph-settled values have ``lower == upper``.

Bounded operators (``X``, ``U<=k``, ``F<=k``, ``G<=k``) are evaluated by
synchronous float iteration with no stopping tolerance. Every row is summed
pair by pair in row order, as a per-element loop from 0.0 would, so the
results are the loop's bit for bit; a matrix product or a per-row reduction
would sum in another order. On a large chain the rows are laid out as
columns, column j holding each row's j-th transition and a shorter row
padded with weight 0.0, and a step adds one column at a time to every row
at once: each row still takes its own terms in its own order. Elsewhere,
and where padding would outweigh the transitions, one ``np.bincount`` per
step adds them in input order. Their interval is the value widened by the
standard summation bound on those roundings, so ``lower < upper`` once a
step is taken, and a threshold inside it, even one equal to a value the
floats hold exactly, is ``UNDECIDED``. SEQ goes through a three-state
monitor product and the unbounded-until machinery.

Every routine reads the chain's compressed sparse row arrays. What a check
derives from them alone is kept with the chain for its next check: the
reverse graph the graph fixpoints search (``Dtmc.predecessors``) and each
bounded operator's row sums, by the states it steps
(``Dtmc.bounded_kernels``). State sets are boolean masks from the label
lookup to the solver. A label's mask is read off the chain's
``label_table``: the label is looked up once per distinct label set, and
each state takes its set's answer. A label that no state carries is the
empty mask and emits UnknownLabelWarning. Per-state values stay one
float64 array on every path until ``check`` makes the Python floats of its
``CheckResult``. ``check`` is the way in; ``prob01`` and
``evaluate_states`` stay public for the benchmark's tracer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import SolverError, UnknownLabelWarning
from .model import Dtmc, reverse_graph
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

# Widest certified interval the interval path stops at, on every uncertain
# state, after widening by the rounding slack.
CERTIFIED_GAP = 1e-10

_EPS = float(np.finfo(np.float64).eps)

# Interval-step budget before the solver gives up with SolverError.
MAX_SWEEPS = 1_000_000

# Largest uncertain block the dense float solve takes on before interval
# iteration. Measured on a 2-core Xeon, a fast-mixing random chain (three
# 13/60 edges and a 7/20 exit a row) costs a whole check 1.5 ms either way
# at 200 states, and 5.6 ms dense against 2.1 ms for Jacobi's 54 steps at
# 400. A slowly mixing block takes Jacobi thousands of steps instead (7,570
# and 88 ms for a fair walk on 0..40, 2 ms dense), or more than its
# rounding allowance lets it take (a fair walk on 0..400).
DENSE_MAX_STATES = 400

# Fill cap of the exact path: the uncertain block's nonzeros plus every
# entry the elimination writes. Measured with CPython 3.11 on a 2-core Xeon,
# the elimination on integers, and in brackets the same in ``Fraction``: the
# fair gambler's ruin on 0..40 needs 226 (0.3 ms [1.1 ms]) and on 0..400
# 2,386 (2.8 ms [10.8 ms]); a 40-state chain with three random 13/60 edges a
# row needs 2,866 (3.7 ms [17 ms]), and each entry costs more as the numbers
# grow (a 60-state one, 9,617 in 13 ms [66 ms]). Interval iteration takes
# about 2.5 ms on a 3,000-state block of that kind, so the cap keeps an
# abandoned elimination about as cheap. Another cap would move blocks
# between the exact and the float paths, and so change printed values.
EXACT_MAX_FILL = 2_500

# ``_row_sums`` lays rows out as columns from COLUMN_MIN_ROWS rows on, while
# the padded table holds at most COLUMN_MAX_PADDING cells per transition,
# and sums them with one ``np.bincount`` otherwise. Measured with NumPy 2.4
# on a 2-core Xeon, on rows of one to four transitions, a step by columns
# takes 0.9 to 2.5 times the time of ``np.bincount`` at 300 rows; from
# 1,000 rows on, 0.55 to 0.9 times with padding up to 1.35 and 0.9 to 1.2
# times at 1.5 to 1.6, and at 5,000 and more rows 0.5 to 0.9 times. One
# wider row pads the table past 2.5 and costs 1.2 to 4 times as much.
COLUMN_MIN_ROWS = 1000
COLUMN_MAX_PADDING = 1.5

# The comparator verdict when the certified interval straddles the threshold.
UNDECIDED = "undecided"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one property against one chain.

    ``value`` is always the initial state's probability. ``lower`` and
    ``upper`` certify it: the model's probability lies in [lower, upper].
    They are equal when graph analysis or the exact solve found it, and for
    a bound of 0 steps. Bounded operators and ``X`` widen their float sum by
    its rounding allowance, which a threshold equal to a value the floats
    hold exactly also falls inside. ``satisfied`` is the comparator
    verdict: True or False when the whole interval decides it, ``UNDECIDED``
    when the threshold lies inside it, None for "=?" queries. ``per_state``
    keeps the full vector for diagnostics. ``iterations`` is the bound k of
    ``U<=k``, ``F<=k`` and ``G<=k``, the step count when interval iteration
    ran, and 0 otherwise (``X``, graph analysis, the exact and the dense
    solve). ``residual`` is the widest certified interval of a float solve
    over the states it solved, and 0 for bounded operators, ``X``, graph
    analysis and the exact solve.
    """

    value: float
    satisfied: bool | str | None
    per_state: tuple[float, ...]
    iterations: int
    residual: float
    lower: float
    upper: float


@dataclass(frozen=True)
class _Solution:
    """Per-state values of one path formula, and what certifies state 0's.

    ``values`` is a float64 array. ``bounds`` is state 0's certified
    interval, or None when ``values[0]`` stands as exact: graph analysis,
    the exact path and a bound of 0 steps. ``exact`` is state 0's rational
    when the exact path found it.
    """

    values: np.ndarray
    bounds: tuple[float, float] | None = None
    exact: Fraction | None = None
    iterations: int = 0
    gap: float = 0.0

    def complement(self) -> _Solution:
        """The solution of the complement event, 1 - x, with its bounds rounded outward."""
        bounds = None
        if self.bounds is not None:
            lower, upper = self.bounds
            # Either 1.0 - x is exact or it lies in (0.5, 1], where taking 1.0
            # away again is exact, so comparing that with -x tells which way
            # 1.0 - x was rounded.
            low, high = 1.0 - upper, 1.0 - lower
            if low - 1.0 > -upper:
                low = math.nextafter(low, 0.0)
            if high - 1.0 < -lower:
                high = math.nextafter(high, 1.0)
            bounds = (low, high)
        exact = None if self.exact is None else 1 - self.exact
        return replace(self, values=1.0 - self.values, bounds=bounds, exact=exact)


# ===== Core routines over compressed sparse rows =====
#
# A chain is passed around as its three CSR arrays (``indptr``, ``indices``,
# ``probs``) and state sets as boolean masks, so the SEQ product, which has
# no state vectors, goes through the same routines as a Dtmc.


def _sources(indptr: np.ndarray) -> np.ndarray:
    """The source state of every transition, in row order."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions of the spans ``[start, start + count)``, laid end to end."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _backward_set(predecessors, seeds: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Least fixpoint: seeds plus allowed states with an edge into the set.

    ``predecessors`` is a reverse graph as ``reverse_graph`` gives it; the
    search gathers the predecessors of a whole frontier at once. A state
    that several of them reach enters the next frontier once: each candidate
    writes its position into ``stamp`` and only the one whose write was
    kept stays.
    """
    rev_ptr, rev_src = predecessors
    reached = seeds.copy()
    stamp = np.empty(len(seeds), dtype=np.intp)
    frontier = np.flatnonzero(seeds)
    while frontier.size:
        starts = rev_ptr[frontier]
        preds = rev_src[_spans(starts, rev_ptr[frontier + 1] - starts)]
        candidates = preds[allowed[preds] & ~reached[preds]]
        positions = np.arange(len(candidates))
        stamp[candidates] = positions
        frontier = candidates[stamp[candidates] == positions]
        reached[frontier] = True
    return reached


def _prob01_sets(indptr, indices, a: np.ndarray, b: np.ndarray, predecessors=None) -> tuple[np.ndarray, np.ndarray]:
    """(probability-0, probability-1) masks of ``a U b``; ``predecessors`` is the
    arrays' reverse graph, derived here if not given."""
    if predecessors is None:
        predecessors = reverse_graph(indptr, indices)
    # States with a chance of satisfying the until: can reach b through a.
    prob0 = ~_backward_set(predecessors, b, a & ~b)
    # States with a chance of failing it: can reach a prob0 state before b.
    prob1 = ~_backward_set(predecessors, prob0, ~b)
    return prob0, prob1


def _eliminate(indptr, indices, rationals, prob1: np.ndarray, uncertain: np.ndarray) -> list[Fraction] | None:
    """Solve (I - P_UU) x = P_U,prob1 exactly; None past ``EXACT_MAX_FILL``.

    ``rationals`` maps an array of transition positions to their rationals.
    Fraction-free Gaussian elimination (Bareiss, *Math. Comp.* 1968) in
    state order over one dict row of Python integers per uncertain state:
    each row is scaled to integers over its own common denominator, taking
    a multiple of the pivot row away from a row scales the row by the pivot
    instead of dividing, and each row is kept divided by the gcd of its
    entries and its right-hand side. I - P_UU is a nonsingular M-matrix, so
    no pivot is zero and none needs choosing; every row keeps a positive
    scale, so every pivot is positive. ``below[j]`` lists the rows still
    holding an entry left of the diagonal in column j. The fill counts every
    entry the elimination writes, a zero included. Back-substitution keeps
    each unknown as its own reduced numerator and denominator: over one
    common denominator the numbers would grow with every row.
    """
    counts = indptr[uncertain + 1] - indptr[uncertain]
    budget = EXACT_MAX_FILL - int(counts.sum())
    if budget < 0:
        return None
    spans = _spans(indptr[uncertain], counts)
    targets, exact = indices[spans].tolist(), rationals(spans)
    position = {s: i for i, s in enumerate(uncertain.tolist())}
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    below: list[set[int]] = [set() for _ in position]
    end = 0
    for i, count in enumerate(counts.tolist()):
        start, end = end, end + count
        scale = math.lcm(*[r.denominator for r in exact[start:end]])
        row, known = {i: scale}, 0
        for t, r in zip(targets[start:end], exact[start:end]):
            j = position.get(t)
            if j is not None:
                row[j] = row.get(j, 0) - r.numerator * (scale // r.denominator)
                if j < i:
                    below[j].add(i)
            elif prob1[t]:
                known += r.numerator * (scale // r.denominator)
        row, known = _reduced(row, known)
        rows.append(row)
        rhs.append(known)

    for i, pivot_row in enumerate(rows):
        pivot = pivot_row[i]
        right = [(j, v) for j, v in pivot_row.items() if j > i]
        for k in below[i]:
            budget -= len(right) + 1
            if budget < 0:
                return None
            row = rows[k]
            entry = row.pop(i)
            common = math.gcd(pivot, entry)
            times, factor = pivot // common, entry // common
            if times != 1:
                row = {j: times * v for j, v in row.items()}
            for j, v in right:
                if j not in row and j < k:
                    below[j].add(k)
                row[j] = row.get(j, 0) - factor * v
            rows[k], rhs[k] = _reduced(row, times * rhs[k] - factor * rhs[i])

    x: list[tuple[int, int]] = [(0, 1)] * len(rows)
    for i in reversed(range(len(rows))):
        row = rows[i]
        numerator, denominator = rhs[i], 1
        for j, v in row.items():
            if j > i:
                p, q = x[j]
                if q != denominator:
                    common = math.gcd(denominator, q)
                    numerator, p = numerator * (q // common), p * (denominator // common)
                    denominator = denominator // common * q
                numerator -= v * p
        denominator *= row[i]
        common = math.gcd(numerator, denominator)
        x[i] = (numerator // common, denominator // common)
    return [Fraction(p, q) for p, q in x]


def _reduced(row: dict[int, int], known: int) -> tuple[dict[int, int], int]:
    """An integer row and its right-hand side, divided by the gcd of their entries."""
    common = math.gcd(known, *row.values())
    if common == 1:
        return row, known
    return {j: v // common for j, v in row.items()}, known // common


def _rationals(exact: tuple[Fraction, ...] | None, origin: np.ndarray | None = None):
    """What ``_solve_until`` reads the rationals through: None without ``exact``, else a
    map from transition positions to ``exact``'s entries there, or at ``origin``'s
    entries for them."""
    if exact is None:
        return None
    if origin is None:
        return lambda positions: [exact[k] for k in positions.tolist()]
    return lambda positions: [exact[k] for k in origin[positions].tolist()]


def _row_sums(row: np.ndarray, column: np.ndarray, prob: np.ndarray, m: int):
    """``sums(x)``: for each of ``m`` rows, the sum of its terms ``prob * x[column]``.

    ``row`` gives each transition's row and is non-decreasing, so each row's
    transitions come in the row's own order, and each row is summed in that
    order, one term at a time. A row without terms sums to 0.0. For x >= 0
    that is, bit for bit, a loop that sums each row from 0.0, since 0.0 + a
    is a for a >= 0. Where it pays (see ``COLUMN_MIN_ROWS``), the rows are
    laid out as columns, ELLPACK style: column j holds each row's j-th
    transition, and a row with fewer has weight 0.0 on state 0 there, which
    adds exactly +0.0 for a finite x >= 0. Otherwise one ``np.bincount``,
    which adds its weights to 0.0 in input order, sums the rows.
    """
    counts = np.bincount(row, minlength=m)
    width = int(counts.max(initial=0))
    if m < COLUMN_MIN_ROWS or not len(row) or m * width > COLUMN_MAX_PADDING * len(row):

        def by_bincount(x: np.ndarray) -> np.ndarray:
            return np.bincount(row, weights=prob * x[column], minlength=m)

        return by_bincount
    # Transition k is entry (its place in its row, row[k]) of the tables.
    cell = (np.arange(len(row)) - (np.cumsum(counts) - counts)[row]) * m + row
    targets, weights = np.zeros(width * m, dtype=np.intp), np.zeros(width * m)
    targets[cell] = column
    weights[cell] = prob
    (first_target, first_weight), *rest = zip(targets.reshape(width, m), weights.reshape(width, m))

    def by_columns(x: np.ndarray) -> np.ndarray:
        total = first_weight * x.take(first_target)
        for target, weight in rest:
            total += weight * x.take(target)
        return total

    return by_columns


@dataclass(frozen=True)
class _Block:
    """The uncertain states' equations x = known + P x, in local indices.

    ``row``, ``column`` and ``prob`` list P's entries in row order, and
    ``times`` maps x to P x by ``_row_sums``. ``slack`` bounds the error of
    one float evaluation of known + P x with x in [0, 1]: eps per rounding
    the widest row makes (the sums after the first of its known and of its
    inside terms, the inside products and the final addition), and one more
    when the floats round the model's rationals.
    """

    known: np.ndarray
    row: np.ndarray
    column: np.ndarray
    prob: np.ndarray
    slack: float
    times: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def of(cls, indptr, indices, probs, prob1: np.ndarray, uncertain: np.ndarray, rounded: bool) -> _Block:
        m = len(uncertain)
        local = np.full(len(indptr) - 1, -1)
        local[uncertain] = np.arange(m)
        counts = indptr[uncertain + 1] - indptr[uncertain]
        spans = _spans(indptr[uncertain], counts)
        row, target, prob = np.repeat(np.arange(m), counts), indices[spans], probs[spans]
        known = np.bincount(row, weights=np.where(prob1[target], prob, 0.0), minlength=m)
        inside = local[target] >= 0
        n_known = np.bincount(row, weights=prob1[target], minlength=m)
        n_inside = np.bincount(row[inside], minlength=m)
        roundings = np.maximum(n_known - 1, 0) + np.maximum(2 * n_inside - 1, 0) + ((n_known > 0) & (n_inside > 0))
        slack = (float(roundings.max()) + rounded) * _EPS
        row, column, prob = row[inside], local[target[inside]], prob[inside]
        return cls(known, row, column, prob, slack, _row_sums(row, column, prob, m))

    def step(self, x: np.ndarray) -> np.ndarray:
        return self.known + self.times(x)


def _dense_bounds(block: _Block):
    """Certified (lower, upper, gap) from a dense float solve, or None if wider than ``CERTIFIED_GAP``.

    LAPACK solves (I - P) x = known and (I - P) t = 1 together. A t > 0
    with (I - P) t >= c > 0 shows that (I - P)^-1 = sum_k P^k is
    non-negative and at most t / c on 1, so the solution lies within
    |r| t / c of x, where r = known + P x - x. Both residuals are evaluated
    in floats and widened by their rounding error, t's scaled by its size.
    """
    m = len(block.known)
    matrix = np.eye(m)
    np.add.at(matrix, (block.row, block.column), -block.prob)
    try:
        solved = np.linalg.solve(matrix, np.column_stack((block.known, np.ones(m))))
    except np.linalg.LinAlgError:
        return None
    x, t = np.clip(solved[:, 0], 0.0, 1.0), solved[:, 1]
    # A non-finite t bounds nothing, and an infinity in it would turn the
    # padding's 0.0 weights into NaN.
    if not np.isfinite(t).all():
        return None
    error = block.slack + _EPS
    residual = float(np.abs(block.step(x) - x).max()) + error
    t_max = float(np.abs(t).max())
    c = float((t - block.times(t)).min()) - error * t_max
    if not (c > 0 and t.min() > 0):
        return None
    # residual, c, the product and the quotient each round by at most half an
    # eps, which 1 + 4 eps covers; one step outward covers rounding x +- radius.
    radius = residual * t / c * (1 + 4 * _EPS)
    lower, upper = np.nextafter(x - radius, -np.inf), np.nextafter(x + radius, np.inf)
    gap = float((upper - lower).max())
    return (lower, upper, gap) if gap <= CERTIFIED_GAP else None


def _interval_iteration(block: _Block):
    """Jacobi interval iteration on the uncertain states: (lower, upper, steps, gap).

    ``lower`` starts at 0 and ``upper`` at 1 on every uncertain state (prob1
    and not prob0), and both take x = known + P x with the settled states
    pinned, one ``_Block.step`` each per step. In exact arithmetic they stay
    below and above the solution and meet at it: no end component is left
    inside the block. A float step errs by at most ``block.slack`` and
    passes earlier errors on through P, so after k steps the error is at
    most slack * sum_{j<k} P^j 1, the expected time to leave the block
    within k steps. P^j 1 is the exact width after j steps, so twice the
    sum of the widest computed widths bounds it while k * (slack + eps) <=
    1/8, and k itself always does. The bounds are widened by that error;
    once the error alone is wider than ``CERTIFIED_GAP``, no later step
    can close them, and the solver gives up there.
    """
    slack, m = block.slack, len(block.known)
    # The sum of the widest interval after each step so far, from the first.
    lower, upper, widths = np.zeros(m), np.ones(m), 1.0
    for step in range(1, MAX_SWEEPS + 1):
        lower, upper = block.step(lower), block.step(upper)
        width = float((upper - lower).max())
        error = slack * (min(2 * widths, step) if step * (slack + _EPS) <= 0.125 else step)
        gap = width + 2 * error
        if gap <= CERTIFIED_GAP:
            return lower - error, upper + error, step, gap
        if 2 * error > CERTIFIED_GAP:
            raise SolverError(
                f"rounding error outgrew {CERTIFIED_GAP} after {step} interval steps (gap {gap!r})",
                iterations=step,
                residual=gap,
            )
        widths += width
    raise SolverError(
        f"interval iteration did not close to {CERTIFIED_GAP} within {MAX_SWEEPS} steps (gap {gap!r})",
        iterations=MAX_SWEEPS,
        residual=gap,
    )


def _solve_until(indptr, indices, probs, rationals, a: np.ndarray, b: np.ndarray, predecessors=None) -> _Solution:
    """Certified per-state probability of ``a U b``.

    ``rationals`` maps an array of transition positions to their exact
    probabilities, or is None; with it, a block within the fill cap is
    solved exactly. ``predecessors``, if given, is the chain's reverse
    graph. Otherwise a
    block of at most ``DENSE_MAX_STATES`` states tries a dense float solve
    with an a-posteriori bound, and anything else, or a dense bound wider
    than ``CERTIFIED_GAP``, goes to interval iteration.
    """
    prob0, prob1 = _prob01_sets(indptr, indices, a, b, predecessors)
    values = prob1.astype(np.float64)
    uncertain = np.flatnonzero(~(prob0 | prob1))
    if not uncertain.size:
        return _Solution(values)
    exact = None if rationals is None else _eliminate(indptr, indices, rationals, prob1, uncertain)
    if exact is not None:
        values[uncertain] = [float(r) for r in exact]
        return _Solution(values, exact=exact[0] if uncertain[0] == 0 else None)
    block = _Block.of(indptr, indices, probs, prob1, uncertain, rationals is not None)
    # A block with no transition inside it closes in one interval step.
    dense = _dense_bounds(block) if 0 < len(block.row) and len(uncertain) <= DENSE_MAX_STATES else None
    if dense is not None:
        (lower, upper, gap), steps = dense, 0
    else:
        lower, upper, steps, gap = _interval_iteration(block)
    values[uncertain] = np.clip((lower + upper) / 2, 0.0, 1.0)
    bounds = (max(0.0, float(lower[0])), min(1.0, float(upper[0]))) if uncertain[0] == 0 else None
    return _Solution(values, bounds, iterations=steps, gap=gap)


def _bounded(dtmc: Dtmc, passthrough: np.ndarray, start: np.ndarray, k: int, iterations: int) -> _Solution:
    """``k`` synchronous steps x_s = sum_t p_st * x_t on ``passthrough``, from the ``start`` mask.

    Only the ``passthrough`` rows keep their transitions, and ``_row_sums``
    sums each of them pair by pair in row order, exactly as a loop from 0.0
    over the row would, since x >= 0. The other rows sum to 0.0, and adding
    ``fixed`` keeps those states at their ``start`` value. A transition into
    a state at 0 adds ``p * 0.0 = +0.0``, which leaves the sum as it was.

    The kept transitions' ``_row_sums`` and their widest row are derived once
    per chain and ``passthrough`` mask and kept in the chain's
    ``bounded_kernels``.

    State 0's interval comes from the summation bound. Each step sums a row
    of at most r transitions from 0.0: r products, r - 1 additions, and the
    float that stands for each probability. Every path's term thus carries
    at most k (r + 1) roundings, so the computed value lies within
    gamma(k (r + 1)) of the exact one, itself at most 1, where gamma(n) =
    n u / (1 - n u) and u = eps / 2 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 3 and 4). That is k gamma(r + 1) to
    first order. The interval is rounded outward and clipped to [0, 1]; no
    step (k = 0) is exact.
    """
    key = passthrough.tobytes()
    kernel = dtmc.bounded_kernels.get(key)
    if kernel is None:
        source = _sources(dtmc.indptr)
        keep = passthrough[source]
        sums = _row_sums(source[keep], dtmc.indices[keep], dtmc.probs[keep], dtmc.num_states)
        kernel = dtmc.bounded_kernels[key] = sums, int(np.diff(dtmc.indptr)[passthrough].max(initial=0))
    sums, r = kernel
    x = start.astype(np.float64)
    fixed = np.where(passthrough, 0.0, x)
    for _ in range(k):
        x = fixed + sums(x)
    values = np.clip(x, 0.0, 1.0)
    if k == 0:
        return _Solution(values, iterations=iterations)
    nu = k * (r + 1) * (_EPS / 2)
    # The factor covers the roundings of computing the allowance itself.
    allowance = nu / (1.0 - nu) * (1 + 4 * _EPS) if nu < 0.5 else 1.0
    value = values[0]
    bounds = (max(0.0, math.nextafter(value - allowance, -1.0)), min(1.0, math.nextafter(value + allowance, 2.0)))
    return _Solution(values, bounds, iterations=iterations)


def prob01(dtmc: Dtmc, a: frozenset[int] | set[int], b: frozenset[int] | set[int]):
    """Qualitative sets for ``a U b``: (probability-0, probability-1).

    Kept only because the benchmark's tracer in ``perfbench/trace.py`` calls it.
    """
    masks = np.zeros((2, dtmc.num_states), dtype=bool)
    for mask, states in zip(masks, (a, b)):
        mask[np.fromiter(states, dtype=np.intp)] = True
    zero, one = _prob01_sets(dtmc.indptr, dtmc.indices, *masks, dtmc.predecessors)
    return frozenset(np.flatnonzero(zero).tolist()), frozenset(np.flatnonzero(one).tolist())


# -- SEQ monitor product --

# Monitor states: 0 = waiting for `first`, 1 = `first` seen, waiting for
# `then`. Acceptance is the act of reading a state that completes the
# sequence, so the product pairs each chain state with the monitor state
# *before* reading it and targets are pairs whose read accepts.
_WAIT_FIRST = 0
_WAIT_THEN = 1
_ACCEPT = 2


def _seq_solve(dtmc: Dtmc, a: np.ndarray, b: np.ndarray) -> _Solution:
    """Solve SEQ on the product whose pair (s, q) is state ``2 * s + q``.

    A pair whose read accepts is an absorbing target; any other pair copies
    its state's row and rationals, each target t becoming the pair (t,
    monitor state after reading s). Pair (0, waiting for ``a``) is state 0.
    The product's reverse graph is derived for this check alone, and its
    rationals are read off the chain's only for the transitions an exact
    solve asks for: those of copied rows, since an accepting pair is never
    uncertain.
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

    origin = np.zeros(len(row), dtype=np.intp)
    origin[copied] = position
    rationals = _rationals(dtmc.exact_probs, origin)

    everything = np.ones(2 * n, dtype=bool)
    solved = _solve_until(product_indptr, product_indices, product_probs, rationals, everything, accept)
    return replace(solved, values=solved.values[0::2])


# ===== Formula evaluation =====


def evaluate_states(dtmc: Dtmc, sf: StateFormula) -> frozenset[int]:
    """The states satisfying a state formula, read off the checker's mask.

    A label that no state carries denotes the empty mask; that is almost
    always a typo, so it additionally emits UnknownLabelWarning. Kept only
    because the benchmark's tracer in ``perfbench/trace.py`` calls it.
    """
    return frozenset(np.flatnonzero(_evaluate(dtmc, sf)).tolist())


def _evaluate(dtmc: Dtmc, sf: StateFormula) -> np.ndarray:
    n = dtmc.num_states
    if isinstance(sf, TrueFormula):
        return np.ones(n, dtype=bool)
    if isinstance(sf, FalseFormula):
        return np.zeros(n, dtype=bool)
    if isinstance(sf, Label):
        distinct, codes = dtmc.label_table
        mask = np.array([sf.name in labels for labels in distinct], dtype=bool)[codes]
        if not mask.any():
            warnings.warn(
                f"label {sf.name!r} does not occur in the checked chain; treating it as the empty set",
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


def _path_vector(dtmc: Dtmc, path: PathFormula) -> _Solution:
    if isinstance(path, Seq):
        return _seq_solve(dtmc, _evaluate(dtmc, path.first), _evaluate(dtmc, path.then))
    everything = np.ones(dtmc.num_states, dtype=bool)
    if isinstance(path, Next):
        return _bounded(dtmc, everything, _evaluate(dtmc, path.target), 1, 0)
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
        rationals = _rationals(dtmc.exact_probs)
        solved = _solve_until(dtmc.indptr, dtmc.indices, dtmc.probs, rationals, a, b, dtmc.predecessors)
    else:
        solved = _bounded(dtmc, a & ~b, b, path.bound, path.bound)
    return solved.complement() if isinstance(path, Globally) else solved


_COMPARE = {
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
}


def _decide(comparator: str, threshold: float, solved: _Solution) -> bool | str:
    """The comparator's verdict, if every value the result allows gives the same one.

    An exact rational is compared with the threshold's shortest decimal,
    which is the text it was written as for any threshold of up to 15
    significant digits, so ``P>=0.1`` holds at exactly 1/10.
    """
    compare = _COMPARE[comparator]
    if solved.exact is not None:
        return compare(solved.exact, Fraction(repr(threshold)))
    if solved.bounds is None:
        return compare(float(solved.values[0]), threshold)
    # Every comparator is monotone in the value, so the ends decide.
    at_lower, at_upper = (compare(end, threshold) for end in solved.bounds)
    return at_lower if at_lower == at_upper else UNDECIDED


def check(dtmc: Dtmc, prop: Prob) -> CheckResult:
    """Check one parsed property; the initial state is index 0.

    Returns a CheckResult whose ``value`` is the initial state's
    probability, certified by ``lower`` and ``upper``, for both query and
    threshold forms; threshold forms answer the comparator in
    ``satisfied`` as well.
    """
    solved = _path_vector(dtmc, prop.path)
    value = float(solved.values[0])
    lower, upper = solved.bounds or (value, value)
    satisfied = None
    if prop.comparator is not None:
        satisfied = _decide(prop.comparator, prop.threshold, solved)
    return CheckResult(
        value=value,
        satisfied=satisfied,
        per_state=tuple(solved.values.tolist()),
        iterations=solved.iterations,
        residual=solved.gap,
        lower=lower,
        upper=upper,
    )
