"""The measurement loop: check a policy, prune it, check again, compare.

Every report comes from ``_reports``, which yields the original's report
and then one pruned report per PruneSpec of a stream. ``measure`` takes the
first report; ``prune_and_measure``, the rows of ``feature_importance`` and
the rows of ``sweep`` differ only in the specs they stream. A pruned chain
depends only on the pruned policy's decisions, so each prune is described
by the (state, new action) pairs it changes on the original chain. One that
changes none reuses the original's measurement. The first with a given set
of changes is rebuilt from the original chain with those actions, calling
the environment only for the changed and the newly reached states, and
re-checked unless the rebuild reports the original's chain; a later one
with the same changes reuses that measurement if it also picks the same
actions on the newly reached states.

Everything here returns SafetyReports or CSV text built only from the
inputs and declared seeds, so repeated runs are byte-identical. Wall-clock
timings are collected on the report objects but serialized as zero unless
explicitly requested, because emitting them would break that contract.
"""

from __future__ import annotations

import csv
import io
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice

import numpy as np

from .checking import UNDECIDED, CheckResult, check
from .errors import PruneSpecError
from .induced import BuildLimits, BuildResult, BuildStats, build_induced_dtmc, rebuild_induced_dtmc
from .model import EnvironmentModel
from .policy import NeuralPolicy
from .properties import Prob, parse_property
from .pruning import PruneSpec, prune

# ===== Constants =====

# |delta| at or below this counts as "unchanged". Identical inputs rerun
# bit-identically, so this slack only matters for genuinely re-solved
# chains that happen to land on the same value. A delta whose certified
# interval reaches both inside and outside this band is "undecided": two
# different chains solved in floats, each certified only to
# checking.CERTIFIED_GAP, are "undecided" when their values agree. A
# pruned chain that is the original's reuses its result, delta exactly 0.
UNCHANGED_TOLERANCE = 1e-12

CSV_HEADER = ("method", "layer", "fraction", "seed", "property", "m", "m_hat", "delta", "states", "transitions", "time_ms")

SWEEP_METHODS = ("l1", "random")


# ===== Reports =====


@dataclass(frozen=True)
class ChainStats:
    """Size of one induced chain and the time spent building and checking it."""

    states: int
    transitions: int
    time_ms: float


@dataclass(frozen=True)
class SafetyReport:
    """One measurement, optionally paired with a pruned re-measurement.

    ``m`` is the original policy's checked value, ``m_hat`` the pruned
    policy's, ``delta = m_hat - m``. ``verdict`` summarizes the comparison:
    violation (threshold comparator present and m_hat fails it), unchanged,
    improved, or degraded by the declared safety polarity, or undecided
    when the certified intervals of m and m_hat allow more than one of
    these; None when there is no pruned measurement. ``satisfied`` is the
    comparator verdict on the original measurement (True, False or
    "undecided"), when the property carries one.
    """

    property_text: str
    m: float
    satisfied: bool | str | None
    original: ChainStats
    m_hat: float | None = None
    delta: float | None = None
    verdict: str | None = None
    prune_spec: PruneSpec | None = None
    mask_size: int | None = None
    pruned: ChainStats | None = None


def report_to_dict(report: SafetyReport, include_timings: bool = False) -> dict:
    """Flatten a report for JSON output; timings are zeroed by default."""

    def stats(chain: ChainStats | None) -> dict | None:
        if chain is None:
            return None
        return {
            "states": chain.states,
            "transitions": chain.transitions,
            "time_ms": chain.time_ms if include_timings else 0,
        }

    return {
        "property": report.property_text,
        "m": report.m,
        "satisfied": report.satisfied,
        "m_hat": report.m_hat,
        "delta": report.delta,
        "verdict": report.verdict,
        "prune_spec": report.prune_spec.to_dict() if report.prune_spec else None,
        "mask_size": report.mask_size,
        "dtmc": stats(report.original),
        "dtmc_pruned": stats(report.pruned),
    }


# ===== Polarity and verdicts =====


def _higher_is_safer(comparator: str | None, lower_is_safer: bool) -> bool:
    if comparator in (">", ">="):
        return True
    if comparator in ("<", "<="):
        return False
    return not lower_is_safer


def _verdict(prop: Prob, original: CheckResult, pruned: CheckResult, lower_is_safer: bool) -> str:
    """Compare the pruned measurement with the original, certified ends included.

    The delta lies in [pruned.lower - original.upper, pruned.upper -
    original.lower], which is the point ``delta`` itself when both results
    are exact; a pruned result that is the original's has delta exactly 0.
    """
    if prop.comparator is not None and pruned.satisfied is not True:
        return "violation" if pruned.satisfied is False else UNDECIDED
    if pruned is original:
        low = high = 0.0
    else:
        low, high = pruned.lower - original.upper, pruned.upper - original.lower
    if -UNCHANGED_TOLERANCE <= low and high <= UNCHANGED_TOLERANCE:
        return "unchanged"
    if low > UNCHANGED_TOLERANCE or high < -UNCHANGED_TOLERANCE:
        improved = (low > 0) == _higher_is_safer(prop.comparator, lower_is_safer)
        return "improved" if improved else "degraded"
    return UNDECIDED


# ===== Measurement =====


def measure(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    limits: BuildLimits | None = None,
) -> SafetyReport:
    """Build the induced chain and check one property: the value ``m``."""
    return next(_reports(env, policy, property_text, (), limits))


@dataclass(frozen=True)
class _Decisions:
    """Some states of a chain as a policy decides on them, one row each.

    ``available`` masks each one's action set over the schema, ``offered``
    lists that set in the order ``pick`` reads it, and ``chosen`` is the
    schema index of the chain's action. ``entering[0]`` holds their
    features, and ``entering[k]`` ``policy``'s activations entering layer k,
    kept from the first prune that restarts its forward pass there or later.
    """

    policy: NeuralPolicy
    available: np.ndarray
    offered: tuple[tuple[str, ...], ...]
    chosen: np.ndarray
    entering: list[np.ndarray]

    @classmethod
    def of(cls, build: BuildResult, states: Sequence[int], policy: NeuralPolicy) -> _Decisions:
        """The rows of ``build``'s states at ``states``, actions numbered by ``policy``'s schema."""
        index = policy.action_index
        vectors = build.dtmc.state_vectors
        offered = tuple(build.available_actions[s] for s in states)
        masks = {names: [name in names for name in index] for names in set(offered)}
        available = np.array([masks[names] for names in offered], dtype=bool).reshape(len(states), len(index))
        inputs = np.array([vectors[s] for s in states], dtype=np.float64).reshape(len(states), len(vectors[0]))
        chosen = np.array([index[build.chosen_actions[s]] for s in states], dtype=np.intp)
        return cls(policy, available, offered, chosen, [inputs])

    def picks(self, pruned: NeuralPolicy) -> np.ndarray:
        """``pruned.pick_rows`` on these rows, at least one, for a prune of ``policy``, restarted at its first pruned layer."""
        return pruned._pick_logits(pruned._restart(self.policy, self.entering), self.available, self.offered)


@dataclass(frozen=True)
class _Remeasured:
    """One pruned measurement, kept for later prunes that change the same decisions.

    ``new`` holds the pruned chain's states that the original chain lacks.
    ``result`` is the original's when the pruned chain came out the same,
    else the pruned check without its ``per_state`` vector.
    """

    result: CheckResult
    stats: BuildStats
    new: _Decisions


def _reports(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    specs: Iterable[PruneSpec],
    limits: BuildLimits | None,
    *,
    lower_is_safer: bool = False,
) -> Iterator[SafetyReport]:
    """Yield the original's report, then one pruned report per spec.

    The original is measured once. ``specs`` is read only after its report
    is yielded, so a bad property or an exceeded cap is reported before any
    bad spec, and a caller that takes only the first report pays for nothing
    else.

    A pruned chain depends only on the pruned policy's decisions, so each
    prune is described by the decisions it changes on the original chain:
    the (state index, new action) pairs where ``pick`` differs from the
    original's choice, read off a ``_Decisions`` table of its states. The
    first prune with those changes rebuilds the chain from the original
    with those actions, asking the environment only on the changed states
    and those the original never reached; only ``induced`` reads the
    original's rows. The rebuild also says which states are new and whether
    the chain came out the original's (a changed action with the same
    distribution), when the original's measurement stands again; any other
    chain is re-checked. A later prune with the same changes reuses that
    measurement if it also picks the same action on each of the newly
    reached states, as the measurement's own table holds them: BFS then
    visits the same states with the same rows, because the environment's
    callables are pure. Otherwise it rebuilds, and its measurement replaces
    the kept one. No change is the original's measurement. Only what a
    report reads is kept, never a chain or a ``per_state`` vector.
    ``time_ms`` of the pruned chain is the time this decision and any
    re-measurement took.
    """
    prop = parse_property(property_text)
    started = time.perf_counter()
    build = build_induced_dtmc(env, policy, limits)
    result = check(build.dtmc, prop)
    stats = ChainStats(
        states=build.stats.states,
        transitions=build.stats.transitions,
        time_ms=(time.perf_counter() - started) * 1000.0,
    )
    original = SafetyReport(
        property_text=property_text,
        m=result.value,
        satisfied=result.satisfied,
        original=stats,
    )
    yield original

    # The original chain's states as each pruned policy decides on them.
    states = build.dtmc.state_vectors
    decisions = _Decisions.of(build, range(len(states)), policy)

    # Measurements by the decisions a prune changes on the original chain,
    # each (state index s, new action a) as the number s * len(actions) + a.
    measured = {b"": _Remeasured(result, build.stats, _Decisions.of(build, [], policy))}
    for spec in specs:
        pruned_policy, mask = prune(policy, spec)
        started = time.perf_counter()
        picks = decisions.picks(pruned_policy)
        changed = np.flatnonzero(picks != decisions.chosen)
        key = (changed * len(policy.action_names) + picks[changed]).tobytes()
        entry = measured.get(key)
        if entry is None or len(entry.new.chosen) and not (entry.new.picks(pruned_policy) == entry.new.chosen).all():
            actions = {states[s]: policy.action_names[a] for s, a in zip(changed.tolist(), picks[changed].tolist())}
            rebuilt, new, same = rebuild_induced_dtmc(build, env, pruned_policy, actions, limits)
            entry = measured[key] = _Remeasured(
                result if same else replace(check(rebuilt.dtmc, prop), per_state=()),
                rebuilt.stats,
                _Decisions.of(rebuilt, new, policy),
            )
        pruned = entry.result
        time_ms = (time.perf_counter() - started) * 1000.0
        yield SafetyReport(
            property_text, result.value, result.satisfied, stats,
            m_hat=pruned.value,
            delta=pruned.value - result.value,
            verdict=_verdict(prop, result, pruned, lower_is_safer),
            prune_spec=spec,
            mask_size=mask.size,
            pruned=ChainStats(entry.stats.states, entry.stats.transitions, time_ms),
        )


def prune_and_measure(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    spec: PruneSpec,
    limits: BuildLimits | None = None,
    *,
    lower_is_safer: bool = False,
) -> SafetyReport:
    """Measure, prune per ``spec``, re-measure, and compare.

    The verdict follows the property's own polarity when it carries a
    comparator (>= means higher is safer, <= the opposite); plain queries
    default to higher-is-safer unless ``lower_is_safer`` is set.
    """
    _, report = _reports(env, policy, property_text, [spec], limits, lower_is_safer=lower_is_safer)
    return report


def feature_importance(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    limits: BuildLimits | None = None,
    *,
    lower_is_safer: bool = False,
) -> list[SafetyReport]:
    """Prune each input feature in schema order and re-measure.

    The original measurement is computed once and shared across rows; each
    report's prune_spec names the feature it describes.
    """
    specs = (PruneSpec(method="feature", feature=feature) for feature in policy.feature_names)
    _, *reports = _reports(env, policy, property_text, specs, limits, lower_is_safer=lower_is_safer)
    return reports


# ===== Sweeps =====


def parse_fraction_grid(text: str) -> list[Fraction]:
    """Parse ``start:stop:step`` into exact grid points within [0, 1].

    The grid is start, start+step, ... up to and including stop when the
    step lands on it. Exact rational arithmetic keeps points like 0.6 from
    wandering into 0.6000000000000001 territory.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise PruneSpecError(f"fraction grid {text!r} must look like start:stop:step")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise PruneSpecError(f"fraction grid {text!r} has a non-numeric part") from None
    if not (0 <= start <= stop <= 1):
        raise PruneSpecError(f"fraction grid {text!r} must satisfy 0 <= start <= stop <= 1")
    if step <= 0:
        raise PruneSpecError(f"fraction grid {text!r} needs a positive step")
    count = int((stop - start) / step) + 1
    return [start + i * step for i in range(count)]


def sweep(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    method: str,
    layer: int,
    fraction_grid: str,
    seeds: tuple[int, ...] = (),
    limits: BuildLimits | None = None,
    *,
    lower_is_safer: bool = False,
    include_timings: bool = False,
) -> str:
    """Prune and re-measure over a fraction grid and emit CSV.

    The original is measured once for the whole grid. A row whose prune
    keeps every action of the original chain reuses its measurement, and a
    row whose prune changes the same actions as an earlier row's reuses that
    row's measurement when it also picks the same actions on the states only
    the pruned chain reaches; ``_reports`` says how.

    l1 yields one row per fraction; random yields one row per (fraction,
    seed) plus a per-fraction mean row (seed column "mean"). A seed given
    twice raises PruneSpecError, and so does a negative seed given with its
    absolute value, which draws the same sample. Rows are ordered by
    (fraction, seed).
    """
    if method not in SWEEP_METHODS:
        raise PruneSpecError(f"sweep method must be one of {list(SWEEP_METHODS)}")
    if method == "random" and not seeds:
        raise PruneSpecError("random sweeps need at least one seed")
    if method == "l1" and seeds:
        raise PruneSpecError("l1 sweeps take no seeds")
    fractions = parse_fraction_grid(fraction_grid)
    ordered_seeds = tuple(sorted(seeds))
    for seed, following in zip(ordered_seeds, ordered_seeds[1:]):
        if seed == following:
            raise PruneSpecError(f"seed {seed} is given more than once")
    given = set(seeds)
    for seed in ordered_seeds:
        if seed < 0 and -seed in given:  # random.Random seeds an integer by its absolute value
            raise PruneSpecError(f"seed {seed} draws the same sample as seed {-seed}")

    row_seeds = ordered_seeds or (None,)
    specs = (PruneSpec(method, layer, float(f), seed) for f in fractions for seed in row_seeds)
    reports = islice(_reports(env, policy, property_text, specs, limits, lower_is_safer=lower_is_safer), 1, None)
    rows: list[tuple] = []
    for fraction in fractions:
        batch = list(islice(reports, len(row_seeds)))
        rows.extend(_sweep_row(report, include_timings) for report in batch)
        if method == "random":
            m_hat = sum(r.m_hat for r in batch) / len(batch)
            delta = sum(r.delta for r in batch) / len(batch)
            rows.append(
                ("random", layer, float(fraction), "mean", property_text, batch[0].m, m_hat, delta, None, None, 0)
            )

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def _sweep_row(report: SafetyReport, include_timings: bool) -> tuple:
    spec, pruned = report.prune_spec, report.pruned
    time_ms = round(pruned.time_ms, 3) if include_timings else 0
    return (
        spec.method, spec.layer, spec.fraction, spec.seed, report.property_text,
        report.m, report.m_hat, report.delta, pruned.states, pruned.transitions, time_ms,
    )
