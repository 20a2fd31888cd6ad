"""The measurement loop: check a policy, prune it, check again, compare.

Everything here returns SafetyReports or CSV text built only from the
inputs and declared seeds, so repeated runs are byte-identical. Wall-clock
timings are collected on the report objects but serialized as zero unless
explicitly requested, because emitting them would break that contract.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .checking import CheckResult, check
from .errors import PruneSpecError
from .induced import BuildLimits, BuildResult, build_induced_dtmc
from .model import EnvironmentModel
from .policy import NeuralPolicy
from .properties import Prob, parse_property
from .pruning import PruneSpec, prune

# ===== Constants =====

# |delta| at or below this counts as "unchanged". Identical inputs rerun
# bit-identically, so this slack only matters for genuinely re-solved
# chains that happen to land on the same value.
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
    improved, or degraded by the declared safety polarity; None when there
    is no pruned measurement. ``satisfied`` is the comparator verdict on
    the original measurement, when the property carries one.
    """

    property_text: str
    m: float
    satisfied: bool | None
    original: ChainStats
    m_hat: float | None = None
    delta: float | None = None
    verdict: str | None = None
    prune_spec: PruneSpec | None = None
    mask_size: int | None = None
    pruned: ChainStats | None = None
    model_id: str = ""
    policy_id: str = ""


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
        "model": report.model_id,
        "policy": report.policy_id,
    }


# ===== Polarity and verdicts =====


def _higher_is_safer(comparator: str | None, lower_is_safer: bool) -> bool:
    if comparator in (">", ">="):
        return True
    if comparator in ("<", "<="):
        return False
    return not lower_is_safer


def _verdict(prop: Prob, pruned: CheckResult, delta: float, lower_is_safer: bool) -> str:
    if prop.comparator is not None and pruned.satisfied is False:
        return "violation"
    if abs(delta) <= UNCHANGED_TOLERANCE:
        return "unchanged"
    improved = (delta > 0) == _higher_is_safer(prop.comparator, lower_is_safer)
    return "improved" if improved else "degraded"


# ===== Measurement =====


def _measure_once(
    env: EnvironmentModel, policy: NeuralPolicy, prop: Prob, limits: BuildLimits | None
) -> tuple[CheckResult, ChainStats, BuildResult]:
    started = time.perf_counter()
    build = build_induced_dtmc(env, policy, limits)
    result = check(build.dtmc, prop)
    stats = ChainStats(
        states=build.stats.states,
        transitions=build.stats.transitions,
        time_ms=(time.perf_counter() - started) * 1000.0,
    )
    return result, stats, build


def measure(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    limits: BuildLimits | None = None,
    *,
    model_id: str = "",
    policy_id: str = "",
) -> SafetyReport:
    """Build the induced chain and check one property: the value ``m``."""
    prop = parse_property(property_text)
    result, stats, _ = _measure_once(env, policy, prop, limits)
    return SafetyReport(
        property_text=property_text,
        m=result.value,
        satisfied=result.satisfied,
        original=stats,
        model_id=model_id,
        policy_id=policy_id,
    )


@dataclass(frozen=True, eq=False)
class _Original:
    """The unpruned policy's measurement, shared by every pruned row.

    ``inputs``, ``chosen`` and ``available`` describe the original chain's
    states in index order: their feature vectors, the schema index of the
    action the policy chose, and which schema actions were available.
    """

    property_text: str
    prop: Prob
    result: CheckResult
    stats: ChainStats
    inputs: np.ndarray
    chosen: np.ndarray
    available: np.ndarray


def _measure_original(
    env: EnvironmentModel, policy: NeuralPolicy, property_text: str, limits: BuildLimits | None
) -> _Original:
    prop = parse_property(property_text)
    result, stats, build = _measure_once(env, policy, prop, limits)
    states = build.dtmc.state_vectors
    index = policy.action_index
    available = np.zeros((len(states), len(index)), dtype=bool)
    for s, state in enumerate(states):
        available[s, [index[name] for name in env.available_actions(state)]] = True
    return _Original(
        property_text=property_text,
        prop=prop,
        result=result,
        stats=stats,
        inputs=np.array(states, dtype=np.float64),
        chosen=np.array([index[name] for name in build.chosen_actions]),
        available=available,
    )


def _keeps_every_action(original: _Original, policy: NeuralPolicy) -> bool:
    """Whether ``policy`` chooses the original's action on every original state.

    An available action displaces the original choice exactly when
    ``select_action`` would prefer it: a larger logit, or an equal one at a
    smaller schema index. NaN logits order nothing, so they count as a flip
    and send the row to a full rebuild.
    """
    logits = policy.forward(original.inputs)
    kept = logits[np.arange(len(logits)), original.chosen][:, None]
    earlier = np.arange(logits.shape[1]) < original.chosen[:, None]
    preferred = (logits > kept) | ((logits == kept) & earlier)
    return not ((preferred & original.available).any() or np.isnan(logits).any())


def _pruned_report(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    original: _Original,
    spec: PruneSpec,
    limits: BuildLimits | None,
    *,
    lower_is_safer: bool,
    model_id: str = "",
    policy_id: str = "",
) -> SafetyReport:
    """Prune ``policy`` per ``spec``, re-measure, and compare with the original.

    A pruned policy that keeps every action of the original chain induces
    that same chain, so its measurement is the original's, reused without
    a rebuild or a solve; any flip rebuilds and re-checks the chain in
    full. ``time_ms`` of the pruned chain is the time this decision and
    any re-measurement took.
    """
    pruned_policy, mask = prune(policy, spec)
    started = time.perf_counter()
    if _keeps_every_action(original, pruned_policy):
        pruned, pruned_stats = original.result, original.stats
    else:
        pruned, pruned_stats, _ = _measure_once(env, pruned_policy, original.prop, limits)
    pruned_stats = replace(pruned_stats, time_ms=(time.perf_counter() - started) * 1000.0)
    delta = pruned.value - original.result.value
    return SafetyReport(
        property_text=original.property_text,
        m=original.result.value,
        satisfied=original.result.satisfied,
        original=original.stats,
        m_hat=pruned.value,
        delta=delta,
        verdict=_verdict(original.prop, pruned, delta, lower_is_safer),
        prune_spec=spec,
        mask_size=mask.size,
        pruned=pruned_stats,
        model_id=model_id,
        policy_id=policy_id,
    )


def prune_and_measure(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    spec: PruneSpec,
    limits: BuildLimits | None = None,
    *,
    lower_is_safer: bool = False,
    model_id: str = "",
    policy_id: str = "",
) -> SafetyReport:
    """Measure, prune per ``spec``, re-measure, and compare.

    The verdict follows the property's own polarity when it carries a
    comparator (>= means higher is safer, <= the opposite); plain queries
    default to higher-is-safer unless ``lower_is_safer`` is set.
    """
    original = _measure_original(env, policy, property_text, limits)
    return _pruned_report(
        env, policy, original, spec, limits, lower_is_safer=lower_is_safer, model_id=model_id, policy_id=policy_id
    )


def feature_importance(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    limits: BuildLimits | None = None,
    *,
    lower_is_safer: bool = False,
    model_id: str = "",
    policy_id: str = "",
) -> list[SafetyReport]:
    """Prune each input feature in schema order and re-measure.

    The original measurement is computed once and shared across rows; each
    report's prune_spec names the feature it describes.
    """
    original = _measure_original(env, policy, property_text, limits)
    return [
        _pruned_report(
            env,
            policy,
            original,
            PruneSpec(method="feature", feature=feature),
            limits,
            lower_is_safer=lower_is_safer,
            model_id=model_id,
            policy_id=policy_id,
        )
        for feature in policy.feature_names
    ]


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def sweep(
    env: EnvironmentModel,
    policy: NeuralPolicy,
    property_text: str,
    method: str,
    layer: int,
    fraction_grid: str,
    seeds: tuple[int, ...] = (),
    limits: BuildLimits | None = None,
    out_path: str | None = None,
    *,
    lower_is_safer: bool = False,
    include_timings: bool = False,
    model_id: str = "",
    policy_id: str = "",
) -> str:
    """Prune and re-measure over a fraction grid and emit CSV.

    The original is measured once for the whole grid, and rows whose prune
    keeps every action of the original chain reuse its measurement.

    l1 yields one row per fraction; random yields one row per (fraction,
    seed) plus a per-fraction mean row (seed column "mean"). Rows are
    ordered by (fraction, seed). The returned text is also written to
    ``out_path`` when given; a failed write removes the partial file.
    """
    if method not in SWEEP_METHODS:
        raise PruneSpecError(f"sweep method must be one of {list(SWEEP_METHODS)}")
    if method == "random" and not seeds:
        raise PruneSpecError("random sweeps need at least one seed")
    if method == "l1" and seeds:
        raise PruneSpecError("l1 sweeps take no seeds")
    fractions = parse_fraction_grid(fraction_grid)
    ordered_seeds = tuple(sorted(seeds))

    original = _measure_original(env, policy, property_text, limits)

    def measure_row(spec: PruneSpec) -> SafetyReport:
        return _pruned_report(env, policy, original, spec, limits, lower_is_safer=lower_is_safer)

    rows: list[list[str]] = []
    for fraction in fractions:
        fraction_value = float(fraction)
        if method == "l1":
            report = measure_row(PruneSpec(method="l1", layer=layer, fraction=fraction_value))
            rows.append(_sweep_row(report, fraction_value, seed="", include_timings=include_timings))
        else:
            batch = []
            for seed in ordered_seeds:
                report = measure_row(PruneSpec(method="random", layer=layer, fraction=fraction_value, seed=seed))
                batch.append(report)
                rows.append(_sweep_row(report, fraction_value, seed=seed, include_timings=include_timings))
            mean_m_hat = sum(r.m_hat for r in batch) / len(batch)
            mean_delta = sum(r.delta for r in batch) / len(batch)
            rows.append(
                [
                    "random",
                    _csv_cell(layer),
                    _csv_cell(fraction_value),
                    "mean",
                    property_text,
                    _csv_cell(batch[0].m),
                    _csv_cell(mean_m_hat),
                    _csv_cell(mean_delta),
                    "",
                    "",
                    _csv_cell(0),
                ]
            )

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    text = buffer.getvalue()

    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except BaseException:
            if os.path.exists(out_path):
                os.remove(out_path)
            raise
    return text


def _sweep_row(report: SafetyReport, fraction: float, seed, include_timings: bool) -> list[str]:
    spec = report.prune_spec
    time_ms = round(report.pruned.time_ms, 3) if include_timings else 0
    return [
        spec.method,
        _csv_cell(spec.layer),
        _csv_cell(fraction),
        _csv_cell(seed),
        report.property_text,
        _csv_cell(report.m),
        _csv_cell(report.m_hat),
        _csv_cell(report.delta),
        _csv_cell(report.pruned.states if report.pruned else None),
        _csv_cell(report.pruned.transitions if report.pruned else None),
        _csv_cell(time_ms),
    ]
