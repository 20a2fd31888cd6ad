"""Measure / prune / re-measure reports, verdicts, and CSV sweeps."""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from prunecheck import (
    PropertySyntaxError,
    PruneSpec,
    PruneSpecError,
    feature_importance,
    measure,
    parse_fraction_grid,
    prune_and_measure,
    report_to_dict,
    sweep,
)
from prunecheck import CheckResult, PruneSpec, cli, load_explicit_model, make_policy, parse_property, workflow
from prunecheck.cli import write_text
from prunecheck.workflow import CSV_HEADER

from .conftest import (
    NO_COLLISION_6,
    chaser_policy,
    drift_avoidance_env,
    lazy_walker_policy,
)

LAZY_M = 2187 / 4096
LAZY_PRUNED = 1377 / 4096


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


# ===== Single measurements =====


class TestMeasure:
    def test_two_coin_query(self, two_coin_env, step_policy):
        report = measure(two_coin_env, step_policy, 'P=? [F "goal"]')
        assert report.m == 0.25
        assert report.satisfied is None
        assert (report.original.states, report.original.transitions) == (4, 6)
        assert report.original.time_ms >= 0.0
        assert report.m_hat is None and report.delta is None and report.verdict is None

    def test_comparator_verdict(self, chain3_env, step_policy):
        assert measure(chain3_env, step_policy, 'P>=0.5 [F "goal"]').satisfied is True
        assert measure(chain3_env, step_policy, 'P>0.5 [F "goal"]').satisfied is False

    def test_bad_property_propagates(self, chain3_env, step_policy):
        with pytest.raises(PropertySyntaxError):
            measure(chain3_env, step_policy, "P=? [")


# ===== Prune and re-measure =====


class TestPruneAndMeasure:
    def test_zero_fraction_is_bit_identical(self, chain3_env, step_policy):
        spec = PruneSpec(method="l1", layer=1, fraction=0.0)
        report = prune_and_measure(chain3_env, step_policy, 'P=? [F "goal"]', spec)
        assert report.m_hat == report.m
        assert report.delta == 0.0
        assert report.verdict == "unchanged"
        assert report.mask_size == 0
        assert (report.pruned.states, report.pruned.transitions) == (3, 4)

    def test_degrading_feature_prune(self):
        report = prune_and_measure(
            drift_avoidance_env(),
            lazy_walker_policy(),
            NO_COLLISION_6,
            PruneSpec(method="feature", feature="ax"),
        )
        assert report.m == LAZY_M
        assert report.m_hat == LAZY_PRUNED
        assert report.delta == LAZY_PRUNED - LAZY_M
        assert report.verdict == "degraded"
        assert report.mask_size == 5

    def test_improving_feature_prune(self):
        report = prune_and_measure(
            drift_avoidance_env(),
            chaser_policy(),
            NO_COLLISION_6,
            PruneSpec(method="feature", feature="ox"),
        )
        assert report.m == LAZY_PRUNED
        assert report.m_hat == LAZY_M
        assert report.verdict == "improved"
        assert report.m_hat > report.m

    def test_padding_feature_changes_nothing(self):
        report = prune_and_measure(
            drift_avoidance_env(),
            lazy_walker_policy(),
            NO_COLLISION_6,
            PruneSpec(method="feature", feature="ay"),
        )
        assert report.m_hat == report.m == LAZY_M
        assert report.delta == 0.0
        assert report.verdict == "unchanged"

    def test_threshold_violation_wins_over_direction(self):
        report = prune_and_measure(
            drift_avoidance_env(),
            lazy_walker_policy(),
            'P>=0.5 [G<=6 !"collision"]',
            PruneSpec(method="feature", feature="ax"),
        )
        assert report.satisfied is True
        assert report.m_hat < 0.5
        assert report.verdict == "violation"

    def test_comparator_sets_the_polarity(self):
        # Under <=, a rise in the measured value is a move toward the
        # unsafe side even though the threshold still holds.
        report = prune_and_measure(
            drift_avoidance_env(),
            lazy_walker_policy(),
            'P<=0.9 [F<=6 "collision"]',
            PruneSpec(method="feature", feature="ax"),
        )
        assert report.satisfied is True
        assert report.delta > 0
        assert report.verdict == "degraded"

    def test_lower_is_safer_flips_plain_queries(self):
        env = drift_avoidance_env()
        spec = PruneSpec(method="feature", feature="ax")
        text = 'P=? [F<=6 "collision"]'
        default = prune_and_measure(env, lazy_walker_policy(), text, spec)
        flipped = prune_and_measure(env, lazy_walker_policy(), text, spec, lower_is_safer=True)
        assert default.delta == flipped.delta > 0
        assert default.verdict == "improved"
        assert flipped.verdict == "degraded"


# ===== Verdicts on certified intervals =====


def certified(value: float, half_width: float = 0.0, satisfied=None) -> CheckResult:
    """A result whose value is certified to within ``half_width`` either side."""
    return CheckResult(
        value=value,
        satisfied=satisfied,
        per_state=(value,),
        iterations=0,
        residual=2 * half_width,
        lower=value - half_width,
        upper=value + half_width,
    )


QUERY = parse_property('P=? [F "goal"]')
AT_LEAST_HALF = parse_property('P>=0.5 [F "goal"]')


class TestCertifiedVerdicts:
    @pytest.mark.parametrize(
        "m_hat, verdict",
        [
            (0.5, "unchanged"),
            (0.5 + 1e-12, "unchanged"),
            (0.5 - 1e-12, "unchanged"),
            (0.5 + 2e-12, "improved"),
            (0.5 - 2e-12, "degraded"),
            (0.9, "improved"),
            (0.1, "degraded"),
        ],
    )
    def test_exact_results_keep_the_point_verdict(self, m_hat, verdict):
        assert workflow._verdict(QUERY, certified(0.5), certified(m_hat), lower_is_safer=False) == verdict

    @pytest.mark.parametrize(
        "m_hat, verdict",
        [(0.5, "undecided"), (0.5 + 5e-11, "undecided"), (0.5 + 1e-10, "improved"), (0.5 - 1e-10, "degraded")],
    )
    def test_delta_interval_straddling_the_band_is_undecided(self, m_hat, verdict):
        original, pruned = certified(0.5, 4e-11), certified(m_hat, 4e-11)
        assert workflow._verdict(QUERY, original, pruned, lower_is_safer=False) == verdict

    def test_a_reused_measurement_is_unchanged(self):
        original = certified(0.5, 4e-11)
        assert workflow._verdict(QUERY, original, original, lower_is_safer=False) == "unchanged"

    @pytest.mark.parametrize("satisfied, verdict", [(False, "violation"), ("undecided", "undecided")])
    def test_threshold_verdict_comes_first(self, satisfied, verdict):
        original = certified(0.5, satisfied=True)
        pruned = certified(0.9, satisfied=satisfied)
        assert workflow._verdict(AT_LEAST_HALF, original, pruned, lower_is_safer=False) == verdict


def two_action_walk(b_wins: float) -> str:
    """A gambler's ruin on 0..40 from 10 written with JSON floats: action
    "a" wins 1 with probability 0.5, "b" with ``b_wins``, else loses 1; 0
    is "bad" and 40 "goal". The fair walk reaches "goal" with probability
    1/4, which no float solver can certify to within 1e-12."""
    states = []
    for c in range(41):
        if c in (0, 40):
            act = {name: [{"to": [c], "p": 1}] for name in ("a", "b")}
            states.append({"s": [c], "labels": ["bad" if c == 0 else "goal"], "act": act})
            continue
        act = {
            name: [{"to": [c + 1], "p": win}, {"to": [c - 1], "p": 1.0 - win}]
            for name, win in (("a", 0.5), ("b", b_wins))
        }
        states.append({"s": [c], "act": act})
    return json.dumps({"features": ["pos"], "actions": ["a", "b"], "initial": [10], "states": states})


# Chooses "b" beyond position 5 (logit pos - 5 against 0); with "pos"
# pruned away, "a" everywhere.
B_BEYOND_FIVE = make_policy(("pos",), ("a", "b"), [(np.array([[0.0], [1.0]]), np.array([0.0, -5.0]))])


class TestFloatChainVerdicts:
    """Prunes of a chain solved in floats, end to end."""

    def test_a_flip_to_an_equal_distribution_is_unchanged(self):
        env = load_explicit_model(two_action_walk(0.5))
        report = prune_and_measure(env, B_BEYOND_FIVE, 'P=? [F "goal"]', PruneSpec(method="feature", feature="pos"))
        assert report.m == report.m_hat == pytest.approx(0.25, abs=1e-10)
        assert (report.delta, report.verdict) == (0.0, "unchanged")

    def test_a_threshold_inside_the_interval_is_undecided(self):
        env = load_explicit_model(two_action_walk(0.5))
        spec = PruneSpec(method="feature", feature="pos")
        report = prune_and_measure(env, B_BEYOND_FIVE, 'P>=0.25 [F "goal"]', spec)
        assert (report.satisfied, report.verdict) == ("undecided", "undecided")

    def test_a_flip_to_a_worse_action_changes_the_value(self):
        # "b" wins only 0.4, so the original walk is worse than the fair one
        # the prune leaves.
        env = load_explicit_model(two_action_walk(0.4))
        report = prune_and_measure(env, B_BEYOND_FIVE, 'P=? [F "goal"]', PruneSpec(method="feature", feature="pos"))
        assert report.m < 0.01
        assert report.m_hat == pytest.approx(0.25, abs=1e-10)
        assert report.verdict == "improved"
        lower_is_safer = prune_and_measure(
            env, B_BEYOND_FIVE, 'P=? [F "goal"]', PruneSpec(method="feature", feature="pos"), lower_is_safer=True
        )
        assert lower_is_safer.verdict == "degraded"


# ===== Feature importance =====


class TestFeatureImportance:
    def test_lazy_walker_table(self):
        reports = feature_importance(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6)
        assert [r.prune_spec.feature for r in reports] == ["ax", "ay", "ox", "oy"]
        assert all(r.m == LAZY_M for r in reports)
        assert [r.delta for r in reports] == [LAZY_PRUNED - LAZY_M, 0.0, 0.0, 0.0]
        assert [r.verdict for r in reports] == ["degraded", "unchanged", "unchanged", "unchanged"]
        assert all(r.mask_size == 5 for r in reports)

    def test_mixes_relevant_and_irrelevant_features(self):
        reports = feature_importance(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6)
        assert any(r.delta == 0.0 for r in reports)
        assert any(abs(r.delta) >= 0.05 for r in reports)


# ===== Report serialization =====


class TestReportToDict:
    def test_timings_zeroed_by_default(self, chain3_env, step_policy):
        report = measure(chain3_env, step_policy, 'P=? [F "goal"]')
        doc = report_to_dict(report)
        assert doc["dtmc"] == {"states": 3, "transitions": 4, "time_ms": 0}
        assert doc["dtmc_pruned"] is None
        assert doc["prune_spec"] is None
        assert doc["m"] == 0.5

    def test_timings_pass_through_on_request(self, chain3_env, step_policy):
        report = measure(chain3_env, step_policy, 'P=? [F "goal"]')
        doc = report_to_dict(report, include_timings=True)
        assert doc["dtmc"]["time_ms"] == report.original.time_ms

    def test_prune_fields(self):
        report = prune_and_measure(
            drift_avoidance_env(),
            lazy_walker_policy(),
            NO_COLLISION_6,
            PruneSpec(method="feature", feature="ax"),
        )
        doc = report_to_dict(report)
        assert doc["prune_spec"] == {"method": "feature", "feature": "ax"}
        assert doc["mask_size"] == 5
        assert doc["verdict"] == "degraded"
        assert doc["dtmc_pruned"]["time_ms"] == 0


# ===== Fraction grids =====


class TestParseFractionGrid:
    def test_simple_grid(self):
        assert parse_fraction_grid("0:1:0.5") == [0, Fraction(1, 2), 1]

    def test_exact_decimal_steps(self):
        grid = parse_fraction_grid("0:1:0.05")
        assert len(grid) == 21
        assert grid == [Fraction(i, 20) for i in range(21)]

    def test_single_point(self):
        assert parse_fraction_grid("0.2:0.2:0.1") == [Fraction(1, 5)]

    def test_step_overshooting_stop_is_dropped(self):
        assert parse_fraction_grid("0:0.5:0.2") == [0, Fraction(1, 5), Fraction(2, 5)]

    def test_rational_parts(self):
        assert parse_fraction_grid("1/4:1/2:1/8") == [
            Fraction(1, 4),
            Fraction(3, 8),
            Fraction(1, 2),
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:1", "must look like start:stop:step"),
            ("0:1:0.5:2", "must look like start:stop:step"),
            ("a:1:0.1", "non-numeric part"),
            ("0:1:0", "positive step"),
            ("-0.1:1:0.5", "0 <= start <= stop <= 1"),
            ("0.5:0.2:0.1", "0 <= start <= stop <= 1"),
            ("0:2:0.5", "0 <= start <= stop <= 1"),
        ],
    )
    def test_bad_grids(self, text, message):
        with pytest.raises(PruneSpecError, match=message):
            parse_fraction_grid(text)


# ===== Sweeps =====


class TestSweep:
    def test_l1_sweep_shape(self):
        text = sweep(
            drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:1:0.5"
        )
        rows = parse_csv(text)
        assert rows[0] == list(CSV_HEADER)
        assert len(rows) == 4
        assert [r[2] for r in rows[1:]] == ["0.0", "0.5", "1.0"]
        assert all(r[0] == "l1" and r[1] == "1" and r[3] == "" for r in rows[1:])
        assert all(r[4] == NO_COLLISION_6 for r in rows[1:])
        assert all(r[5] == "0.533935546875" for r in rows[1:])
        assert all(r[10] == "0" for r in rows[1:])

    def test_l1_zero_fraction_row_is_exact(self):
        rows = parse_csv(
            sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:0:1")
        )
        _, _, fraction, seed, _, m, m_hat, delta, states, transitions, _ = rows[1]
        assert fraction == "0.0" and seed == ""
        assert m_hat == m
        assert delta == "0.0"
        assert (states, transitions) == ("4", "7")

    def test_random_sweep_rows_and_means(self):
        text = sweep(
            drift_avoidance_env(),
            chaser_policy(),
            NO_COLLISION_6,
            "random",
            1,
            "0:1:0.5",
            seeds=(3, 1, 2),
        )
        rows = parse_csv(text)[1:]
        assert len(rows) == 12
        assert [r[3] for r in rows] == ["1", "2", "3", "mean"] * 3
        assert [r[2] for r in rows] == ["0.0"] * 4 + ["0.5"] * 4 + ["1.0"] * 4

        zero_block = rows[:4]
        m = zero_block[0][5]
        assert all(r[5] == m for r in zero_block)
        assert all(r[6] == m for r in zero_block)
        assert all(r[7] == "0.0" for r in zero_block)
        mean_row = zero_block[3]
        assert (mean_row[8], mean_row[9]) == ("", "")

    def test_row_counts_scale_with_grid_and_seeds(self):
        text = sweep(
            drift_avoidance_env(),
            chaser_policy(),
            NO_COLLISION_6,
            "random",
            1,
            "0:1:0.25",
            seeds=tuple(range(10)),
        )
        rows = parse_csv(text)
        assert len(rows) == 1 + 5 * 10 + 5

    def test_repeat_runs_are_byte_identical(self):
        args = (drift_avoidance_env(), chaser_policy(), NO_COLLISION_6, "random", 1, "0:1:0.5")
        first = sweep(*args, seeds=(0, 1, 2))
        second = sweep(*args, seeds=(0, 1, 2))
        assert first == second

    # sweep only returns its CSV; the CLI's write_text puts it in a file.

    def test_output_file_matches_returned_text(self, tmp_path):
        out = tmp_path / "sweep.csv"
        text = sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:1:0.5")
        write_text(str(out), text)
        assert out.read_text(encoding="utf-8") == text

    def test_unwritable_output_path_raises(self, tmp_path):
        text = sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:0:1")
        with pytest.raises(OSError):
            write_text(str(tmp_path / "missing" / "sweep.csv"), text)

    def test_directory_out_path_raises_the_open_error_and_survives(self, tmp_path):
        text = sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:0:1")
        with pytest.raises(IsADirectoryError) as exc:
            write_text(str(tmp_path), text)
        # The open's own error, not one raised while cleaning up after it.
        assert exc.value.__context__ is None
        assert tmp_path.is_dir()

    def test_failed_open_leaves_an_existing_file(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        out.write_text("kept")

        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        text = sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:0:1")
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        with pytest.raises(PermissionError):
            write_text(str(out), text)
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("seeds", [(1, 1, 2), (2, 1, 2)])
    def test_repeated_seed_rejected(self, seeds):
        with pytest.raises(PruneSpecError, match=r"^seed \d is given more than once$"):
            sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "random", 1, "0:1:0.5", seeds=seeds)

    @pytest.mark.parametrize(
        "seeds, message",
        [((3, -3), "seed -3 draws the same sample as seed 3"), ((-5, 2, -2, 5), "seed -5 draws the same sample as seed 5")],
    )
    def test_seed_and_its_negative_rejected(self, seeds, message):
        """``random.Random`` draws one sample for a seed and its negative, so the ``mean`` row would count it twice."""
        assert random.Random(-seeds[0]).sample(range(100), 10) == random.Random(seeds[0]).sample(range(100), 10)
        with pytest.raises(PruneSpecError, match=f"^{message}$"):
            sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "random", 1, "0:1:0.5", seeds=seeds)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"method": "feature"}, "sweep method must be one of"),
            ({"method": "random"}, "at least one seed"),
            ({"method": "l1", "seeds": (1,)}, "l1 sweeps take no seeds"),
        ],
    )
    def test_method_seed_validation(self, kwargs, message):
        kwargs = {"seeds": (), **kwargs}
        with pytest.raises(PruneSpecError, match=message):
            sweep(
                drift_avoidance_env(),
                lazy_walker_policy(),
                NO_COLLISION_6,
                kwargs["method"],
                1,
                "0:1:0.5",
                seeds=kwargs["seeds"],
            )

    def test_bad_grid_propagates(self):
        with pytest.raises(PruneSpecError, match="must look like"):
            sweep(drift_avoidance_env(), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0..1")

    def test_timings_opt_in(self):
        text = sweep(
            drift_avoidance_env(),
            lazy_walker_policy(),
            NO_COLLISION_6,
            "l1",
            1,
            "0:0:1",
            include_timings=True,
        )
        value = parse_csv(text)[1][10]
        assert float(value) >= 0.0
