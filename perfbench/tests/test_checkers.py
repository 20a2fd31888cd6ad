"""Each of the benchmark's answer checkers accepts right answers and rejects wrong ones."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

import prunecheck as pc
import prunecheck.cli  # noqa: F401
from perfbench import inputs, oracles, workloads


def _solve_judge() -> workloads.Solve:
    judge = workloads.Solve.__new__(workloads.Solve)
    judge.info = {}
    return judge


# ===== solve =====


def test_gambler_closed_forms_match_the_direct_solve():
    chain = workloads.explicit_chain(inputs.gambler_chain())
    everything = np.ones(len(chain.states), dtype=bool)
    reach, stay = oracles.until_exact(chain, everything, chain.mask("goal"))
    seq, _ = oracles.seq_exact(chain, chain.mask("low"), chain.mask("goal"))
    exact = workloads.gambler_exact()
    assert abs(reach[0] - float(exact['P>=0.25 [F "goal"]'][0])) < 1e-12
    assert abs(seq[0] - float(exact['P=? [SEQ("low", "goal")]'][0])) < 1e-12
    assert stay == pytest.approx(inputs.GAMBLER_N**2 / 4)


def test_solve_checker_rejects_a_wrong_value_or_verdict():
    judge = _solve_judge()
    exact = workloads.gambler_exact()
    op = 'gambler P=? [G !"bad"]'
    assert judge.agrees(op, (0.25, None), exact['P=? [G !"bad"]'])
    assert not judge.agrees(op, (0.25 + 1e-6, None), exact['P=? [G !"bad"]'])
    # The exact answer of P>=0.25 is yes, so the program's "no" is wrong.
    threshold = exact['P>=0.25 [F "goal"]']
    assert not judge.agrees('gambler P>=0.25 [F "goal"]', (0.24999998828862435, False), threshold)
    assert judge.agrees('gambler P>=0.25 [F "goal"]', (0.25, True), threshold)
    assert not judge.agrees("gambler build", (41, 82), (41, 81))


def test_random_chain_checker_matches_the_program_and_rejects_a_perturbed_value():
    chain_doc = inputs.random_chain(random.Random("test"))
    exact = workloads.random_exact(workloads.explicit_chain(chain_doc))
    dtmc = pc.build_induced_dtmc(pc.load_explicit_model(chain_doc["text"]), pc.load_policy(inputs.json.dumps(inputs.ONE_ACTION_POLICY))).dtmc
    judge = _solve_judge()
    for text in inputs.RANDOM_PROPERTIES:
        value = pc.check(dtmc, pc.parse_property(text)).value
        assert judge.agrees(f"random {text}", (value, None), exact[text])
        assert not judge.agrees(f"random {text}", (value + 1e-8, None), exact[text])


# ===== explore =====


def _small_case():
    rng = random.Random("test-explore")
    return inputs.draw_case(rng, 6, 8, (30, 200))


def test_explore_checker_matches_the_program_and_rejects_wrong_answers():
    case = _small_case()
    build = pc.build_induced_dtmc(pc.from_uri(case["uri"]), pc.load_policy(case["policy"]))
    chain = oracles.avoid_chain(case["grid"], case["policy_doc"])
    assert (build.stats.states, build.stats.transitions) == (len(chain.states), chain.transitions)
    for text, want in zip(inputs.EXPLORE_PROPERTIES, workloads.explore_values(chain)):
        value = pc.check(build.dtmc, pc.parse_property(text)).value
        assert workloads.Explore.agrees(None, f"0 {text}", value, want)
        assert not workloads.Explore.agrees(None, f"0 {text}", value + 1e-9, want)
    counts = (len(chain.states), chain.transitions)
    assert not workloads.Explore.agrees(None, "0 build", (counts[0], counts[1] + 1), counts)


def test_mlp_breaks_ties_toward_the_earlier_schema_action():
    doc = {"actions": ["a", "b", "c"], "layers": [{"w": [[0.0], [1.0], [1.0]], "b": [0.0, 0.0, 0.0]}]}
    assert oracles.Mlp(doc).choose((2,), ("b", "c")) == "b"
    assert oracles.Mlp(doc).choose((2,), ("c", "a")) == "c"


# ===== validate =====


def test_validate_checker_matches_the_program_and_rejects_wrong_counts():
    model = {
        "kind": "mini_taxi", "width": 3, "height": 3, "max_fuel": 5, "jobs_target": 2,
        "station": [0, 0], "spawn": [2, 2], "destination": [2, 0],
    }
    uri = "builtin:mini_taxi?width=3&height=3&max_fuel=5&jobs_target=2"
    report = pc.validate_model(pc.from_uri(uri))
    assert oracles.all_action_counts(model) == (report.states, report.transitions)
    judge = workloads.Validate.__new__(workloads.Validate)
    judge.info = {}
    judge.docs = {"models": [(uri, model)]}
    assert judge.judge(pc, [(uri, (report.states, report.transitions, True))]) == set()
    assert judge.judge(pc, [(uri, (report.states + 1, report.transitions, True))]) == {uri}
    assert judge.judge(pc, [(uri, (report.states, report.transitions, False))]) == {uri}


# ===== sweep =====


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    sweep = workloads.Sweep(1, tmp_path_factory.mktemp("sweep"))
    sweep.setup(pc)
    return sweep, sweep.job(pc)


def _replace(answers, name, edit):
    return [(n, (code, edit(text) if n == name else text)) for n, (code, text) in answers]


def test_sweep_checker_accepts_the_program_output(sweep_run):
    sweep, answers = sweep_run
    assert sweep.judge(pc, answers) == set()
    assert sweep.info["pruned_rows"] == len(workloads.sweep_fractions()) * (len(inputs.SWEEP_SEEDS) + 1)


def _shift_m_hat(row: int, shift: float):
    """Move one row's m_hat and keep its delta consistent with it."""

    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        m_hat = float(cells[6]) + shift
        cells[6], cells[7] = repr(m_hat), repr(m_hat - float(cells[5]))
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    return edit


def test_sweep_checker_rejects_wrong_rows(sweep_run):
    sweep, answers = sweep_run
    lines = dict(answers)["random"][1].splitlines()
    assert lines[1].split(",")[2:4] == ["0.0", "1"] and lines[11].split(",")[3] == "mean"
    cases = {
        # m_hat off the re-measured value
        "random row 12": _shift_m_hat(12, 1e-6),
        # within rounding of the re-measured value, but fraction 0 must give delta exactly 0
        "random row 1": _shift_m_hat(1, 1e-13),
        # a mean row that is not the mean of its seed rows
        "random row 11": _shift_m_hat(11, 1e-3),
    }
    for op, edit in cases.items():
        assert op in sweep.judge(pc, _replace(answers, "random", edit))
    header = sweep.judge(pc, _replace(answers, "l1", lambda text: text.replace("m_hat", "mhat", 1)))
    assert "l1 header" in header


def test_sweep_checker_rejects_a_wrong_verdict_and_a_failed_command(sweep_run):
    sweep, answers = sweep_run
    table = dict(answers)["features"][1]
    for verdict in ("degraded", "unchanged"):
        if verdict in table:
            flipped = table.replace(verdict, "improved", 1)
            assert any(op.startswith("features row") for op in sweep.judge(pc, _replace(answers, "features", lambda _: flipped)))
    failed = [(n, (2, "") if n == "l1" else answer) for n, answer in answers]
    assert {op for op in sweep.judge(pc, failed) if op.startswith("l1")} == {
        op for op in sweep.operations() if op.startswith("l1")
    }


def test_sweep_rows_keep_or_flip_actions_in_good_numbers(sweep_run):
    sweep, answers = sweep_run
    sweep.judge(pc, answers)
    share = Fraction(sweep.info["rows_keeping_every_action"], sweep.info["pruned_rows"])
    assert Fraction(1, 5) <= share <= Fraction(4, 5)
