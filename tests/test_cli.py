"""End-to-end runs of the command-line front end, in process."""

from __future__ import annotations

import ast
import errno
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from prunecheck import (
    PruneSpec,
    dump_policy,
    from_uri,
    load_explicit_model,
    load_mask,
    load_policy,
    make_policy,
    prune,
    sweep,
)
from prunecheck import cli, workflow
from prunecheck.cli import main

from .conftest import (
    FIXTURES,
    FRACTION3,
    NO_COLLISION_6,
    chaser_policy,
    fixture_doc,
    gambler_text,
    lazy_walker_policy,
)

AVOID_URI = "builtin:avoidance?obstacle_start=2,1&obstacle_move_prob=1/4"

CHAIN3 = str(FIXTURES / "chain3.json")


@pytest.fixture
def step_policy_path(tmp_path, step_policy) -> str:
    path = tmp_path / "step_policy.json"
    path.write_text(dump_policy(step_policy))
    return str(path)


@pytest.fixture
def lazy_policy_path(tmp_path) -> str:
    path = tmp_path / "lazy.json"
    path.write_text(dump_policy(lazy_walker_policy()))
    return str(path)


# ===== check =====


class TestCheck:
    def test_text_output(self, capsys, step_policy_path):
        code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", 'P=? [F "goal"]'])
        out = capsys.readouterr().out
        assert code == 0
        assert "m: 0.5\n" in out
        assert "states: 3" in out
        assert "transitions: 4" in out
        assert "satisfied" not in out

    @pytest.mark.parametrize("prop, answer", [('P>=0.5 [F "goal"]', "yes"), ('P>0.5 [F "goal"]', "no")])
    def test_satisfied_line(self, capsys, step_policy_path, prop, answer):
        code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", prop])
        assert code == 0
        assert f"satisfied: {answer}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "p, prop, lines",
        [
            # Fraction strings: the exact path gives 1/4, so P>=0.25 holds.
            ("1/2", 'P>=0.25 [F "goal"]', "m: 0.25\nsatisfied: yes\n"),
            # JSON floats: interval iteration, whose interval holds 1/4 inside.
            (0.5, 'P>=0.25 [F "goal"]', "satisfied: undecided\n"),
            (0.5, 'P>=0.2 [F "goal"]', "satisfied: yes\n"),
        ],
    )
    def test_gamblers_ruin_verdict(self, capsys, tmp_path, step_policy_path, p, prop, lines):
        model = tmp_path / "gambler.json"
        model.write_text(gambler_text(p))
        code = main(["check", "--model", str(model), "--policy", step_policy_path, "--prop", prop])
        assert code == 0
        assert lines in capsys.readouterr().out

    def test_undecided_in_json(self, capsys, tmp_path, step_policy_path):
        model = tmp_path / "gambler.json"
        model.write_text(gambler_text(0.5))
        argv = ["check", "--model", str(model), "--policy", step_policy_path, "--prop", 'P>=0.25 [F "goal"]']
        assert main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["satisfied"] == "undecided"

    def test_bounded_sum_at_its_threshold_is_undecided(self, capsys, tmp_path, step_policy_path):
        """17/100 exactly, summed in floats to 0.16999999999999998: the allowance holds the threshold."""
        model = tmp_path / "fraction3.json"
        model.write_text(FRACTION3)
        argv = ["check", "--model", str(model), "--policy", step_policy_path, "--prop", 'P>=0.17 [F<=2 "goal"]']
        assert main(argv) == 0
        assert "m: 0.16999999999999998\nsatisfied: undecided\n" in capsys.readouterr().out
        assert main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["satisfied"] == "undecided"

    def test_json_output(self, capsys, step_policy_path):
        code = main(
            ["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", 'P=? [F "goal"]', "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 0.5
        assert doc["property"] == 'P=? [F "goal"]'
        assert doc["dtmc"] == {"states": 3, "transitions": 4, "time_ms": 0}
        assert doc["model"] == CHAIN3

    def test_out_file(self, capsys, tmp_path, step_policy_path):
        out = tmp_path / "report.txt"
        code = main(
            ["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", 'P=? [F "goal"]', "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "m: 0.5" in out.read_text()

    def test_property_file(self, capsys, tmp_path, step_policy_path):
        prop = tmp_path / "prop.pctl"
        prop.write_text("# reach the goal eventually\n\nP=?\n[F \"goal\"]\n")
        code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop-file", str(prop)])
        assert code == 0
        assert "m: 0.5" in capsys.readouterr().out

    def test_empty_property_file(self, capsys, tmp_path, step_policy_path):
        prop = tmp_path / "prop.pctl"
        prop.write_text("# nothing here\n")
        code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop-file", str(prop)])
        assert code == 2
        assert "holds no property text" in capsys.readouterr().err

    def test_builtin_model_uri(self, capsys, lazy_policy_path):
        code = main(["check", "--model", AVOID_URI, "--policy", lazy_policy_path, "--prop", NO_COLLISION_6])
        assert code == 0
        assert "m: 0.533935546875" in capsys.readouterr().out

    def test_missing_model_file(self, capsys, step_policy_path):
        code = main(["check", "--model", "no_such_model.json", "--policy", step_policy_path, "--prop", 'P=? [F "goal"]'])
        assert code == 2
        assert "error: cannot read no_such_model.json" in capsys.readouterr().err

    def test_bad_property(self, capsys, step_policy_path):
        code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", "P=? ["])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_state_limit(self, capsys, step_policy_path):
        code = main(
            ["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", 'P=? [F "goal"]', "--max-states", "2"]
        )
        assert code == 4
        assert "max_states=2" in capsys.readouterr().err

    def test_unknown_label_warns_but_succeeds(self, capsys, step_policy_path):
        code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", 'P=? [F "nosuch"]'])
        captured = capsys.readouterr()
        assert code == 0
        assert "m: 0.0" in captured.out
        assert "warning:" in captured.err
        assert "nosuch" in captured.err


# ===== prune =====


class TestPrune:
    def test_l1_to_stdout(self, capsys, lazy_policy_path):
        code = main(["prune", "--policy", lazy_policy_path, "--method", "l1", "--layer", "1", "--fraction", "1.0"])
        captured = capsys.readouterr()
        assert code == 0
        pruned = load_policy(captured.out)
        assert not pruned.layers[0].weights.any()
        assert captured.err == "zeroed 1 weights\n"

    def test_out_writes_policy_and_mask_sibling(self, capsys, tmp_path, lazy_policy_path):
        out = tmp_path / "pruned.json"
        code = main(
            ["prune", "--policy", lazy_policy_path, "--method", "feature", "--feature", "ax", "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

        direct_policy, direct_mask = prune(
            lazy_walker_policy(), PruneSpec(method="feature", feature="ax")
        )
        written = load_policy(out.read_text())
        assert written.layers[0].weights.tobytes() == direct_policy.layers[0].weights.tobytes()
        mask = load_mask((tmp_path / "pruned.json.mask.json").read_text())
        assert mask == direct_mask

    def test_explicit_mask_path_with_stdout_policy(self, capsys, tmp_path, lazy_policy_path):
        mask_path = tmp_path / "mask.json"
        code = main(
            [
                "prune", "--policy", lazy_policy_path,
                "--method", "random", "--layer", "1", "--fraction", "1.0", "--seed", "9",
                "--mask-out", str(mask_path),
            ]
        )
        assert code == 0
        load_policy(capsys.readouterr().out)
        mask = load_mask(mask_path.read_text())
        assert mask.spec == PruneSpec(method="random", layer=1, fraction=1.0, seed=9)
        assert mask.size == 1

    def test_incomplete_spec(self, capsys, lazy_policy_path):
        code = main(["prune", "--policy", lazy_policy_path, "--method", "l1", "--layer", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_policy_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        code = main(["prune", "--policy", str(bad), "--method", "feature", "--feature", "x"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_mask_leaves_no_policy(self, capsys, tmp_path, lazy_policy_path):
        out = tmp_path / "p.json"
        (tmp_path / "p.json.mask.json").mkdir()
        code = main(
            ["prune", "--policy", lazy_policy_path, "--method", "l1", "--layer", "1", "--fraction", "0.5",
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}.mask.json: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_policy_leaves_no_mask(self, capsys, tmp_path, lazy_policy_path):
        out = tmp_path / "missing" / "p.json"
        mask_path = tmp_path / "mask.json"
        code = main(
            ["prune", "--policy", lazy_policy_path, "--method", "l1", "--layer", "1", "--fraction", "0.5",
             "--out", str(out), "--mask-out", str(mask_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lazy.json"]

    @pytest.mark.parametrize(
        "paths",
        [
            ["--out", "p.json", "--mask-out", "p.json"],
            ["--mask-out", "./lazy.json"],
            ["--out", "sub/../p.json", "--mask-out", "p.json"],
        ],
        ids=["mask-is-out", "mask-is-policy", "mask-resolves-to-out"],
    )
    def test_mask_path_naming_the_policy_or_out_file_is_refused(self, capsys, tmp_path, monkeypatch, paths):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        policy_text = dump_policy(lazy_walker_policy())
        (tmp_path / "lazy.json").write_text(policy_text)
        argv = ["prune", "--policy", "lazy.json", "--method", "l1", "--layer", "1", "--fraction", "0.5", *paths]
        assert main(argv) == 2
        captured = capsys.readouterr()
        flag = "--out" if "--out" in paths else "--policy"
        assert captured.err == f"error: mask path {paths[-1]} is the {flag} file\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lazy.json", "sub"]
        assert (tmp_path / "lazy.json").read_text() == policy_text

    def test_default_mask_path_naming_the_policy_is_refused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        policy_text = dump_policy(lazy_walker_policy())
        (tmp_path / "p.json.mask.json").write_text(policy_text)
        argv = ["prune", "--policy", "p.json.mask.json", "--method", "feature", "--feature", "ax", "--out", "p.json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: mask path p.json.mask.json is the --policy file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json.mask.json"]
        assert (tmp_path / "p.json.mask.json").read_text() == policy_text

    @pytest.mark.parametrize("key", ["features", "actions"])
    def test_policy_with_a_repeated_name_is_refused(self, capsys, tmp_path, key):
        doc = json.loads(dump_policy(make_policy(("x", "y"), ("a", "b"), [(np.eye(2), np.zeros(2))])))
        doc[key] = [doc[key][0]] * 2
        policy = tmp_path / "dup.json"
        policy.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        code = main(["prune", "--policy", str(policy), "--method", "feature", "--feature", "x", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: '{key}' contains duplicates\n"
        assert not out.exists()


# ===== sweep =====


class TestSweep:
    def test_stdout_matches_library_call(self, capsys, lazy_policy_path):
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", NO_COLLISION_6, "--method", "l1", "--layer", "1", "--fractions", "0:1:0.5",
            ]
        )
        assert code == 0
        direct = sweep(from_uri(AVOID_URI), lazy_walker_policy(), NO_COLLISION_6, "l1", 1, "0:1:0.5")
        assert capsys.readouterr().out == direct

    def test_out_file(self, capsys, tmp_path, lazy_policy_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", NO_COLLISION_6, "--method", "random", "--layer", "1",
                "--fractions", "0:1:0.5", "--seeds", "2,0,1", "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        text = out.read_text()
        assert text.startswith("method,layer,fraction,seed,property,")
        assert text.count("\n") == 13

    @pytest.mark.parametrize("target", ["missing/sweep.csv", "directory"])
    def test_unwritable_out_is_a_clean_error(self, capsys, tmp_path, lazy_policy_path, target):
        (tmp_path / "directory").mkdir()
        out = tmp_path / target
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", NO_COLLISION_6, "--method", "l1", "--layer", "1", "--fractions", "0:1:0.5",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert (tmp_path / "directory").is_dir()

    def test_bad_seed_list(self, capsys, lazy_policy_path):
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", NO_COLLISION_6, "--method", "random", "--layer", "1",
                "--fractions", "0:1:0.5", "--seeds", "1,x",
            ]
        )
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_negative_seeds_take_the_equals_form(self, capsys, lazy_policy_path):
        """argparse reads ``-3,2`` after ``--seeds`` as a flag; ``--seeds=-3,2`` is the value."""
        argv = [
            "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
            "--prop", NO_COLLISION_6, "--method", "random", "--layer", "1", "--fractions", "0:1:0.5",
        ]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--seeds", "-3,2"])
        assert exit_info.value.code == 2
        assert "--seeds: expected one argument" in capsys.readouterr().err
        assert main([*argv, "--seeds=-3,2"]) == 0
        direct = sweep(from_uri(AVOID_URI), lazy_walker_policy(), NO_COLLISION_6, "random", 1, "0:1:0.5", (-3, 2))
        assert capsys.readouterr().out == direct

    def test_repeated_seed(self, capsys, lazy_policy_path):
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", NO_COLLISION_6, "--method", "random", "--layer", "1",
                "--fractions", "0:1:0.5", "--seeds", "1,1,2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed 1 is given more than once\n"

    def test_random_without_seeds(self, capsys, lazy_policy_path):
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", NO_COLLISION_6, "--method", "random", "--layer", "1", "--fractions", "0:1:0.5",
            ]
        )
        assert code == 2
        assert "at least one seed" in capsys.readouterr().err

    @pytest.mark.parametrize("method, seeds", [("l1", []), ("random", ["--seeds", "1"])])
    def test_property_error_comes_before_a_bad_layer(self, capsys, lazy_policy_path, method, seeds):
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                "--prop", "P=? [", "--method", method, "--layer", "0", "--fractions", "0:1:0.5", *seeds,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: expected a state formula at position 5, found end of input\n"

    def test_state_cap_comes_before_a_bad_layer(self, capsys, lazy_policy_path):
        code = main(
            [
                "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path, "--prop", NO_COLLISION_6,
                "--method", "l1", "--layer", "0", "--fractions", "0:1:0.5", "--max-states", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: state count exceeds max_states=1\n"

    def test_feature_method_rejected_by_parser(self, capsys, lazy_policy_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
                    "--prop", NO_COLLISION_6, "--method", "feature", "--layer", "1", "--fractions", "0:1:0.5",
                ]
            )
        assert exc.value.code == 2


# ===== output files =====


class _FullDisk:
    """A real file handle whose write stores half the text, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_write_failing_midway_removes_the_partial_file(capsys, monkeypatch, tmp_path, step_policy_path):
    def full_disk_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return _FullDisk(handle) if "w" in mode else handle

    monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
    out = tmp_path / "out.txt"
    code = main(["check", "--model", CHAIN3, "--policy", step_policy_path, "--prop", 'P=?[F "goal"]', "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


def test_only_the_cli_opens_files():
    """The library takes and returns text; reading and writing files is the front end's job."""
    openers = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if name == "open":
                    openers.add(path.name)
    assert openers == {"cli.py"}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--model", AVOID_URI, "--policy", "lazy.json", "--prop", NO_COLLISION_6],
        ["check", "--model", AVOID_URI, "--policy", "lazy.json", "--prop", NO_COLLISION_6, "--json"],
        ["prune", "--policy", "lazy.json", "--method", "l1", "--layer", "1", "--fraction", "0.5"],
        [
            "sweep", "--model", AVOID_URI, "--policy", "lazy.json", "--prop", NO_COLLISION_6,
            "--method", "l1", "--layer", "1", "--fractions", "0:1:0.5",
        ],
        ["features", "--model", AVOID_URI, "--policy", "lazy.json", "--prop", NO_COLLISION_6],
        ["features", "--model", AVOID_URI, "--policy", "lazy.json", "--prop", NO_COLLISION_6, "--json"],
        ["validate", "--model", AVOID_URI],
        ["validate", "--model", AVOID_URI, "--json"],
        ["export-dtmc", "--model", AVOID_URI, "--policy", "lazy.json"],
    ],
    ids=["check", "check-json", "prune", "sweep", "features", "features-json", "validate", "validate-json", "export-dtmc"],
)
def test_out_file_holds_the_bytes_stdout_shows(capsys, tmp_path, monkeypatch, lazy_policy_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    shown = capsys.readouterr().out.encode("utf-8")
    assert main([*argv, "--out", "out.txt"]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "out.txt").read_bytes() == shown
    assert shown.endswith(b"\n")


# ===== malformed input documents =====

MODEL_DOC = (
    '{"features": ["pos"], "actions": ["step"], "initial": [0], '
    '"states": [{"s": [0], "act": {"step": [{"to": [0], "p": 1}]}}]}'
)
POLICY_DOC = '{"features": ["pos"], "actions": ["step"], "layers": [{"w": [[0]], "b": [0]}]}'


@pytest.mark.parametrize(
    "kind, text, line",
    [
        ("model", MODEL_DOC[:-1], "line 1 column 122: Expecting ',' delimiter"),
        ("model", "[1, 2]", "top level must be an object"),
        ("model", MODEL_DOC[:-1] + ', "extra": 1}', "unknown top-level keys ['extra']"),
        ("model", MODEL_DOC.replace('"initial": [0], ', ""), "missing top-level key 'initial'"),
        (
            "model",
            MODEL_DOC.replace('"initial": [0]', '"initial": [0], "initial": [0]'),
            "duplicate key 'initial' in object",
        ),
        ("model", MODEL_DOC.replace('"s": [0]', '"s": [0], "s": [0]'), "duplicate key 's' in object"),
        ("policy", POLICY_DOC[:-1], "line 1 column 78: Expecting ',' delimiter"),
        ("policy", '"text"', "top level must be an object"),
        ("policy", POLICY_DOC[:-1] + ', "extra": 1}', "unknown top-level keys ['extra']"),
        ("policy", POLICY_DOC.replace('"actions": ["step"], ', ""), "missing top-level key 'actions'"),
        (
            "policy",
            POLICY_DOC.replace('"actions": ["step"]', '"actions": ["step"], "actions": ["step"]'),
            "duplicate key 'actions' in policy document",
        ),
        ("policy", POLICY_DOC.replace('"b": [0]', '"b": [0], "b": [0]'), "duplicate key 'b' in policy document"),
    ],
    ids=[
        f"{kind}-{case}"
        for kind in ("model", "policy")
        for case in ("malformed", "not-an-object", "unknown-key", "missing-key", "repeated-key", "repeated-nested-key")
    ],
)
def test_malformed_document_is_one_error_line(capsys, tmp_path, kind, text, line):
    code = main(_read_document(tmp_path, kind, text))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


def test_uri_probability_too_large_for_a_float_is_one_error_line(capsys):
    assert main(["validate", "--model", "builtin:avoidance?obstacle_move_prob=1e400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: query parameter obstacle_move_prob='1e400': expected a probability\n"


@pytest.mark.parametrize(
    "model, line",
    [
        ("file", "states[1].s: feature value is too large for a float"),
        ("uri", f"query parameter width='{10**400}': integer is too large for a float"),
    ],
    ids=["file", "uri"],
)
def test_feature_too_large_for_a_float_is_one_error_line(capsys, tmp_path, model, line):
    # Both once validated and then crashed the policy's forward pass.
    if model == "file":
        doc = fixture_doc("chain3.json")
        doc["states"][1]["s"] = [10**400]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        policy = make_policy(("pos",), ("step",), [(np.zeros((1, 1)), np.zeros(1))])
        spec = str(path)
    else:
        policy = lazy_walker_policy()
        spec = f"builtin:avoidance?width={10**400}&height=3"
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(dump_policy(policy))
    assert main(["check", "--model", spec, "--policy", str(policy_path), "--prop", 'P=? [F "goal"]']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("kind", ["model", "policy"])
@pytest.mark.parametrize(
    "text, fragment",
    [("[" * 100_000 + "]" * 100_000, "recursion depth"), ("[%s]" % ("1" * 5000), "digits")],
    ids=["nested-too-deep", "past-digit-limit"],
)
def test_document_python_cannot_decode_is_one_error_line(capsys, tmp_path, kind, text, fragment):
    code = main(_read_document(tmp_path, kind, text))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and fragment in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind, text", [("model", MODEL_DOC), ("policy", POLICY_DOC)])
def test_documents_behind_the_malformed_cases_are_well_formed(capsys, tmp_path, kind, text):
    assert main(_read_document(tmp_path, kind, text)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flag", ["--model", "--policy", "--prop-file"])
def test_a_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path, step_policy_path, flag):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"bad"')
    args = {"--model": CHAIN3, "--policy": step_policy_path, "--prop-file": str(tmp_path / "prop.pctl")}
    (tmp_path / "prop.pctl").write_text('P=? [F "goal"]\n')
    args[flag] = str(path)
    code = main(["check", *(item for pair in args.items() for item in pair)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def _read_document(tmp_path, kind: str, text: str) -> list[str]:
    """Write ``text`` to a file and return the arguments of a call that reads it as ``kind``."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    if kind == "model":
        return ["validate", "--model", str(path)]
    return ["check", "--model", CHAIN3, "--policy", str(path), "--prop", 'P=? [F "goal"]']


# ===== JSON reports =====


@pytest.fixture
def json_report(capsys, tmp_path, monkeypatch, step_policy):
    """Runs ``command --json`` from a directory of inputs named relatively and returns stdout."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(FIXTURES / "chain3.json", tmp_path)
    (tmp_path / "step.json").write_text(dump_policy(step_policy))
    (tmp_path / "chaser.json").write_text(dump_policy(chaser_policy()))

    def run(command, model, policy, prop) -> str:
        assert main([command, "--model", model, "--policy", policy, "--prop", prop, "--json"]) == 0
        return capsys.readouterr().out

    return run


@pytest.mark.parametrize(
    "golden, command, model, policy, prop",
    [
        ("check_chain3.json", "check", "chain3.json", "step.json", 'P>=0.5 [F "goal"]'),
        ("features_chase.json", "features", AVOID_URI, "chaser.json", NO_COLLISION_6),
    ],
    ids=["check", "features"],
)
def test_json_report_bytes(json_report, golden, command, model, policy, prop):
    assert json_report(command, model, policy, prop) == (FIXTURES / "golden" / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["check", "features"])
def test_identifiers_pass_through(json_report, command):
    doc = json.loads(json_report(command, "./chain3.json", "step.json", 'P=? [F "goal"]'))
    for report in doc if command == "features" else [doc]:
        assert list(report)[-2:] == ["model", "policy"]
        assert (report["model"], report["policy"]) == ("./chain3.json", "step.json")


# ===== features =====


class TestFeatures:
    def test_table_output(self, capsys, lazy_policy_path):
        code = main(["features", "--model", AVOID_URI, "--policy", lazy_policy_path, "--prop", NO_COLLISION_6])
        out = capsys.readouterr().out
        assert code == 0
        assert "m: 0.533935546875" in out
        lines = out.splitlines()
        table = [line.split() for line in lines[-4:]]
        assert [row[0] for row in table] == ["ax", "ay", "ox", "oy"]
        assert table[0][-1] == "degraded"
        assert {row[-1] for row in table[1:]} == {"unchanged"}

    def test_json_output(self, capsys, lazy_policy_path):
        code = main(
            ["features", "--model", AVOID_URI, "--policy", lazy_policy_path, "--prop", NO_COLLISION_6, "--json"]
        )
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["prune_spec"]["feature"] for d in docs] == ["ax", "ay", "ox", "oy"]
        assert [d["delta"] for d in docs] == [1377 / 4096 - 2187 / 4096, 0.0, 0.0, 0.0]
        assert all(d["m"] == 2187 / 4096 for d in docs)


    @pytest.mark.parametrize(
        "extra",
        [[], ["--method", "random", "--layer", "1", "--fractions", "0:1:0.1", "--seeds", "1,2,3,4,5"]],
        ids=["features", "sweep"],
    )
    def test_each_warning_is_printed_once(self, capsys, tmp_path, extra):
        """The original and every re-checked pruned chain warn; stderr says it once."""
        policy = tmp_path / "chaser.json"
        policy.write_text(dump_policy(chaser_policy()))
        command = "sweep" if extra else "features"
        argv = [command, "--model", AVOID_URI, "--policy", str(policy), "--prop", 'P=? [G<=6 !"nosuch"]', *extra]
        assert main(argv) == 0
        warning = "warning: label 'nosuch' does not occur in the checked chain; treating it as the empty set\n"
        assert capsys.readouterr().err == warning


# ===== --timings =====


class TestTimings:
    SLEEP_S = 0.05

    @pytest.fixture
    def slow_check(self, monkeypatch):
        real = workflow.check

        def slow(dtmc, prop):
            time.sleep(self.SLEEP_S)
            return real(dtmc, prop)

        monkeypatch.setattr(workflow, "check", slow)

    def test_check_time_covers_the_solve(self, capsys, slow_check, lazy_policy_path):
        argv = ["check", "--model", AVOID_URI, "--policy", lazy_policy_path, "--prop", NO_COLLISION_6, "--json"]
        assert main([*argv, "--timings"]) == 0
        assert json.loads(capsys.readouterr().out)["dtmc"]["time_ms"] >= 1000 * self.SLEEP_S
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["dtmc"]["time_ms"] == 0

    def test_rebuilt_sweep_row_time_covers_its_check(self, capsys, slow_check, lazy_policy_path):
        # Zeroing the walker's one weight flips its actions, so the row is re-checked.
        argv = [
            "sweep", "--model", AVOID_URI, "--policy", lazy_policy_path,
            "--prop", NO_COLLISION_6, "--method", "l1", "--layer", "1", "--fractions", "1:1:1",
        ]
        assert main([*argv, "--timings"]) == 0
        assert float(capsys.readouterr().out.splitlines()[1].split(",")[-1]) >= 1000 * self.SLEEP_S
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "0"


# ===== validate =====


class TestValidate:
    def test_clean_model(self, capsys):
        code = main(["validate", "--model", CHAIN3])
        out = capsys.readouterr().out
        assert code == 0
        assert "states: 3" in out
        assert "ok" in out

    def test_violations_exit_three(self, capsys, tmp_path):
        doc = fixture_doc("loop.json")
        doc["states"].append({"s": [5], "act": {"step": [{"to": [5], "p": 1}]}})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--model", str(path)])
        out = capsys.readouterr().out
        assert code == 3
        assert "violation:" in out

    def test_json_violations(self, capsys, tmp_path):
        doc = fixture_doc("loop.json")
        doc["states"].append({"s": [5], "act": {"step": [{"to": [5], "p": 1}]}})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--model", str(path), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        # The walk counts reachable states only; [5] shows up as a violation.
        assert report["states"] == 2
        assert report["violations"]



# Outputs of the state-by-state walk, captured before builtins were walked
# level by level: the same bytes, and the same error at the same cap.
VALIDATE_GOLDENS = [
    ("validate_avoidance.json", "builtin:avoidance?width=6&height=6&obstacle_move_prob=1/3", ["--json"]),
    ("validate_mini_taxi.json", "builtin:mini_taxi", ["--json"]),
    ("validate_unreachable.json", str(FIXTURES / "unreachable.json"), ["--json"]),
    ("validate_unreachable.txt", str(FIXTURES / "unreachable.json"), []),
]


@pytest.mark.parametrize("golden, model, flags", VALIDATE_GOLDENS, ids=[g for g, _, _ in VALIDATE_GOLDENS])
def test_validate_bytes(capsys, golden, model, flags):
    code = main(["validate", "--model", model, *flags])
    captured = capsys.readouterr()
    assert code == (3 if "unreachable" in golden else 0)
    assert captured.out == (FIXTURES / "golden" / golden).read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("model", VALIDATE_GOLDENS[0][1:2] + VALIDATE_GOLDENS[1][1:2])
def test_validate_state_cap_line(capsys, model):
    assert main(["validate", "--model", model, "--max-states", "10"]) == 4
    assert capsys.readouterr() == ("", "error: reachable state count exceeds max_states=10\n")


# ===== export-dtmc =====


class TestExportDtmc:
    def test_round_trip(self, capsys, step_policy_path):
        code = main(["export-dtmc", "--model", CHAIN3, "--policy", step_policy_path])
        out = capsys.readouterr().out
        assert code == 0
        env = load_explicit_model(out)
        assert env.action_schema == ("pi",)
        assert env.initial == (0,)

    def test_out_file(self, capsys, tmp_path, step_policy_path):
        out = tmp_path / "chain.json"
        code = main(["export-dtmc", "--model", CHAIN3, "--policy", step_policy_path, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["actions"] == ["pi"]

    def test_an_exact_chain_exports_its_fractions(self, capsys, tmp_path, step_policy_path):
        # Written as floats, the export would take the float solvers and read
        # P>=0.25 as undecided; its fraction strings keep the exact 1/4.
        model, chain, pi = tmp_path / "gambler.json", tmp_path / "chain.json", tmp_path / "pi.json"
        model.write_text(gambler_text())
        pi.write_text(dump_policy(make_policy(("pos",), ("pi",), [(np.zeros((1, 1)), np.zeros(1))])))
        assert main(["export-dtmc", "--model", str(model), "--policy", step_policy_path, "--out", str(chain)]) == 0
        assert json.loads(chain.read_text())["states"][0]["act"]["pi"] == [
            {"to": [11], "p": "1/2"},
            {"to": [9], "p": "1/2"},
        ]
        assert main(["check", "--model", str(chain), "--policy", str(pi), "--prop", 'P>=0.25 [F "goal"]']) == 0
        assert "m: 0.25\nsatisfied: yes\n" in capsys.readouterr().out


# ===== parser =====


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    SUBCOMMAND_ARGS = {
        "check": ["--model", CHAIN3, "--policy", "p.json", "--prop", 'P=? [F "goal"]'],
        "prune": ["--policy", "p.json", "--method", "l1", "--layer", "1", "--fraction", "0.5"],
        "sweep": [
            "--model", CHAIN3, "--policy", "p.json", "--prop", 'P=? [F "goal"]',
            "--method", "l1", "--layer", "1", "--fractions", "0:1:1",
        ],
        "features": ["--model", CHAIN3, "--policy", "p.json", "--prop", 'P=? [F "goal"]'],
        "validate": ["--model", "builtin:avoidance?width=1&height=1"],
        "export-dtmc": ["--model", CHAIN3, "--policy", "p.json"],
    }

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", sorted(set(SUBCOMMAND_ARGS) - {"prune"}))
    def test_state_cap_below_one_is_a_parse_error(self, capsys, command, cap):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.SUBCOMMAND_ARGS[command], "--max-states", cap])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --max-states: must be at least 1, got {cap}" in captured.err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("prune", "--max-states=7"),
            ("prune", "--json"),
            ("prune", "--timings"),
            ("validate", "--timings"),
            ("check", "--lower-is-safer"),
            ("sweep", "--json"),
            ("export-dtmc", "--json"),
            ("export-dtmc", "--timings"),
        ],
    )
    def test_flags_the_handler_does_not_read_are_usage_errors(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.SUBCOMMAND_ARGS[command], flag])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_state_cap_keeps_the_integer_wording(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *self.SUBCOMMAND_ARGS["validate"], "--max-states", "x"])
        assert exc.value.code == 2
        assert "argument --max-states: invalid int value: 'x'" in capsys.readouterr().err

    def test_state_cap_of_one_walks_one_state(self, capsys):
        assert main(["validate", *self.SUBCOMMAND_ARGS["validate"], "--max-states", "1"]) == 0
        assert capsys.readouterr().out == "states: 1\ntransitions: 1\nok\n"
