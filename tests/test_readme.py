"""The README's examples name things the program knows and print what they show."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from prunecheck import cli, from_uri, load_explicit_model, load_mask, load_policy

README = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text(encoding="utf-8")

BUILTIN_URIS = sorted(set(re.findall(r"builtin:\w+(?:\?[^\s\"'`]*)?", README)))


def test_readme_names_builtin_uris():
    assert {"builtin:avoidance", "builtin:mini_taxi"} <= {uri.split("?")[0] for uri in BUILTIN_URIS}


@pytest.mark.parametrize("uri", BUILTIN_URIS)
def test_builtin_uri_loads(uri):
    env = from_uri(uri)
    assert env.available_actions(env.initial)


# ===== JSON blocks =====

JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README, re.DOTALL)

# The reader of each documented format, keyed by its top-level keys.
LOADERS = {
    frozenset({"features", "actions", "initial", "states"}): load_explicit_model,
    frozenset({"features", "actions", "layers"}): load_policy,
    frozenset({"spec", "zeroed"}): load_mask,
}


def test_readme_documents_every_input_format():
    assert {frozenset(json.loads(block)) for block in JSON_BLOCKS} == set(LOADERS)


@pytest.mark.parametrize("block", [pytest.param(block, id=f"block{i}") for i, block in enumerate(JSON_BLOCKS)])
def test_json_block_loads_through_its_reader(block):
    keys = frozenset(json.loads(block))
    assert keys in LOADERS, f"no reader takes the keys {sorted(keys)}"
    LOADERS[keys](block)


# ===== Console blocks =====

WALKER = re.search(r"`walker\.json`.*?```json\n(.*?)```", README, re.DOTALL).group(1)


def console_blocks() -> list[tuple[str, str]]:
    """(command, printed output) of each ```console block, continuation lines joined."""
    blocks = []
    for body in re.findall(r"```console\n(.*?)```", README, re.DOTALL):
        lines = body.splitlines()
        assert lines[0].startswith("$ "), body
        command = [lines[0][2:]]
        rest = lines[1:]
        while command[-1].endswith("\\"):
            command[-1] = command[-1][:-1]
            command.append(rest.pop(0))
        blocks.append((" ".join(part.strip() for part in command), "".join(line + "\n" for line in rest)))
    return blocks


def test_readme_shows_every_console_command():
    assert sorted(shlex.split(command)[1] for command, _ in console_blocks()) == [
        "check",
        "features",
        "sweep",
        "validate",
    ]


@pytest.mark.parametrize(
    "command, printed",
    [pytest.param(command, printed, id=shlex.split(command)[1]) for command, printed in console_blocks()],
)
def test_console_block_prints_what_it_shows(command, printed, tmp_path, monkeypatch, capsys):
    (tmp_path / "walker.json").write_text(WALKER, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    assert argv[0] == "prunecheck"
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out == printed
