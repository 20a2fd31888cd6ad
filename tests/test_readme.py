"""The README's examples name things the program knows."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from prunecheck import from_uri

README = Path(__file__).resolve().parent.parent / "README.md"

BUILTIN_URIS = sorted(set(re.findall(r"builtin:\w+(?:\?[^\s\"'`]*)?", README.read_text(encoding="utf-8"))))


def test_readme_names_builtin_uris():
    assert {"builtin:avoidance", "builtin:mini_taxi"} <= {uri.split("?")[0] for uri in BUILTIN_URIS}


@pytest.mark.parametrize("uri", BUILTIN_URIS)
def test_builtin_uri_loads(uri):
    env = from_uri(uri)
    assert env.available_actions(env.initial)
