"""The scripts under tools/ still run against the library."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_group_gives_the_same_digest_twice(capsys):
    fingerprint = _load("fingerprint")
    lines = []
    for _ in range(2):
        assert fingerprint.main(["routes"]) == 0
        lines.append(capsys.readouterr().out)
    name, count, digest = lines[0].split()
    assert (name, count, len(digest)) == ("routes", "360", 64)
    assert lines[1] == lines[0]
