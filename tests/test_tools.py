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
        assert fingerprint.main(["routes", "band"]) == 0
        lines.append(capsys.readouterr().out)
    routes, band = [line.split() for line in lines[0].splitlines()]
    assert (*routes[:2], len(routes[2])) == ("routes", "360", 64)
    assert (*band[:2], len(band[2])) == ("band", "288", 64)
    assert lines[1] == lines[0]
