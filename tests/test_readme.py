"""The README's examples run as written and meet the figures it states."""

import ast
import re
import shlex
from pathlib import Path

from ellsixj.cli import run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
CLI_PREFIX = "python3 -m ellsixj.cli "


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_lines(title: str) -> list:
    return [
        line for line in _section(title).splitlines() if line.startswith(CLI_PREFIX)
    ]


def test_readme_command_lines_exit_zero(capsys):
    # `verify --suite all` takes about 4 s; its biorth line stands in for it
    lines = _cli_lines("command line") + [
        line for line in _cli_lines("verification") if "--suite all" not in line
    ]
    assert len(lines) == 6
    for line in lines:
        code = run_command(shlex.split(line[len(CLI_PREFIX):]))
        err = capsys.readouterr().err
        assert code == 0, (line, err)


def test_readme_quick_start_meets_its_stated_bounds():
    block = _section("quick start").split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    scope = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
        bound = float(re.search(r"# below ([0-9.e+-]+)", lines[node.lineno - 1])[1])
        assert value < bound, lines[node.lineno - 1]
        checked += 1
    assert checked == 2
