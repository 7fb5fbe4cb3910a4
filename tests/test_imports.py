"""Every module uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# modules whose imports are their public surface
REEXPORTING = {"__init__.py", "backend.py"}


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {n})" for name, n in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [p for top in ("src", "tests") for p in sorted((ROOT / top).rglob("*.py"))]
    assert modules
    unused = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if path.name not in REEXPORTING and (names := _unused_imports(path))
    }
    assert not unused, unused
