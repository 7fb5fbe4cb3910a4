"""Every name the package exports or defines has a reader inside the package."""

import ast
import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "ellsixj"

# exported names no package module reads, each kept for a stated reason
UNREAD_EXPORTS = {
    "BACKEND": "perfbench/run.py records it as the kernel backend of a run",
    "sample_generic": "perfbench draws its workload inputs with it",
    "IDENTITY_COVERAGE": "the README's map of each checked identity to its suite",
    "elliptic_W6j": "its normalization is still to be checked against the face weights",
    "band_quad": "the band support of elliptic_W6j, kept until that check",
}

# definitions no package module reads beyond the unread exports
UNREAD_DEFINITIONS = {
    "__version__": "the package version, for whoever imports it",
}


def _exported() -> set:
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _definitions() -> list:
    """(module, name) of every module-level function, class and assigned
    name, and of every method other than a dunder, in the package."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                found += [
                    (path.name, name.id)
                    for target in getattr(node, "targets", None) or [node.target]
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.name, method.name)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not re.fullmatch("__.*__", method.name)
                ]
    return found


def _readers() -> dict:
    """Map each name loaded in a package module to the definitions enclosing
    each of its loads.  Bare names and attribute names both count."""
    readers = {}

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            readers.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            readers.setdefault(node.attr, []).append(enclosing)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for path in sorted(PKG.glob("*.py")):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), frozenset())
    return readers


def _read(name: str, readers: dict) -> bool:
    """Whether name is loaded anywhere outside its own definition."""
    return any(name not in enclosing for enclosing in readers.get(name, ()))


def test_every_export_has_a_reader():
    readers = _readers()
    unread = sorted(
        name for name in _exported() - set(UNREAD_EXPORTS) if not _read(name, readers)
    )
    assert not unread, unread


def test_every_definition_has_a_reader():
    readers = _readers()
    unread = sorted(
        f"{module}: {name}"
        for module, name in _definitions()
        if name not in {*UNREAD_EXPORTS, *UNREAD_DEFINITIONS}
        and not _read(name, readers)
    )
    assert not unread, unread


def test_exceptions_are_still_exported_and_unread():
    # an exception that gains a reader, or leaves the surface, is stale
    readers, exported = _readers(), _exported()
    defined = {name for _, name in _definitions()}
    for name in UNREAD_EXPORTS:
        assert name in exported, name
        assert not _read(name, readers), name
    for name in UNREAD_DEFINITIONS:
        assert name in defined, name
        assert not _read(name, readers), name
