"""Every library name has a caller outside the tests.

The package's functions, classes and non-dunder methods are read from
src/cgmt with ast.  Each must be referenced somewhere a command or the
benchmark reaches: in src/cgmt outside its own definition (by name or
attribute), or in perfbench/ or tools/ (by name, attribute or string
constant, since the tracer binds names by string).  A name that only tests
call is library code kept for inputs that never arrive; delete it or give
it a caller.  The match is by bare name, so it can miss dead code whose
name is reused, but it never flags live code.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cgmt"
CALLERS = (ROOT / "perfbench", ROOT / "tools")

ALLOWED = {
    # reference routes: independent of the code they check, so no command calls them
    "verify_marking_cover",
    "decode_range_via_baire",
}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level def/class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree: ast.AST, strings: bool):
    """(name, line) of every name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreferenced() -> list[str]:
    modules = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    outside: set[str] = set()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            outside.update(name for name, _ in _references(_parse(path), strings=True))
    inside: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in modules.items():
        for name, line in _references(tree, strings=False):
            inside.setdefault(name, []).append((path, line))
    missing = []
    for path, tree in modules.items():
        for name, first, last in _definitions(tree):
            if name in ALLOWED or name in outside:
                continue
            if any(
                not (other == path and first <= line <= last)
                for other, line in inside.get(name, ())
            ):
                continue
            missing.append(f"{path.name}:{first} {name}")
    return missing


def test_every_library_name_has_a_caller():
    assert unreferenced() == []


def test_allowed_names_still_exist():
    defined = {
        name for path in PACKAGE.glob("*.py") for name, _, _ in _definitions(_parse(path))
    }
    assert ALLOWED <= defined
