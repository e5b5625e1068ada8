"""Every name a module in `src/` imports is used in that module.

`harness/cli.py` keeps `evaluate_one` bound by name: the benchmark's
self-test checks that patching `harness.evaluate.evaluate_one` reaches it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symdrift"

ALLOWED = {("harness/cli.py", "evaluate_one")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including the names inside string
    annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for name, line in _imported_names(tree).items():
            if name not in used and (module, name) not in ALLOWED:
                unused.append(f"{module}:{line}: {name}")
    assert unused == []


def test_the_allowlisted_name_is_still_imported():
    tree = ast.parse((SRC / "harness" / "cli.py").read_text(encoding="utf-8"))
    assert "evaluate_one" in _imported_names(tree)
