"""Package `__all__` lists name only what something outside the package imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = sorted(
    init.parent.name for init in (SRC / "symdrift").glob("*/__init__.py")
)


def _imported_module(node: ast.ImportFrom, path: Path, top: Path) -> str:
    """The absolute module a `from ... import` statement in `path` reads
    from; `top` is the directory its top-level package sits in."""
    if not node.level:
        return node.module or ""
    package = list(path.relative_to(top).parent.parts)
    base = package[:len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _imports_from_outside(package: str) -> set[str]:
    """Names imported from `symdrift.<package>` by tests, perfbench and the
    rest of `src/`; the package's own modules do not count."""
    inside = SRC / "symdrift" / package
    names: set[str] = set()
    for folder, top in ((SRC, SRC), (ROOT / "tests", ROOT), (ROOT / "perfbench", ROOT)):
        for path in folder.rglob("*.py"):
            if inside in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.ImportFrom)
                        and _imported_module(node, path, top) == f"symdrift.{package}"):
                    names.update(alias.name for alias in node.names)
    return names


def _declared_all(package: str) -> list[str]:
    tree = ast.parse((SRC / "symdrift" / package / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_reexport_is_imported_from_outside(package):
    unused = sorted(set(_declared_all(package)) - _imports_from_outside(package))
    assert not unused, f"symdrift.{package}.__all__ names what nothing imports: {unused}"
