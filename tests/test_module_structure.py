"""Modules are the API: names are imported from the module that defines them.

Every package `__init__.py` under `src/symdrift/` holds only its docstring, so
no package re-exports a name and no `__all__` list can go stale. A function
body imports nothing, except for the deliberate lazy imports in
`LAZY_IMPORTS`, each with its reason. No module outside `harness/` imports
`harness/`, the top of the pipeline. Every module imports on its own in a
fresh interpreter, so no import cycle hides behind a load order. No module
imports `dataclasses`: a value type is a named tuple or a slotted class,
which a start does not pay to generate code for. A failed translation
becomes a record in one place, `evaluate.translate_one`, besides the `llm`
translator's own and the reader of saved records (`PARSE_ERROR_RECORDS`).
The lexicons are loaded in one place, the CLI's `_resources`, so a run reads
the files its config names and no library function reads others.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symdrift"
PACKAGES = sorted(init.parent.name for init in SRC.glob("*/__init__.py"))
MODULES = sorted(
    ".".join(("symdrift", *path.relative_to(SRC).with_suffix("").parts))
    .removesuffix(".__init__")
    for path in SRC.rglob("*.py")
)

# (module, function, what it imports) -> why the import waits for the call.
LAZY_IMPORTS = {
    ("harness/client.py", "complete", "urllib.request"):
        "an offline run never loads the HTTP stack; it loads with the first request",
    ("harness/evaluate.py", "run_evaluation", "concurrent.futures.ThreadPoolExecutor"):
        "threads load only for a run with more than one worker",
    ("fol/terms.py", "_text", "symdrift.fol.render.render_formula"):
        "the renderer imports `terms`, so `terms` reads it at call time",
}

# (module, function) -> why it builds a record with a parse error.
PARSE_ERROR_RECORDS = {
    ("harness/evaluate.py", "translate_one"):
        "the one place a translation that raised becomes a record",
    ("harness/translators.py", "LLMTranslator.translate"):
        "a failed reply keeps its raw output and token counts",
    ("harness/serialize.py", "record_from_json"):
        "a saved record is read back as it was written",
}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _imported(module: str, node: ast.Import | ast.ImportFrom) -> list[str]:
    """The absolute dotted names an import statement in `module` reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        package = ["symdrift", *module.split("/")[:-1]]
        base = ".".join(package[:len(package) - node.level + 1] + ([base] if base else []))
    return [f"{base}.{alias.name}" for alias in node.names]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_init_is_docstring_only(package):
    tree = ast.parse((SRC / package / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None, \
        f"symdrift/{package}/__init__.py must hold only its docstring"


def test_no_module_declares_all():
    declared = [module for module, tree in _trees() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "__all__"]
    assert declared == []


def test_function_bodies_import_only_the_lazy_allowlist():
    found = set()
    for module, tree in _trees():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update((module, function.name, name)
                             for node in ast.walk(function)
                             if isinstance(node, (ast.Import, ast.ImportFrom))
                             for name in _imported(module, node))
    # Equal, not a subset: a lazy import that was hoisted leaves the list too.
    assert found == set(LAZY_IMPORTS)


def test_only_the_harness_imports_the_harness():
    upward = [f"{module}:{node.lineno}" for module, tree in _trees()
              if not module.startswith("harness/") for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and any(f"{name}.".startswith("symdrift.harness.")
                      for name in _imported(module, node))]
    assert upward == []


def _calls(node: ast.AST, scope: str = ""):
    """(qualified name of the innermost enclosing def, call) for every call
    under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, scope)


def test_parse_error_records_are_built_in_their_homes():
    found = set()
    for module, tree in _trees():
        for scope, call in _calls(tree):
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            if (callee in ("translation_record", "TranslationRecord")
                    and any(k.arg == "parse_error" for k in call.keywords)):
                found.add((module, scope))
    # Equal, not a subset: a home that stops building them leaves the list too.
    assert found == set(PARSE_ERROR_RECORDS)


def test_the_cli_alone_loads_the_lexicons():
    found = {(module, scope) for module, tree in _trees() for scope, call in _calls(tree)
             if isinstance(call.func, ast.Attribute) and call.func.attr == "load"
             and getattr(call.func.value, "id", None) == "Resources"}
    assert found == {("harness/cli.py", "_resources")}


def test_no_module_imports_dataclasses():
    found = [f"{module}:{node.lineno}" for module, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any(name.split(".")[0] == "dataclasses" for name in _imported(module, node))]
    assert found == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
