"""Every defaulted parameter in `src/` is one the toolkit itself passes.

A default that no call in `src/` overrides is a setting only tests turn, and
the toolkit always runs with its default: the parameter is dead weight, or
it hides a behaviour the shipped code never gets. `ast` finds every `def` in
`src/` with a defaulted parameter and every call in `src/`. Calls are matched
to definitions by name alone (`f(...)` and `obj.f(...)` both reach every
`def f`), and a class name reaches its `__init__` and `__new__`. A call
passes a parameter by keyword, by position (after `self` or `cls` for a
method), or through `*args` (every positional parameter) or `**kwargs`
(every parameter). Each parameter no call passes must be named in
`ALLOWLIST` with a reason. An entry whose parameter is gone, or that a call
now passes, is stale and fails the test, so the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symdrift"

ALLOWLIST = {
    "harness/cli.py:main(argv)":
        "the console script calls it with no arguments; tests pass an argv",
    "harness/client.py:HttpChatClient.__init__(sleeper)":
        "a fake clock, so tests of the retry back-off do not sleep",
    "harness/evaluate.py:run_evaluation(workers)":
        "the benchmark's two-worker job passes it",
    "solver/resolution.py:prove_resolution(max_steps)":
        "the engine's search bound; tests lower it to drive limit hits",
}


class Defaulted(NamedTuple):
    name: str  # `file:qualname(parameter)`
    callees: tuple[str, ...]  # the names a call uses: the function's, and its class's
    index: int | None  # position among the call's arguments; None if keyword-only
    parameter: str


class Call(NamedTuple):
    callee: str
    positional: int
    keywords: frozenset[str]
    star: bool  # `*args`: every positional parameter may be passed
    double_star: bool  # `**kwargs`: every parameter may be passed


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, module: str, qualname: str,
               class_name: str | None) -> list[Defaulted]:
    args = fn.args
    positional = args.posonlyargs + args.args
    decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
    # A call on an instance or class binds `self`/`cls` itself.
    skip = 1 if class_name is not None and "staticmethod" not in decorators else 0
    callees = (fn.name,)
    if class_name is not None and fn.name in ("__init__", "__new__"):
        callees += (class_name,)
    first_default = len(positional) - len(args.defaults)
    out = [Defaulted(f"{module}:{qualname}({arg.arg})", callees, i - skip, arg.arg)
           for i, arg in enumerate(positional[first_default:], first_default)]
    out += [Defaulted(f"{module}:{qualname}({arg.arg})", callees, None, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def scan(package: Path = PACKAGE) -> tuple[list[Defaulted], list[Call]]:
    """Every defaulted parameter under `package`, and every call."""
    defaulted: list[Defaulted] = []
    calls: list[Call] = []

    def visit(node: ast.AST, module: str, prefix: str, class_name: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                defaulted.extend(_defaulted(child, module, qualname, class_name))
                visit(child, module, qualname + ".", None)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                callee = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if callee is not None:
                    calls.append(Call(
                        callee,
                        sum(1 for a in child.args if not isinstance(a, ast.Starred)),
                        frozenset(k.arg for k in child.keywords if k.arg is not None),
                        any(isinstance(a, ast.Starred) for a in child.args),
                        any(k.arg is None for k in child.keywords)))
            visit(child, module, prefix, class_name)

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "", None)
    return defaulted, calls


def _passes(call: Call, param: Defaulted) -> bool:
    if call.callee not in param.callees:
        return False
    if call.double_star or param.parameter in call.keywords:
        return True
    return param.index is not None and (call.star or param.index < call.positional)


def never_passed(defaulted: list[Defaulted], calls: list[Call],
                 allowlist: dict[str, str]) -> tuple[list[str], list[str]]:
    """The defaulted parameters no call passes and no entry allows, and the
    stale allowlist entries: those whose parameter is gone or is passed."""
    unpassed = {d.name for d in defaulted if not any(_passes(c, d) for c in calls)}
    missing = sorted(unpassed - set(allowlist))
    stale = sorted(name for name in allowlist if name not in unpassed)
    return missing, stale


def test_every_defaulted_parameter_is_passed_or_allowlisted():
    missing, stale = never_passed(*scan(), ALLOWLIST)
    assert not missing and not stale, \
        f"no call in src/ passes: {missing}; stale allowlist entries: {stale}"


def test_the_checker_reports_what_it_should(tmp_path):
    """A parameter no call passes is reported; an entry for a parameter that
    a call passes, or that is gone, is stale. Calls by keyword, position
    after `self`, class name and `*`/`**` each count as passing."""
    (tmp_path / "mod.py").write_text(
        "def lone(a, b=1):\n"
        "    return a\n"
        "def by_keyword(a, b=1):\n"
        "    return a\n"
        "def by_star(a, b=1, *, c=2):\n"
        "    return a\n"
        "class Box:\n"
        "    def __init__(self, a, b=1):\n"
        "        self.a = a\n"
        "    def get(self, key=None):\n"
        "        return key\n"
        "lone(1)\n"
        "by_keyword(1, b=2)\n"
        "by_star(*[1, 2], **{})\n"
        "Box(1, 2).get(0)\n",
        encoding="utf-8")
    defaulted, calls = scan(tmp_path)
    assert never_passed(defaulted, calls, {}) == (["mod.py:lone(b)"], [])
    allowed = {"mod.py:lone(b)": "reason", "mod.py:Box.get(key)": "reason",
               "mod.py:gone(x)": "reason"}
    assert never_passed(defaulted, calls, allowed) == \
        ([], ["mod.py:Box.get(key)", "mod.py:gone(x)"])
    # The real tree: a dropped entry is reported again, a new one is stale.
    defaulted, calls = scan()
    entry = sorted(ALLOWLIST)[0]
    assert never_passed(defaulted, calls, {k: v for k, v in ALLOWLIST.items() if k != entry}) \
        == ([entry], [])
    assert never_passed(defaulted, calls, {**ALLOWLIST, "harness/cli.py:main(seed)": "reason"}) \
        == ([], ["harness/cli.py:main(seed)"])
