"""Every `def` in `src/` is called by the toolkit's own run.

A tour of the toolkit runs in a fresh interpreter: every subcommand, every
translator and engine, one run per error path, and the `llm` lane through
the test double. A profiler is installed before `symdrift` is imported, so
calls made while a module loads count too. Each `def` that `ast` finds in
`src/` (methods, properties and nested functions included, keyed by file and
first line) must have been called, or be named in `ALLOWLIST` with a reason.
A `def` whose body is only a docstring and/or `...` (a Protocol method) is
exempt. An allowlist entry whose function is gone, or that the tour now
reaches, is stale and fails the test, so the list can only shrink.

Run as a script, `python tests/test_reachability.py WORKDIR OUT` is that
tour: it writes its tiny inputs under WORKDIR and the (file, first line) of
every function it called to OUT as JSON.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symdrift"

ALLOWLIST = {
    "diversify/pipeline.py:CandidatePool.__len__":
        "only the benchmark's tracer calls it, to count each lazy pool; "
        "ROADMAP item 15 drops that call",
    "harness/client.py:HttpChatClient.complete":
        "it opens a socket, and no test may; ROADMAP item 8's replay client "
        "is the offline path that reaches the reply parsers instead",
}

FunctionKey = tuple[str, int]  # (file relative to the package, first line)


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """The body is only a docstring and/or `...`."""
    return all(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
               and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
               for stmt in node.body)


def function_inventory(package: Path = PACKAGE) -> dict[FunctionKey, str]:
    """Every non-stub `def` under `package`, as `file:qualname`. A code
    object's first line is its first decorator's, so the key uses it too."""
    out: dict[FunctionKey, str] = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not _is_stub(child):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(module, first)] = f"{module}:{qualname}"
                visit(child, module, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "")
    return out


def unreached(inventory: dict[FunctionKey, str], reached: set[FunctionKey],
              allowlist: dict[str, str]) -> tuple[list[str], list[str]]:
    """The functions neither reached nor allowlisted, and the stale allowlist
    entries: those whose function is gone or was reached."""
    names = set(inventory.values())
    reached_names = {name for key, name in inventory.items() if key in reached}
    missing = sorted(name for key, name in inventory.items()
                     if key not in reached and name not in allowlist)
    stale = sorted(name for name in allowlist if name not in names or name in reached_names)
    return missing, stale


# ---------------------------------------------------------------------------
# The tour


def _rows(path: str, *rows: dict) -> None:
    Path(path).write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _problem(id: str, sentences: list[str], question: str, answer="true",
             task_kind="proofwriter", **fields) -> dict:
    return {"id": id, "sentences": sentences, "question": question, "answer": answer,
            "task_kind": task_kind, **fields}


def tour(workdir: Path) -> None:
    import contextlib
    import io

    from symdrift.harness import cli
    from symdrift.harness.client import HttpChatClient

    from tests.helpers import StubClient

    os.chdir(workdir)

    def run(expected: int, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
        assert code == expected, f"{argv}: exit {code}, expected {expected}\n{out.getvalue()}"

    def write(path: str, text: str) -> None:
        Path(path).write_text(text, encoding="utf-8")

    # Generation: the default world, and the small Herbrand domain that model
    # enumeration decides quickly.
    run(0, "generate", "--n", "12", "--seed", "1", "--out", "p.jsonl")
    write("oracle.cfg", "synthetic.n_constants = 3\nsynthetic.n_predicates = 5\n"
                        "synthetic.depth = 3\n")
    run(0, "generate", "--n", "3", "--seed", "1", "--config", "oracle.cfg",
        "--out", "small.jsonl")

    # Diversification: full, by sentence count, with the vector scorer, and a
    # repeated plural noun whose synonyms are inflected to match it.
    run(0, "diversify", "--in", "p.jsonl", "--intensity", "full", "--seed", "1",
        "--out", "d.jsonl")
    run(0, "diversify", "--in", "p.jsonl", "--intensity", "2", "--out", "d2.jsonl")
    write("vectors.txt", "anne 1 0\nkind 0 1\n")
    write("vectors.cfg", "resources.vectors = vectors.txt\n")
    run(0, "diversify", "--in", "p.jsonl", "--scorer", "vectors", "--config", "vectors.cfg",
        "--out", "dv.jsonl")
    _rows("plural.jsonl", _problem("plural", ["Anne teaches students.", "Bob helps students."],
                                   "Do students smile?"))
    run(0, "diversify", "--in", "plural.jsonl", "--out", "dp.jsonl")

    # Evaluation: every offline translator, and gold on every engine.
    for name, flags in (("off", ("--translator", "naive", "--mental", "off")),
                        ("on", ("--translator", "naive", "--mental", "on")),
                        ("split", ("--translator", "split-adversary",))):
        run(0, "evaluate", "--in", "d.jsonl", *flags, "--out", f"run-{name}")
    run(0, "evaluate", "--in", "p.jsonl", "--translator", "naive", "--out", "run-plain")
    for solver, source in (("cwa", "p.jsonl"), ("resolution", "p.jsonl"),
                           ("enumerate", "small.jsonl")):
        run(0, "evaluate", "--in", source, "--translator", "gold", "--solver", solver,
            "--out", f"run-{solver}")
    _rows("exists.jsonl", _problem(
        "exists", ["Some student is kind.", "All kind people are smart."],
        "Is some student smart?", task_kind="folio", gold_concepts=[],
        gold_logic={"premises": ["exists x (Student(x) & Kind(x))",
                                 "all x (Kind(x) -> Smart(x))"],
                    "query": "exists x (Student(x) & Smart(x))", "mode": "open_world"}))
    run(0, "evaluate", "--in", "exists.jsonl", "--translator", "gold",
        "--solver", "resolution", "--out", "run-exists")

    # The stages one at a time, and the readers of a finished run.
    run(0, "translate", "--in", "d.jsonl", "--translator", "naive", "--out", "t.jsonl")
    run(0, "solve", "--records", "t.jsonl", "--problems", "d.jsonl", "--out", "s.jsonl")
    run(0, "sds", "--records", "s.jsonl")
    run(0, "sweep", "--in", "p.jsonl", "--translator", "naive", "--mental", "on",
        "--levels", "0,1.0", "--out", "curve.csv")
    run(0, "compare", "--before", "run-off", "--after", "run-on")
    run(0, "export-sft", "--run", "run-on", "--out", "sft.jsonl")

    # One run per error path.
    write("bad.jsonl", "{not json\n")
    run(2, "evaluate", "--in", "bad.jsonl", "--out", "run-bad")
    for name, premises in (("syntax", ["Kind(Anne"]),
                           ("arity", ["Kind(Anne)", "Kind(Anne, Bob)"]),
                           ("horn", ["~Kind(Anne)"])):
        _rows(f"{name}.jsonl", _problem(name, ["Anne is kind."] * len(premises),
                                        "Is Anne kind?", gold_logic={
                                            "premises": premises, "query": "Kind(Anne)",
                                            "mode": "closed_world"}))
        run(2, "evaluate", "--in", f"{name}.jsonl", "--out", f"run-{name}")
    # One malformed line of each row kind, refused by the shape checker.
    _rows("bad-problem.jsonl", _problem("bad", "Anne is kind.", "Is Anne kind?"))
    run(2, "evaluate", "--in", "bad-problem.jsonl", "--out", "run-bad-problem")
    diversified = json.loads(Path("d.jsonl").read_text(encoding="utf-8").splitlines()[0])
    _rows("bad-diversified.jsonl", {**diversified, "provenance": {"kind": [[0, 1]]}})
    run(2, "evaluate", "--in", "bad-diversified.jsonl", "--out", "run-bad-diversified")
    record = json.loads(Path("s.jsonl").read_text(encoding="utf-8").splitlines()[0])
    _rows("bad-records.jsonl", {**record, "alignment": {"kind": "ab"}})
    run(2, "sds", "--records", "bad-records.jsonl")
    Path("run-bad-traces").mkdir()
    _rows("run-bad-traces/traces.jsonl", {"correct": True, "table": "", "program": "p"})
    run(2, "export-sft", "--run", "run-bad-traces", "--out", "bad-sft.jsonl")
    os.environ.pop("SYMDRIFT_LLM_ENDPOINT", None)
    run(3, "evaluate", "--in", "p.jsonl", "--translator", "llm", "--out", "run-remote")
    run(1, "frobnicate")

    # The llm lane, with the test double where the endpoint client would be.
    # The real client is built but never called: its `complete` opens a socket.
    HttpChatClient("http://localhost:1/unused")
    os.environ["SYMDRIFT_LLM_ENDPOINT"] = "http://localhost:1/unused"

    def llm(client: StubClient, *argv: str) -> None:
        cli.HttpChatClient = lambda endpoint, key: client
        run(0, *argv)

    _rows("kind.jsonl", _problem("kind", ["Anne is kind."], "Is Anne kind?"))
    llm(StubClient(["```\npremise: Kind(Anne)\nquery: Kind(Anne)\n```"]),
        "evaluate", "--in", "kind.jsonl", "--translator", "llm", "--out", "run-llm")
    # A refined fact is not Horn in the closed world, so these are open-world.
    _rows("shows.jsonl", *(_problem(f"show{i}", ["Idol is a popular show.", "Gala is a show."],
                                    "Is Idol a show?", task_kind="folio") for i in (1, 2)))
    llm(StubClient([
        "```\nunit 0: Slot0(Idol) | popular show\nunit 1: Slot0(Gala) | show\n"
        "query: Slot0(Idol) | show\n```",
        "```\nunit 0: Slot0(Gala) | show\nunit 1: Slot0(Idol) | popular show\n"
        "query: Slot0(Idol) | show\n```"]),
        "evaluate", "--in", "shows.jsonl", "--translator", "llm", "--mental", "on",
        "--out", "run-llm-mental")
    write("llm-oracle.cfg", "translator.oracle = llm\n")
    _rows("chain.jsonl", _problem("chain", ["Anne is kind.", "All kind people are smart."],
                                  "Is Anne smart?"))
    llm(StubClient(responder=lambda prompt: "no"),
        "evaluate", "--in", "chain.jsonl", "--translator", "naive", "--mental", "on",
        "--config", "llm-oracle.cfg", "--out", "run-llm-oracle")
    _rows("books.jsonl", _problem(
        "books", ["The red book is left of the blue book."], "Which option is right?",
        answer=0, task_kind="deduction", options=["Red at 1", "Blue at 1"]))
    llm(StubClient(["```\nobjects: Red, Blue\nconstraint: LeftOf(Red, Blue)\n"
                    "option 0: Red at 1\noption 1: Blue at 1\n```"]),
        "evaluate", "--in", "books.jsonl", "--translator", "llm", "--out", "run-books")
    run(0, "solve", "--records", "run-books/records.jsonl", "--problems", "books.jsonl",
        "--out", "books-solved.jsonl")


def _profile_tour(workdir: Path, out: Path) -> None:
    """Run the tour with every function call recorded, and write the calls
    into `src/` to `out`."""
    calls: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        tour(workdir)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = []
    for filename, line in calls:
        path = Path(filename).resolve()
        if PACKAGE in path.parents:
            reached.append([path.relative_to(PACKAGE).as_posix(), line])
    out.write_text(json.dumps(sorted(reached)), encoding="utf-8")


# ---------------------------------------------------------------------------
# The tests


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[FunctionKey]:
    """What the tour called, run once in a fresh interpreter."""
    workdir = tmp_path_factory.mktemp("tour")
    out = workdir / "reached.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, __file__, str(workdir), str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {(module, line) for module, line in json.loads(out.read_text(encoding="utf-8"))}


def test_every_function_is_reached_or_allowlisted(reached):
    missing, stale = unreached(function_inventory(), reached, ALLOWLIST)
    assert not missing and not stale, \
        f"never called by the tour: {missing}; stale allowlist entries: {stale}"


def test_the_checker_reports_what_it_should(reached):
    """With one reached function taken out of what the tour called, that
    function is reported; an allowlist entry for a reached function, or for
    one that is gone, is reported as stale."""
    inventory = function_inventory()
    missing, stale = unreached(inventory, reached, ALLOWLIST)
    key, name = next((k, n) for k, n in sorted(inventory.items()) if k in reached)
    assert unreached(inventory, reached - {key}, ALLOWLIST) == (sorted(missing + [name]), stale)
    for entry in (name, "harness/client.py:StubClient.complete"):
        assert unreached(inventory, reached, {**ALLOWLIST, entry: "reason"}) == \
            (missing, sorted(stale + [entry]))


def test_the_inventory_keys_stubs_decorators_and_nesting():
    inventory = function_inventory()
    names = set(inventory.values())
    assert "harness/translators.py:SplitAdversaryTranslator.translate.per_surface_symbol" \
        in names
    assert "mental/oracles.py:EquivalenceOracle.equiv" not in names  # `...` only
    assert "mental/oracles.py:EquivalenceOracle.conflict" not in names  # docstring and `...`
    source = (PACKAGE / "mental" / "table.py").read_text(encoding="utf-8").splitlines()
    [(module, line)] = [key for key, name in inventory.items()
                        if name == "mental/table.py:MentalTable.renderings"]
    assert source[line - 1].strip() == "@cached_property"


if __name__ == "__main__":
    _profile_tour(Path(sys.argv[1]), Path(sys.argv[2]))
