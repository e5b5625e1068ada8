"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions and methods listed in
`TARGETS`. A function bound elsewhere by `from ... import` is rebound in every
`symdrift.*` module that holds the same object; a method is patched on its
class. `Tracer.restore()` puts every original object back.

Each wrapped call records a span (name, start, end, parent span, problem id)
in flat in-memory arrays. The problem id comes from the argument of
`diversify_problem` or `evaluate_one`; nested spans inherit it. Hot helpers
whose issue-named metric is a call count only (`COUNTED`) get a counting
wrapper instead of a span, so the trace stays small. Self time is a span's
duration minus the durations of its direct children, which on one thread
are disjoint sub-intervals.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

# (span name, module, function or Class.method)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("textproc.tokenize", "symdrift.textproc", "tokenize"),
    ("textproc.lemmatize", "symdrift.textproc", "lemmatize"),
    ("textproc.content_lemmas", "symdrift.textproc", "content_lemmas"),
    ("problem.from_text", "symdrift.problem", "TextUnit.from_text"),
    ("problem.validate", "symdrift.problem", "DiversifiedProblem.validate"),
    ("diversify.diversify_problem", "symdrift.diversify.pipeline", "diversify_problem"),
    ("diversify.identify_repeated", "symdrift.diversify.concepts", "identify_repeated"),
    ("diversify.build_variants", "symdrift.diversify.variants", "build_variants"),
    ("diversify.rewrite", "symdrift.diversify.variants", "RuleRewriter.rewrite"),
    ("diversify.generate_candidates", "symdrift.diversify.pipeline", "generate_candidates"),
    ("diversify.score", "symdrift.diversify.similarity", "score_similarity"),
    ("diversify.assemble", "symdrift.diversify.pipeline", "assemble"),
    ("mental.process_expression", "symdrift.mental.translate", "process_expression"),
    ("mental.instantiate", "symdrift.mental.translate", "instantiate"),
    ("mental.oracle.equiv", "symdrift.mental.oracles", "LexiconOracle.equiv"),
    ("mental.oracle.conflict", "symdrift.mental.oracles", "LexiconOracle.conflict"),
    ("mental.oracle.equiv", "symdrift.mental.oracles", "LLMOracle.equiv"),
    ("mental.oracle.conflict", "symdrift.mental.oracles", "LLMOracle.conflict"),
    ("fol.parse_formula", "symdrift.fol.parser", "parse_formula"),
    ("fol.to_cnf", "symdrift.fol.cnf", "to_cnf"),
    ("solver.forward_chain_cwa", "symdrift.solver.chaining", "forward_chain_cwa"),
    ("solver.prove_resolution", "symdrift.solver.resolution", "prove_resolution"),
    ("solver.enumerate_models", "symdrift.solver.enumeration", "enumerate_models"),
    ("metrics.align_symbols", "symdrift.metrics.sds", "align_symbols"),
    ("metrics.compute_sds", "symdrift.metrics.sds", "compute_sds"),
    ("harness.generate_synthetic", "symdrift.harness.synthetic", "generate_synthetic"),
    ("harness.load_dataset", "symdrift.harness.datasets", "load_dataset"),
    ("harness.save_dataset", "symdrift.harness.datasets", "save_dataset"),
    ("harness.persist_run", "symdrift.harness.evaluate", "persist_run"),
    ("harness.evaluate_one", "symdrift.harness.evaluate", "evaluate_one"),
    ("harness.translate", "symdrift.harness.translators", "NaiveTranslator.translate"),
    ("harness.translate", "symdrift.harness.translators", "GoldTranslator.translate"),
    ("harness.translate", "symdrift.harness.translators", "SplitAdversaryTranslator.translate"),
    ("harness.translate", "symdrift.harness.translators", "LLMTranslator.translate"),
)

COUNTED: tuple[tuple[str, str, str], ...] = (
    ("solver.resolution.subsumes", "symdrift.solver.resolution", "subsumes"),
    ("solver.resolution.unify_atoms", "symdrift.solver.resolution", "unify_atoms"),
)

SOLVERS = ("forward_chain_cwa", "prove_resolution", "enumerate_models")
DECISIONS = ("extend", "reuse", "refine")


def _problem_id_of_problem(args) -> str:
    return args[0].id


def _problem_id_of_item(args) -> str:
    return args[0].problem.id


PROBLEM_IDS = {
    "diversify.diversify_problem": _problem_id_of_problem,
    "harness.evaluate_one": _problem_id_of_item,
}


def _after_solver(name):
    def hook(tracer, args, result):
        tracer.counters[f"{name}.steps"] += result.steps
        tracer.counters[f"{name}.limit_hits"] += int(result.limit_hit)
    return hook


def _after_process_expression(tracer, args, result):
    state, _ref = result
    tracer.counters[f"mental.decisions.{state.trace[-1].decision}"] += 1


def _after_generate_candidates(tracer, args, result):
    # The original is always first and is never scored.
    tracer.counters["diversify.kept"] += len(result) - 1


def _after_align_symbols(tracer, args, result):
    tracer.counters["metrics.alignment_misses"] += len(args[0].alignment_misses)


def _after_compute_sds(tracer, args, result):
    # One call per evaluation: the run's own dispersion figures.
    tracer.gauges["metrics.sds"] = result.value
    tracer.gauges["metrics.dropped_concepts"] = result.dropped_concepts


AFTER = {
    **{f"solver.{engine}": _after_solver(f"solver.{engine}") for engine in SOLVERS},
    "mental.process_expression": _after_process_expression,
    "diversify.generate_candidates": _after_generate_candidates,
    "metrics.align_symbols": _after_align_symbols,
    "metrics.compute_sds": _after_compute_sds,
}


def _resolve(module: str, attr: str):
    """(owner, attribute name) for a module function or a class method."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.problem_ids: list[str] = []
        self._problem_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_problem = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0
        # (owner, attribute, original) for every rebinding made
        self.patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _problem(self, pid: str) -> int:
        if pid not in self._problem_index:
            self._problem_index[pid] = len(self.problem_ids)
            self.problem_ids.append(pid)
        return self._problem_index[pid]

    def _span_wrapper(self, name: str, fn):
        name_id = self._intern(name)
        pid_of = PROBLEM_IDS.get(name)
        after = AFTER.get(name)
        stack = self._stack
        span_name, span_parent, span_problem = self.span_name, self.span_parent, self.span_problem
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if pid_of is not None:
                problem = self._problem(pid_of(args))
            else:
                problem = span_problem[parent] if parent >= 0 else -1
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(parent)
            span_problem.append(problem)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_gen2 += info["generation"] == 2

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every `symdrift.*` module binding of `original` at `wrapper`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "symdrift" or mod_name.startswith("symdrift.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patched.append((module, key, original))
                    setattr(module, key, wrapper)

    def _patch(self, name: str, module: str, attr: str, make) -> None:
        owner, attr = _resolve(module, attr)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(name, raw.__func__))
            else:
                wrapped = make(name, raw)
            self.patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        else:
            original = getattr(owner, attr)
            self._rebind(original, make(name, original))

    def install(self) -> None:
        importlib.import_module("symdrift.harness.cli")
        for name, module, attr in TARGETS:
            self._patch(name, module, attr, self._span_wrapper)
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, self._count_wrapper)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        unrestored = [f"{getattr(o, '__name__', o)}.{k}" for o, k, orig in self.patched
                      if (o.__dict__[k] if isinstance(o, type) else getattr(o, k)) is not orig]
        if unrestored:
            raise RuntimeError(f"tracer left patched names: {unrestored}")

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, problem."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tproblem\n")
            for i in range(len(self.span_start)):
                problem = self.span_problem[i]
                handle.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                    f"{self.problem_ids[problem] if problem >= 0 else ''}\n"
                )

    def summary(self) -> tuple[dict[str, int], dict[str, float], dict[str, list[float]]]:
        """Per span name: call count, total self time, and every duration."""
        n = len(self.span_start)
        child_time = [0.0] * n
        durations: dict[str, list[float]] = defaultdict(list)
        for i in range(n):
            duration = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += duration
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            calls[name] += 1
            self_s[name] += duration - child_time[i]
            durations[name].append(duration)
        return calls, self_s, durations


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    calls, self_s, durations = tracer.summary()
    c = tracer.counters
    out: dict[str, float] = {}
    for name in ("textproc.tokenize", "textproc.lemmatize", "diversify.score",
                 "mental.process_expression", "fol.parse_formula", "fol.to_cnf",
                 "harness.translate"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["textproc.content_lemmas.calls"] = calls["textproc.content_lemmas"]
    out["problem.from_text.calls"] = calls["problem.from_text"]
    for name in ("problem.validate", "diversify.identify_repeated", "diversify.build_variants",
                 "diversify.rewrite", "diversify.generate_candidates", "diversify.assemble",
                 "mental.instantiate", "metrics.align_symbols", "metrics.compute_sds",
                 "harness.generate_synthetic", "harness.load_dataset",
                 "harness.save_dataset", "harness.persist_run"):
        out[f"{name}.self_s"] = self_s[name]
    score_calls = calls["diversify.score"]
    out["diversify.candidate_yield"] = c["diversify.kept"] / score_calls if score_calls else 0.0
    out["mental.oracle.equiv.calls"] = calls["mental.oracle.equiv"]
    out["mental.oracle.conflict.calls"] = calls["mental.oracle.conflict"]
    out["mental.oracle.self_s"] = self_s["mental.oracle.equiv"] + self_s["mental.oracle.conflict"]
    for decision in DECISIONS:
        out[f"mental.decisions.{decision}"] = c[f"mental.decisions.{decision}"]
    for engine in SOLVERS:
        name = f"solver.{engine}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.steps"] = c[f"{name}.steps"]
        out[f"{name}.limit_hits"] = c[f"{name}.limit_hits"]
    for name, _module, _attr in COUNTED:
        out[f"{name}.calls"] = c[f"{name}.calls"]
    out["metrics.dropped_concepts"] = tracer.gauges.get("metrics.dropped_concepts", 0)
    out["metrics.alignment_misses"] = c["metrics.alignment_misses"]
    out["metrics.sds"] = tracer.gauges.get("metrics.sds", 0.0)
    per_problem = durations["harness.evaluate_one"]
    out["harness.evaluate_one.p50_ms"] = _quantile(per_problem, 0.50) * 1000.0
    out["harness.evaluate_one.p90_ms"] = _quantile(per_problem, 0.90) * 1000.0
    out["python.gc.pause_s"] = tracer.gc_pause_s
    out["python.gc.gen2_collections"] = tracer.gc_gen2
    out["bench.self_s_total"] = sum(self_s.values())
    return out
