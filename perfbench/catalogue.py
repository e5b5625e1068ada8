"""Every metric the benchmark reports: name, unit, better direction, and the
bound by which an end-to-end metric may worsen (a share of the parent's
median). `BENCHMARK.json` lists the same metrics; the self-test compares them.
"""

from __future__ import annotations

from workloads import STAGES

# (name, unit, better, bound)
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("problems_per_s", "problems/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("accuracy", "fraction", "higher", 0.25),
)

# Printed with the end-to-end metrics but not gated: it reads 0 on every
# workload, so it has no median to take a share of. The `failed` count of
# the result line carries the same information.
UNGATED = (("failed_share", "fraction", "lower"),)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = [
        ("textproc.tokenize.calls", "count", "lower"),
        ("textproc.tokenize.self_s", "s", "lower"),
        ("textproc.lemmatize.calls", "count", "lower"),
        ("textproc.lemmatize.self_s", "s", "lower"),
        ("textproc.content_lemmas.calls", "count", "lower"),
        ("problem.from_text.calls", "count", "lower"),
        ("problem.validate.self_s", "s", "lower"),
        ("diversify.identify_repeated.self_s", "s", "lower"),
        ("diversify.build_variants.self_s", "s", "lower"),
        ("diversify.rewrite.self_s", "s", "lower"),
        ("diversify.generate_candidates.self_s", "s", "lower"),
        ("diversify.score.calls", "count", "lower"),
        ("diversify.score.self_s", "s", "lower"),
        ("diversify.candidate_yield", "ratio", "higher"),
        ("diversify.assemble.self_s", "s", "lower"),
        ("mental.process_expression.calls", "count", "lower"),
        ("mental.process_expression.self_s", "s", "lower"),
        ("mental.oracle.equiv.calls", "count", "lower"),
        ("mental.oracle.conflict.calls", "count", "lower"),
        ("mental.oracle.self_s", "s", "lower"),
        ("mental.instantiate.self_s", "s", "lower"),
        ("mental.decisions.extend", "count", "lower"),
        ("mental.decisions.reuse", "count", "higher"),
        ("mental.decisions.refine", "count", "lower"),
        ("fol.parse_formula.calls", "count", "lower"),
        ("fol.parse_formula.self_s", "s", "lower"),
        ("fol.to_cnf.calls", "count", "lower"),
        ("fol.to_cnf.self_s", "s", "lower"),
    ]
    for engine in ("forward_chain_cwa", "prove_resolution", "enumerate_models"):
        rows += [
            (f"solver.{engine}.calls", "count", "lower"),
            (f"solver.{engine}.self_s", "s", "lower"),
            (f"solver.{engine}.steps", "count", "lower"),
            (f"solver.{engine}.limit_hits", "count", "lower"),
        ]
    rows += [
        ("solver.resolution.subsumes.calls", "count", "lower"),
        ("solver.resolution.unify_atoms.calls", "count", "lower"),
        ("metrics.align_symbols.self_s", "s", "lower"),
        ("metrics.compute_sds.self_s", "s", "lower"),
        ("metrics.dropped_concepts", "count", "lower"),
        ("metrics.alignment_misses", "count", "lower"),
        ("metrics.sds", "symbols/concept", "lower"),
        ("harness.generate_synthetic.self_s", "s", "lower"),
        ("harness.load_dataset.self_s", "s", "lower"),
        ("harness.save_dataset.self_s", "s", "lower"),
        ("harness.persist_run.self_s", "s", "lower"),
        ("harness.translate.calls", "count", "lower"),
        ("harness.translate.self_s", "s", "lower"),
        ("harness.evaluate_one.p50_ms", "ms", "lower"),
        ("harness.evaluate_one.p90_ms", "ms", "lower"),
    ]
    for stage in STAGES:
        rows.append((f"harness.stage.{stage}.wall_s", "s", "lower"))
    rows += [
        ("harness.workers2_speedup", "ratio", "higher"),
        ("python.gc.pause_s", "s", "lower"),
        ("python.gc.gen2_collections", "count", "lower"),
        ("bench.trace_overhead_ratio", "ratio", "lower"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.self_s_total", "s", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
