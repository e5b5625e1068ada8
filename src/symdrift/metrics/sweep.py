"""Accuracy/dispersion curves over diversification intensity."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SweepPoint:
    level: float  # requested level (fraction or absolute count)
    k_mean: float  # realized mean sentences rewritten per problem
    accuracy: float
    sds: float | None  # None when dispersion was not measured


def intensity_sweep(dataset, translator, translator_cfg, solver: str,
                    levels: list[int | float], resources=None) -> list[SweepPoint]:
    """Evaluate at each intensity level (ints are absolute sentence counts,
    floats are fractions of each problem's sentence count). Levels must be
    sorted ascending. The rewrite pass is deterministic, so the curve depends
    on no seed."""
    from ..diversify.pipeline import DiversifyConfig, diversify_problem, sentence_count
    from ..diversify.resources import Resources
    from ..harness.evaluate import run_evaluation

    if levels != sorted(levels):
        raise ValueError("levels must be sorted ascending")
    resources = resources or Resources.load()
    points = []
    for level in levels:
        diversified = []
        for p in dataset:
            k = sentence_count(level, len(p.sentences))
            diversified.append(diversify_problem(
                p, DiversifyConfig(intensity=k, resources=resources)
            ))
        report = run_evaluation(diversified, translator, translator_cfg, solver,
                                resources=resources)
        points.append(SweepPoint(
            level=float(level),
            k_mean=sum(d.intensity for d in diversified) / len(diversified),
            accuracy=report.accuracy,
            sds=report.sds.value,
        ))
    return points


def sweep_to_csv(points: list[SweepPoint]) -> str:
    lines = ["level,k_mean,accuracy,sds"]
    for pt in points:
        sds = "n/a" if pt.sds is None else pt.sds
        lines.append(f"{pt.level},{pt.k_mean},{pt.accuracy},{sds}")
    return "\n".join(lines) + "\n"
