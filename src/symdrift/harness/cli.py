"""Command-line interface.

Subcommands: generate, diversify, translate, solve, evaluate, sds, sweep,
compare, export-sft. Every subcommand accepts --seed, --config (flat
key=value file), and --out. A flag that names a setting (--n, --translator,
--mental) stores it under its config key, so a given flag beats the file and
the file beats the default. Exit codes: 0 success, 1 usage error, 2 data
error, 3 remote-service error, 141 stdout closed by its reader (what a
filter killed by SIGPIPE reports).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .. import __version__
from ..diversify.pipeline import DiversifyConfig, diversify_problem, parse_intensity
from ..diversify.resources import Resources
from ..errors import ClientError, FormatError, OracleFailure, SymdriftError
from ..metrics.sds import compute_sds
from ..metrics.taxonomy import attribute_errors
from ..problem import DiversifiedProblem, Problem
from .client import HttpChatClient
from .config import (
    CONFIG_DEFAULTS,
    FLAG_CHOICES,
    LLM,
    ORACLE_LLM,
    RESOURCE_KINDS,
    TranslatorConfig,
    llm_endpoint,
    read_config_file,
    synthetic_config_from,
    translator_config_from,
)
from .datasets import load_dataset, save_dataset
from .evaluate import (
    AUTO,
    ENGINES,
    # Unused here, but perfbench's self-test checks its tracer patches cli.evaluate_one.
    evaluate_one,
    intensity_sweep,
    normalize_items,
    render_report_text,
    run_evaluation,
    solve_one,
    sweep_to_csv,
    translate_one,
)
from .serialize import read_records, write_records
from .sft import export_sft_traces
from .synthetic import generate_synthetic
from .translators import make_translator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REMOTE = 3
EXIT_PIPE = 128 + 13  # SIGPIPE


def _parse_levels(text: str) -> list[int | float]:
    return [parse_intensity(level) for level in text.split(",")]


_IGNORED_SEED = ("accepted like every subcommand's; the rewrite pass has no "
                 "randomness, so the output does not depend on it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdrift",
        description="Induce, measure, and mitigate symbol drift in "
                    "language-to-logic translation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed_help: str | None = None
               ) -> argparse.ArgumentParser:
        p.add_argument("--seed", type=int, default=0, help=seed_help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output path (file or run directory)")
        return p

    # A flag that names a setting stores it under its config key (see
    # `_load_values`); unset, it leaves the key to the --config file.
    def translator_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--translator", dest="translator.kind", metavar="TRANSLATOR",
                       default=argparse.SUPPRESS)
        p.add_argument("--mental", dest="translator.mental", choices=FLAG_CHOICES,
                       default=argparse.SUPPRESS)

    p = common(sub.add_parser("generate", help="emit synthetic rule-base problems"))
    p.add_argument("--n", dest="synthetic.n_problems", metavar="N", type=int,
                   default=argparse.SUPPRESS, help="number of problems")

    p = common(sub.add_parser("diversify", help="rewrite problems, logic-invariantly"),
               seed_help=_IGNORED_SEED)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--theta", type=float, default=0.90)
    p.add_argument("--intensity", default="full", type=parse_intensity,
                   help="'full', a sentence count like 2, or a fraction like 0.5")
    p.add_argument("--scorer", default="fallback",
                   choices=("fallback", "vectors"))

    p = common(sub.add_parser("translate", help="translate problems to programs"))
    p.add_argument("--in", dest="input", required=True)
    translator_flags(p)

    p = common(sub.add_parser("solve", help="run the solver over translated records"))
    p.add_argument("--records", required=True)
    p.add_argument("--problems", required=True)
    p.add_argument("--solver", default=AUTO, choices=(AUTO, *ENGINES))

    p = common(sub.add_parser("evaluate", help="full translate+solve+score run"))
    p.add_argument("--in", dest="input", required=True)
    translator_flags(p)
    p.add_argument("--solver", default=AUTO, choices=(AUTO, *ENGINES))

    p = common(sub.add_parser("sds", help="symbol dispersion over saved records"))
    p.add_argument("--records", required=True)

    p = common(sub.add_parser("sweep", help="accuracy/SDS curve over intensity"),
               seed_help=_IGNORED_SEED)
    p.add_argument("--in", dest="input", required=True)
    translator_flags(p)
    p.add_argument("--solver", default=AUTO, choices=(AUTO, *ENGINES))
    p.add_argument("--levels", default="0,0.25,0.5,0.75,1.0", type=_parse_levels,
                   help="comma-separated intensities, as for diversify --intensity")

    p = common(sub.add_parser("compare", help="error attribution across two runs"))
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)

    p = common(sub.add_parser("export-sft", help="successful traces as tuning data"))
    p.add_argument("--run", required=True)

    return parser


def _load_values(args) -> dict[str, str]:
    """The --config file's settings, with every given flag written over them."""
    values = read_config_file(args.config) if args.config else {}
    values.update((key, str(value)) for key, value in vars(args).items() if key in CONFIG_DEFAULTS)
    return values


def _resources(values: dict[str, str]) -> Resources:
    """The run's lexicons, from the files `resources.*` names or the bundled
    ones: the one place a run loads them."""
    return Resources.load(**{f"{kind}_path": values.get(f"resources.{kind}")
                             for kind in RESOURCE_KINDS})


def _translation_setup(args) -> tuple[TranslatorConfig, Resources, object]:
    """The run's translator settings, resources and translator. A remote
    endpoint is required only when something will call it: the `llm`
    translator, or the `llm` oracle of table-guided translation."""
    cfg = translator_config_from(args.values)
    resources = _resources(args.values)
    client = None
    if cfg.kind == LLM or (cfg.mental and cfg.oracle == ORACLE_LLM):
        endpoint, key = llm_endpoint()
        if not endpoint:
            raise ClientError("set SYMDRIFT_LLM_ENDPOINT to use a remote translator or oracle")
        client = HttpChatClient(endpoint, key)
    return cfg, resources, make_translator(cfg, resources, client=client)


def _emit(args, text: str) -> int:
    """Print a subcommand's result, and write it to --out when given."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def _load_input(path: str) -> list[Problem | DiversifiedProblem]:
    """The command's input dataset. It and the resources loaded before it
    live until the command ends, so they are frozen out of the cyclic
    collector, which would otherwise re-scan them in every full collection;
    `main` unfreezes them. The rows hold no reference cycle, so the collector
    is paused while they are built: its passes would find no garbage.

    Each problem id may appear once: records, the SDS breakdown and `solve`
    match a record to its problem by id."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        items = load_dataset(path)
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    seen: set[str] = set()
    for item in items:
        problem_id = item.problem.id if isinstance(item, DiversifiedProblem) else item.id
        if problem_id in seen:
            raise FormatError(f"problem id {problem_id!r} repeats in {path}")
        seen.add(problem_id)
    return items


def _require_out(args) -> Path:
    if not args.out:
        raise FormatError("--out is required for this subcommand")
    return Path(args.out)


def _plain_problems(items: list[Problem | DiversifiedProblem]) -> list[Problem]:
    """The input of a rewriting subcommand: undiversified problems only."""
    for item in items:
        if isinstance(item, DiversifiedProblem):
            raise FormatError(f"{item.base_id} is already diversified")
    return items


def _cmd_generate(args) -> int:
    out_path = _require_out(args)
    problems = generate_synthetic(synthetic_config_from(args.values, seed=args.seed))
    save_dataset(out_path, problems)
    print(f"wrote {len(problems)} problems")
    return EXIT_OK


def _cmd_diversify(args) -> int:
    out_path = _require_out(args)
    # Checked once, before the input is read.
    cfg = DiversifyConfig(_resources(args.values), args.theta, args.intensity, args.scorer)
    out = [diversify_problem(item, cfg) for item in _plain_problems(_load_input(args.input))]
    save_dataset(out_path, out)
    changed = sum(1 for d in out if d.intensity > 0)
    print(f"diversified {len(out)} problems ({changed} with rewrites)")
    return EXIT_OK


def _cmd_translate(args) -> int:
    out_path = _require_out(args)
    _, resources, translator = _translation_setup(args)
    items = normalize_items(_load_input(args.input), resources)
    records = [translate_one(item, translator) for item in items]
    write_records(out_path, records)
    parsed = sum(1 for r in records if r.parse_error is None)
    print(f"translated {len(records)} problems ({parsed} parsed)")
    return EXIT_OK


def _cmd_solve(args) -> int:
    out_path = _require_out(args)
    resources = _resources(args.values)
    items = {i.problem.id: i for i in normalize_items(_load_input(args.problems), resources)}
    records = read_records(args.records)
    for record in records:
        item = items.get(record.problem_id)
        if item is None:
            raise FormatError(f"no problem with id {record.problem_id!r}")
        solve_one(record, item, args.solver)
    write_records(out_path, records)
    solved = sum(1 for r in records if r.verdict is not None)
    print(f"solved {solved} of {len(records)} records")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out_dir = _require_out(args)
    cfg, resources, translator = _translation_setup(args)
    dataset = _load_input(args.input)
    report = run_evaluation(dataset, translator, cfg, args.solver, resources,
                            out_dir=out_dir, extra_config={"seed": str(args.seed)})
    print(render_report_text(report))
    return EXIT_OK


def _cmd_sds(args) -> int:
    result = compute_sds(read_records(args.records))
    return _emit(args, json.dumps({
        "sds": result.value,
        "concepts": result.concepts,
        "drifted_concepts": result.drifted_concepts,
        "dropped_concepts": result.dropped_concepts,
    }, indent=2, sort_keys=True) + "\n")


def _cmd_sweep(args) -> int:
    cfg, resources, translator = _translation_setup(args)
    dataset = _plain_problems(_load_input(args.input))
    points = intensity_sweep(dataset, translator, cfg, args.solver, args.levels, resources)
    return _emit(args, sweep_to_csv(points))


def _cmd_compare(args) -> int:
    counts = attribute_errors(read_records(Path(args.before) / "records.jsonl"),
                              read_records(Path(args.after) / "records.jsonl"))
    return _emit(args, json.dumps(counts, indent=2, sort_keys=True) + "\n")


def _cmd_export_sft(args) -> int:
    count = export_sft_traces(args.run, _require_out(args))
    print(f"exported {count} training records")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "diversify": _cmd_diversify,
    "translate": _cmd_translate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "sds": _cmd_sds,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "export-sft": _cmd_export_sft,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage problems with status 2; remap per contract,
        # keeping 0 for --help/--version.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        # Every subcommand reads its --config file, so a file that does not
        # read is refused by each of them alike.
        args.values = _load_values(args)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return code
    except (ClientError, OracleFailure) as exc:
        print(f"remote service error: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except SymdriftError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # Stdout's reader has gone (`symdrift ... | head -1`), after every file
        # the command writes was written. Stdout's descriptor now points at
        # the null device, so the interpreter's last flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    raise SystemExit(main())
