"""Export successful table-guided translations as instruction-tuning data.

One JSONL training record per correctly solved problem: the instruction is
the problem text, the response is the rendered expression table followed by
the final program block.
"""

from __future__ import annotations

from pathlib import Path

from ..errors import NoTraces
from .datasets import SOLVED_TRACE, TRACE, check, parse_jsonl, write_jsonl


def _training_row(data: dict) -> dict | None:
    """A traces line's training record, or None if it was not solved."""
    check(data, TRACE, "")
    if not data.get("correct"):
        return None
    check(data, SOLVED_TRACE, "")
    response = data["table"] + "\n\n" + data["program"] if data["table"] else data["program"]
    return {"instruction": data["instruction"], "response": response}


def export_sft_traces(run_dir: str | Path, out_path: str | Path) -> int:
    """Returns the number of exported records."""
    traces_file = Path(run_dir) / "traces.jsonl"
    if not traces_file.exists():
        raise NoTraces(f"no traces.jsonl under {run_dir}")
    rows = [row for row in parse_jsonl(traces_file, _training_row) if row]
    if not rows:
        raise NoTraces(f"no successful table-guided translations in {run_dir}")
    write_jsonl(out_path, rows)
    return len(rows)
