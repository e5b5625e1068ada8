"""Every file bundled under `src/symdrift/data/` is read by the toolkit.

`Resources.load()` and `PromptLibrary.load()` are the only readers of the
bundled data. Each file they do not open while loading their defaults is
dead weight, as an unreached `def` is for `tests/test_reachability.py`.
"""

from __future__ import annotations

from pathlib import Path

from symdrift.diversify.resources import Resources
from symdrift.harness.prompts import PromptLibrary

DATA = Path(__file__).resolve().parent.parent / "src" / "symdrift" / "data"


def bundled_files(data: Path = DATA) -> set[Path]:
    return {path.resolve() for path in data.rglob("*") if path.is_file()}


def unopened(bundled: set[Path], opened: set[Path]) -> list[str]:
    """The bundled files not among `opened`, relative to the data folder."""
    return sorted(path.relative_to(DATA.resolve()).as_posix() for path in bundled - opened)


def test_every_bundled_file_is_loaded(monkeypatch):
    opened: set[Path] = set()
    path_open = Path.open

    def recording_open(self, *args, **kwargs):
        opened.add(Path(self).resolve())
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", recording_open)
    Resources.load()
    PromptLibrary.load()
    assert bundled_files(), "no bundled data found"
    assert unopened(bundled_files(), opened) == []


def test_the_checker_reports_an_unopened_file():
    bundled = bundled_files()
    stray = DATA.resolve() / "synonyms.tsv"
    assert unopened(bundled, bundled - {stray}) == ["synonyms.tsv"]
