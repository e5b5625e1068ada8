"""Prompt templates for remote translation and oracle calls.

Templates are plain text files with named placeholders, shipped as editable
defaults under the package data directory; a prompt_dir with files of the
same names overrides them. Few-shot exemplars live in `exemplars.txt`,
separated by `---` lines, and the first `shots` of them are inlined.
"""

from __future__ import annotations

from importlib import resources as importlib_resources
from pathlib import Path

from ..errors import ResourceMissing
from ..problem import Problem
from .config import TranslatorConfig

TEMPLATE_FILES = (
    "translate_direct.txt",
    "translate_mental.txt",
    "equiv.txt",
    "conflict.txt",
    "exemplars.txt",
)


class PromptLibrary:
    def __init__(self, templates: dict[str, str]):
        self._templates = templates

    @staticmethod
    def load(prompt_dir: str | Path | None = None) -> "PromptLibrary":
        base = importlib_resources.files("symdrift") / "data" / "prompts"
        templates: dict[str, str] = {}
        for name in TEMPLATE_FILES:
            override = Path(prompt_dir) / name if prompt_dir else None
            if override is not None and override.exists():
                templates[name] = override.read_text(encoding="utf-8")
            else:
                resource = base / name
                try:
                    templates[name] = resource.read_text(encoding="utf-8")
                except FileNotFoundError as exc:
                    raise ResourceMissing(f"prompt template missing: {name}") from exc
        return PromptLibrary(templates)

    def get(self, name: str) -> str:
        return self._templates[name]

    def exemplars(self, shots: int) -> str:
        blocks = [b.strip() for b in self.get("exemplars.txt").split("\n---\n") if b.strip()]
        return "\n\n".join(blocks[:shots])

    def render_translation(self, problem: Problem, cfg: TranslatorConfig) -> str:
        name = "translate_mental.txt" if cfg.mental else "translate_direct.txt"
        sentences = "\n".join(
            f"{i}. {unit.text}" for i, unit in enumerate(problem.sentences)
        )
        options = ""
        if problem.options:
            options = "Options:\n" + "\n".join(
                f"{i}. {o}" for i, o in enumerate(problem.options)
            )
        return self.get(name).format(
            exemplars=self.exemplars(cfg.shots),
            sentences=sentences,
            question=problem.question.text,
            options=options,
            task_kind=problem.task_kind,
        )

    def oracle_templates(self) -> tuple[str, str]:
        return self.get("equiv.txt"), self.get("conflict.txt")
