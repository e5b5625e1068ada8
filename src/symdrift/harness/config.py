"""Run configuration: translator settings, synthetic-generator settings, and
the flat key=value config-file format used by every CLI subcommand."""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from ..errors import FormatError

GOLD = "gold"
NAIVE = "naive"
SPLIT_ADVERSARY = "split-adversary"
LLM = "llm"

TRANSLATOR_KINDS = (GOLD, NAIVE, SPLIT_ADVERSARY, LLM)

ORACLE_LEXICON = "lexicon"
ORACLE_LLM = "llm"

# How a flag setting is written, in a config file as for `--mental`.
FLAG_CHOICES = ("on", "off")

ENDPOINT_ENV = "SYMDRIFT_LLM_ENDPOINT"
CREDENTIAL_ENV = "SYMDRIFT_LLM_API_KEY"


class _TranslatorFields(NamedTuple):
    kind: str = NAIVE
    prompt_dir: str | None = None
    shots: int = 5
    temperature: float = 0.2
    mental: bool = False
    oracle: str = ORACLE_LEXICON


class TranslatorConfig(_TranslatorFields):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        """Checks the value `__new__` built; `_replace` builds without it."""
        if self.kind not in TRANSLATOR_KINDS:
            raise ValueError(f"unknown translator kind {self.kind!r}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must be in [0, 2]")
        if self.oracle not in (ORACLE_LEXICON, ORACLE_LLM):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.mental and self.kind in (GOLD, SPLIT_ADVERSARY):
            raise ValueError(f"mental applies only to the naive and llm translators, not {self.kind!r}")

    def snapshot(self) -> dict[str, str]:
        return {
            "translator.kind": self.kind,
            "translator.shots": str(self.shots),
            "translator.temperature": repr(self.temperature),
            "translator.mental": "on" if self.mental else "off",
            "translator.oracle": self.oracle,
            "translator.prompt_dir": self.prompt_dir or "",
        }


class _SyntheticFields(NamedTuple):
    n_problems: int = 50
    depth: int = 5  # problems cycle through depths 1..depth
    n_constants: int = 3
    n_predicates: int = 8
    rule_branching: int = 2
    negation_rate: float = 0.25
    seed: int = 0


class SyntheticConfig(_SyntheticFields):
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        """Checks the value `__new__` built; `_replace` builds without it."""
        if self.n_problems <= 0 or self.n_constants <= 0 or self.n_predicates <= 0:
            raise ValueError("all counts must be positive")
        if not (1 <= self.depth <= 5):
            raise ValueError("depth must be within 1..5")
        if self.rule_branching < 0:
            raise ValueError("rule_branching must be >= 0")
        if not (0.0 <= self.negation_rate <= 1.0):
            raise ValueError("negation_rate must be a fraction")


# The lexicon files a config file may override, as `resources.<kind> = path`.
RESOURCE_KINDS = ("synonyms", "paraphrases", "vectors")

# Every key a config file may set, with the default its value is read as;
# the run seed is set by `--seed` alone.
CONFIG_DEFAULTS = {
    **{f"translator.{name}": value for name, value in TranslatorConfig._field_defaults.items()},
    **{f"synthetic.{name}": value for name, value in SyntheticConfig._field_defaults.items()
       if name != "seed"},
    **{f"resources.{kind}": None for kind in RESOURCE_KINDS},
}


# The settings classes whose range checks a config file's values must pass.
_CHECKED = {"translator": TranslatorConfig, "synthetic": SyntheticConfig}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment. A key outside
    `CONFIG_DEFAULTS` is refused, so a misspelt one cannot go unread, and so is
    a value that does not read as its key's default does or that its
    settings class rejects."""
    p = Path(path)
    if not p.exists():
        raise FormatError(f"config file not found: {p}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"expected key = value, got {line!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise FormatError(f"unknown config key {key!r}", line=lineno)
        section, name = key.split(".", 1)
        try:
            setting = _setting(CONFIG_DEFAULTS[key], value)
            if section in _CHECKED:
                # Each range check reads one field, so the others' defaults
                # pass and a failure is this key's.
                _CHECKED[section](**{name: setting})
        except ValueError as exc:
            raise FormatError(f"{key}: {exc}", line=lineno) from exc
        out[key] = value
    return out


def write_config_file(path: str | Path, values: dict[str, str]) -> None:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _setting(default, text: str):
    """`text` read as `default`'s type: a flag from `on` or `off`, an empty
    path as none. Raises ValueError when it does not read."""
    if isinstance(default, bool):
        if text not in FLAG_CHOICES:
            raise ValueError(f"expected 'on' or 'off', got {text!r}")
        return text == "on"
    return (text or None) if default is None else type(default)(text)


def _config_from(cls, prefix: str, values: dict[str, str], **fixed):
    """`cls` with `fixed`, each other field that `values` sets, and the rest
    at their defaults."""
    return cls(**fixed, **{name: _setting(default, values[f"{prefix}.{name}"])
                           for name, default in cls._field_defaults.items()
                           if name not in fixed and f"{prefix}.{name}" in values})


def translator_config_from(values: dict[str, str]) -> TranslatorConfig:
    return _config_from(TranslatorConfig, "translator", values)


def synthetic_config_from(values: dict[str, str], seed: int) -> SyntheticConfig:
    return _config_from(SyntheticConfig, "synthetic", values, seed=seed)


def llm_endpoint() -> tuple[str | None, str | None]:
    return os.environ.get(ENDPOINT_ENV), os.environ.get(CREDENTIAL_ENV)
