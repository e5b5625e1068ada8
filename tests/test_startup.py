"""An offline start imports no network stack: the chat client's module loads
with the CLI, but the HTTP stack loads only when a request is sent. Nor does
it build a dataclass: `dataclasses`, and `inspect` with it, never load."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NETWORK_MODULES = ("urllib.request", "http.client", "ssl", "email", "socket")

# Runs in a fresh interpreter and prints which of its arguments are loaded.
_PROBE = """
import sys

import symdrift.harness.cli
from symdrift.diversify.resources import Resources
from symdrift.harness.config import translator_config_from
from symdrift.harness.translators import make_translator

resources = Resources.load()
for kind, mental in (("gold", "off"), ("naive", "off"), ("naive", "on"),
                     ("split-adversary", "off")):
    make_translator(translator_config_from({"translator.kind": kind,
                                            "translator.mental": mental}),
                    resources=resources)
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
"""


def _loaded_at_start(*names: str) -> list[str]:
    """Which of `names` a fresh interpreter has loaded after an offline start."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *names], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_offline_start_imports_no_network_stack():
    assert _loaded_at_start("symdrift.harness.client", *NETWORK_MODULES) == \
        ["symdrift.harness.client"]


def test_offline_start_imports_no_dataclass_machinery():
    assert _loaded_at_start("dataclasses", "inspect") == []
