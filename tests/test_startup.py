"""An offline start imports no network stack: the chat client's module loads
with the CLI, but the HTTP stack loads only when a request is sent."""

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


def test_offline_start_imports_no_network_stack():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, "symdrift.harness.client",
                           *NETWORK_MODULES], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["symdrift.harness.client"]
