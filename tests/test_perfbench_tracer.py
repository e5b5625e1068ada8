"""The benchmark's tracer still fits the program: every function and method it
wraps (`TARGETS`, and `COUNTED` for call counts) exists under the name it
gives, `install()` patches each one wherever a `symdrift` module binds it, and
`restore()` puts every original back. A renamed or removed entry point fails
here rather than only in a traced benchmark run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter, so the patching touches no module of this one.
_PROBE = """
import importlib
import json
import sys

sys.path.insert(0, sys.argv[1])
from tracer import COUNTED, TARGETS, Tracer


def bindings(module, attr):
    # (owner, key) of every binding the tracer must patch for this entry.
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        cls = getattr(owner, cls_name)
        return [(cls, attr, cls.__dict__[attr])]
    original = getattr(owner, attr)
    return [(m, key, original) for name, m in list(sys.modules.items())
            if m is not None and (name == "symdrift" or name.startswith("symdrift."))
            for key, value in list(vars(m).items()) if value is original]


def current(owner, key):
    return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)


importlib.import_module("symdrift.harness.cli")
entries = {f"{module}:{attr}": bindings(module, attr) for _, module, attr in TARGETS + COUNTED}
tracer = Tracer()
tracer.install()
unpatched = sorted(f"{entry} via {getattr(owner, '__name__', owner)}.{key}"
                   for entry, found in entries.items() for owner, key, original in found
                   if current(owner, key) is original)
tracer.restore()
unrestored = sorted(f"{entry} via {getattr(owner, '__name__', owner)}.{key}"
                    for entry, found in entries.items() for owner, key, original in found
                    if current(owner, key) is not original)
print(json.dumps({"entries": len(entries), "unpatched": unpatched, "unrestored": unrestored}))
"""


def test_tracer_patches_and_restores_every_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT / "perfbench")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["entries"] > 0
    assert result["unpatched"] == []
    assert result["unrestored"] == []
