"""The benchmark's per-layer tracer still fits the library.

``perfbench/tracing.py`` wraps library callables by module, class and
attribute name.  A rename, merge or alias in ``src/`` can break it two
ways: a target that no longer resolves makes ``Tracer.install()``
raise, and two targets that resolve to one (owner, attribute) pair wrap
it twice, so every call through it is counted twice.  This test makes
either show in the plain test suite, not only when the traced
benchmark runs.  It only reads from ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_each_owner_attribute_once():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patched = Counter((owner, attr) for owner, attr, _ in tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    assert [pair for pair, count in patched.items() if count > 1] == []
