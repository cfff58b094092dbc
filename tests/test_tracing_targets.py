"""Every function the benchmark's traced run wraps must exist in colonlab.

perfbench/tracing.py names its targets as (span, module, attribute path); a
renamed or deleted target would otherwise fail only the traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    targets = load_tracing().TARGETS
    assert targets
    missing = []
    for _, module_name, path in targets:
        owner = importlib.import_module(f"colonlab.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
