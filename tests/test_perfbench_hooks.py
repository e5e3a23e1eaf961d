"""The traced benchmark run wraps program functions by name; every name must exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_call_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(owner, attr) for owner, attr, _, _ in spans.PATCHES
               if not hasattr(spans._resolve(owner), attr)]
    assert not missing
