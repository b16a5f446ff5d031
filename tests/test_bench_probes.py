"""Every probe of the benchmark's per-layer trace still names a live target.

A renamed or removed hot function would otherwise turn its per-layer metric
into ``null`` without failing anything.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import varsign.cli  # noqa: E402,F401  (the probes patch the loaded modules)
import varsign.oracle  # noqa: E402,F401
import varsign.signcons  # noqa: E402,F401
import tracing  # noqa: E402


@pytest.mark.parametrize("probe", tracing.PROBES,
                         ids=lambda p: f"{p.module}.{p.attr}")
def test_probe_target_resolves(probe):
    assert tracing._resolve(probe.module, probe.attr) is not None
