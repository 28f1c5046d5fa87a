"""The perfbench tracer's contract with the package.

``perfbench/tracing.py`` wraps a fixed list of public names by module
attribute and class ``__dict__`` entry. A removal that drops one of them
breaks the benchmark's traced runs; this test turns that into a Tier-1
failure. The file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import ordmatch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls_cleanly():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        ordmatch.RandomSource(0)
    finally:
        tracer.uninstall()
    calls = tracer.summary(1.0)["calls"]
    assert calls["core.RandomSource.__init__"] == 1
    assert calls["core.RandomSource.derived_seed"] == 1
