"""The perfbench tracer's contract with the package.

``perfbench/tracing.py`` wraps a fixed list of public names by module
attribute and class ``__dict__`` entry. A removal that drops one of them,
or an engine that stops calling one of them, breaks the benchmark's
traced runs; these tests turn that into a Tier-1 failure. The file is
loaded by path and only read.
"""

import dataclasses
import importlib

import pytest

import ordmatch
import ordmatch.cli
from _scripts import load
from ordmatch import oracle


def wrapped_names(tracing) -> list:
    """Traced names still bound to a wrapper in ``ordmatch`` or its modules."""
    mods = {m: importlib.import_module(f"ordmatch.{m}") for m in tracing.MODULES}
    left = []
    for m, attr in tracing.TRACED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(mods[m], cls_name))[meth]
            bound = [getattr(raw, "__func__", raw)]
        else:
            bound = [vars(holder).get(attr) for holder in (ordmatch, *mods.values())]
        left += [f"{m}.{attr}" for fn in bound if hasattr(fn, "__wrapped__")]
    return left


def test_tracer_installs_and_uninstalls_cleanly(tmp_path):
    tracing = load("perfbench/tracing.py")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert "core.greedy_k_matching" in wrapped_names(tracing)
        ordmatch.RandomSource(0)
        first = tracer.summary(1.0)["calls"]
        rc = ordmatch.cli.main(["bench", "--problem", "tsp", "--algorithm", "hybrid", "--n", "6",
                                "--trials", "1", "--inner-samples", "2",
                                "--out", str(tmp_path / "bench.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert wrapped_names(tracing) == []
    assert first["core.RandomSource.__init__"] == 1
    assert first["core.RandomSource.derived_seed"] == 1
    calls = tracer.summary(1.0)["calls"]
    assert calls["core.greedy_k_matching"] >= 1
    assert calls["cli.main"] == 1


def test_the_time_limit_of_a_traced_run_is_the_oracles(monkeypatch):
    """``perfbench/child.py`` divides a traced run's longest oracle call by
    ``ordmatch.oracle.DEFAULT_BUDGET.time_limit`` (``oracle.budget_used_ratio``): the field is a
    positive number, and it is the limit every oracle call's clock reads."""
    limit = oracle.DEFAULT_BUDGET.time_limit
    assert type(limit) in (int, float) and limit > 0
    monkeypatch.setattr(oracle, "DEFAULT_BUDGET",
                        dataclasses.replace(oracle.DEFAULT_BUDGET, time_limit=0.0))
    inst = ordmatch.generate(ordmatch.GeneratorSpec("euclidean-uniform", 6))
    with pytest.raises(ordmatch.BudgetError, match="^matching oracle exceeded its time budget$"):
        ordmatch.opt_matching(inst, 3)
