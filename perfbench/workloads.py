"""The benchmark's workloads: which ``ordmatch`` CLI calls a run issues.

A workload is a list of ops repeated in rounds. One op is one in-process
``ordmatch.cli.main([...])`` call; a round is one pass over the
workload's op list and is the "fixed job" that ``wall_s`` times. Every
workload is a closed loop with a single caller: the next op starts only
after the previous one has returned.

A run does a fixed number of rounds, set by ``--seconds`` through
``ROUNDS_PER_S``, so every run of a workload does the same work and
reads the same inputs for the same seed.

The 2-vCPU machine this benchmark was defined on shares its cores, and
its speed drifts by tens of percent over seconds. So a fixed pure-Python
kernel (``calibrate``) is timed before every op and after the last one,
and each op's time is also reported scaled by ``KERNEL_REF_S`` over the
mean of the two kernel times around it: the time the op would take at
the kernel's reference speed. The kernel calls no ``ordmatch`` code, so a
change to the package moves the raw and the scaled time alike.

Seeds come only from the benchmark's ``--seed``. Op ``i`` of a run gets
``seed * SEED_STRIDE + i``, so each op of each config sees its own
instance, a different ``--seed`` changes every instance, and no input
size depends on the seed.

This module imports nothing from ``ordmatch`` at import time, so the
set-up probe can time the package import itself.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import time
from dataclasses import dataclass

DEFAULT_SEED = 0
SEED_STRIDE = 1_000_000
LARGE_N = 1000
INNER_SAMPLES = 500
# Rounds per second of ``--seconds``. The desk rates fill about
# ``--seconds`` on the defining machine. A large-n round takes about
# 8.5 s, so its rate buys five rounds per 25 s (a run of about 45 s):
# fewer chains leave its median too noisy on a shared machine.
ROUNDS_PER_S = {"desk-mc": 4.0, "desk-oracle": 2.0, "large-n": 0.2}
# Median time of ``calibrate`` on the defining machine (see README.md).
KERNEL_REF_S = 0.007
KERNEL_SIZE = 4000


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_S[workload]))


def calibrate() -> float:
    """Time a fixed mix of interpreter, sort and JSON work, GC off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        xs = [((i * 7919) % 1013) / 7.0 for i in range(KERNEL_SIZE)]
        sorted(range(KERNEL_SIZE), key=lambda j: (-xs[j], j))
        json.loads(json.dumps(xs))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _bench(problem, algorithm, n, family="euclidean-uniform", k=None, inner=None):
    argv = ["bench", "--problem", problem, "--algorithm", algorithm, "--n", str(n),
            "--family", family]
    if k is not None:
        argv += ["--k", str(k)]
    if inner is not None:
        argv += ["--inner-samples", str(inner)]
    return argv


# label -> (bench argv without --trials/--seed, inner draws per op).
# A draw is one solve plus one evaluate: inner_samples of them for a
# randomized config (random or hybrid engine, or any tsp), one otherwise.
DESK = {
    # Per-draw overhead regime: core, reductions and seeding do the work,
    # the oracles stay small (n <= 12).
    "desk-mc": {
        "mwm/hybrid": (_bench("mwm", "hybrid", 12, inner=INNER_SAMPLES), INNER_SAMPLES),
        "tsp/hybrid": (_bench("tsp", "hybrid", 10, "clustered-gaussian", inner=INNER_SAMPLES),
                       INNER_SAMPLES),
        "ksum/hybrid": (_bench("ksum", "hybrid", 8, "random-metric-closure", k=2,
                               inner=INNER_SAMPLES), INNER_SAMPLES),
        "densest/random": (_bench("densest", "random", 12, k=6, inner=INNER_SAMPLES),
                           INNER_SAMPLES),
    },
    # Exact-oracle regime: deterministic engines, oracles near their
    # desk-scale limits; both opt_matching DP variants are in the mix.
    "desk-oracle": {
        "mwm/greedy": (_bench("mwm", "greedy", 16), 1),
        "mkm/greedy": (_bench("mkm", "greedy", 14, k=4), 1),
        "densest/greedy": (_bench("densest", "greedy", 16, "random-metric-closure", k=8), 1),
        "tsp/greedy": (_bench("tsp", "greedy", 14, inner=2), 2),
        "ksum/greedy": (_bench("ksum", "greedy", 10, k=5), 1),
    },
}

WORKLOADS = (*DESK, "large-n")


@dataclass(frozen=True)
class Op:
    index: int
    round: int
    label: str
    argv: tuple
    seed: int
    draws: int
    out: str | None = None
    instance: str | None = None

    @property
    def verb(self) -> str:
        return self.argv[0]


def op_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def round_ops(workload: str, seed: int, r: int, workdir: str) -> list[Op]:
    """The ops of round ``r``; large-n files go under ``workdir``."""
    if workload in DESK:
        configs = DESK[workload]
        ops = []
        for c, (label, (argv, draws)) in enumerate(configs.items()):
            i = r * len(configs) + c
            s = op_seed(seed, i)
            ops.append(Op(i, r, label, (*argv, "--trials", "1", "--seed", str(s)), s, draws))
        return ops
    if workload != "large-n":
        raise ValueError(f"unknown workload {workload!r}")
    d = os.path.join(workdir, f"chain{r}")
    inst = os.path.join(d, "instance.json")
    s = op_seed(seed, r)
    common = ("--seed", str(s))
    i = 4 * r
    return [
        Op(i, r, "gen", ("gen", "--family", "euclidean-uniform", "--n", str(LARGE_N),
                         *common, "--out", inst), s, 0, out=inst),
        Op(i + 1, r, "prefs", ("prefs", "--instance", inst, *common,
                               "--out", os.path.join(d, "prefs.json")),
           s, 0, out=os.path.join(d, "prefs.json"), instance=inst),
        Op(i + 2, r, "solve-mwm-greedy",
           ("solve", "--instance", inst, "--problem", "mwm", "--algorithm", "greedy", *common,
            "--out", os.path.join(d, "mwm.json")),
           s, 1, out=os.path.join(d, "mwm.json"), instance=inst),
        Op(i + 3, r, "solve-tsp-hybrid",
           ("solve", "--instance", inst, "--problem", "tsp", "--algorithm", "hybrid", *common,
            "--out", os.path.join(d, "tsp.json")),
           s, 1, out=os.path.join(d, "tsp.json"), instance=inst),
    ]


def call_cli(argv, tracer=None, op_id=-1) -> dict:
    """Run ``ordmatch.cli.main(argv)`` in-process and time it.

    ``main`` is looked up on every call so that a tracer's wrapper, when
    installed, is the one that runs.
    """
    from ordmatch import cli

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracer.begin_op(op_id)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
            error = f"SystemExit: {exc.code}"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def run_round(workload: str, seed: int, r: int, workdir: str, tracer=None) -> dict:
    """Run one round, timing each op and the kernel between ops."""
    ops = round_ops(workload, seed, r, workdir)
    for op in ops:
        if op.out is not None:
            os.makedirs(os.path.dirname(op.out), exist_ok=True)
    kernel = [calibrate()]
    results = []
    for op in ops:
        results.append(call_cli(op.argv, tracer, op.index))
        kernel.append(calibrate())
    records = []
    for i, (op, res) in enumerate(zip(ops, results)):
        written = (os.path.getsize(op.out) if op.out and os.path.exists(op.out)
                   else len(res["stdout"].encode("utf-8")))
        read = os.path.getsize(op.instance) if op.instance and os.path.exists(op.instance) else 0
        scaled = res["seconds"] * KERNEL_REF_S / ((kernel[i] + kernel[i + 1]) / 2)
        records.append({"index": op.index, "label": op.label, "verb": op.verb,
                        "argv": list(op.argv), "seed": op.seed, "draws": op.draws,
                        "out": op.out, "bytes_written": written, "bytes_read": read,
                        "scaled_seconds": scaled, **res})
    return {"round": r, "seconds": sum(rec["seconds"] for rec in records),
            "scaled_seconds": sum(rec["scaled_seconds"] for rec in records),
            "kernel_s": kernel, "ops": records}
