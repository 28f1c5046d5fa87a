"""The fresh single-threaded process behind each measurement.

``child.py setup`` times one set-up: import ``ordmatch``, build the CLI
parser and run one warm-up op on a small throwaway input. It prints the
seconds as JSON.

``child.py run ...`` runs the workload's rounds for ``--seconds`` (see
``workloads.rounds_for``) and writes every op's output and timing, plus
the process's peak RSS after its first round, to ``--result``. With
``--trace 1`` it first runs half the rounds untraced, then reruns the
same rounds with the tracer installed and adds the per-layer summary;
the span dump goes to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# A run that overruns CAP_FACTOR * --seconds stops after its current
# round, so a slow machine cannot push it past the time limit.
CAP_FACTOR = 3
WARMUP = ["bench", "--problem", "tsp", "--algorithm", "hybrid", "--n", "6",
          "--trials", "1", "--inner-samples", "2", "--seed", "1"]


def _import_ordmatch():
    sys.path.insert(0, SRC)
    import ordmatch
    from ordmatch import cli

    if not os.path.abspath(ordmatch.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ordmatch imported from {ordmatch.__file__}, not {SRC}")
    return cli


def setup() -> None:
    t0 = time.perf_counter()
    cli = _import_ordmatch()
    cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(WARMUP)
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"warm-up op exited {rc}")
    print(json.dumps({"setup_s": seconds}))


def _rounds(workload, seed, workdir, count, cap_s, tracer=None):
    """``count`` rounds, or fewer if they overrun ``cap_s`` seconds.

    Also returns the peak RSS after the first round: later rounds only
    add allocator fragmentation, which varies from seed to seed.
    """
    from workloads import run_round

    rounds, first_peak = [], None
    t0 = time.perf_counter()
    while len(rounds) < count and (not rounds or time.perf_counter() - t0 < cap_s):
        rounds.append(run_round(workload, seed, len(rounds), workdir, tracer))
        if first_peak is None:
            first_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, first_peak


def run(args) -> None:
    _import_ordmatch()
    from ordmatch.oracle import DEFAULT_BUDGET

    from tracing import Tracer
    from workloads import rounds_for

    count = rounds_for(args.workload, args.seconds)
    cap_s = CAP_FACTOR * args.seconds
    result = {}
    if args.trace:
        plain, peak = _rounds(args.workload, args.seed, os.path.join(args.workdir, "untraced"),
                              (count + 1) // 2, cap_s / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = _rounds(args.workload, args.seed, os.path.join(args.workdir, "traced"),
                                len(plain), cap_s, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["trace"] = tracer.summary(DEFAULT_BUDGET.time_limit)
        tracer.dump(args.spans)
    else:
        plain, peak = _rounds(args.workload, args.seed, args.workdir, count, cap_s)
    result["rounds"] = plain
    result["peak_rss_mb"] = peak
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), required=True)
    r.add_argument("--workdir", required=True)
    r.add_argument("--result", required=True)
    r.add_argument("--spans", required=True)
    args = p.parse_args()
    if args.mode == "setup":
        setup()
    else:
        run(args)


if __name__ == "__main__":
    main()
