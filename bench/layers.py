"""Per-layer scaling of two ordmatch checkouts, plus paired benchmark runs.

    python bench/layers.py --parent PARENT_DIR --change CHANGE_DIR --out BENCH_layers.json

PARENT_DIR and CHANGE_DIR are checkouts of two commits (each with
``src/ordmatch`` and ``perfbench/``). For every n, a fresh process imports
one checkout's ``ordmatch`` and times in-process the median of
``REPEATS`` calls of each layer on a euclidean-uniform instance (seed
0): generate, derive_preferences, greedy n/2, hybrid_matchings (1 draw),
matchings_to_tours, profile_consistent and validate_metric. Then
``perfbench/run.py`` runs from both checkouts in alternating pairs (the
side that goes first alternates; ``PAIRS``), plus one traced large-n run
per side. The output holds both columns, medians and quartiles of the
pairs, and an environment stamp.

    python bench/layers.py --time-layers N [--no-metric]

times the ``ordmatch`` on ``sys.path`` at one n and prints one JSON line.

    python bench/layers.py --oracles --parent PARENT_DIR --change CHANGE_DIR --out BENCH_oracle.json

times each exact oracle per call instead (``ORACLE_CALLS``: the
desk-oracle sizes, the desk-mc sizes and larger ones; the first, cold
call, which pays any per-process table build, and the median of
``ORACLE_REPEATS`` warm calls after it, one fresh process per checkout,
``--time-oracles``) and runs the ``ORACLE_PAIRS`` perfbench pairs.

    python bench/layers.py --io --parent PARENT_DIR --change CHANGE_DIR --out BENCH_io.json

times each CLI step of the large-n chain instead (gen, prefs, solve mwm
greedy, solve tsp hybrid through ``ordmatch.cli.main``, files in a
temporary directory; median of ``IO_REPEATS`` chains at each of
``IO_SIZES``, one fresh process per checkout and n, ``--time-io``) with
the process's peak RSS after each step of its first chain
(``peak_rss_mb_after``: a read step's peak shows where it is above
``gen``'s), one ``load_instance`` of the chain's instance file in a fresh
process (seconds and peak RSS, ``--time-load``), each step alone in a
fresh process on the chain's files (seconds and peak RSS, ``--time-step``),
and the size and sha256 of every file the chain writes
(``equal_file_bytes``: both checkouts wrote the same files at every n),
plus ``generate`` alone at ``IO_GENERATE_N`` (seconds and the fresh
process's peak RSS) and ``derive_preferences`` per call (``RANK_CALLS``:
the desk sizes, and n=1000 on floats and on an all-0/1 matrix, where every
row is tied; ``--time-rank`` in ``RANK_ROUNDS`` fresh processes per checkout,
the sides alternating), and runs the ``IO_PAIRS`` perfbench pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

END_TO_END = {"setup_s": "lower", "wall_s": "lower", "op_s.p50": "lower",
              "op_s.p90": "lower", "draws_per_s": "higher", "peak_rss_mb": "lower"}
TRACE_KEYS = ("instance.derive_preferences.self_s", "instance.derive_preferences.calls",
              "core.greedy_k_matching.self_s", "instance.load_instance.self_s",
              "instance.generate.self_s", "cli.main.self_s",
              "layer.instance.self_s", "layer.instance.share", "layer.cli.share",
              "layer.core.share", "trace.wall_s")
ORACLE_TRACE_KEYS = ("oracle.opt_matching.self_s", "oracle.opt_tsp.self_s",
                     "oracle.opt_densest.self_s", "oracle.opt_k_sum.self_s", "oracle.dp_states",
                     "layer.oracle.self_s", "layer.oracle.share", "layer.cli.self_s",
                     "layer.cli.share", "trace.wall_s")
REPEATS = 3
SIZES = [100, 300, 1000, 2000, 5000]
# The tuple-backed parent profile needs about 1 GB at n=5000, and a
# validate_metric that builds the n^3 tensor needs 8 GB at n=1000.
PARENT_SIZES = [100, 300, 1000, 2000]
METRIC_MAX_N = 2000
PARENT_METRIC_MAX_N = 300
# WORKLOAD:SEED:PAIRS; seed 5 is held out from the runs made while writing a change. Ten
# pairs per seed-0 entry: three could not tell a few-percent shift from host noise.
PAIRS = ["large-n:0:10", "large-n:5:3", "desk-mc:0:10", "desk-oracle:0:10"]
# (label, family, n, k) per oracle call: desk-oracle's five sizes, desk-mc's
# four, then larger ones.
ORACLE_CALLS = [("mwm", "euclidean-uniform", 16, None), ("mkm", "euclidean-uniform", 14, 4),
                ("densest", "random-metric-closure", 16, 8), ("tsp", "euclidean-uniform", 14, None),
                ("ksum", "euclidean-uniform", 10, 5), ("mwm", "euclidean-uniform", 12, None),
                ("tsp", "clustered-gaussian", 10, None), ("ksum", "random-metric-closure", 8, 2),
                ("densest", "euclidean-uniform", 12, 6), ("mwm", "euclidean-uniform", 18, None),
                ("mwm", "euclidean-uniform", 20, None), ("mkm", "euclidean-uniform", 16, 4),
                ("tsp", "euclidean-uniform", 15, None)]
ORACLE_REPEATS = 5
ORACLE_PAIRS = ["desk-oracle:0:10", "desk-oracle:5:3", "desk-mc:0:10", "large-n:0:10"]
IO_SIZES = [1000, 2000, 3000]
IO_REPEATS = 3
IO_GENERATE_N = 3000
IO_PAIRS = ["large-n:0:10", "large-n:5:10", "desk-mc:0:10", "desk-oracle:0:10"]
# (label, n, all-0/1 weights) per derive_preferences timing: desk-mc's and desk-oracle's
# largest n, then large-n's on floats and on the matrix whose every row is tied
RANK_CALLS = [("n=12", 12, False), ("n=16", 16, False), ("n=1000", 1000, False),
              ("n=1000 all 0/1", 1000, True)]
RANK_SECONDS = 1.0
RANK_ROUNDS = 6
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def time_layers(n: int, metric: bool) -> dict:
    """Median seconds of each layer at one n, for the ordmatch on sys.path."""
    import numpy as np
    from ordmatch import (GeneratorSpec, derive_preferences, generate, greedy_k_matching,
                          hybrid_matchings, matchings_to_tours, profile_consistent,
                          validate_metric)

    spec = GeneratorSpec("euclidean-uniform", n, seed=0)
    inst = generate(spec)
    prof = derive_preferences(inst)
    matchings = hybrid_matchings(prof, 1, np.random.default_rng(0))
    layers = {
        "generate": lambda: generate(spec),
        "derive_preferences": lambda: derive_preferences(inst),
        "greedy_k_matching n/2": lambda: greedy_k_matching(prof, n // 2),
        "hybrid_matchings 1 draw": lambda: hybrid_matchings(prof, 1, np.random.default_rng(0)),
        "matchings_to_tours": lambda: matchings_to_tours(matchings, prof, np.random.default_rng(0)),
        "profile_consistent": lambda: profile_consistent(prof, inst),
    }
    if metric:
        layers["validate_metric"] = lambda: validate_metric(inst)
    out = {}
    for name, call in layers.items():
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def time_oracles() -> dict:
    """Seconds of the first call and median seconds of the warm calls per exact
    oracle, for the ordmatch on sys.path."""
    from ordmatch import GeneratorSpec, generate, opt_densest, opt_k_sum, opt_matching, opt_tsp

    oracles = {"mwm": lambda inst, k: opt_matching(inst, inst.n // 2), "mkm": opt_matching,
               "densest": opt_densest, "ksum": opt_k_sum, "tsp": lambda inst, k: opt_tsp(inst)}
    out = {}
    for label, family, n, k in ORACLE_CALLS:
        inst = generate(GeneratorSpec(family, n, seed=0))
        times = []
        for _ in range(1 + ORACLE_REPEATS):
            start = time.perf_counter()
            oracles[label](inst, k)
            times.append(time.perf_counter() - start)
        out[f"{label} n={n}" + ("" if k is None else f" k={k}")] = {
            "cold": times[0], "warm": statistics.median(times[1:])}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _io_files(workdir: str) -> dict:
    return {name: os.path.join(workdir, f"{name}.json")
            for name in ("instance", "prefs", "mwm", "tsp")}


def _io_steps(n: int, workdir: str) -> dict:
    """The argv of each step of the large-n CLI chain, files in ``workdir``."""
    files = _io_files(workdir)
    inst = ["--instance", files["instance"], "--seed", "0"]
    return {
        "gen": ["gen", "--family", "euclidean-uniform", "--n", str(n), "--seed", "0",
                "--out", files["instance"]],
        "prefs": ["prefs", *inst, "--out", files["prefs"]],
        "solve mwm greedy": ["solve", *inst, "--problem", "mwm", "--algorithm", "greedy",
                             "--out", files["mwm"]],
        "solve tsp hybrid": ["solve", *inst, "--problem", "tsp", "--algorithm", "hybrid",
                             "--out", files["tsp"]],
    }


def time_io(n: int, workdir: str) -> dict:
    """Median seconds per step of the large-n CLI chain and the bytes of each file it writes
    (into ``workdir``), with the peak RSS after each step of the first chain."""
    from ordmatch import cli

    files, steps = _io_files(workdir), _io_steps(n, workdir)
    times, peaks = {name: [] for name in steps}, {}
    for _ in range(IO_REPEATS):
        for name, argv in steps.items():
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{' '.join(argv)} failed")
                times[name].append(time.perf_counter() - start)
            peaks.setdefault(name, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out = {name: statistics.median(t) for name, t in times.items()}
    out["chain"] = sum(out[name] for name in steps)
    out["peak_rss_mb_after"] = peaks
    out["bytes"] = {name: os.path.getsize(path) for name, path in files.items()}
    out["sha256"] = {name: _sha256(path) for name, path in files.items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def time_step(n: int, step: str, workdir: str) -> dict:
    """Seconds of one step of the chain and the peak RSS of the process that ran only it."""
    from ordmatch import cli

    argv = _io_steps(n, workdir)[step]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")
        seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"seconds": seconds, "peak_rss_mb": peak}


def time_rank() -> dict:
    """Median seconds per ``derive_preferences`` call for each of ``RANK_CALLS``, repeated for
    about ``RANK_SECONDS`` (at least 3 calls) each."""
    import numpy as np
    from ordmatch import GeneratorSpec, WeightedInstance, derive_preferences, generate

    out = {}
    for label, n, zero_one in RANK_CALLS:
        if zero_one:
            w = np.triu(np.random.default_rng(0).integers(0, 2, (n, n)), 1).astype(float)
            inst = WeightedInstance(w + w.T)
        else:
            inst = generate(GeneratorSpec("euclidean-uniform", n, seed=0))
        times, spent = [], 0.0
        while len(times) < 3 or spent < RANK_SECONDS:
            start = time.perf_counter()
            derive_preferences(inst)
            times.append(time.perf_counter() - start)
            spent += times[-1]
        out[label] = {"seconds": statistics.median(times), "calls": len(times)}
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:  # streamed: reading the whole file would raise the peak
        return hashlib.file_digest(fh, "sha256").hexdigest()[:16]


def time_load(path: str) -> dict:
    """Seconds of one ``load_instance`` call and the peak RSS of the process that made it."""
    from ordmatch import load_instance

    start = time.perf_counter()
    load_instance(path)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"seconds": seconds, "peak_rss_mb": peak}


def time_generate(n: int) -> dict:
    """Seconds of one ``generate`` call and the peak RSS of the process that made it."""
    from ordmatch import GeneratorSpec, generate

    start = time.perf_counter()
    generate(GeneratorSpec("euclidean-uniform", n, seed=0))
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"seconds": seconds, "peak_rss_mb": peak}


def _child(tree: str, *flags: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), *flags]
    proc = subprocess.run(cmd, env=_env(tree), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def io_column(tree: str) -> dict:
    column = {}
    for n in IO_SIZES:
        with tempfile.TemporaryDirectory() as tmp:
            column[str(n)] = _child(tree, "--time-io", str(n), "--workdir", tmp)
            # its own process, started from this small one: a child's ru_maxrss starts
            # at the peak of the process that started it, and gen's peak would hide the read's
            column[str(n)]["load_instance alone"] = _child(
                tree, "--time-load", os.path.join(tmp, "instance.json"))
            column[str(n)]["step alone"] = {
                step: _child(tree, "--time-step", str(n), step, "--workdir", tmp)
                for step in _io_steps(n, tmp)}
    column[f"generate n={IO_GENERATE_N}"] = _child(tree, "--time-generate", str(IO_GENERATE_N))
    print(f"  {os.path.basename(tree)} io: {column}", file=sys.stderr, flush=True)
    return column


def rank_rounds(parent: str, change: str) -> dict:
    """``--time-rank`` in ``RANK_ROUNDS`` fresh processes per checkout, the sides alternating,
    and per call label the median over the rounds and the change's ratio to the parent's."""
    runs = {"parent": [], "change": []}
    for i in range(RANK_ROUNDS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(_child(parent if side == "parent" else change, "--time-rank"))
    out = {"unit": "s per call", "rounds": runs}
    for label, _, _ in RANK_CALLS:
        med = {side: statistics.median(r[label]["seconds"] for r in rs)
               for side, rs in runs.items()}
        out[label] = {**med, "change_over_parent": med["change"] / med["parent"]}
    print(f"  derive_preferences: {out}", file=sys.stderr, flush=True)
    return out


def oracle_column(tree: str) -> dict:
    column = _child(tree, "--time-oracles")
    print(f"  {os.path.basename(tree)} oracles: {column}", file=sys.stderr, flush=True)
    return column


def _env(tree: str) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def layer_column(tree: str, sizes, metric_max_n: int) -> dict:
    column = {}
    for n in sizes:
        flags = ["--time-layers", str(n)] + ([] if n <= metric_max_n else ["--no-metric"])
        column[str(n)] = _child(tree, *flags)
        print(f"  {os.path.basename(tree)} n={n}: {column[str(n)]}", file=sys.stderr, flush=True)
    return column


def perfbench(tree: str, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "25", "--trace", str(trace)]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def paired_runs(parent: str, change: str, workload: str, seed: int, pairs: int) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench(parent if side == "parent" else change, workload, seed, 0))
            print(f"  {workload} seed {seed} pair {i} {side}: {runs[side][-1]['metrics']}",
                  file=sys.stderr, flush=True)
    metrics = {}
    for name, better in END_TO_END.items():
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        wins = sum((cv < pv) if better == "lower" else (cv > pv) for pv, cv in zip(p, c))
        metrics[name] = {"better": better, "parent": _spread(p), "change": _spread(c),
                         "change_over_parent_median": statistics.median(c) / statistics.median(p),
                         "change_wins_pairs": wins}
    return {
        "pairs": pairs,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "ops_failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "ops_attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
    }


def environment() -> dict:
    import numpy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--time-layers", type=int, default=None, metavar="N")
    ap.add_argument("--no-metric", action="store_true")
    ap.add_argument("--time-oracles", action="store_true")
    ap.add_argument("--time-io", type=int, default=None, metavar="N")
    ap.add_argument("--time-generate", type=int, default=None, metavar="N")
    ap.add_argument("--time-load", default=None, metavar="PATH")
    ap.add_argument("--time-step", nargs=2, default=None, metavar=("N", "STEP"))
    ap.add_argument("--time-rank", action="store_true")
    ap.add_argument("--workdir", help="directory for the --time-io files")
    ap.add_argument("--io", action="store_true",
                    help="CLI chain columns and IO_PAIRS instead of the layer sizes")
    ap.add_argument("--oracles", action="store_true",
                    help="per-oracle columns and ORACLE_PAIRS instead of the layer sizes")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--parent-rev", default=None, help="commit the parent checkout holds")
    ap.add_argument("--out", default="BENCH_layers.json")
    args = ap.parse_args(argv)

    if args.time_layers is not None:
        print(json.dumps(time_layers(args.time_layers, not args.no_metric)))
        return 0
    if args.time_oracles:
        print(json.dumps(time_oracles()))
        return 0
    if args.time_io is not None:
        print(json.dumps(time_io(args.time_io, args.workdir)))
        return 0
    if args.time_generate is not None:
        print(json.dumps(time_generate(args.time_generate)))
        return 0
    if args.time_load is not None:
        print(json.dumps(time_load(args.time_load)))
        return 0
    if args.time_step is not None:
        print(json.dumps(time_step(int(args.time_step[0]), args.time_step[1], args.workdir)))
        return 0
    if args.time_rank:
        print(json.dumps(time_rank()))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")

    if args.oracles:
        what = ("Seconds per exact-oracle call (the first, cold call and the median of "
                "the warm repeats after it, in-process, one fresh process per checkout)")
        settings = {"calls": ORACLE_CALLS, "repeats": ORACLE_REPEATS, "pairs": ORACLE_PAIRS}
        timed = ("oracles", {"unit": "s", "instance seed": 0,
                             "parent": oracle_column(args.parent),
                             "change": oracle_column(args.change)})
        pairs, traced, keys = ORACLE_PAIRS, "desk-oracle", ORACLE_TRACE_KEYS
    elif args.io:
        what = ("Seconds per step of the gen, prefs, solve chain (median of repeats, "
                "in-process, one fresh process per checkout and n), file bytes")
        settings = {"sizes": IO_SIZES, "repeats": IO_REPEATS, "generate_n": IO_GENERATE_N,
                    "rank_calls": RANK_CALLS, "rank_seconds": RANK_SECONDS,
                    "rank_rounds": RANK_ROUNDS, "pairs": IO_PAIRS}
        columns = {side: io_column(tree) for side, tree in (("parent", args.parent),
                                                            ("change", args.change))}
        same = all(columns["parent"][str(n)]["sha256"] == columns["change"][str(n)]["sha256"]
                   for n in IO_SIZES)
        timed = ("io", {"unit": "s", "instance": "euclidean-uniform, dimension 2, seed 0",
                        **columns, "equal_file_bytes": same,
                        "derive_preferences": rank_rounds(args.parent, args.change)})
        pairs, traced, keys = IO_PAIRS, "large-n", TRACE_KEYS
    else:
        what = "Per-layer seconds (median of repeats, in-process, one fresh process per n)"
        settings = {"sizes": SIZES, "parent_sizes": PARENT_SIZES, "metric_max_n": METRIC_MAX_N,
                    "parent_metric_max_n": PARENT_METRIC_MAX_N, "repeats": REPEATS,
                    "pairs": PAIRS}
        timed = ("layers", {
            "unit": "s",
            "repeats": REPEATS,
            "instance": "euclidean-uniform, dimension 2, seed 0",
            "parent": layer_column(args.parent, PARENT_SIZES, PARENT_METRIC_MAX_N),
            "change": layer_column(args.change, SIZES, METRIC_MAX_N),
        })
        pairs, traced, keys = PAIRS, "large-n", TRACE_KEYS
    result = {
        "what": what + " and perfbench end-to-end medians for a parent and a change checkout.",
        "method": "perfbench/run.py --seconds 25 from each checkout; pairs alternate which "
                  "side runs first; times are the benchmark's kernel-scaled values except "
                  "setup_s; quartiles are inclusive-method quantiles over the runs.",
        "settings": settings,
        "parent_rev": args.parent_rev,
        "environment": environment(),
        timed[0]: timed[1],
        "end_to_end": {},
    }
    for entry in pairs:
        workload, seed, count = entry.split(":")
        result["end_to_end"][f"{workload} seed {seed}"] = paired_runs(
            args.parent, args.change, workload, int(seed), int(count))
    result[f"trace_{traced.replace('-', '_')}_seed_0"] = {
        side: {k: v for k, v in perfbench(tree, traced, 0, 1)["metrics"].items() if k in keys}
        for side, tree in (("parent", args.parent), ("change", args.change))
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
