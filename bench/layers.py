"""Per-layer scaling of two ordmatch checkouts, plus paired benchmark runs.

    python bench/layers.py [--oracles | --io | --draws] --parent PARENT_DIR --change CHANGE_DIR \
        --out OUT

PARENT_DIR and CHANGE_DIR are checkouts of two commits (each with ``src/ordmatch``
and ``perfbench/``). Each measurement is a probe, one function of ``PROBES``, run
in a fresh process on one checkout's ``src`` (``--probe NAME ARG...`` prints its
JSON line). Each mode is one row of ``MODES``: the default one times each layer,
``--oracles`` each exact oracle per call, ``--io`` each step of the large-n CLI
chain, ``--draws`` each batched draw kernel and weight gather at desk-mc sizes. Probe
rounds and perfbench pairs alternate which side runs first. The metrics, workloads and run
length are those of the repository's own ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
INSTANCE = "euclidean-uniform, dimension 2, seed 0"
REPEATS = 3
SIZES = [100, 300, 1000, 2000, 5000]
METRIC_MAX_N = 2000
# Perfbench pairs per entry of ``pair_plan``, the held-out seed's too: three could not tell a
# few-percent shift, or a 19% op_s.p90 one, from host noise.
PAIRS = 10
# (label, family, n, k) per oracle call: desk-oracle's five sizes, desk-mc's four, then
# larger ones; the last is the matching oracle's widest table, (k + 1) * 2^20 floats.
ORACLE_CALLS = [("mwm", "euclidean-uniform", 16, None), ("mkm", "euclidean-uniform", 14, 4),
                ("densest", "random-metric-closure", 16, 8), ("tsp", "euclidean-uniform", 14, None),
                ("ksum", "euclidean-uniform", 10, 5), ("mwm", "euclidean-uniform", 12, None),
                ("tsp", "clustered-gaussian", 10, None), ("ksum", "random-metric-closure", 8, 2),
                ("densest", "euclidean-uniform", 12, 6), ("mwm", "euclidean-uniform", 18, None),
                ("mwm", "euclidean-uniform", 20, None), ("mkm", "euclidean-uniform", 16, 4),
                ("tsp", "euclidean-uniform", 15, None), ("mkm", "euclidean-uniform", 20, 9)]
ORACLE_REPEATS = 5
# fresh processes per checkout for the per-call times: in one process per side an
# unchanged oracle read up to 1.4x slower on a shared host
ORACLE_ROUNDS = 5
IO_SIZES = [1000, 2000, 3000]
IO_GENERATE_N = 3000
# (label, n, all-0/1 weights) per derive_preferences timing: large-n's n on floats and on the
# matrix whose every row is tied, the two paths of the tie sort. The desk sizes are left to
# desk-mc and desk-oracle end to end: a call of tens of microseconds read up to 1.5x apart
# between rounds of unchanged code.
RANK_CALLS = [("n=1000", 1000, False), ("n=1000 all 0/1", 1000, True)]
RANK_SECONDS = 1.0
RANK_ROUNDS = 6
# (label, engine, family, n, k) per desk-mc config, as perfbench's DESK table holds them, each
# drawn DRAWS times per kernel call; and (label, n, k) per desk matching oracle call: desk-mc's
# and desk-oracle's two
DRAW_CONFIGS = [("mwm", "hybrid", "euclidean-uniform", 12, None),
                ("tsp", "hybrid", "clustered-gaussian", 10, None),
                ("ksum", "hybrid", "random-metric-closure", 8, 2),
                ("densest", "random", "euclidean-uniform", 12, 6)]
DRAWS = 500
DRAW_MATCHINGS = [("mwm", 12, None), ("mwm", 16, None), ("mkm", 14, 4)]
DRAW_REPEATS = 101
# fresh processes per checkout, the sides alternating: per-call medians of tens of microseconds
# moved by up to a tenth between processes of unchanged code
DRAW_ROUNDS = 8
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SIDES = ("parent", "change")


def benchmark() -> dict:
    """The repository's benchmark: its workloads, run length and end-to-end metrics."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def pair_plan(traced: str) -> list:
    """(workload, seed, pairs) per paired-run entry of a mode: its traced workload on seed 0
    and on seed 5, held out from the runs made while writing a change, then every other
    workload on seed 0, in the benchmark's order."""
    others = [w["name"] for w in benchmark()["workloads"] if w["name"] != traced]
    return [(traced, 0, PAIRS), (traced, 5, PAIRS), *((name, 0, PAIRS) for name in others)]


def _peak() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _once(call, *args) -> dict:
    """Seconds of one call and the peak RSS of this process after it."""
    start = time.perf_counter()
    call(*args)
    return {"seconds": time.perf_counter() - start, "peak_rss_mb": _peak()}


def _cli(om, argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if om.cli.main(argv) != 0:
            raise RuntimeError(f"{' '.join(argv)} failed")


def time_layers(om, n) -> dict:
    """Median seconds of each layer at one n."""
    n = int(n)
    spec = om.GeneratorSpec("euclidean-uniform", n, seed=0)
    inst = om.generate(spec)
    prof = om.derive_preferences(inst)
    matchings = om.hybrid_matchings(prof, 1, np.random.default_rng(0))
    layers = {
        "generate": lambda: om.generate(spec),
        "derive_preferences": lambda: om.derive_preferences(inst),
        "greedy_k_matching n/2": lambda: om.greedy_k_matching(prof, n // 2),
        "hybrid_matchings 1 draw": lambda: om.hybrid_matchings(prof, 1, np.random.default_rng(0)),
        "matchings_to_tours": lambda: om.matchings_to_tours(matchings, prof,
                                                            np.random.default_rng(0)),
        "profile_consistent": lambda: om.profile_consistent(prof, inst),
    }
    if n <= METRIC_MAX_N:
        layers["validate_metric"] = lambda: om.validate_metric(inst)
    out = {name: statistics.median(_once(call)["seconds"] for _ in range(REPEATS))
           for name, call in layers.items()}
    return {**out, "peak_rss_mb": _peak()}


def time_oracles(om) -> dict:
    """Seconds of the first call and median seconds of the warm calls per exact oracle."""
    oracles = {"mwm": lambda inst, k: om.opt_matching(inst, inst.n // 2), "mkm": om.opt_matching,
               "densest": om.opt_densest, "ksum": om.opt_k_sum,
               "tsp": lambda inst, k: om.opt_tsp(inst)}
    out = {}
    for label, family, n, k in ORACLE_CALLS:
        inst = om.generate(om.GeneratorSpec(family, n, seed=0))
        times = [_once(oracles[label], inst, k)["seconds"] for _ in range(1 + ORACLE_REPEATS)]
        key = f"{label} n={n}" + ("" if k is None else f" k={k}")
        out[key] = {"cold": times[0], "warm": statistics.median(times[1:])}
    return {**out, "peak_rss_mb": _peak()}


def _draw_calls(om, label: str, engine: str, family: str, n: int, k) -> dict:
    """The calls of one ``DRAW_CONFIGS`` entry on its seed-0 instance, by name: draw ``DRAWS``
    matchings, repackage them for the problem (not for mwm), and weigh the solutions."""
    inst = om.generate(om.GeneratorSpec(family, n, seed=0))
    prof, gen = om.derive_preferences(inst), np.random.default_rng(0)
    draw = (functools.partial(om.hybrid_matchings, prof, DRAWS, gen) if engine == "hybrid"
            else functools.partial(om.random_k_matchings, range(n), k // 2, DRAWS, gen))
    reduce, value = {
        "mwm": (None, om.core.matching_values),
        "tsp": (functools.partial(om.matchings_to_tours, profile=prof, gen=gen),
                om.reductions.tour_values),
        "ksum": (functools.partial(om.matchings_to_clusters, n=n, k=k),
                 om.reductions.cluster_values),
        "densest": (om.matchings_to_subsets, om.reductions.subset_values),
    }[label]
    matchings = draw()
    solutions = matchings if reduce is None else reduce(matchings)
    calls = [draw, functools.partial(value, solutions, inst.weights)]
    if reduce is not None:
        calls.append(functools.partial(reduce, matchings))
    return {f"{label}/{engine} {call.func.__name__}": call for call in calls}


def time_draws(om) -> dict:
    """Median seconds of ``DRAW_REPEATS`` calls of each ``_draw_calls`` call of each desk-mc
    config and of each ``DRAW_MATCHINGS`` oracle call."""
    calls = {}
    for config in DRAW_CONFIGS:
        calls.update(_draw_calls(om, *config))
    for label, n, k in DRAW_MATCHINGS:
        inst = om.generate(om.GeneratorSpec("euclidean-uniform", n, seed=0))
        key = f"opt_matching {label} n={n}" + ("" if k is None else f" k={k}")
        calls[key] = lambda inst=inst, k=n // 2 if k is None else k: om.opt_matching(inst, k)
    out = {name: statistics.median(_once(call)["seconds"] for _ in range(DRAW_REPEATS))
           for name, call in calls.items()}
    return {**out, "peak_rss_mb": _peak()}


def _io_chain(n: int, workdir: str) -> tuple:
    """The files of the large-n CLI chain in ``workdir`` and the argv of each of its steps."""
    files = {name: os.path.join(workdir, f"{name}.json")
             for name in ("instance", "prefs", "mwm", "tsp")}
    inst = ["--instance", files["instance"], "--seed", "0"]
    return files, {
        "gen": ["gen", "--family", "euclidean-uniform", "--n", str(n), "--seed", "0",
                "--out", files["instance"]],
        "prefs": ["prefs", *inst, "--out", files["prefs"]],
        "solve mwm greedy": ["solve", *inst, "--problem", "mwm", "--algorithm", "greedy",
                             "--out", files["mwm"]],
        "solve tsp hybrid": ["solve", *inst, "--problem", "tsp", "--algorithm", "hybrid",
                             "--out", files["tsp"]],
    }


def time_chain(om, n, workdir: str) -> dict:
    """Median seconds per step of the large-n CLI chain and the bytes of each file it writes
    (into ``workdir``), with the peak RSS after each step of the first chain."""
    files, steps = _io_chain(int(n), workdir)
    times, peaks = {name: [] for name in steps}, {}
    for _ in range(REPEATS):
        for name, argv in steps.items():
            step = _once(_cli, om, argv)
            times[name].append(step["seconds"])
            peaks.setdefault(name, step["peak_rss_mb"])
    out = {name: statistics.median(t) for name, t in times.items()}
    return {**out, "chain": sum(out.values()), "peak_rss_mb_after": peaks,
            "bytes": {name: os.path.getsize(path) for name, path in files.items()},
            "sha256": {name: _sha256(path) for name, path in files.items()},
            "peak_rss_mb": _peak()}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # streamed: reading the whole file would raise the peak
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def indent(om, path: str, out: str) -> dict:
    """Write the instance file ``path`` to ``out`` in the layout older versions wrote,
    ``json.dumps(inst.to_dict(), indent=2)``, one weight row at a time."""
    inst = om.load_instance(path)
    head, tail = json.dumps({**inst._fields(), "weights": "\0"}, indent=2).split('"\\u0000"')
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(head + "[")
        for i, row in enumerate(inst.weights):
            cells = ",\n      ".join(map(repr, row.tolist()))
            fh.write(f"{',' if i else ''}\n    [\n      {cells}\n    ]")
        fh.write("\n  ]" + tail + "\n")
    return {"bytes": os.path.getsize(out)}


def time_rank(om) -> dict:
    """Median seconds per ``derive_preferences`` call for each of ``RANK_CALLS``, repeated for
    about ``RANK_SECONDS`` (at least 3 calls) each."""
    out = {}
    for label, n, zero_one in RANK_CALLS:
        if zero_one:
            w = np.triu(np.random.default_rng(0).integers(0, 2, (n, n)), 1).astype(float)
            inst = om.WeightedInstance(w + w.T)
        else:
            inst = om.generate(om.GeneratorSpec("euclidean-uniform", n, seed=0))
        times = []
        while len(times) < 3 or sum(times) < RANK_SECONDS:
            times.append(_once(om.derive_preferences, inst)["seconds"])
        out[label] = {"seconds": statistics.median(times), "calls": len(times)}
    return out


# Each probe takes the ordmatch package first, then its string arguments.
PROBES = {
    "layers": time_layers, "oracles": time_oracles, "chain": time_chain, "rank": time_rank,
    "draws": time_draws,
    # one call each, in a process that makes only it
    "step": lambda om, n, step, workdir: _once(_cli, om, _io_chain(int(n), workdir)[1][step]),
    "load": lambda om, path: _once(om.load_instance, path),
    "indent": indent,
    "generate": lambda om, n: _once(om.generate, om.GeneratorSpec("euclidean-uniform", int(n),
                                                                   seed=0)),
}


def _run(cmd: list, **kwargs) -> str:
    """The stdout of ``cmd``; if it fails, a RuntimeError with the command, its exit code and
    the tail of its stderr."""
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def checkout(tree: str) -> dict:
    """The commit ``tree`` has checked out (``git rev-parse HEAD``) and whether its tracked files
    match it (``git status --porcelain --untracked-files=no`` is empty), both None when ``tree``
    is not the top of a git checkout. perfbench's stamp cannot tell: it names the HEAD of the
    checkout a tree sits in, the parent commit for an uncommitted ``--change .``."""
    try:
        top, head = _run(["git", "-C", tree, "rev-parse", "--show-toplevel", "HEAD"]).splitlines()
        if os.path.realpath(top) == os.path.realpath(tree):
            status = _run(["git", "-C", tree, "status", "--porcelain", "--untracked-files=no"])
            return {"head": head, "clean": status == ""}
    except (OSError, RuntimeError):  # no git, or no checkout at all
        pass
    return {"head": None, "clean": None}


def _child(tree: str, probe: str, *args) -> dict:
    """One probe in a fresh process that imports ``tree``'s ordmatch."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", probe, *map(str, args)]
    env = dict(os.environ, **SINGLE_THREAD, PYTHONPATH=os.path.join(tree, "src"))
    return json.loads(_run(cmd, env=env).splitlines()[-1])


def _alternate(rounds: int, run: Callable[[str, int], dict], label: str) -> dict:
    """``run(side, i)`` for both sides in each round i, the side that goes first alternating."""
    runs = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, i))
            print(f"  {label} {i} {side}: {runs[side][-1]}", file=sys.stderr, flush=True)
    return runs


def _median(runs: list):
    """Per leaf of the runs' common nested-dict shape, the median over the runs."""
    if isinstance(runs[0], dict):
        return {key: _median([r[key] for r in runs]) for key in runs[0]}
    return statistics.median(runs)


def _sweep(sizes: list, point: Callable[[str, int], dict]) -> dict:
    """``point(side, n)`` per side at each n, the side that goes first alternating over n."""
    runs = _alternate(len(sizes), lambda side, i: point(side, sizes[i]), f"n in {sizes}")
    return {side: {str(n): r for n, r in zip(sizes, rs)} for side, rs in runs.items()}


def layer_section(trees: dict) -> dict:
    return {"unit": "s", "repeats": REPEATS, "instance": INSTANCE,
            **_sweep(SIZES, lambda side, n: _child(trees[side], "layers", n))}


def oracle_section(trees: dict) -> dict:
    runs = _alternate(ORACLE_ROUNDS, lambda side, i: _child(trees[side], "oracles"), "oracles")
    med = {side: _median(rs) for side, rs in runs.items()}
    ratio = {key: med["change"][key]["warm"] / p["warm"]
             for key, p in med["parent"].items() if key != "peak_rss_mb"}
    return {"unit": "s", "instance seed": 0, **med, "warm_change_over_parent": ratio,
            "rounds": runs}


def draw_section(trees: dict) -> dict:
    runs = _alternate(DRAW_ROUNDS, lambda side, i: _child(trees[side], "draws"), "draws")
    med = {side: _median(rs) for side, rs in runs.items()}
    ratio = {key: med["change"][key] / p for key, p in med["parent"].items()
             if key != "peak_rss_mb"}
    return {"unit": "s per call", "instance seed": 0, "draws": DRAWS, **med,
            "change_over_parent": ratio, "rounds": runs}


def io_section(trees: dict) -> dict:
    def point(side: str, n: int) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            files, steps = _io_chain(n, tmp)
            out = _child(trees[side], "chain", n, tmp)
            # each its own process, started from this small one: a child's ru_maxrss starts
            # at the peak of the process that started it, and gen's peak would hide the read's;
            # the median of REPEATS such processes, as one sample could not be read alone
            def load(path: str) -> dict:
                return _median([_child(trees[side], "load", path) for _ in range(REPEATS)])

            out["load_instance alone"] = load(files["instance"])
            # the same instance indented: json.loads reads it where the row reader takes gen's
            # layout only, a whole-row scan where an older reader has one
            indented = os.path.join(tmp, "indented.json")
            out["indented bytes"] = _child(trees[side], "indent", files["instance"],
                                           indented)["bytes"]
            out["load_instance alone, indented"] = load(indented)
            os.remove(indented)
            out["step alone"] = {step: _child(trees[side], "step", n, step, tmp) for step in steps}
        return out

    columns = _sweep(IO_SIZES, point)
    gen = _alternate(1, lambda side, i: _child(trees[side], "generate", IO_GENERATE_N), "generate")
    for side, column in columns.items():
        column[f"generate n={IO_GENERATE_N}"] = gen[side][0]
    rank = _alternate(RANK_ROUNDS, lambda side, i: _child(trees[side], "rank"), "rank")
    med = {side: _median(rs) for side, rs in rank.items()}
    per_call = {label: {**{side: med[side][label]["seconds"] for side in SIDES},
                        "change_over_parent": med["change"][label]["seconds"]
                        / med["parent"][label]["seconds"]}
                for label, _, _ in RANK_CALLS}
    return {"unit": "s", "instance": INSTANCE, **columns,
            "equal_file_bytes": all(columns["parent"][str(n)]["sha256"]
                                    == columns["change"][str(n)]["sha256"] for n in IO_SIZES),
            "derive_preferences": {"unit": "s per call", "rounds": rank, **per_call}}


def perfbench(tree: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in ``tree``: its scaled metrics and, from its result file, its
    environment stamp, the raw (unscaled) metrics, per round the calibrate kernel's seconds
    around each op, and the fresh-process set-up probes whose median is ``setup_s``."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(benchmark()["run_seconds"]), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    line = json.loads(_run(cmd, cwd=tree, env=env).splitlines()[-1])
    result_path = os.path.join(tree, ".perfbench_out",
                               f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "environment": result["environment"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
            "raw_metrics": {k: v["value"] for k, v in result["raw_metrics"].items()},
            "kernel_s": [rnd["kernel_s"] for rnd in result["rounds"]],
            **{key: result[key] for key in ("setup_probes_s",) if key in result}}


def _spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _compare(p: list, c: list, better: str) -> dict:
    wins = sum((cv < pv) if better == "lower" else (cv > pv) for pv, cv in zip(p, c))
    return {"better": better, "parent": {**_spread(p), "runs": p},
            "change": {**_spread(c), "runs": c},
            "change_over_parent_median": statistics.median(c) / statistics.median(p),
            "change_wins_pairs": wins}


def paired_runs(trees: dict, workload: str, seed: int, pairs: int) -> dict:
    """``pairs`` alternating perfbench runs per side: per end-to-end metric the scaled values,
    and under ``raw`` the unscaled ones (scaling divides by a kernel timed in the same process,
    whose allocator state a change can move), beside ``setup_s`` each run's set-up probes, and
    each side's kernel seconds over all rounds."""
    runs = _alternate(pairs, lambda side, i: perfbench(trees[side], workload, seed, 0),
                      f"{workload} seed {seed} pair")
    kernel = {side: [k for r in rs for rnd in r["kernel_s"] for k in rnd]
              for side, rs in runs.items()}
    metrics = {}
    for name, better in ((m["name"], m["better"]) for m in benchmark()["end_to_end"]):
        metrics[name] = _compare([r["metrics"][name] for r in runs["parent"]],
                                 [r["metrics"][name] for r in runs["change"]], better)
        metrics[name]["raw"] = _compare([r["raw_metrics"][name] for r in runs["parent"]],
                                        [r["raw_metrics"][name] for r in runs["change"]], better)
    metrics["setup_s"]["probes"] = {side: [r.get("setup_probes_s") for r in rs]
                                    for side, rs in runs.items()}
    return {
        "pairs": pairs,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "ops_failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "ops_attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
        "kernel_s": {side: {"count": len(ks), **_spread(ks)} for side, ks in kernel.items()},
    }


class Mode(NamedTuple):
    what: str
    probes: Callable[[dict], dict]  # runs the mode's probes for both checkouts: its section
    traced: str
    settings: dict


MODES = {
    "layers": Mode("Per-layer seconds (median of repeats, in-process, one fresh process per n)",
                   layer_section, "large-n",
                   {"sizes": SIZES, "metric_max_n": METRIC_MAX_N, "repeats": REPEATS}),
    "oracles": Mode("Seconds per exact-oracle call (the first, cold call and the median of "
                    "the warm repeats after it, in-process; medians over fresh processes per "
                    "checkout, the sides alternating)",
                    oracle_section, "desk-oracle",
                    {"calls": ORACLE_CALLS, "repeats": ORACLE_REPEATS, "rounds": ORACLE_ROUNDS}),
    "io": Mode("Seconds per step of the gen, prefs, solve chain (median of repeats, "
               "in-process, one fresh process per checkout and n), file bytes",
               io_section, "large-n",
               {"sizes": IO_SIZES, "repeats": REPEATS, "generate_n": IO_GENERATE_N,
                "rank_calls": RANK_CALLS, "rank_seconds": RANK_SECONDS,
                "rank_rounds": RANK_ROUNDS}),
    "draws": Mode("Seconds per batched draw kernel, weight gather and desk matching-oracle call "
                  "(median of repeats, in-process; medians over fresh processes per checkout, "
                  "the sides alternating)",
                  draw_section, "desk-mc",
                  {"configs": DRAW_CONFIGS, "draws": DRAWS, "matchings": DRAW_MATCHINGS,
                   "repeats": DRAW_REPEATS, "rounds": DRAW_ROUNDS}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probe", nargs="+", help=argparse.SUPPRESS)
    ap.add_argument("--io", action="store_true", help="the CLI chain mode instead of the layers")
    ap.add_argument("--oracles", action="store_true", help="the exact-oracle mode instead")
    ap.add_argument("--draws", action="store_true", help="the desk-mc draw-kernel mode instead")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--parent-rev", default=None, help="commit the parent checkout holds")
    ap.add_argument("--out", default="BENCH_layers.json")
    args = ap.parse_args(argv)

    if args.probe:
        import ordmatch.cli

        name, *probe_args = args.probe
        print(json.dumps(PROBES[name](ordmatch, *probe_args)))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")

    section = next((name for name in ("oracles", "io", "draws") if getattr(args, name)), "layers")
    mode, trees = MODES[section], {"parent": args.parent, "change": args.change}
    plan = pair_plan(mode.traced)
    result = {
        "what": mode.what + " and perfbench end-to-end medians for a parent and a change checkout.",
        "method": f"perfbench/run.py --seconds {benchmark()['run_seconds']} from each checkout; "
                  "pairs alternate which side runs first; times are the benchmark's "
                  "kernel-scaled values except setup_s, each metric's raw entry the unscaled "
                  "ones; quartiles are inclusive-method quantiles over the runs.",
        "settings": {**mode.settings, "pairs": [f"{w}:{seed}:{n}" for w, seed, n in plan]},
        "parent_rev": args.parent_rev,
        section: mode.probes(trees),
        "end_to_end": {f"{workload} seed {seed}": paired_runs(trees, workload, seed, n)
                       for workload, seed, n in plan},
    }
    traced = {side: perfbench(tree, mode.traced, 0, 1) for side, tree in trees.items()}
    # perfbench's own stamp, git_commit included, from each side's traced run, and beside it
    # the commit each tree holds and whether its tracked files are that commit's
    result["environment"] = {side: run["environment"] for side, run in traced.items()}
    result["checkout"] = {side: checkout(tree) for side, tree in trees.items()}
    result[f"trace_{mode.traced.replace('-', '_')}_seed_0"] = {
        side: run["metrics"] for side, run in traced.items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
