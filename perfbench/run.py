"""ordmatch benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload desk-mc --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it builds nothing and imports
``ordmatch`` from the checkout's ``src/``. See perfbench/README.md for
the workloads, the metrics and what each should move.

The workload runs in a fresh single-threaded child process; ``setup_s``
is the median of several further fresh processes. All outputs are
checked here, after the child has exited, so the checks neither add to
the timings nor to the child's peak RSS. The last line of stdout is
the result as one JSON object; a copy with an environment stamp goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# name -> unit; the keys of "metrics" in the last line, as in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.p90": "s",
              "draws_per_s": "1/s", "peak_rss_mb": "MiB"}


def _child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    return env


def _child(args, timeout) -> str:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup() -> list[float]:
    return [json.loads(_child(["setup"], 60).splitlines()[-1])["setup_s"]
            for _ in range(SETUP_PROBES)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment_stamp() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def verify(workload, seed, result, workdir) -> tuple[dict, list[str]]:
    """Run every check; returns (op -> problems, run-level problems).

    Untraced ops are keyed by their index, traced reruns by "traced <index>".
    """
    from checks import (bench_problems, check_chain, cross_check_desk, output_identity,
                        pin_problems)
    from workloads import DEFAULT_SEED, DESK

    failed, run_msgs, pins = {}, [], {}
    rounds = result["rounds"]
    if workload in DESK:
        for rnd in rounds:
            for op in rnd["ops"]:
                msgs = bench_problems(op)
                if msgs:
                    failed[op["index"]] = msgs
        probs, pins = cross_check_desk(workload, rounds[0]["ops"], workdir)
        for idx, msgs in probs.items():
            failed.setdefault(idx, []).extend(msgs)
    else:
        for rnd in rounds:
            probs, found = check_chain(rnd["ops"])
            for idx, msgs in probs.items():
                failed.setdefault(idx, []).extend(msgs)
            if rnd["round"] == 0:
                pins = found
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)[workload]
        run_msgs += [f"pinned output differs: {m}" for m in pin_problems(pins, pinned)]
    for plain, traced in zip(rounds, result.get("traced", ())):
        for a, b in zip(plain["ops"], traced["ops"]):
            if output_identity(a) != output_identity(b):
                failed[f"traced {b['index']}"] = ["output differs from the untraced op"]
    return failed, run_msgs


def end_to_end(result, setup, scaled=True) -> dict:
    """End-to-end metrics from kernel-scaled op times, or from raw ones.

    Set-up is dominated by imports, which the kernel does not track, so
    ``setup_s`` is always the raw median of the fresh-process probes.
    """
    key = "scaled_seconds" if scaled else "seconds"
    rounds = result["rounds"]
    ops = [op for rnd in rounds for op in rnd["ops"]]
    lat = [op[key] for op in ops]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rnd[key] for rnd in rounds),
        "op_s.p50": statistics.median(lat),
        "op_s.p90": p90(lat),
        "draws_per_s": sum(op["draws"] for op in ops) / sum(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(result) -> dict:
    from tracing import MODULES as LAYERS, REPORTED

    trace = result["trace"]
    traced, plain = result["traced"], result["rounds"]
    k = len(traced)
    m = {}
    for name, parts in REPORTED.items():
        m[f"{name}.calls"] = (sum(trace["calls"][p] for p in parts) / k, "count")
        m[f"{name}.self_s"] = (sum(trace["self_s"][p] for p in parts) / k, "s")
    ops = [op for rnd in traced for op in rnd["ops"]]
    draws = sum(op["draws"] for op in ops)
    m["core.Matching.from_pairs.per_draw"] = (
        trace["calls"]["core.Matching.from_pairs"] / draws if draws else 0.0, "count")
    m["core.greedy_k_matching.repeat_ratio"] = (trace["greedy_repeat_ratio"], "ratio")
    m["instance.derive_preferences.repeat_ratio"] = (trace["rank_repeat_ratio"], "ratio")
    m["oracle.dp_states"] = (trace["dp_states"] / k, "count")
    m["oracle.budget_used_ratio"] = (trace["budget_used_ratio"], "ratio")
    m["oracle.failed"] = (trace["oracle_failed"] / k, "count")
    for verb in ("gen", "prefs", "solve"):
        m[f"cli.{verb}_s"] = (sum(op["seconds"] for op in ops if op["verb"] == verb) / k, "s")
    m["cli.bytes_written"] = (sum(op["bytes_written"] for op in ops) / k, "bytes")
    m["cli.bytes_read"] = (sum(op["bytes_read"] for op in ops) / k, "bytes")
    traced_busy = sum(rnd["seconds"] for rnd in traced)
    for layer in LAYERS:
        self_s = sum(v for n, v in trace["self_s"].items() if n.startswith(layer + "."))
        m[f"layer.{layer}.self_s"] = (self_s / k, "s")
        m[f"layer.{layer}.share"] = (self_s / traced_busy, "ratio")
    traced_wall = statistics.median(rnd["scaled_seconds"] for rnd in traced)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.spans"] = (trace["spans"] / k, "count")
    m["tracing_overhead_s"] = (
        traced_wall - statistics.median(rnd["scaled_seconds"] for rnd in plain), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def _print_human(args, metrics, raw, attempted, failed, result, problems) -> None:
    ops = [op for rnd in result["rounds"] for op in rnd["ops"]]
    print(f"ordmatch benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  rounds={len(result['rounds'])} ops={len(ops)} setup probes={SETUP_PROBES}")
    if raw:
        print(f"  {'metric':44s} {'scaled':>12s} {'raw':>12s}")
    for name, m in metrics.items():
        raw_value = f"{raw[name]['value']:12.6g}" if raw else ""
        print(f"  {name:44s} {m['value']:12.6g} {raw_value} {m['unit']}")
    if not args.trace:
        print(f"  op_s samples: {len(ops)}; p90 has {len(ops) - int(0.9 * len(ops))} beyond it")
    else:
        shares = {name.split(".")[1]: m["value"] for name, m in metrics.items()
                  if name.endswith(".share")}
        print(f"  dominant layer: {max(shares, key=shares.get)}; "
              "oracle.dp_states is computed from n and k, not counted")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed}/{attempted} ops failed)")
    for msg in problems[:20]:
        print(f"  FAIL {msg}")


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    p = argparse.ArgumentParser(description="ordmatch benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "ordmatch", "__init__.py")):
        print(f"error: no ordmatch package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = measure_setup()
        result_path = os.path.join(workdir, "child.json")
        _child(["run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", workdir, "--result", result_path,
                "--spans", os.path.join(OUT, f"spans-{args.workload}.npz")],
               CHILD_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        failed_ops, run_msgs = verify(args.workload, args.seed, result, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(rnd["ops"]) for key in ("rounds", "traced")
                    for rnd in result.get(key, ()))
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    raw = {} if args.trace else end_to_end(result, setup, scaled=False)
    problems = run_msgs + [f"op {i}: {m}" for i, msgs in failed_ops.items() for m in msgs]
    _print_human(args, metrics, raw, attempted, len(failed_ops), result, problems)
    line = {"correct": not problems, "attempted": attempted, "failed": len(failed_ops),
            "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": environment_stamp(), "args": vars(args),
                   "setup_probes_s": setup, "fail_ratio": len(failed_ops) / attempted,
                   "problems": problems, "raw_metrics": raw,
                   "rounds": [{"seconds": rnd["seconds"], "scaled_seconds": rnd["scaled_seconds"],
                               "kernel_s": rnd["kernel_s"],
                               "op_seconds": [op["seconds"] for op in rnd["ops"]]}
                              for rnd in result["rounds"]], **line}, fh, indent=2)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
