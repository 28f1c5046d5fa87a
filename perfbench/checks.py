"""Correctness gate: every op's output is checked outside the timed loop.

An op fails when it raised, exited non-zero, printed output that a
strict JSON parse rejects, returned an invalid solution, reported a
value that differs from the weight recomputed here from the instance,
or reported an ALG value above OPT by more than ``RATIO_TOL``.

Bench reports carry values but no solutions, so round 0 of a desk
workload is replayed through the ``gen``, ``oracle`` and ``solve`` verbs
on the same instances: their solutions are validated and re-weighed, and
their values must agree with the bench report.

For the default seed, the deterministic outputs (oracle optima, greedy
solutions and a digest of the n=1000 ranking table) must also match
``pins.json``. Randomized outputs are checked only for validity and
verdict, so a change to the random stream does not trip the gate.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from workloads import DESK, LARGE_N, call_cli

RATIO_TOL = 1e-9
VALUE_RTOL = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def strict_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return strict_json(fh.read())


def _close(a: float, b: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def solution_problems(payload: dict, w: np.ndarray, k: int | None = None) -> list[str]:
    """Validate a solve/oracle payload against the instance weights ``w``."""
    n = w.shape[0]
    kind = payload.get("kind")
    if payload.get("n") != n:
        return [f"payload n={payload.get('n')} for an instance of size {n}"]
    if kind == "matching":
        edges = [tuple(e) for e in payload["edges"]]
        nodes = [x for e in edges for x in e]
        if any(len(e) != 2 or not all(0 <= x < n for x in e) or e[0] == e[1] for e in edges):
            return ["matching edge out of range or a loop"]
        if len(set(nodes)) != len(nodes):
            return ["matching edges share a node"]
        value = sum(w[u, v] for u, v in edges)
    elif kind == "clustering":
        parts = payload["parts"]
        if sorted(x for p in parts for x in p) != list(range(n)):
            return ["clusters do not partition the nodes"]
        if k is not None and (len(parts) != k or len({len(p) for p in parts}) != 1):
            return [f"expected {k} equal clusters, got sizes {[len(p) for p in parts]}"]
        value = sum(w[p[i], p[j]] for p in parts for i in range(len(p))
                    for j in range(i + 1, len(p)))
    elif kind == "subset":
        nodes = payload["nodes"]
        if len(set(nodes)) != len(nodes) or not all(0 <= x < n for x in nodes):
            return ["subset nodes repeat or are out of range"]
        if k is not None and len(nodes) != k:
            return [f"expected {k} subset nodes, got {len(nodes)}"]
        value = sum(w[nodes[i], nodes[j]] for i in range(len(nodes))
                    for j in range(i + 1, len(nodes)))
    elif kind == "tour":
        order = payload["order"]
        if sorted(order) != list(range(n)):
            return ["tour is not a permutation of the nodes"]
        value = sum(w[a, b] for a, b in zip(order, order[1:])) + w[order[-1], order[0]]
    else:
        return [f"unknown solution kind {kind!r}"]
    if not _close(float(value), payload["value"]):
        return [f"reported value {payload['value']!r} != recomputed {float(value)!r}"]
    return []


def bench_problems(op: dict) -> list[str]:
    """Checks on one ``bench --trials 1`` op's own report."""
    if op["error"] or op["rc"] != 0:
        return [f"rc={op['rc']} error={op['error']} stderr={op['stderr'][-200:]!r}"]
    try:
        report = strict_json(op["stdout"])
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    argv = op["argv"]
    cfg = report["config"]
    out = []
    want = {"problem": _flag(argv, "--problem"), "algorithm": _flag(argv, "--algorithm"),
            "n": int(_flag(argv, "--n")), "seed": op["seed"], "trials": 1}
    for key, val in want.items():
        if cfg.get(key) != val:
            out.append(f"config {key}={cfg.get(key)!r}, requested {val!r}")
    records = report["records"]
    if len(records) != 1:
        return out + [f"{len(records)} records for one trial"]
    rec = records[0]
    if rec["seed"] != op["seed"]:
        out.append(f"record seed {rec['seed']} != {op['seed']}")
    if not (rec["opt"] > 0 and rec["alg"] > 0):
        out.append(f"non-positive values opt={rec['opt']} alg={rec['alg']}")
    elif rec["alg"] > rec["opt"] + RATIO_TOL:
        out.append(f"ALG {rec['alg']!r} exceeds OPT {rec['opt']!r}")
    elif not _close(rec["ratio"], rec["opt"] / rec["alg"], 1e-12):
        out.append(f"ratio {rec['ratio']!r} != opt/alg")
    if not (report["verdict"] and rec["passed"]):
        out.append("verdict failed")
    return out


def _gen_weights(argv, seed, path) -> np.ndarray:
    """Regenerate a bench op's instance through the ``gen`` verb."""
    res = call_cli(["gen", "--family", _flag(argv, "--family"), "--n", _flag(argv, "--n"),
                    "--seed", str(seed), "--out", path])
    if res["rc"] != 0:
        raise RuntimeError(f"gen failed: {res['error'] or res['stderr']}")
    return np.array(strict_json_file(path)["weights"], dtype=float)


def cross_check_desk(workload: str, ops: list[dict], workdir: str) -> tuple[dict, dict]:
    """Replay round-0 bench ops through gen/oracle/solve.

    Returns (op index -> problems, pin values).
    """
    problems, pins = {}, {"opt": {}, "greedy": {}}
    os.makedirs(workdir, exist_ok=True)
    for op in ops:
        argv, label = op["argv"], op["label"]
        msgs = []
        try:
            rec = strict_json(op["stdout"])["records"][0]
            path = os.path.join(workdir, f"desk-{op['index']}.json")
            w = _gen_weights(argv, op["seed"], path)
            k = _flag(argv, "--k")
            kargs = ["--k", k] if k is not None else []
            kk = int(k) if k is not None else None
            problem, algorithm = _flag(argv, "--problem"), _flag(argv, "--algorithm")
            base = ["--instance", path, "--problem", problem, *kargs, "--seed", str(op["seed"])]
            oracle = call_cli(["oracle", *base])
            solve = call_cli(["solve", *base, "--algorithm", algorithm])
            for verb, res in (("oracle", oracle), ("solve", solve)):
                if res["rc"] != 0:
                    msgs.append(f"{verb} rc={res['rc']} {res['error'] or res['stderr'][-200:]}")
            if not msgs:
                opt_payload, alg_payload = strict_json(oracle["stdout"]), strict_json(solve["stdout"])
                size_k = kk if problem in ("ksum", "densest") else None
                msgs += [f"oracle: {m}" for m in solution_problems(opt_payload, w, size_k)]
                msgs += [f"solve: {m}" for m in solution_problems(alg_payload, w, size_k)]
                if opt_payload["value"] != rec["opt"]:
                    msgs.append(f"oracle value {opt_payload['value']!r} != bench opt {rec['opt']!r}")
                if alg_payload["value"] > opt_payload["value"] + RATIO_TOL:
                    msgs.append("solve value exceeds the oracle optimum")
                pins["opt"][label] = rec["opt"]
                deterministic = DESK[workload][label][1] == 1
                if deterministic:
                    if not _close(alg_payload["value"], rec["alg"]):
                        msgs.append(f"solve value {alg_payload['value']!r} != bench alg {rec['alg']!r}")
                    pins["greedy"][label] = alg_payload
        except (ValueError, KeyError, IndexError, TypeError, RuntimeError) as exc:
            msgs.append(f"cross-check raised {type(exc).__name__}: {exc}")
        if msgs:
            problems[op["index"]] = msgs
    return problems, pins


def _ranking_problems(ranking: np.ndarray, w: np.ndarray) -> list[str]:
    n = w.shape[0]
    if ranking.shape != (n, n - 1):
        return [f"ranking table shape {ranking.shape}, expected {(n, n - 1)}"]
    expected = np.array([[j for j in range(n) if j != i] for i in range(n)])
    if not np.array_equal(np.sort(ranking, axis=1), expected):
        return ["a ranking row is not a permutation of the other nodes"]
    ws = np.take_along_axis(w, ranking, axis=1)
    step = np.diff(ws, axis=1)
    if (step > 0).any():
        return ["a ranking row is not in descending weight order"]
    if ((step == 0) & (np.diff(ranking, axis=1) < 0)).any():
        return ["a weight tie is not broken by ascending index"]
    return []


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int32).tobytes()).hexdigest()


def check_chain(ops: list[dict]) -> tuple[dict, dict]:
    """Check one large-n chain (gen, prefs, solve mwm, solve tsp).

    Returns (op index -> problems, pin values).
    """
    problems, pins = {}, {}
    by_label = {op["label"]: op for op in ops}
    for op in ops:
        if op["error"] or op["rc"] != 0:
            problems[op["index"]] = [f"rc={op['rc']} error={op['error']} "
                                     f"stderr={op['stderr'][-200:]!r}"]
    if problems:
        return problems, pins

    def fail(label, msg):
        problems.setdefault(by_label[label]["index"], []).append(msg)

    try:
        inst = strict_json_file(by_label["gen"]["out"])
        w = np.array(inst["weights"], dtype=float)
        pts = np.array(inst["points"], dtype=float)
    except (ValueError, KeyError) as exc:
        fail("gen", f"instance file unreadable: {exc}")
        return problems, pins
    diff = pts[:, None, :] - pts[None, :, :]
    if inst.get("n") != LARGE_N or w.shape != (LARGE_N, LARGE_N):
        fail("gen", f"instance has n={inst.get('n')}, shape {w.shape}")
        return problems, pins
    if not (np.array_equal(w, w.T) and not np.diagonal(w).any()
            and np.allclose(w, np.sqrt((diff * diff).sum(axis=-1)), rtol=1e-12, atol=1e-12)):
        fail("gen", "weights are not the points' euclidean distances")
    del diff
    try:
        ranking = np.array(strict_json_file(by_label["prefs"]["out"])["ranking"])
        for m in _ranking_problems(ranking, w):
            fail("prefs", m)
        pins["ranking_sha256"] = digest(ranking)
    except (ValueError, KeyError) as exc:
        fail("prefs", f"ranking file unreadable: {exc}")
    for label, kind in (("solve-mwm-greedy", "matching"), ("solve-tsp-hybrid", "tour")):
        try:
            payload = strict_json_file(by_label[label]["out"])
        except ValueError as exc:
            fail(label, f"solution file unreadable: {exc}")
            continue
        if payload.get("kind") != kind:
            fail(label, f"solution kind {payload.get('kind')!r}, expected {kind}")
            continue
        for m in solution_problems(payload, w):
            fail(label, m)
        if kind == "matching":
            if len(payload["edges"]) != LARGE_N // 2:
                fail(label, f"{len(payload['edges'])} edges, expected a perfect matching")
            pins["mwm_greedy_sha256"] = digest(sorted(map(tuple, payload["edges"])))
            pins["mwm_greedy_value"] = payload["value"]
    return problems, pins


def pin_problems(found: dict, pinned: dict, where: str = "") -> list[str]:
    """Compare recorded deterministic outputs; floats to 1e-12 relative."""
    out = []
    for key, want in pinned.items():
        got = found.get(key)
        if isinstance(want, dict):
            out += pin_problems(got or {}, want, f"{where}{key}.")
        elif isinstance(want, float) and isinstance(got, float):
            if not _close(got, want, 1e-12):
                out.append(f"{where}{key}: {got!r} != pinned {want!r}")
        elif got != want:
            out.append(f"{where}{key}: {got!r} != pinned {want!r}")
    return out


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_identity(op: dict) -> str:
    """What must not change when tracing is on: the op's full output."""
    if op["out"]:
        return file_digest(op["out"]) if os.path.exists(op["out"]) else "missing"
    return hashlib.sha256(op["stdout"].encode("utf-8")).hexdigest()
