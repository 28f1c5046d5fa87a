"""Compare the command-line output of two ordmatch checkouts, byte for byte.

    python bench/cli_diff.py --parent PARENT_DIR --change CHANGE_DIR

PARENT_DIR and CHANGE_DIR are checkouts of two commits (each with
``src/ordmatch``). Each runs in its own fresh process that imports that
checkout's ``ordmatch`` and calls ``ordmatch.cli.main`` in-process on the
same fixed list of invocations (``invocations()``): every verb in both
formats, all three families, every problem x engine (rejected
combinations too), failing bounds, invalid flags and malformed instance
files. The instances the later verbs read are written by the checkout's
own ``gen``, or verbatim for the hand-written documents.

Per invocation the comparison covers the sha256 of stdout plus the
``--out`` file, the exit code (``raised <Type>`` for an exception that
escaped ``main``) and the first line of stderr, with the temporary
directory replaced by ``<TMP>``. Every difference is printed; the exit
status is 1 if there is one.

    python bench/cli_diff.py --run CHECKOUT_DIR

runs the list in one checkout and prints its records as one JSON list.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

FAMILIES = ("euclidean-uniform", "random-metric-closure", "clustered-gaussian")
ENGINES = ("greedy", "random", "hybrid")
# (problem, k) on the n=8 and n=10 instances; bench uses the n beside it
PROBLEM_KS = (("mwm", None, 6), ("mkm", 2, 8), ("ksum", 2, 8), ("densest", 4, 8), ("tsp", None, 6))
BAD_K = (("mkm", None), ("mkm", 9), ("mkm", 0), ("ksum", 0), ("ksum", 3), ("densest", 3),
         ("densest", 10))

# Hand-written instance files, by name.
DOCUMENTS = {
    "nonmetric": {"weights": [[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]]},
    # rejected before this list was checked in
    "no-weights": {"n": 2},
    "asymmetric": {"weights": [[0, 1], [2, 0]]},
    "size-mismatch": {"n": 5, "weights": [[0, 1], [1, 0]]},
    "ragged": {"weights": [[0, 1], [1]]},
    "string-weights": {"weights": "abc"},
    "top-level-list": [1, 2],
    "n-string": {"n": "two", "weights": [[0, 1], [1, 0]]},
    # escaped as TypeError tracebacks before malformed documents were rejected
    "top-level-5": 5,
    "top-level-null": None,
    "weights-object": {"weights": {"a": 1}},
    "meta-3": {"weights": [[0, 1], [1, 0]], "meta": 3},
    "meta-list": {"weights": [[0, 1], [1, 0]], "meta": [1]},
    "n-list": {"n": [2], "weights": [[0, 1], [1, 0]]},
    "n-null": {"n": None, "weights": [[0, 1], [1, 0]]},
    "points-object": {"weights": [[0, 1], [1, 0]], "points": {"a": 1}},
}
NOT_JSON = "{"


def _k(k):
    return [] if k is None else ["--k", str(k)]


def invocations() -> list:
    """The fixed argv list; ``{tmp}`` is the run's temporary directory."""
    inv = []
    # inputs for the verbs that read an instance, written by gen
    inputs = {"a": ("euclidean-uniform", 8, 3, []), "b": ("random-metric-closure", 8, 4, []),
              "c": ("clustered-gaussian", 10, 5, ["--clusters", "2", "--dimension", "3"])}
    for name, (fam, n, seed, extra) in inputs.items():
        inv.append(["gen", "--family", fam, "--n", str(n), "--seed", str(seed), *extra,
                    "--out", f"{{tmp}}/{name}.json"])
    for fam in FAMILIES:
        for fmt in ("json", "csv"):
            for n, seed in ((5, 1), (8, 2)):
                inv.append(["gen", "--family", fam, "--n", str(n), "--seed", str(seed),
                            "--format", fmt])
    inv += [["gen", "--n", "6", "--dimension", "3"],
            ["gen", "--family", "clustered-gaussian", "--n", "6", "--clusters", "1"],
            ["gen", "--n", "6", "--format", "csv", "--out", "{tmp}/gen.csv"],
            ["gen", "--n", "6", "--out", "-"],
            ["gen", "--n", "6", "--seed", "-1"],
            ["gen", "--n", "1"],
            ["gen", "--n", "6", "--dimension", "0"],
            ["gen", "--family", "clustered-gaussian", "--n", "6", "--clusters", "0"]]

    insts = [f"{{tmp}}/{name}.json" for name in inputs]
    a = insts[0]
    for path in insts:
        for fmt in ("json", "csv"):
            inv.append(["prefs", "--instance", path, "--format", fmt])
    inv += [["prefs", "--instance", a, "--out", "{tmp}/prefs.json"],
            ["prefs", "--instance", "{tmp}/nonmetric.json", "--format", "csv"]]

    for path in [*insts, "{tmp}/nonmetric.json"]:
        for fmt in ("json", "csv"):
            inv.append(["verify-metric", "--instance", path, "--format", fmt])
    inv += [["verify-metric", "--instance", "{tmp}/nonmetric.json", "--tol", "3.0"],
            ["verify-metric", "--instance", insts[1], "--tol", "1e-9"],
            ["verify-metric", "--instance", a, "--tol", "-1"],
            ["verify-metric", "--instance", a, "--tol=-inf"],
            ["verify-metric", "--instance", "{tmp}/nope.json"],
            # rejected since non-finite flags are refused
            ["verify-metric", "--instance", a, "--tol", "inf"],
            ["verify-metric", "--instance", a, "--tol", "nan"]]

    for path in (a, insts[2]):
        for problem, k, _ in PROBLEM_KS:
            for engine in ENGINES:
                inv.append(["solve", "--instance", path, "--problem", problem,
                            "--algorithm", engine, "--seed", "7", *_k(k)])
    for problem, k, _ in PROBLEM_KS:
        for engine in ENGINES:
            inv.append(["solve", "--instance", a, "--problem", problem, "--algorithm", engine,
                        *_k(k), "--format", "csv"])
    inv += [["solve", "--instance", a, "--problem", "ksum", "--algorithm",
             "reduction-of(greedy)", "--k", "2"],
            ["solve", "--instance", a, "--problem", "mwm", "--algorithm", "hybrid",
             "--seed", "-3"],
            ["solve", "--instance", a, "--problem", "tsp", "--algorithm", "hybrid",
             "--out", "{tmp}/tour.json"],
            ["solve", "--instance", a, "--problem", "mwm", "--algorithm", "bogus"]]
    for problem, k in BAD_K:
        inv.append(["solve", "--instance", a, "--problem", problem, *_k(k)])

    for path in insts:
        for problem, k, _ in PROBLEM_KS:
            inv.append(["oracle", "--instance", path, "--problem", problem, *_k(k)])
    for problem, k, _ in PROBLEM_KS:
        inv.append(["oracle", "--instance", a, "--problem", problem, *_k(k), "--format", "csv"])
    for problem, k in BAD_K:
        inv.append(["oracle", "--instance", a, "--problem", problem, *_k(k)])

    for problem, k, n in PROBLEM_KS:
        for engine in ENGINES:
            inv.append(["bench", "--problem", problem, "--algorithm", engine, "--n", str(n),
                        *_k(k), "--trials", "2", "--inner-samples", "30", "--seed", "2"])
            inv.append(["bench", "--problem", problem, "--algorithm", engine, "--n", str(n),
                        *_k(k), "--trials", "2", "--inner-samples", "30", "--format", "csv"])
    bench = ["bench", "--problem", "mwm", "--n", "6", "--trials", "2"]
    inv += [[*bench, "--family", "random-metric-closure"],
            [*bench, "--family", "clustered-gaussian", "--dimension", "3"],
            ["bench", "--problem", "mwm", "--n", "10", "--trials", "5", "--bound", "1.0"],
            ["bench", "--problem", "mwm", "--n", "10", "--trials", "5", "--bound", "1.0",
             "--format", "csv", "--out", "{tmp}/fail.csv"],
            [*bench, "--bound", "3.5"],
            [*bench, "--bound", "0"],
            [*bench, "--bound=-inf"],
            ["bench", "--problem", "mwm", "--n", "6", "--trials", "0"],
            ["bench", "--problem", "mwm", "--algorithm", "hybrid", "--n", "6",
             "--inner-samples", "1"],
            # rejected since non-finite flags are refused
            [*bench, "--bound", "inf"],
            [*bench, "--bound", "nan"]]

    inv += [["fixtures"], ["fixtures", "--format", "csv"],
            ["fixtures", "--format", "csv", "--out", "{tmp}/fixtures.csv"]]
    for name in ("randomization-floor", "mutual-top-pairs", "mixture-gap"):
        inv.append(["fixtures", "--name", name])

    for doc in [*list(DOCUMENTS)[1:], "not-json"]:
        path = f"{{tmp}}/{doc}.json"
        inv += [["prefs", "--instance", path],
                ["solve", "--instance", path, "--problem", "mwm"],
                ["oracle", "--instance", path, "--problem", "mwm"],
                ["verify-metric", "--instance", path]]

    inv += [["frobnicate"], ["prefs"], ["gen", "--n", "6", "--format", "xml"],
            ["solve", "--instance", a], ["bench", "--problem", "mwm"]]
    return inv


def _call(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a result to compare, not a crash
            rc = f"raised {type(exc).__name__}"
            print(f"{type(exc).__name__}: {exc}", file=err)
    return rc, out.getvalue(), err.getvalue()


def run(checkout: str) -> list:
    """Records of every invocation for the ordmatch in ``checkout``."""
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from ordmatch import cli

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in DOCUMENTS.items():
            with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with open(os.path.join(tmp, "not-json.json"), "w", encoding="utf-8") as fh:
            fh.write(NOT_JSON)
        for template in invocations():
            argv = [arg.replace("{tmp}", tmp) for arg in template]
            rc, stdout, stderr = _call(cli, argv)
            digest = hashlib.sha256(stdout.replace(tmp, "<TMP>").encode("utf-8"))
            out = argv[argv.index("--out") + 1] if "--out" in argv else "-"
            if out != "-" and os.path.exists(out):
                with open(out, "rb") as fh:
                    digest.update(b"\0--out\0" + fh.read().replace(tmp.encode(), b"<TMP>"))
            first = stderr.replace(tmp, "<TMP>").split("\n", 1)[0]
            records.append({"argv": " ".join(template), "sha256": digest.hexdigest()[:16],
                            "rc": rc, "stderr": first})
    return records


def _records(checkout: str) -> list:
    if not os.path.isdir(os.path.join(checkout, "src", "ordmatch")):
        sys.exit(f"error: {checkout} has no src/ordmatch")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--run", checkout],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: the run in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--run", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.run:
        print(json.dumps(run(args.run)))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are both required")
    parent, change = _records(args.parent), _records(args.change)
    differ = 0
    for p, c in zip(parent, change):
        if p != c:
            differ += 1
            print(f"DIFF {p['argv']}")
            for key in ("sha256", "rc", "stderr"):
                if p[key] != c[key]:
                    print(f"  {key}: parent {p[key]!r}  change {c[key]!r}")
    print(f"{len(parent)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
