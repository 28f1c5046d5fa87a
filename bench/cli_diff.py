"""Compare the command-line output of two ordmatch checkouts, byte for byte.

    python bench/cli_diff.py --parent PARENT_DIR --change CHANGE_DIR

PARENT_DIR and CHANGE_DIR are checkouts of two commits (each with
``src/ordmatch``). Each runs in its own fresh process that imports that
checkout's ``ordmatch`` and calls ``ordmatch.cli.main`` in-process on the
same fixed list of invocations (``invocations()``): every verb in both
formats, all three families, every problem x engine (rejected
combinations too, and ``bench`` by the ``reduction-of(...)`` spelling of
hybrid and of an unknown engine), failing bounds, a ``bench`` dimension
that ``gen`` refuses, invalid flags, malformed instance
files (hand-written documents, and raw texts: indented, reordered or
repeated keys, trailing commas, a byte-order mark, a lower cell written
unlike its mirror, a two-space separator, a file in gen's layout whose
last row breaks it, with and without an int cell, gen's layout with a
fullwidth digit left of the diagonal or a lower cell written "0.50" for
its mirror's "0.5", and gen's layout with its head or the text after
its weights edited), the matching oracle's
largest tables (n=20 on each family, and a tied 0/1 matrix at n=16),
the k-sum oracle at n=12, 16 and 18 (``oracle`` and ``bench``), every other
oracle one past its cap (mwm, mkm and densest at n=21, tsp at n=16, and ``bench``
of tsp at n=16), ``bench --n 1``, ``gen``
at n=65 and 130 on each family in both formats (one and three
dimensions) and ``prefs``, ``solve`` and ``verify-metric`` on an n=130 file,
``solve --problem tsp`` by greedy and by hybrid on that n=130 file and on the tied
0/1 matrix,
``gen`` at n=32 and 33 on each family in both formats and ``prefs`` and
``solve`` on an n=33 file, desk-mc's four ``bench`` configs at 500 draws, the
hybrid and greedy tour at 4097 draws (past a sample block), k-sum with odd clusters
and the hybrid on odd n (``bench``, and ``solve`` of tsp and mwm on an n=11 file),
desk-oracle's five ``bench`` configs at their perfbench sizes, ``gen`` of the
closure family at n=64, 65 and 100 (the triangle checks' pivot blocks) and
``verify-metric --tol 0`` on those files and on a one-dimensional
``clustered-gaussian`` n=30 file (exit 1),
``solve`` and ``oracle`` of every problem on n=2 and n=3 files,
``--seed -1`` on the verbs that draw nothing, ``solve`` at seeds 2^64 - 1 and 2^64,
``--help`` of every verb and an instance path with a comma. The
instances the later verbs read are written by the checkout's own
``gen``, or verbatim for the hand-written documents.

Per invocation the comparison covers the sha256 of stdout plus the
``--out`` file, the exit code (``raised <Type>`` for an exception that
escaped ``main``), and the first line and the sha256 of stderr, with the
temporary directory replaced by ``<TMP>``. Every difference is printed; the exit
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
VERBS = ("gen", "prefs", "solve", "oracle", "bench", "fixtures", "verify-metric")
# (problem, k) on the n=8 and n=10 instances; bench uses the n beside it
PROBLEM_KS = (("mwm", None, 6), ("mkm", 2, 8), ("ksum", 2, 8), ("densest", 4, 8), ("tsp", None, 6))
BAD_K = (("mkm", None), ("mkm", 9), ("mkm", 0), ("ksum", 0), ("ksum", 3), ("densest", 3),
         ("densest", 10),
         # accepted and ignored before mwm and tsp refused a k
         ("mwm", 3), ("tsp", 2))

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
    # loaded as n=2, metric=True or weights of 1.0 before JSON types were checked
    "n-float": {"n": 2.9, "weights": [[0, 1], [1, 0]]},
    "n-numeric-string": {"n": "2", "weights": [[0, 1], [1, 0]]},
    "metric-string": {"weights": [[0, 1], [1, 0]], "metric": "false"},
    "weights-numeric-strings": {"weights": [[0, "1"], ["1", 0]]},
    # loaded with the boolean read as 1.0 before element types were scanned
    "weights-bool-among-ints": {"n": 2, "weights": [[0, True], [True, 0]]},
    "weights-bool-among-floats": {"weights": [[0, 0.5, True], [0.5, 0, 1], [True, 1, 0]]},
    # -0.0 kept its sign as a weight (no verb prints it) before it became 0.0, and
    # non-finite points loaded before they were rejected like non-finite weights
    "weights-negative-zero": {"weights": [[0, -0.0], [-0.0, 0]]},
    "points-nan": {"weights": [[0, 1], [1, 0]], "points": [[float("nan"), 0], [float("inf"), 1]]},
    # every matching the oracle weighs ties with many others
    "zero-one-16": {"weights": [[int(i != j and i * j % 5 in (1, 4)) for j in range(16)]
                                for i in range(16)]},
}
# Hand-written instance texts, by name, written as they are: layouts and JSON errors a
# document above cannot show. A text in gen's layout takes the row-at-a-time weight reader,
# every other text json.loads.
_W4 = [[0, 3.5, 1, 2], [3.5, 0, 1, 1], [1, 1, 0, 5.25], [2, 1, 5.25, 0]]
_W2 = "[[0.0, 9.0], [9.0, 0.0]]"
_W3 = "[[0.0, 2.5, 3.0], [2.5, 0.0, 4.0], [3.0, 4.0, 0.0]]"
# gen's layout at n=6, the last row's first cell "0.5" written as "0.50": the row reader reads
# five rows and gives up at the last
_GEN6 = ('{"n": 6, "weights": %s, "metric": false}'
         % json.dumps([[(i + j) / 10 * (i != j) for j in range(6)] for i in range(6)])
         ).replace("[0.5, 0.6", "[0.50, 0.6")
RAW_DOCUMENTS = {
    "not-json": "{",
    "indented": json.dumps({"n": 4, "weights": _W4, "metric": False}, indent=2) + "\n",
    "reordered-keys": json.dumps({"meta": {"weights": [[0]]}, "points": [[0, 0], [1, 0], [0, 1],
                                  [1, 1]], "metric": True, "weights": _W4, "n": 4}),
    "weights-twice": '{"weights": %s, "n": 4, "weights": %s}' % (_W2, json.dumps(_W4)),
    "trailing-comma-object": '{"weights": %s,}' % _W2,
    "trailing-comma-weights": '{"weights": [[0.0, 9.0], [9.0, 0.0],]}',
    "bom": '\ufeff{"weights": %s}' % _W2,
    # rows whose text left of the diagonal is not byte for byte its mirror's, or whose cells a
    # separator other than ", " parts: the weight reader gives up and json.loads reads the text
    "mirror-int-against-float": '{"weights": [[0, 1.0, 2.5], [1, 0, 3.5], [2.5, 3.5, 0]]}',
    "two-spaces": '{"weights": [[0.0,  9.0,  1.5], [9.0,  0.0,  2.5], [1.5,  2.5,  0.0]]}',
    "gen-last-row-differs": _GEN6,
    "gen-last-row-differs-one-int": _GEN6.replace("0.0]]", "0]]"),
    # gen's layout with a lower cell that is not its mirror's text: a fullwidth digit, which
    # json.loads refuses, and "0.50" for "0.5", the same float, which it reads
    "non-ascii-left-of-diagonal": '{"weights": [[0.0, 1.5, 2.5], [\uff11.5, 0.0, 3.5], '
                                  '[2.5, 3.5, 0.0]]}',
    "mirror-same-float": '{"weights": [[0.0, 0.5, 2.5], [0.50, 0.0, 3.5], [2.5, 3.5, 0.0]]}',
    # gen's layout with its head or the text after the weights edited: json.loads reads the
    # tail (or, for a head it does not match, the whole text)
    "missing-comma-after-weights": '{"n": 3, "weights": %s "meta": {"a": 1}}' % _W3,
    "trailing-comma-after-weights": '{"n": 3, "weights": %s, }' % _W3,
    "n-and-weights-in-tail": '{"n": 2, "weights": %s, "n": 3, "weights": %s}' % (_W2, _W3),
    "non-ascii-meta-after-weights": '{"n": 3, "weights": %s, "meta": {"name": "caf\u00e9 \u2003"}}'
                                    % _W3,
    "n-minus-zero": '{"n": -0, "weights": %s}' % _W2,
    "n-exponent": '{"n": 1e3, "weights": %s}' % _W2,
}


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
    # one seed rule for every verb: -1 refused where nothing is drawn too, and the seeds on
    # either side of 2**64, which drew the streams of 2**64 - 1 and of 0
    inv += [["prefs", "--instance", a, "--seed", "-1"],
            ["oracle", "--instance", a, "--problem", "mwm", "--seed", "-1"],
            ["fixtures", "--seed", "-1"],
            ["verify-metric", "--instance", a, "--seed", "-1"]]
    for seed in ("18446744073709551615", "18446744073709551616"):
        inv.append(["solve", "--instance", a, "--problem", "mwm", "--algorithm", "hybrid",
                    "--seed", seed])

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
            ["bench", "--problem", "mwm", "--n", "6", "--seed", "-1"],
            ["bench", "--problem", "mwm", "--algorithm", "hybrid", "--n", "6",
             "--inner-samples", "1"],
            # rejected since non-finite flags are refused
            [*bench, "--bound", "inf"],
            [*bench, "--bound", "nan"],
            # the run's one gate: the engine's reduction spelling, and a dimension gen refuses
            [*bench, "--algorithm", "reduction-of(hybrid)", "--inner-samples", "30"],
            [*bench, "--algorithm", "reduction-of(bogus)"],
            [*bench, "--dimension", "0"]]

    inv += [["fixtures"], ["fixtures", "--format", "csv"],
            ["fixtures", "--format", "csv", "--out", "{tmp}/fixtures.csv"]]
    for name in ("randomization-floor", "mutual-top-pairs", "mixture-gap"):
        inv.append(["fixtures", "--name", name])

    for doc in [*list(DOCUMENTS)[1:], *RAW_DOCUMENTS]:
        path = f"{{tmp}}/{doc}.json"
        inv += [["prefs", "--instance", path],
                ["solve", "--instance", path, "--problem", "mwm"],
                ["oracle", "--instance", path, "--problem", "mwm"],
                ["verify-metric", "--instance", path]]

    # greedy finds the optimal matching; opt and alg differed in the last bit
    # before the oracle's value came from the engine's weight gather
    inv += [["gen", "--n", "8", "--seed", "70", "--out", "{tmp}/seed70.json"],
            ["oracle", "--instance", "{tmp}/seed70.json", "--problem", "mwm"],
            ["solve", "--instance", "{tmp}/seed70.json", "--problem", "mwm",
             "--algorithm", "greedy"],
            ["bench", "--problem", "mwm", "--algorithm", "greedy", "--n", "8", "--trials", "1",
             "--seed", "70"]]

    # the matching oracle's largest tables: n=20, its cap, and the widest capped k there
    for fam in FAMILIES:
        inv.append(["gen", "--family", fam, "--n", "20", "--seed", "11",
                    "--out", f"{{tmp}}/{fam}-20.json"])
    for path, ks in [*((f"{{tmp}}/{fam}-20.json", (1, 4, 9)) for fam in FAMILIES),
                     ("{tmp}/zero-one-16.json", (1, 4, 7))]:
        inv.append(["oracle", "--instance", path, "--problem", "mwm"])
        for k in ks:
            inv.append(["oracle", "--instance", path, "--problem", "mkm", "--k", str(k)])

    # the k-sum oracle past n=10: answered since its covered-set DP raised the cap to 16,
    # and n=18, capped on both sides
    for n, k in ((12, 3), (16, 4), (18, 3)):
        inv += [["gen", "--n", str(n), "--seed", "12", "--out", f"{{tmp}}/ksum-{n}.json"],
                ["oracle", "--instance", f"{{tmp}}/ksum-{n}.json", "--problem", "ksum",
                 "--k", str(k)]]
        for engine in ("greedy", "hybrid"):
            inv.append(["bench", "--problem", "ksum", "--algorithm", engine, "--n", str(n),
                        "--k", str(k), "--trials", "2", "--inner-samples", "30", "--seed", "3"])

    # every other oracle one past its cap: the matching and densest oracles at n=21, the tsp
    # oracle at n=16 (``oracle``, and ``bench`` of tsp), and bench's smallest refused n
    inv += [["gen", "--n", "21", "--seed", "12", "--out", "{tmp}/cap-21.json"],
            ["gen", "--n", "16", "--seed", "12", "--out", "{tmp}/cap-16.json"]]
    for problem, k in (("mwm", None), ("mkm", 2), ("densest", 4)):
        inv.append(["oracle", "--instance", "{tmp}/cap-21.json", "--problem", problem, *_k(k)])
    inv += [["oracle", "--instance", "{tmp}/cap-16.json", "--problem", "tsp"],
            ["bench", "--problem", "tsp", "--n", "16", "--trials", "1"],
            ["bench", "--problem", "mwm", "--n", "1"]]

    # generate and derive_preferences work 64 rows at a time: one and two blocks and a row,
    # on every family, and the verbs that read such a file
    for fam in FAMILIES:
        for n in (65, 130):
            for fmt in ("json", "csv"):
                for dimension in ("1", "3"):
                    inv.append(["gen", "--family", fam, "--n", str(n), "--seed", "4",
                                "--dimension", dimension, "--format", fmt])
    block = "{tmp}/block-130.json"
    inv += [["gen", "--n", "130", "--seed", "4", "--dimension", "3", "--out", block],
            ["prefs", "--instance", block],
            ["solve", "--instance", block, "--problem", "mwm", "--algorithm", "greedy"],
            ["verify-metric", "--instance", block]]
    # the tour stitch orders each edge by the previous node's ranking row: rows past a block,
    # and rows where every weight ties
    for path in (block, "{tmp}/zero-one-16.json"):
        for engine in ("greedy", "hybrid"):
            inv.append(["solve", "--instance", path, "--problem", "tsp", "--algorithm", engine])
    # the writer and the loader join the cells a block of 16 rows owes the rows past it at
    # once: two blocks and two blocks and a row, on every family, and the verbs that read such
    # a file
    for fam in FAMILIES:
        for n in (32, 33):
            for fmt in ("json", "csv"):
                inv.append(["gen", "--family", fam, "--n", str(n), "--seed", "6",
                            "--format", fmt])
    mirror = "{tmp}/mirror-33.json"
    inv += [["gen", "--n", "33", "--seed", "6", "--out", mirror],
            ["prefs", "--instance", mirror],
            ["solve", "--instance", mirror, "--problem", "mwm", "--algorithm", "greedy"]]

    # the batched draw kernels and weight gathers: desk-mc's four configs at their perfbench
    # sizes and draws, the hybrid and the greedy's repeated rows past a sample block of 4096
    # draws, odd clusters and odd n, and the hybrid tour and matching on an odd-n file (the
    # CLI refuses the tour)
    desk_mc = [("mwm", "hybrid", "12", "euclidean-uniform", None),
               ("tsp", "hybrid", "10", "clustered-gaussian", None),
               ("ksum", "hybrid", "8", "random-metric-closure", 2),
               ("densest", "random", "12", "euclidean-uniform", 6)]
    for problem, engine, n, fam, k in desk_mc:
        inv.append(["bench", "--problem", problem, "--algorithm", engine, "--n", n, "--family",
                    fam, *_k(k), "--trials", "2", "--inner-samples", "500", "--seed", "5"])
    for engine in ("hybrid", "greedy"):
        inv.append(["bench", "--problem", "tsp", "--algorithm", engine, "--n", "10", "--family",
                    "clustered-gaussian", "--trials", "1", "--inner-samples", "4097"])
    inv += [["bench", "--problem", "ksum", "--algorithm", "greedy", "--n", "9", "--k", "3",
             "--trials", "2"],
            ["bench", "--problem", "mwm", "--algorithm", "hybrid", "--n", "11", "--trials", "2",
             "--inner-samples", "500"],
            ["gen", "--n", "11", "--seed", "9", "--out", "{tmp}/odd-11.json"]]
    for problem in ("tsp", "mwm"):
        inv.append(["solve", "--instance", "{tmp}/odd-11.json", "--problem", problem,
                    "--algorithm", "hybrid", "--seed", "4"])

    # the triangle checks read pivots in blocks of at most 2^16 two-hop sums, and the closure
    # generator stops at the first matrix its exact check passes: desk-oracle's five configs at
    # their perfbench sizes (densest on the closure family), the closure family at a full last
    # block (n=64) and partial ones (65, 100), and verify-metric at tol 0 on each of those and
    # on a one-dimensional clustered-gaussian file, which fails the exact check
    desk_oracle = [("mwm", "16", "euclidean-uniform", None, []),
                   ("mkm", "14", "euclidean-uniform", 4, []),
                   ("densest", "16", "random-metric-closure", 8, []),
                   ("tsp", "14", "euclidean-uniform", None, ["--inner-samples", "2"]),
                   ("ksum", "10", "euclidean-uniform", 5, [])]
    for problem, n, fam, k, extra in desk_oracle:
        inv.append(["bench", "--problem", problem, "--algorithm", "greedy", "--n", n, "--family",
                    fam, *_k(k), *extra, "--trials", "1", "--seed", "5"])
    checked = [(n, ["--family", "random-metric-closure", "--n", n]) for n in ("64", "65", "100")]
    checked.append(("cg-30", ["--family", "clustered-gaussian", "--n", "30", "--dimension", "1"]))
    for name, gen in checked:
        path = f"{{tmp}}/metric-{name}.json"
        inv += [["gen", *gen, "--seed", "2", "--out", path],
                ["verify-metric", "--instance", path, "--tol", "0"]]

    # the smallest instances, n=2 and n=3, on every problem (tsp refuses both)
    for n in (2, 3):
        tiny = f"{{tmp}}/tiny-{n}.json"
        inv.append(["gen", "--n", str(n), "--seed", "8", "--out", tiny])
        for problem, k in (("mwm", None), ("mkm", 1), ("ksum", 1), ("densest", 2), ("tsp", None)):
            inv += [["solve", "--instance", tiny, "--problem", problem, *_k(k)],
                    ["oracle", "--instance", tiny, "--problem", problem, *_k(k)]]

    inv += [["frobnicate"], ["prefs"], ["gen", "--n", "6", "--format", "xml"],
            ["solve", "--instance", a], ["bench", "--problem", "mwm"]]
    inv += [["--help"], *([verb, "--help"] for verb in VERBS)]
    # CSV cells holding a comma: quoted since CSV is written by the csv module
    inv += [["gen", "--n", "5", "--out", "{tmp}/c,d.json"],
            ["verify-metric", "--instance", "{tmp}/c,d.json", "--format", "csv"],
            ["verify-metric", "--instance", "{tmp}/c,d.json"]]
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


def writes_json(argv) -> bool:
    """Whether the invocation's stdout and ``--out`` file, if it writes any, are JSON."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return fmt == "json" and "--help" not in argv


def results(cli, tmp: str):
    """Run every invocation by ``cli.main`` in-process, the documents written to ``tmp``
    first. Yields per invocation its template, exit code, stdout, ``--out`` file (bytes, or
    None if it wrote none) and stderr."""
    for name, doc in DOCUMENTS.items():
        with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for name, text in RAW_DOCUMENTS.items():
        with open(os.path.join(tmp, f"{name}.json"), "wb") as fh:
            fh.write(text.encode("utf-8"))
    for template in invocations():
        argv = [arg.replace("{tmp}", tmp) for arg in template]
        rc, stdout, stderr = _call(cli, argv)
        path, written = argv[argv.index("--out") + 1] if "--out" in argv else "-", None
        if path != "-" and os.path.exists(path):
            with open(path, "rb") as fh:
                written = fh.read()
        yield template, rc, stdout, written, stderr


def run(checkout: str) -> list:
    """Records of every invocation for the ordmatch in ``checkout``."""
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    from ordmatch import cli

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for template, rc, stdout, written, stderr in results(cli, tmp):
            stdout = stdout.replace(tmp, "<TMP>")
            digest = hashlib.sha256(stdout.encode("utf-8"))
            if written is not None:
                written = written.replace(tmp.encode(), b"<TMP>")
                digest.update(b"\0--out\0" + written)
            stderr = stderr.replace(tmp, "<TMP>")
            records.append({"argv": " ".join(template), "sha256": digest.hexdigest()[:16],
                            "rc": rc, "stderr": stderr.split("\n", 1)[0],
                            "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest()[:16]})
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
        keys = [key for key in ("sha256", "rc", "stderr", "stderr_sha256") if p[key] != c[key]]
        if keys:
            differ += 1
            print(f"DIFF {p['argv']}")
            for key in keys:
                print(f"  {key}: parent {p[key]!r}  change {c[key]!r}")
    print(f"{len(parent)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
