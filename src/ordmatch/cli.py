"""Command-line front end.

Verbs: gen, prefs, solve, oracle, bench, fixtures, verify-metric.
Every verb accepts --seed (nonnegative, as gen reads it), --out, and --format
(json or csv). A verb returns its output, byte chunks from ``instance.render``,
and its verdict; ``main`` then writes them to stdout or --out, which it opens
only after every check. Exit code 0 means every requested verdict passed, 1
means a verdict failed or an input was rejected (with ``error:`` on stderr), and
argparse reports usage errors as 2. solve, oracle and bench read every
problem-specific rule from ``harness.PROBLEMS``, so they accept the same inputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .harness import (
    PROBLEMS,
    RECORDS,
    check_record,
    load_record,
    optimum,
    report_emit,
    run_trials,
    solve,
)
from .instance import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    _count,
    derive_preferences,
    generate,
    load_instance,
    render,
    validate_metric,
)


def _cmd_gen(args):
    spec = GeneratorSpec(args.family, args.n, args.dimension, args.seed, args.clusters)
    d = generate(spec)._fields()
    return render(args.format, d, ",".join(f"w{j}" for j in range(d["n"])), d["weights"]), True


def _cmd_prefs(args):
    d = derive_preferences(load_instance(args.instance))._fields()
    return render(args.format, d, ",".join(f"r{j}" for j in range(d["n"] - 1)), d["ranking"]), True


def _cmd_solve(args):
    payload = solve(args.problem, args.algorithm, load_instance(args.instance), args.k, args.seed)
    row = (args.problem, args.algorithm, args.seed, payload["value"])
    return render(args.format, payload, "problem,algorithm,seed,value", [row]), True


def _cmd_oracle(args):
    payload = optimum(args.problem, load_instance(args.instance), args.k)
    return render(args.format, payload, "problem,value", [(args.problem, payload["value"])]), True


def _cmd_bench(args):
    report = run_trials(args.problem, args.algorithm, args.n, args.family, args.dimension,
                        args.trials, args.seed, args.k, args.inner_samples, args.bound)
    return [report_emit(report, args.format)], report["verdict"]


def _record_names() -> list:
    """The package's record files by name (less ``.json``), sorted; none is read."""
    return sorted(f[:-5] for f in os.listdir(RECORDS) if f.endswith(".json"))


def _cmd_fixtures(args):
    names = [args.name] if args.name else _record_names()
    docs = {name: load_record(os.path.join(RECORDS, f"{name}.json")) for name in names}
    data = [{"name": name, **check_record(doc)} for name, doc in docs.items()]
    data.sort(key=lambda fx: (len(docs[fx["name"]]["ranking"]), fx["name"]))  # by (n, name)
    rows = ((fx["name"], c["name"], c["expected"], c["actual"], c["passed"])
            for fx in data for c in fx["checks"])
    header = "fixture,check,expected,actual,passed"
    return render(args.format, data, header, rows), all(fx["passed"] for fx in data)


def _cmd_verify_metric(args):
    ok = validate_metric(load_instance(args.instance), args.tol)
    data = {"instance": args.instance, "tol": args.tol, "metric": ok}
    return render(args.format, data, "instance,metric", [(args.instance, ok)]), ok


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ordmatch`` parser, built once per process (parsing does not modify it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--out", default=None, help="output path, '-' or omitted for stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    # solve, oracle and bench take the same problem arguments
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", choices=list(PROBLEMS), required=True)
    problem.add_argument("--k", type=int, default=None)
    # prefs, solve, oracle and verify-metric read one instance file
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--instance", required=True, help="instance JSON path")
    # gen and bench draw instances from the same random families
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", choices=GENERATOR_FAMILIES, default="euclidean-uniform")
    family.add_argument("--n", type=int, required=True)
    family.add_argument("--dimension", type=int, default=2)

    parser = argparse.ArgumentParser(
        prog="ordmatch",
        description="Ordinal matching algorithms, exact oracles, and a ratio-verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, parents, summary):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(func=func)
        return p

    p = verb("gen", _cmd_gen, [family], "generate a weighted instance")
    p.add_argument("--clusters", type=int, default=3)

    verb("prefs", _cmd_prefs, [instance], "derive preference rankings from an instance")

    p = verb("solve", _cmd_solve, [problem, instance], "run an ordinal algorithm on an instance")
    p.add_argument("--algorithm", default="greedy",
                   help="greedy, random, hybrid, or reduction-of(...) spelling")

    verb("oracle", _cmd_oracle, [problem, instance], "compute the exact optimum")

    p = verb("bench", _cmd_bench, [problem, family], "verify a ratio bound over random instances")
    p.add_argument("--algorithm", default="greedy")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--inner-samples", type=int, default=200, dest="inner_samples")
    p.add_argument("--bound", type=float, default=None, help="override the defended bound")

    p = verb("fixtures", _cmd_fixtures, [], "check the lower-bound record files")
    p.add_argument("--name", choices=_record_names(), default=None)

    p = verb("verify-metric", _cmd_verify_metric, [instance], "check the triangle inequality")
    p.add_argument("--tol", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _count(args.seed, "seed")  # every verb's --seed, by the rule gen and bench apply
        chunks, ok = args.func(args)  # every check has run: a rejected input writes nothing
        if args.out is None or args.out == "-":
            sys.stdout.writelines(chunk.decode("utf-8") for chunk in chunks)
        else:
            with open(args.out, "wb") as fh:
                fh.writelines(chunks)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: an n whose matrix cannot fit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
