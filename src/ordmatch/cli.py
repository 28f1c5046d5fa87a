"""Command-line front end.

Verbs: gen, prefs, solve, oracle, bench, fixtures, verify-metric.
Every verb accepts --seed, --out, and --format (json or csv). Exit code
0 means every requested verdict passed, 1 means a verdict failed or an
input was rejected (with ``error:`` on stderr), and argparse reports
usage errors as 2. solve, oracle and bench read every problem-specific
rule from ``harness.PROBLEMS``, so they accept the same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    FIXTURES,
    PROBLEMS,
    TrialConfig,
    optimum,
    report_emit,
    run_trials,
    solve,
)
from .instance import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    derive_preferences,
    generate,
    load_instance,
    validate_metric,
)


def _emit(data: bytes, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _csv_bytes(header: str, rows) -> bytes:
    lines = [header]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        dimension=args.dimension,
        seed=args.seed,
        clusters=args.clusters,
    )
    inst = generate(spec)
    if args.format == "csv":
        _emit(_csv_bytes(
            ",".join(f"w{j}" for j in range(inst.n)),
            (tuple(repr(x) for x in row) for row in inst.weights.tolist()),
        ), args.out)
    else:
        _emit(_json_bytes(inst.to_dict()), args.out)
    return 0


def _cmd_prefs(args) -> int:
    inst = load_instance(args.instance)
    profile = derive_preferences(inst)
    if args.format == "csv":
        _emit(_csv_bytes(
            ",".join(f"r{j}" for j in range(inst.n - 1)),
            profile.ranking,
        ), args.out)
    else:
        _emit(_json_bytes(profile.to_dict()), args.out)
    return 0


def _cmd_solve(args) -> int:
    payload = solve(args.problem, args.algorithm, load_instance(args.instance), args.k, args.seed)
    if args.format == "csv":
        _emit(_csv_bytes(
            "problem,algorithm,seed,value",
            [(args.problem, args.algorithm, args.seed, repr(payload["value"]))],
        ), args.out)
    else:
        _emit(_json_bytes(payload), args.out)
    return 0


def _cmd_oracle(args) -> int:
    payload = optimum(args.problem, load_instance(args.instance), args.k)
    if args.format == "csv":
        _emit(_csv_bytes("problem,value", [(args.problem, repr(payload["value"]))]), args.out)
    else:
        _emit(_json_bytes(payload), args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = TrialConfig(
        problem=args.problem,
        algorithm=args.algorithm,
        n=args.n,
        family=args.family,
        dimension=args.dimension,
        trials=args.trials,
        seed=args.seed,
        k=args.k,
        inner_samples=args.inner_samples,
        bound=args.bound,
    )
    report = run_trials(cfg)
    _emit(report_emit(report, args.format), args.out)
    return 0 if report.verdict else 1


def _cmd_fixtures(args) -> int:
    names = [args.name] if args.name else list(FIXTURES)
    fixtures = [FIXTURES[name]() for name in names]
    if args.format == "csv":
        rows = [
            (fx.name, c.name.replace(",", ";"), c.expected.replace(",", ";"),
             c.actual.replace(",", ";"), c.passed)
            for fx in fixtures
            for c in fx.checks
        ]
        _emit(_csv_bytes("fixture,check,expected,actual,passed", rows), args.out)
    else:
        _emit(_json_bytes([fx.to_dict() for fx in fixtures]), args.out)
    return 0 if all(fx.passed() for fx in fixtures) else 1


def _cmd_verify_metric(args) -> int:
    inst = load_instance(args.instance)
    ok = validate_metric(inst, args.tol)
    if args.format == "csv":
        _emit(_csv_bytes("instance,metric", [(args.instance, ok)]), args.out)
    else:
        _emit(_json_bytes({"instance": args.instance, "tol": args.tol, "metric": ok}), args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--out", default=None, help="output path, '-' or omitted for stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    # solve, oracle and bench take the same problem arguments
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", choices=list(PROBLEMS), required=True)
    problem.add_argument("--k", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="ordmatch",
        description="Ordinal matching algorithms, exact oracles, and a ratio-verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a weighted instance")
    p.add_argument("--family", choices=[f for f in GENERATOR_FAMILIES if f != "explicit"],
                   default="euclidean-uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--clusters", type=int, default=3)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("prefs", parents=[common], help="derive preference rankings from an instance")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.set_defaults(func=_cmd_prefs)

    p = sub.add_parser("solve", parents=[common, problem],
                       help="run an ordinal algorithm on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", default="greedy",
                   help="greedy, random, hybrid, or reduction-of(...) spelling")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", parents=[common, problem], help="compute the exact optimum")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", parents=[common, problem],
                       help="verify a ratio bound over random instances")
    p.add_argument("--algorithm", default="greedy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=[f for f in GENERATOR_FAMILIES if f != "explicit"],
                   default="euclidean-uniform")
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--inner-samples", type=int, default=200, dest="inner_samples")
    p.add_argument("--bound", type=float, default=None,
                   help="override the defended bound")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fixtures", parents=[common], help="re-derive the lower-bound fixtures")
    p.add_argument("--name", choices=sorted(FIXTURES), default=None)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("verify-metric", parents=[common], help="check the triangle inequality")
    p.add_argument("--instance", required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.set_defaults(func=_cmd_verify_metric)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
