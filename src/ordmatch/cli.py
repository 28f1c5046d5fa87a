"""Command-line front end.

Verbs: gen, prefs, solve, oracle, bench, fixtures, verify-metric.
Every verb accepts --seed, --out, and --format (json or csv). Exit code
0 means every requested verdict passed, 1 means a verdict failed, and
argparse reports usage errors as 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    EdgePool,
    Matching,
    RandomSource,
    greedy_k_matching,
    hybrid_matching,
    matching_weight,
    random_k_matching,
)
from .harness import (
    ALLOWED_ENGINES,
    PROBLEMS,
    TrialConfig,
    all_fixtures,
    build_fixture_mixture_gap,
    build_fixture_mutual_top_pairs,
    build_fixture_randomization_floor,
    canonical_engine,
    report_emit,
    run_trials,
)
from .instance import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    derive_preferences,
    generate,
    load_instance,
    validate_metric,
)
from .oracle import opt_densest, opt_k_sum, opt_matching, opt_tsp
from .reductions import (
    cluster_weight,
    matching_to_clusters,
    matching_to_subset,
    matching_to_tour,
    subset_weight,
    tour_weight,
)

FIXTURE_BUILDERS = {
    "randomization-floor": build_fixture_randomization_floor,
    "mutual-top-pairs": build_fixture_mutual_top_pairs,
    "mixture-gap": build_fixture_mixture_gap,
}


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


def _solution_payload(problem: str, solution, value: float) -> dict:
    if problem in ("mwm", "mkm"):
        body = {"kind": "matching", "edges": [list(e) for e in solution.sorted_edges()]}
    elif problem == "ksum":
        body = {"kind": "clustering", "parts": [list(p) for p in solution.parts]}
    elif problem == "densest":
        body = {"kind": "subset", "nodes": list(solution.nodes)}
    else:
        body = {"kind": "tour", "order": list(solution.order)}
    body["n"] = solution.n
    body["value"] = value
    return body


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    profile = derive_preferences(inst)
    n = inst.n
    engine = canonical_engine(args.algorithm)
    if engine not in ALLOWED_ENGINES[args.problem]:
        raise SystemExit(
            f"error: algorithm {args.algorithm!r} has no defended bound for {args.problem}"
        )
    rng = RandomSource(args.seed)
    problem = args.problem
    if problem == "mwm":
        if engine == "greedy":
            sol = greedy_k_matching(profile, n // 2)
        elif engine == "random":
            sol = random_k_matching(EdgePool.complete(range(n), n), n // 2, rng)
        else:
            sol = hybrid_matching(profile, rng)
        value = matching_weight(sol, inst)
    elif problem == "mkm":
        if args.k is None:
            raise SystemExit("error: mkm needs --k")
        if not 1 <= args.k <= n // 2:
            raise ValueError(f"mkm needs 1 <= k <= n//2, got k={args.k}, n={n}")
        sol = greedy_k_matching(profile, args.k)
        value = matching_weight(sol, inst)
    elif problem == "ksum":
        if args.k is None:
            raise SystemExit("error: ksum needs --k")
        k = args.k
        if n % k != 0:
            raise SystemExit(f"error: ksum needs k | n, got k={k}, n={n}")
        c = n // k
        if engine == "hybrid":
            if c % 2 != 0:
                raise SystemExit("error: ksum with hybrid needs an even cluster size")
            m = hybrid_matching(profile, rng)
        else:
            want = n // 2 if c % 2 == 0 else (n - k) // 2
            m = greedy_k_matching(profile, want) if want >= 1 else Matching.from_pairs(n, [])
        sol = matching_to_clusters(m, k)
        value = cluster_weight(sol, inst)
    elif problem == "densest":
        if args.k is None or args.k % 2 != 0:
            raise SystemExit("error: densest needs an even --k")
        if not 2 <= args.k <= n:
            raise ValueError(f"densest needs even k in 2..n, got k={args.k}, n={n}")
        if engine == "random":
            m = random_k_matching(EdgePool.complete(range(n), n), args.k // 2, rng)
        else:
            m = greedy_k_matching(profile, args.k // 2)
        sol = matching_to_subset(m, args.k)
        value = subset_weight(sol, inst)
    else:
        if n % 2 != 0:
            raise SystemExit("error: tsp solve needs even n")
        m = greedy_k_matching(profile, n // 2) if engine == "greedy" else hybrid_matching(profile, rng)
        sol = matching_to_tour(m, profile, rng)
        value = tour_weight(sol, inst)
    payload = _solution_payload(problem, sol, value)
    if args.format == "csv":
        _emit(_csv_bytes(
            "problem,algorithm,seed,value",
            [(problem, args.algorithm, args.seed, repr(value))],
        ), args.out)
    else:
        _emit(_json_bytes(payload), args.out)
    return 0


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    n = inst.n
    problem = args.problem
    if problem in ("mwm", "mkm"):
        k = args.k if args.k is not None else n // 2
        sol = opt_matching(inst, k)
        value = matching_weight(sol, inst)
    elif problem == "ksum":
        if args.k is None:
            raise SystemExit("error: ksum needs --k")
        sol = opt_k_sum(inst, args.k)
        value = cluster_weight(sol, inst)
    elif problem == "densest":
        if args.k is None:
            raise SystemExit("error: densest needs --k")
        sol = opt_densest(inst, args.k)
        value = subset_weight(sol, inst)
    else:
        sol = opt_tsp(inst)
        value = tour_weight(sol, inst)
    payload = _solution_payload(problem, sol, value)
    if args.format == "csv":
        _emit(_csv_bytes("problem,value", [(problem, repr(value))]), args.out)
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
    names = [args.name] if args.name else list(FIXTURE_BUILDERS)
    fixtures = [FIXTURE_BUILDERS[name]() for name in names]
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

    p = sub.add_parser("solve", parents=[common], help="run an ordinal algorithm on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--algorithm", default="greedy",
                   help="greedy, random, hybrid, or reduction-of(...) spelling")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", parents=[common], help="compute the exact optimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", parents=[common], help="verify a ratio bound over random instances")
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--algorithm", default="greedy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=[f for f in GENERATOR_FAMILIES if f != "explicit"],
                   default="euclidean-uniform")
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--inner-samples", type=int, default=200, dest="inner_samples")
    p.add_argument("--bound", type=float, default=None,
                   help="override the defended bound")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fixtures", parents=[common], help="re-derive the lower-bound fixtures")
    p.add_argument("--name", choices=sorted(FIXTURE_BUILDERS), default=None)
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
