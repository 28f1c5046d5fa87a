"""Ratio-verification harness: trials, reports, and lower-bound fixtures.

``run_trials`` generates instances, scores an ordinal algorithm against
the exact oracle, and renders a verdict against a claimed approximation
bound: deterministic algorithms by worst observed ratio, randomized ones
by per-instance Monte Carlo means with a three-standard-error allowance.
Both sides are weighed by one gather per objective (``core`` and
``reductions`` define them; ``SolutionKind`` pairs each with its scalar
one-row form), so a greedy that finds the optimum reads ratio 1.0.

The lower-bound fixtures are finite games. Each builder returns a
``Record``: one preference profile, k, named rational weightings consistent
with it, and ``Game`` claims. In a game Nature picks one of its weightings
and the algorithm, seeing only the profile, picks a k-matching.
``check_record`` verifies every claim in ``Fraction`` arithmetic, with no LP
solver: each weighting's consistency, metric flag and optimum over all
k-matchings (with the float ``opt_matching`` within 1e-12); the
deterministic floor min_M max_s opt_s / w_s(M); each matching mixture x's
worst ratio; and the certificate of Nature's mixture y over the normalized
weightings w_s / opt_s, L = 1 / max_M sum_s y_s w_s(M) / opt_s. By weak
duality no mixture concedes less than L; L is "exact" when a claimed x
meets it.

The three records: ``mixture-gap``'s floor over all 105 perfect matchings
is 2, no matching's values total more than 6, and x = (2/5, 1/5, 3/10,
1/10) with y = (1, 2, 3, 4)/10 meet at 3/5 of the optimum, L = 5/3 exact.
``randomization-floor`` at eps = 1/100: x = (2/5 paired, 3/5 crossed)
concedes exactly 5/4 and y = (200/497, 297/497) gives L = 497/398.
``mutual-top-pairs`` (k = 1): uniform x and uniform y meet at 2n/(n+1) on
the metric weightings, n/(1+(n-1)eps) on the lean ones, and exactly n at
base weight 0, the eps -> 0 limit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Matching,
    RandomSource,
    greedy_k_matching,
    hybrid_matchings,
    matching_values,
    matching_weight,
    random_k_matchings,
)
from .instance import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    PreferenceProfile,
    WeightedInstance,
    _table_chunks,
    derive_preferences,
    generate,
)
from .oracle import DEFAULT_BUDGET, OracleBudget, opt_densest, opt_k_sum, opt_matching, opt_tsp
from .reductions import (
    Clustering,
    Subset,
    Tour,
    cluster_values,
    cluster_weight,
    matchings_to_clusters,
    matchings_to_subsets,
    matchings_to_tours,
    subset_values,
    subset_weight,
    tour_values,
    tour_weight,
)

RATIO_TOL = 1e-9

# Version 2: non-finite floats are written as null, never as bare Infinity/NaN.
REPORT_SCHEMA = 2

# Inner draws per sampler call, so memory does not grow with inner_samples.
SAMPLE_BLOCK = 4096


def _field_dict(obj) -> dict:
    """A dataclass's fields in order, shallow: ``asdict`` deep-copies every leaf."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def canonical_engine(label: str) -> str:
    """Accept both 'greedy' and the reduction spelling 'reduction-of(greedy)'."""
    m = re.fullmatch(r"reduction-of\((\w+)\)", label.strip())
    return m.group(1) if m else label.strip()


def hybrid_bound(n: int) -> float:
    """Expected-ratio bound for the hybrid matching at a given n.

    Exactly 1.6 when n is divisible by 6; otherwise the rounding of the
    greedy prefix adds at most 7/(8*(2n-3)).
    """
    if n % 6 == 0:
        return 1.6
    return 1.6 + 7.0 / (8.0 * (2 * n - 3))


def _alpha(engine: str, n: int) -> float:
    """The matching engine's own factor, which the reductions scale."""
    return hybrid_bound(n) if engine == "hybrid" else 2.0


class SolutionKind(NamedTuple):
    """How one kind of solution is packed, weighed and reported."""

    name: str  # the payload's "kind"
    cls: type  # cls(n, row) validates one row of a batched solution array
    weigh: Callable  # (solution, inst) -> weight, as the oracle's value is computed
    values: Callable  # (solutions, w) -> one weight per row, in one gather


# Table callables reach the oracles and weight functions through this
# module's globals, so a wrapper installed on them here (a tracer) sees
# every call.
MATCHING = SolutionKind(
    "matching", Matching, lambda m, inst: matching_weight(m, inst), matching_values
)
CLUSTERING = SolutionKind(
    "clustering", Clustering, lambda c, inst: cluster_weight(c, inst), cluster_values
)
SUBSET = SolutionKind("subset", Subset, lambda s, inst: subset_weight(s, inst), subset_values)
TOUR = SolutionKind("tour", Tour, lambda t, inst: tour_weight(t, inst), tour_values)


@dataclass(frozen=True)
class ProblemSpec:
    """One row of the problem table: everything bench, solve and oracle read."""

    engines: tuple  # engines with a defended bound
    check: Callable  # (n, k, engine) raises ValueError; the oracle passes engine=None
    size: Callable  # (n, k) -> edges the matching engine must supply
    reduce: Callable  # (matchings, profile, k, gen) -> one solution per matching
    oracle: Callable  # (inst, k, budget) -> the exact optimum
    bound: Callable  # (engine, n) -> the factor the harness defends
    kind: SolutionKind
    random_reduce: bool = False  # the reduction draws from gen, so greedy is randomized too


def _check_mkm(n, k, engine):
    if k is None or not 1 <= k <= n // 2:
        raise ValueError(f"mkm needs 1 <= k <= n//2, got k={k}, n={n}")


def _check_ksum(n, k, engine):
    if k is None or k < 1 or n % k != 0:
        raise ValueError(f"ksum needs k >= 1 dividing n, got k={k}, n={n}")
    if engine == "hybrid" and (n // k) % 2 != 0:
        raise ValueError("ksum with the hybrid engine needs an even cluster size")


def _check_densest(n, k, engine):
    if k is None or k % 2 != 0 or not 2 <= k <= n:
        raise ValueError(f"densest needs even k in 2..n, got k={k}, n={n}")


def _check_tsp(n, k, engine):
    if n % 2 != 0 or n < 4:
        raise ValueError(f"tsp needs even n >= 4, got n={n}")


# random_k_matching has no guarantee for k below a perfect matching, so
# mkm only admits greedy. ksum's odd-cluster-size greedy path, which
# leaves k nodes unmatched, still lands at factor 4.
PROBLEMS = {
    "mwm": ProblemSpec(
        engines=("greedy", "random", "hybrid"),
        check=lambda n, k, engine: None,  # a perfect matching takes no k
        size=lambda n, k: n // 2,
        reduce=lambda m, profile, k, gen: m,
        oracle=lambda inst, k, budget: opt_matching(inst, inst.n // 2, budget),
        bound=_alpha,
        kind=MATCHING,
    ),
    "mkm": ProblemSpec(
        engines=("greedy",),
        check=_check_mkm,
        size=lambda n, k: k,
        reduce=lambda m, profile, k, gen: m,
        oracle=lambda inst, k, budget: opt_matching(inst, k, budget),
        bound=lambda engine, n: 2.0,
        kind=MATCHING,
    ),
    "ksum": ProblemSpec(
        engines=("greedy", "hybrid"),
        check=_check_ksum,
        size=lambda n, k: n // 2 if (n // k) % 2 == 0 else (n - k) // 2,
        reduce=lambda m, profile, k, gen: matchings_to_clusters(m, profile.n, k),
        oracle=lambda inst, k, budget: opt_k_sum(inst, k, budget),
        bound=lambda engine, n: 2.0 * _alpha(engine, n),
        kind=CLUSTERING,
    ),
    "densest": ProblemSpec(
        engines=("greedy", "random"),
        check=_check_densest,
        size=lambda n, k: k // 2,
        reduce=lambda m, profile, k, gen: matchings_to_subsets(m),
        oracle=lambda inst, k, budget: opt_densest(inst, k, budget),
        bound=lambda engine, n: 4.0,
        kind=SUBSET,
    ),
    "tsp": ProblemSpec(
        engines=("greedy", "hybrid"),
        check=_check_tsp,
        size=lambda n, k: n // 2,
        reduce=lambda m, profile, k, gen: matchings_to_tours(m, profile, gen),
        oracle=lambda inst, k, budget: opt_tsp(inst, budget),
        bound=lambda engine, n: 4.0 * _alpha(engine, n) / (3.0 - 4.0 / n),
        kind=TOUR,
        random_reduce=True,  # a tour starts at a random node
    ),
}


def problem_spec(problem: str, algorithm: str | None, n: int, k: int | None) -> ProblemSpec:
    """The table row for ``problem`` once (algorithm, n, k) pass its checks.

    ``algorithm=None`` (the oracle) skips the engine checks. Every
    rejected input raises ValueError.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {tuple(PROBLEMS)}")
    spec = PROBLEMS[problem]
    engine = None if algorithm is None else canonical_engine(algorithm)
    if engine is not None and engine not in spec.engines:
        raise ValueError(
            f"algorithm {algorithm!r} has no defended bound for {problem}; allowed: {spec.engines}"
        )
    if n < 2:
        raise ValueError("n must be at least 2")
    spec.check(n, k, engine)
    return spec


def default_bound(problem: str, engine: str, n: int, k: int | None = None) -> float:
    """The approximation factor the harness defends for a valid configuration."""
    return problem_spec(problem, engine, n, k).bound(canonical_engine(engine), n)


@dataclass(frozen=True)
class TrialConfig:
    """One reproducible bench run: same config, same report bytes."""

    problem: str
    algorithm: str
    n: int
    family: str = "euclidean-uniform"
    dimension: int = 2
    trials: int = 20
    seed: int = 0
    k: int | None = None
    inner_samples: int = 200
    bound: float | None = None

    def __post_init__(self):
        problem_spec(self.problem, self.algorithm, self.n, self.k)
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(f"trials need a random family, got {self.family!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.inner_samples < 2:
            raise ValueError("inner_samples must be at least 2 for a standard error")
        if self.bound is not None and self.bound <= 0:
            raise ValueError("bound must be positive")
        if self.bound is not None and not math.isfinite(self.bound):
            raise ValueError(f"bound must be finite, got {self.bound}")

    @property
    def engine(self) -> str:
        return canonical_engine(self.algorithm)

    def randomized(self) -> bool:
        return self.engine != "greedy" or PROBLEMS[self.problem].random_reduce

    def effective_bound(self) -> float:
        if self.bound is not None:
            return self.bound
        return default_bound(self.problem, self.engine, self.n, self.k)

    def to_dict(self) -> dict:
        return {**_field_dict(self), "bound": self.effective_bound()}


def _sample(
    spec: ProblemSpec,
    engine: str,
    profile: PreferenceProfile,
    k: int | None,
    draws: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Draw ``draws`` solutions as one int array; only the profile and gen are consulted.

    The greedy engine is deterministic, so its one matching is repeated
    and only a tour start (tsp) varies between draws.
    """
    n = profile.n
    size = spec.size(n, k)
    if engine == "hybrid":
        matchings = hybrid_matchings(profile, draws, gen)
    elif engine == "random":
        matchings = random_k_matchings(range(n), size, draws, gen)
    else:
        edges = greedy_k_matching(profile, size).sorted_edges() if size else []
        matchings = np.broadcast_to(np.array(edges, dtype=np.intp).reshape(size, 2), (draws, size, 2))
    return spec.reduce(matchings, profile, k, gen)


def _payload(kind: SolutionKind, solution, value: float) -> dict:
    """The solve and oracle output, keys in this order: kind, the solution's shape, n, value."""
    shape = solution.to_dict()
    n = shape.pop("n")
    return {"kind": kind.name, **shape, "n": n, "value": value}


def solve(problem: str, algorithm: str, inst: WeightedInstance, k: int | None, seed: int) -> dict:
    """One ordinal solution for ``inst`` as a payload: kind, its shape, n and value.

    The solution is one draw from the batched sampler that ``run_trials``
    uses, from ``RandomSource(seed).gen``, and the value comes from the
    same weight gather as a bench record's alg.
    """
    spec = problem_spec(problem, algorithm, inst.n, k)
    gen = RandomSource(seed).gen
    solutions = _sample(spec, canonical_engine(algorithm), derive_preferences(inst), k, 1, gen)
    value = float(spec.kind.values(solutions, inst.weights)[0])
    return _payload(spec.kind, spec.kind.cls(inst.n, solutions[0].tolist()), value)


def optimum(
    problem: str, inst: WeightedInstance, k: int | None, budget: OracleBudget = DEFAULT_BUDGET
) -> dict:
    """The exact optimum for ``inst`` as a payload, valued as a bench record's opt."""
    spec = problem_spec(problem, None, inst.n, k)
    solution = spec.oracle(inst, k, budget)
    return _payload(spec.kind, solution, spec.kind.weigh(solution, inst))


@dataclass
class RatioReport:
    """Outcome of one bench run; serializes byte-stably."""

    schema: int
    config: dict
    bound: float
    records: list
    max_ratio: float
    mean_ratio: float
    std_error: float
    verdict: bool

    def to_dict(self) -> dict:
        return _field_dict(self)


def run_trials(cfg: TrialConfig, budget: OracleBudget = DEFAULT_BUDGET) -> RatioReport:
    """Bench one configuration and judge it against its bound.

    Per trial: a fresh instance (seed = base + trial index), the exact
    optimum, and the algorithm's weight. Each trial draws from one
    ``numpy.random.Generator`` seeded by ``derived_seed(seed, trial)``.
    Randomized algorithms draw inner_samples solutions in blocks of
    SAMPLE_BLOCK through the batched samplers, each block taking the
    engine's draws before the tour starts; the trial passes when
    opt/mean <= bound + 3 * stderr(ratio). Deterministic algorithms pass
    when the worst ratio stays within bound + 1e-9.
    """
    row = PROBLEMS[cfg.problem]
    engine = cfg.engine
    bound = cfg.effective_bound()
    randomized = cfg.randomized()
    draws = cfg.inner_samples if randomized else 1
    records = []
    for t in range(cfg.trials):
        spec = GeneratorSpec(cfg.family, cfg.n, dimension=cfg.dimension, seed=cfg.seed + t)
        inst = generate(spec)
        profile = derive_preferences(inst)
        opt = row.kind.weigh(row.oracle(inst, cfg.k, budget), inst)
        gen = np.random.default_rng(RandomSource.derived_seed(cfg.seed, t))
        values = np.concatenate([
            row.kind.values(
                _sample(row, engine, profile, cfg.k, min(SAMPLE_BLOCK, draws - lo), gen),
                inst.weights,
            )
            for lo in range(0, draws, SAMPLE_BLOCK)
        ])
        alg = float(values.mean())
        ratio = opt / alg if alg > 0 else (1.0 if opt == 0 else math.inf)
        se_ratio = 0.0
        if randomized and alg > 0:
            se = float(values.std(ddof=1)) / math.sqrt(draws)
            se_ratio = opt * se / (alg * alg)
        records.append(
            {
                "seed": spec.seed,
                "opt": opt,
                "alg": alg,
                "ratio": ratio,
                "stderr": se_ratio,
                "passed": ratio <= bound + 3.0 * se_ratio + RATIO_TOL,
            }
        )
    ratios = [r["ratio"] for r in records]
    max_ratio = max(ratios)
    mean_ratio = statistics.fmean(ratios)
    std_error = statistics.stdev(ratios) / math.sqrt(len(ratios)) if len(ratios) > 1 else 0.0
    verdict = all(r["passed"] for r in records)
    return RatioReport(
        schema=REPORT_SCHEMA,
        config=cfg.to_dict(),
        bound=bound,
        records=records,
        max_ratio=max_ratio,
        mean_ratio=mean_ratio,
        std_error=std_error,
        verdict=verdict,
    )


def _finite_or_null(obj):
    """Replace non-finite floats (an infinite ratio, say) with None, recursively."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(val) for val in obj]
    return obj


def render(fmt: str, data, header: str, rows):
    """The byte chunks a CLI verb writes, all checks done: ``data`` as strict JSON, or CSV.

    JSON refuses non-finite floats (ValueError) instead of writing a bare
    Infinity or NaN. A CSV cell is ``str`` of its value (``repr`` for a
    float), quoted only when it holds a comma, a double quote or a newline.
    An ndarray ``rows`` that is also a value of ``data`` (gen's weights,
    prefs' ranking) is written by ``instance._table_chunks``, one chunk per row.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'csv'")
    if isinstance(rows, np.ndarray):
        return _table_chunks(fmt, data, header, rows)
    if fmt == "json":
        return [(json.dumps(data, allow_nan=False) + "\n").encode("utf-8")]
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return [buf.getvalue().encode("utf-8")]


def report_emit(report: RatioReport, fmt: str = "json") -> bytes:
    """Render a report; json is strict (non-finite floats become null), csv is one row per record."""
    rows = ((r["seed"], r["opt"], r["alg"], r["ratio"]) for r in report.records)
    return b"".join(render(fmt, _finite_or_null(report.to_dict()), "seed,opt,alg,ratio", rows))


# ---------------------------------------------------------------------------
# Lower-bound fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Game:
    """Nature picks a weighting named in ``y``, the algorithm a k-matching.

    ``mixtures`` maps a label to (x, claimed worst ratio), x {matching in the form of
    ``_k_matchings``: probability}; ``floor`` (None: infinite) and ``bound`` (L) are claims."""

    name: str
    y: dict
    mixtures: dict
    floor: Fraction | None
    bound: Fraction


@dataclass(frozen=True)
class Record:
    """A profile, k, and weightings: name -> (rows, claimed metric flag, claimed optimum)."""

    name: str
    profile: PreferenceProfile
    k: int
    weightings: dict
    games: tuple


def _k_matchings(nodes: tuple, k: int):
    """Every set of k disjoint edges over ``nodes``: (u, v) pairs, u < v, in order of u."""
    if k == 0:
        yield ()
    elif len(nodes) >= 2 * k:
        u, rest = nodes[0], nodes[1:]
        for i, v in enumerate(rest):
            for m in _k_matchings(rest[:i] + rest[i + 1 :], k - 1):
                yield ((u, v), *m)
        yield from _k_matchings(rest, k)


def _worst(values: dict, opt: dict) -> Fraction | None:
    """max over weightings s of opt_s / values_s; None (infinite) if a value is 0."""
    return max(opt[s] / v for s, v in values.items()) if all(values.values()) else None


def _is_distribution(p: dict) -> bool:
    return all(q >= 0 for q in p.values()) and sum(p.values()) == 1


def check_record(rec: Record) -> dict:
    """Verify a record's claims exactly, as the module docstring lists them.

    Returns ``{name, passed, checks: [{name, expected, actual, passed}]}``,
    values written by ``str`` (``5/3``) and an infinite ratio as null.
    """
    checks = []

    def check(name, expected, actual, passed=None):
        expected, actual = (None if v is None else str(v) for v in (expected, actual))
        ok = expected == actual if passed is None else passed
        checks.append({"name": name, "expected": expected, "actual": actual, "passed": ok})

    n, ranking = rec.profile.n, rec.profile.ranking.tolist()
    matchings = list(_k_matchings(tuple(range(n)), rec.k))
    index, cols = {m: i for i, m in enumerate(matchings)}, range(len(matchings))
    value, opt = {}, {}
    for s, (w, metric, claimed_opt) in rec.weightings.items():
        value[s] = [sum((w[u][v] for u, v in m), Fraction(0)) for m in matchings]
        opt[s] = max(value[s])
        ties = all(w[q][a] >= w[q][b] for q, r in enumerate(ranking) for a, b in zip(r, r[1:]))
        check(f"{s} consistent with the profile", True, ties)
        triangles = all(w[u][v] <= w[u][z] + w[z][v] for u, v, z in product(range(n), repeat=3))
        check(f"{s} metric", metric, triangles)
        check(f"{s} optimum over all {len(matchings)} {rec.k}-matchings", claimed_opt, opt[s])
        inst = WeightedInstance([[float(x) for x in row] for row in w])
        oracle = matching_weight(opt_matching(inst, rec.k), inst)
        check(f"{s} float oracle optimum", opt[s], oracle, abs(oracle - float(opt[s])) <= 1e-12)

    for g in rec.games:
        label = f"{g.name}: " if g.name else ""
        det = (_worst({s: value[s][i] for s in g.y}, opt) for i in cols)
        check(f"{label}deterministic floor over all {len(matchings)} matchings", g.floor,
              min(filter(None, det), default=None))
        ratios = []
        for name, (x, claimed) in g.mixtures.items():
            actual = "not a mixture of k-matchings"
            if x.keys() <= index.keys() and _is_distribution(x):
                expect = {s: sum(p * value[s][index[m]] for m, p in x.items()) for s in g.y}
                actual = _worst(expect, opt)
                ratios.append(actual)
            check(f"{label}{name} worst ratio", claimed, actual)
        best = min(filter(None, ratios), default=None)
        claimed_best = min(filter(None, (c for _, c in g.mixtures.values())), default=None)
        expected = f"{g.bound} exact" if g.bound == claimed_best else g.bound
        actual, ok = "y is not a distribution", False
        if _is_distribution(g.y):
            bound = 1 / max(sum(g.y[s] * value[s][i] / opt[s] for s in g.y) for i in cols)
            actual = f"{bound} exact" if bound == best else bound
            ok = str(actual) == str(expected) and (best is None or bound <= best)
        check(f"{label}lower bound L from y", expected, actual, ok)
    return {"name": rec.name, "passed": all(c["passed"] for c in checks), "checks": checks}


def _weighting(n: int, base, edges: dict) -> list:
    """Symmetric rational rows: ``base`` off the diagonal, then ``edges`` {(u, v): weight}."""
    w = [[Fraction(0 if u == v else base) for v in range(n)] for u in range(n)]
    for (u, v), x in edges.items():
        w[u][v] = w[v][u] = Fraction(x)
    return w


def _matching(spec: str) -> tuple:
    """'01|23' -> ((0, 1), (2, 3)), for single-digit nodes."""
    return tuple((int(e[0]), int(e[1])) for e in spec.split("|"))


def build_fixture_randomization_floor(epsilon: Fraction = Fraction(1, 100)) -> Record:
    """4 nodes, two metric weightings: every fixed matching concedes 3/2 (epsilon < 1/3),
    x = 2/5 paired + 3/5 crossed exactly 5/4, and y proves L = (5 - 3 eps)/(4 - 2 eps)."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    weightings = {
        "tie-breaker": (_weighting(4, 1, {(2, 3): eps}), True, Fraction(2)),
        "favorite-pair": (_weighting(4, 1, {(0, 1): 2}), True, Fraction(3)),
    }
    x = {_matching("01|23"): Fraction(2, 5), _matching("02|13"): Fraction(3, 5)}
    y = {"tie-breaker": 2 / (5 - 3 * eps), "favorite-pair": (3 - 3 * eps) / (5 - 3 * eps)}
    game = Game("", y, {"x": (x, Fraction(5, 4))}, min(Fraction(3, 2), 2 / (1 + eps)),
                (5 - 3 * eps) / (4 - 2 * eps))
    profile = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))
    return Record("randomization-floor", profile, 2, weightings, (game,))


def build_fixture_mutual_top_pairs(n_pairs: int = 3, epsilon: Fraction = Fraction(1, 100)) -> Record:
    """2n nodes in mutually top-ranked pairs, one of them heavy, k = 1: uniform guesses
    and uniform y meet at 2n/(n+1) (metric), n/(1+(n-1)eps) (lean) and n (limit)."""
    if n_pairs < 2:
        raise ValueError("need at least 2 pairs")
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must be in (0, 1/2)")
    n, size = n_pairs, 2 * n_pairs
    # each node ranks its pair partner q ^ 1 first, then the rest by index
    profile = PreferenceProfile(
        [[q ^ 1] + [j for j in range(size) if j not in (q, q ^ 1)] for q in range(size)]
    )
    guess = {((2 * i, 2 * i + 1),): Fraction(1, n) for i in range(n)}
    weightings, games = {}, []
    for game, base, heavy, ratio, floor in (
        ("metric", 1, 2, Fraction(2 * n, n + 1), Fraction(2)),
        ("lean", eps, 1, n / (1 + (n - 1) * eps), 1 / eps),
        ("limit", 0, 1, Fraction(n), None),
    ):
        names = [f"{game}-heavy-{s}" for s in range(n)]
        for s, name in enumerate(names):
            rows = _weighting(size, base, {(2 * s, 2 * s + 1): heavy})
            weightings[name] = (rows, game == "metric", heavy)
        y = dict.fromkeys(names, Fraction(1, n))
        games.append(Game(game, y, {"uniform pair guess": (guess, ratio)}, floor, ratio))
    return Record("mutual-top-pairs", profile, 1, weightings, tuple(games))


def build_fixture_mixture_gap() -> Record:
    """8 nodes ranking each other by index, optima 1, 2, 3, 4: every matching mixture
    concedes 5/3 (L exact at x and y = (1, 2, 3, 4)/10), the uniform one over six 3."""
    size = 8
    edge_sets = (
        {(0, 1)},
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)},
        {(u, v) for u in (0, 1) for v in range(u + 1, size)} | {(2, 3)},
        {(u, v) for u in range(4) for v in range(u + 1, size)},
    )
    weightings = {
        f"weighting-{s + 1}": (_weighting(size, 0, dict.fromkeys(edges, 1)), s == 3, s + 1)
        for s, edges in enumerate(edge_sets)
    }
    x = {_matching("01|23|45|67"): Fraction(2, 5), _matching("01|24|35|67"): Fraction(1, 5),
         _matching("02|13|45|67"): Fraction(3, 10), _matching("04|15|26|37"): Fraction(1, 10)}
    six = ("01|23|45|67", "01|24|35|67", "02|13|45|67", "02|14|35|67", "04|15|26|37", "04|15|23|67")
    uniform = dict.fromkeys(map(_matching, six), Fraction(1, 6))
    mixtures = {"x": (x, Fraction(5, 3)), "uniform over six benchmark matchings": (uniform, 3)}
    y = {name: Fraction(s + 1, 10) for s, name in enumerate(weightings)}
    profile = PreferenceProfile([[j for j in range(size) if j != q] for q in range(size)])
    game = Game("", y, mixtures, 2, Fraction(5, 3))
    return Record("mixture-gap", profile, size // 2, weightings, (game,))


FIXTURES = {
    "randomization-floor": build_fixture_randomization_floor,
    "mutual-top-pairs": build_fixture_mutual_top_pairs,
    "mixture-gap": build_fixture_mixture_gap,
}


def all_fixtures() -> list[dict]:
    """Every fixture's record, checked by ``check_record``."""
    return [check_record(build()) for build in FIXTURES.values()]
