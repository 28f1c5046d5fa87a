"""Ratio-verification harness: trials, reports, and lower-bound fixtures.

``run_trials`` generates instances, scores an ordinal algorithm against
the exact oracle, and renders a verdict against a claimed approximation
bound: deterministic algorithms by worst observed ratio, randomized ones
by per-instance Monte Carlo means with a three-standard-error allowance.

The fixture builders reproduce the hand-analyzed worst-case families and
re-derive their ratios with exact rational arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    EdgePool,
    Matching,
    RandomSource,
    greedy_k_matching,
    hybrid_matchings,
    matching_weight,
    random_k_matchings,
)
from .instance import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    PreferenceProfile,
    WeightedInstance,
    derive_preferences,
    generate,
    profile_consistent,
    validate_metric,
)
from .oracle import DEFAULT_BUDGET, OracleBudget, opt_densest, opt_k_sum, opt_matching, opt_tsp
from .reductions import (
    Clustering,
    Subset,
    Tour,
    cluster_weight,
    matchings_to_clusters,
    matchings_to_subsets,
    matchings_to_tours,
    subset_weight,
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


def _edge_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w[solutions[..., 0], solutions[..., 1]].sum(axis=1)


def _cluster_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(solutions.shape[2], 1)
    return w[solutions[..., i], solutions[..., j]].sum(axis=(1, 2))


def _subset_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _cluster_values(solutions[:, None, :], w)


def _tour_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w[solutions, np.roll(solutions, -1, axis=1)].sum(axis=1)


class SolutionKind(NamedTuple):
    """How one kind of solution is packed, weighed and reported."""

    name: str  # the payload's "kind"
    cls: type  # cls(n, row) validates one row of a batched solution array
    weigh: Callable  # (solution, inst) -> weight, as the oracle's value is computed
    values: Callable  # (solutions, w) -> one weight per row, in one gather


# Table callables reach the oracles and weight functions through this
# module's globals, so a wrapper installed on them here (a tracer) sees
# every call.
MATCHING = SolutionKind("matching", Matching, lambda m, inst: matching_weight(m, inst), _edge_values)
CLUSTERING = SolutionKind(
    "clustering", Clustering, lambda c, inst: cluster_weight(c, inst), _cluster_values
)
SUBSET = SolutionKind("subset", Subset, lambda s, inst: subset_weight(s, inst), _subset_values)
TOUR = SolutionKind("tour", Tour, lambda t, inst: tour_weight(t, inst), _tour_values)


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
        if self.family not in GENERATOR_FAMILIES or self.family == "explicit":
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
        matchings = random_k_matchings(EdgePool.complete(range(n), n), size, draws, gen)
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


def render(fmt: str, data, header: str, rows) -> bytes:
    """The bytes a CLI verb writes: ``data`` as strict JSON, or CSV of ``header`` and ``rows``.

    JSON refuses non-finite floats (ValueError) instead of writing a bare
    Infinity or NaN. A CSV cell is ``str`` of its value (``repr`` for a
    float), quoted only when it holds a comma, a double quote or a newline.
    """
    if fmt == "json":
        return (json.dumps(data, allow_nan=False) + "\n").encode("utf-8")
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}, expected 'json' or 'csv'")
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def report_emit(report: RatioReport, fmt: str = "json") -> bytes:
    """Render a report; json is strict (non-finite floats become null), csv is one row per record."""
    rows = ((r["seed"], r["opt"], r["alg"], r["ratio"]) for r in report.records)
    return render(fmt, _finite_or_null(report.to_dict()), "seed,opt,alg,ratio", rows)


# ---------------------------------------------------------------------------
# Lower-bound fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    expected: str
    actual: str
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return _field_dict(self)


@dataclass
class Fixture:
    """A hand-analyzed instance family plus its re-derived quantities."""

    name: str
    instances: dict
    profile: PreferenceProfile
    checks: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check_exact(self, name: str, expected, actual, note: str = ""):
        ok = expected == actual
        self.checks.append(FixtureCheck(name, str(expected), str(actual), ok, note))

    def check_close(self, name: str, expected, actual, tol: float = 1e-12, note: str = ""):
        ok = abs(float(expected) - float(actual)) <= tol
        self.checks.append(FixtureCheck(name, str(expected), str(actual), ok, note))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed(),
            "checks": [c.to_dict() for c in self.checks],
        }


def _instance_from_fractions(rows, metric_tol: float = 0.0) -> WeightedInstance:
    w = [[float(x) for x in row] for row in rows]
    probe = WeightedInstance(w, metric=False)
    return WeightedInstance(w, metric=validate_metric(probe, metric_tol))


def _fraction_matching_value(w_rows, edges) -> Fraction:
    return sum((w_rows[u][v] for u, v in edges), Fraction(0))


def build_fixture_randomization_floor(epsilon: Fraction = Fraction(1, 100)) -> Fixture:
    """4-node family where no deterministic ordinal rule beats ratio 3/2.

    Two metric weightings induce the same preference profile but want
    different matchings; the best fixed matching loses 3/2 on one of
    them, while mixing the two candidate matchings 2/5 : 3/5 caps the
    worst ratio at 5/4 (tight as epsilon -> 0).
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    one = Fraction(1)
    # published profile: one consistent tie completion, stored verbatim
    profile = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))
    w1 = [
        [0, one, one, one],
        [one, 0, one, one],
        [one, one, 0, eps],
        [one, one, eps, 0],
    ]
    w2 = [
        [0, 2 * one, one, one],
        [2 * one, 0, one, one],
        [one, one, 0, one],
        [one, one, one, 0],
    ]
    inst1 = _instance_from_fractions(w1)
    inst2 = _instance_from_fractions(w2)
    fx = Fixture(
        name="randomization-floor",
        instances={"tie-breaker": inst1, "favorite-pair": inst2},
        profile=profile,
    )

    fx.check_exact("profile consistent with weighting 1", True, profile_consistent(profile, inst1))
    fx.check_exact("profile consistent with weighting 2", True, profile_consistent(profile, inst2))
    fx.check_exact("both weightings are metric", True, inst1.metric and inst2.metric)

    m_pair = ((0, 1), (2, 3))
    m_cross = ((0, 2), (1, 3))
    m_anti = ((0, 3), (1, 2))
    candidates = (m_pair, m_cross, m_anti)
    opt1 = max(_fraction_matching_value(w1, m) for m in candidates)
    opt2 = max(_fraction_matching_value(w2, m) for m in candidates)
    fx.check_exact("optimum under weighting 1", Fraction(2), opt1, "cross matching collects both unit edges")
    fx.check_exact("optimum under weighting 2", Fraction(3), opt2, "paired matching keeps the weight-2 edge")
    fx.check_close(
        "matching oracle agrees on weighting 1",
        opt1,
        matching_weight(opt_matching(inst1, 2), inst1),
    )
    fx.check_close(
        "matching oracle agrees on weighting 2",
        opt2,
        matching_weight(opt_matching(inst2, 2), inst2),
    )

    # any deterministic ordinal rule fixes one matching for this profile
    def worst_ratio(m) -> Fraction:
        return max(opt1 / _fraction_matching_value(w1, m), opt2 / _fraction_matching_value(w2, m))

    best_det = min(worst_ratio(m) for m in candidates)
    fx.check_exact(
        "deterministic floor",
        Fraction(3, 2),
        best_det,
        "fixed cross matching concedes 3/2 under weighting 2",
    )

    def mixture_worst(x: Fraction) -> Fraction:
        exp1 = x * _fraction_matching_value(w1, m_pair) + (1 - x) * _fraction_matching_value(w1, m_cross)
        exp2 = x * _fraction_matching_value(w2, m_pair) + (1 - x) * _fraction_matching_value(w2, m_cross)
        return max(opt1 / exp1, opt2 / exp2)

    x_star = Fraction(2, 5)
    fx.check_exact(
        "mixture 2/5 on the paired matching",
        Fraction(5, 4),
        mixture_worst(x_star),
        "expected values 2 - x(1-eps) and 2 + x equalize as eps -> 0",
    )
    # limiting model (eps = 0): the equalizer of 2/(2-x) and 3/(2+x)
    fx.check_exact("equalizer at the limit", Fraction(5, 4), Fraction(2) / (2 - x_star))
    fx.check_exact("equalizer consistency", Fraction(2) / (2 - x_star), Fraction(3) / (2 + x_star))
    grid_min = min(
        max(Fraction(2) / (2 - Fraction(j, 50)), Fraction(3) / (2 + Fraction(j, 50)))
        for j in range(0, 50)
    )
    fx.check_exact("grid scan of limit mixtures", Fraction(5, 4), grid_min, "x sampled at j/50")
    return fx


def build_fixture_mutual_top_pairs(n_pairs: int = 3, epsilon: Fraction = Fraction(1, 100)) -> Fixture:
    """2n-node family of mutually top-ranked pairs hiding one heavy pair.

    With k=1 every ordinal rule is effectively guessing which pair is
    heavy: uniform guessing earns (n+1)/n in the metric variant (ratio
    2n/(n+1)) and only (1+(n-1)eps)/n in the non-metric one, whose ratio
    grows like n as eps -> 0.
    """
    if n_pairs < 2:
        raise ValueError("need at least 2 pairs")
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must be in (0, 1/2)")
    n = n_pairs
    size = 2 * n
    one = Fraction(1)

    def pair_nodes(i: int) -> tuple[int, int]:
        return 2 * i, 2 * i + 1

    # each node ranks its pair partner q ^ 1 first, then the rest by index
    profile = PreferenceProfile(
        [[q ^ 1] + [j for j in range(size) if j not in (q, q ^ 1)] for q in range(size)]
    )

    def weight_rows(special: int, heavy, base) -> list:
        w = [[base * 1 for _ in range(size)] for _ in range(size)]
        for q in range(size):
            w[q][q] = Fraction(0)
        a, b = pair_nodes(special)
        w[a][b] = w[b][a] = heavy
        return w

    metric_rows = [weight_rows(s, Fraction(2), one) for s in range(n)]
    lean_rows = [weight_rows(s, one, eps) for s in range(n)]
    instances = {}
    for s in range(n):
        instances[f"metric-heavy-{s}"] = _instance_from_fractions(metric_rows[s])
        instances[f"nonmetric-heavy-{s}"] = _instance_from_fractions(lean_rows[s])

    fx = Fixture(name="mutual-top-pairs", instances=instances, profile=profile)
    fx.check_exact(
        "profile consistent with every weighting",
        True,
        all(profile_consistent(profile, inst) for inst in instances.values()),
    )
    fx.check_exact(
        "metric variants are metric, lean variants are not",
        True,
        all(instances[f"metric-heavy-{s}"].metric for s in range(n))
        and not any(instances[f"nonmetric-heavy-{s}"].metric for s in range(n)),
    )

    # uniform guessing: expected weight of a uniformly chosen pair edge
    metric_expect = {
        s: Fraction(
            sum(metric_rows[s][pair_nodes(j)[0]][pair_nodes(j)[1]] for j in range(n)), n
        )
        for s in range(n)
    }
    fx.check_exact(
        "metric guessing expectation",
        {s: Fraction(n + 1, n) for s in range(n)},
        metric_expect,
        "one guess in n hits the weight-2 pair",
    )
    fx.check_exact("metric single-edge optimum", Fraction(2), max(max(r) for r in metric_rows[0]))
    fx.check_exact(
        "metric guessing ratio",
        Fraction(2 * n, n + 1),
        Fraction(2) / metric_expect[0],
    )
    lean_expect = Fraction(1 + (n - 1) * eps, n)
    fx.check_exact(
        "non-metric guessing ratio",
        Fraction(n, 1 + (n - 1) * eps),
        Fraction(1) / lean_expect,
    )
    fx.check_exact(
        "non-metric ratio at the eps -> 0 limit",
        Fraction(n),
        Fraction(1) / Fraction(1, n),
        "guessing degrades to 1/n of the optimum",
    )

    # full matching leaves nothing hidden: greedy pairs every mutual top
    g = greedy_k_matching(profile, n)
    fx.check_exact(
        "greedy full matching pairs the partners",
        tuple((2 * i, 2 * i + 1) for i in range(n)),
        tuple(g.sorted_edges()),
    )
    inst0 = instances["metric-heavy-0"]
    fx.check_close(
        "full-matching ratio is 1",
        1.0,
        matching_weight(opt_matching(inst0, n), inst0) / matching_weight(g, inst0),
    )
    return fx


def build_fixture_mixture_gap() -> Fixture:
    """8-node rank profile where every matching mixture concedes 5/3.

    Four weightings, all consistent with one profile built from node
    ranks, have optima 1, 2, 3, 4. Each of six benchmark matchings
    collects total coefficient 6 across the weightings, so any mixture
    x sums to 6 >= (1+2+3+4) * c, forcing c <= 3/5.
    """
    size = 8
    rank = [q // 2 for q in range(size)]
    profile = PreferenceProfile(
        [sorted((j for j in range(size) if j != q), key=lambda j: (rank[j], j)) for q in range(size)]
    )

    one = Fraction(1)

    def blank():
        return [[Fraction(0) for _ in range(size)] for _ in range(size)]

    def sym(w, u, v, val):
        w[u][v] = w[v][u] = val

    w_sets = []
    w = blank()
    sym(w, 0, 1, one)
    w_sets.append(w)

    w = blank()
    sym(w, 0, 1, one)
    for u in (0, 1):
        for v in (2, 3):
            sym(w, u, v, one)
    w_sets.append(w)

    w = blank()
    for z in range(1, size):
        sym(w, 0, z, one)
    for z in range(2, size):
        sym(w, 1, z, one)
    sym(w, 2, 3, one)
    w_sets.append(w)

    w = blank()
    for u in (0, 1, 2, 3):
        for v in range(size):
            if v != u:
                sym(w, u, v, one)
    w_sets.append(w)

    matchings = (
        ((0, 1), (2, 3), (4, 5), (6, 7)),
        ((0, 1), (2, 4), (3, 5), (6, 7)),
        ((0, 2), (1, 3), (4, 5), (6, 7)),
        ((0, 2), (1, 4), (3, 5), (6, 7)),
        ((0, 4), (1, 5), (2, 6), (3, 7)),
        ((0, 4), (1, 5), (2, 3), (6, 7)),
    )
    expected_opts = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    expected_rows = (
        (1, 1, 0, 0, 0, 0),
        (1, 1, 2, 1, 0, 0),
        (2, 1, 2, 2, 2, 3),
        (2, 3, 2, 3, 4, 3),
    )

    instances = {f"weighting-{s + 1}": _instance_from_fractions(w_sets[s]) for s in range(4)}
    fx = Fixture(name="mixture-gap", instances=instances, profile=profile)

    fx.check_exact(
        "profile consistent with every weighting",
        True,
        all(profile_consistent(profile, inst) for inst in instances.values()),
    )
    fx.check_exact(
        "family includes non-metric weightings",
        True,
        any(not inst.metric for inst in instances.values()),
    )

    value_rows = tuple(
        tuple(_fraction_matching_value(w_sets[s], m) for m in matchings) for s in range(4)
    )
    for s in range(4):
        fx.check_exact(
            f"weighting {s + 1} matching values",
            tuple(Fraction(v) for v in expected_rows[s]),
            value_rows[s],
        )
        inst = instances[f"weighting-{s + 1}"]
        fx.check_close(
            f"weighting {s + 1} optimum",
            expected_opts[s],
            matching_weight(opt_matching(inst, size // 2), inst),
        )

    col_sums = tuple(sum(value_rows[s][i] for s in range(4)) for i in range(len(matchings)))
    fx.check_exact(
        "every matching's total coefficient",
        tuple(Fraction(6) for _ in matchings),
        col_sums,
        "summing the four per-weighting guarantees",
    )
    fx.check_exact(
        "mixture ceiling",
        Fraction(3, 5),
        Fraction(6) / Fraction(sum(expected_opts)),
        "6 >= 10c, so no mixture beats ratio 5/3",
    )
    uniform = Fraction(1, 6)
    worst_uniform = max(
        expected_opts[s] / sum(uniform * value_rows[s][i] for i in range(6)) for s in range(4)
    )
    fx.check_exact("uniform mixture worst ratio", Fraction(3), worst_uniform)
    fx.check_exact("uniform mixture concedes the gap", True, worst_uniform >= Fraction(5, 3))
    return fx


FIXTURES = {
    "randomization-floor": build_fixture_randomization_floor,
    "mutual-top-pairs": build_fixture_mutual_top_pairs,
    "mixture-gap": build_fixture_mixture_gap,
}


def all_fixtures() -> list[Fixture]:
    return [build() for build in FIXTURES.values()]
