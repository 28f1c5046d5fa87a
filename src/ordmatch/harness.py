"""Ratio-verification harness: trials, reports, and lower-bound fixtures.

``run_trials`` generates instances, scores an ordinal algorithm against
the exact oracle, and renders a verdict against a claimed approximation
bound: deterministic algorithms by worst observed ratio, randomized ones
by per-instance Monte Carlo means with a three-standard-error allowance.
Both sides are weighed by one gather per objective (``core`` and
``reductions`` define them; ``SolutionKind`` pairs each with its scalar
one-row form), so a greedy that finds the optimum reads ratio 1.0. A
report is its JSON document, which ``report_emit`` writes.

The lower-bound fixtures are finite games, each a record: one preference
profile, k, named rational weightings consistent with it, and games. In a
game Nature picks one of its weightings and the algorithm, seeing only the
profile, picks a k-matching. ``check_record`` verifies every claim in
``Fraction`` arithmetic, with no LP solver: each weighting's consistency,
metric flag and optimum over all k-matchings (with the float
``opt_matching`` within 1e-12); the deterministic floor
min_M max_s opt_s / w_s(M); each matching mixture x's worst ratio; and the
certificate of Nature's mixture y over the normalized weightings
w_s / opt_s, L = 1 / max_M sum_s y_s w_s(M) / opt_s. By weak duality no
mixture concedes less than L; L is "exact" when a claimed x meets it.

A record is its JSON document, laid out as ``_LAYOUT`` says with every
rational a string as ``str(Fraction)`` writes it; ``_read`` is its one
reader. The package's records are files under ``RECORDS``, named by their
files: ``bench/records.py`` writes them, ``ordmatch fixtures`` checks them.
"""

from __future__ import annotations

import json
import math
import os
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
    _row,
    greedy_k_matching,
    hybrid_matchings,
    matching_values,
    matching_weight,
    random_k_matchings,
)
from .instance import (
    GeneratorSpec,
    PreferenceProfile,
    WeightedInstance,
    _count,
    _integer,
    _number,
    _typed,
    derive_preferences,
    generate,
    render,
)
from .oracle import _cap, opt_densest, opt_k_sum, opt_matching, opt_tsp
from .reductions import (
    Clustering,
    Subset,
    Tour,
    _parts,
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

__all__ = [
    "TrialConfig",
    "check_record",
    "default_bound",
    "hybrid_bound",
    "load_record",
    "report_emit",
    "run_trials",
]

RATIO_TOL = 1e-9

# Version 2: non-finite floats are written as null, never as bare Infinity/NaN.
REPORT_SCHEMA = 2

# Inner draws per sampler call, so memory does not grow with inner_samples.
SAMPLE_BLOCK = 4096


def canonical_engine(label: str) -> str:
    """Accept both 'greedy' and the reduction spelling 'reduction-of(greedy)'."""
    if not isinstance(label, str):
        raise ValueError(f"algorithm must be a string, got {label!r}")
    m = re.fullmatch(r"reduction-of\((\w+)\)", label.strip())
    return m.group(1) if m else label.strip()


def hybrid_bound(n: int) -> float:
    """Expected-ratio bound for the hybrid matching at a given n.

    Exactly 1.6 when n is divisible by 6; otherwise the rounding of the
    greedy prefix adds at most 7/(8*(2n-3)). n is an integer of at least 2.
    """
    if (n := _count(n, "n", 2)) % 6 == 0:
        return 1.6
    return 1.6 + 7.0 / (8.0 * (2 * n - 3))


def _alpha(engine: str, n: int) -> float:
    """The matching engine's own factor, which the reductions scale."""
    return hybrid_bound(n) if engine == "hybrid" else 2.0


class SolutionKind(NamedTuple):
    """How one kind of solution is read, weighed and reported; its class's name is its kind."""

    cls: type  # cls(n, row) validates one row of a batched solution array
    weigh: Callable  # (solution, inst) -> weight, as the oracle's value is computed
    values: Callable  # (solutions, w) -> one weight per row, in one gather


# Table callables reach the oracles and weight functions through this
# module's globals, so a wrapper installed on them here (a tracer) sees
# every call.
MATCHING = SolutionKind(Matching, lambda m, inst: matching_weight(m, inst), matching_values)
CLUSTERING = SolutionKind(Clustering, lambda c, inst: cluster_weight(c, inst), cluster_values)
SUBSET = SolutionKind(Subset, lambda s, inst: subset_weight(s, inst), subset_values)
TOUR = SolutionKind(Tour, lambda t, inst: tour_weight(t, inst), tour_values)


@dataclass(frozen=True)
class ProblemSpec:
    """One row of the problem table: everything bench, solve and oracle read."""

    engines: tuple  # engines with a defended bound
    check: Callable  # (n, k, engine) raises ValueError; greedy adds no rule: optimum checks as it
    size: Callable  # (n, k) -> edges the matching engine must supply
    reduce: Callable  # (matchings, profile, k, gen) -> one solution per matching
    oracle: Callable  # (inst, k) -> the exact optimum
    cap: str  # the oracle's name in DEFAULT_BUDGET (max_n_<cap>) and in its BudgetError
    bound: Callable  # (engine, n) -> the factor the harness defends
    kind: SolutionKind
    random_reduce: bool = False  # the reduction draws from gen, so greedy is randomized too


def _check_mwm(n, k, engine):
    if k is not None:
        raise ValueError(f"mwm takes no k (its matching is perfect), got k={k}")


def _check_mkm(n, k, engine, what="mkm"):
    if k is None or not 1 <= k <= n // 2:
        raise ValueError(f"{what} needs 1 <= k <= n//2, got k={k}, n={n}")


def _check_ksum(n, k, engine):
    try:
        _parts(n, k)
    except ValueError:  # the reductions' rule, worded for the problem
        raise ValueError(f"ksum needs k >= 1 dividing n, got k={k}, n={n}") from None
    if engine == "hybrid" and (n // k) % 2 != 0:
        raise ValueError("ksum with the hybrid engine needs an even cluster size")


def _check_densest(n, k, engine):
    if k is None or k % 2 != 0 or not 2 <= k <= n:
        raise ValueError(f"densest needs even k in 2..n, got k={k}, n={n}")


def _check_tsp(n, k, engine):
    if k is not None:
        raise ValueError(f"tsp takes no k (its tour visits every node), got k={k}")
    if n % 2 != 0 or n < 4:
        raise ValueError(f"tsp needs even n >= 4, got n={n}")


# random_k_matching has no guarantee for k below a perfect matching, so
# mkm only admits greedy. ksum's odd-cluster-size greedy path, which
# leaves k nodes unmatched, still lands at factor 4.
PROBLEMS = {
    "mwm": ProblemSpec(
        engines=("greedy", "random", "hybrid"),
        check=_check_mwm,
        size=lambda n, k: n // 2,
        reduce=lambda m, profile, k, gen: m,
        oracle=lambda inst, k: opt_matching(inst, inst.n // 2),
        cap="matching",
        bound=_alpha,
        kind=MATCHING,
    ),
    "mkm": ProblemSpec(
        engines=("greedy",),
        check=_check_mkm,
        size=lambda n, k: k,
        reduce=lambda m, profile, k, gen: m,
        oracle=lambda inst, k: opt_matching(inst, k),
        cap="matching",
        bound=lambda engine, n: 2.0,
        kind=MATCHING,
    ),
    "ksum": ProblemSpec(
        engines=("greedy", "hybrid"),
        check=_check_ksum,
        size=lambda n, k: n // 2 if (n // k) % 2 == 0 else (n - k) // 2,
        reduce=lambda m, profile, k, gen: matchings_to_clusters(m, profile.n, k),
        oracle=lambda inst, k: opt_k_sum(inst, k),
        cap="k-sum",
        bound=lambda engine, n: 2.0 * _alpha(engine, n),
        kind=CLUSTERING,
    ),
    "densest": ProblemSpec(
        engines=("greedy", "random"),
        check=_check_densest,
        size=lambda n, k: k // 2,
        reduce=lambda m, profile, k, gen: matchings_to_subsets(m),
        oracle=lambda inst, k: opt_densest(inst, k),
        cap="densest",
        bound=lambda engine, n: 4.0,
        kind=SUBSET,
    ),
    "tsp": ProblemSpec(
        engines=("greedy", "hybrid"),
        check=_check_tsp,
        size=lambda n, k: n // 2,
        reduce=lambda m, profile, k, gen: matchings_to_tours(m, profile, gen),
        oracle=lambda inst, k: opt_tsp(inst),
        cap="tsp",
        bound=lambda engine, n: 4.0 * _alpha(engine, n) / (3.0 - 4.0 / n),
        kind=TOUR,
        random_reduce=True,  # a tour starts at a random node
    ),
}


def problem_spec(problem: str, algorithm: str, n: int, k: int | None) -> tuple:
    """The table row for ``problem`` and the canonical engine, once (algorithm, n, k) pass
    its checks, n read by ``_count`` as at least 2 and k (when given) by ``_integer``.

    ``algorithm`` is a string naming one of the row's engines; ``optimum`` checks as greedy,
    which every row admits. Every rejected input raises ValueError.
    """
    if not isinstance(problem, str) or problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {tuple(PROBLEMS)}")
    spec = PROBLEMS[problem]
    if (engine := canonical_engine(algorithm)) not in spec.engines:
        raise ValueError(f"algorithm {algorithm!r} has no defended bound for {problem}; "
                         f"allowed: {spec.engines}")
    spec.check(_count(n, "n", 2), None if k is None else _integer(k, "k"), engine)
    return spec, engine


def default_bound(problem: str, engine: str, n: int, k: int | None = None) -> float:
    """The approximation factor the harness defends for a valid configuration."""
    spec, engine = problem_spec(problem, engine, n, k)
    return spec.bound(engine, n)


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
        for name in ("n", "trials", "inner_samples") + ("k",) * (self.k is not None):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.bound is not None:
            _number(self.bound, "bound")
        _, engine = problem_spec(self.problem, self.algorithm, self.n, self.k)
        object.__setattr__(self, "engine", engine)  # beside the fields: not in a report
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.inner_samples < 2:
            raise ValueError("inner_samples must be at least 2 for a standard error")
        if self.bound is not None and self.bound <= 0:
            raise ValueError("bound must be positive")
        # last, by gen's rules: a config with another rejected field is refused for that first
        spec = GeneratorSpec(self.family, self.n, self.dimension, self.seed)
        object.__setattr__(self, "dimension", spec.dimension)
        object.__setattr__(self, "seed", spec.seed)

    def randomized(self) -> bool:
        return self.engine != "greedy" or PROBLEMS[self.problem].random_reduce

    def effective_bound(self) -> float:
        if self.bound is not None:
            return self.bound
        return PROBLEMS[self.problem].bound(self.engine, self.n)

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "bound": self.effective_bound()}


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
        m = greedy_k_matching(profile, size) if size else Matching(n, frozenset())
        matchings = np.broadcast_to(_row(m), (draws, size, 2))
    return spec.reduce(matchings, profile, k, gen)


def _payload(kind: SolutionKind, solution, inst: WeightedInstance) -> dict:
    """The solve and oracle output, keys in this order: kind, the solution's ``to_dict`` (its
    shape, then n) and value, which ``kind.weigh`` gives as it gives a bench record's opt."""
    return {"kind": type(solution).__name__.lower(), **solution.to_dict(),
            "value": kind.weigh(solution, inst)}


def solve(problem: str, algorithm: str, inst: WeightedInstance, k: int | None, seed: int) -> dict:
    """One ordinal solution for ``inst`` as a payload: kind, its shape, n and value.

    The solution is one draw from the batched sampler that ``run_trials``
    uses, from ``RandomSource(seed).gen``, and the value comes from the
    same weight gather as a bench record's alg.
    """
    spec, engine = problem_spec(problem, algorithm, _typed(inst, WeightedInstance, "inst").n, k)
    gen = RandomSource(seed).gen
    solutions = _sample(spec, engine, derive_preferences(inst), k, 1, gen)
    return _payload(spec.kind, spec.kind.cls(inst.n, solutions[0].tolist()), inst)


def optimum(problem: str, inst: WeightedInstance, k: int | None) -> dict:
    """The exact optimum for ``inst`` as a payload, valued as a bench record's opt. Its inputs
    are checked as greedy's, which every row admits and which adds no rule of its own."""
    spec = problem_spec(problem, "greedy", _typed(inst, WeightedInstance, "inst").n, k)[0]
    return _payload(spec.kind, spec.oracle(inst, k), inst)


def run_trials(cfg: TrialConfig) -> dict:
    """Bench one configuration and judge it against its bound: a report document.

    Per trial: a fresh instance (seed = base + trial index), the exact
    optimum, and the algorithm's weight. Each trial draws from one
    ``numpy.random.Generator`` seeded by ``derived_seed(seed, trial)``.
    Randomized algorithms draw inner_samples solutions in blocks of
    SAMPLE_BLOCK through the batched samplers, each block taking the
    engine's draws before the tour starts; the trial passes when
    opt/mean <= bound + 3 * stderr(ratio). Deterministic algorithms pass
    when the worst ratio stays within bound + 1e-9.
    """
    row = PROBLEMS[_typed(cfg, TrialConfig, "cfg").problem]
    _cap(row.cap, cfg.n)  # before any instance is generated: one past the cap may not fit memory
    bound = cfg.effective_bound()
    randomized = cfg.randomized()
    draws = cfg.inner_samples if randomized else 1
    records = []
    for t in range(cfg.trials):
        spec = GeneratorSpec(cfg.family, cfg.n, dimension=cfg.dimension, seed=cfg.seed + t)
        inst = generate(spec)
        profile = derive_preferences(inst)
        opt = row.kind.weigh(row.oracle(inst, cfg.k), inst)
        gen = np.random.default_rng(RandomSource.derived_seed(cfg.seed, t))
        values = np.concatenate([row.kind.values(
            _sample(row, cfg.engine, profile, cfg.k, min(SAMPLE_BLOCK, draws - lo), gen),
            inst.weights) for lo in range(0, draws, SAMPLE_BLOCK)])
        alg = float(values.mean())
        ratio = opt / alg if alg > 0 else (1.0 if opt == 0 else math.inf)
        se_ratio = 0.0
        if randomized and alg > 0:
            se = float(values.std(ddof=1)) / math.sqrt(draws)
            se_ratio = opt * se / (alg * alg)
        records.append({"seed": spec.seed, "opt": opt, "alg": alg, "ratio": ratio,
                        "stderr": se_ratio, "passed": ratio <= bound + 3.0 * se_ratio + RATIO_TOL})
    ratios = [r["ratio"] for r in records]
    return {
        "schema": REPORT_SCHEMA,
        "config": cfg.to_dict(),
        "bound": bound,
        "records": records,
        "max_ratio": max(ratios),
        "mean_ratio": statistics.fmean(ratios),
        "std_error": statistics.stdev(ratios) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0,
        "verdict": all(r["passed"] for r in records),
    }


def _finite_or_null(obj):
    """Replace non-finite floats (an infinite ratio, say) with None, recursively."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(val) for val in obj]
    return obj


def report_emit(report: dict, fmt: str = "json") -> bytes:
    """Render a report document; json is strict (non-finite floats become null), csv is one row
    per record. ValueError unless it is a dict whose ``records`` lists dicts with those columns."""
    columns = ("seed", "opt", "alg", "ratio")
    records = _typed(report, dict, "report").get("records")
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and r.keys() >= {*columns} for r in records):
        raise ValueError(f"records must be a list of dicts with {', '.join(columns)}")
    rows = ([r[c] for c in columns] for r in records)
    return b"".join(render(fmt, _finite_or_null(report), ",".join(columns), rows))


# ---------------------------------------------------------------------------
# Lower-bound fixtures
# ---------------------------------------------------------------------------


# The package's record files, one per lower-bound fixture, each named by its file.
RECORDS = os.path.join(os.path.dirname(__file__), "records")


# A record's layout, as ``_read`` reads it: {key: shape} an object with just those keys,
# {str: shape} one keyed by name, [shape] a list, Fraction a string as ``str(Fraction)`` writes
# it and (Fraction, None) one that may be null (infinite).
_LAYOUT = {
    "ranking": [[int]], "k": int,
    "weightings": {str: {"rows": [[Fraction]], "metric": bool, "opt": Fraction}},
    "games": [{"name": str, "y": {str: Fraction},
               "mixtures": {str: {"x": [{"matching": [[int]], "p": Fraction}],
                                  "ratio": (Fraction, None)}},
               "floor": (Fraction, None), "bound": Fraction}],
}


def _read(x, shape, what: str):
    """``x``, as ``json`` parsed it, read by its ``_LAYOUT`` shape; ValueError names its path."""
    if isinstance(shape, list):
        return [_read(v, shape[0], f"{what}[{i}]") for i, v in enumerate(_typed(x, list, what))]
    if isinstance(shape, dict) and str in shape:
        return {s: _read(v, shape[str], f"{what}[{s!r}]") for s, v in _typed(x, dict, what).items()}
    if isinstance(shape, dict):
        if not isinstance(x, dict) or x.keys() != shape.keys():
            got = list(x) if isinstance(x, dict) else type(x).__name__
            raise ValueError(f"{what} must be an object with keys {', '.join(shape)}, got {got}")
        return {key: _read(x[key], s, f"{what}.{key}") for key, s in shape.items()}
    if shape is int:
        return _integer(x, what)
    if shape not in (Fraction, (Fraction, None)):
        return _typed(x, shape, what)
    if x is None and shape != Fraction:
        return None
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[1-9][0-9]*)?", x) and str(
            q := Fraction(x)) == x:
        return q
    raise ValueError(f"{what} must be a rational written as str(Fraction) writes it, got {x!r}")


def _keyed_once(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; ValueError for a repeated key, whose last
    value ``json`` would otherwise keep silently."""
    keys = [key for key, _ in pairs]
    if len(d := dict(pairs)) < len(keys):
        repeated = next(key for key in d if keys.count(key) > 1)
        raise ValueError(f"a record file repeats the key {repeated!r} in one object")
    return d


def load_record(path):
    """The JSON document in the file at ``path``; ValueError if an object in it repeats a key or
    it nests too deeply for ``json``."""
    with open(_typed(path, (str, os.PathLike), "path"), encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_keyed_once)
        except RecursionError:
            raise ValueError("a record file nests too deeply to read") from None


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


def check_record(doc) -> dict:
    """Verify the claims of ``doc``, a record's JSON document, exactly, as the module docstring
    lists them. ``doc`` is read by ``_LAYOUT`` and k by mkm's rule; ValueError names the path of
    the first field refused (``record.games[0].y['a']``). Returns ``{passed, checks: [{name,
    expected, actual, passed}]}``, values written by ``str`` (``5/3``), an infinite ratio null.
    """
    checks = []

    def check(name, expected, actual, passed=None):
        expected, actual = (None if v is None else str(v) for v in (expected, actual))
        ok = expected == actual if passed is None else passed
        checks.append({"name": name, "expected": expected, "actual": actual, "passed": ok})

    rec = _read(doc, _LAYOUT, "record")
    n, ranking = PreferenceProfile(rec["ranking"]).n, rec["ranking"]
    _check_mkm(n, k := rec["k"], None, "record")
    matchings = list(_k_matchings(tuple(range(n)), k))
    index, cols = {m: i for i, m in enumerate(matchings)}, range(len(matchings))
    value, opt = {}, {}
    for s, weighting in rec["weightings"].items():
        w = weighting["rows"]
        try:
            inst = WeightedInstance([[float(x) for x in row] for row in w])
        except OverflowError:
            raise ValueError(f"record.weightings[{s!r}].rows must each fit a float") from None
        if inst.n != n:
            raise ValueError(f"record.weightings[{s!r}].rows must have the profile's {n} nodes, "
                             f"got {inst.n}")
        value[s] = [sum((w[u][v] for u, v in m), Fraction(0)) for m in matchings]
        opt[s] = max(value[s])
        ties = all(w[q][a] >= w[q][b] for q, r in enumerate(ranking) for a, b in zip(r, r[1:]))
        check(f"{s} consistent with the profile", True, ties)
        triangles = all(w[u][v] <= w[u][z] + w[z][v] for u, v, z in product(range(n), repeat=3))
        check(f"{s} metric", weighting["metric"], triangles)
        check(f"{s} optimum over all {len(matchings)} {k}-matchings", weighting["opt"], opt[s])
        oracle = matching_weight(opt_matching(inst, k), inst)
        check(f"{s} float oracle optimum", opt[s], oracle, abs(oracle - float(opt[s])) <= 1e-12)

    for j, g in enumerate(rec["games"]):
        label, y = f"{g['name']}: " if g["name"] else "", g["y"]
        if not y.keys() <= value.keys():
            raise ValueError(f"record.games[{j}].y must name record weightings, got {list(y)}")
        det = (_worst({s: value[s][i] for s in y}, opt) for i in cols)
        check(f"{label}deterministic floor over all {len(matchings)} matchings", g["floor"],
              min(filter(None, det), default=None))
        ratios = []
        for name, mixture in g["mixtures"].items():
            x = {tuple(map(tuple, e["matching"])): e["p"] for e in mixture["x"]}
            if len(x) < len(mixture["x"]):  # a repeat would add its probability twice
                raise ValueError(f"record.games[{j}].mixtures[{name!r}].x must list each "
                                 "matching once")
            actual = "not a mixture of k-matchings"
            if x.keys() <= index.keys() and _is_distribution(x):
                expect = {s: sum(p * value[s][index[m]] for m, p in x.items()) for s in y}
                actual = _worst(expect, opt)
                ratios.append(actual)
            check(f"{label}{name} worst ratio", mixture["ratio"], actual)
        best = min(filter(None, ratios), default=None)
        claimed_best = min(filter(None, (m["ratio"] for m in g["mixtures"].values())),
                           default=None)
        expected = f"{g['bound']} exact" if g["bound"] == claimed_best else g["bound"]
        actual, ok = "y is not a distribution", False
        if _is_distribution(y):
            bound = 1 / max(sum(y[s] * value[s][i] / opt[s] for s in y) for i in cols)
            actual = f"{bound} exact" if bound == best else bound
            ok = str(actual) == str(expected) and (best is None or bound <= best)
        check(f"{label}lower bound L from y", expected, actual, ok)
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
