"""Ratio-verification harness: trials, reports, and lower-bound fixtures.

``run_trials`` generates instances, scores an ordinal algorithm against
the exact oracle, and renders a verdict against a claimed approximation
bound: deterministic algorithms by worst observed ratio, randomized ones
by per-instance Monte Carlo means with a three-standard-error allowance.
Both sides are weighed by one gather per objective (``core`` and
``reductions`` define them; ``SolutionKind`` pairs each with its scalar
one-row form), so a greedy that finds the optimum reads ratio 1.0.

The lower-bound fixtures are finite games, each a ``Record``: one
preference profile, k, named rational weightings consistent with it, and
``Game`` claims. In a game Nature picks one of its weightings and the
algorithm, seeing only the profile, picks a k-matching. ``check_record``
verifies every claim in ``Fraction`` arithmetic, with no LP solver: each
weighting's consistency, metric flag and optimum over all k-matchings (with
the float ``opt_matching`` within 1e-12); the deterministic floor
min_M max_s opt_s / w_s(M); each matching mixture x's worst ratio; and the
certificate of Nature's mixture y over the normalized weightings
w_s / opt_s, L = 1 / max_M sum_s y_s w_s(M) / opt_s. By weak duality no
mixture concedes less than L; L is "exact" when a claimed x meets it.

A record is data: a JSON file under ``RECORDS``, named by its file, that
``Record.to_dict`` writes and ``load_record`` reads by ``_LAYOUT``, every
rational a string as ``str(Fraction)`` writes it. ``bench/records.py``
derives the package's three records and writes their files; ``ordmatch
fixtures`` checks them, the smallest profile first.
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
from .oracle import opt_densest, opt_k_sum, opt_matching, opt_tsp
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
    "Game",
    "RatioReport",
    "Record",
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


def _field_dict(obj) -> dict:
    """A dataclass's fields in order, shallow: ``asdict`` deep-copies every leaf."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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
        bound=_alpha,
        kind=MATCHING,
    ),
    "mkm": ProblemSpec(
        engines=("greedy",),
        check=_check_mkm,
        size=lambda n, k: k,
        reduce=lambda m, profile, k, gen: m,
        oracle=lambda inst, k: opt_matching(inst, k),
        bound=lambda engine, n: 2.0,
        kind=MATCHING,
    ),
    "ksum": ProblemSpec(
        engines=("greedy", "hybrid"),
        check=_check_ksum,
        size=lambda n, k: n // 2 if (n // k) % 2 == 0 else (n - k) // 2,
        reduce=lambda m, profile, k, gen: matchings_to_clusters(m, profile.n, k),
        oracle=lambda inst, k: opt_k_sum(inst, k),
        bound=lambda engine, n: 2.0 * _alpha(engine, n),
        kind=CLUSTERING,
    ),
    "densest": ProblemSpec(
        engines=("greedy", "random"),
        check=_check_densest,
        size=lambda n, k: k // 2,
        reduce=lambda m, profile, k, gen: matchings_to_subsets(m),
        oracle=lambda inst, k: opt_densest(inst, k),
        bound=lambda engine, n: 4.0,
        kind=SUBSET,
    ),
    "tsp": ProblemSpec(
        engines=("greedy", "hybrid"),
        check=_check_tsp,
        size=lambda n, k: n // 2,
        reduce=lambda m, profile, k, gen: matchings_to_tours(m, profile, gen),
        oracle=lambda inst, k: opt_tsp(inst),
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


def run_trials(cfg: TrialConfig) -> RatioReport:
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
    row = PROBLEMS[_typed(cfg, TrialConfig, "cfg").problem]
    engine = cfg.engine
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


def report_emit(report: RatioReport, fmt: str = "json") -> bytes:
    """Render a report; json is strict (non-finite floats become null), csv is one row per record.
    ValueError unless ``records`` is a list of dicts, each holding the four csv columns."""
    columns = ("seed", "opt", "alg", "ratio")
    records = _typed(report, RatioReport, "report").records
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and r.keys() >= {*columns} for r in records):
        raise ValueError(f"records must be a list of dicts with {', '.join(columns)}")
    rows = ([r[c] for c in columns] for r in records)
    return b"".join(render(fmt, _finite_or_null(report.to_dict()), ",".join(columns), rows))


# ---------------------------------------------------------------------------
# Lower-bound fixtures
# ---------------------------------------------------------------------------


# The package's record files, one per lower-bound fixture, each named by its file.
RECORDS = os.path.join(os.path.dirname(__file__), "records")


def _text(q) -> str | None:
    """A rational as ``str`` writes its ``Fraction`` ("5/3"), None (infinite) as null."""
    return None if q is None else str(Fraction(q))


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

    def to_dict(self) -> dict:
        mixtures = {label: {"x": [{"matching": [list(e) for e in m], "p": _text(p)}
                                  for m, p in x.items()], "ratio": _text(ratio)}
                    for label, (x, ratio) in self.mixtures.items()}
        return {"name": self.name, "y": {s: _text(p) for s, p in self.y.items()},
                "mixtures": mixtures, "floor": _text(self.floor), "bound": _text(self.bound)}


@dataclass(frozen=True)
class Record:
    """A profile, k, and weightings: name -> (rows, claimed metric flag, claimed optimum)."""

    name: str
    profile: PreferenceProfile
    k: int
    weightings: dict
    games: tuple

    def to_dict(self) -> dict:
        """The layout of a record file, which ``load_record`` reads; the name is the file's."""
        weightings = {s: {"rows": [list(map(_text, row)) for row in rows], "metric": metric,
                          "opt": _text(opt)} for s, (rows, metric, opt) in self.weightings.items()}
        return {"ranking": self.profile.ranking.tolist(), "k": self.k, "weightings": weightings,
                "games": [g.to_dict() for g in self.games]}


def _record_k(k, n: int) -> int:
    """A record's k: an integer in 1..n//2, as mkm reads it, so a k-matching exists."""
    _check_mkm(n, k := _integer(k, "k"), None, "record")
    return k


# A record file's layout, as ``_read`` reads it: {key: shape} an object with just those keys,
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


def load_record(path) -> Record:
    """The record in the JSON file at ``path``, named by the file; ValueError for a file not in
    ``_LAYOUT`` (a float, "10/6", a missing or extra key), or for k, y or mixtures by the rules
    ``check_record`` reads them by."""
    with open(_typed(path, (str, os.PathLike), "path"), encoding="utf-8") as fh:
        d = _read(json.load(fh), _LAYOUT, "record")
    profile = PreferenceProfile(d["ranking"])
    games = tuple(Game(g["name"], g["y"], {
        label: ({tuple(map(tuple, e["matching"])): e["p"] for e in m["x"]}, m["ratio"])
        for label, m in g["mixtures"].items()}, g["floor"], g["bound"]) for g in d["games"])
    return Record(os.path.splitext(os.path.basename(path))[0], profile,
                  _record_k(d["k"], profile.n),
                  {s: (w["rows"], w["metric"], w["opt"]) for s, w in d["weightings"].items()}, games)


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


def _rational(x, what: str):
    """x itself, a ``Fraction`` or a Python int (not a bool or a float); ValueError naming
    ``what``, a field of a ``Record`` as ``check_record`` first reads it."""
    if type(x) is bool or not isinstance(x, (Fraction, int)):
        raise ValueError(f"{what} must be a Fraction or an int, got {x!r}")
    return x


def _fields(x, names: str, what: str) -> tuple:
    """x, a tuple or list of one item per name in ``names`` ("x, ratio"); ValueError naming
    ``what``."""
    if len(x := _typed(x, (tuple, list), what)) != len(names.split(", ")):
        raise ValueError(f"{what} must be ({names}), got {len(x)} items")
    return tuple(x)


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

    profile = _typed(_typed(rec, Record, "rec").profile, PreferenceProfile, "profile")
    n, ranking = profile.n, profile.ranking.tolist()
    k = _record_k(rec.k, n)
    matchings = list(_k_matchings(tuple(range(n)), k))
    index, cols = {m: i for i, m in enumerate(matchings)}, range(len(matchings))
    value, opt = {}, {}
    for s, triple in _typed(rec.weightings, dict, "weightings").items():
        at = f"rec.weightings[{s!r}]"
        rows, metric, claimed_opt = _fields(triple, "rows, metric, opt", at)
        rows = _typed(rows, (list, tuple), f"{at}.rows")
        w = [[_rational(x, f"{at}.rows[{u}][{v}]") for v, x in enumerate(
            _typed(row, (list, tuple), f"{at}.rows[{u}]"))] for u, row in enumerate(rows)]
        if (inst := WeightedInstance([[float(x) for x in row] for row in w])).n != n:
            raise ValueError(f"weighting {s} must have the profile's {n} nodes, got {inst.n}")
        value[s] = [sum((w[u][v] for u, v in m), Fraction(0)) for m in matchings]
        opt[s] = max(value[s])
        ties = all(w[q][a] >= w[q][b] for q, r in enumerate(ranking) for a, b in zip(r, r[1:]))
        check(f"{s} consistent with the profile", True, ties)
        triangles = all(w[u][v] <= w[u][z] + w[z][v] for u, v, z in product(range(n), repeat=3))
        check(f"{s} metric", _typed(metric, bool, f"{at}.metric"), triangles)
        check(f"{s} optimum over all {len(matchings)} {k}-matchings",
              _rational(claimed_opt, f"{at}.opt"), opt[s])
        oracle = matching_weight(opt_matching(inst, k), inst)
        check(f"{s} float oracle optimum", opt[s], oracle, abs(oracle - float(opt[s])) <= 1e-12)

    for j, g in enumerate(_typed(rec.games, (tuple, list), "games")):
        label, at = f"{g.name}: " if _typed(g, Game, "game").name else "", f"rec.games[{j}]"
        if not _typed(g.y, dict, "y").keys() <= value.keys():
            raise ValueError(f"{label}y must name weightings of the record, got {list(g.y)}")
        y = {s: _rational(p, f"{at}.y[{s!r}]") for s, p in g.y.items()}
        det = (_worst({s: value[s][i] for s in y}, opt) for i in cols)
        check(f"{label}deterministic floor over all {len(matchings)} matchings", g.floor,
              min(filter(None, det), default=None))
        ratios, claims = [], []
        for name, pair in _typed(g.mixtures, dict, "mixtures").items():
            x, claimed = _fields(pair, "x, ratio", f"{at}.mixtures[{name!r}]")
            x = {m: _rational(p, f"{at}.mixtures[{name!r}].x[{m!r}]")
                 for m, p in _typed(x, dict, f"{at}.mixtures[{name!r}].x").items()}
            if claimed is not None:
                claims.append(_rational(claimed, f"{at}.mixtures[{name!r}].ratio"))
            actual = "not a mixture of k-matchings"
            if x.keys() <= index.keys() and _is_distribution(x):
                expect = {s: sum(p * value[s][index[m]] for m, p in x.items()) for s in y}
                actual = _worst(expect, opt)
                ratios.append(actual)
            check(f"{label}{name} worst ratio", claimed, actual)
        best = min(filter(None, ratios), default=None)
        claimed_best = min(filter(None, claims), default=None)
        expected = f"{g.bound} exact" if g.bound == claimed_best else g.bound
        actual, ok = "y is not a distribution", False
        if _is_distribution(y):
            bound = 1 / max(sum(y[s] * value[s][i] / opt[s] for s in y) for i in cols)
            actual = f"{bound} exact" if bound == best else bound
            ok = str(actual) == str(expected) and (best is None or bound <= best)
        check(f"{label}lower bound L from y", expected, actual, ok)
    return {"name": rec.name, "passed": all(c["passed"] for c in checks), "checks": checks}
