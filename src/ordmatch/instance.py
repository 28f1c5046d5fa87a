"""Weighted instances, preference profiles, and instance generators.

The package keeps a hard wall between two views of an instance:

* ``WeightedInstance`` carries the hidden symmetric weight matrix. Only
  generators, oracles, and evaluation helpers touch it.
* ``PreferenceProfile`` carries the per-node rankings induced by the
  weights. The approximation algorithms in :mod:`ordmatch.core` accept
  profiles only, so they cannot peek at cardinal information.

``derive_preferences`` is the single bridge from weights to rankings:
descending weight, ties broken by ascending node index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedInstanceError

GENERATOR_FAMILIES = (
    "euclidean-uniform",
    "random-metric-closure",
    "clustered-gaussian",
    "explicit",
)


def _as_weight_matrix(weights) -> np.ndarray:
    """Validate and normalize a raw weight matrix.

    Raises MalformedInstanceError for anything that is not a finite,
    symmetric, nonnegative square matrix with a zero diagonal.
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MalformedInstanceError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise MalformedInstanceError("instance needs at least 2 nodes")
    if not np.isfinite(w).all():
        raise MalformedInstanceError("weight matrix contains NaN or infinite entries")
    if (w < 0).any():
        raise MalformedInstanceError("weight matrix contains negative entries")
    if not np.array_equal(w, w.T):
        raise MalformedInstanceError("weight matrix is not symmetric")
    if np.diagonal(w).any():
        raise MalformedInstanceError("weight matrix diagonal must be zero")
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class WeightedInstance:
    """Hidden weights on the complete graph over nodes ``0..n-1``.

    ``metric`` records whether the matrix passed a triangle-inequality
    check at construction time; non-metric instances are first-class and
    the flag is plain data, not a promise enforced later.
    """

    weights: np.ndarray
    metric: bool = False
    points: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weight_matrix(self.weights))
        if self.points is not None:
            pts = np.array(self.points, dtype=float)
            if pts.ndim != 2 or pts.shape[0] != self.weights.shape[0]:
                raise MalformedInstanceError("points must be one row per node")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def weight(self, u: int, v: int) -> float:
        return float(self.weights[u, v])

    def total_weight(self) -> float:
        """Sum of weights over unordered node pairs."""
        return float(self.weights.sum()) / 2.0

    def to_dict(self) -> dict:
        d = {"n": self.n, "weights": self.weights.tolist(), "metric": bool(self.metric)}
        if self.points is not None:
            d["points"] = self.points.tolist()
        if self.meta:
            d["meta"] = dict(self.meta)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WeightedInstance":
        if not isinstance(d, dict):
            raise MalformedInstanceError(f"instance must be a JSON object, got {type(d).__name__}")
        if "weights" not in d:
            raise MalformedInstanceError("instance dict has no 'weights' field")
        meta = d.get("meta", {})
        if not isinstance(meta, dict):
            raise MalformedInstanceError(f"instance 'meta' must be an object, got {type(meta).__name__}")
        try:
            inst = cls(d["weights"], bool(d.get("metric", False)), d.get("points"), dict(meta))
            n = int(d.get("n", inst.n))
        except TypeError as exc:  # a field of the wrong JSON type, e.g. weights as an object
            raise MalformedInstanceError(f"instance field has the wrong type: {exc}") from None
        if n != inst.n:
            raise MalformedInstanceError(
                f"declared n={d['n']} does not match weight matrix of size {inst.n}"
            )
        return inst


def save_instance(inst: WeightedInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.to_dict(), fh, indent=2)
        fh.write("\n")


def load_instance(path: str) -> WeightedInstance:
    """Load an instance JSON file, re-validating the matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        return WeightedInstance.from_dict(json.load(fh))


def validate_metric(inst: WeightedInstance, tol: float = 0.0) -> bool:
    """Check w(x,y) <= w(x,z) + w(z,y) + tol over all ordered triples.

    tol=0 is the right setting for weights that come straight from point
    coordinates; closure-generated float matrices are validated at
    1e-9 * max(w) by their generator.
    """
    if tol < 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    w = inst.weights
    # one pivot z at a time keeps memory O(n^2); z in {x, y} cannot mask a violation
    return all(bool((w <= w[:, z : z + 1] + w[z : z + 1, :] + tol).all()) for z in range(inst.n))


def check_friendship(inst: WeightedInstance, alpha: float) -> bool:
    """Check w(i,k) >= alpha * (w(i,j) + w(j,k)) for all distinct triples.

    alpha must lie in [0, 1/2]; 1/2 is the largest value any instance with
    a positive weight can satisfy. alpha >= 1/3 forces the triangle
    inequality (see the friendship tests).
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 0.5], got {alpha}")
    w = inst.weights
    # one pivot j at a time keeps memory O(n^2); j in {i, k} gives w(i,k)
    # itself, harmless as alpha <= 1/2; the diagonal i == k is exempt
    diagonal = np.eye(inst.n, dtype=bool)
    two_hop = (w[:, j : j + 1] + w[j : j + 1, :] for j in range(inst.n))
    return all(bool(((w >= alpha * via) | diagonal).all()) for via in two_hop)


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """Per-node strict rankings over the other nodes.

    ``ranking[i]`` lists the other nodes in descending preference (read-only
    int32, (n, n-1)); ``rank[i, j]`` is j's position in i's list, n-1 for
    j == i. This is the only input the ordinal algorithms receive. Profiles
    compare equal when their rankings do; they are not hashable.
    """

    ranking: np.ndarray
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ranking = np.array(self.ranking, dtype=np.int32)
        n = len(ranking)
        if ranking.ndim != 2 or ranking.shape[1] != n - 1:
            raise ValueError(f"ranking must have n - 1 = {n - 1} entries in each of its {n} rows")
        # each row followed by its own node must be a permutation of 0..n-1
        full = np.column_stack([ranking, np.arange(n)])
        bad = (np.sort(full, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            raise ValueError(f"row {int(bad.argmax())} is not a permutation of the other {n - 1} nodes")
        rank = np.empty((n, n), dtype=np.int32)
        np.put_along_axis(rank, full, np.arange(n, dtype=np.int32)[None, :], axis=1)
        for name, table in (("ranking", ranking), ("rank", rank)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def __eq__(self, other) -> bool:
        return isinstance(other, PreferenceProfile) and np.array_equal(self.ranking, other.ranking)

    @property
    def n(self) -> int:
        return len(self.ranking)

    def position(self, i: int, j: int) -> int:
        """Rank of j in i's list; 0 is the most preferred."""
        if i == j or not 0 <= j < self.n:
            raise ValueError(f"node {j} is not in node {i}'s list")
        return int(self.rank[i, j])

    def prefers(self, i: int, j: int, k: int) -> bool:
        """True when i ranks j strictly above k."""
        return self.position(i, j) < self.position(i, k)

    def to_dict(self) -> dict:
        return {"n": self.n, "ranking": self.ranking.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "PreferenceProfile":
        return cls(d["ranking"])


def derive_preferences(inst: WeightedInstance) -> PreferenceProfile:
    """Rank every node's partners by descending weight, ties by index.

    One stable argsort of -w keeps ties in index order; the +inf diagonal
    sorts last and is dropped.
    """
    key = -inst.weights
    np.fill_diagonal(key, np.inf)
    return PreferenceProfile(np.argsort(key, axis=1, kind="stable")[:, :-1])


def profile_consistent(profile: PreferenceProfile, inst: WeightedInstance) -> bool:
    """True when the profile could have been induced by the weights.

    i ranking j above k requires w(i,j) >= w(i,k); ties may be ordered
    either way, which is why this accepts more profiles than
    ``derive_preferences`` emits.
    """
    if profile.n != inst.n:
        return False
    ranked = np.take_along_axis(inst.weights, profile.ranking, axis=1)
    return bool((ranked[:, :-1] >= ranked[:, 1:]).all())


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible recipe for a random instance.

    family: one of GENERATOR_FAMILIES. ``dimension`` and ``clusters``
    matter only for the geometric families; ``weights`` only for
    "explicit".
    """

    family: str
    n: int
    dimension: int = 2
    seed: int = 0
    clusters: int = 3
    weights: tuple | None = None

    def __post_init__(self):
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}, expected one of {GENERATOR_FAMILIES}"
            )
        if self.family != "explicit" and self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.family in ("euclidean-uniform", "clustered-gaussian") and self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if self.family == "clustered-gaussian" and self.clusters < 1:
            raise ValueError(f"clusters must be positive, got {self.clusters}")
        if self.family == "explicit" and self.weights is None:
            raise ValueError("explicit family needs a weight matrix")


def _euclidean_weights(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    w = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(w, 0.0)
    return w


def _min_plus_closure(w: np.ndarray) -> np.ndarray:
    """Shortest-path closure, iterated to a float fixpoint.

    A single Floyd-Warshall sweep can leave tiny float violations when a
    later relaxation lowers an entry an earlier check depended on, so
    sweep until nothing changes.
    """
    w = w.copy()
    while True:
        before = w.copy()
        for z in range(w.shape[0]):
            np.minimum(w, w[:, z : z + 1] + w[z : z + 1, :], out=w)
        if np.array_equal(before, w):
            return w


def generate(spec: GeneratorSpec) -> WeightedInstance:
    """Build the instance a spec describes. Same spec, same instance."""
    rng = np.random.default_rng(spec.seed)
    meta = {"family": spec.family, "seed": spec.seed}

    if spec.family == "euclidean-uniform":
        pts = rng.random((spec.n, spec.dimension))
        return WeightedInstance(_euclidean_weights(pts), metric=True, points=pts, meta=meta)

    if spec.family == "clustered-gaussian":
        centers = rng.random((spec.clusters, spec.dimension))
        assign = rng.integers(0, spec.clusters, size=spec.n)
        pts = centers[assign] + rng.normal(0.0, 0.08, size=(spec.n, spec.dimension))
        return WeightedInstance(_euclidean_weights(pts), metric=True, points=pts, meta=meta)

    if spec.family == "random-metric-closure":
        raw = rng.random((spec.n, spec.n))
        raw = np.triu(raw, 1)
        raw = raw + raw.T
        w = _min_plus_closure(raw)
        inst = WeightedInstance(w, metric=True, meta=meta)
        tol = 1e-9 * float(w.max()) if w.max() > 0 else 0.0
        if not validate_metric(inst, tol):
            raise AssertionError("closure generator produced a non-metric matrix")
        return inst

    # explicit: matrix taken as given, metric flag measured, seed unused
    w = _as_weight_matrix(spec.weights)
    probe = WeightedInstance(w, metric=False, meta=meta)
    return WeightedInstance(w, metric=validate_metric(probe, 0.0), meta=meta)
