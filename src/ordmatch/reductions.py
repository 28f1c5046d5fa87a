"""Black-box reductions from matchings to the derived problems.

A matching computed ordinally can be repackaged as a clustering (max
k-sum), a node subset (densest k-subgraph), or a tour (max TSP). The
repackaging itself stays ordinal: the only extra information ever
consulted is the preference profile (for tour completion) and a random
source.

Each reduction has one engine, the batched form (``matchings_to_*``),
which repackages an (S, edges, 2) array of matchings as drawn by
``core.random_k_matchings`` / ``hybrid_matchings``. The scalar
``matching_to_*`` and ``path_completion`` are one-row calls of it; the
scalar tour and path completion references live in ``tests/_brute.py``.
Each objective has one weight gather (``*_values``) over such arrays,
and the scalar ``*_weight`` is one row of it, so the oracle's value of a
solution and an engine's value of the same row agree bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import Matching, RandomSource, _flat, _iterable, _one_row, _row, _row_sums, _solution_ids
from .instance import PreferenceProfile, WeightedInstance, _count, _integer, _inverse, _typed

__all__ = [
    "Clustering",
    "Path",
    "Subset",
    "Tour",
    "cluster_weight",
    "matching_to_clusters",
    "matching_to_subset",
    "matching_to_tour",
    "matchings_to_clusters",
    "matchings_to_subsets",
    "matchings_to_tours",
    "path_completion",
    "path_weight",
    "subset_weight",
    "tour_weight",
]


@dataclass(frozen=True)
class Clustering:
    """Partition of 0..n-1 into disjoint parts of equal size covering every node."""

    n: int
    parts: tuple

    def __post_init__(self):
        parts = [tuple(_iterable(p)) for p in _iterable(self.parts)]
        ids = _solution_ids(self, [x for p in parts for x in p])
        if len(ids) != self.n:
            raise ValueError("parts must partition the node set exactly")
        if len(set(map(len, parts))) > 1:
            raise ValueError(f"parts must have equal size, got sizes {[len(p) for p in parts]}")
        ids = iter(ids)
        object.__setattr__(self, "parts", tuple(tuple(sorted(islice(ids, len(p)))) for p in parts))

    def to_dict(self) -> dict:
        return {"parts": [list(p) for p in self.parts], "n": self.n}


@dataclass(frozen=True)
class Subset:
    n: int
    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(sorted(_solution_ids(self, self.nodes))))

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "n": self.n}


@dataclass(frozen=True)
class Path:
    """Open node sequence; may span a subset of the nodes."""

    n: int
    order: tuple

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(_solution_ids(self, self.order)))


@dataclass(frozen=True)
class Tour:
    """Cyclic visiting order over all n >= 3 nodes; the closing edge counts."""

    n: int
    order: tuple

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(_solution_ids(self, self.order)))
        if self.n < 3:
            raise ValueError(f"a tour needs n >= 3, got n={self.n}")
        if len(self.order) != self.n:
            raise ValueError("tour order must be a permutation of all nodes")

    def to_dict(self) -> dict:
        return {"order": list(self.order), "n": self.n}


@functools.cache
def _pairs(size: int) -> tuple:
    """``np.triu_indices(size, 1)``, read-only, kept for the process."""
    i, j = np.triu_indices(size, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def cluster_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weight of each clustering in an (S, parts, size) array, in one gather.

    A row sums pair (i, j) of every part, then the next pair (triu order).
    """
    i, j = _pairs(solutions.shape[2])
    by_pair = solutions.transpose(0, 2, 1)
    return _row_sums(w.ravel().take(by_pair.take(i, axis=1) * len(w) + by_pair.take(j, axis=1)))


def subset_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weight of each subset in an (S, nodes) array: a one-part clustering."""
    return cluster_values(solutions[:, None, :], w)


def path_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weight of each open path in an (S, length) array, in one gather."""
    return _row_sums(w.ravel().take(solutions[:, :-1] * len(w) + solutions[:, 1:]))


def tour_values(solutions: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weight of each tour in an (S, n) array: its path back to the start."""
    return path_values(np.concatenate([solutions, solutions[:, :1]], axis=1), w)


def cluster_weight(c: Clustering, inst: WeightedInstance) -> float:
    return _one_row(cluster_values, c, _typed(c, Clustering).parts, inst)


def subset_weight(s: Subset, inst: WeightedInstance) -> float:
    return _one_row(subset_values, s, _typed(s, Subset).nodes, inst)


def path_weight(p: Path, inst: WeightedInstance) -> float:
    return _one_row(path_values, p, _typed(p, Path).order, inst)


def tour_weight(t: Tour, inst: WeightedInstance) -> float:
    return _one_row(tour_values, t, _typed(t, Tour).order, inst)


def matching_to_clusters(m: Matching, k: int) -> Clustering:
    """One-row ``matchings_to_clusters``: k equal clusters, matched pairs together."""
    parts = matchings_to_clusters(_row(m), m.n, k)[0]
    return Clustering(m.n, tuple(map(tuple, parts.tolist())))


def matching_to_subset(m: Matching, k: int | None = None) -> Subset:
    """Endpoints of a (k/2)-edge matching as a k-node subset."""
    row = _row(m)
    if k is not None and _integer(k, "k") != 2 * len(m):
        raise ValueError(f"matching has {len(m)} edges, cannot produce a {k}-node subset")
    return Subset(m.n, tuple(matchings_to_subsets(row)[0].tolist()))


def path_completion(
    m: Matching,
    profile: PreferenceProfile,
    rng: RandomSource,
    start: int | None = None,
) -> Path:
    """Stitch matching edges into a path, choosing connectors ordinally.

    A uniformly random matched node starts the path, drawn as
    ``matchings_to_tours`` draws it (pass ``start`` to pin it); the
    remaining edges join in ascending order of smallest endpoint, each
    connected to the preferred endpoint of the next edge. On metric
    weights each connector is worth at least half the edge it leads into,
    which is what the completion bound in the harness rests on.
    """
    if (edges := _row(m)).size < 1:
        raise ValueError("path completion needs at least one matching edge")
    if m.n != _typed(profile, PreferenceProfile, "profile").n:
        raise ValueError("matching and profile sizes differ")
    if start is not None and (start := _integer(start, "start node")) not in m.nodes():
        raise ValueError(f"start node {start} is not matched")
    if start is None:  # a position among the matched nodes, ascending
        gen = _typed(rng, RandomSource, "rng").gen
        start = np.sort(edges, axis=None).take(gen.integers(0, 2 * len(m), size=1))
    return Path(m.n, tuple(_stitch(edges, np.reshape(start, 1), profile)[0].tolist()))


def matching_to_tour(m: Matching, profile: PreferenceProfile, rng: RandomSource) -> Tour:
    """One-row ``matchings_to_tours``: a perfect matching completed into a tour."""
    row = _row(m)
    if m.n != _typed(profile, PreferenceProfile, "profile").n:
        raise ValueError("matching and profile sizes differ")
    tours = matchings_to_tours(row, profile, _typed(rng, RandomSource, "rng").gen)
    return Tour(m.n, tuple(tours[0].tolist()))


def _sorted_edges(matchings: np.ndarray) -> np.ndarray:
    """Each edge as (low, high), edges in ascending order of low endpoint."""
    u, v = matchings[..., 0], matchings[..., 1]
    edges = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=2)
    return edges.reshape(-1, 2).take(_flat(np.argsort(edges[..., 0], axis=1)), axis=0)


def _parts(n: int, k) -> int:
    """k as a part count of n nodes, an integer: an int (``_count``), at least 1, dividing n."""
    if _integer(n, "n") % (k := _count(k, "k", 1)) != 0:
        raise ValueError(f"k={k} must divide n={n}")
    return k


def matchings_to_clusters(matchings: np.ndarray, n: int, k: int) -> np.ndarray:
    """Chunk each matching into k equal clusters: an (S, k, n // k) array of parts.

    k must divide n. With even cluster size c = n/k the matchings are
    perfect and each cluster is a run of c/2 edges (ascending smallest
    endpoint); with odd c they have (n-k)/2 edges and each cluster is a
    run of (c-1)/2 edges plus the next unmatched node, in ascending order.
    Each part is returned ascending, as ``Clustering`` stores it, so
    ``cluster_values`` sums a part in the order ``cluster_weight`` does.
    """
    draws, m, _ = _typed(matchings, np.ndarray, "matchings").shape
    c = n // (k := _parts(n, k))
    want = n // 2 if c % 2 == 0 else (n - k) // 2
    if m != want:
        raise ValueError(f"cluster size {c} needs a {want}-edge matching, got {m}")
    parts = _sorted_edges(matchings).reshape(draws, k, 2 * (c // 2))
    if c % 2:
        matched = np.zeros((draws, n), dtype=bool)
        matched[np.arange(draws)[:, None], parts.reshape(draws, k * (c - 1))] = True
        leftovers = np.nonzero(~matched)[1].reshape(draws, k, 1)
        parts = np.concatenate([parts, leftovers], axis=2)
    return np.sort(parts, axis=2)


def matchings_to_subsets(matchings: np.ndarray) -> np.ndarray:
    """The endpoints of each matching, sorted: an (S, 2 * edges) array."""
    draws, m, _ = _typed(matchings, np.ndarray, "matchings").shape
    return np.sort(matchings.reshape(draws, 2 * m), axis=1)


def _stitch(edges: np.ndarray, start: np.ndarray, profile: PreferenceProfile) -> np.ndarray:
    """(S, 2m) paths through (S, m, 2) sorted edges, row s starting at start[s]."""
    draws, m, _ = edges.shape
    first = (edges.reshape(draws, 2 * m) == start[:, None]).argmax(axis=1)[:, None] // 2
    rest = np.arange(m - 1)
    order = np.concatenate([first, rest + (rest >= first)], axis=1)  # the start's edge first
    edges = edges.reshape(-1, 2).take(_flat(order), axis=0)

    paths = np.empty((draws, 2 * m), dtype=np.intp)
    paths[:, 0] = start
    paths[:, 1] = edges[:, 0, 0] + edges[:, 0, 1] - start
    rank = _inverse(profile.ranking)
    for j in range(1, m):
        x, y, z = paths[:, 2 * j - 1], edges[:, j, 0], edges[:, j, 1]
        y_first = rank[x, y] < rank[x, z]
        paths[:, 2 * j] = np.where(y_first, y, z)
        paths[:, 2 * j + 1] = np.where(y_first, z, y)
    return paths


def matchings_to_tours(
    matchings: np.ndarray, profile: PreferenceProfile, gen: np.random.Generator
) -> np.ndarray:
    """Complete each perfect matching into a tour: an (S, n) array of visiting orders.

    Each row draws its own uniform start among the matched nodes, crosses
    the start's edge, then takes the other edges in ascending order of
    smallest endpoint, entering each at the endpoint the previous node
    ranks higher. For odd n the one unmatched node closes the tour.
    n=2 is rejected: the only candidate tour would traverse the single
    edge twice.
    """
    n = _typed(profile, PreferenceProfile, "profile").n
    gen = _typed(gen, np.random.Generator, "gen")
    draws, m, _ = _typed(matchings, np.ndarray, "matchings").shape
    if n < 3:
        raise ValueError(f"a tour needs n >= 3, got n={n}")
    if m != n // 2:
        raise ValueError(f"matching must be perfect ({n // 2} edges), got {m}")
    edges = _sorted_edges(matchings)
    start = gen.integers(0, 2 * m, size=draws)  # a position among the matched nodes, ascending
    if n % 2 == 0:  # every node is matched: position p holds node p
        return _stitch(edges, start, profile)
    leftover = n * (n - 1) // 2 - edges.sum(axis=(1, 2))
    tours = _stitch(edges, start + (start >= leftover), profile)  # the nodes skip the leftover
    return np.concatenate([tours, leftover[:, None]], axis=1)
