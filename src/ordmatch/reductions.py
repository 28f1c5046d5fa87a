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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matching, RandomSource
from .instance import PreferenceProfile, WeightedInstance


@dataclass(frozen=True)
class Clustering:
    """Partition of 0..n-1 into disjoint parts covering every node."""

    n: int
    parts: tuple

    def __post_init__(self):
        parts = tuple(tuple(sorted(int(x) for x in p)) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        flat = [x for p in parts for x in p]
        if sorted(flat) != list(range(self.n)):
            raise ValueError("parts must partition the node set exactly")

    def to_dict(self) -> dict:
        return {"n": self.n, "parts": [list(p) for p in self.parts]}

    @classmethod
    def from_dict(cls, d: dict) -> "Clustering":
        return cls(int(d["n"]), tuple(tuple(p) for p in d["parts"]))


@dataclass(frozen=True)
class Subset:
    n: int
    nodes: tuple

    def __post_init__(self):
        nodes = tuple(sorted(int(x) for x in self.nodes))
        object.__setattr__(self, "nodes", nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("subset nodes must be distinct")
        if nodes and not (0 <= nodes[0] and nodes[-1] < self.n):
            raise ValueError(f"subset nodes out of range for n={self.n}")

    def to_dict(self) -> dict:
        return {"n": self.n, "nodes": list(self.nodes)}

    @classmethod
    def from_dict(cls, d: dict) -> "Subset":
        return cls(int(d["n"]), tuple(d["nodes"]))


@dataclass(frozen=True)
class Path:
    """Open node sequence; may span a subset of the nodes."""

    n: int
    order: tuple

    def __post_init__(self):
        order = tuple(int(x) for x in self.order)
        object.__setattr__(self, "order", order)
        if len(set(order)) != len(order):
            raise ValueError("path revisits a node")
        if order and not (0 <= min(order) and max(order) < self.n):
            raise ValueError(f"path nodes out of range for n={self.n}")


@dataclass(frozen=True)
class Tour:
    """Cyclic visiting order over all n nodes; the closing edge counts."""

    n: int
    order: tuple

    def __post_init__(self):
        order = tuple(int(x) for x in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(self.n)):
            raise ValueError("tour order must be a permutation of all nodes")

    def to_dict(self) -> dict:
        return {"n": self.n, "order": list(self.order)}

    @classmethod
    def from_dict(cls, d: dict) -> "Tour":
        return cls(int(d["n"]), tuple(d["order"]))


def cluster_weight(c: Clustering, inst: WeightedInstance) -> float:
    if c.n != inst.n:
        raise ValueError("clustering and instance sizes differ")
    w = inst.weights
    total = 0.0
    for part in c.parts:
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                total += w[part[i], part[j]]
    return float(total)


def subset_weight(s: Subset, inst: WeightedInstance) -> float:
    if s.n != inst.n:
        raise ValueError("subset and instance sizes differ")
    w = inst.weights
    nodes = s.nodes
    total = 0.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            total += w[nodes[i], nodes[j]]
    return float(total)


def path_weight(p: Path, inst: WeightedInstance) -> float:
    if p.n != inst.n:
        raise ValueError("path and instance sizes differ")
    w = inst.weights
    return float(sum(w[a, b] for a, b in zip(p.order, p.order[1:])))


def tour_weight(t: Tour, inst: WeightedInstance) -> float:
    if t.n != inst.n:
        raise ValueError("tour and instance sizes differ")
    w = inst.weights
    total = sum(w[a, b] for a, b in zip(t.order, t.order[1:]))
    total += w[t.order[-1], t.order[0]]
    return float(total)


def _row(m: Matching) -> np.ndarray:
    """``m`` as a one-row batch: a (1, edges, 2) array of sorted edges."""
    return np.array(m.sorted_edges(), dtype=np.intp).reshape(1, len(m), 2)


def matching_to_clusters(m: Matching, k: int) -> Clustering:
    """One-row ``matchings_to_clusters``: k equal clusters, matched pairs together."""
    parts = matchings_to_clusters(_row(m), m.n, k)[0]
    return Clustering(m.n, tuple(map(tuple, parts.tolist())))


def matching_to_subset(m: Matching, k: int | None = None) -> Subset:
    """Endpoints of a (k/2)-edge matching as a k-node subset."""
    if k is not None and k != 2 * len(m):
        raise ValueError(f"matching has {len(m)} edges, cannot produce a {k}-node subset")
    return Subset(m.n, tuple(matchings_to_subsets(_row(m))[0].tolist()))


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
    if len(m) < 1:
        raise ValueError("path completion needs at least one matching edge")
    if m.n != profile.n:
        raise ValueError("matching and profile sizes differ")
    if start is not None and start not in m.nodes():
        raise ValueError(f"start node {start} is not matched")
    edges = _row(m)
    if start is None:
        start = np.sort(edges.ravel())[rng.gen.integers(0, 2 * len(m), size=1)]
    return Path(m.n, tuple(_stitch(edges, np.reshape(start, 1), profile)[0].tolist()))


def matching_to_tour(m: Matching, profile: PreferenceProfile, rng: RandomSource) -> Tour:
    """One-row ``matchings_to_tours``: a perfect matching completed into a tour."""
    if m.n != profile.n:
        raise ValueError("matching and profile sizes differ")
    return Tour(m.n, tuple(matchings_to_tours(_row(m), profile, rng.gen)[0].tolist()))


def _sorted_edges(matchings: np.ndarray) -> np.ndarray:
    """Each edge as (low, high), edges in ascending order of low endpoint."""
    edges = np.sort(matchings, axis=2)
    order = np.argsort(edges[:, :, 0], axis=1)
    return np.take_along_axis(edges, order[:, :, None], axis=1)


def matchings_to_clusters(matchings: np.ndarray, n: int, k: int) -> np.ndarray:
    """Chunk each matching into k equal clusters: an (S, k, n // k) array of parts.

    k must divide n. With even cluster size c = n/k the matchings are
    perfect and each cluster is a run of c/2 edges (ascending smallest
    endpoint); with odd c they have (n-k)/2 edges and each cluster is a
    run of (c-1)/2 edges plus the next unmatched node, in ascending order.
    """
    draws, m, _ = matchings.shape
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n % k != 0:
        raise ValueError(f"k={k} must divide n={n}")
    c = n // k
    want = n // 2 if c % 2 == 0 else (n - k) // 2
    if m != want:
        raise ValueError(f"cluster size {c} needs a {want}-edge matching, got {m}")
    edges = _sorted_edges(matchings).reshape(draws, k, 2 * (c // 2))
    if c % 2 == 0:
        return edges
    matched = np.zeros((draws, n), dtype=bool)
    matched[np.arange(draws)[:, None], edges.reshape(draws, -1)] = True
    leftovers = np.nonzero(~matched)[1].reshape(draws, k, 1)
    return np.concatenate([edges, leftovers], axis=2)


def matchings_to_subsets(matchings: np.ndarray) -> np.ndarray:
    """The endpoints of each matching, sorted: an (S, 2 * edges) array."""
    return np.sort(matchings.reshape(len(matchings), -1), axis=1)


def _stitch(edges: np.ndarray, start: np.ndarray, profile: PreferenceProfile) -> np.ndarray:
    """(S, 2m) paths through (S, m, 2) sorted edges, row s starting at start[s]."""
    draws, m, _ = edges.shape
    first = (edges == start[:, None, None]).any(axis=2).argmax(axis=1)
    slots = np.arange(m)
    order = np.argsort(np.where(slots == first[:, None], -1, slots), axis=1)
    edges = np.take_along_axis(edges, order[:, :, None], axis=1)

    paths = np.empty((draws, 2 * m), dtype=np.intp)
    paths[:, 0] = start
    paths[:, 1] = edges[:, 0].sum(axis=1) - start
    for j in range(1, m):
        x, y, z = paths[:, 2 * j - 1], edges[:, j, 0], edges[:, j, 1]
        y_first = profile.rank[x, y] < profile.rank[x, z]
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
    n = profile.n
    draws, m, _ = matchings.shape
    if n < 3:
        raise ValueError(f"a tour needs n >= 3, got n={n}")
    if m != n // 2:
        raise ValueError(f"matching must be perfect ({n // 2} edges), got {m}")
    edges = _sorted_edges(matchings)
    nodes = np.sort(edges.reshape(draws, -1), axis=1)
    start = nodes[np.arange(draws), gen.integers(0, 2 * m, size=draws)]
    tours = _stitch(edges, start, profile)
    if n % 2 == 0:
        return tours
    leftover = n * (n - 1) // 2 - edges.sum(axis=(1, 2))
    return np.concatenate([tours, leftover[:, None]], axis=1)
