"""Black-box reductions from matchings to the derived problems.

A matching computed ordinally can be repackaged as a clustering (max
k-sum), a node subset (densest k-subgraph), or a tour (max TSP). The
repackaging itself stays ordinal: the only extra information ever
consulted is the preference profile (for tour completion) and a random
source.
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


def matching_to_clusters(m: Matching, k: int) -> Clustering:
    """Chunk a matching into k equal clusters, matched pairs co-clustered.

    Requires k to divide n. With even cluster size c = n/k the matching
    must be perfect and consecutive runs of c/2 edges (ascending smallest
    endpoint) become clusters. With odd c the matching must have (n-k)/2
    edges; each cluster takes (c-1)/2 edges plus one of the k unmatched
    nodes, assigned round-robin in ascending order.
    """
    n = m.n
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n % k != 0:
        raise ValueError(f"k={k} must divide n={n}")
    c = n // k
    edges = m.sorted_edges()
    if c % 2 == 0:
        if len(edges) != n // 2:
            raise ValueError(
                f"even cluster size needs a perfect matching ({n // 2} edges), got {len(edges)}"
            )
        per = c // 2
        parts = [
            tuple(x for e in edges[i * per : (i + 1) * per] for x in e) for i in range(k)
        ]
        return Clustering(n, tuple(parts))
    want = (n - k) // 2
    if len(edges) != want:
        raise ValueError(f"odd cluster size needs a {want}-edge matching, got {len(edges)}")
    per = (c - 1) // 2
    leftovers = sorted(set(range(n)) - m.nodes())
    parts = []
    for i in range(k):
        chunk = [x for e in edges[i * per : (i + 1) * per] for x in e]
        chunk.append(leftovers[i])
        parts.append(tuple(chunk))
    return Clustering(n, tuple(parts))


def matching_to_subset(m: Matching, k: int | None = None) -> Subset:
    """Endpoints of a (k/2)-edge matching as a k-node subset."""
    if k is not None and k != 2 * len(m):
        raise ValueError(f"matching has {len(m)} edges, cannot produce a {k}-node subset")
    return Subset(m.n, tuple(sorted(m.nodes())))


def path_completion(
    m: Matching,
    profile: PreferenceProfile,
    rng: RandomSource,
    start: int | None = None,
) -> Path:
    """Stitch matching edges into a path, choosing connectors ordinally.

    A uniformly random matched node starts the path (pass ``start`` to
    pin it); the remaining edges join in ascending order of smallest
    endpoint, each connected to the preferred endpoint of the next edge.
    On metric weights each connector is worth at least half the edge it
    leads into, which is what the completion bound in the harness rests
    on.
    """
    if len(m) < 1:
        raise ValueError("path completion needs at least one matching edge")
    if m.n != profile.n:
        raise ValueError("matching and profile sizes differ")
    nodes = sorted(m.nodes())
    if start is None:
        start = nodes[rng.randrange(len(nodes))]
    elif start not in m.nodes():
        raise ValueError(f"start node {start} is not matched")
    by_node = {}
    for e in m.edges:
        by_node[e[0]] = e
        by_node[e[1]] = e
    first = by_node[start]
    order = [start, first[0] if first[1] == start else first[1]]
    for e in m.sorted_edges():
        if e == first:
            continue
        x = order[-1]
        y, z = e
        nearer = y if profile.prefers(x, y, z) else z
        order.append(nearer)
        order.append(z if nearer == y else y)
    return Path(m.n, tuple(order))


def matching_to_tour(m: Matching, profile: PreferenceProfile, rng: RandomSource) -> Tour:
    """Complete a perfect matching into a tour over all n nodes.

    For odd n the one unmatched node is spliced into the closing edge.
    n=2 is rejected: the only candidate tour would traverse the single
    edge twice.
    """
    n = m.n
    if n < 3:
        raise ValueError(f"a tour needs n >= 3, got n={n}")
    if len(m) != n // 2:
        raise ValueError(f"matching must be perfect ({n // 2} edges), got {len(m)}")
    p = path_completion(m, profile, rng)
    order = list(p.order)
    leftover = set(range(n)) - m.nodes()
    order.extend(sorted(leftover))
    return Tour(n, tuple(order))


# ---------------------------------------------------------------------------
# Batched reductions: the same repackaging for an (S, edges, 2) array of
# matchings, as drawn by ``core.random_k_matchings`` / ``hybrid_matchings``.
# ---------------------------------------------------------------------------


def _sorted_edges(matchings: np.ndarray) -> np.ndarray:
    """Each edge as (low, high), edges in ascending order of low endpoint."""
    edges = np.sort(matchings, axis=2)
    order = np.argsort(edges[:, :, 0], axis=1)
    return np.take_along_axis(edges, order[:, :, None], axis=1)


def matchings_to_clusters(matchings: np.ndarray, n: int, k: int) -> np.ndarray:
    """Row-wise ``matching_to_clusters``: an (S, k, n // k) array of parts."""
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
    """Row-wise ``matching_to_subset``: sorted endpoints, (S, 2 * edges)."""
    return np.sort(matchings.reshape(len(matchings), -1), axis=1)


def matchings_to_tours(
    matchings: np.ndarray, profile: PreferenceProfile, gen: np.random.Generator
) -> np.ndarray:
    """Row-wise ``matching_to_tour``: an (S, n) array of visiting orders.

    Each row draws its own uniform start among the matched nodes, then
    stitches the other edges in ascending order of smallest endpoint,
    entering each at the endpoint the previous node ranks higher.
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
    first = (edges == start[:, None, None]).any(axis=2).argmax(axis=1)
    slots = np.arange(m)
    order = np.argsort(np.where(slots == first[:, None], -1, slots), axis=1)
    edges = np.take_along_axis(edges, order[:, :, None], axis=1)

    tours = np.empty((draws, n), dtype=np.intp)
    tours[:, 0] = start
    tours[:, 1] = edges[:, 0].sum(axis=1) - start
    for j in range(1, m):
        x, y, z = tours[:, 2 * j - 1], edges[:, j, 0], edges[:, j, 1]
        y_first = profile.rank[x, y] < profile.rank[x, z]
        tours[:, 2 * j] = np.where(y_first, y, z)
        tours[:, 2 * j + 1] = np.where(y_first, z, y)
    if n % 2:
        # the one unmatched node closes the tour
        tours[:, -1] = n * (n - 1) // 2 - edges.sum(axis=(1, 2))
    return tours
