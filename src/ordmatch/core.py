"""Preference-only matching algorithms and their supporting types.

Every algorithm here sees a :class:`~ordmatch.instance.PreferenceProfile`
(or an :class:`EdgePool` built from node ids) plus, for the randomized
ones, a seeded :class:`RandomSource`. None of them accept weights; weights
exist only on the evaluation side (``matching_weight``,
``expected_random_weight``).

Each randomized algorithm has one engine, the batched sampler
(``random_k_matchings``, ``hybrid_matchings``), which draws many
matchings at once from a ``numpy.random.Generator``. The scalar
``random_k_matching`` and ``hybrid_matching`` are one draw of it from
``RandomSource.gen``. The independent scalar references that the
samplers' distributions are tested against live in ``tests/_brute.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import EmptyPoolError
from .instance import PreferenceProfile, WeightedInstance


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise-disjoint unordered edges over nodes 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset(_normalize_edge(int(u), int(v)) for u, v in self.edges)
        )
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u in seen or v in seen:
                raise ValueError(f"edge ({u},{v}) reuses a matched node")
            seen.add(u)
            seen.add(v)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Matching":
        return cls(n, frozenset(tuple(p) for p in pairs))

    def __len__(self) -> int:
        return len(self.edges)

    def nodes(self) -> frozenset:
        return frozenset(x for e in self.edges for x in e)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges in ascending order of smallest endpoint."""
        return sorted(self.edges)

    def is_perfect(self) -> bool:
        return len(self.edges) == self.n // 2

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @classmethod
    def from_dict(cls, d: dict) -> "Matching":
        return cls.from_pairs(int(d["n"]), d["edges"])


def matching_weight(m: Matching, inst: WeightedInstance) -> float:
    if m.n != inst.n:
        raise ValueError(f"matching over {m.n} nodes scored against instance of size {inst.n}")
    return float(sum(inst.weights[u, v] for u, v in m.edges))


class RandomSource:
    """Seeded randomness for the one-draw library calls.

    ``gen`` is the ``numpy.random.Generator`` seeded by
    ``derived_seed(seed)``, the one ``harness.solve`` draws from, so library
    calls that share one RandomSource reproduce ``ordmatch solve --seed``
    draw for draw. ``derived_seed`` mixes structured parts (base seed,
    trial index) into one stream-safe integer.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.default_rng(self.derived_seed(self.seed))

    @staticmethod
    def derived_seed(*parts: int) -> int:
        entropy = [int(p) % (1 << 64) for p in parts]
        return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


class EdgePool:
    """Mutable set of active edges: complete on one node set, or bipartite.

    Edges are implicit (every active pair, or every cross pair), so
    removing a matched pair automatically retires every edge touching it.
    ``n`` is the size of the ambient node universe, used when results are
    packaged into a :class:`Matching`.

    Nodes only ever leave a pool, so ``top_choice`` keeps a forward-only
    cursor per node into its row of the last profile it was asked about.
    """

    def __init__(self, side_a, side_b=None, n: int | None = None):
        a = sorted(int(x) for x in side_a)
        b = sorted(int(x) for x in side_b) if side_b is not None else None
        ids = a + (b or [])
        if len(set(ids)) != len(ids):
            raise ValueError("pool sides must be disjoint sets of distinct nodes")
        if ids and min(ids) < 0:
            raise ValueError("node ids must be nonnegative")
        self.n = int(n) if n is not None else (max(ids) + 1 if ids else 0)
        if ids and max(ids) >= self.n:
            raise ValueError(f"node id {max(ids)} out of range for n={self.n}")
        self._a = a
        self._b = b
        self._aset = set(a)
        self._bset = set(b) if b is not None else None
        self._profile, self._rows, self._cursor = None, None, {}

    @classmethod
    def complete(cls, nodes, n: int | None = None) -> "EdgePool":
        return cls(nodes, None, n)

    @classmethod
    def bipartite(cls, side_a, side_b, n: int | None = None) -> "EdgePool":
        return cls(side_a, side_b, n)

    @property
    def bipartite_mode(self) -> bool:
        return self._b is not None

    def active_nodes(self) -> list[int]:
        if self._b is None:
            return list(self._a)
        return sorted(self._a + self._b)

    def is_empty(self) -> bool:
        if self._b is None:
            return len(self._a) < 2
        return not self._a or not self._b

    def edge_count(self) -> int:
        if self._b is None:
            m = len(self._a)
            return m * (m - 1) // 2
        return len(self._a) * len(self._b)

    def edges(self) -> list[tuple[int, int]]:
        """All active edges, sorted; enumeration only, not the hot path."""
        if self._b is None:
            return [
                (self._a[i], self._a[j])
                for i in range(len(self._a))
                for j in range(i + 1, len(self._a))
            ]
        return sorted(_normalize_edge(x, y) for x in self._a for y in self._b)

    def _partners(self, x: int):
        if self._b is None:
            if x not in self._aset:
                raise ValueError(f"node {x} is not active")
            return self._aset
        if x in self._aset:
            return self._bset
        if x in self._bset:
            return self._aset
        raise ValueError(f"node {x} is not active")

    def top_choice(self, x: int, profile: PreferenceProfile) -> int:
        """x's most preferred partner among the active edges at x."""
        partners = self._partners(x)
        if profile is not self._profile:
            # a flat memoryview reads single entries as Python ints, fast
            self._profile, self._rows, self._cursor = profile, memoryview(profile.ranking.ravel()), {}
        rows, width = self._rows, len(profile.ranking) - 1
        c, end = self._cursor.get(x, x * width), (x + 1) * width
        while c < end and rows[c] not in partners:
            c += 1
        self._cursor[x] = c
        if c == end:
            raise EmptyPoolError(f"node {x} has no active partner")
        return rows[c]

    def lowest_active(self) -> int:
        firsts = self._a[:1] + (self._b or [])[:1]
        if not firsts:
            raise EmptyPoolError("pool has no active nodes")
        return min(firsts)

    def remove_pair(self, u: int, v: int) -> None:
        """Retire a matched pair and every edge incident to it."""
        if u == v:
            raise ValueError("matched pair must be two distinct nodes")
        for x in (u, v):
            side, members = (self._a, self._aset) if x in self._aset else (self._b, self._bset)
            if members is None or x not in members:
                raise ValueError(f"node {x} is not active")
            members.remove(x)
            del side[bisect_left(side, x)]


def find_undominated(pool: EdgePool, profile: PreferenceProfile) -> tuple[int, int]:
    """Locate an undominated active edge using rankings only.

    Starting from the lowest-indexed active node, repeatedly hop to the
    current node's top active choice. The walk must eventually revisit a
    node; the edge that closes that cycle is undominated: along the walk
    each hop's weight is at least the previous hop's (under any weights
    consistent with the profile), so the cycle's edges all tie at the
    cycle maximum and the closing edge beats every edge incident to
    either endpoint.
    """
    if pool.is_empty():
        raise EmptyPoolError("no active edges")
    x = pool.lowest_active()
    seen = {x}
    while True:
        y = pool.top_choice(x, profile)
        if y in seen:
            return _normalize_edge(x, y)
        seen.add(y)
        x = y


def greedy_k_matching(profile: PreferenceProfile, k: int) -> Matching:
    """Pick k undominated edges, retiring both endpoints after each pick.

    Deterministic. If k exceeds what the pool can supply the result is the
    maximal matching found (no error), so the edge list for k is always a
    prefix of the edge list for any larger k.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    pool = EdgePool.complete(range(profile.n), profile.n)
    picked = []
    while len(picked) < k and not pool.is_empty():
        u, v = find_undominated(pool, profile)
        picked.append((u, v))
        pool.remove_pair(u, v)
    return Matching.from_pairs(profile.n, picked)


def random_k_matching(pool: EdgePool, k: int, rng: RandomSource) -> Matching:
    """One draw of ``random_k_matchings``: up to k uniformly random active edges.

    The pool is read, not consumed. An exhausted pool yields the empty
    matching, mirroring the k-beyond-capacity behaviour of the greedy.
    """
    return Matching.from_pairs(pool.n, random_k_matchings(pool, k, 1, rng.gen)[0].tolist())


def hybrid_matching(profile: PreferenceProfile, rng: RandomSource) -> Matching:
    """One draw of ``hybrid_matchings``: the 1.6-approximate matching in expectation."""
    return Matching.from_pairs(profile.n, hybrid_matchings(profile, 1, rng.gen)[0].tolist())


def _row_permutations(items, draws: int, gen: np.random.Generator) -> np.ndarray:
    """``draws`` independent uniform shuffles of ``items``, one per row."""
    return gen.permuted(np.tile(np.asarray(items, dtype=np.intp), (draws, 1)), axis=1)


def random_k_matchings(pool: EdgePool, k: int, draws: int, gen: np.random.Generator) -> np.ndarray:
    """``draws`` uniform random matchings of up to k active edges, as one array.

    Returns an (draws, edges, 2) int array; the pool is read, not
    consumed, and k beyond its capacity is capped. Drawing uniform active
    edges until k edges (or exhaustion) gives the same distribution as
    pairing off the first 2k entries of a uniform shuffle of the nodes
    (complete mode), or the first k entries of independent shuffles of the
    two sides (bipartite mode).
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if pool.bipartite_mode:
        k = min(k, len(pool._a), len(pool._b))
        side_a = _row_permutations(pool._a, draws, gen)[:, :k]
        side_b = _row_permutations(pool._b, draws, gen)[:, :k]
        return np.stack([side_a, side_b], axis=2)
    k = min(k, len(pool._a) // 2)
    return _row_permutations(pool._a, draws, gen)[:, : 2 * k].reshape(draws, k, 2)


def hybrid_matchings(profile: PreferenceProfile, draws: int, gen: np.random.Generator) -> np.ndarray:
    """``draws`` hybrid matchings: a greedy prefix plus a coin-picked random completion.

    Returns an (draws, n // 2, 2) int array; when n is odd one node stays
    unmatched. M0, the greedy matching with ceil(n/3) edges, is
    deterministic and computed once; every draw flips its own fair coin.
    Branch A pairs off a uniform shuffle of the untouched set B. Branch B
    releases floor(|B|/2) uniformly chosen M0 edges and matches the
    released endpoints, in order, to that same shuffle of B, which is a
    uniform injection of the released nodes into B.

    Draw order is pinned for replay: all coins, then the shuffles of B,
    then the shuffles of the M0 edge indices.
    """
    n = profile.n
    if n < 2:
        raise ValueError(f"hybrid matching needs n >= 2, got {n}")
    m0 = np.array(greedy_k_matching(profile, math.ceil(n / 3)).sorted_edges(), dtype=np.intp)
    untouched = sorted(set(range(n)) - set(m0.flat))
    g, h = len(m0), len(untouched) // 2
    keep = gen.random(draws) < 0.5
    fill = _row_permutations(untouched, draws, gen)[:, : 2 * h]
    released = _row_permutations(range(g), draws, gen)[:, :h]

    branch_a = np.empty((draws, g + h, 2), dtype=np.intp)
    branch_a[:, :g] = m0
    branch_a[:, g:] = fill.reshape(draws, h, 2)
    # Branch B: released edge (a, b) becomes (a, fill[2j]) plus (b, fill[2j+1]).
    branch_b = branch_a.copy()
    branch_b[np.arange(draws)[:, None], released, 1] = fill[:, 0::2]
    branch_b[:, g:, 0] = m0[released, 1]
    branch_b[:, g:, 1] = fill[:, 1::2]
    return np.where(keep[:, None, None], branch_a, branch_b)


def greedy_ratio_bound(alpha: float, alpha_star: float) -> float:
    """Worst-case OPT(k*)/Greedy(k) on metric instances.

    alpha = 2k/n and alpha_star = 2k*/n are the fractions of a perfect
    matching the greedy picked and the optimum is allowed, both in (0, 1].
    """
    for name, value in (("alpha", alpha), ("alpha_star", alpha_star)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {value}")
    if alpha + alpha_star < 1.0:
        return max(2.0, 2.0 * alpha_star / alpha)
    return max(2.0, (alpha_star + 1.0) / alpha - 1.0)


def expected_random_weight(
    inst: WeightedInstance,
    mode: str = "complete",
    sides: tuple | None = None,
) -> float:
    """Exact expected weight of the uniform random matching process.

    By symmetry every edge lands in the final matching with the same
    probability: floor(n/2)/C(n,2) on the complete graph (1/(n-1) for even
    n) and 1/m on the complete bipartite graph with m nodes per side.
    """
    if mode == "complete":
        n = inst.n
        total = inst.total_weight()
        return total * (n // 2) / (n * (n - 1) / 2)
    if mode == "bipartite":
        if sides is None:
            raise ValueError("bipartite mode needs sides=(side_a, side_b)")
        side_a, side_b = (sorted(int(x) for x in s) for s in sides)
        if len(side_a) != len(side_b):
            raise ValueError(
                f"bipartite sides must have equal size, got {len(side_a)} and {len(side_b)}"
            )
        if not side_a:
            raise ValueError("bipartite sides must be nonempty")
        if set(side_a) & set(side_b):
            raise ValueError("bipartite sides overlap")
        cross = float(inst.weights[np.ix_(side_a, side_b)].sum())
        return cross / len(side_a)
    raise ValueError(f"unknown mode {mode!r}, expected 'complete' or 'bipartite'")
