"""Preference-only matching algorithms and their supporting types.

Every algorithm here sees a :class:`~ordmatch.instance.PreferenceProfile`
or plain lists of node ids, plus, for the randomized ones, a seeded
:class:`RandomSource`. None of them accept weights; weights exist only on
the evaluation side: ``matching_values``, one gather over an array of
matchings, ``matching_weight``, one row of it, and ``expected_random_weight``.

The greedy (``greedy_k_matching``, ``find_undominated``) walks the
ranking rows directly: one generator yields its undominated edges in
order, with a forward-only cursor per node.

Each randomized algorithm has one engine, the batched sampler
(``random_k_matchings``, ``hybrid_matchings``), which draws many
matchings at once from a ``numpy.random.Generator``. The scalar
``random_k_matching`` and ``hybrid_matching`` are one draw of it from
``RandomSource.gen``. The independent scalar references that the
samplers' distributions are tested against live in ``tests/_brute.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .instance import PreferenceProfile, WeightedInstance, _count, _integer, _number, _typed

__all__ = [
    "EmptyPoolError",
    "Matching",
    "RandomSource",
    "expected_random_weight",
    "find_undominated",
    "greedy_k_matching",
    "greedy_ratio_bound",
    "hybrid_matching",
    "hybrid_matchings",
    "matching_weight",
    "random_k_matching",
    "random_k_matchings",
]


class EmptyPoolError(ValueError):
    """An edge was requested from fewer than two nodes."""


def _iterable(ids):
    """``ids`` itself if it is iterable, else ValueError: the rule for a container of node ids."""
    if not hasattr(ids, "__iter__"):
        raise ValueError(f"node ids must be iterable, got {ids!r}")
    return ids


def _node_ids(ids, n: int | None = None) -> list[int]:
    """``ids``, an iterable (``_iterable``), as a list of Python ints, each read once by
    ``_integer``; ValueError unless they are distinct, nonnegative and, when ``n`` is given,
    below it."""
    ids = [_integer(x, "node id") for x in _iterable(ids)]
    if len(set(ids)) != len(ids):
        raise ValueError("node ids must be distinct")
    if ids and min(ids) < 0:
        raise ValueError("node ids must be nonnegative")
    if ids and n is not None and (top := max(ids)) >= n:
        raise ValueError(f"node id {top} out of range for n={n}")
    return ids


def _solution_ids(solution, ids) -> list[int]:
    """The checks every solution type shares: ``solution.n`` stored as a count (``_count``),
    and ``ids`` returned as node ids below it (``_node_ids``)."""
    object.__setattr__(solution, "n", _count(solution.n, "n"))
    return _node_ids(ids, solution.n)


@dataclass(frozen=True)
class Matching:
    """A set of pairwise-disjoint unordered edges over nodes 0..n-1."""

    n: int
    edges: frozenset

    def __post_init__(self):
        edges = [tuple(_iterable(e)) for e in _iterable(self.edges)]
        if bad := [e for e in edges if len(e) != 2]:
            raise ValueError(f"an edge must be a pair of node ids, got {bad[0]!r}")
        ids = _solution_ids(self, [x for e in edges for x in e])
        pairs = zip(ids[::2], ids[1::2])
        object.__setattr__(self, "edges", frozenset((u, v) if u < v else (v, u) for u, v in pairs))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Matching":
        return cls(n, frozenset(tuple(_iterable(p)) for p in _iterable(pairs)))

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
        return {"edges": [list(e) for e in self.sorted_edges()], "n": self.n}

    @classmethod
    def from_dict(cls, d: dict) -> "Matching":
        if missing := {"n", "edges"} - _typed(d, dict, "matching dict").keys():
            raise ValueError(f"matching dict has no {min(missing)!r} field")
        return cls.from_pairs(d["n"], d["edges"])


def _row(m: Matching) -> np.ndarray:
    """The one reader of a ``Matching`` (ValueError for another type): a (1, edges, 2) batch."""
    return np.array(_typed(m, Matching).sorted_edges(), dtype=np.intp).reshape(1, len(m), 2)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum over one contiguous copy, so a row sums alike whatever S is."""
    return np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:])).sum(axis=1)


def _flat(order: np.ndarray) -> np.ndarray:
    """A per-row order of an (S, m) array as indices into its ravel: s * m + order[s]."""
    return order + np.arange(len(order))[:, None] * order.shape[1]


def matching_values(matchings: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weight of each matching in an (S, edges, 2) array, in one gather.

    A row sums its edges in ascending order of low endpoint, as
    ``Matching.sorted_edges`` lists them, whatever order they were drawn in.
    """
    u, v = matchings[..., 0], matchings[..., 1]
    by_low = _flat(np.argsort(np.minimum(u, v), axis=1))
    return _row_sums(w.ravel().take(u * len(w) + v).take(by_low))


def _one_row(values, solution, row, inst: WeightedInstance) -> float:
    """``values`` of ``row`` as a one-row batch, once ``inst`` is typed and sized as ``solution``
    (ValueError naming its class otherwise)."""
    if solution.n != _typed(inst, WeightedInstance, "inst").n:
        raise ValueError(f"{type(solution).__name__.lower()} and instance sizes differ")
    return float(values(np.array(row, dtype=np.intp)[None], inst.weights)[0])


def matching_weight(m: Matching, inst: WeightedInstance) -> float:
    return _one_row(matching_values, m, _row(m)[0], inst)


class RandomSource:
    """Seeded randomness for the one-draw library calls.

    ``gen`` is the ``numpy.random.Generator`` seeded by
    ``derived_seed(seed)``, the one ``harness.solve`` draws from, so library
    calls that share one RandomSource reproduce ``ordmatch solve --seed``
    draw for draw; a bench trial draws from the RandomSource of its record's
    seed. ``derived_seed`` mixes one or more seeds into one stream-safe
    integer; each part is a seed, ``_count``'s.
    """

    def __init__(self, seed: int):
        self.seed = _count(seed, "seed")
        self.gen = np.random.default_rng(self.derived_seed(self.seed))

    @staticmethod
    def derived_seed(*parts: int) -> int:
        entropy = [_count(p, "seed") for p in parts]
        return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _sorted_ids(nodes, other=None, n=None) -> tuple[list[int], list[int] | None]:
    """``nodes`` and ``other`` as ascending lists of node ids (``_node_ids``), the two lists
    disjoint; None for ``other`` when it is not given."""
    a = _node_ids(nodes, n)
    ids = a if other is None else _node_ids([*a, *_node_ids(other)], n)
    return sorted(a), None if other is None else sorted(ids[len(a) :])


def _undominated_edges(profile: PreferenceProfile, nodes):
    """Yield the greedy's picks among ``nodes`` in order, each retiring both endpoints.

    Each pick starts from the lowest active node and repeatedly hops to
    the current node's top active choice. The walk must eventually
    revisit a node; the edge that closes that cycle is undominated: along
    the walk each hop's weight is at least the previous hop's (under any
    weights consistent with the profile), so the cycle's edges all tie at
    the cycle maximum and the closing edge beats every edge incident to
    either endpoint. Nodes only ever retire, so each node keeps a
    forward-only cursor into its ranking row.
    """
    n = profile.n
    ids = sorted(_node_ids(nodes, n))
    active = bytearray(n)
    for x in ids:
        active[x] = 1
    # a flat memoryview reads single entries as Python ints, fast
    rows, width = memoryview(profile.ranking.ravel()), n - 1
    cursor = [x * width for x in range(n)]
    lowest, left = 0, len(ids)
    while left >= 2:
        while not active[ids[lowest]]:
            lowest += 1
        x = ids[lowest]
        seen = {x}
        while True:
            c = cursor[x]
            while not active[rows[c]]:
                c += 1
            cursor[x] = c
            y = rows[c]
            if y in seen:
                break
            seen.add(y)
            x = y
        active[x] = active[y] = 0
        left -= 2
        yield (x, y) if x < y else (y, x)


def find_undominated(profile: PreferenceProfile, nodes) -> tuple[int, int]:
    """An undominated edge among ``nodes`` using rankings only: the greedy's first pick.

    Raises ``EmptyPoolError`` for fewer than two nodes.
    """
    for edge in _undominated_edges(_typed(profile, PreferenceProfile, "profile"), nodes):
        return edge
    raise EmptyPoolError("fewer than two nodes, so no edge")


def greedy_k_matching(profile: PreferenceProfile, k: int) -> Matching:
    """Pick k undominated edges, retiring both endpoints after each pick.

    Deterministic. If k exceeds what the nodes can supply the result is
    the maximal matching found (no error), so the edge list for k is
    always a prefix of the edge list for any larger k.
    """
    k, n = _count(k, "k", 1), _typed(profile, PreferenceProfile, "profile").n
    # walk here, not lazily inside from_pairs, so a profile charges the walk to the greedy
    picks = list(islice(_undominated_edges(profile, range(n)), k))
    return Matching.from_pairs(n, picks)


def random_k_matching(n: int, k: int, rng: RandomSource) -> Matching:
    """One draw of ``random_k_matchings`` on nodes 0..n-1: up to k uniformly random edges."""
    rows = random_k_matchings(range(_count(n, "n")), k, 1, _typed(rng, RandomSource, "rng").gen)
    return Matching.from_pairs(n, rows[0].tolist())


def hybrid_matching(profile: PreferenceProfile, rng: RandomSource) -> Matching:
    """One draw of ``hybrid_matchings``: the 1.6-approximate matching in expectation."""
    rows = hybrid_matchings(profile, 1, _typed(rng, RandomSource, "rng").gen)
    return Matching.from_pairs(profile.n, rows[0].tolist())


def _row_permutations(items, draws: int, gen: np.random.Generator) -> np.ndarray:
    """``draws`` independent uniform shuffles of ``items``, one per row."""
    return gen.permuted(np.tile(np.asarray(items, dtype=np.intp), (draws, 1)), axis=1)


def random_k_matchings(
    nodes, k: int, draws: int, gen: np.random.Generator, other=None
) -> np.ndarray:
    """``draws`` uniform random matchings of up to k edges, as one array.

    The edges join two of ``nodes`` or, when ``other`` is given (bipartite
    mode), one of ``nodes`` to one of ``other``. Returns an (draws, edges,
    2) int array; k beyond the capacity is capped. Drawing uniform edges
    and retiring their endpoints until k edges (or exhaustion) gives the
    same distribution as pairing off the first 2k entries of a uniform
    shuffle of the nodes (complete mode), or the first k entries of
    independent shuffles of the two sides (bipartite mode). Each list is
    sorted before it is shuffled, so the order of the given ids does not
    change the draws. k and ``draws`` must be nonnegative integers, and ids
    distinct, nonnegative and, in bipartite mode, disjoint between the
    lists (else ``ValueError``); they are not
    checked against a node count, which the sampler is not given, and the
    batched reductions do not check them either, so a caller passing ids
    of its own must keep them below n.
    """
    side_a, side_b = _sorted_ids(nodes, other)
    k, draws = _count(k, "k"), _count(draws, "draws")
    gen = _typed(gen, np.random.Generator, "gen")
    if side_b is not None:
        k = min(k, len(side_a), len(side_b))
        side_a = _row_permutations(side_a, draws, gen)[:, :k]
        side_b = _row_permutations(side_b, draws, gen)[:, :k]
        return np.stack([side_a, side_b], axis=2)
    k = min(k, len(side_a) // 2)
    return _row_permutations(side_a, draws, gen)[:, : 2 * k].reshape(draws, k, 2)


def hybrid_matchings(profile: PreferenceProfile, draws: int, gen: np.random.Generator) -> np.ndarray:
    """``draws`` hybrid matchings: a greedy prefix plus a coin-picked random completion.

    Returns an (draws, n // 2, 2) int array; when n is odd one node stays
    unmatched. M0, the greedy matching with ceil(n/3) edges, is
    deterministic and computed once; every draw flips its own fair coin.
    Branch A pairs off a uniform shuffle of the untouched set B. Branch B
    releases floor(|B|/2) uniformly chosen M0 edges and matches the
    released endpoints, in order, to that same shuffle of B, which is a
    uniform injection of the released nodes into B; its row is the
    branch-A row with released edge j's high endpoint and fill[2j] swapped.

    Draw order is pinned for replay: all coins, then the shuffles of B,
    then the shuffles of the M0 edge indices, each drawn for every row.
    """
    n, draws = _typed(profile, PreferenceProfile, "profile").n, _count(draws, "draws")
    gen = _typed(gen, np.random.Generator, "gen")
    if n < 2:
        raise ValueError(f"hybrid matching needs n >= 2, got {n}")
    m0 = _row(greedy_k_matching(profile, math.ceil(n / 3)))[0]
    untouched = sorted(set(range(n)) - set(m0.flat))
    g, h = len(m0), len(untouched) // 2
    keep = gen.random(draws) < 0.5
    fill = _row_permutations(untouched, draws, gen)[:, : 2 * h]
    released = _row_permutations(range(g), draws, gen)[:, :h]

    out = np.empty((draws, g + h, 2), dtype=np.intp)
    out[:, :g] = m0
    out[:, g:] = fill.reshape(draws, h, 2)
    rows = np.flatnonzero(~keep)  # branch B
    at = rows[:, None] * (2 * (g + h))  # each row's offset in the ravel
    high = at + 2 * released.take(rows, axis=0) + 1
    first = at + 2 * np.arange(g, g + h)
    flat = out.reshape(-1)
    flat[high], flat[first] = flat[first], flat[high]
    return out


def greedy_ratio_bound(alpha: float, alpha_star: float) -> float:
    """Worst-case OPT(k*)/Greedy(k) on metric instances.

    alpha = 2k/n and alpha_star = 2k*/n are the fractions of a perfect
    matching the greedy picked and the optimum is allowed, both in (0, 1].
    """
    for name, value in (("alpha", alpha), ("alpha_star", alpha_star)):
        if not 0.0 < _number(value, name) <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {value}")
    if alpha + alpha_star < 1.0:
        return max(2.0, 2.0 * alpha_star / alpha)
    return max(2.0, (alpha_star + 1.0) / alpha - 1.0)


def expected_random_weight(inst: WeightedInstance, sides: tuple | None = None) -> float:
    """Exact expected weight of the uniform random matching process.

    On the complete graph, or on the complete bipartite graph between
    ``sides=(side_a, side_b)``, disjoint lists of distinct ids below n, when
    given. By symmetry every edge lands in the final matching with the same
    probability: floor(n/2)/C(n,2) on the complete graph (1/(n-1) for even n)
    and 1/m on the complete bipartite graph with m nodes per side.
    """
    n = _typed(inst, WeightedInstance, "inst").n
    if sides is None:
        return inst.total_weight() * (n // 2) / (n * (n - 1) / 2)
    if len(sides := tuple(_iterable(sides))) != 2:
        raise ValueError(f"sides must be two lists of node ids, got {len(sides)}")
    a, b = _sorted_ids(*sides, n=n)
    if len(a) != len(b):
        raise ValueError(f"bipartite sides must have equal size, got {len(a)} and {len(b)}")
    if not a:
        raise ValueError("bipartite sides must be nonempty")
    return float(inst.weights[np.ix_(a, b)].sum()) / len(a)
