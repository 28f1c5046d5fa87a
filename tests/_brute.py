"""Independent references the package is checked against.

Exhaustive solvers for the oracle tests: deliberately plain enumeration
with no dynamic programming and no pruning, so these share no structure
with the package's oracles. Plain versions of the ranking, the greedy
and the triple checks for the array profile, cursor and pivot-loop tests.
"""

from itertools import combinations, permutations

import numpy as np


def all_matchings(n: int, max_edges: int | None = None) -> list:
    """Every matching on nodes 0..n-1 with at most max_edges edges.

    Canonical recursion on the lowest unpaired node, so each matching
    appears exactly once.
    """
    cap = n // 2 if max_edges is None else min(max_edges, n // 2)
    out = []

    def grow(avail: tuple, chosen: tuple):
        out.append(chosen)
        if len(chosen) >= cap or len(avail) < 2:
            return
        u = avail[0]
        rest = avail[1:]
        for idx, v in enumerate(rest):
            grow(rest[:idx] + rest[idx + 1:], chosen + ((u, v),))
        grow(rest, chosen)

    grow(tuple(range(n)), ())
    return out


def perfect_matchings(n: int) -> list:
    return [m for m in all_matchings(n) if len(m) == n // 2 and n % 2 == 0]


def matching_value(w, edges) -> float:
    return sum(w[u][v] for u, v in edges)


def brute_max_matching(w, k: int) -> float:
    n = len(w)
    return max(matching_value(w, m) for m in all_matchings(n, k))


def equal_partitions(n: int, k: int) -> list:
    """All partitions of 0..n-1 into k parts of equal size."""
    if n % k != 0:
        raise ValueError("k must divide n")
    c = n // k
    out = []

    def grow(remaining: tuple, parts: tuple):
        if not remaining:
            out.append(parts)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        for extra in combinations(rest, c - 1):
            part = (anchor,) + extra
            left = tuple(x for x in rest if x not in extra)
            grow(left, parts + (part,))

    grow(tuple(range(n)), ())
    return out


def partition_value(w, parts) -> float:
    total = 0.0
    for part in parts:
        for u, v in combinations(part, 2):
            total += w[u][v]
    return total


def brute_max_k_sum(w, k: int) -> float:
    return max(partition_value(w, p) for p in equal_partitions(len(w), k))


def subset_value(w, nodes) -> float:
    return sum(w[u][v] for u, v in combinations(nodes, 2))


def brute_max_densest(w, k: int) -> float:
    n = len(w)
    return max(subset_value(w, c) for c in combinations(range(n), k))


def tour_value(w, order) -> float:
    total = w[order[-1]][order[0]]
    for a, b in zip(order, order[1:]):
        total += w[a][b]
    return total


def brute_max_tour(w) -> float:
    n = len(w)
    return max(tour_value(w, (0,) + p) for p in permutations(range(1, n)))


def metric_by_tensor(w, tol: float) -> bool:
    """Triangle inequality over the full (x, z, y) tensor of two-hop sums."""
    w = np.asarray(w, dtype=float)
    via = w[:, :, None] + w[None, :, :]
    return bool((w <= via.min(axis=1) + tol).all())


def friendship_by_tensor(w, alpha: float) -> bool:
    """w(i,k) >= alpha * max_j (w(i,j) + w(j,k)) over the full tensor, i != k."""
    w = np.asarray(w, dtype=float)
    worst = (w[:, :, None] + w[None, :, :]).max(axis=1)
    off = ~np.eye(len(w), dtype=bool)
    return bool((w[off] >= alpha * worst[off]).all())


def tuple_rankings(w) -> tuple:
    """Each node's partners sorted by (descending weight, index), as tuples."""
    n = len(w)
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        others.sort(key=lambda j: (-w[i][j], j))
        rows.append(tuple(others))
    return tuple(rows)


def scan_greedy(rows, k: int) -> list:
    """Greedy undominated-edge matching that rescans every row from the top.

    The walk starts at the lowest active node and hops to each node's
    first active partner until it revisits a node; the closing edge is
    picked and both endpoints retire.
    """
    active = set(range(len(rows)))
    picked = []
    while len(picked) < k and len(active) >= 2:
        x = min(active)
        seen = {x}
        while True:
            y = next(j for j in rows[x] if j in active)
            if y in seen:
                break
            seen.add(y)
            x = y
        picked.append((min(x, y), max(x, y)))
        active -= {x, y}
    return sorted(picked)
