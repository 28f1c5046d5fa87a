"""Independent references the package is checked against.

Exhaustive solvers for the oracle tests: deliberately plain enumeration
with no dynamic programming and no pruning, so these share no structure
with the package's oracles. Scalar versions of the oracles' subset DPs
and combination scan, which the numpy oracles must match solution for
solution. Plain versions of the ranking, the greedy and the triple
checks for the array profile, cursor and pivot-loop tests. The
difference-tensor distances for the per-coordinate generator.
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


def euclidean_by_tensor(points) -> np.ndarray:
    """Pairwise distances from the full (n, n, d) difference tensor."""
    diff = points[:, None, :] - points[None, :, :]
    w = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(w, 0.0)
    return w


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


def dp_matching(w, k: int) -> list:
    """Edges of the lex-first maximum-weight matching with at most k edges.

    The scalar subset DP: ``layers[j][mask]`` is the best weight on mask
    using at most j edges, one self-paired layer when the cap does not
    bind; reconstruction pairs the lowest unmatched node with the
    smallest partner that still achieves the optimum, and zero-weight
    edges are pruned afterwards.
    """
    n = len(w)
    kcap = min(k, n // 2)
    full = 1 << n
    capped = kcap < n // 2
    layers = [[0.0] * full for _ in range(kcap + 1 if capped else 1)]
    pairs = list(zip(layers[1:], layers)) if capped else [(layers[0], layers[0])]
    for cur, prev in pairs:
        for mask in range(3, full):
            lowbit = mask & -mask
            rest = mask ^ lowbit
            if rest == 0:
                continue
            row = w[lowbit.bit_length() - 1]
            best = cur[rest]
            t = rest
            while t:
                vbit = t & -t
                cand = row[vbit.bit_length() - 1] + prev[rest ^ vbit]
                if cand > best:
                    best = cand
                t ^= vbit
            cur[mask] = best

    edges = []
    mask = full - 1
    j = len(pairs) - 1
    while j >= 0:
        lowbit = mask & -mask
        rest = mask ^ lowbit
        if rest == 0:
            break
        low = lowbit.bit_length() - 1
        row = w[low]
        cur, prev = pairs[j]
        best = cur[mask]
        chosen = -1
        t = rest
        while t:
            vbit = t & -t
            v = vbit.bit_length() - 1
            if row[v] + prev[rest ^ vbit] == best:
                chosen = v
                break
            t ^= vbit
        if chosen < 0:
            mask = rest
        else:
            edges.append((low, chosen))
            mask = rest ^ (1 << chosen)
            j -= capped
    return [e for e in edges if w[e[0]][e[1]] > 0.0]


def scan_densest(w, k: int) -> tuple:
    """Nodes of the lex-first densest k-subgraph, one combination at a time."""
    best_val = -1.0
    best_nodes = None
    for combo in combinations(range(len(w)), k):
        val = 0.0
        for i in range(k):
            row = w[combo[i]]
            for j in range(i + 1, k):
                val += row[combo[j]]
        if val > best_val:
            best_val = val
            best_nodes = combo
    return best_nodes


def held_karp(w) -> tuple:
    """Order of the max-weight tour by the scalar push-style Held-Karp DP.

    Node 0 anchors the tour; reconstruction takes the smallest endpoint
    achieving each DP value and the lex-smaller of the two directions.
    """
    n = len(w)
    m = n - 1  # nodes 1..n-1, stored as 0..m-1
    size = 1 << m
    NEG = float("-inf")
    dp = [NEG] * (size * m)
    for i in range(m):
        dp[(1 << i) * m + i] = w[0][i + 1]

    for mask in range(1, size):
        base = mask * m
        t = mask
        while t:
            lbit = t & -t
            last = lbit.bit_length() - 1
            t ^= lbit
            cur = dp[base + last]
            if cur == NEG:
                continue
            row = w[last + 1]
            u = (size - 1) ^ mask
            while u:
                ubit = u & -u
                nxt = ubit.bit_length() - 1
                u ^= ubit
                cand = cur + row[nxt + 1]
                slot = (mask | ubit) * m + nxt
                if cand > dp[slot]:
                    dp[slot] = cand

    fullmask = size - 1
    best_total = NEG
    best_last = -1
    for last in range(m):
        total = dp[fullmask * m + last] + w[last + 1][0]
        if total > best_total:
            best_total = total
            best_last = last

    seq = [best_last]
    mask = fullmask
    last = best_last
    while mask != (1 << last):
        prev_mask = mask ^ (1 << last)
        target = dp[mask * m + last]
        row = w[last + 1]
        t = prev_mask
        while t:
            pbit = t & -t
            p = pbit.bit_length() - 1
            t ^= pbit
            if dp[prev_mask * m + p] + row[p + 1] == target:
                seq.append(p)
                mask = prev_mask
                last = p
                break
        else:
            raise AssertionError("tsp reconstruction lost the DP trail")

    forward = (0,) + tuple(x + 1 for x in reversed(seq))
    backward = (0,) + tuple(reversed(forward[1:]))
    return min(forward, backward)
