"""Independent references the package is checked against.

Exhaustive solvers for the oracle tests: deliberately plain enumeration
with no dynamic programming and no pruning, so these share no structure
with the package's oracles. Scalar versions of the oracles' subset DPs
(``dp_matching``, ``held_karp``), combination scan (``scan_densest``)
and canonical partition recursion (``scan_k_sum``), which the numpy
oracles must match solution for solution. Plain versions of the
ranking (a sort per row, and one stable argsort of the whole table),
the greedy (a walk that rescans every row) and the triple checks, which
the array profile, the block ranking, the greedy and the pivot loops
must match. The difference-tensor distances for the per-coordinate
generator. The scalar samplers and tour completion,
driven one decision at a time by a ``random.Random``, which define the
distributions the batched samplers and reductions must reproduce. Plain
value loops (``matching_value``, ``partition_value``, ``subset_value``,
``path_value``, ``tour_value``), which the weight gathers must match.
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


def path_value(w, order) -> float:
    return sum(w[a][b] for a, b in zip(order, order[1:]))


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



def stable_argsort_ranking(w) -> np.ndarray:
    """Each node's partners by (descending weight, index): one stable argsort of every
    whole row of -w, the +inf diagonal sorted last and dropped."""
    key = -np.asarray(w, dtype=float)
    np.fill_diagonal(key, np.inf)
    return np.argsort(key, axis=1, kind="stable")[:, :-1]

def scan_greedy(rows, k: int, nodes=None) -> list:
    """Greedy undominated-edge matching that rescans every row from the top.

    Only ``nodes`` (default: all) start active. The walk starts at the
    lowest active node and hops to each node's first active partner until
    it revisits a node; the closing edge is picked and both endpoints
    retire.
    """
    active = set(range(len(rows)) if nodes is None else nodes)
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


def scan_k_sum(w, k: int) -> tuple:
    """Parts of the lex-first max k-sum clustering by the canonical recursion.

    The lowest unassigned node anchors each new part and the others are
    taken in ``combinations`` order, so partitions arrive in lex order;
    part values add pair weights in (i, j) order, the total adds parts in
    anchor order, and the first strict maximum wins.
    """
    c = len(w) // k
    best_val = -1.0
    best_parts = None

    def part_value(part) -> float:
        s = 0.0
        for i in range(len(part)):
            row = w[part[i]]
            for j in range(i + 1, len(part)):
                s += row[part[j]]
        return s

    def descend(remaining: tuple, acc: float, parts: list):
        nonlocal best_val, best_parts
        if not remaining:
            if acc > best_val:
                best_val = acc
                best_parts = tuple(parts)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        for combo in combinations(rest, c - 1):
            part = (anchor,) + combo
            parts.append(part)
            descend(tuple(x for x in rest if x not in combo), acc + part_value(part), parts)
            parts.pop()

    descend(tuple(range(len(w))), 0.0, [])
    return best_parts


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


def sample_edge(side_a, side_b, rng) -> tuple:
    """A uniform edge of the complete graph on side_a (side_b None), or of
    the complete bipartite graph between the sides; two randrange draws."""
    if side_b is None:
        if len(side_a) < 2:
            raise ValueError("cannot sample from an empty pool")
        i = rng.randrange(len(side_a))
        j = rng.randrange(len(side_a) - 1)
        u, v = side_a[i], side_a[j + (j >= i)]
    else:
        if not side_a or not side_b:
            raise ValueError("cannot sample from an empty pool")
        u, v = side_a[rng.randrange(len(side_a))], side_b[rng.randrange(len(side_b))]
    return (min(u, v), max(u, v))


def random_k_edges(side_a, side_b, k: int, rng) -> list:
    """Edges drawn one at a time by ``sample_edge``, each retiring both
    endpoints, until k edges or no edge is left; sorted."""
    a = sorted(side_a)
    b = None if side_b is None else sorted(side_b)
    picked = []
    while len(picked) < k and (len(a) >= 2 if b is None else a and b):
        u, v = sample_edge(a, b, rng)
        picked.append((u, v))
        for x in (u, v):
            (a if x in a else b).remove(x)
    return sorted(picked)


def hybrid_matching(rows, rng) -> list:
    """The hybrid matching, one decision at a time; sorted edges.

    M0 = the greedy matching with ceil(n/3) edges. A fair coin; then
    either M0 plus ``random_k_edges`` on the untouched nodes B, or M0
    with floor(|B|/2) edges released by ``rng.sample`` and their
    endpoints matched into B by ``random_k_edges`` on the bipartite pool.
    """
    n = len(rows)
    m0 = scan_greedy(rows, -(-n // 3))
    untouched = sorted(set(range(n)) - {x for e in m0 for x in e})
    if rng.random() < 0.5:
        return sorted(m0 + random_k_edges(untouched, None, len(untouched) // 2, rng))
    released = set(rng.sample(range(len(m0)), len(untouched) // 2))
    kept = [e for i, e in enumerate(m0) if i not in released]
    freed = sorted(x for i in released for x in m0[i])
    return sorted(kept + random_k_edges(freed, untouched, len(freed), rng))


def path_completion(edges, rows, rng, start=None) -> list:
    """Path through the matching's edges: a uniform matched start (one
    randrange unless pinned), across its edge, then the other edges in
    ascending order of smallest endpoint, each entered at the endpoint
    the previous node ranks higher in ``rows``."""
    edges = sorted((min(e), max(e)) for e in edges)
    if start is None:
        nodes = sorted(x for e in edges for x in e)
        start = nodes[rng.randrange(len(nodes))]
    first = next(e for e in edges if start in e)
    order = [start, first[0] + first[1] - start]
    for y, z in edges:
        if (y, z) != first:
            row = rows[order[-1]]
            order += [y, z] if row.index(y) < row.index(z) else [z, y]
    return order


def tour_completion(edges, rows, rng) -> list:
    """``path_completion`` from a random start, then the unmatched node if any."""
    order = path_completion(edges, rows, rng)
    return order + sorted(set(range(len(rows))) - set(order))
