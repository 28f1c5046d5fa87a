"""Independent references the package is checked against.

Exhaustive solvers for the oracle tests: deliberately plain enumeration
with no dynamic programming and no pruning, so these share no structure
with the package's oracles. Scalar versions of the oracles' subset DPs
(``dp_matching``, ``held_karp``), combination scan (``scan_densest``)
and canonical partition recursion (``scan_k_sum``, and
``scan_k_sum_best_prefixes`` for the k-sum oracle's tie rule), which the
numpy oracles must match solution for solution. Plain versions of the
ranking (a sort per row, and one stable argsort of the whole table),
the greedy (a walk that rescans every row) and the triple checks, which
the array profile, the block ranking, the greedy and the pivot blocks
must match. The triple checks one pivot at a time and the closure that
compared a copy after every sweep, as first written (``pivot_metric``,
``pivot_friendship``, ``copy_compare_closure``), which the pivot blocks
and the closure that stops at the exact check must match bit for bit.
The difference-tensor distances for the per-coordinate generator, and
the numpy matching DP over all 2^n sets (``dense_block_matching``) for
sizes the scalar DP is too slow at. The scalar samplers and tour completion,
driven one decision at a time by a ``random.Random``, which define the
distributions the batched samplers and reductions must reproduce. Plain
value loops (``matching_value``, ``partition_value``, ``subset_value``,
``path_value``, ``tour_value``), which the weight gathers must match. The
batched kernels as first written, by 2-D fancy indexes, ``take_along_axis``
and per-row sorts (``fancy_*_values``, ``sort_edges``, ``argsort_stitch``,
``sort_tours``), and the hybrid with both branches built for every draw
(``two_branch_hybrid``), which their flat-``take`` and one-array forms
must match bit for bit.
"""

import math
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


def pivot_metric(w, tol: float) -> bool:
    """The triangle inequality one pivot z at a time, as first written."""
    return all(bool((w <= w[:, z : z + 1] + w[z : z + 1, :] + tol).all()) for z in range(len(w)))


def pivot_friendship(w, alpha: float) -> bool:
    """The friendship inequality one pivot j at a time, as first written."""
    diagonal = np.eye(len(w), dtype=bool)
    two_hop = (w[:, j : j + 1] + w[j : j + 1, :] for j in range(len(w)))
    return all(bool(((w >= alpha * via) | diagonal).all()) for via in two_hop)


def copy_compare_closure(w) -> np.ndarray:
    """The min-plus closure of a copy of w as first written: Floyd-Warshall sweeps until a
    copy taken before a sweep equals the matrix after it."""
    w = np.array(w, dtype=float)
    while True:
        before = w.copy()
        for z in range(len(w)):
            np.minimum(w, w[:, z : z + 1] + w[z : z + 1, :], out=w)
        if np.array_equal(before, w):
            return w


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

    The scalar subset DP (``dp_matching_layers``), then its reconstruction
    (``dp_matching_walk``).
    """
    kcap = min(k, len(w) // 2)
    return dp_matching_walk(w, dp_matching_layers(w, kcap), kcap)


def dp_matching_layers(w, kcap: int) -> list:
    """The scalar subset DP's (cur, prev) layer pairs for at most kcap edges.

    ``layers[j][mask]`` is the best weight on mask using at most j edges
    and pair j is ``(layers[j + 1], layers[j])``; one self-paired layer
    when kcap = n // 2 does not bind. Layer j does not depend on kcap, so
    the pairs built for kcap serve every smaller cap too.
    """
    n = len(w)
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
    return pairs


def dp_matching_walk(w, pairs: list, kcap: int) -> list:
    """Reconstruction for at most kcap edges from ``dp_matching_layers`` pairs
    built for kcap, or for a larger cap when kcap binds: pair the lowest
    unmatched node with the smallest partner that still achieves the
    optimum, then prune zero-weight edges.
    """
    n = len(w)
    capped = kcap < n // 2
    edges = []
    mask = (1 << n) - 1
    j = kcap - 1 if capped else 0
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


def dense_block_matching(w: np.ndarray, k: int) -> list:
    """Edges of the lex-first maximum-weight matching with at most k edges,
    by the numpy subset DP over all 2^n sets.

    The block of indices [2^b, 2^(b+1)) holds the sets whose lowest node is
    n - 1 - b; each (block, partner bit) step is one add and one maximum
    over strided views. Reconstruction as in ``dp_matching``.
    """
    n = len(w)
    kcap = min(k, n // 2)

    # layers[j][mask] = best weight on mask using at most j edges. Without
    # a binding cap one layer suffices and it is its own previous layer.
    # cur[j] and prev[j] are the layers for j + 1 and j edges. In block b,
    # the sets r below 2^b that hold bit v and the sets r ^ 2^v are the two
    # halves of a (rows, -1, 2, 2^v) view.
    capped = kcap < n // 2
    layers = np.zeros((kcap + 1 if capped else 1, 1 << n))
    cur, prev = (layers[1:], layers[:-1]) if capped else (layers, layers)
    rows = len(cur)
    for b in range(1, n):
        a, h = n - 1 - b, 1 << b
        block = cur[:, h:2 * h]
        block[...] = cur[:, :h]
        for v in range(b):
            with_v = block.reshape(rows, -1, 2, 1 << v)[:, :, 1]
            without_v = prev[:, :h].reshape(rows, -1, 2, 1 << v)[:, :, 0]
            np.maximum(with_v, without_v + w[a, n - 1 - v], out=with_v)

    # Walk the layers down one per chosen edge when capped, stay put when not.
    edges = []
    mask = (1 << n) - 1
    j = rows - 1
    while j >= 0 and mask & (mask - 1):
        b = mask.bit_length() - 1
        low, rest = n - 1 - b, mask ^ (1 << b)
        best = cur[j, mask]
        for v in reversed(range(b)):  # partners in ascending node order
            if rest >> v & 1 and w[low, n - 1 - v] + prev[j, rest ^ (1 << v)] == best:
                edges.append((low, n - 1 - v))
                mask = rest ^ (1 << v)
                j -= capped
                break
        else:
            mask = rest
    return [e for e in edges if w[e] > 0.0]


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


def k_sum_running_total(w, parts) -> float:
    """The parts' values summed in the order given, each adding its pair weights in
    (i, j) order: the sum ``scan_k_sum`` maximizes."""
    acc = 0.0
    for part in parts:
        s = 0.0
        for i in range(len(part)):
            row = w[part[i]]
            for j in range(i + 1, len(part)):
                s += row[part[j]]
        acc += s
    return acc


def k_sum_partitions(w, k: int, keep=None) -> list:
    """Every partition into k equal parts as (running sum, parts), in lex order.

    The canonical recursion: the lowest unassigned node anchors each new
    part and the others are taken in ``combinations`` order. The running
    sum is ``k_sum_running_total`` of the parts so far. With ``keep``, a
    prefix, whole partitions included, for which ``keep(covered, running
    sum)`` is false is dropped with all its extensions; ``covered`` is a
    mask, bit i for node i.
    """
    c = len(w) // k
    memo, out = {}, []  # memo: part -> (its value, its mask)

    def descend(remaining: tuple, parts: tuple, covered: int, acc: float):
        anchor, rest = remaining[0], remaining[1:]
        last = len(rest) < c
        for combo in combinations(rest, c - 1):
            part = (anchor,) + combo
            if part not in memo:
                memo[part] = k_sum_running_total(w, [part]), sum(1 << x for x in part)
            value, mask = memo[part]
            if keep is None or keep(covered | mask, acc + value):
                if last:
                    out.append((acc + value, parts + (part,)))
                else:
                    descend(tuple(x for x in rest if x not in combo), parts + (part,),
                            covered | mask, acc + value)

    descend(tuple(range(len(w))), (), 0, 0.0)
    return out


def scan_k_sum(w, k: int) -> tuple:
    """Parts of the lex-first max k-sum clustering by the canonical recursion.

    Partitions arrive in lex order; part values add pair weights in (i, j)
    order, the total adds parts in anchor order, and the first strict
    maximum wins.
    """
    best_val, best_parts = -1.0, None
    for acc, parts in k_sum_partitions(w, k):
        if acc > best_val:
            best_val, best_parts = acc, parts
    return best_parts


def scan_k_sum_best_prefixes(w, k: int) -> tuple:
    """Parts of the lex-first max k-sum clustering among those whose every prefix
    has the best running sum for its covered set.

    A plain dict DP finds each covered set's best running sum (a max over
    every canonical next part; float addition rounds monotonically, so that
    is the max over every prefix); ``k_sum_partitions`` then keeps only the
    prefixes that reach it, and the first partition it lists wins.
    """
    n, c = len(w), len(w) // k
    value = {part: k_sum_running_total(w, [part]) for part in combinations(range(n), c)}
    best, layer = {}, {0: 0.0}
    while layer:
        grown = {}
        for covered, acc in layer.items():
            rest = [x for x in range(n) if not covered >> x & 1]
            for combo in combinations(rest[1:], c - 1):
                part = (rest[0],) + combo
                mask, total = covered | sum(1 << x for x in part), acc + value[part]
                grown[mask] = max(grown.get(mask, total), total)
        best.update(grown)
        layer = {mask: acc for mask, acc in grown.items() if mask != (1 << n) - 1}
    return k_sum_partitions(w, k, lambda covered, acc: acc == best[covered])[0][1]


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


def hybrid_matching(n: int, m0: list, rng) -> list:
    """The hybrid matching on n nodes, one decision at a time; sorted edges.

    M0 = the greedy matching with ceil(n/3) edges, which draws nothing, so
    the caller computes it once (``scan_greedy(rows, -(-n // 3))``) for
    every draw. A fair coin; then either M0 plus ``random_k_edges`` on the
    untouched nodes B, or M0 with floor(|B|/2) edges released by
    ``rng.sample`` and their endpoints matched into B by ``random_k_edges``
    on the bipartite pool.
    """
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


def row_sums(x) -> np.ndarray:
    """Each row's sum over one contiguous copy of the row, as the gathers sum it."""
    x = np.ascontiguousarray(x)
    return x.reshape(len(x), math.prod(x.shape[1:])).sum(axis=1)


def fancy_matching_values(matchings, w) -> np.ndarray:
    """Each (S, edges, 2) row's weight: a 2-D fancy index of w, then the edges put in
    ascending order of low endpoint by ``take_along_axis``."""
    u, v = matchings[..., 0], matchings[..., 1]
    by_low = np.argsort(np.minimum(u, v), axis=1)
    return row_sums(np.take_along_axis(w[u, v], by_low, axis=1))


def fancy_cluster_values(solutions, w) -> np.ndarray:
    """Each (S, parts, size) row's weight: pair (i, j) of every part, then the next pair."""
    i, j = np.triu_indices(solutions.shape[2], 1)
    by_pair = solutions.transpose(0, 2, 1)
    return row_sums(w[by_pair[:, i], by_pair[:, j]])


def fancy_path_values(solutions, w) -> np.ndarray:
    """Each (S, length) row's weight as an open path."""
    return row_sums(w[solutions[:, :-1], solutions[:, 1:]])


def fancy_tour_values(solutions, w) -> np.ndarray:
    """Each (S, n) row's weight as a closed tour."""
    return fancy_path_values(np.concatenate([solutions, solutions[:, :1]], axis=1), w)


def sort_edges(matchings) -> np.ndarray:
    """Each edge sorted, then each row's edges by low endpoint: two per-row sorts."""
    edges = np.sort(matchings, axis=2)
    order = np.argsort(edges[:, :, 0], axis=1)
    return np.take_along_axis(edges, order[:, :, None], axis=1)


def argsort_stitch(edges, start, ranking) -> np.ndarray:
    """(S, 2m) paths through (S, m, 2) sorted edges from start[s]: the start's edge first by
    an argsort, each later edge entered at the endpoint the previous node ranks higher."""
    draws, m, _ = edges.shape
    first = (edges == start[:, None, None]).any(axis=2).argmax(axis=1)
    slots = np.arange(m)
    order = np.argsort(np.where(slots == first[:, None], -1, slots), axis=1)
    edges = np.take_along_axis(edges, order[:, :, None], axis=1)
    n = len(ranking)
    rank = np.full((n, n), n - 1)
    rank[np.arange(n)[:, None], ranking] = np.arange(n - 1)
    paths = np.empty((draws, 2 * m), dtype=np.intp)
    paths[:, 0] = start
    paths[:, 1] = edges[:, 0].sum(axis=1) - start
    for j in range(1, m):
        x, y, z = paths[:, 2 * j - 1], edges[:, j, 0], edges[:, j, 1]
        y_first = rank[x, y] < rank[x, z]
        paths[:, 2 * j] = np.where(y_first, y, z)
        paths[:, 2 * j + 1] = np.where(y_first, z, y)
    return paths


def two_branch_hybrid(m0, n: int, draws: int, gen) -> np.ndarray:
    """The hybrid's draws from its greedy prefix ``m0`` (sorted edges) as first written: both
    branches built in full for every row, branch B by a 2-D fancy scatter, and each row's
    coin choosing between them by ``np.where``."""
    untouched = sorted(set(range(n)) - set(m0.flat))
    g, h = len(m0), len(untouched) // 2
    keep = gen.random(draws) < 0.5
    fill = gen.permuted(np.tile(np.array(untouched, dtype=np.intp), (draws, 1)), axis=1)[:, : 2 * h]
    released = gen.permuted(np.tile(np.arange(g), (draws, 1)), axis=1)[:, :h]
    branch_a = np.empty((draws, g + h, 2), dtype=np.intp)
    branch_a[:, :g] = m0
    branch_a[:, g:] = fill.reshape(draws, h, 2)
    branch_b = branch_a.copy()
    branch_b[np.arange(draws)[:, None], released, 1] = fill[:, 0::2]
    branch_b[:, g:, 0] = m0[released, 1]
    branch_b[:, g:, 1] = fill[:, 1::2]
    return np.where(keep[:, None, None], branch_a, branch_b)


def sort_tours(matchings, ranking, gen) -> np.ndarray:
    """Each perfect matching completed into a tour as first written: ``sort_edges``, a start
    drawn by one ``gen.integers`` and read by a 2-D fancy index, ``argsort_stitch``, and for
    odd n the unmatched node last."""
    n, draws = len(ranking), len(matchings)
    edges = sort_edges(matchings)
    nodes = np.sort(edges.reshape(draws, n // 2 * 2), axis=1)
    start = nodes[np.arange(draws), gen.integers(0, nodes.shape[1], size=draws)]
    tours = argsort_stitch(edges, start, ranking)
    if n % 2 == 0:
        return tours
    return np.concatenate([tours, (n * (n - 1) // 2 - edges.sum(axis=(1, 2)))[:, None]], axis=1)
