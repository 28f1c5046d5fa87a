"""Exact desk-scale oracles for the four objectives.

These see the hidden weights; they exist to score the ordinal algorithms,
not to compete with them. Every solver enforces an explicit size budget
and a wall-clock ceiling, and breaks ties deterministically (smallest
node first) so repeated runs reproduce the same solution object.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Matching
from .errors import BudgetError
from .instance import WeightedInstance
from .reductions import Clustering, Subset, Tour


@dataclass(frozen=True)
class OracleBudget:
    """Per-problem size caps plus a wall-clock ceiling per call."""

    max_n_matching: int = 20
    max_n_k_sum: int = 10
    max_n_densest: int = 20
    max_n_tsp: int = 15
    time_limit: float = 60.0


DEFAULT_BUDGET = OracleBudget()


class _Deadline:
    def __init__(self, seconds: float, what: str):
        self.t_end = time.monotonic() + seconds
        self.what = what

    def check(self):
        if time.monotonic() > self.t_end:
            raise BudgetError(f"{self.what} exceeded its time budget")


@functools.cache
def _by_popcount(n: int) -> tuple:
    """Every n-bit mask ordered by popcount, and the layer starts.

    Masks of popcount p are ``masks[start[p]:start[p + 1]]``, ascending.
    """
    count = np.zeros(1, np.int8)
    for _ in range(n):
        count = np.concatenate([count, count + 1])
    masks = np.argsort(count, kind="stable").astype(np.int32)
    start = np.concatenate([[0], np.cumsum(np.bincount(count, minlength=n + 1))])
    for t in (masks, start):
        t.flags.writeable = False
    return masks, start


@functools.cache
def _matching_blocks(n: int) -> tuple:
    """Per block b, int32 tables for the sets with lowest node a = n - 1 - b the
    DP reaches from the full set, those missing at most a of the b higher nodes:
    the sets r | 2^b, their r, per bit v of r the set r ^ 2^v and node n - 1 - v
    (the empty set and node a for an empty r), and where each r's pairs start."""
    count, blocks = np.zeros(1, np.int8), []  # count: popcount of each b-bit r
    for b in range(n):
        rest = np.flatnonzero(count >= 2 * b + 1 - n).astype(np.int32)
        v = np.arange(b + 1, dtype=np.int32)
        row, col = np.nonzero(np.column_stack([rest[:, None] >> v[:-1] & 1, rest == 0]))
        starts = np.flatnonzero(np.diff(row, prepend=-1)).astype(np.int32)
        blocks.append((rest | 1 << b, rest, rest[row] & ~(1 << v[col]), n - 1 - v[col], starts))
        count = np.concatenate([count, count + 1])
    for t in (x for block in blocks for x in block):
        t.flags.writeable = False
    return tuple(blocks)


def opt_matching(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Matching:
    """Maximum-weight matching with at most k edges, by subset DP.

    Bit b of a table index stands for node n - 1 - b, so the block of
    indices [2^b, 2^(b+1)) holds the sets whose lowest node is n - 1 - b
    and reads only indices below 2^b; a block fills only the sets reachable
    from the full set, by one gather and one maximum.reduceat. Ties go to
    the lexicographically smallest edge set: reconstruction pairs the lowest
    unmatched node with the smallest partner that still achieves the
    optimum, and zero-weight edges are pruned afterwards.
    """
    n = inst.n
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n > budget.max_n_matching:
        raise BudgetError(f"matching oracle capped at n={budget.max_n_matching}, got n={n}")
    deadline = _Deadline(budget.time_limit, "matching oracle")
    w = inst.weights
    kcap = min(k, n // 2)

    # layers[j][mask] = best weight on mask using at most j edges. Without
    # a binding cap one layer suffices and it is its own previous layer.
    # cur[j] and prev[j] are the layers for j + 1 and j edges.
    capped = kcap < n // 2
    layers = np.zeros((kcap + 1 if capped else 1, 1 << n))
    cur, prev = (layers[1:], layers[:-1]) if capped else (layers, layers)
    for b, (sets, rest, src, partner, starts) in enumerate(_matching_blocks(n)):
        deadline.check()
        best = np.maximum.reduceat(prev[:, src] + w[n - 1 - b, partner], starts, axis=1)
        cur[:, sets] = np.maximum(best, cur[:, rest], out=best)

    # Walk the layers down one per chosen edge when capped, stay put when not.
    edges = []
    mask = (1 << n) - 1
    j = len(cur) - 1
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
    return Matching.from_pairs(n, [e for e in edges if w[e] > 0.0])


def opt_k_sum(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Clustering:
    """Exact max k-sum clustering by canonical partition enumeration.

    Partitions are enumerated with the lowest unassigned node anchoring
    each new part, so each partition appears exactly once; the whole
    table is scored at once, pair weights in (i, j) order within a part
    and parts in anchor order, and the first optimum is the
    lexicographically smallest.
    """
    n = inst.n
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n % k != 0:
        raise ValueError(f"k={k} must divide n={n}")
    if n > budget.max_n_k_sum:
        raise BudgetError(f"k-sum oracle capped at n={budget.max_n_k_sum}, got n={n}")
    deadline = _Deadline(budget.time_limit, "k-sum oracle")
    c = n // k

    # order[row] lists the filled parts, then the unassigned nodes ascending.
    # Every row has the same number of unassigned nodes, so the next part's
    # anchor plus each lex-ordered combination of later positions, followed
    # by the positions left over, is one permutation shared by all rows.
    order = np.arange(n)[None]
    for lo in range(0, n - c, c):
        deadline.check()
        rest = range(lo + 1, n)
        perms = [[*range(lo + 1), *pick, *(x for x in rest if x not in pick)]
                 for pick in itertools.combinations(rest, c - 1)]
        order = order[:, perms].reshape(-1, n)

    parts = order.reshape(len(order), k, c)
    wf = inst.weights.ravel()
    part_val = np.zeros((len(order), k))
    for i in range(c):
        for j in range(i + 1, c):
            part_val += wf.take(parts[:, :, i] * n + parts[:, :, j])
    total = np.zeros(len(order))
    for q in range(k):
        total += part_val[:, q]
    top = int(total.argmax())
    return Clustering(n, order[top].reshape(k, c).tolist())


@functools.cache
def _combinations(n: int, k: int) -> np.ndarray:
    """The k-combinations of range(n) in lexicographic order, one per column:
    a (k, C(n, k)) table, kept for the process. Its dtype is the narrowest
    unsigned one that holds n * n - 1 (uint8 up to n=16, uint16 up to
    n=256), so a flat index i * n + j computed in it is exact."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    dtype = np.min_scalar_type(n * n - 1)
    table = np.fromiter(flat, dtype, math.comb(n, k) * k).reshape(-1, k).T.copy()
    table.flags.writeable = False
    return table


def opt_densest(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Subset:
    """Exact densest k-subgraph by scoring every k-combination (lex order) at once.

    Pair weights are added in (i, j) order, so values keep a scalar sum's
    bits, and the first maximum is the lexicographically smallest subset.
    """
    n = inst.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if n > budget.max_n_densest:
        raise BudgetError(f"densest oracle capped at n={budget.max_n_densest}, got n={n}")
    deadline = _Deadline(budget.time_limit, "densest oracle")
    wf = inst.weights.ravel()
    c = _combinations(n, k)
    val = np.zeros(c.shape[1])
    for i in range(k):
        deadline.check()
        row = c[i] * n
        for j in range(i + 1, k):
            val += wf.take(row + c[j])
    return Subset(n, tuple(c[:, int(val.argmax())].tolist()))


@functools.cache
def _held_karp_steps(m: int) -> tuple:
    """Column of every m-bit mask within its popcount layer, the layer
    starts, and per layer p >= 2 the (m, C_p) int32 table that fills it.

    ``steps[p][j, c]`` indexes the previous layer's (m, C_(p-1)) block of
    maxima, flattened behind a -inf slot 0: entry (j, S ^ 2^j) for the
    mask S of column c when j is in S, the -inf slot otherwise.
    """
    masks, start = _by_popcount(m)
    pos = np.empty(1 << m, np.int32)
    pos[masks] = np.arange(1 << m) - np.repeat(start[:-1], np.diff(start))
    j = np.arange(m)[:, None]
    steps = [None, None]
    for p in range(2, m + 1):
        layer, c = masks[start[p]:start[p + 1]], start[p] - start[p - 1]
        step = pos[layer ^ (1 << j)] + j * c + 1
        steps.append(np.where(layer >> j & 1, step, 0).astype(np.int32))
    for t in (pos, *steps[2:]):
        t.flags.writeable = False
    return pos, start, tuple(steps)


def opt_tsp(inst: WeightedInstance, budget: OracleBudget = DEFAULT_BUDGET) -> Tour:
    """Exact max-weight tour by Held-Karp DP over (endpoint, mask).

    The table is one endpoint-major (m, C_p) block per popcount layer p,
    the blocks back to back. A layer takes the max over the previous
    endpoint i of the previous block plus w[i, j], for every j and column,
    in place, then moves each max to its (j, S) entry with one take. Node
    0 anchors the tour; reconstruction takes the smallest endpoint
    achieving each DP value and the lex-smaller of the two directions.
    """
    n = inst.n
    if n < 3:
        raise ValueError(f"tsp oracle needs n >= 3, got {n}")
    if n > budget.max_n_tsp:
        raise BudgetError(f"tsp oracle capped at n={budget.max_n_tsp}, got n={n}")
    deadline = _Deadline(budget.time_limit, "tsp oracle")
    w = inst.weights
    m = n - 1  # nodes 1..n-1, stored as 0..m-1
    pos, start, steps = _held_karp_steps(m)
    # dp[p][j, pos[S]]: best path from node 0 through S (p nodes) ending at j; -inf off S
    dp = [block.reshape(m, -1) for block in np.split(np.empty(m << m), m * start[1:-1])]
    dp[1][...] = np.where(np.eye(m, dtype=bool), w[0, 1:], -np.inf)
    flat = np.full(1 + max(layer.size for layer in dp), -np.inf)  # flat[0] stays -inf
    scratch = np.empty_like(flat)
    for p in range(2, m + 1):
        deadline.check()
        prev = dp[p - 1]
        best, tmp = flat[1:prev.size + 1].reshape(m, -1), scratch[:prev.size].reshape(m, -1)
        np.add(prev[0], w[1, 1:, None], out=best)
        for i in range(1, m):
            np.add(prev[i], w[i + 1, 1:, None], out=tmp)
            np.maximum(best, tmp, out=best)
        flat.take(steps[p], out=dp[p], mode="clip")  # indices are in range

    last = int((dp[m][:, 0] + w[1:, 0]).argmax())  # first maximum: the smallest endpoint
    seq, mask = [last], (1 << m) - 1
    for p in range(m, 1, -1):
        prev_mask = mask ^ (1 << last)
        target, col = dp[p][last, pos[mask]], pos[prev_mask]
        for q in range(m):
            if prev_mask >> q & 1 and dp[p - 1][q, col] + w[last + 1, q + 1] == target:
                seq.append(q)
                mask, last = prev_mask, q
                break
        else:
            raise AssertionError("tsp reconstruction lost the DP trail")

    forward = (0,) + tuple(x + 1 for x in reversed(seq))
    backward = (0,) + tuple(reversed(forward[1:]))
    return Tour(n, min(forward, backward))
