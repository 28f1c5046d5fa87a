"""Exact desk-scale oracles for the four objectives.

These see the hidden weights; they exist to score the ordinal algorithms,
not to compete with them. Every solver enforces an explicit size budget
and a wall-clock ceiling, and breaks ties deterministically (smallest
node first) so repeated runs reproduce the same solution object.
"""

from __future__ import annotations

import functools
import itertools
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
DENSEST_CHUNK = 8192  # combinations scored per numpy pass


class _Deadline:
    def __init__(self, seconds: float, what: str):
        self.t_end = time.monotonic() + seconds
        self.what = what

    def check(self):
        if time.monotonic() > self.t_end:
            raise BudgetError(f"{self.what} exceeded its time budget")


@functools.cache
def _by_popcount(n: int) -> tuple:
    """Every n-bit mask ordered by popcount, its lowest set bit, and the layer starts.

    Masks of popcount p are ``masks[start[p]:start[p + 1]]``, ascending.
    """
    count = np.zeros(1, np.int8)
    low = np.full(1, -1, np.int8)
    for b in range(n):
        count = np.concatenate([count, count + 1])
        low = np.concatenate([low, low])
        low[1 << b] = b
    order = np.argsort(count, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(count, minlength=n + 1))])
    tables = (order.astype(np.int32), low[order], start)
    for t in tables:
        t.flags.writeable = False
    return tables


def opt_matching(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Matching:
    """Maximum-weight matching with at most k edges, by subset DP.

    The DP fills one popcount layer of masks at a time in numpy. Ties go
    to the lexicographically smallest edge set: reconstruction pairs the
    lowest unmatched node with the smallest partner that still achieves
    the optimum, and zero-weight edges are pruned afterwards.
    """
    n = inst.n
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n > budget.max_n_matching:
        raise BudgetError(f"matching oracle capped at n={budget.max_n_matching}, got n={n}")
    deadline = _Deadline(budget.time_limit, "matching oracle")
    w = inst.weights
    kcap = min(k, n // 2)
    masks, lows, start = _by_popcount(n)

    # layers[j][mask] = best weight on mask using at most j edges. Without
    # a binding cap one layer suffices and it is its own previous layer.
    # cur[j] and prev[j] are the layers for j + 1 and j edges; popcount p
    # of every layer is filled at once, from p - 1 of cur and p - 2 of prev.
    capped = kcap < n // 2
    layers = np.zeros((kcap + 1 if capped else 1, 1 << n))
    cur, prev = (layers[1:], layers[:-1]) if capped else (layers, layers)
    for p in range(2, n + 1):
        deadline.check()
        mask, low = masks[start[p]:start[p + 1]], lows[start[p]:start[p + 1]]
        rest = mask & (mask - 1)
        best = cur.take(rest, axis=1)
        for v in range(1, n):
            has = np.flatnonzero(rest & (1 << v))
            cand = w[low[has], v] + prev.take(rest[has] ^ (1 << v), axis=1)
            best[:, has] = np.maximum(best.take(has, axis=1), cand)
        cur[:, mask] = best

    # Walk the layers down one per chosen edge when capped, stay put when not.
    edges = []
    mask = (1 << n) - 1
    j = len(cur) - 1
    while j >= 0:
        lowbit = mask & -mask
        rest = mask ^ lowbit
        if rest == 0:
            break
        low = lowbit.bit_length() - 1
        best = cur[j, mask]
        chosen = -1
        t = rest
        while t:
            vbit = t & -t
            v = vbit.bit_length() - 1
            if w[low, v] + prev[j, rest ^ vbit] == best:
                chosen = v
                break
            t ^= vbit
        if chosen < 0:
            mask = rest
        else:
            edges.append((low, chosen))
            mask = rest ^ (1 << chosen)
            j -= capped
    return Matching.from_pairs(n, [e for e in edges if w[e] > 0.0])


def opt_k_sum(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Clustering:
    """Exact max k-sum clustering by canonical partition enumeration.

    Partitions are enumerated with the lowest unassigned node anchoring
    each new part, so each partition appears exactly once and the first
    optimum found is the lexicographically smallest.
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
    w = inst.weights.tolist()

    best_val = -1.0
    best_parts: list | None = None
    leaves = 0

    def part_value(part) -> float:
        s = 0.0
        for i in range(len(part)):
            row = w[part[i]]
            for j in range(i + 1, len(part)):
                s += row[part[j]]
        return s

    def descend(remaining: tuple, acc: float, parts: list):
        nonlocal best_val, best_parts, leaves
        if not remaining:
            leaves += 1
            if leaves % 1024 == 0:
                deadline.check()
            if acc > best_val:
                best_val = acc
                best_parts = list(parts)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        for combo in itertools.combinations(rest, c - 1):
            part = (anchor,) + combo
            taken = set(combo)
            parts.append(part)
            descend(tuple(x for x in rest if x not in taken), acc + part_value(part), parts)
            parts.pop()

    descend(tuple(range(n)), 0.0, [])
    assert best_parts is not None
    return Clustering(n, tuple(best_parts))


def opt_densest(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Subset:
    """Exact densest k-subgraph by subset enumeration (lex order), in chunks.

    Pair weights are added in (i, j) order, so values keep a scalar sum's bits.
    """
    n = inst.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if n > budget.max_n_densest:
        raise BudgetError(f"densest oracle capped at n={budget.max_n_densest}, got n={n}")
    deadline = _Deadline(budget.time_limit, "densest oracle")
    w = inst.weights
    combos = itertools.combinations(range(n), k)
    best_val = -1.0
    best_nodes: tuple | None = None
    while True:
        deadline.check()
        chunk = itertools.chain.from_iterable(itertools.islice(combos, DENSEST_CHUNK))
        c = np.fromiter(chunk, np.intp).reshape(-1, k)
        if not len(c):
            break
        val = np.zeros(len(c))
        for i in range(k):
            for j in range(i + 1, k):
                val += w[c[:, i], c[:, j]]
        top = int(val.argmax())
        if val[top] > best_val:
            best_val = val[top]
            best_nodes = tuple(c[top].tolist())
    assert best_nodes is not None
    return Subset(n, best_nodes)


def opt_tsp(inst: WeightedInstance, budget: OracleBudget = DEFAULT_BUDGET) -> Tour:
    """Exact max-weight tour by Held-Karp DP over (mask, endpoint).

    The DP fills one popcount layer of masks at a time in numpy. Node 0
    anchors the tour; reconstruction takes the smallest endpoint
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
    masks, _, start = _by_popcount(m)
    # dp[mask, j]: best path from node 0 through mask ending at j; -inf off mask
    dp = np.full((1 << m, m), -np.inf)
    dp[1 << np.arange(m), np.arange(m)] = w[0, 1:]
    for p in range(2, m + 1):
        deadline.check()
        layer = masks[start[p]:start[p + 1]]
        for j in range(m):
            mask = layer[(layer & (1 << j)) != 0]
            dp[mask, j] = (dp[mask ^ (1 << j)] + w[1:, j + 1]).max(axis=1)

    fullmask = (1 << m) - 1
    best_total = -np.inf
    best_last = -1
    for last in range(m):
        total = dp[fullmask, last] + w[last + 1, 0]
        if total > best_total:
            best_total = total
            best_last = last

    seq = [best_last]
    mask = fullmask
    last = best_last
    while mask != (1 << last):
        prev_mask = mask ^ (1 << last)
        target = dp[mask, last]
        t = prev_mask
        while t:
            pbit = t & -t
            p = pbit.bit_length() - 1
            t ^= pbit
            if dp[prev_mask, p] + w[last + 1, p + 1] == target:
                seq.append(p)
                mask = prev_mask
                last = p
                break
        else:
            raise AssertionError("tsp reconstruction lost the DP trail")

    forward = (0,) + tuple(x + 1 for x in reversed(seq))
    backward = (0,) + tuple(reversed(forward[1:]))
    return Tour(n, min(forward, backward))
