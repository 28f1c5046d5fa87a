"""Exact desk-scale oracles for the four objectives.

These see the hidden weights; they exist to score the ordinal algorithms,
not to compete with them. Every solver enforces an explicit size budget
and a wall-clock ceiling, and breaks ties deterministically (smallest
node first) so repeated runs reproduce the same solution object.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

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


def opt_matching(inst: WeightedInstance, k: int, budget: OracleBudget = DEFAULT_BUDGET) -> Matching:
    """Maximum-weight matching with at most k edges, by subset DP.

    Ties go to the lexicographically smallest edge set: reconstruction
    pairs the lowest unmatched node with the smallest partner that still
    achieves the optimum, and zero-weight edges are pruned afterwards.
    """
    n = inst.n
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if n > budget.max_n_matching:
        raise BudgetError(f"matching oracle capped at n={budget.max_n_matching}, got n={n}")
    deadline = _Deadline(budget.time_limit, "matching oracle")
    w = inst.weights.tolist()
    kcap = min(k, n // 2)
    full = 1 << n

    # layers[j][mask] = best weight on mask using at most j edges. Without
    # a binding cap one layer suffices and it is its own previous layer.
    capped = kcap < n // 2
    layers = [[0.0] * full for _ in range(kcap + 1 if capped else 1)]
    pairs = list(zip(layers[1:], layers)) if capped else [(layers[0], layers[0])]
    for cur, prev in pairs:
        for mask in range(3, full):
            if mask % 512 == 0:
                deadline.check()
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

    # Walk the layers down one per chosen edge when capped, stay put when not.
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
    return Matching.from_pairs(n, [e for e in edges if w[e[0]][e[1]] > 0.0])


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
    """Exact densest k-subgraph by subset enumeration (lex order)."""
    n = inst.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if n > budget.max_n_densest:
        raise BudgetError(f"densest oracle capped at n={budget.max_n_densest}, got n={n}")
    deadline = _Deadline(budget.time_limit, "densest oracle")
    w = inst.weights.tolist()
    best_val = -1.0
    best_nodes: tuple | None = None
    for count, combo in enumerate(itertools.combinations(range(n), k)):
        if count % 4096 == 0:
            deadline.check()
        val = 0.0
        for i in range(k):
            row = w[combo[i]]
            for j in range(i + 1, k):
                val += row[combo[j]]
        if val > best_val:
            best_val = val
            best_nodes = combo
    assert best_nodes is not None
    return Subset(n, best_nodes)


def opt_tsp(inst: WeightedInstance, budget: OracleBudget = DEFAULT_BUDGET) -> Tour:
    """Exact max-weight tour by Held-Karp DP over (mask, endpoint).

    Node 0 anchors the tour; reconstruction takes the smallest endpoint
    achieving each DP value and the lex-smaller of the two directions.
    """
    n = inst.n
    if n < 3:
        raise ValueError(f"tsp oracle needs n >= 3, got {n}")
    if n > budget.max_n_tsp:
        raise BudgetError(f"tsp oracle capped at n={budget.max_n_tsp}, got n={n}")
    deadline = _Deadline(budget.time_limit, "tsp oracle")
    w = inst.weights.tolist()
    m = n - 1  # nodes 1..n-1, stored as 0..m-1
    size = 1 << m
    NEG = float("-inf")
    dp = [NEG] * (size * m)
    for i in range(m):
        dp[(1 << i) * m + i] = w[0][i + 1]

    for mask in range(1, size):
        if mask % 512 == 0:
            deadline.check()
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
            comp = (size - 1) ^ mask
            u = comp
            while u:
                ubit = u & -u
                nxt = ubit.bit_length() - 1
                u ^= ubit
                cand = cur + row[nxt + 1]
                slot = (mask | ubit) * m + nxt
                if cand > dp[slot]:
                    dp[slot] = cand
            # ties keep the earlier (smaller-mask-order) value; reconstruction
            # below re-breaks ties toward the smallest node anyway

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
    return Tour(n, min(forward, backward))
