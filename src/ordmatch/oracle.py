"""Exact desk-scale oracles for the four objectives.

These see the hidden weights; they exist to score the ordinal algorithms,
not to compete with them. Every solver passes one gate, ``_gate``: a size
cap and a wall-clock ceiling from ``DEFAULT_BUDGET``. Each breaks ties by
the rule its docstring states, so repeated runs reproduce the same solution.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .core import Matching
from .instance import WeightedInstance, _count, _integer, _typed
from .reductions import Clustering, Subset, Tour, _parts

__all__ = [
    "BudgetError",
    "DEFAULT_BUDGET",
    "opt_densest",
    "opt_k_sum",
    "opt_matching",
    "opt_tsp",
]


class BudgetError(ValueError):
    """An exact oracle call exceeded its size or time budget."""


@dataclass(frozen=True)
class OracleBudget:
    """Per-problem size caps plus a wall-clock ceiling per call: the record type of
    ``DEFAULT_BUDGET``, the one budget every oracle call reads."""

    max_n_matching: int = 20
    max_n_k_sum: int = 16
    max_n_densest: int = 20
    max_n_tsp: int = 15
    time_limit: float = 60.0


DEFAULT_BUDGET = OracleBudget()
_HELD_KARP_CHUNK = 1 << 14  # entries per Held-Karp gather: its buffers (0.4 MB) stay in L2


def _cap(what: str, n: int) -> None:
    """BudgetError if n is past the ``max_n_<what>`` cap of ``DEFAULT_BUDGET`` as it reads now."""
    if n > (cap := getattr(DEFAULT_BUDGET, "max_n_" + what.replace("-", "_"))):
        raise BudgetError(f"{what} oracle capped at n={cap}, got n={n}")


def _gate(what: str, inst: WeightedInstance) -> tuple:
    """A ``what`` oracle call opened: ``inst``'s n and weights, and the clock check of
    ``DEFAULT_BUDGET`` as it reads now. ValueError unless ``inst`` is a ``WeightedInstance``;
    BudgetError past its ``_cap`` or, from the clock, the time limit."""
    _cap(what, n := _typed(inst, WeightedInstance, "inst").n)
    t_end = time.monotonic() + DEFAULT_BUDGET.time_limit

    def clock():
        if time.monotonic() > t_end:
            raise BudgetError(f"{what} oracle exceeded its time budget")
    return n, inst.weights, clock


def _popcount_layers(n: int, lo: int, hi: int) -> list:
    """Per p in lo..hi, the p-subsets of range(n) in ascending mask order (bit b
    for node b), each as a row of its members, ascending. Node b puts the (p - 1)-
    subsets plus b after the p-subsets of range(b); no 2^n table is made."""
    dtype = np.min_scalar_type(max(n - 1, 0))
    layers = {0: np.zeros((1, 0), dtype)}
    for b in range(n):
        layers = {0: layers[0]} | {
            p: np.concatenate([layers.get(p, np.zeros((0, p), dtype)), np.column_stack(
                [layers[p - 1], np.full(len(layers[p - 1]), b, dtype)])])
            for p in range(max(1, lo - n + b + 1), min(b + 1, hi) + 1)}
    return [layers[p] for p in range(lo, hi + 1)]


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


def opt_matching(inst: WeightedInstance, k: int) -> Matching:
    """Maximum-weight matching with at most k edges, by subset DP.

    Bit b of a table index stands for node n - 1 - b, so the block of
    indices [2^b, 2^(b+1)) holds the sets whose lowest node is n - 1 - b
    and reads only indices below 2^b; a block fills only the sets reachable
    from the full set, by one gather and one maximum.reduceat. Ties go to
    the lexicographically smallest edge set: reconstruction pairs the lowest
    unmatched node with the smallest partner that still achieves the
    optimum, and zero-weight edges are pruned afterwards.
    """
    n, w, clock = _gate("matching", inst)
    kcap = min(_count(k, "k", 1), n // 2)

    # layers[j][mask] = best weight on mask using at most j edges. Without
    # a binding cap one layer suffices and it is its own previous layer.
    # cur[j] and prev[j] are the layers for j + 1 and j edges.
    capped = kcap < n // 2
    layers = np.zeros((kcap + 1 if capped else 1, 1 << n))
    cur, prev = (layers[1:], layers[:-1]) if capped else (layers, layers)
    for b, (sets, rest, src, partner, starts) in enumerate(_matching_blocks(n)):
        clock()
        best = np.maximum.reduceat(prev.take(src, axis=1) + w[n - 1 - b].take(partner), starts,
                                   axis=1)
        cur[:, sets] = np.maximum(best, cur.take(rest, axis=1), out=best)

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


@functools.cache
def _combinations(n: int, k: int) -> np.ndarray:
    """The k-combinations of range(n) in lexicographic order, one per column:
    a (k, C(n, k)) table, kept for the process. Its dtype is the narrowest
    unsigned one that holds n * n - 1 (uint8 up to n=16, uint16 up to
    n=256), so a flat index i * n + j computed in it is exact. Node i is
    bit n - 1 - i: lexicographic order is descending mask order."""
    members = _popcount_layers(n, k, k)[0]
    table = np.empty((k, len(members)), np.min_scalar_type(n * n - 1))
    np.subtract(n - 1, members[::-1, ::-1].T, out=table)
    table.flags.writeable = False
    return table


def _subset_values(w: np.ndarray, k: int, clock) -> np.ndarray:
    """Each ``_combinations(n, k)`` column's weight, pairs added in (i, j) order: a scalar sum."""
    n, wf, c = len(w), w.ravel(), _combinations(len(w), k)
    val = np.zeros(c.shape[1])
    for i in range(k):
        clock()
        row = c[i] * n
        for j in range(i + 1, k):
            val += wf.take(row + c[j])
    return val


def opt_densest(inst: WeightedInstance, k: int) -> Subset:
    """Exact densest k-subgraph: the lex-first maximum of ``_subset_values``."""
    n, w, clock = _gate("densest", inst)
    if not 1 <= (k := _integer(k, "k")) <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    top = int(_subset_values(w, k, clock).argmax())
    return Subset(n, tuple(_combinations(n, k)[:, top].tolist()))


def opt_k_sum(inst: WeightedInstance, k: int) -> Clustering:
    """Exact max k-sum clustering by a forward DP over covered sets.

    Each part holds the lowest uncovered node; a covered set keeps its best
    running sum of ``_subset_values`` in anchor order, and the last part is
    the complement. Rounding is monotone, so the optimum keeps the best
    partition's bits. Sets stay in the order of their partitions and each
    keeps its first best lex-ordered candidate: ties go to the lex-smallest
    partition whose every prefix has the best running sum for its covered set.
    """
    n, w, clock = _gate("k-sum", inst)
    k = _parts(n, k)
    c, full = n // k, (1 << n) - 1
    value = _subset_values(w, c, clock)
    part_of = np.zeros(1 << n, np.intp)  # c-subset mask (bit i for node i) -> its column
    part_of[(1 << _combinations(n, c).astype(np.int64)).sum(axis=0)] = np.arange(len(value))
    # per set, its best running sum and first best candidate; layers' sets differ in size
    best, first = np.full(1 << n, -np.inf), np.full(1 << n, np.iinfo(np.intp).max)
    sets, run, trail = np.zeros(1, np.int64), np.zeros(1), []
    for _ in range(k - 1):
        clock()
        free = np.nonzero(~sets[:, None] >> np.arange(n) & 1)[1].reshape(len(sets), -1)
        pick = free[:, 1 + _combinations(free.shape[1] - 1, c - 1)]  # c - 1 more, lex order
        parts = 1 << free[:, :1] | (1 << pick).sum(axis=1)  # with the lowest free node
        cand, to = (run[:, None] + value[part_of[parts]]).ravel(), (sets[:, None] | parts).ravel()
        np.maximum.at(best, to, cand)
        tight = np.flatnonzero(cand == best[to])
        np.minimum.at(first, to[tight], tight)
        kept = tight[first[to[tight]] == tight]
        trail.append((kept // parts.shape[1], parts.ravel()[kept]))
        sets, run = to[kept], cand[kept]
    top = int((run + value[part_of[sets ^ full]]).argmax())  # the last part: the complement
    masks = [full ^ int(sets[top])]
    for parent, part in reversed(trail):
        top, masks = parent[top], [int(part[top]), *masks]
    return Clustering(n, [[i for i in range(n) if m >> i & 1] for m in masks])


@functools.cache
def _held_karp_steps(m: int) -> tuple:
    """Per layer p >= 2 of m-bit masks, two read-only (p - 1, C_p * p) tables in
    the narrowest unsigned dtypes that hold them. Layer p's entry (S, j) for j in
    S is pos[S] * p + (rank of j in S), pos[S] the rank of S among the p-bit
    masks; row k of its column names, for the k-th member i of S ^ 2^j, entry
    (S ^ 2^j, i) of layer p - 1 and the pair i * m + j."""
    layers = _popcount_layers(m, 1, m)  # layers[p - 1][pos[S]]: the members of S
    pos, steps = np.empty(1 << m, np.int32), [None, None]
    for ends in layers:
        pos[(1 << ends.astype(np.int64)).sum(axis=1)] = np.arange(len(ends))
    for p, ends in enumerate(layers[1:], 2):
        bits = 1 << ends.astype(np.int64)
        base = pos[bits.sum(axis=1, keepdims=True) ^ bits] * (p - 1)  # S ^ 2^j in layer p - 1
        index = np.empty((p - 1, *ends.shape), np.min_scalar_type(layers[p - 2].size - 1))
        pair = np.empty(index.shape, np.min_scalar_type(m * m - 1))
        for k in range(p - 1):  # i: member k + 1 of S for the first k + 1 j, member k after
            index[k] = base + k
            pair[k, :, :k + 1], pair[k, :, k + 1:] = ends[:, k + 1, None], ends[:, k, None]
        steps.append((index.reshape(p - 1, -1), (pair * m + ends).reshape(p - 1, -1)))
    for t in (x for step in steps[2:] for x in step):
        t.flags.writeable = False
    return tuple(steps)


def opt_tsp(inst: WeightedInstance) -> Tour:
    """Exact max-weight tour by Held-Karp DP over (mask, endpoint).

    Layer p, a value per mask of p free nodes and endpoint in it, is filled
    from the feasible (mask, endpoint, predecessor) triples only, in chunks:
    a gather of the previous layer's values and one of the pair weights, an
    add and a max over the predecessors. Node 0 anchors the tour;
    reconstruction reads the same tables back, taking the smallest endpoint
    achieving each DP value, and the lex-smaller of the two directions.
    """
    n, w, clock = _gate("tsp", inst)
    if n < 3:
        raise ValueError(f"tsp oracle needs n >= 3, got {n}")
    m = n - 1  # nodes 1..n-1, stored as 0..m-1
    steps = _held_karp_steps(m)
    pairs = w[1:, 1:].ravel()  # pair i * m + j: the edge between nodes i + 1 and j + 1
    # dp[p][pos[S] * p + r]: best path from node 0 through S (p nodes) ending at its r-th member.
    # One buffer holds every layer: per-layer arrays faulted in fresh pages on each warm call.
    flat = np.empty(m << (m - 1))
    dp, end = [None, flat[:m]], m
    dp[1][...] = w[0, 1:]
    at = np.empty(_HELD_KARP_CHUNK, np.intp)  # take would cast a narrow table to a fresh intp copy
    val, add = np.empty(_HELD_KARP_CHUNK), np.empty(_HELD_KARP_CHUNK)
    for p in range(2, m + 1):
        clock()
        index, pair = steps[p]
        dp.append(flat[end:end + index.shape[1]])
        end += index.shape[1]
        for a in range(0, index.shape[1], _HELD_KARP_CHUNK // (p - 1)):
            cut = slice(a, a + _HELD_KARP_CHUNK // (p - 1))
            ix, v, u = (buf[:index[:, cut].size].reshape(p - 1, -1) for buf in (at, val, add))
            np.copyto(ix, index[:, cut])
            dp[p - 1].take(ix, out=v, mode="clip")  # indices are in range
            np.copyto(ix, pair[:, cut])
            pairs.take(ix, out=u, mode="clip")
            np.maximum.reduce(np.add(v, u, out=v), axis=0, out=dp[p][cut])

    e = int((dp[m] + w[1:, 0]).argmax())  # the smallest best endpoint: entry e of the full set
    seq = [e]
    for p in range(m, 1, -1):  # the first predecessor row that achieves entry e's value
        index, pair = steps[p]
        for i, q in zip(index[:, e].tolist(), pair[:, e].tolist()):
            if dp[p - 1][i] + pairs[q] == dp[p][e]:
                seq.append(q // m)
                e = i
                break
        else:
            raise AssertionError("tsp reconstruction lost the DP trail")

    forward = (0,) + tuple(x + 1 for x in reversed(seq))
    backward = (0,) + tuple(reversed(forward[1:]))
    return Tour(n, min(forward, backward))
