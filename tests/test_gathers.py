"""The batched draw kernels and weight gathers against their first forms, bit for bit.

``core`` and ``reductions`` gather by flat ``take``; ``_brute`` keeps the 2-D fancy
indexes, ``take_along_axis`` and per-row sorts they replaced, and the hybrid that built
both branches for every draw. Rows and values must be the same bits (``np.array_equal``,
not a tolerance) for 0, 1, 2, 500 and 4097 draws (past a sample block), odd and even n
from 3 to 16 (the hybrid from 2), hybrid, random (perfect and not), bipartite (edges drawn
high endpoint first) and the greedy's repeated ``broadcast_to`` rows, and 0-edge matchings.
"""

import math

import _brute
import numpy as np
import pytest

from ordmatch import (
    GeneratorSpec,
    derive_preferences,
    generate,
    greedy_k_matching,
    hybrid_matchings,
    matchings_to_clusters,
    matchings_to_subsets,
    matchings_to_tours,
    random_k_matchings,
)
from ordmatch.core import _row, matching_values
from ordmatch.harness import SAMPLE_BLOCK
from ordmatch.reductions import (
    _pairs,
    _sorted_edges,
    _stitch,
    cluster_values,
    path_values,
    subset_values,
    tour_values,
)

DRAWS = (0, 1, 2, 500, SAMPLE_BLOCK + 1)
NS = range(3, 17)


def setting(n: int):
    """The seed-n instance of size n and its profile."""
    inst = generate(GeneratorSpec("euclidean-uniform", n, seed=n))
    return inst, derive_preferences(inst)


def greedy_rows(profile, size: int, draws: int) -> np.ndarray:
    """The greedy's ``size``-edge matching repeated ``draws`` times, as ``harness`` draws it."""
    row = _row(greedy_k_matching(profile, size))
    return np.broadcast_to(row, (draws, *row.shape[1:]))


def batches(profile, draws: int, gen) -> dict:
    """Matching batches of every kind on the profile's nodes."""
    n, half = profile.n, profile.n // 2
    return {
        "hybrid": hybrid_matchings(profile, draws, gen),
        "random": random_k_matchings(range(n), half, draws, gen),
        "partial": random_k_matchings(range(n), (n - 1) // 3, draws, gen),
        "bipartite": random_k_matchings(range(half, n), half, draws, gen, other=range(half)),
        "greedy": greedy_rows(profile, half, draws),
        "empty": np.empty((draws, 0, 2), np.intp),
    }


@pytest.mark.parametrize("n", NS)
def test_matching_values_and_sorted_edges(n):
    inst, profile = setting(n)
    w = inst.weights
    for draws in DRAWS:
        for kind, m in batches(profile, draws, np.random.default_rng([n, draws])).items():
            assert m.shape[0] == draws
            got = matching_values(m, w)
            assert got.shape == (draws,)
            assert np.array_equal(got, _brute.fancy_matching_values(m, w)), (kind, draws)
            edges, want = _sorted_edges(m), _brute.sort_edges(m)
            assert edges.dtype == want.dtype and np.array_equal(edges, want), (kind, draws)


@pytest.mark.parametrize("n", range(2, 17))
def test_hybrid_matches_the_two_branch_build(n):
    """One array filled as branch A, branch-B rows by swapping endpoints, against both branches
    built for every row and chosen by ``np.where``: same rows, same draws consumed."""
    profile = setting(n)[1]
    m0 = _row(greedy_k_matching(profile, math.ceil(n / 3)))[0]
    for draws in DRAWS:
        gen, ref = np.random.default_rng([n, draws]), np.random.default_rng([n, draws])
        got, want = hybrid_matchings(profile, draws, gen), _brute.two_branch_hybrid(m0, n, draws, ref)
        assert got.dtype == want.dtype and np.array_equal(got, want), draws
        assert gen.random() == ref.random(), draws


@pytest.mark.parametrize("n", NS)
def test_stitch_tours_and_paths(n):
    inst, profile = setting(n)
    w = inst.weights
    for draws in DRAWS:
        gen = np.random.default_rng([n, draws])
        for kind, m in batches(profile, draws, gen).items():
            if m.shape[1] == 0:
                continue
            edges = _brute.sort_edges(m)
            nodes = edges.reshape(draws, 2 * m.shape[1])  # a start per row, at any slot
            start = nodes[np.arange(draws), gen.integers(0, nodes.shape[1], size=draws)]
            paths = _stitch(edges, start, profile)
            want = _brute.argsort_stitch(edges, start, profile.ranking)
            assert np.array_equal(paths, want), (kind, draws)
            assert np.array_equal(path_values(paths, w), _brute.fancy_path_values(paths, w))
            if m.shape[1] == n // 2:
                seed = [n, draws, 1]
                tours = matchings_to_tours(m, profile, np.random.default_rng(seed))
                want = _brute.sort_tours(m, profile.ranking, np.random.default_rng(seed))
                assert np.array_equal(tours, want), (kind, draws)
                assert np.array_equal(tour_values(tours, w), _brute.fancy_tour_values(tours, w))


@pytest.mark.parametrize("n", NS)
def test_cluster_and_subset_values(n):
    """Every divisor k: the reduction's parts, and plain shuffles cut into k parts (size-1
    parts weigh nothing); the endpoints of every batch as subsets."""
    inst, profile = setting(n)
    w = inst.weights
    for draws in DRAWS:
        gen = np.random.default_rng([n, draws])
        shuffled = gen.permuted(np.tile(np.arange(n), (draws, 1)), axis=1)
        for k in (k for k in range(1, n + 1) if n % k == 0):
            c = n // k
            size = n // 2 if c % 2 == 0 else (n - k) // 2
            rows = [random_k_matchings(range(n), size, draws, gen)]
            if size:
                rows.append(greedy_rows(profile, size, draws))
            if size == n // 2:
                rows.append(hybrid_matchings(profile, draws, gen))
            parts = [shuffled.reshape(draws, k, c), *(matchings_to_clusters(m, n, k) for m in rows)]
            for p in parts:
                want = _brute.fancy_cluster_values(p, w)
                assert np.array_equal(cluster_values(p, w), want), (k, draws)
        for kind, m in batches(profile, draws, gen).items():
            nodes = matchings_to_subsets(m)
            want = _brute.fancy_cluster_values(nodes[:, None, :], w)
            assert np.array_equal(subset_values(nodes, w), want), (kind, draws)


def test_pair_tables_are_cached_and_read_only():
    for size in (0, 1, 2, 5, 12):
        i, j = _pairs(size)
        assert _pairs(size) is _pairs(size)
        want_i, want_j = np.triu_indices(size, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        for t in (i, j):
            assert not t.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                t[...] = 0
