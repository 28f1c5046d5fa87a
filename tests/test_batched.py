"""Batched samplers against their scalar references.

The scalar references in ``_brute`` (``hybrid_matching``,
``random_k_edges``, ``path_completion``, ``tour_completion``), driven
one decision at a time by a ``random.Random``, define each distribution;
the package's own scalar names are one draw of the batched path, so
they cannot serve. Each test draws from a reference and from the batched
path with fixed seeds and sample counts and compares outcome frequencies
with a two-sample chi-square (``chi2_contingency``, p > 0.001 as in C3).

The categories are whole outcomes (a matching, a subset, a start node),
so every draw lands in exactly one category and the counts are
multinomial, as the test assumes. Per-edge counts of one matching are
not: its edges co-occur (at n=6 a released prefix edge brings both of
its new edges together), and a batched-vs-batched calibration of a
per-edge table rejected at several times the nominal rate. Per-edge
frequencies are a marginal of the outcome frequencies, so they are
covered too.
"""

import random
from collections import Counter

import _brute
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from ordmatch import (
    Clustering,
    EdgePool,
    GeneratorSpec,
    Matching,
    Subset,
    Tour,
    derive_preferences,
    expected_random_weight,
    generate,
    greedy_k_matching,
    hybrid_matchings,
    matchings_to_clusters,
    matchings_to_subsets,
    matchings_to_tours,
    random_k_matchings,
)

DRAWS = 20_000
P_MIN = 0.001


def partners(matchings: np.ndarray, n: int) -> np.ndarray:
    """(S, n) partner of each node, -1 if unmatched: one key per matching."""
    out = np.full((len(matchings), n), -1)
    rows = np.arange(len(matchings))[:, None]
    out[rows, matchings[..., 0]] = matchings[..., 1]
    out[rows, matchings[..., 1]] = matchings[..., 0]
    return out


def as_array(edge_lists) -> np.ndarray:
    return np.array(edge_lists).reshape(len(edge_lists), -1, 2)


def two_sample_p(scalar_keys: np.ndarray, batched_keys: np.ndarray) -> float:
    """Chi-square p-value that two samples of outcome keys share one law."""
    keys = np.concatenate([scalar_keys, batched_keys]).reshape(len(scalar_keys) + len(batched_keys), -1)
    _, codes = np.unique(keys, axis=0, return_inverse=True)
    codes = codes.ravel()
    cats = codes.max() + 1
    table = np.array([
        np.bincount(codes[: len(scalar_keys)], minlength=cats),
        np.bincount(codes[len(scalar_keys):], minlength=cats),
    ])
    if cats == 1:
        return 1.0
    return float(chi2_contingency(table).pvalue)


def weights_of(matchings: np.ndarray, inst) -> np.ndarray:
    return inst.weights[matchings[..., 0], matchings[..., 1]].sum(axis=1)


class TestHybridDistribution:
    @pytest.mark.parametrize("n,seed", [(6, 21), (12, 22)])
    def test_scalar_and_batched_agree(self, n, seed):
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=seed))
        prof = derive_preferences(inst)
        rng, rows = random.Random(seed), prof.ranking.tolist()
        scalar = partners(as_array([_brute.hybrid_matching(rows, rng) for _ in range(DRAWS)]), n)
        batched = partners(hybrid_matchings(prof, DRAWS, np.random.default_rng(seed)), n)
        assert two_sample_p(scalar, batched) > P_MIN

        # branch A keeps every prefix edge; branch B releases at least one
        m0 = greedy_k_matching(prof, -(-n // 3)).sorted_edges()

        def keeps_prefix(keys):
            return np.all([keys[:, u] == v for u, v in m0], axis=0)

        a_scalar, a_batched = keeps_prefix(scalar), keeps_prefix(batched)
        coin = chi2_contingency([
            [a_scalar.sum(), (~a_scalar).sum()],
            [a_batched.sum(), (~a_batched).sum()],
        ]).pvalue
        assert coin > P_MIN
        assert two_sample_p(scalar[a_scalar], batched[a_batched]) > P_MIN
        assert two_sample_p(scalar[~a_scalar], batched[~a_batched]) > P_MIN

    def test_shape_and_size(self):
        prof = derive_preferences(generate(GeneratorSpec("euclidean-uniform", 7, seed=0)))
        draws = hybrid_matchings(prof, 5, np.random.default_rng(0))
        assert draws.shape == (5, 3, 2)

    def test_same_seed_same_bytes(self):
        prof = derive_preferences(generate(GeneratorSpec("clustered-gaussian", 9, seed=1)))
        a = hybrid_matchings(prof, 50, np.random.default_rng(4))
        b = hybrid_matchings(prof, 50, np.random.default_rng(4))
        assert a.tobytes() == b.tobytes()


class TestRandomDistribution:
    @pytest.mark.parametrize(
        "pool_args,k,mode",
        [
            ((range(7), None, 7), 3, "complete"),
            ((range(4), range(4, 8), 8), 4, "bipartite"),
        ],
    )
    def test_scalar_and_batched_agree(self, pool_args, k, mode):
        side_a, side_b, n = pool_args
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=23))
        rng = random.Random(23)
        scalar = [_brute.random_k_edges(side_a, side_b, k, rng) for _ in range(DRAWS)]
        batched = random_k_matchings(EdgePool(side_a, side_b, n), k, DRAWS, np.random.default_rng(23))
        assert batched.shape == (DRAWS, k, 2)
        assert two_sample_p(partners(as_array(scalar), n), partners(batched, n)) > P_MIN

        sides = None if side_b is None else (side_a, side_b)
        target = expected_random_weight(inst, mode=mode, sides=sides)
        vals = weights_of(batched, inst)
        assert abs(vals.mean() - target) <= 3.0 * vals.std() / np.sqrt(DRAWS)

    def test_k_capped_at_pool_capacity(self):
        gen = np.random.default_rng(0)
        assert random_k_matchings(EdgePool.complete(range(5), 5), 9, 3, gen).shape == (3, 2, 2)
        assert random_k_matchings(EdgePool.bipartite([0], [1, 2], 3), 9, 3, gen).shape == (3, 1, 2)
        with pytest.raises(ValueError):
            random_k_matchings(EdgePool.complete(range(5), 5), -1, 3, gen)


class TestReductionDistribution:
    def test_densest_random_subsets_agree(self):
        n, k = 8, 4
        rng = random.Random(24)
        scalar = np.array([
            sorted(x for e in _brute.random_k_edges(range(n), None, k // 2, rng) for x in e)
            for _ in range(DRAWS)
        ])
        batched = matchings_to_subsets(
            random_k_matchings(EdgePool.complete(range(n), n), k // 2, DRAWS, np.random.default_rng(24))
        )
        assert two_sample_p(scalar, batched) > P_MIN

    def test_tsp_start_nodes_agree(self):
        n = 8
        prof = derive_preferences(generate(GeneratorSpec("clustered-gaussian", n, seed=25)))
        edges, rows = greedy_k_matching(prof, n // 2).sorted_edges(), prof.ranking.tolist()
        rng = random.Random(25)
        scalar = np.array([_brute.tour_completion(edges, rows, rng) for _ in range(DRAWS)])
        batch = np.broadcast_to(as_array([edges]), (DRAWS, n // 2, 2))
        batched = matchings_to_tours(batch, prof, np.random.default_rng(25))
        assert two_sample_p(scalar[:, :1], batched[:, :1]) > P_MIN
        # given its start node, a batched tour is exactly the scalar one
        for row in batched[:50]:
            assert row.tolist() == _brute.path_completion(edges, rows, rng, start=int(row[0]))


class TestReferenceEdgeSampler:
    def test_sample_edge_empty_pool(self):
        with pytest.raises(ValueError):
            _brute.sample_edge([0], None, random.Random(0))
        with pytest.raises(ValueError):
            _brute.sample_edge([0, 1], [], random.Random(0))

    def test_sample_edge_uniform_complete(self):
        counts = Counter()
        for seed in range(6000):
            counts[_brute.sample_edge([0, 1, 2, 3], None, random.Random(seed))] += 1
        assert set(counts) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        for c in counts.values():
            assert 850 <= c <= 1150  # expectation 1000, sigma ~29

    def test_sample_edge_uniform_bipartite(self):
        counts = Counter()
        for seed in range(4000):
            counts[_brute.sample_edge([0, 1], [2, 3], random.Random(seed))] += 1
        assert set(counts) == {(0, 2), (0, 3), (1, 2), (1, 3)}
        for c in counts.values():
            assert 850 <= c <= 1150  # expectation 1000, sigma ~27


class TestBatchedReductionShapes:
    def test_cluster_sizes_checked(self):
        batch = random_k_matchings(EdgePool.complete(range(9), 9), 4, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            matchings_to_clusters(batch, 9, 3)  # odd clusters need 3 edges
        with pytest.raises(ValueError):
            matchings_to_clusters(batch, 9, 2)  # 2 does not divide 9

    def test_tour_needs_perfect_matching(self):
        prof = derive_preferences(generate(GeneratorSpec("euclidean-uniform", 6, seed=0)))
        batch = random_k_matchings(EdgePool.complete(range(6), 6), 2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            matchings_to_tours(batch, prof, np.random.default_rng(0))


FAMILIES = ("euclidean-uniform", "random-metric-closure", "clustered-gaussian")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.integers(0, 10_000), st.sampled_from(FAMILIES))
def test_materialized_rows_are_valid(n, seed, family):
    prof = derive_preferences(generate(GeneratorSpec(family, n, seed=seed)))
    gen = np.random.default_rng(seed)
    hybrid = hybrid_matchings(prof, 16, gen)
    for row in hybrid:
        assert len(Matching.from_pairs(n, row)) == n // 2
    if n >= 3:
        for row in matchings_to_tours(hybrid, prof, gen):
            Tour(n, tuple(row))
    for k in range(1, n + 1):
        if n % k:
            continue
        c = n // k
        size = n // 2 if c % 2 == 0 else (n - k) // 2
        batch = hybrid if c % 2 == 0 else random_k_matchings(EdgePool.complete(range(n), n), size, 4, gen)
        for parts in matchings_to_clusters(batch, n, k):
            assert len(Clustering(n, tuple(map(tuple, parts))).parts) == k
    for size in range(n // 2 + 1):
        batch = random_k_matchings(EdgePool.complete(range(n), n), size, 4, gen)
        for row in batch:
            Matching.from_pairs(n, row)
        for nodes in matchings_to_subsets(batch):
            assert len(Subset(n, tuple(nodes)).nodes) == 2 * size
