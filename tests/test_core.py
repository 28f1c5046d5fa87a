import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmatch import (
    EdgePool,
    EmptyPoolError,
    GeneratorSpec,
    Matching,
    PreferenceProfile,
    RandomSource,
    WeightedInstance,
    derive_preferences,
    expected_random_weight,
    find_undominated,
    generate,
    greedy_k_matching,
    greedy_ratio_bound,
    hybrid_matching,
    matching_weight,
    opt_matching,
    random_k_matching,
)

# the 4-node profile used by the randomization-floor fixture
P4 = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))


def ones_instance(n):
    w = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
    return WeightedInstance(w, metric=True)


class TestMatching:
    def test_normalizes_and_sorts(self):
        m = Matching.from_pairs(6, [(5, 4), (1, 0)])
        assert m.sorted_edges() == [(0, 1), (4, 5)]
        assert len(m) == 2
        assert m.nodes() == frozenset({0, 1, 4, 5})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Matching.from_pairs(4, [(0, 4)])

    def test_rejects_reused_node(self):
        with pytest.raises(ValueError):
            Matching.from_pairs(4, [(0, 1), (1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Matching.from_pairs(4, [(2, 2)])

    def test_is_perfect(self):
        assert Matching.from_pairs(4, [(0, 1), (2, 3)]).is_perfect()
        assert not Matching.from_pairs(4, [(0, 1)]).is_perfect()
        # odd n: perfect means floor(n/2) edges
        assert Matching.from_pairs(5, [(0, 1), (2, 3)]).is_perfect()

    def test_round_trip_dict(self):
        m = Matching.from_pairs(6, [(0, 3), (1, 5)])
        assert Matching.from_dict(m.to_dict()) == m

    def test_weight_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            matching_weight(Matching.from_pairs(4, [(0, 1)]), ones_instance(6))

    def test_weight_sums_edges(self):
        m = Matching.from_pairs(4, [(0, 1), (2, 3)])
        assert matching_weight(m, ones_instance(4)) == 2.0


class TestRandomSource:
    def test_deterministic_streams(self):
        for seed in (42, 0, -3):
            a, b = RandomSource(seed), RandomSource(seed)
            assert (a.gen.integers(0, 1 << 62, 16) == b.gen.integers(0, 1 << 62, 16)).all()
            # the seeding rule harness.solve relies on
            ref = np.random.default_rng(RandomSource.derived_seed(seed))
            assert RandomSource(seed).gen.random(4).tolist() == ref.random(4).tolist()
        assert RandomSource(-3).gen.random() != RandomSource(3).gen.random()

    def test_derived_seed_depends_on_all_parts(self):
        base = RandomSource.derived_seed(1, 2, 3)
        assert base == RandomSource.derived_seed(1, 2, 3)
        assert base != RandomSource.derived_seed(1, 2, 4)
        assert base != RandomSource.derived_seed(3, 2, 1)


class TestEdgePool:
    def test_complete_pool_edges(self):
        pool = EdgePool.complete(range(4), 4)
        assert pool.edge_count() == 6
        assert pool.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert not pool.bipartite_mode

    def test_bipartite_pool_edges(self):
        pool = EdgePool.bipartite([0, 2], [1, 3], 4)
        assert pool.edge_count() == 4
        assert set(pool.edges()) == {(0, 1), (0, 3), (1, 2), (2, 3)}
        assert pool.bipartite_mode

    def test_rejects_overlapping_sides(self):
        with pytest.raises(ValueError):
            EdgePool.bipartite([0, 1], [1, 2], 4)

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            EdgePool.complete([0, 5], 4)

    def test_remove_pair_and_emptiness(self):
        pool = EdgePool.complete(range(4), 4)
        pool.remove_pair(0, 2)
        assert pool.active_nodes() == [1, 3]
        assert not pool.is_empty()
        pool.remove_pair(1, 3)
        assert pool.is_empty()
        with pytest.raises(ValueError):
            pool.remove_pair(0, 1)

    def test_remove_pair_rejects_same_node(self):
        pool = EdgePool.complete(range(4), 4)
        with pytest.raises(ValueError):
            pool.remove_pair(2, 2)

    def test_top_choice_skips_removed_nodes(self):
        pool = EdgePool.complete(range(4), 4)
        pool.remove_pair(1, 2)
        assert pool.top_choice(0, P4) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12), st.booleans())
    def test_top_choice_matches_fresh_row_scan(self, seed, n, bipartite):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
        prof = derive_preferences(WeightedInstance(upper + upper.T))
        nodes = rng.permutation(n).tolist()
        sides = [set(nodes[: n // 2]), set(nodes[n // 2 :])] if bipartite else [set(nodes)]
        pool = EdgePool(*sides, n=n) if bipartite else EdgePool.complete(sides[0], n)

        def partners(x):
            if not bipartite:
                return sides[0] - {x}
            return sides[1] if x in sides[0] else sides[0]

        while not pool.is_empty():
            for x in sorted(set().union(*sides)):
                live = partners(x)
                if live:
                    assert pool.top_choice(x, prof) == next(j for j in prof.ranking[x].tolist() if j in live)
                else:
                    with pytest.raises(EmptyPoolError):
                        pool.top_choice(x, prof)
            u, v = pool.edges()[rng.integers(pool.edge_count())]
            pool.remove_pair(u, v)
            for side in sides:
                side -= {u, v}

    def test_top_choice_follows_the_profile_it_is_given(self):
        by_index = tuple(tuple(j for j in range(5) if j != i) for i in range(5))
        other = ((4, 1, 2, 3),) + by_index[1:]
        pool = EdgePool.complete(range(5), 5)
        pool.remove_pair(1, 2)
        # node 0's cursor under by_index moves past 1 and 2 to node 3
        assert pool.top_choice(0, PreferenceProfile(by_index)) == 3
        assert pool.top_choice(0, PreferenceProfile(other)) == 4

    def test_exhausted_node_raises_after_its_cursor_moved(self):
        pool = EdgePool.bipartite([0, 1], [2], 3)
        prof = PreferenceProfile(((2, 1), (2, 0), (0, 1)))
        assert pool.top_choice(1, prof) == 2
        pool.remove_pair(0, 2)
        with pytest.raises(EmptyPoolError):
            pool.top_choice(1, prof)


class TestFindUndominated:
    def test_mutual_top_pair_found_immediately(self):
        pool = EdgePool.complete(range(4), 4)
        assert find_undominated(pool, P4) == (0, 1)
        pool.remove_pair(0, 1)
        assert find_undominated(pool, P4) == (2, 3)

    def test_chase_settles_on_cycle_edge(self):
        # 0 points at 2, but 2 and 4 point at each other
        w = [[0.0] * 6 for _ in range(6)]
        pairs = {(2, 4): 10.0, (0, 2): 9.0, (0, 1): 2.0, (1, 3): 1.5, (3, 5): 1.2, (4, 5): 1.1}
        for (u, v), x in pairs.items():
            w[u][v] = w[v][u] = x
        prof = derive_preferences(WeightedInstance(w))
        assert find_undominated(EdgePool.complete(range(6), 6), prof) == (2, 4)

    def test_empty_pool_raises(self):
        pool = EdgePool.complete(range(2), 2)
        pool.remove_pair(0, 1)
        with pytest.raises(EmptyPoolError):
            find_undominated(pool, P4)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 8))
    def test_returned_edge_dominates_its_neighborhood(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        inst = WeightedInstance(w)
        prof = derive_preferences(inst)
        u, v = find_undominated(EdgePool.complete(range(n), n), prof)
        for x in range(n):
            if x not in (u, v):
                assert inst.weight(u, v) >= inst.weight(u, x) - 1e-12
                assert inst.weight(u, v) >= inst.weight(v, x) - 1e-12


class TestGreedyMatching:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            greedy_k_matching(P4, 0)

    def test_known_profile(self):
        assert greedy_k_matching(P4, 1).sorted_edges() == [(0, 1)]
        assert greedy_k_matching(P4, 2).sorted_edges() == [(0, 1), (2, 3)]

    def test_k_beyond_capacity_gives_maximal(self):
        assert len(greedy_k_matching(P4, 99)) == 2

    def test_prefix_property(self):
        for seed in range(8):
            inst = generate(GeneratorSpec("euclidean-uniform", 10, seed=seed))
            prof = derive_preferences(inst)
            prev: set = set()
            for k in range(1, 6):
                edges = set(greedy_k_matching(prof, k).edges)
                assert prev <= edges
                prev = edges

    def test_deterministic(self):
        inst = generate(GeneratorSpec("clustered-gaussian", 9, seed=4))
        prof = derive_preferences(inst)
        assert greedy_k_matching(prof, 4) == greedy_k_matching(prof, 4)

    def test_two_approximation_on_metric_samples(self):
        for seed in range(30):
            n = 4 + seed % 7
            inst = generate(GeneratorSpec("random-metric-closure", n, seed=seed))
            prof = derive_preferences(inst)
            alg = matching_weight(greedy_k_matching(prof, n // 2), inst)
            opt = matching_weight(opt_matching(inst, n // 2), inst)
            assert opt <= 2.0 * alg + 1e-9

    def test_anchored_prefix_carries_half_the_optimum(self):
        for seed in range(20):
            n = 6 + 2 * (seed % 4)
            inst = generate(GeneratorSpec("euclidean-uniform", n, seed=seed))
            prof = derive_preferences(inst)
            m0 = greedy_k_matching(prof, math.ceil(n / 3))
            opt = matching_weight(opt_matching(inst, n // 2), inst)
            assert matching_weight(m0, inst) >= opt / 2.0 - 1e-9


class TestRandomMatching:
    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            random_k_matching(EdgePool.complete(range(4), 4), -1, RandomSource(0))

    def test_zero_k_and_empty_pool(self):
        assert len(random_k_matching(EdgePool.complete(range(4), 4), 0, RandomSource(0))) == 0
        pool = EdgePool.complete(range(2), 2)
        pool.remove_pair(0, 1)
        assert len(random_k_matching(pool, 3, RandomSource(0))) == 0

    def test_pool_is_read_not_consumed(self):
        pool = EdgePool.bipartite([0, 1], [2, 3], 4)
        assert len(random_k_matching(pool, 2, RandomSource(0))) == 2
        assert pool.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_deterministic_given_seed(self):
        a = random_k_matching(EdgePool.complete(range(8), 8), 4, RandomSource(7))
        b = random_k_matching(EdgePool.complete(range(8), 8), 4, RandomSource(7))
        assert a == b

    def test_draws_exactly_k_edges(self):
        m = random_k_matching(EdgePool.complete(range(10), 10), 3, RandomSource(1))
        assert len(m) == 3

    def test_uniform_over_perfect_matchings(self):
        counts = Counter()
        for seed in range(3000):
            m = random_k_matching(EdgePool.complete(range(4), 4), 2, RandomSource(seed))
            counts[tuple(m.sorted_edges())] += 1
        assert len(counts) == 3
        for c in counts.values():
            assert 850 <= c <= 1150  # expectation 1000, sigma ~26

    def test_expected_value_formula_complete(self):
        # closed form: total * floor(n/2) / C(n,2)
        assert expected_random_weight(ones_instance(4)) == 2.0
        assert expected_random_weight(ones_instance(5)) == 2.0
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=2))
        expect = inst.total_weight() / 5.0
        assert expected_random_weight(inst) == pytest.approx(expect, rel=1e-12)

    def test_expected_value_formula_bipartite(self):
        inst = ones_instance(4)
        val = expected_random_weight(inst, mode="bipartite", sides=([0, 1], [2, 3]))
        assert val == 2.0

    def test_expected_value_argument_errors(self):
        inst = ones_instance(4)
        with pytest.raises(ValueError):
            expected_random_weight(inst, mode="bipartite")
        with pytest.raises(ValueError):
            expected_random_weight(inst, mode="bipartite", sides=([0], [1, 2]))
        with pytest.raises(ValueError):
            expected_random_weight(inst, mode="bipartite", sides=([0, 1], [1, 2]))
        with pytest.raises(ValueError):
            expected_random_weight(inst, mode="bipartite", sides=([], []))
        with pytest.raises(ValueError):
            expected_random_weight(inst, mode="nope")

    def test_monte_carlo_matches_formula(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=3))
        runs = 20_000
        total = 0.0
        vals = []
        for seed in range(runs):
            m = random_k_matching(EdgePool.complete(range(6), 6), 3, RandomSource(seed))
            v = matching_weight(m, inst)
            total += v
            vals.append(v)
        mean = total / runs
        sigma = float(np.std(vals)) / math.sqrt(runs)
        assert abs(mean - expected_random_weight(inst)) <= 4.0 * sigma


class TestHybridMatching:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            hybrid_matching(PreferenceProfile(((),)), RandomSource(0))

    def test_two_nodes_pair_up(self):
        two = PreferenceProfile(((1,), (0,)))
        assert hybrid_matching(two, RandomSource(0)).sorted_edges() == [(0, 1)]

    def test_always_half_floor_edges(self):
        for n in range(2, 14):
            inst = generate(GeneratorSpec("euclidean-uniform", n, seed=n))
            prof = derive_preferences(inst)
            for seed in range(30):
                assert len(hybrid_matching(prof, RandomSource(seed))) == n // 2

    def test_deterministic_given_seed(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 9, seed=1))
        prof = derive_preferences(inst)
        assert hybrid_matching(prof, RandomSource(5)) == hybrid_matching(prof, RandomSource(5))

    def test_randomness_actually_used(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 9, seed=1))
        prof = derive_preferences(inst)
        outs = {hybrid_matching(prof, RandomSource(s)) for s in range(40)}
        assert len(outs) >= 2

    def test_mean_ratio_within_bound_smoke(self):
        # small-sample version of the acceptance run
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=0))
        prof = derive_preferences(inst)
        opt = matching_weight(opt_matching(inst, 3), inst)
        vals = [
            matching_weight(hybrid_matching(prof, RandomSource(s)), inst) for s in range(2000)
        ]
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(len(vals))
        se_ratio = opt * se / mean**2
        assert opt / mean <= 1.6 + 3.0 * se_ratio + 1e-9


class TestGreedyRatioBound:
    def test_frozen_values(self):
        assert greedy_ratio_bound(1.0, 1.0) == 2.0
        assert greedy_ratio_bound(0.25, 0.375) == 3.0  # small-sum branch: 2a*/a
        assert greedy_ratio_bound(0.5, 0.25) == 2.0
        assert greedy_ratio_bound(0.5, 0.5) == 2.0  # boundary goes to (a*+1)/a - 1
        assert greedy_ratio_bound(0.25, 1.0) == 7.0

    def test_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                greedy_ratio_bound(bad, 0.5)
            with pytest.raises(ValueError):
                greedy_ratio_bound(0.5, bad)
