import math
import os
import re
from collections import Counter

import _brute
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmatch import (
    Clustering,
    EmptyPoolError,
    GeneratorSpec,
    Matching,
    Path,
    PreferenceProfile,
    RandomSource,
    Subset,
    Tour,
    WeightedInstance,
    check_friendship,
    cluster_weight,
    derive_preferences,
    expected_random_weight,
    find_undominated,
    generate,
    greedy_k_matching,
    greedy_ratio_bound,
    hybrid_matching,
    hybrid_matchings,
    matching_to_tour,
    matching_weight,
    matchings_to_tours,
    opt_matching,
    path_completion,
    path_weight,
    profile_consistent,
    random_k_matching,
    random_k_matchings,
    save_instance,
    subset_weight,
    tour_weight,
    validate_metric,
)
from ordmatch.core import matching_values

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
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            Matching(-1, [])

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

    def test_takes_integer_ids_only(self):
        """Python and numpy integers are ids; a float, a string or a boolean is refused, not
        truncated: (0.7, 1.2) was edge (0, 1) and (True, 2) edge (1, 2)."""
        m = Matching(np.int64(4), [(np.int32(3), np.int64(2)), (1, 0)])
        assert m.sorted_edges() == [(0, 1), (2, 3)] and m.n == 4
        assert {type(x) for e in m.edges for x in e} == {type(m.n)} == {int}
        for pairs in ([(0.7, 1.2)], [(True, 2)], [(0, np.True_)], [("0", 1)], [(0, 1.0)]):
            with pytest.raises(ValueError, match="node id must be an integer"):
                Matching(4, pairs)
        for n in (4.0, "4", True):
            with pytest.raises(ValueError, match="n must be an integer"):
                Matching(n, [(0, 1)])

    @pytest.mark.parametrize("n", [2.9, "4", True, None])
    def test_from_dict_takes_an_integer_n_only(self, n):
        """A JSON "n" of 2.9, "4" or true was read as 2, 4 and 1."""
        assert Matching.from_dict({"n": 4, "edges": [[0, 1]]}).n == 4
        with pytest.raises(ValueError, match="n must be an integer"):
            Matching.from_dict({"n": n, "edges": [[0, 1]]})

    def test_weight_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            matching_weight(Matching.from_pairs(4, [(0, 1)]), ones_instance(6))

    def test_weight_sums_edges(self):
        m = Matching.from_pairs(4, [(0, 1), (2, 3)])
        assert matching_weight(m, ones_instance(4)) == 2.0


class TestRandomSource:
    def test_deterministic_streams(self):
        for seed in (42, 0, 3):
            a, b = RandomSource(seed), RandomSource(seed)
            assert (a.gen.integers(0, 1 << 62, 16) == b.gen.integers(0, 1 << 62, 16)).all()
            # the seeding rule harness.solve relies on
            ref = np.random.default_rng(RandomSource.derived_seed(seed))
            assert RandomSource(seed).gen.random(4).tolist() == ref.random(4).tolist()
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -3$"):
            RandomSource(-3)

    @pytest.mark.parametrize("seed, message", [(-1, "seed must be nonnegative, got -1"),
                                               (2.5, "seed must be an integer, got 2.5"),
                                               ("3", "seed must be an integer, got '3'")])
    def test_seeds_follow_the_generator_rule(self, seed, message):
        """-1 took the stream of 2**64 - 1, 2.5 that of 2 and "3" that of 3."""
        for call in (RandomSource, RandomSource.derived_seed,
                     lambda s: RandomSource.derived_seed(4, s)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(seed)

    def test_seeds_past_64_bits_do_not_alias(self):
        """Each part was reduced mod 2**64, so 2**64 gave the stream of 0."""
        assert RandomSource.derived_seed(1 << 64) != RandomSource.derived_seed(0)
        assert RandomSource.derived_seed(3, 1 << 64) != RandomSource.derived_seed(3, 0)
        assert RandomSource(1 << 64).gen.random() != RandomSource(0).gen.random()

    @pytest.mark.parametrize("parts", [(0,), (1,), ((1 << 64) - 1,), (7, 3), (1 << 63, 0),
                                       (np.uint64((1 << 64) - 1), np.int8(5))])
    def test_derived_seed_keeps_every_stream_below_2_64(self, parts):
        """Parts in [0, 2**64) keep the seed that the reduce-each-part-mod-2**64 form gave."""
        entropy = [int(p) % (1 << 64) for p in parts]
        old = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
        assert RandomSource.derived_seed(*parts) == old

    def test_derived_seed_depends_on_all_parts(self):
        base = RandomSource.derived_seed(1, 2, 3)
        assert base == RandomSource.derived_seed(1, 2, 3)
        assert base != RandomSource.derived_seed(1, 2, 4)
        assert base != RandomSource.derived_seed(3, 2, 1)


class TestFindUndominated:
    def test_mutual_top_pair_found_immediately(self):
        assert find_undominated(P4, range(4)) == (0, 1)
        assert find_undominated(P4, [2, 3]) == (2, 3)

    def test_chase_settles_on_cycle_edge(self):
        # 0 points at 2, but 2 and 4 point at each other
        w = [[0.0] * 6 for _ in range(6)]
        pairs = {(2, 4): 10.0, (0, 2): 9.0, (0, 1): 2.0, (1, 3): 1.5, (3, 5): 1.2, (4, 5): 1.1}
        for (u, v), x in pairs.items():
            w[u][v] = w[v][u] = x
        prof = derive_preferences(WeightedInstance(w))
        assert find_undominated(prof, range(6)) == (2, 4)

    def test_empty_pool_raises(self):
        for nodes in ([], [3]):
            with pytest.raises(EmptyPoolError):
                find_undominated(P4, nodes)

    @pytest.mark.parametrize("nodes", [[0, 1, 1], [-1, 0, 2], [0, 4]], ids=["duplicate", "negative", "id-n"])
    def test_rejects_bad_node_ids(self, nodes):
        with pytest.raises(ValueError):
            find_undominated(P4, nodes)

    @pytest.mark.parametrize("nodes", [[0.9, 1.2, 2], [True, 2], [0, 1.0], ["1", 2]],
                             ids=["floats", "bool", "integral-float", "string"])
    def test_rejects_ids_that_are_not_integers(self, nodes):
        with pytest.raises(ValueError, match="node id must be an integer"):
            find_undominated(P4, nodes)

    def test_takes_numpy_integer_ids(self):
        assert find_undominated(P4, np.array([3, 2], dtype=np.int64)) == (2, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_matches_reference_walk_on_node_subsets(self, seed, n):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
        prof = derive_preferences(WeightedInstance(upper + upper.T))
        nodes = rng.permutation(n)[: rng.integers(2, n + 1)].tolist()
        expected = _brute.scan_greedy(prof.ranking.tolist(), 1, nodes)[0]
        assert find_undominated(prof, nodes) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 8))
    def test_returned_edge_dominates_its_neighborhood(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        inst = WeightedInstance(w)
        prof = derive_preferences(inst)
        u, v = find_undominated(prof, range(n))
        for x in range(n):
            if x not in (u, v):
                assert inst.weights[u, v] >= inst.weights[u, x] - 1e-12
                assert inst.weights[u, v] >= inst.weights[v, x] - 1e-12


class TestGreedyMatching:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            greedy_k_matching(P4, 0)

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, "2"])
    def test_k_is_an_integer(self, k):
        """True was k=1, and 2.5 raised islice's message."""
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            greedy_k_matching(P4, k)
        assert len(greedy_k_matching(P4, np.int64(2))) == 2

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
            random_k_matching(4, -1, RandomSource(0))

    @pytest.mark.parametrize(
        "nodes,other",
        [([0, 1], [1, 2]), ([0, 1, 1], None), ([-1, 0], None), ([0], [2, 2])],
        ids=["overlapping-sides", "duplicate", "negative", "duplicate-other"],
    )
    def test_rejects_bad_node_ids(self, nodes, other):
        with pytest.raises(ValueError):
            random_k_matchings(nodes, 1, 2, np.random.default_rng(0), other)

    @pytest.mark.parametrize("nodes,other", [([0.5, 1.7, 2.2, 3.9], None), ([0, 1], [2.0, 3]),
                                             ([False, 1], None)], ids=["floats", "other", "bool"])
    def test_rejects_ids_that_are_not_integers(self, nodes, other):
        with pytest.raises(ValueError, match="node id must be an integer"):
            random_k_matchings(nodes, 2, 1, np.random.default_rng(0), other)

    @pytest.mark.parametrize("k,draws,message", [
        (1.5, 2, "k must be an integer, got 1.5"),
        (True, 2, "k must be an integer, got True"),
        (1, 2.0, "draws must be an integer, got 2.0"),
        (1, -1, "draws must be nonnegative, got -1"),
    ], ids=["float-k", "bool-k", "float-draws", "negative-draws"])
    def test_k_and_draws_are_counts(self, k, draws, message):
        """A float k or draws raised TypeError, and draws=-1 numpy's "negative dimensions"."""
        with pytest.raises(ValueError, match=message):
            random_k_matchings(range(4), k, draws, np.random.default_rng(0))
        assert random_k_matchings(range(4), np.int64(1), np.int32(0), np.random.default_rng(0)).shape == (0, 1, 2)

    @pytest.mark.parametrize("n, message", [(4.0, "n must be an integer, got 4.0"),
                                            (-1, "n must be nonnegative, got -1")])
    def test_n_is_a_count(self, n, message):
        """A float n failed in ``range`` with a TypeError."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_k_matching(n, 1, RandomSource(0))
        assert random_k_matching(np.int64(4), 2, RandomSource(0)).n == 4

    def test_zero_k_and_empty_pool(self):
        assert len(random_k_matching(4, 0, RandomSource(0))) == 0
        assert len(random_k_matching(1, 3, RandomSource(0))) == 0
        gen = np.random.default_rng(0)
        assert random_k_matchings([], 3, 2, gen).shape == (2, 0, 2)
        assert random_k_matchings([0, 1], 3, 2, gen, other=[]).shape == (2, 0, 2)

    def test_pool_is_read_not_consumed(self):
        side_a, side_b = [1, 0], [3, 2]
        assert random_k_matchings(side_a, 2, 1, np.random.default_rng(0), other=side_b).shape == (1, 2, 2)
        assert (side_a, side_b) == ([1, 0], [3, 2])

    def test_given_order_does_not_change_draws(self):
        a = random_k_matchings([4, 0, 2], 1, 5, np.random.default_rng(3), other=[5, 1, 3])
        b = random_k_matchings(range(0, 6, 2), 1, 5, np.random.default_rng(3), other=[1, 3, 5])
        assert a.tolist() == b.tolist()

    def test_deterministic_given_seed(self):
        a = random_k_matching(8, 4, RandomSource(7))
        b = random_k_matching(8, 4, RandomSource(7))
        assert a == b

    def test_draws_exactly_k_edges(self):
        m = random_k_matching(10, 3, RandomSource(1))
        assert len(m) == 3

    def test_uniform_over_perfect_matchings(self):
        counts = Counter()
        for seed in range(3000):
            m = random_k_matching(4, 2, RandomSource(seed))
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
        val = expected_random_weight(inst, sides=([0, 1], [2, 3]))
        assert val == 2.0

    def test_expected_value_argument_errors(self):
        inst = ones_instance(4)
        for sides in (([0], [1, 2]), ([0, 1], [1, 2]), ([], [])):
            with pytest.raises(ValueError):
                expected_random_weight(inst, sides=sides)

    @pytest.mark.parametrize("sides,message", [
        (([0, 0], [1, 2]), "node ids must be distinct"),
        (([-1], [2]), "nonnegative"),
        (([0.7], [2.2]), "must be an integer"),
        (([9], [2]), "out of range for n=6"),
    ], ids=["duplicate", "negative", "float", "past-n"])
    def test_expected_value_checks_sides_as_the_sampler_does(self, sides, message):
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=0))
        with pytest.raises(ValueError, match=message):
            expected_random_weight(inst, sides=sides)

    def test_expected_value_refuses_sides_that_are_not_id_lists(self):
        """sides=(1, 2) raised TypeError ("'int' object is not iterable")."""
        with pytest.raises(ValueError, match="^node ids must be iterable, got 1$"):
            expected_random_weight(ones_instance(4), (1, 2))

    def test_sampler_refuses_a_node_count_for_an_id_list(self):
        """nodes=5 and other=3 raised TypeError ("'int' object is not iterable")."""
        for nodes, other, bad in ((5, None, 5), ([0, 1], 3, 3)):
            with pytest.raises(ValueError, match=f"^node ids must be iterable, got {bad}$"):
                random_k_matchings(nodes, 1, 2, np.random.default_rng(0), other)

    def test_expected_value_takes_sides_in_any_order_and_integer_type(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=0))
        want = float(inst.weights[np.ix_([0, 1], [4, 5])].sum()) / 2
        assert expected_random_weight(inst, sides=([1, 0], [5, 4])) == want
        assert expected_random_weight(inst, sides=(np.array([0, 1]), [np.int8(4), 5])) == want

    def test_monte_carlo_matches_formula(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=3))
        runs = 20_000
        draws = random_k_matchings(range(6), 3, runs, np.random.default_rng(0))
        vals = matching_values(draws, inst.weights)
        sigma = float(np.std(vals)) / math.sqrt(runs)
        assert abs(vals.mean() - expected_random_weight(inst)) <= 4.0 * sigma


class TestHybridMatching:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            hybrid_matching(PreferenceProfile(((),)), RandomSource(0))

    @pytest.mark.parametrize("draws,message", [(2.5, "draws must be an integer, got 2.5"),
                                               (-1, "draws must be nonnegative, got -1")])
    def test_draws_is_a_count(self, draws, message):
        """2.5 raised TypeError, and -1 numpy's "negative dimensions are not allowed"."""
        prof = derive_preferences(generate(GeneratorSpec("euclidean-uniform", 6, seed=0)))
        with pytest.raises(ValueError, match=message):
            hybrid_matchings(prof, draws, np.random.default_rng(0))

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


W4 = ones_instance(4).weights.tolist()
M4, ROWS4 = Matching.from_pairs(4, [(0, 1), (2, 3)]), np.array([[[0, 1], [2, 3]]])
GEN = np.random.default_rng(0)
INST = "^inst must be a WeightedInstance, got "
PROFILE = "^profile must be a PreferenceProfile, got "
GENERATOR = "^gen must be a Generator, got "
SOURCE = "^rng must be a RandomSource, got "


@pytest.mark.parametrize("call, message", [
    (lambda: derive_preferences(W4), INST + "list$"),
    (lambda: validate_metric(W4, 0), INST + "list$"),
    (lambda: check_friendship(W4, 0.25), INST + "list$"),
    (lambda: profile_consistent(P4, W4), INST + "list$"),
    (lambda: profile_consistent(P4.ranking.tolist(), ones_instance(4)), PROFILE + "list$"),
    (lambda: save_instance(W4, os.devnull), INST + "list$"),
    (lambda: expected_random_weight(W4), INST + "list$"),
    (lambda: expected_random_weight(W4, ([0], [1])), INST + "list$"),
    (lambda: matching_weight(M4, W4), INST + "list$"),
    (lambda: cluster_weight(Clustering(4, ((0, 1), (2, 3))), W4), INST + "list$"),
    (lambda: subset_weight(Subset(4, (0, 1)), W4), INST + "list$"),
    (lambda: path_weight(Path(4, (0, 1, 2)), W4), INST + "list$"),
    (lambda: tour_weight(Tour(4, (0, 1, 2, 3)), W4), INST + "list$"),
    (lambda: greedy_k_matching(W4, 1), PROFILE + "list$"),
    (lambda: find_undominated(W4, [0, 1]), PROFILE + "list$"),
    (lambda: hybrid_matchings(W4, 3, GEN), PROFILE + "list$"),
    (lambda: hybrid_matchings(P4, 3, None), GENERATOR + "NoneType$"),
    (lambda: random_k_matchings(range(4), 1, 2, None), GENERATOR + "NoneType$"),
    (lambda: matchings_to_tours(ROWS4, W4, GEN), PROFILE + "list$"),
    (lambda: matchings_to_tours(ROWS4, P4, 0), GENERATOR + "int$"),
    (lambda: random_k_matching(4, 1, GEN), SOURCE + "Generator$"),
    (lambda: hybrid_matching(P4, None), SOURCE + "NoneType$"),
    (lambda: path_completion(M4, W4, RandomSource(0)), PROFILE + "list$"),
    (lambda: path_completion(M4, P4, None), SOURCE + "NoneType$"),
    (lambda: matching_to_tour(M4, W4, RandomSource(0)), PROFILE + "list$"),
    (lambda: matching_to_tour(M4, P4, GEN), SOURCE + "Generator$"),
], ids=["derive_preferences", "validate_metric", "check_friendship", "profile_consistent-inst",
        "profile_consistent-profile", "save_instance", "expected_random_weight",
        "expected_random_weight-sides", "matching_weight", "cluster_weight", "subset_weight",
        "path_weight", "tour_weight", "greedy_k_matching", "find_undominated",
        "hybrid_matchings-profile", "hybrid_matchings-gen", "random_k_matchings",
        "matchings_to_tours-profile", "matchings_to_tours-gen", "random_k_matching",
        "hybrid_matching", "path_completion-profile", "path_completion-rng",
        "matching_to_tour-profile", "matching_to_tour-rng"])
def test_an_instance_a_profile_or_a_generator_is_checked_by_type(call, message):
    """Each raised AttributeError (a list has no ``weights``, ``n`` or ``ranking``, None no
    ``random``): one type rule, at each entry, names the type expected."""
    with pytest.raises(ValueError, match=message):
        call()
