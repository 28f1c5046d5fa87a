import numpy as np
import pytest

from ordmatch import (
    Clustering,
    GeneratorSpec,
    Matching,
    Path,
    RandomSource,
    Subset,
    Tour,
    WeightedInstance,
    cluster_weight,
    derive_preferences,
    generate,
    greedy_k_matching,
    matching_to_clusters,
    matching_to_subset,
    matching_to_tour,
    matching_weight,
    matchings_to_clusters,
    path_completion,
    path_weight,
    random_k_matching,
    subset_weight,
    tour_weight,
)
from ordmatch.core import _row

WSMALL = [
    [0.0, 1.0, 2.0, 3.0],
    [1.0, 0.0, 4.0, 5.0],
    [2.0, 4.0, 0.0, 6.0],
    [3.0, 5.0, 6.0, 0.0],
]


class TestShapes:
    def test_clustering_must_partition(self):
        Clustering(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            Clustering(4, ((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            Clustering(4, ((0, 1),))
        with pytest.raises(ValueError, match="n must be nonnegative, got -2"):
            Clustering(-2, ())

    def test_clustering_rejects_unequal_parts(self):
        Clustering(6, ((0, 1, 2), (3, 4, 5)))
        with pytest.raises(ValueError, match="equal size"):
            Clustering(6, ((0, 1), (2, 3, 4, 5)))
        with pytest.raises(ValueError, match="equal size"):
            Clustering(4, ((0,), (1, 2, 3)))

    def test_subset_validation(self):
        Subset(4, (0, 3))
        with pytest.raises(ValueError):
            Subset(4, (0, 0))
        with pytest.raises(ValueError):
            Subset(4, (0, 4))
        with pytest.raises(ValueError, match="n must be nonnegative, got -3"):
            Subset(-3, ())

    def test_path_validation(self):
        Path(5, (2, 4, 1))
        with pytest.raises(ValueError):
            Path(5, (2, 4, 2))
        with pytest.raises(ValueError):
            Path(5, (2, 5))
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            Path(-1, ())

    def test_tour_validation(self):
        Tour(4, (0, 2, 1, 3))
        with pytest.raises(ValueError):
            Tour(4, (0, 2, 1))
        with pytest.raises(ValueError):
            Tour(4, (0, 2, 2, 3))
        # the one edge of a 2-node "tour" was weighed twice, where opt_tsp refuses n < 3
        for n in (2, 1, 0):
            with pytest.raises(ValueError, match=f"a tour needs n >= 3, got n={n}"):
                Tour(n, tuple(range(n)))
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            Tour(-1, ())

    @pytest.mark.parametrize("make", [
        lambda ids: Matching(5, [ids[:2], ids[2:]]),
        lambda ids: Clustering(5, ((*ids, 4),)),
        lambda ids: Subset(5, ids),
        lambda ids: Path(5, ids),
        lambda ids: Tour(5, (*ids, 4)),
    ], ids=["matching", "clustering", "subset", "path", "tour"])
    def test_every_solution_type_checks_node_ids_alike(self, make):
        make((0, 1, 2, 3))
        for ids, message in (((0, 1, 1, 3), "^node ids must be distinct$"),
                             ((0, -1, 2, 3), "^node ids must be nonnegative$"),
                             ((0, 1, 2, 5), "^node id 5 out of range for n=5$"),
                             ((0, 1, 2, 3.0), "^node id must be an integer, got 3.0$")):
            with pytest.raises(ValueError, match=message):
                make(ids)

    @pytest.mark.parametrize("kind", [Matching, Clustering, Subset, Path, Tour])
    def test_every_solution_type_refuses_ids_that_are_not_a_container(self, kind):
        """Matching(4, 5) and Clustering(4, 5) raised TypeError ("'int' object is not
        iterable"), flattening their edges or parts before the node-id rule saw them."""
        with pytest.raises(ValueError, match="^node ids must be iterable, got 5$"):
            kind(4, 5)

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, np.True_])
    def test_clustering_takes_integer_ids_only(self, bad):
        assert Clustering(np.int64(4), ((np.int64(1), 0), (2, 3))).parts == ((0, 1), (2, 3))
        with pytest.raises(ValueError, match="node id must be an integer"):
            Clustering(4, ((0, bad), (2, 3)))
        with pytest.raises(ValueError, match="n must be an integer"):
            Clustering(bad, ((0, 1), (2, 3)))

    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", True, np.True_])
    def test_subset_takes_integer_ids_only(self, bad):
        """(1.9, 2) was the subset (1, 2)."""
        assert Subset(4, (np.int32(2), 1)).nodes == (1, 2)
        with pytest.raises(ValueError, match="node id must be an integer"):
            Subset(4, (bad, 2))
        with pytest.raises(ValueError, match="n must be an integer"):
            Subset(bad, (0, 1))

    @pytest.mark.parametrize("bad", [4.5, 1.0, "1", True, np.True_])
    def test_path_takes_integer_ids_only(self, bad):
        assert Path(5, (2, np.int64(4), 0)).order == (2, 4, 0)
        with pytest.raises(ValueError, match="node id must be an integer"):
            Path(5, (2, bad, 0))
        with pytest.raises(ValueError, match="n must be an integer"):
            Path(bad, (0, 1))

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, np.True_])
    def test_tour_takes_integer_ids_only(self, bad):
        """(0, 1.5, 2) passed as the tour (0, 1, 2)."""
        assert Tour(3, (0, np.uint8(1), 2)).order == (0, 1, 2)
        with pytest.raises(ValueError, match="node id must be an integer"):
            Tour(3, (0, bad, 2))
        with pytest.raises(ValueError, match="n must be an integer"):
            Tour(bad, (0, 1))

    def test_weight_helpers(self):
        inst = WeightedInstance(WSMALL)
        assert cluster_weight(Clustering(4, ((0, 1), (2, 3))), inst) == 7.0
        assert subset_weight(Subset(4, (0, 1, 2)), inst) == 7.0
        assert path_weight(Path(4, (0, 1, 2)), inst) == 5.0
        assert tour_weight(Tour(4, (0, 1, 2, 3)), inst) == 14.0

    def test_weight_size_mismatch(self):
        inst = WeightedInstance(WSMALL)
        with pytest.raises(ValueError):
            cluster_weight(Clustering(6, ((0, 1, 2), (3, 4, 5))), inst)
        with pytest.raises(ValueError):
            subset_weight(Subset(6, (0, 1)), inst)
        with pytest.raises(ValueError):
            path_weight(Path(6, (0, 1)), inst)
        with pytest.raises(ValueError):
            tour_weight(Tour(3, (0, 1, 2)), inst)


class TestMatchingToClusters:
    def test_even_cluster_size(self):
        m = Matching.from_pairs(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        c = matching_to_clusters(m, 2)
        assert c.parts == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_odd_cluster_size_round_robins_leftovers(self):
        m = Matching.from_pairs(9, [(0, 1), (2, 3), (4, 5)])
        c = matching_to_clusters(m, 3)
        assert c.parts == ((0, 1, 6), (2, 3, 7), (4, 5, 8))

    def test_matched_pairs_stay_together(self):
        for seed in range(10):
            inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=seed))
            prof = derive_preferences(inst)
            m = greedy_k_matching(prof, 4)
            c = matching_to_clusters(m, 2)
            for u, v in m.edges:
                assert any(u in part and v in part for part in c.parts)
            # matched weight is never thrown away
            assert cluster_weight(c, inst) >= matching_weight(m, inst) - 1e-12

    def test_k_is_an_integer(self):
        """A float k raised TypeError from a reshape."""
        m = Matching.from_pairs(6, [(0, 1), (2, 3), (4, 5)])
        for k in (1.5, 3.0, True):
            with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
                matchings_to_clusters(_row(m), 6, k)
            with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
                matching_to_clusters(m, k)

    def test_requires_divisibility(self):
        m = Matching.from_pairs(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        with pytest.raises(ValueError):
            matching_to_clusters(m, 3)
        with pytest.raises(ValueError):
            matching_to_clusters(m, 0)

    def test_even_size_needs_perfect_matching(self):
        with pytest.raises(ValueError):
            matching_to_clusters(Matching.from_pairs(8, [(0, 1)]), 2)

    def test_odd_size_needs_exact_edge_count(self):
        with pytest.raises(ValueError):
            matching_to_clusters(Matching.from_pairs(9, [(0, 1)]), 3)


class TestMatchingToSubset:
    def test_endpoints_sorted(self):
        m = Matching.from_pairs(8, [(5, 2), (7, 0)])
        s = matching_to_subset(m, 4)
        assert s.nodes == (0, 2, 5, 7)

    def test_size_check(self):
        m = Matching.from_pairs(8, [(5, 2)])
        with pytest.raises(ValueError):
            matching_to_subset(m, 4)
        assert matching_to_subset(m).nodes == (2, 5)
        with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
            matching_to_subset(m, 2.0)

    def test_subset_keeps_matching_weight(self):
        for seed in range(10):
            inst = generate(GeneratorSpec("clustered-gaussian", 10, seed=seed))
            prof = derive_preferences(inst)
            m = greedy_k_matching(prof, 3)
            s = matching_to_subset(m, 6)
            assert subset_weight(s, inst) >= matching_weight(m, inst) - 1e-12


class TestPathCompletion:
    def test_single_edge_path(self):
        m = Matching.from_pairs(5, [(2, 4)])
        prof = derive_preferences(WeightedInstance([[0.0] * 5 for _ in range(5)]))
        assert path_completion(m, prof, RandomSource(0), start=2).order == (2, 4)
        assert path_completion(m, prof, RandomSource(0), start=4).order == (4, 2)

    def test_requires_nonempty_matching(self):
        prof = derive_preferences(WeightedInstance(WSMALL))
        with pytest.raises(ValueError):
            path_completion(Matching.from_pairs(4, []), prof, RandomSource(0))

    def test_start_must_be_matched(self):
        m = Matching.from_pairs(5, [(2, 4)])
        prof = derive_preferences(WeightedInstance([[0.0] * 5 for _ in range(5)]))
        with pytest.raises(ValueError):
            path_completion(m, prof, RandomSource(0), start=3)

    @pytest.mark.parametrize("start", [True, 1.0, "1"])
    def test_start_is_a_node_id(self, start):
        """True and 1.0 started the path at node 1."""
        prof = derive_preferences(generate(GeneratorSpec("euclidean-uniform", 6, seed=0)))
        m = greedy_k_matching(prof, 3)
        assert path_completion(m, prof, RandomSource(0), start=np.int64(1)).order[0] == 1
        with pytest.raises(ValueError, match=f"start node must be an integer, got {start!r}"):
            path_completion(m, prof, RandomSource(0), start=start)

    def test_random_start_deterministic_given_seed(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=2))
        prof = derive_preferences(inst)
        m = greedy_k_matching(prof, 4)
        a = path_completion(m, prof, RandomSource(9))
        b = path_completion(m, prof, RandomSource(9))
        assert a.order == b.order

    def test_visits_exactly_the_matched_nodes(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 9, seed=3))
        prof = derive_preferences(inst)
        m = greedy_k_matching(prof, 3)
        p = path_completion(m, prof, RandomSource(0))
        assert sorted(p.order) == sorted(m.nodes())

    def test_connector_worth_half_the_next_edge(self):
        # the ordinal choice plus the triangle inequality guarantee this
        for seed in range(15):
            n = 6 + seed % 5
            inst = generate(GeneratorSpec("random-metric-closure", n, seed=seed))
            prof = derive_preferences(inst)
            m = greedy_k_matching(prof, n // 2)
            for start in sorted(m.nodes()):
                p = path_completion(m, prof, RandomSource(0), start=start)
                order = p.order
                for i in range(1, len(order) - 1, 2):
                    connector = inst.weights[order[i], order[i + 1]]
                    edge = inst.weights[order[i + 1], order[i + 2]]
                    assert connector >= edge / 2.0 - 1e-9

    def test_per_run_lower_bound(self):
        for seed in range(15):
            n = 4 + seed % 9
            inst = generate(GeneratorSpec("euclidean-uniform", n, seed=seed))
            prof = derive_preferences(inst)
            m = greedy_k_matching(prof, n // 2)
            wm = matching_weight(m, inst)
            by_node = {x: e for e in m.edges for x in e}
            for start in sorted(m.nodes()):
                p = path_completion(m, prof, RandomSource(0), start=start)
                w_first = inst.weights[by_node[start]]
                assert path_weight(p, inst) >= 1.5 * wm - w_first - 1e-9

    def test_enumerated_start_mean_bound(self):
        for seed in range(15):
            n = 4 + seed % 9
            inst = generate(GeneratorSpec("clustered-gaussian", n, seed=seed))
            prof = derive_preferences(inst)
            m = greedy_k_matching(prof, n // 2)
            k = len(m)
            wm = matching_weight(m, inst)
            runs = [
                path_weight(path_completion(m, prof, RandomSource(0), start=s), inst)
                for s in sorted(m.nodes())
            ]
            mean = sum(runs) / len(runs)
            assert mean >= (1.5 - 1.0 / k) * wm - 1e-9


class TestMatchingToTour:
    def test_two_nodes_rejected(self):
        m = Matching.from_pairs(2, [(0, 1)])
        prof = derive_preferences(WeightedInstance([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            matching_to_tour(m, prof, RandomSource(0))

    def test_requires_perfect_matching(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=0))
        prof = derive_preferences(inst)
        with pytest.raises(ValueError):
            matching_to_tour(Matching.from_pairs(6, [(0, 1)]), prof, RandomSource(0))

    def test_even_n_tour_is_path_plus_closing_edge(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=4))
        prof = derive_preferences(inst)
        m = greedy_k_matching(prof, 4)
        t = matching_to_tour(m, prof, RandomSource(6))
        p = path_completion(m, prof, RandomSource(6))
        assert t.order == p.order
        closing = inst.weights[t.order[-1], t.order[0]]
        assert tour_weight(t, inst) == pytest.approx(path_weight(p, inst) + closing, rel=1e-12)

    def test_odd_n_splices_leftover_node(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 7, seed=4))
        prof = derive_preferences(inst)
        m = greedy_k_matching(prof, 3)
        (leftover,) = set(range(7)) - m.nodes()
        t = matching_to_tour(m, prof, RandomSource(0))
        assert sorted(t.order) == list(range(7))
        assert t.order[-1] == leftover

    def test_random_matchings_also_complete(self):
        inst = generate(GeneratorSpec("random-metric-closure", 10, seed=1))
        prof = derive_preferences(inst)
        m = random_k_matching(10, 5, RandomSource(3))
        t = matching_to_tour(m, prof, RandomSource(3))
        assert sorted(t.order) == list(range(10))
