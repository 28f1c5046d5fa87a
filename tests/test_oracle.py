import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from _brute import (
    brute_max_densest,
    brute_max_k_sum,
    brute_max_matching,
    brute_max_tour,
    dense_block_layers,
    dense_block_walk,
    dp_matching,
    dp_matching_layers,
    dp_matching_walk,
    held_karp,
    k_sum_running_total,
    scan_densest,
    scan_k_sum,
    scan_k_sum_best_prefixes,
)
from ordmatch import (
    DEFAULT_BUDGET,
    BudgetError,
    Clustering,
    GeneratorSpec,
    Matching,
    Subset,
    Tour,
    WeightedInstance,
    cluster_weight,
    generate,
    matching_weight,
    opt_densest,
    opt_k_sum,
    opt_matching,
    opt_tsp,
    subset_weight,
    tour_weight,
)
from ordmatch import oracle
from ordmatch.oracle import _combinations, _held_karp_steps, _matching_blocks

EPS = 0.01
W1 = [
    [0.0, 1.0, 1.0, 1.0],
    [1.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, EPS],
    [1.0, 1.0, EPS, 0.0],
]
W2 = [
    [0.0, 2.0, 1.0, 1.0],
    [2.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 0.0],
]

FAMILIES = ["euclidean-uniform", "random-metric-closure", "clustered-gaussian"]


# values frozen from the exhaustive enumerators in _brute.py
FROZEN = [
    ("euclidean-uniform", 8, 0, {
        ("mwm", 4): 3.100372277783928,
        ("mwm", 2): 2.154339726477609,
        ("ksum", 2): 8.002293062417902,
        ("ksum", 4): 3.100372277783928,
        ("densest", 4): 5.157013468856721,
        ("tsp", None): 6.163969852601046,
    }),
    ("random-metric-closure", 8, 1, {
        ("mwm", 4): 1.9600215654249666,
        ("mwm", 2): 1.343635908125966,
        ("ksum", 2): 4.867232373536429,
        ("ksum", 4): 1.9600215654249666,
        ("densest", 4): 3.2928970977741496,
        ("tsp", None): 3.812907155395701,
    }),
    ("clustered-gaussian", 8, 2, {
        ("mwm", 4): 2.2751413387771025,
        ("mwm", 2): 1.3697112699696237,
        ("ksum", 2): 5.875227409553846,
        ("ksum", 4): 2.2751413387771025,
        ("densest", 4): 3.37018229060054,
        ("tsp", None): 4.497214990670755,
    }),
    ("euclidean-uniform", 6, 5, {
        ("mwm", 3): 2.328666242515169,
        ("mwm", 1): 1.0194715319796894,
        ("ksum", 3): 2.328666242515169,
        ("densest", 3): 2.6591111866600246,
        ("tsp", None): 4.538643074363615,
    }),
]


def oracle_value(inst, problem, k):
    if problem == "mwm":
        return matching_weight(opt_matching(inst, k), inst)
    if problem == "ksum":
        return cluster_weight(opt_k_sum(inst, k), inst)
    if problem == "densest":
        return subset_weight(opt_densest(inst, k), inst)
    return tour_weight(opt_tsp(inst), inst)


class TestOptMatching:
    def test_tie_breaker_instance(self):
        inst = WeightedInstance(W1)
        m = opt_matching(inst, 2)
        assert m.sorted_edges() == [(0, 2), (1, 3)]
        assert matching_weight(m, inst) == 2.0

    def test_favorite_pair_instance(self):
        inst = WeightedInstance(W2)
        m = opt_matching(inst, 2)
        assert m.sorted_edges() == [(0, 1), (2, 3)]
        assert matching_weight(m, inst) == 3.0

    def test_single_edge_budget(self):
        m = opt_matching(WeightedInstance(W2), 1)
        assert m.sorted_edges() == [(0, 1)]

    def test_zero_matrix_gives_empty_matching(self):
        inst = WeightedInstance([[0.0] * 4 for _ in range(4)])
        assert opt_matching(inst, 2).sorted_edges() == []

    def test_k_above_capacity_equals_perfect(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=7))
        assert opt_matching(inst, 4) == opt_matching(inst, 40)

    def test_monotone_in_k(self):
        inst = generate(GeneratorSpec("clustered-gaussian", 10, seed=3))
        vals = [matching_weight(opt_matching(inst, k), inst) for k in range(1, 6)]
        assert vals == sorted(vals)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            opt_matching(WeightedInstance(W1), 0)

    def test_budget_cap(self):
        big = WeightedInstance([[0.0] * 21 for _ in range(21)])
        with pytest.raises(BudgetError):
            opt_matching(big, 10)

    def test_time_budget(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean-uniform", 14, seed=0))
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET",
                            dataclasses.replace(DEFAULT_BUDGET, time_limit=0.0))
        with pytest.raises(BudgetError):
            opt_matching(inst, 7)

    @pytest.mark.parametrize("n,k", [(16, 8), (14, 4)])
    def test_all_ones_gives_lex_first_matching_at_desk_size(self, n, k):
        # every matching of k edges ties; the lowest node pairs with the smallest partner
        inst = WeightedInstance(np.ones((n, n)) - np.eye(n))
        assert opt_matching(inst, k).sorted_edges() == [(2 * i, 2 * i + 1) for i in range(k)]


class TestOptKSum:
    def test_known_partition(self):
        inst = WeightedInstance(W2)
        c = opt_k_sum(inst, 2)
        assert c.parts == ((0, 1), (2, 3))
        assert cluster_weight(c, inst) == 3.0

    def test_rejects_bad_k(self):
        inst = WeightedInstance(W1)
        with pytest.raises(ValueError):
            opt_k_sum(inst, 3)  # 3 does not divide 4
        with pytest.raises(ValueError):
            opt_k_sum(inst, 0)

    def test_budget_cap(self):
        big = WeightedInstance([[0.0] * 18 for _ in range(18)])
        with pytest.raises(BudgetError):
            opt_k_sum(big, 3)

    def test_time_budget(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean-uniform", 10, seed=0))
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET",
                            dataclasses.replace(DEFAULT_BUDGET, time_limit=0.0))
        with pytest.raises(BudgetError):
            opt_k_sum(inst, 5)

    @pytest.mark.parametrize("n", [8, 14, 16])
    def test_pair_clusters_match_perfect_matching(self, n):
        # size-2 clusters are exactly a perfect matching
        for seed in range(5):
            inst = generate(GeneratorSpec("euclidean-uniform", n, seed=seed))
            ks = cluster_weight(opt_k_sum(inst, n // 2), inst)
            mm = matching_weight(opt_matching(inst, n // 2), inst)
            assert ks == pytest.approx(mm, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_divisor_at_the_cap(self, family):
        # n=16 under the default budget: canonical parts, and no swap of two nodes
        # between parts gains more than rounding
        n = DEFAULT_BUDGET.max_n_k_sum
        inst = generate(GeneratorSpec(family, n, seed=0))
        w = inst.weights.tolist()
        for k in (1, 2, 4, 8, 16):
            parts = opt_k_sum(inst, k).parts
            assert [p[0] for p in parts] == [min(set(range(n)).difference(*parts[:q]))
                                             for q in range(k)], k
            total = k_sum_running_total(w, parts)
            for (p, a), (q, b) in itertools.combinations(
                    [(p, a) for p in range(k) for a in range(n // k)], 2):
                if p != q:
                    swapped = [list(part) for part in parts]
                    swapped[p][a], swapped[q][b] = parts[q][b], parts[p][a]
                    assert k_sum_running_total(w, swapped) <= total + 1e-12, (k, p, a, q, b)


class TestOptDensest:
    def test_known_subsets(self):
        inst = WeightedInstance(W2)
        s2 = opt_densest(inst, 2)
        assert s2.nodes == (0, 1)
        assert subset_weight(s2, inst) == 2.0
        s3 = opt_densest(inst, 3)
        assert s3.nodes == (0, 1, 2)
        assert subset_weight(s3, inst) == 4.0

    def test_full_set(self):
        inst = WeightedInstance(W1)
        assert opt_densest(inst, 4).nodes == (0, 1, 2, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            opt_densest(WeightedInstance(W1), 0)
        with pytest.raises(ValueError):
            opt_densest(WeightedInstance(W1), 5)

    def test_budget_cap(self):
        big = WeightedInstance([[0.0] * 21 for _ in range(21)])
        with pytest.raises(BudgetError):
            opt_densest(big, 4)

    def test_time_budget(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean-uniform", 12, seed=0))
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET",
                            dataclasses.replace(DEFAULT_BUDGET, time_limit=0.0))
        with pytest.raises(BudgetError):
            opt_densest(inst, 6)


class TestOptTsp:
    def test_known_tour(self):
        inst = WeightedInstance(W1)
        t = opt_tsp(inst)
        assert t.order == (0, 2, 1, 3)
        assert tour_weight(t, inst) == 4.0

    def test_canonical_orientation(self):
        for seed in range(6):
            t = opt_tsp(generate(GeneratorSpec("euclidean-uniform", 7, seed=seed)))
            assert t.order[0] == 0
            assert t.order[1] < t.order[-1]

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            opt_tsp(WeightedInstance([[0.0, 1.0], [1.0, 0.0]]))

    def test_budget_cap(self):
        big = WeightedInstance([[0.0] * 16 for _ in range(16)])
        with pytest.raises(BudgetError):
            opt_tsp(big)

    def test_time_budget(self, monkeypatch):
        inst = generate(GeneratorSpec("euclidean-uniform", 12, seed=0))
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET",
                            dataclasses.replace(DEFAULT_BUDGET, time_limit=0.0))
        with pytest.raises(BudgetError):
            opt_tsp(inst)


class TestAgainstFrozenBruteValues:
    @pytest.mark.parametrize("family,n,seed,values", FROZEN)
    def test_frozen_values(self, family, n, seed, values):
        inst = generate(GeneratorSpec(family, n, seed=seed))
        for (problem, k), expected in values.items():
            assert oracle_value(inst, problem, k) == pytest.approx(expected, abs=1e-12)

    def test_fresh_instances_match_brute_force(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            n = int(rng.integers(4, 9))
            fam = ["euclidean-uniform", "random-metric-closure", "clustered-gaussian"][trial % 3]
            inst = generate(GeneratorSpec(fam, n, seed=int(rng.integers(0, 10_000))))
            w = inst.weights.tolist()
            for k in range(1, n // 2 + 1):
                assert matching_weight(opt_matching(inst, k), inst) == pytest.approx(
                    brute_max_matching(w, k), abs=1e-12
                )
            for k in range(1, n + 1):
                if n % k == 0 and k < n:
                    assert cluster_weight(opt_k_sum(inst, k), inst) == pytest.approx(
                        brute_max_k_sum(w, k), abs=1e-12
                    )
            assert subset_weight(opt_densest(inst, max(2, n // 2)), inst) == pytest.approx(
                brute_max_densest(w, max(2, n // 2)), abs=1e-12
            )
            assert tour_weight(opt_tsp(inst), inst) == pytest.approx(brute_max_tour(w), abs=1e-12)


def assert_same_solutions(inst, ks):
    """The numpy oracles return the scalar references' solution objects for
    every k in ks and, for n <= 12, every k that divides n: the k-sum oracle
    returns ``scan_k_sum``'s partition up to n = 10 and, at n = 11 and 12,
    its optimum's bits and ``scan_k_sum_best_prefixes``'s partition. The
    scalar matching DP is built once capped and once uncapped, each for its
    largest cap, and walked for every k: layers built for one cap serve every
    smaller cap, so each walk is ``dp_matching(w, k)``."""
    n, w = inst.n, inst.weights.tolist()
    layers = {}  # whether the cap binds -> the DP's layer pairs
    for kcap in sorted({min(k, n // 2) for k in ks}, reverse=True):
        if (kcap < n // 2) not in layers:
            layers[kcap < n // 2] = dp_matching_layers(w, kcap)
    for k in ks:
        kcap = min(k, n // 2)
        edges = dp_matching_walk(w, layers[kcap < n // 2], kcap)
        assert opt_matching(inst, k) == Matching.from_pairs(n, edges), k
        assert opt_densest(inst, k) == Subset(n, scan_densest(w, k)), k
    for k in range(1, n + 1):
        if n % k == 0 and n <= 10:
            assert opt_k_sum(inst, k) == Clustering(n, scan_k_sum(w, k)), k
        elif n % k == 0 and n <= 12:
            parts = opt_k_sum(inst, k).parts
            assert k_sum_running_total(w, parts) == k_sum_running_total(w, scan_k_sum(w, k)), k
            assert parts == scan_k_sum_best_prefixes(w, k), k
    if n >= 3:
        assert opt_tsp(inst) == Tour(n, held_karp(w))


class TestAgainstScalarDP:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(4, 13))
    def test_generated_instances(self, family, n):
        for seed in range(3):
            inst = generate(GeneratorSpec(family, n, seed=seed))
            assert_same_solutions(inst, range(1, n // 2 + 1))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_tie_heavy_integer_weights(self, n):
        rng = np.random.default_rng(n)
        for _ in range(4):
            w = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
            assert_same_solutions(WeightedInstance(w + w.T), range(1, n + 1))

    @pytest.mark.parametrize("problem,family,n,k", [
        ("mwm", "euclidean-uniform", 16, 8),
        ("mkm", "clustered-gaussian", 14, 4),
        ("tsp", "random-metric-closure", 14, None),
        ("densest", "random-metric-closure", 16, 8),
        ("ksum", "euclidean-uniform", 10, 5),
        ("ksum", "random-metric-closure", 8, 2),
    ])
    def test_desk_oracle_sizes(self, problem, family, n, k):
        inst = generate(GeneratorSpec(family, n, seed=0))
        w = inst.weights.tolist()
        if problem == "ksum":
            assert opt_k_sum(inst, k) == Clustering(n, scan_k_sum(w, k))
        elif problem == "tsp":
            assert opt_tsp(inst) == Tour(n, held_karp(w))
        elif problem == "densest":
            assert opt_densest(inst, k) == Subset(n, scan_densest(w, k))
        else:
            assert opt_matching(inst, k) == Matching.from_pairs(n, dp_matching(w, k))

    @pytest.mark.parametrize("zero_one", [True, False])
    def test_densest_at_the_cap(self, zero_one):
        n = DEFAULT_BUDGET.max_n_densest
        if zero_one:
            w = np.triu(np.random.default_rng(n).integers(0, 2, (n, n)), 1).astype(float)
            inst = WeightedInstance(w + w.T)
        else:
            inst = generate(GeneratorSpec("random-metric-closure", n, seed=0))
        w = inst.weights.tolist()
        for k in (1, 2, 3, n - 2, n - 1, n):
            assert opt_densest(inst, k) == Subset(n, scan_densest(w, k)), k

    def test_densest_past_int16_indices(self, monkeypatch):
        # n * n - 1 > 32767: a flat pair index must not wrap under a raised budget
        n = 200
        w = np.triu(np.random.default_rng(n).random((n, n)), 1)
        w[n - 2, n - 1] = 2.0  # the heaviest pair has the largest flat index
        inst = WeightedInstance(w + w.T)
        monkeypatch.setattr(oracle, "DEFAULT_BUDGET",
                            dataclasses.replace(DEFAULT_BUDGET, max_n_densest=n))
        assert opt_densest(inst, 2) == Subset(n, scan_densest(inst.weights.tolist(), 2))

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_tsp_tie_heavy_weights_up_to_the_cap(self, n):
        rng = np.random.default_rng(n)
        w = np.triu(rng.integers(0, 3, (n, n)), 1).astype(float)
        w += w.T
        assert opt_tsp(WeightedInstance(w)) == Tour(n, held_karp(w.tolist()))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tsp_at_the_cap(self, family):
        n = DEFAULT_BUDGET.max_n_tsp
        inst = generate(GeneratorSpec(family, n, seed=0))
        assert opt_tsp(inst) == Tour(n, held_karp(inst.weights.tolist()))

    def test_tsp_tables_of_one_size_never_serve_another(self):
        for n, seed in ((14, 0), (6, 1), (14, 2), (3, 3)):
            inst = generate(GeneratorSpec("random-metric-closure", n, seed=seed))
            assert opt_tsp(inst) == Tour(n, held_karp(inst.weights.tolist())), n

    def test_densest_sums_pair_weights_in_pair_order(self):
        # k=6 sums 15 pair weights, so a numpy sum over them would run
        # pairwise. In (i, j) order each 2**-53 of (0, 1, 2, 3, 5, 6) is lost
        # against the 1 and it ties the first subset, which wins; a pairwise
        # sum adds the two 2**-53 first and picks (0, 1, 2, 3, 5, 6).
        w = np.zeros((7, 7))
        for (u, v), x in {(0, 5): 1.0, (0, 6): 2.0**-53, (1, 5): 2.0**-53}.items():
            w[u, v] = w[v, u] = x
        inst = WeightedInstance(w)
        assert scan_densest(w.tolist(), 6) == (0, 1, 2, 3, 4, 5)
        assert opt_densest(inst, 6).nodes == (0, 1, 2, 3, 4, 5)

    def test_k_sum_sums_pair_weights_in_pair_order(self):
        # In (i, j) order each 2**-53 of part (0, 1, 3) is lost against the 1,
        # so ((0, 1, 3), (2, 4, 5)) ties the first partition, which wins; a sum
        # that adds the two 2**-53 first picks ((0, 1, 3), (2, 4, 5)).
        w = np.zeros((6, 6))
        for (u, v), x in {(0, 1): 1.0, (0, 3): 2.0**-53, (1, 3): 2.0**-53}.items():
            w[u, v] = w[v, u] = x
        assert scan_k_sum(w.tolist(), 2) == ((0, 1, 2), (3, 4, 5))
        assert opt_k_sum(WeightedInstance(w), 2).parts == ((0, 1, 2), (3, 4, 5))

    @pytest.mark.parametrize("seed,k", [(3, 4), (1, 6), (2, 6)])
    def test_k_sum_ties_keep_the_best_prefixes(self, seed, k):
        # random-metric-closure pair sums tie in the reals: scan_k_sum's lex-first
        # optimum has a prefix below its covered set's best running sum, so the oracle
        # returns a later partition with the same total, bit for bit
        n = 12
        inst = generate(GeneratorSpec("random-metric-closure", n, seed=seed))
        w = inst.weights.tolist()
        parts, scan = opt_k_sum(inst, k).parts, scan_k_sum(w, k)
        assert parts != scan and parts == scan_k_sum_best_prefixes(w, k)
        assert k_sum_running_total(w, parts) == k_sum_running_total(w, scan)

    def test_densest_tie_across_chunks_goes_to_the_first(self):
        # C(16, 8) = 12870 combinations span two chunks, and every one ties
        inst = WeightedInstance(np.ones((16, 16)) - np.eye(16))
        assert opt_densest(inst, 8).nodes == tuple(range(8))


def tied_weights(n, high, seed):
    """A weight matrix with entries drawn from range(high): ties everywhere."""
    w = np.triu(np.random.default_rng(seed).integers(0, high, (n, n)), 1).astype(float)
    return WeightedInstance(w + w.T)


class TestReachableSets:
    """The matching DP fills only the sets its lowest-node recursion reaches."""

    @pytest.mark.parametrize("n", range(2, 21))
    def test_blocks_rank_each_reachable_set_once_after_what_they_read(self, n):
        fib = [0, 1]
        while len(fib) < n + 3:
            fib.append(fib[-1] + fib[-2])
        # bit b for node n - 1 - b: from each set, drop its lowest node alone or with a partner
        reached, todo = {(1 << n) - 1}, [(1 << n) - 1]
        while todo:
            m = todo.pop()
            r = m ^ 1 << m.bit_length() - 1
            for nxt in [r] + [r ^ 1 << v for v in range(n) if r >> v & 1]:
                if nxt not in reached:
                    reached.add(nxt)
                    todo += [nxt] if nxt else []
        masks = sorted(reached)  # masks[s]: the set of rank s, the empty set first
        rank = {m: s for s, m in enumerate(masks)}
        assert len(masks) == fib[n + 2] and masks[0] == 0
        end = 1
        for b, (lo, hi, rest, src, partner, starts) in enumerate(_matching_blocks(n)):
            for t in (rest, src, partner, starts):
                assert t.dtype == np.int32 and not t.flags.writeable
            # block b is the run of sets whose lowest node is n - 1 - b, after block b - 1's
            assert lo == end and [m.bit_length() - 1 for m in masks[lo:hi]] == [b] * (hi - lo)
            end = hi
            rests = [m ^ 1 << b for m in masks[lo:hi]]
            assert rest.tolist() == [rank[r] for r in rests]
            assert (rest < lo).all() and (src < lo).all(), b  # it reads only lower ranks
            # one pair per node of the set above n - 1 - b, ascending bits; node
            # n - 1 - b with itself on the empty set when there is none
            bits = [[v for v in range(b) if r >> v & 1] or [b] for r in rests]
            assert starts[0] == 0 and np.diff(starts).tolist() == [len(v) for v in bits]
            assert partner.tolist() == [n - 1 - v for vs in bits for v in vs]
            assert src.tolist() == [rank[r & ~(1 << v)] for r, vs in zip(rests, bits) for v in vs]
        assert end == len(masks)  # every reached set has one rank, the full set the last

    # 0/1/2 weights up to n=15 and 0/1 weights, the most tied, up to n=16: the
    # scalar tables cost about 0.5 s per n=16 matrix
    @pytest.mark.parametrize("n,high", [(n, high) for n in (13, 14, 15, 16) for high in (3, 2)
                                        if (n, high) != (16, 3)])
    def test_tie_heavy_weights_match_the_scalar_dp(self, n, high):
        inst, half = tied_weights(n, high, n), n // 2
        w = inst.weights.tolist()
        # one scalar table for the caps that bind (n // 4 is the largest) and one for those that do not
        tables = {True: dp_matching_layers(w, n // 4), False: dp_matching_layers(w, half)}
        for k in (1, 2, n // 4, half, n):
            ref = dp_matching_walk(w, tables[k < half], min(k, half))
            assert opt_matching(inst, k) == Matching.from_pairs(n, ref), k

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_large_n_matches_the_dense_block_dp(self, n):
        # the three families at every n, and a 0/1 matrix at the cap
        insts = [generate(GeneratorSpec(family, n, seed=n)) for family in FAMILIES]
        if n == DEFAULT_BUDGET.max_n_matching:
            insts.append(tied_weights(n, 2, n))
        for inst in insts:
            # one table for the caps that bind (n // 2 - 1 is the largest) and one for n // 2
            w, half = inst.weights, n // 2
            tables = {True: dense_block_layers(w, half - 1), False: dense_block_layers(w, half)}
            for k in (1, 3, half - 1, half):
                assert opt_matching(inst, k) == Matching.from_pairs(
                    n, dense_block_walk(w, tables[k < half], k)), (n, k)

    def test_the_n_20_table_build_peaks_under_6_mib(self):
        # its mask -> rank array covers the 2^19 sets below the last block, not all 2^20: 7.2 MiB
        tracemalloc.start()
        try:
            _matching_blocks.__wrapped__(20)  # a cold build, outside the cache
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 6.0

    def test_a_binding_cap_at_n_20_peaks_under_16_mib(self):
        # (k + 1) * F(22) floats, not (k + 1) * 2^20: 85 MiB over the whole mask range
        inst = generate(GeneratorSpec("euclidean-uniform", 20, seed=0))
        _matching_blocks(20)  # the cached tables are built before tracing starts
        tracemalloc.start()
        try:
            opt_matching(inst, 9)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 16.0


class TestCombinationTable:
    """The densest oracle's combination table, built from popcount layers of masks."""

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
                             + [(16, 8), (20, 10)])
    def test_equals_the_itertools_table(self, n, k):
        dtype = np.min_scalar_type(n * n - 1)
        ref = np.array(list(itertools.combinations(range(n), k)), dtype).T
        table = _combinations(n, k)
        assert table.dtype == dtype and table.flags.c_contiguous and not table.flags.writeable
        assert np.array_equal(table, ref)


def layer_entries(m, p):
    """Masks with p of m bits set, ascending, and their members, ascending: the
    (mask, member) entries of Held-Karp layer p in order."""
    masks = np.array([s for s in range(1 << m) if bin(s).count("1") == p])
    row, member = np.nonzero(masks[:, None] >> np.arange(m) & 1)
    return masks[row], member


class TestHeldKarpTables:
    """Layer p of the tsp DP reads exactly the feasible (mask, endpoint, predecessor) triples."""

    @pytest.mark.parametrize("m", range(2, 15))
    def test_tables_name_each_feasible_triple(self, m):
        steps = _held_karp_steps(m)
        masks, member = layer_entries(m, 1)
        total = 0
        for p in range(2, m + 1):
            flat = np.full((1 << m, m), -1)  # (mask, member) -> entry of layer p - 1
            flat[masks, member] = np.arange(len(masks))
            masks, member = layer_entries(m, p)
            prev = masks ^ 1 << member
            preds = np.nonzero(prev[:, None] >> np.arange(m) & 1)[1].reshape(-1, p - 1).T
            index, pair = steps[p]
            assert index.shape == pair.shape == preds.shape, p
            assert (index == flat[prev, preds]).all() and (pair == preds * m + member).all(), p
            for table in (index, pair):
                assert table.dtype == np.min_scalar_type(table.max()) and not table.flags.writeable
            total += index.size
        assert total == m * (m - 1) << (m - 2)

    # the widest layers at n = 13...15 span several gathers, and ties are everywhere
    @pytest.mark.parametrize("n", [13, 14, 15])
    @pytest.mark.parametrize("weights", ["all-equal", "zero-one"])
    def test_tied_weights_match_the_scalar_dp(self, n, weights):
        if weights == "all-equal":
            inst = WeightedInstance(np.ones((n, n)) - np.eye(n))
        else:
            inst = tied_weights(n, 2, n)
        assert opt_tsp(inst) == Tour(n, held_karp(inst.weights.tolist()))
