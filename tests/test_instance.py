import json
import math

import numpy as np
import pytest
from _brute import (
    euclidean_by_tensor,
    friendship_by_tensor,
    metric_by_tensor,
    path_completion,
    scan_greedy,
    tuple_rankings,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from ordmatch import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    MalformedInstanceError,
    PreferenceProfile,
    WeightedInstance,
    check_friendship,
    derive_preferences,
    generate,
    greedy_k_matching,
    hybrid_matchings,
    load_instance,
    matchings_to_tours,
    profile_consistent,
    save_instance,
    validate_metric,
)

W4 = [
    [0.0, 3.0, 1.0, 2.0],
    [3.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, 5.0],
    [2.0, 1.0, 5.0, 0.0],
]


@st.composite
def small_int_weights(draw, min_n, max_n, top):
    """Symmetric zero-diagonal matrix with integer weights in 0..top (tie-heavy)."""
    n = draw(st.integers(min_n, max_n))
    upper = draw(st.lists(st.integers(0, top), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = upper
    return w + w.T


def square(n, fill=1.0):
    w = [[fill] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = 0.0
    return w


class TestWeightMatrixValidation:
    def test_rejects_non_square(self):
        with pytest.raises(MalformedInstanceError):
            WeightedInstance([[0.0, 1.0]])

    def test_rejects_single_node(self):
        with pytest.raises(MalformedInstanceError):
            WeightedInstance([[0.0]])

    def test_rejects_nan_and_inf(self):
        w = square(3)
        w[0][1] = w[1][0] = math.nan
        with pytest.raises(MalformedInstanceError):
            WeightedInstance(w)
        w[0][1] = w[1][0] = math.inf
        with pytest.raises(MalformedInstanceError):
            WeightedInstance(w)

    def test_rejects_negative(self):
        w = square(3)
        w[0][1] = w[1][0] = -0.5
        with pytest.raises(MalformedInstanceError):
            WeightedInstance(w)

    def test_rejects_asymmetric(self):
        w = square(3)
        w[0][1] = 2.0
        with pytest.raises(MalformedInstanceError):
            WeightedInstance(w)

    def test_rejects_nonzero_diagonal(self):
        w = square(3)
        w[1][1] = 1.0
        with pytest.raises(MalformedInstanceError):
            WeightedInstance(w)

    def test_rejects_points_row_mismatch(self):
        with pytest.raises(MalformedInstanceError):
            WeightedInstance(square(3), points=[[0.0, 0.0]])

    def test_weights_are_read_only(self):
        inst = WeightedInstance(square(3))
        with pytest.raises(ValueError):
            inst.weights[0][1] = 9.0


class TestWeightedInstance:
    def test_basic_accessors(self):
        inst = WeightedInstance(W4)
        assert inst.n == 4
        assert inst.weight(0, 1) == 3.0
        assert inst.weight(1, 0) == 3.0
        assert inst.total_weight() == 13.0

    def test_round_trip_dict(self):
        inst = WeightedInstance(W4, metric=False, meta={"tag": "x"})
        back = WeightedInstance.from_dict(inst.to_dict())
        assert np.array_equal(back.weights, inst.weights)
        assert back.metric == inst.metric
        assert back.meta == {"tag": "x"}

    def test_from_dict_rejects_missing_weights(self):
        with pytest.raises(MalformedInstanceError):
            WeightedInstance.from_dict({"n": 2})

    def test_from_dict_rejects_size_mismatch(self):
        with pytest.raises(MalformedInstanceError):
            WeightedInstance.from_dict({"n": 5, "weights": W4})

    def test_from_dict_rejects_asymmetric_payload(self):
        w = square(3)
        w[0][1] = 2.0
        with pytest.raises(MalformedInstanceError):
            WeightedInstance.from_dict({"weights": w})

    def test_save_load_round_trip(self, tmp_path):
        inst = generate(GeneratorSpec("euclidean-uniform", 6, seed=9))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        back = load_instance(str(path))
        assert np.array_equal(back.weights, inst.weights)
        assert back.metric == inst.metric
        # file is plain JSON with the documented fields
        payload = json.loads(path.read_text())
        assert payload["n"] == 6 and "weights" in payload

    @pytest.mark.parametrize("family", ["euclidean-uniform", "random-metric-closure", "clustered-gaussian"])
    def test_indented_file_loads_like_the_compact_one(self, family, tmp_path):
        """A file in the indent=2 layout older versions wrote loads to the same bits."""
        inst = generate(GeneratorSpec(family, 9, seed=4))
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_instance(inst, str(compact))
        indented.write_text(json.dumps(inst.to_dict(), indent=2) + "\n")
        assert len(compact.read_text().splitlines()) == 1
        a, b = load_instance(str(compact)), load_instance(str(indented))
        assert a.weights.tobytes() == b.weights.tobytes() == inst.weights.tobytes()
        if inst.points is None:
            assert a.points is None and b.points is None
        else:
            assert a.points.tobytes() == b.points.tobytes() == inst.points.tobytes()
        assert (a.metric, a.meta) == (b.metric, b.meta) == (inst.metric, inst.meta)


class TestValidateMetric:
    def test_triangle_violation_detected(self):
        w = square(3)
        w[1][2] = w[2][1] = 3.0
        inst = WeightedInstance(w)
        assert not validate_metric(inst)
        assert validate_metric(inst, tol=1.0)

    def test_all_equal_is_metric(self):
        assert validate_metric(WeightedInstance(square(5)))

    def test_zero_matrix_is_metric(self):
        assert validate_metric(WeightedInstance(square(4, fill=0.0)))

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            validate_metric(WeightedInstance(square(3)), tol=-1e-9)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError):
            validate_metric(WeightedInstance(square(3)), tol=tol)

    def test_exact_check_can_fail_collinear_points(self):
        # rounding in the distances breaks tight triangles, as the docstring warns
        s = np.random.default_rng(0).random(12)
        points = np.stack([s, 0.3 * s + 0.1], axis=1)
        w = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
        assert not validate_metric(WeightedInstance(w), tol=0.0)
        assert validate_metric(WeightedInstance(w), tol=1e-9 * w.max())


class TestCheckFriendship:
    def test_alpha_domain(self):
        inst = WeightedInstance(square(4))
        with pytest.raises(ValueError):
            check_friendship(inst, -0.1)
        with pytest.raises(ValueError):
            check_friendship(inst, 0.6)

    def test_all_equal_passes_at_half(self):
        assert check_friendship(WeightedInstance(square(4)), 0.5)

    def test_weak_edge_fails_then_passes_at_lower_alpha(self):
        w = square(4)
        w[0][1] = w[1][0] = 0.9
        inst = WeightedInstance(w)
        assert not check_friendship(inst, 0.5)
        assert check_friendship(inst, 0.4375)

    def test_friendship_at_third_implies_metric(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            alpha = float(rng.uniform(1 / 3, 0.5))
            lo = 2 * alpha
            w = rng.uniform(lo, 1.0, size=(n, n))
            w = np.triu(w, 1)
            w = w + w.T
            inst = WeightedInstance(w)
            assert check_friendship(inst, alpha)
            assert validate_metric(inst, 0.0)


class TestPivotChecksMatchTensor:
    @settings(max_examples=150, deadline=None)
    @given(small_int_weights(3, 10, 4), st.sampled_from([0.0, 0.5, 1.0]))
    def test_validate_metric(self, w, tol):
        # small integers give both violations (1 + 1 < 4) and exactly tight triangles
        assert validate_metric(WeightedInstance(w), tol) == metric_by_tensor(w, tol)

    @settings(max_examples=150, deadline=None)
    @given(small_int_weights(3, 10, 4), st.sampled_from([0.0, 0.25, 1 / 3, 0.5, None]))
    def test_check_friendship(self, w, alpha):
        if alpha is None:
            # the instance's own worst ratio: its tightest triple sits exactly at alpha
            via = w[:, :, None] + w[None, :, :]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = w[:, None, :] / via
            off = ~np.eye(len(w), dtype=bool)[:, None, :] & (via > 0)
            alpha = min(0.5, float(ratios[off].min())) if off.any() else 0.5
        assert check_friendship(WeightedInstance(w), alpha) == friendship_by_tensor(w, alpha)


class TestPreferenceProfile:
    def test_rejects_row_containing_self(self):
        with pytest.raises(ValueError):
            PreferenceProfile(((0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 1, 2)))

    def test_rejects_wrong_length_row(self):
        with pytest.raises(ValueError):
            PreferenceProfile(((1, 2), (0, 3, 2), (0, 1, 3), (1, 0, 2)))

    def test_rejects_duplicate_entries(self):
        with pytest.raises(ValueError):
            PreferenceProfile(((1, 1, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))

    def test_position_and_prefers(self):
        p = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))
        assert p.n == 4
        assert p.position(1, 3) == 1
        assert p.prefers(1, 3, 2)
        assert not p.prefers(1, 2, 3)

    def test_round_trip_dict(self):
        p = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))
        assert PreferenceProfile.from_dict(p.to_dict()) == p

    def test_tables_are_read_only_and_rank_inverts_ranking(self):
        p = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))
        assert p.ranking.dtype == np.int32 and p.ranking.shape == (4, 3)
        for table in (p.ranking, p.rank):
            with pytest.raises(ValueError):
                table[0, 0] = 2
        for i in range(4):
            assert [int(p.rank[i, j]) for j in p.ranking[i]] == [0, 1, 2]
            assert p.rank[i, i] == 3
        with pytest.raises(ValueError):
            p.position(2, 2)


class TestDerivePreferences:
    def test_known_matrix_with_ties(self):
        # ties broken toward the lower index
        p = derive_preferences(WeightedInstance(W4))
        assert p.ranking.tolist() == [
            [1, 3, 2],
            [0, 2, 3],
            [3, 0, 1],
            [2, 0, 1],
        ]

    def test_all_equal_weights_rank_by_index(self):
        p = derive_preferences(WeightedInstance(square(4)))
        assert p.ranking.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]

    def test_derived_profile_is_consistent(self):
        inst = generate(GeneratorSpec("random-metric-closure", 7, seed=3))
        assert profile_consistent(derive_preferences(inst), inst)

    def test_inconsistent_profile_detected(self):
        inst = WeightedInstance(W4)
        bad = PreferenceProfile(((2, 3, 1), (0, 2, 3), (3, 0, 1), (2, 0, 1)))
        assert not profile_consistent(bad, inst)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 7))
    def test_consistency_and_order_preserving_rescale(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 10.0, size=(n, n))
        w = np.triu(w, 1)
        w = w + w.T
        inst = WeightedInstance(w)
        prof = derive_preferences(inst)
        assert profile_consistent(prof, inst)
        # power-of-two scaling and squaring are exactly order-preserving
        assert derive_preferences(WeightedInstance(w * 4.0)) == prof
        assert derive_preferences(WeightedInstance(w * w)) == prof


class TestArrayProfileMatchesTupleReference:
    @settings(max_examples=120, deadline=None)
    @given(small_int_weights(2, 12, 2))
    def test_rankings_positions_and_prefers(self, w):
        rows = tuple_rankings(w)
        inst = WeightedInstance(w)
        p = derive_preferences(inst)
        assert p.ranking.tolist() == [list(r) for r in rows]
        assert profile_consistent(p, inst)
        for i, row in enumerate(rows):
            for j in row:
                assert p.position(i, j) == row.index(j)
                for k in row:
                    assert p.prefers(i, j, k) == (row.index(j) < row.index(k))

    @settings(max_examples=120, deadline=None)
    @given(small_int_weights(2, 12, 2))
    def test_greedy_for_every_k(self, w):
        rows = tuple_rankings(w)
        p = derive_preferences(WeightedInstance(w))
        for k in range(1, len(w) // 2 + 2):
            assert greedy_k_matching(p, k).sorted_edges() == scan_greedy(rows, k)

    @settings(max_examples=60, deadline=None)
    @given(small_int_weights(4, 12, 2), st.integers(0, 2**32 - 1))
    def test_tour_rows_follow_path_completion(self, w, seed):
        n = len(w)
        p = derive_preferences(WeightedInstance(w))
        gen = np.random.default_rng(seed)
        matchings = hybrid_matchings(p, 8, gen)
        tours = matchings_to_tours(matchings, p, gen)
        rows = p.ranking.tolist()
        for edges, tour in zip(matchings.tolist(), tours.tolist()):
            path = path_completion(edges, rows, None, start=tour[0])
            assert path == tour[: 2 * len(edges)]


class TestGenerators:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("no-such-family", 6)
        with pytest.raises(ValueError):
            GeneratorSpec("euclidean-uniform", 1)
        with pytest.raises(ValueError):
            GeneratorSpec("euclidean-uniform", 6, dimension=0)
        with pytest.raises(ValueError):
            GeneratorSpec("clustered-gaussian", 6, clusters=0)
        with pytest.raises(ValueError):
            GeneratorSpec("explicit", 4)

    def test_families_tuple(self):
        assert set(GENERATOR_FAMILIES) == {
            "euclidean-uniform",
            "random-metric-closure",
            "clustered-gaussian",
            "explicit",
        }

    @pytest.mark.parametrize("family", ["euclidean-uniform", "random-metric-closure", "clustered-gaussian"])
    def test_deterministic_given_seed(self, family):
        a = generate(GeneratorSpec(family, 8, seed=11))
        b = generate(GeneratorSpec(family, 8, seed=11))
        c = generate(GeneratorSpec(family, 8, seed=12))
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    @pytest.mark.parametrize("family", ["euclidean-uniform", "random-metric-closure", "clustered-gaussian"])
    def test_random_families_are_metric(self, family):
        for seed in range(6):
            inst = generate(GeneratorSpec(family, 7, seed=seed))
            assert inst.metric
            assert validate_metric(inst, tol=1e-9 * float(inst.weights.max()))

    @pytest.mark.parametrize("family", ["euclidean-uniform", "clustered-gaussian"])
    @pytest.mark.parametrize("dimension", range(1, 8))
    def test_weights_match_the_difference_tensor_bit_for_bit(self, family, dimension):
        # below 8 coordinates numpy sums the tensor's last axis in order, as
        # the per-coordinate accumulation does
        for seed in range(3):
            inst = generate(GeneratorSpec(family, 120, dimension=dimension, seed=seed))
            assert inst.weights.tobytes() == euclidean_by_tensor(inst.points).tobytes()

    def test_euclidean_carries_points(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 5, seed=0, dimension=3))
        assert inst.points is not None and inst.points.shape == (5, 3)
        d01 = float(np.linalg.norm(inst.points[0] - inst.points[1]))
        assert inst.weight(0, 1) == pytest.approx(d01, rel=1e-12)

    def test_explicit_family_measures_metric_flag(self):
        metric = generate(GeneratorSpec("explicit", 4, weights=square(4)))
        assert metric.metric
        w = square(3)
        w[1][2] = w[2][1] = 3.0
        broken = generate(GeneratorSpec("explicit", 3, weights=w))
        assert not broken.metric
