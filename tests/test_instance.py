import contextlib
import io
import json
import math
import os
import threading

import numpy as np
import pytest
from _brute import (
    euclidean_by_tensor,
    friendship_by_tensor,
    metric_by_tensor,
    path_completion,
    scan_greedy,
    stable_argsort_ranking,
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
from ordmatch import instance
from ordmatch.instance import _Chunks, _instance_fields, _table_chunks

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

    def test_rejects_non_finite_points(self):
        with pytest.raises(MalformedInstanceError, match="points contain NaN"):
            WeightedInstance([[0, 1], [1, 0]], points=[[math.nan, 0], [math.inf, 1]])

    def test_negative_zero_weights_load_and_save_as_zero(self, tmp_path):
        """A file writes a lower cell from its mirror's text, so -0.0 is stored as 0.0."""
        path, saved = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text('{"weights": [[-0.0, -0.0], [0.0, 0]]}')
        inst = load_instance(str(path))
        assert not np.signbit(inst.weights).any()
        save_instance(inst, str(saved))
        assert '"weights": [[0.0, 0.0], [0.0, 0.0]]' in saved.read_text()

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

    # each loaded before as n=2 / metric=True / weights or points of 1.0
    @pytest.mark.parametrize("doc", [
        {"n": 2.9, "weights": [[0, 1], [1, 0]]},
        {"n": "2", "weights": [[0, 1], [1, 0]]},
        {"n": True, "weights": [[0, 1], [1, 0]]},
        {"weights": [[0, 1], [1, 0]], "metric": "false"},
        {"weights": [[0, "1"], ["1", 0]]},
        {"weights": [[False, True], [True, False]]},
        {"weights": [[0, 1], [1, 0]], "points": [["0"], ["1"]]},
        {"n": 2, "weights": [[0, True], [True, 0]]},
        {"weights": [[0, 0.5, True], [0.5, 0, 1], [True, 1, 0]]},
        {"weights": [[0, 1], [1, 0]], "points": [[0.5, True], [1, 2]]},
    ], ids=["n-float", "n-numeric-string", "n-bool", "metric-string", "weights-numeric-strings",
            "weights-bool", "points-numeric-strings", "weights-bool-among-ints",
            "weights-bool-among-floats", "points-bool-among-numbers"])
    def test_from_dict_rejects_fields_of_the_wrong_json_type(self, doc):
        with pytest.raises(MalformedInstanceError):
            WeightedInstance.from_dict(doc)

    @pytest.mark.parametrize("weights", [[[0, True], [True, 0]], [[0, np.True_], [np.True_, 0]],
                                         [[0.0, 1.0], [True, 0.0]]])
    def test_constructor_rejects_a_boolean_among_numbers(self, weights):
        with pytest.raises(MalformedInstanceError, match="numbers only"):
            WeightedInstance(weights)

    def test_rejects_a_boolean_among_integer_zero_one_weights(self):
        # every entry is 0 or 1, so every element's type is checked
        w = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert WeightedInstance(w).weights.tolist() == w
        for u, v, flag in ((0, 2, False), (1, 2, True)):
            bad = [row[:] for row in w]
            bad[u][v] = bad[v][u] = flag
            with pytest.raises(MalformedInstanceError, match="numbers only"):
                WeightedInstance.from_dict({"weights": bad})

    @pytest.mark.parametrize("u,v,flag", [(5, 5, np.False_), (5, 5, False), (2, 9, np.True_)])
    def test_rejects_numpy_bool_in_a_list(self, u, v, flag):
        # few entries are 0 or 1 (the diagonal), so only those are looked up
        w = generate(GeneratorSpec("euclidean-uniform", 70, seed=1)).weights.tolist()
        WeightedInstance(w)
        w[u][v] = w[v][u] = flag
        with pytest.raises(MalformedInstanceError, match="numbers only"):
            WeightedInstance(w)

    def test_from_dict_takes_integer_weights_and_points(self):
        inst = WeightedInstance.from_dict({"n": 2, "weights": [[0, 2], [2, 0]], "metric": True,
                                           "points": [[0, 1], [2, 3]]})
        assert inst.weights.dtype == inst.points.dtype == np.float64
        assert inst.weights.tolist() == [[0.0, 2.0], [2.0, 0.0]] and inst.metric is True

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

    def test_save_refuses_non_finite_meta(self, tmp_path):
        """save_instance writes strict JSON: no bare NaN or Infinity, and no file at all."""
        path = tmp_path / "inst.json"
        with pytest.raises(ValueError, match="Out of range float"):
            save_instance(WeightedInstance(square(3), meta={"x": math.nan}), str(path))
        with pytest.raises(ValueError, match="Out of range float"):
            save_instance(WeightedInstance(square(3), meta={"y": math.inf}), str(path))
        assert not path.exists()

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


def _gen_text(**dumps):
    """The ``gen --out`` text of a small instance, or ``json.dumps`` of it with ``dumps``."""
    inst = generate(GeneratorSpec("euclidean-uniform", 5, seed=3))
    if not dumps:
        return b"".join(_table_chunks("json", inst._fields(), "", inst.weights)).decode()
    return json.dumps(inst.to_dict(), **dumps) + "\n"


W2, W3 = "[[0, 1], [1, 0]]", "[[0, 2.5, 3], [2.5, 0, 4], [3, 4, 0]]"
ZERO_ONE = np.triu(np.random.default_rng(0).integers(0, 2, (40, 40)), 1)
LOADER_TEXTS = {
    "gen": _gen_text(),
    "indent-2": _gen_text(indent=2),
    "crlf": _gen_text(indent=2).replace("\n", "\r\n"),
    "tabs": _gen_text(indent="\t", separators=(",\t", ":\t")),
    "weights-last": '{"n": 3, "meta": {"family": "x"}, "metric": true, "weights": %s}' % W3,
    "weights-twice": '{"weights": %s, "n": 3, "weights": %s}' % (W2, W3),
    "weights-twice-first-bad": '{"weights": [[0, true], [true, 0]], "weights": %s}' % W2,
    "weights-twice-last-bad": '{"weights": %s, "weights": [[0, true], [true, 0]]}' % W2,
    "weights-in-meta": '{"meta": {"weights": %s}, "weights": %s}' % (W3, W2),
    "meta-weights-only": '{"meta": {"weights": %s}}' % W2,
    "integers": '{"weights": [[0, 3], [3, 0]], "points": [[0, 1], [2, 3]], "metric": false}',
    "zero-one": json.dumps({"weights": (ZERO_ONE + ZERO_ONE.T).tolist()}),
    "ints-and-floats": '{"weights": [[0, 1, 2.5], [1, 0, 7], [2.5, 7, 0]]}',
    "two-to-the-53": '{"weights": [[0, 9007199254740992], [9007199254740992, 0]]}',
    "two-to-the-53-plus-1": '{"weights": [[0, 9007199254740993], [9007199254740993, 0]]}',
    "two-to-the-64": '{"weights": [[0, 18446744073709551616], [18446744073709551616, 0]]}',
    "two-to-the-64-and-float": '{"weights": [[0, 18446744073709551616], [1.5e19, 0]]}',
    "two-to-the-64-and-minus-1": '{"weights": [[0, 18446744073709551616], [-1, 0]]}',
    "int-past-float": '{"weights": [[0, 1%s], [1%s, 0]]}' % ("0" * 400, "0" * 400),
    "nan": '{"weights": [[0.0, NaN], [NaN, 0.0]]}',
    "infinity": '{"weights": [[0.0, Infinity], [Infinity, 0.0]]}',
    "minus-infinity-and-int": '{"weights": [[0, -Infinity], [1, 0]]}',
    "negative-zero": '{"weights": [[-0.0, 0], [0, -0]]}',
    "asymmetric": '{"weights": [[0, 1], [2, 0]]}',
    "booleans": '{"weights": [[false, true], [true, false]]}',
    "bool-among-floats": '{"weights": [[0.0, 0.5, true], [0.5, 0.0, 1], [true, 1, 0.0]]}',
    "numeric-strings": '{"weights": [[0, "1"], ["1", 0]]}',
    "nulls": '{"weights": [[0, null], [null, 0]]}',
    "ragged": '{"weights": [[0, 1], [1]]}',
    "ragged-long": '{"weights": [[0, 1], [1, 0, 2]]}',
    "extra-row": '{"weights": [[0, 1], [1, 0], [1, 1]]}',
    "missing-row": '{"weights": [[0, 1, 2], [1, 0, 2]]}',
    "one-node": '{"weights": [[0]]}',
    "empty": '{"weights": []}',
    "empty-row": '{"weights": [[]]}',
    "rows-not-lists": '{"weights": [0, 1]}',
    "second-row-not-list": '{"weights": [[0, 1], 1]}',
    "nested-rows": '{"weights": [[[0], [1]], [[1], [0]]]}',
    "weights-object": '{"weights": {"a": 1}}',
    "weights-string": '{"weights": "abc"}',
    "points-bool": '{"weights": %s, "points": [[0.5, true], [1, 2]]}' % W2,
    "n-float": '{"n": 2.9, "weights": %s}' % W2,
    "trailing-comma-object": '{"weights": %s,}' % W2,
    "trailing-comma-weights": '{"weights": [[0, 1], [1, 0],]}',
    "trailing-comma-row": '{"weights": [[0, 1,], [1, 0]]}',
    "missing-comma": '{"weights": [[0, 1] [1, 0]]}',
    "missing-colon": '{"weights" %s}' % W2,
    "unclosed": '{"weights": %s' % W2,
    "bom": '\ufeff{"weights": %s}' % W2,
    "data-after": '{"weights": %s} 1' % W2,
    "second-object": '{"weights": %s}{}' % W2,
    "top-level-list": W2,
    "empty-object": "{}",
    "non-string-key": '{1: %s}' % W2,
    "blank": " \n",
}


def _load_like_before(path):
    """``from_dict(json.loads(text))`` of the file: an instance, or the exception's type and str."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return WeightedInstance.from_dict(json.loads(text))
    except Exception as exc:  # the exception is the result compared
        return type(exc), str(exc)


def _same_result(got, want):
    if isinstance(want, tuple):
        return got == want
    assert isinstance(got, WeightedInstance), got
    bits = (lambda a: None if a is None else (a.dtype, a.shape, a.tobytes()))
    return ((bits(got.weights), bits(got.points), got.metric, got.meta)
            == (bits(want.weights), bits(want.points), want.metric, want.meta))


def _one_character_edits(count=400):
    """Seeded deletions, insertions and replacements of one character in a small file."""
    base = '{"n": 3, "weights": [[0, 2.5, 3], [2.5, 0, 4], [3, 4, 0]], "meta": {"a": [1]}}'
    alphabet = '{}[]",:0123456789.-+eE tfnul\r\t'
    rng = np.random.default_rng(0)
    texts = []
    for _ in range(count):
        i, ch = int(rng.integers(len(base))), alphabet[rng.integers(len(alphabet))]
        texts.append([base[:i] + base[i + 1:], base[:i] + ch + base[i:],
                      base[:i] + ch + base[i + 1:]][rng.integers(3)])
    return texts


EDITED_TEXTS = _one_character_edits()


def _fields(text):
    """``_instance_fields`` of ``text``, read through a text stream, with the weights as
    bytes; None for a text it does not take."""
    try:
        d = _instance_fields(_Chunks(io.StringIO(text).read))
    except (ValueError, OverflowError, StopIteration):
        return None
    return {k: v.tobytes() if k == "weights" else v for k, v in d.items()}


def _load(path):
    try:
        return load_instance(str(path))
    except Exception as exc:
        return type(exc), str(exc)


class TestLoadInstanceMatchesJsonLoads:
    """load_instance reads weights one row at a time; every file loads or fails as from_dict
    of json.loads of its text does, with the same bits or the same exception and message."""

    @pytest.mark.parametrize("name", list(LOADER_TEXTS))
    def test_text(self, name, tmp_path):
        path = tmp_path / "inst.json"
        path.write_bytes(LOADER_TEXTS[name].encode("utf-8"))
        assert _same_result(_load(path), _load_like_before(path))

    def test_every_text_exercises_its_case(self, tmp_path):
        accepted, by_rows = set(), set()
        for name, text in LOADER_TEXTS.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(text.encode("utf-8"))
            if isinstance(_load_like_before(path), WeightedInstance):
                accepted.add(name)
            with contextlib.suppress(ValueError, OverflowError, StopIteration):
                _instance_fields(_Chunks(io.StringIO(text).read))
                by_rows.add(name)
        # the row reader takes these texts; json.loads reads every other one
        assert by_rows == {"gen", "indent-2", "crlf", "tabs", "weights-last", "weights-twice",
                           "weights-in-meta", "meta-weights-only", "integers", "zero-one",
                           "ints-and-floats", "nan", "infinity", "negative-zero", "asymmetric",
                           "one-node", "points-bool", "n-float"}
        assert accepted == {"gen", "indent-2", "crlf", "tabs", "weights-last", "weights-twice",
                            "weights-twice-first-bad", "weights-in-meta", "integers", "zero-one",
                            "ints-and-floats", "two-to-the-53", "two-to-the-53-plus-1",
                            "negative-zero"}

    def test_single_character_edits(self, tmp_path):
        """Seeded deletions, insertions and replacements of one character in a small file."""
        path = tmp_path / "inst.json"
        for text in EDITED_TEXTS:
            path.write_bytes(text.encode("utf-8"))
            assert _same_result(_load(path), _load_like_before(path)), text

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_edges(self, chunk, monkeypatch, tmp_path):
        """Read a few characters at a time, every text, edited or not, loads or fails as it
        does from one read, and the chunk reader takes the same texts with the same values."""
        texts = [*LOADER_TEXTS.values(), *EDITED_TEXTS]
        whole = [_fields(text) for text in texts]
        monkeypatch.setattr(instance, "_CHUNK", chunk)
        path = tmp_path / "inst.json"
        for text, want in zip(texts, whole):
            assert _fields(text) == want, text
            path.write_bytes(text.encode("utf-8"))
            assert _same_result(_load(path), _load_like_before(path)), text

    def test_a_number_cut_by_a_chunk_edge_is_read_whole(self, monkeypatch, tmp_path):
        text = '{"n": 1000, "weights": [[0, 1], [1, 0]]}'
        monkeypatch.setattr(instance, "_CHUNK", len('{"n": 10'))  # the first read ends at "10"
        assert _fields(text)["n"] == 1000
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(MalformedInstanceError, match="declared n=1000 does not match"):
            load_instance(str(path))

    def test_a_pipe_is_read_whole(self, tmp_path):
        """A file that cannot be read twice still loads, or fails as json.loads does."""
        for name in ("gen", "trailing-comma-row"):
            path = tmp_path / f"{name}.json"
            path.write_bytes(LOADER_TEXTS[name].encode("utf-8"))
            fifo = tmp_path / f"{name}.fifo"
            os.mkfifo(fifo)
            writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
            writer.start()
            got = _load(fifo)
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert _same_result(got, _load_like_before(path)), name


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

    @pytest.mark.parametrize("ranking, row", [
        (((1, 2, 3), (0, 2, 4), (0, 1, 3), (1, 0, 2)), 1),  # id n
        (((1, 2, 3), (0, 2, 3), (0, -1, 3), (1, 0, 2)), 2),  # negative id
        (((1, 2, 3), (0, 2, 2), (0, 1, 9), (1, 0, 2)), 1),  # a duplicate before an id past n
        (((1, 2, 3), (0, 2, 3), (0, 1, 2), (1, 0, 2)), 2),  # own node
        (((1, 2, 3), (0, 2, 3), (0, 1, 3), (1, 1, 2)), 3),  # duplicate in the last row
    ])
    def test_error_names_the_first_bad_row(self, ranking, row):
        with pytest.raises(ValueError, match=f"^row {row} is not a permutation of the other 3 nodes$"):
            PreferenceProfile(ranking)

    def test_error_for_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^ranking must have n - 1 = 2 entries in each of its 3 "):
            PreferenceProfile(((1, 2, 0), (0, 2, 1), (0, 1, 2)))

    @pytest.mark.parametrize("ranking", [
        [[1.7], [0.2]],
        [[1.0], [0.0]],
        [[True], [False]],
        [["1"], ["0"]],
        [[1, 2], [True, 2], [0, 1]],
        [[1, 2], [np.True_, 2], [0, 1]],
        np.array([[1.0], [0.0]]),
        np.array([[True], [False]]),
        [[1, 2], [0, 2], [0, None]],
    ], ids=["floats", "integral-floats", "booleans", "strings", "bool-among-ints",
            "numpy-bool-among-ints", "float-array", "bool-array", "null"])
    def test_rejects_entries_that_are_not_integers(self, ranking):
        with pytest.raises(ValueError, match="integers only"):
            PreferenceProfile(ranking)

    def test_takes_integers_of_any_integer_type(self):
        want = PreferenceProfile(((1, 2), (0, 2), (0, 1)))
        for ranking in ([[1, 2], [0, 2], [0, 1]], np.array([[1, 2], [0, 2], [0, 1]], np.uint8),
                        [[np.int64(1), 2], [0, 2], [0, 1]]):
            assert PreferenceProfile(ranking) == want
        assert PreferenceProfile([[]]).n == 1

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 200])
    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_generated_rankings_match_a_stable_argsort(self, family, n, seed):
        inst = generate(GeneratorSpec(family, n, seed=seed))
        want = stable_argsort_ranking(inst.weights)
        assert np.array_equal(derive_preferences(inst).ranking, want)

    @pytest.mark.parametrize("n", [4, 9, 50, 300])
    def test_tie_heavy_rankings_match_a_stable_argsort(self, n):
        w = np.triu(np.random.default_rng(n).integers(0, 3, (n, n)), 1).astype(float)
        w += w.T
        assert np.array_equal(derive_preferences(WeightedInstance(w)).ranking,
                              stable_argsort_ranking(w))

    @pytest.mark.parametrize("n", [2, 40, instance._BLOCK - 1, instance._BLOCK,
                                   instance._BLOCK + 1, 2 * instance._BLOCK + 1])
    def test_block_and_sort_edges_match_a_stable_argsort(self, n):
        """At and beside the sizes where a block ends or the sort changes, on random floats,
        an all-0/1 matrix (every row tied) and rows tied in one block only."""
        rng = np.random.default_rng(n)
        floats = np.triu(rng.random((n, n)), 1)
        zero_one = np.triu(rng.integers(0, 2, (n, n)), 1).astype(float)
        some_tied = floats.copy()
        some_tied[: min(n, instance._BLOCK) // 2, :] = 0.5
        for w in (floats, zero_one, np.triu(some_tied, 1)):
            w = w + w.T
            assert np.array_equal(derive_preferences(WeightedInstance(w)).ranking,
                                  stable_argsort_ranking(w))

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

    def test_families_tuple(self):
        assert set(GENERATOR_FAMILIES) == {
            "euclidean-uniform",
            "random-metric-closure",
            "clustered-gaussian",
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
