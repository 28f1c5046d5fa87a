import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
import threading
import tracemalloc
from collections import Counter, deque

import _brute
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
    TrialConfig,
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
from ordmatch.instance import _gen_fields, _inverse, render

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

    @pytest.mark.parametrize("weights", [5, 2.5, np.float64(1.0), []])
    def test_a_scalar_or_empty_table_is_not_square(self, weights):
        """The table reader scans a table for booleans, never a scalar."""
        with pytest.raises(MalformedInstanceError, match="square, got shape"):
            WeightedInstance(weights)

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

    def test_a_callers_array_is_copied(self):
        """Only a matrix its builder hands over is kept uncopied: a caller's own array is
        neither frozen nor rewritten by the -0.0 to 0.0 normalization."""
        w = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        inst = WeightedInstance(w)
        assert w.flags.writeable and np.signbit(w).sum() == 2
        assert not np.signbit(inst.weights).any() and not np.shares_memory(w, inst.weights)
        w[0, 2] = w[2, 0] = 5.0
        assert inst.weights[0, 2] == 1.0


class TestWeightedInstance:
    def test_basic_accessors(self):
        inst = WeightedInstance(W4)
        assert inst.n == 4
        assert inst.weights[0, 1] == 3.0
        assert inst.weights[1, 0] == 3.0
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

    # one rule, one message, whatever the wrong JSON type
    @pytest.mark.parametrize("doc,message", [
        ({"n": "two", "weights": [[0, 1], [1, 0]]}, "'n' must be an integer"),
        ({"n": [2], "weights": [[0, 1], [1, 0]]}, "'n' must be an integer"),
        ({"n": None, "weights": [[0, 1], [1, 0]]}, "'n' must be an integer"),
        ({"n": 2.9, "weights": [[0, 1], [1, 0]]}, "'n' must be an integer"),
        ({"weights": "abc"}, "weight matrix must hold numbers only"),
        ({"weights": {"a": 1}}, "weight matrix must hold numbers only"),
        ({"weights": [[0, 1], [1, 0]], "points": {"a": 1}}, "points must hold numbers only"),
        ({"weights": [[0, 1], [1, 0]], "points": "ab"}, "points must hold numbers only"),
        ({"weights": [[0, 1], [1]]}, "weight matrix must be a list of rows of one length"),
        ({"weights": [[0, 1], 1]}, "weight matrix must be a list of rows of one length"),
        ({"weights": [[0, 1], [1, 0]], "points": [[0, 1], [2]]},
         "points must be a list of rows of one length"),
    ], ids=["n-string", "n-list", "n-null", "n-float", "weights-string", "weights-object",
            "points-object", "points-string", "weights-ragged", "weights-row-among-numbers",
            "points-ragged"])
    def test_from_dict_names_the_rule_a_field_breaks(self, doc, message):
        with pytest.raises(MalformedInstanceError, match=message):
            WeightedInstance.from_dict(doc)

    @pytest.mark.parametrize("weights", [[[0, True], [True, 0]], [[0, np.True_], [np.True_, 0]],
                                         [[0.0, 1.0], [True, 0.0]]])
    def test_constructor_rejects_a_boolean_among_numbers(self, weights):
        with pytest.raises(MalformedInstanceError, match="numbers only"):
            WeightedInstance(weights)

    def test_rejects_a_boolean_among_integer_zero_one_weights(self):
        # every entry is 0 or 1, so no value tells a boolean from an int: only its type does
        w = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert WeightedInstance(w).weights.tolist() == w
        for u, v, flag in ((0, 2, False), (1, 2, True)):
            bad = [row[:] for row in w]
            bad[u][v] = bad[v][u] = flag
            with pytest.raises(MalformedInstanceError, match="numbers only"):
                WeightedInstance.from_dict({"weights": bad})

    @pytest.mark.parametrize("u,v,flag", [(5, 5, np.False_), (5, 5, False), (2, 9, np.True_)])
    def test_rejects_numpy_bool_in_a_list(self, u, v, flag):
        # on the diagonal, where a weight is 0, and off it
        w = generate(GeneratorSpec("euclidean-uniform", 70, seed=1)).weights.tolist()
        WeightedInstance(w)
        w[u][v] = w[v][u] = flag
        with pytest.raises(MalformedInstanceError, match="numbers only"):
            WeightedInstance(w)

    def test_rejects_a_boolean_in_a_row_past_the_first(self):
        """A 0/1 matrix as json.loads gives it, with one ``true`` in its last row only."""
        n = 300
        upper = np.triu(np.random.default_rng(4).integers(0, 2, (n, n)), 1)
        doc = json.loads(json.dumps({"weights": (upper + upper.T).tolist()}))
        assert WeightedInstance.from_dict(doc).n == n
        doc["weights"][n - 1][7] = doc["weights"][7][n - 1] = True
        with pytest.raises(MalformedInstanceError, match="numbers only"):
            WeightedInstance.from_dict(doc)

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
        return b"".join(render("json", inst._fields(), "", inst.weights)).decode()
    return json.dumps(inst.to_dict(), **dumps) + "\n"


W2, W3 = "[[0, 1], [1, 0]]", "[[0, 2.5, 3], [2.5, 0, 4], [3, 4, 0]]"
# the same matrices in gen's layout, which the row reader takes
W3F_ROWS = ("[0.0, 2.5, 3.0]", "[2.5, 0.0, 4.0]", "[3.0, 4.0, 0.0]")
W2F, W3F = "[[0.0, 1.0], [1.0, 0.0]]", "[%s]" % ", ".join(W3F_ROWS)
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
    # rows the row reader gives up at, sending the file to json.loads: a left text that is not,
    # byte for byte, its mirror's, or a separator other than ", "; a cell of 300 characters is taken
    "mirror-int-against-float": '{"weights": [[0, 1.0, 2], [1, 0, 3], [2, 3, 0]]}',
    "mirror-negative-zero": '{"weights": [[0.0, 0.0, 1.5], [-0.0, 0.0, 2.5], [1.5, 2.5, 0.0]]}',
    "mirror-differs": '{"weights": [[0.0, 1.5, 2.0], [1.5, 0.0, 3.0], [2.0, 3.5, 0.0]]}',
    "comma-from-row-1": '{"weights": [[0.0, 1.5, 2.0], [1.5,0.0,3.0], [2.0,3.0,0.0]]}',
    "two-spaces": '{"weights": [[0.0,  1.5], [1.5,  0.0]]}',
    # one ", " fewer than cells: a row 1 text matching a misplaced mirror would pass as symmetric
    "comma-then-space": '{"weights": [[0.0,1.5, 2.5], [2.5, 0.0, 3.5], [2.5, 3.5, 0.0]]}',
    "long-cell": '{"weights": [[0.0, 1.%s], [1.%s, 0.0]]}' % ("0" * 300, "0" * 300),
    "int-left-big-float-right": '{"weights": [[0.0, 1, 2.0], [1, 0.0, 1e16], [2.0, 1e16, 0.0]]}',
    # gen's layout with a lower cell that is not its mirror's text: a fullwidth digit, which
    # json.loads refuses, and "0.50" for "0.5", the same float, which it reads
    "non-ascii-left-of-diagonal": '{"weights": [[0.0, 1.5, 2.0], [\uff11.5, 0.0, 3.0], '
                                  '[2.0, 3.0, 0.0]]}',
    "mirror-same-float": '{"weights": [[0.0, 0.5, 2.0], [0.50, 0.0, 3.0], [2.0, 3.0, 0.0]]}',
    "non-ascii-meta": '{"meta": {"name": "caf\u00e9 \u2003"}, "weights": %s}' % W3,
    "non-ascii-space": '{"weights": [[0.0, 1.5], [1.5,\u00a00.0]]}',
    "one-node-float": '{"weights": [[0.0]]}',
    "two-nodes": '{"weights": [[0.0, 0.5], [0.5, 0.0]]}',
    # the first row's cells are short, so the mirror buffer grows at the second row
    "first-row-shorter": '{"weights": [[0, 1, 1], [1, 0, 1.%s1], [1, 1.%s1, 0]]}' % ("0" * 40,
                                                                                 "0" * 40),
    "first-row-shorter-floats": '{"weights": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.%s1], '
                                '[1.0, 1.%s1, 0.0]]}' % ("0" * 40, "0" * 40),
    # float twins of texts above whose int weights send them to json.loads: the row reader
    # reads weights-twice up to its tail, whose second "weights" json.loads reads, and
    # first-row-shorter and points-bool whole; the others leave gen's layout before the
    # weights (line breaks, tabs, keys before "weights", a non-integer "n"), so json.loads
    # reads them too
    "crlf-floats": '{\r\n  "n": 3,\r\n  "weights": [%s,\r\n    %s,\r\n    %s]\r\n}' % W3F_ROWS,
    "tabs-floats": '{\t"weights":\t[%s,\t%s,\t%s],\t"metric":\ttrue}' % W3F_ROWS,
    "weights-last-floats": '{"n": 3, "meta": {"family": "x"}, "metric": true, "weights": %s}'
                           % W3F,
    "weights-twice-floats": '{"weights": %s, "n": 3, "weights": %s}' % (W2F, W3F),
    "non-ascii-meta-floats": '{"meta": {"name": "caf\u00e9 \u2003"}, "weights": %s}' % W3F,
    "points-bool-floats": '{"weights": %s, "points": [[0.5, true], [1, 2]]}' % W2F,
    "n-float-floats": '{"n": 2.9, "weights": %s}' % W2F,
    # gen's layout with the head or the tail after the weights edited
    "missing-comma-after-weights": '{"n": 3, "weights": %s "meta": {"a": 1}}' % W3F,
    "trailing-comma-after-weights": '{"n": 3, "weights": %s, }' % W3F,
    "n-and-weights-in-tail": '{"n": 2, "weights": %s, "n": 3, "weights": %s}' % (W2F, W3F),
    "non-ascii-meta-after-weights": '{"n": 3, "weights": %s, "meta": {"name": "caf\u00e9 \u2003"}}'
                                    % W3F,
    "n-minus-zero": '{"n": -0, "weights": %s}' % W2F,
    "n-exponent": '{"n": 1e3, "weights": %s}' % W2F,
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


def _one_character_edits(base, count=400):
    """Seeded deletions, insertions and replacements of one character in ``base``."""
    alphabet = '{}[]",:0123456789.-+eE tfnul\r\t'
    rng = np.random.default_rng(0)
    texts = []
    for _ in range(count):
        i, ch = int(rng.integers(len(base))), alphabet[rng.integers(len(alphabet))]
        texts.append([base[:i] + base[i + 1:], base[:i] + ch + base[i:],
                      base[:i] + ch + base[i + 1:]][rng.integers(3)])
    return texts


# edits of a file with int weights, which json.loads reads, and of the same file in gen's
# layout, whose edits the row reader reads up to the first row it gives up at
EDITED_TEXTS = [*_one_character_edits('{"n": 3, "weights": %s, "meta": {"a": [1]}}' % W3),
                *_one_character_edits('{"n": 3, "weights": %s, "meta": {"a": [1]}}' % W3F)]


def _fields(text):
    """``_gen_fields`` of ``text``, read through a text stream, with the weights as bytes (or
    as the list a ``"weights"`` repeated after them gives); None for a text it does not take."""
    try:
        d = _gen_fields(io.StringIO(text).read)
    except (ValueError, OverflowError, StopIteration):
        return None
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in d.items()}


def _load(path):
    try:
        return load_instance(str(path))
    except Exception as exc:
        return type(exc), str(exc)


def _mirrored(monkeypatch) -> list:
    """A list that gets the index of each weight row the row reader reads from here on: its
    one ``_push`` per row, the call the writer makes per row too."""
    taken, push = [], instance._push

    def counted(left, r, cells, sep):
        taken.append(r)
        push(left, r, cells, sep)

    monkeypatch.setattr(instance, "_push", counted)
    return taken


# weight rows the row reader reads before it gives up and json.loads reads the text
MIRROR_ROWS = {"gen": 5, "indent-2": 0, "mirror-int-against-float": 0, "mirror-negative-zero": 1,
               "mirror-differs": 2, "comma-from-row-1": 1, "two-spaces": 1,
               "comma-then-space": 0, "long-cell": 2,
               "int-left-big-float-right": 0, "non-ascii-left-of-diagonal": 1,
               "mirror-same-float": 1, "non-ascii-meta": 0, "non-ascii-space": 1,
               "one-node-float": 1, "two-nodes": 2, "first-row-shorter": 0,
               "first-row-shorter-floats": 3, "crlf-floats": 0, "tabs-floats": 0,
               "weights-last-floats": 0, "weights-twice-floats": 2, "non-ascii-meta-floats": 0,
               "points-bool-floats": 2, "n-float-floats": 0, "missing-comma-after-weights": 3,
               "trailing-comma-after-weights": 3, "n-and-weights-in-tail": 2,
               "non-ascii-meta-after-weights": 3, "n-minus-zero": 2, "n-exponent": 0}


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
                _gen_fields(io.StringIO(text).read)
                by_rows.add(name)
        # the texts written for the mirror check; the row reader takes these, in gen's layout,
        # and json.loads reads every other one
        mirror = {"mirror-int-against-float", "mirror-negative-zero", "mirror-differs",
                  "comma-from-row-1", "two-spaces", "comma-then-space", "long-cell",
                  "non-ascii-meta", "one-node-float", "two-nodes", "first-row-shorter",
                  "first-row-shorter-floats", "non-ascii-left-of-diagonal", "mirror-same-float"}
        twins = {name for name in LOADER_TEXTS if name.endswith("-floats")} - {"ints-and-floats",
                                                                               "bool-among-floats"}
        assert {name.removesuffix("-floats") for name in twins} <= set(LOADER_TEXTS)
        assert by_rows == {"gen", "nan", "infinity", "long-cell", "one-node-float", "two-nodes",
                           "n-and-weights-in-tail", "non-ascii-meta-after-weights", "n-minus-zero",
                           *twins - {"crlf-floats", "tabs-floats", "weights-last-floats",
                                     "non-ascii-meta-floats", "n-float-floats"}}
        assert accepted == {"gen", "indent-2", "crlf", "tabs", "weights-last", "weights-twice",
                            "weights-twice-first-bad", "weights-in-meta", "integers", "zero-one",
                            "ints-and-floats", "two-to-the-53", "two-to-the-53-plus-1",
                            "negative-zero", "int-left-big-float-right",
                            *mirror - {"mirror-differs", "comma-then-space", "one-node-float",
                                       "non-ascii-left-of-diagonal"},
                            "n-and-weights-in-tail", "non-ascii-meta-after-weights",
                            *twins - {"points-bool-floats", "n-float-floats"}}

    @pytest.mark.parametrize("name", list(MIRROR_ROWS))
    def test_mirror_rows(self, name, monkeypatch):
        taken = _mirrored(monkeypatch)
        with contextlib.suppress(ValueError, OverflowError, StopIteration):
            _gen_fields(io.StringIO(LOADER_TEXTS[name]).read)
        assert len(taken) == MIRROR_ROWS[name]

    def test_the_edits_in_gen_layout_reach_the_row_reader(self, monkeypatch):
        """Of the 400 edits of the file in gen's layout, the row reader takes 55 whole, and it
        reads 0, 1, 2 and all 3 weight rows of 121, 80, 83 and 116 of them. A reader of JSON keys
        took 91 whole (114, 77, 80, 129); the 36 more it took go to json.loads: 22 that rename
        "weights" (no weights, as from_dict then says) and 7 that edit the head's spaces or the
        "n" key, at the head; 6 that write "],[" between two rows, at that row; and one with
        "\r" for the space before "meta", at the tail."""
        taken, rows, pushed = 0, Counter(), _mirrored(monkeypatch)
        for text in EDITED_TEXTS[400:]:
            pushed.clear()
            taken += _fields(text) is not None
            rows[len(pushed)] += 1
        assert (taken, rows) == (55, {0: 121, 1: 80, 2: 83, 3: 116})

    def test_a_gen_file_takes_the_mirror_path_on_every_row(self, monkeypatch, tmp_path):
        """Every row of a file ``gen`` writes is read from its diagonal on: a silent fall back
        to json.loads would keep the bits and lose the speed and the memory. json.loads reads
        the tail after the weights only."""
        inst = generate(GeneratorSpec("euclidean-uniform", 300, seed=0))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        taken, parsed, loads = _mirrored(monkeypatch), [], json.loads
        monkeypatch.setattr(instance.json, "loads", lambda text: parsed.append(text) or loads(text))
        assert load_instance(str(path)).weights.tobytes() == inst.weights.tobytes()
        assert taken == list(range(300))
        assert len(parsed) == 1 and parsed[0].startswith('{"metric": ')
        assert "weights" not in parsed[0]

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

    def test_a_head_cut_by_a_chunk_edge_is_read_whole(self, monkeypatch, tmp_path):
        text = '{"n": 1000, "weights": [[0.0, 1.0], [1.0, 0.0]]}'
        monkeypatch.setattr(instance, "_CHUNK", len('{"n": 10'))  # the first read ends in "10"
        assert _fields(text)["n"] == 1000
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(MalformedInstanceError, match="declared n=1000 does not match"):
            load_instance(str(path))

    @pytest.mark.parametrize("head", ['{"weights": [', '{"n": 1000000, "weights": ['])
    def test_a_first_row_too_long_to_allocate_is_read_by_json_loads(self, head, tmp_path):
        """A 5 MB first row of 10^6 cells sizes a (10^6, 10^6) matrix numpy cannot allocate:
        the MemoryError sends the file to json.loads, like any text the row reader gives up at."""
        path = tmp_path / "long.json"
        path.write_text(head + "[0.0" + ", 1.5" * (10**6 - 1) + "]]}")
        with pytest.raises(MalformedInstanceError, match=r"square, got shape \(1, 1000000\)"):
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


class TestMirrorBuckets:
    """The cell texts a weight row owes the rows below it are held in one bucket per row not yet
    reached, by the writer and by the loader, and a row's bucket goes once it is read."""

    N = 400

    @pytest.fixture(scope="class")
    def gen_file(self, tmp_path_factory):
        inst = generate(GeneratorSpec("euclidean-uniform", self.N, seed=0))
        path = tmp_path_factory.mktemp("buckets") / "inst.json"
        save_instance(inst, str(path))
        return inst, path

    @staticmethod
    def _traced_peak_mib(call) -> float:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_writing_the_table_peaks_under_2_mib(self, gen_file):
        """n=400: a peak of 3.10 MiB traced while each pending text was its own ``str``,
        0.93 MiB with one bucket per row."""
        inst, _ = gen_file
        chunks = lambda: deque(render("json", inst._fields(), "", inst.weights), 0)
        assert self._traced_peak_mib(chunks) < 2.0

    def test_loading_peaks_under_4_5_mib(self, gen_file):
        """n=400, the 1.22 MiB matrix included: a peak of 5.74 MiB traced while the loader kept
        every cell right of the diagonal and an (n, n) table of their lengths, 3.35 MiB with
        one bucket per row."""
        _, path = gen_file
        assert self._traced_peak_mib(lambda: load_instance(str(path))) < 4.5

    def test_a_late_fall_back_peaks_under_8_7_mib(self, gen_file, monkeypatch, tmp_path):
        """n=400, the last weight row's first cell written with one more "0": the row reader
        gives up at that row and json.loads reads the file, to the same bits. A peak of
        9.38 MiB traced with the second read inside the handler, whose traceback keeps the
        half-read matrix and its buckets, 8.06 MiB after it (json.loads alone)."""
        inst, path = gen_file
        text = path.read_text()
        i = text.rindex(", [", 0, text.index(']], "metric"')) + 3  # the last weight row
        edited = tmp_path / "edited.json"
        edited.write_text(text[:i] + text[i:].replace(",", "0,", 1))
        assert self._traced_peak_mib(lambda: load_instance(str(edited))) < 8.7
        taken = _mirrored(monkeypatch)
        assert load_instance(str(edited)).weights.tobytes() == inst.weights.tobytes()
        assert taken == list(range(self.N - 1))

    def test_a_bucket_is_dropped_once_its_row_is_read(self, gen_file, monkeypatch):
        inst, path = gen_file
        rows, written = instance._row_texts(inst.weights, ", "), []
        for i, _ in enumerate(rows):  # row i is yielded, its bucket not yet dropped
            left = rows.gi_frame.f_locals["left"]
            written.append([b is None for b in left] == [j < i for j in range(self.N)])
        read, push = [], instance._push

        def checked(left, r, cells, sep):
            push(left, r, cells, sep)
            read.append([b is None for b in left] == [j <= r for j in range(self.N)])

        monkeypatch.setattr(instance, "_push", checked)
        assert load_instance(str(path)).weights.tobytes() == inst.weights.tobytes()
        assert written == read == [True] * self.N


B = instance._MIRROR_BLOCK
EDGE_NS = [B - 1, B, B + 1, 2 * B, 2 * B + 1]


class TestMirrorBlockEdges:
    """Sizes at the edges of the blocks of ``_MIRROR_BLOCK`` rows whose cells owed to the rows
    past the block are joined into their buckets with the block's last row."""

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    @pytest.mark.parametrize("n", EDGE_NS)
    def test_save_and_load(self, n, family, tmp_path):
        inst = generate(GeneratorSpec(family, n, seed=3))
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        assert path.read_bytes() == (json.dumps(inst.to_dict()) + "\n").encode()
        assert _same_result(load_instance(str(path)), inst)

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    @pytest.mark.parametrize("n", EDGE_NS)
    def test_an_edited_mirror_cell_is_refused_at_its_row(self, n, family, monkeypatch, tmp_path):
        """The last row's cell in the first column of the block before its own (column 0 from
        n = B + 1 on, column B at n = 2B + 1), which reaches that row's bucket through a block's
        join, written with one more "0": the row reader reads every row above it, gives up at
        it, and json.loads reads the file to the same bits. Below n = B + 1 the cell is
        column 0's, appended at once."""
        inst = generate(GeneratorSpec(family, n, seed=3))
        r = n - 1
        c = max(0, (r // B - 1) * B)
        d = inst.to_dict()
        cell = repr(d["weights"][r][c])
        assert "e" not in cell  # so "0" appended keeps its value
        d["weights"][r][c] = "\0"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(d).replace('"\\u0000"', cell + "0") + "\n")
        taken = _mirrored(monkeypatch)
        got = load_instance(str(path))
        assert taken == list(range(r))
        assert _same_result(got, _load_like_before(path)) and _same_result(got, inst)


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


def planted(n: int, pivot: int, x: int, y: int, low: float, high: float) -> np.ndarray:
    """Weights in [1.5, 2) with w[x, pivot] = w[pivot, y] = ``low`` and w[x, y] = ``high``:
    with (low, high) = (1.0, 2.5) the one triangle violated is x-pivot-y, and with (3.0, 1.0)
    the one friendship violated at alpha 1/4 is x-pivot-y."""
    w = 1.5 + 0.5 * np.random.default_rng(n).random((n, n))
    w = np.triu(w, 1) + np.triu(w, 1).T
    if n >= 3:
        for a, b, v in ((x, pivot, low), (pivot, y, low), (x, y, high)):
            w[a, b] = w[b, a] = v
    return w


class TestPivotBlocksMatchOnePivot:
    """The checks read pivots 2^16 // n^2 at a time (one from n = 182 on): a full
    last block at n=64, partial ones at 3, 65, 100 and 181, and one pivot at 182. A violation
    only the first pivot or the last pivot of the last block exposes is found."""

    NS = (2, 3, 64, 65, 100, 181, 182)

    @pytest.mark.parametrize("n", NS)
    def test_validate_metric(self, n):
        cases = {"none": (planted(n, 0, 1, 2, 1.75, 1.75), True),
                 "first pivot": (planted(n, 0, 1, 2, 1.0, 2.5), n < 3),
                 "last pivot": (planted(n, n - 1, 0, 1, 1.0, 2.5), n < 3)}
        for name, (w, want) in cases.items():
            for tol in (0.0, 0.25):
                got = validate_metric(WeightedInstance(w), tol)
                assert got == _brute.pivot_metric(w, tol) == want, (name, tol)
            assert validate_metric(WeightedInstance(w), 0.5), name  # 2.5 <= 1.0 + 1.0 + 0.5

    @pytest.mark.parametrize("n", NS)
    def test_check_friendship(self, n):
        cases = {"none": (planted(n, 0, 1, 2, 1.75, 1.75), True),
                 "first pivot": (planted(n, 0, 1, 2, 3.0, 1.0), n < 3),
                 "last pivot": (planted(n, n - 1, 0, 1, 3.0, 1.0), n < 3)}
        for name, (w, want) in cases.items():
            got = check_friendship(WeightedInstance(w), 0.25)
            assert got == _brute.pivot_friendship(w, 0.25) == want, name
            assert check_friendship(WeightedInstance(w), 1 / 6), name  # 1.0 >= (3.0 + 3.0) / 6

    def test_the_blocks_tile_the_tensor(self):
        sizes = {}
        for n in self.NS:
            w, sizes[n], blocks = np.random.default_rng(n).random((n, n)), [], []

            def record(_, via):
                sizes[n].append(via.shape[1])
                blocks.extend([via] if n <= 100 else [])  # the tensor at n = 182 is 46 MiB
                return np.True_

            assert instance._every_pivot_block(w, record)
            if n <= 100:
                assert np.array_equal(np.concatenate(blocks, axis=1), w[:, :, None] + w), n
        assert sizes[2] == [2] and sizes[3] == [3] and sizes[64] == [16] * 4
        assert sizes[65] == [15] * 4 + [5] and sizes[100] == [6] * 16 + [4]
        assert sizes[181] == [2] * 90 + [1] and sizes[182] == [1] * 182

    @pytest.mark.parametrize("n", [64, 300])
    def test_validate_metric_peaks_under_1_mib(self, n):
        """No check allocates the n^3 tensor: 0.63 MiB traced at n=64 (blocks of 16 pivots) and
        0.81 MiB at n=300 (one pivot); the tensor alone is 2 and 206 MiB."""
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=0))
        assert TestMirrorBuckets._traced_peak_mib(lambda: validate_metric(inst, 0.0)) < 1.0


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

    @pytest.mark.parametrize("ranking", [[[1], [0, 2]], [[1, 2], 0, [0, 1]]],
                             ids=["ragged", "row-among-numbers"])
    def test_rejects_a_ragged_ranking_as_a_ragged_weight_matrix(self, ranking):
        """numpy's "inhomogeneous shape" text leaked through."""
        with pytest.raises(ValueError, match="^ranking must be a list of rows of one length$"):
            PreferenceProfile(ranking)

    def test_rejects_a_number_for_a_ranking(self):
        """``PreferenceProfile(5)`` raised "len() of unsized object"."""
        with pytest.raises(ValueError, match="^ranking must be a list of rows$"):
            PreferenceProfile(5)

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

    def test_ranking_is_read_only_and_its_inverse_inverts_it(self):
        p = PreferenceProfile(((1, 2, 3), (0, 3, 2), (0, 1, 3), (1, 0, 2)))
        assert p.ranking.dtype == np.int32 and p.ranking.shape == (4, 3)
        with pytest.raises(ValueError):
            p.ranking[0, 0] = 2
        rank = _inverse(p.ranking)
        assert rank.dtype == np.int32 and rank.shape == (4, 4)
        for i in range(4):
            assert [int(rank[i, j]) for j in p.ranking[i]] == [0, 1, 2]
            assert rank[i, i] == 3
        assert _inverse(np.array([[0, 1], [0, 2], [0, 1]])).tolist()[0] == [0, 1, -1]  # misses 2
        with pytest.raises(ValueError):
            p.position(2, 2)

    def test_the_ranking_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(PreferenceProfile)] == ["ranking"]

    def test_position_and_prefers_reject_a_node_outside_the_profile(self):
        p = derive_preferences(generate(GeneratorSpec("euclidean-uniform", 6, seed=0)))
        for i in (-1, 6, 9):
            with pytest.raises(ValueError, match=f"node 0 is not in node {i}'s list"):
                p.position(i, 0)
            with pytest.raises(ValueError, match=f"node 0 is not in node {i}'s list"):
                p.prefers(i, 0, 1)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_a_callers_array_is_copied(self, dtype):
        ranking = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [1, 0, 2]], dtype)
        p = PreferenceProfile(ranking)
        assert ranking.flags.writeable
        ranking[0] = [3, 2, 1]
        assert p.ranking.tolist()[0] == [1, 2, 3] and p.position(0, 1) == 0
        assert not np.shares_memory(p.ranking, ranking)


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

    def test_derived_tables_are_plain_read_only_arrays(self):
        p = derive_preferences(generate(GeneratorSpec("euclidean-uniform", 6, seed=0)))
        assert type(p.ranking) is np.ndarray and p.ranking.dtype == np.int32
        assert not p.ranking.flags.writeable and p == PreferenceProfile(p.ranking.tolist())

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
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            GeneratorSpec("euclidean-uniform", 6, seed=-1)

    @pytest.mark.parametrize("field, value", [("n", 4.5), ("n", True), ("dimension", 2.0),
                                              ("seed", 1.5), ("clusters", 2.5)])
    def test_spec_fields_are_integers(self, field, value):
        """n=4.5, dimension=2.0 and clusters=2.5 raised numpy's TypeError in ``generate``,
        seed=1.5 constructed, and n=True read as 1."""
        fields = {"family": "clustered-gaussian", "n": 6, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            GeneratorSpec(**fields)

    @pytest.mark.parametrize("field, value", [("n", 8.0), ("dimension", 2.0), ("trials", 2.5),
                                              ("trials", True), ("inner_samples", 2.5),
                                              ("k", 2.0), ("seed", 1.5)])
    def test_trial_config_fields_are_integers(self, field, value):
        """trials=2.5 and inner_samples=2.5 raised range's TypeError in ``run_trials``, n=8.0
        constructed and failed there, and trials=True reported "trials": true."""
        fields = {"problem": "mkm", "algorithm": "greedy", "n": 8, "k": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            TrialConfig(**fields)

    def test_trial_config_refuses_a_boolean_bound(self):
        """bound=True ran, and the report carried "bound": true."""
        with pytest.raises(ValueError, match="^bound must be a number, got True$"):
            TrialConfig("mwm", "greedy", 8, bound=True)

    @pytest.mark.parametrize("field, value, message", [
        ("algorithm", 5, "algorithm must be a string, got 5"),
        ("bound", "2", "bound must be a number, got '2'"),
        ("bound", [1], "bound must be a number, got [1]"),
        ("dimension", 0, "dimension must be positive, got 0")])
    def test_trial_config_refuses_at_construction(self, field, value, message):
        """algorithm=5 raised AttributeError, bound="2" and bound=[1] TypeError, and
        dimension=0 constructed and was refused only inside ``run_trials``."""
        fields = {"problem": "mwm", "algorithm": "greedy", "n": 8, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrialConfig(**fields)

    @pytest.mark.parametrize("call, message", [
        (lambda inst: validate_metric(inst, "0"), "tol must be a number, got '0'"),
        (lambda inst: validate_metric(inst, None), "tol must be a number, got None"),
        (lambda inst: validate_metric(inst, True), "tol must be a number, got True"),
        (lambda inst: check_friendship(inst, "0.3"), "alpha must be a number, got '0.3'"),
        (lambda inst: check_friendship(inst, None), "alpha must be a number, got None"),
        (lambda inst: check_friendship(inst, False), "alpha must be a number, got False"),
        pytest.param(lambda inst: validate_metric(inst, 10**400),
                     f"tol must be finite, got {10**400}", id="tol-10**400"),
        (lambda inst: validate_metric(inst, math.inf), "tol must be finite, got inf"),
        (lambda inst: validate_metric(inst, -math.inf), "tol must be finite, got -inf"),
        pytest.param(lambda inst: TrialConfig("mwm", "greedy", 8, bound=10**400),
                     f"bound must be finite, got {10**400}", id="bound-10**400"),
        (lambda inst: TrialConfig("mwm", "greedy", 8, bound=math.inf),
         "bound must be finite, got inf"),
        (lambda inst: TrialConfig("mwm", "greedy", 8, bound=-math.inf),
         "bound must be finite, got -inf")])
    def test_real_number_inputs_are_numbers(self, call, message):
        """tol "0" and None and alpha "0.3" and None raised TypeError, tol=True read as 1.0
        and alpha=False was accepted; tol 10**400 raised TypeError and bound 10**400
        OverflowError, and -inf read "must be nonnegative" or "must be positive"."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(WeightedInstance(square(4)))

    def test_the_metric_flag_is_a_bool_at_construction(self):
        """metric="yes" constructed: only ``from_dict`` checked the flag. It is still checked
        before the weights."""
        message = "^instance 'metric' must be true or false, got 'yes'$"
        for w in (square(4), [[0, 1], [2, 0]]):
            with pytest.raises(MalformedInstanceError, match=message):
                WeightedInstance(w, metric="yes")

    def test_trial_config_takes_numpy_integers_as_python_ints(self):
        cfg = TrialConfig("mkm", "greedy", np.int64(8), dimension=np.int32(3), trials=np.uint8(2),
                          seed=np.int16(4), k=np.int64(2), inner_samples=np.int64(30))
        values = [getattr(cfg, f) for f in ("n", "dimension", "trials", "seed", "k", "inner_samples")]
        assert values == [8, 3, 2, 4, 2, 30] and {type(v) for v in values} == {int}

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64, 65, 100, 130])
    def test_closure_matches_the_copy_compare_closure(self, n):
        """The closure stops at the first matrix that passes the exact check: the matrix the
        copy-and-compare loop returned one sweep later, bit for bit."""
        for seed in range(3):
            raw = np.random.default_rng(seed).random((n, n))
            raw = np.triu(raw, 1) + np.triu(raw, 1).T
            inst = generate(GeneratorSpec("random-metric-closure", n, seed=seed))
            assert inst.weights.tobytes() == _brute.copy_compare_closure(raw).tobytes()
            assert inst.metric and validate_metric(inst, 0.0)

    def test_spec_fields_take_numpy_integers_as_python_ints(self):
        spec = GeneratorSpec("clustered-gaussian", np.int64(6), np.int32(3), np.uint8(2),
                             np.int16(2))
        assert [type(x) for x in (spec.n, spec.dimension, spec.seed, spec.clusters)] == [int] * 4
        want = generate(GeneratorSpec("clustered-gaussian", 6, 3, 2, 2))
        assert np.array_equal(generate(spec).weights, want.weights)

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
        # the per-coordinate accumulation does; rows are filled _BLOCK at a time
        block = instance._BLOCK
        for n, seed in itertools.product((block - 1, block, block + 1, 120, 2 * block + 2), range(3)):
            inst = generate(GeneratorSpec(family, n, dimension=dimension, seed=seed))
            assert inst.weights.tobytes() == euclidean_by_tensor(inst.points).tobytes()

    def test_euclidean_carries_points(self):
        inst = generate(GeneratorSpec("euclidean-uniform", 5, seed=0, dimension=3))
        assert inst.points is not None and inst.points.shape == (5, 3)
        d01 = float(np.linalg.norm(inst.points[0] - inst.points[1]))
        assert inst.weights[0, 1] == pytest.approx(d01, rel=1e-12)
