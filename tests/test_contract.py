"""One input contract for every public entry point.

The named cases each pin an input that once escaped as another exception
type (``AttributeError`` or ``TypeError``), or as a ValueError that named no
rule, before it was typed where its layer first reads it.

The properties call every callable that ``ordmatch`` exports, plus
``from_dict``, ``position``, ``prefers`` and the record builders of
``bench/records.py``, with arguments drawn from a mix
of valid values and junk: None, booleans, numpy scalars, NaN, +-inf,
negatives, huge integers, strings, lists and objects of the wrong class. A
call returns or raises ValueError (OSError too for a path). Every CLI verb
runs through ``cli.main`` with the same mix of flag values: a run exits 0, 1
or 2 with no exception escaping ``main``, and its JSON output parses. Each
value of a flag that several verbs share (--seed, --format, --n, --k) is
accepted by all of them or by none, save the cases
``SHARED_FLAG_EXCEPTIONS`` lists.

Hypothesis runs derandomized, with no example database, a fixed
``max_examples`` and no shrink phase, so a failing property reports its first
failing example in seconds. Sizes that allocate (n, k, draws, trials, inner samples)
stay small, and huge integers go only where nothing is sized by them.
"""

import contextlib
import copy
import functools
import io
import json
import math
import re
import shutil
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import ordmatch
from ordmatch import (
    DEFAULT_BUDGET,
    GENERATOR_FAMILIES,
    Clustering,
    GeneratorSpec,
    MalformedInstanceError,
    Matching,
    Path,
    PreferenceProfile,
    RandomSource,
    Subset,
    Tour,
    TrialConfig,
    WeightedInstance,
    check_record,
    cluster_weight,
    derive_preferences,
    expected_random_weight,
    generate,
    greedy_k_matching,
    greedy_ratio_bound,
    hybrid_bound,
    hybrid_matchings,
    load_instance,
    load_record,
    matching_to_clusters,
    matching_to_subset,
    matching_to_tour,
    matching_weight,
    matchings_to_clusters,
    matchings_to_subsets,
    matchings_to_tours,
    opt_densest,
    opt_k_sum,
    opt_matching,
    opt_tsp,
    path_completion,
    path_weight,
    report_emit,
    run_trials,
    save_instance,
    subset_weight,
    tour_weight,
)
from ordmatch import harness
from ordmatch.cli import main

from _records import (
    FILES,
    build_fixture_mutual_top_pairs,
    build_fixture_randomization_floor,
    script,
)


def fixed(examples):
    """The settings every property runs under: ``examples`` cases, the same on every run. No
    shrink phase: each step of it repeats a whole sweep, so a failing sweep took minutes to
    report, not seconds."""
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate),
                    suppress_health_check=[HealthCheck.too_slow])


INST = generate(GeneratorSpec("euclidean-uniform", 6, seed=0))
PROFILE = derive_preferences(INST)
MATCHING = greedy_k_matching(PROFILE, 3)
CLUSTERING = Clustering(6, ((0, 1), (2, 3), (4, 5)))
SUBSET = Subset(6, (0, 1, 2, 3))
PATH = Path(6, (0, 1, 2))
TOUR = Tour(6, (0, 1, 2, 3, 4, 5))
LIST_INST = [[0.0, 1.0], [1.0, 0.0]]
FLOOR = build_fixture_randomization_floor()


def floor_with(edit) -> dict:
    """A copy of the ``FLOOR`` document, edited in place by ``edit``."""
    doc = copy.deepcopy(FLOOR)
    edit(doc)
    return doc


def game_with(**fields) -> dict:
    """``FLOOR`` with its game's ``fields`` replaced."""
    return floor_with(lambda d: d["games"][0].update(fields))


def mixture_with(**fields) -> dict:
    """``FLOOR`` with the fields of its game's mixture ``x`` replaced."""
    return floor_with(lambda d: d["games"][0]["mixtures"]["x"].update(fields))


# ---------------------------------------------------------------------------
# Named cases
# ---------------------------------------------------------------------------

def checked(defects: dict) -> dict:
    """{case: (record document, message)} as {case: (``check_record`` of it, message)}."""
    return {case: (functools.partial(check_record, doc), message)
            for case, (doc, message) in defects.items()}


# check_record's refusals, {case: (record document, message)}, each document with one defect
# and each message naming its path as ``_read`` reads it: first an object of the wrong class,
RECORD_OBJECTS = {
    "check_record(None)": (
        None, "record must be an object with keys ranking, k, weightings, games, got NoneType"),
    "check_record(profile None)": (floor_with(lambda d: d.update(ranking=None)),
                                   "record.ranking must be a list, got NoneType"),
    "check_record(k None)": (floor_with(lambda d: d.update(k=None)),
                             "record.k must be an integer, got None"),
    "check_record(games (None,))": (
        floor_with(lambda d: d.update(games=[None])),
        "record.games[0] must be an object with keys name, y, mixtures, floor, bound, "
        "got NoneType"),
    "check_record(y None)": (game_with(y=None), "record.games[0].y must be a dict, got NoneType"),
    "check_record(mixtures None)": (game_with(mixtures=None),
                                    "record.games[0].mixtures must be a dict, got NoneType"),
}
# then a value outside its rule.
RECORD_VALUES = {
    "check_record(k 3)": (floor_with(lambda d: d.update(k=3)),
                          "record needs 1 <= k <= n//2, got k=3, n=4"),
    "check_record(k 0)": (floor_with(lambda d: d.update(k=0)),
                          "record needs 1 <= k <= n//2, got k=0, n=4"),
    "check_record(weightings {})": (
        floor_with(lambda d: d.update(weightings={})),
        "record.games[0].y must name record weightings, got ['tie-breaker', "
        "'favorite-pair']"),
    "check_record(profile n=6)": (
        floor_with(lambda d: d.update(ranking=PROFILE.ranking.tolist())),
        "record.weightings['tie-breaker'].rows must have the profile's 6 nodes, got 4"),
    "check_record(mixture None)": (
        game_with(mixtures={"x": None}),
        "record.games[0].mixtures['x'] must be an object with keys x, ratio, got NoneType"),
    "check_record(mixture x None)": (mixture_with(x=None),
                                     "record.games[0].mixtures['x'].x must be a list, "
                                     "got NoneType"),
    "check_record(mixture ratio float)": (
        mixture_with(ratio=1.25),
        "record.games[0].mixtures['x'].ratio must be a rational written as str(Fraction) "
        "writes it, got 1.25"),
    "check_record(y 'a')": (
        game_with(y=dict.fromkeys(FLOOR["games"][0]["y"], "a")),
        "record.games[0].y['tie-breaker'] must be a rational written as str(Fraction) writes "
        "it, got 'a'"),
    "check_record(weighting None)": (
        floor_with(lambda d: d.update(weightings={"a": None})),
        "record.weightings['a'] must be an object with keys rows, metric, opt, got NoneType"),
    "check_record(weight int)": (
        floor_with(lambda d: d["weightings"]["tie-breaker"]["rows"][0].__setitem__(0, 0)),
        "record.weightings['tie-breaker'].rows[0][0] must be a rational written as "
        "str(Fraction) writes it, got 0"),
    "check_record(metric str)": (
        floor_with(lambda d: d["weightings"]["tie-breaker"].update(metric="True")),
        "record.weightings['tie-breaker'].metric must be a bool, got str"),
    # past the largest float: OverflowError from the float weights of its instance
    "check_record(weight 10^400)": (
        floor_with(lambda d: d["weightings"]["tie-breaker"]["rows"][0].__setitem__(
            1, "1" + "0" * 400)),
        "record.weightings['tie-breaker'].rows must each fit a float"),
}

# Each raised AttributeError or TypeError, or a ValueError naming no rule.
WRONG_CLASS = {
    "opt_matching(list)": (lambda: opt_matching(LIST_INST, 1), "inst must be a WeightedInstance"),
    "opt_densest(None)": (lambda: opt_densest(None, 1), "inst must be a WeightedInstance"),
    "opt_k_sum(list)": (lambda: opt_k_sum(LIST_INST, 1), "inst must be a WeightedInstance"),
    "opt_tsp(list)": (lambda: opt_tsp(LIST_INST), "inst must be a WeightedInstance"),
    "matching_weight(list)": (lambda: matching_weight([(0, 1)], INST),
                              "matching must be a Matching"),
    "matching_to_clusters(list)": (lambda: matching_to_clusters([(0, 1)], 1),
                                   "matching must be a Matching"),
    "matching_to_subset(list)": (lambda: matching_to_subset([(0, 1)], 2),
                                 "matching must be a Matching"),
    "matching_to_tour(list)": (lambda: matching_to_tour([(0, 1)], PROFILE, RandomSource(0)),
                               "matching must be a Matching"),
    "path_completion(list)": (lambda: path_completion([(0, 1)], PROFILE, RandomSource(0)),
                              "matching must be a Matching"),
    "cluster_weight(list)": (lambda: cluster_weight([[0, 1]], INST),
                             "clustering must be a Clustering"),
    "subset_weight(list)": (lambda: subset_weight([0, 1], INST), "subset must be a Subset"),
    "path_weight(list)": (lambda: path_weight([0, 1], INST), "path must be a Path"),
    "tour_weight(list)": (lambda: tour_weight([0, 1, 2], INST), "tour must be a Tour"),
    "solve(list)": (lambda: harness.solve("mwm", "greedy", LIST_INST, None, 0),
                    "inst must be a WeightedInstance"),
    "optimum(list)": (lambda: harness.optimum("mwm", LIST_INST, None),
                      "inst must be a WeightedInstance"),
    "run_trials(None)": (lambda: run_trials(None), "cfg must be a TrialConfig"),
    "report_emit(None)": (lambda: report_emit(None), "report must be a dict"),
    # a report's emitted bytes, which were refused as not a RatioReport
    "report_emit(its bytes)": (lambda: report_emit(report_emit(REPORT)),
                               "report must be a dict, got bytes"),
    **checked(RECORD_OBJECTS),
    "report_emit(records None)": (
        lambda: report_emit({**REPORT, "records": None}),
        "records must be a list of dicts with seed, opt, alg, ratio"),
    "generate(None)": (lambda: generate(None), "spec must be a GeneratorSpec"),
    "matchings_to_clusters(list)": (lambda: matchings_to_clusters([[[0, 1]]], 2, 1),
                                    "matchings must be a ndarray"),
    "matchings_to_subsets(list)": (lambda: matchings_to_subsets([[[0, 1]]]),
                                   "matchings must be a ndarray"),
    "matchings_to_tours(list)": (
        lambda: matchings_to_tours([[[0, 1]]], PROFILE, np.random.default_rng(0)),
        "matchings must be a ndarray"),
    "Matching(4, [5])": (lambda: Matching(4, [5]), "node ids must be iterable, got 5"),
    "Clustering(4, (5,))": (lambda: Clustering(4, (5,)), "node ids must be iterable, got 5"),
    "Matching(4, [(0, 1, 2)])": (lambda: Matching(4, [(0, 1, 2)]),
                                 "an edge must be a pair of node ids, got (0, 1, 2)"),
    "Matching.from_pairs(4, [5])": (lambda: Matching.from_pairs(4, [5]),
                                    "node ids must be iterable, got 5"),
}


@pytest.mark.parametrize("call, message", WRONG_CLASS.values(), ids=WRONG_CLASS)
def test_an_object_is_typed_where_it_is_first_read(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


# Each raised TypeError, IndexError, KeyError, OverflowError or OSError, or was accepted.
VALUE_ARGUMENTS = {
    "hybrid_bound('x')": (lambda: hybrid_bound("x"), "n must be an integer, got 'x'"),
    "hybrid_bound(1)": (lambda: hybrid_bound(1), "n must be at least 2, got 1"),
    "hybrid_bound(2.5)": (lambda: hybrid_bound(2.5), "n must be an integer, got 2.5"),
    "hybrid_bound(True)": (lambda: hybrid_bound(True), "n must be an integer, got True"),
    "greedy_ratio_bound('a', 1)": (lambda: greedy_ratio_bound("a", 1),
                                   "alpha must be a number, got 'a'"),
    "greedy_ratio_bound(None, 1)": (lambda: greedy_ratio_bound(None, 1),
                                    "alpha must be a number, got None"),
    "position('a', 1)": (lambda: PROFILE.position("a", 1), "node id must be an integer, got 'a'"),
    "position(0.5, 1)": (lambda: PROFILE.position(0.5, 1), "node id must be an integer, got 0.5"),
    "prefers(0, 1, None)": (lambda: PROFILE.prefers(0, 1, None),
                            "node id must be an integer, got None"),
    "PreferenceProfile.from_dict({})": (lambda: PreferenceProfile.from_dict({}),
                                        "profile dict has no 'ranking' field"),
    "PreferenceProfile.from_dict(None)": (lambda: PreferenceProfile.from_dict(None),
                                          "profile dict must be a dict, got NoneType"),
    "Matching.from_dict({})": (lambda: Matching.from_dict({}),
                               "matching dict has no 'edges' field"),
    "Matching.from_dict(None)": (lambda: Matching.from_dict(None),
                                 "matching dict must be a dict, got NoneType"),
    "expected_random_weight(inst, 5)": (lambda: expected_random_weight(INST, 5),
                                        "node ids must be iterable, got 5"),
    "expected_random_weight(inst, 3 sides)": (
        lambda: expected_random_weight(INST, ([0], [1], [2])),
        "sides must be two lists of node ids, got 3"),
    "load_instance(None)": (lambda: load_instance(None),
                            "path must be a str or PathLike, got NoneType"),
    "load_instance(5)": (lambda: load_instance(5), "path must be a str or PathLike, got int"),
    "save_instance(inst, None)": (lambda: save_instance(INST, None),
                                  "path must be a str or PathLike, got NoneType"),
    # found by the properties below
    "build_fixture_mutual_top_pairs(None)": (lambda: build_fixture_mutual_top_pairs(None),
                                             "n_pairs must be an integer, got None"),
    "build_fixture_randomization_floor(None)": (lambda: build_fixture_randomization_floor(None),
                                                "epsilon must be a number, got None"),
    "build_fixture_randomization_floor(inf)": (
        lambda: build_fixture_randomization_floor(math.inf), "epsilon must be finite, got inf"),
    **checked(RECORD_VALUES),
    "matchings_to_clusters(batch, {}, 1)": (
        lambda: matchings_to_clusters(np.zeros((1, 1, 2), np.intp), {}, 1),
        "n must be an integer, got {}"),
}


@pytest.mark.parametrize("call, message", VALUE_ARGUMENTS.values(), ids=VALUE_ARGUMENTS)
def test_a_value_argument_is_read_by_its_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


RECORD_DEFECTS = {**RECORD_OBJECTS, **RECORD_VALUES}


@pytest.mark.parametrize("doc, message", RECORD_DEFECTS.values(), ids=RECORD_DEFECTS)
def test_a_record_is_refused_alike_built_and_loaded(doc, message, tmp_path):
    """Each defect raises one message through ``check_record`` of the document and of
    ``load_record`` of its file."""
    (path := tmp_path / "record.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError) as built:
        check_record(doc)
    with pytest.raises(ValueError) as loaded:
        check_record(load_record(path))
    assert str(built.value) == str(loaded.value) == message


# Each raised RecursionError from ``json``: a file nested 10^5 deep, past any recursion limit.
DEEP = "[" * 10**5 + "]" * 10**5
TOO_DEEP = {
    "load_instance(nested 10^5 deep)": (load_instance, '{"weights": ' + DEEP + "}",
                                        MalformedInstanceError,
                                        "an instance file nests too deeply to read"),
    "load_record(nested 10^5 deep)": (load_record, '{"ranking": ' + DEEP + "}", ValueError,
                                      "a record file nests too deeply to read"),
}


@pytest.mark.parametrize("load, text, error, message", TOO_DEEP.values(), ids=TOO_DEEP)
def test_a_file_nested_too_deep_for_json_is_refused(load, text, error, message, tmp_path):
    (path := tmp_path / "deep.json").write_text(text)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        load(path)


# ---------------------------------------------------------------------------
# The library property
# ---------------------------------------------------------------------------

WRONG_OBJECTS = [INST, PROFILE, MATCHING, CLUSTERING, SUBSET, PATH, TOUR, DEFAULT_BUDGET,
                 GeneratorSpec("euclidean-uniform", 4), object()]
# No positive number here: a size slot would allocate by it.
JUNK = [None, True, False, np.int64(-2), np.float64(0.5), np.bool_(True), math.nan, math.inf,
        -math.inf, -1, -0.5, "x", "3", [], [0, 1], [[0, 1], [1, 0]], [(0, 1, 2)], {},
        *WRONG_OBJECTS]
HUGE = [10**30, 2**64, np.uint64(2**64 - 1), 1e308]


def arg(valid, huge=False):
    """``valid`` (a strategy) or junk; huge integers too where nothing is sized by them."""
    return st.one_of(valid, st.sampled_from(JUNK + HUGE * huge))


def ints(lo=-1, hi=8, huge=False):
    return arg(st.integers(lo, hi), huge)


def ids(hi=7):
    return st.lists(st.integers(-1, hi), max_size=7)


def rngs():
    return st.builds(RandomSource, st.integers(0, 3))


def gens():
    return st.builds(np.random.default_rng, st.integers(0, 3))


def pairs():
    return st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=4)


def instances():
    return arg(st.sampled_from([INST, generate(GeneratorSpec("random-metric-closure", 4)),
                                generate(GeneratorSpec("clustered-gaussian", 5, seed=1))]))


def batches():
    m3 = hybrid_matchings(PROFILE, 3, np.random.default_rng(0))
    return arg(st.sampled_from([m3, m3[:, :2], m3[:, :1], np.zeros((2, 2), np.intp),
                                np.zeros((1, 0, 2), np.intp)]))


RECORDS = [FLOOR, build_fixture_mutual_top_pairs(2)]
REPORT = run_trials(TrialConfig("mkm", "greedy", 4, trials=2, k=1))


def records():
    """A library record document with its ranking, k and weightings each kept or drawn from
    junk; its games stay the library's."""
    return arg(st.sampled_from(RECORDS).flatmap(lambda doc: st.fixed_dictionaries({
        "ranking": arg(st.just(doc["ranking"])), "k": arg(st.just(doc["k"])),
        "weightings": arg(st.just(doc["weightings"])), "games": st.just(doc["games"])})))


def reports():
    """``REPORT`` with its records kept or drawn from junk."""
    return arg(arg(st.just(REPORT["records"])).map(lambda rows: {**REPORT, "records": rows}))

FLOATS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 1e-9])
TEXT = st.sampled_from(["mwm", "mkm", "ksum", "densest", "tsp", "greedy", "random", "hybrid",
                        "reduction-of(hybrid)", "json", "csv", "euclidean-uniform",
                        "random-metric-closure", "clustered-gaussian"])

# Per callable, a strategy per positional argument.
SIGNATURES = {
    "BudgetError": (arg(TEXT),),
    "EmptyPoolError": (arg(TEXT),),
    "MalformedInstanceError": (arg(TEXT),),
    "Clustering": (ints(huge=True), arg(st.lists(ids().map(tuple), max_size=4))),
    "GeneratorSpec": (arg(TEXT), ints(huge=True), ints(huge=True), ints(huge=True),
                      ints(huge=True)),
    "Matching": (ints(huge=True), arg(pairs())),
    "Matching.from_dict": (arg(st.fixed_dictionaries({"n": ints(), "edges": arg(pairs())})),),
    "Path": (ints(huge=True), arg(ids())),
    "PreferenceProfile": (arg(st.sampled_from([PROFILE.ranking, PROFILE.ranking.tolist(),
                                               [[1], [0]], [[1, 2], [2, 0], [0, 1]],
                                               [[1, 1], [0, 2], [0, 1]]])),),
    "PreferenceProfile.from_dict": (arg(st.fixed_dictionaries({"ranking": arg(st.just(
        [[1], [0]]))})),),
    "PreferenceProfile.position": (ints(huge=True), ints(huge=True)),
    "PreferenceProfile.prefers": (ints(huge=True), ints(huge=True), ints(huge=True)),
    "RandomSource": (ints(huge=True),),
    "Subset": (ints(huge=True), arg(ids())),
    "Tour": (ints(huge=True), arg(ids())),
    "TrialConfig": (arg(TEXT), arg(TEXT), ints(huge=True), arg(TEXT), ints(huge=True),
                    ints(huge=True), ints(huge=True), ints(huge=True), ints(huge=True),
                    arg(FLOATS)),
    "WeightedInstance": (arg(st.sampled_from([INST.weights, LIST_INST, [[0, 1], [2, 0]],
                                              [[0.0, math.nan], [math.nan, 0.0]]])),
                         arg(st.booleans()), arg(st.sampled_from([None, [[0.0], [1.0]]])),
                         arg(st.just({"family": "x"}))),
    "WeightedInstance.from_dict": (arg(st.fixed_dictionaries(
        {"weights": arg(st.just(LIST_INST))},
        optional={"n": ints(huge=True), "metric": arg(st.booleans()),
                  "meta": arg(st.just({}))})),),
    "check_friendship": (instances(), arg(FLOATS, huge=True)),
    "check_record": (records(),),
    "cluster_weight": (arg(st.just(CLUSTERING)), instances()),
    "default_bound": (arg(TEXT), arg(TEXT), ints(huge=True), ints(huge=True)),
    "derive_preferences": (instances(),),
    "expected_random_weight": (instances(), arg(st.one_of(st.none(), st.tuples(ids(), ids())))),
    "find_undominated": (arg(st.just(PROFILE)), arg(ids())),
    "generate": (arg(st.builds(GeneratorSpec, st.sampled_from(GENERATOR_FAMILIES),
                               st.integers(2, 8))),),
    "greedy_k_matching": (arg(st.just(PROFILE)), ints(huge=True)),
    "greedy_ratio_bound": (arg(FLOATS, huge=True), arg(FLOATS, huge=True)),
    "hybrid_bound": (ints(huge=True),),
    "hybrid_matching": (arg(st.just(PROFILE)), arg(rngs())),
    "hybrid_matchings": (arg(st.just(PROFILE)), ints(), arg(gens())),
    "load_instance": None,  # by ``test_paths``: a path needs the temporary directory
    "load_record": None,  # by ``test_paths``
    "matching_to_clusters": (arg(st.just(MATCHING)), ints(huge=True)),
    "matching_to_subset": (arg(st.just(MATCHING)), ints(huge=True)),
    "matching_to_tour": (arg(st.just(MATCHING)), arg(st.just(PROFILE)), arg(rngs())),
    "matching_weight": (arg(st.just(MATCHING)), instances()),
    "matchings_to_clusters": (batches(), ints(), ints()),
    "matchings_to_subsets": (batches(),),
    "matchings_to_tours": (batches(), arg(st.just(PROFILE)), arg(gens())),
    "opt_densest": (instances(), ints()),
    "opt_k_sum": (instances(), ints()),
    "opt_matching": (instances(), ints(huge=True)),
    "opt_tsp": (instances(),),
    "path_completion": (arg(st.just(MATCHING)), arg(st.just(PROFILE)), arg(rngs()),
                        ints(huge=True)),
    "path_weight": (arg(st.just(PATH)), instances()),
    "profile_consistent": (arg(st.just(PROFILE)), instances()),
    "random_k_matching": (ints(), ints(), arg(rngs())),
    "random_k_matchings": (arg(ids()), ints(), ints(), arg(gens()), arg(st.none() | ids())),
    "report_emit": (reports(), arg(TEXT)),
    "run_trials": (arg(st.builds(TrialConfig, st.sampled_from(["mwm", "tsp"]),
                                 st.sampled_from(["greedy", "hybrid"]), st.sampled_from([4, 6]),
                                 trials=st.integers(1, 2), inner_samples=st.integers(2, 4))),),
    "save_instance": None,  # by ``test_paths``
    "subset_weight": (arg(st.just(SUBSET)), instances()),
    "tour_weight": (arg(st.just(TOUR)), instances()),
    "validate_metric": (instances(), arg(FLOATS, huge=True)),
    # the builders of the package's record files, in ``bench/records.py``
    "records.build_fixture_mixture_gap": (),
    "records.build_fixture_mutual_top_pairs": (ints(2, 4), arg(st.sampled_from(
        [Fraction(1, 100), Fraction(1, 3), 0.25, 1]))),
    "records.build_fixture_randomization_floor": (arg(st.sampled_from(
        [Fraction(1, 100), Fraction(1, 2), 0.25, 1])),),
}


def _callable(name):
    owner, _, attr = name.rpartition(".")
    if attr in ("position", "prefers"):  # on the n=6 profile
        return getattr(PROFILE, attr)
    if owner == "records":
        return getattr(script, attr)
    return getattr(getattr(ordmatch, owner) if owner else ordmatch, attr)


def test_every_public_callable_has_a_signature():
    exported = {name for name in ordmatch.__all__ if callable(getattr(ordmatch, name))}
    extra = {"Matching.from_dict", "PreferenceProfile.from_dict", "WeightedInstance.from_dict",
             "PreferenceProfile.position", "PreferenceProfile.prefers",
             *(f"records.{build.__name__}" for build in script.BUILDERS.values())}
    assert set(SIGNATURES) == exported | extra


def test_the_calls_without_arguments_return():
    for name, slots in SIGNATURES.items():
        if slots == ():
            _callable(name)()


@fixed(15)
@given(data=st.data())
def test_every_call_returns_or_raises_value_error(data):
    """Per example, every callable that takes arguments once, in ``SIGNATURES`` order."""
    for name, slots in SIGNATURES.items():
        if slots:
            args = [data.draw(s, label=f"{name} arg {i}") for i, s in enumerate(slots)]
            try:
                _callable(name)(*args)
            except ValueError:
                pass


def test_a_broken_callable_fails_the_property_within_10_s(monkeypatch):
    """A stand-in ``greedy_ratio_bound`` that raises TypeError on junk, as one that skipped its
    input rule would. With the shrink phase each step re-ran the whole sweep, and a failure like
    this took 147.9 s to report."""
    def broken(alpha, fraction):
        if not isinstance(alpha, float):
            raise TypeError(f"broken on {alpha!r}")
        return greedy_ratio_bound(alpha, fraction)

    monkeypatch.setattr(ordmatch, "greedy_ratio_bound", broken)
    start = time.perf_counter()
    with pytest.raises(TypeError, match="^broken on "):
        test_every_call_returns_or_raises_value_error()
    assert time.perf_counter() - start < 10.0


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Valid and refused paths: an instance file, a record file, a missing one, a directory, a
    non-JSON file and a JSON list."""
    root = tmp_path_factory.mktemp("contract")
    save_instance(INST, root / "inst.json")
    shutil.copy(FILES["mixture-gap"], root / "record.json")
    (root / "junk.json").write_text("not json")
    (root / "list.json").write_text("[1, 2]")
    return {"good": str(root / "inst.json"), "record": str(root / "record.json"),
            "missing": str(root / "missing.json"),
            "directory": str(root), "junk": str(root / "junk.json"),
            "list": str(root / "list.json"), "new": root / "new.json",
            "nested": str(root / "no" / "such" / "dir.json")}


@fixed(30)
@given(data=st.data())
def test_paths(paths, data):
    """``load_instance``, ``load_record`` and ``save_instance`` return, or raise ValueError or
    OSError."""
    # no junk string: save_instance would write it as a path in the working directory
    path = data.draw(st.sampled_from([*paths.values(), *(j for j in JUNK if type(j) is not str)]),
                     label="path")
    call = data.draw(st.sampled_from(["save_instance", "load_instance", "load_record"]),
                     label="call")
    try:
        if call == "save_instance":
            save_instance(data.draw(instances(), label="inst"), path)
        else:
            getattr(ordmatch, call)(path)
    except (ValueError, OSError):
        pass


# ---------------------------------------------------------------------------
# The CLI property
# ---------------------------------------------------------------------------

FLAG_VALUES = {
    "--seed": ["0", "1", "7", "-1", "18446744073709551615", "18446744073709551616", "x", "1.5",
               ""],
    "--format": ["json", "csv", "xml", ""],
    "--n": ["-1", "0", "1", "2", "3", "4", "6", "21", "x", "2.5"],
    "--k": ["-1", "0", "1", "2", "3", "4", "x", "2.0"],
    "--problem": ["mwm", "mkm", "ksum", "densest", "tsp", "xyz"],
    "--algorithm": ["greedy", "random", "hybrid", "reduction-of(hybrid)", "x", ""],
    "--family": ["euclidean-uniform", "random-metric-closure", "clustered-gaussian", "x"],
    "--dimension": ["0", "1", "2", "3", "-1", "x"],
    "--clusters": ["0", "1", "3", "-1", "x"],
    "--trials": ["0", "1", "2", "-1", "x"],
    "--inner-samples": ["0", "1", "2", "4", "x"],
    "--bound": ["2", "1", "0", "-1", "nan", "inf", "1e308", "x"],
    "--tol": ["0", "1e-9", "-1", "nan", "inf", "x"],
    "--name": ["randomization-floor", "mutual-top-pairs", "mixture-gap", "x"],
    "--instance": ["good", "missing", "directory", "junk", "list"],
    "--out": ["-", "new", "directory", "nested"],
}
COMMON = ("--seed", "--out", "--format")
VERB_FLAGS = {
    "gen": ("--family", "--n", "--dimension", "--clusters"),
    "prefs": ("--instance",),
    "solve": ("--problem", "--k", "--instance", "--algorithm"),
    "oracle": ("--problem", "--k", "--instance"),
    "bench": ("--problem", "--k", "--family", "--n", "--dimension", "--algorithm", "--trials",
              "--inner-samples", "--bound"),
    "fixtures": ("--name",),
    "verify-metric": ("--instance", "--tol"),
}


def run(verb, flags, paths):
    """``main``'s exit code, stdout and stderr for ``verb`` with ``flags`` {flag: value}, an
    --instance or --out value read as a key of ``paths`` ("-" as itself). Only argparse's
    SystemExit is caught: any other exception escaping ``main`` fails the test."""
    argv = [verb]
    for flag, value in flags.items():
        argv += [flag, str(paths.get(value, value)) if flag in ("--instance", "--out") else value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@fixed(10)
@given(data=st.data())
def test_a_cli_run_exits_0_1_or_2(paths, data):
    """Per example, every verb once, each flag it takes given or left out."""
    for verb, own in VERB_FLAGS.items():
        flags = {}
        for flag in COMMON + own:
            if value := data.draw(st.none() | st.sampled_from(FLAG_VALUES[flag]), label=flag):
                flags[flag] = value
        code, out, err = run(verb, flags, paths)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0 and flags.get("--out", "-") == "-" and flags.get("--format") != "csv":
            json.loads(out)


# Per verb, flags that make a run every shared flag's default passes: mkm on the n=6 file.
BASE = {
    "gen": {"--n": "6"},
    "prefs": {"--instance": "good"},
    "solve": {"--problem": "mkm", "--k": "1", "--instance": "good"},
    "oracle": {"--problem": "mkm", "--k": "1", "--instance": "good"},
    "bench": {"--problem": "mkm", "--k": "1", "--n": "6", "--trials": "1"},
    "fixtures": {"--name": "randomization-floor"},
    "verify-metric": {"--instance": "good"},
}
SHARED = {flag: [verb for verb, own in VERB_FLAGS.items() if flag in COMMON + own]
          for flag in ("--seed", "--format", "--n", "--k")}
# (flag, value): why the verbs that share the flag part on it.
SHARED_FLAG_EXCEPTIONS = {
    ("--n", "21"): "bench's mkm oracle is capped at n=20 (BudgetError); gen runs no oracle",
}


@pytest.mark.parametrize("flag, value", [(f, v) for f in SHARED for v in FLAG_VALUES[f]])
def test_a_shared_flag_is_accepted_by_all_its_verbs_or_none(flag, value, paths):
    accepted = {}
    for verb in SHARED[flag]:
        code, _, err = run(verb, {**BASE[verb], flag: value}, paths)
        accepted[verb] = code != 2 and not err.startswith("error:")
    # a listed exception must still part the verbs, so the list cannot go stale
    assert (len(set(accepted.values())) == 1) != ((flag, value) in SHARED_FLAG_EXCEPTIONS), (
        accepted)
