import json
import math
import statistics
from fractions import Fraction

import pytest

from ordmatch import (
    EdgePool,
    GeneratorSpec,
    RandomSource,
    RatioReport,
    TrialConfig,
    WeightedInstance,
    all_fixtures,
    build_fixture_mixture_gap,
    build_fixture_mutual_top_pairs,
    build_fixture_randomization_floor,
    default_bound,
    derive_preferences,
    generate,
    greedy_k_matching,
    hybrid_bound,
    hybrid_matching,
    matching_to_clusters,
    matching_to_subset,
    matching_to_tour,
    matching_weight,
    opt_matching,
    random_k_matching,
    report_emit,
    run_trials,
)
from ordmatch import harness
from ordmatch.harness import canonical_engine


def get_check(fx, name):
    for c in fx.checks:
        if c.name == name:
            return c
    raise AssertionError(f"fixture {fx.name} has no check named {name!r}")


class TestBounds:
    def test_hybrid_bound(self):
        assert hybrid_bound(6) == 1.6
        assert hybrid_bound(12) == 1.6
        assert hybrid_bound(8) == 1.6 + 7.0 / 104.0
        assert hybrid_bound(7) == 1.6 + 7.0 / 88.0

    def test_default_bounds(self):
        assert default_bound("mwm", "greedy", 10) == 2.0
        assert default_bound("mwm", "random", 10) == 2.0
        assert default_bound("mwm", "hybrid", 6) == 1.6
        assert default_bound("mkm", "greedy", 10, k=3) == 2.0
        assert default_bound("ksum", "greedy", 8, k=2) == 4.0
        assert default_bound("ksum", "hybrid", 6, k=3) == 3.2
        assert default_bound("densest", "greedy", 12, k=6) == 4.0
        assert default_bound("densest", "random", 10, k=4) == 4.0
        assert default_bound("tsp", "greedy", 8) == 3.2
        assert default_bound("tsp", "hybrid", 12) == pytest.approx(2.4, rel=1e-12)

    def test_canonical_engine(self):
        assert canonical_engine("greedy") == "greedy"
        assert canonical_engine("reduction-of(greedy)") == "greedy"
        assert canonical_engine("  reduction-of(hybrid)  ") == "hybrid"
        assert canonical_engine("random") == "random"


class TestTrialConfig:
    def test_accepts_reduction_alias(self):
        cfg = TrialConfig("ksum", "reduction-of(greedy)", 8, k=2, trials=1)
        assert cfg.engine == "greedy"

    def test_rejections(self):
        with pytest.raises(ValueError):
            TrialConfig("nope", "greedy", 8)
        with pytest.raises(ValueError):
            TrialConfig("mkm", "random", 8, k=2)
        with pytest.raises(ValueError):
            TrialConfig("densest", "hybrid", 8, k=4)
        with pytest.raises(ValueError):
            TrialConfig("tsp", "random", 8)
        with pytest.raises(ValueError):
            TrialConfig("mwm", "greedy", 8, family="explicit")
        with pytest.raises(ValueError):
            TrialConfig("mwm", "greedy", 8, family="bogus")
        with pytest.raises(ValueError):
            TrialConfig("mwm", "greedy", 8, trials=0)
        with pytest.raises(ValueError):
            TrialConfig("mwm", "hybrid", 8, inner_samples=1)
        with pytest.raises(ValueError):
            TrialConfig("mwm", "greedy", 1)
        with pytest.raises(ValueError):
            TrialConfig("mkm", "greedy", 10)  # k missing
        with pytest.raises(ValueError):
            TrialConfig("mkm", "greedy", 10, k=6)  # above n//2
        with pytest.raises(ValueError):
            TrialConfig("ksum", "greedy", 9, k=2)  # k does not divide n
        with pytest.raises(ValueError):
            TrialConfig("ksum", "greedy", 8, k=0)  # k < 1, rejected before n % k
        with pytest.raises(ValueError):
            TrialConfig("ksum", "hybrid", 9, k=3)  # odd cluster size
        with pytest.raises(ValueError):
            TrialConfig("densest", "greedy", 10, k=3)  # odd k
        with pytest.raises(ValueError):
            TrialConfig("tsp", "greedy", 7)
        with pytest.raises(ValueError):
            TrialConfig("mwm", "greedy", 8, bound=0.0)

    @pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_bound(self, bound):
        with pytest.raises(ValueError):
            TrialConfig("mwm", "greedy", 8, bound=bound)

    def test_randomized_flag(self):
        assert not TrialConfig("mwm", "greedy", 8, trials=1).randomized()
        assert TrialConfig("mwm", "random", 8, trials=1).randomized()
        assert TrialConfig("mwm", "hybrid", 8, trials=1).randomized()
        # tour completion draws a start node, so tsp is randomized even under greedy
        assert TrialConfig("tsp", "greedy", 8, trials=1).randomized()


class TestRunTrials:
    def test_replay_bytes_identical(self):
        cfg = TrialConfig("mwm", "hybrid", 6, trials=3, inner_samples=50, seed=2)
        a = report_emit(run_trials(cfg), "json")
        b = report_emit(run_trials(cfg), "json")
        assert a == b
        assert report_emit(run_trials(cfg), "csv") == report_emit(run_trials(cfg), "csv")

    def test_deterministic_verdict_passes_honestly(self):
        r = run_trials(TrialConfig("mwm", "greedy", 8, trials=6, seed=0))
        assert r.verdict
        assert r.bound == 2.0
        for rec in r.records:
            assert rec["ratio"] >= 1.0 - 1e-9
            assert rec["ratio"] <= 2.0 + 1e-9

    def test_unreachable_bound_fails(self):
        r = run_trials(TrialConfig("mwm", "greedy", 10, trials=5, seed=0, bound=1.0))
        assert not r.verdict
        assert r.max_ratio > 1.0 + 1e-9

    def test_randomized_records_carry_stderr(self):
        r = run_trials(TrialConfig("mwm", "random", 6, trials=2, inner_samples=80, seed=1))
        for rec in r.records:
            assert rec["stderr"] > 0.0
            assert rec["alg"] > 0.0
        assert r.verdict

    def test_aggregates_recomputable_from_records(self):
        r = run_trials(TrialConfig("mwm", "greedy", 8, trials=5, seed=3))
        ratios = [rec["ratio"] for rec in r.records]
        assert r.max_ratio == max(ratios)
        assert r.mean_ratio == statistics.fmean(ratios)
        assert r.std_error == statistics.stdev(ratios) / math.sqrt(len(ratios))

    def test_inner_samples_span_several_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "SAMPLE_BLOCK", 7)
        cfg = TrialConfig("tsp", "hybrid", 6, trials=2, inner_samples=20, seed=4)
        a, b = run_trials(cfg), run_trials(cfg)
        assert a.verdict
        assert report_emit(a, "json") == report_emit(b, "json")
        for rec in a.records:
            assert rec["stderr"] > 0.0

    def test_trial_seeds_are_base_plus_index(self):
        r = run_trials(TrialConfig("mwm", "greedy", 6, trials=4, seed=10))
        assert [rec["seed"] for rec in r.records] == [10, 11, 12, 13]

    def test_reduction_problems_run(self):
        assert run_trials(TrialConfig("ksum", "greedy", 8, k=2, trials=2, seed=0)).verdict
        assert run_trials(TrialConfig("mkm", "greedy", 9, k=2, trials=2, seed=0)).verdict
        assert run_trials(
            TrialConfig("densest", "random", 8, k=4, trials=2, inner_samples=60, seed=0)
        ).verdict
        assert run_trials(
            TrialConfig("tsp", "greedy", 6, trials=2, inner_samples=60, seed=0)
        ).verdict

    def test_all_equal_weights_ratio_is_one(self):
        w = [[0.0 if i == j else 1.0 for j in range(6)] for i in range(6)]
        inst = WeightedInstance(w, metric=True)
        prof = derive_preferences(inst)
        alg = matching_weight(greedy_k_matching(prof, 3), inst)
        opt = matching_weight(opt_matching(inst, 3), inst)
        assert opt / alg == 1.0


class TestReportEmit:
    def make_report(self, records):
        ratios = [r["ratio"] for r in records] or [0.0]
        return RatioReport(
            schema=1,
            config={"problem": "mwm"},
            bound=2.0,
            records=records,
            max_ratio=max(ratios),
            mean_ratio=statistics.fmean(ratios),
            std_error=0.0,
            verdict=True,
        )

    def test_json_round_trips(self):
        r = run_trials(TrialConfig("mwm", "greedy", 6, trials=3, seed=5))
        payload = json.loads(report_emit(r, "json").decode("utf-8"))
        assert payload == r.to_dict()
        assert payload["schema"] == 2

    def test_infinite_ratio_is_strict_json_null(self):
        r = run_trials(TrialConfig("mwm", "random", 6, trials=2, inner_samples=10, seed=5))
        r.records[0]["ratio"] = math.inf  # what an ALG mean of 0 gives
        r.max_ratio = math.inf
        r.mean_ratio = math.inf
        r.std_error = math.nan

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(report_emit(r, "json").decode("utf-8"), parse_constant=reject)
        assert payload["records"][0]["ratio"] is None
        assert payload["records"][1]["ratio"] == r.records[1]["ratio"]
        assert payload["max_ratio"] is None
        assert payload["mean_ratio"] is None
        assert payload["std_error"] is None

    def test_csv_header_and_rows(self):
        r = run_trials(TrialConfig("mwm", "greedy", 6, trials=3, seed=5))
        lines = report_emit(r, "csv").decode("utf-8").strip().split("\n")
        assert lines[0] == "seed,opt,alg,ratio"
        assert len(lines) == 4

    def test_empty_records_give_header_only_csv(self):
        assert report_emit(self.make_report([]), "csv") == b"seed,opt,alg,ratio\n"

    def test_single_record_row(self):
        rec = {"seed": 0, "opt": 2.0, "alg": 1.0, "ratio": 2.0, "stderr": 0.0, "passed": True}
        lines = report_emit(self.make_report([rec]), "csv").decode("utf-8").strip().split("\n")
        assert lines[1] == "0,2.0,1.0,2.0"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            report_emit(self.make_report([]), "xml")


class TestFixtures:
    def test_all_fixtures_pass(self):
        for fx in all_fixtures():
            failed = [c for c in fx.checks if not c.passed]
            assert not failed, f"{fx.name}: {[(c.name, c.expected, c.actual) for c in failed]}"

    def test_fixture_to_dict(self):
        d = build_fixture_randomization_floor().to_dict()
        assert d["passed"] is True
        assert {"name", "expected", "actual", "passed", "note"} <= set(d["checks"][0])

    def test_randomization_floor_values(self):
        fx = build_fixture_randomization_floor()
        assert get_check(fx, "optimum under weighting 1").actual == "2"
        assert get_check(fx, "optimum under weighting 2").actual == "3"
        assert get_check(fx, "deterministic floor").actual == "3/2"
        assert get_check(fx, "mixture 2/5 on the paired matching").actual == "5/4"
        assert get_check(fx, "both weightings are metric").actual == "True"

    def test_randomization_floor_epsilon_domain(self):
        with pytest.raises(ValueError):
            build_fixture_randomization_floor(Fraction(0))
        with pytest.raises(ValueError):
            build_fixture_randomization_floor(Fraction(1))

    def test_mutual_top_pairs_values(self):
        fx = build_fixture_mutual_top_pairs()
        assert get_check(fx, "metric guessing ratio").actual == "3/2"
        assert get_check(fx, "non-metric ratio at the eps -> 0 limit").actual == "3"
        assert get_check(fx, "full-matching ratio is 1").passed
        wide = build_fixture_mutual_top_pairs(4)
        assert get_check(wide, "metric guessing ratio").actual == "8/5"
        assert wide.passed()

    def test_mutual_top_pairs_domain(self):
        with pytest.raises(ValueError):
            build_fixture_mutual_top_pairs(1)
        with pytest.raises(ValueError):
            build_fixture_mutual_top_pairs(3, Fraction(1, 2))

    def test_mixture_gap_values(self):
        fx = build_fixture_mixture_gap()
        assert get_check(fx, "mixture ceiling").actual == "3/5"
        assert get_check(fx, "uniform mixture worst ratio").actual == "3"
        for i, opt in enumerate((1, 2, 3, 4), start=1):
            assert get_check(fx, f"weighting {i} optimum").expected == str(opt)
        assert get_check(fx, "every matching's total coefficient").passed


def _uniform(prof, size, rs):
    return random_k_matching(EdgePool.complete(range(prof.n), prof.n), size, rs)


# The one-draw library composition of each randomized (problem, engine) row.
LIBRARY_DRAWS = {
    ("mwm", "random"): lambda prof, k, rs: _uniform(prof, prof.n // 2, rs),
    ("mwm", "hybrid"): lambda prof, k, rs: hybrid_matching(prof, rs),
    ("ksum", "hybrid"): lambda prof, k, rs: matching_to_clusters(hybrid_matching(prof, rs), k),
    ("densest", "random"): lambda prof, k, rs: matching_to_subset(_uniform(prof, k // 2, rs), k),
    ("tsp", "greedy"): lambda prof, k, rs: matching_to_tour(
        greedy_k_matching(prof, prof.n // 2), prof, rs
    ),
    ("tsp", "hybrid"): lambda prof, k, rs: matching_to_tour(hybrid_matching(prof, rs), prof, rs),
}


def test_library_draws_cover_every_randomized_row():
    randomized = {
        (problem, engine)
        for problem, spec in harness.PROBLEMS.items()
        for engine in spec.engines
        if engine != "greedy" or spec.random_reduce
    }
    assert set(LIBRARY_DRAWS) == randomized


def _valid_ks(problem, engine, n):
    """Every k the row accepts at n; just None when the row takes no k."""
    ks = []
    for k in (None, *range(1, n + 1)):
        try:
            harness.problem_spec(problem, engine, n, k)
        except ValueError:
            continue
        if k is None:
            return [None]
        ks.append(k)
    return ks


@pytest.mark.parametrize("problem,engine", sorted(LIBRARY_DRAWS))
def test_library_draws_reproduce_solve(problem, engine):
    """One RandomSource(seed) shared by the library calls gives solve's solution."""
    compared = 0
    for n in range(4, 13):
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=n))
        prof = derive_preferences(inst)
        for k in _valid_ks(problem, engine, n):
            for seed in range(-3, 9):
                payload = harness.solve(problem, engine, inst, k, seed)
                shape = LIBRARY_DRAWS[problem, engine](prof, k, RandomSource(seed)).to_dict()
                assert {key: payload[key] for key in shape} == shape, (n, k, seed)
                compared += 1
    assert compared >= 5 * 12  # at least five sizes (tsp takes even n only)
