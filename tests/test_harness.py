import dataclasses
import json
import math
import re
import shutil
import statistics
from fractions import Fraction

import pytest

from ordmatch import (
    DEFAULT_BUDGET,
    BudgetError,
    GeneratorSpec,
    RandomSource,
    WeightedInstance,
    check_record,
    default_bound,
    derive_preferences,
    generate,
    greedy_k_matching,
    hybrid_bound,
    hybrid_matching,
    load_record,
    matching_to_clusters,
    matching_to_subset,
    matching_to_tour,
    matching_weight,
    opt_densest,
    opt_k_sum,
    opt_matching,
    opt_tsp,
    random_k_matching,
    report_emit,
    run_trials,
)
from ordmatch import harness
from ordmatch.cli import main
from ordmatch.harness import canonical_engine

from _records import (
    FILES,
    all_fixtures,
    build_fixture_mixture_gap,
    build_fixture_mutual_top_pairs,
    build_fixture_randomization_floor,
    script,
)


def get_check(fx, name):
    for c in fx["checks"]:
        if c["name"] == name:
            return c
    raise AssertionError(f"no check named {name!r}")


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


# run_trials' refusals, each (positional arguments, keyword arguments, message), as the
# arguments are read at its head: n, trials, inner_samples and k as integers, bound as a
# number, then problem_spec's rules, the counts, the bound's sign and gen's rules.
REFUSED = [
    (("nope", "greedy", 8), {},
     "unknown problem 'nope', expected one of ('mwm', 'mkm', 'ksum', 'densest', 'tsp')"),
    (("mkm", "random", 8), {"k": 2},
     "algorithm 'random' has no defended bound for mkm; allowed: ('greedy',)"),
    (("densest", "hybrid", 8), {"k": 4},
     "algorithm 'hybrid' has no defended bound for densest; allowed: ('greedy', 'random')"),
    (("tsp", "random", 8), {},
     "algorithm 'random' has no defended bound for tsp; allowed: ('greedy', 'hybrid')"),
    (("mwm", "greedy", 8), {"family": "bogus"},
     "unknown family 'bogus', expected one of ('euclidean-uniform', 'random-metric-closure', "
     "'clustered-gaussian')"),
    (("mwm", "greedy", 8), {"trials": 0}, "trials must be at least 1"),
    (("mwm", "hybrid", 8), {"inner_samples": 1},
     "inner_samples must be at least 2 for a standard error"),
    (("mwm", "greedy", 1), {}, "n must be at least 2, got 1"),
    (("mkm", "greedy", 10), {}, "mkm needs 1 <= k <= n//2, got k=None, n=10"),  # k missing
    (("mkm", "greedy", 10), {"k": 6}, "mkm needs 1 <= k <= n//2, got k=6, n=10"),  # above n//2
    (("ksum", "greedy", 9), {"k": 2}, "ksum needs k >= 1 dividing n, got k=2, n=9"),
    # k < 1, rejected before n % k
    (("ksum", "greedy", 8), {"k": 0}, "ksum needs k >= 1 dividing n, got k=0, n=8"),
    (("ksum", "hybrid", 9), {"k": 3}, "ksum with the hybrid engine needs an even cluster size"),
    (("densest", "greedy", 10), {"k": 3}, "densest needs even k in 2..n, got k=3, n=10"),
    (("tsp", "greedy", 7), {}, "tsp needs even n >= 4, got n=7"),
    # neither mwm nor tsp takes a k, so none is accepted and ignored
    *((("mwm", "greedy", 8), {"k": k}, f"mwm takes no k (its matching is perfect), got k={k}")
      for k in (0, 2, 4)),
    *((("tsp", "greedy", 8), {"k": k}, f"tsp takes no k (its tour visits every node), got k={k}")
      for k in (0, 2, 4)),
    (("mwm", "greedy", 8), {"bound": 0.0}, "bound must be positive"),
    *((("mwm", "greedy", 8), {"bound": bound}, f"bound must be finite, got {bound}")
      for bound in (math.inf, -math.inf, math.nan)),
]


class TestRunTrialsArguments:
    def test_accepts_reduction_alias(self):
        alias = run_trials("ksum", "reduction-of(greedy)", 8, k=2, trials=1)
        plain = run_trials("ksum", "greedy", 8, k=2, trials=1)
        assert alias["config"]["algorithm"] == "reduction-of(greedy)"
        assert alias["bound"] == 4.0
        assert {**alias, "config": None} == {**plain, "config": None}

    @pytest.mark.parametrize("args, kwargs, message", REFUSED, ids=[m for *_, m in REFUSED])
    def test_rejections(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_trials(*args, **kwargs)

    def test_randomized_runs_report_a_standard_error(self):
        def stderr(problem, algorithm):
            report = run_trials(problem, algorithm, 8, trials=1, inner_samples=20)
            return report["records"][0]["stderr"]

        assert stderr("mwm", "greedy") == 0.0
        assert stderr("mwm", "random") > 0.0
        assert stderr("mwm", "hybrid") > 0.0
        # tour completion draws a start node, so tsp is randomized even under greedy
        assert stderr("tsp", "greedy") > 0.0


class TestProblemGate:
    """``problem_spec`` is the one gate bench, solve and oracle pass: n and k are integers."""

    @pytest.mark.parametrize("problem, k", [("mkm", 2.5), ("mkm", 2.0), ("mkm", True),
                                            ("ksum", 2.0), ("densest", 4.0)])
    def test_optimum_reads_k_as_an_integer(self, problem, k):
        """These raised TypeError inside the oracles, and mkm with k=True ran as k=1."""
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=1))
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
            harness.optimum(problem, inst, k)

    @pytest.mark.parametrize("problem, n, k, field", [("mwm", 8.0, None, "n"),
                                                      ("mkm", 8, 2.5, "k")])
    def test_default_bound_reads_n_and_k_as_integers(self, problem, n, k, field):
        """Both returned 2.0."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            default_bound(problem, "greedy", n, k)

    @pytest.mark.parametrize("problem, n, message", [
        ("mwm", "8", "n must be an integer, got '8'"),
        (["mwm"], 8, "unknown problem ['mwm'], expected one of ")])
    def test_problem_spec_refuses_with_value_error(self, problem, n, message):
        """Both raised TypeError: n="8" from the comparison with 2, ["mwm"] as a dict key."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            harness.problem_spec(problem, "greedy", n, None)

    @pytest.mark.parametrize("call, what", [
        (lambda inst: opt_matching(inst, 4), "matching"),
        (lambda inst: opt_densest(inst, 4), "densest"),
        (lambda inst: opt_k_sum(inst, 2), "k-sum"), (lambda inst: opt_tsp(inst), "tsp"),
        (lambda inst: harness.optimum("mkm", inst, 2), "matching"),
        (lambda inst: run_trials("mwm", "greedy", 8, trials=1), "matching")],
        ids=["opt_matching", "opt_densest", "opt_k_sum", "opt_tsp", "optimum", "run_trials"])
    def test_every_oracle_call_reads_the_one_budget(self, call, what, monkeypatch):
        """Each bound ``DEFAULT_BUDGET`` as a default argument when it was defined, so a
        budget set on the module later reached none of them."""
        monkeypatch.setattr("ordmatch.oracle.DEFAULT_BUDGET", dataclasses.replace(
            DEFAULT_BUDGET, max_n_matching=7, max_n_k_sum=7, max_n_densest=7, max_n_tsp=7))
        with pytest.raises(BudgetError, match=f"^{what} oracle capped at n=7, got n=8$"):
            call(generate(GeneratorSpec("euclidean-uniform", 8, seed=1)))

    @pytest.mark.parametrize("oracle, what, cap, n", [
        (lambda inst: opt_matching(inst, 4), "matching", 20, 21),
        (lambda inst: opt_densest(inst, 4), "densest", 20, 21),
        (lambda inst: opt_k_sum(inst, 2), "k-sum", 16, 18),
        (lambda inst: opt_tsp(inst), "tsp", 15, 16)])
    def test_one_gate_words_every_oracle_budget(self, oracle, what, cap, n, monkeypatch):
        """Each oracle's cap and clock messages, kept when its own checks became one gate. A
        zero time limit runs out at the first clock check."""
        with pytest.raises(BudgetError, match=f"^{what} oracle capped at n={cap}, got n={n}$"):
            oracle(WeightedInstance([[0.0] * n for _ in range(n)]))
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=1))
        monkeypatch.setattr("ordmatch.oracle.DEFAULT_BUDGET",
                            dataclasses.replace(DEFAULT_BUDGET, time_limit=0.0))
        with pytest.raises(BudgetError, match=f"^{what} oracle exceeded its time budget$"):
            oracle(inst)

    @pytest.mark.parametrize("oracle", [opt_matching, opt_densest, opt_k_sum])
    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_oracles_read_k_as_an_integer(self, oracle, k):
        """k=2.0 raised TypeError inside the DPs, and 2.5 too ("k=2.5 must divide n=8" in
        ``opt_k_sum``); k=True ran as k=1."""
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=1))
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k}$"):
            oracle(inst, k)

    def test_no_none_engine(self):
        """solve ran greedy, and bench a greedy marked randomized that reported
        "algorithm": null: None was the oracle's "no engine"."""
        inst = generate(GeneratorSpec("euclidean-uniform", 8, seed=1))
        with pytest.raises(ValueError, match="^algorithm must be a string, got None$"):
            harness.solve("mwm", None, inst, None, 0)
        with pytest.raises(ValueError, match="^algorithm must be a string, got None$"):
            run_trials("mwm", None, 8)

    @pytest.mark.parametrize("argv", [
        ["bench", "--n", "6", "--trials", "3", "--inner-samples", "9", "--algorithm", "hybrid"],
        ["solve", "--instance", "{path}", "--algorithm", "reduction-of(hybrid)"]])
    def test_one_gate_per_run(self, argv, monkeypatch, tmp_path):
        """A bench op ran canonical_engine 9 times and problem_spec 3 times, solve 2 and 1."""
        path = str(tmp_path / "inst.json")
        assert main(["gen", "--n", "6", "--out", path]) == 0
        calls = dict.fromkeys(("canonical_engine", "problem_spec"), 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(harness, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(harness, name, counted)
        assert main([arg.format(path=path) for arg in argv] + ["--problem", "tsp"]) == 0
        assert calls == {"canonical_engine": 1, "problem_spec": 1}


# Every (problem, engine) of the table, and a small size for each problem.
ROWS = [(problem, engine) for problem, spec in harness.PROBLEMS.items() for engine in spec.engines]
SMALL = {"mwm": {"n": 6}, "mkm": {"n": 6, "k": 2}, "ksum": {"n": 8, "k": 2},
         "densest": {"n": 6, "k": 4}, "tsp": {"n": 6}}


class TestRunTrials:
    def test_replay_bytes_identical(self):
        cfg = dict(problem="mwm", algorithm="hybrid", n=6, trials=3, inner_samples=50, seed=2)
        a = report_emit(run_trials(**cfg), "json")
        b = report_emit(run_trials(**cfg), "json")
        assert a == b
        assert report_emit(run_trials(**cfg), "csv") == report_emit(run_trials(**cfg), "csv")

    def test_deterministic_verdict_passes_honestly(self):
        r = run_trials("mwm", "greedy", 8, trials=6, seed=0)
        assert r["verdict"]
        assert r["bound"] == 2.0
        for rec in r["records"]:
            assert rec["ratio"] >= 1.0 - 1e-9
            assert rec["ratio"] <= 2.0 + 1e-9

    def test_unreachable_bound_fails(self):
        r = run_trials("mwm", "greedy", 10, trials=5, seed=0, bound=1.0)
        assert not r["verdict"]
        assert r["max_ratio"] > 1.0 + 1e-9

    def test_randomized_records_carry_stderr(self):
        r = run_trials("mwm", "random", 6, trials=2, inner_samples=80, seed=1)
        for rec in r["records"]:
            assert rec["stderr"] > 0.0
            assert rec["alg"] > 0.0
        assert r["verdict"]

    def test_aggregates_recomputable_from_records(self):
        r = run_trials("mwm", "greedy", 8, trials=5, seed=3)
        ratios = [rec["ratio"] for rec in r["records"]]
        assert r["max_ratio"] == max(ratios)
        assert r["mean_ratio"] == statistics.fmean(ratios)
        assert r["std_error"] == statistics.stdev(ratios) / math.sqrt(len(ratios))

    def test_inner_samples_span_several_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "SAMPLE_BLOCK", 7)
        cfg = dict(problem="tsp", algorithm="hybrid", n=6, trials=2, inner_samples=20, seed=4)
        a, b = run_trials(**cfg), run_trials(**cfg)
        assert a["verdict"]
        assert report_emit(a, "json") == report_emit(b, "json")
        for rec in a["records"]:
            assert rec["stderr"] > 0.0

    def test_trial_seeds_are_base_plus_index(self):
        r = run_trials("mwm", "greedy", 6, trials=4, seed=10)
        assert [rec["seed"] for rec in r["records"]] == [10, 11, 12, 13]

    @pytest.mark.parametrize("problem, engine", ROWS)
    def test_the_config_reruns_the_report(self, problem, engine):
        report = run_trials(problem, engine, **SMALL[problem], trials=3, inner_samples=20, seed=7)
        assert list(report["config"]) == ["problem", "algorithm", "n", "family", "dimension",
                                          "trials", "seed", "k", "inner_samples", "bound"]
        assert report["config"]["bound"] == report["bound"]
        assert run_trials(**report["config"]) == report

    @pytest.mark.parametrize("problem, engine", ROWS)
    def test_each_record_replays_alone_from_its_seed(self, problem, engine):
        """Trial t drew from ``derived_seed(seed, t)``, so only the deterministic rows replayed:
        a randomized record needed the whole run."""
        report = run_trials(problem, engine, **SMALL[problem], trials=3, inner_samples=20, seed=7)
        for record in report["records"]:
            replay = run_trials(**{**report["config"], "seed": record["seed"], "trials": 1})
            assert replay["records"] == [record], record["seed"]

    def test_a_report_is_its_json_document(self):
        r = run_trials("mwm", "hybrid", 6, trials=2, inner_samples=10, seed=5)
        assert type(r) is dict
        assert list(r) == ["schema", "config", "bound", "records", "max_ratio", "mean_ratio",
                           "std_error", "verdict"]
        assert json.loads(report_emit(r, "json")) == r

    @pytest.mark.parametrize("problem, n, k, what, cap", [
        ("mwm", 21, None, "matching", 20), ("mkm", 21, 3, "matching", 20),
        ("ksum", 18, 2, "k-sum", 16), ("densest", 21, 4, "densest", 20),
        ("tsp", 16, None, "tsp", 15)])
    def test_the_oracle_cap_is_read_before_any_instance(self, problem, n, k, what, cap,
                                                        monkeypatch, capsys):
        """``bench --problem mwm --n 10000000`` failed in ``generate``, unable to allocate its
        728 TiB matrix, before the matching oracle's cap of 20 was read."""
        def generate_nothing(spec):
            raise AssertionError(f"generate called for n={spec.n}")

        monkeypatch.setattr(harness, "generate", generate_nothing)
        message = f"{what} oracle capped at n={cap}, got n={n}"
        with pytest.raises(BudgetError, match=f"^{message}$"):
            run_trials(problem, "greedy", n, k=k, trials=1)
        argv = ["bench", "--problem", problem, "--n", str(n), "--trials", "1"]
        assert main(argv + ["--k", str(k)] * (k is not None)) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_reduction_problems_run(self):
        assert run_trials("ksum", "greedy", 8, k=2, trials=2, seed=0)["verdict"]
        assert run_trials("mkm", "greedy", 9, k=2, trials=2, seed=0)["verdict"]
        assert run_trials("densest", "random", 8, k=4, trials=2, inner_samples=60,
                          seed=0)["verdict"]
        assert run_trials("tsp", "greedy", 6, trials=2, inner_samples=60, seed=0)["verdict"]

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
        return {"schema": 1, "config": {"problem": "mwm"}, "bound": 2.0, "records": records,
                "max_ratio": max(ratios), "mean_ratio": statistics.fmean(ratios),
                "std_error": 0.0, "verdict": True}

    def test_json_round_trips(self):
        r = run_trials("mwm", "greedy", 6, trials=3, seed=5)
        payload = json.loads(report_emit(r, "json").decode("utf-8"))
        assert payload == r
        assert payload["schema"] == 2

    def test_infinite_ratio_is_strict_json_null(self):
        r = run_trials("mwm", "random", 6, trials=2, inner_samples=10, seed=5)
        r["records"][0]["ratio"] = math.inf  # what an ALG mean of 0 gives
        r.update(max_ratio=math.inf, mean_ratio=math.inf, std_error=math.nan)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(report_emit(r, "json").decode("utf-8"), parse_constant=reject)
        assert payload["records"][0]["ratio"] is None
        assert payload["records"][1]["ratio"] == r["records"][1]["ratio"]
        assert payload["max_ratio"] is None
        assert payload["mean_ratio"] is None
        assert payload["std_error"] is None

    def test_csv_header_and_rows(self):
        r = run_trials("mwm", "greedy", 6, trials=3, seed=5)
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
            failed = [c for c in fx["checks"] if not c["passed"]]
            assert not failed, f"{fx['name']}: {failed}"

    def test_fixture_to_dict(self):
        d = check_record(build_fixture_randomization_floor())
        assert list(d) == ["passed", "checks"] and d["passed"] is True
        assert all(set(c) == {"name", "expected", "actual", "passed"} for c in d["checks"])
        assert all(isinstance(c[key], str) for c in d["checks"] for key in ("expected", "actual"))

    def test_randomization_floor_values(self):
        fx = check_record(build_fixture_randomization_floor())
        assert get_check(fx, "tie-breaker optimum over all 3 2-matchings")["actual"] == "2"
        assert get_check(fx, "favorite-pair optimum over all 3 2-matchings")["actual"] == "3"
        assert get_check(fx, "deterministic floor over all 3 matchings")["actual"] == "3/2"
        assert get_check(fx, "x worst ratio")["actual"] == "5/4"
        assert get_check(fx, "lower bound L from y")["actual"] == "497/398"
        assert get_check(fx, "tie-breaker metric")["actual"] == "True"
        assert get_check(fx, "favorite-pair metric")["actual"] == "True"
        # past epsilon = 1/3 the paired matching beats 3/2 and the floor follows it
        wide = check_record(build_fixture_randomization_floor(Fraction(1, 2)))
        assert get_check(wide, "deterministic floor over all 3 matchings")["actual"] == "4/3"
        assert wide["passed"]

    def test_randomization_floor_epsilon_domain(self):
        with pytest.raises(ValueError):
            build_fixture_randomization_floor(Fraction(0))
        with pytest.raises(ValueError):
            build_fixture_randomization_floor(Fraction(1))

    def test_mutual_top_pairs_values(self):
        fx = check_record(build_fixture_mutual_top_pairs())
        assert get_check(fx, "metric: uniform pair guess worst ratio")["actual"] == "3/2"
        assert get_check(fx, "metric: lower bound L from y")["actual"] == "3/2 exact"
        assert get_check(fx, "lean: lower bound L from y")["actual"] == "50/17 exact"
        assert get_check(fx, "limit: lower bound L from y")["actual"] == "3 exact"
        assert get_check(fx, "metric: deterministic floor over all 15 matchings")["actual"] == "2"
        # base 0: every guess is worth 0 under some weighting
        assert get_check(fx, "limit: deterministic floor over all 15 matchings")["actual"] is None
        assert get_check(fx, "lean-heavy-0 metric")["actual"] == "False"
        wide = check_record(build_fixture_mutual_top_pairs(4))
        assert get_check(wide, "metric: uniform pair guess worst ratio")["actual"] == "8/5"
        assert wide["passed"]

    def test_mutual_top_pairs_domain(self):
        with pytest.raises(ValueError):
            build_fixture_mutual_top_pairs(1)
        with pytest.raises(ValueError):
            build_fixture_mutual_top_pairs(3, Fraction(1, 2))

    def test_mixture_gap_values(self):
        fx = check_record(build_fixture_mixture_gap())
        assert get_check(fx, "lower bound L from y")["actual"] == "5/3 exact"
        assert get_check(fx, "x worst ratio")["actual"] == "5/3"
        assert get_check(fx, "uniform over six benchmark matchings worst ratio")["actual"] == "3"
        assert get_check(fx, "deterministic floor over all 105 matchings")["actual"] == "2"
        for i in (1, 2, 3, 4):
            assert get_check(fx, f"weighting-{i} optimum over all 105 4-matchings")["actual"] == str(i)

    def test_k_matchings_are_every_matching_once(self):
        for n, k, count in ((4, 2, 3), (8, 4, 105), (6, 1, 15), (5, 2, 15), (3, 0, 1)):
            ms = list(harness._k_matchings(tuple(range(n)), k))
            assert len(ms) == len(set(ms)) == count
            for m in ms:
                nodes = [x for e in m for x in e]
                assert len(m) == k and len(set(nodes)) == 2 * k
                assert all(u < v for u, v in m) and list(m) == sorted(m)


    def test_checker_reaches_the_last_matching(self):
        # the only matching worth anything is the last one enumerated
        last = ((0, 7), (1, 6), (2, 5), (3, 4))
        rows = [[str(int((min(u, v), max(u, v)) in last)) for v in range(8)] for u in range(8)]
        ranking = [[7 - q] + [j for j in range(8) if j not in (q, 7 - q)] for q in range(8)]
        x = [{"matching": [list(e) for e in last], "p": "1"}]
        game = {"name": "", "y": {"w": "1"}, "mixtures": {"x": {"x": x, "ratio": "1"}},
                "floor": "1", "bound": "1"}
        fx = check_record({"ranking": ranking, "k": 4,
                           "weightings": {"w": {"rows": rows, "metric": False, "opt": "4"}},
                           "games": [game]})
        assert fx["passed"], [c for c in fx["checks"] if not c["passed"]]
        assert get_check(fx, "deterministic floor over all 105 matchings")["actual"] == "1"
        assert get_check(fx, "lower bound L from y")["actual"] == "1 exact"


def _failing(record):
    return {c["name"] for c in check_record(record)["checks"] if not c["passed"]}


class TestCheckerRejects:
    """A record with one wrong claim fails exactly the check for that claim."""

    def test_perturbed_y(self):
        bad = build_fixture_mixture_gap()
        bad["games"][0]["y"] = dict(zip(bad["games"][0]["y"], ("1/5", "1/5", "3/10", "3/10")))
        assert _failing(bad) == {"lower bound L from y"}

    def test_y_that_is_not_a_distribution(self):
        bad = build_fixture_randomization_floor()
        y = bad["games"][0]["y"]
        y.update((s, str(2 * Fraction(p))) for s, p in y.items())
        assert _failing(bad) == {"lower bound L from y"}
        assert get_check(check_record(bad), "lower bound L from y")["actual"] == "y is not a distribution"

    def test_wrong_metric_flag(self):
        bad = build_fixture_mutual_top_pairs()
        bad["weightings"]["lean-heavy-1"]["metric"] = True
        assert _failing(bad) == {"lean-heavy-1 metric"}

    def test_weighting_that_breaks_the_profile(self):
        bad = build_fixture_randomization_floor()
        # node 2 now ranks 3 first, but the tie-breaker weighs (2, 3) at epsilon < 1
        bad["ranking"] = [[1, 2, 3], [0, 3, 2], [3, 0, 1], [1, 0, 2]]
        assert _failing(bad) == {"tie-breaker consistent with the profile"}

    def test_mixture_off_the_matchings(self):
        bad = build_fixture_randomization_floor()
        bad["games"][0]["mixtures"] = {
            "x": {"x": [{"matching": [[0, 1], [1, 2]], "p": "1"}], "ratio": "5/4"}}
        assert _failing(bad) == {"x worst ratio"}

    @pytest.mark.parametrize("name", ["randomization-floor", "mixture-gap"])
    def test_cli_exits_one(self, name, monkeypatch, capsys, tmp_path):
        bad = load_record(FILES[name])
        y = bad["games"][0]["y"]
        y.update((s, str(Fraction(p) * Fraction(9, 10))) for s, p in y.items())
        shutil.copytree(harness.RECORDS, tmp_path, dirs_exist_ok=True)  # the same --name choices
        (tmp_path / f"{name}.json").write_text(script.text(bad))
        monkeypatch.setattr("ordmatch.cli.RECORDS", str(tmp_path))
        assert main(["fixtures", "--name", name]) == 1
        (fx,) = json.loads(capsys.readouterr().out)
        assert fx["passed"] is False
        assert [c["name"] for c in fx["checks"] if not c["passed"]] == ["lower bound L from y"]


BUILDERS = script.BUILDERS
BOUND = "record.games[0].bound must be a rational written as str(Fraction) writes it, got "


class TestRecordFiles:
    """The package's record files: each is its builder's document, and ``check_record`` reads
    nothing but ``_LAYOUT``."""

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_a_file_checks_as_its_builder(self, name):
        doc = load_record(FILES[name])
        assert doc == BUILDERS[name]() and check_record(doc)["passed"]

    def test_the_files_are_what_the_script_writes(self, capsys):
        assert script.main(["--check"]) == 0

    def test_check_fails_on_a_drifted_file(self, monkeypatch, tmp_path, capsys):
        shutil.copytree(harness.RECORDS, tmp_path, dirs_exist_ok=True)
        drifted = tmp_path / "mixture-gap.json"
        drifted.write_text(drifted.read_text().replace('"5/3"', '"5/3" ', 1))  # one byte, same JSON
        monkeypatch.setattr(script, "RECORDS", str(tmp_path))
        assert script.main(["--check"]) == 1
        assert "mixture-gap.json differs" in capsys.readouterr().err
        assert drifted.read_text().count('"5/3" ') == 1  # --check writes nothing

    def edited(self, tmp_path, name, edit):
        d = json.loads(open(FILES[name]).read())
        edit(d)
        (path := tmp_path / f"{name}.json").write_text(json.dumps(d))
        return path

    def test_a_perturbed_weight_fails_its_checks(self, tmp_path):
        def edit(d):
            rows = d["weightings"]["favorite-pair"]["rows"]
            rows[0][1] = rows[1][0] = "5/2"
        failing = _failing(load_record(self.edited(tmp_path, "randomization-floor", edit)))
        assert failing == {"favorite-pair optimum over all 3 2-matchings", "favorite-pair metric",
                           "deterministic floor over all 3 matchings", "x worst ratio"}

    def test_a_y_that_is_not_a_distribution_fails(self, tmp_path):
        def edit(d):
            d["games"][0]["y"]["weighting-1"] = "1/5"
        rec = load_record(self.edited(tmp_path, "mixture-gap", edit))
        assert _failing(rec) == {"lower bound L from y"}
        assert get_check(check_record(rec), "lower bound L from y")["actual"] == (
            "y is not a distribution")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["games"][0].update(bound="10/6"), BOUND + "'10/6'"),
        (lambda d: d["games"][0].update(bound=" 5/3"), BOUND + "' 5/3'"),
        (lambda d: d["games"][0].update(bound="\uff15/3"), BOUND + "'\uff15/3'"),
        (lambda d: d["games"][0].update(bound="1/0"), BOUND + "'1/0'"),
        (lambda d: d["weightings"]["weighting-1"].update(opt=1.0),
         "record.weightings['weighting-1'].opt must be a rational written as str(Fraction) "
         "writes it, got 1.0"),
        (lambda d: d["weightings"]["weighting-1"]["rows"][0].__setitem__(1, 1),
         "record.weightings['weighting-1'].rows[0][1] must be a rational"),
        (lambda d: d["weightings"]["weighting-1"].update(metric="false"),
         "record.weightings['weighting-1'].metric must be a bool, got str"),
        (lambda d: d.update(extra=1),
         "record must be an object with keys ranking, k, weightings, games, got ['ranking', "),
        (lambda d: d["games"][0].pop("floor"),
         "record.games[0] must be an object with keys name, y, mixtures, floor, bound, got "),
        (lambda d: d.update(k=2.0), "record.k must be an integer, got 2.0"),
        (lambda d: d.update(k=5), "record needs 1 <= k <= n//2, got k=5, n=8"),
        # the defects tests/test_contract.py pins in a document built in Python
        (lambda d: d["games"].__setitem__(0, None),
         "record.games[0] must be an object with keys name, y, mixtures, floor, bound, got "
         "NoneType"),
        (lambda d: d["games"][0].update(y=None), "record.games[0].y must be a dict, got NoneType"),
        (lambda d: d["games"][0].update(mixtures=None),
         "record.games[0].mixtures must be a dict, got NoneType"),
    ], ids=["10/6", "space", "fullwidth digit", "zero denominator", "float", "int weight",
            "string flag", "extra key", "missing key", "float k", "k past n//2", "game null",
            "y null", "mixtures null"])
    def test_a_file_in_another_layout_is_refused(self, edit, message, tmp_path):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            check_record(load_record(self.edited(tmp_path, "mixture-gap", edit)))

    def test_a_mixture_that_lists_a_matching_twice_is_refused(self, tmp_path):
        # the listed probabilities total 7/5, which a dict keyed by matching would hide
        path = self.edited(tmp_path, "mixture-gap", lambda d: (
            x := d["games"][0]["mixtures"]["x"]["x"]).append(x[0]))
        with pytest.raises(ValueError, match=re.escape(
                "record.games[0].mixtures['x'].x must list each matching once")):
            check_record(load_record(path))

    def test_a_file_that_repeats_a_key_is_refused(self, tmp_path):
        # json keeps the last of a repeated key, so the file would check as if "9/10" were absent
        text = open(FILES["mixture-gap"]).read()
        entry = '"y": {"weighting-1": "1/10"'
        assert text.count(entry) == 1
        (path := tmp_path / "mixture-gap.json").write_text(
            text.replace(entry, '"y": {"weighting-1": "9/10", "weighting-1": "1/10"'))
        with pytest.raises(ValueError, match=re.escape(
                "a record file repeats the key 'weighting-1' in one object")):
            load_record(path)

    def test_cli_exits_one_with_error_on_a_malformed_file(self, monkeypatch, tmp_path, capsys):
        shutil.copytree(harness.RECORDS, tmp_path, dirs_exist_ok=True)
        (tmp_path / "mixture-gap.json").write_text('{"ranking": [], "k": 0.5}')
        monkeypatch.setattr("ordmatch.cli.RECORDS", str(tmp_path))
        for argv in (["fixtures"], ["fixtures", "--name", "mixture-gap"]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: record must be an object with keys ")


def _uniform(prof, size, rs):
    return random_k_matching(prof.n, size, rs)


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
            for seed in range(12):
                payload = harness.solve(problem, engine, inst, k, seed)
                shape = LIBRARY_DRAWS[problem, engine](prof, k, RandomSource(seed)).to_dict()
                assert {key: payload[key] for key in shape} == shape, (n, k, seed)
                compared += 1
    assert compared >= 5 * 12  # at least five sizes (tsp takes even n only)
