import json

import pytest

from ordmatch import WeightedInstance, load_instance, save_instance
from ordmatch.cli import main


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "--n", "8", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def nonmetric_path(tmp_path):
    w = [[0.0, 1.0, 1.0], [1.0, 0.0, 5.0], [1.0, 5.0, 0.0]]
    path = tmp_path / "broken.json"
    save_instance(WeightedInstance(w), str(path))
    return str(path)


class TestGen:
    def test_writes_loadable_instance(self, inst_path):
        inst = load_instance(inst_path)
        assert inst.n == 8
        assert inst.metric

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--n", "6", "--seed", "4", "--out", str(a)])
        main(["gen", "--n", "6", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_matrix(self, tmp_path, capsys):
        assert main(["gen", "--n", "5", "--seed", "0", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6  # header + 5 rows
        assert len(lines[1].split(",")) == 5

    def test_all_families(self, tmp_path):
        for fam in ("euclidean-uniform", "random-metric-closure", "clustered-gaussian"):
            out = tmp_path / f"{fam}.json"
            assert main(["gen", "--family", fam, "--n", "6", "--out", str(out)]) == 0


class TestPrefs:
    def test_ranking_rows(self, inst_path, capsys):
        assert main(["prefs", "--instance", inst_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 8
        assert len(payload["ranking"]) == 8
        assert sorted(payload["ranking"][0]) == [1, 2, 3, 4, 5, 6, 7]

    def test_csv(self, inst_path, capsys):
        assert main(["prefs", "--instance", inst_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9


class TestSolve:
    @pytest.mark.parametrize(
        "argv,kind",
        [
            (["--problem", "mwm", "--algorithm", "greedy"], "matching"),
            (["--problem", "mwm", "--algorithm", "random"], "matching"),
            (["--problem", "mwm", "--algorithm", "hybrid"], "matching"),
            (["--problem", "mkm", "--algorithm", "greedy", "--k", "2"], "matching"),
            (["--problem", "ksum", "--algorithm", "greedy", "--k", "2"], "clustering"),
            (["--problem", "ksum", "--algorithm", "hybrid", "--k", "2"], "clustering"),
            (["--problem", "densest", "--algorithm", "greedy", "--k", "4"], "subset"),
            (["--problem", "densest", "--algorithm", "random", "--k", "4"], "subset"),
            (["--problem", "tsp", "--algorithm", "greedy"], "tour"),
            (["--problem", "tsp", "--algorithm", "hybrid"], "tour"),
        ],
    )
    def test_each_problem(self, inst_path, capsys, argv, kind):
        assert main(["solve", "--instance", inst_path, *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == kind
        assert payload["value"] >= 0.0

    def test_reduction_alias(self, inst_path, capsys):
        rc = main([
            "solve", "--instance", inst_path,
            "--problem", "ksum", "--algorithm", "reduction-of(greedy)", "--k", "2",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "clustering"

    def test_seeded_runs_reproduce(self, inst_path, capsys):
        main(["solve", "--instance", inst_path, "--problem", "mwm",
              "--algorithm", "hybrid", "--seed", "11"])
        first = capsys.readouterr().out
        main(["solve", "--instance", inst_path, "--problem", "mwm",
              "--algorithm", "hybrid", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_csv_summary(self, inst_path, capsys):
        assert main(["solve", "--instance", inst_path, "--problem", "mwm",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "problem,algorithm,seed,value"
        assert len(lines) == 2

    def test_unsupported_engine_for_problem(self, inst_path):
        with pytest.raises(SystemExit):
            main(["solve", "--instance", inst_path, "--problem", "mkm",
                  "--algorithm", "random", "--k", "2"])

    def test_missing_k(self, inst_path):
        with pytest.raises(SystemExit):
            main(["solve", "--instance", inst_path, "--problem", "mkm"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--problem", "mkm", "--k", "9"],  # above n//2 = 4
            ["--problem", "mkm", "--k", "0"],
            ["--problem", "densest", "--k", "10"],  # above n = 8
            ["--problem", "densest", "--algorithm", "random", "--k", "0"],
        ],
    )
    def test_k_outside_what_bench_accepts_exits_one(self, inst_path, argv, capsys):
        assert main(["solve", "--instance", inst_path, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestOracle:
    @pytest.mark.parametrize(
        "argv,kind",
        [
            (["--problem", "mwm"], "matching"),
            (["--problem", "mkm", "--k", "2"], "matching"),
            (["--problem", "ksum", "--k", "2"], "clustering"),
            (["--problem", "densest", "--k", "4"], "subset"),
            (["--problem", "tsp"], "tour"),
        ],
    )
    def test_each_problem(self, inst_path, capsys, argv, kind):
        assert main(["oracle", "--instance", inst_path, *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == kind

    def test_oracle_at_least_solver(self, inst_path, capsys):
        main(["oracle", "--instance", inst_path, "--problem", "mwm"])
        opt = json.loads(capsys.readouterr().out)["value"]
        main(["solve", "--instance", inst_path, "--problem", "mwm"])
        alg = json.loads(capsys.readouterr().out)["value"]
        assert opt >= alg - 1e-12

    def test_csv(self, inst_path, capsys):
        assert main(["oracle", "--instance", inst_path, "--problem", "tsp",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "problem,value"


class TestBench:
    def test_passing_run_exits_zero(self, capsys):
        rc = main(["bench", "--problem", "mwm", "--algorithm", "greedy",
                   "--n", "6", "--trials", "3"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True
        assert payload["schema"] == 2

    def test_failing_bound_exits_one(self, capsys):
        rc = main(["bench", "--problem", "mwm", "--algorithm", "greedy",
                   "--n", "10", "--trials", "5", "--bound", "1.0"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["verdict"] is False

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["bench", "--problem", "mwm", "--algorithm", "random", "--n", "6",
                   "--trials", "2", "--inner-samples", "40",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "seed,opt,alg,ratio"
        assert len(lines) == 3

    def test_invalid_config_exits_one(self, capsys):
        rc = main(["bench", "--problem", "mkm", "--algorithm", "random",
                   "--n", "8", "--k", "2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestFixturesVerb:
    def test_all_pass(self, capsys):
        assert main(["fixtures"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 3
        assert all(fx["passed"] for fx in payload)

    def test_single_fixture(self, capsys):
        assert main(["fixtures", "--name", "mixture-gap"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [fx["name"] for fx in payload] == ["mixture-gap"]

    def test_csv(self, capsys):
        assert main(["fixtures", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "fixture,check,expected,actual,passed"
        assert len(lines) > 10


class TestVerifyMetric:
    def test_metric_instance_passes(self, inst_path, capsys):
        assert main(["verify-metric", "--instance", inst_path]) == 0
        assert json.loads(capsys.readouterr().out)["metric"] is True

    def test_non_metric_instance_fails(self, nonmetric_path, capsys):
        assert main(["verify-metric", "--instance", nonmetric_path]) == 1
        assert json.loads(capsys.readouterr().out)["metric"] is False

    def test_tolerance_rescues(self, nonmetric_path):
        assert main(["verify-metric", "--instance", nonmetric_path, "--tol", "3.0"]) == 0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["verify-metric", "--instance", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_unknown_verb_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["prefs"])
        assert exc.value.code == 2
