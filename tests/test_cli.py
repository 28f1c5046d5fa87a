import csv
import io
import json

import pytest

from ordmatch import (
    GENERATOR_FAMILIES,
    GeneratorSpec,
    TrialConfig,
    WeightedInstance,
    derive_preferences,
    generate,
    load_instance,
    save_instance,
)
from ordmatch.cli import main
from ordmatch.harness import PROBLEMS


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

    def test_unsupported_engine_for_problem(self, inst_path, capsys):
        assert main(["solve", "--instance", inst_path, "--problem", "mkm",
                     "--algorithm", "random", "--k", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_k(self, inst_path, capsys):
        assert main(["solve", "--instance", inst_path, "--problem", "mkm"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--problem", "mkm", "--k", "9"],  # above n//2 = 4
            ["solve", "--problem", "mkm", "--k", "0"],
            ["solve", "--problem", "densest", "--k", "10"],  # above n = 8
            ["solve", "--problem", "densest", "--algorithm", "random", "--k", "0"],
            ["solve", "--problem", "ksum", "--k", "0"],  # checked before n % k
            ["oracle", "--problem", "mkm"],  # k missing
            ["oracle", "--problem", "mkm", "--k", "99"],
            ["oracle", "--problem", "ksum", "--k", "0"],
            ["oracle", "--problem", "ksum", "--k", "3"],  # does not divide n = 8
            ["oracle", "--problem", "densest", "--k", "3"],  # odd k
        ],
    )
    def test_k_outside_what_bench_accepts_exits_one(self, inst_path, argv, capsys):
        assert main([*argv, "--instance", inst_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


@pytest.fixture(scope="module")
def gen_paths(tmp_path_factory):
    """``gen --n n --seed n`` instances for n = 2..9."""
    d = tmp_path_factory.mktemp("agree")
    paths = {}
    for n in range(2, 10):
        paths[n] = str(d / f"n{n}.json")
        assert main(["gen", "--n", str(n), "--seed", str(n), "--out", paths[n]]) == 0
    return paths


def test_greedy_optimum_reads_ratio_one(tmp_path, capsys):
    """At seed 70 greedy finds the optimal matching, so opt, alg and both verbs read one value."""
    argv = ["bench", "--problem", "mwm", "--algorithm", "greedy", "--n", "8", "--trials", "1"]
    assert main([*argv, "--seed", "70"]) == 0
    record = json.loads(capsys.readouterr().out)["records"][0]
    assert record["opt"] == record["alg"] and record["ratio"] == 1.0
    path = str(tmp_path / "n8.json")
    assert main(["gen", "--n", "8", "--seed", "70", "--out", path]) == 0
    payloads = []
    for verb in (["oracle"], ["solve", "--algorithm", "greedy"]):
        assert main([*verb, "--instance", path, "--problem", "mwm"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    opt, alg = payloads
    assert opt["edges"] == alg["edges"]
    assert opt["value"] == alg["value"] == record["opt"]


@pytest.mark.parametrize(
    "problem,engine", [(p, e) for p, spec in PROBLEMS.items() for e in spec.engines]
)
def test_bench_solve_and_oracle_accept_the_same_inputs(problem, engine, gen_paths, capsys):
    """TrialConfig raises exactly when solve (and, for greedy, oracle) exits 1.

    Where the config is deterministic, solve's value is bench's alg and
    oracle's value is bench's opt, to the bit.
    """
    for n in range(2, 10):
        for k in (None, *range(-1, n + 2)):
            kargs = [] if k is None else ["--k", str(k)]
            try:
                TrialConfig(problem, engine, n, k=k, trials=1)
                valid = True
            except ValueError:
                valid = False
            verbs = [("solve", ["--algorithm", engine])]
            if engine == "greedy":  # the oracle has no engine; greedy adds no engine check
                verbs.append(("oracle", []))
            payloads = {}
            for verb, extra in verbs:
                rc = main([verb, "--instance", gen_paths[n], "--problem", problem, *extra, *kargs])
                captured = capsys.readouterr()
                assert rc == (0 if valid else 1), (verb, n, k, captured.err)
                assert captured.err.startswith("error:") != valid, (verb, n, k)
                if valid:
                    payloads[verb] = json.loads(captured.out)
            if not (valid and engine == "greedy"):
                continue
            assert main(["bench", "--problem", problem, "--algorithm", engine, "--n", str(n),
                         "--seed", str(n), "--trials", "1", *kargs]) == 0
            record = json.loads(capsys.readouterr().out)["records"][0]
            assert payloads["oracle"]["value"] == record["opt"], (n, k)
            if problem != "tsp":  # a tour start is random even under greedy
                assert payloads["solve"]["value"] == record["alg"], (n, k)


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

    @pytest.mark.parametrize("bound", ["inf", "-inf", "nan"])
    def test_non_finite_bound_exits_one(self, bound, capsys):
        rc = main(["bench", "--problem", "mwm", "--n", "6", "--trials", "1", f"--bound={bound}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

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

    def test_csv_rows_read_back_as_five_cells(self, capsys):
        assert main(["fixtures", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) > 10 and all(len(row) == 5 for row in rows)
        # the checker's own strings, unaltered: an infinite floor is an empty cell
        assert ["mixture-gap", "lower bound L from y", "5/3 exact", "5/3 exact", "True"] in rows
        assert ["mutual-top-pairs", "limit: deterministic floor over all 15 matchings", "", "", "True"] in rows

    @pytest.mark.parametrize("argv", [["fixtures"], ["fixtures", "--format", "csv"],
                                      ["fixtures", "--name", "mixture-gap"]])
    def test_no_python_reprs(self, argv, capsys):
        assert main(argv) == 0
        assert "Fraction(" not in capsys.readouterr().out


class TestVerifyMetric:
    def test_metric_instance_passes(self, inst_path, capsys):
        assert main(["verify-metric", "--instance", inst_path]) == 0
        assert json.loads(capsys.readouterr().out)["metric"] is True

    def test_non_metric_instance_fails(self, nonmetric_path, capsys):
        assert main(["verify-metric", "--instance", nonmetric_path]) == 1
        assert json.loads(capsys.readouterr().out)["metric"] is False

    def test_tolerance_rescues(self, nonmetric_path):
        assert main(["verify-metric", "--instance", nonmetric_path, "--tol", "3.0"]) == 0

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
    def test_non_finite_tol_exits_one(self, inst_path, tol, capsys):
        assert main(["verify-metric", "--instance", inst_path, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["verify-metric", "--instance", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_csv_quotes_a_comma_in_the_instance_path(self, tmp_path, capsys):
        path = tmp_path / "c,d" / "i.json"
        path.parent.mkdir()
        save_instance(generate(GeneratorSpec("euclidean-uniform", 5, seed=0)), str(path))
        assert main(["verify-metric", "--instance", str(path), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["instance", "metric"], [str(path), "True"]]


W3 = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]

# instance documents whose fields have the wrong JSON type
MALFORMED_DOCUMENTS = {
    "top-level-number": 5,
    "top-level-null": None,
    "weights-object": {"weights": {"a": 1}},
    "meta-number": {"weights": W3, "meta": 3},
    "meta-list": {"weights": W3, "meta": [1]},
    "n-list": {"weights": W3, "n": [2]},
    "n-null": {"weights": W3, "n": None},
    "points-object": {"weights": W3, "points": {"a": 1}},
    # loaded as n=3, metric=True and weights of 1.0 before JSON types were checked
    "n-float": {"weights": W3, "n": 3.0},
    "n-numeric-string": {"weights": W3, "n": "3"},
    "metric-string": {"weights": W3, "metric": "false"},
    "weights-numeric-strings": {"weights": [[0, "1"], ["1", 0]]},
}


@pytest.mark.parametrize("doc", list(MALFORMED_DOCUMENTS))
@pytest.mark.parametrize(
    "verb", [["prefs"], ["solve", "--problem", "mwm"], ["oracle", "--problem", "mwm"],
             ["verify-metric"]], ids=lambda verb: verb[0],
)
def test_malformed_instance_exits_one(verb, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED_DOCUMENTS[doc]))
    assert main([*verb, "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")



@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
@pytest.mark.parametrize(
    "argv",
    [["prefs", "--instance", "{bad}"],
     ["solve", "--instance", "{inst}", "--problem", "mkm", "--k", "99"],
     ["gen", "--n", "1"]],
    ids=lambda argv: argv[0],
)
def test_a_rejected_input_never_writes_out(argv, existing, inst_path, tmp_path, capsys):
    """Every check runs before --out is opened: no file is created, and one already there
    keeps its bytes."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weights": [[0, 1], [2, 0]]}))  # asymmetric
    out = tmp_path / "out.json"
    if existing:
        out.write_bytes(b"kept\n")
    argv = [a.format(bad=bad, inst=inst_path) for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    if existing:
        assert out.read_bytes() == b"kept\n"
    else:
        assert not out.exists()

VERB_ARGV = {
    "gen": ["gen", "--n", "5", "--seed", "1"],
    "prefs": ["prefs", "--instance", "{inst}"],
    "solve": ["solve", "--instance", "{inst}", "--problem", "tsp", "--algorithm", "hybrid"],
    "oracle": ["oracle", "--instance", "{inst}", "--problem", "ksum", "--k", "2"],
    "bench": ["bench", "--problem", "mwm", "--algorithm", "random", "--n", "6",
              "--trials", "2", "--inner-samples", "20"],
    "fixtures": ["fixtures"],
    "verify-metric": ["verify-metric", "--instance", "{inst}"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("verb", list(VERB_ARGV))
def test_every_verb_writes_one_strict_output(verb, fmt, inst_path, tmp_path, capsys):
    """stdout is strict JSON, or a CSV header and rows of its width; --out gets the same bytes."""
    argv = [arg.replace("{inst}", inst_path) for arg in VERB_ARGV[verb]] + ["--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        json.loads(out, parse_constant=reject)
    else:
        header, *rows = out.rstrip("\n").split("\n")
        assert rows
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("verb", list(VERB_ARGV))
def test_every_verb_writes_json_on_one_line(verb, inst_path, tmp_path, capsys):
    """JSON output is compact: one line, then a newline."""
    argv = [arg.replace("{inst}", inst_path) for arg in VERB_ARGV[verb]]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and "\n" not in out[:-1]
    json.loads(out)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_gen_out_round_trips_bit_exactly(family, tmp_path):
    path = tmp_path / "inst.json"
    assert main(["gen", "--family", family, "--n", "50", "--seed", "6", "--out", str(path)]) == 0
    assert path.read_text().count("\n") == 1
    inst, back = generate(GeneratorSpec(family, 50, seed=6)), load_instance(str(path))
    assert back.weights.tobytes() == inst.weights.tobytes()
    if inst.points is None:
        assert back.points is None
    else:
        assert back.points.tobytes() == inst.points.tobytes()


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_save_instance_writes_the_bytes_of_gen_out(family, tmp_path):
    saved, written = tmp_path / "saved.json", tmp_path / "gen.json"
    save_instance(generate(GeneratorSpec(family, 7, seed=2)), str(saved))
    assert main(["gen", "--family", family, "--n", "7", "--seed", "2", "--out", str(written)]) == 0
    assert saved.read_bytes() == written.read_bytes()


def _json_reference(obj) -> bytes:
    return (json.dumps(obj.to_dict(), allow_nan=False) + "\n").encode("utf-8")


def _csv_reference(header: str, rows) -> bytes:
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("n", [2, 3, 7, 50])
@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_gen_and_prefs_write_the_bytes_of_json_dumps_and_csv_writer(family, n, tmp_path):
    """Each distinct cell is formatted once, yet every table reads as the encoders wrote it."""
    path = tmp_path / "inst.json"
    argv = ["gen", "--family", family, "--n", str(n), "--seed", str(n)]
    assert main([*argv, "--out", str(path)]) == 0
    assert main([*argv, "--format", "csv", "--out", str(tmp_path / "inst.csv")]) == 0
    inst = generate(GeneratorSpec(family, n, seed=n))
    assert path.read_bytes() == _json_reference(inst)
    header = ",".join(f"w{j}" for j in range(n))
    assert (tmp_path / "inst.csv").read_bytes() == _csv_reference(header, inst.to_dict()["weights"])

    prefs = ["prefs", "--instance", str(path), "--out"]
    assert main([*prefs, str(tmp_path / "prefs.json")]) == 0
    assert main([*prefs, str(tmp_path / "prefs.csv"), "--format", "csv"]) == 0
    profile = derive_preferences(inst)
    assert (tmp_path / "prefs.json").read_bytes() == _json_reference(profile)
    header = ",".join(f"r{j}" for j in range(n - 1))
    expected = _csv_reference(header, profile.to_dict()["ranking"])
    assert (tmp_path / "prefs.csv").read_bytes() == expected


def test_save_instance_without_points_or_meta_writes_the_bytes_of_json_dumps(tmp_path):
    path = tmp_path / "inst.json"
    inst = WeightedInstance([[0, 0.1, 2], [0.1, 0, 1e-300], [2, 1e-300, 0]])
    assert inst.points is None and not inst.meta
    save_instance(inst, str(path))
    assert path.read_bytes() == _json_reference(inst)


class TestParser:
    def test_unknown_verb_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["prefs"])
        assert exc.value.code == 2
