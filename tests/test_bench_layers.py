"""Smoke test of ``bench/layers.py``: every probe of the four modes runs once, and the
paired perfbench runs are summed up from a stand-in ``perfbench``; the pair plan, the
``BENCHMARK.json`` facts it reads, and a perfbench run or probe through a stand-in
``subprocess.run``.

The script is loaded by path. Its size tables are shrunk, and each mode's
section is built in-process, the probes called directly instead of in a
fresh process per checkout, so both sides run this tree's ``ordmatch``.
"""

import json
import subprocess

import ordmatch
import ordmatch.cli
import pytest
from _scripts import ROOT, load

BENCHMARK = ROOT / "BENCHMARK.json"
SMALL = {
    "SIZES": [12, 16], "METRIC_MAX_N": 12, "REPEATS": 1,
    "ORACLE_CALLS": [("mwm", "euclidean-uniform", 6, None), ("mkm", "euclidean-uniform", 6, 2),
                     ("densest", "random-metric-closure", 6, 3),
                     ("tsp", "clustered-gaussian", 5, None), ("ksum", "euclidean-uniform", 6, 2)],
    "ORACLE_REPEATS": 1, "ORACLE_ROUNDS": 1,
    "IO_SIZES": [8], "IO_GENERATE_N": 8,
    "RANK_CALLS": [("n=6", 6, False), ("n=6 all 0/1", 6, True)], "RANK_SECONDS": 0.0,
    "RANK_ROUNDS": 1,
    "DRAW_CONFIGS": [("mwm", "hybrid", "euclidean-uniform", 6, None),
                     ("tsp", "hybrid", "clustered-gaussian", 5, None),
                     ("ksum", "hybrid", "random-metric-closure", 8, 2),
                     ("densest", "random", "euclidean-uniform", 6, 4)],
    "DRAWS": 3, "DRAW_MATCHINGS": [("mwm", 6, None), ("mkm", 6, 2)], "DRAW_REPEATS": 1,
    "DRAW_ROUNDS": 1,
}


def load_layers():
    return load("bench/layers.py")


def test_every_probe_of_every_mode(monkeypatch):
    layers = load_layers()
    for name, value in SMALL.items():
        monkeypatch.setattr(layers, name, value)
    called = set()

    def in_process(tree, probe, *args):
        called.add(probe)
        return json.loads(json.dumps(layers.PROBES[probe](ordmatch, *map(str, args))))

    monkeypatch.setattr(layers, "_child", in_process)
    trees = {"parent": "unused", "change": "unused"}
    out = {section: mode.probes(trees) for section, mode in layers.MODES.items()}
    assert called == set(layers.PROBES)

    lay = out["layers"]
    assert set(lay) == {"unit", "repeats", "instance", "parent", "change"}
    timed = {"generate", "derive_preferences", "greedy_k_matching n/2", "hybrid_matchings 1 draw",
             "matchings_to_tours", "profile_consistent", "peak_rss_mb"}
    for side in ("parent", "change"):
        assert set(lay[side]) == {"12", "16"}
        assert set(lay[side]["12"]) == timed | {"validate_metric"}
        assert set(lay[side]["16"]) == timed

    orc = out["oracles"]
    assert set(orc) == {"unit", "instance seed", "parent", "change", "warm_change_over_parent",
                        "rounds"}
    calls = {"mwm n=6", "mkm n=6 k=2", "densest n=6 k=3", "tsp n=5", "ksum n=6 k=2"}
    assert set(orc["parent"]) == set(orc["change"]) == calls | {"peak_rss_mb"}
    assert set(orc["parent"]["mwm n=6"]) == {"cold", "warm"}
    assert set(orc["warm_change_over_parent"]) == calls
    assert len(orc["rounds"]["parent"]) == len(orc["rounds"]["change"]) == 1

    chain = out["io"]
    assert set(chain) == {"unit", "instance", "parent", "change", "equal_file_bytes",
                          "derive_preferences"}
    assert chain["equal_file_bytes"] is True
    steps = {"gen", "prefs", "solve mwm greedy", "solve tsp hybrid"}
    files = {"instance", "prefs", "mwm", "tsp"}
    for side in ("parent", "change"):
        assert set(chain[side]) == {"8", "generate n=8"}
        assert set(chain[side]["8"]) == steps | {"chain", "peak_rss_mb_after", "bytes", "sha256",
                                                 "peak_rss_mb", "load_instance alone",
                                                 "indented bytes",
                                                 "load_instance alone, indented", "step alone"}
        assert set(chain[side]["8"]["peak_rss_mb_after"]) == set(chain[side]["8"]["step alone"])
        assert set(chain[side]["8"]["step alone"]) == steps
        assert set(chain[side]["8"]["bytes"]) == set(chain[side]["8"]["sha256"]) == files
        assert chain[side]["8"]["indented bytes"] > chain[side]["8"]["bytes"]["instance"]
        for alone in (chain[side]["generate n=8"], chain[side]["8"]["load_instance alone"],
                      chain[side]["8"]["load_instance alone, indented"]):
            assert set(alone) == {"seconds", "peak_rss_mb"}
    rank = chain["derive_preferences"]
    assert set(rank) == {"unit", "rounds", "n=6", "n=6 all 0/1"}
    assert set(rank["n=6"]) == {"parent", "change", "change_over_parent"}

    draws = out["draws"]
    assert set(draws) == {"unit", "instance seed", "draws", "parent", "change",
                          "change_over_parent", "rounds"}
    calls = {"mwm/hybrid hybrid_matchings", "mwm/hybrid matching_values",
             "tsp/hybrid hybrid_matchings", "tsp/hybrid matchings_to_tours",
             "tsp/hybrid tour_values", "ksum/hybrid hybrid_matchings",
             "ksum/hybrid matchings_to_clusters", "ksum/hybrid cluster_values",
             "densest/random random_k_matchings", "densest/random matchings_to_subsets",
             "densest/random subset_values", "opt_matching mwm n=6", "opt_matching mkm n=6 k=2"}
    assert set(draws["parent"]) == set(draws["change"]) == calls | {"peak_rss_mb"}
    assert set(draws["change_over_parent"]) == calls
    assert all(t > 0 for t in draws["change"].values())


def test_draw_configs_are_desk_mcs():
    """``DRAW_CONFIGS`` holds the problem, engine, family, n and k of each desk-mc config of
    ``perfbench/workloads.py`` (loaded by path and only read), in order, at its draws."""
    layers, workloads = load_layers(), load("perfbench/workloads.py")
    desk = []
    for argv, draws in workloads.DESK["desk-mc"].values():
        flags = dict(zip(argv[1::2], argv[2::2]))
        assert int(flags["--inner-samples"]) == draws == layers.DRAWS
        k = flags.get("--k")
        desk.append((flags["--problem"], flags["--algorithm"], flags["--family"],
                     int(flags["--n"]), None if k is None else int(k)))
    assert desk == layers.DRAW_CONFIGS


def test_indent_writes_the_older_layout(tmp_path):
    """The ``indent`` probe writes, a row at a time, the bytes of json.dumps(indent=2)."""
    for family in ordmatch.GENERATOR_FAMILIES:
        inst = ordmatch.generate(ordmatch.GeneratorSpec(family, 7, seed=2))
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        ordmatch.save_instance(inst, str(compact))
        load_layers().indent(ordmatch, str(compact), str(indented))
        assert indented.read_text() == json.dumps(inst.to_dict(), indent=2) + "\n"


def test_probe_entry_prints_one_json_line(capsys):
    assert load_layers().main(["--probe", "generate", "10"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"seconds", "peak_rss_mb"}


def test_paired_runs_reports_raw_times_beside_the_scaled_ones(monkeypatch):
    """Each metric's ``raw`` entry holds the unscaled values, with their own medians, quartiles
    and wins; ``kernel_s`` sums up each side's calibrate seconds over every round of its runs."""
    layers = load_layers()
    seen = []
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]]

    def fake(tree, workload, seed, trace):
        i = len(seen)
        seen.append((tree, workload, seed, trace))
        scaled = {name: 1.0 + i for name in names}
        raw = {name: 10.0 - i for name in names}
        return {"correct": True, "attempted": 4, "failed": i % 2, "metrics": scaled,
                "raw_metrics": raw, "kernel_s": [[0.01 * (i + 1)], [0.02 * (i + 1)]]}

    monkeypatch.setattr(layers, "perfbench", fake)
    out = layers.paired_runs({"parent": "P", "change": "C"}, "large-n", 5, 4)
    # pairs alternate which side goes first: P C, C P, P C, C P
    assert [tree for tree, *_ in seen] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert {tuple(rest) for _, *rest in seen} == {("large-n", 5, 0)}
    # call index per side: parent 0, 3, 4, 7 and change 1, 2, 5, 6
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [1.0, 4.0, 5.0, 8.0]
    assert wall["change"]["runs"] == [2.0, 3.0, 6.0, 7.0]
    assert wall["change_wins_pairs"] == 2
    raw = wall["raw"]
    assert raw["parent"]["runs"] == [10.0, 7.0, 6.0, 3.0]
    assert raw["change"]["runs"] == [9.0, 8.0, 5.0, 4.0]
    assert (raw["parent"]["median"], raw["parent"]["q1"], raw["parent"]["q3"]) == (6.5, 5.25, 7.75)
    assert raw["change"]["median"] == 6.5 and raw["change_over_parent_median"] == 1.0
    assert raw["change_wins_pairs"] == 2  # 9 < 10 and 5 < 6 win, 8 < 7 and 4 < 3 lose
    draws = out["metrics"]["draws_per_s"]["raw"]
    assert draws["better"] == "higher" and draws["change_wins_pairs"] == 2
    # parent 0.01, 0.02, 0.04, 0.08, 0.05, 0.10, 0.08, 0.16; change 0.02, 0.04, 0.03, 0.06, ...
    assert set(out["kernel_s"]["parent"]) == {"count", "median", "q1", "q3"}
    assert out["kernel_s"]["parent"]["count"] == out["kernel_s"]["change"]["count"] == 8
    assert out["kernel_s"]["parent"]["median"] == pytest.approx(0.065)
    assert out["kernel_s"]["change"]["median"] == pytest.approx(0.06)
    assert out["ops_failed"] == {"parent": 2, "change": 2} and out["all_correct"] is True


def test_benchmark_json_names_perfbench_metrics_and_workloads():
    """The script takes the end-to-end metrics and the workloads from ``BENCHMARK.json``: they
    are the keys of perfbench's ``END_TO_END`` and its ``WORKLOADS``, in order. Both perfbench
    files are loaded by path and only read."""
    declared = json.loads(BENCHMARK.read_text())
    run, workloads = load("perfbench/run.py"), load("perfbench/workloads.py")
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert tuple(w["name"] for w in declared["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("mode, pairs", [
    ("layers", ["large-n:0:10", "large-n:5:10", "desk-mc:0:10", "desk-oracle:0:10"]),
    ("oracles", ["desk-oracle:0:10", "desk-oracle:5:10", "desk-mc:0:10", "large-n:0:10"]),
    ("io", ["large-n:0:10", "large-n:5:10", "desk-mc:0:10", "desk-oracle:0:10"]),
    ("draws", ["desk-mc:0:10", "desk-mc:5:10", "desk-oracle:0:10", "large-n:0:10"]),
])
def test_pair_plan_of_each_mode(mode, pairs):
    """The traced workload on seeds 0 and 5, then every other workload on seed 0, ten pairs
    each: the lists each mode held before the plan was derived."""
    layers = load_layers()
    plan = layers.pair_plan(layers.MODES[mode].traced)
    assert [f"{workload}:{seed}:{n}" for workload, seed, n in plan] == pairs


def test_perfbench_takes_the_stamp_and_raw_metrics_from_the_result_file(monkeypatch, tmp_path):
    layers = load_layers()
    (tmp_path / ".perfbench_out").mkdir()
    (tmp_path / ".perfbench_out" / "result-desk-mc-seed5-trace0.json").write_text(json.dumps(
        {"environment": {"git_commit": "abc"}, "raw_metrics": {"wall_s": {"value": 2.0}},
         "rounds": [{"kernel_s": [0.007, 0.008]}]}))
    line = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}
    seen = []

    def ran(cmd, **kwargs):
        seen.append((cmd, kwargs))
        return subprocess.CompletedProcess(cmd, 0, stdout=f"report\n{json.dumps(line)}\n",
                                           stderr="")

    monkeypatch.setattr(layers.subprocess, "run", ran)
    assert layers.perfbench(str(tmp_path), "desk-mc", 5, 0) == {
        "correct": True, "attempted": 3, "failed": 0, "environment": {"git_commit": "abc"},
        "metrics": {"wall_s": 1.0}, "raw_metrics": {"wall_s": 2.0}, "kernel_s": [[0.007, 0.008]]}
    [(cmd, kwargs)] = seen
    assert cmd[cmd.index("--seconds") + 1] == str(json.loads(BENCHMARK.read_text())["run_seconds"])
    assert kwargs["cwd"] == str(tmp_path) and "PYTHONPATH" not in kwargs["env"]


def test_paired_runs_keeps_each_runs_setup_probes(monkeypatch, tmp_path):
    """``perfbench`` passes on the set-up probes of the result file, and ``paired_runs`` keeps
    every run's probes under ``setup_s`` beside the summary of their medians."""
    layers = load_layers()
    for side, probes in (("P", [0.3, 0.1, 0.2]), ("C", [0.4, 0.6, 0.5])):
        (tmp_path / side / ".perfbench_out").mkdir(parents=True)
        (tmp_path / side / ".perfbench_out" / "result-desk-mc-seed0-trace0.json").write_text(
            json.dumps({"environment": {}, "setup_probes_s": probes,
                        "rounds": [{"kernel_s": [0.01, 0.02]}],
                        "raw_metrics": {"setup_s": {"value": sorted(probes)[1]}}}))

    def ran(cmd, **kwargs):
        line = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"setup_s": {"value": 1.0}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(line), stderr="")

    monkeypatch.setattr(layers.subprocess, "run", ran)
    monkeypatch.setattr(layers, "benchmark", lambda: {
        "run_seconds": 1, "end_to_end": [{"name": "setup_s", "better": "lower"}]})
    trees = {"parent": str(tmp_path / "P"), "change": str(tmp_path / "C")}
    setup = layers.paired_runs(trees, "desk-mc", 0, 2)["metrics"]["setup_s"]
    assert setup["probes"] == {"parent": [[0.3, 0.1, 0.2]] * 2, "change": [[0.4, 0.6, 0.5]] * 2}
    assert setup["raw"]["parent"]["runs"] == [0.2, 0.2]
    assert setup["raw"]["change"]["runs"] == [0.5, 0.5]


@pytest.mark.parametrize("call, command", [
    (lambda layers: layers.perfbench("/nowhere", "large-n", 0, 0),
     "/nowhere/perfbench/run.py --workload large-n --seed 0"),
    (lambda layers: layers._child("/nowhere", "generate", 10), "layers.py --probe generate 10"),
])
def test_a_failed_run_names_its_command_exit_code_and_stderr(monkeypatch, call, command):
    """A perfbench run or a probe that fails raises a RuntimeError with the command, the exit
    code and the tail of its stderr, not an IndexError or a CalledProcessError without it."""
    layers = load_layers()
    stderr = "x" * 3000 + "\nModuleNotFoundError: No module named 'ordmatch'\n"

    def failed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr=stderr)

    monkeypatch.setattr(layers.subprocess, "run", failed)
    with pytest.raises(RuntimeError) as raised:
        call(layers)
    message = str(raised.value)
    assert command in message and " exited 1: " in message
    assert message.endswith(stderr[-2000:]) and "x" * 2000 not in message


@pytest.mark.parametrize("status, expected", [("", {"head": "abc123", "clean": True}),
                                              (" M src/ordmatch/oracle.py\n",
                                               {"head": "abc123", "clean": False})])
def test_checkout_names_the_commit_a_tree_holds(monkeypatch, tmp_path, status, expected):
    """A checkout's HEAD and whether ``git status`` lists a changed tracked file; a tree inside
    another checkout and a tree in none (git exits 128) are no checkout: both fields null."""
    layers = load_layers()
    top, seen = str(tmp_path), []

    def ran(cmd, **kwargs):
        seen.append(cmd)
        if "rev-parse" in cmd:
            return f"{top}\nabc123\n"
        return status

    monkeypatch.setattr(layers, "_run", ran)
    assert layers.checkout(str(tmp_path)) == expected
    assert seen == [["git", "-C", str(tmp_path), "rev-parse", "--show-toplevel", "HEAD"],
                    ["git", "-C", str(tmp_path), "status", "--porcelain", "--untracked-files=no"]]
    (tmp_path / "sub").mkdir()
    assert layers.checkout(str(tmp_path / "sub")) == {"head": None, "clean": None}

    def failed(cmd, **kwargs):
        raise RuntimeError(f"{' '.join(cmd)} exited 128: fatal: not a git repository")

    monkeypatch.setattr(layers, "_run", failed)
    assert layers.checkout(str(tmp_path)) == {"head": None, "clean": None}
