"""Smoke test of ``bench/layers.py``: every probe of the three modes runs once, and the
paired perfbench runs are summed up from a stand-in ``perfbench``.

The script is loaded by path. Its size tables are shrunk, and each mode's
section is built in-process, the probes called directly instead of in a
fresh process per checkout, so both sides run this tree's ``ordmatch``.
"""

import importlib.util
import json
from pathlib import Path

import ordmatch
import ordmatch.cli
import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
SMALL = {
    "SIZES": [12, 16], "METRIC_MAX_N": 12, "REPEATS": 1,
    "ORACLE_CALLS": [("mwm", "euclidean-uniform", 6, None), ("mkm", "euclidean-uniform", 6, 2),
                     ("densest", "random-metric-closure", 6, 3),
                     ("tsp", "clustered-gaussian", 5, None), ("ksum", "euclidean-uniform", 6, 2)],
    "ORACLE_REPEATS": 1, "ORACLE_ROUNDS": 1,
    "IO_SIZES": [8], "IO_REPEATS": 1, "IO_GENERATE_N": 8,
    "RANK_CALLS": [("n=6", 6, False), ("n=6 all 0/1", 6, True)], "RANK_SECONDS": 0.0,
    "RANK_ROUNDS": 1,
}


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


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
                        "rounds", "matching_states", "held_karp_triples", "ksum_candidates"}
    calls = {"mwm n=6", "mkm n=6 k=2", "densest n=6 k=3", "tsp n=5", "ksum n=6 k=2"}
    assert set(orc["parent"]) == set(orc["change"]) == calls | {"peak_rss_mb"}
    assert set(orc["parent"]["mwm n=6"]) == {"cold", "warm"}
    assert set(orc["warm_change_over_parent"]) == calls
    assert len(orc["rounds"]["parent"]) == len(orc["rounds"]["change"]) == 1
    assert set(orc["matching_states"]) == {"mwm n=6", "mkm n=6 k=2"}
    assert set(orc["matching_states"]["mkm n=6 k=2"]) == {
        "dp_states", "reachable_sets_filled", "reachable_add_max", "all_sets_add_max"}
    # n=5: m=4 free nodes, 16 * 14 dense candidates against 4 * 3 * 4 feasible triples
    assert orc["held_karp_triples"] == {"tsp n=5": {"dense_candidates": 224,
                                                    "feasible_triples": 48}}
    # n=6 k=2: 10 partitions against 10 first parts of node 0 and their 10 complements
    assert orc["ksum_candidates"] == {"ksum n=6 k=2": {"enumerated_partitions": 10,
                                                       "dp_candidates": 20}}

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
    and wins; ``kernel_s`` holds each side's calibrate seconds over every round of its runs."""
    layers = load_layers()
    seen = []

    def fake(tree, workload, seed, trace):
        i = len(seen)
        seen.append((tree, workload, seed, trace))
        scaled = {name: 1.0 + i for name in layers.END_TO_END}
        raw = {name: 10.0 - i for name in layers.END_TO_END}
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
    assert out["kernel_s"]["parent"]["runs"] == pytest.approx([0.01, 0.02, 0.04, 0.08, 0.05,
                                                               0.10, 0.08, 0.16])
    assert out["kernel_s"]["change"]["median"] == pytest.approx(0.06)
    assert out["ops_failed"] == {"parent": 2, "change": 2} and out["all_correct"] is True
