"""One weight gather per objective.

Each ``*_values`` gather is checked against the plain value loop in
``_brute`` within 1e-12, and each scalar ``*_weight`` must equal one row
of its gather bit for bit, so the oracle's value of a solution (the
scalar) and an engine's value of the same solution (the gather) agree
exactly: a greedy that finds the optimum reads ratio 1.0.
"""

import _brute
import numpy as np
import pytest

from ordmatch import (
    Clustering,
    GeneratorSpec,
    Matching,
    Path,
    Subset,
    Tour,
    TrialConfig,
    WeightedInstance,
    cluster_weight,
    derive_preferences,
    generate,
    matching_weight,
    matchings_to_clusters,
    matchings_to_subsets,
    matchings_to_tours,
    path_weight,
    random_k_matchings,
    run_trials,
    subset_weight,
    tour_weight,
)
from ordmatch.core import matching_values
from ordmatch.harness import PROBLEMS, _sample, optimum, solve
from ordmatch.reductions import cluster_values, path_values, subset_values, tour_values

N = 12
ROWS = 64


def weights(kind: str, seed: int) -> np.ndarray:
    """A symmetric zero-diagonal matrix: uniform floats, or a few repeated values."""
    rng = np.random.default_rng(seed)
    raw = rng.random((N, N)) if kind == "random" else rng.choice([0.1, 0.3, 0.7], (N, N))
    w = np.triu(raw, 1)
    return w + w.T


def batches(seed: int) -> dict:
    """Random rows of every solution shape, in no particular order within a row."""
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(N), (ROWS, 1)), axis=1)
    return {
        "matching": random_k_matchings(range(N), 5, ROWS, rng),
        "clustering": perms.reshape(ROWS, 3, 4),
        "subset": perms[:, :7],
        "path": perms[:, :9],
        "tour": perms,
    }


GATHERS = {
    "matching": (matching_values, _brute.matching_value),
    "clustering": (cluster_values, _brute.partition_value),
    "subset": (subset_values, _brute.subset_value),
    "path": (path_values, _brute.path_value),
    "tour": (tour_values, _brute.tour_value),
}


@pytest.mark.parametrize("kind", ["random", "tie-heavy"])
@pytest.mark.parametrize("shape", list(GATHERS))
def test_gather_matches_the_plain_loop(shape, kind):
    gather, loop = GATHERS[shape]
    for seed in range(3):
        w = weights(kind, seed)
        rows = batches(seed)[shape]
        got = gather(rows, w)
        assert got.shape == (ROWS,)
        for row, value in zip(rows.tolist(), got):
            assert value == pytest.approx(loop(w.tolist(), row), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["random", "tie-heavy"])
def test_scalar_is_one_row_of_its_gather_bit_for_bit(kind):
    for seed in range(3):
        inst = WeightedInstance(weights(kind, seed))
        w, b = inst.weights, batches(seed)
        # drawn rows, edges in the order they were drawn
        for row, value in zip(b["matching"].tolist(), matching_values(b["matching"], w)):
            assert matching_weight(Matching.from_pairs(N, row), inst) == value
        clusterings = [Clustering(N, parts) for parts in b["clustering"].tolist()]
        rows = np.array([c.parts for c in clusterings])
        for c, value in zip(clusterings, cluster_values(rows, w)):
            assert cluster_weight(c, inst) == value
        subsets = [Subset(N, nodes) for nodes in b["subset"].tolist()]
        for s, value in zip(subsets, subset_values(np.array([s.nodes for s in subsets]), w)):
            assert subset_weight(s, inst) == value
        for order, value in zip(b["path"].tolist(), path_values(b["path"], w)):
            assert path_weight(Path(N, order), inst) == value
        for order, value in zip(b["tour"].tolist(), tour_values(b["tour"], w)):
            assert tour_weight(Tour(N, order), inst) == value


def test_empty_solutions_weigh_zero():
    inst = WeightedInstance(weights("random", 0))
    assert matching_weight(Matching(N, ()), inst) == 0.0
    assert subset_weight(Subset(N, ()), inst) == 0.0
    assert path_weight(Path(N, (3,)), inst) == 0.0
    assert cluster_weight(Clustering(N, tuple((x,) for x in range(N))), inst) == 0.0


def test_reduced_solutions_weigh_as_their_rows():
    """The engine's clusters, subsets and tours are stored as the objects hold them."""
    inst = generate(GeneratorSpec("euclidean-uniform", N, seed=4))
    profile, w, gen = derive_preferences(inst), inst.weights, np.random.default_rng(4)
    perfect = random_k_matchings(range(N), N // 2, ROWS, gen)
    for k in (2, 3, 4):
        odd = (N // k) % 2
        batch = random_k_matchings(range(N), (N - k) // 2, ROWS, gen) if odd else perfect
        parts = matchings_to_clusters(batch, N, k)
        for row, value in zip(parts.tolist(), cluster_values(parts, w)):
            assert cluster_weight(Clustering(N, row), inst) == value
    nodes = matchings_to_subsets(perfect[:, :4])
    for row, value in zip(nodes.tolist(), subset_values(nodes, w)):
        assert subset_weight(Subset(N, row), inst) == value
    tours = matchings_to_tours(perfect, profile, gen)
    for row, value in zip(tours.tolist(), tour_values(tours, w)):
        assert tour_weight(Tour(N, row), inst) == value


@pytest.mark.parametrize("engine", ["random", "hybrid"])
def test_drawn_matchings_weigh_as_their_rows(engine):
    """Drawn mwm rows are stored in the order ``Matching`` weighs its edges."""
    n = 16
    for seed in range(20):
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=seed))
        gen = np.random.default_rng(seed)
        rows = _sample(PROBLEMS["mwm"], engine, derive_preferences(inst), None, ROWS, gen)
        for row, value in zip(rows.tolist(), matching_values(rows, inst.weights)):
            assert matching_weight(Matching.from_pairs(n, row), inst) == value
        payload = solve("mwm", engine, inst, None, seed)
        assert payload["value"] == matching_weight(Matching.from_dict(payload), inst)


# The deterministic greedy rows; tsp's greedy draws a random tour start, so
# its record is a mean over draws rather than one solution.
GREEDY_ROWS = [("mwm", None, 8), ("mkm", 2, 8), ("ksum", 2, 8), ("ksum", 3, 9),
               ("densest", 4, 8)]


@pytest.mark.parametrize("problem,k,n", GREEDY_ROWS)
def test_greedy_that_finds_the_optimum_reads_ratio_one(problem, k, n):
    seeds = 100
    report = run_trials(TrialConfig(problem, "greedy", n, k=k, trials=seeds))
    found = 0
    for record in report["records"]:
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=record["seed"]))
        alg = solve(problem, "greedy", inst, k, record["seed"])
        opt = optimum(problem, inst, k)
        if {**alg, "value": None} == {**opt, "value": None}:
            found += 1
            assert alg["value"] == opt["value"] == record["opt"] == record["alg"]
            assert record["ratio"] == 1.0
    assert found > 0
