"""Acceptance gate: ten desk-scale verifications of the library's guarantees,
plus k-sum sweeps at n = 12 and 16.

Each test prints one PASS/FAIL line (written to the unbuffered real
stdout so it survives pytest capture) and then asserts. Trial counts and
tolerances are pinned; loosening either is not an option when a test
goes red.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from _chi2 import chi_square_p
from _records import all_fixtures, build_fixture_mutual_top_pairs

from ordmatch import (
    GeneratorSpec,
    RandomSource,
    Tour,
    WeightedInstance,
    check_friendship,
    check_record,
    derive_preferences,
    expected_random_weight,
    generate,
    greedy_k_matching,
    greedy_ratio_bound,
    hybrid_bound,
    hybrid_matching,
    hybrid_matchings,
    matching_to_tour,
    matching_weight,
    matchings_to_tours,
    opt_matching,
    path_completion,
    path_weight,
    random_k_matching,
    random_k_matchings,
    run_trials,
    tour_weight,
    validate_metric,
)

RATIO_TOL = 1e-9
FAMILIES = ("euclidean-uniform", "random-metric-closure", "clustered-gaussian")


@pytest.fixture()
def verdict(capfd):
    """One pass/fail line per criterion, printed past pytest's capture."""

    def _report(criterion: str, ok: bool, detail: str) -> None:
        line = f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return _report


def metric_instance(i: int, n: int) -> "WeightedInstance":
    return generate(GeneratorSpec(FAMILIES[i % 3], n, seed=1000 + i))


def test_c01_greedy_two_approximation(verdict):
    start = time.monotonic()
    worst = 0.0
    trials = 500
    for i in range(trials):
        n = 4 + i % 9
        inst = metric_instance(i, n)
        prof = derive_preferences(inst)
        alg = matching_weight(greedy_k_matching(prof, n // 2), inst)
        opt = matching_weight(opt_matching(inst, n // 2), inst)
        worst = max(worst, opt / alg)
    elapsed = time.monotonic() - start
    ok = worst <= 2.0 + RATIO_TOL and elapsed <= 60.0
    verdict(
        "C1 greedy-2-approximation",
        ok,
        f"{trials} metric instances n in 4..12, max ratio {worst:.6f} <= 2, {elapsed:.1f}s",
    )


def test_c02_greedy_prefix_bound(verdict):
    trials = 200
    worst_slack = -math.inf
    pairs = 0
    for i in range(trials):
        n = 4 + i % 9
        inst = metric_instance(7000 + i, n)
        prof = derive_preferences(inst)
        greedy_vals = {
            k: matching_weight(greedy_k_matching(prof, k), inst) for k in range(1, n // 2 + 1)
        }
        opt_vals = {
            ks: matching_weight(opt_matching(inst, ks), inst) for ks in range(1, n // 2 + 1)
        }
        for k, gval in greedy_vals.items():
            for ks, oval in opt_vals.items():
                bound = greedy_ratio_bound(2 * k / n, 2 * ks / n)
                worst_slack = max(worst_slack, oval / gval - bound)
                pairs += 1
    ok = worst_slack <= RATIO_TOL
    verdict(
        "C2 greedy-prefix-bound",
        ok,
        f"{trials} instances, {pairs} (k,k*) pairs, max ratio-minus-bound {worst_slack:.2e}",
    )


def batch_weights(draws: np.ndarray, inst: "WeightedInstance") -> np.ndarray:
    return inst.weights[draws[..., 0], draws[..., 1]].sum(axis=1)


def edge_counts(draws: np.ndarray, n: int) -> np.ndarray:
    """Occurrences of every edge seen at least once across the draws."""
    edges = np.sort(draws, axis=2)
    return np.unique(edges[..., 0] * n + edges[..., 1], return_counts=True)[1]


def test_c03_random_matching_expectation(verdict):
    runs = 100_000
    details = []
    ok = True

    # complete graphs, even and odd
    for n, seed in ((8, 11), (9, 12)):
        inst = generate(GeneratorSpec("euclidean-uniform", n, seed=seed))
        target = expected_random_weight(inst)
        draws = random_k_matchings(
            range(n), n // 2, runs,
            np.random.default_rng(RandomSource.derived_seed(3, n)),
        )
        vals = batch_weights(draws, inst)
        counts = edge_counts(draws, n)
        mean = float(vals.mean())
        sigma = float(vals.std()) / math.sqrt(runs)
        gap = abs(mean - target)
        p = chi_square_p(counts)
        edges_total = n * (n - 1) // 2
        ok = ok and gap <= 3.0 * sigma and len(counts) == edges_total and p > 0.001
        details.append(f"K{n}: |{mean:.5f}-{target:.5f}|<=3x{sigma:.5f}, chi2 p={p:.3f}")

    # bipartite, equal sides of 5
    inst = generate(GeneratorSpec("euclidean-uniform", 10, seed=13))
    side_a, side_b = list(range(5)), list(range(5, 10))
    target = expected_random_weight(inst, sides=(side_a, side_b))
    draws = random_k_matchings(
        side_a, 5, runs, np.random.default_rng(RandomSource.derived_seed(4)), other=side_b
    )
    vals = batch_weights(draws, inst)
    counts = edge_counts(draws, 10)
    mean = float(vals.mean())
    sigma = float(vals.std()) / math.sqrt(runs)
    p = chi_square_p(counts)
    ok = ok and abs(mean - target) <= 3.0 * sigma and len(counts) == 25 and p > 0.001
    details.append(f"K5,5: |{mean:.5f}-{target:.5f}|<=3x{sigma:.5f}, chi2 p={p:.3f}")

    verdict("C3 random-matching-expectation", ok, f"{runs} draws each; " + "; ".join(details))


def test_c04_hybrid_sixteen_tenths(verdict):
    start = time.monotonic()
    inner = 10_000
    worst_excess = -math.inf
    anchored_ok = True
    instances = 0
    for n in (6, 12):
        for i in range(25):
            inst = metric_instance(2000 + i, n)
            prof = derive_preferences(inst)
            opt = matching_weight(opt_matching(inst, n // 2), inst)
            m0 = greedy_k_matching(prof, math.ceil(n / 3))
            anchored_ok = anchored_ok and matching_weight(m0, inst) >= opt / 2.0 - RATIO_TOL
            gen = np.random.default_rng(RandomSource.derived_seed(5, n, i))
            vals = batch_weights(hybrid_matchings(prof, inner, gen), inst)
            mean = float(vals.mean())
            se = float(vals.std()) / math.sqrt(inner)
            se_ratio = opt * se / mean**2
            worst_excess = max(worst_excess, opt / mean - (1.6 + 3.0 * se_ratio))
            instances += 1
    elapsed = time.monotonic() - start
    ok = worst_excess <= RATIO_TOL and anchored_ok and elapsed <= 300.0
    verdict(
        "C4 hybrid-1.6-bound",
        ok,
        f"{instances} instances x {inner} draws, max mean-ratio excess {worst_excess:.2e}, "
        f"anchored-half-invariant {anchored_ok}, {elapsed:.1f}s",
    )


def test_c05_lower_bound_fixtures(verdict):
    fixtures = all_fixtures()
    ok = all(fx["passed"] for fx in fixtures)

    def actual(fx_name, check_name):
        fx = next(f for f in fixtures if f["name"] == fx_name)
        return next(c for c in fx["checks"] if c["name"] == check_name)["actual"]

    ok = ok and actual("randomization-floor", "deterministic floor over all 3 matchings") == "3/2"
    ok = ok and actual("randomization-floor", "x worst ratio") == "5/4"
    # y holds every mixture to 3/5 of the optimum: L = 5/3, met by x
    gap = actual("mixture-gap", "lower bound L from y")
    ok = ok and gap.endswith(" exact") and 1 / Fraction(gap.split()[0]) == Fraction(3, 5)
    ok = ok and actual("mutual-top-pairs", "limit: lower bound L from y") == "3 exact"
    # the non-metric guessing ratio grows like n as eps -> 0
    wide = check_record(build_fixture_mutual_top_pairs(5))
    ok = ok and wide["passed"]
    checks = sum(len(fx["checks"]) for fx in fixtures)
    verdict(
        "C5 lower-bound-fixtures",
        ok,
        f"{len(fixtures)} fixtures, {checks} exact checks, det floor 3/2, mixture 5/4, value 3/5",
    )


def test_c06_black_box_reduction_bounds(verdict):
    configs = [
        dict(problem="ksum", algorithm="greedy", n=8, k=2, trials=25, seed=30),
        dict(problem="ksum", algorithm="greedy", n=9, k=3, trials=25, seed=31),
        dict(problem="ksum", algorithm="hybrid", n=6, k=3, trials=10, inner_samples=1200, seed=32),
        dict(problem="densest", algorithm="greedy", n=12, k=6, trials=25, seed=33),
        dict(problem="densest", algorithm="random", n=10, k=4, trials=10, inner_samples=1200,
             seed=34),
        dict(problem="tsp", algorithm="greedy", n=8, trials=10, inner_samples=1200, seed=35),
        dict(problem="tsp", algorithm="hybrid", n=6, trials=8, inner_samples=1000, seed=36),
        dict(problem="tsp", algorithm="hybrid", n=12, trials=8, inner_samples=1000, seed=37),
    ]
    ok = True
    details = []
    for cfg in configs:
        rep = run_trials(**cfg)
        ok = ok and rep["verdict"]
        details.append(f"{cfg['problem']}/{cfg['algorithm']} n={cfg['n']} bound "
                       f"{rep['bound']:.4g} max {rep['max_ratio']:.4f}")
    verdict("C6 black-box-reduction-bounds", ok, "; ".join(details))


def test_c07_tour_completion_inequality(verdict):
    worst_run = -math.inf
    worst_mean = -math.inf
    runs = 0
    for i in range(40):
        n = 4 + i % 9
        inst = metric_instance(4000 + i, n)
        prof = derive_preferences(inst)
        matchings = [greedy_k_matching(prof, n // 2)]
        matchings.append(random_k_matching(n, n // 2, RandomSource(i)))
        for m in matchings:
            k = len(m)
            if k < 2:
                continue
            wm = matching_weight(m, inst)
            by_node = {x: e for e in m.edges for x in e}
            tour_vals = []
            extra = tuple(sorted(set(range(n)) - m.nodes()))
            for start_node in sorted(m.nodes()):
                p = path_completion(m, prof, RandomSource(0), start=start_node)
                t = Tour(n, p.order + extra)
                w_first = inst.weights[by_node[start_node]]
                for value in (path_weight(p, inst), tour_weight(t, inst)):
                    worst_run = max(worst_run, (1.5 * wm - w_first) - value)
                tour_vals.append(tour_weight(t, inst))
                runs += 1
            mean = statistics.fmean(tour_vals)
            worst_mean = max(worst_mean, (1.5 - 1.0 / k) * wm - mean)
    ok = worst_run <= RATIO_TOL and worst_mean <= RATIO_TOL
    verdict(
        "C7 tour-completion-inequality",
        ok,
        f"{runs} enumerated-start runs, max per-run violation {worst_run:.2e}, "
        f"max mean violation {worst_mean:.2e}",
    )


def test_c08_friendship_implies_metric(verdict):
    rng = np.random.default_rng(77)
    trials = 1000
    ok = True
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        alpha = float(rng.uniform(1 / 3, 0.5))
        w = rng.uniform(2 * alpha, 1.0, size=(n, n))
        w = np.triu(w, 1)
        inst = WeightedInstance(w + w.T)
        ok = ok and check_friendship(inst, alpha) and validate_metric(inst, 0.0)
        if not ok:
            break
    verdict(
        "C8 friendship-implies-metric",
        ok,
        f"{trials} instances, alpha sampled in [1/3, 1/2], zero-tolerance triangle check",
    )


def test_c09_ordinal_purity(verdict):
    pairs = 100
    ok = True
    for i in range(pairs):
        n = 4 + i % 7
        inst = metric_instance(5000 + i, n)
        w = inst.weights
        # alternate two exactly order-preserving transforms
        other = WeightedInstance(w * w if i % 2 == 0 else w * 4.0)
        prof_a, prof_b = derive_preferences(inst), derive_preferences(other)
        ok = ok and prof_a == prof_b
        seed = RandomSource.derived_seed(9, i)
        ok = ok and greedy_k_matching(prof_a, n // 2) == greedy_k_matching(prof_b, n // 2)
        ok = ok and random_k_matching(n, n // 2, RandomSource(seed)) == random_k_matching(
            n, n // 2, RandomSource(seed)
        )
        ok = ok and hybrid_matching(prof_a, RandomSource(seed)) == hybrid_matching(
            prof_b, RandomSource(seed)
        )
        m = greedy_k_matching(prof_a, n // 2)
        ok = ok and path_completion(m, prof_a, RandomSource(seed)) == path_completion(
            m, prof_b, RandomSource(seed)
        )
        if n % 2 == 0:
            ok = ok and matching_to_tour(m, prof_a, RandomSource(seed)) == matching_to_tour(
                m, prof_b, RandomSource(seed)
            )
        # batched draws: byte-identical arrays for the same Generator seed
        batch_a = hybrid_matchings(prof_a, 64, np.random.default_rng(seed))
        batch_b = hybrid_matchings(prof_b, 64, np.random.default_rng(seed))
        ok = ok and batch_a.tobytes() == batch_b.tobytes()
        ok = ok and (
            matchings_to_tours(batch_a, prof_a, np.random.default_rng(seed)).tobytes()
            == matchings_to_tours(batch_b, prof_b, np.random.default_rng(seed)).tobytes()
        )
        if not ok:
            break
    verdict(
        "C9 ordinal-purity",
        ok,
        f"{pairs} weight pairs (squared / rescaled), identical profiles and outputs, "
        "scalar and batched",
    )


def test_c10_any_matching_upper_bound(verdict):
    from itertools import combinations

    def perfect_matchings(nodes):
        if not nodes:
            yield ()
            return
        u = nodes[0]
        for j in range(1, len(nodes)):
            v = nodes[j]
            rest = nodes[1:j] + nodes[j + 1:]
            for tail in perfect_matchings(rest):
                yield ((u, v),) + tail

    worst = -math.inf
    checked = 0
    for n in (4, 6):
        pms = list(perfect_matchings(tuple(range(n))))
        for i in range(40):
            inst = metric_instance(6000 + 100 * n + i, n)
            w = inst.weights
            for m in pms:
                wm = sum(w[u][v] for u, v in m)
                for t in range(1, n + 1):
                    for T in combinations(range(n), t):
                        inside = sum(w[u][v] for u, v in combinations(T, 2))
                        Tset = set(T)
                        cross = sum(w[u][v] for u in T for v in range(n) if v not in Tset)
                        worst = max(worst, wm - ((2.0 / t) * inside + cross / t))
                        checked += 1
    ok = worst <= RATIO_TOL
    verdict(
        "C10 any-matching-upper-bound",
        ok,
        f"exhaustive over n=4,6: {checked} (matching, subset) checks, max violation {worst:.2e}",
    )


def test_ksum_sweeps_at_n_12_and_16(verdict):
    # Beside C6's ksum rows, at sizes the covered-set DP oracle opened (n = 12
    # and 16, up from 10). Counts fixed up front: greedy 20 trials per k, checked
    # against 4; hybrid 10 trials of 1000 draws per k with an even cluster size,
    # checked against 2 * hybrid_bound(n) with the harness's 3-sigma allowance.
    greedy_trials, hybrid_trials, hybrid_draws = 20, 10, 1000
    ks = {12: (2, 3, 4, 6), 16: (2, 4, 8)}
    configs = [(dict(algorithm="greedy", n=n, k=k, trials=greedy_trials, seed=40 + 10 * i + k),
                4.0) for i, n in enumerate(ks) for k in ks[n]]
    configs += [(dict(algorithm="hybrid", n=n, k=k, trials=hybrid_trials,
                      inner_samples=hybrid_draws, seed=60 + 10 * i + k),
                 2 * hybrid_bound(n)) for i, n in enumerate(ks) for k in ks[n] if n // k % 2 == 0]
    ok = True
    details = []
    for cfg, bound in configs:
        rep = run_trials("ksum", **cfg)
        ok = ok and rep["bound"] == bound and rep["verdict"]
        details.append(f"{cfg['algorithm']} n={cfg['n']} k={cfg['k']} bound {rep['bound']:.4g} "
                       f"max {rep['max_ratio']:.4f}")
    verdict("ksum sweeps n=12,16", ok, f"{len(configs)} configs; " + "; ".join(details))
