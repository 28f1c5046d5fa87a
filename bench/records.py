"""Derive the package's lower-bound records and write their files.

    python bench/records.py            # (re)write src/ordmatch/records/*.json
    python bench/records.py --check    # exit 1 if a file differs from what its builder writes

Each builder returns a record's JSON document (see ``ordmatch.harness``): a
finite game whose claims ``check_record`` verifies in ``Fraction`` arithmetic,
every rational as ``str(Fraction)`` writes it and every matching a list of
[u, v] edges. ``BUILDERS`` holds them by the name of the file each writes. The
builders keep their parameters, so tests can build a record the files do not
hold (``build_fixture_mutual_top_pairs(5)``); the files hold each builder's
defaults. ``ordmatch fixtures`` replays the files.

- ``randomization-floor``: 4 nodes, two metric weightings. Every fixed
  matching concedes 3/2 (eps < 1/3), x = 2/5 paired + 3/5 crossed exactly
  5/4, and y = (2, 3 - 3 eps)/(5 - 3 eps) proves L = (5 - 3 eps)/(4 - 2 eps),
  497/398 at eps = 1/100.
- ``mutual-top-pairs`` (k = 1): n mutually top-ranked pairs, one of them
  heavy. Uniform guesses and uniform y meet at 2n/(n+1) on the metric
  weightings, n/(1+(n-1)eps) on the lean ones and exactly n at base weight 0,
  the eps -> 0 limit.
- ``mixture-gap``: 8 nodes ranking each other by index, optima 1, 2, 3, 4.
  The floor over all 105 perfect matchings is 2, no matching's values total
  more than 6, and x = (2/5, 1/5, 3/10, 1/10) with y = (1, 2, 3, 4)/10 meet
  at 3/5 of the optimum: L = 5/3 exact. The uniform mixture over six
  benchmark matchings concedes 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ordmatch.harness import RECORDS  # noqa: E402
from ordmatch.instance import _integer, _number  # noqa: E402


def _text(q) -> str | None:
    """A rational as ``str(Fraction)`` writes it ("5/3"), None (infinite) as null."""
    return None if q is None else str(Fraction(q))


def _weighting(n: int, base, edges: dict, metric: bool, opt) -> dict:
    """A weighting's entry: symmetric rows, ``base`` off the diagonal, then ``edges``
    {(u, v): weight}, with its claimed metric flag and optimum."""
    w = [[Fraction(0 if u == v else base) for v in range(n)] for u in range(n)]
    for (u, v), x in edges.items():
        w[u][v] = w[v][u] = Fraction(x)
    return {"rows": [list(map(_text, row)) for row in w], "metric": metric, "opt": _text(opt)}


def _matching(spec: str) -> list:
    """'01|23' -> [[0, 1], [2, 3]], for single-digit nodes."""
    return [[int(e[0]), int(e[1])] for e in spec.split("|")]


def _mixture(x: list, ratio) -> dict:
    """A mixture's entry: x [(matching, probability)] and its claimed worst ratio."""
    return {"x": [{"matching": m, "p": _text(p)} for m, p in x], "ratio": _text(ratio)}


def _game(name: str, y: dict, mixtures: dict, floor, bound) -> dict:
    """A game's entry: y {weighting: probability}, mixtures by label, the claimed floor (None:
    infinite) and lower bound L."""
    return {"name": name, "y": {s: _text(p) for s, p in y.items()}, "mixtures": mixtures,
            "floor": _text(floor), "bound": _text(bound)}


def build_fixture_randomization_floor(epsilon: Fraction = Fraction(1, 100)) -> dict:
    """4 nodes, two metric weightings: every fixed matching concedes 3/2 (epsilon < 1/3),
    x = 2/5 paired + 3/5 crossed exactly 5/4, and y proves L = (5 - 3 eps)/(4 - 2 eps)."""
    eps = Fraction(epsilon if isinstance(epsilon, Fraction) else _number(epsilon, "epsilon"))
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    weightings = {
        "tie-breaker": _weighting(4, 1, {(2, 3): eps}, True, 2),
        "favorite-pair": _weighting(4, 1, {(0, 1): 2}, True, 3),
    }
    x = [(_matching("01|23"), Fraction(2, 5)), (_matching("02|13"), Fraction(3, 5))]
    y = {"tie-breaker": 2 / (5 - 3 * eps), "favorite-pair": (3 - 3 * eps) / (5 - 3 * eps)}
    game = _game("", y, {"x": _mixture(x, Fraction(5, 4))}, min(Fraction(3, 2), 2 / (1 + eps)),
                 (5 - 3 * eps) / (4 - 2 * eps))
    ranking = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [1, 0, 2]]
    return {"ranking": ranking, "k": 2, "weightings": weightings, "games": [game]}


def build_fixture_mutual_top_pairs(n_pairs: int = 3, epsilon: Fraction = Fraction(1, 100)) -> dict:
    """2n nodes in mutually top-ranked pairs, one of them heavy, k = 1: uniform guesses
    and uniform y meet at 2n/(n+1) (metric), n/(1+(n-1)eps) (lean) and n (limit)."""
    if _integer(n_pairs, "n_pairs") < 2:
        raise ValueError("need at least 2 pairs")
    eps = Fraction(epsilon if isinstance(epsilon, Fraction) else _number(epsilon, "epsilon"))
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("epsilon must be in (0, 1/2)")
    n, size = n_pairs, 2 * n_pairs
    # each node ranks its pair partner q ^ 1 first, then the rest by index
    ranking = [[q ^ 1] + [j for j in range(size) if j not in (q, q ^ 1)] for q in range(size)]
    guess = [([[2 * i, 2 * i + 1]], Fraction(1, n)) for i in range(n)]
    weightings, games = {}, []
    for game, base, heavy, ratio, floor in (
        ("metric", 1, 2, Fraction(2 * n, n + 1), Fraction(2)),
        ("lean", eps, 1, n / (1 + (n - 1) * eps), 1 / eps),
        ("limit", 0, 1, Fraction(n), None),
    ):
        names = [f"{game}-heavy-{s}" for s in range(n)]
        for s, name in enumerate(names):
            weightings[name] = _weighting(size, base, {(2 * s, 2 * s + 1): heavy},
                                          game == "metric", heavy)
        y = dict.fromkeys(names, Fraction(1, n))
        games.append(_game(game, y, {"uniform pair guess": _mixture(guess, ratio)}, floor, ratio))
    return {"ranking": ranking, "k": 1, "weightings": weightings, "games": games}


def build_fixture_mixture_gap() -> dict:
    """8 nodes ranking each other by index, optima 1, 2, 3, 4: every matching mixture
    concedes 5/3 (L exact at x and y = (1, 2, 3, 4)/10), the uniform one over six 3."""
    size = 8
    edge_sets = (
        {(0, 1)},
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)},
        {(u, v) for u in (0, 1) for v in range(u + 1, size)} | {(2, 3)},
        {(u, v) for u in range(4) for v in range(u + 1, size)},
    )
    weightings = {
        f"weighting-{s + 1}": _weighting(size, 0, dict.fromkeys(edges, 1), s == 3, s + 1)
        for s, edges in enumerate(edge_sets)
    }
    x = [(_matching("01|23|45|67"), Fraction(2, 5)), (_matching("01|24|35|67"), Fraction(1, 5)),
         (_matching("02|13|45|67"), Fraction(3, 10)), (_matching("04|15|26|37"), Fraction(1, 10))]
    six = ("01|23|45|67", "01|24|35|67", "02|13|45|67", "02|14|35|67", "04|15|26|37", "04|15|23|67")
    uniform = [(_matching(m), Fraction(1, 6)) for m in six]
    mixtures = {"x": _mixture(x, Fraction(5, 3)),
                "uniform over six benchmark matchings": _mixture(uniform, 3)}
    y = {name: Fraction(s + 1, 10) for s, name in enumerate(weightings)}
    ranking = [[j for j in range(size) if j != q] for q in range(size)]
    game = _game("", y, mixtures, 2, Fraction(5, 3))
    return {"ranking": ranking, "k": size // 2, "weightings": weightings, "games": [game]}


# The builders by the name of the file each writes (less ``.json``).
BUILDERS = {"randomization-floor": build_fixture_randomization_floor,
            "mutual-top-pairs": build_fixture_mutual_top_pairs,
            "mixture-gap": build_fixture_mixture_gap}


def _dump(value, pad: str = "", key: str = "") -> str:
    """``value`` as JSON after ``pad`` and ``key``: on one line when that fits in 100 columns,
    else one line per item, each one space further in."""
    flat = json.dumps(value)
    if len(pad + key + flat) <= 100 or not isinstance(value, (dict, list)) or not value:
        return flat
    inner = pad + " "
    items = (inner + k + _dump(v, inner, k) for k, v in (
        ((json.dumps(k) + ": ", v) for k, v in value.items()) if isinstance(value, dict)
        else (("", v) for v in value)))
    ends = "{}" if isinstance(value, dict) else "[]"
    return ends[0] + "\n" + ",\n".join(items) + "\n" + pad + ends[1]


def text(doc: dict) -> str:
    """A record's file: its document as JSON, by ``_dump``."""
    return _dump(doc) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="write nothing; exit 1 if a file differs from what its builder writes")
    args = ap.parse_args(argv)
    stale = []
    for name, build in BUILDERS.items():
        path, data = Path(RECORDS, f"{name}.json"), text(build()).encode("utf-8")
        if not args.check:
            path.write_bytes(data)
        elif not path.is_file() or path.read_bytes() != data:
            stale.append(path)
    for path in stale:
        print(f"{path} differs from what {Path(__file__).name} writes", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
