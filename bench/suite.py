"""Paired Tier-1 suite timings of two ordmatch checkouts.

    python bench/suite.py --parent PARENT_DIR --change CHANGE_DIR --out BENCH_suite.json

PARENT_DIR and CHANGE_DIR are checkouts of two commits (each with ``src/ordmatch`` and
``tests/``). Each side's Tier-1 suite runs ``RUNS`` times, the sides alternating which goes
first, each run two fresh pytest processes in the checkout's root with its ``src`` on
``PYTHONPATH``: the collection alone (``--collect-only``), timed, then ``TIER1`` with every
test phase's duration. Per run the output holds the raw wall and pytest's own seconds, the
outcome counts, the collection seconds, each test file's summed durations and the
``SLOWEST`` slowest tests (setup, call and teardown summed); pytest prints each duration to
the hundredth of a second. No run is scaled by a calibration kernel: a kernel timed around a
run moved by 2x between its two reads while the runs' raw walls spread by 5%, so the pairs
alone judge a change. The environment stamp is perfbench's, each side's ``checkout`` block
and the pairing are ``bench/layers.py``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 5
SLOWEST = 25
# The Tier-1 command, as ROADMAP.md states it, with every test phase's duration printed.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
DURATIONS = ["--durations=0", "--durations-min=0"]
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown) +(\S.*)$", re.MULTILINE)
OUTCOME = re.compile(r"([0-9]+) (passed|failed|skipped|deselected|xfailed|xpassed|errors?|"
                     r"warnings?)")
SUMMARY = re.compile(r"^=* ?([0-9]+ [a-z]+.*) in ([0-9.]+)s", re.MULTILINE)


def parse(text: str) -> dict:
    """One Tier-1 run's pytest output read: the outcome counts and pytest's seconds from its
    last summary line, and from its durations section each test file's summed seconds and
    the ``SLOWEST`` slowest tests, their phases summed, slowest first (ties by name)."""
    tests = Counter()
    for seconds, test in DURATION.findall(text):
        tests[test] += float(seconds)
    files = Counter()
    for test, seconds in tests.items():
        files[test.split("::")[0]] += seconds
    outcomes, seconds = SUMMARY.findall(text)[-1]
    slowest = sorted(tests.items(), key=lambda item: (-item[1], item[0]))[:SLOWEST]
    return {"pytest_s": float(seconds),
            "counts": {word: int(count) for count, word in OUTCOME.findall(outcomes)},
            "files": {f: round(s, 2) for f, s in sorted(files.items())},
            "slowest": [[t, round(s, 2)] for t, s in slowest]}


def _pytest(tree: str, args: list) -> tuple:
    """``python TIER1 args`` in ``tree`` with its ``src`` on ``PYTHONPATH``: (wall seconds,
    exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def suite_run(tree: str) -> dict:
    """One timed collection and one Tier-1 run of ``tree``."""
    collect_s, _, _ = _pytest(tree, ["--collect-only"])
    wall_s, code, out = _pytest(tree, DURATIONS)
    return {"wall_s": wall_s, "collect_s": collect_s, "exit_code": code, **parse(out)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-rev", default=None, help="commit the parent checkout holds")
    ap.add_argument("--out", default="BENCH_suite.json")
    args = ap.parse_args(argv)

    sys.path[:0] = [HERE, os.path.join(HERE, "..", "perfbench")]
    import layers
    from run import environment_stamp

    trees = {"parent": args.parent, "change": args.change}
    runs = layers._alternate(RUNS, lambda side, i: suite_run(trees[side]), "Tier-1 run")
    result = {
        "what": "Tier-1 wall seconds of a parent and a change checkout, with collection "
                "seconds, per-file summed test durations and the slowest tests.",
        "method": f"{RUNS} runs per side of python {' '.join(TIER1 + DURATIONS)}, the sides "
                  "alternating which runs first; every time is raw wall or pytest seconds; "
                  "quartiles are inclusive-method quantiles over the runs.",
        "parent_rev": args.parent_rev,
        "environment": environment_stamp(),
        "checkout": {side: layers.checkout(tree) for side, tree in trees.items()},
        "summary": {key: layers._compare([r[key] for r in runs["parent"]],
                                         [r[key] for r in runs["change"]], "lower")
                    for key in ("wall_s", "pytest_s", "collect_s")},
        "files": {side: {f: statistics.median(r["files"].get(f, 0.0) for r in rs)
                         for f in rs[0]["files"]} for side, rs in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
