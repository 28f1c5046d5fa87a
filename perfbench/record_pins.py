"""Write pins.json: the deterministic outputs of round 0 at the default seed.

    python3 perfbench/record_pins.py

The pins are the oracle optima and greedy solutions of the desk
workloads and the ranking and greedy digests of the large-n chain. They
were recorded from the code the benchmark was introduced against;
re-record them only in a change that deliberately alters those outputs,
and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, OUT, SRC
from workloads import DEFAULT_SEED, WORKLOADS, run_round


def main() -> int:
    sys.path.insert(0, SRC)
    from checks import check_chain, cross_check_desk

    workdir = os.path.join(OUT, f"pins-{os.getpid()}")
    pins = {}
    try:
        for workload in WORKLOADS:
            rnd = run_round(workload, DEFAULT_SEED, 0, workdir)
            if workload == "large-n":
                problems, found = check_chain(rnd["ops"])
            else:
                problems, found = cross_check_desk(workload, rnd["ops"], workdir)
            if problems:
                print(f"{workload}: {problems}", file=sys.stderr)
                return 1
            pins[workload] = found
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
