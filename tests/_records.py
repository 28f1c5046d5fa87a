"""``bench/records.py``, the script that derives the package's record files, loaded by path,
and those files."""

import os

from _scripts import load
from ordmatch import check_record, load_record
from ordmatch.harness import RECORDS

script = load("bench/records.py")

build_fixture_randomization_floor = script.build_fixture_randomization_floor
build_fixture_mutual_top_pairs = script.build_fixture_mutual_top_pairs
build_fixture_mixture_gap = script.build_fixture_mixture_gap

# The package's record files, by name.
FILES = {f[:-5]: os.path.join(RECORDS, f) for f in sorted(os.listdir(RECORDS))
         if f.endswith(".json")}


def all_fixtures() -> list:
    """Every record file's ``check_record`` output with the file's name in front, in the order
    of the file names."""
    return [{"name": name, **check_record(load_record(path))} for name, path in FILES.items()]
