"""``bench/suite.py``'s reading of pytest's output, on a canned text; the script is loaded by
path and starts no process here."""

from _scripts import load

OUTPUT = """\
........................................................................ [ 50%]
.......F.........................................                        [100%]
=================================== FAILURES ===================================
______________________________ test_a[x in 2s] _________________________________
E   assert 1 passed in 9s
============================== slowest durations ===============================
0.62s call     tests/test_batched.py::TestAgainstScalarDP::test_generated[n=12 seed 3]
0.40s call     tests/test_core.py::test_greedy
0.05s setup    tests/test_batched.py::TestAgainstScalarDP::test_generated[n=12 seed 3]
0.03s call     tests/test_contract.py::test_a_value_argument_is_read_by_its_rule[check_record(y 'a')]
0.01s teardown tests/test_core.py::test_greedy
0.00s setup    tests/test_core.py::test_greedy
=========================== short test summary info ============================
FAILED tests/test_core.py::test_a[x in 2s] - assert 1 passed in 9s
1 failed, 120 passed, 2 warnings in 23.59s
"""


def test_parse_reads_counts_seconds_files_and_the_slowest_tests(monkeypatch):
    suite = load("bench/suite.py")
    monkeypatch.setattr(suite, "SLOWEST", 2)
    assert suite.parse(OUTPUT) == {
        "pytest_s": 23.59,
        "counts": {"failed": 1, "passed": 120, "warnings": 2},
        "files": {"tests/test_batched.py": 0.67, "tests/test_contract.py": 0.03,
                  "tests/test_core.py": 0.41},
        "slowest": [["tests/test_batched.py::TestAgainstScalarDP::test_generated[n=12 seed 3]",
                     0.67], ["tests/test_core.py::test_greedy", 0.41]],
    }
