"""``bench/cli_diff.py``'s invocation list, run in-process on this tree's ``ordmatch``.

Every verb in both formats, malformed flags and malformed instance files: no
invocation may escape ``cli.main`` as an exception, and every JSON-format
stdout and ``--out`` file must parse.
"""

import importlib.util
import json
from pathlib import Path

import ordmatch.cli

CLI_DIFF = Path(__file__).resolve().parents[1] / "bench" / "cli_diff.py"


def load_cli_diff():
    spec = importlib.util.spec_from_file_location("bench_cli_diff", CLI_DIFF)
    cli_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_diff)
    return cli_diff


def test_every_invocation_returns_and_its_json_output_parses(tmp_path):
    cli_diff = load_cli_diff()
    seen, escaped, unparsed = 0, [], []
    for template, rc, stdout, written, stderr in cli_diff.results(ordmatch.cli, str(tmp_path)):
        seen += 1
        if rc not in (0, 1, 2):  # "raised <Type>": an exception escaped main
            escaped.append((" ".join(template), rc, stderr))
        elif cli_diff.writes_json(template):
            for text in filter(None, (stdout, written)):
                try:
                    json.loads(text)
                except ValueError as exc:
                    unparsed.append((" ".join(template), str(exc)))
    assert seen == len(cli_diff.invocations())
    assert escaped == [] and unparsed == []
