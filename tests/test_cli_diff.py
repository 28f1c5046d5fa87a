"""``bench/cli_diff.py``'s invocation list, run in-process on this tree's ``ordmatch``.

Every verb in both formats, malformed flags and malformed instance files: no
invocation may escape ``cli.main`` as an exception, and every JSON-format
stdout and ``--out`` file must parse.
"""

import json

import ordmatch.cli
from _scripts import load


def test_every_invocation_returns_and_its_json_output_parses(tmp_path):
    cli_diff = load("bench/cli_diff.py")
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
