"""Byte-exact CLI outputs for a fixed set of invocations.

tests/data/cli_golden.json holds the stdout, stderr and exit code of each
invocation below. A refactoring that is meant to keep the CLI's behaviour must
leave every entry unchanged; a deliberate output change re-records the file
with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
from pathlib import Path

import pytest

from straightlaw.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

INVOCATIONS = (
    ("straighten", "[1|2][2|1]"),
    ("straighten", "[2|1][1|2] + 2[1|1][2|2]", "--text"),
    ("straighten", "[1 2|2 3][1|1]", "--m", "3", "--n", "3"),
    ("straighten", "--", "-3[1|2][2|1]"),
    ("straighten", "0"),
    ("straighten", "0", "--text"),
    ("straighten", "[|]"),
    ("straighten", "[|]", "--text"),
    ("relations", "--n", "3"),
    ("relations", "--n", "3", "--json"),
    ("independence", "--m", "2", "--n", "2", "--max-factors", "2"),
    ("independence", "--m", "2", "--n", "3", "--max-factors", "2", "--json"),
    ("leading", "[1 2|1 2][2|2] + [1|1]", "--text"),
    ("leading", "[1 2|1 2][2|2] + [1|1]"),
    ("straighten", "[1|3]", "--n", "2"),
    ("straighten", "[1|"),
)


def run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"argv": list(argv), "exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_is_byte_identical(argv, capsys):
    recorded = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    assert run(argv, capsys) == recorded[argv]


if __name__ == "__main__":
    import contextlib
    import io

    recorded = []
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        recorded.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
