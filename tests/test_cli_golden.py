"""Byte-exact CLI outputs for a fixed set of invocations.

tests/data/cli_golden.json holds the stdout, stderr and exit code of each
invocation below. A refactoring that is meant to keep the CLI's behaviour must
leave every entry unchanged; a deliberate output change re-records the file
with `PYTHONPATH=src python tests/test_cli_golden.py`. Certificate paths are
relative to the repository root, which is the working directory of every
invocation.
"""

import json
from pathlib import Path

import pytest

from straightlaw.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

# straighten "[2|1][1|2] + 2[1 2|2 3][1|1]" --m 3 --n 3, as emitted (good); with
# one coefficient changed; with its terms reversed; with the input's own
# non-standard words as terms (the oracle holds, standardness fails).
VERIFY_CERTIFICATES = tuple(
    f"tests/data/verify_{name}.json"
    for name in ("good", "coeff_changed", "terms_reversed", "nonstandard")
)

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
) + tuple(
    argv for path in VERIFY_CERTIFICATES for argv in (("verify", path), ("verify", path, "--text"))
)


def run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"argv": list(argv), "exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_is_byte_identical(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    assert run(argv, capsys) == recorded[argv]


if __name__ == "__main__":
    import contextlib
    import io
    import os

    os.chdir(ROOT)
    recorded = []
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        recorded.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
