import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from straightlaw import (
    Minor,
    WordCombination,
    cli,
    parse_expression,
    standard,
    straightening,
)
from straightlaw.cli import ParseError, main

from conftest import slow

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_single_factor():
    combo = parse_expression("[1 2|1 3]")
    assert combo == WordCombination({(Minor([1, 2], [1, 3]),): 1})


def test_parse_two_factor_word():
    combo = parse_expression("[1|2][2|1]")
    assert combo == WordCombination({(Minor([1], [2]), Minor([2], [1])): 1})


def test_parse_coefficients_and_signs():
    combo = parse_expression("2[1|1] - [2|2]")
    assert combo.coefficient((Minor([1], [1]),)) == 2
    assert combo.coefficient((Minor([2], [2]),)) == -1
    assert parse_expression("-3[1|1]").coefficient((Minor([1], [1]),)) == -3


def test_parse_unit_and_zero():
    assert parse_expression("[|]") == WordCombination({(): 1})
    assert parse_expression("0") == WordCombination()
    # like terms collect across the expression
    assert parse_expression("[1|1] - [1|1]") == WordCombination()


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_expression("[0|1]")
    assert exc.value.pos == 1
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("[1|1] <- note")
    with pytest.raises(ParseError):
        parse_expression("2 + 3")
    with pytest.raises(ParseError):
        parse_expression("[1 1|2]")


def test_tokenize_skips_tabs_and_reads_unicode_digits():
    assert cli._tokenize("\t-2[1\t\u0663|1 2]+[|] \t ") == [
        ("minus", "-", 1), ("int", "2", 2), ("open", "[", 3), ("int", "1", 4),
        ("int", "\u0663", 6), ("bar", "|", 7), ("int", "1", 8), ("int", "2", 10),
        ("close", "]", 11), ("plus", "+", 12), ("open", "[", 13), ("bar", "|", 14),
        ("close", "]", 15),
    ]


def test_printer_round_trip():
    for text in ("[1 2|1 3]", "2[1|1] - [2|2]", "[1|2][2|1]", "[|]", "0",
                 "-[1|1] + 4[1 2|1 2][2|2]"):
        combo = parse_expression(text)
        assert parse_expression(str(combo)) == combo


def test_straighten_emits_verified_certificate(capsys):
    code, out, _ = run_cli(capsys, "straighten", "[1|2][2|1]", "--m", "2", "--n", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == "straightlaw-cert/1"
    assert cert["dims"] == {"m": 2, "n": 2}
    assert cert["standard"] and cert["oracleVerified"] and cert["contentPreserved"]
    assert cert["terms"] == [
        {"coeff": 1, "factors": [{"rows": [1], "cols": [1]}, {"rows": [2], "cols": [2]}]},
        {"coeff": -1, "factors": [{"rows": [1, 2], "cols": [1, 2]}]},
    ]


def test_straighten_identity_and_zero(capsys):
    code, out, _ = run_cli(capsys, "straighten", "[1|1]")
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": 1, "factors": [{"rows": [1], "cols": [1]}]}]

    code, out, _ = run_cli(capsys, "straighten", "[1|1 2]")
    assert code == 0
    cert = json.loads(out)
    assert cert["terms"] == []
    assert cert["dims"] == {"m": 1, "n": 2}


def test_straighten_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "straighten", "[2|1][1|2] + 2[1|1][2|2]")
    _, second, _ = run_cli(capsys, "straighten", "[2|1][1|2] + 2[1|1][2|2]")
    assert first == second


def test_straighten_error_exits(capsys):
    code, _, err = run_cli(capsys, "straighten", "[1|")
    assert code == 1 and "parse error" in err
    code, _, err = run_cli(capsys, "straighten", "[1|3]", "--n", "2")
    assert code == 1 and "exceeds" in err


def test_verify_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "straighten", "[2|1][1|2]")
    cert = json.loads(out)
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["verified"] is True

    cert["terms"][0]["coeff"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert json.loads(out)["verified"] is False

    junk = tmp_path / "junk.json"
    junk.write_text("{}")
    code, _, err = run_cli(capsys, "verify", str(junk))
    assert code == 1


HOSTILE_CERTIFICATES = {
    "dims empty": {"dims": {}},
    "dims.m not an int": {"dims": {"m": "a", "n": 2}},
    "input not a string": {"input": 5},
    "terms not a list": {"terms": "x"},
    "term without factors": {"terms": [{"coeff": 1}]},
    "term not an object": {"terms": [5]},
    "coeff not an int": {"terms": [{"coeff": "1", "factors": []}]},
    "rows not a list of indices": {"terms": [{"coeff": 1, "factors": [{"rows": "12", "cols": [1, 2]}]}]},
    "factor not an object": {"terms": [{"coeff": 1, "factors": [[1]]}]},
    # Refused before the oracle expands the 40,320 Leibniz terms of an 8x8 minor.
    "term beyond dims": {"input": "[1|1]", "dims": {"m": 1, "n": 1}, "terms": [
        {"coeff": 1, "factors": [{"rows": list(range(1, 9)), "cols": list(range(1, 9))}]}]},
}


@pytest.mark.parametrize("change", HOSTILE_CERTIFICATES.values(), ids=HOSTILE_CERTIFICATES.keys())
def test_verify_rejects_malformed_certificates(change, tmp_path, capsys):
    _, out, _ = run_cli(capsys, "straighten", "[2|1][1|2]")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**json.loads(out), **change}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_verify_trusts_no_straightener(monkeypatch, capsys):
    # verify judges a certificate by the oracle, standardness and the term
    # list alone; with every straightening entry point broken it still
    # accepts a good certificate and refuses a tampered one.
    def broken(*args, **kwargs):
        raise AssertionError("verify called the straightener")

    monkeypatch.setattr(cli, "normal_form", broken)
    monkeypatch.setattr(standard, "_normalize", broken)
    monkeypatch.setattr(straightening, "_straighten", broken)
    monkeypatch.setattr(straightening, "straighten_pair", broken)
    code, out, _ = run_cli(capsys, "verify", str(DATA / "verify_good.json"))
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, _ = run_cli(capsys, "verify", str(DATA / "verify_coeff_changed.json"))
    assert code == 2 and json.loads(out)["verified"] is False


@pytest.mark.parametrize("argv, stdin", [
    (("verify",), "[" * 100000 + "]" * 100000),
], ids=["deeply nested certificate"])
def test_over_deep_input_is_a_one_line_error(argv, stdin, monkeypatch, capsys):
    # json.load exceeds the recursion limit on the nested brackets.
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_out_of_memory_is_a_one_line_error(monkeypatch, capsys):
    # A large straightening can run out of memory under a tight limit; any
    # callee's MemoryError must end in one error line and exit 1, never a
    # traceback.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "normal_form", exhausted)
    code, out, err = run_cli(capsys, "straighten", "[2|2][1|1]")
    assert code == 1 and out == ""
    assert err == "error: out of memory: the input is too large to process\n"


@slow
def test_relations_n7_verifies_every_family(capsys):
    # The packed sigma rows at ground 7: 429 fields of 32 bits each.
    code, out, _ = run_cli(capsys, "relations", "--n", "7", "--json")
    report = json.loads(out)
    assert code == 0 and report["verified"] and not report["oracleChecked"]
    assert {f["family"]: (f["instances"], f["failed"]) for f in report["families"]} == {
        "theorem1": (16384, []), "cor1": (279936, []), "cor2": (16384, []), "laplace": (256, []),
    }


@slow
def test_unordered_6x6_pair_straightens_and_verifies(capsys):
    # The two minors are only out of order: the swapped word is standard and
    # is the product's normal form, reached without the ground-12 Laplace
    # straightening. What takes the time is the oracle, 720**2 products.
    high, low = "[7 8 9 10 11 12|7 8 9 10 11 12]", "[1 2 3 4 5 6|1 2 3 4 5 6]"
    code, out, err = run_cli(capsys, "straighten", high + low)
    assert code == 0 and err == ""
    cert = json.loads(out)
    assert cert["standard"] and cert["oracleVerified"] and cert["contentPreserved"]
    six, twelve = list(range(1, 7)), list(range(7, 13))
    assert cert["terms"] == [{"coeff": 1, "factors": [{"rows": six, "cols": six},
                                                      {"rows": twelve, "cols": twelve}]}]


def test_long_standard_word_prints_itself(capsys):
    # Normalization is a loop, not a recursion, so a standard word far
    # longer than the recursion limit is its own normal form.
    word = "[1|1]" * 1200
    code, out, err = run_cli(capsys, "straighten", word, "--text")
    assert code == 0 and err == ""
    assert f"output: {word}\n" in out


def test_long_word_straightens_to_the_end(capsys):
    # Moving [2|2] behind 1,200 factors [1|1] takes one straightening per
    # factor, each on a new word; the rewrite loop keeps no stack of them.
    code, out, err = run_cli(capsys, "straighten", "[2|2]" + "[1|1]" * 1200, "--text")
    assert code == 0 and err == ""
    assert f"output: {'[1|1]' * 1200}[2|2]\n" in out
    assert "standard=True oracleVerified=True contentPreserved=True\n" in out


@pytest.mark.parametrize("argv, message", [
    (("straighten", "[3|1]", "--m", "2"), "error: row index 3 exceeds m=2\n"),
    (("straighten", "[1|3]", "--n", "2"), "error: column index 3 exceeds n=2\n"),
    (("leading", "[|]", "--N", "0"), "error: dimensions must be >= 1, got 1x1 with N=0\n"),
    (("leading", "[|]", "--m", "0", "--n", "0"), "error: dimensions must be >= 1, got 0x0 with N=0\n"),
], ids=["row beyond m", "column beyond n", "N of 0", "m and n of 0"])
def test_cli_checks_matrix_dimensions(argv, message, capsys):
    # The library takes indices as given; the CLI checks them against the
    # matrix it was told about.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err == message


@pytest.mark.parametrize("factor, message", [
    ({"rows": [3], "cols": [1]}, "error: row index 3 exceeds m=2\n"),
    ({"rows": [1], "cols": [3]}, "error: column index 3 exceeds n=2\n"),
], ids=["row beyond dims.m", "column beyond dims.n"])
def test_verify_checks_claimed_terms_against_dims(factor, message, tmp_path, capsys):
    _, out, _ = run_cli(capsys, "straighten", "[2|1][1|2]")
    cert = {**json.loads(out), "terms": [{"coeff": 1, "factors": [factor]}]}
    assert cert["dims"] == {"m": 2, "n": 2}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and out == "" and err == message


@pytest.mark.parametrize("argv, message", [
    (("straighten", "[|]", "--m", "-5", "--n", "-2", "--text"),
     "error: dimensions must be >= 1, got -5x-2 with N=-5\n"),
    (("straighten", "[1|1]", "--m", "0"), "error: dimensions must be >= 1, got 0x1 with N=0\n"),
], ids=["negative m and n", "m of 0"])
def test_straighten_refuses_dimensions_below_1(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err == message


def test_verify_refuses_certificate_dims_below_1(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "straighten", "[|]")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({**json.loads(out), "dims": {"m": 0, "n": 1}}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err == "error: dimensions must be >= 1, got 0x1 with N=0\n"


def test_oracle_limit_refuses_the_7x7_pair_at_once(capsys):
    # Expanding two 7x7 minors would take 5040**2 monomial products.
    minor = "[1 2 3 4 5 6 7|1 2 3 4 5 6 7]"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "straighten", minor * 2)
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == ""
    assert err == (f"error: the input would take the oracle {5040 ** 2} monomial products, "
                   f"above the limit {cli.ORACLE_MAX_TERMS}\n")


def test_oracle_limit_admits_the_6x6_pair():
    # Two 6x6 minors cost 720**2 = 518,400 products and still straighten.
    cli._check_oracle_cost(parse_expression("[1 2 3 4 5 6|1 2 3 4 5 6]" * 2), "the input")


def test_oracle_limit_covers_claimed_terms(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "straighten", "[1|1]")
    seven = list(range(1, 8))
    factor = {"rows": seven, "cols": seven}
    cert = {**json.loads(out), "dims": {"m": 7, "n": 7},
            "terms": [{"coeff": 1, "factors": [factor, factor]}]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: the claimed terms would take the oracle ")


def test_oracle_limit_covers_straightened_terms(monkeypatch, capsys):
    # [2|1][1|2] costs the oracle 1 product and its normal form
    # [1|1][2|2] - [1 2|1 2] costs 3: with the limit at the input's cost, the
    # straightened terms are refused before the oracle expands anything.
    def expand(self):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "ORACLE_MAX_TERMS", 1)
    monkeypatch.setattr(WordCombination, "expand", expand)
    code, out, err = run_cli(capsys, "straighten", "[2|1][1|2]")
    assert code == 1 and out == ""
    assert err == ("error: the straightened terms would take the oracle 3 monomial products, "
                   "above the limit 1\n")


@slow
def test_disjoint_6x6_pair_is_refused_before_the_oracle(capsys):
    # The pair is ordered neither way: it straightens at ground 12 to 924
    # words, whose expansion would not fit in memory.
    high, low = "[7 8 9 10 11 12|1 2 3 4 5 6]", "[1 2 3 4 5 6|7 8 9 10 11 12]"
    code, out, err = run_cli(capsys, "straighten", high + low)
    assert code == 1 and out == ""
    assert err == ("error: the straightened terms would take the oracle 4659897600 monomial "
                   f"products, above the limit {cli.ORACLE_MAX_TERMS}\n")


def test_json_and_text_are_exclusive(capsys):
    code, out, err = run_cli(capsys, "straighten", "[1|1]", "--json", "--text")
    assert code == 1 and out == "" and "not allowed with" in err


def test_parser_keeps_no_state_between_calls(capsys):
    assert run_cli(capsys, "straighten", "[1|1]", "--text")[1].startswith("input:")
    code, out, _ = run_cli(capsys, "straighten", "[1|1]")
    assert code == 0 and json.loads(out)["schema"] == "straightlaw-cert/1"


def test_relations_command(capsys):
    code, out, _ = run_cli(capsys, "relations", "--n", "3", "--family", "theorem1")
    assert code == 0
    assert "all 64 relations verified (sigma + oracle)" in out

    code, out, _ = run_cli(capsys, "relations", "--n", "2", "--family", "laplace", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] and payload["oracleChecked"]
    assert payload["families"][0]["instances"] == 8

    code, _, err = run_cli(capsys, "relations", "--n", "9")
    assert code == 1 and "exceeds" in err


def test_independence_command(capsys):
    code, out, _ = run_cli(capsys, "independence", "--m", "2", "--n", "2", "--max-factors", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["standardMonomials"] == payload["rank"] == 19
    assert payload["independent"]

    code, out, _ = run_cli(capsys, "independence", "--m", "1", "--n", "1", "--max-factors", "1")
    assert code == 0
    assert "1" in out

    code, _, err = run_cli(capsys, "independence", "--m", "5", "--n", "5", "--max-factors", "2")
    assert code == 1
    assert err == "error: dimensions 5x5 exceed the bound 3\n"


def test_leading_command(capsys):
    code, out, _ = run_cli(capsys, "leading", "[1 2|1 2][2|2]", "--text")
    assert code == 0
    assert "y[1,1]*y[2,1]*z[1,1]*z[2,1]*y[2,2]*z[2,2]" in out

    code, out, _ = run_cli(capsys, "leading", "[1|1]", "--json")
    assert code == 0
    assert json.loads(out)["terms"][0]["witness"] == "y[1,1]*z[1,1]"

    code, out, err = run_cli(capsys, "leading", "[1|1]", "--N", "0")
    assert code == 1 and out == "" and "N=0" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "relations")[0] == 1  # missing --n
    assert run_cli(capsys, "nonsense")[0] == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "straightlaw.cli", "straighten", "[1|1]"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",  # -m imports from the working directory
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["oracleVerified"] is True


def test_module_entry_point_writes_no_warning():
    # The package resolves parse_expression lazily, so running the CLI module
    # does not find it imported already (runpy would warn on stderr).
    proc = subprocess.run(
        [sys.executable, "-m", "straightlaw.cli", "straighten", "[|]"],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parents[1] / "src",
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
