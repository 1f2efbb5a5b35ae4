"""Command-line front end: parse sums of minor products, straighten them into
standard monomials, emit and re-check JSON certificates, sweep the relation
families, and run the independence verifier.

Exit codes: 0 verified, 1 usage/parse error, 2 mathematical verification
failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .indexsets import IndexSet
from .bideterminants import (
    RELATION_FAMILIES,
    SIGMA_CHECK_MAX_GROUND,
    Minor,
    WordCombination,
    check_bounds,
    check_relation,
    format_word,
    relation_family,
)
from .independence import Specialization, verify_independence, word_leading_witness
from .polynomials import format_monomial
from .standard import content, is_standard, normal_form

CERT_SCHEMA = "straightlaw-cert/1"
ORACLE_MAX_GROUND = 4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"parse error at position {pos}: {message}")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|(\[)|(\])|(\|)|(\+)|(-)|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        start = m.start(m.lastindex)
        value = m.group(m.lastindex)
        kinds = ["int", "open", "close", "bar", "plus", "minus", "junk"]
        kind = kinds[m.lastindex - 1]
        if kind == "junk":
            raise ParseError(f"unexpected character {value!r}", start)
        tokens.append((kind, value, start))
        pos = m.end()
    return tokens


def _parse_raw(text: str) -> list:
    """Parse to a list of (word, coeff) pairs, keeping zero words and unit
    factors so dimensions can be inferred from everything the user wrote."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "0":
        return []

    i = 0
    terms: list = []

    def peek():
        return tokens[i] if i < len(tokens) else (None, None, len(text))

    def expect(kind: str):
        nonlocal i
        k, v, p = peek()
        if k != kind:
            raise ParseError(f"expected {kind}, found {v!r}" if k else f"expected {kind}, found end of input", p)
        i += 1
        return v, p

    def parse_indices():
        nonlocal i
        out = []
        while peek()[0] == "int":
            v, p = expect("int")
            value = int(v)
            if value < 1:
                raise ParseError(f"index must be >= 1, got {v}", p)
            out.append(value)
        return out

    def parse_factor() -> Minor:
        _, p = expect("open")
        rows = parse_indices()
        expect("bar")
        cols = parse_indices()
        expect("close")
        try:
            return Minor(IndexSet(rows), IndexSet(cols))
        except ValueError as exc:
            raise ParseError(str(exc), p) from None

    def parse_term(sign: int):
        nonlocal i
        coeff = sign
        k, v, p = peek()
        if k == "int":
            i += 1
            coeff = sign * int(v)
        factors = []
        while peek()[0] == "open":
            factors.append(parse_factor())
        if not factors:
            k2, v2, p2 = peek()
            raise ParseError(
                "a term needs at least one [rows|cols] factor"
                + (f", found {v2!r}" if k2 else ""),
                p2,
            )
        terms.append((tuple(factors), coeff))

    sign = 1
    k, _, _ = peek()
    if k in ("plus", "minus"):
        sign = 1 if k == "plus" else -1
        i += 1
    parse_term(sign)
    while i < len(tokens):
        k, v, p = peek()
        if k == "plus":
            i += 1
            parse_term(1)
        elif k == "minus":
            i += 1
            parse_term(-1)
        else:
            raise ParseError(f"expected '+' or '-', found {v!r}", p)
    return terms


def parse_expression(text: str) -> WordCombination:
    """Parse a signed sum of minor products.

    Grammar: expression := sign? term (('+'|'-') term)* ; term := int? factor+ ;
    factor := '[' int* '|' int* ']'. Indices are 1-based; "0" alone denotes the
    zero expression. Whitespace is insignificant.
    """
    return WordCombination(_parse_raw(text))


def format_expression(comb: WordCombination) -> str:
    """Printer inverse to parse_expression (on canonical combinations)."""
    return str(comb)


def _parse_with_dims(text: str, m: int | None, n: int | None) -> tuple[WordCombination, int, int]:
    """Parse an expression against an m x n matrix. A dimension left as None
    becomes the largest index of its kind written anywhere in the
    expression, zero words and unit factors included, and at least 1."""
    raw = _parse_raw(text)
    factors = [f for word, _ in raw for f in word]
    if m is None:
        m = max((f.rows.elements[-1] for f in factors if f.rows), default=1)
    if n is None:
        n = max((f.cols.elements[-1] for f in factors if f.cols), default=1)
    check_bounds(factors, m, n)
    return WordCombination(raw), m, n


def _word_json(word) -> list:
    return [{"rows": list(f.rows.elements), "cols": list(f.cols.elements)} for f in word]


def _terms_json(comb: WordCombination) -> list:
    return [{"coeff": coeff, "factors": _word_json(word)} for word, coeff in comb.items()]


def _oracle_and_standard(claimed: WordCombination, comb: WordCombination) -> tuple[bool, bool]:
    """Whether claimed expands to the same polynomial as comb (the oracle)
    and whether every claimed word is standard."""
    return claimed.expand() == comb.expand(), all(is_standard(word) for word, _ in claimed.items())


def build_certificate(text: str, m: int | None, n: int | None) -> dict:
    """Straighten an expression and wrap input, output and computed verdicts
    into a certificate. Verdicts are computed from the expansions and the
    contents, never assumed."""
    comb, m, n = _parse_with_dims(text, m, n)
    result = normal_form(comb, m, n)
    oracle_ok, standard_ok = _oracle_and_standard(result, comb)
    contents = [content(word) for word, _ in comb.items()]
    return {
        "schema": CERT_SCHEMA,
        "input": text,
        "dims": {"m": m, "n": n},
        "terms": _terms_json(result),
        "standard": standard_ok,
        "oracleVerified": oracle_ok,
        "contentPreserved": all(content(word) in contents for word, _ in result.items()),
    }


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cert_verified(cert: dict) -> bool:
    return bool(cert["standard"] and cert["oracleVerified"] and cert["contentPreserved"])


def certificate_combination(cert) -> WordCombination:
    """The combination a certificate claims. Checks the certificate's shape
    first and raises ValueError with a one-line message when it is not a
    certificate."""
    if not isinstance(cert, dict) or cert.get("schema") != CERT_SCHEMA:
        raise ValueError(f"not a {CERT_SCHEMA} certificate")
    for field in ("input", "dims", "terms"):
        if field not in cert:
            raise ValueError(f"certificate is missing the {field!r} field")
    if not isinstance(cert["input"], str):
        raise ValueError("certificate field 'input' is not a string")
    dims = cert["dims"]
    if not isinstance(dims, dict) or any(type(dims.get(k)) is not int for k in ("m", "n")):
        raise ValueError("certificate field 'dims' does not hold integers m and n")
    if not isinstance(cert["terms"], list):
        raise ValueError("certificate field 'terms' is not a list")
    claimed = []
    for i, t in enumerate(cert["terms"]):
        try:
            word = tuple(Minor(IndexSet(f["rows"]), IndexSet(f["cols"])) for f in t["factors"])
            coeff = t["coeff"]
        except (KeyError, TypeError):
            coeff = None
        if type(coeff) is not int:
            raise ValueError(f"certificate term {i} is not of the form "
                             '{"coeff": int, "factors": [{"rows": [...], "cols": [...]}, ...]}')
        claimed.append((word, coeff))
    check_bounds((f for word, _ in claimed for f in word), dims["m"], dims["n"])
    return WordCombination(claimed)


def _cmd_straighten(args) -> int:
    cert = build_certificate(args.expression, args.m, args.n)
    if args.format == "text":
        print(f"input:  {cert['input']}")
        print(f"dims:   {cert['dims']['m']}x{cert['dims']['n']}")
        print(f"output: {certificate_combination(cert)}")
        print(f"standard={cert['standard']} oracleVerified={cert['oracleVerified']} "
              f"contentPreserved={cert['contentPreserved']}")
    else:
        _emit_json(cert)
    return EXIT_OK if _cert_verified(cert) else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    if args.file and args.file != "-":
        with open(args.file, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    else:
        cert = json.load(sys.stdin)
    claimed = certificate_combination(cert)
    comb, _, _ = _parse_with_dims(cert["input"], cert["dims"]["m"], cert["dims"]["n"])

    oracle_ok, standard_ok = _oracle_and_standard(claimed, comb)
    # Standard monomials are linearly independent, so a standard combination
    # with the input's expansion is the input's normal form: the terms are
    # checked, not recomputed. termsMatch therefore decides the verdict.
    terms_match = oracle_ok and standard_ok and _terms_json(claimed) == cert["terms"]
    payload = {
        "schema": CERT_SCHEMA,
        "input": cert["input"],
        "oracleVerified": oracle_ok,
        "standard": standard_ok,
        "termsMatch": terms_match,
        "verified": terms_match,
    }
    if args.format == "text":
        for key in ("oracleVerified", "standard", "termsMatch", "verified"):
            print(f"{key}={payload[key]}")
    else:
        _emit_json(payload)
    return EXIT_OK if terms_match else EXIT_VERIFICATION


def _cmd_relations(args) -> int:
    n = args.n
    if n > SIGMA_CHECK_MAX_GROUND:
        print(
            f"error: ground size {n} exceeds the permutation-criterion bound "
            f"{SIGMA_CHECK_MAX_GROUND}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    families = [args.family] if args.family else list(RELATION_FAMILIES)
    use_oracle = n <= ORACLE_MAX_GROUND
    reports = []
    failures = 0
    for family in families:
        count = 0
        bad = []
        for label, rel in relation_family(n, family):
            count += 1
            ok = check_relation(rel)
            if use_oracle and rel.expand() != 0:
                ok = False
            if not ok:
                bad.append(label)
        failures += len(bad)
        reports.append({"family": family, "instances": count, "failed": bad})
    payload = {
        "n": n,
        "oracleChecked": use_oracle,
        "sigmaChecked": True,
        "families": reports,
        "verified": failures == 0,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        for rep in reports:
            routes = "sigma + oracle" if use_oracle else "sigma"
            if rep["failed"]:
                print(f"family {rep['family']}, n={n}: "
                      f"{len(rep['failed'])} of {rep['instances']} relations FAILED ({routes})")
                for label in rep["failed"]:
                    print(f"  failed: {label}")
            else:
                print(f"family {rep['family']}, n={n}: "
                      f"all {rep['instances']} relations verified ({routes})")
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _cmd_independence(args) -> int:
    try:
        report = verify_independence(args.m, args.n, args.max_factors)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "m": report.m,
        "n": report.n,
        "maxFactors": report.max_factors,
        "N": report.N,
        "standardMonomials": report.word_count,
        "rank": report.rank,
        "witnessesDistinct": report.witnesses_distinct,
        "decodeRoundTrip": report.decode_round_trip,
        "independent": report.independent,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print(report.summary())
    return EXIT_OK if report.independent else EXIT_VERIFICATION


def _cmd_leading(args) -> int:
    comb, m, n = _parse_with_dims(args.expression, args.m, args.n)
    N = args.factor_rank if args.factor_rank is not None else min(m, n)
    spec = Specialization(m, n, N)
    entries = []
    for word, coeff in comb.items():
        witness = word_leading_witness(word, spec)
        entries.append({
            "coeff": coeff,
            "factors": _word_json(word),
            "witness": format_monomial(witness),
        })
    payload = {"dims": {"m": m, "n": n}, "N": N, "terms": entries}
    if args.format == "text":
        for (word, _), e in zip(comb.items(), entries):
            print(f"{format_word(word)}: {e['witness']}")
    else:
        _emit_json(payload)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_format(p: argparse.ArgumentParser, default: str) -> None:
    """Mutually exclusive --json and --text, stored as args.format."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", dest="format", action="store_const", const="json", help="JSON output")
    group.add_argument("--text", dest="format", action="store_const", const="text",
                       help="human-readable output")
    p.set_defaults(format=default)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="straightlaw",
        description="Straighten products of matrix minors into standard monomials, "
                    "with every identity certified by brute-force polynomial expansion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("straighten", help="straighten an expression and emit a JSON certificate")
    p.add_argument("expression", help="e.g. '2[1|1] - [1 2|1 2]' or '[1|2][2|1]'; an expression "
                                      "starting with '-' goes after '--', e.g. -- '-3[1|2][2|1]'")
    p.add_argument("--m", type=int, default=None, help="row count (default: largest row index)")
    p.add_argument("--n", type=int, default=None, help="column count (default: largest column index)")
    _add_format(p, "json")
    p.set_defaults(func=_cmd_straighten)

    p = sub.add_parser("verify", help="re-check a certificate produced by 'straighten'")
    p.add_argument("file", nargs="?", default="-", help="certificate path (default: stdin)")
    _add_format(p, "json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "relations",
        help="sweep a relation family and certify every instance "
             "(sigma criterion; oracle expansion too for n <= 4; "
             "all four families took 7 s at --n 6 and 33 min at --n 7 "
             "on a 2-core VM)",
    )
    p.add_argument("--n", type=int, required=True, help="ground size (square matrix)")
    p.add_argument("--family", choices=RELATION_FAMILIES, default=None,
                   help="relation family (default: all)")
    _add_format(p, "text")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("independence", help="verify independence of standard monomials")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-factors", type=int, required=True, dest="max_factors")
    _add_format(p, "text")
    p.set_defaults(func=_cmd_independence)

    p = sub.add_parser("leading", help="leading witness monomials under the X = YZ factorization")
    p.add_argument("expression", help="as for 'straighten'")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--N", type=int, default=None, dest="factor_rank",
                   help="inner dimension of the factorization (default: min(m, n))")
    _add_format(p, "json")
    p.set_defaults(func=_cmd_leading)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:  # over-deep JSON, or a word too long to normalize
        print("error: input nested too deeply or too long to process", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
