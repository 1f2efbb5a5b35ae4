"""The benchmark's workloads: seeded inputs, the timed section, and the
checks and negative controls that run after it.

Each workload is built from (seed, small). The seed drives every random
choice the benchmark makes; the library only ever sees the generated inputs.
small selects the tiny sizes of the self-check. run(lib) is the timed section
and returns the number of operations; check(lib) verifies every output with
oracle.py and runs the negative controls, untimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys

import oracle

# The certify golden digest covers a fixed request stream, because the timed
# stream changes with the seed.
GOLDEN_SEED = 1605_06696
GOLDEN_REQUESTS = 30


def call_cli(cli, argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Run cli.main in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue()


def sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Outcome:
    """What check() found: failed operations, negative controls attempted and
    rejected, named pass/fail checks, and the digest of canonical output."""

    def __init__(self):
        self.failed = 0
        self.extra_attempted = 0
        self.controls = 0
        self.controls_rejected = 0
        self.checks: dict[str, bool] = {}
        self.digest = ""

    def expect(self, name: str, ok: bool) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def control(self, rejected: bool, separate: bool = True) -> None:
        """Record a negative control; a separate one is an operation of its
        own, and accepting it is a failed operation."""
        self.controls += 1
        self.controls_rejected += bool(rejected)
        if separate:
            self.extra_attempted += 1
            self.failed += not rejected


# -- certify -------------------------------------------------------------

class Request:
    __slots__ = ("terms", "text", "tamper", "pick")

    def __init__(self, terms, tamper: bool, pick: float):
        self.terms = terms  # [(coeff, [(rows, cols), ...]), ...]
        self.text = format_terms(terms)
        self.tamper = tamper
        self.pick = pick


def format_terms(terms) -> str:
    pieces = []
    for coeff, factors in terms:
        body = "".join(f"[{' '.join(map(str, r))}|{' '.join(map(str, c))}]" for r, c in factors)
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag}{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + text)
    return " ".join(pieces)


def all_minors(dim: int) -> list[tuple[tuple, tuple]]:
    """Every nonempty size-matched (rows, cols) minor of a dim x dim matrix."""
    return [
        (rows, cols)
        for k in range(1, dim + 1)
        for rows in itertools.combinations(range(1, dim + 1), k)
        for cols in itertools.combinations(range(1, dim + 1), k)
    ]


def random_requests(rng: random.Random, dim: int, count: int) -> list[Request]:
    """count requests of 1-2 terms of 2-3 minors each; every minor is drawn
    uniformly from all minors of the dim x dim matrix."""
    minors = all_minors(dim)
    requests = []
    for _ in range(count):
        terms = [
            (rng.choice((-3, -2, -1, 1, 2, 3)), [rng.choice(minors) for _ in range(rng.randint(2, 3))])
            for _ in range(rng.randint(1, 2))
        ]
        requests.append(Request(terms, rng.random() < 0.1, rng.random()))
    return requests


def tamper_certificate(cert_text: str, pick: float) -> str | None:
    """Change one coefficient of a certificate; None when it has no terms."""
    cert = json.loads(cert_text)
    if not cert["terms"]:
        return None
    term = cert["terms"][int(pick * len(cert["terms"]))]
    term["coeff"] += 1 if term["coeff"] != -1 else -1
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


def cert_words(cert: dict):
    return [
        (t["coeff"], [(tuple(f["rows"]), tuple(f["cols"])) for f in t["factors"]])
        for t in cert["terms"]
    ]


class Certify:
    """Closed loop, one client: each request is `straighten` of a seeded
    expression followed by `verify` of the emitted certificate; about one in
    ten certificates is tampered with and must be refused with exit 2."""

    name = "certify"

    def __init__(self, seed: int, small: bool, count: int | None = None):
        self.seed = seed
        self.small = small
        self.dim = 3 if small else 4
        count = count if count is not None else (40 if small else 1500)
        rng = random.Random(seed)
        self.requests = random_requests(rng, self.dim, count)
        self.latencies_ms: list[float] = []
        self.results: list[tuple] = []

    def run(self, lib) -> int:
        from time import perf_counter

        cli = lib.cli
        dim = str(self.dim)
        for req in self.requests:
            t0 = perf_counter()
            # "--" keeps an expression with a leading minus from being read
            # as an option.
            rc1, cert_text = call_cli(cli, ["straighten", "--m", dim, "--n", dim, "--", req.text])
            t1 = perf_counter()
            payload = tamper_certificate(cert_text, req.pick) if req.tamper and rc1 == 0 else None
            t2 = perf_counter()
            rc2, verify_text = call_cli(cli, ["verify", "-"], payload or cert_text)
            t3 = perf_counter()
            self.latencies_ms.append(((t1 - t0) + (t3 - t2)) * 1e3)
            self.results.append((rc1, cert_text, payload, rc2, verify_text))
        return len(self.requests)

    def check(self, lib) -> Outcome:
        out = Outcome()
        table = oracle.MinorTable(oracle.random_matrix(random.Random(self.seed), self.dim, self.dim))
        for req, (rc1, cert_text, payload, rc2, verify_text) in zip(self.requests, self.results):
            if not self._check_one(out, table, req, rc1, cert_text, payload, rc2, verify_text):
                out.failed += 1
        out.digest = sha256(
            f"{req.text}\t{rc1}\t{cert_text}\t{payload is not None}\t{rc2}\t{verify_text}"
            for req, (rc1, cert_text, payload, rc2, verify_text) in zip(self.requests, self.results)
        )
        return out

    def _check_one(self, out, table, req, rc1, cert_text, payload, rc2, verify_text) -> bool:
        if not out.expect("straighten exits 0", rc1 == 0):
            return False
        cert = json.loads(cert_text)
        ok = out.expect("certificate flags and header",
                        cert["standard"] is True and cert["oracleVerified"] is True
                        and cert["contentPreserved"] is True and cert["input"] == req.text
                        and cert["dims"] == {"m": self.dim, "n": self.dim})
        words = cert_words(cert)
        want = sum(c * table.word(f) for c, f in req.terms)
        ok &= out.expect("certificate value equals input value",
                         sum(c * table.word(f) for c, f in words) == want)
        ok &= out.expect("certificate words are standard",
                         all(oracle.is_standard(f) for _, f in words))
        contents = {oracle.content(f) for _, f in req.terms}
        ok &= out.expect("certificate preserves content",
                         all(oracle.content(f) in contents for _, f in words))
        if payload is None:
            ok &= out.expect("verify accepts the certificate",
                             rc2 == 0 and json.loads(verify_text)["verified"] is True)
        else:
            tampered = cert_words(json.loads(payload))
            ok &= out.expect("tampered certificate changes the value",
                             sum(c * table.word(f) for c, f in tampered) != want)
            out.control(rc2 == 2, separate=False)
            ok &= rc2 == 2
        return ok

    def golden(self) -> "Certify":
        return Certify(GOLDEN_SEED, self.small, GOLDEN_REQUESTS)


# -- laplace-n7 ----------------------------------------------------------

def laplace_values(seed: int, n: int) -> dict:
    """Value of every Laplace product on ground size n at a seeded matrix."""
    table = oracle.MinorTable(oracle.random_matrix(random.Random(seed), n, n))
    return {pair: table.laplace(*pair) for pair in oracle.size_matched_pairs(n)}


def check_laplace(out: Outcome, n: int, pairs, terms_per_pair, value: dict) -> None:
    """Each output must be good, below its input pair, and equal in value."""
    for (a, b), terms in zip(pairs, terms_per_pair):
        ok = out.expect("outputs are good pairs",
                        all(oracle.is_good(u, n) and oracle.is_good(w, n) for (u, w), _ in terms))
        ok &= out.expect("outputs lie below the input pair",
                         all(oracle.leq(u, a) and oracle.leq(w, b) for (u, w), _ in terms))
        ok &= out.expect("output value equals input value",
                         sum(c * value[key] for key, c in terms) == value[(a, b)])
        if not ok:
            out.failed += 1


class Laplace:
    """straighten_laplace on every size-matched pair of index sets."""

    name = "laplace-n7"

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.n = 4 if small else 7
        self.pairs = oracle.size_matched_pairs(self.n)
        self.outputs: list = []

    def run(self, lib) -> int:
        straighten_laplace, n = lib.straighten_laplace, self.n
        self.outputs = [straighten_laplace(a, b, n) for a, b in self.pairs]
        return len(self.pairs)

    def terms(self) -> list:
        return [
            [((u.elements, w.elements), c) for (u, w), c in comb.items()]
            for comb in self.outputs
        ]

    def check(self, lib) -> Outcome:
        out = Outcome()
        terms = self.terms()
        check_laplace(out, self.n, self.pairs, terms, laplace_values(self.seed, self.n))
        out.digest = sha256(f"{a}|{b}: {t}" for (a, b), t in zip(self.pairs, terms))
        return out

    def golden(self) -> "Laplace":
        return self


# -- relations-n6 --------------------------------------------------------

def family_sizes(n: int) -> dict[str, int]:
    """Instances per relation family, counted from the generators' loops."""
    return {"theorem1": 4 ** n, "cor1": 3 ** n * 2 ** n, "cor2": 4 ** n, "laplace": 2 * 2 ** n}


class Relations:
    """`relations --n 6 --json`: all four families through the sigma
    criterion."""

    name = "relations-n6"
    CONTROLS = 40

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.n = 4 if small else 6
        self.sizes = family_sizes(self.n)
        rng = random.Random(seed)
        total = sum(self.sizes.values())
        self.control_picks = {i: rng.random() for i in rng.sample(range(total), self.CONTROLS)}
        self.rc = None
        self.stdout = ""

    def run(self, lib) -> int:
        self.rc, self.stdout = call_cli(lib.cli, ["relations", "--n", str(self.n), "--json"])
        return sum(self.sizes.values())

    def check(self, lib) -> Outcome:
        out = Outcome()
        n = self.n
        canonical = [self.stdout]
        payload = json.loads(self.stdout) if self.stdout.strip() else {}
        reported = {rep["family"]: rep for rep in payload.get("families", [])}
        out.expect("relations exits 0 with a verified report",
                   self.rc == 0 and payload.get("verified") is True)
        out.expect("every family reports its instance count",
                   {f: reported.get(f, {}).get("instances") for f in self.sizes} == self.sizes)

        value = laplace_values(self.seed, n)
        index = 0
        pending = []  # a control picked on an empty relation moves to the next nonempty one
        for family in lib.RELATION_FAMILIES:
            failed_labels = set(reported.get(family, {}).get("failed", []))
            for label, rel in lib.relation_family(n, family):
                terms = sorted(((a.elements, b.elements), c) for (a, b), c in rel.items())
                canonical.append(f"{family} {label}: {terms}")
                ok = out.expect("every relation evaluates to 0",
                                sum(c * value[key] for key, c in terms) == 0)
                ok &= out.expect("no relation reported as failed", label not in failed_labels)
                if not ok:
                    out.failed += 1
                if index in self.control_picks:
                    pending.append(self.control_picks[index])
                if pending and terms:
                    self._control(out, lib, rel, terms, value, pending.pop())
                index += 1
        out.expect("generated relation count", index == sum(self.sizes.values()))
        out.expect("every negative control ran", out.controls == self.CONTROLS)
        out.digest = sha256(canonical)
        return out

    def _control(self, out, lib, rel, terms, value, pick) -> None:
        """Change one coefficient of a vanishing relation: the result is a
        nonzero multiple of one Laplace product, so it must be refused."""
        pos = int(pick * len(terms))
        delta = 1 if pick < 0.5 else -2
        changed = [(key, c + delta if i == pos else c) for i, (key, c) in enumerate(terms)]
        out.expect("changed relation evaluates to nonzero",
                   sum(c * value[key] for key, c in changed) != 0)
        out.control(not lib.check_relation(lib.LaplaceCombination(rel.ground, changed)))

    def golden(self) -> "Relations":
        return self


# -- independence-334 ----------------------------------------------------

class Independence:
    """verify_independence(3, 3, 4) followed by
    verify_relation_completeness(5)."""

    name = "independence-334"
    CONTROLS = 2

    def __init__(self, seed: int, small: bool):
        self.seed = seed
        self.m, self.n, self.factors = (3, 3, 2) if small else (3, 3, 4)
        self.ground = 3 if small else 5
        self.control_shape = (2, 2, 2) if small else (3, 3, 3)
        self.words = oracle.count_standard_words(self.m, self.n, self.factors)
        self.report = self.completeness = None

    def run(self, lib) -> int:
        self.report = lib.verify_independence(self.m, self.n, self.factors,
                                              factor_bound=max(3, self.factors))
        self.completeness = lib.verify_relation_completeness(self.ground,
                                                             ground_bound=max(4, self.ground))
        return self.words

    def check(self, lib) -> Outcome:
        out = Outcome()
        rep, comp = self.report, self.completeness
        words = self.words
        ok = out.expect("standard word count", rep.word_count == words)
        ok &= out.expect("rank equals word count", rep.rank == words)
        ok &= out.expect("independence verdict",
                         rep.witnesses_distinct and rep.decode_round_trip and rep.independent)
        pairs = oracle.size_matched_pairs(self.ground)
        good = sum(oracle.is_good(a, self.ground) and oracle.is_good(b, self.ground) for a, b in pairs)
        ok &= out.expect("completeness counts",
                         comp.pair_count == len(pairs) and comp.good_count == good
                         and comp.rank_good == good and comp.rank_all == good
                         and comp.fundamental_rank == len(pairs) - good)
        ok &= out.expect("completeness verdict", comp.complete)
        if not ok:
            out.failed += words
        fields = {
            "independence": [rep.m, rep.n, rep.max_factors, rep.N, rep.word_count, rep.rank,
                             rep.witnesses_distinct, rep.decode_round_trip, rep.independent],
            "completeness": [comp.n, comp.pair_count, comp.good_count, comp.rank_good,
                             comp.rank_all, comp.fundamental_rank, comp.all_reduce_to_good,
                             comp.reductions_oracle_verified, comp.complete],
        }
        out.digest = sha256([json.dumps(fields, sort_keys=True)])
        self._controls(out, lib)
        return out

    def _controls(self, out, lib) -> None:
        """A non-standard word lies in the span of the standard words with
        as many factors, so adding its expansion must not raise the rank."""
        m, n, k = self.control_shape
        expected = oracle.count_standard_words(m, n, k)
        base = [lib.expand_word(w) for w in lib.standard_words(m, n, k)]
        minors = all_minors(m)
        rng = random.Random(self.seed)
        for _ in range(self.CONTROLS):
            while True:
                word = [rng.choice(minors) for _ in range(rng.randint(2, k))]
                if not oracle.is_standard(word):
                    break
            extra = lib.expand_word(tuple(lib.Minor(r, c) for r, c in word))
            out.control(lib.polynomial_rank(base + [extra]) == expected)
        out.expect("every negative control ran", out.controls == self.CONTROLS)

    def golden(self) -> "Independence":
        return self


WORKLOADS = {w.name: w for w in (Certify, Laplace, Relations, Independence)}
