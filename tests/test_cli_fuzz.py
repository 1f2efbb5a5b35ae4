"""Fuzzing the CLI: random expressions for `straighten` and random JSON
mutations of a certificate for `verify`. Every run must end in exit 0, 1 or
2 with at most one line on stderr and no traceback, and every certificate
that `straighten` emits must pass `verify`."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from straightlaw.cli import main

GOOD = json.loads((Path(__file__).parent / "data" / "verify_good.json").read_text())


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1 and "Traceback" not in err


def _factor(rows, cols):
    return f"[{' '.join(map(str, rows))}|{' '.join(map(str, cols))}]"


indices = st.lists(st.integers(1, 4), max_size=2, unique=True)
terms = st.builds(
    lambda coeff, factors: coeff + "".join(factors),
    st.sampled_from(["", "2", "-", "+", "0"]),
    st.lists(st.builds(_factor, indices, indices), min_size=1, max_size=3),
)
# Well-formed sums, cut to 24 characters, and raw text over the grammar's
# alphabet.
expressions = st.one_of(
    st.lists(terms, min_size=1, max_size=3).map(lambda ts: " + ".join(ts)[:24]),
    st.text(alphabet="0123456789[]| +-", max_size=24),
)


# Long words on a 2x2 matrix: up to 30 factors of size at most 1 and at most
# three 2x2 factors, so the oracle cost stays at most 2**3, far under
# ORACLE_MAX_TERMS, and every word reaches the straightening.
small_factors = st.sampled_from(["[|]", "[1|1]", "[1|2]", "[2|1]", "[2|2]"])
long_words = st.tuples(
    st.integers(1, 30).flatmap(lambda k: st.lists(small_factors, min_size=k, max_size=k)),
    st.lists(st.just("[1 2|1 2]"), max_size=3),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1])).map("".join)
# Indices at and just past MAX_GROUND (64), next to small ones, with the
# dimensions inferred or given.
edge_indices = st.lists(st.sampled_from([1, 2, 63, 64, 65]), max_size=2, unique=True)
edge_words = st.lists(st.builds(_factor, edge_indices, edge_indices), min_size=1, max_size=3).map("".join)
edge_dims = st.sampled_from([[], ["--m", "64"], ["--n", "65"], ["--m", "65", "--n", "63"]])


def assert_straightens_cleanly(text, *flags):
    code, out, err = run(["straighten", *flags, "--", text])
    assert_clean_exit(code, err)
    if code == 0:
        code, out, err = run(["verify"], stdin=out)
        assert (code, err) == (0, "") and json.loads(out)["verified"] is True


@given(expressions)
@settings(max_examples=150, deadline=None)
def test_straighten_random_expressions(text):
    assert_straightens_cleanly(text)


@given(long_words)
@settings(max_examples=30, deadline=None)
def test_straighten_long_words(text):
    assert_straightens_cleanly(text)


@given(edge_words, edge_dims)
@settings(max_examples=60, deadline=None)
def test_straighten_indices_at_the_ground_bound(text, dims):
    assert_straightens_cleanly(text, *dims)


KEYS = ["schema", "input", "dims", "m", "n", "terms", "coeff", "factors", "rows", "cols", "x"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(-1e3, 1e3) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)
# Mostly values a certificate could hold (small ints and index lists), so
# that many mutants pass the schema check and reach the oracle.
replacements = st.one_of(st.integers(-1, 5), st.lists(st.integers(1, 4), max_size=3), json_values)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(cert, data):
    """Replace, delete or extend one randomly chosen node of cert."""
    path = data.draw(st.sampled_from(list(_paths(cert))))
    if not path:
        return data.draw(replacements)
    parent = cert
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "append"]))
    if action == "replace":
        parent[path[-1]] = data.draw(replacements)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], data.draw(replacements))
    else:
        parent[data.draw(st.sampled_from(KEYS))] = data.draw(replacements)
    return cert


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_verify_mutated_certificates(data):
    cert = copy.deepcopy(GOOD)
    for _ in range(data.draw(st.integers(1, 3))):
        cert = _mutate(cert, data)
    code, _, err = run(["verify"], stdin=json.dumps(cert))
    assert_clean_exit(code, err)
