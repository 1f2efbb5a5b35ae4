"""The checks that make straightening terminate: every rewrite must strictly
lower its input in the pair order, and a violation raises RuntimeError
instead of recursing. They are explicit checks, not asserts, so they also
hold under python -O."""

import subprocess
import sys
from pathlib import Path

import pytest

from straightlaw import (
    IndexSet,
    LaplaceCombination,
    Minor,
    WordCombination,
    normal_form,
    standard,
    straighten_laplace,
    straightening,
)


def test_strict_drop_is_checked(monkeypatch):
    # A relation term that does not drop would send the recursion back to
    # its own input; the check must refuse it before recursing.
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    monkeypatch.setattr(straightening, "relation_complementary",
                        lambda a, b, n: LaplaceCombination(n, {(a, b): 1, (b, a): 1}))
    with pytest.raises(RuntimeError, match="no strict drop"):
        straighten_laplace(IndexSet([1]), IndexSet([2]), 3)


def test_packed_bound_is_checked(monkeypatch):
    # Straightening sums results as 64-bit fields of one int; a sum whose
    # coefficients might reach 2**63 cannot be decoded exactly and must be
    # refused, here forced by inflating the cached bounds of the inputs.
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    a, n = IndexSet([3]), 3
    straighten_laplace(a, a, n)
    cache = straightening._STRAIGHTEN_CACHE
    del cache[(a, a, n)]
    for key, (packed, _) in cache.items():
        cache[key] = (packed, 2 ** 62)
    with pytest.raises(RuntimeError, match="64-bit"):
        straighten_laplace(a, a, n)


def test_head_drop_is_checked(monkeypatch):
    monkeypatch.setattr(standard, "_NF_CACHE", {})
    monkeypatch.setattr(standard, "straighten_pair", lambda f, g: WordCombination({(f, g): 1}))
    with pytest.raises(RuntimeError, match="no strict head drop"):
        normal_form(WordCombination({(Minor([2], [1]), Minor([1], [2])): 1}))


def test_invariant_checks_survive_python_O():
    tests = [f"{__file__}::{name}" for name in (
        "test_strict_drop_is_checked", "test_packed_bound_is_checked", "test_head_drop_is_checked")]
    # No test here uses hypothesis, whose pytest plugin takes seconds to import.
    plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", *plugins, *tests],
        capture_output=True, text=True, cwd=Path(__file__).parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout
