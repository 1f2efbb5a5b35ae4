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

from conftest import all_subsets


def _fresh_caches(monkeypatch):
    monkeypatch.setattr(straightening, "_STRAIGHTEN_CACHE", {})
    monkeypatch.setattr(straightening, "_SUPERSET_SUMS", {})


A, B, N = IndexSet([1]), IndexSet([2]), 3


def test_strict_drop_is_checked(monkeypatch):
    # A relation term that does not drop would send the recursion back to
    # its own input; the check must refuse it before recursing. The blocks
    # replace superset_blocks(A, B, N): the column B block is the target
    # alone, and the row set {2,3} of the next block is not below A = {1}.
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(straightening, "superset_blocks", lambda a, b, n: [
        ((A,), (B,), 1), ((IndexSet([2, 3]),), (IndexSet([1, 2]),), -1)])
    with pytest.raises(RuntimeError, match="no strict drop from row set"):
        straighten_laplace(A, B, N)


def test_column_drop_is_checked(monkeypatch):
    # As above at ground 4, with a block whose row set {1,2} is below A but
    # whose column set {3,4} is not below B = {2}.
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(straightening, "superset_blocks", lambda a, b, n: [
        ((A,), (B,), 1), ((IndexSet([1, 2]),), (IndexSet([3, 4]),), 1)])
    with pytest.raises(RuntimeError, match="no strict drop .* to column set"):
        straighten_laplace(A, B, 4)


def test_strict_drop_is_checked_on_inclusion_exclusion(monkeypatch):
    # ({1}, {2}) at ground 2 is not small and its column set is bad, so it is
    # solved from inclusion_exclusion_blocks; here the term (b, a) does not
    # lower the row set.
    a, b, n = IndexSet([1]), IndexSet([2]), 2
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(straightening, "inclusion_exclusion_blocks",
                        lambda *args: [((a,), (b,), 1), ((b,), (a,), 1)])
    with pytest.raises(RuntimeError, match="no strict drop from row set"):
        straighten_laplace(a, b, n)


def test_target_block_is_checked(monkeypatch):
    # Column B must occur once, with the row sets (A,): only then does the
    # target carry the unit coefficient the solver divides by.
    lower = ((IndexSet([1, 2]),), (IndexSet([1, 3]),), 1)
    cases = [
        ([((A, IndexSet([3])), (B,), 1)], "is not alone"),
        ([((A,), (B,), 1), lower, ((A,), (B,), -1)], "is not alone"),
        ([lower], "unit coefficient"),
        ([((A,), (B,), 2), lower], "unit coefficient"),
    ]
    for blocks, message in cases:
        _fresh_caches(monkeypatch)
        monkeypatch.setattr(straightening, "superset_blocks", lambda a, b, n: blocks)
        with pytest.raises(RuntimeError, match=message):
            straighten_laplace(A, B, N)


def test_drop_checks_test_supersets_on_masks(monkeypatch):
    # A proper superset is below its subset in the pair order, so the drop
    # checks decide it on masks and call leq or lt only for other sets. Over
    # a cold sweep at ground 6 every row set of a block sum is a superset,
    # while the column rule's lower column sets still reach lt.
    calls = []

    def spy(check):
        def counted(s, t):
            calls.append((check, s, t))
            return check(s, t)
        return counted

    _fresh_caches(monkeypatch)
    monkeypatch.setattr(straightening, "leq", spy(straightening.leq))
    monkeypatch.setattr(straightening, "lt", spy(straightening.lt))
    subsets = all_subsets(6)
    for a in subsets:
        for b in subsets:
            if len(a) == len(b):
                straighten_laplace(a, b, 6)
    assert not [(s, t) for _, s, t in calls if s != t and not t & ~s]
    assert {check.__name__ for check, _, _ in calls} == {"lt"}


def test_lower_row_set_that_is_no_superset_passes(monkeypatch):
    # {1,3} is below {2} in the pair order without containing it: the row
    # drop check must fall back to leq and accept it.
    _fresh_caches(monkeypatch)
    a = IndexSet([2])
    monkeypatch.setattr(straightening, "superset_blocks", lambda *args: [
        ((a,), (a,), 1), ((IndexSet([1, 3]),), (IndexSet([1, 2]),), -1)])
    assert straighten_laplace(a, a, N) == LaplaceCombination(N, {(IndexSet([1, 3]), IndexSet([1, 2])): 1})


def _inflated_bounds(monkeypatch):
    """The caches after straightening ({3}, {3}) at ground 3, without that
    result, and with every other cached bound inflated to 2**30."""
    _fresh_caches(monkeypatch)
    a, n = IndexSet([3]), 3
    straighten_laplace(a, a, n)
    del straightening._STRAIGHTEN_CACHE[(a, a, n)]
    for cache in (straightening._STRAIGHTEN_CACHE, straightening._SUPERSET_SUMS):
        for key, (packed, _) in cache.items():
            cache[key] = (packed, 2 ** 30)
    return a, n


def test_packed_bound_is_checked(monkeypatch):
    # Straightening sums results as 32-bit fields of one int; a sum whose
    # coefficients might reach 2**31 cannot be decoded exactly and must be
    # refused, here forced by inflating the cached bounds of the inputs.
    # With the superset sums cleared, a block sum of two inputs overflows.
    a, n = _inflated_bounds(monkeypatch)
    straightening._SUPERSET_SUMS.clear()
    with pytest.raises(RuntimeError, match=r"supersets of \{3\}\|\{1,3\} may reach 2147483648, .* 32-bit"):
        straighten_laplace(a, a, n)


def test_packed_bound_is_checked_on_block_sums(monkeypatch):
    # With the superset sums kept at inflated bounds, the sum of the three
    # blocks above ({3}, {3}) overflows.
    a, n = _inflated_bounds(monkeypatch)
    with pytest.raises(RuntimeError, match=r"straightening \{3\}\|\{3\} may reach 3221225472, .* 32-bit"):
        straighten_laplace(a, a, n)


def test_head_drop_is_checked(monkeypatch):
    monkeypatch.setattr(standard, "_NF_CACHE", {})
    monkeypatch.setattr(standard, "straighten_pair", lambda f, g: WordCombination({(f, g): 1}))
    with pytest.raises(RuntimeError, match="no strict head drop"):
        normal_form(WordCombination({(Minor([2], [1]), Minor([1], [2])): 1}))


def test_invariant_checks_survive_python_O():
    names = ("test_strict_drop_is_checked", "test_column_drop_is_checked",
             "test_strict_drop_is_checked_on_inclusion_exclusion", "test_target_block_is_checked",
             "test_packed_bound_is_checked", "test_packed_bound_is_checked_on_block_sums",
             "test_head_drop_is_checked")
    tests = [f"{__file__}::{name}" for name in names]
    # No test here uses hypothesis, whose pytest plugin takes seconds to import.
    plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", *plugins, *tests],
        capture_output=True, text=True, cwd=Path(__file__).parent.parent,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7 passed" in proc.stdout
