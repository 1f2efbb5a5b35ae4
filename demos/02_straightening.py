"""Straightening: rewriting products into the good/ordered shape.

Shows the two rewriting layers. Laplace products are rewritten into integer
combinations indexed by good sets only; products of two arbitrary minors of a
rectangular matrix are rewritten so the first factor drops strictly in the
dominance order. Every identity is certified by expanding both sides into
exact polynomials.
"""

from straightlaw import (
    IndexSet,
    Minor,
    expand_laplace,
    expand_minor,
    is_good,
    merge_map,
    straighten_laplace,
    straighten_pair,
)

print("== Good and bad index sets ==")
for elems, n in [([1], 2), ([2], 2), ([1, 2], 3), ([2, 3], 3)]:
    s = IndexSet(elems)
    print(f"  {s} in ground {n}: {'good' if is_good(s, n) else 'bad'}")

print()
print("== Straightening a bad Laplace product ==")
a, b = IndexSet([2]), IndexSet([2])
combo = straighten_laplace(a, b, 2)
print(f"  {{2|2}} on a 2x2 matrix rewrites to: {combo}")
print(f"  both sides expand to: {expand_laplace(a, b, 2)}")

combo3 = straighten_laplace(IndexSet([3]), IndexSet([3]), 3)
print(f"  {{3|3}} on a 3x3 matrix rewrites to: {combo3}")
assert combo3.expand() == expand_laplace([3], [3], 3)
print("  oracle expansion equality holds.")

print()
print("== The order-preserving merge behind the minor rewrite ==")
mm = merge_map(IndexSet([1, 3]), IndexSet([1, 2]))
print(f"  merging {{1,3}} and {{1,2}}: positions 1..{mm.size} carry values {mm.values}")
print(f"  first-set positions {mm.first}, second-set positions {mm.second}")

print()
print("== Straightening a product of two minors ==")
f1, f2 = Minor([2], [1]), Minor([1], [2])
out = straighten_pair(f1, f2)
print(f"  {f1}{f2} rewrites to: {out}")
lhs = expand_minor(f1) * expand_minor(f2)
print(f"  left side  = {lhs}")
print(f"  right side = {out.expand()}")
assert lhs == out.expand()
print("  exact equality certified.")
