"""Minors, Laplace products, and the permutation criterion.

Walks through the basic objects: exact expansion of minors of a generic
matrix, the signed complementary products that generalize the Laplace
expansion of a determinant, and the finite criterion that decides whether an
integer combination of such products vanishes identically.
"""

from straightlaw import (
    EMPTY,
    IndexSet,
    LaplaceCombination,
    Minor,
    check_relation,
    eval_on_permutation,
    expand_minor,
    laplace_expansion,
    relation_fundamental,
)

print("== Minors of a generic matrix ==")
for rows, cols in [([1], [2]), ([1, 2], [1, 2]), ([1], [1, 2]), ((), ())]:
    mnr = Minor(IndexSet(rows), IndexSet(cols))
    print(f"  {mnr} expands to {expand_minor(mnr)}")

print()
print("== Laplace products on a 3x3 matrix ==")
print("A Laplace product pairs a minor with its complementary minor and a")
print("sign; {A|B} with A = B = {1,2,3} is the determinant itself.")
for rows, cols in [([1], [1]), ([2], [1]), ([1, 2, 3], [1, 2, 3])]:
    lp = LaplaceCombination(3, {(IndexSet(rows), IndexSet(cols)): 1})
    print(f"  {lp} = {lp.expand()}")

print()
print("== The classical Laplace expansion as a vanishing combination ==")
rel = laplace_expansion(IndexSet([1]), 2, side="cols")
print(f"  det X - sum over row sets against column {{1}}:  {rel}")
print(f"  expands to: {rel.expand()}  (zero, as it must)")

print()
print("== The permutation criterion ==")
print("A combination vanishes iff for every permutation the coefficients of")
print("the terms it matches sum to zero. No polynomial expansion needed:")
rel = relation_fundamental(EMPTY, IndexSet([1]), 2)
print(f"  {rel}: check_relation -> {check_relation(rel)}")
bogus = LaplaceCombination(2, {(IndexSet([1]), IndexSet([1])): 1})
print(f"  {bogus}: check_relation -> {check_relation(bogus)}")

print()
print("Evaluating {1|2} on the transposition matrix (1 2):")
print(f"  value = {eval_on_permutation([1], [2], (2, 1))}")
