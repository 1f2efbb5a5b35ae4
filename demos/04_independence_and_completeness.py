"""Independence of standard monomials, and completeness of the fundamental
relations.

Two certification routes run side by side. Substituting X = Y Z turns every
standard monomial into a polynomial whose leading monomial is a decodable
witness, and distinct standard monomials get distinct witnesses. In parallel,
the exact integer rank of the expansion matrix over the generic X equals the
number of standard monomials. Finally, the good Laplace products span all of
them and the fundamental relation family generates every linear relation.
"""

from straightlaw import (
    IndexSet,
    Minor,
    decode_leading,
    format_monomial,
    minor_leading_monomial,
    monomial_part,
    verify_independence,
    verify_relation_completeness,
    word_leading_witness,
)

print("== Leading witnesses under X = Y Z ==")
N = 2
for rows, cols in [([1], [2]), ([1, 2], [1, 2])]:
    lead = minor_leading_monomial(IndexSet(rows), IndexSet(cols), N)
    print(f"  witness of [{' '.join(map(str, rows))}|{' '.join(map(str, cols))}]: "
          f"{format_monomial(lead)}")

word = (Minor([1, 2], [1, 2]), Minor([2], [2]))
wit = word_leading_witness(word, N)
print(f"  witness of {''.join(map(str, word))}: {format_monomial(wit)}")
ypart = monomial_part(wit, 'y')
print(f"  decoding the y-part recovers the row chain: "
      f"{[str(s) for s in decode_leading(ypart, 'rows')]}")

print()
print("== Independence report (2x2 matrix, up to 3 factors) ==")
print(verify_independence(2, 2, 3).summary())

print()
print("== Independence report (3x3 matrix, up to 2 factors) ==")
print(verify_independence(3, 3, 2).summary())

print()
print("== Completeness of the fundamental relations (n = 3) ==")
print(verify_relation_completeness(3).summary())
