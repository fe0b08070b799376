"""Kernel abelianization by Schreier rewriting, and rank-two actions.

The commutator subgroup of the 4-strand braid group maps onto the even
permutations of four points; Schreier rewriting over that finite image plus
Smith reduction shows its pure part abelianizes to seven free generators;
the same reduction gives the Smith form of any integer matrix.
The complementary tools rewrite the projection kernel over its two free
generators and read off induced integer matrices.
"""

from braidkit import compose, inverse, named_element
from braidkit.subgroups import (
    action_matrix,
    b3_commutator_presentation,
    b4_commutator_presentation,
    basis_check,
    format_free_word,
    free_words_check,
    k4_rewrite,
    kernel_abelianization,
    smith_normal_form,
    T_MATRIX,
    U_MATRIX,
)
from braidkit.words import AutomorphismSpec

pres, image = b4_commutator_presentation()
print("presentation generators:", pres.generators)
ka = kernel_abelianization(pres, image)
print("invariant factors of the kernel:", ka.invariant_factors)

t = (1, -2)  # t = u v^-1 in these generators
basis = [(1,) + t, t + (1,), (1, 1, 1), t * 3, (4, 4), (3, 3), (4, 3, 4, 3)]
print("the seven products form a free basis:", basis_check(basis, ka))

pres3, image3 = b3_commutator_presentation()
ka3 = kernel_abelianization(pres3, image3)
print("\nthree-strand analogue has rank:", ka3.free_rank)

m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
snf = smith_normal_form(m)
print("Smith form of", m, "has diagonal", snf.factors, "and V =", snf.v)

print("\nrewriting over the free kernel on (c, w):")
u = named_element("u", 4)
w = named_element("w", 4)
conj = compose(u, w, inverse(u))
print("  u w u^-1 ->", format_free_word(k4_rewrite(conj)))

print("\ninduced matrices on the rank-two abelianizations:")
print("  conjugation by t on (c, w):", action_matrix(named_element("t", 4), "K4ab"))
print("  first inner generator on (u, t):",
      action_matrix(AutomorphismSpec.sigma_tilde(1, 3), "B3primeAb"))
print("  sign flip on (u, t):",
      action_matrix(AutomorphismSpec.lambda_(), "B3primeAb"))
print("T and U generate freely up to length 10:",
      free_words_check([T_MATRIX, U_MATRIX], 10))
