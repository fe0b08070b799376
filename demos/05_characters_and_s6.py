"""Symmetric-group character arithmetic and the degree-6 outer automorphism.

Character values come from the border-strip recursion; decomposition into
irreducibles is an exact inner-product computation.  The decomposed modules
lie in the symmetric square of the permutation module, whose characters
depend on a permutation only through its fixed points f and 2-cycles c, so
each inner product is a sum over the pairs (f, c).  The exceptional
automorphism of the degree-6 group swaps the two classes of order-3
elements, which is what separates the two constituents of the trace-zero
module.
"""

from braidkit.reptheory import (
    character_value,
    decompose,
    hook_dimension,
    nu_map,
    partitions,
    span_identity_holds,
)
from braidkit.words import Permutation

print("character table row for the partition (5,1):")
for rho in partitions(6):
    print(f"  class {rho}: {character_value((5, 1), rho)}")

print("\ndimensions by hooks: (5,1) ->", hook_dimension((5, 1)),
      "  (4,2) ->", hook_dimension((4, 2)))

print("\nsymmetric square of the 6-point permutation module:")
for lam, mult in sorted(decompose("Sym2Standard", 6).items(), reverse=True):
    print(f"  {lam}: {mult}")

print("\ntrace-zero part (the symmetric square minus the permutation and "
      "trivial modules):")
for lam, mult in sorted(decompose("Wmodule", 6).items(), reverse=True):
    print(f"  {lam}: {mult}")

print("\nexact span identity holds for n = 5, 6, 7:",
      all(span_identity_holds(n) for n in (5, 6, 7)))

print("\nouter automorphism of the degree-6 group:")
for cycles in ([(1, 2)], [(1, 2, 3, 4, 5, 6)], [(1, 2, 3)], [(1, 2, 3), (4, 5, 6)]):
    g = Permutation.from_cycles(6, cycles)
    print(f"  {g}  ->  {nu_map(g)}")
print("the single 3-cycles and the double 3-cycles trade places, so the")
print("(5,1)-character cannot survive the twist: values",
      character_value((5, 1), (3, 1, 1, 1)), "vs",
      character_value((5, 1), (3, 3)))
