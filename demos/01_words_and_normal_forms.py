"""Braid words and Garside normal forms, in both structures.

A braid word is a sequence of signed Artin letters.  Computing the left
normal form answers the word problem: two words are equal exactly when
their forms coincide.
"""

from braidkit import BraidWord, classical, band, delta, normal_form, words_equal
from braidkit import compose, inverse, power, exponent_sum, permutation_of

w = BraidWord.parse("B4: 1 3 -2 2 1")
print("word:", w)
print("exponent sum:", exponent_sum(w))
print("permutation:", permutation_of(w))

st = classical(4)
nf = normal_form(st, w)
print("\nclassical left normal form:")
print("  inf =", nf.inf, " canonical length =", nf.canonical_length)
for f in nf.factors:
    print("  factor:", " ".join(map(str, st.simple_word(f))))

bs = band(4)
nfb = normal_form(bs, w)
print("\nband (dual) left normal form:")
print("  inf =", nfb.inf, " canonical length =", nfb.canonical_length)
for f in nfb.factors:
    # the cycles of a band simple's permutation are the blocks of its
    # non-crossing partition
    print("  factor (permutation):", bs.simple_permutation(f))

print("\nthe two defining relations:")
print("  s1 s2 s1 == s2 s1 s2:",
      words_equal(classical(3), BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))))
print("  s1 s3 == s3 s1:",
      words_equal(st, BraidWord(4, (1, 3)), BraidWord(4, (3, 1))))

d2 = power(delta(4), 2)
g = BraidWord(4, (2,))
print("\nthe full twist is central:",
      words_equal(st, compose(g, d2), compose(d2, g)))

print("free cancellation: w * w^-1 is trivial:",
      normal_form(st, compose(w, inverse(w))).is_trivial())
