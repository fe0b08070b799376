"""Computational toolkit for braid groups.

Word and conjugacy problems through two Garside structures, pure-braid
linking invariants, cabling, kernel abelianizations of finitely presented
groups, and symmetric-group character arithmetic.
"""

from .words import (
    AutomorphismSpec,
    BraidWord,
    Permutation,
    apply_automorphism,
    band_generator,
    compose,
    conjugate,
    delete_strands,
    delta,
    exponent_sum,
    free_reduce,
    inverse,
    named_element,
    permutation_of,
    power,
    project_to_b3,
)
from .garside import (
    BandStructure,
    ClassicalStructure,
    GarsideStructure,
    Simple,
    band,
    classical,
    structure,
)
from .engine import (
    ConjugacyCertificate,
    GarsideNormalForm,
    SearchLimitExceeded,
    conjugacy_solve,
    cyclic_sliding,
    normal_form,
    sliding_circuits,
    words_equal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
