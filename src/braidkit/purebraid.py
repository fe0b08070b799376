"""Linking numbers and abelianization coordinates of pure braids.

The linking number of strands i and j is the half-sum of the signs of their
mutual crossings; collecting all pairs gives the coordinates of a pure braid
in the free abelian quotient, and the trace-zero sublattice receives the
commutator pure braids once there are at least five strands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import words as W
from .words import BraidWord


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric integer matrix of pairwise strand linking numbers."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return self.entries[i - 1][j - 1]

    def vector(self) -> tuple[int, ...]:
        """Entries above the diagonal, pairs (i, j) with i < j in lex order."""
        return tuple(
            self.entries[i][j]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def to_json(self) -> str:
        triples = [
            [i + 1, j + 1, self.entries[i][j]]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]
        return json.dumps(triples, separators=(",", ":"))


def linking_matrix(w: BraidWord) -> LinkingMatrix:
    """Pairwise linking numbers of a pure braid (single pass over the word)."""
    if not W.permutation_of(w).is_identity():
        raise ValueError("linking numbers are defined for pure braids only")
    n = w.strands
    doubled = [[0] * n for _ in range(n)]
    arrangement = list(range(n))
    for k in w.letters:
        pos = abs(k) - 1
        a, b = arrangement[pos], arrangement[pos + 1]
        sign = 1 if k > 0 else -1
        doubled[a][b] += sign
        doubled[b][a] += sign
        arrangement[pos], arrangement[pos + 1] = b, a
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            if doubled[i][j] % 2:
                raise ValueError("half-integer linking number: input is not pure")
            row.append(doubled[i][j] // 2)
        entries.append(tuple(row))
    return LinkingMatrix(n, tuple(entries))


def membership(w: BraidWord, which: str) -> bool:
    """Membership in the pure braids, the commutator subgroup, or their
    intersection."""
    if which == "pure":
        return W.permutation_of(w).is_identity()
    if which == "commutator":
        return W.exponent_sum(w) == 0
    if which == "J":
        return membership(w, "pure") and membership(w, "commutator")
    raise ValueError(f"unknown membership predicate {which!r}")


def abelianize_pure(w: BraidWord, target: str = "P") -> tuple[int, ...]:
    """Coordinates of a pure braid in the free abelian quotient, indexed by
    strand pairs i < j in lex order.

    ``target="J"`` additionally requires exponent sum zero and at least five
    strands; below five strands these coordinates are not faithful on the
    intersection subgroup (use the subgroup machinery instead).
    """
    if target not in ("P", "J"):
        raise ValueError(f"unknown target {target!r}")
    if not membership(w, "pure"):
        raise ValueError("not a pure braid")
    if target == "J":
        if W.exponent_sum(w) != 0:
            raise ValueError("not in the commutator subgroup")
        if w.strands < 5:
            raise ValueError(
                "coordinates are faithful only for n >= 5; "
                "use subgroups.kernel_abelianization for fewer strands"
            )
    vec = linking_matrix(w).vector()
    if target == "J":
        assert sum(vec) == 0
    return vec


def periodic_degree(w: BraidWord) -> int | None:
    """d if the pure braid is the d-th power of the full twist, else None:
    the full twist has exponent sum n(n - 1), so only d = e / (n(n - 1)) for
    the exponent sum e can fit, and ``words.same_braid`` decides that one."""
    if not membership(w, "pure"):
        raise ValueError("degree is defined for pure braids only")
    n = w.strands
    if n == 1:
        return 0
    d, rest = divmod(W.exponent_sum(w), n * (n - 1))
    if rest or not W.same_braid(w, W.power(W.delta(n), 2 * d)):
        return None
    return d
