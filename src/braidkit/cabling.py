"""The cabling map and its partial inverses.

Cabling replaces the strands of a braid on k strands by braids running inside
tubes of widths m_1, ..., m_k: interior braids are inserted at the start of
their tubes and every crossing of the outer braid expands to a block of
crossings between the two tubes involved.  Splitting recovers the tubular
and interior braids of a cabled word in one walk over its letters, which
deletes the strands outside each part at once, verified by a re-cabling
round trip; extraction selects one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import words as W
from .words import BraidWord


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive tube widths."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(m < 1 for m in self.parts):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def count(self) -> int:
        return len(self.parts)

    @staticmethod
    def parse(text: str) -> "Composition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"bad composition: {text!r}") from None
        return Composition(parts)

    def format(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def block(self, i: int) -> tuple[int, ...]:
        """Strand labels of the i-th tube (1-based) at the start."""
        offset = sum(self.parts[: i - 1])
        return tuple(range(offset + 1, offset + self.parts[i - 1] + 1))


def _block_swap(offset: int, a: int, b: int) -> list[int]:
    """Positive word moving a block of width a over the next block of width b,
    starting at ``offset`` strands from the left."""
    out = []
    for i in range(a):
        for j in range(b):
            out.append(offset + a - i + j)
    return out


def cable(tubular: BraidWord, interiors: Sequence[BraidWord], comp: Composition) -> BraidWord:
    """Insert the interior braids into tubes and expand the tubular braid."""
    if tubular.strands != comp.count:
        raise ValueError("tubular strand count does not match the composition")
    if len(interiors) != comp.count:
        raise ValueError("need one interior braid per tube")
    for x, m in zip(interiors, comp.parts):
        if x.strands != m:
            raise ValueError("interior strand count does not match its tube width")
    n = comp.total
    letters: list[int] = []
    offset = 0
    for x, m in zip(interiors, comp.parts):
        letters.extend(k + (offset if k > 0 else -offset) for k in x.letters)
        offset += m
    widths = list(comp.parts)
    for k in tubular.letters:
        j = abs(k)
        offset = sum(widths[: j - 1])
        a, b = widths[j - 1], widths[j]
        if k > 0:
            letters.extend(_block_swap(offset, a, b))
        else:
            # a negative crossing is the inverse of the opposite-width swap
            letters.extend(-s for s in reversed(_block_swap(offset, b, a)))
        widths[j - 1], widths[j] = b, a
    return BraidWord(n, tuple(letters))


def mixed_membership(w: BraidWord, comp: Composition) -> bool:
    """Whether the permutation of w fixes the block-label vector of the
    composition (tubes return to their own positions, setwise)."""
    if w.strands != comp.total:
        raise ValueError("strand count does not match the composition")
    labels = []
    for i, m in enumerate(comp.parts, start=1):
        labels.extend([i] * m)
    mu = W.permutation_of(w)
    return all(labels[mu(i) - 1] == labels[i - 1] for i in range(1, w.strands + 1))


def extract(w: BraidWord, comp: Composition, which: str) -> BraidWord:
    """Recover the tubular braid (``which="tubular"``) or the i-th interior
    braid (``which="interior:i"``) of a cabled word.

    The parts are read off by strand deletion and the decomposition is
    certified by re-cabling; inputs that do not reproduce themselves are
    rejected as not tube preserving.
    """
    i = 0
    if which != "tubular":
        head, _, index = which.partition(":")
        try:
            i = int(index) if head == "interior" else None
        except ValueError:
            i = None
        if i is None:
            raise ValueError(f"unknown extraction {which!r}")
        if not 1 <= i <= comp.count:
            raise ValueError("interior index out of range")
    tubular, interiors = split(w, comp)
    return interiors[i - 1] if i else tubular


def _parts(w: BraidWord, comp: Composition) -> tuple[BraidWord, list[BraidWord]]:
    """The tubular braid and the interior braids of w, read positionally in
    one walk over its letters.  A crossing of two strands of one tube belongs
    to that tube's interior braid, a crossing of the first strands of two
    tubes to the tubular braid, and any other crossing to no part; so each
    part is the braid that deleting every strand outside it leaves."""
    tube = [0] * (w.strands + 1)  # the tube of each strand label
    first = [False] * (w.strands + 1)  # whether it starts its tube
    for i in range(1, comp.count + 1):
        block = comp.block(i)
        for s in block:
            tube[s] = i
        first[block[0]] = True
    arrangement = list(range(1, w.strands + 1))  # strand label at each position
    letters: list[list[int]] = [[] for _ in range(comp.count + 1)]  # tubular first
    for k in w.letters:
        pos = abs(k)  # crossing at positions pos, pos+1
        a, b = arrangement[pos - 1], arrangement[pos]
        if tube[a] == tube[b]:
            part = tube[a]
            j = sum(1 for s in arrangement[: pos - 1] if tube[s] == part) + 1
            letters[part].append(j if k > 0 else -j)
        elif first[a] and first[b]:
            j = sum(1 for s in arrangement[: pos - 1] if first[s]) + 1
            letters[0].append(j if k > 0 else -j)
        arrangement[pos - 1], arrangement[pos] = b, a
    return BraidWord(comp.count, tuple(letters[0])), [
        BraidWord(m, tuple(x)) for m, x in zip(comp.parts, letters[1:])
    ]


def split(w: BraidWord, comp: Composition) -> tuple[BraidWord, list[BraidWord]]:
    """The tubular braid and the list of interior braids of a cabled word,
    from one walk over the word and one re-cabling certificate."""
    if w.strands != comp.total:
        raise ValueError("strand count does not match the composition")
    tubular, interiors = _parts(w, comp)
    recabled = cable(tubular, interiors, comp)
    if not W.same_braid(recabled, w):
        raise ValueError("not tube-preserving for this composition")
    return tubular, interiors
