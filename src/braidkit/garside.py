"""Two concrete Garside structures on the braid group.

The classical structure has the half twist as Garside element and the
permutation braids as simple elements; the band-generator structure has the
descending cycle delta = s_{n-1}...s_1 as Garside element and one simple
element per non-crossing partition of the strand set.

Simple elements are stored in canonical form (a permutation, or the blocks of
a partition), never as words; words are produced on demand.  Equality and
hashing are therefore O(1) dictionary operations.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple

from .words import Permutation, band_generator


class Simple(NamedTuple):
    """A simple element: ``kind`` names the structure, ``key`` the canonical form.

    For the classical structure the key is the 0-based image tuple of the
    underlying permutation; for the band structure it is the tuple of blocks
    (1-based, sorted, singletons included) of a non-crossing partition.
    """

    kind: str
    n: int
    key: tuple


# -- permutation helpers on 0-based image tuples ----------------------------


def _pmul(a: tuple, b: tuple) -> tuple:
    """Apply a, then b."""
    return tuple(b[x] for x in a)


def _pinv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _inversions(a: tuple) -> int:
    n = len(a)
    return sum(1 for i in range(n) for j in range(i + 1, n) if a[i] > a[j])


class GarsideStructure:
    """Shared interface of the two structures.

    Subclasses provide the canonical-form arithmetic; everything generic
    (normal forms, sliding, conjugacy) lives in the engine module and only
    calls these methods.
    """

    kind: str

    def __init__(self, n: int, cap: int):
        if n < 1:
            raise ValueError("need at least one strand")
        self.n = n
        self.cap = cap

    # subclass surface ------------------------------------------------------
    def identity(self) -> Simple:
        raise NotImplementedError

    def delta(self) -> Simple:
        raise NotImplementedError

    def atoms(self) -> tuple[Simple, ...]:
        raise NotImplementedError

    def simples(self) -> tuple[Simple, ...]:
        raise NotImplementedError

    def atom_length(self, s: Simple) -> int:
        raise NotImplementedError

    def mul(self, a: Simple, b: Simple) -> Simple | None:
        """The product a.b if it is again simple, else None."""
        raise NotImplementedError

    def meet(self, a: Simple, b: Simple) -> Simple:
        """Greatest common prefix of a and b."""
        raise NotImplementedError

    def left_divides(self, a: Simple, b: Simple) -> bool:
        raise NotImplementedError

    def left_quotient(self, t: Simple, s: Simple) -> Simple:
        """t^-1 s for a prefix t of s."""
        raise NotImplementedError

    def complement(self, s: Simple) -> Simple:
        """s^-1 . delta."""
        raise NotImplementedError

    def left_complement(self, s: Simple) -> Simple:
        """delta . s^-1."""
        raise NotImplementedError

    def twist(self, s: Simple) -> Simple:
        """delta^-1 s delta."""
        raise NotImplementedError

    def untwist(self, s: Simple) -> Simple:
        raise NotImplementedError

    def mirror(self, s: Simple) -> Simple:
        """Image of s under the anti-automorphism that reverses a word and
        sends s_j to s_(n-j); it fixes delta and swaps prefixes with suffixes."""
        raise NotImplementedError

    twist_order: int

    def letter_simple(self, j: int) -> Simple:
        """The atom of the positive Artin letter j."""
        raise NotImplementedError

    def simple_word(self, s: Simple) -> tuple[int, ...]:
        """A positive Artin word for s (deterministic)."""
        raise NotImplementedError

    # shared ----------------------------------------------------------------
    def is_identity(self, s: Simple) -> bool:
        return s == self.identity()

    def is_delta(self, s: Simple) -> bool:
        return s == self.delta()

    def twist_pow(self, s: Simple, k: int) -> Simple:
        k %= self.twist_order
        for _ in range(k):
            s = self.twist(s)
        return s

    def normalize_pair(self, x: Simple, y: Simple) -> tuple[Simple, Simple, bool]:
        """Make the adjacent pair (x, y) left weighted by moving the
        largest possible prefix of y onto x."""
        t = self.meet(self.complement(x), y)
        if self.is_identity(t):
            return x, y, False
        return self.mul(x, t), self.left_quotient(t, y), True

    def pair_is_left_weighted(self, x: Simple, y: Simple) -> bool:
        return self.is_identity(self.meet(self.complement(x), y))

    def right_meet(self, a: Simple, b: Simple) -> Simple:
        """Greatest common suffix of a and b."""
        raise NotImplementedError

    def pair_is_right_weighted(self, x: Simple, y: Simple) -> bool:
        return self.is_identity(self.right_meet(x, self.left_complement(y)))

    def simple_permutation(self, s: Simple) -> Permutation:
        return Permutation(tuple(v + 1 for v in self._perm0(s)))

    def _perm0(self, s: Simple) -> tuple:
        raise NotImplementedError


class ClassicalStructure(GarsideStructure):
    """Garside element: the half twist; simples: permutation braids."""

    kind = "classical"
    twist_order = 2

    def __init__(self, n: int, cap: int = 8):
        super().__init__(n, cap)
        self._w0 = tuple(range(n - 1, -1, -1))
        self._id = tuple(range(n))

    def identity(self) -> Simple:
        return Simple(self.kind, self.n, self._id)

    def delta(self) -> Simple:
        return Simple(self.kind, self.n, self._w0)

    def _wrap(self, key: tuple) -> Simple:
        return Simple(self.kind, self.n, key)

    def atoms(self) -> tuple[Simple, ...]:
        return tuple(self.letter_simple(j) for j in range(1, self.n))

    def simples(self) -> tuple[Simple, ...]:
        if self.n > self.cap:
            raise ValueError(
                f"enumeration cap exceeded: n={self.n} > cap={self.cap}"
            )
        return tuple(
            self._wrap(p) for p in itertools.permutations(range(self.n))
        )

    def atom_length(self, s: Simple) -> int:
        return _inversions(s.key)

    def mul(self, a: Simple, b: Simple) -> Simple | None:
        c = _pmul(a.key, b.key)
        if _inversions(a.key) + _inversions(b.key) != _inversions(c):
            return None
        return self._wrap(c)

    def meet(self, a: Simple, b: Simple) -> Simple:
        # Greedy common-prefix extraction: any letter starting both operands
        # starts the meet, and the quotients reduce the problem.
        x, y = list(a.key), list(b.key)
        m = list(self._id)
        n = self.n
        while True:
            j = next(
                (j for j in range(n - 1) if x[j] > x[j + 1] and y[j] > y[j + 1]),
                None,
            )
            if j is None:
                return self._wrap(tuple(m))
            pj, pj1 = m.index(j), m.index(j + 1)
            m[pj], m[pj1] = j + 1, j
            x[j], x[j + 1] = x[j + 1], x[j]
            y[j], y[j + 1] = y[j + 1], y[j]

    def left_divides(self, a: Simple, b: Simple) -> bool:
        q = _pmul(_pinv(a.key), b.key)
        return _inversions(a.key) + _inversions(q) == _inversions(b.key)

    def left_quotient(self, t: Simple, s: Simple) -> Simple:
        return self._wrap(_pmul(_pinv(t.key), s.key))

    def right_meet(self, a: Simple, b: Simple) -> Simple:
        # Mirror of meet: grow a common suffix from shared final letters.
        x, y = list(a.key), list(b.key)
        xi, yi = list(_pinv(a.key)), list(_pinv(b.key))
        m = list(self._id)
        n = self.n
        while True:
            j = next(
                (
                    j
                    for j in range(n - 1)
                    if xi[j] > xi[j + 1] and yi[j] > yi[j + 1]
                ),
                None,
            )
            if j is None:
                return self._wrap(tuple(m))
            m[j], m[j + 1] = m[j + 1], m[j]
            for arr, inv_arr in ((x, xi), (y, yi)):
                pj, pj1 = inv_arr[j], inv_arr[j + 1]
                arr[pj], arr[pj1] = j + 1, j
                inv_arr[j], inv_arr[j + 1] = pj1, pj

    def complement(self, s: Simple) -> Simple:
        si = _pinv(s.key)
        n = self.n
        return self._wrap(tuple(n - 1 - si[i] for i in range(n)))

    def left_complement(self, s: Simple) -> Simple:
        si = _pinv(s.key)
        n = self.n
        return self._wrap(tuple(si[n - 1 - i] for i in range(n)))

    def twist(self, s: Simple) -> Simple:
        k = s.key
        n = self.n
        return self._wrap(tuple(n - 1 - k[n - 1 - i] for i in range(n)))

    untwist = twist

    def mirror(self, s: Simple) -> Simple:
        si = _pinv(s.key)
        n = self.n
        return self._wrap(tuple(n - 1 - si[n - 1 - i] for i in range(n)))

    def letter_simple(self, j: int) -> Simple:
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"letter {j} out of range")
        key = list(self._id)
        key[j - 1], key[j] = key[j], key[j - 1]
        return self._wrap(tuple(key))

    def simple_word(self, s: Simple) -> tuple[int, ...]:
        x = list(s.key)
        n = self.n
        letters = []
        while True:
            j = next((j for j in range(n - 1) if x[j] > x[j + 1]), None)
            if j is None:
                return tuple(letters)
            letters.append(j + 1)
            x[j], x[j + 1] = x[j + 1], x[j]

    def normalize_pair(self, x: Simple, y: Simple) -> tuple[Simple, Simple, bool]:
        # Descent transfer: move letters from the head of y to the tail of x
        # while some letter starts y but does not finish x.
        n = self.n
        a = list(x.key)
        ai = [0] * n
        for i, v in enumerate(a):
            ai[v] = i
        b = list(y.key)
        changed = False
        while True:
            j = next(
                (
                    j
                    for j in range(n - 1)
                    if b[j] > b[j + 1] and not ai[j] > ai[j + 1]
                ),
                None,
            )
            if j is None:
                break
            changed = True
            pj, pj1 = ai[j], ai[j + 1]
            a[pj], a[pj1] = j + 1, j
            ai[j], ai[j + 1] = pj1, pj
            b[j], b[j + 1] = b[j + 1], b[j]
        if not changed:
            return x, y, False
        return self._wrap(tuple(a)), self._wrap(tuple(b)), True

    def pair_is_left_weighted(self, x: Simple, y: Simple) -> bool:
        ai = _pinv(x.key)
        b = y.key
        return all(
            ai[j] > ai[j + 1]
            for j in range(self.n - 1)
            if b[j] > b[j + 1]
        )

    def _perm0(self, s: Simple) -> tuple:
        return s.key


def _blocks_crossing(x: tuple, y: tuple) -> bool:
    merged = sorted([(v, 0) for v in x] + [(v, 1) for v in y])
    runs = 0
    last = None
    for _, tag in merged:
        if tag != last:
            runs += 1
            last = tag
    return runs >= 4


def _is_noncrossing(blocks: Iterable[tuple]) -> bool:
    blocks = [b for b in blocks if len(b) > 1]
    return not any(
        _blocks_crossing(x, y) for x, y in itertools.combinations(blocks, 2)
    )


class BandStructure(GarsideStructure):
    """Garside element: the descending cycle; simples: non-crossing partitions.

    Atoms are the bands crossing strands s < t in front of the strands in
    between; the simple of a partition is the product of one descending cycle
    per block, blocks ordered by their minimum.
    """

    kind = "band"

    def __init__(self, n: int, cap: int = 10):
        super().__init__(n, cap)
        self.twist_order = max(n, 1)
        self._id_blocks = tuple((i,) for i in range(1, n + 1))
        self._delta_blocks = (tuple(range(1, n + 1)),)
        self._delta_perm = tuple((i + 1) % n for i in range(n))

    def identity(self) -> Simple:
        return Simple(self.kind, self.n, self._id_blocks)

    def delta(self) -> Simple:
        return Simple(self.kind, self.n, self._delta_blocks)

    def _wrap(self, blocks) -> Simple:
        return Simple(self.kind, self.n, tuple(sorted(tuple(sorted(b)) for b in blocks)))

    # block/permutation conversions
    def _perm0(self, s: Simple) -> tuple:
        images = list(range(self.n))
        for block in s.key:
            for a, b in zip(block, block[1:] + (block[0],)):
                images[a - 1] = b - 1
        return tuple(images)

    def _from_perm0(self, p: tuple) -> Simple | None:
        n = self.n
        seen = [False] * n
        blocks = []
        for start in range(n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            v = p[start]
            while v != start:
                cycle.append(v)
                seen[v] = True
                v = p[v]
            block = tuple(sorted(e + 1 for e in cycle))
            # the cycle must send each entry to the next larger one
            for a, b in zip(block, block[1:] + (block[0],)):
                if p[a - 1] != b - 1:
                    return None
            blocks.append(block)
        if not _is_noncrossing(blocks):
            return None
        return self._wrap(blocks)

    def atoms(self) -> tuple[Simple, ...]:
        out = []
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                singles = [(k,) for k in range(1, self.n + 1) if k not in (i, j)]
                out.append(self._wrap(singles + [(i, j)]))
        return tuple(out)

    def simples(self) -> tuple[Simple, ...]:
        if self.n > self.cap:
            raise ValueError(
                f"enumeration cap exceeded: n={self.n} > cap={self.cap}"
            )
        return tuple(
            self._wrap(blocks)
            for blocks in _noncrossing_partitions(tuple(range(1, self.n + 1)))
        )

    def atom_length(self, s: Simple) -> int:
        return self.n - len(s.key)

    def mul(self, a: Simple, b: Simple) -> Simple | None:
        c = _pmul(self._perm0(a), self._perm0(b))
        r = self._from_perm0(c)
        if r is None:
            return None
        if self.atom_length(a) + self.atom_length(b) != self.atom_length(r):
            return None
        return r

    def meet(self, a: Simple, b: Simple) -> Simple:
        index_b = {}
        for i, block in enumerate(b.key):
            for v in block:
                index_b[v] = i
        pieces = {}
        for i, block in enumerate(a.key):
            for v in block:
                pieces.setdefault((i, index_b[v]), []).append(v)
        return self._wrap(pieces.values())

    def left_divides(self, a: Simple, b: Simple) -> bool:
        index_b = {}
        for i, block in enumerate(b.key):
            for v in block:
                index_b[v] = i
        return all(len({index_b[v] for v in block}) == 1 for block in a.key)

    def _simple_of_perm0(self, p: tuple) -> Simple:
        r = self._from_perm0(p)
        if r is None:
            raise ValueError(
                f"permutation {p} is not a simple element of band({self.n})"
            )
        return r

    def left_quotient(self, t: Simple, s: Simple) -> Simple:
        return self._simple_of_perm0(_pmul(_pinv(self._perm0(t)), self._perm0(s)))

    # Left and right divisors of a band simple coincide (reflection length is
    # invariant under inversion and conjugation), so the suffix lattice is the
    # same refinement lattice.
    def right_meet(self, a: Simple, b: Simple) -> Simple:
        return self.meet(a, b)

    def complement(self, s: Simple) -> Simple:
        return self._simple_of_perm0(_pmul(_pinv(self._perm0(s)), self._delta_perm))

    def left_complement(self, s: Simple) -> Simple:
        return self._simple_of_perm0(_pmul(self._delta_perm, _pinv(self._perm0(s))))

    def twist(self, s: Simple) -> Simple:
        dp = self._delta_perm
        return self._simple_of_perm0(_pmul(_pmul(_pinv(dp), self._perm0(s)), dp))

    def untwist(self, s: Simple) -> Simple:
        dp = self._delta_perm
        return self._simple_of_perm0(_pmul(_pmul(dp, self._perm0(s)), _pinv(dp)))

    def mirror(self, s: Simple) -> Simple:
        m = self.n + 1
        return self._wrap([m - v for v in block] for block in s.key)

    def letter_simple(self, j: int) -> Simple:
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"letter {j} out of range")
        singles = [(k,) for k in range(1, self.n + 1) if k not in (j, j + 1)]
        return self._wrap(singles + [(j, j + 1)])

    def band_simple(self, i: int, j: int) -> Simple:
        i, j = min(i, j), max(i, j)
        singles = [(k,) for k in range(1, self.n + 1) if k not in (i, j)]
        return self._wrap(singles + [(i, j)])

    def simple_word(self, s: Simple) -> tuple[int, ...]:
        letters = []
        for block in s.key:
            desc = sorted(block, reverse=True)
            for t, u in zip(desc, desc[1:]):
                letters.extend(band_generator(u, t, self.n).letters)
        return tuple(letters)


def _noncrossing_partitions(elements: tuple) -> Iterable[tuple]:
    """All non-crossing partitions of a sorted tuple, as tuples of blocks."""
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for r in range(len(rest) + 1):
        for tail in itertools.combinations(rest, r):
            block = (first,) + tail
            # remaining elements split into independent gaps between block entries
            bounds = list(block) + [elements[-1] + 1]
            gaps = []
            for lo, hi in zip(bounds, bounds[1:]):
                gaps.append(tuple(e for e in rest if lo < e < hi and e not in block))
            for combo in itertools.product(*[_noncrossing_partitions(g) for g in gaps]):
                out = (block,)
                for part in combo:
                    out = out + part
                yield out


@functools.lru_cache(maxsize=None)
def classical(n: int, cap: int = 8) -> ClassicalStructure:
    return ClassicalStructure(n, cap)


@functools.lru_cache(maxsize=None)
def band(n: int, cap: int = 10) -> BandStructure:
    return BandStructure(n, cap)


def structure(kind: str, n: int) -> GarsideStructure:
    if kind == "classical":
        return classical(n)
    if kind == "band":
        return band(n)
    raise ValueError(f"unknown structure {kind!r}")


def enumerate_simples(st: GarsideStructure) -> tuple[Simple, ...]:
    return st.simples()


def complement_and_twist(st: GarsideStructure, s: Simple, which: str) -> Simple:
    if which == "complement":
        return st.complement(s)
    if which == "twist":
        return st.twist(s)
    raise ValueError(f"unknown operation {which!r}")


def meet(st: GarsideStructure, a: Simple, b: Simple) -> Simple:
    if a.kind != st.kind or b.kind != st.kind or a.n != st.n or b.n != st.n:
        raise ValueError("structure mismatch")
    return st.meet(a, b)
