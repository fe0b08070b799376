"""Two concrete Garside structures on the braid group.

The classical structure has the half twist as Garside element and the
permutation braids as simple elements; the band-generator structure has the
descending cycle delta = s_{n-1}...s_1 as Garside element and one simple
element per non-crossing partition of the strand set.

A simple of either structure is determined by its permutation, and its key
is that permutation, 0-based, so each simple has exactly one key; words are
produced on demand.  Equality and hashing are therefore O(1) dictionary
operations.  A simple multiplies, divides, mirrors and twists as its
permutation does: the twist is conjugation by the Garside element's
permutation, and in both structures the atom of the letter s_j swaps j - 1
and j.  So ``GarsideStructure`` derives all of that once, and each structure
supplies only what differs (listed in the class docstring).  Its one lattice
kernel is the weighting kernel ``_weigh``, which moves meet(x^-1 delta, y);
``meet`` itself is derived from it.

Every permutation is a classical simple.  A permutation p is a band simple
exactly when it lies below delta in absolute order, i.e. cycles(p) +
cycles(p^-1 delta) = n + 1 (Bessis, "The dual braid monoid", Ann. Sci. ENS
36, 2003), two O(n) cycle walks; its cycles are then the blocks of a
non-crossing partition, each sending an entry to the next larger one.  So in
both structures a is a prefix of b exactly when a^-1 b is simple and the
atom lengths add (Birman-Ko-Lee, Adv. Math. 139, 1998; Bessis 2003).

``GarsideStructure`` is the one place where a ``Simple`` meets an array.
Every ``Simple`` that comes in is tested once, by ``_perm0``, which refuses
a simple of another structure and a key that is not a permutation of
range(n) passing the structure's ``_is_simple``.  Every array the library
hands out is wrapped by ``_simple`` without a test: meets, complements,
twists, weighted pairs, atoms and the enumerations are simples by the
theorems above, and the exhaustive oracle tests check the maps behind them.
Only ``mul`` tests its result, since a product of simples need not be
simple.  The subclasses work on arrays only, and the engine wraps its
arrays through ``_simple`` too, so neither ``_weigh`` checks anything.  The
only cache is the list of all simples, built
once per structure and kept, with the closure's conjugators beside it
(``simples``, ``_proper_simples``).  Each structure enumerates up to a
fixed ``cap`` strands, so the largest list is classical(8)'s 8! = 40 320.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple

from .words import Permutation


class Simple(NamedTuple):
    """A simple element: ``kind`` names the structure, ``key`` its
    permutation as a 0-based image tuple, in both structures.  The cycles of
    a band key are the blocks of its non-crossing partition."""

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

    A subclass sets ``kind``, ``twist_order`` and the enumeration ``cap`` on
    strands, passes the permutation of its Garside element to ``__init__``
    and supplies, all on permutations, the simplicity test ``_is_simple``,
    the weighting kernel ``_weigh`` that the engine's normal forms run on
    and its only lattice kernel, the length test ``_grows`` of the letter
    products, ``_key_length``, the word ``_word``, and ``atoms`` and
    ``_enumerate``.  From these the class derives the identity and Garside
    element, the two conversions ``_perm0`` (a ``Simple`` in, checked) and
    ``_simple`` (an array the library made out, unchecked), and on
    ``Simple`` values ``simple_word``, ``atom_length``, ``mul`` (the one
    result it tests), ``meet`` (through ``_weigh``), ``complement``, the
    twists, the letter atoms, the capped ``simples``, the closure's
    conjugators ``_proper_simples`` and ``normalize_pair``, the kernel's
    wrapper; and on arrays the ``_mirror_perm`` that the engine's right
    forms mirror kernel outputs with.  Each of the two lists is built on
    its first call and kept.  Everything generic (normal forms, sliding,
    conjugacy) lives in the engine module and only calls these methods.
    """

    kind: str
    twist_order: int
    cap: int

    def __init__(self, n: int, delta_perm: tuple):
        if n < 1:
            raise ValueError("need at least one strand")
        self.n = n
        self._id = tuple(range(n))
        self._id_set = frozenset(self._id)
        self._delta_perm = delta_perm
        # the permutations of delta^k for k = 0 .. twist_order - 1
        self._delta_powers = [self._id]
        for _ in range(self.twist_order - 1):
            self._delta_powers.append(_pmul(self._delta_powers[-1], delta_perm))
        self._identity = self._simple(self._id)
        self._delta = self._simple(delta_perm)
        self._simples: tuple[Simple, ...] | None = None
        self._proper: tuple[tuple[Simple, tuple], ...] | None = None

    def identity(self) -> Simple:
        return self._identity

    def delta(self) -> Simple:
        return self._delta

    # subclass surface ------------------------------------------------------
    def _is_simple(self, p: tuple) -> bool:
        """Whether the permutation p of range(n) is the key of a simple."""
        raise NotImplementedError

    def atoms(self) -> tuple[Simple, ...]:
        raise NotImplementedError

    def _key_length(self, key) -> int:
        """The number of atoms of the simple with this key."""
        raise NotImplementedError

    def _word(self, p: tuple) -> tuple[int, ...]:
        """A positive Artin word for the simple with permutation p
        (deterministic)."""
        raise NotImplementedError

    def _enumerate(self) -> tuple[Simple, ...]:
        """Every simple, in a fixed order."""
        raise NotImplementedError

    # derived ---------------------------------------------------------------
    def simple_word(self, s: Simple) -> tuple[int, ...]:
        """A positive Artin word for s (deterministic); ValueError unless s
        is a simple of this structure."""
        return self._word(self._perm0(s))

    def simples(self) -> tuple[Simple, ...]:
        """Every simple, in a fixed order: enumerated on the first call and
        kept.  The cap is checked on every call."""
        if self.n > self.cap:
            raise ValueError(
                f"enumeration cap exceeded: n={self.n} > cap={self.cap}"
            )
        if self._simples is None:
            self._simples = self._enumerate()
        return self._simples

    def _proper_simples(self) -> tuple[tuple[Simple, tuple], ...]:
        """The simples other than 1 and delta, each with its left complement
        delta s^-1 as a permutation, in the order of ``simples``: the
        conjugators of the circuit closure."""
        simples = self.simples()
        if self._proper is None:
            self._proper = tuple(
                (s, self._left_complement_perm(s.key))
                for s in simples
                if s.key != self._id and s.key != self._delta_perm
            )
        return self._proper

    def letter_simple(self, j: int) -> Simple:
        """The atom of the positive Artin letter j; in both structures it
        swaps j - 1 and j."""
        if not 1 <= j <= self.n - 1:
            raise ValueError(f"letter {j} out of range")
        p = list(self._id)
        p[j - 1], p[j] = j, j - 1
        return self._simple(tuple(p))

    def atom_length(self, s: Simple) -> int:
        """The number of atoms of s; ValueError unless s is a simple of this
        structure."""
        self._perm0(s)
        return self._key_length(s.key)

    def mul(self, a: Simple, b: Simple) -> Simple | None:
        """The product a.b if it is again simple, else None: the one result
        of this class that is tested, since a product of simples need not
        be simple."""
        p = _pmul(self._perm0(a), self._perm0(b))
        length = self._key_length
        if not self._is_simple(p) or length(a.key) + length(b.key) != length(p):
            return None
        return self._simple(p)

    def meet(self, a: Simple, b: Simple) -> Simple:
        """Greatest common prefix of a and b, read off the weighting kernel:
        for x = delta a^-1, x^-1 delta = a, so ``_weigh(x, b)`` moves
        t = meet(a, b) onto x, and nothing exactly when t is trivial."""
        x = self._left_complement_perm(self._perm0(a))
        moved = self._weigh(x, self._perm0(b))
        if moved is None:
            return self._identity
        return self._simple(_pmul(_pinv(x), moved[0]))

    def is_identity(self, s: Simple) -> bool:
        return s == self._identity

    def is_delta(self, s: Simple) -> bool:
        return s == self._delta

    def complement(self, s: Simple) -> Simple:
        """s^-1 . delta."""
        return self._simple(self._complement_perm(self._perm0(s)))

    def twist_pow(self, s: Simple, k: int) -> Simple:
        """delta^-k s delta^k."""
        return self._simple(self._twist_perm(self._perm0(s), k))

    def twist(self, s: Simple) -> Simple:
        """delta^-1 s delta."""
        return self.twist_pow(s, 1)

    def normalize_pair(self, x: Simple, y: Simple) -> tuple[Simple, Simple, bool]:
        """Make the adjacent pair (x, y) left weighted by moving the
        largest possible prefix of y onto x."""
        moved = self._weigh(self._perm0(x), self._perm0(y))
        if moved is None:
            return x, y, False
        return self._simple(moved[0]), self._simple(moved[1]), True

    def simple_permutation(self, s: Simple) -> Permutation:
        return Permutation(tuple(v + 1 for v in self._perm0(s)))

    # the engine's working arrays: 0-based permutations, as tuples ----------
    def _perm0(self, s: Simple) -> tuple:
        """The permutation of s; ValueError unless s is a simple of this
        structure, so every array the kernels see is a simple's."""
        key = s.key
        ours = s.kind == self.kind and s.n == self.n
        if ours and len(key) == self.n and set(key) == self._id_set and self._is_simple(key):
            return key
        raise ValueError(f"{key if ours else s} is not a simple element of {self.kind}({self.n})")

    def _simple(self, p: tuple) -> Simple:
        """The simple whose permutation is p, unchecked: p is an array the
        library made from simples by a map that keeps them simple."""
        return Simple(self.kind, self.n, p)

    def _weigh(self, x: tuple, y: tuple) -> tuple[tuple, tuple] | None:
        """The weighting kernel: for simples x, y given as permutations,
        the left weighted pair (x t, t^-1 y) with t = meet(x^-1 delta, y),
        or None when t is trivial, i.e. (x, y) is already left weighted."""
        raise NotImplementedError

    def _grows(self, p: tuple, j: int, left: bool) -> bool:
        """With left, p is a simple and the question is whether s_j p is a
        simple one atom longer; without, p is the inverse of a simple b and
        the question is whether b s_j is.  In both cases the permutation of
        s_j p, or of (b s_j)^-1 = s_j^-1 p, is p, a tuple or a list, with
        entries j - 1 and j swapped, and the test reads p before the swap."""
        raise NotImplementedError

    def _twist_perm(self, p: tuple, k: int) -> tuple:
        """delta^-k p delta^k."""
        k %= self.twist_order
        if not k:
            return p
        d, di = self._delta_powers[k], self._delta_powers[-k]
        return tuple(d[p[u]] for u in di)

    def _mirror_perm(self, p: tuple) -> tuple:
        """The image of the simple p under the anti-automorphism that
        reverses a word and sends s_j to s_(n-j); it fixes delta and swaps
        prefixes with suffixes, so it maps simples to simples.  On
        permutations: reflect the strands (v -> n-1-v) and invert."""
        n = self.n
        out = [0] * n
        for u, v in enumerate(p):
            out[n - 1 - v] = n - 1 - u
        return tuple(out)

    def _left_complement_perm(self, p: tuple) -> tuple:
        return _pmul(self._delta_perm, _pinv(p))

    def _complement_perm(self, p: tuple) -> tuple:
        return _pmul(_pinv(p), self._delta_perm)


class ClassicalStructure(GarsideStructure):
    """Garside element: the half twist; simples: permutation braids."""

    kind = "classical"
    twist_order = 2
    cap = 8

    def __init__(self, n: int):
        super().__init__(n, tuple(range(n - 1, -1, -1)))

    def _is_simple(self, p: tuple) -> bool:
        return True

    def atoms(self) -> tuple[Simple, ...]:
        return tuple(self.letter_simple(j) for j in range(1, self.n))

    def _enumerate(self) -> tuple[Simple, ...]:
        return tuple(map(self._simple, itertools.permutations(range(self.n))))

    def _key_length(self, key) -> int:
        return _inversions(key)

    def _word(self, p: tuple) -> tuple[int, ...]:
        x = list(p)
        n = self.n
        letters = []
        while True:
            j = next((j for j in range(n - 1) if x[j] > x[j + 1]), None)
            if j is None:
                return tuple(letters)
            letters.append(j + 1)
            x[j], x[j + 1] = x[j + 1], x[j]

    def _weigh(self, x: tuple, y: tuple) -> tuple[tuple, tuple] | None:
        # Descent transfer: move the letter s_(j+1) from the head of y to the
        # tail of x while it starts y but does not finish x.  A move changes
        # the descents of both only at j - 1, j and j + 1, so the scan
        # resumes at j - 1.
        n = self.n
        a = list(x)
        ai = [0] * n
        for i, v in enumerate(x):
            ai[v] = i
        b = list(y)
        moved = False
        j = 0
        while j < n - 1:
            if b[j] > b[j + 1] and ai[j] < ai[j + 1]:
                moved = True
                pj, pj1 = ai[j], ai[j + 1]
                a[pj], a[pj1] = j + 1, j
                ai[j], ai[j + 1] = pj1, pj
                b[j], b[j + 1] = b[j + 1], b[j]
                if j:
                    j -= 1
            else:
                j += 1
        return (tuple(a), tuple(b)) if moved else None

    def _grows(self, p: tuple, j: int, left: bool) -> bool:
        # one inversion more exactly when the swapped pair is in order
        return p[j - 1] < p[j]


def _cycles(p, shift: int = 0) -> int:
    """Number of cycles of the map v -> p[v - shift] (indices mod n): of p
    for shift 0, of delta^-1 p, whose cycles are those of p^-1 delta, for
    shift 1."""
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if not seen[start]:
            count += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = p[v - shift]
    return count


class BandStructure(GarsideStructure):
    """Garside element: the descending cycle; simples: non-crossing partitions.

    Atoms are the bands crossing strands s < t in front of the strands in
    between; the simple of a partition is the product of one descending cycle
    per block, blocks ordered by their minimum.  Its permutation sends each
    block entry to the next larger one and the largest back to the smallest.
    """

    kind = "band"
    cap = 10

    def __init__(self, n: int):
        self.twist_order = max(n, 1)
        super().__init__(n, tuple((i + 1) % n for i in range(n)))

    def _is_simple(self, p: tuple) -> bool:
        # p lies below delta in absolute order (Bessis 2003)
        return _cycles(p) + _cycles(p, 1) == self.n + 1

    def atoms(self) -> tuple[Simple, ...]:
        return tuple(
            self.band_simple(i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        )

    def _enumerate(self) -> tuple[Simple, ...]:
        # one increasing cycle per block
        out = []
        for blocks in _noncrossing_partitions(self._id):
            p = list(self._id)
            for block in blocks:
                for u, v in zip(block, block[1:] + block[:1]):
                    p[u] = v
            out.append(self._simple(tuple(p)))
        return tuple(out)

    def _key_length(self, key) -> int:
        return self.n - _cycles(key)

    def _weigh(self, x: tuple, y: tuple) -> tuple[tuple, tuple] | None:
        # t = meet(x^-1 delta, y) is the common refinement of the cycles of
        # c = x^-1 delta and the blocks (cycles) of y.  Label the cycles of
        # c by walking c^-1, which is w -> x[w - 1], so c is never built;
        # then walk each cycle of y from its minimum, which for a simple
        # visits the block in increasing order, and chain the entries of
        # each label into one cycle of t, clearing each entry's label as it
        # is visited.  A fixed point of y is a block of its own and is
        # skipped, and t and t^-1 are built at the first entry that moves.
        # Both inputs are simple: every array the engine holds comes from a
        # checked conversion or a kernel.
        n = self.n
        label = [-1] * n
        count = 0
        for start in range(n):
            if label[start] < 0:
                v = start
                while label[v] < 0:
                    label[v] = count
                    v = x[v - 1]
                count += 1
        t = None
        first = [0] * count
        last = [-1] * count  # per label, its latest entry in the current cycle of y
        for start in range(n):
            if label[start] < 0 or y[start] == start:
                continue
            opened = []
            v = start
            while (k := label[v]) >= 0:
                label[v] = -1
                u = last[k]
                if u < 0:
                    first[k] = v
                    opened.append(k)
                else:
                    if t is None:
                        t, tinv = list(range(n)), list(range(n))
                    t[u] = v
                    tinv[v] = u
                last[k] = v
                v = y[v]
            for k in opened:
                if t is not None:
                    u, v = last[k], first[k]
                    t[u] = v
                    tinv[v] = u
                last[k] = -1
        if t is None:
            return None
        return tuple(map(t.__getitem__, x)), tuple(map(y.__getitem__, tinv))

    def _grows(self, p: tuple, j: int, left: bool) -> bool:
        # the product q is p times the transposition of j - 1 and j, so it
        # joins their cycles or splits their common one.  A simple one atom
        # longer joins them into one increasing cycle, which steps from j - 1
        # to its neighbour j.  q[j - 1] == j exactly when p fixes j (left) or
        # j - 1 (right), and then q puts that point next to its neighbour in
        # the other's block: the cycle still increases, and no block crosses.
        # Given p^-1 for the right product, the test is the same, since p
        # and p^-1 fix the same points.
        k = j if left else j - 1
        return p[k] == k

    def band_simple(self, i: int, j: int) -> Simple:
        if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
            raise ValueError(f"no band between strands {i} and {j} of band({self.n})")
        p = list(self._id)
        p[i - 1], p[j - 1] = j - 1, i - 1
        return self._simple(tuple(p))

    def _word(self, p: tuple) -> tuple[int, ...]:
        # each cycle, a block read from its minimum in increasing order, as
        # bands between neighbours t > u, each spelled as band_generator(u, t)
        # does: s_(t-1) ... s_u and back
        seen = [False] * self.n
        letters = []
        for start in range(self.n):
            desc = []
            v = start
            while not seen[v]:
                seen[v] = True
                desc.insert(0, v + 1)
                v = p[v]
            for t, u in zip(desc, desc[1:]):
                letters += range(t - 1, u - 1, -1)
                letters += range(-u - 1, -t, -1)
        return tuple(letters)


def _noncrossing_partitions(elements: tuple) -> Iterable[tuple]:
    """All non-crossing partitions of a sorted tuple, as tuples of sorted
    blocks."""
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
def classical(n: int) -> ClassicalStructure:
    return ClassicalStructure(n)


@functools.lru_cache(maxsize=None)
def band(n: int) -> BandStructure:
    return BandStructure(n)


def structure(kind: str, n: int) -> GarsideStructure:
    if kind == "classical":
        return classical(n)
    if kind == "band":
        return band(n)
    raise ValueError(f"unknown structure {kind!r}")
