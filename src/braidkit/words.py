"""Braid words, permutations and the elementary homomorphisms between them.

A braid on n strands is a word in the Artin generators, stored as a sequence
of nonzero integers: the letter k > 0 is the generator crossing strands k and
k+1 positively, and -k is its inverse.  The empty word is the identity.

Permutations compose left to right along a word: the image of a word is the
product of the transpositions of its letters, applied in reading order.  This
convention makes strand tracking (deletion, linking numbers) a single pass.

The unreduced Burau representation sends s_k to the identity matrix with
[[1-t, t], [1, 0]] on rows and columns k, k+1 (Burau, Abh. Math. Sem.
Hamburg 11, 1936; Birman, *Braids, Links, and Mapping Class Groups*, 1974,
ch. 3).  Evaluated at t = 3 modulo the prime 2^30 - 35 it is a homomorphism
to GL_n(F_p), computed from the word alone: different characteristic
polynomials prove two words not conjugate, an exact early answer of the
conjugacy problem.  Equal polynomials prove nothing.

Equality is decided here too, without a Garside structure.  The Dynnikov
coordinates of a word are the image of (0, 1, ..., 0, 1) in Z^(2n) under a
faithful action of B_n by piecewise-linear integer maps, so two words are
the same braid exactly when their coordinates agree (Dynnikov, Russian Math.
Surveys 57, 2002; Dehornoy, "Efficient solutions to the braid isotopy
problem", Discrete Appl. Math. 156, 2008; Dehornoy-Dynnikov-Rolfsen-Wiest,
*Ordering Braids*, AMS 2008, ch. XII).  One pass over the letters computes
them, and an entry gains at most three bits per letter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n}, stored as the tuple of images.

    ``images[i - 1]`` is the image of i.  Products compose left to right:
    ``(p * q)(i) == q(p(i))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """The product of disjoint cycles; ValueError on an empty cycle, an
        entry outside 1..n or an entry that occurs twice."""
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in map(tuple, cycles):
            if not cycle:
                raise ValueError("empty cycle")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 1 <= a <= n:
                    raise ValueError(f"cycle entry {a} out of range 1..{n}")
                if a in seen:
                    raise ValueError(f"cycle entry {a} occurs twice")
                seen.add(a)
                images[a - 1] = b
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[v - 1] for v in self.images))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            v = self(start)
            while v != start:
                cycle.append(v)
                seen.add(v)
                v = self(v)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return tuple(sorted(lengths, reverse=True))

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    @staticmethod
    def parse(text: str, degree: int) -> "Permutation":
        """Parse cycle notation such as ``(1 2)(3 4 5)``, with or without
        spaces between the cycles; ``()`` is the identity."""
        text = text.strip()
        if text in ("", "()"):
            return Permutation.identity(degree)
        if not re.fullmatch(r"(\([0-9\s,]*\)\s*)+", text):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = [
            [int(e) for e in part.replace(",", " ").split()]
            for part in re.findall(r"\(([^)]*)\)", text)
        ]
        return Permutation.from_cycles(degree, cycles)


@dataclass(frozen=True)
class BraidWord:
    """A braid group element given as a word in the Artin generators."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be at least 1")
        object.__setattr__(self, "letters", tuple(self.letters))
        for k in self.letters:
            if k == 0 or abs(k) > self.strands - 1:
                raise ValueError(
                    f"letter {k} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    @staticmethod
    def identity(n: int) -> "BraidWord":
        return BraidWord(n, ())

    @staticmethod
    def parse(text: str) -> "BraidWord":
        """Parse the text form ``B<n>: k1 k2 ...`` (identity: ``B<n>:``)."""
        head, sep, body = text.partition(":")
        head = head.strip()
        if not sep or not re.fullmatch(r"B\s*\d+", head):
            raise ValueError(f"bad braid word: {text!r}")
        tokens = body.split()
        bad = next((tok for tok in tokens if not re.fullmatch(r"[+-]?\d+", tok)), None)
        if bad is not None:
            raise ValueError(f"bad letter {bad!r} in {text!r}")
        return BraidWord(int(head[1:]), tuple(map(int, tokens)))

    def format(self) -> str:
        if not self.letters:
            return f"B{self.strands}:"
        return f"B{self.strands}: " + " ".join(str(k) for k in self.letters)

    def __str__(self) -> str:
        return self.format()


# ---------------------------------------------------------------------------
# Word algebra


def compose(*words: BraidWord) -> BraidWord:
    if not words:
        raise ValueError("need at least one word")
    n = words[0].strands
    if any(w.strands != n for w in words):
        raise ValueError("strand-count mismatch")
    letters: list[int] = []
    for w in words:
        letters.extend(w.letters)
    return BraidWord(n, tuple(letters))


def inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(-k for k in reversed(w.letters)))


def conjugate(a: BraidWord, b: BraidWord) -> BraidWord:
    """The conjugate a^b = b^-1 a b."""
    return compose(inverse(b), a, b)


def power(w: BraidWord, k: int) -> BraidWord:
    base = w if k >= 0 else inverse(w)
    return BraidWord(w.strands, base.letters * abs(k))


def _cancel_inverse_pairs(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent letters k, -k until none are left (free reduction)."""
    out: list[int] = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def _cancel_commuting_inverses(
    letters: Sequence[int],
) -> tuple[list[int], list[int], list[int]]:
    """Cancel every pair k ... -k whose letters in between all commute with
    k, i.e. are far letters l with |abs(l) - abs(k)| >= 2.

    Such a pair is the braid identity s^e M s^-e = M, so the kept letters
    are the same braid.  Each incoming letter k is checked against the
    latest kept letter of absolute value abs(k) - 1, abs(k) or abs(k) + 1,
    the first one a walk back over the kept letters would stop at: one stack
    of positions per absolute value finds it in O(1).  If it is -k, both go.
    A deleted letter never blocked an earlier pair, since every kept letter
    after it commutes with it, so one pass leaves no cancellable pair.

    Returns the stacks as linked lists, with the letters: ``out``, the
    letters kept on arrival, with 0 in place of each that a later letter
    cancelled; ``below[i]``, the position in out of the kept letter under
    out[i] in its stack, or -1; and ``top[a]`` for a = 0 .. max abs(k) + 1,
    the position of the last kept letter of absolute value a, or -1."""
    top = [-1] * (max(map(abs, letters), default=0) + 2)
    out: list[int] = []
    below: list[int] = []
    for k in letters:
        a = abs(k)
        i = top[a]
        if i >= 0 and out[i] == -k and top[a - 1] < i and top[a + 1] < i:
            out[i] = 0
            top[a] = below[i]
        else:
            top[a] = len(out)
            below.append(i)
            out.append(k)
    return out, below, top


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs; a cheap normalisation of long words."""
    return BraidWord(w.strands, _cancel_inverse_pairs(w.letters))


def cancel_common_ends(a: BraidWord, b: BraidWord) -> tuple[BraidWord, BraidWord]:
    """The middles x, y of a = P x S and b = P y S, for the longest common
    prefix P and then the longest common suffix S of the two words.

    a and b are the same braid exactly when x and y are.  Letter-identical
    words give two empty middles."""
    la, lb = a.letters, b.letters
    if la == lb:
        return BraidWord(a.strands), BraidWord(b.strands)
    m = min(len(la), len(lb))
    i = 0
    while i < m and la[i] == lb[i]:
        i += 1
    j = 0
    while j < m - i and la[-1 - j] == lb[-1 - j]:
        j += 1
    if not i and not j:
        return a, b
    return BraidWord(a.strands, la[i:len(la) - j]), BraidWord(b.strands, lb[i:len(lb) - j])


def dynnikov_coordinates(w: BraidWord, start: Sequence[int] | None = None) -> tuple[int, ...]:
    """The coordinates (x_1, y_1, ..., x_n, y_n) that w sends the start
    (0, 1, ..., 0, 1) to, or another given vector of 2n integers; letters
    act left to right.

    s_i and s_i^-1 change x_i, y_i, x_(i+1) and y_(i+1) only.  With
    u+ = max(u, 0) and u- = min(u, 0), s_i takes z = x_i - y_i- - x_(i+1) +
    y_(i+1)+ and gives (x_i + y_i+ + (y_(i+1)+ - z)+, y_(i+1) - z+,
    x_(i+1) + y_(i+1)- + (y_i- + z)-, y_i + z+); s_i^-1 takes z = x_i + y_i-
    - x_(i+1) - y_(i+1)+ and gives (x_i - y_i+ - (y_(i+1)+ + z)+,
    y_(i+1) + z-, x_(i+1) - y_(i+1)- - (y_i- - z)-, y_i - z-)
    (Dehornoy, Discrete Appl. Math. 156, 2008).  The action is faithful, so
    w is the identity exactly when it fixes the start."""
    v = list(start) if start is not None else [0, 1] * w.strands
    for k in w.letters:
        i = 2 * k - 2 if k > 0 else -2 * k - 2
        x1, y1, x2, y2 = v[i:i + 4]
        p1 = y1 if y1 > 0 else 0
        m1 = y1 - p1
        p2 = y2 if y2 > 0 else 0
        m2 = y2 - p2
        if k > 0:
            z = x1 - m1 - x2 + p2
            zp = z if z > 0 else 0
            t, u = p2 - z, m1 + z
            v[i:i + 4] = (x1 + p1 + (t if t > 0 else 0), y2 - zp,
                          x2 + m2 + (u if u < 0 else 0), y1 + zp)
        else:
            z = x1 + m1 - x2 - p2
            zm = z if z < 0 else 0
            t, u = p2 + z, m1 - z
            v[i:i + 4] = (x1 - p1 - (t if t > 0 else 0), y2 + zm,
                          x2 - m2 - (u if u < 0 else 0), y1 - zm)
    return tuple(v)


def same_braid(a: BraidWord, b: BraidWord) -> bool:
    """Whether the two words are the same braid: cancel their common ends
    (``cancel_common_ends``) and compare the Dynnikov coordinates of the
    middles, which are both empty for letter-identical words."""
    if a.strands != b.strands:
        raise ValueError("strand-count mismatch")
    a, b = cancel_common_ends(a, b)
    return dynnikov_coordinates(a) == dynnikov_coordinates(b)


def exponent_sum(w: BraidWord) -> int:
    """Image under the homomorphism to the integers sending every generator to 1."""
    return sum(1 if k > 0 else -1 for k in w.letters)


def permutation_of(w: BraidWord) -> Permutation:
    """Image in the symmetric group; letters act left to right on positions."""
    images = list(range(1, w.strands + 1))
    for k in w.letters:
        i = abs(k) - 1
        images[i], images[i + 1] = images[i + 1], images[i]
    # images[] now lists which strand sits at each final position; the
    # permutation maps a starting position to its final position.
    final = [0] * w.strands
    for pos, strand in enumerate(images, start=1):
        final[strand - 1] = pos
    return Permutation(tuple(final))


# ---------------------------------------------------------------------------
# The Burau representation modulo a prime

# t = 3 in the prime field of order 2^30 - 35: evaluation there is a ring map
# from Z[t, 1/t], and entries below 2^30 keep every product below 2^60.
_BURAU_P = (1 << 30) - 35
_BURAU_T = 3
_BURAU_T_INV = pow(_BURAU_T, -1, _BURAU_P)


def _burau_row(w: BraidWord, row: Sequence[int]) -> tuple[int, ...]:
    """The row vector row . B(w) mod p, B the unreduced Burau matrix at t.

    s_k changes entries k-1 and k only, (a, b) -> ((1-t) a + b, t a), and
    s_k^-1 maps (a, b) -> (b/t, a + (1 - 1/t) b).
    """
    p, t, ti = _BURAU_P, _BURAU_T, _BURAU_T_INV
    u, ui = 1 - t, 1 - ti
    v = list(row)
    for k in w.letters:
        if k > 0:
            a, b = v[k - 1], v[k]
            v[k - 1], v[k] = (u * a + b) % p, t * a % p
        else:
            a, b = v[-k - 1], v[-k]
            v[-k - 1], v[-k] = ti * b % p, (a + ui * b) % p
    return tuple(v)


def _burau_charpoly(w: BraidWord) -> tuple[int, ...]:
    """Coefficients, constant term first, of the characteristic polynomial
    of B(w) mod p, a conjugacy invariant.

    Row i of B(w) is e_i . B(w).  The matrix is brought to upper Hessenberg
    form H by similarity mod p, and with p_0 = 1,
    p_(k+1) = (x - H[k][k]) p_k - sum over i < k of
    H[i][k] H[i+1][i] ... H[k][k-1] p_i.
    """
    p, n = _BURAU_P, w.strands
    h = [list(_burau_row(w, [int(i == j) for j in range(n)])) for i in range(n)]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for r in h:
                r[piv], r[j + 1] = r[j + 1], r[piv]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            c = h[i][j] * inv % p
            if c:
                h[i] = [(x - c * y) % p for x, y in zip(h[i], h[j + 1])]
                for r in h:
                    r[j + 1] = (r[j + 1] + c * r[i]) % p
    polys = [[1]]
    for k in range(n):
        nxt = [0] + polys[k]
        for d, c in enumerate(polys[k]):
            nxt[d] = (nxt[d] - h[k][k] * c) % p
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = prod * h[i + 1][i] % p
            c = h[i][k] * prod % p
            for d, e in enumerate(polys[i]):
                nxt[d] = (nxt[d] - c * e) % p
        polys.append(nxt)
    return tuple(polys[n])


# ---------------------------------------------------------------------------
# Named elements


def delta(n: int) -> BraidWord:
    """The positive half twist on n strands."""
    letters = []
    for i in range(1, n):
        letters.extend(range(1, n - i + 1))
    return BraidWord(n, tuple(letters))


def band_generator(i: int, j: int, n: int) -> BraidWord:
    """The band crossing strands i and j in front of the intermediate strands."""
    i, j = min(i, j), max(i, j)
    if not (1 <= i < j <= n):
        raise ValueError(f"band generator ({i},{j}) needs 1 <= i < j <= {n}")
    down = list(range(j - 1, i - 1, -1))  # j-1, ..., i+1, i
    up = [-k for k in range(i + 1, j)]  # -(i+1), ..., -(j-1)
    return BraidWord(n, tuple(down + up))


def named_element(tag: str, n: int) -> BraidWord:
    """The paper's distinguished elements on n strands, by tag: ``u``,
    ``t`` and ``v`` (n >= 3), ``c`` and ``w`` (n >= 4), ``d`` (n = 4) and
    ``tau`` (n >= 4)."""
    if tag == "u":
        _need(n, 3, tag)
        return BraidWord(n, (2, -1))
    if tag == "t":
        _need(n, 3, tag)
        return BraidWord(n, (-1, 2))
    if tag == "v":
        _need(n, 3, tag)
        return BraidWord(n, (1, 2, -1, -1))
    if tag == "c":
        _need(n, 4, tag)
        return BraidWord(n, (3, -1))
    if tag == "w":
        _need(n, 4, tag)
        return BraidWord(n, (2, 3, -1, -2))
    if tag == "d":
        if n != 4:
            raise ValueError("d is a 4-strand element")
        # sigma1^-1 cabled with sigma1^2 in both tubes of composition (2, 2)
        return BraidWord(4, (1, 1, 3, 3, -2, -1, -3, -2))
    if tag == "tau":
        _need(n, 4, tag)
        # the identity cabled with sigma1^(m(m-1)) and Delta_m^-2, tubes (2, m)
        m = n - 2
        delta_inverse = tuple(-2 - k for k in reversed(delta(m).letters))
        return BraidWord(n, (1,) * (m * (m - 1)) + delta_inverse * 2)
    raise ValueError(f"unknown element tag {tag!r}")


def _need(n: int, minimum: int, tag: str):
    if n < minimum:
        raise ValueError(f"element {tag} needs at least {minimum} strands")


# ---------------------------------------------------------------------------
# Automorphisms


@dataclass(frozen=True)
class AutomorphismSpec:
    """A composite of sign flips and inner automorphisms, applied right to left.

    Each step is either the string ``"Lambda"`` (negate every letter) or a
    BraidWord g denoting the inner automorphism x -> g x g^-1.
    """

    steps: tuple[object, ...]

    @staticmethod
    def lambda_() -> "AutomorphismSpec":
        return AutomorphismSpec(("Lambda",))

    @staticmethod
    def inner(g: BraidWord) -> "AutomorphismSpec":
        return AutomorphismSpec((g,))

    @staticmethod
    def sigma_tilde(i: int, n: int) -> "AutomorphismSpec":
        return AutomorphismSpec.inner(BraidWord(n, (i,)))

    @staticmethod
    def delta_tilde(n: int) -> "AutomorphismSpec":
        return AutomorphismSpec.inner(delta(n))

    @staticmethod
    def phi(n: int = 4) -> "AutomorphismSpec":
        """The composite Lambda . sigma~1 . sigma~3 . Delta~ on four strands."""
        if n != 4:
            raise ValueError("phi is defined on 4 strands")
        return (
            AutomorphismSpec.lambda_()
            * AutomorphismSpec.sigma_tilde(1, n)
            * AutomorphismSpec.sigma_tilde(3, n)
            * AutomorphismSpec.delta_tilde(n)
        )

    def __mul__(self, other: "AutomorphismSpec") -> "AutomorphismSpec":
        return AutomorphismSpec(self.steps + other.steps)


def apply_automorphism(spec: AutomorphismSpec, w: BraidWord) -> BraidWord:
    """Apply the composite to w; steps act right to left."""
    out = w
    for step in reversed(spec.steps):
        if step == "Lambda":
            out = BraidWord(out.strands, tuple(-k for k in out.letters))
        else:
            g = step
            if g.strands != out.strands:
                raise ValueError("inner automorphism strand mismatch")
            out = compose(g, out, inverse(g))
    return out


# ---------------------------------------------------------------------------
# Projection and strand deletion


def project_to_b3(w: BraidWord) -> BraidWord:
    """The quotient map on four strands identifying the two outer generators."""
    if w.strands != 4:
        raise ValueError("projection is defined on 4 strands")
    table = {1: 1, 3: 1, 2: 2}
    letters = tuple(
        (1 if k > 0 else -1) * table[abs(k)] for k in w.letters
    )
    return free_reduce(BraidWord(3, letters))


def _delete_strands_raw(w: BraidWord, keep: frozenset[int]) -> BraidWord:
    """Delete the strands outside ``keep``, tracking positions through the word.

    Purely positional; callers are responsible for the result being meaningful.
    """
    n = w.strands
    arrangement = list(range(1, n + 1))  # strand label at each position
    kept_letters: list[int] = []
    for k in w.letters:
        pos = abs(k)  # crossing at positions pos, pos+1
        a, b = arrangement[pos - 1], arrangement[pos]
        if a in keep and b in keep:
            reduced_pos = sum(1 for s in arrangement[: pos - 1] if s in keep) + 1
            kept_letters.append(reduced_pos if k > 0 else -reduced_pos)
        arrangement[pos - 1], arrangement[pos] = b, a
    return BraidWord(len(keep), tuple(kept_letters))


def delete_strands(w: BraidWord, keep: Iterable[int]) -> BraidWord:
    """The braid on the kept strands; requires the kept set to be preserved
    by the permutation of w."""
    keep_set = frozenset(keep)
    if not keep_set <= set(range(1, w.strands + 1)):
        raise ValueError("keep set out of range")
    mu = permutation_of(w)
    if {mu(i) for i in keep_set} != keep_set:
        raise ValueError("keep set is not invariant under the braid permutation")
    return _delete_strands_raw(w, keep_set)
