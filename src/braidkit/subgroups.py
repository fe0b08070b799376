"""Kernel abelianizations, integer normal forms, and rank-two actions.

Finitely presented groups mapping onto a finite permutation group have their
kernel abelianized by Schreier rewriting: breadth-first transversal over the
image's Cayley graph, one rewritten relator per coset, then Smith reduction
of the relation matrix.  The same machinery yields exact coordinates for
kernel elements, which is what basis and rank checks consume.

The four-strand specific tools rewrite the kernel of the projection onto
three strands as a free group on two generators and read off induced integer
matrices on rank-two abelianizations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import words as W
from .engine import words_equal
from .garside import classical
from .words import BraidWord, Permutation

Word = tuple[int, ...]  # signed 1-based generator indices


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class FinitePresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        k = len(self.generators)
        for rel in self.relators:
            if any(g == 0 or abs(g) > k for g in rel):
                raise ValueError(f"relator references unknown generator: {rel}")

    def parse_word(self, text: str) -> Word:
        """Parse a word over the generator names.

        Accepts ``*`` for products, ``/`` for right division (a/b = a b^-1)
        and ``^-1`` or ``^k`` exponents; both operators associate to the left.
        """
        index = {name: i + 1 for i, name in enumerate(self.generators)}
        token_re = re.compile(r"([*/])|([A-Za-z_][A-Za-z_0-9']*)(?:\^(-?\d+))?|\s+")
        pos = 0
        out: list[int] = []
        op = "*"
        first = True
        while pos < len(text):
            m = token_re.match(text, pos)
            if not m:
                raise ValueError(f"bad word syntax at {text[pos:]!r}")
            pos = m.end()
            if m.group(0).isspace():
                continue
            if m.group(1):
                if first:
                    raise ValueError("word cannot start with an operator")
                op = m.group(1)
                continue
            name, exp = m.group(2), m.group(3)
            if name not in index:
                raise ValueError(f"unknown generator {name!r}")
            g = index[name]
            k = int(exp) if exp else 1
            if op == "/":
                k = -k
            out.extend([g if k > 0 else -g] * abs(k))
            op = "*"
            first = False
        return tuple(out)


@dataclass(frozen=True)
class FiniteImageMap:
    images: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.images:
            raise ValueError("need at least one generator image")
        deg = self.images[0].degree
        if any(p.degree != deg for p in self.images):
            raise ValueError("generator images must share a degree")

    @property
    def degree(self) -> int:
        return self.images[0].degree

    def word_image(self, word: Word) -> Permutation:
        out = Permutation.identity(self.degree)
        for g in word:
            img = self.images[abs(g) - 1]
            out = out * (img if g > 0 else img.inverse())
        return out


def parse_presentation(text: str) -> tuple[FinitePresentation, FiniteImageMap | None]:
    """Read the minimal text format: a ``gens:`` line, ``rel:`` lines, and
    optional ``degree:`` plus ``image:`` lines with cycle notation."""
    gens: tuple[str, ...] | None = None
    relator_texts: list[str] = []
    image_texts: dict[str, str] = {}
    degree: int | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        rest = rest.strip()
        if key == "gens":
            gens = tuple(rest.replace(",", " ").split())
        elif key == "rel":
            relator_texts.append(rest)
        elif key == "degree":
            degree = int(rest)
        elif key == "image":
            name, _, cyc = rest.partition("=")
            image_texts[name.strip()] = cyc.strip()
        else:
            raise ValueError(f"unknown line {raw!r}")
    if gens is None:
        raise ValueError("missing gens: line")
    pres = FinitePresentation(gens, ())
    relators = tuple(pres.parse_word(t) for t in relator_texts)
    pres = FinitePresentation(gens, relators)
    image = None
    if image_texts:
        if degree is None:
            raise ValueError("image lines require a degree: line")
        missing = [g for g in gens if g not in image_texts]
        if missing:
            raise ValueError(f"missing images for {missing}")
        image = FiniteImageMap(
            tuple(Permutation.parse(image_texts[g], degree) for g in gens)
        )
    return pres, image


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """D = U M V with U, V unimodular and D diagonal with a divisibility
    chain; ``factors`` lists the diagonal up to min(rows, cols)."""

    d: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for f in self.factors if f)


def _mat_id(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Exact Smith reduction with greedy minimal pivots."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _mat_id(rows)
    v = _mat_id(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):  # col[dst] += c * col[src]
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    factors = tuple(a[i][i] for i in range(min(rows, cols)))
    return SmithForm(
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
        factors,
    )


def matrix_rank(matrix: Sequence[Sequence[int]]) -> int:
    if not matrix or not matrix[0]:
        return 0
    return smith_normal_form(matrix).rank


# ---------------------------------------------------------------------------
# Kernel abelianization by Schreier rewriting


def _schreier_edges(image: FiniteImageMap):
    """Breadth-first (shortlex) transversal of the image group: returns the
    state list and the edge labelling; tree edges carry None, the remaining
    edges are numbered Schreier generators."""
    start = Permutation.identity(image.degree)
    states = [start]
    state_index = {start: 0}
    edge_gen: dict = {}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for i, img in enumerate(image.images, start=1):
                h = g * img
                if h not in state_index:
                    state_index[h] = len(states)
                    states.append(h)
                    nxt.append(h)
                    edge_gen[(g, i)] = None
                else:
                    edge_gen[(g, i)] = -1
        frontier = nxt
    count = 0
    for g in states:
        for i in range(1, len(image.images) + 1):
            if edge_gen[(g, i)] == -1:
                edge_gen[(g, i)] = count
                count += 1
    return states, edge_gen, count


def _rewrite(image, edge_gen, count, word: Word, start: Permutation) -> list[int]:
    """Abelianized Schreier rewriting of a kernel word read from a coset."""
    vec = [0] * count
    state = start
    for g in word:
        img = image.images[abs(g) - 1]
        if g > 0:
            idx = edge_gen[(state, g)]
            state = state * img
            if idx is not None:
                vec[idx] += 1
        else:
            state = state * img.inverse()
            idx = edge_gen[(state, -g)]
            if idx is not None:
                vec[idx] -= 1
    if state != start:
        raise ValueError("word does not lie in the kernel")
    return vec


@dataclass(frozen=True)
class KernelAbelianization:
    """Invariant factors of the kernel's abelianization plus an exact
    coordinate map for kernel words (0 denotes a free factor)."""

    presentation: FinitePresentation
    image: FiniteImageMap
    invariant_factors: tuple[int, ...]
    _states: tuple[Permutation, ...]
    _edge_gen: dict
    _v: tuple[tuple[int, ...], ...]
    _diag: tuple[int, ...]
    _num_schreier: int

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f == 0)

    def coordinates(self, word: Word) -> tuple[int, ...]:
        """Coordinates of a kernel word in the abelianization, one entry per
        invariant factor (torsion entries reduced modulo their factor)."""
        vec = _rewrite(self.image, self._edge_gen, self._num_schreier, word, self._states[0])
        cols = self._num_schreier
        transformed = [
            sum(vec[i] * self._v[i][j] for i in range(cols)) for j in range(cols)
        ]
        out = []
        for j, d in enumerate(self._diag):
            if d == 1:
                continue
            out.append(transformed[j] % d if d > 1 else transformed[j])
        for j in range(len(self._diag), cols):
            out.append(transformed[j])
        return tuple(out)


def kernel_abelianization(
    pres: FinitePresentation,
    image: FiniteImageMap,
    expected_image_order: int | None = None,
) -> KernelAbelianization:
    """Abelianize the kernel of the map onto the finite permutation group.

    The kernel has index equal to the image order; pass
    ``expected_image_order`` to fail fast when the generator images close up
    to a group of a different size.
    """
    if len(pres.generators) != len(image.images):
        raise ValueError("one image per generator required")
    for rel in pres.relators:
        if not image.word_image(rel).is_identity():
            raise ValueError(f"relator {rel} does not vanish in the image")
    states, edge_gen, count = _schreier_edges(image)
    if expected_image_order is not None and len(states) != expected_image_order:
        raise ValueError(
            f"generator images generate a group of order {len(states)}, "
            f"expected {expected_image_order}"
        )
    relation_rows = [
        _rewrite(image, edge_gen, count, rel, g)
        for g in states
        for rel in pres.relators
    ]
    if relation_rows:
        snf = smith_normal_form(relation_rows)
        diag = snf.factors
        v = snf.v
    else:
        diag = ()
        v = tuple(tuple(int(i == j) for j in range(count)) for i in range(count))
    torsion = tuple(sorted(d for d in diag if d > 1))
    free = count - sum(1 for d in diag if d)
    return KernelAbelianization(
        presentation=pres,
        image=image,
        invariant_factors=torsion + (0,) * free,
        _states=tuple(states),
        _edge_gen=edge_gen,
        _v=v,
        _diag=diag,
        _num_schreier=count,
    )


def basis_check(elements: Iterable[Word], ka: KernelAbelianization) -> bool:
    """Whether the kernel elements map to a basis of a free abelianization:
    their coordinate matrix must be square and unimodular."""
    if any(f != 0 for f in ka.invariant_factors):
        return False
    vectors = [ka.coordinates(w) for w in elements]
    if len(vectors) != len(ka.invariant_factors):
        return False
    return abs(_det(vectors)) == 1


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free Gaussian determinant (Bareiss)."""
    a = [list(row) for row in matrix]
    k = len(a)
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for t in range(k - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, k) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[k - 1][k - 1]


# ---------------------------------------------------------------------------
# Commutation graph criterion


def commutation_graph_connected(n: int) -> bool:
    """Connectivity of the graph on the n-1 Artin generators with edges
    between the commuting (distant) pairs."""
    if n < 2:
        raise ValueError("need at least two strands")
    verts = list(range(1, n))
    if len(verts) == 1:
        return True
    adj = {v: [w for w in verts if abs(v - w) > 1] for v in verts}
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


# ---------------------------------------------------------------------------
# The rank-two free kernel on four strands

# Free words over the kernel generators: +/-1 is the first generator (the
# outer band c), +/-2 the second (its conjugate w).
FreeWord = tuple[int, ...]


def _free_inv(w: FreeWord) -> FreeWord:
    return tuple(-g for g in reversed(w))


@dataclass(frozen=True)
class FreeAut:
    """Automorphism of the rank-two free group, stored by generator images."""

    image_c: FreeWord
    image_w: FreeWord

    def apply(self, w: Iterable[int]) -> FreeWord:
        out: list[int] = []
        for g in w:
            img = self.image_c if abs(g) == 1 else self.image_w
            out.extend(img if g > 0 else _free_inv(img))
        return W._cancel_inverse_pairs(out)

    def then(self, inner: "FreeAut") -> "FreeAut":
        """The composite applying ``inner`` first, then self."""
        return FreeAut(self.apply(inner.image_c), self.apply(inner.image_w))


_C, _W = (1,), (2,)

# Conjugation action of the three-strand shadow on the free kernel.  The
# first-generator action fixes c and divides w by c; the u-action is the
# defining relation set of the semidirect product; the second-generator
# action is derived from them via s2 = u s1.
_AUT_S1 = FreeAut(image_c=(1,), image_w=(-1, 2))
_AUT_S1_INV = FreeAut(image_c=(1,), image_w=(1, 2))
_AUT_U = FreeAut(image_c=(2,), image_w=(2, 2, -1, 2))
_AUT_U_INV = FreeAut(image_c=(1, -2, 1, 1), image_w=(1,))
_AUT_S2 = _AUT_U.then(_AUT_S1)
_AUT_S2_INV = _AUT_S1_INV.then(_AUT_U_INV)

for _a, _b in ((_AUT_S1, _AUT_S1_INV), (_AUT_U, _AUT_U_INV), (_AUT_S2, _AUT_S2_INV)):
    assert _a.then(_b).image_c == _C and _a.then(_b).image_w == _W
    assert _b.then(_a).image_c == _C and _b.then(_a).image_w == _W


def k4_rewrite(w: BraidWord) -> FreeWord:
    """Rewrite a four-strand braid with trivial three-strand projection as a
    word in the two free kernel generators.

    Scans the word keeping the inner automorphism of the processed
    three-strand shadow; every outer letter emits the image of c or its
    inverse under that automorphism.  The result is verified by substitution.
    """
    if w.strands != 4:
        raise ValueError("defined on four strands")
    proj = W.project_to_b3(w)
    if not words_equal(classical(3), proj, BraidWord.identity(3)):
        raise ValueError("braid does not project trivially to three strands")
    shadow = FreeAut(_C, _W)
    out: list[int] = []
    for k in w.letters:
        if abs(k) == 3:
            emitted = shadow.apply(_C if k > 0 else _free_inv(_C))
            out.extend(emitted)
            step = _AUT_S1 if k > 0 else _AUT_S1_INV
        elif abs(k) == 1:
            step = _AUT_S1 if k > 0 else _AUT_S1_INV
        else:
            step = _AUT_S2 if k > 0 else _AUT_S2_INV
        shadow = shadow.then(step)
    result = W._cancel_inverse_pairs(out)
    if not words_equal(classical(4), free_word_to_braid(result), w):
        raise AssertionError("kernel rewriting failed verification")
    return result


def free_word_to_braid(fw: Iterable[int]) -> BraidWord:
    """Substitute the four-strand braids for the two kernel generators."""
    c = W.named_element("c", 4)
    w_elt = W.named_element("w", 4)
    parts = [BraidWord.identity(4)]
    for g in fw:
        base = c if abs(g) == 1 else w_elt
        parts.append(base if g > 0 else W.inverse(base))
    return W.compose(*parts)


def format_free_word(fw: FreeWord) -> str:
    names = {1: "c", 2: "w"}
    if not fw:
        return "1"
    return " ".join(names[abs(g)] + ("" if g > 0 else "^-1") for g in fw)


def parse_free_word(text: str) -> FreeWord:
    text = text.strip()
    if text in ("", "1"):
        return ()
    out = []
    for tok in text.split():
        m = re.fullmatch(r"(c|w)(?:\^(-?\d+))?", tok)
        if not m:
            raise ValueError(f"bad kernel word token {tok!r}")
        g = 1 if m.group(1) == "c" else 2
        k = int(m.group(2)) if m.group(2) else 1
        out.extend([g if k > 0 else -g] * abs(k))
    return W._cancel_inverse_pairs(out)


def _free_abelianize(fw: FreeWord) -> tuple[int, int]:
    return (
        sum(1 if g == 1 else -1 if g == -1 else 0 for g in fw),
        sum(1 if g == 2 else -1 if g == -2 else 0 for g in fw),
    )


# ---------------------------------------------------------------------------
# Induced matrices on rank-two abelianizations

IntMatrix = tuple[tuple[int, int], tuple[int, int]]

S1_MATRIX: IntMatrix = ((1, -1), (0, 1))
S2_MATRIX: IntMatrix = ((1, 0), (1, 1))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_inv2(m: IntMatrix) -> IntMatrix:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")
    return (
        (det * m[1][1], -det * m[0][1]),
        (-det * m[1][0], det * m[0][0]),
    )


T_MATRIX: IntMatrix = mat_mul(mat_inv2(S1_MATRIX), S2_MATRIX)
U_MATRIX: IntMatrix = mat_mul(S2_MATRIX, mat_inv2(S1_MATRIX))

# Conjugation by the first Artin generator on the rank-two abelianization of
# the three-strand commutator subgroup, basis (u, t): u -> t^-1 u, t -> u.
_B3AB_M: IntMatrix = ((1, 1), (-1, 0))


def _mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    out: IntMatrix = ((1, 0), (0, 1))
    base = m if k >= 0 else mat_inv2(m)
    for _ in range(abs(k)):
        out = mat_mul(out, base)
    return out


def b3_commutator_coordinates(w: BraidWord) -> tuple[int, int]:
    """Coordinates of a zero-exponent three-strand braid in the rank-two
    abelianization of the commutator subgroup, basis (u, t).

    Schreier rewriting over the infinite cyclic quotient: powers of the first
    generator form the transversal, and each second-generator letter emits a
    conjugate of u, whose abelianized image is a matrix power of the
    first-generator action.
    """
    if w.strands != 3:
        raise ValueError("defined on three strands")
    if W.exponent_sum(w) != 0:
        raise ValueError("not in the commutator subgroup")
    coords = (0, 0)
    height = 0
    for k in w.letters:
        if abs(k) == 1:
            height += 1 if k > 0 else -1
        elif k == 2:
            m = _mat_pow(_B3AB_M, height)
            coords = (coords[0] + m[0][0], coords[1] + m[1][0])
            height += 1
        else:
            height -= 1
            m = _mat_pow(_B3AB_M, height)
            coords = (coords[0] - m[0][0], coords[1] - m[1][0])
    assert height == 0
    return coords


def action_matrix(x, context: str) -> IntMatrix:
    """Induced matrix on a rank-two abelianization.

    ``context="K4ab"``: x is a zero-exponent four-strand braid acting by
    conjugation on the free kernel, basis (c, w).  ``context="B3primeAb"``:
    x is an automorphism specification acting on the three-strand commutator
    subgroup, basis (u, t).  Columns are images of the basis.
    """
    if context == "K4ab":
        if not isinstance(x, BraidWord) or x.strands != 4:
            raise ValueError("context K4ab needs a four-strand braid")
        if W.exponent_sum(x) != 0:
            raise ValueError("context K4ab needs a zero-exponent braid")
        cols = []
        for gen in (W.named_element("c", 4), W.named_element("w", 4)):
            conj = W.compose(x, gen, W.inverse(x))
            cols.append(_free_abelianize(k4_rewrite(conj)))
        return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    if context == "B3primeAb":
        if not isinstance(x, W.AutomorphismSpec):
            raise ValueError("context B3primeAb needs an automorphism spec")
        u = W.named_element("u", 3)
        t = W.named_element("t", 3)
        cu = b3_commutator_coordinates(W.apply_automorphism(x, u))
        ct = b3_commutator_coordinates(W.apply_automorphism(x, t))
        return ((cu[0], ct[0]), (cu[1], ct[1]))
    raise ValueError(f"unknown context {context!r}")


def free_words_check(generators: Sequence[Sequence[Sequence[int]]], max_len: int) -> bool:
    """True when no nonempty reduced word over the matrices and their
    inverses of length at most ``max_len`` evaluates to the identity.
    ValueError for an empty generator list or ``max_len`` below 1, for
    which there is no word to test, and for matrices that are not square
    of one size.

    Meet in the middle.  A reduced relation w of length m <= max_len is
    u v^-1 with u its first ceil(m/2) letters, so u and v are distinct
    reduced words of length at most h = ceil(max_len/2) with equal matrices.
    Conversely two distinct reduced words u, v with equal matrices give the
    nonempty relation u v^-1, of reduced length at most |u| + |v|.  So the
    reduced words of length <= h are multiplied out breadth first, keeping
    for each matrix the length of the shortest word that reaches it, and the
    search stops when a word and that shortest one have lengths adding up to
    at most ``max_len``.  It multiplies out about (2k - 1)^h words for k
    generators: 13 120 for two generators at ``max_len`` 16, the largest it
    is meant for (the ledger uses 10).
    """
    if not generators:
        raise ValueError("free_words_check needs at least one generator")
    if max_len < 1:
        raise ValueError(f"free_words_check needs max_len >= 1, got {max_len}")
    mats = [tuple(tuple(row) for row in m) for m in generators]
    size = len(mats[0])
    if not size or any(len(m) != size or any(len(r) != size for r in m) for m in mats):
        raise ValueError("free_words_check needs square matrices of one size")
    ident = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    alphabet = []
    for i, m in enumerate(mats):
        inv = _mat_inv_general(m)
        alphabet.append((i + 1, m))
        alphabet.append((-(i + 1), inv))
    shortest = {ident: 0}
    frontier = [(ident, 0)]  # (matrix, last letter) of the words of one length
    for length in range(1, (max_len + 1) // 2 + 1):
        grown = []
        for prod, last in frontier:
            for label, m in alphabet:
                if label == -last:
                    continue
                nxt = mat_mul(prod, m)
                other = shortest.get(nxt)
                if other is None:
                    shortest[nxt] = length
                elif length + other <= max_len:
                    return False
                grown.append((nxt, label))
        frontier = grown
    return True


def _mat_inv_general(m):
    size = len(m)
    if size == 2:
        return mat_inv2(m)
    det = _det(m)
    if det not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")
    cof = [
        [
            (-1) ** (i + j)
            * _det([row[:j] + row[j + 1 :] for row in (m[:i] + m[i + 1 :])])
            for j in range(size)
        ]
        for i in range(size)
    ]
    return tuple(tuple(det * cof[j][i] for j in range(size)) for i in range(size))


# ---------------------------------------------------------------------------
# Built-in presentations


def b4_commutator_presentation() -> tuple[FinitePresentation, FiniteImageMap]:
    """Four-generator presentation of the four-strand commutator subgroup and
    its map onto the even permutations of four points."""
    pres = FinitePresentation(("u", "v", "w", "c"), ())
    relators = tuple(
        pres.parse_word(t)
        for t in (
            "u*c/u/w",
            "u*w/u/w*c/w/w",
            "v*c/v/w*c",
            "v*w/v/w*c*c/w*c/w*c/w*c",
        )
    )
    pres = FinitePresentation(pres.generators, relators)
    t1 = Permutation.transposition(4, 1, 2)
    t2 = Permutation.transposition(4, 2, 3)
    t3 = Permutation.transposition(4, 3, 4)
    image = FiniteImageMap((t2 * t1, t1 * t2, t2 * t3 * t1 * t2, t3 * t1))
    return pres, image


def b3_commutator_presentation() -> tuple[FinitePresentation, FiniteImageMap]:
    """The free rank-two group on (u, t) with its map onto the three-cycles."""
    pres = FinitePresentation(("u", "t"), ())
    u = Permutation.from_cycles(3, [(1, 2, 3)])
    t = Permutation.from_cycles(3, [(1, 3, 2)])
    return pres, FiniteImageMap((u, t))
