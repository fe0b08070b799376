"""Kernel abelianizations, integer normal forms, and rank-two actions.

Finitely presented groups mapping onto a finite permutation group have their
kernel abelianized by Schreier rewriting: breadth-first transversal over the
image's Cayley graph, one rewritten relator per coset, then Smith reduction
of the relation matrix.  The same machinery yields exact coordinates for
kernel elements, which is what basis and rank checks consume.

The Cayley graph is held as integer tables, successor and predecessor state
and Schreier label per state and generator, built by composing tuples of
images, so rewriting walks indices and a relator vanishes in the image
exactly when its walk from the identity state returns there.  Relation
matrices from Schreier rewriting are sparse and nearly all their pivots are
units (Havas, Holt and Rees, Linear Algebra Appl. 192, 1993), so the Smith
reduction holds sparse rows ``{column: value}`` and keeps its greedy minimal
pivot rule: the pivot search stops at the first unit, a column swap
relabels positions instead of moving entries, a row pass eliminates over
the nonzero entries of the pivot row, and after a row pass that swapped no
rows the pivot is alone in its column, so the column pass rewrites only the
pivot row and V.  The divisibility scan is skipped after a unit pivot.  The
reduction builds the column transform V, by columns, which coordinates are
read with; the row transform U is never needed, so row operations act on
the matrix alone.  A kernel abelianization keeps one column of V per
invariant factor other than 1, and D is built only for
``smith_normal_form``.  Ranks and determinants come from fraction-free
elimination (``_eliminate``) instead, whose entries are minors of the
matrix.

The four-strand specific tools rewrite the kernel of the projection onto
three strands as a free group on two generators and read off induced integer
matrices on rank-two abelianizations.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import words as W
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


def parse_presentation(text: str) -> tuple[FinitePresentation, FiniteImageMap | None]:
    """Read the minimal text format: a ``gens:`` line of distinct names,
    ``rel:`` lines, and optional ``degree:`` plus one ``image:`` line in
    cycle notation per name of ``gens:``."""
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
            if len(set(gens)) != len(gens):
                raise ValueError(f"repeated generator name in {raw.strip()!r}")
        elif key == "rel":
            relator_texts.append(rest)
        elif key == "degree":
            if not rest.isdecimal():
                raise ValueError(f"bad degree line {raw.strip()!r}")
            degree = int(rest)
        elif key == "image":
            name, _, cyc = rest.partition("=")
            name = name.strip()
            if name in image_texts:
                raise ValueError(f"second image line for {name!r}")
            image_texts[name] = cyc.strip()
        else:
            raise ValueError(f"unknown line {raw!r}")
    if gens is None:
        raise ValueError("missing gens: line")
    pres = FinitePresentation(gens, ())
    relators = tuple(pres.parse_word(t) for t in relator_texts)
    pres = FinitePresentation(gens, relators)
    image = None
    unknown = [name for name in image_texts if name not in gens]
    if unknown:
        raise ValueError(f"image lines for names not in gens: {unknown}")
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
    """D = U M V with V unimodular, for some unimodular U that is not kept,
    and D diagonal with a divisibility chain; ``factors`` lists the diagonal
    up to min(rows, cols)."""

    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...]


def _axpy(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src on sparse vectors, keeping only nonzero entries.  With
    q nonzero, an entry that comes out zero was in dst."""
    get = dst.get
    for k, y in src.items():
        z = get(k, 0) + q * y
        if z:
            dst[k] = z
        else:
            del dst[k]


def _least_entry(rows: list[dict[int, int]], pos: list[int], t: int):
    """(row, position) of the first entry of least absolute value in
    row-major order among the nonzero entries of rows t onwards, or None if
    there is none.  Nothing is smaller than a unit, so the search stops at
    the first row holding one."""
    best = None
    least = 0
    for i in range(t, len(rows)):
        row = rows[i]
        if not row:
            continue
        values = row.values()
        m = 1 if 1 in values or -1 in values else min(map(abs, values))
        if best is None or m < least:
            best = i, min(pos[c] for c, x in row.items() if x == m or x == -m)
            least = m
            if m == 1:
                break
    return best


def _smith(rows: list[dict[int, int]], cols: int):
    """The greedy Smith elimination on sparse rows ``{column: value}`` of a
    matrix with ``cols`` columns, reducing the rows in place.  Returns the
    min(rows, cols) diagonal entries and V as one sparse column
    ``{row: value}`` per position."""
    at = list(range(cols))  # the column held at each position
    pos = list(range(cols))  # the position of each column
    v = [{c: 1} for c in range(cols)]  # the columns of V, by column

    def swap_cols(j, k):
        at[j], at[k] = at[k], at[j]
        pos[at[j]], pos[at[k]] = j, k

    t = 0
    while t < min(len(rows), cols):
        pivot = _least_entry(rows, pos, t)
        if pivot is None:
            break
        rows[t], rows[pivot[0]] = rows[pivot[0]], rows[t]
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            # row[i] -= q * row[t] for every row i below the pivot; a row
            # left with a remainder becomes the pivot row and the old one
            # takes its place, the only rows besides t left in column t
            c, piv, held = at[t], rows[t], [t]
            for i, row in enumerate(rows[t + 1:], t + 1):
                if c in row:
                    q = row[c] // piv[c]
                    if q:
                        _axpy(row, piv, -q)
                    if c in row:
                        rows[t], rows[i] = row, piv
                        piv = row
                        held.append(i)
                        dirty = True
            # col[j] -= q * col[t] for every column j right of the pivot
            col = [(rows[i], rows[i][c]) for i in held]
            for j, d in sorted((pos[d], d) for d in piv if d != c):
                q = piv[d] // piv[c]
                if q:
                    for row, y in col:
                        z = row.get(d, 0) - q * y
                        if z:
                            row[d] = z
                        else:
                            del row[d]
                    _axpy(v[d], v[c], -q)
                if d in piv:
                    swap_cols(t, j)
                    c = d
                    col = [(row, row[c]) for row in rows[t:] if c in row]
                    dirty = True
        c = at[t]
        p = rows[t][c]
        if p != 1 and p != -1:
            # enforce divisibility of the remaining block by the pivot
            bad = next(
                (row for row in rows[t + 1:] if any(x % p for x in row.values())),
                None,
            )
            if bad is not None:
                _axpy(rows[t], bad, 1)
                continue
        if p < 0:
            rows[t][c] = -p
        t += 1

    factors = tuple(rows[i].get(at[i], 0) for i in range(min(len(rows), cols)))
    return factors, [v[c] for c in at]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Exact Smith reduction with greedy minimal pivots: each step takes the
    first entry of least absolute value in row-major order.

    The matrix is held as sparse rows and V as sparse columns.  Row
    operations act on M alone, so the row transform U of D = U M V is never
    built; a column swap relabels the positions of the columns instead of
    moving entries.  A row pass reduces every row below the pivot over the
    nonzero entries of the pivot row.  Column t then holds the pivot and the
    rows that served as pivot earlier in the pass, only the pivot when the
    pass swapped no rows, so the column pass rewrites those rows and V
    alone.  After a unit pivot every remaining entry is a multiple of it,
    so the divisibility scan is skipped.
    """
    rows = [{j: x for j, x in enumerate(map(int, row)) if x} for row in matrix]
    cols = len(matrix[0]) if rows else 0
    factors, v = _smith(rows, cols)
    return SmithForm(
        tuple(
            tuple(factors[i] if i == j else 0 for j in range(cols))
            for i in range(len(rows))
        ),
        tuple(tuple(col.get(i, 0) for col in v) for i in range(cols)),
        factors,
    )


def matrix_rank(matrix: Sequence[Sequence[int]]) -> int:
    return _eliminate(matrix)[0]


# ---------------------------------------------------------------------------
# Kernel abelianization by Schreier rewriting


def _schreier_edges(image: FiniteImageMap):
    """Breadth-first (shortlex) transversal of the image group as integer
    Cayley tables over the states, numbered in the order they are reached.
    States are tuples of 0-based images, composed left to right like
    ``Permutation`` products.

    ``succ[s][i]`` is (the state s times image i, label of that edge) and
    ``pred[s][i]`` is (the state s times image i inverse, label of the edge
    from it to s).  Tree edges are labelled None, the others by their
    Schreier generator, numbered by state and then by generator.  Returns
    (succ, pred, number of Schreier generators).
    """
    images = [tuple(x - 1 for x in p.images) for p in image.images]
    start = tuple(range(image.degree))
    states = [start]
    state_index = {start: 0}
    succ = []
    count = 0
    for g in states:  # grows while read: the queue of the search
        row = []
        for img in images:
            h = tuple(map(img.__getitem__, g))
            s = state_index.get(h)
            if s is not None:
                row.append((s, count))
                count += 1
            else:
                state_index[h] = len(states)
                states.append(h)
                row.append((len(states) - 1, None))
        succ.append(tuple(row))
    pred = [[None] * len(images) for _ in states]
    for s, row in enumerate(succ):
        for i, (h, label) in enumerate(row):
            pred[h][i] = (s, label)
    return tuple(succ), tuple(map(tuple, pred)), count


def _rewrite(succ, pred, word: Word, start: int) -> dict[int, int]:
    """Abelianized Schreier rewriting of a kernel word read from a coset, as
    a sparse vector over the Schreier generators."""
    vec: dict[int, int] = {}
    state = start
    for g in word:
        if g > 0:
            state, label = succ[state][g - 1]
            if label is not None:
                vec[label] = vec.get(label, 0) + 1
        else:
            state, label = pred[state][-g - 1]
            if label is not None:
                vec[label] = vec.get(label, 0) - 1
    if state != start:
        raise ValueError("word does not lie in the kernel")
    return {k: x for k, x in vec.items() if x}


@dataclass(frozen=True)
class KernelAbelianization:
    """Invariant factors of the kernel's abelianization plus an exact
    coordinate map for kernel words (0 denotes a free factor)."""

    presentation: FinitePresentation
    image: FiniteImageMap
    invariant_factors: tuple[int, ...]
    _succ: tuple
    _pred: tuple
    # (factor, column of V) per coordinate, for every factor other than 1
    _columns: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.invariant_factors if f == 0)

    def coordinates(self, word: Word) -> tuple[int, ...]:
        """Coordinates of a kernel word in the abelianization, one entry per
        invariant factor (torsion entries reduced modulo their factor)."""
        k = len(self.image.images)
        if any(g == 0 or abs(g) > k for g in word):
            raise ValueError(f"word references unknown generator: {word}")
        entries = _rewrite(self._succ, self._pred, word, 0).items()
        out = []
        for d, col in self._columns:
            y = sum(x * col[i] for i, x in entries)
            out.append(y % d if d else y)
        return tuple(out)


def kernel_abelianization(
    pres: FinitePresentation, image: FiniteImageMap
) -> KernelAbelianization:
    """Abelianize the kernel of the map onto the finite permutation group,
    a subgroup of index equal to the image order."""
    if len(pres.generators) != len(image.images):
        raise ValueError("one image per generator required")
    succ, pred, count = _schreier_edges(image)
    for rel in pres.relators:
        state = 0  # the identity: a relator vanishes when its walk returns
        for g in rel:
            state = succ[state][g - 1][0] if g > 0 else pred[state][-g - 1][0]
        if state:
            raise ValueError(f"relator {rel} does not vanish in the image")
    relation_rows = [
        _rewrite(succ, pred, rel, s) for s in range(len(succ)) for rel in pres.relators
    ]
    diag, v = _smith(relation_rows, count)
    # The factors form a divisibility chain, so the ones other than 1 are the
    # torsion factors in increasing order followed by the free zeros.
    factors = diag + (0,) * (count - len(diag))
    columns = tuple(
        (d, tuple(col.get(i, 0) for i in range(count)))
        for d, col in zip(factors, v)
        if d != 1
    )
    return KernelAbelianization(
        presentation=pres,
        image=image,
        invariant_factors=tuple(d for d, _ in columns),
        _succ=succ,
        _pred=pred,
        _columns=columns,
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


def _eliminate(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination, skipping columns without a pivot:
    the rank and the signed last pivot.  Every entry is a minor of the matrix."""
    a = [list(row) for row in matrix]
    rank, sign, prev = 0, 1, 1
    for c in range(len(a[0]) if a else 0):
        r = rank
        while r < len(a) and not a[r][c]:
            r += 1
        if r == len(a):
            continue
        a[rank], a[r] = a[r], a[rank]
        if r != rank:
            sign = -sign
        p = a[rank]
        pc = p[c]
        for row in a[rank + 1:]:
            rc = row[c]
            for j in range(c + 1, len(p)):
                row[j] = (row[j] * pc - rc * p[j]) // prev
            row[c] = 0
        prev = pc
        rank += 1
    return rank, sign * prev


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """The determinant: the signed last pivot of ``_eliminate`` at full rank."""
    rank, last = _eliminate(matrix)
    return last if rank == len(matrix) else 0


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
    if not W.same_braid(proj, BraidWord.identity(3)):
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
    if not W.same_braid(free_word_to_braid(result), w):
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


def _mat_mul2(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """``mat_mul`` of two 2x2 matrices, unrolled."""
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


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
# Its cube is -I, so its powers are read from a table of six.
_B3AB_M: IntMatrix = ((1, 1), (-1, 0))
_B3AB_POWERS: list[IntMatrix] = [((1, 0), (0, 1))]
for _ in range(5):
    _B3AB_POWERS.append(_mat_mul2(_B3AB_POWERS[-1], _B3AB_M))
assert _mat_mul2(_B3AB_POWERS[-1], _B3AB_M) == _B3AB_POWERS[0]


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
            m = _B3AB_POWERS[height % 6]
            coords = (coords[0] + m[0][0], coords[1] + m[1][0])
            height += 1
        else:
            height -= 1
            m = _B3AB_POWERS[height % 6]
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
    is meant for (the ledger uses 10).  Products of 2x2 matrices, the only
    size the toolkit checks, are multiplied unrolled.
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
    product = _mat_mul2 if size == 2 else mat_mul
    shortest = {ident: 0}
    frontier = [(ident, 0)]  # (matrix, last letter) of the words of one length
    for length in range(1, (max_len + 1) // 2 + 1):
        grown = []
        for prod, last in frontier:
            for label, m in alphabet:
                if label == -last:
                    continue
                nxt = product(prod, m)
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


@functools.lru_cache(maxsize=None)
def b4_commutator_presentation() -> tuple[FinitePresentation, FiniteImageMap]:
    """Four-generator presentation of the four-strand commutator subgroup and
    its map onto the even permutations of four points, built once."""
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


@functools.lru_cache(maxsize=None)
def b3_commutator_presentation() -> tuple[FinitePresentation, FiniteImageMap]:
    """The free rank-two group on (u, t) with its map onto the three-cycles,
    built once."""
    pres = FinitePresentation(("u", "t"), ())
    u = Permutation.from_cycles(3, [(1, 2, 3)])
    t = Permutation.from_cycles(3, [(1, 3, 2)])
    return pres, FiniteImageMap((u, t))
