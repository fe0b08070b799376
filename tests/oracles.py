"""Slow reference paths, kept as test oracles for the library's fast ones.

``from_perm0`` and ``simple_of_perm0`` turn a permutation into a simple
after testing it, where the library wraps only arrays it made, unchecked
(``GarsideStructure._simple``); ``cycle_labels`` labels each entry by its
cycle, where the library only counts cycles (``garside._cycles``).

``meet`` is the greatest common prefix computed apart from the weighting
kernel ``_weigh``, from which the library derives it: for classical simples
by moving common first letters, for band simples as the common refinement of
the cycles.  ``left_quotient`` and ``left_divides`` are the prefix quotient
and the prefix test read off permutations and atom lengths; the brute-force
lattice checks are built on them.  ``generic_normalize_pair`` weights a pair
through the lattice operations (that ``meet``, ``complement``, ``mul``,
``left_quotient``) instead of a structure's kernel.  ``combine``, ``mul``
and ``from_word`` are the normal-form arithmetic on ``Simple`` values before
the forward-pass insertion, run on that generic pair weighting: weight the
junction of two weighted sequences forward and comb every change backwards,
and read a word one letter at a time.  ``conjugate`` is g^-1 x g as two such
products, and ``atom_pair_walk`` the atom-pair search on normal forms with
that conjugation, memoized per (atom, simple) across walks since it is pure.
``solve_pair_by_conjugacy_decision`` is the pair solver whose first step
conjugates Y to the second Artin letter by the full conjugacy decision,
where the library reads Y's atom off Y's own slide trajectory, and whose
strips try each ``stripping_conjugators`` candidate on Y's atom as a normal
form, where the library reads the conjugated atom off a permutation.
``periodic_degree_by_normal_form`` reads the full-twist degree of a pure
braid off its classical left normal form, where the library compares
Dynnikov coordinates with the one power its exponent sum allows.

``pair_is_left_weighted``, ``right_meet`` and ``pair_is_right_weighted`` are
the definitional checks of the normal forms.  The classical ``right_meet`` is
computed from shared final letters, independently of the mirror, which the
library's right normal form goes through.

``words_equal_by_normal_forms`` is the word problem by comparing the two
left normal forms, and ``equal_by_quotient_normal_form`` by testing the one
left normal form of a . b^-1 for triviality after cancelling the common
ends, where the library compares Dynnikov coordinates and builds no normal
form.  ``burau_matrix`` is the unreduced Burau matrix mod p as a product of
whole generator matrices, and ``charpoly_faddeev_leverrier`` its
characteristic polynomial by the Faddeev-LeVerrier recursion, apart from the
library's Hessenberg reduction.  ``burau_row_of_powers`` is no oracle but
the one row, (7, 7^2, ..., 7^n) . B(w), that the Burau tests read.

``smith_normal_form_dense`` is the Smith reduction with greedy minimal
pivots on whole rows and columns, where the library holds sparse rows and
relabels columns.  It also carries the row transform U that the library
does not build, so the certificate D = U M V with U and V unimodular is
checked on it, and it can count the row swaps, column swaps and
divisibility fixes it makes, so a test can show that its draws reach them.
``kernel_coordinates_by_permutations`` is the Schreier rewriting on
``Permutation`` states that it abelianizes and reads coordinates with,
``word_image`` the image of a word as a product of ``Permutation`` images,
inverted by ``perm_inverse``, where the library walks its Cayley tables, and
``decompose_by_inner_product`` the decomposition by
one full inner product per irreducible over every partition of n, with the
module characters built on cycle types by the symmetric-square rule
(chi(g)^2 + chi(g^2))/2, apart from the library's closed forms in the fixed
points and 2-cycles.  ``b3_commutator_coordinates_by_powers``
multiplies out each power of the first-generator action letter by letter,
where the library reads it from a table of the six powers.

``split_by_deletion`` reads the tubular and interior braids of a cabled
word by one strand deletion per part, where the library sorts every
crossing into its part in one walk.

``band_letter_grows`` is the length test of the band letter products by
cycle counts: q has one cycle fewer than p and passes the simplicity count,
where the library reads one entry of q.  ``mul_letter`` is one letter
product as a new tuple, where ``engine.from_word`` grows each block's own
permutation in one list, the inverse of the simple for a negative block, by
one swap per letter of either sign; and ``mirror`` the mirror of a simple through the checked
conversions, where the library mirrors the kernel arrays of a right form
unchecked (``GarsideStructure._mirror_perm``).
"""

import functools
import math
from typing import NamedTuple

from braidkit import engine as E
from braidkit import words as W
from braidkit.garside import Simple, _cycles, _pinv, _pmul, classical
from braidkit import reptheory as R
from braidkit import subgroups as S
from braidkit.subgroups import _mat_inv_general, mat_mul
from braidkit.words import BraidWord, Permutation


def from_perm0(st, p):
    """The simple of st whose permutation is p, or None if there is none."""
    return Simple(st.kind, st.n, p) if st._is_simple(p) else None


def simple_of_perm0(st, p):
    """The simple of st whose permutation is p; ValueError if there is none."""
    s = from_perm0(st, p)
    if s is None:
        raise ValueError(f"permutation {tuple(p)} is not a simple element of {st.kind}({st.n})")
    return s


def cycle_labels(p, shift=0):
    """For each entry, the index of its cycle under the map v -> p[v - shift]
    (indices mod n; cycles numbered in order of their minima): of p for
    shift 0, of delta^-1 p, whose cycles are those of p^-1 delta, for
    shift 1."""
    labels = [-1] * len(p)
    count = 0
    for start in range(len(p)):
        if labels[start] < 0:
            v = start
            while labels[v] < 0:
                labels[v] = count
                v = p[v - shift]
            count += 1
    return labels


def meet(st, a, b):
    """Greatest common prefix of a and b, without the weighting kernel."""
    if st.kind == "classical":
        # Greedy common-prefix extraction: any letter starting both operands
        # starts the meet, and the quotients reduce the problem.
        x, y = list(st._perm0(a)), list(st._perm0(b))
        m = list(st._id)
        n = st.n
        while True:
            j = next(
                (j for j in range(n - 1) if x[j] > x[j + 1] and y[j] > y[j + 1]),
                None,
            )
            if j is None:
                return simple_of_perm0(st, tuple(m))
            pj, pj1 = m.index(j), m.index(j + 1)
            m[pj], m[pj1] = j + 1, j
            x[j], x[j + 1] = x[j + 1], x[j]
            y[j], y[j + 1] = y[j + 1], y[j]
    # The common refinement of the cycles, each piece chained into one
    # increasing cycle.
    la = cycle_labels(st._perm0(a))
    lb = cycle_labels(st._perm0(b))
    m = list(st._id)
    first, last = {}, {}
    for v in range(st.n):
        k = (la[v], lb[v])
        if k in last:
            m[last[k]] = v
        else:
            first[k] = v
        last[k] = v
    for k, v in last.items():
        m[v] = first[k]
    return Simple(st.kind, st.n, tuple(m))


def left_quotient(st, t, s):
    """t^-1 s for a prefix t of s."""
    return simple_of_perm0(st, _pmul(_pinv(st._perm0(t)), st._perm0(s)))


def left_divides(st, a, b):
    """Whether a is a prefix of b: a^-1 b is simple and the lengths add."""
    q = from_perm0(st, _pmul(_pinv(st._perm0(a)), st._perm0(b)))
    length = st._key_length
    return q is not None and length(a.key) + length(q.key) == length(b.key)


def generic_normalize_pair(st, x, y):
    """Make (x, y) left weighted by moving t = meet(x^-1 delta, y) onto x."""
    t = meet(st, st.complement(x), y)
    if st.is_identity(t):
        return x, y, False
    return st.mul(x, t), left_quotient(st, t, y), True


def pair_is_left_weighted(st, x, y):
    """meet(x^-1 delta, y) is trivial.  Classically: every letter that can
    start y already finishes x, read off the descents of y and of x^-1."""
    if st.kind == "classical":
        ai = _pinv(x.key)
        b = y.key
        return all(ai[j] > ai[j + 1] for j in range(st.n - 1) if b[j] > b[j + 1])
    return st.is_identity(meet(st, st.complement(x), y))


def right_meet(st, a, b):
    """Greatest common suffix of a and b."""
    if st.kind != "classical":
        # Left and right divisors of a band simple coincide (reflection
        # length is invariant under inversion and conjugation), so the suffix
        # lattice is the same refinement lattice.
        return meet(st, a, b)
    # Mirror of meet: grow a common suffix from shared final letters.
    x, y = list(a.key), list(b.key)
    xi, yi = list(_pinv(a.key)), list(_pinv(b.key))
    m = list(range(st.n))
    while True:
        j = next(
            (j for j in range(st.n - 1) if xi[j] > xi[j + 1] and yi[j] > yi[j + 1]),
            None,
        )
        if j is None:
            return simple_of_perm0(st, tuple(m))
        m[j], m[j + 1] = m[j + 1], m[j]
        for arr, inv_arr in ((x, xi), (y, yi)):
            pj, pj1 = inv_arr[j], inv_arr[j + 1]
            arr[pj], arr[pj1] = j + 1, j
            inv_arr[j], inv_arr[j + 1] = pj1, pj


def pair_is_right_weighted(st, x, y):
    """right_meet(x, delta y^-1) is trivial."""
    return st.is_identity(right_meet(st, x, st.twist_pow(st.complement(y), -1)))


def combine(st, left, right):
    """Weight the concatenation of two weighted sequences: work the junction
    forward; every change combs backwards.  Returns the number of leading
    deltas and the remaining factors."""
    fs = left + right
    start = len(left) - 1
    if start >= 0:
        for i in range(start, len(fs) - 1):
            x, y, moved = generic_normalize_pair(st, fs[i], fs[i + 1])
            if not moved:
                break
            fs[i], fs[i + 1] = x, y
            for j in range(i - 1, -1, -1):
                x, y, moved = generic_normalize_pair(st, fs[j], fs[j + 1])
                if not moved:
                    break
                fs[j], fs[j + 1] = x, y
    fs = [f for f in fs if not st.is_identity(f)]
    lo = 0
    while lo < len(fs) and st.is_delta(fs[lo]):
        lo += 1
    return lo, tuple(fs[lo:])


def mul(x, y):
    st = x.structure
    q = y.inf
    shifted = [st.twist_pow(a, q) for a in x.factors]
    extra, factors = combine(st, shifted, list(y.factors))
    return E.GarsideNormalForm(st, x.inf + q + extra, factors)


def from_word(st, w):
    """Multiply in one letter at a time, right to left; s_j^-1 enters as
    delta^-1 . (delta s_j^-1)."""
    out = E.identity_nf(st)
    for k in reversed(w.letters):
        a = st.letter_simple(abs(k))
        if k > 0:
            letter = E.simple_nf(st, a)
        else:
            lc = st.twist_pow(st.complement(a), -1)
            letter = E.GarsideNormalForm(st, -1, () if st.is_identity(lc) else (lc,))
        out = mul(letter, out)
    return out


def mirror(st, s):
    """Image of s under the anti-automorphism that reverses a word and
    sends s_j to s_(n-j): reflect the strands (v -> n-1-v) and invert, with
    the key checked on the way in and the result on the way out."""
    pi = _pinv(st._perm0(s))
    n = st.n
    return simple_of_perm0(st, tuple(n - 1 - pi[n - 1 - v] for v in range(n)))


def mul_letter(st, p, j, left):
    """s_j p (left) or p s_j if that is a simple one atom longer than p,
    else None.  s_j p swaps the images of j - 1 and j, p s_j swaps the
    values.  The library's length test reads p^-1 for the right product."""
    if not st._grows(p if left else _pinv(p), j, left):
        return None
    q = list(p)
    if left:
        q[j - 1], q[j] = p[j], p[j - 1]
    else:
        q[p.index(j - 1)], q[p.index(j)] = j, j - 1
    return tuple(q)


def right_normal_form(st, w):
    """The mirror, factor by factor in reverse order, of the left form of the
    mirrored word."""
    x = from_word(st, E._mirror(w))
    factors = tuple(mirror(st, f) for f in reversed(x.factors))
    return E.GarsideNormalForm(st, x.inf, factors, side="right")


def conjugate(x, g):
    return mul(mul(E.inv(g), x), g)


@functools.lru_cache(maxsize=None)
def conjugate_by_simple(st, a, s):
    """The normal form of a^s for simples a and s."""
    return conjugate(E.simple_nf(st, a), E.simple_nf(st, s))


def atom_pair_walk(st, x, y, seen=None):
    """Breadth-first search through pairs of atoms conjugated by simples,
    from (x, y) to the pair of the first two Artin letters, on normal
    forms.  The pairs reached are added to seen, if given."""
    n = st.n
    target = (st.letter_simple(1), st.letter_simple(2))
    start = (x, y)
    if start == target:
        return BraidWord.identity(n)
    proper = [s for s in st.simples() if not st.is_identity(s)]
    frontier = {start: BraidWord.identity(n)}
    seen = set() if seen is None else seen
    seen.add(start)
    while frontier:
        new_frontier = {}
        for (a, b), trail in frontier.items():
            for s in proper:
                a2 = conjugate_by_simple(st, a, s)
                if not E.is_atom_nf(a2):
                    continue
                b2 = conjugate_by_simple(st, b, s)
                if not E.is_atom_nf(b2):
                    continue
                state = (a2.factors[0], b2.factors[0])
                if state in seen:
                    continue
                seen.add(state)
                t2 = W.free_reduce(W.compose(trail, BraidWord(n, st.simple_word(s))))
                if state == target:
                    return t2
                new_frontier[state] = t2
        frontier = new_frontier
    return None


def stripping_conjugators(st, x, b_p, y):
    """The candidate conjugators that strip the outer level of x, in order,
    as (normal form, simple, sign): B_p^-1 when B_p y is simple, then C_p,
    the first right factor of x, when y C_p is simple."""
    if st.mul(b_p, y) is not None:
        yield E.inv(E.simple_nf(st, b_p)), b_p, -1
    c_p = E._first_right_factor(x)
    if st.mul(y, c_p) is not None:
        yield E.simple_nf(st, c_p), c_p, 1


def solve_pair_by_conjugacy_decision(st, x_word, y_word):
    """The pair solver with its first step decided by the conjugacy solver:
    conjugate Y to the second Artin letter by ``conjugacy_solve``, then strip
    X by trying each stripping conjugator on Y's atom as a normal form, where
    the library reads the conjugated atom off a permutation, and walk the atom
    pairs as the library does."""
    n = st.n
    s1, s2 = BraidWord(n, (1,)), BraidWord(n, (2,))
    cert = E.conjugacy_solve(st, y_word, s2)
    if not cert.conjugate:
        return None
    u = cert.witness
    x = E.from_word(st, W.conjugate(x_word, u))
    y = st.letter_simple(2)
    while not E.is_atom_nf(x):
        shape = E.atom_conjugate_shape(x)
        if shape is None:
            return None
        length_before = x.canonical_length
        for g, s, sign in stripping_conjugators(st, x, shape[3][-1], y):
            y_new = E.conjugate(E.simple_nf(st, y), g)
            if E.is_atom_nf(y_new):
                step = BraidWord(n, st.simple_word(s))
                step = step if sign > 0 else W.inverse(step)
                x, y, u = E.conjugate(x, g), y_new.factors[0], W.free_reduce(W.compose(u, step))
                break
        else:
            return None
        if x.canonical_length >= length_before:
            return None
    tail = E._atom_pair_conjugator(st, x.factors[0], y)
    if tail is None:
        return None
    u = W.free_reduce(W.compose(u, tail))
    if all(equal_by_quotient_normal_form(st, W.conjugate(w, u), s)
           for w, s in ((x_word, s1), (y_word, s2))):
        return u
    return None


def periodic_degree_by_normal_form(w):
    """d if the pure braid w is the d-th power of the full twist, else None:
    its classical left normal form is delta^(2d) with no factors."""
    nf = E.from_word(classical(w.strands), w)
    if nf.canonical_length == 0 and nf.inf % 2 == 0:
        return nf.inf // 2
    return None


def burau_row_of_powers(w):
    """The Burau row (7, 7^2, ..., 7^n) . B(w) mod p, one fixed row whose
    image tells most braids apart."""
    p = W._BURAU_P
    return W._burau_row(w, [pow(7, i, p) for i in range(1, w.strands + 1)])


def band_letter_grows(st, p, q):
    """Whether q, a band simple p times a letter, is a band simple one atom
    longer than p: one cycle fewer, and cycles(q) + cycles(q^-1 delta) =
    n + 1."""
    cycles = _cycles(q)
    return cycles == _cycles(p) - 1 and cycles + _cycles(q, 1) == st.n + 1


def words_equal_by_normal_forms(st, a, b):
    """The word problem by left normal forms alone."""
    if a.strands != b.strands:
        raise ValueError("strand-count mismatch")
    return E.from_word(st, a).key() == E.from_word(st, b).key()


def equal_by_quotient_normal_form(st, a, b):
    """Cancel the common ends of the two words, then test whether the left
    normal form of a . b^-1 for what is left is trivial: a = b exactly when
    a b^-1 = 1, whose form is delta^0 with no factors."""
    a, b = W.cancel_common_ends(a, b)
    return a.letters == b.letters or E.from_word(st, W.compose(a, W.inverse(b))).is_trivial()


def burau_matrix(w, p=W._BURAU_P, t=W._BURAU_T):
    """The unreduced Burau matrix of w at t mod p, one full matrix product
    per letter: s_k is the identity with [[1-t, t], [1, 0]] on rows and
    columns k, k+1, and s_k^-1 its inverse [[0, 1], [1/t, 1 - 1/t]]."""
    n = w.strands
    ti = pow(t, -1, p)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in w.letters:
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        i = abs(k) - 1
        block = [[1 - t, t], [1, 0]] if k > 0 else [[0, 1], [ti, 1 - ti]]
        for r in range(2):
            for c in range(2):
                g[i + r][i + c] = block[r][c] % p
        out = [[x % p for x in row] for row in mat_mul(out, g)]
    return out


def charpoly_faddeev_leverrier(a, p=W._BURAU_P):
    """det(x I - a) mod p, constant term first: with M_0 = 0 and c_n = 1,
    M_k = a M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(a M_k) / k."""
    n = len(a)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        m = [[(x + (coeffs[n - k + 1] if r == c else 0)) % p for c, x in enumerate(row)]
             for r, row in enumerate(m)]
        trace = sum(mat_mul(a, m)[r][r] for r in range(n))
        coeffs[n - k] = -trace * pow(k, -1, p) % p
    return tuple(coeffs)


def free_words_check_dfs(generators, max_len):
    """True when no nonempty reduced word of length at most max_len >= 1
    over the matrices and their inverses evaluates to the identity."""
    mats = [tuple(tuple(row) for row in m) for m in generators]
    size = len(mats[0])
    ident = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    alphabet = []
    for i, m in enumerate(mats):
        inv = _mat_inv_general(m)
        alphabet.append((i + 1, m))
        alphabet.append((-(i + 1), inv))

    def dfs(prod, last, depth):
        for label, m in alphabet:
            if label == -last:
                continue
            nxt = mat_mul(prod, m)
            if nxt == ident:
                return False
            if depth + 1 < max_len and not dfs(nxt, label, depth + 1):
                return False
        return True

    return dfs(ident, 0, 0)


class DenseSmithForm(NamedTuple):
    """D = U M V with U and V unimodular; ``factors`` as in ``SmithForm``."""

    d: tuple
    u: tuple
    v: tuple
    factors: tuple


def smith_normal_form_dense(matrix, events=None):
    """Exact Smith reduction with greedy minimal pivots.  A dict passed as
    ``events`` counts the "row swap", "column swap" and "divisibility fix"
    steps of the reduction."""
    events = {} if events is None else events

    def note(kind):
        events[kind] = events.get(kind, 0) + 1

    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

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
                        note("row swap")
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        note("column swap")
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    add_row(i, t, 1)
                    note("divisibility fix")
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
    return DenseSmithForm(
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
        factors,
    )


def perm_inverse(g):
    """The inverse of a ``words.Permutation``."""
    images = [0] * g.degree
    for i, v in enumerate(g.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


def word_image(image, word):
    """The permutation a word over the generators maps to under the
    ``FiniteImageMap``, multiplied out letter by letter."""
    out = Permutation.identity(image.degree)
    for g in word:
        img = image.images[abs(g) - 1]
        out = out * (img if g > 0 else perm_inverse(img))
    return out


def schreier_edges_by_permutations(image):
    """Breadth-first (shortlex) transversal of the image group: returns the
    state list and the edge labelling; tree edges carry None, the remaining
    edges are numbered Schreier generators."""
    start = Permutation.identity(image.degree)
    states = [start]
    state_index = {start: 0}
    edge_gen = {}
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


def rewrite_by_permutations(image, edge_gen, count, word, start):
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
            state = state * perm_inverse(img)
            idx = edge_gen[(state, -g)]
            if idx is not None:
                vec[idx] -= 1
    if state != start:
        raise ValueError("word does not lie in the kernel")
    return vec


def kernel_coordinates_by_permutations(pres, image, words):
    """The relation matrix of the kernel and the coordinates of each kernel
    word, by rewriting on ``Permutation`` states and dense Smith reduction."""
    states, edge_gen, count = schreier_edges_by_permutations(image)
    relation_rows = [
        rewrite_by_permutations(image, edge_gen, count, rel, g)
        for g in states
        for rel in pres.relators
    ]
    if relation_rows:
        snf = smith_normal_form_dense(relation_rows)
        diag, v = snf.factors, snf.v
    else:
        diag = ()
        v = tuple(tuple(int(i == j) for j in range(count)) for i in range(count))
    coords = []
    for word in words:
        vec = rewrite_by_permutations(image, edge_gen, count, word, states[0])
        transformed = [sum(vec[i] * v[i][j] for i in range(count)) for j in range(count)]
        out = []
        for j, d in enumerate(diag):
            if d == 1:
                continue
            out.append(transformed[j] % d if d > 1 else transformed[j])
        for j in range(len(diag), count):
            out.append(transformed[j])
        coords.append(tuple(out))
    return relation_rows, coords


def split_by_deletion(w, comp):
    """The tubular braid and the interior braids of w: the strand deletions
    keeping the first strand of every tube, and each tube's strands."""
    firsts = frozenset(comp.block(i)[0] for i in range(1, comp.count + 1))
    interiors = [
        W._delete_strands_raw(w, frozenset(comp.block(i)))
        for i in range(1, comp.count + 1)
    ]
    return W._delete_strands_raw(w, firsts), interiors


def b3_commutator_coordinates_by_powers(w):
    """Coordinates of a zero-exponent three-strand braid in the commutator
    subgroup's abelianization, basis (u, t), with each power of the
    first-generator action multiplied out one factor at a time."""

    def mat_pow(m, k):
        out = ((1, 0), (0, 1))
        base = m if k >= 0 else S.mat_inv2(m)
        for _ in range(abs(k)):
            out = mat_mul(out, base)
        return out

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
            m = mat_pow(S._B3AB_M, height)
            coords = (coords[0] + m[0][0], coords[1] + m[1][0])
            height += 1
        else:
            height -= 1
            m = mat_pow(S._B3AB_M, height)
            coords = (coords[0] - m[0][0], coords[1] - m[1][0])
    return coords


def _square_type(rho):
    """Cycle type of g^2 for g of cycle type rho."""
    parts = []
    for c in rho:
        if c % 2:
            parts.append(c)
        else:
            parts.extend([c // 2, c // 2])
    return tuple(sorted(parts, reverse=True))


def natural_character(rho):
    """Fixed points of the class: the permutation module on n points."""
    return sum(1 for c in rho if c == 1)


def sym2_character(chi, rho):
    """(chi(g)^2 + chi(g^2)) / 2, exact."""
    q, r = divmod(chi(rho) ** 2 + chi(_square_type(rho)), 2)
    if r:
        raise ValueError("symmetric-square character is not integral")
    return q


def decompose_by_inner_product(target, n):
    """Irreducible multiplicities of a named character, one inner product
    over every class per irreducible."""
    if n < 4:
        raise ValueError("need n >= 4 for a two-row constituent (n-2, 2)")
    if target == "Sym2Standard":
        chi = lambda rho: sym2_character(natural_character, rho)
    elif target == "Sym2Vn11":
        refl = lambda rho: natural_character(rho) - 1
        chi = lambda rho: sym2_character(refl, rho)
    elif target == "Wmodule":
        chi = lambda rho: (
            sym2_character(natural_character, rho) - natural_character(rho) - 1
        )
    else:
        raise ValueError(f"unknown decomposition target {target!r}")

    def inner_product(chi1, chi2):
        total = sum(R.class_size(rho) * chi1(rho) * chi2(rho) for rho in R.partitions(n))
        q, r = divmod(total, math.factorial(n))
        if r:
            raise ValueError("inner product is not an integer")
        return q

    out = {}
    for lam in R.partitions(n):
        mult = inner_product(chi, lambda rho: R.character_value(lam, rho))
        if mult:
            out[lam] = mult
    return out
