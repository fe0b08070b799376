"""Structure-generic word and conjugacy machinery.

Elements are kept in left normal form delta^p A_1 ... A_r where every factor
is a proper simple and every adjacent pair is left weighted.

Left weighting happens in one place, ``_insert``: it multiplies a left
weighted sequence on the left by one simple.  A single forward pass does
that (Epstein et al., *Word Processing in Groups*, 1992, ch. 9; Birman-Ko-Lee,
Adv. Math. 139, 1998, for the band structure): weight the new simple against
the first factor, then the remainder against the next factor, and stop as
soon as nothing moves.  Pairs already passed stay weighted, because for a left
weighted pair (A, B) and any positive x the greatest simple prefix of x A B
is that of x A.  Only the first factor can become delta, and it goes into the
power.  ``from_word`` blocks same-sign letters into one simple while the
product stays simple, across far commutations (below), and inserts the
blocks right to left; ``mul`` inserts the twisted factors of its left
operand.  The loop runs on each structure's permutation arrays through its
kernel ``_weigh``; ``Simple`` values are built only when a normal form is
read in or handed out.  Each normal form is checked once: a form built by hand has its factors checked
when they are first read as arrays, and a form the engine builds from
kernel outputs, which are simples, is marked checked and never checked
again (``_from_perms``, ``_arrays``).

The other two forms come from the left form by formula.  The inverse of
delta^p A_1 ... A_r is delta^(-p-r) followed by the twisted complements of
A_r, ..., A_1, which are already left weighted (Elrifai-Morton, Quart. J.
Math. 45, 1994).  Reversing a word and sending s_j
to s_(n-j) is an anti-automorphism of both Garside monoids that fixes the
Garside element and swaps prefixes with suffixes (Birman-Ko-Lee, Adv. Math.
139, 1998), so the right normal form of w is the mirror image, factor by
factor in reverse order, of the left normal form of the mirrored word.  The
factors of that left form are kernel outputs, hence simples, and the mirror
maps simples to simples, so their arrays are mirrored once
(``GarsideStructure._mirror_perm``) and the right form is marked checked
without a second test.  It is for output only: the arithmetic reads factors
as a left form and refuses it.

Conjugacy is decided through cyclic sliding: iterating the sliding map lands
on a periodic circuit, and the set SC of all elements on sliding circuits is a
conjugacy-class invariant which we enumerate by closing under conjugation by
simple elements.  Only ``_slide_to_circuit`` slides; it records each
element's preferred prefix, so every circuit is slid at most once and the
conjugators of its elements, hence verified witnesses, come from that
record.  A trajectory stops at the first circuit already found.  A
conjugator stays a list of steps, simples and words, until a caller needs
its letters, and ``_spell`` alone spells steps, reducing freely once: free
reduction is confluent, so that gives the letters of reducing step by step.

Conjugation by a simple s is one backward and one forward pass on the
arrays, ``_conjugate_simple``.  ``_append`` multiplies a weighted sequence on
the right by s, weighting the pairs from the right end back and stopping at
the first pair that does not move; then ``_insert`` puts the twisted
complement of s in front, since s^-1 delta^p = delta^(p-1) tau^p(delta s^-1).
For r factors that is at most 2r + 1 kernel calls.  ``conjugate`` takes its
conjugator one factor at a time this way, so each slide is one such
conjugation.  The circuit closure calls ``_conjugate_simple`` on
permutations directly, with each simple's left complement computed once, and
asks it to stop as soon as the inf has dropped: unless appending s split off
a delta, the inf is kept only if the first step of the insertion makes the
first factor delta.  The pair solver runs in a band structure, the one it
is given if it is given one, since the centred shape of an atom's conjugates
that it strips is a band theorem (Birman-Ko-Lee) and fails classically.  For
X = delta^-p A_p ... a ... B_p, C_p its first right factor and y Y's atom,
a strip conjugates by B_p^-1 if B_p y is simple, else by C_p if y C_p is.
C_p is read off X's arrays by the mirror: the mirrored factors of X in
reverse order, followed by X's power of delta, are inserted into an empty
form, and its last factor mirrored back is C_p (``_first_right_factor``).
If s y is simple, s y = t s for the reflection t = s y s^-1 below s y, so
y^(s^-1) = t is the atom swapping the images of y's strands under s^-1; if
y s is simple, y^s swaps their images under s (Bessis 2003).  So Y is never
conjugated as a normal form.  Nor does the last step search.  A band
atom is a chord between two of the points 0, ..., n - 1 on a circle, and
two atoms braid exactly when their chords share one endpoint q
(Birman-Ko-Lee).  The letter s_k, and the band between the first and last
strands for k = n, is the chord from k - 1 to k mod n.  Conjugating by
it, or by its inverse, fixes every chord that it does not meet, and it
moves the end that a chord shares with it to its own other end, by the
relation a_ts a_sr = a_tr a_ts = a_sr a_tr for t > s > r in cyclic order.
So s1^-1 if q = 0, then s_q, ..., s_2, bring q to 1; of the two other
ends, the one that comes first after 2 in cyclic order goes down to 2 by
s_k, and the other one on to 0 by s_(k+1)^-1, each step missing the chord
already in place; and if x's chord is the one that ended at 2,
Delta_3 = s1 s2 s1 exchanges s1 and s2.  That is at most 4n - 6 letters
(``_atom_pair_conjugator``).  The pair solver does not search SC either:
Y is conjugate to an atom exactly when its circuit representative is one,
since an atom has summit (inf, sup) = (0, 1).

Four exact shortcuts keep the search small.  Circuit elements lie in the
super summit set, whose inf and sup (the summit inf and sup) are conjugacy
invariants (Elrifai-Morton, Quart. J. Math. 45, 1994); a conjugate y^s of a
summit element y by a simple s has inf <= inf(y) and sup >= sup(y), with
equality in both exactly when it is a summit element too.  SC is connected by
conjugations by simples that stay inside it (Gebhardt-Gonzalez-Meneses,
"Solving the conjugacy problem in Garside groups by cyclic sliding",
J. Symbolic Comput. 45, 2010).  So the closure discards every conjugate that
leaves the summit (inf, sup) window before sliding it, and still reaches all
of SC; ``conjugacy_solve`` answers "not conjugate" when the two circuit
representatives differ in (inf, sup); and it stops the closure at the first
element equal to the representative of the second input.  SC is also
closed under the twist tau(x) = delta^-1 x delta, which twists every factor
and the preferred prefix, so it commutes with sliding and sends circuits to
circuits, and the conjugates of tau(x) by the simples are the twists of
those of x (the simples are closed under tau; Gebhardt-Gonzalez-Meneses,
J. Symbolic Comput. 45, 2010).  So every new circuit brings its twisted
images without a slide or a kernel call, and the closure conjugates one
vertex per twist orbit.  The closure holds its vertices as
(inf, permutations) and builds a normal form only for a new conjugate
inside the window, the one it slides, and for a new twisted image.

One more exact shortcut answers "no" without the Garside code.  The
unreduced Burau representation at t = 3 modulo a prime is a homomorphism
from B_n to GL_n(F_p) (``words._burau_row``), so ``conjugacy_solve``
answers "not conjugate" when the two characteristic polynomials differ
(``words._burau_charpoly``); it compares them once, after the start's
circuit has been yielded without a match and before the closure enumerates
a simple, so a positive found on that circuit never computes them.  Equal
polynomials prove nothing, since one prime can miss a difference and the
Burau representation is not faithful for n >= 5 (Bigelow, Geom. Topol. 3,
1999): the closure then decides as before.

One more exact shortcut shortens every word before it is weighted.
``from_word`` first cancels each pair s_i^e ... s_i^-e whose letters in
between are all far letters s_j^(+-1), |i - j| >= 2
(``words._cancel_commuting_inverses``).  Far letters commute with s_i, so
s_i^e M s_i^-e = M uses the far-commutation relations alone: the pair
cancels in the trace monoid of the letters (Cartier-Foata, LNM 85, 1969),
before the left-greedy insertion above.  Random words are full of such
pairs.  Every normal form goes through ``from_word``, so ``normal_form`` on
either side and every search shortens its words this way; ``_spell``,
which spells trails and witnesses, reduces freely only.

The same relations let a block reach past far letters.  A live letter
s_a^(+-1), one not yet in a block, is exposed when no later live letter is
s_(a-1), s_a or s_(a+1) to either sign: it commutes with every live letter
after it, so the word is the same braid with it moved to the end of the
live letters.  Each block takes one sign, positive unless most exposed
letters are negative, and grows from every exposed letter of that sign
while the product stays simple; taking a letter can expose only the new
last live letters of absolute values a - 1, a and a + 1.  The cancellation
pass leaves its per-value stacks of positions behind, so each exposure is
read in O(1), a block costs O(taken + n) and no letter is scanned twice.
A block is held as its own permutation, one list, which a letter of
either sign joins by one swap in place once the structure's ``_grows``
accepts it; a negative block b enters as delta^-1 . (delta b^-1), read off
that list without an inverse.
A letter that fails waits, still exposed, for the next block of its sign:
the block grows only by letters that commute with it, and a simple's
divisors are simples, so it would fail for the rest of the block.
Positive blocks go first when the signs tie, so a product of commuting
families P and N^-1 is normalised as N^-1 . P: the positive blocks are
inserted first, the negative ones then go in front of them, and each
insertion stops at the first factor, so the work is linear.  Read as
P . N^-1, each new factor of P would travel past all of N^-1.  Normal
forms are unique, so only the work changes.  Across letters that do not
commute nothing is reordered (on three strands exactly one letter is
exposed at a time, and the blocks are the runs of same-sign letters), so
P . N^-1 there keeps the insertion's O(L r) bound for L letters and r
factors, quadratic in L: ``B4: 1^K -2^K`` takes 10 198 kernel calls for
K = 100 and 40 398 for K = 200, in both structures.

Equality is not decided by normal forms.  ``words.same_braid`` cancels the
common ends of two words and compares the Dynnikov coordinates of the
middles, with no simple and no kernel call; ``words_equal`` is that
comparison after a strand check, so the structure it takes does not enter.
The witness checks here and the round trips of ``subgroups.k4_rewrite`` and
``cabling.extract`` make the same comparison, so every certificate is
checked by code that shares nothing with the search that found it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterator

from . import words as W
from .garside import BandStructure, GarsideStructure, Simple, _pmul, band
from .words import BraidWord

_SC_MAX = 20000
_TRAJECTORY_MAX = 10000


class SearchLimitExceeded(RuntimeError):
    """A search outgrew one of its limits: ``limit`` is the limit that was
    hit and ``reached`` the count at which the search stopped."""

    def __init__(self, what: str, limit: int, reached: int):
        super().__init__(f"{what} cap exceeded: reached {reached}, limit {limit}")
        self.limit = limit
        self.reached = reached


@dataclass(frozen=True, eq=False)
class GarsideNormalForm:
    """A power of the Garside element plus a weighted sequence of proper
    simples; ``side`` records whether the power sits on the left or right.
    ``_checked`` marks a form whose factors the engine built from kernel
    outputs, or mirrored from them, which need no check when they are read
    as arrays again."""

    structure: GarsideStructure
    inf: int
    factors: tuple[Simple, ...]
    side: str = "left"
    _checked: bool = field(default=False, repr=False, compare=False)

    def key(self) -> tuple:
        return (
            self.structure.kind,
            self.structure.n,
            self.side,
            self.inf,
            tuple(f.key for f in self.factors),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, GarsideNormalForm) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def sup(self) -> int:
        return self.inf + len(self.factors)

    def is_trivial(self) -> bool:
        return self.inf == 0 and not self.factors

    def to_word(self) -> BraidWord:
        st = self.structure
        delta_word = BraidWord(st.n, st._word(st._delta_perm))
        factor_words = [BraidWord(st.n, st._word(p)) for p in _arrays(self)]
        if self.side == "left":
            parts = [W.power(delta_word, self.inf)] + factor_words
        else:
            parts = factor_words + [W.power(delta_word, self.inf)]
        return W.compose(*parts)

    def __repr__(self):
        return (
            f"GarsideNormalForm({self.structure.kind}, n={self.structure.n}, "
            f"side={self.side}, inf={self.inf}, factors={[f.key for f in self.factors]})"
        )


# ---------------------------------------------------------------------------
# Normalisation and arithmetic


def _insert(
    st: GarsideStructure, s: tuple, fs: list[tuple], need_delta: bool = False
) -> int | None:
    """Multiply the left weighted list fs of proper simples on the left by
    the simple s, in place, all as permutations; return 1 if the product
    split off a delta, else 0.  Only the first step can make the first
    factor delta, so with need_delta the pass stops there and returns None
    when it did not (fs is then left half weighted)."""
    if s == st._id:
        return None if need_delta else 0
    weigh = st._weigh
    for i, y in enumerate(fs):
        moved = weigh(s, y)
        if moved is None:
            fs.insert(i, s)
            break
        fs[i], s = moved
        if need_delta and not i and fs[0] != st._delta_perm:
            return None
        if s == st._id:
            break
    else:
        fs.append(s)
    if fs[0] == st._delta_perm:
        del fs[0]
        return 1
    return None if need_delta else 0


def _insert_all(st: GarsideStructure, head: tuple, q: int, fs: list[tuple]) -> int:
    """Multiply fs on the left by tau^q of the product of head, the simples
    inserted right to left; return the number of deltas split off.  Each
    delta moves left past the simples still to come, twisting them once
    more."""
    e = 0
    for s in reversed(head):
        e += _insert(st, st._twist_perm(s, q + e), fs)
    return e


def _append(st: GarsideStructure, fs: list[tuple], s: tuple) -> int:
    """Multiply the left weighted list fs of proper simples on the right by
    the simple s, in place, all as permutations; return 1 if the product
    split off a delta, else 0.  The mirror of ``_insert``: weight the pairs
    from the right end back, and stop at the first pair that does not move."""
    if s == st._id:
        return 0
    weigh = st._weigh
    fs.append(s)
    for j in range(len(fs) - 2, -1, -1):
        moved = weigh(fs[j], fs[j + 1])
        if moved is None:
            break
        fs[j], fs[j + 1] = moved
    if fs[-1] == st._id:
        fs.pop()
    if fs and fs[0] == st._delta_perm:
        del fs[0]
        return 1
    return 0


def _conjugate_simple(
    st: GarsideStructure,
    p: int,
    fs: tuple,
    s: tuple,
    keep_inf: bool = False,
    s_bar: tuple | None = None,
) -> tuple[int, list[tuple]] | None:
    """y^s for y = delta^p fs and a simple s, all as permutations, returned
    as (inf, factors).  With s^-1 = delta^-1 (delta s^-1),
    y^s = delta^(p-1) tau^p(delta s^-1) . fs . s: append s, then insert the
    twisted left complement, at most 2r + 1 kernel calls for r factors.
    s_bar, when given, is that left complement delta s^-1.

    With keep_inf, return None as soon as inf(y^s) < p is certain: when
    appending s split off no delta and the first step of the insertion
    splits off none either."""
    if s_bar is None:
        s_bar = st._left_complement_perm(s)
    fs = list(fs)
    e = _append(st, fs, s)
    d = _insert(st, st._twist_perm(s_bar, p + e), fs, keep_inf and not e)
    if d is None:
        return None
    return p - 1 + e + d, fs


def _from_perms(st: GarsideStructure, inf: int, fs: list[tuple]) -> GarsideNormalForm:
    """The left form delta^inf fs of kernel outputs, which are simples."""
    return GarsideNormalForm(st, inf, tuple(map(st._simple, fs)), _checked=True)


def _arrays(x: GarsideNormalForm) -> tuple[tuple, ...]:
    """The factors of x as permutations; a form built by hand is checked
    here, one the engine built is not checked again."""
    if x._checked:
        return tuple(f.key for f in x.factors)
    return tuple(map(x.structure._perm0, x.factors))


def identity_nf(st: GarsideStructure) -> GarsideNormalForm:
    return GarsideNormalForm(st, 0, ())


def delta_power(st: GarsideStructure, p: int) -> GarsideNormalForm:
    return GarsideNormalForm(st, p, ())


def simple_nf(st: GarsideStructure, s: Simple) -> GarsideNormalForm:
    if st.is_identity(s):
        return identity_nf(st)
    if st.is_delta(s):
        return delta_power(st, 1)
    return GarsideNormalForm(st, 0, (s,))


def _left_forms(*xs: GarsideNormalForm) -> GarsideStructure:
    """The common structure of the operands; ValueError unless they are
    left normal forms of one structure.  The arithmetic reads factors as a
    left form, so a right form would give another braid."""
    st = xs[0].structure
    for x in xs:
        if x.side != "left":
            raise ValueError("arithmetic needs left normal forms, got a right one")
        if (x.structure.kind, x.structure.n) != (st.kind, st.n):
            raise ValueError("structure mismatch")
    return st


def mul(x: GarsideNormalForm, y: GarsideNormalForm) -> GarsideNormalForm:
    st = _left_forms(x, y)
    fs = list(_arrays(y))
    e = _insert_all(st, _arrays(x), y.inf, fs)
    return _from_perms(st, x.inf + y.inf + e, fs)


def inv(x: GarsideNormalForm) -> GarsideNormalForm:
    """The twisted complements, in reverse order, are already the left normal
    form of the inverse; each is the complement of a proper simple, hence
    proper."""
    st = _left_forms(x)
    p, fs = x.inf, _arrays(x)
    r = len(fs)
    return _from_perms(st, -p - r, [
        st._twist_perm(st._complement_perm(fs[i]), -(p + i + 1))
        for i in range(r - 1, -1, -1)
    ])


def power(x: GarsideNormalForm, k: int) -> GarsideNormalForm:
    acc = identity_nf(_left_forms(x))
    base = x if k >= 0 else inv(x)
    for _ in range(abs(k)):
        acc = mul(acc, base)
    return acc


def conjugate(x: GarsideNormalForm, g: GarsideNormalForm) -> GarsideNormalForm:
    """x^g = g^-1 x g.  For g = delta^k A_1 ... A_m, twist x's factors k
    times, then conjugate by A_1, ..., A_m in turn on the arrays."""
    st = _left_forms(x, g)
    p, fs = x.inf, [st._twist_perm(f, g.inf) for f in _arrays(x)]
    for f in _arrays(g):
        p, fs = _conjugate_simple(st, p, fs, f)
    return _from_perms(st, p, fs)


def from_word(st: GarsideStructure, w: BraidWord) -> GarsideNormalForm:
    """Read the word right to left, one block of same-sign letters at a
    time, and insert each block on the left of the form so far.  Inverse
    letters that only far letters separate are cancelled first
    (``words._cancel_commuting_inverses``).  A block takes every exposed
    letter of its sign, one whose later live letters are all far from it,
    while its product stays simple (module docstring): positive blocks,
    unless most exposed letters are negative.  p is one list per block,
    the permutation of the block b itself, which grows to s_a^(+-1) b by one
    swap once ``_grows`` accepts the letter; a negative b enters as
    delta^-1 . (delta b^-1), whose permutation is delta's followed by p.
    ``waiting`` holds the exposed letters by sign; a letter that a block
    cannot take waits for the next block of its sign."""
    if w.strands != st.n:
        raise ValueError("strand count does not match the structure")
    letters, below, top = W._cancel_commuting_inverses(w.letters)
    grows = st._grows
    waiting: list[list[int]] = [[], []]
    for a in range(1, len(top) - 1):
        i = top[a]
        if i > top[a - 1] and i > top[a + 1]:
            waiting[letters[i] > 0].append(a)
    fs: list[tuple] = []
    e = 0
    while waiting[0] or waiting[1]:
        positive = len(waiting[0]) <= len(waiting[1])
        todo, other = waiting[positive], waiting[not positive]
        failed = waiting[positive] = []
        p = list(st._id)
        while todo:
            a = todo.pop()
            if not grows(p, a, positive):
                failed.append(a)
                continue
            # s_a^(+-1) b swaps the images of a - 1 and a
            p[a - 1], p[a] = p[a], p[a - 1]
            j = top[a] = below[top[a]]
            l, r = top[a - 1], top[a + 1]
            if j > l and j > r:
                # s_a s_a divides no simple, so this block cannot take it
                waiting[letters[j] > 0].append(a)
            else:
                if l > j and l > top[a - 2]:
                    (todo if (letters[l] > 0) == positive else other).append(a - 1)
                if r > j and r > top[a + 2]:
                    (todo if (letters[r] > 0) == positive else other).append(a + 1)
        p = tuple(p) if positive else _pmul(st._delta_perm, p)
        e += _insert(st, st._twist_perm(p, e), fs) - (not positive)
    return _from_perms(st, e, fs)


def _mirror(w: BraidWord) -> BraidWord:
    """Reverse the word and send s_j to s_(n-j), keeping signs."""
    n = w.strands
    return BraidWord(n, tuple(n - k if k > 0 else -n - k for k in reversed(w.letters)))


def normal_form(st: GarsideStructure, w: BraidWord, side: str = "left") -> GarsideNormalForm:
    """The unique left (or right) weighted form of the word.

    The right form is the mirror of the left form of the mirrored word:
    that form's factor arrays, kernel outputs, are mirrored once and not
    checked again."""
    if side == "left":
        return from_word(st, w)
    if side != "right":
        raise ValueError(f"unknown side {side!r}")
    x = from_word(st, _mirror(w))
    simple, mirror_perm = st._simple, st._mirror_perm
    factors = tuple(simple(mirror_perm(f.key)) for f in reversed(x.factors))
    return GarsideNormalForm(st, x.inf, factors, side="right", _checked=True)


def _check_strands(st: GarsideStructure, a: BraidWord, b: BraidWord) -> None:
    """ValueError unless both words have the structure's strand count."""
    if a.strands != st.n:
        raise ValueError("strand count does not match the structure")
    if a.strands != b.strands:
        raise ValueError("strand-count mismatch")


def words_equal(st: GarsideStructure, a: BraidWord, b: BraidWord) -> bool:
    """Whether the two words are the same braid.  The structure only fixes
    the strand count: the common ends are cancelled and the middles'
    Dynnikov coordinates decide (``words.same_braid``)."""
    _check_strands(st, a, b)
    return W.same_braid(a, b)


# ---------------------------------------------------------------------------
# Cyclic sliding and sliding circuits


def preferred_prefix(x: GarsideNormalForm) -> Simple:
    """Meet of the initial factors of x and of x^-1."""
    st = _left_forms(x)
    if not x.factors:
        return st.identity()
    fs = _arrays(x)
    initial = st._simple(st._twist_perm(fs[0], -x.inf))
    initial_of_inverse = st._simple(st._complement_perm(fs[-1]))
    return st.meet(initial, initial_of_inverse)


def _slide_step(x: GarsideNormalForm) -> tuple[GarsideNormalForm, Simple]:
    st = x.structure
    p = preferred_prefix(x)
    if st.is_identity(p):
        return x, p
    # p is a meet's checked output and, below a proper factor, never delta
    return conjugate(x, GarsideNormalForm(st, 0, (p,), _checked=True)), p


def cyclic_sliding(st: GarsideStructure, w: BraidWord) -> BraidWord:
    """One application of the sliding map, as a word."""
    y, _ = _slide_step(from_word(st, w))
    return y.to_word()


def _slide_to_circuit(
    x: GarsideNormalForm, known: Container[tuple] = frozenset()
) -> tuple[GarsideNormalForm, tuple[Simple, ...], list[tuple[GarsideNormalForm, Simple]]] | None:
    """Iterate sliding until the trajectory becomes periodic.

    Returns the circuit's element of least key, the preferred prefixes whose
    product conjugates x to it (a step that ``_spell`` spells), and the
    circuit as (element, preferred prefix) pairs in sliding order from that
    element; None as soon as the trajectory meets a key in known, a union of
    whole circuits.
    """
    seen: dict[tuple, int] = {}
    traj: list[tuple[GarsideNormalForm, Simple]] = []
    cur = x
    while (k := cur.key()) not in seen:
        if k in known:
            return None
        if len(traj) > _TRAJECTORY_MAX:
            raise SearchLimitExceeded("sliding trajectory", _TRAJECTORY_MAX, len(traj))
        seen[k] = len(traj)
        nxt, p = _slide_step(cur)
        traj.append((cur, p))
        cur = nxt
    r = min(range(seen[k], len(traj)), key=lambda j: traj[j][0].key())
    return traj[r][0], tuple(p for _, p in traj[:r]), traj[r:] + traj[seen[k]:r]


def _circuit_search(
    st: GarsideStructure,
    circuit: list[tuple[GarsideNormalForm, Simple]],
    prefixes: tuple[Simple, ...],
) -> Iterator[tuple[tuple, GarsideNormalForm, tuple | None, tuple]]:
    """Yield every element of SC, the sliding circuits conjugate to circuit,
    in discovery order as (key, element, parent key, step): step is a tuple
    of simples and words whose product conjugates the parent, an element
    yielded before, to this one.  The first element has parent None and
    step prefixes, the preferred prefixes conjugating the start to it.
    ``_spell`` spells the steps; nothing is spelled here.

    Every vertex lies in the super summit set, so every vertex has the
    circuit's (inf, sup); a conjugate outside that window is not on any
    circuit and SC stays connected without it.  Vertices are conjugated as
    permutations, and a conjugate becomes a normal form only when it is
    inside the window and new.  A conjugate slid before is skipped: its
    trajectory now ends at a circuit in found.  Inside the window the inf is
    fixed and simple and permutation determine each other, so the factor
    arrays are an exact key.

    SC is closed under the twist tau (module docstring), so each new
    circuit comes with its twisted images not yet found, built from the
    arrays, with the step delta^k from x to tau^k(x), and one vertex
    per twist orbit is conjugated, by every simple other than 1 and delta.
    The simples are enumerated, with their left complements, once per
    search after the first circuit and its images are yielded: a caller
    that stops there needs none of them and meets no enumeration cap.
    """
    inf, r = circuit[0][0].inf, circuit[0][0].canonical_length
    head = (st.kind, st.n, "left", inf)
    order = st.twist_order
    delta_word = BraidWord(st.n, st._word(st._delta_perm))
    found: set[tuple] = set()
    covered: set[tuple] = set()  # every twist of every enqueued vertex
    slid: set[tuple] = set()
    queue: list[tuple[tuple, tuple]] = []

    def grow(key):
        found.add(key)
        if len(found) > _SC_MAX:
            raise SearchLimitExceeded("sliding circuit", _SC_MAX, len(found))

    def add(circuit, parent, step):
        orbits = []
        for x, p in circuit:
            key = x.key()
            grow(key)
            yield key, x, parent, step
            fs = _arrays(x)
            orbit = [tuple(st._twist_perm(f, k) for f in fs) for k in range(order)]
            orbits.append((key, orbit))
            if fs not in covered:
                covered.update(orbit)
                queue.append((fs, key))
            parent, step = key, (p,)
        for k in range(1, order):
            if head + (orbits[0][1][k],) in found:
                continue
            # delta^order is central, so delta^(k - order) twists as delta^k does
            step = (W.power(delta_word, k if 2 * k <= order else k - order),)
            for x_key, orbit in orbits:
                image = _from_perms(st, inf, orbit[k])
                key = image.key()
                grow(key)
                yield key, image, x_key, step

    yield from add(circuit, None, prefixes)
    proper = st._proper_simples()
    while queue:
        fs, y_key = queue.pop()
        for s, s_bar in proper:
            z = _conjugate_simple(st, inf, fs, s.key, True, s_bar)
            if z is None or z[0] != inf or len(z[1]) != r:
                continue
            zs = tuple(z[1])
            if zs in covered or zs in slid:
                continue
            slid.add(zs)
            reached = _slide_to_circuit(_from_perms(st, inf, zs), found)
            if reached is not None:
                _, z_prefixes, z_circuit = reached
                yield from add(z_circuit, y_key, (s, *z_prefixes))


def _spell(st: GarsideStructure, steps) -> BraidWord:
    """The product of the simples and words of the steps, freely reduced:
    the only place where a conjugator becomes letters.  Every simple of a
    step is one the library made, so its key is spelled unchecked."""
    letters: list[int] = []
    for step in steps:
        for part in step:
            letters += st._word(part.key) if isinstance(part, Simple) else part.letters
    return W.free_reduce(BraidWord(st.n, letters))


def sliding_circuits_with_trails(
    st: GarsideStructure, w: BraidWord
) -> dict[tuple, tuple[GarsideNormalForm, BraidWord]]:
    """All elements on sliding circuits conjugate to w, each with a
    conjugating word from w to it."""
    _, prefixes, circuit = _slide_to_circuit(from_word(st, w))
    out: dict[tuple, tuple[GarsideNormalForm, BraidWord]] = {}
    for key, x, parent, step in _circuit_search(st, circuit, prefixes):
        # a parent is found, and spelled, before its children
        before = (out[parent][1],) if parent is not None else ()
        out[key] = x, _spell(st, (before, step))
    return out


def sliding_circuits(st: GarsideStructure, w: BraidWord) -> tuple[GarsideNormalForm, ...]:
    found = sliding_circuits_with_trails(st, w)
    return tuple(nf for nf, _ in sorted(found.values(), key=lambda e: e[0].key()))


# ---------------------------------------------------------------------------
# Conjugacy


@dataclass(frozen=True)
class ConjugacyCertificate:
    conjugate: bool
    witness: BraidWord | None = None


def conjugacy_solve(st: GarsideStructure, a: BraidWord, b: BraidWord) -> ConjugacyCertificate:
    """Decide conjugacy; a positive answer carries u with a^u = b, verified
    before it is returned."""
    _check_strands(st, a, b)
    if W.exponent_sum(a) != W.exponent_sum(b):
        return ConjugacyCertificate(False)
    if W.permutation_of(a).cycle_type() != W.permutation_of(b).cycle_type():
        return ConjugacyCertificate(False)
    a_rep, a_prefixes, a_circuit = _slide_to_circuit(from_word(st, a))
    b_rep, b_prefixes, _ = _slide_to_circuit(from_word(st, b))
    if (a_rep.inf, a_rep.sup) != (b_rep.inf, b_rep.sup):
        return ConjugacyCertificate(False)
    target = b_rep.key()
    parents: dict[tuple, tuple] = {}
    for i, (key, _, parent, step) in enumerate(_circuit_search(st, a_circuit, a_prefixes), 1):
        parents[key] = parent, step
        if key == target:
            steps = [(W.inverse(_spell(st, [b_prefixes])),)]
            while key is not None:
                key, step = parents[key]
                steps.append(step)
            u = _spell(st, reversed(steps))
            if not W.same_braid(W.conjugate(a, u), b):
                raise AssertionError("conjugacy witness failed verification")
            return ConjugacyCertificate(True, u)
        if i == len(a_circuit) and W._burau_charpoly(a) != W._burau_charpoly(b):
            return ConjugacyCertificate(False)
    return ConjugacyCertificate(False)


# ---------------------------------------------------------------------------
# Conjugates of atoms: normal-form shape and simultaneous conjugacy


def is_atom_nf(x: GarsideNormalForm) -> bool:
    return x.inf == 0 and len(x.factors) == 1 and x.structure.atom_length(x.factors[0]) == 1


def atom_conjugate_shape(x: GarsideNormalForm):
    """Split the normal form of a conjugate of an atom as
    delta^-p . A_p ... A_1 . a . B_1 ... B_p; None if it has no such shape.

    In the band structure the shape always exists for a conjugate of an atom,
    with A_i . delta^i . B_i = delta^(i+1) (Birman-Ko-Lee).  In the classical
    structure it can be absent: s1 s2 s1^-1 has left normal form
    Delta^-1 . (s2 s1)(s1 s2), of even canonical length, so None is returned.
    """
    st = x.structure
    r = len(x.factors)
    if r % 2 == 0:
        return None
    p = r // 2
    if x.inf != -p:
        return None
    mid = x.factors[p]
    if st.atom_length(mid) != 1:
        return None
    a_list = tuple(reversed(x.factors[:p]))  # A_1, ..., A_p
    b_list = tuple(x.factors[p + 1:])        # B_1, ..., B_p
    return p, a_list, mid, b_list


def _first_right_factor(x: GarsideNormalForm) -> Simple:
    """Leading factor of the right normal form; delta when it has none.
    The mirror of x = delta^p A_1 ... A_r is the mirrored factors in reverse
    order, then delta^p; its last left factor mirrors to the first right one."""
    st = x.structure
    fs: list[tuple] = []
    _insert_all(st, [st._mirror_perm(f) for f in reversed(_arrays(x))], x.inf, fs)
    return st._simple(st._mirror_perm(fs[-1])) if fs else st.delta()


def _atom_ends(st: BandStructure, s: Simple) -> tuple[int, ...] | None:
    """The strands the atom s swaps; None if s is no atom.  s is a factor
    of a form the engine built or a ``band_simple``, so it is not checked."""
    return tuple(v for v, w in enumerate(s.key) if v != w) if st._key_length(s.key) == 1 else None


def solve_pair_to_generators(
    st: GarsideStructure, x_word: BraidWord, y_word: BraidWord
) -> BraidWord | None:
    """For conjugates X, Y of the first two Artin generators with XYX = YXY,
    find u with X^u = s1 and Y^u = s2.

    Runs in st if it is a band structure, else in band(n), since only the
    band structure has the centred shape of atom conjugates
    (``atom_conjugate_shape``):
    slide Y to its circuit representative (None unless that is an atom),
    then repeatedly strip the outer normal-form level of X by a conjugation
    that keeps Y an atom, chosen by rule and reading Y's new atom off its
    permutation (module docstring), and bring the two atoms to s1 and s2
    by the chord rule (``_atom_pair_conjugator``).  No simple is enumerated.
    The conjugators are kept as steps and spelled once, before u is verified.
    """
    if st.n < 3:
        raise ValueError(f"the pair solver needs at least 3 strands, got {st.n}")
    if not isinstance(st, BandStructure):
        st = band(st.n)
    s1, s2 = BraidWord(st.n, (1,)), BraidWord(st.n, (2,))
    rep, prefixes, _ = _slide_to_circuit(from_word(st, y_word))
    if not is_atom_nf(rep):
        return None
    x = from_word(st, x_word)
    for p in prefixes:
        x = conjugate(x, simple_nf(st, p))
    y = rep.factors[0]
    steps = [prefixes]

    while not is_atom_nf(x):
        shape = atom_conjugate_shape(x)
        if shape is None:
            return None
        length_before = x.canonical_length
        b_p, (i, j) = shape[3][-1], _atom_ends(st, y)
        if st.mul(b_p, y) is not None:
            g, step = inv(simple_nf(st, b_p)), W.inverse(_spell(st, [(b_p,)]))
            i, j = b_p.key.index(i), b_p.key.index(j)
        else:
            c_p = _first_right_factor(x)
            if st.mul(y, c_p) is None:
                return None
            g, step, i, j = simple_nf(st, c_p), c_p, c_p.key[i], c_p.key[j]
        x, y = conjugate(x, g), st.band_simple(i + 1, j + 1)
        steps.append((step,))
        if x.canonical_length >= length_before:
            return None

    tail = _atom_pair_conjugator(st, x.factors[0], y)
    if tail is None:
        return None
    u = _spell(st, [*steps, (tail,)])
    if all(W.same_braid(W.conjugate(w, u), s) for w, s in ((x_word, s1), (y_word, s2))):
        return u
    return None


def _atom_pair_conjugator(st: BandStructure, x: Simple, y: Simple) -> BraidWord | None:
    """A word u with x^u = s1 and y^u = s2 for atoms x and y of band(n),
    built by the chord rule of the module docstring; None unless x and y
    are atoms whose chords share exactly one endpoint, since exactly those
    pairs braid.  It takes at most 4n - 6 letters and no kernel call."""
    n = st.n
    ends = _atom_ends(st, x), _atom_ends(st, y)
    if None in ends or len(set(ends[0]) & set(ends[1])) != 1:
        return None
    (q,) = set(ends[0]) & set(ends[1])
    p, r = sum(ends[0]) - q, sum(ends[1]) - q

    def across(v: int, i: int) -> int:
        """The point v after points i and i + 1 trade places."""
        return i + 1 if v == i else i if v == i + 1 else v

    letters: list[int] = []
    if q == 0:
        letters.append(-1)
        q, p, r = 1, across(p, 0), across(r, 0)
    while q > 1:
        letters.append(q)
        q, p, r = q - 1, across(p, q - 1), across(r, q - 1)
    swap = (p - 2) % n < (r - 2) % n
    near, far = (p, r) if swap else (r, p)
    while near != 2:
        letters.append(near)
        near -= 1
    while far != 0:
        letters += [-(far + 1)] if far < n - 1 else W.inverse(W.band_generator(1, n, n)).letters
        far = (far + 1) % n
    if swap:
        letters += [1, 2, 1]
    return W.free_reduce(BraidWord(n, letters))
