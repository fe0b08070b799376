"""The forward-pass insertion and the conjugation kernel against the slow
oracles, and the group laws of normal-form arithmetic."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import braidkit
import oracles as O
from braidkit import engine as E
from braidkit import words as W
from braidkit.garside import Simple, band, classical
from braidkit.words import BraidWord


def seeded_words(rng, count):
    """Words with n 2..12 and 0..200 letters: mixed letters, all positive,
    all negative, and long runs of one sign."""
    out = []
    for i in range(count):
        n = rng.randint(2, 12)
        length = rng.randint(0, 200)
        pos = list(range(1, n))
        style = i % 4
        if style == 0:
            letters = [rng.choice(pos) * rng.choice((1, -1)) for _ in range(length)]
        elif style == 1:
            letters = [rng.choice(pos) for _ in range(length)]
        elif style == 2:
            letters = [-rng.choice(pos) for _ in range(length)]
        else:
            letters = []
            while len(letters) < length:
                sign = rng.choice((1, -1))
                letters += [sign * rng.choice(pos) for _ in range(rng.randint(1, 12))]
            letters = letters[:length]
        out.append(BraidWord(n, tuple(letters)))
    return out


def far_words(rng, count):
    """Words with n 3..12, mixed signs and up to 120 letters, rich in far
    letters: each stretch draws from a random set of pairwise far
    generators, with an occasional letter from anywhere."""
    out = []
    for _ in range(count):
        n = rng.randint(3, 12)
        gens = list(range(1, n))
        length = rng.randint(0, 120)
        letters = []
        while len(letters) < length:
            start = rng.randint(1, 2)
            family = [j for j in range(start, n, rng.randint(2, 4))]
            for _ in range(rng.randint(1, 30)):
                j = rng.choice(family) if rng.random() < 0.9 else rng.choice(gens)
                letters.append(j * rng.choice((1, -1)))
        out.append(BraidWord(n, tuple(letters[:length])))
    return out


def test_fast_paths_match_letter_by_letter_oracle():
    # far_words: blocks take every exposed letter of their sign, across
    # far commutations, where the oracle multiplies in one letter at a time
    rng = random.Random(61)
    for w in seeded_words(rng, 24) + [BraidWord.identity(3)] + far_words(random.Random(73), 30):
        n = w.strands
        cut = rng.randint(0, len(w.letters))
        u, v = BraidWord(n, w.letters[:cut]), BraidWord(n, w.letters[cut:])
        for struct in (classical(n), band(n)):
            ou, ov = O.from_word(struct, u), O.from_word(struct, v)
            fu, fv = E.from_word(struct, u), E.from_word(struct, v)
            assert fu.key() == ou.key(), u.format()
            assert fv.key() == ov.key(), v.format()
            ow = O.mul(ou, ov)
            assert E.mul(fu, fv).key() == ow.key()
            assert E.from_word(struct, w).key() == ow.key()
            assert E.inv(E.from_word(struct, w)).key() == O.from_word(struct, W.inverse(w)).key()
            assert E.normal_form(struct, w, "right").key() == O.right_normal_form(struct, w).key()


def sandwich(rng, gens, depth):
    """s_i^e M s_i^-e for i in gens, M made of letters far from i and, up to
    depth levels deep, of sandwiches of far letters."""
    i, e = rng.choice(gens), rng.choice((1, -1))
    far = [j for j in gens if abs(j - i) >= 2]
    inner = []
    for _ in range(rng.randint(0, 4) if far else 0):
        if depth and rng.random() < 0.3:
            inner += sandwich(rng, far, depth - 1)
        else:
            inner.append(rng.choice(far) * rng.choice((1, -1)))
    return [e * i] + inner + [-e * i]


def sandwich_words(rng, count):
    """Words with n 2..12 and 0..200 letters, about half of them in
    (possibly nested) sandwiches, the other half single mixed letters."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 12)
        gens = list(range(1, n))
        length = rng.randint(0, 200)
        letters = []
        while len(letters) < length:
            if rng.random() < 0.5:
                letters += sandwich(rng, gens, 3)
            else:
                letters.append(rng.choice(gens) * rng.choice((1, -1)))
        out.append(BraidWord(n, tuple(letters[:length])))
    return out


def test_commuting_cancellation_matches_letter_by_letter_oracle():
    # the engine cancels sandwiches before weighting, the oracle reads every
    # letter of the unreduced word
    rng = random.Random(68)
    for w in sandwich_words(rng, 8):
        n, cut = w.strands, rng.randint(0, len(w))
        # w with one more sandwich (the same braid), and w with one letter
        # negated
        padded = BraidWord(n, w.letters[:cut] + tuple(sandwich(rng, list(range(1, n)), 3))
                           + w.letters[cut:])
        flipped = BraidWord(n, w.letters[:cut] + tuple(-k for k in w.letters[cut:cut + 1])
                            + w.letters[cut + 1:])
        for struct in (classical(n), band(n)):
            ow = O.from_word(struct, w)
            assert E.from_word(struct, w).key() == ow.key(), w.format()
            assert E.normal_form(struct, w, "right").key() == O.right_normal_form(struct, w).key()
            for v in (padded, flipped):
                assert E.words_equal(struct, w, v) is (O.from_word(struct, v).key() == ow.key())


def cancel_commuting_inverses(letters):
    """The letters that ``words._cancel_commuting_inverses`` keeps, in order."""
    out, _, _ = W._cancel_commuting_inverses(letters)
    return tuple(k for k in out if k)


def reachable_inverse_pairs(letters):
    """Brute force: every i < j with letters[j] == -letters[i] and every
    letter in between far from letters[i]."""
    return [
        (i, j)
        for i, k in enumerate(letters)
        for j in range(i + 1, len(letters))
        if letters[j] == -k and all(abs(abs(l) - abs(k)) >= 2 for l in letters[i + 1:j])
    ]


def test_commuting_cancellation_properties():
    rng = random.Random(69)
    removed_total = 0
    for w in sandwich_words(rng, 60) + seeded_words(rng, 20):
        out = cancel_commuting_inverses(w.letters)
        kept, below, top = W._cancel_commuting_inverses(w.letters)
        # the stacks link the kept letters of each absolute value, last on top
        for a in range(len(top)):
            stack, i = [], top[a]
            while i >= 0:
                stack.append(i)
                i = below[i]
            assert stack == [i for i in range(len(kept) - 1, -1, -1) if abs(kept[i]) == a > 0]
        # a subsequence of the input (an IndexError if not), with letters
        # removed in inverse pairs
        removed, i = [], 0
        for k in out:
            while w.letters[i] != k:
                removed.append(w.letters[i])
                i += 1
            i += 1
        removed += w.letters[i:]
        assert all(removed.count(k) == removed.count(-k) for k in removed)
        removed_total += len(removed)
        v = BraidWord(w.strands, out)
        assert W.exponent_sum(v) == W.exponent_sum(w)
        assert W.permutation_of(v) == W.permutation_of(w)
        assert cancel_commuting_inverses(out) == out
        assert not reachable_inverse_pairs(out), w.format()
    assert removed_total > 1000


def test_first_right_factor_matches_oracle():
    rng = random.Random(62)
    for w in seeded_words(rng, 8):
        for struct in (classical(w.strands), band(w.strands)):
            x = E.from_word(struct, w)
            right = O.right_normal_form(struct, w).factors
            assert E._first_right_factor(x) == (right[0] if right else struct.delta())


def test_band_weighting_rejects_crossing_key_in_normal_forms():
    # a hand-built form with a factor that is not simple is refused whether
    # the factor is inserted, weighted against, or only handed back
    bs = band(4)
    crossing = Simple("band", 4, (2, 3, 0, 1))
    bad = E.GarsideNormalForm(bs, 0, (crossing,))
    good = E.from_word(bs, BraidWord(4, (1, 2, -3)))
    for x, y in ((bad, good), (good, bad), (E.identity_nf(bs), bad)):
        with pytest.raises(ValueError, match="is not a simple element of band"):
            E.mul(x, y)
    # a simple keyed by its blocks, not by its permutation, is refused
    blocks = E.GarsideNormalForm(bs, 0, (Simple("band", 4, ((3, 1), (2,), (4,))),))
    with pytest.raises(ValueError, match="is not a simple element of band"):
        E.mul(E.identity_nf(bs), blocks)
    with pytest.raises(ValueError, match="is not a simple element of band"):
        E.conjugate(blocks, E.identity_nf(bs))


def sample_simples(rng, struct, count):
    """Every simple for n <= 4; above that delta and count products of
    random atoms, each grown while it stays simple."""
    if struct.n <= 4:
        return list(struct.simples())
    out = [struct.delta()]
    for _ in range(count):
        s = struct.identity()
        for _ in range(rng.randint(1, struct.n * struct.n // 2)):
            t = struct.mul(s, struct.letter_simple(rng.randint(1, struct.n - 1)))
            s = t if t is not None else s
        out.append(s)
    return out


def short_seeded_words(rng, count):
    """Words with n 2..12 and 0..60 letters, styles as in seeded_words."""
    return [
        BraidWord(w.strands, w.letters[: rng.randint(0, 60)])
        for w in seeded_words(rng, count)
    ]


def test_conjugation_on_arrays_matches_oracle():
    # _append against mul and the letter-by-letter oracle; conjugate, by a
    # simple and by a whole normal form, against g^-1 x g on the oracle
    rng = random.Random(71)
    for w in short_seeded_words(rng, 24):
        n = w.strands
        for struct in (classical(n), band(n)):
            x = E.from_word(struct, w)
            fs = [struct._perm0(f) for f in x.factors]
            ox = O.from_word(struct, w)
            for s in sample_simples(rng, struct, 4):
                g = E.simple_nf(struct, s)
                right = list(fs)
                e = E._append(struct, right, struct._perm0(s))
                product = E._from_perms(struct, x.inf + e, right)
                assert product.key() == E.mul(x, g).key()
                assert product.key() == O.mul(ox, g).key()
                assert E.conjugate(x, g).key() == O.conjugate(ox, g).key(), (w.format(), s)
            v = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 12))]
            g = E.from_word(struct, BraidWord(n, tuple(v)))
            assert E.conjugate(x, g).key() == O.conjugate(ox, g).key(), (w.format(), v)


def test_early_stopping_conjugation_matches_oracle():
    # with keep_inf, None exactly when inf(y^s) < inf(y), otherwise the
    # same form as g^-1 y g on the oracle; on seeded forms and on their
    # circuit elements, whose conjugates the sliding-circuit closure takes
    rng = random.Random(74)
    for w in short_seeded_words(rng, 24):
        n = w.strands
        for struct in (classical(n), band(n)):
            x = E.from_word(struct, w)
            for y in (x, E._slide_to_circuit(x)[0]):
                fs = tuple(struct._perm0(f) for f in y.factors)
                for s in sample_simples(rng, struct, 4):
                    expected = O.conjugate(y, E.simple_nf(struct, s))
                    z = E._conjugate_simple(struct, y.inf, fs, struct._perm0(s), keep_inf=True)
                    if expected.inf < y.inf:
                        assert z is None, (w.format(), s)
                    else:
                        assert E._from_perms(struct, *z).key() == expected.key(), (w.format(), s)


# Run in process and again under ``python -O``, which strips asserts: a band
# key that is a permutation not below delta (crossing cycles, a reversed
# cycle), a key that is not a permutation of range(n), and a simple of
# another structure or strand count are refused by arithmetic, meet,
# complement, conjugation and the circuit closure.
MALFORMED_KEY_CHECK = """
import sys
from braidkit import engine as E
from braidkit.garside import Simple, band, classical
from braidkit.words import BraidWord

cases = [(band(4), Simple("band", 4, key)) for key in (
    (2, 3, 0, 1), (2, 0, 1, 3), (0, 0, 1, 2), (1, 0, 2))]
cases += [(classical(3), Simple("classical", 3, key)) for key in (
    (0, 0, 1), (0, 1), (0, 1, 3), (0, 1, 2, 3))]
cases += [
    (classical(3), Simple("band", 3, (1, 0, 2))),
    (classical(3), Simple("classical", 4, (1, 0, 2, 3))),
    (band(3), Simple("classical", 3, (1, 0, 2))),
    (band(3), Simple("band", 4, (1, 0, 2, 3))),
]
accepted = []
for st, bad in cases:
    n = st.n
    good = E.from_word(st, BraidWord(n, (1, 2, 1 - n)))
    form = E.GarsideNormalForm(st, 0, (bad,))
    for name, call in (
        ("mul", lambda: st.mul(bad, st.identity())),
        ("mul", lambda: st.mul(st.identity(), bad)),
        ("meet", lambda: st.meet(bad, st.delta())),
        ("meet", lambda: st.meet(st.delta(), bad)),
        ("complement", lambda: st.complement(bad)),
        ("engine mul", lambda: E.mul(good, form)),
        ("engine mul", lambda: E.mul(form, good)),
        ("conjugate", lambda: E.conjugate(good, form)),
        ("conjugate", lambda: E.conjugate(form, good)),
        ("circuit closure", lambda: list(
            E._circuit_search(st, [(form, st.identity())], BraidWord.identity(n)))),
    ):
        try:
            call()
        except ValueError as e:
            if f"is not a simple element of {st.kind}({n})" in str(e):
                continue
        accepted.append((name, bad))
print(accepted, sys.flags.optimize)
"""


def test_band_refuses_malformed_keys(capsys):
    exec(MALFORMED_KEY_CHECK, {})
    assert capsys.readouterr().out.strip() == f"[] {sys.flags.optimize}"
    src = os.path.dirname(os.path.dirname(braidkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MALFORMED_KEY_CHECK],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "[] 1"


def count_kernel_calls(monkeypatch, struct):
    real = struct._weigh
    calls = []

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setitem(vars(struct), "_weigh", counting)
    return calls


def test_conjugation_by_a_simple_makes_at_most_2r_plus_1_kernel_calls(monkeypatch):
    # a deterministic work gate: one backward and one forward pass; the
    # product mul(mul(inv(g), x), g) inserts x's r factors one at a time and
    # exceeds it on long forms.  A slide finds its prefix with a meet, so it
    # is held to the same bound.
    rng = random.Random(72)
    longest = 0
    for w in short_seeded_words(rng, 16):
        for struct in (classical(w.strands), band(w.strands)):
            x = E.from_word(struct, w)
            r = len(x.factors)
            longest = max(longest, r)
            calls = count_kernel_calls(monkeypatch, struct)
            for s in sample_simples(rng, struct, 4):
                calls.clear()
                E.conjugate(x, E.simple_nf(struct, s))
                assert len(calls) <= 2 * r + 1, (w.format(), s, r, len(calls))
            calls.clear()
            E._slide_step(x)
            assert len(calls) <= 2 * r + 1
    assert longest >= 10


def test_atom_pair_walk_matches_oracle():
    # an answer exactly when the oracle walk finds one, for every ordered
    # pair of atoms; the words differ from the oracle's trails, so each is
    # checked to conjugate the pair to (s1, s2).  A move by s is undone by a
    # move by the complement of s and then moves by delta until the twist
    # comes round, so the pairs an unsuccessful oracle walk reached form a
    # whole component without the target, and the oracle answers None from
    # each of them.
    for n in (3, 4, 5):
        struct = band(n)
        s1, s2 = BraidWord(n, (1,)), BraidWord(n, (2,))
        unreachable = set()
        for x in struct.atoms():
            for y in struct.atoms():
                u = E._atom_pair_conjugator(struct, x, y)
                if (x, y) in unreachable:
                    assert u is None
                    continue
                reached = set()
                expected = O.atom_pair_walk(struct, x, y, reached)
                if expected is None:
                    unreachable |= reached
                assert (u is None) == (expected is None), (x, y)
                if u is not None:
                    for a, s in ((x, s1), (y, s2)):
                        assert W.same_braid(W.conjugate(BraidWord(n, struct.simple_word(a)), u), s)


def test_atom_pair_conjugator_is_exhaustively_right():
    # every ordered pair of atoms of band(3..12): None exactly when the two
    # chords do not share exactly one endpoint, else a word of at most
    # 4n - 6 letters that conjugates the pair to (s1, s2)
    for n in range(3, 13):
        struct = band(n)
        s1, s2 = BraidWord(n, (1,)), BraidWord(n, (2,))
        braiding = 0
        for x in struct.atoms():
            for y in struct.atoms():
                u = E._atom_pair_conjugator(struct, x, y)
                shared = set(E._atom_ends(struct, x)) & set(E._atom_ends(struct, y))
                assert (u is None) == (len(shared) != 1), (x, y)
                if u is None:
                    continue
                braiding += 1
                assert len(u.letters) <= 4 * n - 6, (x, y, u.format())
                for a, s in ((x, s1), (y, s2)):
                    assert W.same_braid(W.conjugate(BraidWord(n, struct.simple_word(a)), u), s)
        # n points, two other ends in order
        assert braiding == n * (n - 1) * (n - 2)


def test_atom_pair_walk_refuses_starts_that_are_not_two_atoms():
    # the conjugator runs in the band structure only, where the pair solver
    # calls it; a start that is not a pair of atoms returns None there
    struct = band(4)
    s1, s2 = struct.letter_simple(1), struct.letter_simple(2)
    for x, y in (
        (struct.delta(), s2),
        (struct.identity(), s2),
        (s1, struct.mul(struct.letter_simple(3), s2)),
    ):
        assert O.atom_pair_walk(struct, x, y) is None
        assert E._atom_pair_conjugator(struct, x, y) is None


def test_atom_pair_walk_makes_no_kernel_calls(monkeypatch):
    # a deterministic work gate: the conjugator reads the chords of the two
    # atoms off their permutations and never weighs or conjugates, also on
    # pairs that do not braid
    conjugations = []

    def counting(*args, **kwargs):
        conjugations.append(1)
        return real(*args, **kwargs)

    real = E._conjugate_simple
    monkeypatch.setattr(E, "_conjugate_simple", counting)
    struct = band(5)
    calls = count_kernel_calls(monkeypatch, struct)
    atoms = struct.atoms()
    for x, y in ((atoms[-1], atoms[0]), (atoms[1], atoms[0]), (atoms[0], atoms[0])):
        E._atom_pair_conjugator(struct, x, y)
    assert (len(calls), len(conjugations)) == (0, 0)


def words_on(n_strands):
    return st.lists(
        st.integers(-(n_strands - 1), n_strands - 1).filter(lambda k: k != 0),
        max_size=16,
    ).map(lambda letters: BraidWord(n_strands, tuple(letters)))


@st.composite
def word_tuples(draw, count):
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("classical", "band")))
    struct = classical(n) if kind == "classical" else band(n)
    return (struct,) + tuple(draw(words_on(n)) for _ in range(count))


@settings(max_examples=60, deadline=None)
@given(word_tuples(3))
def test_mul_is_associative(args):
    struct, a, b, c = args
    x, y, z = (E.from_word(struct, w) for w in (a, b, c))
    assert E.mul(E.mul(x, y), z) == E.mul(x, E.mul(y, z))


@settings(max_examples=60, deadline=None)
@given(word_tuples(1))
def test_inv_is_a_two_sided_inverse(args):
    struct, a = args
    x = E.from_word(struct, a)
    assert E.mul(x, E.inv(x)).is_trivial()
    assert E.mul(E.inv(x), x).is_trivial()
    assert E.inv(E.inv(x)) == x


@settings(max_examples=60, deadline=None)
@given(word_tuples(2))
def test_from_word_is_a_homomorphism(args):
    struct, u, v = args
    assert E.from_word(struct, W.compose(u, v)) == E.mul(
        E.from_word(struct, u), E.from_word(struct, v)
    )


@settings(max_examples=60, deadline=None)
@given(word_tuples(1))
def test_left_and_right_forms_agree(args):
    struct, a = args
    left = E.normal_form(struct, a, "left")
    right = E.normal_form(struct, a, "right")
    assert (left.inf, left.canonical_length) == (right.inf, right.canonical_length)
