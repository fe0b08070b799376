import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from braidkit import cabling as C
from braidkit import engine as E
from braidkit import garside as G
from braidkit import ledger as L
from braidkit import subgroups as S
from braidkit import words as W
from braidkit.cli import main
from braidkit.garside import band, classical
from braidkit.words import BraidWord
from oracles import (
    burau_row_of_powers,
    equal_by_quotient_normal_form,
    pair_is_left_weighted,
    pair_is_right_weighted,
    solve_pair_by_conjugacy_decision,
    words_equal_by_normal_forms,
)


def rand_word(rng, n, length):
    letters = [k for k in range(-(n - 1), n) if k != 0]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def test_normal_form_examples():
    nf = E.normal_form(classical(3), BraidWord(3, (1, 2, 1)))
    assert (nf.inf, nf.canonical_length) == (1, 0)
    nf = E.normal_form(classical(3), BraidWord(3, (1, -1)))
    assert nf.is_trivial()
    nf = E.normal_form(classical(4), BraidWord(4, (1, 3)))
    assert (nf.inf, nf.canonical_length) == (0, 1)
    # the lone factor swaps the two outer pairs
    perm = classical(4).simple_permutation(nf.factors[0])
    assert perm.cycles() == ((1, 2), (3, 4))


def test_words_equal_examples():
    assert E.words_equal(classical(3), BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert E.words_equal(classical(4), BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not E.words_equal(classical(3), BraidWord(3, (1,)), BraidWord(3, (2,)))
    with pytest.raises(ValueError):
        E.words_equal(classical(3), BraidWord(3, (1,)), BraidWord(4, (1,)))


def relation_rewrite(rng, w, moves):
    """Another word for the braid w: each move either commutes two distant
    letters, applies a braid relation to a same-sign triple, or inserts a
    cancelling pair."""
    letters = list(w.letters)
    for _ in range(moves):
        i = rng.randrange(len(letters) + 1)
        a, b, c = (letters[i:i + 3] + [0, 0, 0])[:3]
        if a and b and abs(abs(a) - abs(b)) >= 2:
            letters[i:i + 2] = [b, a]
        elif a == c and b and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            letters[i:i + 3] = [b, a, b]
        else:
            k = rng.choice([k for k in range(1 - w.strands, w.strands) if k])
            letters[i:i] = [k, -k]
    return BraidWord(w.strands, tuple(letters))


def square_swap_pair(rng, n, length):
    """Two words for different braids, w s_i^2 w' and w s_j^2 w' with i != j,
    equal in exponent sum and permutation."""
    i, j = rng.sample(range(1, n), 2)
    head = rand_word(rng, n, rng.randint(0, length)).letters
    tail = rand_word(rng, n, rng.randint(0, length)).letters
    return BraidWord(n, head + (i, i) + tail), BraidWord(n, head + (j, j) + tail)


def test_words_equal_matches_normal_form_oracle():
    rng = random.Random(64)
    for n in range(3, 13):
        for struct in (classical(n), band(n)):
            w = rand_word(rng, n, rng.randint(5, 30))
            pairs = [(w, relation_rewrite(rng, w, 20), True)]
            pairs.append(square_swap_pair(rng, n, 15) + (False,))
            for a, b, equal in pairs:
                assert E.words_equal(struct, a, b) is equal, (a, b)
                assert words_equal_by_normal_forms(struct, a, b) is equal, (a, b)


def test_words_equal_separates_by_dynnikov_coordinates_without_the_kernel(monkeypatch):
    # a deterministic work gate: unequal pairs, here ones whose Burau rows
    # differ too, are refused without building a normal form
    def no_normal_form(*args):
        raise AssertionError("a normal form was built")

    monkeypatch.setattr(E, "from_word", no_normal_form)
    rng = random.Random(65)
    for n in range(3, 13):
        for struct in (classical(n), band(n)):
            weighed = count_calls(monkeypatch, struct, "_weigh")
            a, b = square_swap_pair(rng, n, 50)
            assert burau_row_of_powers(a) != burau_row_of_powers(b)
            assert not E.words_equal(struct, a, b)
            assert not weighed


def test_words_equal_cancels_common_ends_like_the_oracle():
    # P x S against P y S agree with the normal-form oracle: equal middles
    # (relation moves), unequal middles, empty middles, one word a prefix
    # of the other, and P or S empty
    rng = random.Random(66)
    for n in range(2, 9):
        for struct in (classical(n), band(n)):
            one = BraidWord.identity(n)
            p, s = rand_word(rng, n, rng.randint(1, 10)), rand_word(rng, n, rng.randint(1, 10))
            x, y = rand_word(rng, n, rng.randint(1, 12)), rand_word(rng, n, rng.randint(1, 12))
            cases = [
                (p, x, relation_rewrite(rng, x, 6), s, True),
                (p, x, y, s, None),
                (p, one, one, s, True),
                (p, one, x, s, None),
                (p, x, W.compose(x, y), one, None),
                (one, x, y, s, None),
                (p, x, y, one, None),
            ]
            if n >= 3:
                i, j = rng.sample(range(1, n), 2)
                cases.append((p, BraidWord(n, (i, i)), BraidWord(n, (j, j)), s, False))
            for head, mid_a, mid_b, tail, equal in cases:
                a, b = W.compose(head, mid_a, tail), W.compose(head, mid_b, tail)
                expected = words_equal_by_normal_forms(struct, a, b)
                assert equal is None or expected is equal, (a, b)
                assert E.words_equal(struct, a, b) is expected, (a, b)
                assert equal_by_quotient_normal_form(struct, a, b) is expected, (a, b)
                assert E.words_equal(struct, b, a) is expected, (a, b)


def test_identical_words_are_equal_without_the_kernel(monkeypatch):
    # a deterministic work gate: letter-identical words cancel to two empty
    # middles, and no normal form is weighted
    a = rand_word(random.Random(67), 12, 200)
    b = BraidWord(12, a.letters)
    for struct in (classical(12), band(12)):
        weighed = count_calls(monkeypatch, struct, "_weigh")
        assert E.words_equal(struct, a, b)
        assert equal_by_quotient_normal_form(struct, a, b)
        assert not weighed


def bigelow_kernel_braid():
    """Bigelow's braid in the kernel of the Burau representation of B5
    (Geom. Topol. 3, 1999): the commutator of a = psi1^-1 s4 psi1 and
    b = psi2^-1 s4 s3 s2 s1^2 s2 s3 s4 psi2."""
    psi1 = BraidWord(5, (-3, 2, 1, 1, 2, 4, 4, 4, 3, 2))
    psi2 = BraidWord(5, (-4, 3, 2, -1, -1, 2, 1, 1, 2, 2, 1, 4, 4, 4, 4, 4))
    a = W.conjugate(BraidWord(5, (4,)), psi1)
    b = W.conjugate(BraidWord(5, (4, 3, 2, 1, 1, 2, 3, 4)), psi2)
    return W.compose(W.inverse(a), W.inverse(b), a, b)


def test_burau_kernel_braid_is_separated_by_dynnikov_coordinates():
    w, one = bigelow_kernel_braid(), BraidWord.identity(5)
    assert len(w) == 122
    assert burau_row_of_powers(w) == burau_row_of_powers(one)
    assert W._burau_charpoly(w) == W._burau_charpoly(one)
    rewritten = relation_rewrite(random.Random(73), w, 40)
    for struct in (classical(5), band(5)):
        assert not E.words_equal(struct, w, one)
        assert not words_equal_by_normal_forms(struct, w, one)
        # the one normal form of w . 1^-1 is not trivial
        assert not equal_by_quotient_normal_form(struct, w, one)
        assert E.words_equal(struct, w, rewritten)
        assert equal_by_quotient_normal_form(struct, rewritten, w)
    assert E.from_word(classical(5), w).canonical_length == 46


def test_dynnikov_coordinates_match_the_normal_form_oracle():
    # whole words, no ends cancelled: relation-rewritten equal pairs,
    # square-swapped unequal pairs that agree in exponent sum and
    # permutation, and independent random pairs, n = 3..12; Bigelow's braid
    # in the Burau kernel moves the start
    rng = random.Random(74)
    for n in range(3, 13):
        for _ in range(3):
            w = rand_word(rng, n, rng.randint(5, 40))
            pairs = [(w, relation_rewrite(rng, w, 20)), square_swap_pair(rng, n, 15),
                     (w, rand_word(rng, n, rng.randint(0, 40)))]
            for a, b in pairs:
                same = W.dynnikov_coordinates(a) == W.dynnikov_coordinates(b)
                for struct in (classical(n), band(n)):
                    assert words_equal_by_normal_forms(struct, a, b) is same, (a, b)
    assert W.dynnikov_coordinates(bigelow_kernel_braid()) != (0, 1) * 5


def test_dynnikov_coordinates_of_a_long_word_stay_small():
    # an entry gains at most three bits per letter; on this random
    # 10 000-letter B8 word the largest has 1 314 bits.  The full twist is
    # central, so W . delta^2 = delta^2 . W in both structures.
    w = rand_word(random.Random(75), 8, 10000)
    assert max(abs(c).bit_length() for c in W.dynnikov_coordinates(w)) <= 1500
    d2 = W.power(W.delta(8), 2)
    for struct in (classical(8), band(8)):
        assert E.words_equal(struct, W.compose(w, d2), W.compose(d2, w))
        assert not E.words_equal(struct, W.compose(w, d2), W.compose(d2, w, d2))


def test_burau_blind_negative_is_decided_by_the_closure(monkeypatch):
    # equal Burau polynomials, summit (-3, 4) in both structures, yet not
    # conjugate: the closure enumerates simples and answers
    a = BraidWord.parse("B3: 1 -1 2 2 -1 -1 2 -1 2")
    b = BraidWord.parse("B3: -1 2 2 2 -1 2 -2 2 -1")
    assert W._burau_charpoly(a) == W._burau_charpoly(b)
    for struct in (classical(3), band(3)):
        enumerated = count_calls(monkeypatch, struct, "simples")
        assert not E.conjugacy_solve(struct, a, b).conjugate
        assert enumerated


@pytest.mark.parametrize("kind,a,b", [
    ("band", "B10: 1 2 -3 4 5 6 -7 8 9", "B10: 9 8 -7 6 5 4 3 2 -1"),
    ("band", "B4: 2 -3 -1", "B4: 1 -3 -2"),
    ("classical", "B4: 2 -3 -1", "B4: 1 -3 -2"),
])
def test_burau_polynomial_answers_before_enumeration(monkeypatch, kind, a, b):
    # a deterministic work gate: these pairs agree in exponent sum, cycle
    # type and summit (inf, sup), and the Burau polynomial refuses them
    # after the start's circuit without enumerating a simple
    a, b = BraidWord.parse(a), BraidWord.parse(b)
    struct = band(a.strands) if kind == "band" else classical(a.strands)

    def no_enumeration():
        raise AssertionError("simples were enumerated")

    monkeypatch.setitem(vars(struct), "simples", no_enumeration)
    assert W._burau_charpoly(a) != W._burau_charpoly(b)
    assert not E.conjugacy_solve(struct, a, b).conjugate


def braid_words(min_n=2, max_n=5, max_len=14):
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        letters = draw(
            st.lists(
                st.integers(-(n - 1), n - 1).filter(lambda k: k != 0),
                max_size=max_len,
            )
        )
        return BraidWord(n, tuple(letters))

    return st.composite(build)()


@settings(max_examples=60, deadline=None)
@given(braid_words())
def test_normal_form_soundness(w):
    for struct in (classical(w.strands), band(w.strands)):
        nf = E.from_word(struct, w)
        # reassembly equals the input
        assert E.words_equal(struct, nf.to_word(), w)
        # no improper factors, junctions left weighted (definitional check)
        for f in nf.factors:
            assert not struct.is_identity(f) and not struct.is_delta(f)
        for x, y in zip(nf.factors, nf.factors[1:]):
            assert pair_is_left_weighted(struct, x, y)
        # free cancellation
        assert E.mul(nf, E.inv(nf)).is_trivial()


@settings(max_examples=40, deadline=None)
@given(braid_words(max_len=10))
def test_delta_shift_preserves_length(w):
    struct = classical(w.strands)
    nf = E.from_word(struct, w)
    for p in (-2, -1, 1, 2):
        shifted = E.mul(E.delta_power(struct, p), nf)
        assert shifted.canonical_length == nf.canonical_length
        assert shifted.inf == nf.inf + p


def check_right_normal_forms(rng, min_n, max_n, count):
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        w = rand_word(rng, n, rng.randint(0, 12))
        for struct in (classical(n), band(n)):
            r = E.normal_form(struct, w, side="right")
            assert r.side == "right"
            assert E.words_equal(struct, r.to_word(), w)
            left = E.normal_form(struct, w, side="left")
            assert (r.inf, r.canonical_length) == (left.inf, left.canonical_length)
            for x, y in zip(r.factors, r.factors[1:]):
                assert pair_is_right_weighted(struct, x, y)
            for f in r.factors:
                assert not struct.is_identity(f) and not struct.is_delta(f)


def test_right_normal_form():
    check_right_normal_forms(random.Random(9), 2, 4, 40)


def test_right_normal_form_more_strands():
    check_right_normal_forms(random.Random(10), 5, 8, 24)


def test_first_right_factor_matches_right_normal_form():
    rng = random.Random(12)
    for n in range(3, 9):
        for struct in (classical(n), band(n)):
            for _ in range(12):
                x = E.from_word(struct, rand_word(rng, n, rng.randint(0, 30)))
                right = E.normal_form(struct, x.to_word(), "right").factors
                expected = right[0] if right else struct.delta()
                assert E._first_right_factor(x) == expected


def test_arithmetic_refuses_right_normal_forms():
    # the arithmetic reads factors as a left normal form; read that way the
    # right form of w is another braid, so a right form is refused
    w = BraidWord.parse("B4: 1 -2 3 2 -1 3")
    v = BraidWord.parse("B4: 2 -3 1")
    for struct in (classical(4), band(4)):
        right = E.normal_form(struct, w, "right")
        left = E.normal_form(struct, w)
        assert right.factors != left.factors
        g = E.from_word(struct, v)
        for call in (
            lambda: E.mul(right, g),
            lambda: E.mul(g, right),
            lambda: E.inv(right),
            lambda: E.conjugate(right, g),
            lambda: E.conjugate(g, right),
            lambda: E.preferred_prefix(right),
            lambda: E.power(right, 2),
            lambda: E.power(right, -1),
            lambda: E.power(right, 0),
        ):
            with pytest.raises(ValueError, match="left normal forms"):
                call()
        # the left form still gives w.v
        assert E.words_equal(struct, E.mul(left, g).to_word(), W.compose(w, v))


def test_inverse_needs_no_reweighting():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 8)
        w = rand_word(rng, n, rng.randint(0, 30))
        for struct in (classical(n), band(n)):
            x = E.from_word(struct, w)
            y = E.inv(x)
            for f in y.factors:
                assert not struct.is_identity(f) and not struct.is_delta(f)
            for a, b in zip(y.factors, y.factors[1:]):
                assert pair_is_left_weighted(struct, a, b)
            assert E.mul(x, y).is_trivial()


def test_sliding_fixed_points():
    struct = classical(3)
    for wd in (W.power(W.delta(3), 2), W.power(W.delta(3), -1), BraidWord(3, (1,))):
        assert E.words_equal(struct, E.cyclic_sliding(struct, wd), wd)


def test_sliding_reaches_minimal_length():
    struct = classical(3)
    x = BraidWord(3, (-2, 1, 2))
    rep, prefixes, _ = E._slide_to_circuit(E.from_word(struct, x))
    assert rep.canonical_length == 1
    trail = E._spell(struct, [prefixes])
    assert E.words_equal(struct, W.conjugate(x, trail), rep.to_word())


def test_sliding_conjugates():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5)
        struct = classical(n)
        w = rand_word(rng, n, rng.randint(0, 10))
        x = E.from_word(struct, w)
        y, p = E._slide_step(x)
        assert E.mul(E.mul(E.inv(E.simple_nf(struct, p)), x), E.simple_nf(struct, p)) == y


def test_summit_length_matches_bounded_search():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 4)
        struct = classical(n)
        w = rand_word(rng, n, rng.randint(1, 6))
        ls = E.sliding_circuits(struct, w)[0].canonical_length
        letters = [k for k in range(-(n - 1), n) if k != 0]
        ball_min = E.from_word(struct, w).canonical_length

        def walk(word, depth):
            nonlocal ball_min
            ball_min = min(ball_min, E.from_word(struct, word).canonical_length)
            if depth == 0:
                return
            for k in letters:
                walk(W.conjugate(word, BraidWord(n, (k,))), depth - 1)

        walk(w, 3)
        assert ls == ball_min


def test_sliding_circuit_examples():
    struct = classical(3)
    sc = E.sliding_circuits(struct, W.power(W.delta(3), 2))
    assert len(sc) == 1 and sc[0].inf == 2 and sc[0].canonical_length == 0
    sc = E.sliding_circuits(struct, BraidWord(3, (1,)))
    assert sorted(nf.to_word().letters for nf in sc) == [(1,), (2,)]
    sc = E.sliding_circuits(classical(4), BraidWord(4, (1, 3)))
    assert len(sc) == 1
    # oracle: the length-one conjugates in a small ball are exactly those two
    letters = [k for k in range(-2, 3) if k != 0]
    found = set()
    frontier = {BraidWord(3, (1,)).letters}
    for _ in range(4):
        nxt = set()
        for wl in frontier:
            for k in letters:
                cw = W.conjugate(BraidWord(3, wl), BraidWord(3, (k,)))
                nf = E.from_word(struct, cw)
                if nf.canonical_length == 1 and nf.inf == 0:
                    found.add(nf.to_word().letters)
                nxt.add(cw.letters)
        frontier = nxt
    assert found == {(1,), (2,)}


def test_sliding_circuits_conjugation_invariant():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 4)
        struct = classical(n)
        w = rand_word(rng, n, rng.randint(1, 6))
        g = rand_word(rng, n, rng.randint(0, 5))
        sc1 = {nf.key() for nf in E.sliding_circuits(struct, w)}
        sc2 = {nf.key() for nf in E.sliding_circuits(struct, W.conjugate(w, g))}
        assert sc1 == sc2


def test_conjugacy_solver(monkeypatch):
    struct = classical(4)
    cert = E.conjugacy_solve(struct, BraidWord(4, (1,)), BraidWord(4, (2,)))
    assert cert.conjugate
    assert E.words_equal(struct, W.conjugate(BraidWord(4, (1,)), cert.witness), BraidWord(4, (2,)))
    assert not E.conjugacy_solve(struct, BraidWord(4, (1,)), BraidWord(4, (-1,))).conjugate
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 5)
        struct = classical(n)
        x = rand_word(rng, n, rng.randint(1, 6))
        g = rand_word(rng, n, rng.randint(0, 6))
        cert = E.conjugacy_solve(struct, x, W.conjugate(x, g))
        assert cert.conjugate
    # same exponent sum, but cycle types (1, 1, 1) and (3,): refused by the
    # cycle-type test before any sliding
    assert not E.conjugacy_solve(
        classical(3), BraidWord(3, (1, 1, 2, 2)), BraidWord(3, (1, 1, 1, 2))
    ).conjugate
    # a negative beyond the exponent-sum, cycle-type and summit (inf, sup)
    # tests, so the circuit search is entered; the Burau polynomial then
    # answers before any enumeration
    real = E._circuit_search
    entered = []

    def spy(*args):
        entered.append(args[0].kind)
        return real(*args)

    monkeypatch.setattr(E, "_circuit_search", spy)
    a, b = BraidWord.parse("B4: 2 -3 -1"), BraidWord.parse("B4: 1 -3 -2")
    for struct in (classical(4), band(4)):
        assert not E.conjugacy_solve(struct, a, b).conjugate
    assert entered == ["classical", "band"]


def test_band_and_classical_conjugacy_agree():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randint(2, 4)
        a = rand_word(rng, n, rng.randint(1, 5))
        b = rand_word(rng, n, rng.randint(1, 5))
        assert (
            E.conjugacy_solve(classical(n), a, b).conjugate
            == E.conjugacy_solve(band(n), a, b).conjugate
        )


def test_degenerate_strand_counts():
    st1 = classical(1)
    assert E.from_word(st1, BraidWord.identity(1)).is_trivial()
    assert E.words_equal(st1, BraidWord.identity(1), BraidWord.identity(1))
    st2 = band(2)
    nf = E.from_word(st2, BraidWord(2, (1, 1, -1)))
    assert (nf.inf, nf.canonical_length) == (1, 0)  # the lone letter is delta


def test_words_equal_refuses_a_structure_of_another_strand_count():
    # refused before the common ends and the exponent sums, which would
    # answer these pairs without the structure
    for a, b in (("B4: 1", "B4: 1"), ("B4: 1", "B4: 2")):
        with pytest.raises(ValueError, match="strand count does not match the structure"):
            E.words_equal(classical(3), BraidWord.parse(a), BraidWord.parse(b))


def test_conjugacy_solve_refuses_a_structure_of_another_strand_count():
    # refused before the exponent-sum test, which would answer "not conjugate"
    with pytest.raises(ValueError, match="strand count does not match the structure"):
        E.conjugacy_solve(classical(3), BraidWord.parse("B4: 1"), BraidWord.parse("B4: -1"))


def test_circuit_search_respects_caps():
    with pytest.raises(ValueError, match="cap"):
        E.sliding_circuits(classical(9), BraidWord(9, (1,)))
    with pytest.raises(ValueError, match="cap"):
        E.conjugacy_solve(classical(9), BraidWord(9, (1,)), BraidWord(9, (2,)))
    # two inputs on one circuit need no enumeration, past the cap too
    for struct, n in ((classical(9), 9), (band(11), 11)):
        w = BraidWord(n, (1, 2, -3, 4))
        cert = E.conjugacy_solve(struct, w, w)
        assert cert.conjugate
        assert E.words_equal(struct, W.conjugate(w, cert.witness), w)
        argv = ["conj", "--structure", struct.kind, w.format(), w.format()]
        assert main(argv) == 0


def test_band_normal_forms_beyond_the_enumeration_range():
    # normal forms need no simple enumeration, so they work past the caps
    rng = random.Random(2)
    st = classical(9)
    w = rand_word(rng, 9, 30)
    assert E.mul(E.from_word(st, w), E.inv(E.from_word(st, w))).is_trivial()
    bs = band(7)
    w = rand_word(rng, 7, 25)
    assert E.words_equal(bs, W.compose(w, W.inverse(w)), BraidWord.identity(7))


def test_atom_conjugate_shape_band():
    # in the band structure the normal form of a conjugate of an atom is
    # centred on an atom and its flanking factors pair to Garside powers
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(3, 5)
        struct = band(n)
        a = rng.choice(struct.atoms())
        g = rand_word(rng, n, rng.randint(0, 8))
        x = E.from_word(struct, W.conjugate(BraidWord(n, struct.simple_word(a)), g))
        shape = E.atom_conjugate_shape(x)
        assert shape is not None
        p, a_list, mid, b_list = shape
        assert struct.atom_length(mid) == 1
        for i in range(p):
            lhs = E.mul(
                E.mul(E.simple_nf(struct, a_list[i]), E.delta_power(struct, i)),
                E.simple_nf(struct, b_list[i]),
            )
            assert lhs == E.delta_power(struct, i + 1)


def test_atom_conjugate_shape_fails_classically():
    # the same property is false for the classical structure: this conjugate
    # of an atom has even canonical length
    struct = classical(4)
    x = E.from_word(struct, W.conjugate(BraidWord(4, (3,)), BraidWord(4, (1, 2, 1))))
    assert x.canonical_length == 2
    assert E.atom_conjugate_shape(x) is None


def test_atom_conjugate_shape_refuses_other_shapes():
    struct = band(3)
    # odd canonical length, but the infimum is not -p
    x = E.from_word(struct, BraidWord.parse("B3: 1 1 1"))
    assert x.canonical_length % 2 == 1 and x.inf != -(x.canonical_length // 2)
    assert E.atom_conjugate_shape(x) is None
    # odd length and infimum -p, but the middle factor is not an atom
    struct = band(4)
    x = E.from_word(struct, BraidWord.parse("B4: 2 2 -2 -3 3 1"))
    p = x.canonical_length // 2
    assert x.canonical_length % 2 == 1 and x.inf == -p
    assert struct.atom_length(x.factors[p]) != 1
    assert E.atom_conjugate_shape(x) is None


def test_atom_conjugate_shape_check_catches_faults(monkeypatch):
    # the ledger check asserts the band theorem and needs a certified
    # classical counterexample; breaking either side must turn it red
    real = E.atom_conjugate_shape
    check_id = "c11-atom-conjugate-shape"
    assert L.run_check(check_id).status == "pass"

    monkeypatch.setattr(
        E, "atom_conjugate_shape",
        lambda x: None if x.structure.kind == "band" else real(x),
    )
    result = L.run_check(check_id)
    assert result.status == "fail"
    assert result.payload["structure"] == "band"

    monkeypatch.setattr(
        E, "atom_conjugate_shape", lambda x: real(x) or (0, (), None, ())
    )
    result = L.run_check(check_id)
    assert result.status == "fail"
    assert "no classical conjugate of an atom" in result.details
    assert result.payload["structure"] == "classical"


def test_pair_solver():
    # the solver runs in band(n) whatever structure it is given, so a
    # classical structure answers every braiding pair too
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(3, 5)
        g = rand_word(rng, n, rng.randint(0, 6))
        x = W.conjugate(BraidWord(n, (1,)), g)
        y = W.conjugate(BraidWord(n, (2,)), g)
        for struct in (band(n), classical(n)):
            u = E.solve_pair_to_generators(struct, x, y)
            assert u is not None, (struct.kind, g.format())
            assert E.words_equal(struct, W.conjugate(x, u), BraidWord(n, (1,)))
            assert E.words_equal(struct, W.conjugate(y, u), BraidWord(n, (2,)))
    # past the enumeration cap of band(10): the pair path enumerates nothing
    for n in (11, 12):
        g = rand_word(rng, n, 8)
        x = W.conjugate(BraidWord(n, (1,)), g)
        y = W.conjugate(BraidWord(n, (2,)), g)
        u = E.solve_pair_to_generators(band(n), x, y)
        assert u is not None, g.format()
        assert W.same_braid(W.conjugate(x, u), BraidWord(n, (1,)))
        assert W.same_braid(W.conjugate(y, u), BraidWord(n, (2,)))


def test_pair_solver_needs_three_strands():
    for n in (1, 2):
        for struct in (band(n), classical(n)):
            with pytest.raises(ValueError, match="at least 3 strands"):
                E.solve_pair_to_generators(struct, BraidWord(n, ()), BraidWord(n, ()))


def test_pair_solver_makes_no_enumeration(monkeypatch):
    # a deterministic work gate: on fresh structures, so that no list is
    # kept from an earlier test, solving braiding pairs enumerates no simple
    rng = random.Random(29)
    for n in (5, 11):
        fresh = G.BandStructure(n)
        enumerated = count_calls(monkeypatch, fresh, "_enumerate")
        listed = count_calls(monkeypatch, fresh, "simples")
        for _ in range(4):
            g = rand_word(rng, n, rng.randint(0, 8))
            x = W.conjugate(BraidWord(n, (1,)), g)
            y = W.conjugate(BraidWord(n, (2,)), g)
            assert E.solve_pair_to_generators(fresh, x, y) is not None
        assert (len(enumerated), len(listed)) == (0, 0)


def test_pair_solver_runs_in_the_band_structure_it_is_given(monkeypatch):
    # a band structure passed in is the one weighed, not the cached band(n);
    # a classical one is replaced by the cached band(n)
    rng = random.Random(31)
    n = 6
    fresh = G.BandStructure(n)
    ours = count_calls(monkeypatch, fresh, "_weigh")
    cached = count_calls(monkeypatch, band(n), "_weigh")
    for struct, used, unused in ((fresh, ours, cached), (classical(n), cached, ours)):
        used.clear()
        unused.clear()
        g = rand_word(rng, n, 6)
        x = W.conjugate(BraidWord(n, (1,)), g)
        y = W.conjugate(BraidWord(n, (2,)), g)
        assert E.solve_pair_to_generators(struct, x, y) is not None
        assert used and not unused


def test_pair_solver_refuses_pairs_it_cannot_strip():
    struct = band(3)
    # Y = s1 s1 is not a conjugate of s2
    assert E.solve_pair_to_generators(
        struct, BraidWord.parse("B3: 1 1"), BraidWord.parse("B3: 1 1")) is None
    # X = s1 s2 is no conjugate of an atom, so it has no centred shape
    assert E.solve_pair_to_generators(
        struct, BraidWord.parse("B3: 1 2"), BraidWord.parse("B3: 2")) is None


def strip_conjugates(struct, n):
    """For every simple s and atom y with s y simple, y^(s^-1) as a normal
    form with the atom swapping the images under s^-1 of y's strands, and
    for every y s simple, y^s with the atom swapping their images under s:
    (cases, normal forms that are no atom, atoms other than the one read
    off the permutation) for each side."""
    st = struct(n)
    out = []
    for left in (True, False):
        cases = not_atoms = misread = 0
        for s in st.simples():
            for y in st.atoms():
                i, j = E._atom_ends(st, y)
                if left and st.mul(s, y) is not None:
                    g, ends = E.inv(E.simple_nf(st, s)), (s.key.index(i), s.key.index(j))
                elif not left and st.mul(y, s) is not None:
                    g, ends = E.simple_nf(st, s), (s.key[i], s.key[j])
                else:
                    continue
                cases += 1
                z = E.conjugate(E.simple_nf(st, y), g)
                if not E.is_atom_nf(z):
                    not_atoms += 1
                elif E._atom_ends(st, z.factors[0]) != tuple(sorted(ends)):
                    misread += 1
        out.append((cases, not_atoms, misread))
    return out


def test_pair_solver_strip_rule_is_exhaustively_right_in_band():
    # the pair solver strips Y's atom by rule: in band(n), s y simple makes
    # y^(s^-1) the atom read off s^-1, and y s simple makes y^s the atom
    # read off s (Bessis 2003), checked on every simple and atom
    for n, cases in ((3, 6), (4, 28), (5, 120), (6, 495)):
        assert strip_conjugates(band, n) == [(cases, 0, 0)] * 2
    # the classical structure fails the same check, which is why the
    # solver runs in band(n)
    for n, cases, not_atoms in ((3, 6, 2), (4, 36, 18), (5, 240, 144), (6, 1800, 1200)):
        assert strip_conjugates(classical, n) == [(cases, not_atoms, 0)] * 2


def pair_instances(rng, count):
    """Seeded band pairs, n 3..7, in four kinds: braiding pairs (s1, s2)^g,
    Y a conjugate of s2 squared, Y a conjugate of an atom drawn apart from
    X (rarely braiding), and X a random word."""
    for i in range(count):
        n = 3 + i % 5
        g = rand_word(rng, n, rng.randint(0, 6))
        x = W.conjugate(BraidWord(n, (1,)), g)
        y = W.conjugate(BraidWord(n, (2,)), g)
        kind = i // 5 % 4
        if kind == 1:
            y = W.power(y, 2)
        elif kind == 2:
            y = W.conjugate(BraidWord(n, (rng.randint(1, n - 1),)), rand_word(rng, n, rng.randint(0, 6)))
        elif kind == 3:
            x = rand_word(rng, n, rng.randint(1, 5))
        yield band(n), x, y


def test_pair_solver_matches_conjugacy_decision_oracle():
    # Y's atom read off its own slide trajectory answers exactly as the
    # full conjugacy decision of Y against s2
    answered = 0
    for struct, x, y in pair_instances(random.Random(2201), 300):
        u = E.solve_pair_to_generators(struct, x, y)
        assert (u is None) == (solve_pair_by_conjugacy_decision(struct, x, y) is None), (x, y)
        if u is not None:
            answered += 1
            n = struct.n
            assert E.words_equal(struct, W.conjugate(x, u), BraidWord(n, (1,)))
            assert E.words_equal(struct, W.conjugate(y, u), BraidWord(n, (2,)))
    assert 75 <= answered < 300


def test_pair_solver_needs_no_conjugacy_decision(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pair solver entered the conjugacy search")

    monkeypatch.setattr(E, "conjugacy_solve", refuse)
    monkeypatch.setattr(E, "_circuit_search", refuse)
    rng = random.Random(10)
    for n in range(3, 7):
        for _ in range(6):
            g = rand_word(rng, n, rng.randint(0, 6))
            x = W.conjugate(BraidWord(n, (1,)), g)
            y = W.conjugate(BraidWord(n, (2,)), g)
            assert E.solve_pair_to_generators(band(n), x, y) is not None


# The closure without shortcuts, kept as the oracle of the circuit search:
# conjugate every circuit element by every proper simple, slide each result
# to its circuit, and decide conjugacy by lookup in the finished set.
def exhaustive_sliding_circuits(struct, w):
    rep, _, _ = E._slide_to_circuit(E.from_word(struct, w))
    proper = [s for s in struct.simples() if not struct.is_identity(s)]
    found = set()
    queue = []

    def add_circuit(x):
        while x.key() not in found:
            found.add(x.key())
            queue.append(x)
            nxt, p = E._slide_step(x)
            if struct.is_identity(p):
                break
            x = nxt

    add_circuit(rep)
    while queue:
        y = queue.pop()
        for s in proper:
            z = E.conjugate(y, E.simple_nf(struct, s))
            if z.key() not in found:
                add_circuit(E._slide_to_circuit(z)[0])
    return found


def exhaustive_conjugate(struct, a, b):
    b_rep, _, _ = E._slide_to_circuit(E.from_word(struct, b))
    return b_rep.key() in exhaustive_sliding_circuits(struct, a)


def test_sliding_circuits_match_exhaustive_oracle():
    rng = random.Random(51)
    for n in (3, 4, 5):
        for struct in (classical(n), band(n)):
            for _ in range(4):
                w = rand_word(rng, n, rng.randint(1, 7))
                keys = {nf.key() for nf in E.sliding_circuits(struct, w)}
                assert keys == exhaustive_sliding_circuits(struct, w), w.format()
    # SC has 6 and 18 elements; conjugating each vertex only by its minimal
    # super-summit simples (one per atom) and sliding reaches 2 and 6 of them
    struct = classical(5)
    for w, size in (("B5: -1 4", 6), ("B5: 3 -2 3", 18)):
        w = BraidWord.parse(w)
        keys = {nf.key() for nf in E.sliding_circuits(struct, w)}
        assert len(keys) == size
        assert keys == exhaustive_sliding_circuits(struct, w), w.format()


def test_conjugacy_solve_matches_exhaustive_oracle():
    rng = random.Random(52)
    pairs = []
    for n in (3, 4, 5):
        for _ in range(3):
            x = rand_word(rng, n, rng.randint(1, 6))
            pairs.append((x, W.conjugate(x, rand_word(rng, n, rng.randint(0, 6)))))
            # random pairs that pass the exponent-sum and cycle-type tests,
            # so that the summit test or the closure has to decide
            a = rand_word(rng, n, rng.randint(1, 5))
            while True:
                b = rand_word(rng, n, len(a.letters))
                if W.exponent_sum(a) == W.exponent_sum(b) and (
                    W.permutation_of(a).cycle_type() == W.permutation_of(b).cycle_type()
                ):
                    break
            pairs.append((a, b))
    # not conjugate, though exponent sum, cycle type and summit inf/sup agree
    neg = (BraidWord.parse("B4: 2 -3 -1"), BraidWord.parse("B4: 1 -3 -2"))
    pairs.append(neg)
    for a, b in pairs:
        for struct in (classical(a.strands), band(a.strands)):
            cert = E.conjugacy_solve(struct, a, b)
            assert cert.conjugate == exhaustive_conjugate(struct, a, b), (a, b)
            if cert.conjugate:
                assert E.words_equal(struct, W.conjugate(a, cert.witness), b)
    a, b = neg
    assert W.exponent_sum(a) == W.exponent_sum(b)
    assert W.permutation_of(a).cycle_type() == W.permutation_of(b).cycle_type()
    for struct in (classical(4), band(4)):
        ra = E._slide_to_circuit(E.from_word(struct, a))[0]
        rb = E._slide_to_circuit(E.from_word(struct, b))[0]
        assert (ra.inf, ra.sup) == (rb.inf, rb.sup)
        assert not E.conjugacy_solve(struct, a, b).conjugate


def record_slides(monkeypatch):
    """Patch ``_slide_to_circuit`` to record the (inf, sup) of each input."""
    real = E._slide_to_circuit
    slid = []

    def recording(x, *known):
        slid.append((x.inf, x.sup))
        return real(x, *known)

    monkeypatch.setattr(E, "_slide_to_circuit", recording)
    return slid


@pytest.mark.parametrize("kind,a,b", [
    ("band", "B9: 1", "B9: 2"),
    ("classical", "B6: 1 2 3 4 5 -1 -2", "B6: 5 4 3 2 1 -5 -4"),
])
def test_pinned_instances_slide_few_summit_elements(monkeypatch, kind, a, b):
    # a deterministic work gate: the first two slides are the inputs, every
    # later one is a conjugate inside the summit (inf, sup) window
    struct = band(9) if kind == "band" else classical(6)
    a, b = BraidWord.parse(a), BraidWord.parse(b)
    rep, _, _ = E._slide_to_circuit(E.from_word(struct, a))
    slid = record_slides(monkeypatch)
    cert = E.conjugacy_solve(struct, a, b)
    assert cert.conjugate
    assert E.words_equal(struct, W.conjugate(a, cert.witness), b)
    assert 2 <= len(slid) <= 10
    assert all(window == (rep.inf, rep.sup) for window in slid[2:])


def test_closure_slides_only_summit_conjugates(monkeypatch):
    # after sliding the input, the full closure slides only conjugates that
    # kept the summit (inf, sup)
    slid = record_slides(monkeypatch)
    rng = random.Random(53)
    for n in (3, 4, 5):
        for struct in (classical(n), band(n)):
            for _ in range(3):
                slid.clear()
                w = rand_word(rng, n, rng.randint(1, 7))
                summit = E.sliding_circuits(struct, w)[0]
                assert all(window == (summit.inf, summit.sup) for window in slid[1:])


def record_slide_callers(monkeypatch):
    """Patch ``_slide_step`` to record the name of the function calling it."""
    real = E._slide_step
    callers = []

    def recording(x):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(x)

    monkeypatch.setattr(E, "_slide_step", recording)
    return callers


def test_search_slides_only_in_slide_to_circuit(monkeypatch):
    # every element is slid once, to find its circuit; the closure walks the
    # circuit it was handed instead of sliding it again
    callers = record_slide_callers(monkeypatch)
    rng = random.Random(54)
    for n in (3, 4, 5):
        for struct in (classical(n), band(n)):
            for _ in range(3):
                w = rand_word(rng, n, rng.randint(1, 7))
                E.sliding_circuits(struct, w)
                E.conjugacy_solve(struct, w, W.conjugate(w, rand_word(rng, n, 4)))
    assert callers and set(callers) == {"_slide_to_circuit"}


@pytest.mark.parametrize("kind,w,size,most", [
    ("band", "B5: 3 -2 3", 90, 90),
    ("classical", "B5: -1 4", 6, 600),
])
def test_sliding_circuits_slide_count(monkeypatch, kind, w, size, most):
    # a deterministic work gate: a trajectory stops at the first circuit
    # already found instead of running round it
    struct = band(5) if kind == "band" else classical(5)
    callers = record_slide_callers(monkeypatch)
    assert len(E.sliding_circuits(struct, BraidWord.parse(w))) == size
    assert len(callers) <= most


def count_calls(monkeypatch, owner, name):
    """Patch owner.name, of a module or an instance, to count its calls.
    It is patched in the owner's attribute dict, so undoing the patch on an
    instance deletes the attribute instead of leaving the bound method
    behind on a cached structure."""
    real = getattr(owner, name)
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setitem(vars(owner), name, counting)
    return calls


def test_count_calls_leaves_no_patch_on_a_cached_structure():
    with pytest.MonkeyPatch.context() as mp:
        weighed = count_calls(mp, classical(3), "_weigh")
        E.normal_form(classical(3), BraidWord(3, (1, 2, -1)))
        assert weighed
    assert "_weigh" not in vars(classical(3))


def test_word_problem_kernel_calls(monkeypatch):
    # a deterministic work gate on one word-problem-sized set: two mixed-sign
    # words per n = 3..12, 20..200 letters (2 278 in all), left and right
    # normal forms in both structures.  Inverse letters that only far
    # letters separate are cancelled before weighting; without that the set
    # took 11 202 classical and 17 979 band kernel calls.  Each block takes
    # every exposed letter of its sign, across far commutations; blocking
    # only runs of adjacent same-sign letters took 6 712 and 11 078.
    rng = random.Random(70)
    calls = {"classical": 0, "band": 0}
    for n in range(3, 13):
        words = [rand_word(rng, n, rng.randint(20, 200)) for _ in range(2)]
        for struct in (classical(n), band(n)):
            weighed = count_calls(monkeypatch, struct, "_weigh")
            for w in words:
                E.normal_form(struct, w)
                E.normal_form(struct, w, "right")
            calls[struct.kind] += len(weighed)
    assert calls == {"classical": 4814, "band": 9289}


def test_normal_forms_make_no_simplicity_checks(monkeypatch):
    # a deterministic work gate: a normal form on either side is built from
    # kernel outputs, which are simples, so neither its blocks nor the
    # mirror of a right form test a permutation.  Mirroring each right
    # factor through the checked conversions made two simplicity tests.
    rng = random.Random(71)
    for n in range(3, 13):
        words = [rand_word(rng, n, rng.randint(20, 200)) for _ in range(2)]
        for struct in (classical(n), band(n)):
            checks = [count_calls(monkeypatch, struct, name) for name in ("_is_simple", "_perm0")]
            for w in words:
                for side in ("left", "right"):
                    x = E.normal_form(struct, w, side)
                    assert x.factors and checks == [[], []], (struct.kind, n, side)


def test_spelling_library_simples_makes_no_simplicity_checks(monkeypatch):
    # a deterministic work gate: to_word of a form the engine built and
    # _spell of a conjugacy witness spell keys the library made, so they
    # test none; spelling each simple through simple_word tested it again.
    # A form built by hand is still checked when it is spelled.
    rng = random.Random(72)
    real_spell, spelled = E._spell, []

    def spell(st, steps):
        steps = [tuple(step) for step in steps]
        before = len(checks)
        u = real_spell(st, steps)
        simples = sum(isinstance(part, G.Simple) for step in steps for part in step)
        spelled.append((simples, len(checks) - before))
        return u

    monkeypatch.setattr(E, "_spell", spell)
    for n in range(3, 7):
        for struct in (classical(n), band(n)):
            checks = count_calls(monkeypatch, struct, "_perm0")
            for w in [rand_word(rng, n, rng.randint(5, 40)) for _ in range(3)]:
                for side in ("left", "right"):
                    x = E.normal_form(struct, w, side)
                    del checks[:]
                    word = x.to_word()
                    assert checks == [], (struct.kind, n, side)
                    assert W.same_braid(word, w)
                g = rand_word(rng, n, 6)
                assert E.conjugacy_solve(struct, w, W.conjugate(w, g)).conjugate
    assert all(count == 0 for _, count in spelled), spelled
    assert sum(simples for simples, _ in spelled) > 50
    crossing = G.Simple("band", 4, (2, 3, 0, 1))
    with pytest.raises(ValueError, match=r"is not a simple element of band\(4\)"):
        E.GarsideNormalForm(band(4), 0, (crossing,)).to_word()


def test_negative_blocks_invert_no_permutation(monkeypatch):
    # a deterministic work gate: a block is held as its own permutation, so
    # a negative block grows by the same swap as a positive one and enters
    # as delta^-1 . (delta b^-1) read off it.  Holding it as the inverse
    # simple inverted that simple once per negative block.
    rng = random.Random(72)
    inverted = count_calls(monkeypatch, G, "_pinv")
    for n in range(3, 13):
        for _ in range(2):
            w = rand_word(rng, n, rng.randint(20, 200))
            w = BraidWord(n, tuple(-abs(k) if rng.random() < 0.8 else k for k in w.letters))
            for struct in (classical(n), band(n)):
                x = E.from_word(struct, w)
                assert x.factors and x.inf < 0 and inverted == [], (struct.kind, n)


def test_first_right_factor_builds_no_word(monkeypatch):
    # a deterministic work gate: the first right factor is read off the
    # mirrored arrays of the left form, so no word is spelled and no normal
    # form read in.  Spelling x and normalising its mirror made one of each.
    rng = random.Random(73)
    cases = []
    for n in range(3, 10):
        for struct in (classical(n), band(n)):
            for length in (0, 1, 30):
                g = rand_word(rng, n, length)
                for w in (W.conjugate(BraidWord(n, (1,)), g), rand_word(rng, n, length)):
                    right = E.normal_form(struct, w, "right").factors
                    cases.append((E.from_word(struct, w), right[0] if right else struct.delta()))
    normalised = count_calls(monkeypatch, E, "from_word")
    spelled = []
    real = E.GarsideNormalForm.to_word
    monkeypatch.setattr(E.GarsideNormalForm, "to_word",
                        lambda self: spelled.append(1) or real(self))
    for x, first in cases:
        assert E._first_right_factor(x) == first, x
    assert normalised == [] and spelled == []


def test_commuting_families_take_linear_work(monkeypatch):
    # a deterministic work gate: a block takes every exposed letter of its
    # sign, positive blocks first, so a product of commuting families is
    # normalised as N^-1 . P and each block is weighted against the next
    # factor once.  Blocking runs of adjacent letters took 160 798, 80 998,
    # 320 797 and 20 399 kernel calls on these words in both structures.
    families = {
        "B12: " + " ".join(["1"] * 400 + ["-11"] * 400): 799,
        "B12: " + " ".join(["1 -11"] * 400): 799,
        "B12: " + " ".join(["5"] * 400 + ["1 -11"] * 400): 799,
        "B12: " + " ".join(["1 -3 5 -7"] * 100): 199,
    }
    counted = {struct: count_calls(monkeypatch, struct, "_weigh")
               for struct in (classical(12), band(12))}
    for text, expected in families.items():
        w = BraidWord.parse(text)
        for struct, weighed in counted.items():
            weighed.clear()
            E.normal_form(struct, w)
            assert len(weighed) == expected <= 2 * len(w.letters), (struct.kind, text[:20])


def test_equality_checks_make_no_kernel_calls(monkeypatch):
    # a deterministic work gate: every equality is decided by Dynnikov
    # coordinates, so words_equal in both structures, the witness checks of
    # conjugacy_solve and solve_pair_to_generators, and the round trips of
    # subgroups.k4_rewrite and cabling.extract weigh nothing.  On the equal
    # pairs below the one normal form of a . b^-1 took 474 classical and
    # 588 band kernel calls.
    counted = [count_calls(monkeypatch, make(n), "_weigh")
               for make in (classical, band) for n in range(2, 13)]

    def weighed():
        return sum(map(len, counted))

    rng = random.Random(72)
    for n in range(3, 13):
        pairs = []
        for _ in range(2):
            w = rand_word(rng, n, rng.randint(20, 200))
            pairs.append((w, relation_rewrite(rng, w, 20), True))
        pairs.append(square_swap_pair(rng, n, 50) + (False,))
        for struct in (classical(n), band(n)):
            for a, b, equal in pairs:
                assert E.words_equal(struct, a, b) is equal
    c = W.named_element("c", 4)
    for _ in range(10):
        g = rand_word(rng, 4, rng.randint(0, 6))
        x = W.compose(W.conjugate(c, g), W.inverse(c))
        assert E.words_equal(classical(4), S.free_word_to_braid(S.k4_rewrite(x)), x)
    comp = C.Composition((2, 3))
    cabled = C.cable(BraidWord(2, (1, 1)), [BraidWord(2, (1,)), BraidWord(3, (2, -1))], comp)
    cabled = relation_rewrite(rng, cabled, 10)
    assert C.extract(cabled, comp, "interior:2").strands == 3
    assert not weighed()

    checked = []
    real = W.same_braid

    def same_braid_weighing_nothing(a, b):
        before = weighed()
        verdict = real(a, b)
        checked.append(weighed() == before)
        return verdict

    monkeypatch.setattr(W, "same_braid", same_braid_weighing_nothing)
    for n in (3, 4, 5):
        g = rand_word(rng, n, 6)
        a = rand_word(rng, n, 8)
        for struct in (classical(n), band(n)):
            assert E.conjugacy_solve(struct, a, W.conjugate(a, g)).conjugate
        x = W.conjugate(BraidWord(n, (1,)), g)
        y = W.conjugate(BraidWord(n, (2,)), g)
        assert E.solve_pair_to_generators(band(n), x, y) is not None
    assert len(checked) == 3 * 2 + 3 * 2 and all(checked)
    assert weighed()  # the searches themselves weigh, so the counters count


def test_second_search_does_not_enumerate_simples(monkeypatch):
    # a deterministic work gate: the simples, and the closure's conjugators
    # with their left complements, are enumerated once per structure
    for struct, w in ((band(5), "B5: 3 -2 3"), (classical(5), "B5: -1 4")):
        first = E.sliding_circuits(struct, BraidWord.parse(w))
        proper = struct._proper_simples()
        enumerated = count_calls(monkeypatch, struct, "_enumerate")
        assert E.sliding_circuits(struct, BraidWord.parse(w)) == first
        assert not enumerated
        assert struct._proper_simples() is proper


def test_simples_are_kept_per_structure(monkeypatch):
    # fresh structures, so that the cached ones keep their lists
    for st in (G.BandStructure(4), G.ClassicalStructure(4)):
        enumerated = count_calls(monkeypatch, st, "_enumerate")
        first = st.simples()
        assert st.simples() is first
        assert st._proper_simples() is st._proper_simples()
        assert len(enumerated) == 1
        assert [s for s, _ in st._proper_simples()] == [
            s for s in first if not (st.is_identity(s) or st.is_delta(s))]
    # the cap is checked in front of the kept list
    st = G.ClassicalStructure(4)
    st.simples()
    st.cap = 3
    with pytest.raises(ValueError):
        st.simples()
    with pytest.raises(ValueError):
        st._proper_simples()


@pytest.mark.parametrize("kind,w,forms,kernel", [
    ("band", "B5: 3 -2 3", 96, 3613),
    ("classical", "B5: -1 4", 97, 1556),
], ids=("band", "classical"))
def test_sliding_circuits_conjugate_on_arrays(monkeypatch, kind, w, forms, kernel):
    # a deterministic work gate: the closure conjugates vertices as
    # permutation arrays, one vertex per twist orbit, stops a conjugation
    # once its inf has dropped, and builds a normal form only for a new
    # conjugate inside the summit window and for the twisted images of a new
    # circuit.  The kernel count includes one call per preferred-prefix meet
    # (90 band, 50 classical), since meet is read off the kernel.  Conjugating
    # every vertex took (96, 15 803) and (169, 3 053).
    struct = band(5) if kind == "band" else classical(5)
    built = count_calls(monkeypatch, E, "_from_perms")
    weighed = count_calls(monkeypatch, struct, "_weigh")
    E.sliding_circuits(struct, BraidWord.parse(w))
    assert (len(built), len(weighed)) == (forms, kernel)


@pytest.mark.parametrize("kind,w,orbits", [
    ("band", "B5: 3 -2 3", 18),
    ("classical", "B5: -1 4", 3),
], ids=("band", "classical"))
def test_closure_conjugates_one_vertex_per_twist_orbit(monkeypatch, kind, w, orbits):
    # a deterministic work gate: SC is closed under the twist, and the
    # conjugates of tau(x) are the twists of those of x, so the closure
    # conjugates one vertex per twist orbit by each simple other than 1 and
    # delta.  Conjugating every vertex by every simple but 1 took 90 x 41
    # band and 6 x 119 classical conjugations.
    struct = band(5) if kind == "band" else classical(5)
    real = E._conjugate_simple
    tried = []

    def counting(*args):
        if len(args) > 4 and args[4]:  # keep_inf: the closure's conjugations
            tried.append(1)
        return real(*args)

    monkeypatch.setattr(E, "_conjugate_simple", counting)
    sc = E.sliding_circuits(struct, BraidWord.parse(w))
    delta = E.delta_power(struct, 1)
    keys = {x.key() for x in sc}
    orbit_of = {}
    for x in sc:
        orbit = [x]
        while len(orbit) < struct.twist_order:
            orbit.append(E.conjugate(orbit[-1], delta))
        orbit_of[x.key()] = frozenset(y.key() for y in orbit)
    assert all(orbit <= keys for orbit in orbit_of.values())
    assert len(set(orbit_of.values())) == orbits
    assert len(tried) == orbits * (len(struct.simples()) - 2)


def test_sliding_circuits_are_twist_closed_and_match_exhaustive_oracle():
    # the exhaustive closure takes seconds on a band(6) class of 60
    # elements, so band(6) gets two fixed words with classes of 30 and 20
    rng = random.Random(56)
    cases = [(band(n), w) for n in (3, 4, 5) for w in [
        rand_word(rng, n, rng.randint(1, 6)) for _ in range(3)]]
    cases += [(band(6), BraidWord.parse(w)) for w in ("B6: 1 3", "B6: 1 2")]
    cases += [(classical(n), w) for n in (3, 4, 5) for w in [
        rand_word(rng, n, rng.randint(1, 6)) for _ in range(3)]]
    for struct, w in cases:
        sc = E.sliding_circuits(struct, w)
        keys = {x.key() for x in sc}
        delta = E.delta_power(struct, 1)
        assert all(E.conjugate(x, delta).key() in keys for x in sc), w.format()
        assert keys == exhaustive_sliding_circuits(struct, w), w.format()


def test_twisted_conjugates_are_found_among_the_twisted_images(monkeypatch):
    # b = a^(delta^k) slides to the k-th twist of a's circuit, which the
    # search yields as a twisted image: no simple is enumerated, and the
    # witness, spelled through delta^k, is verified
    def no_enumeration():
        raise AssertionError("simples were enumerated")

    rng = random.Random(57)
    for struct in [band(n) for n in (3, 4, 5, 6)] + [classical(n) for n in (3, 4, 5)]:
        n = struct.n
        monkeypatch.setitem(vars(struct), "simples", no_enumeration)
        delta = BraidWord(n, struct.simple_word(struct.delta()))
        for _ in range(2):
            a = rand_word(rng, n, rng.randint(1, 6))
            for k in range(struct.twist_order):
                b = W.conjugate(a, W.power(delta, k))
                cert = E.conjugacy_solve(struct, a, b)
                assert cert.conjugate, (a.format(), k)
                assert E.words_equal(struct, W.conjugate(a, cert.witness), b), (a.format(), k)


def test_sliding_circuit_trails_conjugate_to_their_element():
    rng = random.Random(55)
    for n in (3, 4, 5):
        for struct in (classical(n), band(n)):
            for _ in range(3):
                w = rand_word(rng, n, rng.randint(1, 7))
                for nf, trail in E.sliding_circuits_with_trails(struct, w).values():
                    assert E.words_equal(struct, W.conjugate(w, trail), nf.to_word())


def test_summit_invariants_reject_without_search(monkeypatch):
    # exponent sum and cycle type agree, the summit (inf, sup) does not
    a, b = BraidWord.parse("B3: 2 1 1"), BraidWord.parse("B3: 1 1 1")
    for struct in (classical(3), band(3)):
        assert not exhaustive_conjugate(struct, a, b)

    def no_search(*args):
        raise AssertionError("the closure was entered")

    monkeypatch.setattr(E, "_circuit_search", no_search)
    for struct in (classical(3), band(3)):
        assert not E.conjugacy_solve(struct, a, b).conjugate


def test_search_limits_raise_typed_errors(monkeypatch):
    monkeypatch.setattr(E, "_SC_MAX", 1)
    with pytest.raises(E.SearchLimitExceeded, match="sliding circuit cap exceeded") as info:
        E.sliding_circuits(classical(3), BraidWord(3, (1,)))
    assert (info.value.limit, info.value.reached) == (1, 2)
    monkeypatch.setattr(E, "_TRAJECTORY_MAX", 0)
    with pytest.raises(E.SearchLimitExceeded, match="sliding trajectory cap exceeded") as info:
        E.sliding_circuits(classical(3), BraidWord(3, (-2, 1, 2)))
    assert (info.value.limit, info.value.reached) == (0, 1)
    assert isinstance(info.value, RuntimeError)
