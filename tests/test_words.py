import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidkit import words as W
from braidkit.engine import words_equal
from braidkit.garside import classical
from braidkit.words import AutomorphismSpec, BraidWord, Permutation
from oracles import burau_matrix, burau_row_of_powers, charpoly_faddeev_leverrier


def braid_words(min_n=2, max_n=6, max_len=12):
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


def test_letter_bounds():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    assert BraidWord(1, ()).letters == ()


def test_parse_format_round_trip():
    for text in ("B4: 1 3 -2", "B4:", "B7: -6 6 1"):
        assert BraidWord.parse(text).format() == text
    w = BraidWord(5, (1, -4, 2))
    assert BraidWord.parse(w.format()) == w
    with pytest.raises(ValueError):
        BraidWord.parse("4: 1 2")


def test_word_algebra_examples():
    assert W.compose(BraidWord(3, (1,)), BraidWord(3, (2,))).letters == (1, 2)
    assert W.inverse(BraidWord(4, (1, 3))).letters == (-3, -1)
    # conjugation convention a^b = b^-1 a b, checked by the normal-form oracle
    got = W.conjugate(BraidWord(3, (1,)), BraidWord(3, (2, 1)))
    assert words_equal(classical(3), got, BraidWord(3, (2,)))
    assert W.power(BraidWord(3, (1,)), 3).letters == (1, 1, 1)
    assert W.power(BraidWord(3, (1, 2)), -2).letters == (-2, -1, -2, -1)
    with pytest.raises(ValueError):
        W.compose(BraidWord(3, (1,)), BraidWord(4, (1,)))


def test_exponent_sum_examples():
    assert W.exponent_sum(BraidWord(4, (1, -3))) == 0
    # expanding the double product gives n(n-1)/2 letters, all positive
    assert len(W.delta(4).letters) == 6
    assert W.exponent_sum(W.delta(4)) == 6
    assert W.exponent_sum(W.power(W.delta(5), 2)) == 20


def test_permutation_examples():
    assert W.permutation_of(BraidWord(3, (1,))) == Permutation.transposition(3, 1, 2)
    assert W.permutation_of(BraidWord.identity(3)).is_identity()
    u = W.named_element("u", 3)
    assert W.permutation_of(u).cycle_type() == (3,)


def test_cycles_must_be_disjoint_and_nonempty():
    assert Permutation.parse("(1 2)(3 4 5)", 5).images == (2, 1, 4, 5, 3)
    assert Permutation.parse("()", 4).is_identity()
    assert Permutation.from_cycles(3, [(2,)]).is_identity()
    for text, message in (
        ("(1 2)(1 2)", "entry 1 occurs twice"),
        ("(1 1)", "entry 1 occurs twice"),
        ("(1 2)(3 2)", "entry 2 occurs twice"),
        ("(1 2)()", "empty cycle"),
        ("()()", "empty cycle"),
        ("(1 7)", "entry 7 out of range"),
        ("(0 1)", "entry 0 out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            Permutation.parse(text, 6)
    with pytest.raises(ValueError, match="empty cycle"):
        Permutation.from_cycles(3, [(1, 2), ()])


def test_cycle_notation_allows_spaces_between_cycles_only():
    want = Permutation.parse("(1 2)(3 4 5)", 5)
    for text in ("(1 2) (3 4 5)", " (1 2)  (3 4 5) ", "(1,2)(3,4,5)"):
        assert Permutation.parse(text, 5) == want
    for text in ("(1 2) x", "(1 2)(3 4", "(1 a)", "1 2", "(1 2))", "(-1 2)", "(1 (2))"):
        with pytest.raises(ValueError) as info:
            Permutation.parse(text, 5)
        assert str(info.value) == f"bad cycle notation: {text!r}"


@settings(max_examples=60)
@given(braid_words(), braid_words())
def test_homomorphisms(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, tuple(k for k in b.letters if abs(k) < a.strands))
    ab = W.compose(a, b)
    assert W.exponent_sum(ab) == W.exponent_sum(a) + W.exponent_sum(b)
    assert W.permutation_of(ab) == W.permutation_of(a) * W.permutation_of(b)


@settings(max_examples=40)
@given(braid_words())
def test_lambda_involution(w):
    lam = AutomorphismSpec.lambda_()
    assert W.apply_automorphism(lam, W.apply_automorphism(lam, w)) == w


def test_lambda_letterwise():
    out = W.apply_automorphism(AutomorphismSpec.lambda_(), BraidWord(3, (1, 2)))
    assert out.letters == (-1, -2)


def test_automorphism_strand_mismatch():
    spec = AutomorphismSpec.inner(BraidWord(4, (1,)))
    with pytest.raises(ValueError):
        W.apply_automorphism(spec, BraidWord(3, (1,)))


@settings(max_examples=30)
@given(braid_words(min_n=2, max_n=5, max_len=8), braid_words(min_n=2, max_n=5, max_len=8))
def test_inner_undoes_conjugation(x, y):
    if x.strands != y.strands:
        y = BraidWord(x.strands, tuple(k for k in y.letters if abs(k) < x.strands))
    st = classical(x.strands)
    lhs = W.apply_automorphism(AutomorphismSpec.inner(x), W.conjugate(y, x))
    assert words_equal(st, lhs, y)


def test_named_elements():
    assert W.delta(3).letters == (1, 2, 1)
    assert W.named_element("u", 3).letters == (2, -1)
    assert W.named_element("t", 3).letters == (-1, 2)
    assert W.named_element("v", 3).letters == (1, 2, -1, -1)
    assert W.named_element("c", 4).letters == (3, -1)
    assert W.named_element("w", 4).letters == (2, 3, -1, -2)
    with pytest.raises(ValueError):
        W.named_element("d", 5)
    with pytest.raises(ValueError):
        W.named_element("u", 2)
    # v = t^-1 u as elements
    st = classical(3)
    v = W.named_element("v", 3)
    assert words_equal(
        st, v, W.compose(W.inverse(W.named_element("t", 3)), W.named_element("u", 3))
    )


def test_projection():
    assert W.project_to_b3(W.named_element("c", 4)).letters == ()
    assert W.project_to_b3(BraidWord(4, (3,))).letters == (1,)
    d = W.named_element("d", 4)
    proj = W.project_to_b3(d)
    rhs = W.compose(W.power(BraidWord(3, (1,)), 6), W.power(W.delta(3), -2))
    assert words_equal(classical(3), proj, rhs)
    with pytest.raises(ValueError):
        W.project_to_b3(BraidWord(3, (1,)))


def test_delete_strands_examples():
    assert W.delete_strands(BraidWord(3, (2, 2)), {1, 2}).letters == ()
    assert W.delete_strands(BraidWord(2, (1, 1)), {1}).letters == ()
    from braidkit import cabling as C

    cab = C.cable(
        BraidWord(2, (-1,)),
        [BraidWord(2, (1, 1)), BraidWord(2, (1, 1))],
        C.Composition((2, 2)),
    )
    # the cabled braid swaps its tubes, so the kept pair is not invariant
    with pytest.raises(ValueError):
        W.delete_strands(cab, {1, 2})
    kept = W.delete_strands(W.power(cab, 2), {1, 2})
    assert words_equal(classical(2), kept, BraidWord(2, (1,) * 4))


@settings(max_examples=30)
@given(braid_words(min_n=3, max_n=5, max_len=8), braid_words(min_n=3, max_n=5, max_len=8))
def test_delete_commutes_with_composition(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, tuple(k for k in b.letters if abs(k) < a.strands))
    n = a.strands
    keep = set(range(1, n))  # drop the last strand when both braids allow it
    mu_a, mu_b = W.permutation_of(a), W.permutation_of(b)
    if {mu_a(i) for i in keep} != keep or {mu_b(i) for i in keep} != keep:
        return
    lhs = W.delete_strands(W.compose(a, b), keep)
    rhs = W.compose(W.delete_strands(a, keep), W.delete_strands(b, keep))
    assert lhs == rhs


def rand_word(rng, n, length):
    letters = [k for k in range(-(n - 1), n) if k != 0]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def test_burau_row_is_invariant_under_braid_relations():
    # every free cancellation, far commutation and braid relation, between
    # seeded heads and tails, leaves the row unchanged; single letters move it
    rng = random.Random(61)
    for n in range(2, 13):
        ks = range(1, n)
        relations = [((k, -k), ()) for k in ks] + [((-k, k), ()) for k in ks]
        for i, j in itertools.combinations(ks, 2):
            if j - i >= 2:
                for a, b in itertools.product((i, -i), (j, -j)):
                    relations.append(((a, b), (b, a)))
        for i in range(1, n - 1):
            relations.append(((i, i + 1, i), (i + 1, i, i + 1)))
            relations.append(((-i, -i - 1, -i), (-i - 1, -i, -i - 1)))
        for lhs, rhs in relations:
            head = rand_word(rng, n, rng.randint(0, 10)).letters
            tail = rand_word(rng, n, rng.randint(0, 10)).letters
            assert burau_row_of_powers(BraidWord(n, head + lhs + tail)) == burau_row_of_powers(
                BraidWord(n, head + rhs + tail)
            ), (n, lhs, rhs)
        one = burau_row_of_powers(BraidWord.identity(n))
        assert all(burau_row_of_powers(BraidWord(n, (k,))) != one for k in ks)


def test_burau_row_and_charpoly_match_oracles():
    rng = random.Random(62)
    p = W._BURAU_P
    for n in range(2, 10):
        for length in (0, 1, 3, 8, 20):
            w = rand_word(rng, n, length)
            m = burau_matrix(w)
            v = [pow(7, i, p) for i in range(1, n + 1)]
            row = tuple(sum(v[q] * m[q][c] for q in range(n)) % p for c in range(n))
            assert burau_row_of_powers(w) == row, w.format()
            assert W._burau_charpoly(w) == charpoly_faddeev_leverrier(m), w.format()


def test_burau_charpoly_is_a_conjugacy_invariant():
    rng = random.Random(63)
    for n in range(2, 10):
        for _ in range(5):
            x = rand_word(rng, n, rng.randint(1, 12))
            g = rand_word(rng, n, rng.randint(0, 12))
            assert W._burau_charpoly(x) == W._burau_charpoly(W.conjugate(x, g)), (x, g)


def test_dynnikov_action_respects_the_braid_relations():
    # on random integer vectors, signs mixed, n = 3..8: s_i s_i^-1 and
    # s_i^-1 s_i act as the identity, the braid relation holds in both signs,
    # and far letters commute; so the letters act as a group, B_n
    rng = random.Random(68)
    for n in range(3, 9):
        ks = range(1, n)
        relations = [((k, -k), ()) for k in ks] + [((-k, k), ()) for k in ks]
        for i in range(1, n - 1):
            relations.append(((i, i + 1, i), (i + 1, i, i + 1)))
            relations.append(((-i, -i - 1, -i), (-i - 1, -i, -i - 1)))
        for i, j in itertools.combinations(ks, 2):
            if j - i >= 2:
                for a, b in itertools.product((i, -i), (j, -j)):
                    relations.append(((a, b), (b, a)))
        for lhs, rhs in relations:
            for _ in range(20):
                v = [rng.randint(-40, 40) for _ in range(2 * n)]
                assert W.dynnikov_coordinates(BraidWord(n, lhs), v) == W.dynnikov_coordinates(
                    BraidWord(n, rhs), v), (n, lhs, rhs, v)
        start = W.dynnikov_coordinates(BraidWord.identity(n))
        assert start == (0, 1) * n
        assert all(W.dynnikov_coordinates(BraidWord(n, (k,))) != start for k in ks)
