import random

import pytest

from braidkit import engine as E
from braidkit import purebraid as P
from braidkit import subgroups as S
from braidkit import words as W
from braidkit.garside import classical
from braidkit.words import AutomorphismSpec, BraidWord, Permutation, named_element
from oracles import (
    b3_commutator_coordinates_by_powers,
    free_words_check_dfs,
    kernel_coordinates_by_permutations,
    smith_normal_form_dense,
    word_image,
)


# -- parsing ----------------------------------------------------------------


def test_parse_word_right_division():
    pres = S.FinitePresentation(("u", "v", "w", "c"), ())
    assert pres.parse_word("u*c/u/w") == (1, 4, -1, -3)
    assert pres.parse_word("u^-1*w^2") == (-1, 3, 3)
    with pytest.raises(ValueError):
        pres.parse_word("x")


def test_parse_presentation_file():
    text = """
    # rank-two free group onto the three-cycles
    gens: u t
    degree: 3
    image: u = (1 2 3)
    image: t = (1 3 2)
    """
    pres, image = S.parse_presentation(text)
    assert pres.generators == ("u", "t") and pres.relators == ()
    ka = S.kernel_abelianization(pres, image)
    assert ka.invariant_factors == (0, 0, 0, 0)


def test_parse_presentation_refuses_inconsistent_names():
    base = "degree: 3\nimage: u = (1 2 3)\n"
    for text, message in (
        ("gens: u u\n" + base, "repeated generator name"),
        ("gens: u\n" + base + "image: x = (1 2)\n", r"names not in gens: \['x'\]"),
        ("gens: u\n" + base + "image: u = (1 2)\n", "second image line for 'u'"),
        ("gens: u\ndegree: 3\nimage: u = ()()\n", "empty cycle"),
    ):
        with pytest.raises(ValueError, match=message):
            S.parse_presentation(text)


# -- Smith normal form ------------------------------------------------------


def test_smith_examples():
    assert S.smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)
    assert S.smith_normal_form([[2, 0], [0, 4]]).factors == (2, 4)
    assert S.smith_normal_form([[2, 3], [4, 5]]).factors == (1, 2)


def _assert_same_as_oracle(f, o):
    assert (f.d, f.v, f.factors) == (o.d, o.v, o.factors)


def _assert_smith_certificate(m, f):
    """f agrees with the dense oracle, whose U certifies D = U M V with U and
    V unimodular (the library keeps no U); D is diagonal with a divisibility
    chain."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    o = smith_normal_form_dense(m)
    _assert_same_as_oracle(f, o)
    assert len(o.u) == rows and len(o.v) == cols
    if rows and cols:
        assert o.d == S.mat_mul(S.mat_mul(o.u, m), o.v)
    assert abs(S._det(o.u)) == 1 and abs(S._det(o.v)) == 1
    assert all(f.d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert f.factors == tuple(f.d[i][i] for i in range(min(rows, cols)))
    for a, b in zip(f.factors, f.factors[1:]):
        assert b % a == 0 if a else b == 0
    assert all(x >= 0 for x in f.factors)


def test_smith_random_soundness():
    rng = random.Random(4)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        _assert_smith_certificate(m, S.smith_normal_form(m))


def test_smith_edge_cases():
    cases = {
        "empty": ([], ()),
        "zero": ([[0, 0, 0], [0, 0, 0]], (0, 0)),
        "row": ([[4, 6, -10]], (2,)),
        "column": ([[6], [-4], [10]], (2,)),
        "minus one pivot": ([[-1, 3], [2, 5]], (1, 11)),
        "divisibility fix": ([[2, 0], [0, 3]], (1, 6)),
    }
    for name, (m, factors) in cases.items():
        f = S.smith_normal_form(m)
        assert f.factors == factors, name
        _assert_smith_certificate(m, f)
    # a -1 pivot comes out positive after a row negation
    f = S.smith_normal_form([[-1]])
    assert f.d == ((1,),) and f.v == ((1,),)
    assert smith_normal_form_dense([[-1]]).u == ((-1,),)


def test_smith_matches_dense_oracle():
    # Dense 7x7 matrices can blow the greedy rule's entries up to hundreds of
    # thousands of digits (both here and in the oracle), so dense draws stop
    # at 6x6 and the 7x7 draws keep each entry with probability 1/2, like the
    # sparse relation matrices the rule serves.
    rng = random.Random(13)
    for k in range(2000):
        size, keep = (6, 1.0) if k % 2 else (7, 0.5)
        r, c = rng.randint(0, size), rng.randint(0, size)
        m = [
            [rng.randint(-4, 5) if rng.random() < keep else 0 for _ in range(c)]
            for _ in range(r)
        ]
        _assert_same_as_oracle(S.smith_normal_form(m), smith_normal_form_dense(m))
    for pres, image in (S.b4_commutator_presentation(), S.b3_commutator_presentation()):
        rows, _ = kernel_coordinates_by_permutations(pres, image, [])
        _assert_smith_certificate(rows, S.smith_normal_form(rows))


def test_sparse_smith_takes_every_step_of_the_dense_oracle():
    # Sparse draws like the relation matrices, and the torsion presentation,
    # between them reach row swaps, column swaps and divisibility fixes.  At
    # density 0.2 some 12x15 draws grow entries of hundreds of digits under
    # the greedy rule (ROADMAP item 4), so these keep each entry at 0.15.
    rng = random.Random(41)
    events = {}
    matrices = [
        [[rng.randint(-3, 3) if rng.random() < 0.15 else 0 for _ in range(15)]
         for _ in range(12)]
        for _ in range(200)
    ]
    matrices.append(kernel_coordinates_by_permutations(*_torsion_presentation(), [])[0])
    for m in matrices:
        _assert_same_as_oracle(S.smith_normal_form(m), smith_normal_form_dense(m, events))
    assert set(events) == {"row swap", "column swap", "divisibility fix"}


def test_matrix_rank_matches_dense_smith_oracle():
    # dense draws stop at 6x6, where the oracle's greedy rule stays fast
    rng = random.Random(31)
    for _ in range(1500):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = [[rng.randint(-4, 5) for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:  # a dependent row
            i, j = rng.sample(range(r), 2)
            k = rng.randint(-3, 3)
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        rank = sum(1 for f in smith_normal_form_dense(m).factors if f)
        assert S.matrix_rank(m) == rank, m


def test_matrix_rank_needs_no_smith_reduction(monkeypatch):
    # the 6x7 matrix on which the greedy Smith rule grows entries of
    # hundreds of thousands of digits
    def refuse(matrix):
        raise AssertionError("matrix_rank ran the Smith reduction")

    monkeypatch.setattr(S, "smith_normal_form", refuse)
    m = [[-2, 0, 4, 0, 3, -3, -4], [0, 1, -4, -4, 5, 0, 1], [-3, 1, 4, -2, 4, -4, -4],
         [-3, 3, -2, 0, 2, -3, 3], [1, 5, 3, -1, -2, -4, 0], [1, 2, 3, 5, 2, 0, -3]]
    assert S.matrix_rank(m) == 6
    assert S.matrix_rank([list(col) for col in zip(*m)]) == 6
    assert S.matrix_rank(m + [[a + b for a, b in zip(m[0], m[1])]]) == 6


# -- kernel abelianization --------------------------------------------------


def test_kernel_abelianization_four_strands():
    pres, image = S.b4_commutator_presentation()
    ka = S.kernel_abelianization(pres, image)
    assert ka.invariant_factors == (0,) * 7
    assert ka.free_rank == 7


def test_kernel_abelianization_three_strands():
    pres, image = S.b3_commutator_presentation()
    ka = S.kernel_abelianization(pres, image)
    assert ka.invariant_factors == (0,) * 4


def _artin_presentation(n):
    """The Artin presentation of the n-strand braid group onto the symmetric
    group, whose kernel is the pure braid group."""
    rels = [(i, i + 1, i, -(i + 1), -i, -(i + 1)) for i in range(1, n - 1)]
    rels += [(i, j, -i, -j) for i in range(1, n) for j in range(i + 2, n)]
    pres = S.FinitePresentation(tuple(f"s{i}" for i in range(1, n)), tuple(rels))
    image = S.FiniteImageMap(
        tuple(Permutation.transposition(n, i, i + 1) for i in range(1, n))
    )
    return pres, image


def test_pure_braid_abelianization():
    # P_n^ab is free abelian on the C(n, 2) generators A_ij
    for n in (3, 4, 5):
        pres, image = _artin_presentation(n)
        ka = S.kernel_abelianization(pres, image)
        assert ka.invariant_factors == (0,) * (n * (n - 1) // 2)
        if n <= 4:
            rows, _ = kernel_coordinates_by_permutations(pres, image, [])
            _assert_same_as_oracle(S.smith_normal_form(rows), smith_normal_form_dense(rows))


def test_kernel_abelianization_multiplies_no_permutations(monkeypatch):
    # a deterministic work gate: the built-in presentations are built once,
    # and the abelianization composes images as tuples
    assert S.b4_commutator_presentation() is S.b4_commutator_presentation()
    assert S.b3_commutator_presentation() is S.b3_commutator_presentation()
    calls = []
    real = Permutation.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counting)
    ka = S.kernel_abelianization(*S.b4_commutator_presentation())
    assert ka.invariant_factors == (0,) * 7
    assert not calls


def test_trivial_image_gives_whole_abelianization():
    pres = S.FinitePresentation(("u", "t"), ())
    image = S.FiniteImageMap((Permutation.identity(1), Permutation.identity(1)))
    ka = S.kernel_abelianization(pres, image)
    assert ka.invariant_factors == (0, 0)


def test_relator_must_vanish():
    pres = S.FinitePresentation(("a",), ((1,),))
    image = S.FiniteImageMap((Permutation.from_cycles(2, [(1, 2)]),))
    with pytest.raises(ValueError, match="does not vanish"):
        S.kernel_abelianization(pres, image)


def test_coordinates_additive_and_kernel_checked():
    pres, image = S.b3_commutator_presentation()
    ka = S.kernel_abelianization(pres, image)
    rng = random.Random(3)

    def rand_kernel():
        while True:
            word = tuple(
                rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 10))
            )
            if word_image(image, word).is_identity():
                return word

    for _ in range(25):
        g, h = rand_kernel(), rand_kernel()
        cg, ch = ka.coordinates(g), ka.coordinates(h)
        assert ka.coordinates(g + h) == tuple(a + b for a, b in zip(cg, ch))
    with pytest.raises(ValueError, match="kernel"):
        ka.coordinates((1,))


def test_coordinates_refuse_unknown_letters():
    pres, image = S.b3_commutator_presentation()
    ka = S.kernel_abelianization(pres, image)
    for word in ((0, 0, 0), (3,), (-3, 1, 2)):
        with pytest.raises(ValueError, match="unknown generator"):
            ka.coordinates(word)


def _torsion_presentation():
    """a^4, b^6, (ab)^2 onto the symmetric group of degree 3; its kernel
    has torsion (2, 2, 2, 2), so coordinates reduce modulo 2."""
    pres = S.FinitePresentation(("a", "b"), ((1, 1, 1, 1), (2,) * 6, (1, 2, 1, 2)))
    image = S.FiniteImageMap(
        (Permutation.from_cycles(3, [(1, 2)]), Permutation.from_cycles(3, [(1, 2, 3)]))
    )
    return pres, image


def test_coordinates_match_permutation_rewriting_oracle():
    rng = random.Random(7)
    for pres, image in (
        S.b4_commutator_presentation(),
        S.b3_commutator_presentation(),
        _torsion_presentation(),
    ):
        ka = S.kernel_abelianization(pres, image)
        k = len(pres.generators)
        letters = [g for g in range(-k, k + 1) if g]
        words = []
        while len(words) < 150:
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 14)))
            if word_image(image, word).is_identity():
                words.append(word)
        _, want = kernel_coordinates_by_permutations(pres, image, words)
        assert [ka.coordinates(w) for w in words] == want
    assert S.kernel_abelianization(*_torsion_presentation()).invariant_factors == (2,) * 4


def test_basis_checks():
    pres3, img3 = S.b3_commutator_presentation()
    ka3 = S.kernel_abelianization(pres3, img3)
    e3 = [(1, 2), (2, 1), (1, 1, 1), (2, 2, 2)]
    assert S.basis_check(e3, ka3)
    assert not S.basis_check([(1, 1, 1), (1, 1, 1), (1, 2), (2, 1)], ka3)
    pres4, img4 = S.b4_commutator_presentation()
    ka4 = S.kernel_abelianization(pres4, img4)
    t = (1, -2)  # t = u v^-1
    e4 = [(1,) + t, t + (1,), (1, 1, 1), t * 3, (4, 4), (3, 3), (4, 3, 4, 3)]
    assert S.basis_check(e4, ka4)


# -- graph criterion ---------------------------------------------------------


def test_commutation_graph():
    assert S.commutation_graph_connected(5)
    assert not S.commutation_graph_connected(4)
    assert not S.commutation_graph_connected(3)
    assert S.commutation_graph_connected(2)
    assert S.commutation_graph_connected(6)
    with pytest.raises(ValueError):
        S.commutation_graph_connected(1)


# -- kernel rewriting ---------------------------------------------------------


def test_k4_rewrite_examples():
    c = named_element("c", 4)
    w = named_element("w", 4)
    u = named_element("u", 4)
    t = named_element("t", 4)
    assert S.k4_rewrite(c) == (1,)
    assert S.k4_rewrite(W.compose(BraidWord(4, (2,)), c, BraidWord(4, (-2,)))) == (2,)
    assert S.k4_rewrite(W.compose(u, w, W.inverse(u))) == (2, 2, -1, 2)
    assert S.k4_rewrite(W.compose(t, c, W.inverse(t))) == (1, 2)
    assert S.k4_rewrite(W.compose(t, w, W.inverse(t))) == (1, 2, 2)
    with pytest.raises(ValueError):
        S.k4_rewrite(BraidWord(4, (1,)))


def test_k4_rewrite_random_soundness():
    rng = random.Random(17)
    c = named_element("c", 4)
    st = classical(4)
    for _ in range(30):
        parts = [BraidWord.identity(4)]
        for _ in range(rng.randint(1, 3)):
            g = BraidWord(
                4,
                tuple(
                    rng.choice([k for k in range(-3, 4) if k])
                    for _ in range(rng.randint(0, 5))
                ),
            )
            base = c if rng.random() < 0.7 else W.inverse(c)
            parts.append(W.conjugate(base, g))
        x = W.compose(*parts)
        fw = S.k4_rewrite(x)
        assert E.words_equal(st, S.free_word_to_braid(fw), x)


def test_free_word_formats():
    assert S.format_free_word((2, 2, -1, 2)) == "w w c^-1 w"
    assert S.format_free_word(()) == "1"


def test_shadow_actions_match_braid_conjugation():
    # the free-group actions used by the rewriter agree with actual
    # conjugation in the braid group
    st = classical(4)
    c = named_element("c", 4)
    w = named_element("w", 4)
    u = named_element("u", 4)
    cases = [
        (BraidWord(4, (1,)), S._AUT_S1),
        (BraidWord(4, (-1,)), S._AUT_S1_INV),
        (BraidWord(4, (2,)), S._AUT_S2),
        (BraidWord(4, (-2,)), S._AUT_S2_INV),
        (u, S._AUT_U),
        (W.inverse(u), S._AUT_U_INV),
    ]
    for g, aut in cases:
        for target, image in ((c, aut.image_c), (w, aut.image_w)):
            lhs = W.compose(g, target, W.inverse(g))
            assert E.words_equal(st, lhs, S.free_word_to_braid(image))


# -- induced matrices ----------------------------------------------------------


def test_action_matrix_k4():
    t = named_element("t", 4)
    u = named_element("u", 4)
    assert S.action_matrix(t, "K4ab") == S.U_MATRIX == ((1, 1), (1, 2))
    assert S.action_matrix(W.compose(t, W.inverse(u)), "K4ab") == S.T_MATRIX == (
        (2, 1),
        (1, 1),
    )
    assert S.action_matrix(named_element("c", 4), "K4ab") == ((1, 0), (0, 1))
    assert S.action_matrix(named_element("w", 4), "K4ab") == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        S.action_matrix(BraidWord(4, (1,)), "K4ab")  # nonzero exponent sum


def test_action_matrix_is_homomorphism_on_k4ab():
    rng = random.Random(23)
    letters = [k for k in range(-3, 4) if k]
    for _ in range(15):
        while True:
            x = BraidWord(4, tuple(rng.choice(letters) for _ in range(6)))
            if W.exponent_sum(x) == 0:
                break
        while True:
            y = BraidWord(4, tuple(rng.choice(letters) for _ in range(6)))
            if W.exponent_sum(y) == 0:
                break
        lhs = S.action_matrix(W.compose(x, y), "K4ab")
        rhs = S.mat_mul(S.action_matrix(x, "K4ab"), S.action_matrix(y, "K4ab"))
        assert lhs == tuple(tuple(r) for r in rhs)


def test_b3_coordinates():
    u = named_element("u", 3)
    t = named_element("t", 3)
    assert S.b3_commutator_coordinates(u) == (1, 0)
    assert S.b3_commutator_coordinates(t) == (0, 1)
    rng = random.Random(8)
    letters = [-2, -1, 1, 2]
    def rand_zero():
        while True:
            x = BraidWord(3, tuple(rng.choice(letters) for _ in range(8)))
            if W.exponent_sum(x) == 0:
                return x
    for _ in range(25):
        x, y = rand_zero(), rand_zero()
        cx = S.b3_commutator_coordinates(x)
        cy = S.b3_commutator_coordinates(y)
        assert S.b3_commutator_coordinates(W.compose(x, y)) == (
            cx[0] + cy[0],
            cx[1] + cy[1],
        )
    # the defining identities behind the coordinate rewriting, as braids
    st = classical(3)
    s1 = BraidWord(3, (1,))
    assert E.words_equal(st, W.compose(s1, u, W.inverse(s1)),
                         W.compose(W.inverse(t), u))
    assert E.words_equal(st, W.compose(s1, t, W.inverse(s1)), u)


def test_b3_coordinates_match_power_oracle():
    # The height is the running exponent sum.  Each word climbs to +40 or
    # -40 and two random heights, with random letters in between, and closes
    # at 0; the table of six powers must agree with the powers multiplied out.
    rng = random.Random(19)
    for k in range(30):
        letters = []
        height = 0
        for target in (40 if k % 2 else -40, rng.randint(-40, 40), rng.randint(-40, 40)):
            step = 1 if target > height else -1
            for _ in range(abs(target - height)):
                letters.append(rng.choice((1, 2)) * step)
            letters.extend(rng.choice((-2, -1, 1, 2)) for _ in range(3))
            height = sum(1 if g > 0 else -1 for g in letters)
        letters.extend([-1 if height > 0 else 1] * abs(height))
        w = BraidWord(3, tuple(letters))
        assert S.b3_commutator_coordinates(w) == b3_commutator_coordinates_by_powers(w)


def test_action_matrix_b3ab():
    assert S.action_matrix(AutomorphismSpec.sigma_tilde(1, 3), "B3primeAb") == (
        (1, 1),
        (-1, 0),
    )
    assert S.action_matrix(AutomorphismSpec.sigma_tilde(2, 3), "B3primeAb") == (
        (1, 1),
        (-1, 0),
    )
    assert S.action_matrix(AutomorphismSpec.lambda_(), "B3primeAb") == (
        (0, -1),
        (-1, 0),
    )


def test_matrix_constants():
    assert S.S1_MATRIX == ((1, -1), (0, 1))
    assert S.S2_MATRIX == ((1, 0), (1, 1))
    assert S.T_MATRIX == ((2, 1), (1, 1))
    assert S.U_MATRIX == ((1, 1), (1, 2))
    # braid relation holds for the projective matrices
    lhs = S.mat_mul(S.mat_mul(S.S1_MATRIX, S.S2_MATRIX), S.S1_MATRIX)
    rhs = S.mat_mul(S.mat_mul(S.S2_MATRIX, S.S1_MATRIX), S.S2_MATRIX)
    assert lhs == rhs


def test_unrolled_2x2_product_matches_mat_mul():
    rng = random.Random(18)
    for _ in range(200):
        a, b = (tuple(tuple(rng.randint(-40, 40) for _ in range(2)) for _ in range(2))
                for _ in range(2))
        assert S._mat_mul2(a, b) == S.mat_mul(a, b)


def test_free_words_check():
    assert S.free_words_check([S.T_MATRIX, S.U_MATRIX], 10)
    assert not S.free_words_check([S.S1_MATRIX, S.S2_MATRIX], 6)
    assert S.free_words_check([S.T_MATRIX], 10)
    # no generators, or no length to test, is refused rather than answered
    with pytest.raises(ValueError, match="at least one generator"):
        S.free_words_check([], 4)
    for max_len in (0, -1):
        with pytest.raises(ValueError, match="max_len"):
            S.free_words_check([((1, 0), (0, 1))], max_len)
        with pytest.raises(ValueError, match="max_len"):
            S.free_words_check([S.T_MATRIX, S.U_MATRIX], max_len)
    assert not S.free_words_check([((1, 0), (0, 1))], 1)
    for gens in (
        [((1, 1), (0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
        [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1), (0, 1))],
        [((1, 2, 3), (0, 1, 0))],
        [()],
    ):
        with pytest.raises(ValueError, match="square matrices of one size"):
            S.free_words_check(gens, 3)


def _unimodular(rng, size):
    """A seeded integer matrix of determinant +-1: a few elementary row
    operations, then now and then a signed row permutation, for torsion."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(size), 2)
        e = rng.choice((1, -1))
        m[i] = [a + e * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.3:
        rows = rng.sample(range(size), size)
        m = [[sign * v for v in m[r]] for r, sign in zip(rows, rng.choices((1, -1), k=size))]
    return tuple(map(tuple, m))


def test_free_words_check_matches_depth_first_oracle():
    rng = random.Random(33)
    for k, top, tuples in ((1, 9, 8), (2, 9, 6), (3, 6, 6)):
        for t in range(tuples):
            gens = [_unimodular(rng, 2 + t % 2) for _ in range(k)]
            for max_len in range(1, top + 1):
                expect = free_words_check_dfs(gens, max_len)
                assert S.free_words_check(gens, max_len) == expect, (gens, max_len)
    # the reduced-length bound: S^2 = S^-2 collide at L = 3, but their
    # relation S^4 has length 4 > 3
    order4 = ((0, -1), (1, 0))
    edges = [
        ([order4], 3, True), ([order4], 4, False),
        ([S.T_MATRIX, S.T_MATRIX], 1, True), ([S.T_MATRIX, S.T_MATRIX], 2, False),
        ([S.T_MATRIX, S.mat_inv2(S.T_MATRIX)], 2, False),
        ([((1, 0), (0, 1))], 1, False),
    ]
    for gens, max_len, expect in edges:
        assert S.free_words_check(gens, max_len) is expect, (gens, max_len)
        assert free_words_check_dfs(gens, max_len) is expect, (gens, max_len)


# -- structural facts ----------------------------------------------------------


def test_projection_sends_kernel_intersection_down():
    rng = random.Random(11)
    for _ in range(20):
        i, j = sorted(rng.sample(range(1, 5), 2))
        k, l = sorted(rng.sample(range(1, 5), 2))
        letters = [m for m in range(-3, 4) if m]
        g1 = BraidWord(4, tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))))
        g2 = BraidWord(4, tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))))
        x = W.compose(
            W.conjugate(W.power(W.band_generator(i, j, 4), 2), g1),
            W.conjugate(W.power(W.band_generator(k, l, 4), -2), g2),
        )
        assert P.membership(x, "J")
        assert P.membership(W.project_to_b3(x), "J")


def test_intersection_subgroup_not_preserved_by_free_substitution():
    # the endomorphism fixing u and sending t to u t identifies a witness:
    # u t lies in the intersection subgroup while its preimage t does not
    u = named_element("u", 3)
    t = named_element("t", 3)
    assert P.membership(W.compose(u, t), "J")
    assert not P.membership(t, "J")


def test_image_rank_and_cube_classes():
    u = named_element("u", 4)
    t = named_element("t", 4)
    c = named_element("c", 4)
    w = named_element("w", 4)
    braids = [
        W.compose(u, t),
        W.compose(t, u),
        W.power(u, 3),
        W.power(t, 3),
        W.power(c, 2),
        W.power(w, 2),
        W.power(W.compose(c, w), 2),
    ]
    rows = [list(P.linking_matrix(b).vector()) for b in braids]
    assert S.matrix_rank(rows) == 5
    assert P.linking_matrix(W.power(u, 3)).vector() == (0,) * 6
    assert P.linking_matrix(W.power(t, 3)).vector() == (0,) * 6
