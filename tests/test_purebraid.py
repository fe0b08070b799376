import itertools
import json
import random

import pytest

from braidkit import purebraid as P
from braidkit import words as W
from braidkit.words import BraidWord, band_generator, delta, named_element
from oracles import periodic_degree_by_normal_form


def rand_word(rng, n, length):
    letters = [k for k in range(-(n - 1), n) if k != 0]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def rand_pure(rng, n, blocks=3):
    parts = [BraidWord.identity(n)]
    for _ in range(blocks):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sq = W.power(band_generator(i, j, n), 2 * rng.choice([-1, 1]))
        parts.append(W.conjugate(sq, rand_word(rng, n, rng.randint(0, 4))))
    return W.compose(*parts)


def test_linking_examples():
    assert P.linking_matrix(BraidWord(2, (1, 1)))[1, 2] == 1
    u3 = W.power(named_element("u", 3), 3)
    assert P.linking_matrix(u3).vector() == (0, 0, 0)
    lk = P.linking_matrix(W.power(delta(4), 2))
    assert all(lk[i, j] == 1 for i in range(1, 5) for j in range(i + 1, 5))
    with pytest.raises(ValueError):
        P.linking_matrix(BraidWord(3, (1,)))


def test_band_generator_squares_hit_unit_vectors():
    # coordinates are indexed by the pairs i < j in lex order
    n = 5
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for index, (i, j) in enumerate(pairs):
        vec = P.abelianize_pure(W.power(band_generator(i, j, n), 2), "P")
        expected = [0] * len(pairs)
        expected[index] = 1
        assert vec == tuple(expected)


def test_upper_sum_equals_exponent_sum():
    rng = random.Random(1)
    for _ in range(30):
        x = rand_pure(rng, 5)
        assert sum(P.linking_matrix(x).vector()) * 2 == 2 * W.exponent_sum(x) // 2
        assert 2 * sum(P.linking_matrix(x).vector()) == W.exponent_sum(x)


def test_membership():
    u = named_element("u", 3)
    assert P.membership(u, "commutator") and not P.membership(u, "pure")
    assert P.membership(W.power(u, 3), "J")
    x = BraidWord(5, (1, 1, -3, -3))
    assert P.membership(x, "J")
    with pytest.raises(ValueError):
        P.membership(x, "frobnicate")


def test_abelianize_targets():
    assert P.abelianize_pure(W.power(delta(3), 2), "P") == (1, 1, 1)
    tau = named_element("tau", 5)
    vec = P.abelianize_pure(tau, "J")
    assert sum(vec) == 0
    # first tube pair links 3 times, pairs inside the second tube -1 each,
    # nothing across the tubes
    lk = P.linking_matrix(tau)
    assert lk[1, 2] == 3
    assert all(lk[i, j] == -1 for i, j in [(3, 4), (3, 5), (4, 5)])
    assert all(lk[i, j] == 0 for i in (1, 2) for j in (3, 4, 5))
    with pytest.raises(ValueError):
        P.abelianize_pure(BraidWord(3, (1,)), "P")  # not pure
    with pytest.raises(ValueError):
        P.abelianize_pure(W.power(delta(3), 2), "J")  # nonzero exponent sum
    with pytest.raises(ValueError):
        # exponent zero and pure, but below the faithful range
        P.abelianize_pure(BraidWord(4, (1, 1, -3, -3)), "J")


def test_homomorphism_on_pure_braids():
    rng = random.Random(6)
    for _ in range(30):
        a = rand_pure(rng, 4, 2)
        b = rand_pure(rng, 4, 2)
        va = P.linking_matrix(a).vector()
        vb = P.linking_matrix(b).vector()
        vab = P.linking_matrix(W.compose(a, b)).vector()
        assert vab == tuple(x + y for x, y in zip(va, vb))


def test_periodic_degree():
    assert P.periodic_degree(W.power(delta(4), 2)) == 1
    assert P.periodic_degree(W.power(delta(3), -4)) == -2
    assert P.periodic_degree(BraidWord.identity(3)) == 0
    assert P.periodic_degree(BraidWord(3, (1, 1))) is None
    # degree d means every pair links d times
    lk = P.linking_matrix(W.power(delta(4), 4))
    assert P.periodic_degree(W.power(delta(4), 4)) == 2
    assert all(lk[i, j] == 2 for i in range(1, 5) for j in range(i + 1, 5))
    with pytest.raises(ValueError):
        P.periodic_degree(BraidWord(3, (1,)))


def test_periodic_degree_matches_the_normal_form_oracle():
    # conjugated full-twist powers, alone, times a pure braid, and times a
    # commutator of two pure braids (exponent sum 0, so only the comparison
    # with the one candidate power can refuse it), n = 1..7
    rng = random.Random(79)
    with_degree = 0
    for n in range(1, 8):
        for i in range(30):
            g = rand_word(rng, n, rng.randint(0, 8)) if n > 1 else BraidWord.identity(1)
            w = W.conjugate(W.power(delta(n), 2 * rng.randint(-2, 2)), g)
            if n > 1 and i % 3 == 1:
                w = W.compose(w, rand_pure(rng, n, 2))
            elif n > 1 and i % 3 == 2:
                a, b = rand_pure(rng, n, 1), rand_pure(rng, n, 1)
                w = W.compose(w, W.inverse(a), W.inverse(b), a, b)
            expected = periodic_degree_by_normal_form(w)
            assert P.periodic_degree(w) == expected, w.format()
            with_degree += expected is not None
    assert 100 <= with_degree <= 180


def test_linking_json():
    lk = P.linking_matrix(BraidWord(3, (1, 1)))
    triples = json.loads(lk.to_json())
    assert triples == [[1, 2, 1], [1, 3, 0], [2, 3, 0]]
