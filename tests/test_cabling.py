import itertools
import random

import pytest

from braidkit import cabling as C
from braidkit import engine as E
from braidkit import purebraid as P
from braidkit import words as W
from braidkit.garside import classical
from braidkit.words import BraidWord, band_generator, delta, named_element
from oracles import split_by_deletion


def rand_word(rng, n, length):
    letters = [k for k in range(-(n - 1), n) if k != 0]
    return BraidWord(n, tuple(rng.choice(letters) for _ in range(length)))


def rand_pure(rng, n, blocks=2):
    parts = [BraidWord.identity(n)]
    for _ in range(blocks):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sq = W.power(band_generator(i, j, n), 2 * rng.choice([-1, 1]))
        parts.append(W.conjugate(sq, rand_word(rng, n, rng.randint(0, 3))))
    return W.compose(*parts)


def test_composition_parsing():
    comp = C.Composition.parse("2,2,1")
    assert comp.parts == (2, 2, 1) and comp.total == 5 and comp.count == 3
    assert comp.format() == "2,2,1"
    assert comp.block(2) == (3, 4)
    with pytest.raises(ValueError):
        C.Composition((0, 1))


def test_cable_dimension_mismatch():
    comp = C.Composition((2, 2))
    with pytest.raises(ValueError):
        C.cable(BraidWord(3, (1,)), [BraidWord(2, ()), BraidWord(2, ())], comp)
    with pytest.raises(ValueError):
        C.cable(BraidWord(2, (1,)), [BraidWord(2, ())], comp)
    with pytest.raises(ValueError):
        C.cable(BraidWord(2, (1,)), [BraidWord(3, ()), BraidWord(2, ())], comp)


def test_cable_examples():
    d = C.cable(
        BraidWord(2, (-1,)),
        [BraidWord(2, (1, 1)), BraidWord(2, (1, 1))],
        C.Composition((2, 2)),
    )
    rhs = W.compose(BraidWord(4, (1, 1, 1, 3, 3, 3)), W.inverse(delta(4)))
    assert E.words_equal(classical(4), d, rhs)
    assert d == named_element("d", 4)
    # unit tubes are the identity cabling
    x = BraidWord(3, (1, -2, 1))
    assert C.cable(x, [BraidWord.identity(1)] * 3, C.Composition((1, 1, 1))) == x
    # single-tube composition embeds the interior
    got = C.cable(BraidWord.identity(1), [x], C.Composition((3,)))
    assert got == x
    assert E.words_equal(
        classical(3),
        C.cable(delta(2), [delta(2), BraidWord.identity(1)], C.Composition((2, 1))),
        delta(3),
    )


def test_cabled_half_twists_small():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for parts in itertools.product(range(1, n + 1), repeat=k):
                if sum(parts) != n:
                    continue
                comp = C.Composition(parts)
                for p in (-1, 1):
                    lhs = C.cable(
                        W.power(delta(k), p),
                        [W.power(delta(m), p) for m in parts],
                        comp,
                    )
                    assert E.words_equal(classical(n), lhs, W.power(delta(n), p))


def test_mixed_membership():
    assert C.mixed_membership(BraidWord(3, (1,)), C.Composition((2, 1)))
    assert not C.mixed_membership(BraidWord(3, (2,)), C.Composition((2, 1)))
    rng = random.Random(4)
    for _ in range(20):
        x = rand_pure(rng, 4)
        assert C.mixed_membership(x, C.Composition((2, 2)))
        assert C.mixed_membership(x, C.Composition((1, 1, 1, 1)))


def test_extract_examples():
    d = named_element("d", 4)
    comp = C.Composition((2, 2))
    assert C.extract(d, comp, "tubular").letters == (-1,)
    assert C.extract(d, comp, "interior:1").letters == (1, 1)
    assert C.extract(d, comp, "interior:2").letters == (1, 1)
    with pytest.raises(ValueError, match="tube-preserving"):
        C.extract(BraidWord(3, (2,)), C.Composition((2, 1)), "tubular")
    with pytest.raises(ValueError):
        C.extract(d, comp, "interior:5")


def test_round_trip_random():
    rng = random.Random(10)
    for _ in range(40):
        k = rng.randint(1, 3)
        parts = tuple(rng.randint(1, 3) for _ in range(k))
        comp = C.Composition(parts)
        tub = rand_pure(rng, k) if k >= 2 else BraidWord.identity(1)
        ints = [
            rand_word(rng, m, rng.randint(0, 4)) if m >= 2 else BraidWord.identity(1)
            for m in parts
        ]
        cab = C.cable(tub, ints, comp)
        assert E.words_equal(classical(k), C.extract(cab, comp, "tubular"), tub)
        for i, x in enumerate(ints, start=1):
            assert E.words_equal(
                classical(parts[i - 1]), C.extract(cab, comp, f"interior:{i}"), x
            )
        assert C.mixed_membership(cab, comp)


def test_extracting_a_cabled_word_compares_letters_only(monkeypatch):
    # a deterministic work gate: recabling the parts of a cabled word
    # reproduces it letter for letter, so the round-trip certificate weighs
    # no normal form and computes no Burau row
    calls = []

    def counting(real):
        def wrapper(*args):
            calls.append(real)
            return real(*args)
        return wrapper

    monkeypatch.setattr(W, "_burau_row", counting(W._burau_row))
    rng = random.Random(18)
    for parts in ((2, 3, 2), (1, 1, 1), (3, 3)):
        comp = C.Composition(parts)
        st = classical(comp.total)
        monkeypatch.setitem(vars(st), "_weigh", counting(st._weigh))
        for _ in range(5):
            tub = rand_pure(rng, comp.count)
            ints = [rand_word(rng, m, rng.randint(0, 6)) if m >= 2 else BraidWord.identity(1)
                    for m in parts]
            cab = C.cable(tub, ints, comp)
            assert C.extract(cab, comp, "tubular").letters == tub.letters
            for i, x in enumerate(ints, start=1):
                assert C.extract(cab, comp, f"interior:{i}").letters == x.letters
    assert not calls


def test_split_walks_the_word_once(monkeypatch):
    # a deterministic work gate: one split reads the tubular braid and all
    # k interiors in one walk over the word, with no strand deletion
    calls = []
    real = C._parts

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(C, "_parts", counting)
    monkeypatch.setattr(W, "_delete_strands_raw", None)
    rng = random.Random(21)
    for parts in ((2, 3, 2), (1, 1, 1), (3, 3), (2,)):
        comp = C.Composition(parts)
        tub = rand_pure(rng, comp.count) if comp.count >= 2 else BraidWord.identity(1)
        ints = [rand_word(rng, m, 4) if m >= 2 else BraidWord.identity(1) for m in parts]
        calls.clear()
        got_tub, got_ints = C.split(C.cable(tub, ints, comp), comp)
        assert len(calls) == 1
        assert got_tub.letters == tub.letters
        assert [x.letters for x in got_ints] == [x.letters for x in ints]


def test_one_walk_matches_strand_deletion_oracle():
    # cabled words and arbitrary words alike: the walk reads each part as
    # deleting the strands outside it does
    rng = random.Random(22)
    for k in range(150):
        comp = C.Composition(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))))
        if k % 2 and comp.count >= 2:
            ints = [rand_word(rng, m, 4) if m >= 2 else BraidWord.identity(1)
                    for m in comp.parts]
            w = C.cable(rand_word(rng, comp.count, 5), ints, comp)
        elif comp.total >= 2:
            w = rand_word(rng, comp.total, rng.randint(0, 30))
        else:
            w = BraidWord.identity(1)
        tub, ints = C._parts(w, comp)
        want_tub, want_ints = split_by_deletion(w, comp)
        assert tub == want_tub
        assert ints == want_ints


def test_extract_checks_the_part_before_splitting(monkeypatch):
    def no_split(*args):
        raise AssertionError("the word was split")

    monkeypatch.setattr(C, "split", no_split)
    d, comp = named_element("d", 4), C.Composition((2, 2))
    for which in ("interior:x", "interior:", "interior", "inner:1", ""):
        with pytest.raises(ValueError, match="unknown extraction"):
            C.extract(d, comp, which)
    for which in ("interior:0", "interior:3"):
        with pytest.raises(ValueError, match="out of range"):
            C.extract(d, comp, which)


def test_image_membership_nonpure_tubular():
    # tubes may permute: cabled braids still stabilise the block vector only
    # when the tubular part does
    d = named_element("d", 4)
    assert not C.mixed_membership(d, C.Composition((2, 2)))
    assert C.mixed_membership(W.power(d, 2), C.Composition((2, 2)))


def test_tau_membership():
    for n in (5, 6, 7):
        tau = named_element("tau", n)
        assert W.exponent_sum(tau) == 0
        assert P.membership(tau, "J")


def test_tau_letters_are_its_cabling():
    # tau(n) is written out in words; it is the identity cabled with
    # sigma1^(m(m-1)) and Delta_m^-2 in tubes of widths (2, m), m = n - 2
    for n in range(4, 8):
        m = n - 2
        cabled = C.cable(
            BraidWord.identity(2),
            [W.power(BraidWord(2, (1,)), m * (m - 1)), W.power(delta(m), -2)],
            C.Composition((2, m)),
        )
        assert named_element("tau", n) == cabled
