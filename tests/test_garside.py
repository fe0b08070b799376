import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import braidkit
from braidkit import engine as E
from braidkit import garside as G
from braidkit import words as W
from braidkit.garside import Simple, band, classical
from braidkit.words import BraidWord
from oracles import (
    band_letter_grows,
    from_perm0,
    generic_normalize_pair,
    left_divides,
    left_quotient,
    meet,
    mirror,
    mul_letter,
    right_meet,
)


def all_structures(ns=(2, 3, 4)):
    for n in ns:
        yield classical(n)
        yield band(n)


def meet_brute(st, a, b):
    best = st.identity()
    for s in st.simples():
        if left_divides(st, s, a) and left_divides(st, s, b):
            if st.atom_length(s) > st.atom_length(best):
                best = s
    return best


def test_simple_counts():
    assert len(classical(3).simples()) == 6
    assert len(band(3).simples()) == 5
    assert len(band(4).simples()) == 14
    for n in range(2, 7):
        assert len(classical(n).simples()) == math.factorial(n)
    catalan = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, c in catalan.items():
        assert len(band(n).simples()) == c


def test_enumeration_cap():
    with pytest.raises(ValueError, match=r"^enumeration cap exceeded: n=9 > cap=8$"):
        classical(9).simples()
    with pytest.raises(ValueError, match=r"^enumeration cap exceeded: n=11 > cap=10$"):
        band(11).simples()
    # one fixed cap per structure, and the largest structures below it
    # enumerate: fresh ones, so that no cached structure keeps the lists
    assert (classical(9).cap, band(11).cap) == (8, 10)
    assert len(G.ClassicalStructure(8).simples()) == math.factorial(8)
    assert len(G.BandStructure(10).simples()) == math.comb(20, 10) // 11


def test_atom_counts():
    for n in range(2, 7):
        assert len(classical(n).atoms()) == n - 1
        assert len(band(n).atoms()) == n * (n - 1) // 2


def test_meet_examples():
    st = classical(3)
    for s in st.simples():
        assert st.meet(st.delta(), s) == s
    assert st.meet(st.letter_simple(1), st.letter_simple(2)) == st.identity()
    bs = band(3)
    m = bs.meet(bs.band_simple(1, 3), bs.band_simple(1, 2))
    assert m == meet_brute(bs, bs.band_simple(1, 3), bs.band_simple(1, 2))
    assert m == bs.identity()
    with pytest.raises(ValueError):
        classical(3).meet(band(3).identity(), band(3).identity())


def test_meet_matches_brute_force():
    for st in all_structures():
        for a, b in itertools.product(st.simples(), repeat=2):
            assert st.meet(a, b) == meet_brute(st, a, b)


def test_meet_matches_oracle_off_the_kernel():
    # st.meet is read off the weighting kernel; the oracle meet is computed
    # without it.  Every pair for small n, normal-form factors beyond.
    for st in [classical(n) for n in range(1, 6)] + [band(n) for n in range(1, 7)]:
        for a, b in itertools.product(st.simples(), repeat=2):
            assert st.meet(a, b) == meet(st, a, b)
    rng = random.Random(16)
    for n in (8, 10, 12):
        for st in (classical(n), band(n)):
            factors = normal_form_factors(rng, st)
            nontrivial = 0
            for a, b in itertools.product(factors, repeat=2):
                m = st.meet(a, b)
                assert m == meet(st, a, b)
                nontrivial += not st.is_identity(m)
            assert len(factors) ** 2 > nontrivial > len(factors)


def test_right_meet_oracle_matches_brute_force():
    # the suffixes of a are the s with t.s = a for some simple t, read off the
    # table of all products, so the check does not go through the mirror
    for st in all_structures((1, 2, 3, 4)):
        simples = st.simples()
        suffixes = {a: set() for a in simples}
        for t, s in itertools.product(simples, repeat=2):
            ts = st.mul(t, s)
            if ts is not None:
                suffixes[ts].add(s)
        for a, b in itertools.product(simples, repeat=2):
            common = suffixes[a] & suffixes[b]
            m = right_meet(st, a, b)
            assert m in common
            assert st.atom_length(m) == max(map(st.atom_length, common))
            assert suffixes[m] == common


def test_meet_matches_brute_force_sampled_n5():
    rng = random.Random(2)
    for st in (classical(5), band(5)):
        simples = st.simples()
        for _ in range(80):
            a, b = rng.choice(simples), rng.choice(simples)
            assert st.meet(a, b) == meet_brute(st, a, b)


def test_lattice_laws():
    for st in all_structures((2, 3, 4)):
        simples = st.simples()
        for a in simples:
            assert st.meet(a, a) == a
        for a, b in itertools.combinations(simples, 2):
            assert st.meet(a, b) == st.meet(b, a)
    # associativity exhaustively at n <= 3, sampled at n = 4..6
    for st in all_structures((2, 3)):
        for a, b, c in itertools.product(st.simples(), repeat=3):
            assert st.meet(st.meet(a, b), c) == st.meet(a, st.meet(b, c))
    rng = random.Random(5)
    for n in (4, 5, 6):
        for st in (classical(n), band(n)):
            simples = st.simples()
            for _ in range(60):
                a, b, c = (rng.choice(simples) for _ in range(3))
                assert st.meet(st.meet(a, b), c) == st.meet(a, st.meet(b, c))


def test_complement_examples():
    st = classical(3)
    assert st.complement(st.identity()) == st.delta()
    assert st.simple_word(st.complement(st.letter_simple(1))) == (2, 1)
    assert st.twist(st.letter_simple(1)) == st.letter_simple(2)


def test_complement_iteration():
    # applying the complement twice is the twist
    for st in all_structures((2, 3, 4, 5)):
        for s in st.simples():
            assert st.complement(st.complement(s)) == st.twist(s)
        # and 2 * twist_order complements return to the start
        for s in st.simples():
            out = s
            for _ in range(2 * st.twist_order):
                out = st.complement(out)
            assert out == s


def normal_form_factors(rng, st, words=4, length=30):
    """The factors of the normal forms of seeded words, sorted."""
    letters = [k for k in range(1 - st.n, st.n) if k]
    out = set()
    for _ in range(words):
        w = BraidWord(st.n, tuple(rng.choice(letters) for _ in range(length)))
        out.update(E.from_word(st, w).factors)
    return sorted(out)


def test_twist_is_conjugation_by_garside_element():
    # every simple for n <= 4, normal-form factors for n 5..12
    rng = random.Random(152)
    for st in all_structures(range(2, 13)):
        dword = BraidWord(st.n, st.simple_word(st.delta()))
        for s in st.simples() if st.n <= 4 else normal_form_factors(rng, st):
            lhs = BraidWord(st.n, st.simple_word(st.twist(s)))
            rhs = W.conjugate(BraidWord(st.n, st.simple_word(s)), dword)
            assert E.words_equal(st, lhs, rhs)
            assert st.twist_pow(st.twist(s), -1) == s


def test_band_twist_cycles_indices():
    bs = band(5)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            img = bs.twist(bs.band_simple(i, j))
            i2 = i % 5 + 1
            j2 = j % 5 + 1
            assert img == bs.band_simple(min(i2, j2), max(i2, j2))


def test_square_free():
    for st in all_structures((2, 3, 4, 5)):
        for s in st.simples():
            for a in st.atoms():
                if left_divides(st, a, s) and left_divides(st, a, left_quotient(st, a, s)):
                    raise AssertionError(f"a^2 divides a simple in {st.kind}")


def test_band_symmetry():
    # for every simple s and atom y with s y simple there is an atom y1 with
    # s y = y1 s
    for n in (2, 3, 4, 5):
        bs = band(n)
        atom_keys = set(bs.atoms())
        for s in bs.simples():
            for y in bs.atoms():
                sy = bs.mul(s, y)
                if sy is None:
                    continue
                found = any(bs.mul(y1, s) == sy for y1 in atom_keys)
                assert found, (s, y)


def test_simple_words_round_trip():
    for st in all_structures((2, 3, 4, 5)):
        for s in st.simples():
            word = BraidWord(st.n, st.simple_word(s))
            assert E.from_word(st, word) == E.simple_nf(st, s)


def test_homogeneous_length():
    # atom length is additive on products that stay simple
    for st in all_structures((2, 3, 4)):
        simples = st.simples()
        assert {st.atom_length(a) for a in st.atoms()} == {1}
        for a, b in itertools.product(simples, repeat=2):
            ab = st.mul(a, b)
            if ab is not None:
                assert st.atom_length(ab) == st.atom_length(a) + st.atom_length(b)
    # the classical atom length is the letter count of the produced word
    st = classical(4)
    for s in st.simples():
        assert st.atom_length(s) == len(st.simple_word(s))


def test_mirror_is_an_involution_fixing_delta():
    for st in all_structures((2, 3, 4, 5)):
        assert mirror(st, st.delta()) == st.delta()
        for s in st.simples():
            assert mirror(st, mirror(st, s)) == s
            # the mirror of a simple's word is a word for the mirrored simple
            word = BraidWord(st.n, st.simple_word(s))
            mirrored = BraidWord(st.n, st.simple_word(mirror(st, s)))
            assert E.words_equal(st, mirrored, E._mirror(word))


def test_mirror_perm_matches_the_checked_mirror():
    # the engine mirrors right-form factors on their arrays, unchecked
    for st in [band(n) for n in range(1, 9)] + [classical(n) for n in range(1, 7)]:
        assert st._mirror_perm(st._delta_perm) == st._delta_perm
        for s in st.simples():
            p = st._mirror_perm(s.key)
            assert p == mirror(st, s).key
            assert st._mirror_perm(p) == s.key


# The checks of test_band_rejects_crossing_key, run again under ``python -O``,
# which strips asserts: a permutation whose cycles cross must still be
# refused.
CROSSING_KEY_CHECK = """
import sys
from braidkit.garside import Simple, band

st = band(4)
crossing = Simple("band", 4, (2, 3, 0, 1))
calls = (("complement",), ("twist",), ("twist_pow", -1), ("meet", st.delta()))
for name, *args in calls:
    try:
        getattr(st, name)(crossing, *args)
    except ValueError:
        continue
    raise SystemExit(f"band(4).{name} accepted a crossing key")
print(sys.flags.optimize)
"""


def test_band_rejects_crossing_key():
    st = band(4)
    crossing = Simple("band", 4, (2, 3, 0, 1))
    calls = (("complement",), ("twist",), ("twist_pow", -1), ("meet", st.delta()))
    for name, *args in calls:
        with pytest.raises(ValueError):
            getattr(st, name)(crossing, *args)
    with pytest.raises(ValueError):
        mirror(st, crossing)
    src = os.path.dirname(os.path.dirname(braidkit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CROSSING_KEY_CHECK],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "1"


def test_band_normalize_pair_rejects_crossing_keys():
    st = band(4)
    crossing = Simple("band", 4, (2, 3, 0, 1))
    for other in (st.identity(), st.letter_simple(1), st.delta()):
        with pytest.raises(ValueError):
            st.normalize_pair(other, crossing)
        with pytest.raises(ValueError):
            st.normalize_pair(crossing, other)
    with pytest.raises(ValueError):
        st.twist_pow(crossing, 1)


def test_band_keys_are_permutations_one_per_simple():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n, count in catalan.items():
        st = band(n)
        keys = [s.key for s in st._enumerate()]
        assert len(set(keys)) == len(keys) == count
        for s in st._enumerate():
            assert from_perm0(st, st._perm0(s)) == s
            # the same simple keyed by its blocks, the cycles of its key
            blocks = _noncrossing_blocks_pairwise(s.key)
            with pytest.raises(ValueError, match=rf"is not a simple element of band\({n}\)"):
                st._perm0(Simple("band", n, blocks))
    st = band(4)
    for key in (
        (2, 0, 1, 3),
        (2, 3, 0, 1),
        ((1,), (2,), (4,), (3,)),
        ((2, 3, 1), (4,)),
        ((1, 2, 3), (4,)),
        ((1, 3), (2, 4), (), ()),
    ):
        with pytest.raises(ValueError, match=r"is not a simple element of band\(4\)"):
            st._perm0(Simple("band", 4, key))


def test_band_meet_rejects_crossing_key():
    st = band(4)
    crossing = Simple("band", 4, (2, 3, 0, 1))
    for other in (st.identity(), st.letter_simple(1), st.delta()):
        for args in ((other, crossing), (crossing, other)):
            with pytest.raises(ValueError, match="is not a simple element of band"):
                st.meet(*args)


def test_atom_length_and_simple_word_refuse_foreign_keys():
    for st, bad in (
        (classical(3), Simple("band", 3, (1, 0, 2))),
        (band(3), Simple("classical", 3, (0, 0, 1))),
        (classical(3), Simple("classical", 3, (0, 0, 1))),
        (band(4), Simple("band", 4, (2, 3, 0, 1))),
    ):
        for name in ("atom_length", "simple_word"):
            with pytest.raises(ValueError, match=f"is not a simple element of {st.kind}"):
                getattr(st, name)(bad)


def test_simple_maps_test_each_input_once(monkeypatch):
    # a deterministic work gate: every Simple that comes in is tested once
    # (_perm0) and every result is wrapped untested, except that of mul,
    # whose product need not be simple.  Testing each result again made
    # meet 3 tests, complement and twist 2, normalize_pair 4 on a moving
    # pair, and letter_simple and band_simple 1.
    real = G.BandStructure._is_simple
    tested = []

    def counting(self, p):
        tested.append(p)
        return real(self, p)

    monkeypatch.setattr(G.BandStructure, "_is_simple", counting)

    def tests(call, *args):
        del tested[:]
        result = call(*args)
        return len(tested), result

    for n in (4, 5, 6):
        st = band(n)
        a, c = st.letter_simple(1), st.letter_simple(3)
        b = st.mul(a, c)
        for x, y in ((a, b), (b, a), (b, c)):
            count, m = tests(st.meet, x, y)
            assert count == 2 and not st.is_identity(m)
        assert tests(st.complement, b)[0] == 1
        assert tests(st.twist, b)[0] == 1
        count, (_, _, moved) = tests(st.normalize_pair, a, c)
        assert count == 2 and moved
        assert tests(st.letter_simple, 2)[0] == 0
        assert tests(st.band_simple, 1, n)[0] == 0
        assert tests(st.mul, a, c)[0] == 3


def test_band_simple_rejects_bad_strands():
    st = band(4)
    for i, j in ((0, 2), (2, 0), (1, 1), (3, 3), (1, 5), (5, 4), (-1, 2)):
        with pytest.raises(ValueError, match="no band between strands"):
            st.band_simple(i, j)
    assert st.band_simple(3, 1) == st.band_simple(1, 3)
    assert st.band_simple(1, 2) == st.letter_simple(1)


# The band simplicity test before the cycle count, kept as its oracle: a
# permutation is simple when each cycle sends every entry to the next larger
# one and no two blocks cross.
def _blocks_crossing(x: tuple, y: tuple) -> bool:
    merged = sorted([(v, 0) for v in x] + [(v, 1) for v in y])
    runs = 0
    last = None
    for _, tag in merged:
        if tag != last:
            runs += 1
            last = tag
    return runs >= 4


def _is_noncrossing(blocks) -> bool:
    blocks = [b for b in blocks if len(b) > 1]
    return not any(
        _blocks_crossing(x, y) for x, y in itertools.combinations(blocks, 2)
    )


def _noncrossing_blocks_pairwise(p: tuple):
    n = len(p)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        v = p[start]
        while v != start:
            cycle.append(v)
            seen[v] = True
            v = p[v]
        block = tuple(sorted(e + 1 for e in cycle))
        for a, b in zip(block, block[1:] + (block[0],)):
            if p[a - 1] != b - 1:
                return None
        blocks.append(block)
    if not _is_noncrossing(blocks):
        return None
    return tuple(sorted(blocks))


def test_cycle_count_test_matches_pairwise_noncrossing_check():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}
    for n in range(1, 8):
        st = band(n)
        accepted = 0
        for p in itertools.permutations(range(n)):
            expected = _noncrossing_blocks_pairwise(p)
            got = from_perm0(st, p)
            if expected is None:
                assert got is None, p
            else:
                assert got == Simple("band", n, p), p
                accepted += 1
        assert accepted == catalan[n]


def _random_band_simple(st, rng):
    s = st.identity()
    atoms = st.atoms()
    for _ in range(rng.randint(0, 2 * st.n)):
        t = st.mul(s, rng.choice(atoms))
        if t is not None:
            s = t
    return s


def test_band_normalize_pair_matches_generic_route():
    # the generic route: meet, complement, mul and left_quotient
    for n in range(1, 7):
        st = band(n)
        for x, y in itertools.product(st.simples(), repeat=2):
            assert st.normalize_pair(x, y) == generic_normalize_pair(st, x, y)
    rng = random.Random(13)
    for n in range(7, 13):
        st = band(n)
        moved = 0
        for _ in range(300):
            x, y = _random_band_simple(st, rng), _random_band_simple(st, rng)
            got = st.normalize_pair(x, y)
            assert got == generic_normalize_pair(st, x, y)
            moved += got[2]
        assert 0 < moved < 300


def test_classical_normalize_pair_matches_generic_route():
    for n in range(1, 6):
        st = classical(n)
        for x, y in itertools.product(st.simples(), repeat=2):
            assert st.normalize_pair(x, y) == generic_normalize_pair(st, x, y)
    rng = random.Random(14)
    for n in range(6, 13):
        st = classical(n)
        moved = 0
        for _ in range(300):
            x, y = (Simple("classical", n, tuple(rng.sample(range(n), n))) for _ in "xy")
            got = st.normalize_pair(x, y)
            assert got == generic_normalize_pair(st, x, y)
            moved += got[2]
        assert 0 < moved < 300


def test_letter_products_match_mul():
    # the blocking step of from_word: s_j p and p s_j, when simple
    for st in all_structures((2, 3, 4, 5)):
        for p in st.simples():
            for j in range(1, st.n):
                a = st.letter_simple(j)
                for left, product in ((True, st.mul(a, p)), (False, st.mul(p, a))):
                    got = mul_letter(st, st._perm0(p), j, left)
                    assert got == (None if product is None else st._perm0(product))


def test_band_letter_test_matches_cycle_counts():
    # s_j p swaps the images of j - 1 and j, p s_j the values; the library
    # reads one entry of the product where the oracle counts cycles
    for n in range(2, 9):
        st = band(n)
        for s in st.simples():
            p = s.key
            for j in range(1, n):
                left = list(p)
                left[j - 1], left[j] = p[j], p[j - 1]
                right = [j if v == j - 1 else j - 1 if v == j else v for v in p]
                for side, q in ((True, tuple(left)), (False, tuple(right))):
                    expected = q if band_letter_grows(st, p, q) else None
                    assert mul_letter(st, p, j, side) == expected, (p, j, side)


def test_band_twist_pow_is_repeated_twist():
    # the classical twist too, which no other test takes to |k| > 1
    for st in [band(n) for n in range(1, 9)] + [classical(n) for n in range(1, 7)]:
        n = st.n
        for s in st.simples():
            for k in range(-n - 1, n + 2):
                expected = s
                for _ in range(abs(k)):
                    expected = st.twist(expected) if k > 0 else st.twist_pow(expected, -1)
                assert st.twist_pow(s, k) == expected
