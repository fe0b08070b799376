import math
import random

import pytest

from braidkit import reptheory as R
from braidkit.cli import main
from braidkit.words import Permutation
from oracles import decompose_by_inner_product


def test_partitions():
    assert R.partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(R.partitions(8)) == 22
    with pytest.raises(ValueError):
        R.check_partition((1, 2))


def test_partitions_are_built_once():
    assert R.partitions(9) is R.partitions(9)


def test_class_sizes():
    assert R.class_size((1, 1, 1)) == 1
    assert R.class_size((2, 1)) == 3
    assert R.class_size((3,)) == 2
    for n in (4, 5, 6):
        assert sum(R.class_size(r) for r in R.partitions(n)) == math.factorial(n)


def test_class_sizes_against_enumeration():
    import itertools

    for n in (4, 5, 6):
        counts = {}
        for images in itertools.permutations(range(1, n + 1)):
            t = Permutation(images).cycle_type()
            counts[t] = counts.get(t, 0) + 1
        for rho, size in counts.items():
            assert R.class_size(rho) == size


def test_trivial_character():
    for rho in R.partitions(6):
        assert R.character_value((6,), rho) == 1


def test_pinned_values():
    assert R.character_value((5, 1), (3, 1, 1, 1)) == 2
    assert R.character_value((5, 1), (3, 3)) == -1
    assert R.character_value((4, 2), tuple([1] * 6)) == 9
    assert R.character_value((5, 1), tuple([1] * 6)) == 5
    with pytest.raises(ValueError):
        R.character_value((3, 1), (5,))


def test_sign_character():
    n = 5
    for rho in R.partitions(n):
        sign = (-1) ** (n - len(rho))
        assert R.character_value(tuple([1] * n), rho) == sign


def test_hooks_match_identity_values():
    for n in range(1, 9):
        ident = tuple([1] * n)
        for lam in R.partitions(n):
            assert R.character_value(lam, ident) == R.hook_dimension(lam)


def test_orthogonality():
    for n in range(1, 8):
        parts = R.partitions(n)
        for lam in parts:
            for mu in parts:
                ip = R.inner_product(
                    lambda r: R.character_value(lam, r),
                    lambda r: R.character_value(mu, r),
                    n,
                )
                assert ip == (1 if lam == mu else 0)


def test_decompositions():
    assert R.decompose("Sym2Standard", 6) == {(6,): 2, (5, 1): 2, (4, 2): 1}
    for n in range(5, 9):
        assert R.decompose("Sym2Standard", n) == {
            (n,): 2,
            (n - 1, 1): 2,
            (n - 2, 2): 1,
        }
    assert R.decompose("Wmodule", 6) == {(5, 1): 1, (4, 2): 1}
    assert R.decompose("Sym2Vn11", 5) == {(5,): 1, (4, 1): 1, (3, 2): 1}
    with pytest.raises(ValueError):
        R.decompose("Sym2Standard", 3)
    with pytest.raises(ValueError):
        R.decompose("nonsense", 6)


def test_decompose_matches_inner_product_oracle():
    # the library tries three constituents; the oracle tries every partition
    for n in range(4, 16):
        for target in ("Sym2Standard", "Sym2Vn11", "Wmodule"):
            got = R.decompose(target, n)
            want = decompose_by_inner_product(target, n)
            assert got == want and list(got) == list(want)


def test_decompose_sums_over_fixed_points_and_two_cycles(monkeypatch, capsys):
    # a deterministic work gate: no partition of n is listed and no
    # border strip is removed, so n = 200 is in reach
    def refuse(*args):
        raise AssertionError("decompose went through the partitions of n")

    monkeypatch.setattr(R, "partitions", refuse)
    monkeypatch.setattr(R, "_strip_value", refuse)
    n = 200
    top, std, two = (n,), (n - 1, 1), (n - 2, 2)
    assert R.decompose("Sym2Standard", n) == {top: 2, std: 2, two: 1}
    assert R.decompose("Sym2Vn11", n) == {top: 1, std: 1, two: 1}
    assert R.decompose("Wmodule", n) == {std: 1, two: 1}
    assert main(["decompose", "Wmodule", "200"]) == 0
    assert capsys.readouterr().out.strip() == "199,1:1  198,2:1"


def test_decompose_checks_the_dimension(monkeypatch):
    # a constituent missed by the three-candidate loop shows as a dimension
    # deficit; here a wrong dimension stands in for it
    monkeypatch.setattr(R, "hook_dimension", lambda lam: 1)
    with pytest.raises(AssertionError, match="constituent outside"):
        R.decompose("Wmodule", 6)


def test_inner_product_refuses_a_fractional_value():
    at_identity = lambda rho: int(rho == (1, 1, 1))  # not a character
    trivial = lambda rho: 1
    for chi1, chi2 in ((at_identity, trivial), (trivial, at_identity)):
        with pytest.raises(ValueError, match="not an integer"):
            R.inner_product(chi1, chi2, 3)


def test_standard_dimension():
    for n in range(2, 9):
        assert R.hook_dimension((n - 1, 1)) == n - 1


def test_span_identity():
    for n in (4, 5, 6, 7):
        assert R.span_identity_holds(n)


def test_nu_pinned_images():
    assert R.nu_map(Permutation.from_cycles(6, [(1, 2)])) == Permutation.from_cycles(
        6, [(1, 2), (3, 4), (5, 6)]
    )
    assert R.nu_map(
        Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
    ) == Permutation.from_cycles(6, [(1, 2, 3), (4, 5)])
    assert R.nu_map(Permutation.from_cycles(6, [(1, 2, 3)])).cycle_type() == (3, 3)
    with pytest.raises(ValueError):
        R.nu_map(Permutation.identity(5))


def test_nu_bijective_homomorphism():
    table = R._nu_table()
    assert len(table) == 720
    assert len(set(table.values())) == 720
    rng = random.Random(0)
    elements = list(table)
    for _ in range(3000):
        g, h = rng.choice(elements), rng.choice(elements)
        assert table[g * h] == table[g] * table[h]


def test_nu_swaps_three_cycle_classes():
    # the two classes of order-3 elements are exchanged
    a = Permutation.from_cycles(6, [(1, 2, 3)])
    b = Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
    assert R.nu_map(a).cycle_type() == b.cycle_type()
    assert R.nu_map(b).cycle_type() == a.cycle_type()


def test_nu_not_inner():
    assert R.nu_map(Permutation.from_cycles(6, [(1, 2)])).cycle_type() != (
        2,
        1,
        1,
        1,
        1,
    )
