"""Symmetric-group characters and the module decompositions they decide.

Irreducible character values come from the border-strip recursion on
beta-sets; dimensions are cross-checked against the hook length product.
Decompositions are computed purely at character level with exact integer
inner products.  The decomposed modules lie in the symmetric square of the
permutation module, so their characters and constituents depend on a class
only through its fixed points f and 2-cycles c; each inner product is a sum
over the pairs (f, c), never over the partitions of n.  The degree-6 outer
automorphism is built by factorising every permutation over two generators
and mapping letterwise.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

from .words import Permutation

Partition = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, weakly decreasing, in reverse lex order."""

    def gen(n: int, maxpart: int):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def check_partition(lam: Iterable[int]) -> Partition:
    lam = tuple(lam)
    if any(p <= 0 for p in lam) or any(a > b for a, b in zip(lam[1:], lam)):
        raise ValueError(f"not a partition: {lam}")
    return lam


def class_size(cycle_type: Partition) -> int:
    """Size of the conjugacy class with the given cycle type."""
    n = sum(cycle_type)
    centralizer = 1
    for length in set(cycle_type):
        m = cycle_type.count(length)
        centralizer *= length**m * math.factorial(m)
    return math.factorial(n) // centralizer


def _beta(lam: Partition) -> tuple[int, ...]:
    ell = len(lam)
    return tuple(sorted(lam[i] + (ell - 1 - i) for i in range(ell)))


@functools.lru_cache(maxsize=None)
def _strip_value(beta: tuple[int, ...], rho: Partition) -> int:
    if not rho:
        return 1
    r = rho[0]
    total = 0
    bset = set(beta)
    for b in beta:
        if b >= r and (b - r) not in bset:
            height = sum(1 for c in beta if b - r < c < b)
            new_beta = tuple(sorted(bset - {b} | {b - r}))
            total += (-1) ** height * _strip_value(new_beta, rho[1:])
    return total


def character_value(lam: Partition, cycle_type: Partition) -> int:
    """Value of the irreducible character of ``lam`` on the class of
    ``cycle_type`` (border-strip recursion)."""
    lam = check_partition(lam)
    rho = tuple(sorted(check_partition(cycle_type), reverse=True))
    if sum(lam) != sum(rho):
        raise ValueError("partition sizes differ")
    return _strip_value(_beta(lam), rho)


def hook_dimension(lam: Partition) -> int:
    """Dimension by the hook length product."""
    lam = check_partition(lam)
    n = sum(lam)
    conj = [sum(1 for p in lam if p > i) for i in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(n) // hooks


def inner_product(chi1, chi2, n: int) -> int:
    """Exact inner product of two class functions given as callables on
    cycle types; ValueError unless it is an integer."""
    total = sum(class_size(rho) * chi1(rho) * chi2(rho) for rho in partitions(n))
    q, r = divmod(total, math.factorial(n))
    if r:
        raise ValueError("inner product is not an integer")
    return q


def decompose(target: str, n: int) -> dict[Partition, int]:
    """Irreducible multiplicities of a named character.

    Targets: ``Sym2Standard`` (symmetric square of the n-point permutation
    module), ``Sym2Vn11`` (symmetric square of the reflection module), and
    ``Wmodule`` (the trace-zero part of the symmetric square, i.e. the
    symmetric square minus the permutation module minus the trivial one).
    """
    if n < 4:
        raise ValueError("need n >= 4 for a two-row constituent (n-2, 2)")

    # On a permutation with f fixed points and c 2-cycles the permutation
    # character is f and its value on g^2 is f + 2c, so (chi(g)^2 + chi(g^2))/2
    # is (f^2 + f)/2 + c for the symmetric square and (f^2 - f)/2 + c for the
    # square of the reflection module (chi = f - 1).
    if target == "Sym2Standard":
        chi = lambda f, c: (f * f + f) // 2 + c
    elif target == "Sym2Vn11":
        chi = lambda f, c: (f * f - f) // 2 + c
    elif target == "Wmodule":
        chi = lambda f, c: (f * f - f) // 2 + c - 1
    else:
        raise ValueError(f"unknown decomposition target {target!r}")

    # The monomials e_i^2 and e_i e_j make the symmetric square of the
    # permutation module M^(n-1,1) + M^(n-2,2), so by Young's rule every
    # constituent is (n), (n-1,1) or (n-2,2) (James, LNM 682, 1978), whose
    # characters are 1, f - 1 and f(f - 3)/2 + c.  All of them depend on a
    # class only through (f, c); the permutations of one (f, c) number
    # n!/(f! c! 2^c m!) D(m), with m = n - f - 2c and D(m) the permutations
    # of m points whose cycles all have length >= 3: the point m either sits
    # in such a cycle on the other m - 1 points (m - 1 places) or closes a
    # 3-cycle with two of them.
    d = [1, 0, 0]
    for m in range(3, n + 1):
        d.append((m - 1) * (d[m - 1] + (m - 2) * d[m - 3]))
    fact = math.factorial
    weighted = []
    for f in range(n + 1):
        for c in range((n - f) // 2 + 1):
            m = n - f - 2 * c
            w = fact(n) // (fact(f) * fact(c) * 2**c * fact(m)) * d[m] * chi(f, c)
            if w:
                weighted.append((w, f, c))
    out: dict[Partition, int] = {}
    for lam, psi in (
        ((n,), lambda f, c: 1),
        ((n - 1, 1), lambda f, c: f - 1),
        ((n - 2, 2), lambda f, c: f * (f - 3) // 2 + c),
    ):
        mult, r = divmod(sum(w * psi(f, c) for w, f, c in weighted), fact(n))
        if r:
            raise ValueError("inner product is not an integer")
        if mult:
            out[lam] = mult
    if sum(m * hook_dimension(lam) for lam, m in out.items()) != chi(n, 0):
        raise AssertionError(f"{target} has a constituent outside (n), (n-1,1), (n-2,2)")
    return out


def span_identity_holds(n: int) -> bool:
    """Exact degree-two polynomial identity behind the two-constituent span:
    (n-2)(e1-e2)e3 equals (e1-e2)(e3+...+en) + sum_{i>=4} (e1-e2)(e3-ei)."""
    if n < 4:
        raise ValueError("need n >= 4")

    def poly_mul(p1: dict[int, int], p2: dict[int, int]) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for i, a in p1.items():
            for j, b in p2.items():
                key = (min(i, j), max(i, j))
                out[key] = out.get(key, 0) + a * b
        return {k: v for k, v in out.items() if v}

    def scale(p: dict, c: int) -> dict:
        return {k: c * v for k, v in p.items() if c * v}

    def add(*ps: dict) -> dict:
        out: dict = {}
        for p in ps:
            for k, v in p.items():
                out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    e = lambda i: {i: 1}
    e1_minus_e2 = {1: 1, 2: -1}
    lhs = scale(poly_mul(e1_minus_e2, e(3)), n - 2)
    tail = {i: 1 for i in range(3, n + 1)}
    rhs = poly_mul(e1_minus_e2, tail)
    for i in range(4, n + 1):
        rhs = add(rhs, poly_mul(e1_minus_e2, {3: 1, i: -1}))
    return lhs == rhs


# ---------------------------------------------------------------------------
# The exceptional automorphism of the degree-6 symmetric group


@functools.lru_cache(maxsize=None)
def _nu_table() -> dict[Permutation, Permutation]:
    """Image of every degree-6 permutation under the outer automorphism
    pinned by (12) -> (12)(34)(56) and (123456) -> (123)(45).

    Built by breadth-first factorisation over the two generators; the
    generator-wise consistency check below makes the table a homomorphism.
    """
    g1 = Permutation.from_cycles(6, [(1, 2)])
    g2 = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
    h1 = Permutation.from_cycles(6, [(1, 2), (3, 4), (5, 6)])
    h2 = Permutation.from_cycles(6, [(1, 2, 3), (4, 5)])
    table = {Permutation.identity(6): Permutation.identity(6)}
    frontier = [Permutation.identity(6)]
    while frontier:
        nxt = []
        for g in frontier:
            for gen, img in ((g1, h1), (g2, h2)):
                cand = g * gen
                if cand not in table:
                    table[cand] = table[g] * img
                    nxt.append(cand)
        frontier = nxt
    if len(table) != 720:
        raise AssertionError("generators failed to generate the full group")
    for g in table:
        for gen, img in ((g1, h1), (g2, h2)):
            if table[g * gen] != table[g] * img:
                raise AssertionError("factorisation map is not a homomorphism")
    return table


def nu_map(g: Permutation) -> Permutation:
    """Apply the outer automorphism of the degree-6 symmetric group."""
    if g.degree != 6:
        raise ValueError("defined on degree-6 permutations")
    return _nu_table()[g]
