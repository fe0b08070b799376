"""The verification ledger: every headline check as an addressable item.

Each check is a named, independently runnable function drawing all its
randomness from one seeded generator, so a run is reproducible from its seed
and the JSON report is byte-identical across reruns.  Failed checks carry a
counterexample payload.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
import zlib
from dataclasses import dataclass

from . import cabling as C
from . import engine as E
from . import purebraid as P
from . import reptheory as R
from . import subgroups as S
from . import words as W
from .garside import band, classical
from .words import AutomorphismSpec, BraidWord, Permutation

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    details: str
    elapsed_ms: float
    payload: dict | None = None


class CheckFailure(Exception):
    def __init__(self, details: str, payload: dict | None = None):
        super().__init__(details)
        self.details = details
        self.payload = payload or {}


def _letters(n: int) -> list[int]:
    return [k for k in range(-(n - 1), n) if k != 0]


def _rand_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(n, tuple(rng.choice(_letters(n)) for _ in range(length)))


def _rand_interiors(rng: random.Random, parts: tuple[int, ...], longest: int) -> list[BraidWord]:
    """One word of at most longest letters per part; one strand has only the identity."""
    return [_rand_word(rng, m, rng.randint(0, longest)) if m >= 2 else BraidWord.identity(1)
            for m in parts]


def _rand_pure(rng: random.Random, n: int, blocks: int = 3) -> BraidWord:
    parts = [BraidWord.identity(n)]
    for _ in range(blocks):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sq = W.power(W.band_generator(i, j, n), 2 * rng.choice([-1, 1]))
        parts.append(W.conjugate(sq, _rand_word(rng, n, rng.randint(0, 4))))
    return W.compose(*parts)


def _require(condition: bool, details: str, payload: dict | None = None):
    if not condition:
        raise CheckFailure(details, payload)


# ---------------------------------------------------------------------------
# Checks


def check_word_problem(rng: random.Random):
    for idx in range(500):
        n = rng.randint(2, 7)
        w = _rand_word(rng, n, rng.randint(0, 40))
        st = classical(n)
        nf = E.from_word(st, W.compose(w, W.inverse(w)))
        _require(
            nf.is_trivial(),
            f"normal form of w w^-1 not trivial for instance {idx}",
            {"word": w.format()},
        )
    _require(
        E.words_equal(classical(3), BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))),
        "adjacent braid relation failed",
    )
    _require(
        E.words_equal(classical(4), BraidWord(4, (1, 3)), BraidWord(4, (3, 1))),
        "distant braid relation failed",
    )
    for n in range(3, 8):
        st = classical(n)
        d2 = W.power(W.delta(n), 2)
        for j in range(1, n):
            a = BraidWord(n, (j,))
            _require(
                E.words_equal(st, W.compose(a, d2), W.compose(d2, a)),
                f"full twist is not central against generator {j} on {n} strands",
            )
    return "500 free-cancellation words, both relations, central full twist (n=3..7)"


def check_structure_agreement(rng: random.Random):
    # the Dynnikov verdict of words_equal against the left normal form of
    # a . b^-1 in each structure: three independent deciders of each pair
    equal_count = 0
    for idx in range(200):
        n = rng.randint(2, 5)
        a = _rand_word(rng, n, rng.randint(0, 12))
        if idx % 2 == 0:
            letters = list(a.letters)
            for _ in range(rng.randint(1, 3)):
                pos = rng.randint(0, len(letters))
                k = rng.choice(_letters(n))
                letters[pos:pos] = [k, -k]
            b = BraidWord(n, tuple(letters))
        else:
            b = _rand_word(rng, n, rng.randint(0, 12))
        quotient = W.compose(a, W.inverse(b))
        verdict = E.words_equal(classical(n), a, b)
        v1 = E.normal_form(classical(n), quotient).is_trivial()
        v2 = E.normal_form(band(n), quotient).is_trivial()
        _require(
            verdict == v1 == v2,
            f"structures disagree on instance {idx}",
            {"a": a.format(), "b": b.format(), "dynnikov": verdict,
             "classical": v1, "band": v2},
        )
        equal_count += verdict
    return f"200 verdict pairs agree ({equal_count} equal, {200 - equal_count} distinct)"


def check_simple_lattice(_rng: random.Random):
    catalan = {3: 5, 4: 14, 5: 42, 6: 132}
    for n in range(3, 7):
        _require(
            len(classical(n).simples()) == math.factorial(n),
            f"classical simple count wrong at n={n}",
        )
        _require(
            len(band(n).simples()) == catalan[n],
            f"band simple count wrong at n={n}",
        )
        _require(len(classical(n).atoms()) == n - 1, "classical atom count")
        _require(len(band(n).atoms()) == n * (n - 1) // 2, "band atom count")
    for n in (2, 3, 4):
        for st in (classical(n), band(n)):
            simples = st.simples()
            delta = st.delta()
            for a in simples:
                _require(st.meet(a, a) == a, "meet not idempotent")
                _require(st.meet(delta, a) == a, "Garside element is not the maximum")
            for a, b in itertools.combinations(simples, 2):
                _require(st.meet(a, b) == st.meet(b, a), "meet not commutative")
            for a, b, c in itertools.product(simples, repeat=3):
                _require(
                    st.meet(st.meet(a, b), c) == st.meet(a, st.meet(b, c)),
                    "meet not associative",
                    {"structure": st.kind, "n": n},
                )
    return "counts n=3..6 (n!, Catalan); lattice laws exhaustive n<=4"


def check_cabled_half_twists(_rng: random.Random):
    for n in range(1, 7):
        for k in range(1, n + 1):
            for parts in itertools.product(range(1, n + 1), repeat=k):
                if sum(parts) != n:
                    continue
                comp = C.Composition(parts)
                for p in range(-2, 3):
                    lhs = C.cable(
                        W.power(W.delta(k), p),
                        [W.power(W.delta(m), p) for m in parts],
                        comp,
                    )
                    _require(
                        E.words_equal(classical(n), lhs, W.power(W.delta(n), p)),
                        "cabled half twists disagree",
                        {"composition": comp.format(), "power": p},
                    )
    return "all compositions of n<=6, powers -2..2"


def _b4_elements():
    return {
        name: W.named_element(name, 4) for name in ("u", "t", "c", "w", "d")
    }


def check_b4_identities(_rng: random.Random):
    st = classical(4)
    e = _b4_elements()
    u, t, c, w, d = e["u"], e["t"], e["c"], e["w"], e["d"]
    eq = lambda a, b: E.words_equal(st, a, b)
    checks = [
        ("d equals s1^3 s3^3 Delta^-1",
         eq(d, W.compose(BraidWord(4, (1, 1, 1, 3, 3, 3)), W.inverse(W.delta(4))))),
        ("u c u^-1 = w", eq(W.compose(u, c, W.inverse(u)), w)),
        ("u w u^-1 = w^2 c^-1 w",
         eq(W.compose(u, w, W.inverse(u)), W.compose(w, w, W.inverse(c), w))),
        ("t c t^-1 = c w", eq(W.compose(t, c, W.inverse(t)), W.compose(c, w))),
        ("t w t^-1 = c w^2", eq(W.compose(t, w, W.inverse(t)), W.compose(c, w, w))),
        ("sigma~1(w) = c^-1 w",
         eq(W.apply_automorphism(AutomorphismSpec.sigma_tilde(1, 4), w),
            W.compose(W.inverse(c), w))),
        ("Phi(c) = c", eq(W.apply_automorphism(AutomorphismSpec.phi(4), c), c)),
        ("Phi(w) = w^-1",
         eq(W.apply_automorphism(AutomorphismSpec.phi(4), w), W.inverse(w))),
        ("c^Delta = c^-1", eq(W.conjugate(c, W.delta(4)), W.inverse(c))),
        ("s1^d = s3", eq(W.conjugate(BraidWord(4, (1,)), d), BraidWord(4, (3,)))),
        ("s3^d = s1", eq(W.conjugate(BraidWord(4, (3,)), d), BraidWord(4, (1,)))),
        ("d c d^-1 = c^-1", eq(W.compose(d, c, W.inverse(d)), W.inverse(c))),
    ]
    for name, ok in checks:
        _require(ok, f"identity failed: {name}", {"identity": name})
    return f"{len(checks)} identities exact"


def _check_eq16(which: str):
    st = classical(4)
    e = _b4_elements()
    u, t, c, w = e["u"], e["t"], e["c"], e["w"]
    cases = {
        "ucu": (W.compose(u, c, W.inverse(u)), w, (2,)),
        "uwu": (W.compose(u, w, W.inverse(u)), W.compose(w, w, W.inverse(c), w), (2, 2, -1, 2)),
        "tct": (W.compose(t, c, W.inverse(t)), W.compose(c, w), (1, 2)),
        "twt": (W.compose(t, w, W.inverse(t)), W.compose(c, w, w), (1, 2, 2)),
    }
    lhs, rhs, free_form = cases[which]
    _require(E.words_equal(st, lhs, rhs), f"braid identity {which} failed")
    _require(
        S.k4_rewrite(lhs) == free_form,
        f"kernel rewriting of {which} disagrees",
        {"expected": free_form, "got": S.k4_rewrite(lhs)},
    )
    return "braid identity and kernel rewriting agree"


def check_linking_numbers(rng: random.Random):
    _require(P.linking_matrix(BraidWord(2, (1, 1)))[1, 2] == 1, "generator square linking")
    for n in range(2, 6):
        lk = P.linking_matrix(W.power(W.delta(n), 2))
        _require(
            all(lk[i, j] == 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)),
            f"full twist linking at n={n}",
        )
    u3 = W.power(W.named_element("u", 3), 3)
    t3 = W.power(W.named_element("t", 3), 3)
    _require(P.linking_matrix(u3).vector() == (0, 0, 0), "u^3 linking")
    _require(P.linking_matrix(t3).vector() == (0, 0, 0), "t^3 linking")
    for idx in range(200):
        X = _rand_pure(rng, 5)
        g = _rand_word(rng, 5, rng.randint(0, 8))
        mu = W.permutation_of(g)
        lkX = P.linking_matrix(X)
        lkXg = P.linking_matrix(W.conjugate(X, g))
        for i in range(1, 6):
            for j in range(i + 1, 6):
                _require(
                    lkX[i, j] == lkXg[mu(i), mu(j)],
                    f"equivariance failed on instance {idx}",
                    {"X": X.format(), "g": g.format(), "pair": [i, j]},
                )
    return "pinned values; equivariance on 200 conjugation instances"


def kernel_invariants_check(pres, image, expected):
    """Shared by the ledger and by fault-injection tests."""
    ka = S.kernel_abelianization(pres, image)
    if ka.invariant_factors != expected:
        raise CheckFailure(
            "invariant factors differ",
            {"expected": list(expected), "got": list(ka.invariant_factors)},
        )
    return ka


def check_kernel_abelianization(_rng: random.Random):
    pres4, img4 = S.b4_commutator_presentation()
    ka4 = kernel_invariants_check(pres4, img4, (0,) * 7)
    pres3, img3 = S.b3_commutator_presentation()
    ka3 = kernel_invariants_check(pres3, img3, (0,) * 4)
    basis3 = [(1, 2), (2, 1), (1, 1, 1), (2, 2, 2)]
    _require(S.basis_check(basis3, ka3), "rank-4 basis rejected")
    t_word = (1, -2)  # t = u v^-1 in the four-generator presentation
    basis4 = [
        (1,) + t_word,
        t_word + (1,),
        (1, 1, 1),
        t_word * 3,
        (4, 4),
        (3, 3),
        (4, 3, 4, 3),
    ]
    _require(S.basis_check(basis4, ka4), "rank-7 basis rejected")
    u = W.named_element("u", 4)
    t = W.named_element("t", 4)
    braids = {
        "ut": W.compose(u, t),
        "tu": W.compose(t, u),
        "u3": W.power(u, 3),
        "t3": W.power(t, 3),
        "c2": W.power(W.named_element("c", 4), 2),
        "w2": W.power(W.named_element("w", 4), 2),
        "cw2": W.power(W.compose(W.named_element("c", 4), W.named_element("w", 4)), 2),
    }
    rows = []
    for name, b in braids.items():
        _require(P.membership(b, "J"), f"{name} not in the kernel")
        rows.append(list(P.linking_matrix(b).vector()))
    _require(S.matrix_rank(rows) == 5, "linking-coordinate image rank is not 5")
    _require(
        P.linking_matrix(W.power(u, 3)).vector() == (0,) * 6,
        "u^3 has a nonzero linking vector",
    )
    _require(
        P.linking_matrix(W.power(t, 3)).vector() == (0,) * 6,
        "t^3 has a nonzero linking vector",
    )
    ka4_coords = [list(ka4.coordinates((1, 1, 1))), list(ka4.coordinates(t_word * 3))]
    _require(S.matrix_rank(ka4_coords) == 2, "cube classes do not span rank 2")
    return "Z^7 and Z^4 kernels, both bases unimodular, image rank 5, cube classes in the kernel"


def check_linking_rank(_rng: random.Random):
    for n in (5, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rows = []
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            b = W.compose(
                W.power(W.band_generator(i, j, n), 2),
                W.power(W.band_generator(k, l, n), -2),
            )
            rows.append(list(P.linking_matrix(b).vector()))
        _require(
            S.matrix_rank(rows) == len(pairs) - 1,
            f"lattice rank at n={n} is not C(n,2)-1",
        )
    return "zero-sum lattice rank C(n,2)-1 for n=5,6"


def check_conjugacy_solver(rng: random.Random):
    for idx in range(100):
        n = rng.choice([2, 3, 3, 4, 4, 4, 5, 5])
        st = classical(n)
        X = _rand_word(rng, n, rng.randint(1, 6))
        g = _rand_word(rng, n, rng.randint(0, 6))
        cert = E.conjugacy_solve(st, X, W.conjugate(X, g))
        _require(
            cert.conjugate,
            f"constructed conjugate refused on instance {idx}",
            {"X": X.format(), "g": g.format()},
        )
    neg = E.conjugacy_solve(classical(3), BraidWord(3, (1,)), BraidWord(3, (-1,)))
    _require(not neg.conjugate, "exponent-sum negative accepted")
    neg = E.conjugacy_solve(classical(4), BraidWord(4, (1, 2)), BraidWord(4, (1, 3)))
    _require(not neg.conjugate, "cycle-type negative accepted")
    return "100 verified witnesses; exponent-sum and cycle-type negatives refused"


def check_pair_witnesses(rng: random.Random):
    for idx in range(50):
        n = rng.randint(3, 5)
        st = band(n)
        g = _rand_word(rng, n, rng.randint(0, 6))
        X = W.conjugate(BraidWord(n, (1,)), g)
        Y = W.conjugate(BraidWord(n, (2,)), g)
        _require(
            E.words_equal(st, W.compose(X, Y, X), W.compose(Y, X, Y)),
            "instance does not braid",
        )
        u = E.solve_pair_to_generators(st, X, Y)
        _require(
            u is not None,
            f"no simultaneous witness on braiding instance {idx}",
            {"g": g.format(), "n": n},
        )
    for k in (1, 2):
        for l in (1, 2):
            for rep in range(3):
                n = 3 + (rep % 3)
                st = band(n)
                g = _rand_word(rng, n, rng.randint(0, 6))
                si = W.conjugate(BraidWord(n, (1,)), g)
                sj = W.conjugate(BraidWord(n, (2,)), g)
                prod = W.compose(W.power(si, k), W.power(sj, l))
                target = W.compose(
                    W.power(BraidWord(n, (1,)), k), W.power(BraidWord(n, (2,)), l)
                )
                _require(
                    E.conjugacy_solve(st, prod, target).conjugate,
                    "power product is not conjugate to the model",
                )
                u = E.solve_pair_to_generators(st, si, sj)
                _require(
                    u is not None,
                    f"no simultaneous witness for powers k={k} l={l}",
                    {"g": g.format(), "n": n, "k": k, "l": l},
                )
    return "50 braiding pairs and 12 power instances with verified simultaneous witnesses"


def check_atom_conjugate_shape(rng: random.Random):
    """The centred shape of a conjugate of an atom (Birman-Ko-Lee) is a
    theorem for the band structure and false for the classical one.

    Every band instance must have the shape and the complement pairing; among
    the classical instances drawn alongside, the first without the shape is
    certified as a counterexample: its normal form is the conjugate (checked
    in the band structure) and has even canonical length, which no centred
    form can have.
    """
    passed = {"classical": 0, "band": 0}
    band_failure: dict | None = None
    classical_witness = None
    for idx in range(50):
        n = rng.randint(3, 5)
        for st in (classical(n), band(n)):
            a = rng.choice(st.atoms())
            aw = BraidWord(n, st.simple_word(a))
            g = _rand_word(rng, n, rng.randint(0, 8))
            conj = W.conjugate(aw, g)
            x = E.from_word(st, conj)
            shape = E.atom_conjugate_shape(x)
            instance_ok = shape is not None
            if shape is not None:
                p, a_list, _mid, b_list = shape
                for i in range(p):
                    lhs = E.mul(
                        E.mul(E.simple_nf(st, a_list[i]), E.delta_power(st, i)),
                        E.simple_nf(st, b_list[i]),
                    )
                    if lhs != E.delta_power(st, i + 1):
                        instance_ok = False
                        break
            if instance_ok:
                passed[st.kind] += 1
                continue
            instance = {
                "structure": st.kind,
                "n": n,
                "atom": aw.format(),
                "conjugator": g.format(),
                "inf": x.inf,
                "canonical_length": x.canonical_length,
            }
            if st.kind == "band":
                band_failure = band_failure or instance
            elif shape is None and classical_witness is None:
                classical_witness = (instance, x, conj)
    summary = f"band {passed['band']}/50, classical {passed['classical']}/50"
    _require(
        band_failure is None,
        "centred shape with complement pairing fails for a band-structure "
        f"conjugate of an atom ({summary})",
        band_failure,
    )
    _require(
        classical_witness is not None,
        "no classical conjugate of an atom without the centred shape was found "
        f"({summary}); conjugates of classical atoms can have even canonical length",
        {"structure": "classical", "instances": 50, "centred": passed["classical"]},
    )
    instance, x, conj = classical_witness
    _require(
        E.words_equal(band(x.structure.n), x.to_word(), conj),
        f"classical counterexample's normal form is not the conjugate ({summary})",
        instance,
    )
    _require(
        x.canonical_length % 2 == 0,
        "classical instance without the centred shape has odd canonical length "
        f"({summary})",
        instance,
    )
    return (
        f"centred shape and complement pairing: {summary}; classical "
        f"counterexample {instance['atom']} conjugated by {instance['conjugator']} "
        f"(inf {instance['inf']}, canonical length {instance['canonical_length']}) "
        "certified in the band structure"
    )


def check_product_dichotomy(rng: random.Random):
    realized = 0
    for idx in range(20):
        n = rng.randint(3, 4)
        st = band(n)
        atoms = st.atoms()
        x = rng.choice(atoms)
        y = rng.choice(atoms)
        k = rng.choice([-2, -1, 1, 2])
        l = rng.choice([-2, -1, 1, 2])
        xw = BraidWord(n, st.simple_word(x))
        yw = BraidWord(n, st.simple_word(y))
        X = W.conjugate(W.power(xw, k), _rand_word(rng, n, rng.randint(0, 4)))
        Y = W.conjugate(W.power(yw, l), _rand_word(rng, n, rng.randint(0, 4)))
        Z = W.compose(X, Y)
        atom_powers_k = {E.power(E.simple_nf(st, a), k).key() for a in atoms}
        atom_powers_l = {E.power(E.simple_nf(st, a), l).key() for a in atoms}
        xnf, ynf, znf = (E.from_word(st, v) for v in (X, Y, Z))

        def realizes(u: BraidWord) -> bool:
            unf = E.from_word(st, u)
            xu = E.conjugate(xnf, unf)
            yu = E.conjugate(ynf, unf)
            if xu.key() in atom_powers_k and yu.key() in atom_powers_l:
                return True
            zu = E.conjugate(znf, unf)
            if zu.canonical_length == xu.canonical_length + yu.canonical_length:
                zrep, _, circuit = E._slide_to_circuit(zu)
                if any(c.key() == zu.key() for c, _ in circuit):
                    return True
            return False

        candidates = [BraidWord.identity(n)]
        sc = E.sliding_circuits_with_trails(st, Z)
        for zt, trail in sc.values():
            candidates.append(trail)
            for m in (-2, -1, 1, 2):
                candidates.append(
                    W.free_reduce(W.compose(trail, E.power(zt, m).to_word()))
                )
        for a in atoms:
            cert = E.conjugacy_solve(st, X, W.power(BraidWord(n, st.simple_word(a)), k))
            if cert.conjugate:
                candidates.append(cert.witness)
        ok = any(realizes(u) for u in candidates)
        _require(
            ok,
            f"no candidate realizes either branch on instance {idx}",
            {"X": X.format(), "Y": Y.format(), "k": k, "l": l},
        )
        realized += 1
    return f"{realized}/20 instances realize an atom-power pair or additive circuit length"


def check_characters(_rng: random.Random):
    for n in range(1, 8):
        parts = R.partitions(n)
        for lam in parts:
            for mu in parts:
                ip = R.inner_product(
                    lambda r: R.character_value(lam, r),
                    lambda r: R.character_value(mu, r),
                    n,
                )
                _require(ip == (1 if lam == mu else 0), f"orthogonality failed at {lam}, {mu}")
    for n in range(1, 9):
        ident = tuple([1] * n)
        for lam in R.partitions(n):
            _require(
                R.character_value(lam, ident) == R.hook_dimension(lam),
                f"hook dimension mismatch at {lam}",
            )
    _require(R.character_value((5, 1), (3, 1, 1, 1)) == 2, "value at single three-cycle")
    _require(R.character_value((5, 1), (3, 3)) == -1, "value at double three-cycle")
    for n in range(5, 9):
        got = R.decompose("Sym2Standard", n)
        _require(
            got == {(n,): 2, (n - 1, 1): 2, (n - 2, 2): 1},
            f"symmetric-square multiplicities wrong at n={n}",
            {"got": {str(k): v for k, v in got.items()}},
        )
    _require(
        R.decompose("Wmodule", 6) == {(5, 1): 1, (4, 2): 1},
        "trace-zero module decomposition wrong",
    )
    for n in (5, 6, 7):
        _require(R.span_identity_holds(n), f"span identity fails at n={n}")
    return "orthogonality n<=7, hooks n<=8, pinned values, multiplicities n=5..8, span identity"


def check_s6_outer(rng: random.Random):
    table = R._nu_table()
    _require(len(table) == 720 and len(set(table.values())) == 720, "not a bijection")
    g1 = Permutation.from_cycles(6, [(1, 2)])
    g2 = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
    _require(
        table[g1] == Permutation.from_cycles(6, [(1, 2), (3, 4), (5, 6)]),
        "image of the transposition",
    )
    _require(
        table[g2] == Permutation.from_cycles(6, [(1, 2, 3), (4, 5)]),
        "image of the six-cycle",
    )
    for g in table:
        for gen in (g1, g2):
            _require(table[g * gen] == table[g] * table[gen], "not a homomorphism")
    elements = list(table)
    for _ in range(2000):
        g = rng.choice(elements)
        h = rng.choice(elements)
        _require(table[g * h] == table[g] * table[h], "random product mismatch")
    img = table[Permutation.from_cycles(6, [(1, 2, 3)])]
    _require(img.cycle_type() == (3, 3), "three-cycle image type")
    _require(table[g1].cycle_type() != (2, 1, 1, 1, 1), "automorphism is inner")
    return "bijective homomorphism over 720 elements; pinned images; class swap confirmed"


def check_induced_matrices(_rng: random.Random):
    t = W.named_element("t", 4)
    u = W.named_element("u", 4)
    _require(S.action_matrix(t, "K4ab") == ((1, 1), (1, 2)), "action of t")
    _require(
        S.action_matrix(W.compose(t, W.inverse(u)), "K4ab") == ((2, 1), (1, 1)),
        "action of t u^-1",
    )
    _require(
        S.action_matrix(AutomorphismSpec.sigma_tilde(1, 3), "B3primeAb")
        == ((1, 1), (-1, 0)),
        "induced matrix of the first inner generator",
    )
    _require(
        S.action_matrix(AutomorphismSpec.lambda_(), "B3primeAb") == ((0, -1), (-1, 0)),
        "induced matrix of the sign flip",
    )
    _require(S.free_words_check([S.T_MATRIX, S.U_MATRIX], 10), "free pair rejected")
    _require(
        not S.free_words_check([S.S1_MATRIX, S.S2_MATRIX], 6),
        "braid-relation pair accepted as free",
    )
    return "pinned matrices; freeness to word length 10"


def check_cabling_roundtrip(rng: random.Random):
    for idx in range(100):
        k = rng.randint(1, 3)
        parts = tuple(rng.randint(1, 3) for _ in range(k))
        comp = C.Composition(parts)
        tub = _rand_pure(rng, k, 2) if k >= 2 else BraidWord.identity(1)
        ints = _rand_interiors(rng, parts, 4)
        cab = C.cable(tub, ints, comp)
        _require(C.mixed_membership(cab, comp), "cabled braid leaves the mixed subgroup")
        got_tub, got_ints = C.split(cab, comp)
        _require(
            E.words_equal(classical(k), got_tub, tub),
            f"tubular round trip failed on instance {idx}",
            {"composition": comp.format()},
        )
        for i, (got, x) in enumerate(zip(got_ints, ints), start=1):
            _require(
                E.words_equal(classical(parts[i - 1]), got, x),
                f"interior {i} round trip failed on instance {idx}",
                {"composition": comp.format()},
            )
    for idx in range(100):
        k = rng.randint(1, 3)
        parts = tuple(rng.randint(1, 3) for _ in range(k))
        comp = C.Composition(parts)
        tub1 = _rand_pure(rng, k, 2) if k >= 2 else BraidWord.identity(1)
        tub2 = _rand_pure(rng, k, 2) if k >= 2 else BraidWord.identity(1)
        ints1 = _rand_interiors(rng, parts, 3)
        ints2 = _rand_interiors(rng, parts, 3)
        lhs = C.cable(
            W.compose(tub1, tub2),
            [W.compose(a, b) for a, b in zip(ints1, ints2)],
            comp,
        )
        rhs = W.compose(C.cable(tub1, ints1, comp), C.cable(tub2, ints2, comp))
        _require(
            E.words_equal(classical(comp.total), lhs, rhs),
            f"restriction is not multiplicative on instance {idx}",
            {"composition": comp.format()},
        )
    return "100 extraction round trips and 100 multiplicativity instances"


CHECKS = [
    ("c01-word-problem", check_word_problem),
    ("c02-structure-agreement", check_structure_agreement),
    ("c03-simple-lattice", check_simple_lattice),
    ("c04-cabled-half-twists", check_cabled_half_twists),
    ("c05-b4-identities", check_b4_identities),
    ("c06-linking-numbers", check_linking_numbers),
    ("c07-kernel-abelianization", check_kernel_abelianization),
    ("c08-linking-rank", check_linking_rank),
    ("c09-conjugacy-solver", check_conjugacy_solver),
    ("c10-pair-witnesses", check_pair_witnesses),
    ("c11-atom-conjugate-shape", check_atom_conjugate_shape),
    ("c12-product-dichotomy", check_product_dichotomy),
    ("c13-characters", check_characters),
    ("c14-s6-outer-automorphism", check_s6_outer),
    ("c15-induced-matrices", check_induced_matrices),
    ("c16-cabling-roundtrip", check_cabling_roundtrip),
    ("eq16-ucu", lambda rng: _check_eq16("ucu")),
    ("eq16-uwu", lambda rng: _check_eq16("uwu")),
    ("eq16-tct", lambda rng: _check_eq16("tct")),
    ("eq16-twt", lambda rng: _check_eq16("twt")),
]

CHECK_IDS = [check_id for check_id, _ in CHECKS]


def _subseed(seed: int, check_id: str) -> int:
    return seed ^ zlib.crc32(check_id.encode())


def run_check(check_id: str, seed: int = DEFAULT_SEED) -> CheckResult:
    fn = dict(CHECKS).get(check_id)
    if fn is None:
        raise KeyError(f"unknown check id {check_id!r}")
    rng = random.Random(_subseed(seed, check_id))
    start = time.perf_counter()
    try:
        details = fn(rng)
        status, payload = "pass", None
    except CheckFailure as exc:
        status, details, payload = "fail", exc.details, exc.payload
    except Exception as exc:  # unexpected errors also surface as failures
        status, details, payload = "fail", f"unexpected error: {exc}", {"error": repr(exc)}
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(check_id, status, details, elapsed, payload)


def run_ledger(pattern: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check whose id contains ``pattern`` (all when None), in id
    order, deterministically for the given seed."""
    ids = [cid for cid in CHECK_IDS if pattern is None or pattern in cid]
    if not ids:
        raise KeyError(f"no check id matches {pattern!r}")
    return [run_check(cid, seed) for cid in sorted(ids)]


def report_json(results: list[CheckResult]) -> str:
    """Canonical machine-readable report; timing is display-only and excluded
    so reruns with one seed are byte-identical."""
    blob = [
        {
            "id": r.check_id,
            "status": r.status,
            "details": r.details,
            "payload": r.payload,
        }
        for r in sorted(results, key=lambda r: r.check_id)
    ]
    return json.dumps(blob, sort_keys=True, indent=2)


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in sorted(results, key=lambda r: r.check_id):
        lines.append(
            f"{r.status.upper():4}  {r.check_id:28} {r.elapsed_ms:8.1f} ms  {r.details}"
        )
    return lines
