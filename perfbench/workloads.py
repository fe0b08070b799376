"""Seeded inputs for the three workloads, the library call each op makes, and
the answer checks.

Inputs are generated here from the seed with the benchmark's own code; the
library only ever receives the generated words.  Every answer is checked
against an invariant the benchmark derives from how the input was built
(construction), from a second structure, or from the other ops of the same
instance group.  A wrong answer raises ``WrongAnswer``.

Ops are emitted in blocks, endlessly.  Each block holds one instance of
every cell of the workload's mix in a seeded order; a timed run measures
whole blocks, so every run measures the same mix whatever the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

STRUCTURES = ("classical", "band")


class WrongAnswer(Exception):
    """The library returned an answer that contradicts the benchmark's
    invariant for that op."""


@dataclass
class Op:
    id: int
    kind: str
    structure: str | None
    n: int
    args: tuple
    group: int
    expect: object = None

    def describe(self) -> str:
        return f"op {self.id} ({self.kind}, {self.structure}, n={self.n})"

    def words(self) -> tuple:
        """The braid words among the op's inputs, as letter tuples."""
        if self.kind == "cable":
            return (self.args[1],) + self.args[2]
        return self.args if self.kind in _WORD_KINDS else ()


_WORD_KINDS = ("nf-left", "nf-right", "eq-equal", "eq-unequal", "conj-pos", "conj-neg", "sc",
               "pair", "k4", "lk")


# ---------------------------------------------------------------------------
# Word helpers on plain letter tuples (the benchmark's own arithmetic)


def rand_letters(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    alphabet = [k for k in range(-(n - 1), n) if k]
    return tuple(rng.choice(alphabet) for _ in range(length))


def inv_letters(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-k for k in reversed(w))


def conj_letters(x: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """x^g = g^-1 x g."""
    return inv_letters(g) + x + g


def exp_sum(w) -> int:
    return sum(1 if k > 0 else -1 for k in w)


def arrangement(n: int, w) -> list[int]:
    """Which strand (0-based) sits at each position after reading w."""
    arr = list(range(n))
    for k in w:
        i = abs(k) - 1
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return arr


def pure_factor(rng: random.Random, n: int, max_conj: int):
    """A pure braid g^-1 s_i^(2e) g with its one nonzero linking number:
    the strands at positions i, i+1 after g^-1 link e times."""
    i = rng.randint(1, n - 1)
    e = rng.choice((-1, 1))
    g = rand_letters(rng, n, rng.randint(0, max_conj))
    arr = arrangement(n, inv_letters(g))
    a, b = sorted((arr[i - 1], arr[i]))
    return conj_letters((i if e > 0 else -i,) * 2, g), (a, b), e


def partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def centralizer_order(rho: tuple[int, ...]) -> int:
    out = 1
    for part in set(rho):
        m = rho.count(part)
        out *= part**m * math.factorial(m)
    return out


def hook_dim(lam: tuple[int, ...]) -> int:
    n = sum(lam)
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(n) // hooks


# ---------------------------------------------------------------------------
# Generation


class _OpStream:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.block: list[Op] = []
        self.ops = 0
        self.groups = 0

    def group(self) -> int:
        self.groups += 1
        return self.groups - 1

    def add(self, kind, structure, n, args, group, expect=None):
        self.block.append(Op(self.ops, kind, structure, n, args, group, expect))
        self.ops += 1

    def take(self) -> list[Op]:
        out, self.block = self.block, []
        return out


def _relation_rewrite(rng: random.Random, n: int, w: tuple[int, ...]) -> tuple[int, ...]:
    """A different word for the same braid: far commutations, braid-relation
    moves and inserted relators."""
    w = list(w)
    for _ in range(max(4, len(w) // 3)):
        if len(w) < 2:
            break
        p = rng.randrange(len(w) - 1)
        a, b = w[p], w[p + 1]
        if abs(abs(a) - abs(b)) >= 2:
            w[p], w[p + 1] = b, a
        elif p + 2 < len(w) and a == w[p + 2] and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            w[p : p + 3] = [b, a, b]
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(1, n - 2)
        relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        if rng.random() < 0.5:
            relator = [-k for k in reversed(relator)]
        p = rng.randint(0, len(w))
        w[p:p] = relator
    return tuple(w)


WP_N = range(3, 13)
WP_LEN = (20, 200)
WP_TYPES = ("nf", "eq-equal", "eq-unequal")


def word_problem(seed: int) -> Iterator[list[Op]]:
    """Each block holds one instance group for every n in 3..12 and type:
    nf (left and right normal form in both structures), eq-equal and
    eq-unequal (both structures).  Lengths 20..200 are cut into thirty
    strata in three tiers; (n, type index t) takes tier T = (n + t) mod 3
    and stratum (7n + 3T) mod 10 of that tier, so every block pairs strand
    counts, types and lengths the same way whatever the seed.  The seed
    draws the length within the stratum and the letters."""
    b = _OpStream(seed, "word-problem")
    rng = b.rng
    lo, hi = WP_LEN
    per_tier = len(WP_N)
    step = (hi - lo + 1) / (per_tier * len(WP_TYPES))
    while True:
        cells = [(n, t) for n in WP_N for t in range(len(WP_TYPES))]
        rng.shuffle(cells)
        for n, t in cells:
            tier = (n + t) % len(WP_TYPES)
            stratum = tier * per_tier + (7 * n + 3 * tier) % per_tier
            length = lo + int(step * (stratum + rng.random()))
            g = b.group()
            kind = WP_TYPES[t]
            if kind == "nf":
                w = rand_letters(rng, n, length)
                for st in STRUCTURES:
                    b.add("nf-left", st, n, (w,), g)
                    b.add("nf-right", st, n, (w,), g)
            elif kind == "eq-equal":
                w = rand_letters(rng, n, length)
                partner = _relation_rewrite(rng, n, w)
                for st in STRUCTURES:
                    b.add("eq-equal", st, n, (w, partner), g, True)
            else:
                i, j = rng.sample(range(1, n), 2)
                split = rng.randint(0, length - 2)
                head = rand_letters(rng, n, split)
                tail = rand_letters(rng, n, length - 2 - split)
                for st in STRUCTURES:
                    b.add("eq-unequal", st, n, (head + (i, i) + tail, head + (j, j) + tail), g,
                          False)
        yield b.take()


# The two instances ROADMAP reports as stuck (past 60 s at baseline).  They
# are not ops of the conjugacy workload, whose ops must all succeed; the
# traced run probes them under a short limit.
PINNED = (
    ("band", 9, (1,), (2,)),
    ("classical", 6, (1, 2, 3, 4, 5, -1, -2), (5, 4, 3, 2, 1, -5, -4)),
)

CONJ_N = (3, 4, 5)
CONJ_G_LEN = (1, 6)

# The conjugacy classes that conj-pos and sc ops take seeded conjugates of,
# two per n by representative.  The work of a sliding-circuit search is
# fixed by the class (circuit elements times simples), so a fixed set of
# classes keeps the work of a block the same across seeds while every input
# word differs.  Classical ops search class A with conj-pos and class B with
# sc; band ops the other way round, so each class meets both structures and
# both op kinds.  The classes are picked so that no cell dominates a block
# and the slow end of the latency distribution is made of several cells of
# similar cost (0.2-0.7 s at baseline), which keeps its 90th percentile
# steady; classes whose search runs for many seconds at baseline are
# represented by the pinned instances in the traced run instead.
CLASSES = {
    3: ((1, -2, 1, -2), (1, 1, -2, -2)),
    4: ((1, 1, 2), (1, 2, -3)),
    5: ((1, 2), (1, -2, 1, 2)),
}


def _pure_pair(n: int):
    """Two pure braids with equal linking-number sum and different sorted
    linking multisets: conjugation only permutes linking numbers, so no
    conjugates of them are conjugate, yet exponent sum and permutation
    agree and the search must run in full."""
    last = n - 1
    return (1,) * 4, (1, 1, last, last)


def conjugacy(seed: int) -> Iterator[list[Op]]:
    """Blocks holding, for each structure and n in {3, 4, 5}, one conj-pos,
    conj-neg and sc op, plus one band pair op per n; the seed draws the
    conjugators and the order within the block."""
    b = _OpStream(seed, "conjugacy")
    rng = b.rng
    cells = [(st, n, k) for st in STRUCTURES for n in CONJ_N
             for k in ("conj-pos", "conj-neg", "sc")]
    cells += [("band", n, "pair") for n in CONJ_N]
    while True:
        rng.shuffle(cells)
        for st, n, kind in cells:
            g = b.group()
            h1 = rand_letters(rng, n, rng.randint(*CONJ_G_LEN))
            h2 = rand_letters(rng, n, rng.randint(*CONJ_G_LEN))
            a_class, b_class = CLASSES[n]
            if kind == "conj-pos":
                x = conj_letters(a_class if st == "classical" else b_class, h1)
                b.add(kind, st, n, (x, conj_letters(x, h2)), g, True)
            elif kind == "sc":
                x = conj_letters(b_class if st == "classical" else a_class, h1)
                b.add(kind, st, n, (x,), g)
            elif kind == "conj-neg":
                p, q = _pure_pair(n)
                b.add(kind, st, n, (conj_letters(p, h1), conj_letters(q, h2)), g, False)
            else:
                b.add(kind, st, n, (conj_letters((1,), h1), conj_letters((2,), h1)), g, True)
        yield b.take()


DEC_MODULES = ("Sym2Standard", "Sym2Vn11", "Wmodule")

_K4_C = (3, -1)
_K4_W = (2, 3, -1, -2)


def _shuffled_cycle(rng: random.Random, items: list):
    """The items endlessly, in a fresh seeded order each pass."""
    while True:
        items = list(items)
        rng.shuffle(items)
        yield from items


def _free_word(rng: random.Random, length: int) -> tuple[int, ...]:
    out: list[int] = []
    while len(out) < length:
        g = rng.choice((1, -1, 2, -2))
        if out and out[-1] == -g:
            continue
        out.append(g)
    return tuple(out)


def k4_substitute(fw) -> tuple[int, ...]:
    """The four-strand braid of a free word in the kernel generators c, w."""
    out: tuple[int, ...] = ()
    for g in fw:
        base = _K4_C if abs(g) == 1 else _K4_W
        out += base if g > 0 else inv_letters(base)
    return out


# Bases of the kernel abelianizations, in the presentations' generators
# (B4': u, v, w, c; B3': u, t); see the ledger's kernel check.
_KAB_BASES = {
    "b4": [(1, 1, -2), (1, -2, 1), (1, 1, 1), (1, -2) * 3, (4, 4), (3, 3), (4, 3, 4, 3)],
    "b3": [(1, 2), (2, 1), (1, 1, 1), (2, 2, 2)],
}


def invariants(seed: int) -> Iterator[list[Op]]:
    """Blocks of thirteen ops from the rest of the toolkit: kernel
    abelianization of the B4' and B3' presentations with coordinates and a
    basis check of a unimodularly moved (or doubled) basis; k4_rewrite of
    conjugated free words in c, w; free_words_check of (T, U) and (S1, S2) to
    depth 8; linking matrices of pure braids, n 4..10; cable/extract round
    trips; a character column and a decomposition for n 5..10.

    The sizes of the ops whose cost spans the middle of the latency
    distribution (k4 free-word and conjugator lengths, cable compositions,
    decomposition n and module) are dealt from seeded shuffled cycles
    rather than drawn independently, so that every run sees nearly the
    same mix of sizes and its median latency does not wander with the
    draw."""
    b = _OpStream(seed, "invariants")
    rng = b.rng
    cells = ["kab-b4", "kab-b3", "k4", "k4", "fwc-free", "fwc-relation",
             "lk", "lk", "cable", "cable", "char", "char", "dec"]
    k4_sizes = _shuffled_cycle(rng, [(f, c) for f in range(2, 11) for c in range(9)])
    cable_k = _shuffled_cycle(rng, [1, 2, 3])
    cable_parts = {k: _shuffled_cycle(rng, list(itertools.product((1, 2, 3), repeat=k)))
                   for k in (1, 2, 3)}
    dec_cells = _shuffled_cycle(rng, [(n, t) for n in range(5, 11) for t in DEC_MODULES])
    while True:
        rng.shuffle(cells)
        for cell in cells:
            g = b.group()
            if cell.startswith("kab"):
                which = cell[4:]
                basis = list(_KAB_BASES[which])
                for _ in range(rng.randint(1, 4)):  # unimodular moves
                    i, j = rng.sample(range(len(basis)), 2)
                    other = basis[j] if rng.random() < 0.5 else inv_letters(basis[j])
                    basis[i] = basis[i] + other
                is_basis = rng.random() < 0.5
                if not is_basis:
                    k = rng.randrange(len(basis))
                    basis[k] = basis[k] * 2
                pair = rng.sample(range(len(basis)), 2)
                b.add("kab", None, 4 if which == "b4" else 3, (which, tuple(basis), tuple(pair)),
                      g, is_basis)
            elif cell == "k4":
                fw_len, h_len = next(k4_sizes)
                fw = _free_word(rng, fw_len)
                h = rand_letters(rng, 4, h_len)
                b.add("k4", None, 4, (conj_letters(k4_substitute(fw), h),), g)
            elif cell.startswith("fwc"):
                b.add("fwc", None, 2, (cell == "fwc-free", 8), g, cell == "fwc-free")
            elif cell == "lk":
                n = rng.randint(4, 10)
                factors = [pure_factor(rng, n, 8) for _ in range(rng.randint(3, 6))]
                expect = {}
                for _, pair, e in factors:
                    expect[pair] = expect.get(pair, 0) + e
                b.add("lk", None, n, (sum((f[0] for f in factors), ()),), g, expect)
            elif cell == "cable":
                k = next(cable_k)
                parts = next(cable_parts[k])
                tub = sum((pure_factor(rng, k, 4)[0] for _ in range(2)), ()) if k >= 2 else ()
                ints = tuple(rand_letters(rng, m, rng.randint(0, 4)) if m >= 2 else ()
                             for m in parts)
                b.add("cable", None, sum(parts), (parts, tub, ints), g)
            elif cell == "char":
                n = rng.randint(5, 10)
                rho = rng.choice(list(partitions(n)))
                b.add("char", None, n, (rho,), g, centralizer_order(rho))
            else:
                n, target = next(dec_cells)
                dim = {"Sym2Standard": n * (n + 1) // 2,
                       "Sym2Vn11": (n - 1) * n // 2,
                       "Wmodule": n * (n + 1) // 2 - n - 1}[target]
                b.add("dec", None, n, (target,), g, dim)
        yield b.take()


GENERATORS = {"word-problem": word_problem, "conjugacy": conjugacy, "invariants": invariants}


def canonical(op: Op) -> bytes:
    """The op's inputs as text, for the run's input digest."""
    return repr((op.id, op.kind, op.structure, op.n, op.args, op.group, op.expect)).encode()


# ---------------------------------------------------------------------------
# Library calls


class Library:
    """The braidkit modules an op calls, looked up as module attributes so
    that a tracer's replacements are seen."""

    def __init__(self):
        import braidkit
        from braidkit import cabling, engine, garside, purebraid, reptheory, subgroups, words

        self.package = braidkit
        self.E, self.G, self.W = engine, garside, words
        self.P, self.C, self.R, self.S = purebraid, cabling, reptheory, subgroups

    def word(self, n: int, letters):
        return self.W.BraidWord(n, tuple(letters))

    def structures(self, workload: str):
        """Every structure the workload uses, built through garside.structure."""
        if workload == "word-problem":
            keys = [(st, n) for st in STRUCTURES for n in range(3, 13)]
        elif workload == "conjugacy":
            keys = [(st, n) for st in STRUCTURES for n in CONJ_N]
        else:  # cabled braids have up to nine strands
            keys = [("classical", n) for n in range(1, 10)]
        return {key: self.G.structure(*key) for key in keys}


def prepare(lib: Library, op: Op):
    """Turn the op's letter tuples into library inputs (done before timing)."""
    if op.kind in _WORD_KINDS:
        return tuple(lib.word(op.n, w) for w in op.args)
    if op.kind == "cable":
        parts, tub, ints = op.args
        return (lib.word(len(parts), tub),
                [lib.word(m, x) for m, x in zip(parts, ints)],
                lib.C.Composition(parts))
    return op.args


def call(lib: Library, op: Op, inputs):
    """The library call of one op; its result is checked by ``check_group``."""
    E, S = lib.E, lib.S
    k = op.kind
    if k in ("nf-left", "nf-right"):
        return E.normal_form(lib.G.structure(op.structure, op.n), inputs[0], k[3:])
    if k in ("eq-equal", "eq-unequal"):
        return E.words_equal(lib.G.structure(op.structure, op.n), *inputs)
    if k in ("conj-pos", "conj-neg"):
        return E.conjugacy_solve(lib.G.structure(op.structure, op.n), *inputs)
    if k == "sc":
        return E.sliding_circuits(lib.G.structure(op.structure, op.n), inputs[0])
    if k == "pair":
        return E.solve_pair_to_generators(lib.G.structure("band", op.n), *inputs)
    if k == "kab":
        which, basis, pair = inputs
        pres, image = (S.b4_commutator_presentation() if which == "b4"
                       else S.b3_commutator_presentation())
        ka = S.kernel_abelianization(pres, image)
        i, j = pair
        coords = [ka.coordinates(basis[i]), ka.coordinates(basis[j]),
                  ka.coordinates(basis[i] + basis[j])]
        return ka.invariant_factors, S.basis_check(basis, ka), coords
    if k == "k4":
        return S.k4_rewrite(inputs[0])
    if k == "fwc":
        free, depth = inputs
        pair = [S.T_MATRIX, S.U_MATRIX] if free else [S.S1_MATRIX, S.S2_MATRIX]
        return S.free_words_check(pair, depth)
    if k == "lk":
        return lib.P.linking_matrix(inputs[0])
    if k == "cable":
        tub, ints, comp = inputs
        cabled = lib.C.cable(tub, ints, comp)
        parts = [lib.C.extract(cabled, comp, "tubular")]
        parts += [lib.C.extract(cabled, comp, f"interior:{i}") for i in range(1, comp.count + 1)]
        return parts
    if k == "char":
        (rho,) = inputs
        R = lib.R
        return [(lam, R.character_value(lam, rho)) for lam in R.partitions(op.n)]
    if k == "dec":
        return lib.R.decompose(inputs[0], op.n)
    raise ValueError(f"unknown op kind {k!r}")


# ---------------------------------------------------------------------------
# Answer checks (run outside the timed phase, never traced)


def _other(structure: str) -> str:
    return "band" if structure == "classical" else "classical"


def _same_braid(lib: Library, structure: str, n: int, a, b) -> bool:
    """Equality decided by the library in the given structure; B1 and B2
    are decided by the exponent sum alone."""
    if n <= 2:
        return exp_sum(a) == exp_sum(b)
    return lib.E.words_equal(lib.G.structure(structure, n), lib.word(n, a), lib.word(n, b))


def _nf_invariants(op: Op, nf):
    (w,) = op.args
    word = nf.to_word().letters
    if exp_sum(word) != exp_sum(w) or arrangement(op.n, word) != arrangement(op.n, w):
        raise WrongAnswer(f"{op.describe()}: normal form changes exponent sum or permutation")
    if nf.side != op.kind[3:]:
        raise WrongAnswer(f"{op.describe()}: normal form has side {nf.side}")


def check_group(lib: Library, group_ops: list[Op], results: dict[int, object]):
    """Check the ops of one instance group that finished; ``results`` maps
    op id to result."""
    done = [op for op in group_ops if op.id in results]
    for op in done:
        _check_one(lib, op, results[op.id])
    _check_group(done, results)


def _check_group(group_ops: list[Op], results):
    kinds = {op.kind for op in group_ops}
    if not kinds:
        return
    if "nf-left" in kinds and "nf-right" in kinds:
        for st in STRUCTURES:
            pair = {op.kind: results[op.id] for op in group_ops if op.structure == st}
            if len(pair) == 2:
                left, right = pair["nf-left"], pair["nf-right"]
                if (left.inf, left.canonical_length) != (right.inf, right.canonical_length):
                    raise WrongAnswer(
                        f"group of op {group_ops[0].id}: {st} right normal form has "
                        f"(inf, length) {(right.inf, right.canonical_length)}, left has "
                        f"{(left.inf, left.canonical_length)}")
    if kinds <= {"eq-equal", "eq-unequal"}:
        answers = {results[op.id] for op in group_ops}
        if len(answers) > 1:
            raise WrongAnswer(f"group of op {group_ops[0].id}: structures disagree on equality")


def _check_one(lib: Library, op: Op, result):
    k = op.kind
    if k in ("nf-left", "nf-right"):
        _nf_invariants(op, result)
    elif k in ("eq-equal", "eq-unequal"):
        if result is not op.expect:
            raise WrongAnswer(f"{op.describe()}: words_equal returned {result!r}")
    elif k == "conj-pos":
        if not result.conjugate or result.witness is None:
            raise WrongAnswer(f"{op.describe()}: constructed conjugates refused")
        x, y = op.args
        u = result.witness.letters
        if not _same_braid(lib, _other(op.structure), op.n, conj_letters(x, u), y):
            raise WrongAnswer(f"{op.describe()}: witness fails in the {_other(op.structure)} structure")
    elif k == "conj-neg":
        if result.conjugate:
            raise WrongAnswer(f"{op.describe()}: braids with different linking multisets "
                              "reported conjugate")
    elif k == "sc":
        if not result:
            raise WrongAnswer(f"{op.describe()}: empty set of sliding circuits")
        shapes = {(x.inf, x.canonical_length) for x in result}
        if len(shapes) != 1:
            raise WrongAnswer(f"{op.describe()}: circuit elements differ in (inf, length): "
                              f"{sorted(shapes)}")
    elif k == "pair":
        if result is None:
            raise WrongAnswer(f"{op.describe()}: no simultaneous witness")
        x, y = op.args
        u = result.letters
        if not (_same_braid(lib, "classical", op.n, conj_letters(x, u), (1,))
                and _same_braid(lib, "classical", op.n, conj_letters(y, u), (2,))):
            raise WrongAnswer(f"{op.describe()}: pair witness fails in the classical structure")
    elif k == "kab":
        factors, is_basis, (ci, cj, cij) = result
        rank = 7 if op.args[0] == "b4" else 4
        if tuple(factors) != (0,) * rank:
            raise WrongAnswer(f"{op.describe()}: invariant factors {factors}")
        if is_basis is not op.expect:
            raise WrongAnswer(f"{op.describe()}: basis_check returned {is_basis!r}")
        if tuple(a + b for a, b in zip(ci, cj)) != tuple(cij):
            raise WrongAnswer(f"{op.describe()}: coordinates are not additive")
    elif k == "k4":
        (w,) = op.args
        if not _same_braid(lib, "band", 4, k4_substitute(result), w):
            raise WrongAnswer(f"{op.describe()}: rewritten word does not substitute back")
    elif k == "fwc":
        if result is not op.expect:
            raise WrongAnswer(f"{op.describe()}: free_words_check returned {result!r}")
    elif k == "lk":
        for a in range(op.n):
            for c in range(a + 1, op.n):
                if result[a + 1, c + 1] != op.expect.get((a, c), 0):
                    raise WrongAnswer(f"{op.describe()}: linking number of strands "
                                      f"{a + 1},{c + 1} is {result[a + 1, c + 1]}")
    elif k == "cable":
        parts, tub, ints = op.args
        got = [x.letters for x in result]
        expected = [(len(parts), tub)] + list(zip(parts, ints))
        for (m, want), have in zip(expected, got):
            if not _same_braid(lib, "band", m, have, want):
                raise WrongAnswer(f"{op.describe()}: extraction does not return the cabled part")
    elif k == "char":
        lams = [lam for lam, _ in result]
        if sorted(lams) != sorted(partitions(op.n)):
            raise WrongAnswer(f"{op.describe()}: character column has the wrong partitions")
        if sum(v * v for _, v in result) != op.expect:
            raise WrongAnswer(f"{op.describe()}: column orthogonality fails")
    elif k == "dec":
        total = sum(mult * hook_dim(lam) for lam, mult in result.items())
        if total != op.expect:
            raise WrongAnswer(f"{op.describe()}: decomposition has dimension {total}, "
                              f"module has {op.expect}")
    else:
        raise ValueError(f"unknown op kind {k!r}")
