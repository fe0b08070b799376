"""Command-line surface for the toolkit.

Braid words are read in the text form ``B<n>: k1 k2 ...``; exit status is 0
on success, 1 when a verification check fails, 2 on usage or input errors,
and 3 when a search stops at one of its limits (``SearchLimitExceeded``).
When the reader closes the output pipe early (``braidkit ... | head -1``),
the command stops silently with status 141, the status a shell reports for a
writer ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cabling as C
from . import engine as E
from . import ledger as L
from . import purebraid as P
from . import reptheory as R
from . import subgroups as S
from . import words as W
from .garside import structure
from .words import AutomorphismSpec, BraidWord, Permutation


def _nf_blob(nf, factor_words: list) -> dict:
    """The JSON form of nf; its word is ``nf.to_word()``, built from factor_words."""
    st = nf.structure
    delta = W.power(BraidWord(st.n, st._word(st._delta_perm)), nf.inf).letters
    body = tuple(k for word in factor_words for k in word)
    return {
        "structure": st.kind,
        "strands": st.n,
        "side": nf.side,
        "inf": nf.inf,
        "canonical_length": nf.canonical_length,
        "factors": [list(word) for word in factor_words],
        "word": BraidWord(st.n, delta + body if nf.side == "left" else body + delta).format(),
    }


def _emit(args, blob: dict, text: str):
    if args.json:
        print(json.dumps(blob, sort_keys=True))
    else:
        print(text)


def _parse_auto(text: str) -> AutomorphismSpec:
    """Automorphism syntax on three strands: ``lambda``, ``sigma~<i>``,
    ``delta~``, ``inner:<braid word>``; composites join with ``;`` and
    apply right to left."""
    spec = None
    for part in text.split(";"):
        part = part.strip()
        if part == "lambda":
            step = AutomorphismSpec.lambda_()
        elif part == "delta~":
            step = AutomorphismSpec.delta_tilde(3)
        elif part.startswith("sigma~") and part[len("sigma~"):].isdecimal():
            step = AutomorphismSpec.sigma_tilde(int(part[len("sigma~"):]), 3)
        elif part.startswith("inner:"):
            step = AutomorphismSpec.inner(BraidWord.parse(part[len("inner:"):]))
        else:
            raise ValueError(f"unknown automorphism step {part!r}")
        spec = step if spec is None else spec * step
    if spec is None:
        raise ValueError("empty automorphism")
    return spec


def _parts(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad {what}: {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="braidkit",
        description="Braid-group computations: normal forms, conjugacy, "
        "linking numbers, cabling, kernel abelianizations and characters.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *specs):
        p = sub.add_parser(name, help=help_)
        # also accepted after the command; SUPPRESS keeps the global value
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
        for flags, kw in specs:
            p.add_argument(*flags, **kw)
        return p

    st_arg = (("--structure",), {"choices": ["classical", "band"], "default": "classical"})
    word_arg = (("word",), {"help": "braid word, e.g. 'B4: 1 3 -2'"})

    add("nf", "normal form of a braid word", st_arg, word_arg,
        (("--side",), {"choices": ["left", "right"], "default": "left"}))
    add("eq", "decide equality of two braid words", st_arg,
        (("word1",), {}), (("word2",), {}))
    add("conj", "decide conjugacy, with witness", st_arg,
        (("word1",), {}), (("word2",), {}))
    add("slide", "one cyclic sliding step", st_arg, word_arg)
    add("sc", "the set of sliding circuits", st_arg, word_arg)
    add("lk", "linking matrix of a pure braid", word_arg)
    add("perm", "underlying permutation of a braid word", word_arg)
    add("cable", "cable interior braids into a tubular braid",
        (("--comp",), {"required": True, "help": "composition, e.g. 2,2"}),
        (("tubular",), {}),
        (("interiors",), {"nargs": "*", "help": "one braid word per tube"}))
    add("extract", "extract tubular or interior braids",
        (("--comp",), {"required": True}),
        (("--part",), {"required": True, "help": "tubular or interior:<i>"}),
        word_arg)
    add("abelianize", "linking coordinates of a pure braid",
        (("--target",), {"choices": ["P", "J"], "default": "P"}), word_arg)
    add("kernel-ab", "abelianize the kernel of a finite-image presentation",
        (("file",), {"help": "presentation file (gens/rel/degree/image lines)"}))
    add("char", "irreducible character value",
        (("partition",), {"help": "e.g. 5,1"}),
        (("cycle_type",), {"help": "e.g. 3,3"}))
    add("decompose", "multiplicities of a named module",
        (("target",), {"choices": ["Sym2Standard", "Sym2Vn11", "Wmodule"]}),
        (("n",), {"type": int}))
    add("nu", "apply the degree-6 outer automorphism",
        (("perm",), {"help": "cycle notation, e.g. '(1 2)(3 4 5)'"}))
    add("k4-rewrite", "rewrite a projection-trivial 4-braid over the free kernel",
        word_arg)
    add("pi", "induced matrix on a rank-two abelianization",
        (("--context",), {"choices": ["K4ab", "B3primeAb"], "required": True}),
        (("arg",), {"help": "braid word (K4ab) or automorphism (B3primeAb)"}))
    add("verify-paper", "run the verification ledger",
        (("--filter",), {"default": None, "help": "substring of check ids"}),
        (("--seed",), {"type": int, "default": L.DEFAULT_SEED}))

    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    except E.SearchLimitExceeded as exc:
        print(f"braidkit: error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "nf":
        w = BraidWord.parse(args.word)
        st = structure(args.structure, w.strands)
        nf = E.normal_form(st, w, side=args.side)
        factor_words = [st._word(p) for p in E._arrays(nf)]
        factors = " | ".join(" ".join(map(str, word)) or "-" for word in factor_words)
        _emit(args, _nf_blob(nf, factor_words) if args.json else None,
              f"{nf.side} normal form: inf={nf.inf} length={nf.canonical_length} "
              f"factors: [{factors}]")
        return 0

    if cmd == "eq":
        a, b = BraidWord.parse(args.word1), BraidWord.parse(args.word2)
        st = structure(args.structure, a.strands)
        verdict = E.words_equal(st, a, b)
        _emit(args, {"equal": verdict}, "equal" if verdict else "not equal")
        return 0

    if cmd == "conj":
        a, b = BraidWord.parse(args.word1), BraidWord.parse(args.word2)
        st = structure(args.structure, a.strands)
        cert = E.conjugacy_solve(st, a, b)
        blob = {"conjugate": cert.conjugate}
        if cert.conjugate:
            blob["witness"] = cert.witness.format()
            _emit(args, blob, f"conjugate; witness u = {cert.witness.format()}")
        else:
            _emit(args, blob, "not conjugate")
        return 0

    if cmd == "slide":
        w = BraidWord.parse(args.word)
        st = structure(args.structure, w.strands)
        out = E.cyclic_sliding(st, w)
        _emit(args, {"word": out.format()}, out.format())
        return 0

    if cmd == "sc":
        w = BraidWord.parse(args.word)
        st = structure(args.structure, w.strands)
        circuits = E.sliding_circuits(st, w)
        words = [nf.to_word().format() for nf in circuits]
        _emit(args, {"size": len(words), "elements": words},
              f"{len(words)} elements:\n" + "\n".join("  " + s for s in words))
        return 0

    if cmd == "lk":
        lk = P.linking_matrix(BraidWord.parse(args.word))
        if args.json:
            print(lk.to_json())
        else:
            for i in range(1, lk.n + 1):
                for j in range(i + 1, lk.n + 1):
                    print(f"lk({i},{j}) = {lk[i, j]}")
        return 0

    if cmd == "perm":
        mu = W.permutation_of(BraidWord.parse(args.word))
        _emit(args, {"images": list(mu.images), "cycles": str(mu)}, str(mu))
        return 0

    if cmd == "cable":
        comp = C.Composition.parse(args.comp)
        tub = BraidWord.parse(args.tubular)
        ints = [BraidWord.parse(t) for t in args.interiors]
        out = C.cable(tub, ints, comp)
        _emit(args, {"word": out.format()}, out.format())
        return 0

    if cmd == "extract":
        comp = C.Composition.parse(args.comp)
        out = C.extract(BraidWord.parse(args.word), comp, args.part)
        _emit(args, {"word": out.format()}, out.format())
        return 0

    if cmd == "abelianize":
        vec = P.abelianize_pure(BraidWord.parse(args.word), args.target)
        _emit(args, {"coordinates": list(vec)}, " ".join(str(v) for v in vec))
        return 0

    if cmd == "kernel-ab":
        with open(args.file, encoding="utf-8") as fh:
            pres, image = S.parse_presentation(fh.read())
        if image is None:
            raise ValueError("presentation file lacks image lines")
        ka = S.kernel_abelianization(pres, image)
        blob = {"invariant_factors": list(ka.invariant_factors),
                "free_rank": ka.free_rank}
        _emit(args, blob,
              f"invariant factors: {list(ka.invariant_factors)} "
              f"(free rank {ka.free_rank})")
        return 0

    if cmd == "char":
        value = R.character_value(_parts(args.partition, "partition"),
                                  _parts(args.cycle_type, "cycle type"))
        _emit(args, {"value": value}, str(value))
        return 0

    if cmd == "decompose":
        decomp = R.decompose(args.target, args.n)
        items = sorted(decomp.items(), reverse=True)
        text = "  ".join(f"{','.join(map(str, lam))}:{m}" for lam, m in items)
        _emit(args, {",".join(map(str, lam)): m for lam, m in items}, text)
        return 0

    if cmd == "nu":
        g = Permutation.parse(args.perm, 6)
        img = R.nu_map(g)
        _emit(args, {"images": list(img.images), "cycles": str(img)}, str(img))
        return 0

    if cmd == "k4-rewrite":
        fw = S.k4_rewrite(BraidWord.parse(args.word))
        _emit(args, {"word": S.format_free_word(fw)}, S.format_free_word(fw))
        return 0

    if cmd == "pi":
        if args.context == "K4ab":
            m = S.action_matrix(BraidWord.parse(args.arg), "K4ab")
        else:
            m = S.action_matrix(_parse_auto(args.arg), "B3primeAb")
        _emit(args, {"matrix": [list(r) for r in m]},
              f"[[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]")
        return 0

    if cmd == "verify-paper":
        results = L.run_ledger(args.filter, args.seed)
        if args.json:
            print(L.report_json(results))
        else:
            for line in L.report_lines(results):
                print(line)
            n_pass = sum(r.status == "pass" for r in results)
            print(f"{n_pass}/{len(results)} checks passed (seed {args.seed})")
        return 0 if all(r.status == "pass" for r in results) else 1

    raise ValueError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
