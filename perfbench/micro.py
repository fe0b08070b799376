"""Micro-timings of the simple-element primitives, per structure and n.

For n <= 5 every primitive runs over the whole table of simples (all
ordered pairs for the binary ones); at n = 8 over a seeded sample.  The
figure is the mean time per call in microseconds, the median of three
passes.
"""

from __future__ import annotations

import random
import statistics
import time

PRIMS = ("meet", "complement", "twist", "normalize_pair", "mul")
SIZES = (4, 5, 8)
_SAMPLE_SIMPLES = 200
_SAMPLE_PAIRS = 2000
_PASSES = 3


def _inputs(st, rng: random.Random):
    simples = list(st.simples())
    if st.n <= 5:
        return simples, [(a, b) for a in simples for b in simples]
    singles = rng.sample(simples, min(_SAMPLE_SIMPLES, len(simples)))
    pairs = [(rng.choice(simples), rng.choice(simples)) for _ in range(_SAMPLE_PAIRS)]
    return singles, pairs


def _per_call_us(fn, inputs, binary: bool) -> float:
    clock = time.perf_counter
    passes = []
    for _ in range(_PASSES):
        if binary:
            t0 = clock()
            for a, b in inputs:
                fn(a, b)
            t1 = clock()
        else:
            t0 = clock()
            for a in inputs:
                fn(a)
            t1 = clock()
        passes.append((t1 - t0) / len(inputs) * 1e6)
    return statistics.median(passes)


def micro_timings(garside, seed: int) -> dict[str, float]:
    """``garside.<kind>.n<N>.<prim>_us`` for both structures."""
    out = {}
    for kind in ("classical", "band"):
        for n in SIZES:
            st = garside.structure(kind, n)
            singles, pairs = _inputs(st, random.Random(f"micro:{kind}:{n}:{seed}"))
            for prim in PRIMS:
                binary = prim in ("meet", "normalize_pair", "mul")
                value = _per_call_us(getattr(st, prim), pairs if binary else singles, binary)
                out[f"garside.{kind}.n{n}.{prim}_us"] = value
    return out
