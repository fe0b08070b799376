"""braidkit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen): ``word-problem``,
``conjugacy`` and ``invariants``; ``--workload all`` runs each in its own
process and prints every metric by name with its unit.

Each workload is a closed loop with one client in a single-threaded
process: seeded ops are generated block by block, and each op is timed
around the one library call it makes.  The timed phase ends at the first
block boundary after the ops' wall times add up to ``--seconds``: every
block has the workload's full mix, so a run always measures whole mixes.
The reported times are CPU times scaled by a reference computation timed
in the same run (see ``CPU_CLOCK`` and ``REFERENCE_NOMINAL_S``).  Input
generation, answer checks, reference samples and the fresh-process setup
probes behind ``setup_s`` run between ops, outside the op timings.  Every answer is
checked (see workloads.py) and a wrong answer exits with status 1 without
printing a result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop over a fixed number of blocks (``TRACED_BLOCKS``) with every public
braidkit function wrapped (tracer.py) and prints the per-layer metrics,
together with the primitive micro-timings, the seed-1729 ledger check times
and the pinned stuck conjugacy instances, each measured untraced and on its
own afterwards.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as WL  # noqa: E402

WORKLOADS = ("word-problem", "conjugacy", "invariants")

# Every generated op finishes in under 3 s at baseline; a timed-out op is
# counted as failed with its id, kind and reason, so no op can hang a run.
OP_LIMIT_S = 20.0
# The pinned instances ran past 60 s at baseline (ROADMAP); they are probed
# in the traced run with this limit and report the limit when they hit it,
# so their metrics read 5 s until an instance finishes in under 5 s.
PINNED_LIMIT_S = 5.0
# setup_s is the median of this many fresh-process probes, spread evenly
# over the timed phase so that they sample the machine's speed across the
# whole run, as the op timings do, and not in one burst.
SETUP_PROBES = 11
# The traced loop runs this many blocks, whatever their speed, so that its
# call counts repeat exactly for a seed and its self times cover the same
# work on every commit.  At baseline each takes about 20 s with the
# untraced twins; with the ledger's 85 s the traced run ends in about two
# minutes.
TRACED_BLOCKS = {"word-problem": 1, "conjugacy": 3, "invariants": 60}
CHILD_TIMEOUT_S = 170
# Op latencies, ops_per_s and setup_s are CPU time of the measured process,
# not wall time.  The library is single-threaded pure Python doing no I/O, so an
# op's CPU time is its service time; wall time adds whatever time the shared
# host takes the CPU away, which here made a fixed block of conjugacy ops
# read up to 1.7 times its median (IQR 14 % of the median), against 1.1
# times (IQR 5 %) on the CPU clock.  The process clock, not the thread
# clock, so that work a later version moves to other threads still counts.
CPU_CLOCK = time.process_time
# The CPU clock still runs at the host's speed, and on a shared host that
# speed changes by itself: within half a second a fixed pure-Python loop
# read 1.4 to 3.2 ms of CPU, and from one 25 s run to the next the same
# work read up to 40 % apart.  So every run also times a fixed reference
# computation (``reference_kernel``, no braidkit code) once per
# REFERENCE_EVERY_S of op wall time (after a longer op, as many times back to
# back as it is behind), and reports its CPU times scaled by
# REFERENCE_NOMINAL_S over the reference's mean CPU time in that run: as
# they would read on a host where the reference takes REFERENCE_NOMINAL_S.
# The unscaled figures are in the details line.
REFERENCE_EVERY_S = 0.05
REFERENCE_NOMINAL_S = 0.0005


class OpTimeout(BaseException):
    """Raised from the SIGALRM handler when an op exceeds its limit.  A
    BaseException, so no ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# The library stops a search that outgrows one of its caps (the sliding
# circuit and trajectory caps of engine, the simple enumeration cap of
# garside) with one of these, saying "cap exceeded".
CAP_ERRORS = (RuntimeError, ValueError)


def reference_kernel() -> int:
    """A fixed pure-Python computation that touches no braidkit code: walk
    permutations of twelve points by adjacent transpositions and count the
    distinct ones in a dict (tuples, lists, dicts and small ints, as in the
    library's own work)."""
    perm = tuple(range(12))
    seen: dict[tuple, int] = {}
    for i in range(1000):
        j = i % 11
        p = list(perm)
        p[j], p[j + 1] = p[j + 1], p[j]
        perm = tuple(p)
        seen[perm] = seen.get(perm, 0) + 1
    return len(seen)


def measure_reference() -> float:
    """CPU seconds of one ``reference_kernel`` call, with the garbage
    collector paused so that the heap the library left behind does not
    count."""
    gc.disable()
    try:
        t0 = CPU_CLOCK()
        reference_kernel()
        return CPU_CLOCK() - t0
    finally:
        gc.enable()


def timed_call(fn, limit_s: float):
    """(result, seconds, failure) for one call under a wall-clock limit;
    ``failure`` is None, or why the op failed: it ran past the limit or hit
    a library cap.  Any other exception propagates.  Needs ``_on_alarm``
    installed as the SIGALRM handler.

    The seconds are the CPU time of this process over the call (``CPU_CLOCK``)."""
    clock = CPU_CLOCK
    result, failure = None, None
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        result = fn()
    except OpTimeout:
        failure = f"time limit {limit_s} s"
    except CAP_ERRORS as exc:
        if "cap exceeded" not in str(exc):
            raise
        failure = str(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, clock() - t0, failure


class Run:
    """The outcome of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds; math.inf for a failed op
        self.failures: list[dict] = []
        self.busy_s = 0.0  # CPU seconds of the timed ops
        self.wall_s = 0.0  # their wall-clock seconds
        self.untraced_s = 0.0  # traced runs: the same ops run untraced
        self.setup_s: list[float] = []  # untraced runs: setup probes
        self.reference_s: list[float] = []  # reference kernel CPU seconds
        self.kinds: Counter = Counter()
        self.word_letters = 0
        self.words = 0
        self.n_values: set[int] = set()
        self.sha = hashlib.sha256()
        self.sha_first100 = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def succeeded(self) -> int:
        return self.attempted - len(self.failures)

    def note_input(self, op: WL.Op):
        self.kinds[op.kind] += 1
        self.n_values.add(op.n)
        for word in op.words():
            self.word_letters += len(word)
            self.words += 1
        self.sha.update(WL.canonical(op))
        if self.attempted == 100:
            self.sha_first100 = self.sha.hexdigest()


def timed_phase(lib: WL.Library, workload: str, seed: int, seconds: float = math.inf,
                blocks: int | None = None, tracer=None, setup_probes: int = 0) -> Run:
    """Run whole blocks of ops until their wall-clock times add up to
    ``seconds`` or ``blocks`` blocks are done; the run's metrics use the
    ops' CPU times (``CPU_CLOCK``), the wall clock only sets how long the
    run lasts.  Each instance group is checked as soon as
    it is complete and its results dropped; checks run between ops, so they
    are never traced (see ``traced_call``).  Between ops, once
    every ``seconds / setup_probes`` of op wall time, a setup probe is taken
    (``measure_setup``); any still missing are taken after the loop.  The
    reference kernel is timed before the first op and then between ops,
    as often as it takes to keep one sample per REFERENCE_EVERY_S of op
    wall time."""
    run = Run()
    results: dict[int, object] = {}
    group: list[WL.Op] = []
    for done, block in enumerate(WL.GENERATORS[workload](seed)):
        if run.wall_s >= seconds or done == blocks:
            break
        for op, inputs in [(op, WL.prepare(lib, op)) for op in block]:
            while run.wall_s >= len(run.reference_s) * REFERENCE_EVERY_S:
                run.reference_s.append(measure_reference())
            if len(run.setup_s) < setup_probes and (
                    run.wall_s >= len(run.setup_s) * seconds / setup_probes):
                run.setup_s.append(measure_setup(workload))
            if group and group[0].group != op.group:
                WL.check_group(lib, group, results)
                results.clear()
                group = []
            group.append(op)
            fn = functools.partial(WL.call, lib, op, inputs)
            wall_t0 = time.perf_counter()
            if tracer is None:
                result, dt, failure = timed_call(fn, OP_LIMIT_S)
            else:
                result, dt, failure, plain_dt = traced_call(tracer, lib, op, fn)
                run.untraced_s += plain_dt
            run.wall_s += time.perf_counter() - wall_t0
            run.busy_s += dt
            run.latencies.append(math.inf if failure else dt)
            run.note_input(op)
            if failure:
                run.failures.append({"op": op.id, "kind": op.kind, "structure": op.structure,
                                     "n": op.n, "reason": failure})
            else:
                results[op.id] = result
    WL.check_group(lib, group, results)
    while len(run.setup_s) < setup_probes:
        run.setup_s.append(measure_setup(workload))
    return run


def traced_call(tracer, lib: WL.Library, op: WL.Op, fn):
    """Run the op once traced and once untraced, untraced first for even op
    ids and second for odd ones, so that any warm-up favours neither.
    Returns the traced call's (result, seconds, failure) and the untraced
    seconds, the base of trace.overhead_ratio: it is measured next to the
    traced call because on a shared two-core machine (Python 3.11) CPU speed
    was seen to drift by tens of percent within a minute."""
    plain_dt = timed_call(fn, OP_LIMIT_S)[1] if op.id % 2 == 0 else 0.0
    tracer.install(lib.package)
    mark = tracer.mark()
    try:
        result, dt, failure = timed_call(tracer.wrap("op." + op.kind, fn), OP_LIMIT_S)
        if failure:
            tracer.repair(mark)
    finally:
        tracer.uninstall()
    if op.id % 2 == 1:
        plain_dt = timed_call(fn, OP_LIMIT_S)[1]
    return result, dt, failure, plain_dt


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed ops (inf) sort after every success."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_setup(workload: str) -> float:
    """CPU seconds from process start to ready, for a fresh process that
    imports braidkit and builds the workload's structures; the process
    reports them itself when it is ready."""
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), "setup", workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().split()
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or len(line) != 2 or line[0] != "ready":
        raise RuntimeError("setup probe failed")
    return float(line[1])


def _child_json(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _details(workload: str, seed: int, run: Run, **more) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "op_limit_s": OP_LIMIT_S,
        "inputs_sha256": run.sha.hexdigest(),
        "inputs_sha256_first100": run.sha_first100,
        "latency_samples": run.attempted,
        "input_size": {
            "n_range": [min(run.n_values), max(run.n_values)] if run.n_values else None,
            "mean_word_length": run.word_letters / run.words if run.words else None,
        },
        "op_mix": dict(sorted(run.kinds.items())),
        "failures": run.failures,
        **more,
    }


def end_to_end(lib, workload: str, seed: int, seconds: float) -> dict:
    run = timed_phase(lib, workload, seed, seconds, setup_probes=SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_mean_s = statistics.fmean(run.reference_s)
    scale = REFERENCE_NOMINAL_S / reference_mean_s
    latency_ms = [x * 1e3 for x in run.latencies]
    # a failed op missed every limit; a percentile landing on one reads as the limit
    limit_ms = OP_LIMIT_S * 1e3
    cpu = {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": run.succeeded / run.busy_s,
        "latency_p50_ms": min(percentile(latency_ms, 0.5), limit_ms),
        "latency_p90_ms": min(percentile(latency_ms, 0.9), limit_ms),
    }
    metrics = {
        "setup_s": _metric(cpu["setup_s"] * scale, "s"),
        "ops_per_s": _metric(cpu["ops_per_s"] / scale, "1/s"),
        "latency_p50_ms": _metric(min(cpu["latency_p50_ms"] * scale, limit_ms), "ms"),
        "latency_p90_ms": _metric(min(cpu["latency_p90_ms"] * scale, limit_ms), "ms"),
        "ok_frac": _metric(run.succeeded / run.attempted, "ratio"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    details = _details(workload, seed, run, seconds=seconds, setup_samples=run.setup_s,
                       busy_cpu_s=run.busy_s, busy_wall_s=run.wall_s, unscaled_cpu=cpu,
                       reference={"samples": len(run.reference_s), "mean_s": reference_mean_s,
                                  "scale": scale})
    return {"details": details, "correct": True, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def pinned_probe(lib) -> dict[str, float]:
    """Seconds each pinned instance takes, at most the limit, and how many
    failed (ran past the limit or hit a library cap)."""
    out, failed = {}, 0
    for kind, n, x, y in WL.PINNED:
        op = WL.Op(-1, "conj-pos", kind, n, (x, y), -1, True)
        inputs = WL.prepare(lib, op)
        cert, dt, failure = timed_call(lambda: WL.call(lib, op, inputs), PINNED_LIMIT_S)
        if failure:
            failed += 1
            dt = PINNED_LIMIT_S
        else:
            WL.check_group(lib, [op], {op.id: cert})
        out[f"engine.pinned.{kind}-b{n}.s"] = dt
    out["engine.pinned.failed"] = failed
    return out


ENGINE_CALLS = ("normal_form", "words_equal", "conjugacy_solve", "sliding_circuits",
                "solve_pair_to_generators")
SUBGROUP_CALLS = ("kernel_abelianization", "k4_rewrite", "free_words_check")
TIMED_CALLS = tuple(f"engine.{fn}" for fn in ENGINE_CALLS) + tuple(
    f"subgroups.{fn}" for fn in SUBGROUP_CALLS)


def layer_metrics(summary, tracer, ratio: float) -> dict:
    m: dict[str, dict] = {}
    for kind in ("classical", "band"):
        p = f"garside.{kind}"
        m[f"{p}.self_s"] = _metric(summary.layer_self_s(p), "s")
        calls = summary.count(f"{p}.normalize_pair")
        moved = tracer.moved.get(f"{p}.normalize_pair", 0)
        m[f"{p}.normalize_pair.calls"] = _metric(calls, "count")
        m[f"{p}.normalize_pair.moved_ratio"] = _metric(moved / calls if calls else 0.0, "ratio")
        for prim in ("normalize_pair_right", "meet", "complement", "twist", "mul", "simples"):
            m[f"{p}.{prim}.calls"] = _metric(summary.count(f"{p}.{prim}"), "count")
    m["engine.self_s"] = _metric(summary.layer_self_s("engine"), "s")
    for fn in ("from_word", "mul", "inv", "conjugate", "preferred_prefix"):
        m[f"engine.{fn}.calls"] = _metric(summary.count(f"engine.{fn}"), "count")
    vertices = tracer.returned.get("engine.sliding_circuits_with_trails", 0)
    tried = summary.calls_under("engine.conjugate", "engine.sliding_circuits_with_trails")
    m["engine.sc.vertices"] = _metric(vertices, "count")
    m["engine.sc.conjugate.calls"] = _metric(tried, "count")
    m["engine.sc.useful_ratio"] = _metric(vertices / tried if tried else 0.0, "ratio")
    for fn in ENGINE_CALLS:
        m[f"engine.{fn}.p50_ms"] = _metric(summary.median_ms(f"engine.{fn}"), "ms")
    m["words.self_s"] = _metric(summary.layer_self_s("words"), "s")
    m["words.free_reduce.calls"] = _metric(summary.count("words.free_reduce"), "count")
    for layer in ("purebraid", "cabling", "reptheory", "subgroups"):
        m[f"{layer}.self_s"] = _metric(summary.layer_self_s(layer), "s")
    m["subgroups.kernel_abelianization.ms"] = _metric(
        summary.median_ms("subgroups.kernel_abelianization"), "ms")
    m["subgroups.k4_rewrite.p50_ms"] = _metric(summary.median_ms("subgroups.k4_rewrite"), "ms")
    m["subgroups.free_words_check.ms"] = _metric(
        summary.median_ms("subgroups.free_words_check"), "ms")
    m["trace.overhead_ratio"] = _metric(ratio, "ratio")
    return m


def traced(lib, workload: str, seed: int) -> dict:
    """The per-layer run: the traced loop, then, untraced and one after the
    other, the pinned instances, the primitive micro-timings and the
    seed-1729 ledger in a fresh process.  Nothing runs beside anything
    else, so every figure is taken under the same conditions on every
    commit."""
    from micro import micro_timings
    from tracer import Tracer

    tracer = Tracer()
    blocks = TRACED_BLOCKS[workload]
    run = timed_phase(lib, workload, seed, blocks=blocks, tracer=tracer)
    summary = tracer.summary(timed=TIMED_CALLS)
    trace_dir = HERE / "traces"
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"{workload}.spans.gz")

    metrics = layer_metrics(summary, tracer, run.busy_s / run.untraced_s)
    for name, value in pinned_probe(lib).items():
        metrics[name] = _metric(value, "count" if name.endswith("failed") else "s")
    for name, value in micro_timings(lib.G, seed).items():
        metrics[name] = _metric(value, "us")
    for check_id, secs in _child_json([str(HERE / "probe.py"), "ledger"]).items():
        name = "ledger.total_s" if check_id == "total" else f"ledger.{check_id}.s"
        metrics[name] = _metric(secs, "s")
    details = _details(workload, seed, run, blocks=blocks, traced_busy_s=run.busy_s,
                       untraced_busy_s=run.untraced_s, spans=len(tracer.span_name))
    return {"details": details, "correct": True, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> int:
    combined = {}
    for workload in WORKLOADS:
        out = _child_json([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
        combined[workload] = out
        print(f"== {workload}: attempted {out['attempted']}, failed {out['failed']}")
        for name, metric in out["metrics"].items():
            print(f"  {name:52} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase; traced runs do TRACED_BLOCKS instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    signal.signal(signal.SIGALRM, _on_alarm)
    lib = WL.Library()
    lib.structures(args.workload)
    try:
        if args.trace:
            out = traced(lib, args.workload, args.seed)
        else:
            out = end_to_end(lib, args.workload, args.seed, args.seconds)
    except WL.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out.pop("details")))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
