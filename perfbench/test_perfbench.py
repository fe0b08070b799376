"""Tests of the benchmark itself: a wrong answer fails the run, traced or
not; a slow op or one that hits a library cap becomes a failed op instead of
a hang or an abort; reported times are the CPU times scaled by the
reference kernel; inputs depend on the seed alone; and the tracer's self
time adds up.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as R  # noqa: E402
import workloads as WL  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return WL.Library()


def _first_ops(workload: str, seed: int, count: int) -> list[WL.Op]:
    ops = itertools.chain.from_iterable(WL.GENERATORS[workload](seed))
    return list(itertools.islice(ops, count))


def _groups(ops):
    out: dict[int, list] = {}
    for op in ops:
        out.setdefault(op.group, []).append(op)
    return list(out.values())


@pytest.mark.parametrize("workload", R.WORKLOADS)
def test_true_answers_pass_every_check(lib, workload):
    ops = _first_ops(workload, 5, 40 if workload != "conjugacy" else 12)
    results = {op.id: WL.call(lib, op, WL.prepare(lib, op)) for op in ops}
    for group in _groups(ops):
        WL.check_group(lib, group, results)


@pytest.mark.parametrize("kind", ["eq-equal", "eq-unequal", "nf-left", "nf-right"])
def test_wrong_word_problem_answer_is_caught(lib, kind):
    ops = [op for op in _first_ops("word-problem", 3, 200) if op.kind == kind]
    op = min(ops, key=lambda o: len(o.args[0]))
    result = WL.call(lib, op, WL.prepare(lib, op))
    if kind.startswith("eq"):
        wrong = not result
    else:
        # the normal form of a word with one letter dropped
        shorter = WL.Op(op.id, op.kind, op.structure, op.n, (op.args[0][1:],), op.group)
        wrong = WL.call(lib, shorter, WL.prepare(lib, shorter))
    with pytest.raises(WL.WrongAnswer):
        WL.check_group(lib, [op], {op.id: wrong})


def test_wrong_conjugacy_answers_are_caught(lib):
    ops = _first_ops("conjugacy", 3, 21)
    pos = next(op for op in ops if op.kind == "conj-pos" and op.n == 3)
    neg = next(op for op in ops if op.kind == "conj-neg" and op.n == 3)
    cert = WL.call(lib, pos, WL.prepare(lib, pos))
    bogus = type(cert)(True, lib.word(3, cert.witness.letters + (1,)))
    with pytest.raises(WL.WrongAnswer):
        WL.check_group(lib, [pos], {pos.id: bogus})
    with pytest.raises(WL.WrongAnswer):
        WL.check_group(lib, [neg], {neg.id: type(cert)(True, cert.witness)})


def test_wrong_answer_fails_the_run(tmp_path):
    """Inject a wrong answer into a real run: the run exits 1 and prints no
    result line."""
    shim = tmp_path / "inject.py"
    shim.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run, workloads\n"
        "real = workloads.call\n"
        "def lying(lib, op, inputs):\n"
        "    out = real(lib, op, inputs)\n"
        "    return (not out) if op.kind.startswith('eq') else out\n"
        "workloads.call = lying\n"
        "sys.exit(run.main(['--workload', 'word-problem', '--seed', '1', '--seconds', '1']))\n"
    )
    proc = subprocess.run([sys.executable, str(shim)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1
    assert "wrong answer" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_timeouts_are_recorded_with_op_id_and_kind(tmp_path):
    """With the per-op limit cut to 20 ms the slower conjugacy ops time out:
    the run still finishes, counts them as failed and names each one."""
    shim = tmp_path / "short_limit.py"
    shim.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "run.OP_LIMIT_S = 0.02\n"
        "sys.exit(run.main(['--workload', 'conjugacy', '--seed', '1', '--seconds', '1']))\n"
    )
    proc = subprocess.run([sys.executable, str(shim)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["failed"] > 0
    assert result["failed"] == len(details["failures"])
    assert all({"op", "kind"} <= set(f) for f in details["failures"])
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_cap_errors_are_recorded_as_failed_ops(tmp_path):
    """With the sliding-circuit cap cut to 1 the searches stop with the
    library's cap error: the run still finishes and names each failed op."""
    shim = tmp_path / "small_cap.py"
    shim.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "from braidkit import engine\n"
        "engine._SC_MAX = 1\n"
        "sys.exit(run.main(['--workload', 'conjugacy', '--seed', '1', '--seconds', '1']))\n"
    )
    proc = subprocess.run([sys.executable, str(shim)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["failed"] == len(details["failures"]) > 0
    assert all("cap exceeded" in f["reason"] for f in details["failures"])
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_reported_times_are_cpu_times_scaled_by_the_reference(capsys):
    assert R.main(["--workload", "invariants", "--seed", "1", "--seconds", "1"]) == 0
    details, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    reference, cpu, metrics = details["reference"], details["unscaled_cpu"], result["metrics"]
    assert reference["samples"] >= 5
    assert reference["scale"] == pytest.approx(R.REFERENCE_NOMINAL_S / reference["mean_s"])
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms"):
        assert metrics[name]["value"] == pytest.approx(cpu[name] * reference["scale"])
    assert metrics["ops_per_s"]["value"] == pytest.approx(cpu["ops_per_s"] / reference["scale"])


def _run_with_alarm(fn, limit_s):
    previous = signal.signal(signal.SIGALRM, R._on_alarm)
    try:
        return R.timed_call(fn, limit_s)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_slow_op_is_a_failed_op_not_a_hang():
    def spin(seconds=5.0):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    start = time.perf_counter()
    result, dt, failure = _run_with_alarm(spin, 0.2)
    assert failure and result is None
    assert 0.0 < dt < 1.0  # CPU seconds of the stopped call
    assert time.perf_counter() - start < 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_only_cap_errors_become_failed_ops():
    def capped():
        raise RuntimeError("sliding circuit cap exceeded")

    def broken():
        raise ValueError("strand-count mismatch")

    result, _, failure = _run_with_alarm(capped, 5.0)
    assert result is None and failure == "sliding circuit cap exceeded"
    with pytest.raises(ValueError):
        _run_with_alarm(broken, 5.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_loop_checks_answers(lib, monkeypatch):
    """The traced loop checks every group as the untraced one does."""
    from tracer import Tracer

    real = WL.call

    def lying(lib, op, inputs):
        out = real(lib, op, inputs)
        return (not out) if op.kind.startswith("eq") else out

    monkeypatch.setattr(WL, "call", lying)
    previous = signal.signal(signal.SIGALRM, R._on_alarm)
    try:
        with pytest.raises(WL.WrongAnswer):
            R.timed_phase(lib, "word-problem", 1, blocks=1, tracer=Tracer())
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", R.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(workload):
    def text(seed):
        return [WL.canonical(op) for op in _first_ops(workload, seed, 60)]

    assert text(7) == text(7)
    assert text(7) != text(8)


def test_percentile_sorts_failures_last():
    values = [1.0] * 95 + [float("inf")] * 5
    assert R.percentile(values, 0.5) == 1.0
    assert R.percentile(values, 0.9) == 1.0
    assert R.percentile([1.0] * 85 + [float("inf")] * 15, 0.9) == float("inf")


def test_tracer_self_time_and_restore(lib):
    from tracer import Tracer

    E = lib.E
    original = E.conjugate
    st = lib.G.structure("band", 4)
    x = E.from_word(st, lib.word(4, (1, -2, 3)))
    tracer = Tracer()
    tracer.install(lib.package)
    try:
        E.sliding_circuits(st, lib.word(4, (1, -2, 3)))
        E.conjugacy_solve(st, lib.word(4, (1,)), lib.word(4, (2,)))
    finally:
        tracer.uninstall()
    assert E.conjugate is original
    summary = tracer.summary()
    assert summary.count("engine.sliding_circuits") == 1
    assert summary.count("engine.conjugate") > 0
    assert summary.count("garside.band.meet") > 0
    assert tracer.returned["engine.sliding_circuits_with_trails"] >= 1
    assert summary.calls_under("engine.conjugate", "engine.sliding_circuits_with_trails") > 0
    # self times of all spans add up to the root spans' total time
    roots = sum(e - s for p, s, e in zip(tracer.span_parent, tracer.span_start,
                                          tracer.span_end) if p < 0)
    assert abs(sum(summary.self_s) - roots) < 1e-6 * max(1, len(tracer.span_name))
    assert E.from_word(st, lib.word(4, (1, -2, 3))) == x
