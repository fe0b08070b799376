"""Span tracing of braidkit from outside the program.

``Tracer.install`` replaces every public function of the traced modules, and
every public method of the two Garside structure classes, with a wrapper
that records one span per call: name, start, end and parent span.  A
function is replaced wherever a caller looks it up (a module attribute, or a
name another braidkit module imported with ``from ... import``), so calls
between modules are traced as well.  ``uninstall`` puts the originals back.

Spans live in flat arrays (24 bytes each) and are summarised only after the
run: a span's self time is its duration minus the time its child spans
cover.  The wrapper itself does no arithmetic, which keeps the overhead per
call small; the benchmark reports it as ``trace.overhead_ratio``.

The constant-time accessors of the structures (``UNTRACED_METHODS``) are
left alone: they are called several times per primitive, and wrapping them
would double the number of spans while their time, charged to the caller,
is negligible.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
import time
from array import array

# Layers traced as whole modules: every public module-level function.
FUNCTION_LAYERS = ("words", "engine", "purebraid", "cabling", "reptheory", "subgroups")
UNTRACED_METHODS = frozenset({"identity", "delta", "is_identity", "is_delta"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        # counts read off results at the boundary, by span name
        self.moved: dict[str, int] = {}
        self.returned: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """A traced version of ``fn``; ``on_result(name, result)`` may count
        something about each returned value."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(name, result)
            return result

        return traced

    def mark(self) -> tuple[int, int]:
        """State to return to if a call is interrupted (see ``repair``)."""
        return len(self.stack), len(self.span_name)

    def repair(self, mark: tuple[int, int]):
        """Restore consistency after an exception raised asynchronously
        (the per-op time limit) possibly inside the wrapper's own
        bookkeeping: trim the arrays to a common length, close open spans
        at the current time and drop stack frames opened since ``mark``."""
        depth, first = mark
        n = min(len(self.span_name), len(self.span_parent),
                len(self.span_start), len(self.span_end))
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[n:]
        now = time.perf_counter()
        for i in range(first, n):
            if self.span_end[i] == 0.0:
                self.span_end[i] = now
        del self.stack[depth:]

    # -- installing --------------------------------------------------------

    def _count_moved(self, name, result):
        self.moved[name] = self.moved.get(name, 0) + bool(result[2])

    def _count_returned(self, name, result):
        self.returned[name] = self.returned.get(name, 0) + len(result)

    def install(self, package):
        """Wrap braidkit's public surface.  ``package`` is the imported
        ``braidkit`` package; its submodules must already be imported."""
        from braidkit import garside, subgroups

        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        replacements: dict[int, tuple] = {}
        for layer in FUNCTION_LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                hook = None
                if layer == "engine" and attr == "sliding_circuits_with_trails":
                    hook = self._count_returned
                replacements[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj, hook))
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

        for cls in (garside.ClassicalStructure, garside.BandStructure):
            for attr in _public_methods(cls):
                orig = getattr(cls, attr)
                hook = self._count_moved if attr.startswith("normalize_pair") else None
                self._patch(cls, attr, self.wrap(f"garside.{cls.kind}.{attr}", orig, hook))
        ka = subgroups.KernelAbelianization
        self._patch(ka, "coordinates", self.wrap("subgroups.coordinates", ka.coordinates))

    def _patch(self, owner, attr: str, new):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- summarising -------------------------------------------------------

    def summary(self, timed=()) -> "TraceSummary":
        return TraceSummary(self, timed)

    def write(self, path):
        """Write every span, gzip-compressed: one JSON header line naming the
        spans and the array layout, then the four arrays' native bytes
        (name id, parent index or -1, start and end in seconds on the run's
        perf_counter)."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                out.write(arr.tobytes())


def _public_methods(cls) -> list[str]:
    out = []
    for klass in cls.__mro__:
        if klass is object:
            continue
        for attr, value in vars(klass).items():
            if attr.startswith("_") or attr in out or attr in UNTRACED_METHODS:
                continue
            if inspect.isfunction(value):
                out.append(attr)
    return sorted(out)


class TraceSummary:
    """Per-name call counts and self seconds, and the span durations of the
    names in ``timed``."""

    def __init__(self, tracer: Tracer, timed=()):
        k = len(tracer.names)
        self.names = tracer.names
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self._by_name = {name: i for i, name in enumerate(self.names)}
        self.durations: dict[int, list[float]] = {
            self._by_name[name]: [] for name in timed if name in self._by_name}
        names, parents = tracer.span_name, tracer.span_parent
        starts, ends = tracer.span_start, tracer.span_end
        child = array("d", bytes(8 * len(names)))
        for i in range(len(names)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for i in range(len(names)):
            nid = names[i]
            dur = ends[i] - starts[i]
            self.calls[nid] += 1
            self.self_s[nid] += dur - child[i]
            if nid in self.durations:
                self.durations[nid].append(dur)
        self._tracer = tracer

    def count(self, name: str) -> int:
        i = self._by_name.get(name)
        return 0 if i is None else self.calls[i]

    def layer_self_s(self, prefix: str) -> float:
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.startswith(prefix + "."))

    def median_ms(self, name: str) -> float:
        """Median span duration in ms of a name summarised as ``timed``; 0.0
        when the function was not called."""
        durations = self.durations.get(self._by_name.get(name))
        return statistics.median(durations) * 1e3 if durations else 0.0

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made while a call of ``ancestor`` was open."""
        t = self._tracer
        target, anc = self._by_name.get(name), self._by_name.get(ancestor)
        if target is None or anc is None:
            return 0
        names, parents = t.span_name, t.span_parent
        hits = 0
        for i in range(len(names)):
            if names[i] != target:
                continue
            p = parents[i]
            while p >= 0:
                if names[p] == anc:
                    hits += 1
                    break
                p = parents[p]
        return hits
