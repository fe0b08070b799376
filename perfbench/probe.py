"""Fresh-process probes started by run.py.

``probe.py setup <workload>``: import braidkit and build every structure the
workload uses, then print ``ready`` and the CPU seconds this process has
used since it started (interpreter start-up included).

``probe.py ledger``: run the verification ledger at seed 1729 through
``run_ledger`` and print one JSON object of per-check seconds plus the
total wall time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        import workloads

        workloads.Library().structures(argv[1])
        print("ready", time.process_time(), flush=True)
        return 0
    if argv == ["ledger"]:
        from braidkit.ledger import run_ledger

        t0 = time.perf_counter()
        results = run_ledger(seed=1729)
        total = time.perf_counter() - t0
        blob = {r.check_id: r.elapsed_ms / 1e3 for r in results}
        blob["total"] = total
        print(json.dumps(blob))
        return 0
    print("usage: probe.py setup <workload> | probe.py ledger", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
