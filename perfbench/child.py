"""One fresh interpreter's share of a workload pass.

    python3 perfbench/child.py '{"workload": ..., "part": 0, "seed": 1,
                                 "trace": false, "run_id": "...",
                                 "setup_only": false}'

Times the import of each dycksurf module in dependency order plus the input
generation (the set-up), runs the part's operations, and prints one JSON
line: set-up, import times, operation records, ru_maxrss and, when traced,
the span summary.  The program's own output is captured, never printed.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    mods, imports = {}, {}
    for name in tracing.IMPORT_ORDER:
        t = time.perf_counter()
        mods[name] = importlib.import_module(f"dycksurf.{name}")
        imports[name] = time.perf_counter() - t
    inputs = workloads.generate_inputs(spec["workload"], spec["seed"])
    setup = time.perf_counter() - t0
    out = {"setup_s": setup, "imports": imports, "ops": []}
    if not spec.get("setup_only"):
        tr = None
        if spec["trace"]:
            tr = tracing.Tracer(spec["run_id"])
            tracing.instrument(mods, tr)
        run = workloads.RUNNERS[spec["workload"]]
        try:
            out["ops"] = run(spec["part"], inputs, mods)
        except Exception:  # reported to the parent as failed operations
            out["error"] = traceback.format_exc()
        if tr is not None:
            out["trace"] = tracing.summarize(tr)
            out["spans"] = tr.spans
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
