"""Benchmark of the dycksurf certificate engine.

    python3 perfbench/run.py --workload certify_cli --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout; the program is imported from ./src.

Load: one client in a closed loop.  This process starts one fresh
interpreter at a time and waits for it, so no run uses more than one core
for Python; the BLAS/OpenMP pools of every child are pinned to one thread.
Passes of the workload repeat until --seconds of operations have been
measured (at least one pass).  Set-up (import plus input generation) is
sampled in every interpreter and, when a run has few, in extra set-up-only
interpreters; setup_s is the median sample times the interpreters one pass
starts, i.e. the set-up a pass pays.

--trace 1 adds two traced passes after the untraced ones.  The benchmark's
own wrappers (tracing.py) record spans around the public functions of each
module; the per-module metrics come from those passes, their counts must
repeat exactly, and trace.overhead_ratio is traced over untraced wall_s.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1).  The lines before it print every metric
with its unit, sample count and tail percentile, and the environment; the
full record, spans included, goes to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_PINNING = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
CHILD_ENV = {**THREAD_PINNING, "PYTHONHASHSEED": "0"}
MIN_SETUP_SAMPLES = 5
TRACED_PASSES = 2
RUN_DEADLINE_S = 175  # a workload's run must end within 180 s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


# -- statistics ---------------------------------------------------------


def median(values):
    v = sorted(values)
    n = len(v)
    if not n:
        return 0.0
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def timing(values) -> dict:
    """Median, and the highest order statistic with at least ten samples
    beyond it (its quantile is (n - 10) / n), with the sample count."""
    v = sorted(values)
    tail = None
    if len(v) >= 11:
        tail = {"q": round((len(v) - 10) / len(v), 4), "value": v[len(v) - 11]}
    return {"median": median(v), "n": len(v), "tail": tail}


# -- environment --------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), **versions,
            "git_commit": _git_commit(), "source_digest": _source_digest(),
            "seed": seed, "thread_pinning": THREAD_PINNING,
            "pythonhashseed": CHILD_ENV["PYTHONHASHSEED"]}


# -- running interpreters -----------------------------------------------


def run_child(spec: dict, deadline: float) -> dict:
    env = {**os.environ, **CHILD_ENV}
    left = deadline - time.monotonic()
    if left <= 0:
        raise HarnessError("run deadline reached")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"child {spec} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, seed: int, trace: bool, run_id: str,
             deadline: float) -> list[dict]:
    parts = []
    for part in range(workloads.WORKLOADS[workload]["parts"]):
        spec = {"workload": workload, "part": part, "seed": seed,
                "trace": trace, "run_id": f"{run_id}.{part}"}
        res = run_child(spec, deadline)
        if "error" in res:
            n = workloads.expected_ops(workload)
            res["ops"] = [{"op": f"part{part}", "phase": None, "seconds": 0.0,
                           "ok": False, "known_defect": False,
                           "detail": res["error"]}] * n
        parts.append(res)
    return parts


def pass_summary(workload: str, parts: list[dict]) -> dict:
    ops = [op for p in parts for op in p["ops"]]
    phases = {ph: sum(op["seconds"] for op in ops if op["phase"] == ph)
              for ph in workloads.WORKLOADS[workload]["phases"]}
    return {"wall_s": sum(op["seconds"] for op in ops), "phases": phases,
            "ops": ops, "errors": [p["error"] for p in parts if "error" in p]}


# -- one workload -------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec_w = workloads.WORKLOADS[workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    interpreters = []
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        parts = run_pass(workload, seed, False,
                         f"{workload}.s{seed}.p{len(passes)}", deadline)
        interpreters += parts
        passes.append(pass_summary(workload, parts))
        measured += passes[-1]["wall_s"]

    traced, summaries = [], []
    if trace:
        for k in range(TRACED_PASSES):
            parts = run_pass(workload, seed, True, f"{workload}.s{seed}.t{k}",
                             deadline)
            interpreters += parts
            traced.append(pass_summary(workload, parts))
            summaries.append(parts)

    setup = [p["setup_s"] for p in interpreters]
    while len(setup) < MIN_SETUP_SAMPLES:
        probe = run_child({"workload": workload, "part": 0, "seed": seed,
                           "trace": False, "run_id": "setup",
                           "setup_only": True}, deadline)
        interpreters.append(probe)
        setup.append(probe["setup_s"])

    all_ops = [op for ps in passes + traced for op in ps["ops"]]
    failed = [op for op in all_ops if not op["ok"]]
    unexpected = [op for op in failed if not op["known_defect"]]
    errors = [e for ps in passes + traced for e in ps["errors"]]

    wall = timing([ps["wall_s"] for ps in passes])
    e2e = {
        "wall_s": wall,
        "setup_s": {**timing(setup), "per_pass": spec_w["parts"] * median(setup)},
        "peak_rss_mb": max(p["maxrss_mb"] for p in interpreters),
        "failed_frac": len(failed) / len(all_ops),
    }
    for ph in spec_w["phases"]:
        e2e[ph] = timing([ps["phases"][ph] for ps in passes])
        e2e[ph]["per_op"] = timing([op["seconds"] for ps in passes
                                    for op in ps["ops"] if op["phase"] == ph])

    result = {
        "workload": workload, "seed": seed,
        "passes": len(passes), "end_to_end": e2e,
        "attempted": len(all_ops), "failed": len(failed),
        "failed_by_op": _count_by_op(failed),
        "unexpected_failures": [_brief(op) for op in unexpected],
        "known_defect_failures": [_brief(op) for op in failed
                                  if op["known_defect"]],
        "errors": errors,
    }
    counts_ok = True
    if trace:
        per_pass = []
        for parts in summaries:
            per_pass.append(tracing.layer_metrics(
                [p["trace"] for p in parts], [p["imports"] for p in parts]))
        counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in per_pass]
        counts_ok = all(c == counts[0] for c in counts)
        layer = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
        layer["trace.wall_s"] = median([ps["wall_s"] for ps in traced])
        layer["trace.overhead_ratio"] = layer["trace.wall_s"] / wall["median"]
        result["per_layer"] = layer
        result["counts_repeat"] = counts_ok
        result["spans"] = [s for parts in summaries for p in parts
                           for s in p["spans"]]
    result["correct"] = not unexpected and not errors and counts_ok
    return result


def _brief(op):
    return {"op": op["op"], "detail": op["detail"][-400:]}


def _count_by_op(ops):
    out: dict[str, int] = {}
    for op in ops:
        out[op["op"]] = out.get(op["op"], 0) + 1
    return out


# -- output -------------------------------------------------------------


def _fmt_timing(name, t, unit="s"):
    tail = (f" p{100 * t['tail']['q']:.4g}={t['tail']['value']:.4f}"
            if t["tail"] else " tail=n/a")
    return f"  {name:<22} {t['median']:12.4f} {unit:<5} n={t['n']}{tail}"


def print_report(res: dict) -> None:
    e = res["end_to_end"]
    print(f"== {res['workload']} seed={res['seed']} passes={res['passes']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"correct={res['correct']}")
    print(_fmt_timing("wall_s", e["wall_s"]))
    print(f"  {'setup_s':<22} {e['setup_s']['per_pass']:12.4f} s     "
          f"(median interpreter {e['setup_s']['median']:.4f} s x "
          f"{workloads.WORKLOADS[res['workload']]['parts']}, "
          f"n={e['setup_s']['n']})")
    print(f"  {'peak_rss_mb':<22} {e['peak_rss_mb']:12.1f} MB")
    print(f"  {'failed_frac':<22} {e['failed_frac']:12.4f} ratio "
          f"{res['failed_by_op'] or ''}")
    for ph in workloads.WORKLOADS[res["workload"]]["phases"]:
        print(_fmt_timing(ph, e[ph]))
        print(_fmt_timing("  per operation", e[ph]["per_op"]))
    for op in res["unexpected_failures"][:5]:
        print(f"  UNEXPECTED FAILURE {op['op']}: {op['detail']}")
    if "per_layer" in res:
        units = {m: u for m, u, _ in tracing.PER_LAYER}
        print(f"  per-layer (traced, counts repeat: {res['counts_repeat']}):")
        for m, _, _ in tracing.PER_LAYER:
            note = (f"  [{tracing.COMPUTED_METRICS[m]}]"
                    if m in tracing.COMPUTED_METRICS else "")
            print(f"    {m:<44} {res['per_layer'][m]:16.6f} {units[m]}{note}")


def metrics_line(res: dict, trace: bool) -> dict:
    if trace:
        metrics = {m: {"value": res["per_layer"][m], "unit": u}
                   for m, u, _ in tracing.PER_LAYER}
    else:
        e = res["end_to_end"]
        values = {"wall_s": e["wall_s"]["median"],
                  "setup_s": e["setup_s"]["per_pass"],
                  "peak_rss_mb": e["peak_rss_mb"]}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def preflight() -> None:
    pkg = ROOT / "src" / "dycksurf"
    if not (pkg / "__init__.py").is_file():
        raise HarnessError(f"program source not found under {pkg}")
    # the checkout holds sources only; compile once so no run pays for it
    if not compileall.compile_dir(str(pkg), quiet=1):
        raise HarnessError("program source does not compile")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        preflight()
        env = environment(args.seed)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    for res in results:
        print_report(res)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "results": results}, indent=1, default=str))
    lines = [metrics_line(r, bool(args.trace)) for r in results]
    if len(lines) == 1:
        final = lines[0]
    else:
        final = {"correct": all(ln["correct"] for ln in lines),
                 "attempted": sum(ln["attempted"] for ln in lines),
                 "failed": sum(ln["failed"] for ln in lines),
                 "metrics": {f"{r['workload']}.{m}": v for r, ln in zip(results, lines)
                             for m, v in ln["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
