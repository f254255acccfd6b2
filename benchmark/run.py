"""Benchmark of the spwaves solver.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation imports spwaves afresh, sets
the workload up, solves it and checks the result; operations repeat until
S seconds have passed.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries run metadata.

With ``--trace 0`` the metrics are end to end, each the median over the
run's operations: ``wall_s`` (first solver call to last result),
``setup_s`` (from ``import spwaves`` until ready to solve) and
``peak_rss_mb`` (peak resident memory of the process).  With ``--trace 1``
untraced and traced operations alternate, the metrics are per layer (see
tracing.py), and the spans of the last traced operation are written to
``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# numpy and scipy are imported once per process, before any timed set-up
import numpy as np
import scipy
import scipy.fft

from tracing import LAYERS, UNITS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
# Coulomb solves timed for the single-CPU reference, per grid size
SERIAL_SOLVES = {32: 40, 96: 6}


def import_spwaves() -> SimpleNamespace:
    """Import the package's modules from this checkout, discarding earlier imports."""
    for name in [m for m in sys.modules if m == "spwaves" or m.startswith("spwaves.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sw = SimpleNamespace(**{layer: importlib.import_module(f"spwaves.{layer}") for layer in LAYERS})
    if SRC not in Path(sw.grid.__file__).resolve().parents:
        raise ImportError(f"spwaves was imported from {sw.grid.__file__}, not from {SRC}")
    return sw


def run_op(wl, seed: int, instance: int, tracer: Tracer | None = None) -> dict:
    """One operation on one instance: fresh import and set-up (repeated
    wl.setup_reps times), solve, check.  Returns its timings, failures and,
    if traced, the per-layer metrics of the last set-up and the solve."""
    setups = []
    try:
        for _ in range(wl.setup_reps):
            gc.collect()
            t0 = time.perf_counter()
            sw = import_spwaves()
            if tracer is not None:
                tracer.uninstall()
                tracer.spans.clear()
                tracer.install(sw)
            state = wl.setup(sw, seed, instance)
            setups.append(time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        result = wl.solve(sw, state)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"setup_s": setups, "wall_s": wall, "fails": wl.check(sw, state, result, seed)}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wl.flows(result))
    return out


def serial_coulomb_ms(n: int) -> float:
    """Median Coulomb solve time at N=n, L=16, with the process pinned to one CPU."""
    sw = import_spwaves()
    grid = sw.grid.Grid3(n, 16.0)
    ws = sw.grid.SpectralWorkspace(grid)
    dens = np.exp(-grid.radius_sq() / 2.0)
    ws.coulomb(dens)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        times = []
        for _ in range(SERIAL_SOLVES[n]):
            t0 = time.perf_counter()
            ws.coulomb(dens)
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, allowed)
    return 1e3 * statistics.median(times)


def metadata(wl, seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    src_lines = sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "spwaves").glob("*.py")))
    workers = getattr(sys.modules.get("spwaves.grid"), "_FFT_WORKERS", None)
    if isinstance(workers, int) and workers < 0:
        workers = os.cpu_count() + 1 + workers
    return {
        "workload": wl.name,
        "seed": seed,
        "git_sha": sha,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "fft_workers": workers,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        import_spwaves()
    except ImportError as exc:
        print(f"cannot import spwaves from {SRC}: {exc}", file=sys.stderr)
        return 2

    ops, traced = [], []
    start = time.perf_counter()
    while len(ops) + len(traced) == 0 or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        # with tracing, untraced and traced operations alternate in pairs on one instance
        tracer = Tracer() if args.trace and len(ops) > len(traced) else None
        try:
            op = run_op(wl, args.seed, len(ops) if tracer is None else len(traced), tracer)
        except Exception:
            traceback.print_exc()
            op = {"fails": ["raised"]}
        for msg in op["fails"]:
            print(f"{wl.name}: check failed: {msg}", file=sys.stderr)
        (ops if tracer is None else traced).append(op)
        if tracer is not None and "layers" in op:
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write(TRACE_DIR / f"{wl.name}-seed{args.seed}.jsonl")

    done = [op for op in ops + traced if "wall_s" in op]
    failed = sum(1 for op in ops + traced if op["fails"])
    if args.trace:
        layer_ops = [op["layers"] for op in traced if "layers" in op]
        values = {k: statistics.median_low([m[k] for m in layer_ops]) for k in layer_ops[0]} if layer_ops else {}
        plain = [op["wall_s"] for op in ops if "wall_s" in op]
        with_trace = [op["wall_s"] for op in traced if "wall_s" in op]
        if plain and with_trace:
            values["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
        values["grid.coulomb_ms_1cpu"] = serial_coulomb_ms(wl.n)
        metrics = {k: {"value": v, "unit": UNITS[k.split(".", 1)[1]]} for k, v in values.items()}
    else:
        metrics = {}
        if done:
            metrics["wall_s"] = {"value": statistics.median(op["wall_s"] for op in done), "unit": "s"}
            setups = [t for op in done for t in op["setup_s"]]
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    meta = metadata(wl, args.seed)
    meta["op_wall_s"] = [op["wall_s"] for op in done]
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops) + len(traced),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
