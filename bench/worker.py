"""One workload run in a fresh process: set up, run ops in a closed loop,
check every output, and print the raw results as one JSON line.

Started by ``bench/run.py`` as ``python -m bench.worker``; the thread
settings come from the environment it sets before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes=None, setup_only: bool = False) -> dict:
    """Set up, then run ops until ``seconds`` is spent; return raw results."""
    t0 = time.perf_counter()
    # Importing lpflow (numpy, scipy) is part of the measured set-up.
    from . import workloads
    from .tracing import Tracer, Untraced

    cls = workloads.WORKLOADS[name]
    wl = cls(workdir=workdir) if sizes is None else cls(sizes, workdir=workdir)
    wl.setup()
    inp = wl.inputs(seed, 0)
    setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}

    start = time.perf_counter()
    raw = {"setup_s": setup_s}
    tracer = Tracer() if trace else None
    if trace:
        # the per-layer latencies come out of the same --seconds budget
        from . import layers

        raw["layers"] = layers.measure(seed, workdir)
        raw["computed"] = layers.computed_counts()
    min_ops = 4 if trace else 3
    ops: list[dict] = []
    while True:
        i = len(ops)
        traced = trace and i % 2 == 1   # traced and untraced ops alternate
        if traced:
            tracer.op_id = i
        ctx = workloads.OpContext(tracer if traced else Untraced())
        t = time.perf_counter()
        try:
            out = wl.op(inp, ctx)
            secs = time.perf_counter() - t
            failures = wl.check(inp, out)
        except Exception:
            secs = time.perf_counter() - t
            failures = [traceback.format_exc(limit=4)]
        ops.append({"op": i, "traced": traced, "seconds": secs,
                    "failures": failures, "work": ctx.work})
        median = statistics.median(o["seconds"] for o in ops)
        if len(ops) >= min_ops and time.perf_counter() - start + median > seconds:
            break
        inp = wl.inputs(seed, i + 1)

    raw.update(ops=ops, env=fingerprint(),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace:
        traced = [o for o in ops if o["traced"]]
        raw["coverage"] = [tracer.top_level_seconds(o["op"]) / o["seconds"] for o in traced]
        raw["span_summary"] = tracer.summary([o["op"] for o in traced])
        raw["spans"] = tracer.to_json()
    return raw


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench.worker")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    raw = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
              setup_only=args.setup_only)
    sys.stdout.write(json.dumps(raw) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
