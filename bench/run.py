"""lpflow benchmark: one command for the three workloads.

    python3 bench/run.py --workload dynamics-64 --seed 1 --seconds 32 --trace 0

Run from the repository root.  Each run starts fresh worker processes with
BLAS/OpenMP threads pinned: one worker that sets up and runs ops in a
closed loop (one client; the next op starts when the previous one returns)
for ``--seconds``, with set-up-only workers before and after it.  The median
of all set-up times is ``setup_s``.
Every op's outputs are checked.  Human-readable lines come first; the last
line of standard output is the JSON result.  The full results, with the
environment fingerprint and, for ``--trace 1``, every span, are written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.worker import THREAD_VARS  # noqa: E402

WORKLOADS = ("dynamics-64", "solve-large", "analysis-64")
THREADS = 1            # pinned BLAS/OpenMP threads; never above nproc
SETUP_RUNS = 11        # fresh processes whose set-up times give setup_s
DEADLINE_S = 170.0     # the whole run, every worker included


def percentile_with_ten_beyond(values: list[float]):
    """Highest of p50/p90/p95/p99 with at least ten samples above it, or None."""
    n = len(values)
    for p in (99, 95, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def _worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update({v: str(THREADS) for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    cmd = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(raw: dict, setup_samples: list[float], trace: bool):
    """(metrics for the JSON line, extra lines to print, attempted, failed)."""
    ops = raw["ops"]
    plain = [o["seconds"] for o in ops if not o["traced"]]
    attempted = len(ops)
    failed = sum(1 for o in ops if o["failures"])
    op_s = statistics.median(plain)
    tail = percentile_with_ten_beyond(plain)
    lines = [
        f"op_s is the median of {len(plain)} untraced ops; "
        + (f"p{tail[0]} {tail[1]:.6f} s" if tail else
           "no percentile has ten samples beyond it"),
        f"fail_ratio {failed / attempted:g} (failed ops / {attempted} attempted)",
    ]
    work: dict[str, list[float]] = {}
    for o in ops:
        for name, (units, secs) in o["work"].items():
            entry = work.setdefault(name, [0.0, 0.0])
            entry[0] += units
            entry[1] += o["seconds"] if secs is None else secs
    for name, (units, secs) in sorted(work.items()):
        lines.append(f"{name} {units / secs:.6g} 1/s ({units:g} requested in {secs:.3f} s)")

    if not trace:
        metrics = {
            "op_s": (op_s, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        return metrics, lines, attempted, failed

    traced = [o["seconds"] for o in ops if o["traced"]]
    traced_s = statistics.median(traced)
    metrics = {name: (ms, "ms") for name, ms in raw["layers"].items()}
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.span_coverage_pct"] = (100.0 * min(raw["coverage"]), "%")
    # Printed, not a metric: with a few ops on each side the gap is noise
    # far above the true cost of one perf_counter pair per library call.
    lines.append(f"tracing overhead {100.0 * (traced_s - op_s) / op_s:+.1f}%: traced op "
                 f"{traced_s:.6f} s vs untraced {op_s:.6f} s over "
                 f"{len(traced)} + {len(plain)} ops")
    for name, value in raw["computed"].items():
        unit = "MB" if name.startswith("fields.transform_mb") else "Mflop"
        lines.append(f"{name} {value:.6g} {unit} (computed)")
    for name, s in raw["span_summary"].items():
        lines.append(f"{name}.self_s {s['self_s']:.6f} s  {name}.calls {s['calls']:g}")
    return metrics, lines, attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "lpflow" / "__init__.py").is_file():
        print(f"bench: no lpflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    results = ROOT / "bench" / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = results / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Set-up-only workers run on both sides of the measuring one, so the
    # set-up samples span the run as the op samples do.
    probes = (SETUP_RUNS - 1) // 2
    try:
        setup_samples = [_worker(args, workdir, deadline, True)["setup_s"]
                         for _ in range(probes)]
        raw = _worker(args, workdir, deadline, False)
        setup_samples += [_worker(args, workdir, deadline, True)["setup_s"]
                          for _ in range(SETUP_RUNS - 1 - probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_samples.insert(probes, raw["setup_s"])

    metrics, lines, attempted, failed = summarize(raw, setup_samples, bool(args.trace))
    print(f"bench {tag}: {attempted} ops, {failed} failed")
    for line in lines:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for o in raw["ops"]:
        for msg in o["failures"]:
            print(f"  op {o['op']} failed: {msg}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    full = dict(result, args=vars(args), setup_samples=setup_samples,
                notes=lines, **{k: v for k, v in raw.items() if k != "setup_s"})
    (results / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
