"""Per-layer latencies: the median wall time of one public call per layer.

Each layer is timed from outside, through its public functions, at the three
reference grids.  ``computed_counts`` gives the transform operation count and
array bytes, which are computed, not measured.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

from lpflow import (Grid, SolverConfig, bony, commutator_sequence,
                    default_bank, dft_forward, dft_inverse, euler_rhs,
                    flow_map, hl_maximal, leray_project, read_field, solve,
                    tl_norm, write_field)
from lpflow.bank import decompose
from lpflow.fields import vector_as_spectral
from lpflow.iteration import iterate
from lpflow.norms import field_norm, kernel_l1_terms

from . import inputs
from .workloads import SPEC, grid_label

GRIDS = (Grid(64, 2), Grid(256, 2), Grid(32, 3))
SMALL = GRIDS[0]
GRID_LAYERS = ("fields.transform_ms", "euler.rhs_ms", "euler.leray_ms",
               "euler.rk4_step_ms", "bank.decompose_ms", "norms.tl_norm_ms",
               "norms.field_norm_ms", "maximal.hl_maximal_ms",
               "paraproduct.bony_ms", "paraproduct.commutator_sequence_ms",
               "fields.lpf_write_ms", "fields.lpf_read_ms")
SMALL_LAYERS = ("euler.flowmap_eval_ms", "iteration.member_step_ms")


def names() -> list[str]:
    """Every metric :func:`measure` returns, in order."""
    return ([f"{name}.{grid_label(g)}" for g in GRIDS for name in GRID_LAYERS]
            + [f"{name}.{grid_label(SMALL)}" for name in SMALL_LAYERS]
            + ["norms.kernel_term_ms"])


MIN_REPS, MAX_REPS = 3, 15


def median_seconds(fn, budget: float = 0.3, warm_up: bool = True) -> float:
    """Median of 3-15 calls within ``budget`` s, after one warm-up call unless
    told otherwise."""
    if warm_up:
        fn()
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or (len(times) < MAX_REPS
                                    and time.perf_counter() - start < budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _grid_cases(grid: Grid, seed: int, workdir: Path):
    rng = inputs.rng_for(seed, 1_000_000 + grid.n * 10 + grid.d)
    u = inputs.divfree_field(grid, rng, band=(1, 4), amplitude=0.5)
    us = vector_as_spectral(u)
    f = inputs.scalar_field(grid, rng)
    g = inputs.scalar_field(grid, rng)
    bank = default_bank(grid.n, grid.d)
    step = SolverConfig(dt=1e-3, T=1e-3)
    path = workdir / f"layer_{grid_label(grid)}.lpf"
    calls = (
        lambda: dft_inverse(dft_forward(f)),
        lambda: euler_rhs(us),
        lambda: leray_project(us),
        lambda: solve(u, step),
        lambda: decompose(bank, f),
        lambda: tl_norm(bank, f, SPEC),
        lambda: field_norm(bank, u, SPEC),
        lambda: hl_maximal(f),
        lambda: bony(bank, f, g),
        lambda: commutator_sequence(bank, u, f),
        lambda: write_field(u, path),
        lambda: read_field(path),
    )
    return dict(zip(GRID_LAYERS, calls))


def measure(seed: int, workdir: Path) -> dict[str, float]:
    """Every per-layer latency, in milliseconds."""
    out: dict[str, float] = {}
    for grid in GRIDS:
        for name, fn in _grid_cases(grid, seed, workdir).items():
            out[f"{name}.{grid_label(grid)}"] = 1e3 * median_seconds(fn)

    rng = inputs.rng_for(seed, 2_000_000)
    u = inputs.divfree_field(SMALL, rng, band=(1, 4), amplitude=0.4)
    dt = 0.05
    traj = solve(u, SolverConfig(dt=dt, T=2 * dt))
    # one particle step makes four full-lattice velocity evaluations
    flowmap_eval, member_step = (f"{name}.{grid_label(SMALL)}" for name in SMALL_LAYERS)
    out[flowmap_eval] = 1e3 * median_seconds(lambda: flow_map(traj, (0.0, 2 * dt))) / 4
    bank = default_bank(SMALL.n, SMALL.d)
    one = SolverConfig(dt=2e-3, T=2e-3)
    out[member_step] = 1e3 * median_seconds(lambda: iterate(bank, u, 2, one, SPEC))
    terms = len(kernel_l1_terms(refinement=7))   # doubles as the warm-up
    out["norms.kernel_term_ms"] = 1e3 * median_seconds(
        lambda: kernel_l1_terms(refinement=7), budget=0.0, warm_up=False) / terms
    return out


def computed_counts() -> dict[str, float]:
    """Flops of one transform pair, 2 x 5 N log2 N, and the array's bytes."""
    out = {}
    for grid in GRIDS:
        n_pts = grid.n**grid.d
        out[f"fields.transform_mflop.{grid_label(grid)}"] = 2 * 5 * n_pts * math.log2(n_pts) / 1e6
        out[f"fields.transform_mb.{grid_label(grid)}"] = 16 * n_pts / 2**20
    return out
