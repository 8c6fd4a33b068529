"""The three benchmark workloads, run against the public lpflow API.

Each workload has a ``setup`` (bank and multiplier construction, warm
caches), an ``inputs`` step that builds one op's fields from the seed and op
index (outside the timed region, so no op sees the inputs of another), the
timed ``op`` itself, and ``check``, which runs the output checks.

Why these three:

* ``dynamics-64`` -- 64^2 2D, where per-call Python overhead dominates.  It
  holds the solution-map experiments (the only repeated (data, config)
  solves), the iteration ladder and the Lagrangian flow map.
* ``solve-large`` -- what ``lpflow solve`` does on 256^2 2D and 32^3 3D:
  transform-bound stepping, recorded norms, LPF snapshot writes and reads.
  No repeated solves, no flow map, no ladder.
* ``analysis-64`` -- the inequality suites on 64^2 2D with no time stepping:
  the only workload for maximal, paraproduct and the kernel series.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lpflow import (Grid, NormSpec, SolverConfig, bony, default_bank,
                    flow_map, hl_maximal, jacobian_determinant, read_field,
                    solve, tl_norm, besov_norm, verify_commutator_estimate,
                    verify_equivalence, verify_fefferman_stein, verify_moser,
                    verify_moser_transport, verify_pointwise_bound, write_field)
from lpflow.bank import decompose
from lpflow.experiments import (DependenceConfig, bona_smith_experiment,
                                boundedness_experiment, continuity_assembly,
                                lipschitz_lowernorm_experiment)
from lpflow.fields import (dealias_mask, vector_as_physical, wavenumber_mesh,
                           wavenumber_norm)
from lpflow.iteration import iterate, ladder_vs_solve
from lpflow.norms import field_norm, kernel_l1_bound, kernel_l1_terms
from lpflow.paraproduct import counterexample_scan

from . import inputs
from .checks import PURE_MODE_TOL, Checker, lp_quadrature

SPEC = NormSpec(3, 1, 1)
PURE_BESOV = NormSpec(2, 2, 2, flavor="besov")


class OpContext:
    """What an op uses to call the library: a tracer plus work counters.

    ``work[name]`` accumulates (requested units, seconds); seconds ``None``
    means the units are divided by the op's wall time.
    """

    def __init__(self, tracer):
        self.call = tracer.call
        self.work: dict[str, list] = {}

    def timed(self, metric: str, units: float, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = self.call(fn, *args, **kwargs)
        entry = self.work.setdefault(metric, [0.0, 0.0])
        entry[0] += units
        entry[1] += time.perf_counter() - t0
        return out

    def count(self, metric: str, units: float) -> None:
        entry = self.work.setdefault(metric, [0.0, None])
        entry[0] += units


def warm_grid(grid: Grid) -> None:
    """Build the filter bank and the cached multipliers of one grid."""
    default_bank(grid.n, grid.d)
    wavenumber_mesh(grid.n, grid.d)
    wavenumber_norm(grid.n, grid.d)
    dealias_mask(grid.n, grid.d)


def _report_numbers(report) -> list[float]:
    vals = list(report.ratios)
    for rows in report.tables.values():
        for row in rows:
            vals.extend(float(x) for x in row if not isinstance(x, str))
    return vals


# ---------------------------------------------------------------------------
# dynamics-64


# Fixed in every run; DynamicsSizes holds only what the smoke tests shrink.
SM_DT = 1e-3                          # solution map, criterion-11 data family
EPS_LIST = (1e-1, 1e-2, 1e-3, 1e-4)
LAD_DT = 2e-3                         # ladder, criterion-10 config
LAG_DT = 0.05                         # Lagrangian solve and flow map


@dataclass(frozen=True)
class DynamicsSizes:
    n: int = 64
    # solution map on the criterion-11 data family (decay 6, band 1..21, amp 0.5)
    sm_T: float = 0.02
    sm_stride: int = 10
    N_list: tuple[int, ...] = (3, 4, 5)
    # ladder on the criterion-10 config (data decay 2, band 1..4, amp 0.5)
    lad_M: int = 12
    lad_T: float = 0.01
    # Lagrangian: solve at record_stride 1, flow map of the full lattice to lag_T
    lag_T: float = 1.0


class Dynamics:
    name = "dynamics-64"

    def __init__(self, sizes: DynamicsSizes = DynamicsSizes(), workdir=None):
        self.sz = sizes
        self.grid = Grid(sizes.n, 2)

    def setup(self) -> None:
        warm_grid(self.grid)

    def inputs(self, seed: int, op: int) -> dict:
        g, sz = self.grid, self.sz
        rng = inputs.rng_for(seed, op)
        u0 = inputs.divfree_field(g, rng, decay=6.0, band=(1, g.n // 3), amplitude=0.5)
        w = inputs.divfree_field(g, rng, decay=2.0, band=(1, 8))
        wdir = inputs.divfree_field(g, rng, decay=2.0, band=(1, 8))
        eps = 10.0 ** float(rng.uniform(-3.0, -2.0))
        psi = u0 + wdir * (eps / field_norm(default_bank(g.n, g.d), wdir, SPEC))
        return {
            "u0": u0, "w": w, "psi": psi,
            "lad_u0": inputs.divfree_field(g, rng, decay=2.0, band=(1, 4), amplitude=0.5),
            "lag_u0": inputs.divfree_field(g, rng, decay=2.0, band=(1, 4), amplitude=0.4),
            "dep": DependenceConfig(norm_spec=SPEC, T=sz.sm_T, dt=SM_DT,
                                    N_list=sz.N_list, eps_list=EPS_LIST,
                                    record_stride=sz.sm_stride),
            "lad_cfg": SolverConfig(dt=LAD_DT, T=sz.lad_T, record_stride=1),
            "lag_cfg": SolverConfig(dt=LAG_DT, T=sz.lag_T, record_stride=1),
        }

    def op(self, inp: dict, ctx: OpContext) -> dict:
        call, sz, g = ctx.call, self.sz, self.grid
        bank = default_bank(g.n, g.d)
        dep = inp["dep"]
        out = {
            "bounded": call(boundedness_experiment, inp["u0"], dep),
            "lipschitz": call(lipschitz_lowernorm_experiment, inp["u0"], inp["w"], dep),
            "bona_smith": call(bona_smith_experiment, inp["u0"], dep),
            "continuity": call(continuity_assembly, inp["u0"], inp["psi"], dep),
        }
        out["ladder"] = call(iterate, bank, inp["lad_u0"], sz.lad_M, inp["lad_cfg"], SPEC)
        out["ladder_ref"] = call(solve, inp["lad_u0"], inp["lad_cfg"])
        out["gap"] = call(ladder_vs_solve, bank, out["ladder"], out["ladder_ref"])
        traj = call(solve, inp["lag_u0"], inp["lag_cfg"])
        particle_steps = round(sz.lag_T / (2 * LAG_DT))
        fmr = ctx.timed("particle_steps_per_s", g.n**g.d * particle_steps,
                        flow_map, traj, (0.0, sz.lag_T))
        out["lag_traj"] = traj
        out["det"] = call(jacobian_determinant, fmr, 1)
        return out

    def check(self, inp: dict, out: dict) -> list[str]:
        chk = Checker()
        for key in ("bounded", "lipschitz", "bona_smith", "continuity"):
            chk.finite(key, _report_numbers(out[key]))
        chk.ratios("bounded", out["bounded"].ratios)
        chk.ratios("lipschitz", out["lipschitz"].ratios)
        chk.ratios("bona_smith", out["bona_smith"].ratios)
        for m, member in enumerate(out["ladder"].members):
            chk.states(f"ladder member {m}", member.states)
        chk.finite("ladder decay", out["ladder"].decay_table)
        ref = out["ladder_ref"]
        chk.states("ladder reference", ref.states)
        chk.diagnostics("ladder reference", ref.diagnostics)
        chk.energy_drift("ladder reference", ref.diagnostics["energy"])
        # the criterion-10 floor: the solver's own dt-halving difference
        fine_cfg = replace(inp["lad_cfg"], dt=inp["lad_cfg"].dt / 2, record_stride=2)
        fine = solve(inp["lad_u0"], fine_cfg)
        bank = default_bank(self.grid.n, self.grid.d)
        down = NormSpec(SPEC.s - 1, SPEC.p, SPEC.q)
        floor = max(field_norm(bank, vector_as_physical(a) - vector_as_physical(b), down)
                    for a, b in zip(ref.states, fine.states))
        chk.ladder_gap(out["gap"], floor)
        traj = out["lag_traj"]
        chk.states("lagrangian", traj.states)
        chk.diagnostics("lagrangian", traj.diagnostics)
        chk.energy_drift("lagrangian", traj.diagnostics["energy"])
        chk.jacobian(out["det"])
        return chk.failures


# ---------------------------------------------------------------------------
# solve-large


SOLVE_DT = 1e-3


@dataclass(frozen=True)
class SolveSizes:
    grids: tuple[tuple[int, int], ...] = ((256, 2), (32, 3))
    T: float = 0.01
    stride: int = 5


def grid_label(grid: Grid) -> str:
    return f"g{grid.n}-{grid.d}d"


class SolveLarge:
    name = "solve-large"

    def __init__(self, sizes: SolveSizes = SolveSizes(), workdir=None):
        self.sz = sizes
        self.grids = [Grid(n, d) for n, d in sizes.grids]
        self.workdir = Path(workdir) if workdir is not None else None

    def setup(self) -> None:
        for g in self.grids:
            warm_grid(g)

    def inputs(self, seed: int, op: int) -> dict:
        rng = inputs.rng_for(seed, op)
        cfg = SolverConfig(dt=SOLVE_DT, T=self.sz.T, record_stride=self.sz.stride)
        return {"cfg": cfg, "u0": [inputs.divfree_field(g, rng, decay=2.0, band=(1, 4),
                                                        amplitude=0.5)
                                   for g in self.grids]}

    def op(self, inp: dict, ctx: OpContext) -> dict:
        call, cfg = ctx.call, inp["cfg"]
        out = {"traj": [], "written": [], "read": []}
        for g, u0 in zip(self.grids, inp["u0"]):
            traj = ctx.timed(f"rk4_steps_per_s.{grid_label(g)}", cfg.steps,
                             solve, u0, cfg, record=(SPEC,))
            out["traj"].append(traj)
            for i, state in enumerate(traj.states):
                path = self.workdir / f"{grid_label(g)}_state_{i}.lpf"
                phys = call(vector_as_physical, state)
                call(write_field, phys, path)
                out["written"].append(phys)
                out["read"].append(call(read_field, path))
        return out

    def check(self, inp: dict, out: dict) -> list[str]:
        chk = Checker()
        for g, traj in zip(self.grids, out["traj"]):
            label = grid_label(g)
            chk.states(label, traj.states)
            chk.diagnostics(label, traj.diagnostics)
            if g.d == 2:
                chk.energy_drift(label, traj.diagnostics["energy"])
        for i, (a, b) in enumerate(zip(out["written"], out["read"])):
            for ca, cb in zip(a.components, b.components):
                scale = float(np.abs(ca.values).max())
                if not float(np.abs(ca.values - cb.values).max()) <= 1e-15 * scale:
                    chk.failures.append(f"snapshot {i}: read-back differs from write")
        return chk.failures


# ---------------------------------------------------------------------------
# analysis-64


@dataclass(frozen=True)
class AnalysisSizes:
    moser: int = 35
    transport: int = 16         # per form (prod2, prod3)
    commutator: int = 35        # per form (esti1, esti2, non-endpoint esti1)
    equivalence: int = 35
    pointwise: int = 16
    fefferman_stein: int = 16
    bony: int = 4
    scan_scales: tuple[int, ...] = (2, 3, 4)
    refinements: tuple[int, int] = (7, 8)


class Analysis:
    name = "analysis-64"

    def __init__(self, sizes: AnalysisSizes = AnalysisSizes(), workdir=None):
        self.sz = sizes
        self.grid = Grid(64, 2)

    def setup(self) -> None:
        warm_grid(self.grid)

    def inputs(self, seed: int, op: int) -> dict:
        g, sz = self.grid, self.sz
        rng = inputs.rng_for(seed, op)

        def scalar(**kw):
            return inputs.scalar_field(g, rng, **kw)

        def pair():
            return inputs.divfree_field(g, rng), scalar()

        return {
            "moser": [(scalar(), scalar()) for _ in range(sz.moser)],
            "transport": [pair() for _ in range(sz.transport)],
            "commutator": [pair() for _ in range(sz.commutator)],
            "equivalence": [scalar() for _ in range(sz.equivalence)],
            "pointwise": [scalar(band=(1, 16)) for _ in range(sz.pointwise)],
            "fs": [scalar() for _ in range(sz.fefferman_stein)],
            "bony": [(scalar(), scalar()) for _ in range(sz.bony)],
            "pure": inputs.pure_mode(g, rng),
        }

    def op(self, inp: dict, ctx: OpContext) -> dict:
        call, sz = ctx.call, self.sz
        bank = default_bank(self.grid.n, self.grid.d)
        hom = NormSpec(3, 1, 1, homogeneous=True)
        ratios: dict[str, list[float]] = defaultdict(list)
        for f, g in inp["moser"]:
            ratios["moser"].append(call(verify_moser, bank, f, g, hom))
        for form in ("prod2", "prod3"):
            for u, v in inp["transport"]:
                ratios[form].append(call(verify_moser_transport, bank, u, v,
                                         NormSpec(0, 1, 2, homogeneous=True), form))
        for key, spec, form in (("esti1", hom, "esti1"), ("esti2", hom, "esti2"),
                                ("nonendpoint", NormSpec(2.5, 2, 2, homogeneous=True),
                                 "esti1")):
            for u, v in inp["commutator"]:
                ratios[key].append(call(verify_commutator_estimate, bank, u, v, spec, form))
        for f in inp["equivalence"]:
            ratios["equivalence"].append(call(verify_equivalence, bank, f, 3.0, 1.0, 1.0))
        for f in inp["pointwise"]:
            ratios["pointwise"].append(call(verify_pointwise_bound, bank, f, j=4, k=2,
                                            theta=1.0, r=0.5))
        for f in inp["fs"]:
            dec = call(decompose, bank, f)
            ratios["fefferman_stein"].append(
                call(verify_fefferman_stein, list(dec.blocks[:8]) + [f], 2.0, 2.0))
        scan = call(counterexample_scan, bank, "lacunary", 2.0, 2.0, 2.0, sz.scan_scales)
        ratios["scan"] = list(scan.ratios)
        out = {"ratios": dict(ratios)}
        out["maximal"] = call(hl_maximal, inp["fs"][0])
        out["bony"] = [call(bony, bank, f, g) for f, g in inp["bony"]]
        pure, _ = inp["pure"]
        out["pure_tl"] = call(tl_norm, bank, pure, SPEC)
        out["pure_besov"] = call(besov_norm, bank, pure, PURE_BESOV)
        r_lo, r_hi = sz.refinements
        out["kernel_terms"] = call(kernel_l1_terms, refinement=r_lo)
        out["kernel_fine"] = call(kernel_l1_bound, refinement=r_hi)
        ctx.count("ratios_per_s", sum(len(v) for v in ratios.values()))
        return out

    def check(self, inp: dict, out: dict) -> list[str]:
        chk = Checker()
        for key, vals in out["ratios"].items():
            chk.ratios(key, vals)
        # M f >= |f| pointwise, so the vector-valued ratio is at least 1
        chk.at_least("fefferman_stein", min(out["ratios"]["fefferman_stein"]), 1.0)
        mf = np.asarray(out["maximal"].values).real
        f0 = np.abs(np.asarray(inp["fs"][0].values))
        if chk.finite("maximal", mf) and (mf < f0 - 1e-12 * f0.max()).any():
            chk.failures.append("maximal: M f < |f| somewhere")
        for (f, g), pieces in zip(inp["bony"], out["bony"]):
            chk.bony_resum(pieces, f, g)
        # a pure mode sits in block j0 alone: its norm is 2^(j0 s) ||f||_p
        pure, j0 = inp["pure"]
        for key, spec in (("pure_tl", SPEC), ("pure_besov", PURE_BESOV)):
            oracle = 2.0 ** (j0 * spec.s) * lp_quadrature(pure.values, spec.p,
                                                          self.grid.cell_volume)
            chk.close(key, out[key], oracle, PURE_MODE_TOL)
        terms = [t for _, t in out["kernel_terms"]]
        chk.ratios("kernel terms", terms)
        tail = [b / a for (_, a), (j, b) in zip(out["kernel_terms"],
                                               out["kernel_terms"][1:]) if j <= -2]
        if tail and max(tail) > 0.6:
            chk.failures.append(f"kernel tail ratio {max(tail):.3f} > 0.6")
        coarse = sum(terms)
        chk.close("kernel refinement", out["kernel_fine"], coarse, 0.01)
        return chk.failures


WORKLOADS = {w.name: w for w in (Dynamics, SolveLarge, Analysis)}
