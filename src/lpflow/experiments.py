"""Solution-map experiments: boundedness, lower-norm Lipschitz dependence,
the mollified-data continuity ladder, and the interpolation-based assembly
of the continuity bound.

Each experiment is a deterministic function of its config (plus explicit
input fields); reports carry every number needed to reproduce the run.  The
config is a :class:`SolverConfig` and is handed to ``solve`` as it is; the
experiments compare trajectories through their recorded half spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bank import default_bank, max_block_index, p_le
from .errors import DegenerateInputError
from .euler import SolverConfig, _sup_gap, solve
from .fields import Grid, VectorField
from .norms import NormSpec, _half_norms, field_norm
from .reports import ExperimentReport


@dataclass(frozen=True, kw_only=True)
class DependenceConfig(SolverConfig):
    """Solver settings plus the shared settings of the dependence-on-data experiments."""

    norm_spec: NormSpec
    N_list: tuple[int, ...] = ()
    eps_list: tuple[float, ...] = ()
    record_stride: int = 20

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "N_list", tuple(int(N) for N in self.N_list))
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        if any(b <= a for a, b in zip(self.N_list, self.N_list[1:])):
            raise ValueError("N_list must be strictly increasing")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if not all(0.0 < e < math.inf for e in self.eps_list):
            raise ValueError(f"eps_list must be finite and positive, got {self.eps_list}")

    def check_levels(self, grid: Grid) -> None:
        top = max_block_index(grid) - 1
        if self.N_list and max(self.N_list) >= top:
            raise ValueError(f"mollification levels must stay below {top}")


def _report_base(cfg: DependenceConfig, grid: Grid) -> dict:
    ns = cfg.norm_spec
    return dict(s=ns.s, p=ns.p, q=ns.q, d=grid.d, n=grid.n)


def boundedness_experiment(u0: VectorField, cfg: DependenceConfig) -> ExperimentReport:
    """sup over recorded times of ||u(t)|| / ||u0|| in the configured norm."""
    grid = u0.grid
    traj = solve(u0, cfg, record=(cfg.norm_spec,))
    hist = traj.diagnostics[cfg.norm_spec.label]
    if hist[0] == 0.0:
        raise DegenerateInputError("zero initial data in boundedness experiment")
    ratios = tuple(h / hist[0] for h in hist)
    return ExperimentReport(
        estimate_id="solution_map_boundedness",
        **_report_base(cfg, grid),
        seeds=tuple(range(len(ratios))), ratios=ratios,
        tables={"norm_history": [[t, h] for t, h in zip(traj.times, hist)]},
        meta={"rows_are": "recorded time index", "T": cfg.T, "dt": cfg.dt,
              "note": "time horizon set by the CFL guard and calibration, "
                      "not by a closed-form existence time"},
    )


def lipschitz_lowernorm_experiment(u0: VectorField, direction: VectorField,
                                   cfg: DependenceConfig) -> ExperimentReport:
    """L(eps) = sup_t ||u - v||_(s-1) / ||u0 - v0||_(s-1) across eps_list.

    ``direction`` is normalized internally to unit one-derivative-down norm;
    a zero direction (v0 = u0) is degenerate.
    """
    grid = u0.grid
    bank = default_bank(grid.n, grid.d)
    if not cfg.eps_list:
        raise ValueError("eps_list is empty")
    ns = cfg.norm_spec
    down = replace(ns, s=ns.s - 1.0)
    wnorm = field_norm(bank, direction, down)
    if wnorm == 0.0:
        raise DegenerateInputError("perturbation direction vanishes (v0 = u0)")
    w = direction * (1.0 / wnorm)
    base = solve(u0, cfg)
    moduli = []
    for eps in cfg.eps_list:
        v0 = u0 + w * eps
        pert = solve(v0, cfg)
        denom = field_norm(bank, u0 - v0, down)
        moduli.append(_sup_gap(bank, base, pert, down) / denom)
    return ExperimentReport(
        estimate_id="lipschitz_lower_norm",
        **_report_base(cfg, grid),
        seeds=tuple(range(len(cfg.eps_list))),
        ratios=tuple(moduli),
        tables={"eps": [[i, e] for i, e in enumerate(cfg.eps_list)]},
        meta={"rows_are": "index into eps_list", "difference_norm_s": down.s,
              "T": cfg.T, "dt": cfg.dt},
    )


def _mollify(bank, u: VectorField, N: int) -> VectorField:
    comps = tuple(p_le(bank, c, N) for c in u.components)
    return VectorField(comps, div_free=u.div_free)


def bona_smith_experiment(u0: VectorField, cfg: DependenceConfig) -> ExperimentReport:
    """Mollified-data comparison: rho(N) ratios plus the sigma(N) growth table.

    rho(N) = sup_t ||u - u^N||_s / ||u0 - P_N u0||_s;
    sigma(N) = sup_t ||u^N||_(s+1) / (2^N ||u0||_s).
    """
    grid = u0.grid
    bank = default_bank(grid.n, grid.d)
    cfg.check_levels(grid)
    if not cfg.N_list:
        raise ValueError("N_list is empty")
    ns = cfg.norm_spec
    up = replace(ns, s=ns.s + 1.0)
    base = solve(u0, cfg, record=(ns,))
    u0_norm = base.diagnostics[ns.label][0]
    rho, sigma = [], []
    for N in cfg.N_list:
        u0N = _mollify(bank, u0, N)
        tail = field_norm(bank, u0 - u0N, ns)
        if tail <= 1e-13 * u0_norm:
            raise DegenerateInputError(f"data has no content above level {N}")
        moll = solve(u0N, cfg, record=(up,))
        rho.append(_sup_gap(bank, base, moll, ns) / tail)
        sigma.append(max(moll.diagnostics[up.label]) / (2.0**N * u0_norm))
    return ExperimentReport(
        estimate_id="mollified_data_continuity",
        **_report_base(cfg, grid),
        seeds=tuple(cfg.N_list),
        ratios=tuple(rho),
        tables={"sigma": [[N, s] for N, s in zip(cfg.N_list, sigma)]},
        meta={"rows_are": "mollification level N", "T": cfg.T, "dt": cfg.dt},
    )


def continuity_assembly(u0: VectorField, psi: VectorField,
                        cfg: DependenceConfig) -> ExperimentReport:
    """Three-piece upper bound on ||S(u0) - S(psi)||_s versus the direct value.

    The pieces are the two mollified-data tails at level N = max(N_list) and
    the mollified-pair difference, the latter bounded by the geometric-mean
    interpolation of its s-1 and s+1 norms.
    """
    grid = u0.grid
    bank = default_bank(grid.n, grid.d)
    cfg.check_levels(grid)
    if not cfg.N_list:
        raise ValueError("N_list is empty (the assembly needs a cutoff level)")
    N = cfg.N_list[-1]
    ns = cfg.norm_spec
    lo, hi = replace(ns, s=ns.s - 1.0), replace(ns, s=ns.s + 1.0)

    t_u = solve(u0, cfg)
    t_p = solve(psi, cfg)
    t_un = solve(_mollify(bank, u0, N), cfg)
    t_pn = solve(_mollify(bank, psi, N), cfg)

    tail_u = _sup_gap(bank, t_u, t_un, ns)
    tail_p = _sup_gap(bank, t_p, t_pn, ns)
    interp = max(math.sqrt(math.prod(_half_norms(bank, a - b, (lo, hi))))
                 for a, b in zip(t_un.spectra, t_pn.spectra))
    chain = tail_u + tail_p + interp
    direct = _sup_gap(bank, t_u, t_p, ns)
    ratio = direct / chain if chain > 0 else 0.0
    return ExperimentReport(
        estimate_id="continuity_chain_assembly",
        **_report_base(cfg, grid),
        seeds=(N,),
        ratios=(ratio,),
        tables={"pieces": [["tail_u", tail_u], ["tail_psi", tail_p],
                           ["interpolated_diff", interp],
                           ["chain", chain], ["direct", direct]]},
        meta={"rows_are": "cutoff level N", "slack": 1.05,
              "T": cfg.T, "dt": cfg.dt},
    )
