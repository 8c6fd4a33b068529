"""Successive-approximation ladder for the projected Euler dynamics.

Member m solves the LINEAR advection problem

    dw/dt = -P(v . grad w),   v = member m-1,   w(0) = (low-pass at scale m) u0,

with member 0 identically zero, so member 1 is frozen at its initial data.
The advecting field is taken from the previous member's stored trajectory;
its RK4 midpoint values come from cubic Hermite dense output whose endpoint
slopes come from the pair (member m-2, member m-1), which keeps the scheme's
full fourth order without storing integrator stages.  The slope and the
velocity at the end of one step are carried forward as those at the start of
the next, not recomputed.  The linear right-hand side is the solver's own
kernel with the advecting velocity passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import LPFilterBank, low_pass_multiplier
from .errors import DegenerateInputError, StabilityError
from .euler import SolverConfig, Trajectory, _RHS, _spectra, _wrap_spectral
from .fields import VectorField, _leray_spectra, _require_divfree
from .norms import NormSpec, field_norm
from .reports import ExperimentReport


@dataclass(frozen=True)
class IterationLadder:
    members: tuple[Trajectory, ...]
    norm_spec: NormSpec
    decay_table: tuple[float, ...]   # entry i is delta_{i+1} (member i+1 vs i)

    @property
    def M(self) -> int:
        return len(self.members) - 1

    def decay_ratios(self) -> tuple[float, ...]:
        out = []
        for a, b in zip(self.decay_table, self.decay_table[1:]):
            out.append(b / a if a > 0 else 0.0)
        return tuple(out)


def _hermite_midpoint(y0, y1, d0, d1, dt):
    """Cubic dense-output value at the interval midpoint."""
    return [0.5 * (a + b) + 0.125 * dt * (da - db)
            for a, b, da, db in zip(y0, y1, d0, d1)]


def iterate(bank: LPFilterBank, u0: VectorField, M: int, cfg: SolverConfig,
            norm_spec: NormSpec) -> IterationLadder:
    """Build members 0..M of the advection ladder started from u0.

    Every member is stored at the full step cadence.  The decay table holds
    sup over recorded times of the member-difference norm one derivative
    below ``norm_spec``.
    """
    _require_divfree(u0, "iterate")
    if M < 1:
        raise ValueError("need at least one ladder member")
    if cfg.record_stride != 1:
        raise ValueError("the ladder needs record_stride=1 (members advect each other)")
    g = u0.grid
    rhs = _RHS(g, cfg.dealias)
    dt, steps = cfg.dt, cfg.steps
    times = tuple(i * dt for i in range(steps + 1))

    zero = [np.zeros(g.shape, complex) for _ in range(g.d)]
    members_raw: list[list[list[np.ndarray]]] = [[zero] * (steps + 1)]

    u0_spec = _leray_spectra(_spectra(u0), g.n, g.d)
    if not all(np.isfinite(s).all() for s in u0_spec):
        # member 1 is advected by the zero member 0, so no step guard sees its data
        raise StabilityError("non-finite velocity in the ladder data at t=0", time=0.0)
    for m in range(1, M + 1):
        mult = low_pass_multiplier(bank, m)
        w = [s * mult for s in u0_spec]
        prev = members_raw[m - 1]
        before = members_raw[m - 2] if m >= 2 else None
        history = [w]
        vel0 = rhs.velocity(prev[0])
        if before is not None:
            d0 = rhs(prev[0], rhs.velocity(before[0]))
        for i in range(steps):
            v0, v1 = prev[i], prev[i + 1]
            if before is None:
                vm = v0  # member 0 is identically zero anyway
            else:
                d1 = rhs(v1, rhs.velocity(before[i + 1]))
                vm = _hermite_midpoint(v0, v1, d0, d1, dt)
                d0 = d1
            velm, vel1 = rhs.velocity(vm), rhs.velocity(v1)
            vmax = np.max([np.abs(v).max() for v in vel0]) if m > 1 else 0.0
            if not vmax * dt / g.spacing <= cfg.cfl_guard:  # NaN fails <=, and np.max keeps it
                what = "non-finite velocity" if not np.isfinite(vmax) else "CFL guard exceeded"
                raise StabilityError(f"{what} in ladder member {m} at t={i * dt:.6g}",
                                     time=i * dt)
            k1 = rhs(w, vel0)
            k2 = rhs([s + 0.5 * dt * k for s, k in zip(w, k1)], velm)
            k3 = rhs([s + 0.5 * dt * k for s, k in zip(w, k2)], velm)
            k4 = rhs([s + dt * k for s, k in zip(w, k3)], vel1)
            vel0 = vel1
            w = [s + dt / 6.0 * (a + 2 * b + 2 * c + e)
                 for s, a, b, c, e in zip(w, k1, k2, k3, k4)]
            w = _leray_spectra(w, g.n, g.d)
            history.append(w)
        members_raw.append(history)

    # wrap as trajectories and measure the decay table one derivative down
    down = NormSpec(norm_spec.s - 1.0, norm_spec.p, norm_spec.q,
                    norm_spec.homogeneous, norm_spec.flavor)
    members = []
    for hist in members_raw:
        states = tuple(_wrap_spectral(g, s) for s in hist)
        members.append(Trajectory(times, states))
    decay = []
    for m in range(1, M + 1):
        norms = []
        for i in range(steps + 1):
            diff = _wrap_spectral(g, [a - b for a, b in
                                      zip(members_raw[m][i], members_raw[m - 1][i])])
            norms.append(field_norm(bank, diff, down))
        decay.append(float(np.max(norms)))  # np.max keeps a NaN that builtin max drops
    return IterationLadder(tuple(members), norm_spec, tuple(decay))


def member_norm_history(bank: LPFilterBank, ladder: IterationLadder, m: int) -> tuple[float, ...]:
    """||member m (t)|| in the ladder's norm at every recorded time."""
    traj = ladder.members[m]
    return tuple(field_norm(bank, st, ladder.norm_spec) for st in traj.states)


def cauchy_report(ladder: IterationLadder) -> ExperimentReport:
    """Decay table delta_m and consecutive ratios (the contraction profile)."""
    if ladder.M < 4:
        raise ValueError("the contraction profile needs at least 4 members")
    if max(ladder.decay_table) == 0.0:
        raise DegenerateInputError("all ladder members coincide (zero data?)")
    grid = ladder.members[0].states[0].grid
    ns = ladder.norm_spec
    ratios = ladder.decay_ratios()
    return ExperimentReport(
        estimate_id="iteration_cauchy_decay",
        s=ns.s, p=ns.p, q=ns.q, d=grid.d, n=grid.n,
        seeds=tuple(range(1, ladder.M + 1)),
        ratios=ladder.decay_table,
        tables={"consecutive_ratios": [[m + 2, r] for m, r in enumerate(ratios)]},
        meta={"rows_are": "member index m; value is sup_t of the difference norm",
              "difference_norm_s": ns.s - 1.0},
    )


def ladder_vs_solve(bank: LPFilterBank, ladder: IterationLadder,
                    reference: Trajectory) -> float:
    """sup over recorded times of ||top member - reference|| one norm down."""
    ns = ladder.norm_spec
    down = NormSpec(ns.s - 1.0, ns.p, ns.q, ns.homogeneous, ns.flavor)
    top = ladder.members[-1]
    if len(top.times) != len(reference.times):
        raise ValueError("ladder and reference trajectories use different cadences")
    return float(np.max([field_norm(bank, a - b, down)
                         for a, b in zip(top.states, reference.states)]))
