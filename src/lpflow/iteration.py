"""Successive-approximation ladder for the projected Euler dynamics.

Member m solves the LINEAR advection problem

    dw/dt = -P(v . grad w),   v = member m-1,   w(0) = (low-pass at scale m) u0,

with member 0 identically zero, so member 1 is frozen at its initial data
and is not stepped.  The advecting field is taken from the previous member's
history; its RK4 midpoint values come from cubic Hermite dense output whose
endpoint slopes are member m-1's own right-hand side, which keeps the
scheme's full fourth order.  Each member's first RK4 stages are the next
member's slopes, so no right-hand side is formed twice; the velocity at the
end of one step is carried forward as that at the start of the next.  The linear
right-hand side is the solver's truncated advective kernel with the
advecting velocity passed in (v . grad w has no rotational form), and each
step is the solver's RK4 step and CFL guard.
Members are trajectories like the solver's: half spectra only, physical
states made on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bank import LPFilterBank, low_pass_multiplier
from .errors import DegenerateInputError
from .euler import (SolverConfig, Trajectory, _RHS, _check_cfl, _initial_spectra, _rk4_step,
                    _sup_gap)
from .fields import VectorField
from .norms import NormSpec, _half_norms
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
    return 0.5 * (y0 + y1) + 0.125 * dt * (d0 - d1)


def iterate(bank: LPFilterBank, u0: VectorField, M: int, cfg: SolverConfig,
            norm_spec: NormSpec) -> IterationLadder:
    """Build members 0..M of the advection ladder started from u0.

    Every member is stored at the full step cadence.  The decay table holds
    sup over recorded times of the member-difference norm one derivative
    below ``norm_spec``.
    """
    if M < 1:
        raise ValueError("need at least one ladder member")
    if cfg.record_stride != 1:
        raise ValueError("the ladder needs record_stride=1 (members advect each other)")
    g = u0.grid
    rhs = _RHS(g)
    dt, steps = cfg.dt, cfg.steps
    times = tuple(i * dt for i in range(steps + 1))
    down = replace(norm_spec, s=norm_spec.s - 1.0)

    u0_spec = _initial_spectra(u0, "iterate")
    w1 = u0_spec * low_pass_multiplier(bank, 1)
    prev = [w1] * (steps + 1)   # member 1 in half form: frozen
    slopes = None   # member m-1's first RK4 stages and final-time slope, read once m > 2
    members = [Trajectory(times, (np.zeros_like(u0_spec),) * (steps + 1)), Trajectory(times, prev)]
    decay = [_half_norms(bank, w1, (down,))[0]]   # member 1 - member 0, at any time
    for m in range(2, M + 1):
        w = u0_spec * low_pass_multiplier(bank, m)
        history, ks = [w], []
        vel1 = rhs.velocity(prev[0])   # member m-1's velocity at the step's end
        for i in range(steps):
            vel0 = vel1
            if m == 2:   # member 1 is frozen: constant velocity, midpoint included
                velm = vel0
            else:
                vm = _hermite_midpoint(prev[i], prev[i + 1], slopes[i], slopes[i + 1], dt)
                velm, vel1 = rhs.velocity(vm), rhs.velocity(prev[i + 1])
            _check_cfl(vel0, dt, g, i * dt, f" in ladder member {m}")
            ks.append(rhs(w, vel0))
            w = _rk4_step(rhs, w, dt, ks[-1], velm, vel1)
            history.append(w)
        if m < M:   # member m+1 also needs this member's slope at the final time
            ks.append(rhs(w, vel1))
        members.append(Trajectory(times, history))
        decay.append(_sup_gap(bank, members[m], members[m - 1], down))
        slopes, prev = ks, history
    return IterationLadder(tuple(members), norm_spec, tuple(decay))


def cauchy_report(ladder: IterationLadder) -> ExperimentReport:
    """Decay table delta_m and consecutive ratios (the contraction profile)."""
    if ladder.M < 4:
        raise ValueError("the contraction profile needs at least 4 members")
    if max(ladder.decay_table) == 0.0:
        raise DegenerateInputError("all ladder members coincide (zero data?)")
    grid = ladder.members[0].grid
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
    down = replace(ladder.norm_spec, s=ladder.norm_spec.s - 1.0)
    return _sup_gap(bank, ladder.members[-1], reference, down)
