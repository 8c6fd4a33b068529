"""Pseudo-spectral incompressible Euler solver on the torus.

Fixed-step RK4 on the Galerkin-truncated projected dynamics: the data are cut
once to the 2/3-rule modes (Orszag's rule), and each right-hand side cuts its
output to them, so every state lives on those modes.  The solver
steps the rotational form -P(omega x u), which equals -P(u . grad u) on the
retained modes to roundoff and takes d + 1 inverse transforms per stage in
2D (2d in 3D) instead of d + d^2.  Each full step is re-projected, and a CFL
guard aborts the run rather than integrate an under-resolved state.  The
state is stepped as stacked half spectra (d, n, ..., n//2 + 1) through real
FFTs, with one RK4 step and one CFL guard shared with the iteration ladder.
The advective kernel u . grad h, which the ladder's linear term needs, stays
the one shared with the pressure gradient and the commutator estimates.  A
trajectory stores only the half spectra it stepped; its physical float64
states are made on first read, one batched inverse transform each.
Also provides the pressure-gradient recovery, flow-map particle integration
with trigonometric velocity interpolation, and the standard 2D benchmark
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bank import default_bank
from .errors import ResolutionError, StabilityError
from .fields import (PHYSICAL, SPECTRAL, Grid, GridField, VectorField, _derivative_symbol,
                     _freeze, _from_half_spectrum, _leray_spectra, _plane_weights,
                     _require_divfree, _to_half_spectrum, as_physical, dealias_mask,
                     vector_as_physical, vector_as_spectral)
from .norms import NormSpec, _half_norms

CFL_GUARD = 0.5   # largest max|u| dt / dx a step may start from
_BLOCK = 1024     # flow-map particles per block (a power of two: blocks start on BLAS tiles)

# ---------------------------------------------------------------------------
# configuration and trajectory containers


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integrator settings.

    ``record_stride``: keep every k-th step in the trajectory (plus t=0).
    """

    dt: float
    T: float
    record_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 <= self.T < math.inf:
            raise ValueError(f"T must be finite and nonnegative, got {self.T}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        steps = round(self.T / self.dt)
        if abs(steps * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError("T must be an integer number of steps")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)


@dataclass(frozen=True)
class Trajectory:
    """Recorded solve output: the stacked half spectra (d, *half) of each state.

    The spectra are the ones the solver stepped, frozen.  The flow map and the
    gaps between trajectories read them, so a recorded state never passes
    through a transform pair, whose float64 rounding would show in the high
    shells of a difference norm.  Physical ``states`` are made on first read.
    """

    times: tuple[float, ...]
    spectra: tuple[np.ndarray, ...]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        spectra = tuple(self.spectra)
        shape = spectra[0].shape if spectra and isinstance(spectra[0], np.ndarray) else ()
        if len(shape) < 3 or shape[1:] != Grid(shape[1], shape[0]).spectral_shape or not all(
                isinstance(s, np.ndarray) and s.shape == shape and np.iscomplexobj(s)
                for s in spectra):
            raise ValueError("a trajectory needs a non-empty sequence of stacked half spectra "
                             "(d, *grid.spectral_shape) of one grid")
        if len(self.times) != len(spectra):
            raise ValueError("times and spectra must pair up")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "spectra", tuple(_freeze(s) for s in spectra))

    @property
    def grid(self) -> Grid:
        d, n = self.spectra[0].shape[:2]
        return Grid(n, d)

    @cached_property
    def states(self) -> tuple[VectorField, ...]:
        """Physical float64 states, one batched inverse transform each."""
        return tuple(_wrap(self.grid, s, PHYSICAL) for s in self.spectra)

    @property
    def cadence(self) -> float:
        if len(self.times) < 2:
            raise ValueError("trajectory has no time extent")
        return self.times[1] - self.times[0]

    def state_at(self, t: float) -> VectorField:
        for tt, st in zip(self.times, self.states):
            if abs(tt - t) <= 1e-9 * max(1.0, abs(t)):
                return st
        raise ValueError(f"time {t} not recorded in trajectory")


# ---------------------------------------------------------------------------
# spectral-space primitives (raw coefficient arrays for the hot path)


def _spectra(u: VectorField) -> np.ndarray:
    """Stacked half spectra (d, *half) of u."""
    return np.stack([c.values for c in vector_as_spectral(u).components])


def _wrap(grid: Grid, half: np.ndarray, rep: str, div_free: bool = True) -> VectorField:
    """Stacked half spectra as a field in representation ``rep``."""
    values = half if rep == SPECTRAL else _from_half_spectrum(half, grid.d)
    return VectorField(tuple(GridField(grid, v, rep) for v in values), div_free=div_free)


class _RHS:
    """Galerkin-truncated Euler right-hand sides on stacked half spectra (d, *half)
    that vanish outside the 2/3-rule modes; each output is cut to those modes too."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.mask = dealias_mask(grid.n, grid.d)
        self.sym = _derivative_symbol(grid.n, grid.d)
        self.negate = np.where(self.mask, -1.0, 0.0)

    def velocity(self, spectra: np.ndarray) -> np.ndarray:
        """Physical velocity samples (d, *shape)."""
        return _from_half_spectrum(spectra, self.grid.d)

    def advection(self, halves, vel=None) -> np.ndarray:
        """Physical samples (c, *shape) of u . grad h for the c half spectra h in
        ``halves``, u given by its d physical components ``vel``; by default u
        is the velocity of ``halves`` themselves.

        The gradient of one h at a time is one batched transform: at 256^2 and
        32^3 that measured faster, and with a smaller resident set, than
        transforming all d^2 entries at once.
        """
        d = self.grid.d
        vel = vel if vel is not None else _from_half_spectrum(halves, d)
        acc = np.empty((len(halves),) + self.grid.shape)
        for l, h in enumerate(halves):
            grad = _from_half_spectrum(self.sym * h, d)   # [m] = d_m h
            acc[l] = vel[0] * grad[0]
            for m in range(1, d):
                acc[l] += vel[m] * grad[m]
        return acc

    def lamb(self, spectra: np.ndarray, vel=None) -> np.ndarray:
        """Physical samples (d, *shape) of the Lamb vector omega x u =
        u . grad u - grad |u|^2 / 2, u the velocity of ``spectra`` (samples
        ``vel`` where passed in).  omega takes 1 inverse component
        transform in 2D and 3 in 3D, where grad u takes d^2."""
        d = self.grid.d
        vel = vel if vel is not None else self.velocity(spectra)
        omega = _from_half_spectrum(_curl_spectra(self.sym, spectra), d)
        if d == 2:   # omega x u = (-omega u_1, omega u_0)
            out = omega * vel[::-1]
            out[0] *= -1.0
            return out
        out = np.empty_like(vel)
        for a in range(3):   # (omega x u)_a = omega_b u_c - omega_c u_b, (a, b, c) cyclic
            b, c = (a + 1) % 3, (a + 2) % 3
            np.multiply(omega[b], vel[c], out=out[a])
            out[a] -= omega[c] * vel[b]
        return out

    def _project(self, samples: np.ndarray) -> np.ndarray:
        """-P of the half spectra of ``samples`` on the retained modes, 0 elsewhere."""
        adv = _to_half_spectrum(samples, self.grid.d)
        proj = _leray_spectra(adv)
        scale = np.abs(adv).max()
        if scale > 0:
            mean = np.abs(proj[(slice(None),) + (0,) * self.grid.d]).max()
            if mean > 1e-12 * scale:
                raise RuntimeError("quadratic term acquired a mean component")
        return np.multiply(proj, self.negate, out=proj)

    def __call__(self, spectra: np.ndarray, vel=None) -> np.ndarray:
        """-P(u . grad h) for the half spectra h, u as in :meth:`advection`: the
        ladder's linear term when ``vel`` is another field's velocity."""
        return self._project(self.advection(spectra, vel))

    def rotational(self, spectra: np.ndarray, vel=None) -> np.ndarray:
        """-P(omega x u), the Euler term the solver steps.  On the retained modes
        it equals ``self(spectra, vel)`` to roundoff: the two products differ by a
        gradient, and the 2/3 rule keeps the aliases of both off those modes."""
        return self._project(self.lamb(spectra, vel))


def _sup_gap(bank, ta: Trajectory, tb: Trajectory, spec: NormSpec) -> float:
    """sup over recorded times of ||ta(t) - tb(t)||; np.max keeps a NaN that builtin max drops."""
    if len(ta.times) != len(tb.times) or any(abs(a - b) > 1e-9 * max(1.0, abs(a))
                                             for a, b in zip(ta.times, tb.times)):
        raise ValueError("trajectories recorded on different time lattices")
    return float(np.max([_half_norms(bank, a - b, (spec,))[0]
                         for a, b in zip(ta.spectra, tb.spectra)]))


def leray_project(u: VectorField) -> VectorField:
    """Spectral projection onto divergence-free fields (k=0 unchanged)."""
    return _wrap(u.grid, _leray_spectra(_spectra(u)), u.rep)


def pressure_gradient(u: VectorField) -> VectorField:
    """grad of the pressure balancing u . grad u (zero-mean pressure)."""
    _require_divfree(u, "pressure_gradient")
    g = u.grid
    adv = _to_half_spectrum(_RHS(g).advection(_spectra(u) * dealias_mask(g.n, g.d)), g.d)
    return _wrap(g, _leray_spectra(adv) - adv, u.rep, div_free=False)


def euler_rhs(u: VectorField) -> VectorField:
    """-P(omega x u), the solver's Galerkin-truncated right-hand side; on the
    2/3-rule modes it is -P(u . grad u), and it is zero elsewhere."""
    _require_divfree(u, "euler_rhs")
    g = u.grid
    return _wrap(g, _RHS(g).rotational(_spectra(u) * dealias_mask(g.n, g.d)), u.rep)


# ---------------------------------------------------------------------------
# diagnostics


def _parseval_l2(grid: Grid, spectra) -> float:
    """L2 norm of the real fields with half spectra ``spectra``."""
    w = (2.0 * math.pi) ** grid.d
    planes = _plane_weights(grid.n)
    return math.sqrt(w * sum(float((np.abs(s) ** 2 * planes).sum()) for s in spectra))


def _curl_spectra(sym: np.ndarray, spectra) -> np.ndarray:
    """Half spectra of the curl, stacked (1 or 3, *half): d_a u_b - d_b u_a for
    each (a, b) in turn, with the derivative symbol ``sym``."""
    pairs = ((0, 1),) if len(spectra) == 2 else ((1, 2), (2, 0), (0, 1))
    out = np.empty((len(pairs),) + spectra[0].shape, complex)
    for w, (a, b) in zip(out, pairs):
        np.multiply(sym[a], spectra[b], out=w)
        w -= sym[b] * spectra[a]
    return out


def vorticity(u: VectorField) -> GridField | VectorField:
    """Curl of u: scalar in 2D, vector in 3D (representation preserved)."""
    g = u.grid
    ws = tuple(GridField(g, w, SPECTRAL)
               for w in _curl_spectra(_derivative_symbol(g.n, g.d), _spectra(u)))
    if g.d == 2:
        return ws[0] if u.rep == SPECTRAL else as_physical(ws[0])
    out = VectorField(ws)
    return out if u.rep == SPECTRAL else vector_as_physical(out)


def energy(u: VectorField) -> float:
    """L2 norm of the velocity (conserved by the inviscid dynamics)."""
    return _parseval_l2(u.grid, _spectra(u))


# ---------------------------------------------------------------------------
# the solver


def _record_norms(grid: Grid, half: np.ndarray, record, diagnostics) -> None:
    diagnostics.setdefault("energy", []).append(_parseval_l2(grid, half))
    diagnostics.setdefault("enstrophy", []).append(
        _parseval_l2(grid, _curl_spectra(_derivative_symbol(grid.n, grid.d), half)))
    if record:
        bank = default_bank(grid.n, grid.d)
        for spec, value in zip(record, _half_norms(bank, half, record)):
            diagnostics.setdefault(spec.label, []).append(value)


def _check_cfl(vel, dt: float, grid: Grid, t: float, where: str = "") -> None:
    """Raise StabilityError unless max|u| dt / dx is finite and within ``CFL_GUARD``."""
    cfl = np.abs(vel).max() * dt / grid.spacing
    if not cfl <= CFL_GUARD:  # max keeps a NaN; NaN fails <=
        what = "non-finite velocity" if not np.isfinite(cfl) else f"CFL guard {CFL_GUARD} exceeded"
        raise StabilityError(f"{what}{where} at t={t:.6g} (max|u| dt/dx = {cfl:.3g})", time=t)


def _initial_spectra(u0: VectorField, who: str) -> np.ndarray:
    """u0's projected half spectra cut to the 2/3-rule modes, where solve and iterate start."""
    _require_divfree(u0, who)
    spectra = _leray_spectra(_spectra(u0))
    size, mask = np.abs(spectra), dealias_mask(u0.grid.n, u0.grid.d)
    if not np.isfinite(size).all():   # T = 0 and the frozen ladder member 1 take no guarded step
        raise StabilityError(f"non-finite velocity in the {who} data at t=0", time=0.0)
    if size.max(initial=0.0, where=~mask) > 1e-12 * size.max():
        raise ResolutionError(f"{who} data reach past the 2/3-rule modes |k_a| <= {u0.grid.n // 3}")
    return np.multiply(spectra, mask, out=spectra)


def _rk4_step(rhs, w, dt: float, k1, velm=None, vel1=None) -> np.ndarray:
    """One projected RK4 step of half spectra w for the stage function
    ``rhs(state, vel)``, given its first stage k1; the later stages take the
    stage velocities velm, velm, vel1, and one not given is the stage state's own."""
    k2 = rhs(w + 0.5 * dt * k1, velm)
    k3 = rhs(w + 0.5 * dt * k2, velm)
    k4 = rhs(w + dt * k3, vel1)
    return _leray_spectra(w + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))


def solve(u0: VectorField, cfg: SolverConfig,
          record: tuple[NormSpec, ...] = ()) -> Trajectory:
    """March the projected dynamics from u0; record every ``record_stride`` steps.

    Raises :class:`StabilityError` the moment ``max|u| dt / dx`` exceeds
    ``CFL_GUARD`` or stops being finite, carrying the offending time.
    """
    g = u0.grid
    rhs = _RHS(g)
    state = _initial_spectra(u0, "solve")
    dt = cfg.dt

    times, spectra = [0.0], [state]
    diagnostics: dict = {}
    _record_norms(g, state, record, diagnostics)

    for step in range(cfg.steps):
        vel = rhs.velocity(state)
        _check_cfl(vel, dt, g, step * dt)
        state = _rk4_step(rhs.rotational, state, dt, rhs.rotational(state, vel))
        if (step + 1) % cfg.record_stride == 0 or step + 1 == cfg.steps:
            times.append((step + 1) * dt)
            spectra.append(state)
            _record_norms(g, state, record, diagnostics)

    return Trajectory(tuple(times), tuple(spectra), {k: tuple(v) for k, v in diagnostics.items()})


# ---------------------------------------------------------------------------
# flow map


@dataclass(frozen=True)
class FlowMapResult:
    """Particle positions X(alpha, t) at requested times.

    ``positions[i]`` has shape (d, *seed_shape); positions are unwrapped
    (not reduced modulo 2 pi) so displacements stay differentiable in alpha.
    """

    times: tuple[float, ...]
    seeds: np.ndarray          # (d, *seed_shape) initial positions
    positions: tuple[np.ndarray, ...]

    def displacement(self, i: int) -> np.ndarray:
        return self.positions[i] - self.seeds


def _phase_table(x: np.ndarray, n: int, table: np.ndarray) -> np.ndarray:
    """e^{ikx} for k in FFT order, shape (n, P), by powers of z = e^{ix}.

    Row k = j is z^j, one complex multiply from row j-1; rows k = -j are the
    conjugates of rows j (Grid keeps n even).  Roundoff grows linearly in |k|,
    under |k| eps (about 0.4 |k| eps measured), whatever the size of the
    unwrapped x; exp(1j * k * x) instead loses up to |k x| eps when it
    rounds the product k * x.  ``table``, of shape (n, P), is refilled in place;
    with n/2 + 1 rows it holds k = 0 .. n/2 - 1 and -n/2 only.
    """
    h = n // 2
    table[0] = 1.0
    table[1] = np.exp(1j * x)
    for j in range(2, h + 1):
        np.multiply(table[j - 1], table[1], out=table[j])
    np.conjugate(table[h], out=table[h])                    # k = -n/2
    np.conjugate(table[h - 1:n - len(table):-1], out=table[h + 1:])   # k = -(n/2 - 1) ... -1
    return table


def _eval_velocity(spectra, xs, grid: Grid, tables) -> np.ndarray:
    """Trigonometric interpolation of u at arbitrary points xs (d, P).

    ``spectra`` are u's half spectra times :func:`_plane_weights` along the
    last axis: the real part of the sum over k_last = 0 .. n/2 - 1 and -n/2,
    each interior plane counted twice, is the sum over the full lattice.  The
    dense sum runs over per-axis phase tables from :func:`_phase_table`: one
    complex exponential per particle and axis, the other n - 1 phases by a
    power recurrence whose roundoff stays under (n/2) eps per phase.
    ``tables``, d complex arrays of shape (n, W), the last (n/2 + 1, W) for
    k_last = 0 .. n/2 - 1 and -n/2, W >= min(P, _BLOCK + 1), are refilled in
    place for each block of particles in turn.  A lone last particle joins the
    block before it: BLAS rounds a one-column product differently.
    """
    n, d = grid.n, grid.d
    out = np.empty((d, xs.shape[1]))
    edges = [*range(0, max(xs.shape[1] - 1, 1), _BLOCK), xs.shape[1]]
    for lo, hi in zip(edges, edges[1:]):
        phases = [_phase_table(xs[a, lo:hi], n, tables[a][:, :hi - lo]) for a in range(d)]
        for l in range(d):
            U = spectra[l]
            if d == 2:
                vals = np.einsum("kp,kp->p", phases[0], U @ phases[1])   # (n, B) product
            else:
                tmp = np.tensordot(U, phases[2], axes=([2], [0]))     # (n, n, B)
                tmp = np.einsum("kp,kqp->qp", phases[0], tmp)          # (n, B) over k1
                vals = np.einsum("kp,kp->p", phases[1], tmp)
            out[l, lo:hi] = vals.real
    return out


def default_seed_grid(grid: Grid) -> np.ndarray:
    """Particles seeded on the full collocation lattice, shape (d, *shape)."""
    mesh = grid.meshes()
    return np.stack(mesh)


def flow_map(traj: Trajectory, times, seeds: np.ndarray | None = None) -> FlowMapResult:
    """Integrate particles through the recorded velocity history.

    The particle step is twice the trajectory cadence (RK4 midpoint stages
    fall on recorded states, so no temporal interpolation is needed); the
    requested times must sit on that doubled lattice.
    """
    grid = traj.grid
    cad = traj.cadence
    if any(abs(t2 - t1 - cad) > 1e-9 for t1, t2 in zip(traj.times, traj.times[1:])):
        raise ValueError("flow_map needs a uniformly recorded trajectory")
    h = 2.0 * cad
    t_req = sorted(float(t) for t in times)
    if not t_req:
        raise ValueError("no times requested")
    for t in t_req:
        if t < -1e-12 or t > traj.times[-1] + 1e-12:
            raise ValueError(f"time {t} outside the trajectory range")
        if abs(t / h - round(t / h)) > 1e-8:
            raise ValueError(f"time {t} is not a multiple of the particle step {h}")

    if seeds is None:
        seeds = default_seed_grid(grid)
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim < 2 or seeds.shape[0] != grid.d:
        raise ValueError(f"seeds must be component-first, shape (d, ...); got {seeds.shape}")
    if not np.isfinite(seeds).all():
        raise ValueError("seeds must be finite")
    seed_shape = seeds.shape[1:]
    xs = seeds.reshape(grid.d, -1).copy()

    weights = _plane_weights(grid.n)
    out_times, out_pos = [], []
    if abs(t_req[0]) <= 1e-12:
        out_times.append(0.0)
        out_pos.append(xs.reshape(seeds.shape).copy())
        t_req = t_req[1:]

    pos = xs
    step = 0
    tables = [np.empty((grid.n if a < grid.d - 1 else grid.n // 2 + 1,
                        min(xs.shape[1], _BLOCK + 1)), complex)
              for a in range(grid.d)]
    for t_target in t_req:
        target_steps = round(t_target / h)
        while step < target_steps:
            s0, s1, s2 = (traj.spectra[2 * step + i] * weights for i in range(3))
            k1 = _eval_velocity(s0, pos, grid, tables)
            k2 = _eval_velocity(s1, pos + 0.5 * h * k1, grid, tables)
            k3 = _eval_velocity(s1, pos + 0.5 * h * k2, grid, tables)
            k4 = _eval_velocity(s2, pos + h * k3, grid, tables)
            pos = pos + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            step += 1
        out_times.append(step * h)
        out_pos.append(pos.reshape(seeds.shape).copy())
    return FlowMapResult(tuple(out_times), seeds.reshape(grid.d, *seed_shape),
                         tuple(out_pos))


def jacobian_determinant(fmr: FlowMapResult, i: int) -> np.ndarray:
    """det dX/dalpha at output time i via 6th-order differences on the seed grid.

    Valid only when the seeds are the full collocation lattice (periodic in
    alpha); uses the displacement field so the identity part is exact.
    """
    disp = fmr.displacement(i)
    d = disp.shape[0]
    shape = disp.shape[1:]
    if len(shape) != d or len(set(shape)) != 1:
        raise ValueError("jacobian needs full-lattice seeds")
    n = shape[0]
    h = 2.0 * math.pi / n
    jac = np.zeros((d, d) + shape)
    for l in range(d):
        for a in range(d):
            f = disp[l]
            deriv = (np.roll(f, -3, axis=a) - 9 * np.roll(f, -2, axis=a)
                     + 45 * np.roll(f, -1, axis=a) - 45 * np.roll(f, 1, axis=a)
                     + 9 * np.roll(f, 2, axis=a) - np.roll(f, 3, axis=a)) / (60 * h)
            jac[l, a] = deriv + (1.0 if l == a else 0.0)
    if d == 2:
        return jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    return (jac[0, 0] * (jac[1, 1] * jac[2, 2] - jac[1, 2] * jac[2, 1])
            - jac[0, 1] * (jac[1, 0] * jac[2, 2] - jac[1, 2] * jac[2, 0])
            + jac[0, 2] * (jac[1, 0] * jac[2, 1] - jac[1, 1] * jac[2, 0]))


# ---------------------------------------------------------------------------
# benchmark data


def taylor_green(grid: Grid) -> VectorField:
    """The classical cellular vortex (an exact steady state in 2D)."""
    x = grid.meshes()
    if grid.d == 2:
        comps = (np.sin(x[0]) * np.cos(x[1]), -np.cos(x[0]) * np.sin(x[1]))
    else:
        comps = (np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2]),
                 -np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2]),
                 np.zeros(grid.shape))
    return VectorField(tuple(GridField(grid, c, PHYSICAL) for c in comps), div_free=True)
