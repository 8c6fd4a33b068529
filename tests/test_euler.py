"""Spectral torus dynamics: steady states, conservation, convergence order,
and the particle flow map."""

import math
import tracemalloc

import numpy as np
import pytest

import lpflow.euler
from lpflow import (Grid, GridField, NormSpec, RepresentationError, ResolutionError,
                    SolverConfig, StabilityError, Trajectory, VectorField, derivative, energy,
                    euler_rhs, default_bank, flow_map, iterate, jacobian_determinant,
                    leray_project, pressure_gradient, read_field, solve, taylor_green, vorticity,
                    write_field)
from lpflow.corpus import divfree_sample
from lpflow.euler import _BLOCK, _RHS, _eval_velocity, _phase_table, _spectra, default_seed_grid
from lpflow.fields import (SpectrumSpec, _derivative_symbol, _from_half_spectrum,
                           dealias_field, dealias_mask, max_spectral_divergence,
                           random_divergence_free, vector_as_physical, vector_as_spectral,
                           wavenumber_mesh)
from oracles import steady_trajectory, stream_values, taylor_green_stream

TG_ENERGY = 4.442882938158366
TG_ENSTROPHY = 6.283185307179586
TG_F311 = 74.8141745572753
HALVING_COARSE = 3.852772267996571e-12
HALVING_FINE = 2.4100166973732446e-13
STREAM_DRIFT = 3.9420677833135187e-10


def _sup_diff(u, v):
    up, vp = vector_as_physical(u), vector_as_physical(v)
    return max(float(np.abs(a.values - b.values).max())
               for a, b in zip(up.components, vp.components))


def test_solver_config_validation():
    SolverConfig(dt=1e-3, T=0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, T=0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, T=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(dt=3e-3, T=0.01)            # not an integer step count
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, T=0.1, record_stride=0)
    assert SolverConfig(dt=1e-3, T=0.1).steps == 100


def test_cellular_vortex_is_steady(grid64):
    tg = taylor_green(grid64)
    r = euler_rhs(tg)
    assert max(np.abs(c.values).max() for c in r.components) < 1e-13


def test_pressure_balances_advection(grid64):
    tg = taylor_green(grid64)
    gp = pressure_gradient(tg)
    r = euler_rhs(tg)
    # for the steady vortex: rhs = -(adv + grad p) = 0, so grad p = -adv
    assert max(np.abs(c.values).max() for c in r.components) < 1e-13
    assert max(np.abs(c.values).max() for c in gp.components) > 0.4


def test_steady_solve_and_diagnostics(grid64):
    tg = taylor_green(grid64)
    traj = solve(tg, SolverConfig(dt=1e-3, T=0.1, record_stride=50),
                 record=(NormSpec(3, 1, 1),))
    assert _sup_diff(traj.states[0], traj.states[-1]) < 1e-13
    e = traj.diagnostics["energy"]
    assert abs(e[0] - TG_ENERGY) < 1e-12
    assert abs(e[-1] - e[0]) <= 1e-12 * e[0]
    assert abs(traj.diagnostics["enstrophy"][0] - TG_ENSTROPHY) < 1e-12
    assert abs(traj.diagnostics["F3_1_1"][0] - TG_F311) < 1e-9
    assert traj.times == (0.0, 0.05, 0.1)


def test_energy_function_matches_diagnostic(grid64):
    tg = taylor_green(grid64)
    assert abs(energy(tg) - TG_ENERGY) < 1e-12


def test_vorticity_closed_form(grid64):
    tg = taylor_green(grid64)
    w = vorticity(tg)
    x = grid64.meshes()
    assert np.abs(w.values.real - 2.0 * np.sin(x[0]) * np.sin(x[1])).max() < 1e-13


def test_fourth_order_convergence(grid64, halving_solves):
    tg = taylor_green(grid64)
    pert = divfree_sample(grid64, 77, decay=2.0, band=(1, 6))
    amp = 0.1 / max(float(np.abs(c.values).max()) for c in pert.components)
    u0 = tg + pert * amp
    # the session's halving solves (criterion 09's) start from this datum, bit for bit
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(u0.components, halving_solves.datum.components))

    ref = halving_solves.reference          # T = 0.1 at dt = 5e-4
    e1 = _sup_diff(halving_solves.coarse, ref)      # dt = 4e-3
    e2 = _sup_diff(halving_solves.fine, ref)        # dt = 2e-3
    print("halving errors", e1, e2, "ratio", e1 / e2)
    assert abs(e1 - HALVING_COARSE) / HALVING_COARSE < 1e-3
    assert abs(e2 - HALVING_FINE) / HALVING_FINE < 1e-3
    assert e1 / e2 >= 8.0


def test_cfl_guard_raises(grid64):
    tg = taylor_green(grid64)
    with pytest.raises(StabilityError) as exc:
        solve(tg, SolverConfig(dt=1.0, T=3.0))     # max|u| dt / dx is about 10
    assert exc.value.time == 0.0
    assert "CFL guard 0.5 exceeded" in str(exc.value)


def test_non_finite_data_raises(grid64):
    # NaN fails every comparison, so a guard written as "cfl > limit" lets it through.
    comps = [c.values.real.copy() for c in vector_as_physical(taylor_green(grid64)).components]
    comps[1][3, 5] = np.nan
    u0 = VectorField(tuple(GridField(grid64, c, "physical") for c in comps),
                     div_free=True)
    with pytest.raises(StabilityError, match="non-finite velocity") as exc:
        solve(u0, SolverConfig(dt=1e-3, T=2e-3))
    assert exc.value.time == 0.0


def test_non_finite_data_raise_with_no_step(grid64):
    # T = 0 takes no step, so only the check on the data can see the NaN.
    comps = [c.values.copy() for c in vector_as_physical(taylor_green(grid64)).components]
    comps[0][7, 2] = np.nan
    u0 = VectorField(tuple(GridField(grid64, c, "physical") for c in comps), div_free=True)
    with pytest.raises(StabilityError, match="non-finite velocity") as exc:
        solve(u0, SolverConfig(dt=1e-3, T=0.0))
    assert exc.value.time == 0.0


def test_non_solenoidal_nan_data_rejected():
    # A NaN divergence fails every comparison, so "divergence > tol" lets it through.
    grid = Grid(16, 2)
    x = grid.meshes()
    ux = np.sin(x[0])                      # div u = cos x: not solenoidal
    ux[4, 9] = np.nan
    u0 = VectorField((GridField(grid, ux, "physical"),
                      GridField(grid, np.zeros(grid.shape), "physical")))
    with pytest.raises(ValueError, match="divergence-free"):
        solve(u0, SolverConfig(dt=1e-3, T=2e-3))


def test_complex_data_refused(grid64):
    # Fields are real: complex data never reach the solver.
    with pytest.raises(RepresentationError):
        taylor_green(grid64) * 1j
    x = grid64.meshes()
    with pytest.raises(RepresentationError):
        GridField(grid64, np.sin(x[1]) * (1 + 1e-6j), "physical")


def test_solve_is_deterministic(grid64):
    u0 = divfree_sample(grid64, 42, decay=2.0, band=(1, 4))
    cfg = SolverConfig(dt=5e-3, T=0.02, record_stride=2)
    a, b = solve(u0, cfg), solve(u0, cfg)
    assert a.diagnostics == b.diagnostics
    for sa, sb in zip(a.states, b.states):
        for ca, cb in zip(sa.components, sb.components):
            assert np.array_equal(ca.values, cb.values)


def _full_mesh(n, d):
    """The full FFT-order frequency lattice, one mesh per axis."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.meshgrid(*([k] * d), indexing="ij")


def _complex_path_rhs(spectra, grid):
    """Oracle: -P(u . grad u) on full spectra through complex FFTs, one
    transform per component and per gradient entry, truncated to the 2/3-rule
    modes, as the solver's term is."""
    n, d = grid.n, grid.d
    mesh = _full_mesh(n, d)
    mask = np.all([np.abs(m) <= n // 3 for m in mesh], axis=0)
    vel = [np.fft.ifftn(s * mask).real * n**d for s in spectra]
    adv = []
    for l in range(d):
        acc = np.zeros(grid.shape)
        for m in range(d):
            acc += vel[m] * (np.fft.ifftn(1j * mesh[m] * (spectra[l] * mask)).real * n**d)
        adv.append(np.fft.fftn(acc) / n**d)
    k2 = sum(m * m for m in mesh)
    kdotu_k2 = sum(mesh[a] * adv[a] for a in range(d)) / np.where(k2 > 0, k2, 1.0)
    return np.stack([-(adv[a] - mesh[a] * kdotu_k2) for a in range(d)]) * mask


@pytest.mark.parametrize("n,d", [(64, 2), (16, 3)])
def test_half_spectrum_rhs_matches_complex_path(n, d):
    # Data reaching past the 2/3 cutoff, so the dealiasing mask matters and the
    # product reaches the Nyquist planes.
    grid = Grid(n, d)
    u = random_divergence_free(grid, SpectrumSpec(1.0, (1, n // 2 - 1), 5))
    full = [np.fft.fftn(c.values) / n**d for c in u.components]
    want = _complex_path_rhs(full, grid)
    got = _RHS(grid)(_spectra(u) * dealias_mask(n, d))
    # Modes with a component at n/2 are dropped: there the complex path's
    # projection is not the spectrum of a real field.
    nyquist = (np.abs(np.stack(wavenumber_mesh(n, d))) == n // 2).any(axis=0)
    assert not got[:, nyquist].any()
    err = np.abs(got - want[..., :n // 2 + 1])[:, ~nyquist].max() / np.abs(want).max()
    print("half vs complex path", err)
    assert err <= 1e-14


def _white(grid, seed):
    """White noise: every mode filled, the Nyquist planes included."""
    rng = np.random.default_rng(seed)
    return VectorField(tuple(
        GridField(grid, rng.standard_normal(grid.shape), "physical") for _ in range(grid.d)))


def _white_divfree(grid, seed):
    """Leray-projected white noise: every mode filled but the sign-less Nyquist ones."""
    return leray_project(_white(grid, seed))


def _box(u):
    """u's half spectra cut to the 2/3-rule modes, where the solver's state lives."""
    return VectorField(tuple(dealias_field(c) for c in vector_as_spectral(u).components),
                       div_free=u.div_free)


def test_leray_drops_signless_nyquist_modes(tmp_path):
    """A mode with a component at n/2 has no sign, so k . u_hat = 0 there does not
    make the real field solenoidal: the projection drops those modes, and its
    output measures divergence-free, also when read back from a file, where the
    solver then rejects it for its modes past the 2/3 rule, not its divergence."""
    grid = Grid(16, 2)
    u = leray_project(_white(grid, 0))
    assert u.div_free
    assert max_spectral_divergence(u) <= 1e-12
    write_field(u, tmp_path / "u.lpf")
    back = read_field(tmp_path / "u.lpf")
    assert back.div_free                          # re-derived from the samples
    with pytest.raises(ResolutionError, match="2/3-rule modes"):
        solve(back, SolverConfig(dt=1e-3, T=2e-3))


@pytest.mark.parametrize("n,d", [(64, 2), (256, 2), (16, 3), (32, 3)])
def test_rotational_rhs_is_the_advective_rhs(n, d):
    """-P(omega x u) and -P(u . grad u) agree on the retained modes, and both are
    zero outside them."""
    grid = Grid(n, d)
    mask = dealias_mask(n, d)
    spectra = _spectra(_white_divfree(grid, 40 + n + d)) * mask
    rhs = _RHS(grid)
    rot, adv = rhs.rotational(spectra), rhs(spectra)
    assert not rot[:, ~mask].any() and not adv[:, ~mask].any()
    err = np.abs(rot - adv).max() / np.abs(adv).max()
    print("rotational vs advective", err)
    assert err <= 1e-14


@pytest.mark.parametrize("n,d", [(64, 2), (16, 3)])
def test_public_right_hand_sides_dealias_their_input(n, d):
    """euler_rhs and pressure_gradient take any field: each cuts its input to the
    2/3-rule modes, so white noise gives what its cut gives, bit for bit."""
    u = vector_as_spectral(_white_divfree(Grid(n, d), 70 + n))
    for op in (euler_rhs, pressure_gradient):
        got, want = op(u), op(_box(u))
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(got.components, want.components))


def test_truncated_dynamics_stay_on_the_retained_modes():
    """The solver's state lives on the 2/3-rule modes: data that fill every mode
    are rejected where they enter, and every recorded solve and ladder spectrum
    of data cut to those modes is exactly 0 outside them."""
    grid = Grid(32, 2)
    u0 = _white_divfree(grid, 50) * 0.3
    cfg = SolverConfig(dt=2e-3, T=1e-2, record_stride=1)
    bank = default_bank(grid.n, grid.d)
    with pytest.raises(ResolutionError, match="2/3-rule modes"):
        solve(u0, cfg)
    with pytest.raises(ResolutionError, match="2/3-rule modes"):
        iterate(bank, u0, 3, cfg, NormSpec(3, 1, 1))
    u0 = _box(u0)
    outside = ~dealias_mask(grid.n, grid.d)
    ladder = iterate(bank, u0, 3, cfg, NormSpec(3, 1, 1))
    trajectories = [solve(u0, cfg)] + list(ladder.members)
    for traj in trajectories:
        for s in traj.spectra:
            assert not s[:, outside].any()
    # while the retained modes of the solution move
    sol = trajectories[0].spectra
    assert np.abs(sol[-1] - sol[0])[:, ~outside].max() > 1e-3 * np.abs(sol[0]).max()


@pytest.mark.parametrize("d,inverse,forward", [(2, 12, 8), (3, 24, 12)])
def test_solve_step_transform_budget(monkeypatch, d, inverse, forward):
    """One RK4 step of the rotational form: 4 stages of d velocity components
    plus 1 (2D) or 3 (3D) vorticity components inverse-transformed, and d
    product components transformed forward."""
    grid = Grid(16 if d == 2 else 8, d)
    u0 = _box(_white_divfree(grid, 60) * 0.1)
    counts = {"inverse": 0, "forward": 0}

    def counted(name, fn):
        def call(a, dims):
            counts[name] += math.prod(a.shape[:-dims])
            return fn(a, dims)
        return call

    monkeypatch.setattr(lpflow.euler, "_from_half_spectrum",
                        counted("inverse", lpflow.euler._from_half_spectrum))
    monkeypatch.setattr(lpflow.euler, "_to_half_spectrum",
                        counted("forward", lpflow.euler._to_half_spectrum))
    solve(u0, SolverConfig(dt=1e-3, T=1e-3))
    assert counts == {"inverse": inverse, "forward": forward}


@pytest.mark.parametrize("n,d", [(16, 2), (8, 3)])
def test_vorticity_is_the_curl_of_derivative(n, d):
    """vorticity and derivative read one derivative symbol, Nyquist modes included."""
    u = _white(Grid(n, d), 31)
    c = u.components
    du = lambda l, a: derivative(c[l], a).values   # d_a u_l
    if d == 2:
        want = [du(1, 0) - du(0, 1)]
        got = [vorticity(u).values]
    else:
        want = [du(2, 1) - du(1, 2), du(0, 2) - du(2, 0), du(1, 0) - du(0, 1)]
        got = [w.values for w in vorticity(u).components]
    err = max(np.abs(g - w).max() for g, w in zip(got, want))
    scale = max(np.abs(w).max() for w in want)
    print("curl vs derivative", err / scale)
    assert err <= 1e-14 * scale


@pytest.mark.parametrize("n,d", [(16, 2), (8, 3)])
def test_advection_is_the_sum_of_derivative_products(n, d):
    """The advection u . grad u_l is sum_m u_m d_m u_l over the 2/3-rule dealiased
    components u_m, with derivative's symbol: the path paraproduct reads."""
    u = _white(Grid(n, d), 32)
    c = [dealias_field(comp) for comp in u.components]
    want = np.stack([sum(c[m].values * derivative(c[l], m).values for m in range(d))
                     for l in range(d)])
    got = _RHS(u.grid).advection(_spectra(u) * dealias_mask(n, d))
    err = np.abs(got - want).max() / np.abs(want).max()
    print("advection vs derivative products", err)
    assert err <= 1e-14


def test_rhs_holds_no_copy_of_the_derivative_symbol():
    """An _RHS reads the cached mask and derivative symbol: once they are built,
    it holds less than one (2, 256, 129) complex table of its own at 256^2."""
    grid = Grid(256, 2)
    dealias_mask(grid.n, grid.d)
    table = _derivative_symbol(grid.n, grid.d).nbytes
    tracemalloc.start()
    try:
        rhs = _RHS(grid)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    print("one _RHS at 256^2 holds B", held)
    assert rhs.mask is dealias_mask(grid.n, grid.d)
    assert table == 1_056_768
    assert held < table


def test_trajectory_validation(grid64):
    tg = taylor_green(grid64)
    traj = solve(tg, SolverConfig(dt=1e-2, T=0.04, record_stride=1))
    assert traj.cadence == pytest.approx(0.01)
    st = traj.state_at(0.02)
    assert _sup_diff(st, traj.states[2]) == 0.0
    with pytest.raises(ValueError):
        traj.state_at(0.015)
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.1, 0.05), traj.spectra[:3])
    with pytest.raises(ValueError):
        Trajectory((0.0, 0.1), traj.spectra[:3])


def test_trajectory_stores_only_spectra(grid64):
    traj = solve(taylor_green(grid64), SolverConfig(dt=1e-2, T=0.04, record_stride=2))
    assert "states" not in vars(traj)          # made on first read, not by solve
    assert traj.grid == grid64
    for st, half in zip(traj.states, traj.spectra):
        want = _from_half_spectrum(half, grid64.d)
        assert all(np.array_equal(c.values, w) for c, w in zip(st.components, want))
    assert traj.states is traj.states          # made once


def test_trajectory_rejects_non_spectra(grid64):
    traj = solve(taylor_green(grid64), SolverConfig(dt=1e-2, T=0.02, record_stride=1))
    with pytest.raises(ValueError, match="half spectra"):
        Trajectory(traj.times, traj.states)    # fields, not spectra
    physical = tuple(np.stack([c.values for c in st.components]) for st in traj.states)
    with pytest.raises(ValueError, match="half spectra"):
        Trajectory(traj.times, physical)       # (d, *grid.shape) samples
    other = _spectra(taylor_green(Grid(32, 2)))
    with pytest.raises(ValueError, match="half spectra"):
        Trajectory(traj.times, traj.spectra[:2] + (other,))
    with pytest.raises(ValueError, match="half spectra"):
        Trajectory((), ())


def test_flow_map_on_steady_vortex(grid64):
    tg = taylor_green(grid64)
    st = steady_trajectory(tg, T=0.5, cadence=0.0125)
    seeds = np.array([[0.9, 2.0, 4.1, 5.5], [0.4, 1.1, 2.6, 5.0]])
    fm = flow_map(st, times=(0.0, 0.25, 0.5), seeds=seeds)
    drift = float(np.abs(stream_values(fm.positions[-1]) - stream_values(seeds)).max())
    print("stream-level drift", drift)
    assert drift < 5e-10
    assert abs(drift - STREAM_DRIFT) / STREAM_DRIFT < 1e-3
    # particles actually moved
    assert float(np.abs(fm.displacement(-1)).max()) > 0.1


def _dense_velocity(spectra, xs, grid):
    """Oracle: the trigonometric sum with one complex exponential per (particle, mode)."""
    n, d = grid.n, grid.d
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    phases = [np.exp(1j * np.outer(xs[a], k1)) for a in range(d)]  # (P, n) each
    out = np.empty((d, xs.shape[1]))
    for l in range(d):
        U = spectra[l]
        if d == 2:
            vals = np.einsum("pk,kp->p", phases[0], U @ phases[1].T)
        else:
            tmp = np.tensordot(U, phases[2].T, axes=([2], [0]))
            tmp = np.einsum("pk,kqp->qp", phases[0], tmp)
            vals = np.einsum("pk,kp->p", phases[1], tmp)
        out[l] = vals.real
    return out


def _weighted_box(grid, half):
    """Half spectra on the retained modes (k_a = 0 .. c, -c .. -1, k_last = 0 .. c)
    times the k_last plane weights 1 at k_last = 0 and 2 elsewhere."""
    n, c = grid.n, grid.n // 3
    for axis in range(1, grid.d):
        half = np.concatenate([half.take(range(c + 1), axis), half.take(range(n - c, n), axis)],
                              axis=axis)
    box = half[..., :c + 1].copy()
    box[..., 1:] *= 2.0
    return box


def _box_tables(grid, width):
    c = grid.n // 3
    return [np.empty((2 * c + 1 if a < grid.d - 1 else c + 1, width), complex)
            for a in range(grid.d)]


@pytest.mark.parametrize("n,d", [(64, 2), (16, 3)])
def test_velocity_evaluator_matches_dense_sum(n, d):
    # Real white noise on the retained box excites every mode the solver keeps;
    # the oracle sums the full lattice, where the noise has no other modes.
    grid = Grid(n, d)
    rng = np.random.default_rng(3)
    full = np.fft.fftn(rng.uniform(-1.0, 1.0, (d,) + grid.shape), axes=range(1, d + 1)) / n**d
    full *= np.all([np.abs(m) <= n // 3 for m in _full_mesh(n, d)], axis=0)
    samples = np.fft.ifftn(full, axes=range(1, d + 1)).real * n**d
    half = _spectra(VectorField(tuple(GridField(grid, s, "physical") for s in samples)))
    xs = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, (d, 2000))   # unwrapped particles
    assert (xs < 0).any() and (xs > 2.0 * math.pi).any()
    err = np.abs(_eval_velocity(_weighted_box(grid, half), xs, _box_tables(grid, xs.shape[1]))
                 - _dense_velocity(full, xs, grid)).max()
    print("evaluator vs dense sum", err / np.abs(samples).max())
    assert err <= 1e-13 * np.abs(samples).max()


def _full_width_velocity(box, xs, grid):
    """The evaluator before particle blocks: one (2c + 1, P) box phase table per axis."""
    d, c = grid.d, grid.n // 3
    phases = [_phase_table(xs[a], c, t) for a, t in enumerate(_box_tables(grid, xs.shape[1]))]
    out = np.empty((d, xs.shape[1]))
    for l in range(d):
        U = box[l]
        if d == 2:
            tmp = U @ phases[1]
            vals = np.einsum("kp,kp->p", phases[0], tmp)
        else:
            tmp = np.tensordot(U, phases[2], axes=([2], [0]))
            tmp = np.einsum("kp,kqp->qp", phases[0], tmp)
            vals = np.einsum("kp,kp->p", phases[1], tmp)
        out[l] = vals.real
    return out


@pytest.mark.parametrize("n,d", [(64, 2), (16, 3)])
def test_particle_blocks_match_the_full_width_sum(n, d):
    """Evaluating the particles block by block changes no bit, whether the count is
    a multiple of the block, leaves a lone particle over, or fits in one block."""
    grid, width = Grid(n, d), _BLOCK
    rng = np.random.default_rng(5)
    c = n // 3
    shape = (d,) + (2 * c + 1,) * (d - 1) + (c + 1,)
    box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for count in (2 * width, 2 * width + 1, width + 77, width // 3, 1):
        xs = rng.uniform(-2.0 * math.pi, 4.0 * math.pi, (d, count))
        assert np.array_equal(_eval_velocity(box, xs, _box_tables(grid, min(count, width + 1))),
                              _full_width_velocity(box, xs, grid)), count


@pytest.mark.parametrize("n,d", [(64, 2), (16, 3)])
def test_flow_map_equals_the_full_width_evaluator(n, d, monkeypatch):
    """Positions and Jacobians on the full seed lattice, 4 blocks of particles."""
    grid = Grid(n, d)
    u0 = divfree_sample(grid, 42, decay=2.0, band=(1, 4))
    u0 = u0 * (0.4 / max(float(np.abs(c.values).max()) for c in u0.components))
    traj = solve(u0, SolverConfig(dt=5e-3, T=0.02, record_stride=1))
    fm = flow_map(traj, times=(0.0, 0.02))
    monkeypatch.setattr(lpflow.euler, "_eval_velocity",
                        lambda box, xs, tables: _full_width_velocity(box, xs, grid))
    ref = flow_map(traj, times=(0.0, 0.02))
    assert all(np.array_equal(a, b) for a, b in zip(fm.positions, ref.positions))
    assert np.array_equal(jacobian_determinant(fm, 1), jacobian_determinant(ref, 1))


def test_flow_map_working_set():
    """Particle blocks bound the phase tables and products: with one (n, P) table
    per axis, this run peaked at 14.9 MiB."""
    st = steady_trajectory(taylor_green(Grid(64, 2)), T=0.1, cadence=0.0125)
    flow_map(st, times=(0.05,))
    tracemalloc.start()
    try:
        flow_map(st, times=(0.05,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print("flow_map 64^2 peak MiB", peak / 2**20)
    assert peak <= 4 * 2**20


def test_flow_map_validation(grid64):
    tg = taylor_green(grid64)
    st = steady_trajectory(tg, T=0.1, cadence=0.0125)
    with pytest.raises(ValueError):
        flow_map(st, times=(0.03,))                 # off the doubled lattice
    with pytest.raises(ValueError):
        flow_map(st, times=(0.2,))                  # beyond the trajectory
    with pytest.raises(ValueError):
        flow_map(st, times=(0.05,), seeds=np.zeros((3, 4)))   # wrong leading dim
    ragged = Trajectory((0.0, 0.01, 0.03), st.spectra[:3])
    with pytest.raises(ValueError):
        flow_map(ragged, times=(0.02,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_flow_map_rejects_non_finite_seeds(bad):
    st = steady_trajectory(taylor_green(Grid(16, 2)), T=0.1, cadence=0.0125)
    seeds = default_seed_grid(st.grid)
    seeds[0, 3, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        flow_map(st, times=(0.05,), seeds=seeds)


def test_jacobian_of_volume_preserving_flow(grid64):
    u0 = divfree_sample(grid64, 42, decay=2.0, band=(1, 4))
    u0 = u0 * (0.4 / max(float(np.abs(c.values).max()) for c in u0.components))
    traj = solve(u0, SolverConfig(dt=5e-3, T=0.2, record_stride=1))
    fm = flow_map(traj, times=(0.0, 0.2))
    det = jacobian_determinant(fm, 1)
    dev = float(np.abs(det - 1.0).max())
    print("volume deviation", dev)
    assert dev <= 1e-11   # spectral in alpha: 1.9e-13 measured
    for seeds in (np.zeros((2, 3)) + 1.0, np.ones((2, 5, 5))):   # not a lattice; odd lattice
        with pytest.raises(ValueError):
            jacobian_determinant(flow_map(traj, times=(0.1,), seeds=seeds), 0)


def test_jacobian_of_volume_preserving_flow_in_3d(grid16_3d):
    u0 = divfree_sample(grid16_3d, 42, decay=2.0, band=(1, 4))
    u0 = u0 * (0.4 / max(float(np.abs(c.values).max()) for c in u0.components))
    traj = solve(u0, SolverConfig(dt=5e-3, T=0.1, record_stride=1))
    dev = float(np.abs(jacobian_determinant(flow_map(traj, times=(0.1,)), 0) - 1.0).max())
    print("volume deviation", dev)
    assert dev <= 1e-5   # 2.2e-6 measured


@pytest.mark.parametrize("value, error", [(1e-3, ResolutionError), (math.nan, StabilityError)])
def test_flow_map_refuses_states_it_cannot_sum(value, error):
    """A recorded state with content past the retained modes, or a non-finite one,
    raises: the velocity sum would drop the one and spread the other."""
    st = steady_trajectory(taylor_green(Grid(16, 2)), T=0.1, cadence=0.0125)
    bad = st.spectra[2].copy()
    bad[0, 1, 16 // 3 + 1] = value
    traj = Trajectory(st.times, st.spectra[:2] + (bad,) + st.spectra[3:])
    with pytest.raises(error, match="flow_map data at t=0.025"):
        flow_map(traj, times=(0.05,))


def test_default_seed_grid_shape(grid64):
    seeds = default_seed_grid(grid64)
    assert seeds.shape == (2, 64, 64)


def test_stream_oracle_matches_velocity(grid64):
    # the steady vortex is the rotated gradient of its stream function
    from lpflow.fields import derivative
    psi = taylor_green_stream(grid64)
    u = taylor_green(grid64)
    assert np.abs(derivative(psi, 1).values - u.components[0].values).max() < 1e-12
    assert np.abs(-derivative(psi, 0).values - u.components[1].values).max() < 1e-12


def test_three_dimensional_shear_runs(grid16_3d):
    tg3 = taylor_green(grid16_3d)
    traj = solve(tg3, SolverConfig(dt=5e-3, T=0.05, record_stride=5))
    from lpflow.fields import max_spectral_divergence
    for st in traj.states:
        assert max_spectral_divergence(st) < 1e-12
    e = traj.diagnostics["energy"]
    assert abs(e[-1] - e[0]) / e[0] < 1e-10


def _functions_where(path, hit):
    """Functions (``module.function``) of a module with a node for which ``hit`` holds."""
    import ast
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if hit(child):
                found.add(scope)
            visit(child, inner)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_rk4_step_and_one_cfl_guard():
    """The spectral RK4 stage combination and the CFL-guard message are each written once."""
    import ast
    import re
    from pathlib import Path
    import lpflow

    def assigns_k4(node):
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "k4" for t in node.targets)

    def cfl_message(node):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            return False
        return re.search(r"CFL guard.*exceeded", text) is not None

    paths = sorted(Path(lpflow.__file__).parent.glob("*.py"))
    steppers = set().union(*(_functions_where(p, assigns_k4) for p in paths))
    guards = set().union(*(_functions_where(p, cfl_message) for p in paths))
    # flow_map's is the particle RK4 through recorded velocities
    assert steppers == {"euler._rk4_step", "euler.flow_map"}
    assert guards == {"euler._check_cfl"}
