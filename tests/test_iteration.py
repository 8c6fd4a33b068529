"""Successive linear-transport approximations and their decay diagnostics."""

import math

import numpy as np
import pytest

from lpflow import (DegenerateInputError, GridField, NormSpec, RepresentationError,
                    SolverConfig, StabilityError, Trajectory, VectorField, cauchy_report,
                    iterate, ladder_vs_solve, solve)
from lpflow.corpus import divfree_sample
from lpflow.euler import _RHS
from lpflow.fields import vector_as_physical
from oracles import member_norm_history

# band-(1,4) data, amp 0.5, seed 11, dt 2e-3, T = 0.1, norms at (3,1,1)
# DELTA_M6[5] re-pinned for the state on the 2/3-rule modes, to its exact oracle:
# the previous ladder's member spectra times the mask.  It had weighed the data's
# roundoff in the empty high shells, which the ladder now cuts (CHANGES.md).
DELTA_M6 = (10.70470515519962, 21.423948005273143, 17.49480022263453,
            0.3653815264864083, 0.006587448801960327, 6.150821434969732e-05)
# same data, M = 4, three steps of 2e-3: the ladder's arithmetic, bit for bit
# (re-pinned for the half-spectrum ladder, the real-block norms, the float64
# field format, the truncated right-hand side and the RK4 step without a final
# projection; CHANGES.md has the shifts and probes)
DELTA_M4_3STEPS = (10.704705155199619, 21.376961691291015, 17.302490890619197,
                   0.02185721419313726)
# Two gaps that sit at roundoff, and the largest relative shift that roundoff
# probes (data x (1 + k 2^-52) for k = -2..3, scipy.fft) gave each of them.
# A gap passes below its level times 1 + twice that spread, with no absolute slack.
SHELL_DELTA_2ON, SHELL_PROBE_SPREAD = 4.900618180151782e-13, 0.041
LADDER_GAP_M12, LADDER_PROBE_SPREAD = 3.6833468118436585e-13, 1.2e-3


def _data(grid):
    u0 = divfree_sample(grid, 11, decay=2.0, band=(1, 4))
    return u0 * (0.5 / max(float(np.abs(c.values).max()) for c in u0.components))


def _cfg():
    return SolverConfig(dt=2e-3, T=0.1, record_stride=1)


def test_arguments_validated(grid64, bank64):
    u0 = _data(grid64)
    with pytest.raises(ValueError):
        iterate(bank64, u0, 0, _cfg(), NormSpec(3, 1, 1))
    with pytest.raises(ValueError):
        iterate(bank64, u0, 2, SolverConfig(dt=2e-3, T=0.1, record_stride=5),
                NormSpec(3, 1, 1))


@pytest.mark.parametrize("M", [1, 2])
def test_non_finite_data_raises(grid64, bank64, M):
    # With M = 1 no member is advected by the data, so only a check on the
    # data itself can see the NaN.
    comps = [c.values.real.copy() for c in vector_as_physical(_data(grid64)).components]
    comps[0][7, 2] = np.nan
    u0 = VectorField(tuple(GridField(grid64, c, "physical") for c in comps),
                     div_free=True)
    with pytest.raises(StabilityError, match="non-finite velocity") as exc:
        iterate(bank64, u0, M, SolverConfig(dt=2e-3, T=4e-3, record_stride=1),
                NormSpec(3, 1, 1))
    assert exc.value.time == 0.0


def test_members_store_only_spectra(grid64, bank64):
    from lpflow.fields import _from_half_spectrum
    lad = iterate(bank64, _data(grid64), 3, SolverConfig(dt=2e-3, T=6e-3, record_stride=1),
                  NormSpec(3, 1, 1))
    for member in lad.members:
        assert "states" not in vars(member)      # made on first read, not by iterate
        for st, half in zip(member.states, member.spectra):
            want = _from_half_spectrum(half, grid64.d)
            assert all(np.array_equal(c.values, w) for c, w in zip(st.components, want))


def test_first_member_is_frozen_low_pass(grid64, bank64):
    """Member 1 is advected by member 0 = 0, so it never moves; its value is
    the m = 1 low-pass of the data at every recorded time."""
    from lpflow.bank import low_pass_multiplier
    from lpflow.fields import vector_as_spectral
    u0 = _data(grid64)
    lad = iterate(bank64, u0, 1, _cfg(), NormSpec(3, 1, 1))
    traj = lad.members[1]
    mult = low_pass_multiplier(bank64, 1)
    u0s = vector_as_spectral(u0)
    for st in (traj.states[0], traj.states[-1]):
        for a, b in zip(vector_as_spectral(st).components, u0s.components):
            assert np.abs(a.values - mult * b.values).max() < 1e-13
    # and it is not stepped, so no re-projection moves it by roundoff
    for st in traj.states[1:]:
        for a, b in zip(st.components, traj.states[0].components):
            assert np.array_equal(a.values, b.values)


def test_complex_data_refused(grid64, bank64):
    # Fields are real: complex data never reach the ladder, and near-real data
    # (imaginary part at roundoff) are its real part, bit for bit.
    u0 = _data(grid64)
    with pytest.raises(RepresentationError):
        u0 * 1j
    noisy = VectorField(tuple(GridField(grid64, c.values * (1 + 1e-14j), "physical")
                              for c in u0.components), div_free=True)
    cfg = SolverConfig(dt=2e-3, T=4e-3, record_stride=1)
    a, b = (iterate(bank64, u, 2, cfg, NormSpec(3, 1, 1)) for u in (u0, noisy))
    assert a.decay_table == b.decay_table


def test_iterate_is_deterministic(grid64, bank64):
    cfg = SolverConfig(dt=2e-3, T=6e-3, record_stride=1)
    a, b = (iterate(bank64, _data(grid64), 3, cfg, NormSpec(3, 1, 1)) for _ in range(2))
    assert a.decay_table == b.decay_table
    for ta, tb in zip(a.members, b.members):
        for sa, sb in zip(ta.states, tb.states):
            for ca, cb in zip(sa.components, sb.components):
                assert np.array_equal(ca.values, cb.values)


def test_decay_table_frozen(grid64, bank64, monkeypatch):
    """Each member's first RK4 stages are the next member's Hermite slopes, so a
    member steps with 4 right-hand sides a step and, unless it is the last, adds
    one at the final time: 4 * 50 * 5 + 4 = 1004 on this ladder, where forming
    the slopes anew took 1204.  Member m-1's velocity at a step's end is reused
    at the next step's start; member 1 is frozen, so its velocity is made once,
    and the zero member's is never made.  That leaves 1 + 4 * (1 + 2 * 50) = 405
    syntheses, where stepping each velocity anew took 760."""
    calls, rhs_calls = [], []
    velocity, rhs = _RHS.velocity, _RHS.__call__
    monkeypatch.setattr(_RHS, "velocity", lambda self, s: calls.append(1) or velocity(self, s))
    monkeypatch.setattr(_RHS, "__call__", lambda self, s, v: rhs_calls.append(1) or rhs(self, s, v))
    u0 = _data(grid64)
    lad = iterate(bank64, u0, 6, _cfg(), NormSpec(3, 1, 1))
    assert len(calls) == 405
    assert len(rhs_calls) == 1004
    assert lad.M == 6
    for got, want in zip(lad.decay_table, DELTA_M6):
        assert abs(got - want) / want < 1e-9
    ratios = lad.decay_ratios()
    print("consecutive ratios", [round(r, 5) for r in ratios])
    # geometric contraction from the third difference on
    assert all(r <= 0.75 for r in ratios[2:])


@pytest.mark.parametrize("M", [1, 2, 3])
def test_right_hand_sides_per_ladder(grid64, bank64, monkeypatch, M):
    """4 a step for members 2..M, and one at the final time for members 2..M-1,
    whose first stages then serve as the next member's slopes."""
    calls, rhs = [], _RHS.__call__
    monkeypatch.setattr(_RHS, "__call__", lambda self, s, v: calls.append(1) or rhs(self, s, v))
    iterate(bank64, _data(grid64), M, SolverConfig(dt=2e-3, T=6e-3, record_stride=1),
            NormSpec(3, 1, 1))
    assert len(calls) == 4 * 3 * (M - 1) + max(M - 2, 0)


def test_short_ladder_bit_for_bit(grid64, bank64):
    lad = iterate(bank64, _data(grid64), 4, SolverConfig(dt=2e-3, T=6e-3, record_stride=1),
                  NormSpec(3, 1, 1))
    assert lad.decay_table == DELTA_M4_3STEPS


def test_band_limited_data_saturates(shell_ladder):
    lad = shell_ladder          # M = 4 from sin(y), sin(x) on _cfg(), at (3, 1, 1)
    # the |k| = 1 shell is below every later cutoff: members 2+ change nothing
    for d in lad.decay_table[1:]:
        assert d <= 1e-8
    # and delta_4 is the roundoff of a steady flow: no larger than its level
    assert lad.decay_table[3] <= SHELL_DELTA_2ON * (1 + 2 * SHELL_PROBE_SPREAD)


@pytest.fixture(scope="session")
def ladder_m3(grid64, bank64, _shared):
    """The M = 3 ladder of :func:`_data` on :func:`_cfg`, at (3, 1, 1)."""
    return _shared("ladder_m3", iterate(bank64, _data(grid64), 3, _cfg(), NormSpec(3, 1, 1)))


def test_cauchy_report(grid64, bank64, ladder_m3):
    u0 = _data(grid64)
    lad = iterate(bank64, u0, 5, _cfg(), NormSpec(3, 1, 1))
    rep = cauchy_report(lad)
    assert rep.estimate_id == "iteration_cauchy_decay"
    assert rep.seeds == (1, 2, 3, 4, 5)          # member indices
    assert rep.ratios == lad.decay_table
    consec = rep.tables["consecutive_ratios"]
    assert len(consec) == 4
    with pytest.raises(ValueError):
        cauchy_report(ladder_m3)


def test_member_norm_history(bank64, ladder_m3):
    lad = ladder_m3
    zero_hist = member_norm_history(bank64, lad, 0)
    assert all(h == 0.0 for h in zero_hist)
    hist = member_norm_history(bank64, lad, 2)
    assert len(hist) == len(lad.members[2].times)
    assert all(h > 0 for h in hist)


def test_ladder_converges_to_solver(grid64, bank64, ladder_m12):
    u0 = _data(grid64)
    cfg = _cfg()
    # the session's M = 12 ladder and reference solve are of this data and config
    assert ladder_m12.cfg == cfg
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(u0.components, ladder_m12.datum.components))
    lad, ref = ladder_m12.ladder, ladder_m12.reference
    gap = ladder_vs_solve(bank64, lad, ref)
    print("ladder-vs-solver gap", gap)
    # the M = 12 ladder reaches the solver to roundoff
    assert gap <= LADDER_GAP_M12 * (1 + 2 * LADDER_PROBE_SPREAD)
    other = solve(u0, SolverConfig(dt=1e-3, T=0.1, record_stride=1))
    with pytest.raises(ValueError):
        ladder_vs_solve(bank64, lad, other)     # cadence mismatch


def test_ladder_vs_solve_compares_states_at_equal_times(grid64, bank64):
    """Equal record counts are not enough: a reference at twice the step holds
    as many states, at other times."""
    u0 = _data(grid64)
    lad = iterate(bank64, u0, 4, SolverConfig(dt=2e-3, T=0.01, record_stride=1),
                  NormSpec(3, 1, 1))
    coarse = solve(u0, SolverConfig(dt=4e-3, T=0.02, record_stride=1))
    assert len(coarse.times) == len(lad.members[-1].times)
    with pytest.raises(ValueError, match="different time lattices"):
        ladder_vs_solve(bank64, lad, coarse)
    # a finer solve recorded on the ladder's lattice compares, and agrees with
    # one at the ladder's own step
    fine = ladder_vs_solve(bank64, lad, solve(u0, SolverConfig(dt=1e-3, T=0.01, record_stride=2)))
    same = ladder_vs_solve(bank64, lad, solve(u0, SolverConfig(dt=2e-3, T=0.01, record_stride=1)))
    assert fine == pytest.approx(same, rel=1e-6)


def test_ladder_vs_nan_reference_is_not_finite(grid64, bank64):
    # builtin max(0.0, nan) is 0.0, so a running maximum would hide the NaN
    cfg = SolverConfig(dt=2e-3, T=6e-3, record_stride=1)
    u0 = _data(grid64)
    lad = iterate(bank64, u0, 2, cfg, NormSpec(3, 1, 1))
    ref = solve(u0, cfg)
    bad = ref.spectra[1].copy()
    bad[1, 5, 8] = np.nan
    spectra = (ref.spectra[0], bad) + ref.spectra[2:]
    gap = ladder_vs_solve(bank64, lad, Trajectory(ref.times, spectra))
    assert not math.isfinite(gap)
