"""Dyadic filter bank: partition of unity, block algebra, telescoping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpflow import (DegenerateInputError, Grid, GridField, SpectrumSpec, build_filter_bank,
                    calibration, decompose, default_bank, delta_j, derivative, p_le,
                    random_band_limited, recompose, verify_low_freq_bound)
from lpflow.bank import low_pass_multiplier, max_block_index
from lpflow.fields import apply_multiplier
from lpflow.corpus import scalar_sample


def test_block_count(grid64, bank64):
    # sqrt(2) * 32 ~ 45.25 -> ceil(log2) = 6, plus the safety block
    assert max_block_index(grid64) == 7
    assert bank64.j_max == 7
    assert len(bank64.psi) == 8


def test_partition_of_unity(bank64):
    total = bank64.phi_0 + sum(bank64.psi)
    residual = np.abs(total - 1.0).max()
    print("partition residual", residual)
    assert residual <= 1e-14


def test_multipliers_are_nonnegative(bank64):
    assert bank64.phi_0.min() >= 0.0
    for psi in bank64.psi:
        assert psi.min() >= -1e-15


def test_recompose_inverts_decompose(grid64, bank64):
    f = scalar_sample(grid64, 5)
    r = recompose(decompose(bank64, f))
    rel = np.abs(r.values - f.values).max() / np.abs(f.values).max()
    print("recompose rel error", rel)
    assert rel <= 1e-11


@pytest.mark.parametrize("dim", [2, 3])
def test_decompose_matches_per_block_multipliers(dim, grid64, bank64, grid16_3d, bank16_3d):
    # one forward transform shared by every block gives the same bits as
    # transforming the physical field once per block
    grid, bank = (grid64, bank64) if dim == 2 else (grid16_3d, bank16_3d)
    f = scalar_sample(grid, 5)
    dec = decompose(bank, f)
    for piece, mult in zip((dec.low, *dec.blocks), (bank.phi_0, *bank.psi)):
        ref = apply_multiplier(f, mult)
        assert piece.rep == ref.rep == "physical"
        assert np.array_equal(piece.values, ref.values)


def test_telescoping(grid64, bank64):
    f = scalar_sample(grid64, 5)
    scale = np.abs(f.values).max()
    for j in range(bank64.j_max):
        lhs = delta_j(bank64, f, j).values
        rhs = p_le(bank64, f, j + 1).values - p_le(bank64, f, j).values
        assert np.abs(lhs - rhs).max() / scale <= 1e-13


def test_pure_mode_lands_in_one_block(grid64, bank64):
    x = grid64.meshes()
    for j0 in (1, 2, 3):
        f = GridField(grid64, 2.0 * np.cos(2**j0 * x[0]), "physical")
        dec = decompose(bank64, f)
        live = [j for j, b in enumerate(dec.blocks)
                if np.abs(b.values).max() > 1e-13]
        assert live == [j0]
        assert np.abs(dec.low.values).max() < 1e-13


def test_low_pass_support_and_fixed_modes(grid64, bank64):
    # The smoothed low-pass is not idempotent, but its support is contained
    # in |k| < 2^m and it fixes any mode where the multiplier has saturated.
    from lpflow.fields import as_spectral, wavenumber_norm
    f = as_spectral(scalar_sample(grid64, 8, band=(1, 30)))
    g = p_le(bank64, f, 3)
    kk = wavenumber_norm(64, 2)
    assert np.abs(g.values[kk >= 8.0]).max() == 0.0
    x = grid64.meshes()
    low_mode = GridField(grid64, np.cos(4 * x[0]), "physical")
    kept = p_le(bank64, low_mode, 3)
    assert np.abs(kept.values - low_mode.values).max() < 1e-14


def test_low_pass_saturates(grid64, bank64):
    f = scalar_sample(grid64, 8)
    g = p_le(bank64, f, bank64.j_max + 3)
    assert np.abs(g.values - f.values).max() == 0.0
    mult = low_pass_multiplier(bank64, bank64.j_max + 1)
    assert np.abs(mult - 1.0).max() == 0.0


def test_block_index_bounds(grid64, bank64):
    f = scalar_sample(grid64, 8)
    with pytest.raises(ValueError):
        delta_j(bank64, f, -1)
    with pytest.raises(ValueError):
        delta_j(bank64, f, bank64.j_max + 1)
    with pytest.raises(ValueError):
        p_le(bank64, f, -1)


def test_blocks_are_spectrally_disjoint_from_far_blocks(grid64, bank64):
    from lpflow.fields import as_spectral
    f = as_spectral(random_band_limited(grid64, SpectrumSpec(1.0, (1, 30), 2)))
    dec = decompose(bank64, f)
    for j in range(bank64.j_max - 1):
        a, b = dec.blocks[j].values, dec.blocks[j + 2].values
        assert (np.abs(a) * np.abs(b)).max() == 0.0


def test_grid_mismatch_rejected(bank64):
    from lpflow import Grid
    g32 = Grid(32, 2)
    f = scalar_sample(g32, 1)
    with pytest.raises(ValueError):
        decompose(bank64, f)


@pytest.mark.parametrize("s, p, q, l", [(1.0, 1.0, 1.0, 0.5), (2.0, 2.0, 2.0, 1.0),
                                        (0.5, 3.0, math.inf, 2.0), (3.0, 1.0, 2.0, 0.0)])
def test_low_freq_bound_pure_mode(grid64, bank64, s, p, q, l):
    """2cos(4x) sits in block 2 alone.  P_{<=m} keeps it whole for m >= 3 and
    removes it for m <= 2, so the ratio is 2^{(2-m) l}, or 0."""
    x = grid64.meshes()
    f = GridField(grid64, 2.0 * np.cos(4 * x[0]), "physical")
    for m in range(bank64.j_max + 2):
        ratio = verify_low_freq_bound(bank64, f, s, p, q, m, l)
        if m >= 3:
            assert ratio == pytest.approx(2.0 ** ((2 - m) * l), rel=1e-12)
        else:
            assert ratio <= 1e-14


def test_low_freq_gain_stays_within_its_calibrated_bound(calibrated_ratios):
    """||P_N f||_{F^4_{1,1}} <= C 2^N ||f||_{F^3_{1,1}} for N = 3, 4, 5: the t = 0 form of
    the sigma(N) bound of the mollified-data experiment, on the row's 20 fields."""
    name = "low_freq_gain_s3_p1_q1"
    ratios = calibrated_ratios(name)
    assert len(ratios) == 3 * 20
    assert max(ratios) <= calibration.regression_bound(name)


def test_low_freq_bound_rejects_bad_input(grid64, bank64):
    x = grid64.meshes()
    f = GridField(grid64, 2.0 * np.cos(4 * x[0]), "physical")
    with pytest.raises(ValueError):
        verify_low_freq_bound(bank64, f, 1.0, 2.0, 2.0, 3, -0.5)
    zero = GridField(grid64, np.zeros(grid64.shape), "physical")
    with pytest.raises(DegenerateInputError):
        verify_low_freq_bound(bank64, zero, 1.0, 2.0, 2.0, 3, 1.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([8, 16, 32]), d=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_derivatives_commute_with_the_bank(n, d, seed, data):
    """delta_j d_a f = d_a delta_j f on white noise, which fills the Nyquist
    planes: the derivative symbol is a real operator's there too."""
    bank = default_bank(n, d)
    j = data.draw(st.integers(0, bank.j_max), label="j")
    a = data.draw(st.integers(0, d - 1), label="axis")
    grid = Grid(n, d)
    f = GridField(grid, np.random.default_rng(seed).standard_normal(grid.shape), "physical")
    lhs = delta_j(bank, derivative(f, a), j).values
    rhs = derivative(delta_j(bank, f, j), a).values
    assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(grid=st.one_of(st.builds(Grid, st.sampled_from([8, 16, 32, 64, 128, 256]), st.just(2)),
                      st.builds(Grid, st.sampled_from([8, 16, 32]), st.just(3))))
def test_partition_of_unity_on_every_grid(grid):
    """phi_0 + sum psi_j = 1 on the whole half lattice, and the top block psi_{j_max}
    is exactly zero there, which is why no norm transforms it."""
    bank = build_filter_bank(grid)
    assert np.abs(bank.phi_0 + sum(bank.psi) - 1.0).max() <= 1e-14
    assert not bank.psi[bank.j_max].any()
