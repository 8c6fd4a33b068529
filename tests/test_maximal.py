"""Cube-averaged maximal operator and its pointwise/vector-valued bounds."""

import math

import numpy as np
import pytest
from scipy.special import gamma

from lpflow import (DegenerateInputError, Grid, GridField, default_bank,
                    hl_maximal, verify_bandlimited_sup, verify_fefferman_stein,
                    verify_pointwise_bound, verify_radial_majorant)
from lpflow.bank import decompose
from lpflow.corpus import scalar_sample
from lpflow.fields import as_physical, as_spectral
from lpflow.maximal import RadialProfile

POINTWISE_J4K2 = 0.002627550053691202
POINTWISE_J4K4_HALFTHETA = 0.18138091641844803
BANDSUP_J3 = 1.0950977513009754
GAUSS_RATIO = 1.0174483513847195
POWER_RATIO = 1.3231591217647758
POWER_MAJORANT_L1 = 1.6755160819145567
FS_22 = 1.1362062475049897


@pytest.mark.parametrize("n,d", [(8, 2), (16, 2), (8, 3), (16, 3)])
def test_maximal_is_the_cube_window_ladder(n, d):
    """Oracle: the max of |f| and its periodic cube means of half-width
    1, 2, 4, ..., n/2 cells, each mean summed from np.roll shifts."""
    grid = Grid(n, d)
    f = scalar_sample(grid, 5)
    a = np.abs(f.values)
    want = a.copy()
    w = 1
    while w <= n // 2:
        total = np.zeros(grid.shape)
        for shift in np.ndindex(*([2 * w + 1] * d)):
            total += np.roll(a, [s - w for s in shift], axis=tuple(range(d)))
        np.maximum(want, total / (2 * w + 1) ** d, out=want)
        w *= 2
    got = hl_maximal(f).values
    assert np.abs(got - want).max() <= 1e-14 * a.max()


def test_dominates_pointwise(grid64):
    f = scalar_sample(grid64, 5)
    m = hl_maximal(f).values.real
    assert (m >= np.abs(f.values.real) - 1e-14).all()


def test_constant_is_fixed_point(grid64):
    c = GridField(grid64, np.full(grid64.shape, 3.0), "physical")
    m = hl_maximal(c).values.real
    assert np.abs(m - 3.0).max() == 0.0


def test_peak_value_preserved(grid64):
    x = grid64.meshes()
    bump = GridField(grid64, np.exp(np.cos(x[0]) + np.cos(x[1])), "physical")
    m = hl_maximal(bump).values.real
    assert abs(m.max() - math.e**2) < 1e-13


def test_rejects_spectral_input(grid64):
    f = as_spectral(scalar_sample(grid64, 5))
    with pytest.raises(ValueError):
        hl_maximal(f)


def test_sublinear_and_monotone(grid64):
    f = scalar_sample(grid64, 5)
    g = scalar_sample(grid64, 6)
    mf, mg = hl_maximal(f).values.real, hl_maximal(g).values.real
    fg = GridField(grid64, f.values + g.values, "physical")
    assert (hl_maximal(fg).values.real <= mf + mg + 1e-12).all()
    half = GridField(grid64, 0.5 * f.values, "physical")
    assert (hl_maximal(half).values.real <= mf + 1e-13).all()


def test_pointwise_block_bound(grid64, bank64):
    f = scalar_sample(grid64, 500, band=(1, 16))
    r = verify_pointwise_bound(bank64, f, j=4, k=2, theta=1.0, r=0.5)
    assert abs(r - POINTWISE_J4K2) < 1e-12
    r2 = verify_pointwise_bound(bank64, f, j=4, k=4, theta=0.5, r=0.5)
    assert abs(r2 - POINTWISE_J4K4_HALFTHETA) < 1e-12


def test_pointwise_bound_validation(grid64, bank64):
    f = scalar_sample(grid64, 500, band=(1, 16))
    with pytest.raises(ValueError):
        verify_pointwise_bound(bank64, f, j=1, k=7, theta=1.0, r=0.5)   # j <= k-5
    with pytest.raises(ValueError):
        verify_pointwise_bound(bank64, f, j=4, k=2, theta=1.5, r=0.5)
    with pytest.raises(ValueError):
        verify_pointwise_bound(bank64, f, j=4, k=2, theta=1.0, r=1.5)
    wide = scalar_sample(grid64, 501, band=(1, 30))
    with pytest.raises(ValueError):
        verify_pointwise_bound(bank64, wide, j=2, k=2, theta=1.0, r=0.5)
    zero = GridField(grid64, np.zeros(grid64.shape), "physical")
    with pytest.raises(DegenerateInputError):
        verify_pointwise_bound(bank64, zero, j=4, k=2, theta=1.0, r=0.5)


def test_bandlimited_shifted_sup(grid64):
    x = grid64.meshes()
    f = GridField(grid64, 2.0 * np.cos(8 * x[0] + 1.0), "physical")
    r = verify_bandlimited_sup(f, 3, 0.5)
    assert abs(r - BANDSUP_J3) < 1e-12


def test_gaussian_profile(grid64):
    rp = RadialProfile("gaussian", 1.0)
    assert rp.majorant_l1(2) == 1.0
    f = scalar_sample(grid64, 5)
    r = verify_radial_majorant(rp, f, (0.1, 0.3))
    assert abs(r - GAUSS_RATIO) < 1e-12
    assert r < 1.1


def test_power_profile(grid64):
    beta = 3.5
    rp = RadialProfile("power", beta)
    # closed form: surface measure of S^1 times Beta(d, beta - d)
    expected = 2 * math.pi * gamma(2.0) * gamma(beta - 2.0) / gamma(beta)
    assert abs(rp.majorant_l1(2) - expected) < 1e-12
    assert abs(rp.majorant_l1(2) - POWER_MAJORANT_L1) < 1e-12
    f = scalar_sample(grid64, 5)
    r = verify_radial_majorant(rp, f, (0.1, 0.3))
    assert abs(r - POWER_RATIO) < 1e-12


def test_power_profile_needs_integrability():
    with pytest.raises(ValueError):
        RadialProfile("power", 2.0).majorant_l1(2)
    with pytest.raises(ValueError):
        RadialProfile("power", 2.5).majorant_l1(3)


def test_fefferman_stein(grid64, bank64):
    f = scalar_sample(grid64, 5)
    fam = [as_physical(b) for b in decompose(bank64, f).blocks[:8]]
    r = verify_fefferman_stein(fam, 2.0, 2.0)
    assert abs(r - FS_22) < 1e-12
    with pytest.raises(ValueError):
        verify_fefferman_stein(fam, 1.0, 2.0)
    with pytest.raises(ValueError):
        verify_fefferman_stein(fam, 2.0, 1.0)


def test_fefferman_stein_sup_aggregation(grid64, bank64):
    f = scalar_sample(grid64, 9)
    fam = [as_physical(b) for b in decompose(bank64, f).blocks[:6]]
    r = verify_fefferman_stein(fam, 2.0, math.inf)
    assert math.isfinite(r) and r > 0


@pytest.fixture()
def transform_spy(monkeypatch):
    """Counts the real transforms made through lpflow.fields, under either import."""
    import lpflow.fields
    import lpflow.maximal
    counts = {"forward": 0, "inverse": 0}
    fwd, inv = lpflow.fields._to_half_spectrum, lpflow.fields._from_half_spectrum

    def forward(*a):
        counts["forward"] += 1
        return fwd(*a)

    def inverse(*a):
        counts["inverse"] += 1
        return inv(*a)

    for mod in (lpflow.fields, lpflow.maximal):
        monkeypatch.setattr(mod, "_to_half_spectrum", forward)
        monkeypatch.setattr(mod, "_from_half_spectrum", inverse)
    return counts


@pytest.mark.parametrize("kind,forward", [("gaussian", 1), ("power", 2)])
def test_profile_convolution_transforms(grid64, transform_spy, kind, forward):
    f = scalar_sample(grid64, 5)
    transform_spy.update(forward=0, inverse=0)
    RadialProfile(kind, 3.5).convolve(f, 0.3)
    assert transform_spy == {"forward": forward, "inverse": 1}
