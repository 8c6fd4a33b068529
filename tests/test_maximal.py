"""Cube-averaged maximal operator and its pointwise/vector-valued bounds."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpflow import (DegenerateInputError, Grid, GridField, default_bank,
                    hl_maximal, verify_fefferman_stein, verify_pointwise_bound)
from lpflow.bank import decompose
from lpflow.corpus import scalar_sample
from lpflow.fields import as_physical, as_spectral

POINTWISE_J4K2 = 0.002627550053691202
POINTWISE_J4K4_HALFTHETA = 0.18138091641844803
FS_22 = 1.1362062475049897


def test_no_path_loads_scipy():
    """``import lpflow``, ``import lpflow.cli``, a 16^2 solve, every maximal
    harness at 16^2 and 8^3, and the sublinearity corpus load no scipy module.
    It runs in a fresh interpreter, so no other test's imports count."""
    script = (
        "import sys\n"
        "import lpflow, lpflow.cli\n"
        "from lpflow import (Grid, SolverConfig, calibration, default_bank, hl_maximal, solve,\n"
        "                    taylor_green, verify_fefferman_stein, verify_pointwise_bound)\n"
        "from lpflow.bank import decompose\n"
        "from lpflow.corpus import scalar_sample\n"
        "from lpflow.fields import as_physical\n"
        "solve(taylor_green(Grid(16, 2)), SolverConfig(dt=1e-2, T=2e-2))\n"
        "for n, d, j in ((16, 2, 3), (8, 3, 2)):\n"
        "    grid, bank = Grid(n, d), default_bank(n, d)\n"
        "    f = scalar_sample(grid, 500, band=(1, 2))\n"
        "    hl_maximal(f)\n"
        "    verify_pointwise_bound(bank, f, j=j, k=1, theta=0.5, r=0.5)\n"
        "    fam = [as_physical(b) for b in decompose(bank, f).blocks[:3]]\n"
        "    verify_fefferman_stein(fam, 2.0, 2.0)\n"
        "calibration.sublinearity(Grid(16, 2), 2)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"]


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


def _prefix_sum_ladder(a: np.ndarray) -> np.ndarray:
    """Oracle off the spectral path: each periodic cube sum is separable, one
    wrapped window sum per axis in turn, each the difference of two entries of an
    np.cumsum over the axis padded by the half-width on both sides."""
    n, d = a.shape[0], a.ndim
    want = a.copy()
    w = 1
    while w <= n // 2:
        total = a
        for axis in range(d):
            padded = np.take(total, np.arange(-w - 1, n + w) % n, axis=axis)
            c = np.cumsum(padded, axis=axis)
            total = (np.take(c, np.arange(2 * w + 1, n + 2 * w + 1), axis=axis)
                     - np.take(c, np.arange(n), axis=axis))
        np.maximum(want, total / (2 * w + 1) ** d, out=want)
        w *= 2
    return want


@pytest.mark.parametrize("n,d", [(64, 2), (256, 2), (32, 3)])
def test_maximal_matches_the_prefix_sum_ladder(n, d):
    f = scalar_sample(Grid(n, d), 5)
    a = np.abs(f.values)
    assert np.abs(hl_maximal(f).values - _prefix_sum_ladder(a)).max() <= 1e-14 * a.max()


def _with_one(grid, value) -> GridField:
    vals = scalar_sample(grid, 500, band=(1, 4)).values.copy()
    vals[3, 5] = value
    return GridField(grid, vals, "physical")


_HARNESSES = {
    "hl_maximal": hl_maximal,
    "verify_pointwise_bound": lambda f: verify_pointwise_bound(default_bank(16, 2), f, j=3, k=1,
                                                               theta=0.5, r=0.5),
    "verify_fefferman_stein": lambda f: verify_fefferman_stein([_with_one(f.grid, 1.0), f],
                                                               2.0, 2.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("harness", sorted(_HARNESSES))
def test_non_finite_samples_fail_loudly(harness, value):
    """The cube means would spread one bad sample over the whole lattice."""
    f = _with_one(Grid(16, 2), value)
    with pytest.raises(ValueError, match=r"non-finite samples: 1 of 256, the first at index \(3, 5\)"):
        _HARNESSES[harness](f)


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
