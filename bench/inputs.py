"""Seeded inputs for the benchmark workloads, made with numpy alone.

The library receives only the fields built here, never a seed, so every
workload input is a pure function of the benchmark seed and the op index.
The spectral law matches ``lpflow.fields.SpectrumSpec``: coefficients inside
the band are complex Gaussians with standard deviation ``|k|**-decay``; the
real part of the inverse transform makes the sample real.
"""

from __future__ import annotations

import numpy as np

from lpflow import Grid, GridField, VectorField


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream...) pair."""
    return np.random.default_rng([seed, *stream])


def _wavenumbers(grid: Grid) -> list[np.ndarray]:
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    return np.meshgrid(*([k] * grid.d), indexing="ij")


def _band_spectrum(grid: Grid, rng: np.random.Generator, decay: float,
                   band: tuple[int, int]) -> np.ndarray:
    kk = np.sqrt(sum(m * m for m in _wavenumbers(grid)))
    lo, hi = band
    inside = (kk >= lo) & (kk <= hi)
    scale = np.zeros(grid.shape)
    scale[inside] = kk[inside] ** (-decay)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return noise * scale


def _physical(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    return (np.fft.ifftn(coeff) * grid.n**grid.d).real


def scalar_field(grid: Grid, rng: np.random.Generator, decay: float = 2.0,
                 band: tuple[int, int] | None = None) -> GridField:
    """Real band-limited scalar field in physical representation."""
    band = band or (1, grid.n // 3)
    return GridField(grid, _physical(grid, _band_spectrum(grid, rng, decay, band)),
                     "physical", True)


def divfree_field(grid: Grid, rng: np.random.Generator, decay: float = 2.0,
                  band: tuple[int, int] | None = None,
                  amplitude: float | None = None) -> VectorField:
    """Real band-limited divergence-free field; ``amplitude`` sets max |u_l|."""
    band = band or (1, grid.n // 3)
    k = _wavenumbers(grid)
    k2 = sum(m * m for m in k)
    inv_k2 = np.zeros(grid.shape)
    inv_k2[k2 > 0] = 1.0 / k2[k2 > 0]
    spectra = [_band_spectrum(grid, rng, decay, band) for _ in range(grid.d)]
    kdotu = sum(m * s for m, s in zip(k, spectra))
    comps = [_physical(grid, s - m * kdotu * inv_k2) for m, s in zip(k, spectra)]
    if amplitude is not None:
        peak = max(float(np.abs(c).max()) for c in comps)
        comps = [c * (amplitude / peak) for c in comps]
    return VectorField(tuple(GridField(grid, c, "physical", True) for c in comps),
                       div_free=True)


def pure_mode(grid: Grid, rng: np.random.Generator) -> tuple[GridField, int]:
    """A * cos(2^j0 x_axis + phase): all of it sits in dyadic block j0."""
    j0 = int(rng.integers(1, 5))
    axis = int(rng.integers(0, grid.d))
    amp = float(rng.uniform(0.5, 2.0))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    x = grid.meshes()[axis]
    return GridField(grid, amp * np.cos(2**j0 * x + phase), "physical", True), j0
