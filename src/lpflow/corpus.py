"""Seeded sample corpora shared by the test suite, calibration, and the CLI.

Every corpus is a pure function of (grid, count, base seed), so stored
calibration maxima remain comparable across runs and machines.
"""

from __future__ import annotations

import numpy as np

from .fields import (Grid, GridField, SpectrumSpec, VectorField, random_band_limited,
                     random_divergence_free)

DEFAULT_DECAY = 2.0


def default_band(grid: Grid) -> tuple[int, int]:
    """Band kept fully alias-free under the 2/3 rule."""
    return (1, grid.n // 3)


def scalar_sample(grid: Grid, seed: int, decay: float = DEFAULT_DECAY,
                  band: tuple[int, int] | None = None) -> GridField:
    spec = SpectrumSpec(decay, band or default_band(grid), seed)
    return random_band_limited(grid, spec)


def scalar_samples(grid: Grid, count: int, seed0: int,
                   band: tuple[int, int] | None = None) -> list[GridField]:
    return [scalar_sample(grid, seed0 + i, band=band) for i in range(count)]


def scalar_pairs(grid: Grid, count: int, seed0: int):
    """Independent (f, g) pairs; pair i uses seeds (seed0+2i, seed0+2i+1)."""
    return [(scalar_sample(grid, seed0 + 2 * i), scalar_sample(grid, seed0 + 2 * i + 1))
            for i in range(count)]


def divfree_sample(grid: Grid, seed: int, decay: float = DEFAULT_DECAY,
                   band: tuple[int, int] | None = None) -> VectorField:
    spec = SpectrumSpec(decay, band or default_band(grid), seed)
    return random_divergence_free(grid, spec)


def scale_to_peak(u: VectorField, amplitude: float) -> VectorField:
    """u rescaled so that the largest max|u_l| over its components is ``amplitude``."""
    return u * (amplitude / max(float(np.abs(c.values).max()) for c in u.components))


def solution_map_datum(grid: Grid, seed: int, amplitude: float = 0.5) -> VectorField:
    """The solution-map experiments' datum: decay 6 on the default band, peak ``amplitude``."""
    return scale_to_peak(divfree_sample(grid, seed, decay=6.0), amplitude)


def transport_pair(grid: Grid, seed: int, band: tuple[int, int] | None = None):
    """A (divergence-free u, scalar g) pair for commutator/transport sweeps."""
    return divfree_sample(grid, seed, band=band), scalar_sample(grid, seed + 5000, band=band)
