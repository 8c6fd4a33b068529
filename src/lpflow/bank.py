"""Dyadic frequency localization on the lattice.

A smooth radial cutoff ``phi`` (1 inside radius 1/2, 0 outside radius 1) is
rescaled to build the annular bumps ``psi_j = phi(./2^(j+1)) - phi(./2^j)``.
Together with the low-pass ``phi`` these form an exact partition of unity on
the frequency lattice once enough shells are included, so every field splits
into a low part plus dyadic blocks that recompose exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError
from .fields import (PHYSICAL, Grid, GridField, apply_multiplier, as_physical,
                     as_spectral, wavenumber_norm)


def radial_cutoff(r) -> np.ndarray:
    """Low-pass profile phi(r): 1 for r <= 1/2, 0 for r >= 1, C-infinity and
    strictly monotone between."""
    t = np.asarray(r, dtype=float)
    # h(s) = exp(-1/s) for s > 0, else 0; underflow far from the transition is fine.
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t < 1.0, np.exp(-1.0 / np.maximum(2.0 - 2.0 * t, 1e-300)), 0.0)
        b = np.where(t > 0.5, np.exp(-1.0 / np.maximum(2.0 * t - 1.0, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class LPFilterBank:
    """Sampled dyadic multipliers for one grid, on its half lattice.

    ``phi_0`` is the low-pass multiplier at scale 1; ``psi[j]`` is the annular
    multiplier for block ``j`` (0 <= j <= j_max).  ``j_max`` is large enough
    that the partition phi_0 + sum_j psi_j equals 1 on the whole lattice.
    """

    grid: Grid
    j_max: int
    phi_0: np.ndarray
    psi: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class DyadicDecomposition:
    """Low-pass part plus dyadic blocks of one field (same representation)."""

    low: GridField
    blocks: tuple[GridField, ...]

    @property
    def j_max(self) -> int:
        return len(self.blocks) - 1


def max_block_index(grid: Grid) -> int:
    """Index of the top block: phi(|k| / 2^{j_max}) is already 1 on the whole
    lattice, so the top block psi_{j_max} is identically zero."""
    return math.ceil(math.log2(math.sqrt(grid.d) * grid.n / 2.0)) + 1


def build_filter_bank(grid: Grid) -> LPFilterBank:
    """Sample the low-pass and annular multipliers on the half frequency lattice."""
    kk = wavenumber_norm(grid.n, grid.d)
    j_max = max_block_index(grid)
    phis = [radial_cutoff(kk / 2.0**m) for m in range(j_max + 2)]
    psi = tuple(phis[j + 1] - phis[j] for j in range(j_max + 1))
    for arr in (phis[0], *psi):
        arr.setflags(write=False)
    return LPFilterBank(grid, j_max, phis[0], psi)


@lru_cache(maxsize=8)
def default_bank(n: int, d: int) -> LPFilterBank:
    """Cached bank for repeated use on a common grid."""
    return build_filter_bank(Grid(n, d))


def low_pass_multiplier(bank: LPFilterBank, m: int) -> np.ndarray:
    """phi(| . | / 2^m) on the half lattice (identically 1 for m > j_max)."""
    kk = wavenumber_norm(bank.grid.n, bank.grid.d)
    if m > bank.j_max:
        return np.ones(kk.shape)
    return radial_cutoff(kk / 2.0**m)


def delta_j(bank: LPFilterBank, f: GridField, j: int) -> GridField:
    """Dyadic block j of f; output representation matches the input."""
    if not 0 <= j <= bank.j_max:
        raise ValueError(f"block index {j} outside [0, {bank.j_max}]")
    return apply_multiplier(f, bank.psi[j])


def p_le(bank: LPFilterBank, f: GridField, m: int) -> GridField:
    """Low-pass projection at scale 2^m; identity once m exceeds j_max."""
    if m < 0:
        raise ValueError(f"low-pass scale must be nonnegative, got {m}")
    if m > bank.j_max:
        return f
    return apply_multiplier(f, low_pass_multiplier(bank, m))


def decompose(bank: LPFilterBank, f: GridField) -> DyadicDecomposition:
    """Split f into its low part and all dyadic blocks (one forward transform)."""
    F = as_spectral(f)
    pieces = [apply_multiplier(F, m) for m in (bank.phi_0, *bank.psi)]
    if f.rep == PHYSICAL:
        pieces = [as_physical(p) for p in pieces]
    return DyadicDecomposition(pieces[0], tuple(pieces[1:]))


def recompose(dec: DyadicDecomposition) -> GridField:
    """Sum low part and blocks; inverse of :func:`decompose` up to rounding."""
    out = dec.low
    for b in dec.blocks:
        out = out + b
    return out


def verify_low_freq_bound(bank: LPFilterBank, f: GridField, s: float, p: float,
                          q: float, m: int, l: float) -> float:
    """Ratio ||P_{<=m} f||_{F^{s+l}} / (2^{m l} ||f||_{F^s}).

    A smooth low-pass at scale 2^m can raise the smoothness index by ``l`` at
    the cost of the factor 2^{m l}; the returned ratio measures the sharpness
    of that trade on a concrete field.
    """
    from .norms import NormSpec, tl_norm

    if l < 0:
        raise ValueError(f"smoothness gain l must be nonnegative, got {l}")
    den = 2.0 ** (m * l) * tl_norm(bank, f, NormSpec(s, p, q))
    if den == 0.0:
        raise DegenerateInputError("zero field has no low-frequency ratio")
    num = tl_norm(bank, p_le(bank, f, m), NormSpec(s + l, p, q))
    return num / den
