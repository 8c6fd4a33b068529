"""Hardy-Littlewood maximal function on the torus and its companion bounds.

The maximal function is approximated by the maximum of |f| and its periodic
means over axis-aligned cubes of half-width 1, 2, 4, ..., n/2 cells: one fixed
dyadic ladder, with no settings.  Taking |f| itself in the maximum keeps
Mf >= |f| pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .bank import LPFilterBank, delta_j
from .errors import DegenerateInputError, RepresentationError
from .fields import (PHYSICAL, Grid, GridField, _from_half_spectrum, _to_half_spectrum,
                     as_physical, as_spectral, wavenumber_norm)
from .norms import NormSpec, _ladder_norms


def _maximal_array(absvals: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise max of |f| and its periodic cube means of half-width 1, 2, 4, ..., n/2 cells."""
    out = absvals.copy()
    for j in range(grid.n.bit_length() - 1):
        np.maximum(out, uniform_filter(absvals, size=2 * 2**j + 1, mode="wrap"), out=out)
    return out


def hl_maximal(f: GridField) -> GridField:
    """Discrete Hardy-Littlewood maximal function of |f| (physical fields only)."""
    if f.rep != PHYSICAL:
        raise RepresentationError("hl_maximal expects a physical-representation field")
    return GridField(f.grid, _maximal_array(np.abs(f.values), f.grid), PHYSICAL)


# ---------------------------------------------------------------------------
# bound harnesses


def band_edge(f: GridField) -> float:
    """Largest |k| carrying significant spectral content (1e-13 relative)."""
    F = np.abs(as_spectral(f).values)
    scale = F.max()
    if scale == 0.0:
        return 0.0
    kk = wavenumber_norm(f.grid.n, f.grid.d)
    return float(kk[F > 1e-13 * scale].max())


def verify_pointwise_bound(bank: LPFilterBank, f: GridField, j: int, k: int,
                           theta: float, r: float) -> float:
    """Max over x of |block_k f| / (2^{(j-k) theta d / r} M(|f|^{1-theta}) M(|f|^r)^{theta/r}).

    ``f`` must be band-limited to |xi| <= 2^j and ``j > k - 5``; the
    returned ratio realizes the convolution-maximal pointwise bound for the
    block-k filter applied to a scale-j field.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if j <= k - 5:
        raise ValueError(f"scale gap too large: j={j} <= k - 5")
    if band_edge(f) > 2.0**j + 1e-9:
        raise ValueError(f"field has content beyond |k| = 2^{j}")
    g = f.grid
    absf = np.abs(as_physical(f).values)
    if absf.max() == 0.0:
        raise DegenerateInputError("zero field in pointwise maximal bound")
    lhs = np.abs(as_physical(delta_j(bank, f, k)).values)
    m_low = (np.ones(g.shape) if theta == 1.0
             else _maximal_array(absf ** (1.0 - theta), g))
    m_r = _maximal_array(absf**r, g)
    rhs = 2.0 ** ((j - k) * theta * g.d / r) * m_low * m_r ** (theta / r)
    return float((lhs / rhs).max())


def verify_bandlimited_sup(f: GridField, j: int, r: float) -> float:
    """Max over x of sup_y |f(x-y)| / (1 + |2^j y|^{d/r}) over M(|f|^r)^{1/r}.

    The shifted-sup statistic on a band-limited field is controlled by the
    r-th maximal average; the sweep over j probes how the control scales with
    the band edge.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    g = f.grid
    absf = np.abs(as_physical(f).values)
    if absf.max() == 0.0:
        raise DegenerateInputError("zero field in shifted-sup bound")
    x = g.axis_coordinates()
    wrapped = np.where(x > np.pi, x - 2.0 * np.pi, x)
    mesh = np.meshgrid(*([wrapped] * g.d), indexing="ij")
    dist = np.sqrt(sum(m * m for m in mesh))
    weight = 1.0 + (2.0**j * dist) ** (g.d / r)
    lhs = np.zeros(g.shape)
    for offset in np.ndindex(*g.shape):
        shifted = np.roll(absf, shift=offset, axis=tuple(range(g.d)))
        np.maximum(lhs, shifted / weight[offset], out=lhs)
    rhs = _maximal_array(absf**r, g) ** (1.0 / r)
    return float((lhs / rhs).max())


# ---------------------------------------------------------------------------
# radial approximate identities


@dataclass(frozen=True)
class RadialProfile:
    """A radial convolution profile with an integrable radial majorant.

    ``gaussian``: unit-mass Gaussian with width ``param`` (its own majorant,
    L^1 norm 1, convolved exactly via its Fourier transform).
    ``power``: (1 + |x|)^{-param}, integrable only for param > d; convolved
    through a sampled periodized kernel.
    """

    kind: str
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "power"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.param <= 0:
            raise ValueError("profile parameter must be positive")

    def majorant_l1(self, d: int) -> float:
        if self.kind == "gaussian":
            return 1.0
        beta = self.param
        if beta <= d:
            raise ValueError(
                f"power profile with exponent {beta} is not integrable in dimension {d}")
        surface = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        radial = math.gamma(d) * math.gamma(beta - d) / math.gamma(beta)
        return surface * radial

    def convolve(self, f: GridField, eps: float) -> np.ndarray:
        """Samples of (profile_eps * f) on the grid, profile_eps = eps^-d profile(./eps)."""
        g = f.grid
        if self.kind == "gaussian":
            kk = wavenumber_norm(g.n, g.d)
            mult = np.exp(-0.5 * (self.param * eps * kk) ** 2)
            return _from_half_spectrum(as_spectral(f).values * mult, g.d)
        # periodized sampled kernel, normalized to its continuum mass
        self.majorant_l1(g.d)  # raises for nonintegrable profiles
        x = g.axis_coordinates()
        images = np.arange(-4, 5) * 2.0 * np.pi
        axis_offsets = x[:, None] + images[None, :]
        # accumulate sum over image cells axis-by-axis to bound memory
        kernel = np.zeros(g.shape)
        for idx in np.ndindex(*([images.size] * g.d)):
            coords = [axis_offsets[:, idx[a]] for a in range(g.d)]
            mg = np.meshgrid(*coords, indexing="ij")
            rad = np.sqrt(sum(m * m for m in mg))
            kernel += (1.0 + rad / eps) ** (-self.param) / eps**g.d
        kernel *= g.cell_volume
        absf = np.abs(as_physical(f).values)
        return _from_half_spectrum(_to_half_spectrum(absf, g.d) * _to_half_spectrum(kernel, g.d)
                                   * absf.size, g.d)


def verify_radial_majorant(profile: RadialProfile, f: GridField, eps_list) -> float:
    """Max over x and eps of |profile_eps * f| / (||majorant||_L1 * Mf)."""
    eps_list = tuple(float(e) for e in eps_list)
    if not eps_list or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must contain positive scales")
    g = f.grid
    absf = GridField(g, np.abs(as_physical(f).values), PHYSICAL)
    if np.abs(absf.values).max() == 0.0:
        raise DegenerateInputError("zero field in radial majorant bound")
    c_major = profile.majorant_l1(g.d)
    mf = hl_maximal(absf).values
    return float(np.max([(np.abs(profile.convolve(absf, eps)) / (c_major * mf)).max()
                         for eps in eps_list]))


def verify_fefferman_stein(fields, p: float, q: float) -> float:
    """Vector-valued maximal ratio ||(sum_i (M f_i)^q)^{1/q}||_p / ||(sum_i |f_i|^q)^{1/q}||_p.

    Requires p in (1, inf) and q in (1, inf]; the p = 1 endpoint is rejected
    because the vector-valued bound genuinely fails there.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"the vector-valued maximal bound needs 1 < p < inf, got p={p}")
    if not 1.0 < q:
        raise ValueError(f"the secondary index needs q > 1, got q={q}")
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    g = fields[0].grid
    stack = np.stack([np.abs(as_physical(f).values) for f in fields])
    if stack.max() == 0.0:
        raise DegenerateInputError("zero family in vector-valued maximal ratio")
    spec = NormSpec(0.0, p, q, homogeneous=True)  # a ladder at s = 0
    top = len(stack) - 1
    num = _ladder_norms((_maximal_array(a, g) for a in stack), (spec,), g.cell_volume, False, top)
    return num[0] / _ladder_norms(stack, (spec,), g.cell_volume, False, top)[0]  # overwrites stack
