"""Hardy-Littlewood maximal function on the torus and its companion bounds.

The maximal function is approximated by the maximum of |f| and its periodic
means over axis-aligned cubes of half-width 1, 2, 4, ..., n/2 cells: one fixed
dyadic ladder, with no settings.  Taking |f| itself in the maximum keeps
Mf >= |f| pointwise.  A periodic cube mean is a circulant convolution, so each
one is a Fourier multiplier applied on the package's one transform pair: one
forward transform of |f|, then one inverse per half-width.  The bounds measured
with it are the pointwise bound of one dyadic block by maximal functions of a
band-limited field and the Fefferman-Stein vector-valued bound.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np

from .bank import LPFilterBank, delta_j
from .errors import DegenerateInputError, RepresentationError
from .fields import (PHYSICAL, Grid, GridField, _freeze, _from_half_spectrum, _to_half_spectrum,
                     as_physical, as_spectral, wavenumber_norm)
from .norms import NormSpec, _ladder_norms


@lru_cache(maxsize=None)
def _cube_mean_symbols(n: int, d: int) -> np.ndarray:
    """Symbols of the periodic cube means of half-width h = 1, 2, 4, ..., n/2 cells,
    stacked (log2 n, *half): each the product over axes of the 1-D window symbol
    (1/(2h+1)) sum_{m=-h..h} cos(2 pi k m / n).  The sum runs over the window
    offsets, so at h = n/2 the wrapped cell -n/2 = n/2 is counted twice, as it is
    in the window itself."""
    k = np.arange(n)
    rows = []
    for j in range(n.bit_length() - 1):
        m = np.arange(-2**j, 2**j + 1)
        line = np.cos((2.0 * np.pi / n) * (np.outer(k, m) % n)).sum(axis=1) / m.size
        rows.append(reduce(np.multiply.outer, [line] * (d - 1) + [line[:n // 2 + 1]]))
    return _freeze(np.stack(rows))


def _require_finite(absvals: np.ndarray) -> np.ndarray:
    """``absvals`` itself; raises ValueError if a sample is NaN or infinite, which
    the cube means would spread over the whole lattice."""
    bad = ~np.isfinite(absvals)
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"maximal function of non-finite samples: {int(bad.sum())} of "
                         f"{absvals.size}, the first at index {first}")
    return absvals


def _maximal_array(absvals: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise max of |f| and its periodic cube means of half-width 1, 2, 4, ..., n/2 cells."""
    half = _to_half_spectrum(_require_finite(absvals), grid.d)
    out = absvals.copy()
    for symbol in _cube_mean_symbols(grid.n, grid.d):
        np.maximum(out, _from_half_spectrum(symbol * half, grid.d), out=out)
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
    absf = _require_finite(np.abs(as_physical(f).values))   # before band_edge transforms it
    if band_edge(f) > 2.0**j + 1e-9:
        raise ValueError(f"field has content beyond |k| = 2^{j}")
    g = f.grid
    if absf.max() == 0.0:
        raise DegenerateInputError("zero field in pointwise maximal bound")
    lhs = np.abs(as_physical(delta_j(bank, f, k)).values)
    m_low = (np.ones(g.shape) if theta == 1.0
             else _maximal_array(absf ** (1.0 - theta), g))
    m_r = _maximal_array(absf**r, g)
    rhs = 2.0 ** ((j - k) * theta * g.d / r) * m_low * m_r ** (theta / r)
    return float((lhs / rhs).max())


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
