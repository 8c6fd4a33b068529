"""Dyadic function-space norms and the inequality harnesses built on them.

The Triebel-Lizorkin norm integrates the weighted block ladder pointwise
before taking the Lebesgue norm,

    || ( |P_{<=0} f|^q + sum_{j>=0} 2^{j s q} |block_j f|^q )^{1/q} ||_{L^p},

while the Besov norm swaps the order (block norms first, then the ladder
sum).  Homogeneous variants drop the low-pass term; on an integer frequency
lattice all blocks with j < 0 vanish identically, so the ladder over j >= 0
is the whole homogeneous ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bank import LPFilterBank, radial_cutoff
from .errors import DegenerateInputError, ResolutionError, WeightOverflowError
from .fields import (GridField, VectorField, _derivative_symbol, _from_half_spectrum,
                     apply_multiplier, as_physical, as_spectral, wavenumber_norm)

_FLAVORS = ("tl", "besov")


@dataclass(frozen=True)
class NormSpec:
    """Parameters (s, p, q) of one dyadic norm.

    ``flavor`` selects Triebel-Lizorkin ("tl") or Besov ("besov");
    ``homogeneous`` drops the low-pass term.  Use ``math.inf`` for p or q
    where allowed (p must stay finite in the Triebel-Lizorkin scale).
    """

    s: float
    p: float
    q: float
    homogeneous: bool = False
    flavor: str = "tl"

    def __post_init__(self):
        if self.flavor not in _FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not (self.p >= 1 and self.q >= 1):  # NaN fails >=
            raise ValueError(f"integrability indices need p, q >= 1, got p={self.p}, q={self.q}")
        if not math.isfinite(self.s):
            raise ValueError(f"smoothness index must be finite, got s={self.s}")
        if self.flavor == "tl" and math.isinf(self.p):
            raise ValueError("the Triebel-Lizorkin scale requires p < infinity")

    @property
    def label(self) -> str:
        head = ("h" if self.homogeneous else "") + ("F" if self.flavor == "tl" else "B")
        return f"{head}{_fmt(self.s)}_{_fmt(self.p)}_{_fmt(self.q)}"


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:g}"


def _lp_of_array(a: np.ndarray, p: float, cell_volume: float) -> float:
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    with np.errstate(over="ignore"):                    # data past float64 reads inf
        return float((cell_volume * (a**p).sum()) ** (1.0 / p))


def lp_norm(f: GridField | VectorField, p: float) -> float:
    """Lebesgue norm by grid quadrature; p = inf gives the sample maximum.

    Vector fields use the pointwise Euclidean magnitude.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if isinstance(f, VectorField):
        mag = np.sqrt(sum(np.abs(as_physical(c).values) ** 2 for c in f.components))
        return _lp_of_array(mag, p, f.grid.cell_volume)
    vals = np.abs(as_physical(f).values)
    return _lp_of_array(vals, p, f.grid.cell_volume)


def _gradient_halves(f: GridField) -> np.ndarray:
    """Half spectra of the d partial derivatives of f, stacked (d, *half)."""
    return as_spectral(f).values * _derivative_symbol(f.grid.n, f.grid.d)


def _block_magnitudes(bank: LPFilterBank, half: np.ndarray, low: bool):
    """|P_0 f| (if ``low``), then |block_j f| for j = 0..j_max - 1: one real inverse
    each.  The top block psi_{j_max} is zero on the whole lattice, and a zero
    block adds nothing to any ladder, so it is left out."""
    for m in (bank.phi_0, *bank.psi[:-1]) if low else bank.psi[:-1]:
        b = _from_half_spectrum(half * m, bank.grid.d)
        yield np.abs(b, out=b)


def _power(t: float, q: float) -> float:
    """t**q for a float t >= 0, inf where Python's float power would raise
    OverflowError (numpy's rule, so a Besov ladder overflows as a TL one does)."""
    try:
        return t**q
    except OverflowError:
        return math.inf


def _ladder_norms(mags, specs, cell_volume: float, low: bool, top: int) -> list[float]:
    """The dyadic norms ``specs`` from one pass over the block magnitudes ``mags``:
    |P_0 f| first if ``low`` (homogeneous specs skip it), then |block_j f|, j >= 0.
    A Besov spec keeps 2^{js}||block_j||_{L^p}; a Triebel-Lizorkin spec adds
    (2^{js}|block_j|)^q to its pointwise ladder (a running max for q = inf), in
    place if it is the block's last reader and on a copy before that.

    ``top`` is the index of the last block in ``mags``.  A spec whose weight there,
    2^{top s} raised to q (q = inf reads the weight alone), is past the float64
    range raises :class:`WeightOverflowError` before any block is read.
    """
    for spec in specs:
        power = 1.0 if math.isinf(spec.q) else float(spec.q)
        if top * float(spec.s) * power >= 1024.0:       # 2.0 ** 1024 overflows float64
            raise WeightOverflowError(
                f"the dyadic weight 2^(j s) to the power q overflows float64 at the top "
                f"block j = {top} (s = {float(spec.s)!r}, q = {float(spec.q)!r})")
    order = sorted(range(len(specs)), key=lambda k: specs[k].flavor == "tl")  # Besov reads first
    accs = [[] if spec.flavor == "besov" else None for spec in specs]
    for j, b in enumerate(mags, -1 if low else 0):
        readers = [k for k in order if j >= 0 or not specs[k].homogeneous]
        for k in readers:
            spec, acc = specs[k], accs[k]
            if spec.flavor == "besov":
                acc.append(2.0 ** (max(j, 0) * spec.s) * _lp_of_array(b, spec.p, cell_volume))
                continue
            c = b if k == readers[-1] else b.copy()
            with np.errstate(over="ignore"):            # data past float64 reads inf
                if j > 0:
                    c *= 2.0 ** (j * spec.s)
                if math.isinf(spec.q):
                    accs[k] = c if acc is None else np.maximum(acc, c, out=acc)
                else:
                    c **= spec.q
                    accs[k] = c if acc is None else np.add(acc, c, out=acc)
    out = []
    for spec, acc in zip(specs, accs):
        p, q = spec.p, spec.q
        if spec.flavor == "tl":
            out.append(_lp_of_array(acc if math.isinf(q) else acc ** (1.0 / q), p, cell_volume))
        else:
            out.append(max(acc) if math.isinf(q)
                       else float(sum(_power(t, q) for t in acc) ** (1.0 / q)))
    return out


def _half_norms(bank: LPFilterBank, halves, specs) -> list[float]:
    """The norms ``specs`` of the real field with component half spectra ``halves``,
    several in quadrature (little-l2); |P_0 f| is made only if a spec reads it."""
    low = not all(spec.homogeneous for spec in specs)
    per = [_ladder_norms(_block_magnitudes(bank, h, low), specs, bank.grid.cell_volume, low,
                         bank.j_max - 1) for h in halves]
    if len(per) == 1:
        return per[0]
    return [math.sqrt(sum(_power(v, 2) for v in vs)) for vs in zip(*per)]


def _field_norms(bank: LPFilterBank, f: GridField | VectorField, specs) -> list[float]:
    comps = f.components if isinstance(f, VectorField) else (f,)
    return _half_norms(bank, (as_spectral(c).values for c in comps), specs)


def tl_norm(bank: LPFilterBank, f: GridField, spec: NormSpec) -> float:
    """Triebel-Lizorkin norm of a scalar field."""
    return _field_norms(bank, f, (replace(spec, flavor="tl"),))[0]


def besov_norm(bank: LPFilterBank, f: GridField, spec: NormSpec) -> float:
    """Besov norm of a scalar field."""
    return _field_norms(bank, f, (replace(spec, flavor="besov"),))[0]


def field_norm(bank: LPFilterBank, f: GridField | VectorField, spec: NormSpec) -> float:
    """Dyadic norm of a scalar or vector field.

    Vector fields aggregate component norms in quadrature (little-l2), which
    is equivalent to any other componentwise convention up to fixed factors.
    """
    return _field_norms(bank, f, (spec,))[0]


def sup_norm(f: GridField | VectorField) -> float:
    return lp_norm(f, math.inf)


def grad_sup_norm(u: GridField | VectorField) -> float:
    """Sup of the Euclidean norm of the (component-wise) gradient."""
    comps = u.components if isinstance(u, VectorField) else (u,)
    acc = 0.0
    for c in comps:
        for g in _from_half_spectrum(_gradient_halves(c), c.grid.d):
            acc = acc + g * g
    return float(np.sqrt(acc).max())


# ---------------------------------------------------------------------------
# ratio harnesses


def verify_equivalence(bank: LPFilterBank, f: GridField, s: float, p: float,
                       q: float) -> float:
    """Ratio ||f||_{F^s} / (||f||_{L^p} + ||f||_{F^s homogeneous}), s > 0."""
    if s <= 0:
        raise ValueError(f"equivalence requires s > 0, got s={s}")
    num, hom = _field_norms(bank, f, (NormSpec(s, p, q), NormSpec(s, p, q, homogeneous=True)))
    den = lp_norm(f, p) + hom
    if den == 0.0:
        raise DegenerateInputError("zero field in equivalence ratio")
    return num / den


def verify_embedding(bank: LPFilterBank, f: GridField, source: tuple[float, float, float],
                     target: tuple[float, float]) -> float:
    """Sharp-scaling embedding ratio between homogeneous norms.

    ``source`` = (s0, p0, q0) indexes the Triebel-Lizorkin side, ``target`` =
    (s1, p1) the Besov side with secondary index q = p0.  The scaling balance
    s0 - d/p0 == s1 - d/p1 with p0 < p1 is required.
    """
    return _embedding_norms(bank, f, source, target)[0]


def _embedding_norms(bank: LPFilterBank, f: GridField, source: tuple[float, float, float],
                     target: tuple[float, float], *extra: NormSpec) -> tuple[float, list[float]]:
    """The :func:`verify_embedding` ratio, and the norms ``extra`` of f from the same block pass."""
    s0, p0, q0 = source
    s1, p1 = target
    d = f.grid.d
    if math.isinf(p0) or not p0 < p1:
        raise ValueError(f"embedding requires p0 < p1, got p0={p0}, p1={p1}")
    lhs_scale = s0 - d / p0
    rhs_scale = s1 - (0.0 if math.isinf(p1) else d / p1)
    if abs(lhs_scale - rhs_scale) > 1e-12:
        raise ValueError(
            f"scaling mismatch: s0 - d/p0 = {lhs_scale} but s1 - d/p1 = {rhs_scale}")
    den, num, *rest = _field_norms(bank, f, (NormSpec(s0, p0, q0, homogeneous=True),
                                             NormSpec(s1, p1, p0, homogeneous=True,
                                                      flavor="besov"), *extra))
    if den == 0.0:
        raise DegenerateInputError("zero field in embedding ratio")
    return num / den, rest


def fractional_laplacian_half(f: GridField, order: float) -> GridField:
    """|k|^order spectral multiplier (the k = 0 mode is annihilated)."""
    kk = wavenumber_norm(f.grid.n, f.grid.d)
    mult = np.zeros(kk.shape)
    nz = kk > 0
    mult[nz] = kk[nz] ** order
    return apply_multiplier(f, mult)


def verify_lifting(bank: LPFilterBank, f: GridField, s: float, p: float, q: float,
                   k: float) -> float:
    """Ratio ||f||_{F^{s+k} hom} / || |D|^k f ||_{F^s hom} for zero-mean f."""
    F = as_spectral(f)
    mean = abs(F.values.flat[0])
    scale = np.abs(F.values).max()
    if scale > 0 and mean > 1e-10 * scale:
        raise ValueError("lifting ratio requires a zero-mean field")
    den = tl_norm(bank, fractional_laplacian_half(f, k), NormSpec(s, p, q, homogeneous=True))
    if den == 0.0:
        raise DegenerateInputError("zero field in lifting ratio")
    num = tl_norm(bank, f, NormSpec(s + k, p, q, homogeneous=True))
    return num / den


# ---------------------------------------------------------------------------
# L^1 kernel bound for the projected second-order symbol

_SLAB_BYTES = 1 << 20  # complex bytes per column slab of the kernel's final transform pass


def _kernel_lattice(refinement: int, d: int):
    """The annulus box of the auxiliary dual lattice: its meshes, the annulus
    bump on them, its indices on each axis and the lattice's points per axis."""
    box = 2.0**refinement
    dxi = 2.0 * np.pi / box
    if dxi > 0.5:
        raise ResolutionError(
            f"refinement {refinement} gives frequency spacing {dxi:.3f} > 0.5; "
            "the annulus [1/2, 2] is unresolved")
    # Dual lattice must reach past the annulus with a margin; keep x-sampling
    # at spacing pi/8 for an accurate quadrature of |kernel|.
    m_pts = 1
    while m_pts * dxi / 2.0 < 8.0:
        m_pts *= 2
    # psi's support |xi| < 2 lies in the box of FFT-order indices |i| <= r.
    r = math.ceil(2.0 / dxi)
    box = np.r_[0:r + 1, m_pts - r:m_pts]
    xi_1d = np.fft.fftfreq(m_pts, d=1.0 / m_pts)[box] * dxi
    mesh = np.meshgrid(*([xi_1d] * d), indexing="ij")
    rho = np.sqrt(sum(m * m for m in mesh))
    # psi vanishes off the open annulus 1/2 < rho < 2, exactly: the cutoff
    # returns 1.0 for r <= 1/2 and 0.0 for r >= 1.
    ann = (rho > 0.5) & (rho < 2.0)
    psi = np.zeros_like(rho)
    psi[ann] = radial_cutoff(rho[ann] / 2.0) - radial_cutoff(rho[ann])
    return mesh, psi, box, m_pts


def _kernel_scale_l1(lattice, l: int, k: int, i: int, j: int) -> float:
    """|| F^{-1}( m(2^j .) psi * xi_i ) ||_{L^1}, evaluated explicitly at scale j
    on ``lattice``, a box from :func:`_kernel_lattice`."""
    mesh, psi, box, m_pts = lattice
    # Only psi's support is evaluated: every other entry is multiplied by psi = 0.
    ann = psi != 0
    scaled = [2.0**j * m[ann] for m in mesh]
    srho2 = sum(m * m for m in scaled)
    ssym = np.zeros_like(psi)
    ssym[ann] = radial_cutoff(np.sqrt(srho2)) * scaled[l] * scaled[k] / srho2
    # Box quadrature: with symbol samples on the dual lattice of a periodic box
    # the weights collapse, so the L^1 norm is the l1 norm of the inverse DFT.
    # This is the one FFT outside lpflow.fields: it acts on the auxiliary box,
    # not on a torus field, so the torus normalization does not apply.
    # The passes of a full-lattice ifftn, last axis first, on the lines through
    # the box only (every other line is zero at its pass): axes d-1 .. 1 on the
    # box rows, then axis 0 on slabs of columns, each embedded in zeros.  Each
    # column's values and the sum over one contiguous real buffer of the whole
    # lattice are the ifftn's, so the l1 sum is the same to the bit.
    d, rows = psi.ndim, len(box)
    part = np.zeros((rows,) + (m_pts,) * (d - 1), complex)
    part[np.ix_(range(rows), *[box] * (d - 1))] = ssym * psi * mesh[i]
    for a in range(d - 1, 0, -1):
        lines = np.ix_(range(rows), *[box] * (a - 1))
        part[lines] = np.fft.ifft(part[lines], axis=a)
    part = part.reshape(rows, -1)
    mag = np.empty((m_pts, part.shape[1]))
    width = max(1, _SLAB_BYTES // (16 * m_pts))
    for c in range(0, part.shape[1], width):
        slab = np.zeros((m_pts, min(width, part.shape[1] - c)), complex)
        slab[box] = part[:, c:c + width]
        np.abs(np.fft.ifft(slab, axis=0), out=mag[:, c:c + width])
    return float(mag.sum())


def kernel_l1_terms(l: int = 0, k: int = 0, i: int = 0, refinement: int = 7, d: int = 2,
                    tail_tol: float = 1e-6) -> list[tuple[int, float]]:
    """Per-scale L^1 kernel norms 2^j || F^{-1}( m(2^j .) psi * xi_i ) ||_{L^1}.

    ``m`` is the symbol of the low-pass-projected operator
    (-Laplace)^{-1} d_l d_k, ``psi`` the unit annulus bump.  Terms are listed
    for j = 0, -1, -2, ... until the geometric tail drops below ``tail_tol``
    (at most 60 terms).
    The transform is evaluated on an auxiliary box of side 2^refinement with a
    dual lattice fine enough to resolve the annulus.

    Only j = 0, -1 and -2 are transformed.  psi vanishes off the open annulus
    1/2 < |xi| < 2, and for j <= -2 the low-pass factor phi(2^j xi) is exactly
    1 there (its argument stays below 1/2, where the cutoff returns 1.0).
    What is left, (2^j xi_l)(2^j xi_k) / |2^j xi|^2, is 0-homogeneous, and
    scaling by a power of two is exact in binary floating point, so the
    sampled symbol, and hence the l1 sum, is bit-for-bit the same at every
    j <= -2.  Each tail term is 2^j times the j = -2 sum, exactly as the
    explicit per-scale evaluation (:func:`_kernel_scale_l1`) would give it.
    """
    for name, ax in (("l", l), ("k", k), ("i", i)):
        if not 0 <= ax < d:
            raise ValueError(f"axis {name}={ax} out of range for dimension {d}")
    lattice = _kernel_lattice(refinement, d)

    terms = []
    for j in range(0, -60, -1):
        if j >= -2:  # below j = -2 the sum is frozen at its j = -2 value
            l1 = _kernel_scale_l1(lattice, l, k, i, j)
        term = 2.0**j * l1
        terms.append((j, term))
        # The prefactor halves per scale while the symbol freezes, so the
        # remaining tail is about the size of the last term.
        if term < tail_tol:
            break
    return terms


def kernel_l1_bound(refinement: int = 7) -> float:
    """Partial sum of the 2D dyadic L^1 kernel series for l = k = i = 0 (tail below 1e-6)."""
    return float(sum(t for _, t in kernel_l1_terms(refinement=refinement)))
