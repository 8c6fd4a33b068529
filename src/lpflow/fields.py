"""Periodic grids, spectral transforms, random fields, and field file I/O.

Fields live on the torus [0, 2*pi)^d sampled on a uniform n^d lattice.  The
frequency lattice is the set of integer vectors stored in FFT order; the
forward transform returns Fourier coefficients, i.e. it is normalized so that

    f(x) = sum_k F(k) exp(i k.x),

and Parseval holds with the quadrature weight (2*pi/n)^d:

    (2*pi/n)^d * sum_x |f(x)|^2 = (2*pi)^d * sum_k |F(k)|^2.

That normalization lives here alone, in two transform pairs.  Stored
fields go through :func:`_to_coefficients` and :func:`_to_samples` (complex
FFTs of the full lattice).  Real data that never leaves the library, the
Euler solver's state and every block and derivative of the dyadic norms, goes
through :func:`_to_half_spectrum` and :func:`_from_half_spectrum`: real FFTs
over the last d axes of a component-stacked array, keeping the half lattice
0 <= k_last <= n/2 (the k_last = n/2 entry is the Nyquist mode, -n/2 in FFT
order).  :func:`_expand_half_spectrum` turns a half spectrum into the full
one.  Fields carry no reality flag; a real field is one whose samples have
zero imaginary part.
"""

from __future__ import annotations

import struct
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldFormatError, RepresentationError

PHYSICAL = "physical"
SPECTRAL = "spectral"

TWO_PI = 2.0 * np.pi

# LPF1 field container kinds.
_KIND_SCALAR_PHYS = 0
_KIND_SCALAR_SPEC = 1
_KIND_VECTOR_PHYS = 2
_KIND_VECTOR_SPEC = 3


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with ``n`` samples per axis on [0, 2*pi)^d."""

    n: int
    d: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"samples per axis must be a power of two >= 8, got {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.n) ** self.d

    def axis_coordinates(self) -> np.ndarray:
        """Sample coordinates along one axis."""
        return np.arange(self.n) * self.spacing

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate meshes, one array of shape ``grid.shape`` per axis."""
        x = self.axis_coordinates()
        return tuple(np.meshgrid(*([x] * self.d), indexing="ij"))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _to_coefficients(samples: np.ndarray) -> np.ndarray:
    """Fourier coefficients of torus samples: the FFT divided by n^d."""
    return np.fft.fftn(samples) / samples.size


def _to_samples(coeff: np.ndarray) -> np.ndarray:
    """Torus samples from Fourier coefficients: the inverse FFT times n^d."""
    return np.fft.ifftn(coeff) * coeff.size


def _to_half_spectrum(samples: np.ndarray, d: int) -> np.ndarray:
    """Half-lattice coefficients of real samples over their last d axes."""
    return np.fft.rfftn(samples, axes=tuple(range(-d, 0)), norm="forward")


def _from_half_spectrum(half: np.ndarray, d: int) -> np.ndarray:
    """Real samples over the last d axes from half-lattice coefficients.

    Like any inverse real FFT, this reads only the Hermitian part of the
    k_last = 0 and k_last = n/2 planes.
    """
    n = 2 * (half.shape[-1] - 1)
    return np.fft.irfftn(half, s=(n,) * d, axes=tuple(range(-d, 0)), norm="forward")


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """a(-k): the lattice reflection k -> -k (FFT order) along ``axes``."""
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def _expand_half_spectrum(half: np.ndarray, d: int) -> np.ndarray:
    """The full-lattice spectrum of the real field a half spectrum stands for.

    Modes with k_last < 0 are the conjugates of their reflections; the
    k_last = 0 and n/2 planes keep their Hermitian part (what
    :func:`_from_half_spectrum` reads), so the result is exactly Hermitian.
    """
    h = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * h,), complex)
    flipped = _reflect(half, range(-d, -1))  # every axis but the last
    full[..., 1:h] = half[..., 1:h]
    for j in (0, h):
        full[..., j] = 0.5 * (half[..., j] + np.conj(flipped[..., j]))
    full[..., h + 1:] = np.conj(flipped[..., h - 1:0:-1])
    return full


@lru_cache(maxsize=None)
def wavenumbers_1d(n: int) -> np.ndarray:
    """Integer frequencies along one axis in FFT order."""
    return _freeze(np.fft.fftfreq(n, d=1.0 / n))


@lru_cache(maxsize=None)
def wavenumber_mesh(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Frequency meshes (one per axis), each of shape ``(n,)*d``."""
    k = wavenumbers_1d(n)
    return tuple(_freeze(m.copy()) for m in np.meshgrid(*([k] * d), indexing="ij"))

@lru_cache(maxsize=None)
def wavenumber_norm(n: int, d: int) -> np.ndarray:
    """Euclidean frequency magnitude |k| on the lattice."""
    mesh = wavenumber_mesh(n, d)
    return _freeze(np.sqrt(sum(m * m for m in mesh)))


@lru_cache(maxsize=None)
def _inverse_k2(n: int, d: int) -> np.ndarray:
    """1/|k|^2 on the lattice, 0 at k = 0 (the Leray multiplier)."""
    k2 = sum(m * m for m in wavenumber_mesh(n, d))
    inv_k2 = np.zeros_like(k2)
    nonzero = k2 > 0
    inv_k2[nonzero] = 1.0 / k2[nonzero]
    return _freeze(inv_k2)


@lru_cache(maxsize=None)
def dealias_mask(n: int, d: int) -> np.ndarray:
    """Boolean mask keeping |k_axis| <= n//3 on every axis (2/3 rule)."""
    cut = n // 3
    mesh = wavenumber_mesh(n, d)
    mask = np.ones((n,) * d, dtype=bool)
    for m in mesh:
        mask &= np.abs(m) <= cut
    return _freeze(mask)


def _lattice(n: int, d: int, last: int) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The cached lattice tables cut to spectra whose last axis has ``last`` entries.

    ``last`` is n for the full lattice and n//2 + 1 for a half spectrum (whose
    k_last = n/2 entry is the -n/2 of FFT order).  Returns the frequency
    meshes, 1/|k|^2 and the 2/3-rule mask, as read-only views.
    """
    cut = (Ellipsis, slice(0, last))
    return (tuple(m[cut] for m in wavenumber_mesh(n, d)), _inverse_k2(n, d)[cut],
            dealias_mask(n, d)[cut])


def _derivative_symbol(n: int, d: int, axis: int, last: int) -> np.ndarray:
    """i*k_axis, cut as in :func:`_lattice`.  The axis's Nyquist plane is
    dropped: the +/- n/2 mode has an ambiguous sign under i*k."""
    k = _lattice(n, d, last)[0][axis]
    return 1j * k * (np.abs(k) < n / 2)


@dataclass(frozen=True)
class GridField:
    """A scalar field on a :class:`Grid` in one fixed representation.

    ``values`` is always complex128 of shape ``grid.shape``; ``rep`` is either
    ``"physical"`` (sample values) or ``"spectral"`` (Fourier coefficients).
    Instances are immutable: the value buffer is frozen at construction.  A
    caller's writeable array is copied; an array that is already frozen and
    owns its data (as the library freezes the ones it has just computed) is
    adopted as is.  A fourth positional argument is accepted and ignored.
    """

    grid: Grid
    values: np.ndarray
    rep: str
    is_real: InitVar[bool] = True  # old call signature only; never stored or readable

    def __post_init__(self, _flag):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {self.rep!r}")
        vals = np.asarray(self.values)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid.shape}")
        if vals.dtype != np.complex128:
            vals = vals.astype(np.complex128)
        else:
            vals = vals.copy() if vals.base is not None or vals.flags.writeable else vals
        object.__setattr__(self, "values", _freeze(vals))

    # -- arithmetic (same grid, same representation) --------------------
    def _check_compatible(self, other: "GridField"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.rep != other.rep:
            raise RepresentationError("fields are in different representations")

    def __add__(self, other: "GridField") -> "GridField":
        self._check_compatible(other)
        return GridField(self.grid, _freeze(self.values + other.values), self.rep)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_compatible(other)
        return GridField(self.grid, _freeze(self.values - other.values), self.rep)

    def __mul__(self, c) -> "GridField":
        return GridField(self.grid, _freeze(self.values * complex(c)), self.rep)

    __rmul__ = __mul__

    def __neg__(self) -> "GridField":
        return GridField(self.grid, _freeze(-self.values), self.rep)


# The generated __init__ keeps the default; without the class attribute,
# reading ``is_real`` raises AttributeError instead of answering True.
del GridField.is_real


@dataclass(frozen=True)
class VectorField:
    """A d-component field; all components share grid and representation."""

    components: tuple[GridField, ...]
    div_free: bool = False

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        g = comps[0].grid
        rep = comps[0].rep
        if len(comps) != g.d:
            raise ValueError(f"expected {g.d} components, got {len(comps)}")
        for c in comps:
            if c.grid != g:
                raise ValueError("components live on different grids")
            if c.rep != rep:
                raise RepresentationError("components are in mixed representations")
        object.__setattr__(self, "components", comps)

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    @property
    def rep(self) -> str:
        return self.components[0].rep

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)),
                           self.div_free and other.div_free)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)),
                           self.div_free and other.div_free)

    def __mul__(self, c) -> "VectorField":
        return VectorField(tuple(comp * c for comp in self.components), self.div_free)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# transforms


def dft_forward(f: GridField) -> GridField:
    """Physical samples -> Fourier coefficients (divides the FFT by n^d)."""
    if f.rep != PHYSICAL:
        raise RepresentationError("dft_forward expects a physical-representation field")
    return GridField(f.grid, _freeze(_to_coefficients(f.values)), SPECTRAL)


def dft_inverse(f: GridField) -> GridField:
    """Fourier coefficients -> physical samples (exact inverse of dft_forward)."""
    if f.rep != SPECTRAL:
        raise RepresentationError("dft_inverse expects a spectral-representation field")
    return GridField(f.grid, _freeze(_to_samples(f.values)), PHYSICAL)


def as_spectral(f: GridField) -> GridField:
    return f if f.rep == SPECTRAL else dft_forward(f)


def as_physical(f: GridField) -> GridField:
    return f if f.rep == PHYSICAL else dft_inverse(f)


def vector_as_spectral(u: VectorField) -> VectorField:
    if u.rep == SPECTRAL:
        return u
    return VectorField(tuple(as_spectral(c) for c in u.components), u.div_free)


def vector_as_physical(u: VectorField) -> VectorField:
    if u.rep == PHYSICAL:
        return u
    return VectorField(tuple(as_physical(c) for c in u.components), u.div_free)


def apply_multiplier(f: GridField, multiplier: np.ndarray) -> GridField:
    """Apply a spectral multiplier; the output representation matches the input."""
    F = as_spectral(f)
    out = GridField(f.grid, _freeze(F.values * multiplier), SPECTRAL)
    return out if f.rep == SPECTRAL else dft_inverse(out)


def derivative(f: GridField, axis: int) -> GridField:
    """Partial derivative along ``axis`` (spectral i*k multiplier).

    The Nyquist plane of the differentiated axis is zeroed; output
    representation matches the input.
    """
    g = f.grid
    if not 0 <= axis < g.d:
        raise ValueError(f"axis {axis} out of range for dimension {g.d}")
    F = as_spectral(f)
    out = GridField(g, _freeze(F.values * _derivative_symbol(g.n, g.d, axis, g.n)), SPECTRAL)
    return out if f.rep == SPECTRAL else dft_inverse(out)


def gradient(f: GridField) -> VectorField:
    return VectorField(tuple(derivative(f, a) for a in range(f.grid.d)))


def dealias_field(f: GridField) -> GridField:
    """Zero all spectral content above the 2/3-rule cutoff n//3 (per axis)."""
    return apply_multiplier(f, dealias_mask(f.grid.n, f.grid.d).astype(float))


def hermitian_defect(f: GridField) -> float:
    """Max |F(k) - conj(F(-k))| relative to max |F| (0 for a real field)."""
    F = as_spectral(f).values
    scale = np.abs(F).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(F - np.conj(_reflect(F, range(f.grid.d)))).max() / scale)


def max_spectral_divergence(u: VectorField) -> float:
    """Max |k . u_hat(k)| over the lattice, relative to max |u_hat|."""
    spec = vector_as_spectral(u)
    g = u.grid
    mesh = wavenumber_mesh(g.n, g.d)
    div = sum(1j * mesh[a] * spec.components[a].values for a in range(g.d))
    scale = max(np.abs(c.values).max() for c in spec.components)
    if scale == 0.0:
        return 0.0
    return float(np.abs(div).max() / scale)


def _require_divfree(u: VectorField, who: str) -> None:
    """Raise unless u is flagged divergence-free or measures so (1e-6 relative)."""
    if u.div_free:
        return
    if not max_spectral_divergence(u) <= 1e-6:  # a NaN divergence fails <= too
        raise ValueError(f"{who} requires a divergence-free vector field")


def _require_real(u: VectorField, who: str) -> None:
    """Raise unless u's samples are real to 1e-12 of their largest magnitude."""
    samples = [c.values for c in vector_as_physical(u).components]
    imag = max(float(np.abs(s.imag).max()) for s in samples)
    scale = max(float(np.abs(s).max()) for s in samples)
    if imag > 1e-12 * scale:  # NaN data passes on to the caller's finite-value guard
        raise ValueError(f"{who} requires a real vector field "
                         f"(max |imag| of the samples is {imag:.3g} of {scale:.3g})")


def _leray_spectra(spectra) -> np.ndarray:
    """Project d spectral components onto divergence-free fields, stacked (d, ...).

    ``spectra`` is a stacked array or a sequence of d arrays, full or half
    spectra alike: the lattice tables follow the last axis.  The k = 0 mode is
    left unchanged.
    """
    d, n, last = len(spectra), spectra[0].shape[0], spectra[0].shape[-1]
    mesh, inv_k2, _ = _lattice(n, d, last)
    kdotu = sum(mesh[a] * spectra[a] for a in range(d))
    out = np.empty((d,) + kdotu.shape, complex)
    for a in range(d):
        np.multiply(mesh[a], kdotu, out=out[a])
        out[a] *= inv_k2
        np.subtract(spectra[a], out[a], out=out[a])
    return out


# ---------------------------------------------------------------------------
# random band-limited fields


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for a random band-limited field.

    Coefficients inside ``band`` (inclusive |k| range) are complex Gaussians
    with standard deviation |k| ** -decay_exponent, Hermitian-symmetrized so
    the sample is real.  The same seed always reproduces the same field.
    """

    decay_exponent: float
    band: tuple[int, int]
    seed: int

    def __post_init__(self):
        lo, hi = self.band
        if lo < 1 or hi < lo:
            raise ValueError(f"band must satisfy 1 <= lo <= hi, got {self.band}")


def _hermitian_symmetrize(coeff: np.ndarray, d: int) -> np.ndarray:
    """Hermitian part of a full spectrum over its last d axes (its field's real part)."""
    return 0.5 * (coeff + np.conj(_reflect(coeff, range(-d, 0))))


def _band_scale(grid: Grid, spec: SpectrumSpec) -> np.ndarray:
    lo, hi = spec.band
    if hi > grid.n // 2 - 1:
        raise ValueError(
            f"band upper edge {hi} exceeds the usable lattice radius {grid.n // 2 - 1}")
    kk = wavenumber_norm(grid.n, grid.d)
    mask = (kk >= lo) & (kk <= hi)
    if not mask.any():
        raise ValueError(f"band {spec.band} contains no lattice frequencies")
    scale = np.zeros(grid.shape)
    scale[mask] = kk[mask] ** (-spec.decay_exponent)
    return scale


def _random_scalar_spectrum(grid: Grid, scale: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    re = rng.standard_normal(grid.shape)
    im = rng.standard_normal(grid.shape)
    coeff = (re + 1j * im) * (scale / np.sqrt(2.0))
    return _hermitian_symmetrize(coeff, grid.d)


def random_band_limited(grid: Grid, spec: SpectrumSpec) -> GridField:
    """Random real scalar field with the prescribed band spectrum."""
    scale = _band_scale(grid, spec)
    rng = np.random.default_rng(spec.seed)
    coeff = _random_scalar_spectrum(grid, scale, rng)
    return GridField(grid, _to_samples(coeff).real, PHYSICAL)


def random_divergence_free(grid: Grid, spec: SpectrumSpec) -> VectorField:
    """Random real divergence-free vector field (Leray-projected)."""
    scale = _band_scale(grid, spec)
    rng = np.random.default_rng(spec.seed)
    spectra = [_random_scalar_spectrum(grid, scale, rng) for _ in range(grid.d)]
    projected = _leray_spectra(spectra)
    comps = tuple(GridField(grid, _to_samples(s).real, PHYSICAL) for s in projected)
    return VectorField(comps, div_free=True)


# ---------------------------------------------------------------------------
# LPF1 file format
#
# magic "LPF1" | u8 version=1 | u8 kind | u8 d | u8 reserved=0
# | d x u32 LE samples per axis | payload: complex128 LE (re, im) pairs,
# row-major, components concatenated.

_MAGIC = b"LPF1"
_VERSION = 1


def write_field(f: GridField | VectorField, path) -> None:
    """Serialize a field to the LPF1 container (bit-exact round trip)."""
    if isinstance(f, VectorField):
        comps = f.components
        kind = _KIND_VECTOR_PHYS if f.rep == PHYSICAL else _KIND_VECTOR_SPEC
        grid = f.grid
    else:
        comps = (f,)
        kind = _KIND_SCALAR_PHYS if f.rep == PHYSICAL else _KIND_SCALAR_SPEC
        grid = f.grid
    header = struct.pack("<4sBBBB", _MAGIC, _VERSION, kind, grid.d, 0)
    header += struct.pack(f"<{grid.d}I", *([grid.n] * grid.d))
    with open(path, "wb") as fh:
        fh.write(header)
        for c in comps:
            fh.write(np.ascontiguousarray(c.values).astype("<c16", copy=False).tobytes())


def read_field(path) -> GridField | VectorField:
    """Read an LPF1 container; the divergence flag is re-derived."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != _MAGIC:
        raise FieldFormatError("not an LPF1 field file (bad magic)")
    version, kind, d, reserved = struct.unpack("<BBBB", data[4:8])
    if version != _VERSION:
        raise FieldFormatError(f"unsupported LPF1 version {version}")
    if kind not in (_KIND_SCALAR_PHYS, _KIND_SCALAR_SPEC, _KIND_VECTOR_PHYS, _KIND_VECTOR_SPEC):
        raise FieldFormatError(f"unknown field kind {kind}")
    if d not in (2, 3):
        raise FieldFormatError(f"unsupported dimension {d}")
    axes_end = 8 + 4 * d
    if len(data) < axes_end:
        raise FieldFormatError("truncated header")
    ns = struct.unpack(f"<{d}I", data[8:axes_end])
    if len(set(ns)) != 1:
        raise FieldFormatError(f"anisotropic sample counts {ns} are not supported")
    try:
        grid = Grid(ns[0], d)
    except ValueError as exc:
        raise FieldFormatError(str(exc)) from exc
    ncomp = d if kind in (_KIND_VECTOR_PHYS, _KIND_VECTOR_SPEC) else 1
    expected = ncomp * grid.n**d * 16
    payload = data[axes_end:]
    if len(payload) != expected:
        raise FieldFormatError(
            f"payload has {len(payload)} bytes, expected {expected}")
    raw = np.frombuffer(payload, dtype="<c16").reshape(ncomp, *grid.shape)
    rep = PHYSICAL if kind in (_KIND_SCALAR_PHYS, _KIND_VECTOR_PHYS) else SPECTRAL
    fields = tuple(GridField(grid, vals, rep) for vals in raw)  # each copied once
    if ncomp == 1:
        return fields[0]
    return VectorField(fields, div_free=max_spectral_divergence(VectorField(fields)) <= 1e-10)
