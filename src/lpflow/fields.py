"""Periodic grids, spectral transforms, random fields, and field file I/O.

Fields live on the torus [0, 2*pi)^d sampled on a uniform n^d lattice, and
every field is real, so it is stored as real data.  Physical values are
float64 samples of shape ``grid.shape``; spectral values are the complex128
half spectrum of shape ``grid.spectral_shape`` = ``grid.shape[:-1] +
(n//2 + 1,)``: the Fourier coefficients with 0 <= k_last <= n/2 of the
integer frequency lattice stored in FFT order (the k_last = n/2 entry is the
Nyquist mode, -n/2 in that order).  The coefficients are normalized so that

    f(x) = sum_k F(k) exp(i k.x),    F(-k) = conj(F(k)),

and Parseval holds with the quadrature weight (2*pi/n)^d:

    (2*pi/n)^d * sum_x |f(x)|^2 = (2*pi)^d * sum_k |F(k)|^2.

That normalization lives here alone, in one transform pair,
:func:`_to_half_spectrum` and :func:`_from_half_spectrum`: real FFTs over the
last d axes of a component-stacked array.  The cached lattice tables
(:func:`wavenumber_mesh`, :func:`wavenumber_norm`, :func:`dealias_mask`) are
cut to the same half lattice.  Fields carry no reality flag: complex samples
are stored as their real part when the imaginary part is roundoff, and
refused otherwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldFormatError, RepresentationError

PHYSICAL = "physical"
SPECTRAL = "spectral"

TWO_PI = 2.0 * np.pi

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
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of a half spectrum: the last axis keeps k_last = 0 .. n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

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


@lru_cache(maxsize=None)
def _plane_weights(n: int) -> np.ndarray:
    """How often each k_last plane of a half spectrum occurs in the full lattice:
    once for k_last = 0 and n/2, twice (k_last and -k_last) in between."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return _freeze(w)


@lru_cache(maxsize=None)
def wavenumbers_1d(n: int) -> np.ndarray:
    """Integer frequencies along one axis in FFT order."""
    return _freeze(np.fft.fftfreq(n, d=1.0 / n))


@lru_cache(maxsize=None)
def wavenumber_mesh(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Frequency meshes (one per axis) on the half lattice ``(n,)*(d-1) + (n//2 + 1,)``.

    They are the FFT-order full lattice cut to its first n//2 + 1 entries along
    the last axis, so the k_last = n/2 entry is the Nyquist mode -n/2.
    """
    k = wavenumbers_1d(n)
    return tuple(_freeze(np.ascontiguousarray(m[..., :n // 2 + 1]))
                 for m in np.meshgrid(*([k] * d), indexing="ij"))


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
    mask = np.ones(mesh[0].shape, dtype=bool)
    for m in mesh:
        mask &= np.abs(m) <= cut
    return _freeze(mask)


@lru_cache(maxsize=None)
def _derivative_symbol(n: int, d: int) -> np.ndarray:
    """i*k_a for each axis a, stacked (d, *half): every derivative of the package.
    Entry a drops axis a's Nyquist plane, where the +/- n/2 mode has no sign."""
    k = np.stack(wavenumber_mesh(n, d))
    return _freeze(1j * k * (np.abs(k) < n / 2))


@dataclass(frozen=True)
class GridField:
    """A real scalar field on a :class:`Grid` in one fixed representation.

    ``rep`` is either ``"physical"``: ``values`` are float64 samples of shape
    ``grid.shape``; or ``"spectral"``: ``values`` are the complex128 half
    spectrum of shape ``grid.spectral_shape``.  Complex samples are stored as
    their real part if the imaginary part is roundoff (1e-12 of the largest
    magnitude) and raise :class:`RepresentationError` otherwise.  Instances
    are immutable: the value buffer is frozen at construction.  A caller's
    writeable array is copied; an array that is already frozen and owns its
    data (as the library freezes the ones it has just computed) is adopted as
    is.  A fourth positional argument is accepted and ignored.
    """

    grid: Grid
    values: np.ndarray
    rep: str
    is_real: InitVar[bool] = True  # old call signature only; never stored or readable

    def __post_init__(self, _flag):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {self.rep!r}")
        vals = np.asarray(self.values)
        shape, dtype = ((self.grid.shape, np.float64) if self.rep == PHYSICAL
                        else (self.grid.spectral_shape, np.complex128))
        if vals.shape != shape:
            raise ValueError(f"{self.rep} values of shape {vals.shape} do not match {shape}")
        if self.rep == PHYSICAL and np.iscomplexobj(vals):
            imag, scale = np.abs(vals.imag).max(), np.abs(vals).max()
            if imag > 1e-12 * scale:  # NaN data pass on to the callers' finite-value guards
                raise RepresentationError(
                    f"fields are real; the samples' max |imag| is {imag:.3g} of {scale:.3g}")
            vals = vals.real
        if vals.dtype != dtype:
            vals = vals.astype(dtype)
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
        c = complex(c)
        if c.imag != 0:
            raise RepresentationError("a real field times a non-real number is not real")
        return GridField(self.grid, _freeze(self.values * c.real), self.rep)

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
    """Physical samples -> half-spectrum Fourier coefficients (the FFT divided by n^d)."""
    if f.rep != PHYSICAL:
        raise RepresentationError("dft_forward expects a physical-representation field")
    return GridField(f.grid, _freeze(_to_half_spectrum(f.values, f.grid.d)), SPECTRAL)


def dft_inverse(f: GridField) -> GridField:
    """Fourier coefficients -> physical samples (exact inverse of dft_forward)."""
    if f.rep != SPECTRAL:
        raise RepresentationError("dft_inverse expects a spectral-representation field")
    return GridField(f.grid, _freeze(_from_half_spectrum(f.values, f.grid.d)), PHYSICAL)


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
    """Apply a spectral multiplier given on the half lattice; the output
    representation matches the input."""
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
    return apply_multiplier(f, _derivative_symbol(g.n, g.d)[axis])


def gradient(f: GridField) -> VectorField:
    return VectorField(tuple(derivative(f, a) for a in range(f.grid.d)))


def dealias_field(f: GridField) -> GridField:
    """Zero all spectral content above the 2/3-rule cutoff n//3 (per axis)."""
    return apply_multiplier(f, dealias_mask(f.grid.n, f.grid.d).astype(float))


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


def _leray_spectra(spectra) -> np.ndarray:
    """Project d half spectra onto divergence-free fields, stacked (d, ...).

    ``spectra`` is a stacked array or a sequence of d arrays.  The k = 0 mode
    is left unchanged.  A mode with a component at n/2 is dropped: that
    component has no sign, so no real field with content there is
    divergence-free (the derivative symbol drops these modes too).
    """
    d, n = len(spectra), spectra[0].shape[0]
    mesh, inv_k2 = wavenumber_mesh(n, d), _inverse_k2(n, d)
    kdotu = sum(mesh[a] * spectra[a] for a in range(d))
    out = np.empty((d,) + kdotu.shape, complex)
    for a in range(d):
        np.multiply(mesh[a], kdotu, out=out[a])
        out[a] *= inv_k2
        np.subtract(spectra[a], out[a], out=out[a])
    for b in range(d):   # axis b's Nyquist plane, at index n/2 on the half lattice too
        out[(slice(None),) * (b + 1) + (n // 2,)] = 0.0
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
    reflected = coeff   # coeff(-k): the lattice reflection in FFT order
    for ax in range(-d, 0):
        reflected = np.roll(np.flip(reflected, axis=ax), 1, axis=ax)
    return 0.5 * (coeff + np.conj(reflected))


def _band_scale(grid: Grid, spec: SpectrumSpec) -> np.ndarray:
    """|k|^-decay inside the band on the full lattice, where the Gaussians are drawn."""
    lo, hi = spec.band
    if hi > grid.n // 2 - 1:
        raise ValueError(
            f"band upper edge {hi} exceeds the usable lattice radius {grid.n // 2 - 1}")
    k = wavenumbers_1d(grid.n)
    kk = np.sqrt(sum(m * m for m in np.meshgrid(*([k] * grid.d), indexing="ij")))
    mask = (kk >= lo) & (kk <= hi)
    if not mask.any():
        raise ValueError(f"band {spec.band} contains no lattice frequencies")
    scale = np.zeros(grid.shape)
    scale[mask] = kk[mask] ** (-spec.decay_exponent)
    return scale


def _random_scalar_spectrum(grid: Grid, scale: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """Half spectrum of the real part of full-lattice complex Gaussians."""
    re = rng.standard_normal(grid.shape)
    im = rng.standard_normal(grid.shape)
    coeff = (re + 1j * im) * (scale / np.sqrt(2.0))
    return _hermitian_symmetrize(coeff, grid.d)[..., :grid.n // 2 + 1]


def random_band_limited(grid: Grid, spec: SpectrumSpec) -> GridField:
    """Random real scalar field (physical samples) with the prescribed band spectrum."""
    scale = _band_scale(grid, spec)
    rng = np.random.default_rng(spec.seed)
    coeff = _random_scalar_spectrum(grid, scale, rng)
    return GridField(grid, _freeze(_from_half_spectrum(coeff, grid.d)), PHYSICAL)


def random_divergence_free(grid: Grid, spec: SpectrumSpec) -> VectorField:
    """Random real divergence-free vector field (physical samples, Leray-projected)."""
    scale = _band_scale(grid, spec)
    rng = np.random.default_rng(spec.seed)
    spectra = [_random_scalar_spectrum(grid, scale, rng) for _ in range(grid.d)]
    samples = _from_half_spectrum(_leray_spectra(spectra), grid.d)
    comps = tuple(GridField(grid, s, PHYSICAL) for s in samples)
    return VectorField(comps, div_free=True)


# ---------------------------------------------------------------------------
# LPF file format
#
# magic "LPF1" | u8 version | u8 kind | u8 d | u8 reserved=0
# | d x u32 LE samples per axis | payload, row-major, components concatenated.
# kind = 2 * vector + spectral: 0 scalar physical, 1 scalar spectral,
# 2 vector physical, 3 vector spectral.
# Version 2 (written): float64 LE samples (physical kinds), or complex128 LE
# (re, im) half spectra of shape grid.spectral_shape (spectral kinds).
# Version 1 (read only): complex128 LE samples or full spectra of grid.shape.

_MAGIC = b"LPF1"
_VERSION = 2


def write_field(f: GridField | VectorField, path) -> None:
    """Serialize a field to an LPF version-2 container (bit-exact round trip)."""
    vector = isinstance(f, VectorField)
    comps = f.components if vector else (f,)
    grid = f.grid
    header = struct.pack("<4sBBBB", _MAGIC, _VERSION, 2 * vector + (f.rep == SPECTRAL), grid.d, 0)
    header += struct.pack(f"<{grid.d}I", *([grid.n] * grid.d))
    dtype = "<f8" if f.rep == PHYSICAL else "<c16"
    with open(path, "wb") as fh:
        fh.write(header)
        for c in comps:
            fh.write(np.ascontiguousarray(c.values).astype(dtype, copy=False).tobytes())


def read_field(path) -> GridField | VectorField:
    """Read an LPF container, version 2 or 1; the divergence flag is re-derived.

    Version-1 samples go through the :class:`GridField` conversion and
    version-1 spectra are reduced to the half spectrum of their Hermitian
    part; a payload that is not a real field raises :class:`FieldFormatError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != _MAGIC:
        raise FieldFormatError("not an LPF field file (bad magic)")
    version, kind, d, reserved = struct.unpack("<BBBB", data[4:8])
    if version not in (1, _VERSION):
        raise FieldFormatError(f"unsupported LPF version {version}")
    if reserved != 0:
        raise FieldFormatError(f"reserved header byte is {reserved}, not 0")
    if kind > 3:
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
    ncomp = d if kind >= 2 else 1
    rep = SPECTRAL if kind % 2 else PHYSICAL
    shape = grid.spectral_shape if version == 2 and rep == SPECTRAL else grid.shape
    dtype = np.dtype("<f8" if version == 2 and rep == PHYSICAL else "<c16")
    expected = ncomp * math.prod(shape) * dtype.itemsize
    payload = data[axes_end:]
    if len(payload) != expected:
        raise FieldFormatError(
            f"payload has {len(payload)} bytes, expected {expected}")
    raw = np.frombuffer(payload, dtype=dtype).reshape(ncomp, *shape)
    try:
        if version == 1 and rep == SPECTRAL:
            raw = _hermitian_symmetrize(raw, d)[..., :grid.n // 2 + 1]
        fields = tuple(GridField(grid, vals, rep) for vals in raw)  # each copied once
    except ValueError as exc:
        raise FieldFormatError(f"LPF version-1 payload is not a real field: {exc}") from exc
    if ncomp == 1:
        return fields[0]
    return VectorField(fields, div_free=max_spectral_divergence(VectorField(fields)) <= 1e-10)
