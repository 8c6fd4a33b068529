"""Grid/field plumbing: transforms, derivatives, I/O, Leray projection."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpflow
import lpflow.fields
from lpflow import (FieldFormatError, Grid, GridField, RepresentationError,
                    SpectrumSpec, VectorField, as_physical, as_spectral,
                    dealias_field, derivative, dft_forward, dft_inverse,
                    gradient, random_band_limited, random_divergence_free,
                    read_field, write_field)
from lpflow.euler import leray_project
from lpflow.fields import (_from_half_spectrum, _to_half_spectrum, apply_multiplier,
                           dealias_mask, max_spectral_divergence, vector_as_physical,
                           wavenumber_mesh, wavenumbers_1d)


def test_grid_validation():
    Grid(8, 2)
    Grid(64, 3)
    with pytest.raises(ValueError):
        Grid(48, 2)      # not a power of two
    with pytest.raises(ValueError):
        Grid(4, 2)       # too coarse
    with pytest.raises(ValueError):
        Grid(64, 4)


def test_wavenumbers_order():
    k = wavenumbers_1d(8)
    assert list(k) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_transform_roundtrip(grid64):
    rng = np.random.default_rng(0)
    f = GridField(grid64, rng.standard_normal(grid64.shape), "physical")
    back = dft_inverse(dft_forward(f))
    assert np.abs(back.values - f.values).max() < 1e-14


def test_pure_mode_coefficients(grid64):
    x = grid64.meshes()
    f = GridField(grid64, 2.0 * np.cos(3 * x[0]), "physical")
    fh = dft_forward(f).values
    # 2 cos(3x) = e^{3ix} + e^{-3ix}; with the fft/n^d normalization each
    # exponential carries coefficient exactly 1 at (±3, 0).
    assert abs(fh[3, 0] - 1.0) < 1e-14
    assert abs(fh[-3, 0] - 1.0) < 1e-14
    fh2 = fh.copy()
    fh2[3, 0] = fh2[-3, 0] = 0.0
    assert np.abs(fh2).max() < 1e-14


def test_derivative_exact(grid64):
    x = grid64.meshes()
    f = GridField(grid64, np.sin(5 * x[1]), "physical")
    df = derivative(f, 1)
    assert np.abs(df.values.real - 5 * np.cos(5 * x[1])).max() < 1e-12
    assert np.abs(derivative(f, 0).values).max() < 1e-13


def test_arithmetic_and_compatibility(grid64):
    x = grid64.meshes()
    f = GridField(grid64, np.cos(x[0]), "physical")
    g = GridField(grid64, np.sin(x[1]), "physical")
    h = f + g * 2.0 - f
    assert np.abs(h.values - 2.0 * g.values).max() < 1e-15
    with pytest.raises(ValueError):
        f + as_spectral(g)
    small = GridField(Grid(32, 2), np.zeros((32, 32)), "physical")
    with pytest.raises(ValueError):
        f + small


def test_values_frozen(grid64):
    f = GridField(grid64, np.zeros(grid64.shape), "physical")
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_dealias_mask_cutoff():
    mask = dealias_mask(64, 2)
    kx, ky = wavenumber_mesh(64, 2)
    assert mask.shape == (64, 33) and ky[0, -1] == -32   # the half lattice, Nyquist last
    assert not mask[np.maximum(np.abs(kx), np.abs(ky)) > 64 // 3].any()
    assert mask[np.maximum(np.abs(kx), np.abs(ky)) <= 64 // 3 - 1].all()


def test_dealias_idempotent(grid64):
    f = as_spectral(random_band_limited(grid64, SpectrumSpec(2.0, (1, 30), 3)))
    g = dealias_field(f)
    assert np.abs(dealias_field(g).values - g.values).max() == 0.0


def _reflect(a, axes):
    """a(-k): the FFT-order lattice reflection k -> -k along ``axes``."""
    for ax in axes:
        a = np.roll(np.flip(a, axis=ax), 1, axis=ax)
    return a


def _complex_path_sample(grid, spec):
    """Oracle: the sampler as a full-lattice complex path, the real part of the
    inverse complex FFT of the Hermitian-symmetrized Gaussians."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kk = np.sqrt(sum(m * m for m in np.meshgrid(*([k] * grid.d), indexing="ij")))
    lo, hi = spec.band
    scale = np.where((kk >= lo) & (kk <= hi), np.maximum(kk, 1.0) ** -spec.decay_exponent, 0.0)
    rng = np.random.default_rng(spec.seed)
    coeff = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * (
        scale / np.sqrt(2.0))
    coeff = 0.5 * (coeff + np.conj(_reflect(coeff, range(-grid.d, 0))))
    return np.fft.ifftn(coeff).real * grid.n**grid.d


def test_random_fields_are_real_and_reproducible():
    for grid in (Grid(64, 2), Grid(16, 3)):
        spec = SpectrumSpec(2.0, (1, grid.n // 2 - 1), 12)
        f = random_band_limited(grid, spec)
        assert f.values.dtype == np.float64
        want = _complex_path_sample(grid, spec)
        assert np.abs(f.values - want).max() <= 1e-15 * np.abs(want).max()
        g = random_band_limited(grid, spec)
        assert np.abs(f.values - g.values).max() == 0.0


def test_divergence_free_sampler(grid64):
    u = random_divergence_free(grid64, SpectrumSpec(2.0, (1, 8), 7))
    assert max_spectral_divergence(u) < 1e-13


def test_leray_annihilates_gradients(grid64):
    x = grid64.meshes()
    phi = GridField(grid64, np.cos(2 * x[0]) * np.sin(3 * x[1]), "physical")
    gp = gradient(phi)
    proj = leray_project(vector_as_physical(gp))
    assert max(np.abs(c.values).max() for c in proj.components) < 1e-13


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([8, 16, 32]), d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_leray_idempotent(n, d, seed):
    grid = Grid(n, d)
    u = random_divergence_free(grid, SpectrumSpec(2.0, (1, min(8, n // 2 - 1)), seed))
    up = vector_as_physical(u)
    again = leray_project(up)
    diff = max(np.abs(a.values - b.values).max()
               for a, b in zip(again.components, up.components))
    assert diff < 1e-12


def test_vector_field_component_count(grid64):
    f = GridField(grid64, np.zeros(grid64.shape), "physical")
    with pytest.raises(ValueError):
        VectorField((f,))
    with pytest.raises(ValueError):
        VectorField((f, f, f))


def test_field_io_roundtrip(tmp_path, grid64):
    f = random_band_limited(grid64, SpectrumSpec(2.0, (1, 8), 4))
    path = tmp_path / "scalar.lpf"
    write_field(f, path)
    g = read_field(path)
    assert isinstance(g, GridField)
    assert g.grid == f.grid and g.rep == f.rep
    assert np.abs(g.values - f.values).max() == 0.0

    u = random_divergence_free(grid64, SpectrumSpec(2.0, (1, 8), 4))
    vpath = tmp_path / "vector.lpf"
    write_field(u, vpath)
    v = read_field(vpath)
    assert isinstance(v, VectorField)
    assert v.div_free
    for a, b in zip(u.components, v.components):
        assert np.abs(a.values - b.values).max() == 0.0


def test_field_io_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.lpf"
    bad.write_bytes(b"not a field file at all")
    with pytest.raises(FieldFormatError):
        read_field(bad)


def test_representation_tag_is_checked(grid64):
    with pytest.raises(RepresentationError):
        GridField(grid64, np.zeros(grid64.shape), "fourier")


def test_3d_roundtrip_and_divergence(grid16_3d):
    u = random_divergence_free(grid16_3d, SpectrumSpec(2.0, (1, 4), 5))
    assert max_spectral_divergence(u) < 1e-13
    c = as_physical(u.components[0])
    back = as_physical(as_spectral(c))
    assert np.abs(back.values - c.values).max() < 1e-14


def test_complex_samples_are_refused_or_stored_real(grid64):
    """Fields are real: samples with an imaginary part above 1e-12 of their
    largest magnitude are refused, near-real ones are stored as their real part,
    and NaN passes on to the callers' finite-value guards."""
    x = grid64.meshes()
    re = np.cos(x[0]) + np.sin(2 * x[1])
    with pytest.raises(RepresentationError):
        GridField(grid64, re + 1e-10j * np.sin(x[1]), "physical")
    f = GridField(grid64, re + 1e-13j * np.sin(x[1]), "physical")
    assert f.values.dtype == np.float64 and np.array_equal(f.values, re)
    with pytest.raises(RepresentationError):
        f * 1j
    nan = re.astype(complex)
    nan[2, 3] = complex(np.nan, 1.0)
    assert np.isnan(GridField(grid64, nan, "physical").values[2, 3])
    spec = dft_forward(f)
    assert spec.values.dtype == np.complex128 and spec.values.shape == grid64.spectral_shape
    with pytest.raises(ValueError):
        GridField(grid64, np.zeros(grid64.shape, complex), "spectral")   # a full spectrum
    assert np.array_equal(dft_inverse(spec).values, dft_inverse(spec * 1.0).values)


def test_field_copies_a_writeable_array(grid64):
    vals = np.ones(grid64.shape, complex)
    f = GridField(grid64, vals, "physical")
    vals[0, 0] = 5.0
    assert f.values[0, 0] == 1.0
    assert not f.values.flags.writeable


def test_field_adopts_a_frozen_array(grid64):
    f = dft_forward(random_band_limited(grid64, SpectrumSpec(2.0, (1, 8), 12)))
    assert GridField(grid64, f.values, "spectral").values is f.values


def test_fields_store_no_reality_flag(grid64):
    f = GridField(grid64, np.zeros(grid64.shape), "physical", True)  # old signature
    assert [fl.name for fl in dataclasses.fields(f)] == ["grid", "values", "rep"]
    assert "is_real" not in vars(f)


def test_reality_flag_is_not_readable(grid64):
    # The old four-argument call still works, but no field answers is_real.
    for f in (GridField(grid64, np.ones(grid64.shape), "physical", True),
              GridField(grid64, np.ones(grid64.spectral_shape), "spectral")):
        with pytest.raises(AttributeError):
            f.is_real


def _expand(half, d):
    """Oracle: the full FFT-order spectrum of the real field a half spectrum stands
    for, k_last < 0 by conjugate reflection, Hermitian parts of the edge planes."""
    h = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * h,), complex)
    flipped = _reflect(half, range(-d, -1))   # every axis but the last
    full[..., 1:h] = half[..., 1:h]
    for j in (0, h):
        full[..., j] = 0.5 * (half[..., j] + np.conj(flipped[..., j]))
    full[..., h + 1:] = np.conj(flipped[..., h - 1:0:-1])
    return full


@pytest.mark.parametrize("n,d", [(64, 2), (16, 3)])
def test_half_spectrum_expands_to_the_full_spectrum(n, d):
    # White noise fills every mode, the Nyquist planes included.
    grid = Grid(n, d)
    samples = np.random.default_rng(8).standard_normal((2,) + grid.shape)
    half = _to_half_spectrum(samples, d)
    assert half.shape == (2,) + grid.spectral_shape
    for s, h in zip(samples, half):
        full = _expand(h, d)
        assert np.array_equal(full, np.conj(_reflect(full, range(-d, 0))))   # Hermitian
        want = np.fft.fftn(s) / n**d
        assert np.abs(full - want).max() <= 1e-15 * np.abs(want).max()
        assert np.abs(_from_half_spectrum(h, d) - s).max() <= 1e-14 * np.abs(s).max()
    assert np.array_equal(_from_half_spectrum(half, d)[1], _from_half_spectrum(half[1], d))


def test_transform_results_are_read_only(grid64):
    f = random_band_limited(grid64, SpectrumSpec(2.0, (1, 8), 12))
    mult = np.full(grid64.spectral_shape, 0.5)
    for out in (dft_forward(f), apply_multiplier(f, mult), derivative(f, 0),
                dft_inverse(dft_forward(f))):
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[0, 0] = 1.0


def _scopes_where(path: Path, hit) -> set[str]:
    """Functions (``Class.method`` or ``function``) of a module with a node for
    which ``hit`` holds."""
    hits = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if hit(child):
                hits.add(scope or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return hits


def _transform_calls(path: Path) -> set[str]:
    """Functions of a module that call an FFT."""
    names = {"fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft",
             "rfftn", "irfftn"}
    return _scopes_where(path, lambda node: isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute) and node.func.attr in names)


def test_torus_transforms_live_in_fields():
    """Every torus FFT goes through the one real transform pair in lpflow.fields.
    The one exception is the kernel quadrature, which transforms an auxiliary box."""
    outside = {f"{path.stem}.{name}"
               for path in sorted(Path(lpflow.__file__).parent.glob("*.py"))
               if path.name != "fields.py" for name in _transform_calls(path)}
    assert outside == {"norms._kernel_scale_l1"}
    assert _transform_calls(Path(lpflow.fields.__file__)) == {
        "_to_half_spectrum", "_from_half_spectrum"}


def test_derivative_symbol_lives_in_fields():
    """Every i*k (derivatives, curl, advection) is read from the one symbol in
    lpflow.fields.  The one other imaginary unit is the flow map's phase table."""
    def imaginary(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, complex)

    outside = {f"{path.stem}.{name}"
               for path in sorted(Path(lpflow.__file__).parent.glob("*.py"))
               if path.name != "fields.py" for name in _scopes_where(path, imaginary)}
    assert outside == {"euler._phase_table"}


def test_public_names_are_exported_once_and_resolve():
    names = lpflow.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(lpflow, n)] == []
