"""LPF field files: version-2 round trips, version-1 compatibility, and
malformed input, as property tests."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpflow import FieldFormatError, Grid, GridField, VectorField, read_field, write_field
from lpflow.fields import as_spectral, vector_as_spectral

# Deterministic examples, no example database: the suite stays reproducible.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

grids = st.builds(Grid, st.sampled_from([8, 16]), st.sampled_from([2, 3]))
seeds = st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("lpf") / "field.lpf"


def _samples(grid, vector, seed):
    """Real white noise: one component, or d of them."""
    return np.random.default_rng(seed).standard_normal((grid.d if vector else 1,) + grid.shape)


def _field(grid, samples, vector, spectral):
    comps = tuple(GridField(grid, s, "physical") for s in samples)
    f = VectorField(comps) if vector else comps[0]
    if spectral:
        f = vector_as_spectral(f) if vector else as_spectral(f)
    return f


def _components(f):
    return f.components if isinstance(f, VectorField) else (f,)


def _v1_file(grid, samples, vector, spectral):
    """A version-1 file: complex128 samples, or the full np.fft spectrum."""
    kind = 2 * vector + spectral
    header = struct.pack("<4sBBBB", b"LPF1", 1, kind, grid.d, 0)
    header += struct.pack(f"<{grid.d}I", *([grid.n] * grid.d))
    axes = tuple(range(1, grid.d + 1))
    payload = (np.fft.fftn(samples, axes=axes) / grid.n**grid.d if spectral
               else samples.astype(complex))
    return header + payload.astype("<c16").tobytes()


@PROPERTY
@given(grid=grids, vector=st.booleans(), spectral=st.booleans(), seed=seeds)
def test_version_2_round_trip_is_bit_exact(path, grid, vector, spectral, seed):
    f = _field(grid, _samples(grid, vector, seed), vector, spectral)
    write_field(f, path)
    assert path.read_bytes()[4] == 2
    g = read_field(path)
    assert type(g) is type(f) and g.grid == f.grid and g.rep == f.rep
    for a, b in zip(_components(f), _components(g)):
        assert b.values.dtype == a.values.dtype and b.values.shape == a.values.shape
        assert np.array_equal(a.values, b.values)


@PROPERTY
@given(grid=grids, vector=st.booleans(), spectral=st.booleans(), seed=seeds)
def test_version_1_file_reads_back(path, grid, vector, spectral, seed):
    samples = _samples(grid, vector, seed)
    path.write_bytes(_v1_file(grid, samples, vector, spectral))
    g = read_field(path)
    assert isinstance(g, VectorField) == vector
    assert g.rep == ("spectral" if spectral else "physical")
    want = _field(grid, samples, vector, spectral)
    for a, b in zip(_components(want), _components(g)):
        assert b.values.shape == a.values.shape
        assert np.abs(b.values - a.values).max() <= 1e-15 * np.abs(a.values).max()


def test_version_1_complex_samples_are_refused(path):
    grid = Grid(8, 2)
    samples = _samples(grid, False, 3)
    blob = bytearray(_v1_file(grid, samples, False, False))
    imag = np.frombuffer(blob, dtype="<c16", offset=16).copy()
    imag += 1j * samples[0].ravel()                     # an imaginary part of the same size
    blob[16:] = imag.astype("<c16").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldFormatError):
        read_field(path)


@pytest.mark.parametrize("version", [1, 2])
def test_reserved_header_byte_is_checked(path, version):
    grid = Grid(8, 2)
    samples = _samples(grid, False, 4)
    if version == 2:
        write_field(_field(grid, samples, False, False), path)
        blob = bytearray(path.read_bytes())
    else:
        blob = bytearray(_v1_file(grid, samples, False, False))
    blob[7] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FieldFormatError, match="reserved"):
        read_field(path)


@settings(PROPERTY, max_examples=200)
@given(grid=grids, vector=st.booleans(), spectral=st.booleans(), seed=seeds,
       version=st.sampled_from([1, 2]), cut=st.booleans(),
       at=st.integers(0, 20) | st.integers(0, 2**20),
       delta=st.integers(1, 255))
def test_damaged_file_reads_or_raises_field_format_error(path, grid, vector, spectral, seed,
                                                         version, cut, at, delta):
    """A truncated file, or one with one header byte changed, reads as some valid
    field or raises FieldFormatError, never another exception."""
    samples = _samples(grid, vector, seed)
    if version == 1:
        blob = _v1_file(grid, samples, vector, spectral)
    else:
        write_field(_field(grid, samples, vector, spectral), path)
        blob = path.read_bytes()
    if cut:
        blob = blob[:min(at, len(blob) - 1)]
    else:
        pos = at % (8 + 4 * grid.d)
        blob = blob[:pos] + bytes([(blob[pos] + delta) % 256]) + blob[pos + 1:]
    path.write_bytes(blob)
    try:
        out = read_field(path)
    except FieldFormatError:
        return
    assert isinstance(out, (GridField, VectorField))
