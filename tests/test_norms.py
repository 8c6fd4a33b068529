"""Dyadic-ladder norms against closed forms and frozen regression values."""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpflow.norms

from lpflow import (Grid, GridField, NormSpec, RepresentationError, VectorField, besov_norm,
                    kernel_l1_bound, lp_norm, tl_norm, verify_embedding, verify_equivalence,
                    verify_lifting)
from lpflow import commutator_sequence, default_bank
from lpflow.bank import radial_cutoff
from lpflow.corpus import divfree_sample, scalar_sample, transport_pair
from lpflow.fields import as_physical, dft_forward, vector_as_physical
from lpflow.norms import (_field_norms, _kernel_lattice, _kernel_scale_l1, field_norm,
                          grad_sup_norm, kernel_l1_terms, sup_norm)
from lpflow.paraproduct import _sequence_tl_norm

# regression values computed on the 64^2 grid
F311_SAMPLE5 = 15728.850184666224
EQUIV_SAMPLE5 = 0.9971290692396236
LIFT_SAMPLE5 = 1.0211962624742474
EMBED_SAMPLE5 = 0.016370062469317485
KERNEL_TOTAL_REF7 = 2.372394281563495
# ||scalar_sample(64^2, 5) x 1e150|| at (3, 1, 2), Besov and Triebel-Lizorkin
LARGE_BESOV_SAMPLE5 = 1.0640700309902943e+154
LARGE_TL_SAMPLE5 = 1.1352569311985718e+154


def test_norm_spec_validation():
    NormSpec(3, 1, 1)
    NormSpec(0, 2, math.inf)
    with pytest.raises(ValueError):
        NormSpec(3, 0.5, 1)
    with pytest.raises(ValueError):
        NormSpec(3, 1, 0.5)
    with pytest.raises(ValueError):
        NormSpec(3, math.inf, 1)          # sup-integrability needs the other scale
    NormSpec(3, math.inf, 1, flavor="besov")


@pytest.mark.parametrize("s, p, q", [(3, math.nan, 1), (3, 1, math.nan), (math.nan, 2, 2),
                                     (math.inf, 2, 2), (-math.inf, 2, 2)])
def test_norm_spec_refuses_nan_and_infinite_smoothness(s, p, q):
    with pytest.raises(ValueError):
        NormSpec(s, p, q)


def test_norm_spec_label():
    assert NormSpec(3, 1, 1).label == "F3_1_1"
    assert NormSpec(2.5, 2, 2, homogeneous=True).label.startswith("hF")


def test_lp_norm_quadrature(grid64):
    x = grid64.meshes()
    f = GridField(grid64, 2.0 * np.cos(4 * x[0]), "physical")
    # |2cos|^2 is band-limited, so the trapezoid rule is exact for p = 2
    assert abs(lp_norm(f, 2.0) - 2.0 * math.sqrt(2.0) * math.pi) < 1e-12
    assert sup_norm(f) == 2.0


def test_pure_mode_single_block_norm(grid64, bank64):
    """A mode at |k| = 2^j0 survives in block j0 alone, so the ladder norm
    collapses to 2^{j0 s} times the L^p norm."""
    x = grid64.meshes()
    for j0 in (1, 2, 3):
        f = GridField(grid64, 2.0 * np.cos(2**j0 * x[0]), "physical")
        for (s, p, q) in ((3.0, 1.0, 1.0), (2.0, 2.0, 2.0)):
            oracle = 2.0 ** (j0 * s) * lp_norm(f, p)
            v_tl = tl_norm(bank64, f, NormSpec(s, p, q))
            v_b = besov_norm(bank64, f, NormSpec(s, p, q, flavor="besov"))
            assert abs(v_tl - oracle) / oracle <= 1e-9
            assert abs(v_b - oracle) / oracle <= 1e-9


def test_tl_equals_besov_when_exponents_match(grid64, bank64):
    """F = B at p = q (the two aggregations commute); otherwise Minkowski's
    inequality orders them, F <= B for q < p and F >= B for q > p, and the two
    scales differ by well over roundoff."""

    def ratio(f, s, p, q):
        return tl_norm(bank64, f, NormSpec(s, p, q)) / besov_norm(
            bank64, f, NormSpec(s, p, q, flavor="besov"))

    for seed in (5, 6, 7):
        f = scalar_sample(grid64, seed)
        for s, p in [(3, 1), (3, 2), (2, 3)]:
            assert abs(ratio(f, s, p, p) - 1) <= 1e-14, (seed, s, p)
        for s, p, q in [(2, 2, 1), (3, 4, 2)]:
            assert ratio(f, s, p, q) <= 1 + 1e-14, (seed, s, p, q)
        for s, p, q in [(1, 1, 2), (2, 1.5, 3)]:
            assert ratio(f, s, p, q) >= 1 - 1e-14, (seed, s, p, q)
        assert ratio(f, 2, 2, 1) <= 0.95, seed
        assert ratio(f, 1, 1, 2) >= 1.05, seed


def test_sample_regression(grid64, bank64):
    f = scalar_sample(grid64, 5)
    v = tl_norm(bank64, f, NormSpec(3, 1, 1))
    assert abs(v - F311_SAMPLE5) / F311_SAMPLE5 < 1e-12
    # besov and tl agree for q = p = 1 on the same ladder
    b = besov_norm(bank64, f, NormSpec(3, 1, 1, flavor="besov"))
    assert abs(b - v) / v < 1e-12


def test_homogeneous_drops_low_part(grid64, bank64):
    x = grid64.meshes()
    # constant + mode: the homogeneous norm must not see the constant
    f = GridField(grid64, 3.0 + 2.0 * np.cos(8 * x[0]), "physical")
    g = GridField(grid64, 2.0 * np.cos(8 * x[0]), "physical")
    hn_f = tl_norm(bank64, f, NormSpec(2, 2, 2, homogeneous=True))
    hn_g = tl_norm(bank64, g, NormSpec(2, 2, 2, homogeneous=True))
    assert abs(hn_f - hn_g) / hn_g < 1e-12
    in_f = tl_norm(bank64, f, NormSpec(2, 2, 2))
    assert in_f > hn_f


def test_q_infinity_takes_block_sup(grid64, bank64):
    f = scalar_sample(grid64, 5)
    v = tl_norm(bank64, f, NormSpec(1, 2, math.inf))
    assert 0 < v < tl_norm(bank64, f, NormSpec(1, 2, 1.0))


def test_monotone_in_s(grid64, bank64):
    f = scalar_sample(grid64, 5)
    n1 = tl_norm(bank64, f, NormSpec(1, 2, 2))
    n2 = tl_norm(bank64, f, NormSpec(2, 2, 2))
    assert n2 > n1


def test_equivalence_ratio(grid64, bank64):
    f = scalar_sample(grid64, 5)
    r = verify_equivalence(bank64, f, 3, 1, 1)
    assert abs(r - EQUIV_SAMPLE5) < 1e-12
    assert 0.2 <= r <= 5.0


def test_lifting_pure_mode_exact(grid64, bank64):
    x = grid64.meshes()
    f = GridField(grid64, 2.0 * np.cos(4 * x[0]), "physical")
    r = verify_lifting(bank64, f, s=1.0, p=2.0, q=2.0, k=1.0)
    assert abs(r - 1.0) <= 1e-12


def test_lifting_sample_regression(grid64, bank64):
    f = scalar_sample(grid64, 5)
    r = verify_lifting(bank64, f, s=1.0, p=2.0, q=2.0, k=1.0)
    assert abs(r - LIFT_SAMPLE5) < 1e-12


def test_embedding_ratio(grid64, bank64):
    f = scalar_sample(grid64, 5)
    r = verify_embedding(bank64, f, (3.0, 1.0, 1.0), (2.0, 2.0))
    assert abs(r - EMBED_SAMPLE5) < 1e-14
    assert r <= 1.0


def test_sup_bounded_by_block_sums(grid64, bank64):
    for seed in range(6):
        f = scalar_sample(grid64, 40 + seed)
        chain = besov_norm(bank64, f, NormSpec(0.0, math.inf, 1.0, flavor="besov"))
        assert sup_norm(f) <= chain * (1 + 1e-12)


def test_vector_norm_is_l2_over_components(grid64, bank64):
    from lpflow import SpectrumSpec, random_divergence_free
    u = vector_as_physical(random_divergence_free(grid64, SpectrumSpec(2.0, (1, 8), 7)))
    spec = NormSpec(3, 1, 1)
    v = field_norm(bank64, u, spec)
    c = [field_norm(bank64, comp, spec) for comp in u.components]
    assert abs(v - math.hypot(*c)) / v < 1e-12


def test_kernel_terms_decay_and_total():
    terms = kernel_l1_terms(refinement=7)
    assert terms[0][0] == 0 and terms[1][0] == -1
    for (j1, t1), (j2, t2) in zip(terms, terms[1:]):
        if j2 <= -2:
            assert t2 / t1 <= 0.6
    total = kernel_l1_bound(refinement=7)
    assert abs(total - KERNEL_TOTAL_REF7) / KERNEL_TOTAL_REF7 < 1e-9
    assert abs(total - sum(t for _, t in terms)) < 1e-12


def _full_kernel_lattice(refinement, d):
    """The kernel quadrature's whole dual lattice: its meshes and the annulus bump,
    as evaluated before the annulus box."""
    dxi = 2.0 * np.pi / 2.0**refinement
    m_pts = 1
    while m_pts * dxi / 2.0 < 8.0:
        m_pts *= 2
    xi_1d = np.fft.fftfreq(m_pts, d=1.0 / m_pts) * dxi
    mesh = np.meshgrid(*([xi_1d] * d), indexing="ij")
    rho = np.sqrt(sum(m * m for m in mesh))
    ann = (rho > 0.5) & (rho < 2.0)
    psi = np.zeros_like(rho)
    psi[ann] = radial_cutoff(rho[ann] / 2.0) - radial_cutoff(rho[ann])
    return mesh, psi


def _full_kernel_scale_l1(mesh, psi, l, k, i, j):
    """One kernel term's l1 sum by numpy's ifftn over the whole dual lattice."""
    ann = psi != 0
    scaled = [2.0**j * m[ann] for m in mesh]
    srho2 = sum(m * m for m in scaled)
    ssym = np.zeros_like(psi)
    ssym[ann] = radial_cutoff(np.sqrt(srho2)) * scaled[l] * scaled[k] / srho2
    return float(np.abs(np.fft.ifftn(ssym * psi * mesh[i])).sum())


_KERNEL_CASES = [(0, 0, 0, 7, 2), (1, 0, 1, 7, 2), (0, 0, 0, 8, 2), (2, 1, 0, 4, 3),
                 (0, 2, 2, 4, 3), (0, 0, 0, 5, 3)]


@pytest.mark.parametrize("l, k, i, refinement, d", _KERNEL_CASES)
def test_kernel_box_equals_full_lattice(l, k, i, refinement, d):
    """Transforming only the lines through the annulus box changes no bit of a
    term: every other line is zero when its pass comes."""
    box = _kernel_lattice(refinement, d)
    full = _full_kernel_lattice(refinement, d)
    full_l1 = [_full_kernel_scale_l1(*full, l, k, i, j) for j in (0, -1, -2)]
    assert [_kernel_scale_l1(box, l, k, i, j) for j in (0, -1, -2)] == full_l1
    terms = kernel_l1_terms(l, k, i, refinement, d)
    assert terms == [(j, 2.0**j * full_l1[min(-j, 2)]) for j, _ in terms]


@pytest.mark.parametrize("d, refinement, axes", [
    (2, 7, (0, 0, 0)), (2, 7, (1, 0, 1)), (3, 4, (2, 1, 0)), (3, 4, (0, 2, 2))])
def test_kernel_tail_equals_explicit_terms(d, refinement, axes):
    """Below j = -2 the series reuses the j = -2 sum; evaluating each scale
    explicitly must give the same terms bit for bit."""
    l, k, i = axes
    terms = dict(kernel_l1_terms(l, k, i, refinement, d, tail_tol=1e-12))
    assert min(terms) <= -25
    lattice = _kernel_lattice(refinement, d)
    for j in range(-2, -26, -1):
        assert terms[j] == 2.0**j * _kernel_scale_l1(lattice, l, k, i, j)


def _full_lattice_bump(refinement, d):
    """psi evaluated on the whole dual lattice, as before the annulus restriction,
    as a lattice for :func:`_kernel_scale_l1` whose box is the whole lattice."""
    mesh, _ = _full_kernel_lattice(refinement, d)
    rho = np.sqrt(sum(m * m for m in mesh))
    return mesh, radial_cutoff(rho / 2.0) - radial_cutoff(rho), np.arange(len(rho)), len(rho)


@pytest.mark.parametrize("refinement, d", [(7, 2), (8, 2), (5, 3)])
def test_kernel_bump_is_evaluated_on_its_annulus_only(refinement, d):
    """Restricting psi to 1/2 < |xi| < 2 changes no bit: the cutoff is
    exactly 1 below radius 1/2 and exactly 0 from radius 1 on."""
    _, psi, box, m_pts = _kernel_lattice(refinement, d)
    embedded = np.zeros((m_pts,) * d)
    embedded[np.ix_(*[box] * d)] = psi
    assert np.array_equal(embedded, _full_lattice_bump(refinement, d)[1])


def test_kernel_terms_unchanged_by_the_annulus(monkeypatch):
    terms = kernel_l1_terms(1, 0, 1, refinement=7)
    monkeypatch.setattr(lpflow.norms, "_kernel_lattice", _full_lattice_bump)
    assert kernel_l1_terms(1, 0, 1, refinement=7) == terms


def test_kernel_series_working_set():
    """The kernel series holds the box rows, one column slab and the real
    magnitudes of the dual lattice, never a complex array of the lattice's size:
    that alone is 16 MiB at 1024^2 (2D, refinement 8) and 32 MiB at 128^3
    (3D, refinement 5)."""
    for name, series, bound_mib in (
            ("kernel_l1_bound(8)", lambda: kernel_l1_bound(refinement=8), 16),
            ("3D refinement 5", lambda: kernel_l1_terms(refinement=5, d=3), 28)):
        series()
        tracemalloc.start()
        try:
            series()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(name, "peak MiB", peak / 2**20)
        assert peak <= bound_mib * 2**20


def test_kernel_refinement_stability():
    t7 = kernel_l1_bound(refinement=7)
    t8 = kernel_l1_bound(refinement=8)
    change = abs(t8 - t7) / t7
    print("kernel refinement change", change)
    assert change <= 0.01


def test_kernel_axis_validation():
    with pytest.raises(ValueError):
        kernel_l1_terms(l=2, d=2)


# ---------------------------------------------------------------------------
# the real block engine against the complex decomposition it replaced


def _full_lattice(n, d):
    """The full FFT-order frequency meshes and |k|."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    mesh = np.meshgrid(*([k] * d), indexing="ij")
    return mesh, np.sqrt(sum(m * m for m in mesh))


def _full_multipliers(bank):
    """phi_0 and psi_0 .. psi_J of the bank, sampled on the full lattice."""
    kk = _full_lattice(bank.grid.n, bank.grid.d)[1]
    phis = [radial_cutoff(kk / 2.0**m) for m in range(bank.j_max + 2)]
    return phis[0], [phis[j + 1] - phis[j] for j in range(bank.j_max + 1)]


def _coefficients(samples):
    return np.fft.fftn(samples) / samples.size


def _samples(coeff):
    return np.fft.ifftn(coeff) * coeff.size


def _oracle_norm(bank, f, spec):
    """The decompose-based norm on the complex path: blocks of the full np.fft
    spectrum through complex inverse FFTs, |.| of each."""
    F = _coefficients(as_physical(f).values)
    phi_0, psi = _full_multipliers(bank)
    low = np.abs(_samples(F * phi_0))
    blocks = [2.0 ** (j * spec.s) * np.abs(_samples(F * m)) for j, m in enumerate(psi)]
    mags = blocks if spec.homogeneous else [low] + blocks
    cv = f.grid.cell_volume

    def lp(a):
        return float(a.max()) if math.isinf(spec.p) else float((cv * (a**spec.p).sum()) ** (1 / spec.p))

    def lq(terms):
        if math.isinf(spec.q):
            return np.max(np.stack(terms), axis=0) if spec.flavor == "tl" else max(terms)
        return sum(t**spec.q for t in terms) ** (1 / spec.q)

    return lp(lq(mags)) if spec.flavor == "tl" else float(lq([lp(m) for m in mags]))


def _real_fields(grid):
    """A smooth band-limited field, a rough one up to |k| = n/2 - 1, and real
    white noise, which also fills the Nyquist planes."""
    rng = np.random.default_rng(41)
    return [scalar_sample(grid, 5),
            scalar_sample(grid, 6, decay=0.5, band=(1, grid.n // 2 - 1)),
            GridField(grid, rng.standard_normal(grid.shape), "physical")]


_ORACLE_SPECS = [NormSpec(s, p, q, hom, flavor)
                 for flavor, s, p in (("tl", 1.5, 1.0), ("tl", 0.5, 3.0),
                                      ("besov", 1.5, 2.0), ("besov", -0.5, math.inf))
                 for q in (1.0, 2.0, math.inf) for hom in (False, True)]


@pytest.mark.parametrize("grid, bank", [("grid64", "bank64"), ("grid16_3d", "bank16_3d")])
def test_engine_matches_decompose_oracle(grid, bank, request):
    grid, bank = request.getfixturevalue(grid), request.getfixturevalue(bank)
    worst = 0.0
    for f in _real_fields(grid):
        for form in (f, dft_forward(f)):
            for spec in _ORACLE_SPECS:
                ref = _oracle_norm(bank, f, spec)
                worst = max(worst, abs(field_norm(bank, form, spec) - ref) / ref)
    print("engine vs decompose oracle, worst relative", worst)
    assert worst <= 1e-13


@lru_cache(maxsize=None)
def _engine_fields(n, d):
    """The oracle's three real fields and a divergence-free vector field."""
    grid = Grid(n, d)
    return (*_real_fields(grid), divfree_sample(grid, 9))


@pytest.mark.parametrize("n, d", [(64, 2), (16, 3)])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(specs=st.lists(st.sampled_from(_ORACLE_SPECS), min_size=1, max_size=4),
       which=st.integers(0, 3))
def test_one_pass_gives_each_spec_its_value_alone(n, d, specs, which):
    """Serving several specs from one pass over the blocks changes no value, bit for bit."""
    bank, f = default_bank(n, d), _engine_fields(n, d)[which]
    assert _field_norms(bank, f, tuple(specs)) == [field_norm(bank, f, spec) for spec in specs]


def test_a_field_measured_in_several_specs_is_decomposed_once(grid64, bank64,
                                                              inverse_transforms):
    """One inverse per block at 64^2 (8 with the low block, 7 without: the top block
    psi_7 is zero and is not transformed), not one per block and spec."""
    f, u = scalar_sample(grid64, 5), divfree_sample(grid64, 9)
    for run, inverses in [(lambda: verify_equivalence(bank64, f, 3, 1, 1), 8),
                          (lambda: verify_embedding(bank64, f, (3.0, 1.0, 1.0), (2.0, 2.0)), 7),
                          (lambda: _field_norms(bank64, u, (NormSpec(3, 1, 1), NormSpec(2, 1, 1),
                                                            NormSpec(4, 1, 1))), 2 * 8)]:
        inverse_transforms.clear()
        run()
        assert len(inverse_transforms) == inverses


def _oracle_commutator_blocks(bank, u, g):
    """Commutator blocks on the complex path: full np.fft spectra, complex
    derivatives and complex blocks."""
    n = g.grid.n
    mesh = _full_lattice(n, g.grid.d)[0]
    keep = np.all([np.abs(m) <= n // 3 for m in mesh], axis=0)
    iks = [1j * m * (np.abs(m) < n / 2) for m in mesh]
    fv = [_samples(_coefficients(c.values) * keep) for c in u.components]
    G = _coefficients(g.values) * keep

    def advect(H):
        return sum(ul * _samples(H * ik) for ul, ik in zip(fv, iks))

    inner = _coefficients(advect(G))
    return [advect(G * m) - _samples(inner * m) for m in _full_multipliers(bank)[1]]


@pytest.mark.parametrize("grid, bank", [("grid64", "bank64"), ("grid16_3d", "bank16_3d")])
def test_commutator_sequence_matches_oracle(grid, bank, request):
    grid, bank = request.getfixturevalue(grid), request.getfixturevalue(bank)
    u, g = transport_pair(grid, 300, band=(1, grid.n // 2 - 1))
    ref = _oracle_commutator_blocks(bank, u, g)
    seq = commutator_sequence(bank, u, g)
    scale = max(np.abs(b).max() for b in ref)
    assert max(np.abs(a.values - b).max() for a, b in zip(seq.blocks, ref)) <= 1e-13 * scale
    for q in (1.0, 2.0, math.inf):
        spec = NormSpec(2.5, 2.0, q, homogeneous=True)
        want = _sequence_tl_norm(ref, spec, grid.cell_volume, bank.j_max)
        got = _sequence_tl_norm([b.values for b in seq.blocks], spec, grid.cell_volume,
                                bank.j_max)
        assert abs(got - want) <= 1e-13 * want


def test_commutator_acts_on_the_real_parts(grid64, bank64):
    """Complex f and g are refused at construction.  Near-real ones (imaginary
    part at roundoff) are stored as their real parts, so their blocks are the
    real parts' blocks, bit for bit."""
    u, g = transport_pair(grid64, 300)
    u2, g2 = transport_pair(grid64, 301)
    with pytest.raises(RepresentationError):
        GridField(grid64, g.values + 1j * g2.values, "physical")
    f = VectorField(tuple(GridField(grid64, a.values + 1e-14j * b.values, "physical")
                          for a, b in zip(u.components, u2.components)), div_free=True)
    gc = GridField(grid64, g.values + 1e-14j * g2.values, "physical")
    want = commutator_sequence(bank64, u, g).blocks
    for form in (gc, dft_forward(gc)):
        got = commutator_sequence(bank64, f, form).blocks
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))


def test_norm_measures_the_real_part(grid64, bank64):
    """Samples with an imaginary part above roundoff are refused; near-real ones
    are stored as their real part, which every norm then measures, bit for bit."""
    rng = np.random.default_rng(8)
    re, im = rng.standard_normal((2,) + grid64.shape)
    with pytest.raises(RepresentationError):
        GridField(grid64, re + 1e-9j * im, "physical")
    f = GridField(grid64, re + 1e-14j * im, "physical")
    assert f.values.dtype == np.float64 and np.array_equal(f.values, re)
    real = GridField(grid64, re, "physical")
    for spec in (NormSpec(1.5, 1, 1), NormSpec(0.5, 2, math.inf, homogeneous=True),
                 NormSpec(1.0, math.inf, 2, flavor="besov")):
        want = field_norm(bank64, real, spec)
        for form in (f, dft_forward(f)):
            assert field_norm(bank64, form, spec) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_data_overflow_to_inf_in_both_flavors(grid64, bank64):
    """Weights in range, data past it: a Besov ladder overflows to inf, not to
    an OverflowError, as a Triebel-Lizorkin one does, and so does a vector
    field's quadrature of finite component norms, all with no numpy overflow
    warning, at p = 1, p = 2 and q = inf.  At 1e150 both flavors keep their
    finite values, bit for bit."""
    f = scalar_sample(grid64, 5)
    besov, tl = NormSpec(3, 1, 2, flavor="besov"), NormSpec(3, 1, 2)
    for spec in (besov, tl, NormSpec(3, 2, 2, flavor="besov"), NormSpec(3, 2, 2),
                 NormSpec(3, 3, math.inf)):
        assert field_norm(bank64, f * 1e160, spec) == math.inf
    assert field_norm(bank64, f * 1e150, besov) == LARGE_BESOV_SAMPLE5
    assert field_norm(bank64, f * 1e150, tl) == LARGE_TL_SAMPLE5
    u = divfree_sample(grid64, 9) * 1e160
    assert field_norm(bank64, u, NormSpec(3, 1, math.inf, flavor="besov")) == math.inf


def test_nan_field_norm_is_not_finite(grid64, bank64):
    vals = scalar_sample(grid64, 5).values.copy()
    vals[3, 4] = np.nan
    f = GridField(grid64, vals, "physical")
    for spec in (NormSpec(3, 1, 1), NormSpec(1, 2, math.inf, homogeneous=True),
                 NormSpec(1, math.inf, math.inf, flavor="besov")):
        for form in (f, dft_forward(f)):
            assert not math.isfinite(field_norm(bank64, form, spec))
    assert not math.isfinite(grad_sup_norm(f))


@pytest.mark.parametrize("s", [171.0, np.float64(171.0)], ids=["float", "float64"])
def test_overflowing_weight_is_one_typed_error(grid64, bank64, s):
    """2^{js} overflows float64 at the top block read, j = 6 at 64^2: a Python float
    s used to raise a bare OverflowError, a numpy one to give inf, and the
    commutator ladder NaN.  Every flavor, and the commutator ladder, raise one
    typed ValueError that names s, q and the block; weights in range are finite."""
    from lpflow import WeightOverflowError, verify_commutator_estimate

    f = scalar_sample(grid64, 5)
    for flavor in ("tl", "besov"):
        with pytest.raises(WeightOverflowError, match=r"j = 6 \(s = 171.0, q = 2.0\)"):
            field_norm(bank64, f, NormSpec(s, 2, 2, flavor=flavor))
        with pytest.raises(WeightOverflowError, match=r"j = 6 \(s = 171.0, q = inf\)"):
            field_norm(bank64, f, NormSpec(s, 2, math.inf, flavor=flavor))
        assert math.isfinite(field_norm(bank64, f, NormSpec(s / 4, 2, 2, flavor=flavor)))
    with pytest.raises(WeightOverflowError, match=r"j = 7 \(s = 171.0, q = 2.0\)"):
        verify_commutator_estimate(bank64, *transport_pair(grid64, 300),
                                   NormSpec(s, 2, 2, homogeneous=True))
    vals = f.values.copy()
    vals[3, 4] = np.nan
    assert math.isnan(field_norm(bank64, GridField(grid64, vals, "physical"),
                                 NormSpec(s / 4, 2, 2)))
