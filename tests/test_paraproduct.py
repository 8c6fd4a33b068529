"""Frequency-sorted product splitting, block commutators, sweep ratios.

The exact-identity tests pin the bookkeeping (the three pieces must re-sum
to the dealiased product, bit-for-bit up to roundoff); the ratio tests
freeze measured values so the estimate machinery cannot drift silently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpflow import (DegenerateInputError, Grid, GridField, NormSpec, VectorField,
                    bony, commutator, commutator_sequence, counterexample_scan,
                    default_bank, delta_j,
                    verify_commutator_estimate, verify_moser,
                    verify_moser_transport)
from lpflow import calibration
from lpflow.corpus import scalar_sample, transport_pair
from lpflow.fields import dealias_field, derivative
from lpflow.paraproduct import _sequence_tl_norm

MOSER_SEED56 = 0.31188812465414134
PROD2_SEED300 = 0.14831309394561232
PROD3_SEED300 = 0.17680683455679547
ESTI1_SEED300 = 0.46475925312468364
ESTI2_SEED300 = 0.12532605613314318
ESTI1_NONENDPOINT = 0.37626445441536116
SCAN_S2 = {
    "lacunary": (0.051715461199199286, 0.040938360993777546, 0.03477337508847563),
    "modulated-bump": (0.14114581427363676, 0.05797669651748615, 0.025285813403664488),
    "random": (0.07419251106115309, 0.03350739927125938, 0.01597753180419627),
}


def test_bony_pieces_resum_to_product(grid64, bank64):
    f = scalar_sample(grid64, 5)
    g = scalar_sample(grid64, 6)
    pieces = bony(bank64, f, g)
    prod = dealias_field(f).values * dealias_field(g).values
    rel = np.abs(pieces.total().values - prod).max() / np.abs(prod).max()
    print("splitting identity rel", rel)
    assert rel <= 1e-13


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(grid=st.one_of(st.builds(Grid, st.sampled_from([8, 16, 32, 64]), st.just(2)),
                      st.builds(Grid, st.sampled_from([8, 16]), st.just(3))),
       seed=st.integers(0, 2**32 - 1))
def test_bony_pieces_resum_on_random_pairs(grid, seed):
    """On white-noise pairs, which fill every shell up to the Nyquist planes, the
    three pieces re-sum to the product of the 2/3-rule dealiased factors."""
    f, g = (GridField(grid, a, "physical")
            for a in np.random.default_rng(seed).standard_normal((2,) + grid.shape))
    prod = dealias_field(f).values * dealias_field(g).values
    total = bony(default_bank(grid.n, grid.d), f, g).total().values
    assert np.abs(total - prod).max() <= 1e-12 * np.abs(prod).max()


def test_bony_swap_symmetry(grid64, bank64):
    f = scalar_sample(grid64, 5)
    g = scalar_sample(grid64, 6)
    a = bony(bank64, f, g)
    b = bony(bank64, g, f)
    assert np.abs(a.low_high.values - b.high_low.values).max() == 0.0
    assert np.abs(a.diagonal.values - b.diagonal.values).max() < 1e-12


def test_bony_bilinear(grid64, bank64):
    f = scalar_sample(grid64, 5)
    fa = scalar_sample(grid64, 7)
    g = scalar_sample(grid64, 6)
    joint = bony(bank64, GridField(grid64, f.values + fa.values, "physical"), g)
    parts = (bony(bank64, f, g), bony(bank64, fa, g))
    gap = np.abs(joint.low_high.values
                 - parts[0].low_high.values - parts[1].low_high.values).max()
    assert gap < 1e-12


def test_bony_constant_times_mode(grid64, bank64):
    x = grid64.meshes()
    c = GridField(grid64, np.full(grid64.shape, 2.5), "physical")
    m = GridField(grid64, np.cos(16 * x[0]), "physical")
    pieces = bony(bank64, c, m)
    # the constant sits below every annulus: all content is low-times-high
    assert np.abs(pieces.low_high.values - 2.5 * m.values).max() < 1e-12
    assert np.abs(pieces.high_low.values).max() < 1e-13
    assert np.abs(pieces.diagonal.values).max() < 1e-13


def test_bony_grid_mismatch(grid64, bank64):
    from lpflow import Grid
    f32 = scalar_sample(Grid(32, 2), 1)
    with pytest.raises(ValueError):
        bony(bank64, f32, f32)


def test_commutator_vanishes_for_constant_advection(grid64, bank64):
    u, g = transport_pair(grid64, 300)
    c = VectorField(tuple(GridField(grid64, np.full(grid64.shape, v), "physical")
                          for v in (0.7, -0.3)), div_free=True)
    cc = commutator(bank64, c, g, 3)
    assert np.abs(cc.values).max() < 1e-13


def test_commutator_linear_in_transported_factor(grid64, bank64):
    u, g = transport_pair(grid64, 300)
    g2 = scalar_sample(grid64, 77)
    joint = commutator(bank64, u,
                       GridField(grid64, g.values + g2.values, "physical"), 4)
    split = commutator(bank64, u, g, 4).values + commutator(bank64, u, g2, 4).values
    scale = np.abs(split).max()
    assert np.abs(joint.values - split).max() / scale < 1e-11


def test_commutator_sequence_covers_all_blocks(grid64, bank64):
    u, g = transport_pair(grid64, 300)
    seq = commutator_sequence(bank64, u, g)
    assert seq.j_max == bank64.j_max
    assert len(seq.blocks) == bank64.j_max + 1


@pytest.mark.parametrize("dim", [2, 3])
def test_commutator_sequence_matches_definition(dim, grid64, bank64, grid16_3d, bank16_3d):
    """Every block equals f.grad(block_j g) - block_j(f.grad g), built here from
    the dealiased factors one block at a time.  The data reach past the 2/3
    cutoff, so the dealiasing is exercised too."""
    grid, bank = (grid64, bank64) if dim == 2 else (grid16_3d, bank16_3d)
    u, g = transport_pair(grid, 300, band=(1, grid.n // 2 - 1))
    ud = [dealias_field(c) for c in u.components]
    gd = dealias_field(g)

    def advect(h):
        return sum(c.values * derivative(h, a).values for a, c in enumerate(ud))

    inner = GridField(grid, advect(gd), "physical")
    refs = [advect(delta_j(bank, gd, j)) - delta_j(bank, inner, j).values
            for j in range(bank.j_max + 1)]
    scale = max(np.abs(r).max() for r in refs)
    seq = commutator_sequence(bank, u, g)
    for block, ref in zip(seq.blocks, refs):
        assert np.abs(block.values - ref).max() <= 1e-13 * scale
    assert np.array_equal(commutator(bank, u, g, 2).values, seq.blocks[2].values)


def test_requires_divergence_free(grid64, bank64):
    _, g = transport_pair(grid64, 300)
    x = grid64.meshes()
    bad = VectorField((GridField(grid64, np.sin(x[0]), "physical"),
                       GridField(grid64, np.sin(x[1]), "physical")))
    with pytest.raises(ValueError):
        verify_moser_transport(bank64, bad, g, NormSpec(0, 1, 2, homogeneous=True))
    # the divergence of a NaN field is NaN, which no "> tol" test catches
    ux = np.sin(x[0])
    ux[3, 3] = np.nan
    nan_field = VectorField((GridField(grid64, ux, "physical"), bad.components[1]))
    with pytest.raises(ValueError, match="divergence-free"):
        commutator(bank64, nan_field, g, 2)


def test_moser_ratio_frozen(grid64, bank64):
    f = scalar_sample(grid64, 5)
    g = scalar_sample(grid64, 6)
    spec = NormSpec(3, 1, 1, homogeneous=True)
    r = verify_moser(bank64, f, g, spec)
    assert abs(r - MOSER_SEED56) < 1e-12


def test_moser_scale_invariance(grid64, bank64):
    f = scalar_sample(grid64, 5)
    g = scalar_sample(grid64, 6)
    spec = NormSpec(3, 1, 1, homogeneous=True)
    r = verify_moser(bank64, f, g, spec)
    r2 = verify_moser(bank64, f * 3.7, g * 0.2, spec)
    assert abs(r - r2) / r <= 1e-10


def test_moser_needs_positive_smoothness(grid64, bank64):
    f = scalar_sample(grid64, 5)
    g = scalar_sample(grid64, 6)
    with pytest.raises(ValueError):
        verify_moser(bank64, f, g, NormSpec(0, 1, 1, homogeneous=True))


def test_moser_degenerate_zero_input(grid64, bank64):
    z = GridField(grid64, np.zeros(grid64.shape), "physical")
    f = scalar_sample(grid64, 5)
    with pytest.raises(DegenerateInputError):
        verify_moser(bank64, z, f, NormSpec(3, 1, 1, homogeneous=True))


def test_transport_forms_frozen(grid64, bank64):
    u, g = transport_pair(grid64, 300)
    spec = NormSpec(0, 1, 2, homogeneous=True)
    assert abs(verify_moser_transport(bank64, u, g, spec, "prod2") - PROD2_SEED300) < 1e-12
    assert abs(verify_moser_transport(bank64, u, g, spec, "prod3") - PROD3_SEED300) < 1e-12
    with pytest.raises(ValueError):
        verify_moser_transport(bank64, u, g, spec, "prod9")


def test_commutator_estimates_frozen(grid64, bank64):
    u, g = transport_pair(grid64, 300)
    spec = NormSpec(3, 1, 1, homogeneous=True)
    assert abs(verify_commutator_estimate(bank64, u, g, spec, "esti1") - ESTI1_SEED300) < 1e-12
    assert abs(verify_commutator_estimate(bank64, u, g, spec, "esti2") - ESTI2_SEED300) < 1e-12
    r = verify_commutator_estimate(bank64, u, g, NormSpec(2.5, 2, 2, homogeneous=True), "esti1")
    assert abs(r - ESTI1_NONENDPOINT) < 1e-12


@pytest.mark.parametrize("harness, form, forwards", [
    (verify_moser_transport, "prod2", 6), (verify_moser_transport, "prod3", 6),
    (verify_commutator_estimate, "esti1", 8), (verify_commutator_estimate, "esti2", 8)])
def test_harnesses_read_the_dealiased_spectrum_they_hold(grid64, bank64, forward_transforms,
                                                         harness, form, forwards):
    """The dealiased spectrum of the transported factor is measured as it is,
    not re-made by forward transforms of its samples (9, 8, 10 and 9 did that)."""
    u, g = transport_pair(grid64, 300)
    harness(bank64, u, g, NormSpec(3, 1, 1, homogeneous=True), form)
    assert len(forward_transforms) == forwards


def test_commutator_estimate_index_ranges(grid64, bank64):
    u, g = transport_pair(grid64, 300)
    with pytest.raises(ValueError):
        verify_commutator_estimate(bank64, u, g, NormSpec(0, 1, 1, homogeneous=True), "esti1")
    with pytest.raises(ValueError):
        verify_commutator_estimate(bank64, u, g,
                                   NormSpec(-1.0, 1, 1, homogeneous=True), "esti2")
    with pytest.raises(ValueError):
        verify_commutator_estimate(bank64, u, g, NormSpec(3, 1, 1, homogeneous=True),
                                   "esti9")


def test_sweeps_are_deterministic():
    a = calibration.ratios("product_endpoint_s3_p1_q1", count=3, seed0=100)
    b = calibration.ratios("product_endpoint_s3_p1_q1", count=3, seed0=100)
    assert a == b
    t = calibration.ratios("transport_prod2_s0_p1_q2", count=2, seed0=300)
    assert abs(t[0] - PROD2_SEED300) < 1e-12
    c = calibration.ratios("commutator_esti1_s3_p1_q1", count=2, seed0=300)
    assert abs(c[0] - ESTI1_SEED300) < 1e-12


def test_counterexample_scan_lacunary(bank64):
    for family, want in SCAN_S2.items():
        rep = counterexample_scan(bank64, family, 2.0, 2.0, 2.0, [2, 3, 4])
        assert rep.estimate_id == "two_norm_commutator_scan"
        assert list(rep.seeds) == [2, 3, 4]
        for got, w in zip(rep.ratios, want):
            assert abs(got - w) < 1e-12


def test_counterexample_scan_validation(bank64):
    with pytest.raises(ValueError):
        counterexample_scan(bank64, "smooth", 2.0, 2.0, 2.0, [2])
    with pytest.raises(ValueError):
        counterexample_scan(bank64, "lacunary", 2.0, 2.0, 2.0, [0])
    with pytest.raises(ValueError):
        counterexample_scan(bank64, "lacunary", 2.0, 2.0, 2.0, [bank64.j_max])


@pytest.mark.parametrize("family", ["lacunary", "modulated-bump", "random"])
@pytest.mark.parametrize("n,d,top", [(64, 2, 5), (32, 3, 4), (256, 2, 7)])
def test_counterexample_scan_stays_inside_the_dealiased_band(n, d, top, family):
    """At 2^N above n//3 the dealiased factors drop the pair's top content
    (the modulated bump to zero), so such a scale is refused."""
    with pytest.raises(ValueError, match=f"n//3 = {n // 3}"):
        counterexample_scan(default_bank(n, d), family, 2.0, 2.0, 2.0, [2, top])


def test_counterexample_families_all_run(bank64):
    for family in ("lacunary", "modulated-bump", "random"):
        rep = counterexample_scan(bank64, family, 1.0, 1.0, 1.0, [2, 3])
        assert len(rep.ratios) == 2
        assert all(math.isfinite(r) and r > 0 for r in rep.ratios)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_sequence_tl_norm_is_the_homogeneous_ladder(grid64, bank64, q):
    """The commutator-ladder norm, written out: || (sum_j (2^{js}|c_j|)^q)^{1/q} ||_p,
    a running max for q = inf, bit for bit, whatever ``homogeneous`` says."""
    seq = commutator_sequence(bank64, *transport_pair(grid64, 300))
    mags = [np.abs(b.values) for b in seq.blocks]
    s, p = 2.5, 2.0
    if math.isinf(q):
        env = mags[0] * 1.0
        for j, m in enumerate(mags[1:], 1):
            env = np.maximum(env, 2.0 ** (j * s) * m)
    else:
        env = sum((2.0 ** (j * s) * m) ** q for j, m in enumerate(mags)) ** (1.0 / q)
    ref = float((grid64.cell_volume * (env**p).sum()) ** (1.0 / p))
    for hom in (True, False):
        assert _sequence_tl_norm([b.values for b in seq.blocks],
                                 NormSpec(s, p, q, homogeneous=hom), grid64.cell_volume,
                                 bank64.j_max) == ref
