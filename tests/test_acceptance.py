"""Acceptance suite: one test per numbered criterion.

Every test prints a single summary line with its measured quantities, so a
verbose run reads as a pass/fail scorecard.  Regression bounds come from the
committed calibration table (fixed seed corpus, bound = 2x the stored max);
exact identities use the stated absolute tolerances.
"""

import math

import numpy as np
import pytest

from lpflow import (Grid, GridField, NormSpec, SolverConfig, VectorField,
                    besov_norm, decompose, default_bank, delta_j, flow_map,
                    hl_maximal, jacobian_determinant, lp_norm, p_le, recompose,
                    solve, taylor_green, tl_norm, verify_commutator_estimate,
                    verify_equivalence, verify_lifting, verify_moser)
from lpflow import calibration
from lpflow.corpus import (divfree_sample, scalar_sample, scalar_samples, scale_to_peak,
                           solution_map_datum, transport_pair)
from lpflow.experiments import DependenceConfig, boundedness_experiment
from lpflow.fields import vector_as_physical, wavenumber_mesh
from lpflow.iteration import iterate, ladder_vs_solve
from lpflow.norms import field_norm, kernel_l1_bound, kernel_l1_terms, sup_norm
from lpflow.paraproduct import commutator

GRID = Grid(64, 2)
BANK = default_bank(64, 2)
# (max, min) of each transport/commutator entry's calibrated corpus.
CORPUS_MAX_MIN = {
    "transport_prod2_s0_p1_q2": (0.14831309394561232, 0.11160430316854035),
    "transport_prod3_s0_p1_q2": (0.17680683455679552, 0.09270992204250159),
    "commutator_esti1_s3_p1_q1": (0.4895723287865932, 0.39014507309773244),
    "commutator_esti2_s3_p1_q1": (0.17517906834786412, 0.07432957661331863),
    "commutator_esti1_s2p5_p2_q2": (0.39421485761110175, 0.29539073401165744),
}


def _matches_pin(name, ratios):
    want_max, want_min = CORPUS_MAX_MIN[name]
    return abs(max(ratios) - want_max) < 1e-12 and abs(min(ratios) - want_min) < 1e-12


def _translation_error(v, U, T, dt):
    """Relative spectral error at T of the solve of v + U, v a steady flow and U a
    constant velocity, against the exact v(x - Ut) + U: each mode k turns by e^{-ik.UT}."""
    grid = v.grid
    const = VectorField(tuple(GridField(grid, np.full(grid.shape, c), "physical") for c in U),
                        div_free=True)
    traj = solve(v + const, SolverConfig(dt=dt, T=T, record_stride=10**6))
    k = wavenumber_mesh(grid.n, grid.d)
    exact = traj.spectra[0] * np.exp(-1j * T * sum(c * kc for c, kc in zip(U, k)))
    return float(np.abs(traj.spectra[-1] - exact).max() / np.abs(exact).max())


def _abc_flow(grid):
    """The Arnold-Beltrami-Childress flow with A = B = C = 1: curl u = u, so it is steady."""
    x, y, z = grid.meshes()
    comps = (np.sin(z) + np.cos(y), np.sin(x) + np.cos(z), np.sin(y) + np.cos(x))
    return VectorField(tuple(GridField(grid, c, "physical") for c in comps), div_free=True)


def _sup_diff(u, v):
    up, vp = vector_as_physical(u), vector_as_physical(v)
    return max(float(np.abs(a.values - b.values).max())
               for a, b in zip(up.components, vp.components))


def test_criterion_01_filter_bank_exactness():
    partition = float(np.abs(BANK.phi_0 + sum(BANK.psi) - 1.0).max())
    recomp = 0.0
    telescope = 0.0
    for seed in (5, 6, 7):
        f = scalar_sample(GRID, seed)
        scale = float(np.abs(f.values).max())
        r = recompose(decompose(BANK, f))
        recomp = max(recomp, float(np.abs(r.values - f.values).max()) / scale)
        for j in range(BANK.j_max):
            lhs = delta_j(BANK, f, j).values
            rhs = p_le(BANK, f, j + 1).values - p_le(BANK, f, j).values
            telescope = max(telescope, float(np.abs(lhs - rhs).max()) / scale)
    print(f"criterion 01: partition {partition:.2e} recompose {recomp:.2e} "
          f"telescoping {telescope:.2e} -> PASS")
    assert partition <= 1e-14
    assert recomp <= 1e-11
    assert telescope <= 1e-13


def test_criterion_02_pure_mode_norm_oracle():
    x = GRID.meshes()
    worst = 0.0
    for j0 in (1, 2, 3):
        f = GridField(GRID, 2.0 * np.cos(2**j0 * x[0]), "physical")
        for (s, p, q) in ((3.0, 1.0, 1.0), (2.0, 2.0, 2.0)):
            oracle = 2.0 ** (j0 * s) * lp_norm(f, p)
            for value in (tl_norm(BANK, f, NormSpec(s, p, q)),
                          besov_norm(BANK, f, NormSpec(s, p, q, flavor="besov"))):
                worst = max(worst, abs(value - oracle) / oracle)
    print(f"criterion 02: pure-mode worst relative error {worst:.2e} -> PASS")
    assert worst <= 1e-9


def test_criterion_03_equivalence_and_embedding_chain():
    ratios = []
    violations = 0
    for f in scalar_samples(GRID, 100, 1000):
        ratios.append(verify_equivalence(BANK, f, 3.0, 1.0, 1.0))
        chain = besov_norm(BANK, f, NormSpec(0.0, math.inf, 1.0, flavor="besov"))
        if sup_norm(f) > chain * (1 + 1e-12):
            violations += 1
    lo, hi = min(ratios), max(ratios)
    print(f"criterion 03: equivalence ratios [{lo:.3f}, {hi:.3f}] on 100 samples, "
          f"sup-chain violations {violations} -> PASS")
    assert 0.2 <= lo and hi <= 5.0
    assert violations == 0


def test_criterion_04_lifting(calibrated_ratios):
    x = GRID.meshes()
    pure = GridField(GRID, 2.0 * np.cos(4 * x[0]), "physical")
    r_pure = verify_lifting(BANK, pure, s=1.0, p=2.0, q=2.0, k=1.0)
    lo, hi = calibration.bracket("lifting_s1_order1")
    corpus = calibrated_ratios("lifting_s1_order1")
    print(f"criterion 04: pure-mode ratio {r_pure!r}, corpus "
          f"[{min(corpus):.4f}, {max(corpus):.4f}] in bracket [{lo:.4f}, {hi:.4f}] "
          f"-> PASS")
    assert abs(r_pure - 1.0) <= 1e-12
    assert all(lo <= r <= hi for r in corpus)


def test_criterion_05_kernel_l1_series():
    terms = kernel_l1_terms(refinement=7)
    worst = max(t2 / t1 for (j1, t1), (j2, t2) in zip(terms, terms[1:])
                if j2 <= -2)
    total7 = kernel_l1_bound(refinement=7)
    total8 = kernel_l1_bound(refinement=8)
    change = abs(total8 - total7) / total7
    print(f"criterion 05: worst tail ratio {worst:.4f}, refinement change "
          f"{change:.2e} -> PASS")
    assert worst <= 0.6
    assert change <= 0.01


def test_criterion_06_maximal_estimates(calibrated_ratios):
    violations = 0
    for f, mf, sublinearity_fails in calibration.sublinearity(GRID):
        violations += sublinearity_fails
        half = GridField(GRID, 0.5 * f.values, "physical")
        if (hl_maximal(half).values > mf + 1e-13).any():
            violations += 1

    key_bound = calibration.regression_bound("pointwise_block_maximal")
    key_worst = max(calibrated_ratios("pointwise_block_maximal"))

    fs_bound = calibration.regression_bound("vector_maximal_p2_q2")
    fs_worst = max(calibrated_ratios("vector_maximal_p2_q2"))

    print(f"criterion 06: violations {violations}, keyesti {key_worst:.4f} <= "
          f"{key_bound:.4f}, F-S {fs_worst:.4f} <= {fs_bound:.4f} -> PASS")
    assert violations == 0
    assert key_worst <= key_bound
    assert fs_worst <= fs_bound


def test_criterion_07_product_endpoint(calibrated_ratios):
    spec = NormSpec(3, 1, 1, homogeneous=True)
    ratios = calibrated_ratios("product_endpoint_s3_p1_q1")
    bound = calibration.regression_bound("product_endpoint_s3_p1_q1")

    f, g = scalar_sample(GRID, 100), scalar_sample(GRID, 101)
    r = verify_moser(BANK, f, g, spec)
    r_scaled = verify_moser(BANK, f * 17.0, g * 0.003, spec)
    scale_dev = abs(r - r_scaled) / r

    p2 = calibrated_ratios("transport_prod2_s0_p1_q2")
    p3 = calibrated_ratios("transport_prod3_s0_p1_q2")
    b2 = calibration.regression_bound("transport_prod2_s0_p1_q2")
    b3 = calibration.regression_bound("transport_prod3_s0_p1_q2")

    print(f"criterion 07: endpoint max {max(ratios):.4f} <= {bound:.4f}, "
          f"scale dev {scale_dev:.2e}, prod2 {max(p2):.4f} <= {b2:.4f}, "
          f"prod3 {max(p3):.4f} <= {b3:.4f} -> PASS")
    assert max(ratios) <= bound
    assert scale_dev <= 1e-10
    assert max(p2) <= b2
    assert max(p3) <= b3
    assert _matches_pin("transport_prod2_s0_p1_q2", p2)
    assert _matches_pin("transport_prod3_s0_p1_q2", p3)


def test_criterion_08_commutator_estimates(calibrated_ratios):
    e1 = calibrated_ratios("commutator_esti1_s3_p1_q1")
    e2 = calibrated_ratios("commutator_esti2_s3_p1_q1")
    b1 = calibration.regression_bound("commutator_esti1_s3_p1_q1")
    b2 = calibration.regression_bound("commutator_esti2_s3_p1_q1")

    _, g = transport_pair(GRID, 400)
    const = VectorField(tuple(GridField(GRID, np.full(GRID.shape, v), "physical")
                              for v in (0.7, -0.3)), div_free=True)
    const_max = max(float(np.abs(commutator(BANK, const, g, j).values).max())
                    for j in range(BANK.j_max + 1))

    non = calibrated_ratios("commutator_esti1_s2p5_p2_q2")
    bn = calibration.regression_bound("commutator_esti1_s2p5_p2_q2")

    print(f"criterion 08: esti1 {max(e1):.4f} <= {b1:.4f}, esti2 {max(e2):.4f} "
          f"<= {b2:.4f}, const-advection commutator {const_max:.2e}, "
          f"nonendpoint {max(non):.4f} <= {bn:.4f} -> PASS")
    assert max(e1) <= b1
    assert max(e2) <= b2
    assert const_max <= 1e-13
    assert max(non) <= bn
    assert _matches_pin("commutator_esti1_s3_p1_q1", e1)
    assert _matches_pin("commutator_esti2_s3_p1_q1", e2)
    assert _matches_pin("commutator_esti1_s2p5_p2_q2", non)


def test_criterion_09_solver_correctness(halving_solves):
    tg = taylor_green(GRID)
    traj = solve(tg, SolverConfig(dt=1e-3, T=1.0, record_stride=1000))
    u0, uT = traj.states[0], traj.states[-1]
    l2_0 = math.sqrt(sum(lp_norm(c, 2.0) ** 2
                         for c in vector_as_physical(u0).components))
    diff = vector_as_physical(uT) - vector_as_physical(u0)
    steady = math.sqrt(sum(lp_norm(c, 2.0) ** 2 for c in diff.components)) / l2_0
    e = traj.diagnostics["energy"]
    drift = abs(e[-1] - e[0]) / e[0]

    ref = halving_solves.reference
    order_ratio = _sup_diff(halving_solves.coarse, ref) / _sup_diff(halving_solves.fine, ref)

    # Galilean translation: the sign of the Euler term decides where the flow goes
    tg_shift = _translation_error(tg, (0.5, 0.25), 1.0, 5e-3)
    abc_shift = _translation_error(_abc_flow(Grid(16, 3)), (0.3, 0.2, 0.1), 0.5, 5e-3)

    u0j = scale_to_peak(divfree_sample(GRID, 42, decay=2.0, band=(1, 4)), 0.4)
    trj = solve(u0j, SolverConfig(dt=5e-3, T=1.0, record_stride=1))
    det = jacobian_determinant(flow_map(trj, times=(0.0, 1.0)), 1)
    jac_dev = float(np.abs(det - 1.0).max())

    print(f"criterion 09: steadiness {steady:.2e}, energy drift {drift:.2e}, "
          f"halving ratio {order_ratio:.1f}, jacobian dev {jac_dev:.2e}, translation "
          f"error 2D {tg_shift:.2e} 3D {abc_shift:.2e} -> PASS")
    assert steady <= 1e-6
    assert drift <= 1e-6
    assert order_ratio >= 8.0
    assert jac_dev <= 1e-4
    assert tg_shift <= 1e-11
    assert abc_shift <= 1e-11


def test_criterion_10_iteration_ladder(ladder_m12, shell_ladder):
    spec = NormSpec(3, 1, 1)
    u0, cfg = ladder_m12.datum, ladder_m12.cfg
    lad = iterate(BANK, u0, 6, cfg, spec)
    ratios = lad.decay_ratios()
    tail = ratios[2:]            # delta_4/delta_3 onward

    sat = shell_ladder.decay_table[1:]

    ref = ladder_m12.reference
    gap = ladder_vs_solve(BANK, ladder_m12.ladder, ref)
    fine = solve(u0, SolverConfig(dt=1e-3, T=0.1, record_stride=2))
    low = NormSpec(spec.s - 1, spec.p, spec.q)
    floor = max(field_norm(BANK, vector_as_physical(a) - vector_as_physical(b), low)
                for a, b in zip(ref.states, fine.states))

    print(f"criterion 10: tail ratios {[round(r, 4) for r in tail]}, "
          f"saturation max {max(sat):.2e}, ladder gap {gap:.2e} <= 10x floor "
          f"{floor:.2e} -> PASS")
    assert all(r <= 0.75 for r in tail)
    assert all(d <= 1e-8 for d in sat)
    assert gap <= 10.0 * floor


def test_criterion_11_solution_map_experiments(solution_map_reports, calibrated_ratios):
    reports = solution_map_reports
    bounded = reports.boundedness.max

    lip = reports.lipschitz.ratios
    lip_var = max(lip) / min(lip)

    bs = reports.bona_smith
    rho_var = max(bs.ratios) / min(bs.ratios)
    sigma = dict((int(N), v) for N, v in bs.tables["sigma"])

    chain_ok = []
    for rep in reports.continuity:
        pieces = dict(rep.tables["pieces"])
        chain_ok.append(pieces["direct"] <= 1.05 * pieces["chain"])

    # the map must move the data: the identity map meets every bound above
    (motion,) = calibrated_ratios("solution_map_motion")
    motion_lo, motion_hi = calibration.bracket("solution_map_motion")

    print(f"criterion 11: boundedness {bounded:.4f}, L(eps) variation "
          f"{lip_var:.4f}, rho variation {rho_var:.4f}, sigma(5)/sigma(3) "
          f"{sigma[5] / sigma[3]:.4f}, chain dominates {chain_ok}, motion {motion:.3e} in "
          f"[{motion_lo:.3e}, {motion_hi:.3e}] -> PASS")
    assert bounded <= 2.0
    assert lip_var <= 2.0
    assert rho_var <= 3.0
    assert sigma[5] <= 2.0 * sigma[3]
    assert all(chain_ok)
    assert motion_lo <= motion <= motion_hi


def test_criterion_12_determinism():
    from lpflow.reports import dump_json

    u0 = solution_map_datum(GRID, 21)
    cfg = DependenceConfig(norm_spec=NormSpec(3, 1, 1), T=0.05, dt=1e-3,
                           N_list=(3, 4), eps_list=(1e-1, 1e-2))
    a = dump_json(boundedness_experiment(u0, cfg).to_json_dict())
    b = dump_json(boundedness_experiment(u0, cfg).to_json_dict())

    s1 = solve(u0, SolverConfig(dt=1e-3, T=0.02, record_stride=10)).states[-1]
    s2 = solve(u0, SolverConfig(dt=1e-3, T=0.02, record_stride=10)).states[-1]
    states_equal = all(np.array_equal(x.values, y.values)
                       for x, y in zip(s1.components, s2.components))

    print(f"criterion 12: report bytes equal {a == b}, solver states equal "
          f"{states_equal} -> PASS")
    assert a == b
    assert states_equal
