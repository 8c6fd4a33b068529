"""Fixtures shared by the whole suite.

An object that an acceptance criterion and a unit test both read is built once
per session, below, and both assert on that one object.  Tests that check
determinism or count calls (criterion 12, ``test_iterate_is_deterministic``,
``test_decay_table_frozen``) make their own runs and take none of these.

At the end of the session every shared object is compared with what it was
when built: the ``dump_json`` text of each report, the bytes of each recorded
spectrum and the repr of every other value.  A test that changed one fails
the run.
"""

import functools
import hashlib
import sys
from typing import NamedTuple

import numpy as np
import pytest

from lpflow import (Grid, GridField, IterationLadder, NormSpec, SolverConfig, Trajectory,
                    VectorField, calibration, default_bank, fields, solve, taylor_green)
from lpflow.corpus import divfree_sample, scale_to_peak, solution_map_datum
from lpflow.experiments import (DependenceConfig, bona_smith_experiment,
                                boundedness_experiment, continuity_assembly,
                                lipschitz_lowernorm_experiment)
from lpflow.iteration import iterate
from lpflow.norms import field_norm
from lpflow.reports import ExperimentReport, dump_json


@pytest.fixture(scope="session")
def grid64():
    return Grid(64, 2)


@pytest.fixture(scope="session")
def bank64(grid64):
    return default_bank(grid64.n, grid64.d)


@pytest.fixture(scope="session")
def grid16_3d():
    return Grid(16, 3)


@pytest.fixture(scope="session")
def bank16_3d(grid16_3d):
    return default_bank(grid16_3d.n, grid16_3d.d)


@pytest.fixture()
def inverse_transforms(monkeypatch) -> list:
    """One entry per real inverse transform, counted under every lpflow import of it."""
    return _count_calls(monkeypatch, "_from_half_spectrum")


@pytest.fixture()
def forward_transforms(monkeypatch) -> list:
    """One entry per real forward transform, counted under every lpflow import of it."""
    return _count_calls(monkeypatch, "_to_half_spectrum")


def _count_calls(monkeypatch, name: str) -> list:
    calls, real = [], getattr(fields, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("lpflow") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


# ---------------------------------------------------------------------------
# objects shared by the acceptance criteria and the unit tests


def _fingerprint(obj):
    """What a shared object holds: report JSON text, spectrum digests, reprs."""
    if isinstance(obj, ExperimentReport):
        return dump_json(obj.to_json_dict())
    if isinstance(obj, Trajectory):
        return (obj.times, [hashlib.sha256(s.tobytes()).hexdigest() for s in obj.spectra],
                repr(obj.diagnostics))
    if isinstance(obj, IterationLadder):
        return _fingerprint(obj.members), obj.norm_spec, obj.decay_table
    if isinstance(obj, VectorField):
        return [hashlib.sha256(c.values.tobytes()).hexdigest() for c in obj.components]
    if isinstance(obj, (tuple, list)):
        return [_fingerprint(o) for o in obj]
    return repr(obj)


@pytest.fixture(scope="session")
def _shared():
    """``share(name, obj)`` records obj's fingerprint and returns obj; at session
    end every recorded object must still match it."""
    built = {}

    def share(name, obj):
        built[name] = obj, _fingerprint(obj)
        return obj

    yield share
    changed = [name for name, (obj, print_) in built.items() if _fingerprint(obj) != print_]
    assert not changed, f"a test changed shared objects: {changed}"


@pytest.fixture(scope="session")
def calibrated_ratios(_shared):
    """``calibration.ratios(name)`` over the entry's own corpus, measured once per name."""
    return functools.cache(lambda name: _shared(f"ratios {name}", calibration.ratios(name)))


class SolutionMapReports(NamedTuple):
    """Criterion 11's experiments on the calibrated datum and config."""

    datum: VectorField
    cfg: DependenceConfig
    boundedness: ExperimentReport
    lipschitz: ExperimentReport         # direction: seed 22
    bona_smith: ExperimentReport
    continuity: tuple                   # psi from (seed, eps) = (22, 1e-3), (23, 1e-2), (24, 1e-3)


@pytest.fixture(scope="session")
def solution_map_reports(grid64, bank64, _shared):
    u0 = solution_map_datum(grid64, 21)
    cfg = DependenceConfig(norm_spec=NormSpec(3, 1, 1), T=0.2, dt=1e-3,
                           N_list=(3, 4, 5), eps_list=(1e-1, 1e-2, 1e-3, 1e-4))
    w = divfree_sample(grid64, 22, decay=2.0, band=(1, 8))
    continuity = []
    for seed, eps in ((22, 1e-3), (23, 1e-2), (24, 1e-3)):
        wdir = divfree_sample(grid64, seed, decay=2.0, band=(1, 8))
        psi = u0 + wdir * (eps / field_norm(bank64, wdir, cfg.norm_spec))
        continuity.append(continuity_assembly(u0, psi, cfg))
    reports = SolutionMapReports(u0, cfg, boundedness_experiment(u0, cfg),
                                 lipschitz_lowernorm_experiment(u0, w, cfg),
                                 bona_smith_experiment(u0, cfg), tuple(continuity))
    return _shared("solution_map_reports", reports)


class LadderRun(NamedTuple):
    """Criterion 10's data and config, its M = 12 ladder and the solve it is held to."""

    datum: VectorField
    cfg: SolverConfig
    ladder: IterationLadder
    reference: Trajectory


@pytest.fixture(scope="session")
def ladder_m12(grid64, bank64, _shared):
    cfg = SolverConfig(dt=2e-3, T=0.1, record_stride=1)
    u0 = scale_to_peak(divfree_sample(grid64, 11, decay=2.0, band=(1, 4)), 0.5)
    ladder = iterate(bank64, u0, 12, cfg, NormSpec(3, 1, 1))
    return _shared("ladder_m12", LadderRun(u0, cfg, ladder, solve(u0, cfg)))


@pytest.fixture(scope="session")
def shell_ladder(grid64, bank64, _shared):
    """The M = 4 ladder of the |k| = 1 shear shell, on criterion 10's config."""
    x = grid64.meshes()
    shell = VectorField((GridField(grid64, np.sin(x[1]), "physical"),
                         GridField(grid64, np.sin(x[0]), "physical")),
                        div_free=True)
    cfg = SolverConfig(dt=2e-3, T=0.1, record_stride=1)
    return _shared("shell_ladder", iterate(bank64, shell, 4, cfg, NormSpec(3, 1, 1)))


class HalvingSolves(NamedTuple):
    """Taylor-Green plus a seed-77 perturbation of peak 0.1, solved to T = 0.1."""

    datum: VectorField
    coarse: VectorField                 # final state at dt = 4e-3
    fine: VectorField                   # dt = 2e-3
    reference: VectorField              # dt = 5e-4


@pytest.fixture(scope="session")
def halving_solves(grid64, _shared):
    pert = divfree_sample(grid64, 77, decay=2.0, band=(1, 6))
    u0 = taylor_green(grid64) + scale_to_peak(pert, 0.1) * 1.0

    def final(dt):
        return solve(u0, SolverConfig(dt=dt, T=0.1, record_stride=10**6)).states[-1]

    return _shared("halving_solves", HalvingSolves(u0, final(4e-3), final(2e-3), final(5e-4)))
