"""Calibrated estimates: the one definition of what each gate measures.

The inequalities under test guarantee *existence* of a constant, not its
value, so each is pinned by measurement.  A row of ``_TABLE`` holds a ratio
function of (bank, count, seed0, parameters), its seeded corpus and its
parameters; the worst ratio is stored in packaged JSON, and gates allow twice
it.  ``--check``, ``lpflow verify`` and the acceptance criteria all measure
through :func:`ratios` or :func:`measure`, and the maximal-function
sublinearity check through :func:`sublinearity`.  Regenerate the table with

    python3 -m lpflow.calibration

which rewrites ``src/lpflow/data/calibration.json`` deterministically, or
check fresh measurements against it, writing nothing, with

    python3 -m lpflow.calibration --check
"""

from __future__ import annotations

import importlib.resources
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bank import decompose, default_bank, verify_low_freq_bound
from .corpus import (scalar_pairs, scalar_sample, scalar_samples, solution_map_datum,
                     transport_pair)
from .fields import as_physical
from .maximal import hl_maximal, verify_pointwise_bound
from .norms import NormSpec, _half_norms, verify_lifting
from .paraproduct import verify_commutator_estimate, verify_moser, verify_moser_transport
from .reports import dump_json

_GRID_N, _GRID_D = 64, 2


def _moser(bank, count, seed0, s, p, q):
    spec = NormSpec(s, p, q, homogeneous=True)
    return [verify_moser(bank, f, g, spec) for f, g in scalar_pairs(bank.grid, count, seed0)]


def _transport(bank, count, seed0, s, p, q, form):
    spec = NormSpec(s, p, q, homogeneous=True)
    return [verify_moser_transport(bank, *transport_pair(bank.grid, seed0 + i), spec, form)
            for i in range(count)]


def _commutator(bank, count, seed0, s, p, q, form):
    spec = NormSpec(s, p, q, homogeneous=True)
    return [verify_commutator_estimate(bank, *transport_pair(bank.grid, seed0 + i), spec, form)
            for i in range(count)]


def _pointwise(bank, count, seed0, j, theta, r):
    """Gap-major: ``count`` ratios for each block k = j, j-1, ..., 0 of scale-j fields."""
    samples = scalar_samples(bank.grid, count, seed0, band=(1, 2**j))
    return [verify_pointwise_bound(bank, f, j=j, k=j - gap, theta=theta, r=r)
            for gap in range(j + 1) for f in samples]


def _fefferman_stein(bank, count, seed0, p, q):
    """Per field: its first 8 dyadic blocks as one family, then the field alone."""
    from .maximal import verify_fefferman_stein  # read at call time, so a patched one is used

    ratios = []
    for f in scalar_samples(bank.grid, count, seed0):
        ratios.append(verify_fefferman_stein([as_physical(b) for b in
                                              decompose(bank, f).blocks[:8]], p, q))
        ratios.append(verify_fefferman_stein([f], p, q))
    return ratios


def _lifting(bank, count, seed0, s, p, q, order):
    return [verify_lifting(bank, f, s=s, p=p, q=q, k=order)
            for f in scalar_samples(bank.grid, count, seed0)]


def _low_freq(bank, count, seed0, s, p, q, levels, l):
    """Level-major: ``count`` ratios ||P_{<=m} f||_{s+l} / (2^{ml} ||f||_s) for each
    level m of ``levels``."""
    samples = scalar_samples(bank.grid, count, seed0)
    return [verify_low_freq_bound(bank, f, s, p, q, m, l) for m in levels for f in samples]


def _boundedness(bank, count, seed0, seed, T, dt, s, p, q, amplitude):
    """One solve of the datum ``seed``; there is no corpus, so count and seed0 are unused."""
    from .experiments import DependenceConfig, boundedness_experiment

    cfg = DependenceConfig(norm_spec=NormSpec(s, p, q), T=T, dt=dt)
    return [boundedness_experiment(solution_map_datum(bank.grid, seed, amplitude), cfg).max]


def _motion(bank, count, seed0, seed, T, dt, s, p, q, amplitude):
    """sup over recorded times of ||u(t) - u0|| / ||u0|| along the solve of the datum
    ``seed``: how far the solution map moves it (a map that returns its data reads 0)."""
    from .euler import solve
    from .experiments import DependenceConfig

    spec = NormSpec(s, p, q)
    cfg = DependenceConfig(norm_spec=spec, T=T, dt=dt)
    spectra = solve(solution_map_datum(bank.grid, seed, amplitude), cfg).spectra
    (norm0,) = _half_norms(bank, spectra[0], (spec,))
    return [float(np.max([_half_norms(bank, h - spectra[0], (spec,))[0] for h in spectra]))
            / norm0]


def _max(ratios, count):
    return {"max": float(np.max(ratios))}


def _max_min(ratios, count):
    return {"max": float(np.max(ratios)), "min": float(np.min(ratios))}


def _max_per_gap(ratios, count):
    return {"max": float(np.max(ratios)), "per_gap": {
        str(g): float(np.max(ratios[g * count:(g + 1) * count]))
        for g in range(len(ratios) // count)}}


def _max_of_family(ratios, count):
    return {"max": float(np.max(ratios)), "family": "first 8 dyadic blocks, plus the field itself"}


@dataclass(frozen=True)
class _Entry:
    """A ratio function, its corpus (``count`` fields from ``seed0``), its
    parameters and the ``lpflow verify`` suite that re-measures it.
    ``summary(ratios, count)`` gives the stored statistics."""

    ratio_fn: Callable[..., list]
    count: int | None
    seed0: int | None
    params: dict
    suite: str | None = None
    summary: Callable[[list, int], dict] = _max_min


_TABLE = {
    "product_endpoint_s3_p1_q1": _Entry(_moser, 50, 100, dict(s=3, p=1, q=1), "moser"),
    "transport_prod2_s0_p1_q2": _Entry(_transport, 20, 300, dict(s=0, p=1, q=2, form="prod2")),
    "transport_prod3_s0_p1_q2": _Entry(_transport, 20, 300, dict(s=0, p=1, q=2, form="prod3")),
    "commutator_esti1_s3_p1_q1": _Entry(_commutator, 30, 400,
                                        dict(s=3, p=1, q=1, form="esti1"), "commutator"),
    "commutator_esti2_s3_p1_q1": _Entry(_commutator, 30, 400,
                                        dict(s=3, p=1, q=1, form="esti2"), "commutator"),
    "commutator_esti1_s2p5_p2_q2": _Entry(_commutator, 30, 450,
                                          dict(s=2.5, p=2, q=2, form="esti1"), "commutator"),
    "pointwise_block_maximal": _Entry(_pointwise, 20, 500, dict(j=4, theta=1.0, r=0.5),
                                      "maximal", _max_per_gap),
    "vector_maximal_p2_q2": _Entry(_fefferman_stein, 20, 600, dict(p=2, q=2),
                                   "fefferman-stein", _max_of_family),
    "lifting_s1_order1": _Entry(_lifting, 30, 700, dict(s=1, p=2, q=2, order=1), "lifting"),
    "low_freq_gain_s3_p1_q1": _Entry(_low_freq, 20, 1000,
                                     dict(s=3, p=1, q=1, levels=(3, 4, 5), l=1)),
    "solution_map_boundedness": _Entry(_boundedness, None, None,
                                       dict(seed=21, T=0.2, dt=1e-3, s=3, p=1, q=1,
                                            amplitude=0.5), summary=_max),
    "solution_map_motion": _Entry(_motion, None, None,
                                  dict(seed=21, T=0.2, dt=1e-3, s=3, p=1, q=1, amplitude=0.5)),
}


def ratios(name: str, count: int | None = None, seed0: int | None = None) -> list:
    """Entry ``name``'s ratios on the calibration grid, over its corpus or over
    ``count`` fields from ``seed0`` where given."""
    e = _TABLE[name]
    return e.ratio_fn(default_bank(_GRID_N, _GRID_D), e.count if count is None else count,
                      e.seed0 if seed0 is None else seed0, **e.params)


def measure(suite: str, bank, count: int | None = None, seed0: int | None = None, **params):
    """What ``lpflow verify suite`` with ``params`` measures on ``bank``:
    (the entry it re-measures or None, ratios).

    The entry is the first row of ``suite`` whose parameters include
    ``params``, and it is measured with its own parameters.  With no such row,
    ``params`` override those of the suite's first row.  The corpus is the
    row's unless ``count``/``seed0`` are given.
    """
    rows = [(name, e) for name, e in _TABLE.items() if e.suite == suite]
    name, e = next(((name, e) for name, e in rows
                    if all(e.params[k] == v for k, v in params.items())), (None, rows[0][1]))
    return name, e.ratio_fn(bank, e.count if count is None else count,
                            e.seed0 if seed0 is None else seed0,
                            **(e.params if name else {**e.params, **params}))


def sublinearity(grid, count: int | None = None, seed0: int | None = None) -> list:
    """Per pair of the ``pointwise_block_maximal`` corpus, f from seed0 + i and g
    from seed0 + i + 10000 (default: the entry's count and seed0): (f, Mf,
    whether M(f + g) exceeds Mf + Mg anywhere), M the default maximal function."""
    e = _TABLE["pointwise_block_maximal"]
    seed0 = e.seed0 if seed0 is None else seed0
    pairs = []
    for i in range(e.count if count is None else count):
        f, g = scalar_sample(grid, seed0 + i), scalar_sample(grid, seed0 + i + 10000)
        mf, mg = hl_maximal(f).values, hl_maximal(g).values
        pairs.append((f, mf, bool((hl_maximal(f + g).values > mf + mg + 1e-12).any())))
    return pairs


def compute_all() -> dict:
    entries = {}
    for name, e in sorted(_TABLE.items()):
        corpus = {} if e.count is None else {"count": e.count, "seed0": e.seed0}
        entries[name] = {**e.summary(ratios(name), e.count), **corpus, **e.params}
    return {"grid": {"n": _GRID_N, "d": _GRID_D}, "entries": entries}


@lru_cache(maxsize=1)
def load() -> dict:
    path = importlib.resources.files("lpflow").joinpath("data/calibration.json")
    import json

    return json.loads(path.read_text())


def stored(name: str) -> dict:
    entries = load()["entries"]
    if name not in entries:
        raise KeyError(f"no calibration entry {name!r}")
    return entries[name]


def regression_bound(name: str) -> float:
    """Twice the stored corpus maximum (the suite's pass threshold)."""
    return 2.0 * float(stored(name)["max"])


def bracket(name: str) -> tuple[float, float]:
    """(min/2, max*2) envelope for two-sided calibrated quantities."""
    e = stored(name)
    return 0.5 * float(e["min"]), 2.0 * float(e["max"])


def check() -> int:
    """Re-measure every entry against its 2x bound; 1 if any exceeds it, else 0."""
    status = 0
    for name in sorted(_TABLE):
        measured = float(np.max(ratios(name)))
        bound = regression_bound(name)
        print(f"  {name}: measured={measured!r} stored={stored(name)['max']!r} "
              f"headroom={1.0 - measured / bound:.1%}")
        if not measured <= bound:
            print(f"  {name}: OVER its bound {bound!r}")
            status = 1
    return status


def main(argv=None) -> int:
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(prog="python3 -m lpflow.calibration")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh measurements with the stored maxima; write nothing")
    if parser.parse_args(argv).check:
        return check()
    payload = compute_all()
    out = pathlib.Path(__file__).parent / "data" / "calibration.json"
    out.parent.mkdir(exist_ok=True)
    dump_json(payload, out)
    print(f"wrote {out}")
    for name, entry in payload["entries"].items():
        print(f"  {name}: max={entry['max']:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
