"""Stored corpus maxima for the constant-bearing inequalities.

The inequalities under test guarantee *existence* of a constant, not its
value, so the suite pins each one by measurement: a fixed seeded corpus is
swept once, the worst ratio stored here (in packaged JSON), and later runs
assert ratios stay within twice the stored value.  Regenerate with

    python3 -m lpflow.calibration

which rewrites ``src/lpflow/data/calibration.json`` deterministically, or
check fresh measurements against the stored table, writing nothing, with

    python3 -m lpflow.calibration --check
"""

from __future__ import annotations

import importlib.resources
from functools import lru_cache

import numpy as np

from .bank import default_bank
from .corpus import divfree_sample, scalar_sample, scalar_samples
from .norms import NormSpec, verify_lifting
from .reports import dump_json

_GRID_N, _GRID_D = 64, 2


def _sweep_moser():
    from .paraproduct import moser_sweep

    bank = default_bank(_GRID_N, _GRID_D)
    ratios = moser_sweep(bank, NormSpec(3, 1, 1, homogeneous=True), count=50, seed0=100)
    return {"max": float(np.max(ratios)), "min": float(np.min(ratios)),
            "count": 50, "seed0": 100, "s": 3, "p": 1, "q": 1}


def _sweep_transport(form: str):
    from .paraproduct import transport_sweep

    bank = default_bank(_GRID_N, _GRID_D)
    ratios = transport_sweep(bank, NormSpec(0, 1, 2, homogeneous=True), form,
                             count=20, seed0=300)
    return {"max": float(np.max(ratios)), "min": float(np.min(ratios)),
            "count": 20, "seed0": 300, "s": 0, "p": 1, "q": 2, "form": form}


def _sweep_commutator(form: str, s: float, p: float, q: float, seed0: int):
    from .paraproduct import commutator_sweep

    bank = default_bank(_GRID_N, _GRID_D)
    ratios = commutator_sweep(bank, NormSpec(s, p, q, homogeneous=True), form,
                              count=30, seed0=seed0)
    return {"max": float(np.max(ratios)), "min": float(np.min(ratios)),
            "count": 30, "seed0": seed0, "s": s, "p": p, "q": q, "form": form}


def _sweep_keyesti():
    from .maximal import verify_pointwise_bound

    bank = default_bank(_GRID_N, _GRID_D)
    grid = bank.grid
    per_gap = {}
    for gap in range(5):  # j - k
        j = 4
        k = j - gap
        vals = [verify_pointwise_bound(bank, scalar_sample(grid, 500 + i, band=(1, 16)),
                                       j=j, k=k, theta=1.0, r=0.5)
                for i in range(20)]
        per_gap[str(gap)] = float(np.max(vals))
    return {"max": float(np.max(list(per_gap.values()))), "per_gap": per_gap,
            "count": 20, "seed0": 500, "j": 4, "theta": 1.0, "r": 0.5}


def _sweep_fefferman_stein():
    from .bank import decompose
    from .fields import as_physical
    from .maximal import verify_fefferman_stein

    bank = default_bank(_GRID_N, _GRID_D)
    grid = bank.grid
    ratios = []
    for i in range(20):
        f = scalar_sample(grid, 600 + i)
        dec = decompose(bank, f)
        family = [as_physical(b) for b in dec.blocks[:8]]
        ratios.append(verify_fefferman_stein(family, p=2.0, q=2.0))
        ratios.append(verify_fefferman_stein([f], p=2.0, q=2.0))
    return {"max": float(np.max(ratios)), "count": 20, "seed0": 600, "p": 2, "q": 2,
            "family": "first 8 dyadic blocks, plus the field itself"}


def _sweep_lifting():
    bank = default_bank(_GRID_N, _GRID_D)
    grid = bank.grid
    ratios = [verify_lifting(bank, f, s=1.0, p=2.0, q=2.0, k=1.0)
              for f in scalar_samples(grid, 30, 700)]
    return {"max": float(np.max(ratios)), "min": float(np.min(ratios)),
            "count": 30, "seed0": 700, "s": 1, "p": 2, "q": 2, "order": 1}


def _sweep_boundedness():
    from .experiments import DependenceConfig, boundedness_experiment
    from .fields import Grid

    grid = Grid(_GRID_N, _GRID_D)
    u0 = divfree_sample(grid, 21, decay=6.0, band=(1, 21))
    u0 = u0 * (0.5 / _max_abs(u0))
    cfg = DependenceConfig(norm_spec=NormSpec(3, 1, 1), T=0.2, dt=1e-3, seed=21)
    rep = boundedness_experiment(u0, cfg)
    return {"max": rep.max, "seed": 21, "T": 0.2, "dt": 1e-3,
            "s": 3, "p": 1, "q": 1, "amplitude": 0.5}


def _max_abs(u) -> float:
    return max(float(np.abs(c.values).max()) for c in u.components)


_SWEEPS = {
    "product_endpoint_s3_p1_q1": _sweep_moser,
    "transport_prod2_s0_p1_q2": lambda: _sweep_transport("prod2"),
    "transport_prod3_s0_p1_q2": lambda: _sweep_transport("prod3"),
    "commutator_esti1_s3_p1_q1": lambda: _sweep_commutator("esti1", 3, 1, 1, 400),
    "commutator_esti2_s3_p1_q1": lambda: _sweep_commutator("esti2", 3, 1, 1, 400),
    "commutator_esti1_s2p5_p2_q2": lambda: _sweep_commutator("esti1", 2.5, 2, 2, 450),
    "pointwise_block_maximal": _sweep_keyesti,
    "vector_maximal_p2_q2": _sweep_fefferman_stein,
    "lifting_s1_order1": _sweep_lifting,
    "solution_map_boundedness": _sweep_boundedness,
}


def compute_all() -> dict:
    entries = {}
    for name, fn in sorted(_SWEEPS.items()):
        entries[name] = fn()
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
    for name, fn in sorted(_SWEEPS.items()):
        measured = float(fn()["max"])
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
