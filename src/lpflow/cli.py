"""Command-line front end.

Exit codes: 0 success, 1 inequality/assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import calibration
from .bank import decompose, default_bank
from .corpus import divfree_sample, scalar_samples, scale_to_peak, solution_map_datum
from .errors import StabilityError
from .euler import SolverConfig, _wrap, solve, taylor_green
from .fields import (PHYSICAL, Grid, GridField, SpectrumSpec, VectorField, as_physical,
                     random_divergence_free, read_field, write_field)
from .norms import (NormSpec, besov_norm, field_norm, kernel_l1_bound,
                    kernel_l1_terms, sup_norm, verify_embedding, verify_lifting)
from .reports import dump_json, write_csv, write_svg_polyline

_VERIFY_SUITES = ("moser", "commutator", "embedding", "lifting", "maximal",
                  "fefferman-stein", "kernel-l1", "counterexample-scan")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lpflow",
                                description="dyadic-analysis toolbox and torus flow solver")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=64)
    common.add_argument("--dim", type=int, default=2)
    common.add_argument("--s", type=float, default=3.0)
    common.add_argument("--p", type=float, default=1.0)
    common.add_argument("--q", type=float, default=1.0)
    common.add_argument("--T", type=float, default=0.2)
    common.add_argument("--dt", type=float, default=1e-3)
    common.add_argument("--config", type=Path, default=None)
    common.add_argument("--out", type=Path, default=None)
    # not in `common`: argparse shares a parent's actions between subparsers, so
    # verify's own --seed default (the calibrated corpus) would leak into the rest
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0)

    sub = p.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("norm", parents=[seeded], help="norm of a stored field")
    pn.add_argument("file", type=Path)
    pn.add_argument("--flavor", choices=("tl", "besov"), default="tl")
    pn.add_argument("--homogeneous", action="store_true")

    pd = sub.add_parser("decompose", parents=[seeded], help="emit dyadic blocks")
    pd.add_argument("file", type=Path)

    pv = sub.add_parser("verify", parents=[common], help="run a named inequality suite")
    pv.add_argument("suite", choices=_VERIFY_SUITES)
    pv.add_argument("--seed", type=int, default=None,
                    help="first seed of the corpus (default: the calibrated entry's)")
    pv.add_argument("--count", type=int, default=None,
                    help="corpus size (default: the calibrated entry's)")
    pv.add_argument("--form", default=None)
    pv.add_argument("--family", default="lacunary")
    pv.add_argument("--scales", type=int, nargs="+", default=[2, 3, 4])

    sub.add_parser("solve", parents=[seeded], help="integrate the torus dynamics")
    pi = sub.add_parser("iterate", parents=[seeded], help="successive-approximation ladder")
    pi.add_argument("--members", type=int, default=6)
    sub.add_parser("bona-smith", parents=[seeded], help="mollified-data continuity ladder")
    sub.add_parser("lipschitz", parents=[seeded], help="lower-norm dependence moduli")
    sub.add_parser("continuity", parents=[seeded], help="three-piece continuity assembly")
    return p


# ---------------------------------------------------------------------------
# shared plumbing


# every key any command reads, per block, so one config file serves every command
_CONFIG_KEYS = {"grid": {"n", "dim"}, "norm": {"s", "p", "q", "homogeneous"},
                "solver": {"T", "dt", "dealias", "record_stride"},
                "experiment": {"members", "N_list", "eps_list", "seed"},
                "initial": {"kind", "seed", "band", "decay", "amplitude"}}


def _load_config(args) -> dict:
    """The ``--config`` file; a block or key outside ``_CONFIG_KEYS``, or a file or
    block that is not a JSON object, is a usage error."""
    cfg = {} if args.config is None else json.loads(args.config.read_text())
    for where, allowed in [("config", _CONFIG_KEYS), *_CONFIG_KEYS.items()]:
        given = cfg if where == "config" else cfg.get(where, {})
        if not isinstance(given, dict):
            raise ValueError(f"{where} must be a JSON object, got {given!r}")
        unknown = sorted(set(given) - set(allowed))
        if unknown:
            raise ValueError(f"unknown {where} setting(s) {unknown}; "
                             f"expected some of {sorted(allowed)}")
    return cfg


def _grid_from(args, cfg: dict) -> Grid:
    g = cfg.get("grid", {})
    return Grid(int(g.get("n", args.n)), int(g.get("dim", args.dim)))


def _norm_spec_from(args, cfg: dict) -> NormSpec:
    m = cfg.get("norm", {})
    return NormSpec(float(m.get("s", args.s)), float(m.get("p", args.p)),
                    float(m.get("q", args.q)), bool(m.get("homogeneous", False)))


def _solver_from(args, cfg: dict, stride: int = 20) -> SolverConfig:
    """The ``solver`` block's ``T``, ``dt`` (default: the flags), ``dealias`` and
    ``record_stride``."""
    sv = cfg.get("solver", {})
    return SolverConfig(dt=float(sv.get("dt", args.dt)), T=float(sv.get("T", args.T)),
                        dealias=bool(sv.get("dealias", True)),
                        record_stride=int(sv.get("record_stride", stride)))


def _initial_field(grid: Grid, args, cfg: dict) -> VectorField:
    init = cfg.get("initial", {"kind": "random"})
    kind = init.get("kind", "random")
    if kind == "taylor-green":
        return taylor_green(grid)
    if kind == "shell":
        x = grid.meshes()
        comps = [np.sin(x[1]), np.sin(x[0])] + [np.zeros(grid.shape)] * (grid.d - 2)
        return VectorField(tuple(GridField(grid, c, "physical") for c in comps),
                           div_free=True)
    if kind == "random":
        seed = int(init.get("seed", args.seed))
        band = tuple(init.get("band", (1, 4)))
        decay = float(init.get("decay", 2.0))
        amp = float(init.get("amplitude", 0.5))
        return scale_to_peak(random_divergence_free(grid, SpectrumSpec(decay, band, seed)), amp)
    raise ValueError(f"unknown initial-data kind {kind!r}")


def _out_dir(args) -> Path:
    out = args.out or Path("lpflow-out")
    (out / "tables").mkdir(parents=True, exist_ok=True)
    (out / "fields").mkdir(exist_ok=True)
    (out / "plots").mkdir(exist_ok=True)
    return out


def _emit(report: dict, args) -> None:
    text = dump_json(report, None if args.out is None else _out_dir(args) / "report.json")
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify suites


def _gated(report: dict, name, ratios) -> tuple[dict, bool]:
    """Add the ratios, their max and the entry's bound; pass if the max is within it."""
    bound = None if name is None else calibration.regression_bound(name)
    worst = float(np.max(ratios))
    ok = (worst <= bound) if bound else all(math.isfinite(r) for r in ratios)
    return {**report, "ratios": ratios, "max": worst, "bound": bound}, ok


def _verify_moser(args, bank, spec) -> tuple[dict, bool]:
    name, ratios = calibration.measure("moser", bank, args.count, args.seed,
                                       s=spec.s, p=spec.p, q=spec.q)
    return _gated({"suite": "moser"}, name, ratios)


def _verify_commutator(args, bank, spec) -> tuple[dict, bool]:
    form = args.form or "esti1"
    name, ratios = calibration.measure("commutator", bank, args.count, args.seed,
                                       s=spec.s, p=spec.p, q=spec.q, form=form)
    return _gated({"suite": "commutator", "form": form}, name, ratios)


def _verify_embedding(args, bank, spec) -> tuple[dict, bool]:
    grid = bank.grid
    d = grid.d
    source = (spec.s, spec.p, spec.q)
    p1 = 2.0 * spec.p
    target = (spec.s - d / spec.p + d / p1, p1)
    samples = scalar_samples(grid, 10 if args.count is None else args.count,
                             800 if args.seed is None else args.seed)
    ratios = [verify_embedding(bank, f, source, target) for f in samples]
    besov_sup = NormSpec(0.0, math.inf, 1.0, flavor="besov")
    violations = sum(sup_norm(f) > besov_norm(bank, f, besov_sup) * (1 + 1e-12) for f in samples)
    report = {"suite": "embedding", "source": list(source), "target": list(target),
              "ratios": ratios, "max": float(np.max(ratios)), "sup_chain_violations": violations}
    return report, violations == 0 and all(math.isfinite(r) for r in ratios)


def _verify_lifting(args, bank, spec) -> tuple[dict, bool]:
    x = bank.grid.meshes()
    pure = GridField(bank.grid, 2.0 * np.cos(4 * x[0]), "physical")
    r_pure = verify_lifting(bank, pure, s=1.0, p=2.0, q=2.0, k=1.0)
    name, ratios = calibration.measure("lifting", bank, args.count, args.seed)
    lo, hi = calibration.bracket(name)
    ok = abs(r_pure - 1.0) <= 1e-12 and all(lo <= r <= hi for r in ratios)
    return {"suite": "lifting", "pure_mode_ratio": r_pure, "ratios": ratios,
            "bracket": [lo, hi]}, ok


def _verify_maximal(args, bank, spec) -> tuple[dict, bool]:
    name, ratios = calibration.measure("maximal", bank, args.count, args.seed)
    bad = sum(v for _, _, v in calibration.sublinearity(bank.grid, args.count, args.seed))
    report, ok = _gated({"suite": "maximal", "sublinearity_violations": bad}, name, ratios)
    return report, ok and bad == 0


def _verify_fs(args, bank, spec) -> tuple[dict, bool]:
    name, ratios = calibration.measure("fefferman-stein", bank, args.count, args.seed)
    return _gated({"suite": "fefferman-stein"}, name, ratios)


def _verify_kernel(args, bank, spec) -> tuple[dict, bool]:
    terms = kernel_l1_terms()
    ratios = []
    for (j1, t1), (j2, t2) in zip(terms, terms[1:]):
        if j2 <= -2:
            ratios.append(t2 / t1)
    total7 = kernel_l1_bound(refinement=7)
    total8 = kernel_l1_bound(refinement=8)
    change = abs(total8 - total7) / total7
    ok = all(r <= 0.6 for r in ratios) and change <= 0.01
    return {"suite": "kernel-l1", "terms": terms, "decay_ratios": ratios,
            "total": total7, "refinement_change": change}, ok


def _verify_scan(args, bank, spec) -> tuple[dict, bool]:
    from .paraproduct import counterexample_scan

    rep = counterexample_scan(bank, args.family, spec.s, spec.p, spec.q, args.scales)
    return rep.to_json_dict(), True


def _run_verify(args) -> int:
    bank = default_bank(args.n, args.dim)
    spec = NormSpec(args.s, args.p, args.q, homogeneous=True)
    handlers = {
        "moser": _verify_moser, "commutator": _verify_commutator,
        "embedding": _verify_embedding, "lifting": _verify_lifting,
        "maximal": _verify_maximal, "fefferman-stein": _verify_fs,
        "kernel-l1": _verify_kernel, "counterexample-scan": _verify_scan,
    }
    report, ok = handlers[args.suite](args, bank, spec)
    report["pass"] = bool(ok)
    _emit(report, args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# dynamics commands


def _run_solve(args) -> int:
    cfg = _load_config(args)
    grid = _grid_from(args, cfg)
    u0 = _initial_field(grid, args, cfg)
    spec = _norm_spec_from(args, cfg)
    traj = solve(u0, _solver_from(args, cfg), record=(spec,))
    out = _out_dir(args)
    files = []
    for t, st in zip(traj.times, traj.states):
        name = f"fields/state_{t:.6f}.lpf"
        write_field(st, out / name)
        files.append(name)
    diag_rows = [dict(time=t, **{k: v[i] for k, v in traj.diagnostics.items()})
                 for i, t in enumerate(traj.times)]
    manifest = {"times": list(traj.times), "files": files, "diagnostics": diag_rows}
    dump_json(manifest, out / "report.json")
    write_csv(out / "tables" / "diagnostics.csv",
              ["time"] + sorted(traj.diagnostics),
              [[t] + [traj.diagnostics[k][i] for k in sorted(traj.diagnostics)]
               for i, t in enumerate(traj.times)])
    write_svg_polyline(out / "plots" / "energy.svg",
                       {"energy": (list(traj.times), list(traj.diagnostics["energy"]))},
                       title="kinetic energy")
    sys.stdout.write(dump_json({"written": str(out), "snapshots": len(files)}))
    return 0


def _run_iterate(args) -> int:
    from .iteration import cauchy_report, iterate

    cfg = _load_config(args)
    grid = _grid_from(args, cfg)
    bank = default_bank(grid.n, grid.d)
    u0 = _initial_field(grid, args, cfg)
    spec = _norm_spec_from(args, cfg)
    scfg = _solver_from(args, cfg, stride=1)
    M = int(cfg.get("experiment", {}).get("members", args.members))
    ladder = iterate(bank, u0, M, scfg, spec)
    out = _out_dir(args)
    member_files = []
    for m, traj in enumerate(ladder.members):
        name = f"fields/member_{m}_final.lpf"
        write_field(_wrap(traj.grid, traj.spectra[-1], PHYSICAL), out / name)
        member_files.append(name)
    manifest = {"M": M, "norm_spec": spec.label, "delta": list(ladder.decay_table),
                "ratios": list(ladder.decay_ratios()), "member_files": member_files}
    dump_json(manifest, out / "report.json")
    if M >= 4:
        rep = cauchy_report(ladder)
        dump_json(rep.to_json_dict(), out / "tables" / "cauchy.json")
    write_svg_polyline(out / "plots" / "decay.svg",
                       {"delta": (list(range(1, M + 1)), list(ladder.decay_table))},
                       title="member-difference decay", log_y=True)
    sys.stdout.write(dump_json(manifest))
    return 0


def _run_dependence(args, kind: str) -> int:
    from .experiments import (DependenceConfig, bona_smith_experiment,
                              continuity_assembly, lipschitz_lowernorm_experiment)

    cfg = _load_config(args)
    grid = _grid_from(args, cfg)
    ex = cfg.get("experiment", {})
    seed = int(ex.get("seed", args.seed))
    dcfg = DependenceConfig(
        **asdict(_solver_from(args, cfg)),
        norm_spec=_norm_spec_from(args, cfg),
        N_list=tuple(ex.get("N_list", (3, 4, 5))),
        eps_list=tuple(ex.get("eps_list", (1e-1, 1e-2, 1e-3, 1e-4))),
    )
    if "initial" in cfg:
        u0 = _initial_field(grid, args, cfg)
    else:
        u0 = solution_map_datum(grid, seed + 21)
    ok = True
    if kind == "bona-smith":
        rep = bona_smith_experiment(u0, dcfg)
        plot = {"rho": ([float(N) for N in rep.seeds], list(rep.ratios))}
    elif kind == "lipschitz":
        w = divfree_sample(grid, seed + 22, decay=2.0, band=(1, 8))
        rep = lipschitz_lowernorm_experiment(u0, w, dcfg)
        plot = {"L": ([math.log10(e) for e in dcfg.eps_list], list(rep.ratios))}
    else:
        w = divfree_sample(grid, seed + 22, decay=2.0, band=(1, 8))
        psi = u0 + w * (1e-3 / field_norm(default_bank(grid.n, grid.d), w, dcfg.norm_spec))
        rep = continuity_assembly(u0, psi, dcfg)
        pieces = dict(rep.tables["pieces"])
        ok = pieces["direct"] <= 1.05 * pieces["chain"]
        plot = {"pieces": ([1, 2, 3], [pieces["tail_u"], pieces["tail_psi"],
                                       pieces["interpolated_diff"]])}
    out = _out_dir(args)
    payload = rep.to_json_dict()
    payload["pass"] = bool(ok)
    dump_json(payload, out / "report.json")
    write_csv(out / "tables" / "ratios.csv", ["row", "ratio"],
              list(zip(rep.seeds, rep.ratios)))
    write_svg_polyline(out / "plots" / f"{kind}.svg", plot, title=rep.estimate_id)
    sys.stdout.write(dump_json(payload))
    return 0 if ok else 1


def _run_norm(args) -> int:
    f = read_field(args.file)
    bank = default_bank(f.grid.n, f.grid.d)
    cfg = _load_config(args)
    spec = _norm_spec_from(args, cfg)
    if args.flavor == "besov":
        spec = NormSpec(spec.s, spec.p, spec.q, spec.homogeneous, flavor="besov")
    value = field_norm(bank, f, spec)
    sys.stdout.write(dump_json({"file": str(args.file), "spec": spec.label,
                                "value": value}))
    return 0


def _run_decompose(args) -> int:
    f = read_field(args.file)
    if isinstance(f, VectorField):
        raise ValueError("decompose expects a scalar field file")
    bank = default_bank(f.grid.n, f.grid.d)
    dec = decompose(bank, f)
    out = _out_dir(args)
    files = []
    write_field(as_physical(dec.low), out / "fields" / "low.lpf")
    files.append("fields/low.lpf")
    for j, b in enumerate(dec.blocks):
        name = f"fields/block_{j:02d}.lpf"
        write_field(as_physical(b), out / name)
        files.append(name)
    manifest = {"file": str(args.file), "j_max": bank.j_max, "files": files}
    dump_json(manifest, out / "report.json")
    sys.stdout.write(dump_json(manifest))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "norm":
            return _run_norm(args)
        if args.command == "decompose":
            return _run_decompose(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "iterate":
            return _run_iterate(args)
        if args.command in ("bona-smith", "lipschitz", "continuity"):
            return _run_dependence(args, args.command)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"lpflow: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"lpflow: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
