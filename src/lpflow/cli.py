"""Command-line front end.

Exit codes: 0 success, 1 inequality/assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from functools import partial
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

# ---------------------------------------------------------------------------
# config files

# the JSON types of config values, as an error names them
_INT, _REAL, _BOOL, _STR = "an integer", "a number", "true or false", "a string"
_INDEX = "a number, or a string that float reads"
_INTS, _REALS, _PAIR = "a list of integers", "a list of numbers", "a list of two integers"

# every key any command reads, per block, so one config file serves every command:
# (JSON type, default).  A key the file leaves out takes the value of the command's
# flag of the same name (--n for grid.n, --seed for both seeds) where it has one,
# else the default here.
_CONFIG = {
    "grid": {"n": (_INT, None), "dim": (_INT, None)},
    "norm": {"s": (_REAL, None), "p": (_INDEX, None), "q": (_INDEX, None),
             "homogeneous": (_BOOL, False)},
    "solver": {"T": (_REAL, None), "dt": (_REAL, None), "record_stride": (_INT, 20)},
    "experiment": {"members": (_INT, None), "N_list": (_INTS, (3, 4, 5)),
                   "eps_list": (_REALS, (1e-1, 1e-2, 1e-3, 1e-4)), "seed": (_INT, None)},
    "initial": {"kind": (_STR, "random"), "seed": (_INT, None), "band": (_PAIR, (1, 4)),
                "decay": (_REAL, 2.0), "amplitude": (_REAL, 0.5)},
}


def _typed(value, kind: str):
    """``value`` as a ``kind``, or None if it is not one.  A bool is no number, an
    integer is also a real, lists come back as tuples, and an index may be a
    string such as "inf"."""
    if kind in (_INTS, _REALS, _PAIR):
        item = _REAL if kind == _REALS else _INT
        items = tuple(_typed(v, item) for v in value) if type(value) is list else (None,)
        return None if None in items or (kind == _PAIR and len(items) != 2) else items
    if kind == _INDEX and type(value) is str:
        try:
            return float(value)
        except ValueError:
            return None
    if kind in (_REAL, _INDEX):
        return float(value) if type(value) in (int, float) else None
    return value if type(value) is {_INT: int, _BOOL: bool, _STR: str}[kind] else None


def _load_config(args) -> tuple[dict, set]:
    """Every block of ``_CONFIG``, typed and filled in from the ``--config`` file,
    the flags and the defaults, and the names of the blocks the file gives.

    A block or key outside ``_CONFIG``, a file or block that is not a JSON object,
    and a value of the wrong type are usage errors that name it.
    """
    given = {} if args.config is None else json.loads(args.config.read_text())
    for block, keys in [("config", _CONFIG), *_CONFIG.items()]:
        values = given if block == "config" else given.get(block, {})
        if not isinstance(values, dict):
            raise ValueError(f"{block} must be a JSON object, got {values!r}")
        unknown = sorted(set(values) - set(keys))
        if unknown:
            raise ValueError(f"unknown {block} setting(s) {unknown}; expected some of {sorted(keys)}")
    cfg = {block: {key: getattr(args, key, default) for key, (_, default) in keys.items()}
           for block, keys in _CONFIG.items()}
    for block, values in given.items():
        for key, value in values.items():
            kind = _CONFIG[block][key][0]
            cfg[block][key] = _typed(value, kind)
            if cfg[block][key] is None:
                raise ValueError(f"config {block}.{key} must be {kind}, got {json.dumps(value)}")
    return cfg, set(given)


def _initial_field(grid: Grid, init: dict) -> VectorField:
    kind = init["kind"]
    if kind == "taylor-green":
        return taylor_green(grid)
    if kind == "shell":
        x = grid.meshes()
        comps = [np.sin(x[1]), np.sin(x[0])] + [np.zeros(grid.shape)] * (grid.d - 2)
        return VectorField(tuple(GridField(grid, c, "physical") for c in comps),
                           div_free=True)
    if kind == "random":
        spec = SpectrumSpec(init["decay"], init["band"], init["seed"])
        return scale_to_peak(random_divergence_free(grid, spec), init["amplitude"])
    raise ValueError(f"unknown initial-data kind {kind!r}")


def _out_dir(args) -> Path:
    out = args.out or Path("lpflow-out")
    for part in ("tables", "fields", "plots"):
        (out / part).mkdir(parents=True, exist_ok=True)
    return out


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
    name, ratios = calibration.measure("commutator", bank, args.count, args.seed,
                                       s=spec.s, p=spec.p, q=spec.q, form=args.form)
    return _gated({"suite": "commutator", "form": args.form}, name, ratios)


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
    ratios = [t2 / t1 for (_, t1), (j2, t2) in zip(terms, terms[1:]) if j2 <= -2]
    total7 = float(sum(t for _, t in terms))   # kernel_l1_bound(refinement=7), summed once
    total8 = kernel_l1_bound(refinement=8)
    change = abs(total8 - total7) / total7
    ok = all(r <= 0.6 for r in ratios) and change <= 0.01
    return {"suite": "kernel-l1", "terms": terms, "decay_ratios": ratios,
            "total": total7, "refinement_change": change}, ok


def _verify_scan(args, bank, spec) -> tuple[dict, bool]:
    from .paraproduct import counterexample_scan

    rep = counterexample_scan(bank, args.family, spec.s, spec.p, spec.q, args.scales)
    return rep.to_json_dict(), True


def _run_verify(args, suite) -> int:
    """Run ``suite`` with the bank and homogeneous norm of its flags, where it takes them."""
    bank = default_bank(args.n, args.dim) if "n" in args else None
    spec = NormSpec(args.s, args.p, args.q, homogeneous=True) if "s" in args else None
    report, ok = suite(args, bank, spec)
    report["pass"] = bool(ok)
    path = None if args.out is None else _out_dir(args) / "report.json"
    sys.stdout.write(dump_json(report, path))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# dynamics commands


def _run_solve(args) -> int:
    cfg, _ = _load_config(args)
    u0 = _initial_field(Grid(cfg["grid"]["n"], cfg["grid"]["dim"]), cfg["initial"])
    traj = solve(u0, SolverConfig(**cfg["solver"]), record=(NormSpec(**cfg["norm"]),))
    files = [f"fields/state_{t:.6f}.lpf" for t in traj.times]
    uses = Counter(files)
    clash = [t for t, name in zip(traj.times, files) if uses[name] > 1]
    if clash:
        raise ValueError(f"snapshots at t = {', '.join(map(repr, clash))} would overwrite "
                         "each other: file names keep 6 decimals of the time")
    out = _out_dir(args)
    for name, st in zip(files, traj.states):
        write_field(st, out / name)
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

    cfg, _ = _load_config(args)
    grid = Grid(cfg["grid"]["n"], cfg["grid"]["dim"])
    bank = default_bank(grid.n, grid.d)
    u0 = _initial_field(grid, cfg["initial"])
    spec = NormSpec(**cfg["norm"])
    M = cfg["experiment"]["members"]
    ladder = iterate(bank, u0, M, SolverConfig(**cfg["solver"]), spec)
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


def _run_dependence(args) -> int:
    from .experiments import (DependenceConfig, bona_smith_experiment,
                              continuity_assembly, lipschitz_lowernorm_experiment)

    kind = args.command
    cfg, given = _load_config(args)
    grid = Grid(cfg["grid"]["n"], cfg["grid"]["dim"])
    ex = cfg["experiment"]
    dcfg = DependenceConfig(**cfg["solver"], norm_spec=NormSpec(**cfg["norm"]),
                            N_list=ex["N_list"], eps_list=ex["eps_list"])
    if "initial" in given:
        u0 = _initial_field(grid, cfg["initial"])
    else:
        u0 = solution_map_datum(grid, ex["seed"] + 21)
    if kind != "bona-smith":                    # the direction of the perturbed datum
        w = divfree_sample(grid, ex["seed"] + 22, decay=2.0, band=(1, 8))
    ok = True
    if kind == "bona-smith":
        rep = bona_smith_experiment(u0, dcfg)
        plot = {"rho": ([float(N) for N in rep.seeds], list(rep.ratios))}
    elif kind == "lipschitz":
        rep = lipschitz_lowernorm_experiment(u0, w, dcfg)
        plot = {"L": ([math.log10(e) for e in dcfg.eps_list], list(rep.ratios))}
    else:
        psi = u0 + w * (1e-3 / field_norm(default_bank(grid.n, grid.d), w, dcfg.norm_spec))
        rep = continuity_assembly(u0, psi, dcfg)
        pieces = dict(rep.tables["pieces"])
        ok = pieces["direct"] <= rep.meta["slack"] * pieces["chain"]
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
    cfg, _ = _load_config(args)
    spec = NormSpec(**cfg["norm"], flavor=args.flavor)
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
    files = ["fields/low.lpf"] + [f"fields/block_{j:02d}.lpf" for j in range(len(dec.blocks))]
    for name, b in zip(files, (dec.low, *dec.blocks)):
        write_field(as_physical(b), out / name)
    manifest = {"file": str(args.file), "j_max": bank.j_max, "files": files}
    dump_json(manifest, out / "report.json")
    sys.stdout.write(dump_json(manifest))
    return 0


# ---------------------------------------------------------------------------
# the command line: each command and verify suite takes exactly the flags it reads

_FLAGS = {
    "file": [("file", dict(type=Path))],
    "grid": [("--n", dict(type=int, default=64)), ("--dim", dict(type=int, default=2))],
    "norm": [("--s", dict(type=float, default=3.0)), ("--p", dict(type=float, default=1.0)),
             ("--q", dict(type=float, default=1.0))],
    "flavor": [("--flavor", dict(choices=("tl", "besov"), default="tl"))],
    "time": [("--T", dict(type=float, default=0.2)), ("--dt", dict(type=float, default=1e-3))],
    "seed": [("--seed", dict(type=int, default=0))],
    "members": [("--members", dict(type=int, default=6))],
    "config": [("--config", dict(type=Path))],
    "out": [("--out", dict(type=Path))],
    "corpus": [("--seed", dict(type=int, help="first seed of the corpus "
                                              "(default: the calibrated entry's)")),
               ("--count", dict(type=int, help="corpus size (default: the calibrated entry's)"))],
    "form": [("--form", dict(default="esti1"))],
    "scan": [("--family", dict(default="lacunary")),
             ("--scales", dict(type=int, nargs="+", default=[2, 3, 4]))],
}

_DYNAMICS = ("grid", "norm", "time", "seed", "config", "out")

# command -> (runner, help, flag groups); each verify suite sets its own runner
_COMMANDS = {
    "norm": (_run_norm, "norm of a stored field", ("file", "norm", "flavor", "config")),
    "decompose": (_run_decompose, "emit dyadic blocks", ("file", "out")),
    "verify": (None, "run a named inequality suite", ()),
    "solve": (_run_solve, "integrate the torus dynamics", _DYNAMICS),
    "iterate": (_run_iterate, "successive-approximation ladder", _DYNAMICS + ("members",)),
    "bona-smith": (_run_dependence, "mollified-data continuity ladder", _DYNAMICS),
    "lipschitz": (_run_dependence, "lower-norm dependence moduli", _DYNAMICS),
    "continuity": (_run_dependence, "three-piece continuity assembly", _DYNAMICS),
}

_SUITES = {
    "moser": (_verify_moser, ("grid", "norm", "corpus", "out")),
    "commutator": (_verify_commutator, ("grid", "norm", "corpus", "form", "out")),
    "embedding": (_verify_embedding, ("grid", "norm", "corpus", "out")),
    "lifting": (_verify_lifting, ("grid", "corpus", "out")),
    "maximal": (_verify_maximal, ("grid", "corpus", "out")),
    "fefferman-stein": (_verify_fs, ("grid", "corpus", "out")),
    "kernel-l1": (_verify_kernel, ("out",)),
    "counterexample-scan": (_verify_scan, ("grid", "norm", "scan", "out")),
}


def _add_flags(parser: argparse.ArgumentParser, groups) -> argparse.ArgumentParser:
    for group in groups:
        for flag, options in _FLAGS[group]:
            parser.add_argument(flag, **options)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: --s must not stand for --seed where a suite has no --s
    p = argparse.ArgumentParser(prog="lpflow", allow_abbrev=False,
                                description="dyadic-analysis toolbox and torus flow solver")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (run, help_, groups) in _COMMANDS.items():
        parser = sub.add_parser(command, help=help_, allow_abbrev=False)
        _add_flags(parser, groups).set_defaults(run=run)
    suites = sub.choices["verify"].add_subparsers(dest="suite", required=True)
    for suite, (measure, groups) in _SUITES.items():
        parser = suites.add_parser(suite, allow_abbrev=False)
        _add_flags(parser, groups).set_defaults(run=partial(_run_verify, suite=measure))
    # the ladder records every step unless solver.record_stride says otherwise
    sub.choices["iterate"].set_defaults(record_stride=1)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, FileNotFoundError, KeyError, StabilityError) as exc:
        print(f"lpflow: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, StabilityError) else 2


if __name__ == "__main__":
    sys.exit(main())
