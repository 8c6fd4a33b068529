"""Command-line interface: exit codes, output layout, reproducibility."""

import json

import numpy as np
import pytest

from lpflow import Grid, NormSpec, SolverConfig, SpectrumSpec, calibration, write_field
from lpflow.bank import default_bank
from lpflow.cli import main
from lpflow.corpus import divfree_sample, scalar_sample
from lpflow.fields import random_divergence_free
from lpflow.iteration import cauchy_report, iterate

# `lpflow verify` arguments that re-measure each entry with a CLI suite
CALIBRATED_SUITES = {
    "product_endpoint_s3_p1_q1": ["moser"],
    "commutator_esti1_s3_p1_q1": ["commutator"],
    "commutator_esti2_s3_p1_q1": ["commutator", "--form", "esti2"],
    "commutator_esti1_s2p5_p2_q2": ["commutator", "--s", "2.5", "--p", "2", "--q", "2"],
    "pointwise_block_maximal": ["maximal"],
    "vector_maximal_p2_q2": ["fefferman-stein"],
    "lifting_s1_order1": ["lifting"],
}


@pytest.fixture()
def scalar_file(tmp_path):
    path = tmp_path / "f.lpf"
    write_field(scalar_sample(Grid(64, 2), 5), path)
    return path


@pytest.fixture()
def vector_file(tmp_path):
    path = tmp_path / "u.lpf"
    write_field(divfree_sample(Grid(64, 2), 7), path)
    return path


def test_norm_command(scalar_file, capsys):
    assert main(["norm", str(scalar_file), "--s", "3", "--p", "1", "--q", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spec"] == "F3_1_1"
    assert out["value"] == pytest.approx(15728.850184666224, rel=1e-12)


def test_norm_besov_flavor(scalar_file, capsys):
    assert main(["norm", str(scalar_file), "--flavor", "besov",
                 "--s", "2", "--p", "2", "--q", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spec"].startswith("B")


def test_norm_missing_file(tmp_path, capsys):
    assert main(["norm", str(tmp_path / "nope.lpf")]) == 2


@pytest.mark.parametrize("flag, value", [("--p", "nan"), ("--q", "nan"), ("--s", "nan"),
                                         ("--s", "inf"), ("--s", "-inf")])
def test_norm_refuses_nan_parameters(scalar_file, flag, value, capsys):
    assert main(["norm", str(scalar_file), f"{flag}={value}"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spelling", ["inf", "Inf", "INF", "infinity", "Infinity"])
def test_norm_reads_every_spelling_of_infinity(scalar_file, spelling, capsys):
    assert main(["norm", str(scalar_file), "--p", "2", "--q", spelling]) == 0
    assert json.loads(capsys.readouterr().out)["spec"] == "F3_2_inf"


def test_decompose_layout(scalar_file, tmp_path, capsys):
    out = tmp_path / "dec"
    assert main(["decompose", str(scalar_file), "--out", str(out)]) == 0
    manifest = json.loads((out / "report.json").read_text())
    assert manifest["j_max"] == 7
    assert len(manifest["files"]) == 9          # low + 8 annular blocks
    for name in manifest["files"]:
        assert (out / name).exists()


def test_decompose_rejects_vector(vector_file, tmp_path):
    assert main(["decompose", str(vector_file), "--out", str(tmp_path / "x")]) == 2


def test_verify_moser(capsys):
    assert main(["verify", "moser", "--count", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert out["max"] <= out["bound"]


def test_verify_lifting(capsys):
    assert main(["verify", "lifting", "--count", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["pure_mode_ratio"] - 1.0) <= 1e-12


def test_every_entry_with_a_suite_is_listed():
    assert set(CALIBRATED_SUITES) == {name for name, e in calibration._TABLE.items() if e.suite}


@pytest.mark.parametrize("name", sorted(CALIBRATED_SUITES))
def test_verify_defaults_remeasure_the_calibrated_entry(name, capsys, calibrated_ratios):
    assert main(["verify", *CALIBRATED_SUITES[name]]) == 0
    out = json.loads(capsys.readouterr().out)
    want = calibrated_ratios(name)
    assert out["ratios"] == want
    if "max" in out:                            # lifting reports a bracket instead
        assert out["max"] == max(want)
        assert out["bound"] == calibration.regression_bound(name)


def test_verify_seed_zero_is_a_seed(capsys):
    assert main(["verify", "moser", "--count", "2", "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    entry = "product_endpoint_s3_p1_q1"
    assert out["ratios"] == calibration.ratios(entry, count=2, seed0=0)
    assert out["ratios"] != calibration.ratios(entry, count=2)


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "sharpness"])
    assert exc.value.code == 2


def test_solve_writes_manifest_and_snapshots(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "grid": {"n": 64, "dim": 2},
        "norm": {"s": 3, "p": 1, "q": 1},
        "solver": {"T": 0.02, "dt": 0.001},
        "initial": {"kind": "taylor-green"},
    }))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfgf), "--out", str(out)]) == 0
    manifest = json.loads((out / "report.json").read_text())
    assert manifest["times"][0] == 0.0 and manifest["times"][-1] == 0.02
    for name in manifest["files"]:
        assert (out / name).exists()
    assert (out / "tables" / "diagnostics.csv").exists()
    assert (out / "plots" / "energy.svg").exists()
    row = manifest["diagnostics"][0]
    assert row["energy"] == pytest.approx(4.442882938158366, rel=1e-12)


def test_solve_determinism(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "solver": {"T": 0.01, "dt": 0.001},
        "initial": {"kind": "random", "seed": 3, "band": [1, 6]},
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfgf), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_solve_refuses_snapshots_that_share_a_file_name(tmp_path, capsys):
    """A snapshot's file name keeps 6 decimals of its time, so times closer than
    that would overwrite each other: the run exits 2, names them, writes nothing."""
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"solver": {"record_stride": 1}}))
    out = tmp_path / "o"
    assert main(["solve", "--n", "16", "--dt", "1e-7", "--T", "1e-6", "--config", str(cfgf),
                 "--out", str(out)]) == 2
    assert "t = 0.0, 1e-07, 2e-07," in capsys.readouterr().err
    assert not out.exists()


def test_iterate_manifest(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "norm": {"s": 3, "p": 2, "q": 2},
        "solver": {"T": 0.02, "dt": 0.002},
        "initial": {"kind": "random", "seed": 11, "band": [1, 4], "amplitude": 0.5},
        "experiment": {"members": 4},
    }))
    out = tmp_path / "ladder"
    assert main(["iterate", "--config", str(cfgf), "--out", str(out)]) == 0
    man = json.loads((out / "report.json").read_text())
    assert man["M"] == 4
    assert len(man["delta"]) == 4
    assert len(man["member_files"]) == 5        # includes the zero member
    assert (out / "tables" / "cauchy.json").exists()
    assert (out / "plots" / "decay.svg").exists()


def test_iterate_writes_each_final_state_from_its_spectrum(tmp_path, inverse_transforms, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "norm": {"s": 3, "p": 2, "q": 2},
        "solver": {"T": 0.02, "dt": 0.002},
        "initial": {"kind": "random", "seed": 11, "band": [1, 4], "amplitude": 0.5},
        "experiment": {"members": 4},
    }))
    calls = inverse_transforms
    out = tmp_path / "ladder"
    assert main(["iterate", "--config", str(cfgf), "--out", str(out)]) == 0
    cli_calls = len(calls)
    calls.clear()
    grid = Grid(64, 2)
    u0 = random_divergence_free(grid, SpectrumSpec(2.0, (1, 4), 11))
    u0 = u0 * (0.5 / max(float(np.abs(c.values).max()) for c in u0.components))
    ladder = iterate(default_bank(64, 2), u0, 4, SolverConfig(dt=0.002, T=0.02, record_stride=1),
                     NormSpec(3, 2, 2))
    cauchy_report(ladder)
    assert cli_calls - len(calls) == 5          # one inverse transform per member file
    for m, traj in enumerate(ladder.members):
        write_field(traj.states[-1], tmp_path / "want.lpf")
        got = (out / f"fields/member_{m}_final.lpf").read_bytes()
        assert got == (tmp_path / "want.lpf").read_bytes()


def test_solve_rejects_a_cfl_guard_setting(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "grid": {"n": 16, "dim": 2},
        "solver": {"T": 0.02, "dt": 0.01, "cfl_guard": 0.001},
        "initial": {"kind": "taylor-green"},
    }))
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert "'cfl_guard'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_solve_rejects_data_past_the_retained_modes(tmp_path, capsys):
    # the solver's state lives on |k_a| <= n//3 = 10, and the band reaches 12
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "solver": {"T": 0.002, "dt": 0.001},
        "initial": {"kind": "random", "seed": 3, "band": [1, 12]},
    }))
    args = ["solve", "--n", "32", "--config", str(cfgf), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "2/3-rule modes |k_a| <= 10" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--dt", "--T"])
def test_solve_refuses_an_infinite_step_or_horizon(tmp_path, flag, capsys):
    args = ["solve", "--n", "16", "--T", "0.02", "--dt", "0.01", flag, "inf",
            "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_solver_setting(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"solver": {"T": 0.01, "dt": 0.001, "cfl": 0.1}}))
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert "'cfl'" in capsys.readouterr().err


# one small solve; each case adds one misspelt block or key, as in a hand-written config,
# or solver.dealias, which older configs set: the solver is always the 2/3-rule truncation
_TINY = {"grid": {"n": 16, "dim": 2}, "solver": {"T": 0.002, "dt": 0.001},
         "initial": {"kind": "taylor-green"}}


@pytest.mark.parametrize("block, key", [("grid", "N"), ("norm", "P"), ("experiment", "eps_List"),
                                        ("initial", "amplitud"), (None, "solvr"),
                                        ("solver", "dealias")])
def test_unknown_config_key(tmp_path, block, key, capsys):
    cfg = json.loads(json.dumps(_TINY))
    if block is None:
        cfg[key] = {"T": 0.002}
    else:
        cfg.setdefault(block, {})[key] = 1
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ['{"grid": 5}', '{"solver": ["T"]}', '[1]'])
def test_config_blocks_must_be_objects(tmp_path, text, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(text)
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_one_config_serves_every_command(tmp_path, capsys):
    """Every block accepts every key any command reads, so `solve` takes the
    experiment settings of `iterate` and `bona-smith` without complaint."""
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        **_TINY, "norm": {"s": 3, "p": 1, "q": 1, "homogeneous": False},
        "solver": {"T": 0.002, "dt": 0.001, "record_stride": 1},
        "experiment": {"members": 4, "N_list": [1, 2], "eps_list": [0.1], "seed": 0},
        "initial": {"kind": "random", "seed": 3, "band": [1, 4], "decay": 2.0,
                    "amplitude": 0.5}}))
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 0


def test_bona_smith_command(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "solver": {"T": 0.05, "dt": 0.001},
        "experiment": {"N_list": [3, 4], "eps_list": [0.1, 0.01], "seed": 0},
    }))
    out = tmp_path / "bs"
    assert main(["bona-smith", "--config", str(cfgf), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["estimate_id"] == "mollified_data_continuity"
    assert rep["pass"] is True
    assert (out / "tables" / "ratios.csv").exists()


def test_continuity_command(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "solver": {"T": 0.05, "dt": 0.001},
        "experiment": {"N_list": [3, 4], "eps_list": [0.1, 0.01], "seed": 0},
    }))
    out = tmp_path / "cont"
    assert main(["continuity", "--config", str(cfgf), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pass"] is True
    pieces = dict(rep["tables"]["pieces"])
    assert pieces["direct"] <= 1.05 * pieces["chain"]


def test_lipschitz_command_honours_solver_block(tmp_path, capsys, monkeypatch):
    from lpflow import NormSpec, experiments, lipschitz_lowernorm_experiment
    from lpflow.experiments import DependenceConfig
    from lpflow.fields import SpectrumSpec, random_divergence_free
    from lpflow.reports import dump_json

    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({
        "grid": {"n": 32, "dim": 2},
        "solver": {"T": 0.07, "dt": 0.001, "record_stride": 7},
        "experiment": {"eps_list": [0.1, 0.01], "seed": 0},
        "initial": {"kind": "random", "seed": 3, "band": [1, 10], "amplitude": 0.5},
    }))
    out = tmp_path / "lip"
    strides, real = [], experiments.solve
    monkeypatch.setattr(experiments, "solve",
                        lambda u, cfg: strides.append(cfg.record_stride) or real(u, cfg))
    assert main(["lipschitz", "--config", str(cfgf), "--out", str(out)]) == 0
    assert strides == [7] * 3                   # the block's stride, not the default 20
    rep = json.loads((out / "report.json").read_text())
    assert rep.pop("pass") is True

    grid = Grid(32, 2)
    u0 = random_divergence_free(grid, SpectrumSpec(2.0, (1, 10), 3))
    u0 = u0 * (0.5 / max(float(np.abs(c.values).max()) for c in u0.components))
    w = divfree_sample(grid, 22, decay=2.0, band=(1, 8))
    dcfg = DependenceConfig(norm_spec=NormSpec(3, 1, 1), T=0.07, dt=1e-3, record_stride=7,
                            eps_list=(0.1, 0.01))
    want = lipschitz_lowernorm_experiment(u0, w, dcfg)
    assert rep == json.loads(dump_json(want.to_json_dict()))


def test_bad_config_json(tmp_path):
    cfgf = tmp_path / "broken.json"
    cfgf.write_text("{not json")
    assert main(["solve", "--config", str(cfgf)]) == 2


def test_unknown_initial_kind(tmp_path):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"initial": {"kind": "vortex-sheet"},
                                "solver": {"T": 0.01, "dt": 0.001}}))
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# each command and verify suite takes exactly the flags it reads

# a second value for every flag the commands and suites once shared
_OTHER = {"--n": ["128"], "--dim": ["3"], "--s": ["2"], "--p": ["2"], "--q": ["2"],
          "--T": ["0.004"], "--dt": ["0.001"], "--seed": ["1"], "--members": ["3"],
          "--count": ["2"], "--form": ["esti2"], "--family": ["random"],
          "--scales": ["1", "2"], "--flavor": ["besov"], "--homogeneous": [],
          "--config": ["{other}"], "--out": ["elsewhere"]}

_DYNAMICS = ["--n", "32", "--T", "0.002", "--dt", "0.002", "--config", "{base}"]
_DYNAMICS_READS = "--n --dim --s --p --q --T --dt --seed --config --out"
_CORPUS = ["--n", "32", "--count", "1"]

# command line -> the flags that command reads (maximal's corpus needs n >= 64)
_READS = {
    "norm": (["norm", "{file}"], "--s --p --q --flavor --config"),
    "decompose": (["decompose", "{file}"], "--out"),
    "verify moser": (["verify", "moser", *_CORPUS], "--n --dim --s --p --q --seed --count --out"),
    "verify commutator": (["verify", "commutator", *_CORPUS],
                          "--n --dim --s --p --q --seed --count --form --out"),
    "verify embedding": (["verify", "embedding", *_CORPUS],
                         "--n --dim --s --p --q --seed --count --out"),
    "verify lifting": (["verify", "lifting", *_CORPUS], "--n --dim --seed --count --out"),
    "verify maximal": (["verify", "maximal", "--count", "1"], "--n --dim --seed --count --out"),
    "verify fefferman-stein": (["verify", "fefferman-stein", *_CORPUS],
                               "--n --dim --seed --count --out"),
    "verify kernel-l1": (["verify", "kernel-l1"], "--out"),
    "verify counterexample-scan": (["verify", "counterexample-scan", "--n", "32", "--scales", "1"],
                                   "--n --dim --s --p --q --family --scales --out"),
    "solve": (["solve", *_DYNAMICS], _DYNAMICS_READS),
    "iterate": (["iterate", "--members", "2", *_DYNAMICS], _DYNAMICS_READS + " --members"),
    "bona-smith": (["bona-smith", *_DYNAMICS], _DYNAMICS_READS),
    "lipschitz": (["lipschitz", *_DYNAMICS], _DYNAMICS_READS),
    "continuity": (["continuity", *_DYNAMICS], _DYNAMICS_READS),
}


@pytest.fixture()
def argv_of(tmp_path, scalar_file):
    base, other = tmp_path / "base.json", tmp_path / "other.json"
    levels = {"N_list": [1], "eps_list": [0.1]}
    base.write_text(json.dumps({"experiment": levels}))
    # mean-zero data measure the same in both norm flavors, so the datum's seed moves too
    other.write_text(json.dumps({"experiment": {**levels, "seed": 1},
                                 "norm": {"homogeneous": True}}))
    paths = {"{file}": str(scalar_file), "{base}": str(base), "{other}": str(other)}
    return lambda argv: [paths.get(a, a) for a in argv]


def _outcome(argv, where, monkeypatch, capsys):
    """Exit code, stdout and every file written, run from a fresh directory."""
    where.mkdir()
    monkeypatch.chdir(where)
    code = main(argv)
    files = {str(f.relative_to(where)): f.read_bytes() for f in where.rglob("*") if f.is_file()}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command", sorted(_READS))
def test_every_flag_a_command_takes_changes_its_run(command, argv_of, tmp_path, monkeypatch,
                                                    capsys):
    """Its exit code, stdout or files differ from the run without the flag, and
    the flag is no usage error, which would differ from any run."""
    from functools import lru_cache

    from lpflow import cli

    # kernel-l1 reads only --out: sum its series once (0.4 s a call), not once per run
    monkeypatch.setattr(cli, "kernel_l1_bound", lru_cache(cli.kernel_l1_bound))
    base, reads = _READS[command]
    want = _outcome(argv_of(base), tmp_path / "base", monkeypatch, capsys)
    assert want[0] == 0
    for flag in reads.split():
        got = _outcome(argv_of(base + [flag, *_OTHER[flag]]), tmp_path / flag, monkeypatch, capsys)
        assert got[0] != 2, flag
        assert got != want, flag


@pytest.mark.parametrize("command", sorted(_READS))
def test_every_other_flag_is_a_usage_error(command, capsys):
    base, reads = _READS[command]
    for flag in sorted(set(_OTHER) - set(reads.split())):
        with pytest.raises(SystemExit) as exc:              # parsing fails before any file is read
            main(base + [flag, *_OTHER[flag]])
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "moser", "--config", "missing.json"],
                                  ["decompose", "{file}", "--config", "missing.json",
                                   "--s", "7", "--T", "9"],
                                  ["norm", "{file}", "--homogeneous"]])
def test_settings_nothing_reads_are_refused(argv, argv_of, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv_of(argv))
    assert exc.value.code == 2
    assert not (tmp_path / "lpflow-out").exists()


@pytest.mark.parametrize("block, key, value", [
    ("initial", "band", 5), ("solver", "dt", "0.001"), ("norm", "homogeneous", "false"),
    ("experiment", "N_list", "34"), ("solver", "record_stride", "1"), ("grid", "n", "16"),
    ("solver", "record_stride", True), ("norm", "q", "two"),
    ("initial", "band", [1, 2, 3]), ("initial", "band", [4])])
def test_config_value_of_the_wrong_type(tmp_path, block, key, value, capsys):
    cfg = {"grid": {"n": 16, "dim": 2}, "solver": {"T": 0.002, "dt": 0.001},
           "initial": {"kind": "random"}}
    cfg.setdefault(block, {})[key] = value
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert f"{block}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_kernel_suite_sums_the_refinement_7_series_once(monkeypatch, capsys):
    from lpflow import cli, norms

    want, built, real = norms.kernel_l1_bound(7), [], norms.kernel_l1_terms

    def spy(*args, refinement=7, **kwargs):
        built.append(refinement)
        return real(*args, refinement=refinement, **kwargs)

    monkeypatch.setattr(cli, "kernel_l1_terms", spy)
    monkeypatch.setattr(norms, "kernel_l1_terms", spy)
    assert main(["verify", "kernel-l1"]) == 0
    assert sorted(built) == [7, 8]                  # refinement 8 for the fine total only
    assert json.loads(capsys.readouterr().out)["total"] == want


def test_config_spells_infinity_as_a_string(tmp_path, scalar_file, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"norm": {"s": 2, "p": 2, "q": "inf", "homogeneous": True}}))
    assert main(["norm", str(scalar_file), "--config", str(cfgf)]) == 0
    assert json.loads(capsys.readouterr().out)["spec"] == "hF2_2_inf"


def test_norm_besov_at_p_infinity(scalar_file, capsys):
    import math

    from lpflow import besov_norm, read_field

    assert main(["norm", str(scalar_file), "--s", "1", "--p", "Infinity", "--q", "2",
                 "--flavor", "besov"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spec"] == "B1_inf_2"
    assert out["value"] == besov_norm(default_bank(64, 2), read_field(scalar_file),
                                      NormSpec(1, math.inf, 2, flavor="besov"))


def test_norm_with_an_overflowing_weight_is_a_usage_error(scalar_file, capsys):
    assert main(["norm", str(scalar_file), "--s", "171", "--p", "2", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows float64 at the top block j = 6 (s = 171.0, q = 2.0)" in captured.err
