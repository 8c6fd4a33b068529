"""The benchmark's own tests: reduced-size smoke runs, the output checks,
metric names against BENCHMARK.json, and the refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpflow import Grid, GridField, VectorField

from bench import layers, run, worker, workloads
from bench.checks import Checker
from bench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC_FILE = ROOT / "BENCHMARK.json"

SMOKE = {
    "dynamics-64": workloads.DynamicsSizes(
        n=32, sm_T=0.002, sm_stride=1, N_list=(2, 3, 4), lad_M=8, lad_T=0.004,
        lag_T=0.2),
    "solve-large": workloads.SolveSizes(grids=((32, 2), (16, 3)), T=0.002, stride=1),
    "analysis-64": workloads.AnalysisSizes(
        moser=1, transport=1, commutator=1, equivalence=1, pointwise=1,
        fefferman_stein=1, bony=1, scan_scales=(2,), refinements=(5, 5)),
}


def _vector(grid, comps, div_free):
    return VectorField(tuple(GridField(grid, c, "physical", True) for c in comps),
                       div_free=div_free)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_every_check(name, tmp_path):
    raw = worker.run(name, seed=3, seconds=0.01, trace=False, workdir=tmp_path,
                     sizes=SMOKE[name])
    assert len(raw["ops"]) == 3
    assert [o["failures"] for o in raw["ops"]] == [[], [], []]
    metrics, _, attempted, failed = run.summarize(raw, [raw["setup_s"]], trace=False)
    assert (attempted, failed) == (3, 0)
    spec = json.loads(SPEC_FILE.read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_checker_counts_nan_state_as_failure():
    grid = Grid(16, 2)
    x = grid.meshes()
    bad = np.sin(x[1])
    bad[3, 4] = np.nan
    chk = Checker()
    chk.states("state", [_vector(grid, (bad, np.sin(x[0])), True)])
    assert len(chk.failures) == 1 and "non-finite" in chk.failures[0]
    chk = Checker()
    chk.diagnostics("solve", {"energy": (1.0, float("nan"))})
    assert chk.failures


def test_checker_counts_non_solenoidal_state_as_failure():
    grid = Grid(16, 2)
    x = grid.meshes()
    good = _vector(grid, (np.sin(x[1]), np.sin(x[0])), True)
    compressing = _vector(grid, (np.sin(x[0]), np.zeros(grid.shape)), False)
    chk = Checker()
    chk.states("state", [good])
    assert chk.failures == []
    chk.states("state", [compressing])
    assert len(chk.failures) == 1 and "divergence" in chk.failures[0]


def test_failed_check_counts_the_op_as_failed(tmp_path, monkeypatch):
    grid = Grid(16, 2)
    x = grid.meshes()
    nan_state = _vector(grid, (np.full(grid.shape, np.nan), np.sin(x[0])), True)

    class NanWorkload:
        def __init__(self, workdir=None):
            pass

        def setup(self):
            pass

        def inputs(self, seed, op):
            return {}

        def op(self, inp, ctx):
            return {"state": nan_state}

        def check(self, inp, out):
            chk = Checker()
            chk.states("state", [out["state"]])
            return chk.failures

    monkeypatch.setitem(workloads.WORKLOADS, "nan", NanWorkload)
    raw = worker.run("nan", seed=1, seconds=0.01, trace=False, workdir=tmp_path)
    _, _, attempted, failed = run.summarize(raw, [raw["setup_s"]], trace=False)
    assert attempted == failed >= 3


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    tr.op_id = 0
    tr.call(lambda: tr.call(sum, range(10_000)))
    parent, child = tr.spans
    assert child.parent == 0 and parent.parent is None
    self_parent, self_child = tr.self_times()
    assert self_child == pytest.approx(child.end - child.start)
    assert self_parent == pytest.approx(parent.end - parent.start - self_child)
    assert tr.top_level_seconds(0) == pytest.approx(parent.end - parent.start)


def test_names_match_benchmark_json():
    spec = json.loads(SPEC_FILE.read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    raw = {"ops": [{"op": 0, "traced": False, "seconds": 1.0, "failures": [], "work": {}},
                   {"op": 1, "traced": True, "seconds": 1.1, "failures": [], "work": {}}],
           "layers": {name: 1.0 for name in layers.names()}, "coverage": [0.99],
           "computed": layers.computed_counts(), "span_summary": {}}
    metrics, _, _, _ = run.summarize(raw, [0.5], trace=True)
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(SPEC_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
