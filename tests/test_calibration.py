"""Calibration check mode: fresh measurements against the stored maxima."""

import importlib.resources
import json
import math
from dataclasses import replace

from lpflow import calibration
from lpflow.reports import dump_json

ENTRY = "lifting_s1_order1"


def test_check_reports_headroom_and_writes_nothing(monkeypatch, capsys):
    table = importlib.resources.files("lpflow").joinpath("data/calibration.json")
    before = table.read_bytes()
    monkeypatch.setattr(calibration, "_TABLE", {ENTRY: calibration._TABLE[ENTRY]})
    assert calibration.main(["--check"]) == 0
    out = capsys.readouterr().out
    stored = calibration.stored(ENTRY)["max"]
    assert f"{ENTRY}: measured=" in out and f"stored={stored!r}" in out
    assert "headroom=50.0%" in out
    assert table.read_bytes() == before


def test_check_fails_over_bound(monkeypatch, capsys):
    over = 2.5 * calibration.stored(ENTRY)["max"]
    row = replace(calibration._TABLE[ENTRY], ratio_fn=lambda *a, **k: [over])
    monkeypatch.setattr(calibration, "_TABLE", {ENTRY: row})
    assert calibration.main(["--check"]) == 1
    assert f"{ENTRY}: OVER its bound" in capsys.readouterr().out


def test_check_fails_on_a_nan_ratio(monkeypatch, capsys):
    # builtin max(0.5, nan) is 0.5: a running maximum would pass the NaN as in bounds
    import lpflow.maximal

    ratios = iter([0.5, math.nan] + [0.1] * 38)
    monkeypatch.setattr(lpflow.maximal, "verify_fefferman_stein", lambda *a, **k: next(ratios))
    monkeypatch.setattr(calibration, "_TABLE",
                        {"vector_maximal_p2_q2": calibration._TABLE["vector_maximal_p2_q2"]})
    assert calibration.main(["--check"]) == 1
    assert "vector_maximal_p2_q2: measured=nan" in capsys.readouterr().out


def test_every_row_is_stored_with_its_corpus_and_parameters():
    """The table and calibration.json name the same rows, and each stored row has
    the table's count, seed0 and parameters (through JSON, where a tuple is a list)
    next to its summary statistics: a row added or changed without regenerating
    the file fails here."""
    entries = calibration.load()["entries"]
    assert set(entries) == set(calibration._TABLE)
    for name, e in calibration._TABLE.items():
        corpus = {} if e.count is None else {"count": e.count, "seed0": e.seed0}
        want = json.loads(dump_json({**corpus, **e.params}))
        summary = e.summary([0.0] * (e.count or 1), e.count or 1)
        assert {k: v for k, v in entries[name].items() if k not in summary} == want, name
