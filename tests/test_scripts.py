"""The reproduction scripts: a tiny run of each writes its files; a bad setting exits 2.

The scripts run in this process (runpy, with their argv), so no
interpreter is started.  A rejected setting must leave no --out
directory behind, as the CLI's exit-code contract asks.
"""

import runpy
import sys
from pathlib import Path

import pytest

from adaseries.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_reproduce_tables_tiny(tmp_path, monkeypatch, capsys):
    """One model's tables; on 2 workers, whose pool serves all 12 calls, the same bytes.

    At n = 200 a kernel batch holds 81 replications, so 90 of them make two
    pool chunks per evaluation run.
    """
    csv = {}
    for workers in ("1", "2"):
        out = tmp_path / f"tables_w{workers}"
        run_script("reproduce_tables.py", "--out", str(out), "--n", "200", "--reps", "90",
                   "--calib-reps", "2", "--model", "density", "--workers", workers,
                   monkeypatch=monkeypatch)
        csv[workers] = (out / "tables.csv").read_bytes()
        assert "=== density f2" in capsys.readouterr().out
    body = csv["1"].decode().splitlines()
    assert body[0].startswith("model,target,case,n,selector")
    assert len(body) == 1 + 2 * 3 * 4  # f1, f2 x cases 1-3 x four selectors
    assert csv["2"] == csv["1"]


def test_reproduce_bands_tiny(tmp_path, monkeypatch):
    out = tmp_path / "bands"
    run_script("reproduce_bands.py", "--out", str(out), "--n", "200", "--reps", "20",
               "--calib-reps", "2", monkeypatch=monkeypatch)
    for case in (1, 2, 3):
        body = (out / f"bands_density_f1_case{case}.csv").read_text().splitlines()
        assert body[0] == "x,truth,median,p05,p95"
        assert len(body) == 1 + 1025


def test_reproduce_bands_with_a_constant_is_the_cli(tmp_path, monkeypatch):
    """--c-pen skips calibration: each case's CSV is the bytes `adaseries bands` writes."""
    settings = ["--model", "regression", "--target", "f1", "--n", "200", "--reps", "20",
                "--seed", "0", "--c-pen", "3"]
    run_script("reproduce_bands.py", "--out", str(tmp_path / "script"), *settings,
               monkeypatch=monkeypatch)
    for case in (1, 2, 3):
        out = tmp_path / f"cli{case}"
        assert cli_main(["bands", "--case", str(case), "--out", str(out), *settings]) == 0
        assert ((tmp_path / "script" / f"bands_regression_f1_case{case}.csv").read_bytes()
                == (out / "bands.csv").read_bytes())


def test_risk_decomposition_tiny(monkeypatch, capsys):
    run_script("risk_decomposition.py", "--n", "500", "--m-max", "30",
               monkeypatch=monkeypatch)
    assert "min_m E ISE(m)" in capsys.readouterr().out


@pytest.mark.parametrize("name,args,message", [
    ("reproduce_tables.py", ["--n", "1"], "need n >= 2"),
    ("reproduce_tables.py", ["--n", "200", "--reps", "3", "--calib-reps", "0",
                             "--model", "density"], "need calib_reps >= 1"),
    ("reproduce_bands.py", ["--target", "zz"], "unknown density target 'zz'"),
    ("reproduce_bands.py", ["--n", "200", "--reps", "5", "--c-pen", "2"],
     "at least 20 replications"),
    ("risk_decomposition.py", ["--target", "f3"], "unknown density target 'f3'"),
    ("risk_decomposition.py", ["--model", "regression", "--target", "uniform"],
     "unknown regression target 'uniform'"),
], ids=["tables-n", "tables-calib-reps", "bands-target", "bands-reps", "risk-density-target",
        "risk-regression-target"])
def test_bad_setting_exits_two_and_writes_nothing(name, args, message, tmp_path, monkeypatch,
                                                  capsys):
    out = tmp_path / "out"
    takes_out = name != "risk_decomposition.py"
    with pytest.raises(SystemExit) as exc:
        run_script(name, *(["--out", str(out)] if takes_out else []), *args,
                   monkeypatch=monkeypatch)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()
