"""The bands script: a tiny run writes its files; a bad setting exits 2.

The script runs in this process (runpy, with its argv), so no
interpreter is started.  A rejected setting must leave no --out
directory behind, as the CLI's exit-code contract asks.  The tables and
the exact risk curve are CLI commands (study, risk), tested in
test_cli.py.
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


@pytest.mark.parametrize("args,message", [
    (["--target", "zz"], "unknown density target 'zz'"),
    (["--n", "200", "--reps", "5", "--c-pen", "2"], "at least 20 replications"),
], ids=["bands-target", "bands-reps"])
def test_bad_setting_exits_two_and_writes_nothing(args, message, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_script("reproduce_bands.py", "--out", str(out), *args, monkeypatch=monkeypatch)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()
