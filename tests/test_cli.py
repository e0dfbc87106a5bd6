import csv
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import adaseries
from adaseries import checks
from adaseries.cli import main
from adaseries.harness import MIN_BAND_REPS, ExperimentConfig, table_study, write_summary_csv

SIM_ARGS = ["simulate", "--model", "density", "--target", "f1", "--case", "1",
            "--n", "200", "--reps", "3", "--seed", "7"]


def test_simulate_writes_outputs(tmp_path, capsys):
    assert main(SIM_ARGS + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "raw.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["experiment"]["seed"] == 7
    assert meta["experiment"]["c_gl"] == 72.0  # resolved theorem preset
    assert meta["version"] == adaseries.__version__
    out = capsys.readouterr().out
    assert "oracle" in out


def test_package_version_is_pyproject_version():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == adaseries.__version__


def test_simulate_deterministic_bytes(tmp_path):
    main(SIM_ARGS + ["--out", str(tmp_path / "a")])
    main(SIM_ARGS + ["--out", str(tmp_path / "b")])
    raw_a = (tmp_path / "a" / "raw.csv").read_bytes()
    raw_b = (tmp_path / "b" / "raw.csv").read_bytes()
    assert raw_a == raw_b


def test_simulate_workers_do_not_change_output(tmp_path):
    main(SIM_ARGS + ["--reps", "5", "--out", str(tmp_path / "w1"), "--workers", "1"])
    main(SIM_ARGS + ["--reps", "5", "--out", str(tmp_path / "w8"), "--workers", "8"])
    assert ((tmp_path / "w1" / "raw.csv").read_bytes()
            == (tmp_path / "w8" / "raw.csv").read_bytes())


def test_missing_target_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "density", "--case", "1", "--n", "100",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [("--case", "9"), ("--grid-size", "1024"),
                                         ("--grid-size", "201"),
                                         ("--seed", "-1"), ("--workers", "0"),
                                         ("--c-pen", "-1"), ("--c-pen", "0"),
                                         ("--selectors", "gl,gl"), ("--selectors", ",")],
                         ids=["case", "grid-size", "grid-size-aliased", "seed", "workers",
                              "c-pen", "c-pen-zero-ms", "selectors-repeated",
                              "selectors-empty"])
def test_bad_flag_value_usage_error(tmp_path, flag, value):
    # --c-pen 0 alone is a valid GL constant, but ms reads it too and needs c > 0;
    # 201 = 4 ceil(M/2) + 1 points at M = 100 alias the basis, so no ISE is computed on them
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "density", "--target", "f1", "--case", "1",
              "--n", "100", "--reps", "2", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()  # no output directory, not even an empty one


COMMON = ["--model", "density", "--target", "f1", "--case", "1", "--n", "100"]


@pytest.mark.parametrize("args", [
    ["calibrate", *COMMON, "--c-grid", "0,1"],
    ["calibrate", *COMMON, "--c-grid", "2,1"],
    ["calibrate", *COMMON, "--c-grid", "1,x"],
    # %.10g would print and write 1.414213562, another constant than the one run
    ["calibrate", *COMMON, "--c-grid", "1.41421356237,2"],
    ["calibrate", *COMMON, "--calib-reps", "0"],
    ["bands", *COMMON, "--reps", "5"],
    ["check", "--pens", "a,b"],
    ["check", "--pens", ""],
    # check runs at fixed sizes: its former size flags are unknown at any value
    ["check", "--lemma-reps", "200"],
    ["check", "--ks-draws", "100000"],
    ["check", "--case3-draws", "1000000"],
    ["check", "--fuzz-cases", "2000"],
    ["check", "--variance-reps", "2000"],
    ["check", "--seed", "-1"],
], ids=["c-grid-zero", "c-grid-decreasing", "c-grid-text", "c-grid-digits", "calib-reps",
        "bands-reps", "pens-text", "pens-empty", "lemma-reps", "ks-draws", "case3-draws",
        "fuzz-cases", "variance-reps", "check-seed"])
def test_bad_value_usage_error_other_commands(tmp_path, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()  # no output directory, not even an empty one


def test_simulate_c_pen_zero_without_ms(tmp_path):
    assert main(SIM_ARGS + ["--c-pen", "0", "--selectors", "oracle,gl",
                            "--out", str(tmp_path)]) == 0


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("""
[experiment]
model = density
target = f1
case = 1
n = 150
reps = 2
seed = 3
selectors = oracle,gl

[penalty]
c_gl = 2.5
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--reps", "4",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["experiment"]["reps"] == 4  # flag wins over file
    assert meta["experiment"]["n"] == 150
    assert meta["experiment"]["c_gl"] == 2.5
    assert meta["experiment"]["selectors"] == ["oracle", "gl"]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nmodel = density\nbogus = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "check"])
@pytest.mark.parametrize("text, message", [
    ("model = density\n", "no section headers"),
    ("[experiment]\nseed = 1\nseed = 2\n", "already exists"),
], ids=["no-section-header", "repeated-key"])
def test_malformed_config_usage_error(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_config_section_usage_error(tmp_path, capsys):
    # a misspelled [penalty] must not fall back to the theorem preset
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[penalties]\nc_gl = 2.5\n")
    with pytest.raises(SystemExit) as exc:
        main(SIM_ARGS + ["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "[penalties]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [
    "[experiment]\nmodel = density\ntarget = f1\ncase = 1\nn = abc\n",
    "[experiment]\nmodel = density\ntarget = f1\ncase = 1\n[penalty]\nn = 5\n",
    "[experiment]\nmodel = density\ntarget = f1\ncase = 1\n[check]\nlemma_reps = 200\n",
    # gl and ms share c_gl; no c_ms key exists
    "[experiment]\nmodel = density\ntarget = f1\ncase = 1\n[penalty]\nc_ms = 2\n",
], ids=["type-error", "misplaced-key", "check-size-key", "c-ms-key"])
def test_bad_config_value_usage_error(tmp_path, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


#: A non-default value of every option: dest -> (INI section, flag, value).
OPTIONS = {
    "model": ("experiment", "--model", "regression"),
    "target": ("experiment", "--target", "f2"),
    "case": ("experiment", "--case", "2"),
    "n": ("experiment", "--n", "64"),
    "reps": ("experiment", "--reps", "3"),
    "selectors": ("experiment", "--selectors", "gl,ms"),
    "m_max": ("experiment", "--m-max", "9"),
    "seed": ("experiment", "--seed", "5"),
    "grid_size": ("experiment", "--grid-size", "65"),
    "workers": ("experiment", "--workers", "2"),
    "c_gl": ("penalty", "--c-pen", "1.5"),
    "c_grid": ("calibration", "--c-grid", "1,2,4"),
    "calib_reps": ("calibration", "--calib-reps", "3"),
    "pens": ("check", "--pens", "0.1,0.2"),
}


def _flags(dests):
    return [tok for dest in dests for tok in OPTIONS[dest][1:]]


def _shared_ini(tmp_path):
    """One file setting every option, as every command reads it."""
    sections = {}
    for dest, (section, _, value) in OPTIONS.items():
        sections.setdefault(section, []).append(f"{dest} = {value}\n")
    path = tmp_path / "shared.ini"
    path.write_text("".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items()))
    return str(path)


def test_every_config_field_set_by_flag_or_ini(tmp_path):
    """simulate reads every config field; calibrate eight of them, besides its own two."""
    config_dests = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert set(config_dests) <= set(OPTIONS)  # a new config field needs a flag here
    read = {"model": "regression", "target": "f2", "case": 2, "n": 64, "m_max": 9, "seed": 5,
            "grid_size": 65, "workers": 2}
    runs = {"simulate": config_dests, "calibrate": [*read, "c_grid", "calib_reps"]}
    meta = {}
    for command, dests in runs.items():
        assert main([command, *_flags(dests), "--out", str(tmp_path / command / "flags")]) == 0
        assert main([command, "--config", _shared_ini(tmp_path),
                     "--out", str(tmp_path / command / "ini")]) == 0
        by_flag, by_ini = (json.loads((tmp_path / command / d / "metadata.json").read_text())
                           for d in ("flags", "ini"))
        assert by_flag == by_ini
        meta[command] = by_ini
    assert meta["simulate"]["experiment"] == {
        **read, "reps": 3, "selectors": ["gl", "ms"], "c_gl": 1.5}
    assert meta["calibrate"]["experiment"] == read
    assert meta["calibrate"]["c_grid"] == [1.0, 2.0, 4.0]
    assert meta["calibrate"]["calib_reps"] == 3


def test_every_check_setting_set_by_flag_or_ini(tmp_path, monkeypatch):
    dests = list(inspect.signature(checks.run_all_checks).parameters)
    assert set(dests) <= set(OPTIONS)  # a new check setting needs a flag here
    for name, func in inspect.getmembers(checks, inspect.isfunction):
        if name.startswith("check_") or name == "dependence_score":  # no test-only knobs
            assert set(inspect.signature(func).parameters) <= set(dests), name
    calls = []
    monkeypatch.setattr(checks, "run_all_checks", lambda **settings: calls.append(settings)
                        or [checks.CheckResult("stub", True, "")])
    assert main(["check", *_flags(dests)]) == 0
    assert main(["check", "--config", _shared_ini(tmp_path)]) == 0
    assert calls[0] == calls[1] == {"seed": 5, "pens": [0.1, 0.2]}


@pytest.mark.parametrize("command", ["simulate", "bands", "calibrate", "check", "study", "risk"])
def test_subcommand_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_bands_output_shape(tmp_path):
    out = tmp_path / "bands"
    code = main(["bands", "--model", "density", "--target", "f2", "--case", "1",
                 "--n", "200", "--reps", "25", "--seed", "1", "--grid-size", "129",
                 "--c-pen", "2.0", "--out", str(out)])
    assert code == 0
    lines = (out / "bands.csv").read_text().strip().splitlines()
    assert len(lines) == 129 + 1  # header + grid rows
    header = lines[0].split(",")
    assert header == ["x", "truth", "median", "p05", "p95"]
    for line in lines[1:]:
        _, _, med, p05, p95 = map(float, line.split(","))
        assert p05 <= med <= p95


BANDS_ARGS = ["bands", *COMMON, "--reps", "20", "--c-pen", "2.0"]
CALIBRATE_ARGS = ["calibrate", *COMMON, "--c-grid", "1,2", "--calib-reps", "2"]


@pytest.mark.parametrize("args, flag", [
    (BANDS_ARGS, ["--selectors", "cv"]),
    (BANDS_ARGS, ["--c-pen-ms", "9"]),
    (CALIBRATE_ARGS, ["--reps", "7"]),
    (CALIBRATE_ARGS, ["--selectors", "cv"]),
    (CALIBRATE_ARGS, ["--c-pen", "3"]),
    (CALIBRATE_ARGS, ["--c-pen-ms", "5"]),
    (SIM_ARGS, ["--c-pen-ms", "5"]),
], ids=lambda value: value[0].lstrip("-"))
def test_a_command_takes_no_option_it_does_not_read(args, flag, tmp_path, capsys):
    """bands selects by gl alone, so --selectors is unknown to it; calibrate
    grid-searches gl and ms on --calib-reps replications, so --reps,
    --selectors and --c-pen are unknown to it.  gl and ms share --c-pen, so
    no command takes --c-pen-ms.
    """
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*args, *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


def test_bands_records_gl_and_ignores_the_ini_keys_it_does_not_read(tmp_path, capsys):
    """bands' metadata names gl, the one selector run.

    Keys of options a command does not take are accepted, and they change
    no byte of its files or stdout: [experiment] selectors for bands;
    [experiment] reps (0, which a run would refuse) and selectors and
    [penalty] c_gl for calibrate.
    """
    runs = {"bands": (BANDS_ARGS, "[experiment]\nselectors = cv\n", "bands.csv"),
            "calibrate": (CALIBRATE_ARGS, "[experiment]\nreps = 0\nselectors = cv\n"
                                          "[penalty]\nc_gl = 3\n", "calibration.csv")}
    for command, (args, text, csv_name) in runs.items():
        ini = tmp_path / f"{command}.ini"
        ini.write_text(text)
        written = {}
        for name, extra in (("plain", []), ("ini", ["--config", str(ini)])):
            out = tmp_path / command / name
            assert main([*args, *extra, "--out", str(out)]) == 0
            written[name] = [(out / f).read_bytes() for f in (csv_name, "metadata.json")]
            written[name].append(capsys.readouterr().out)
        assert written["plain"] == written["ini"], command
    bands_meta = json.loads((tmp_path / "bands" / "plain" / "metadata.json").read_text())
    assert bands_meta["experiment"]["selectors"] == ["gl"]


def test_metadata_records_a_constant_only_when_its_selector_runs(tmp_path):
    """c_gl, resolved, is recorded only when gl or ms runs; c_ms never is."""
    runs = {"bands": BANDS_ARGS, "simulate-gl": [*SIM_ARGS, "--selectors", "oracle,gl"],
            "simulate-ms": [*SIM_ARGS, "--selectors", "ms,cv"],
            "simulate-cv": [*SIM_ARGS, "--selectors", "oracle,cv"], "simulate": SIM_ARGS}
    recorded = {}
    for name, args in runs.items():
        assert main([*args, "--out", str(tmp_path / name)]) == 0
        experiment = json.loads((tmp_path / name / "metadata.json").read_text())["experiment"]
        recorded[name] = (experiment.get("c_gl"), experiment.get("c_ms"))
    assert recorded == {"bands": (2.0, None), "simulate-gl": (72.0, None),
                        "simulate-ms": (72.0, None), "simulate-cv": (None, None),
                        "simulate": (72.0, None)}


@pytest.mark.parametrize("args", [["bands", *COMMON, "--reps", "19"],
                                  ["study", "--bands", "--reps", "19", "--calib-reps", "0"]],
                         ids=["bands", "study-bands"])
def test_too_few_band_replications_are_one_refusal(args, tmp_path, capsys):
    """bands and study --bands refuse 19 replications with the one harness message."""
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"adaseries {args[0]}: error: bands need at least {MIN_BAND_REPS} replications")
    assert not (tmp_path / "out").exists()


def test_calibrate_writes_choice(tmp_path):
    out = tmp_path / "cal"
    code = main(["calibrate", "--model", "density", "--target", "f1", "--case", "1",
                 "--n", "200", "--seed", "2", "--c-grid", "1,2,4",
                 "--calib-reps", "5", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert set(meta["calibrated"]) == {"gl", "ms"}
    assert meta["calibrated"]["gl"] in (1.0, 2.0, 4.0)
    body = (out / "calibration.csv").read_text().splitlines()
    assert body[0] == "selector,c,mean_ise"
    assert len(body) == 1 + 2 * 3


def test_calibrate_prints_the_chosen_constant_to_the_digit(tmp_path, capsys):
    """The printed constant is the one metadata.json records, not a 6-digit cut of it."""
    out = tmp_path / "cal"
    assert main(["calibrate", "--model", "density", "--target", "f2", "--case", "1",
                 "--n", "200", "--c-grid", "2.828427,5.656854", "--calib-reps", "3",
                 "--out", str(out)]) == 0
    chosen = json.loads((out / "metadata.json").read_text())["calibrated"]
    printed = dict(line.split(": calibrated c = ")
                   for line in capsys.readouterr().out.splitlines())
    assert {sel: float(c) for sel, c in printed.items()} == chosen
    assert all(f"{c:g}" != printed[sel] for sel, c in chosen.items())  # %g would cut them


@pytest.mark.parametrize("args, warned", [
    (["--model", "regression"], {"gl": 1, "ms": 1}),
    (["--model", "regression", "--c-pen", "4"], {}),
    (["--model", "density", "--c-pen", "0", "--selectors", "oracle,gl"], {"gl": 100}),
    # every pick is m = 1 = M: no constant can change it
    (["--model", "density", "--m-max", "1", "--c-pen", "4"], {}),
], ids=["preset", "c-pen-4", "c-pen-0", "m-max-1"])
def test_simulate_warns_when_a_penalized_selector_sits_at_an_end(args, warned, tmp_path,
                                                                 capsys):
    """One stderr line per penalized selector whose every pick is m = 1 or m = M > 1."""
    assert main(["simulate", *args, "--target", "f1", "--case", "1", "--n", "200",
                 "--reps", "5", "--seed", "7", "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(lines) == len(warned)
    for line, (sel, m) in zip(lines, warned.items()):
        assert line.startswith(f"warning: {sel} chose m = {m},")
        assert line.endswith("choose c with `adaseries calibrate` or set --c-pen")


STUDY_ARGS = ["--n", "200", "--reps", "130", "--calib-reps", "2", "--model", "density"]


BANDS_CSVS = [f"bands_density_{target}_case{case}.csv" for target in ("f1", "f2")
              for case in (1, 2, 3)]


def test_study_tiny(tmp_path, capsys):
    """One model's tables and bands; on 2 workers, whose pool serves all 12 calls, the same bytes.

    At n = 200 a kernel batch holds 122 replications, so 130 of them make
    two pool chunks per evaluation run, from which the bands are read.
    """
    csv_bytes = {}
    for workers in ("1", "2"):
        out = tmp_path / f"tables_w{workers}"
        assert main(["study", *STUDY_ARGS, "--bands", "--workers", workers,
                     "--out", str(out)]) == 0
        csv_bytes[workers] = [(out / name).read_bytes() for name in ["tables.csv", *BANDS_CSVS]]
        printed = capsys.readouterr().out
        assert "=== density f2" in printed
        assert f"case 3: wrote {out / BANDS_CSVS[-1]} (truth inside band on " in printed
    body = csv_bytes["1"][0].decode().splitlines()
    assert body[0].startswith("model,target,case,n,selector")
    assert len(body) == 1 + 2 * 3 * 4  # f1, f2 x cases 1-3 x four selectors
    for bands in csv_bytes["1"][1:]:
        lines = bands.decode().splitlines()
        assert lines[0] == "x,truth,median,p05,p95"
        assert len(lines) == 1 + 1025
    assert csv_bytes["2"] == csv_bytes["1"]


def test_study_bands_draw_each_evaluation_replication_once(tmp_path, monkeypatch):
    """study --bands reads the bands from the evaluation runs: one pass of batches per config.

    Each of the 6 configs draws its 130 evaluation replications as two
    kernel batches (122 and 8) and its 2 calibration replications as one.
    """
    from adaseries.harness import CALIB_NS, EVAL_NS, ExperimentContext, batches

    calls = Counter()
    sample = ExperimentContext.sample

    def counted(self, rep_index, namespace=EVAL_NS, count=1):
        calls[namespace] += 1
        return sample(self, rep_index, namespace, count)

    monkeypatch.setattr(ExperimentContext, "sample", counted)
    assert main(["study", *STUDY_ARGS, "--bands", "--workers", "1",
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == {EVAL_NS: 6 * len(list(batches(0, 130, 200))), CALIB_NS: 6}


def test_study_bands_tiny(tmp_path):
    """study --bands at the fewest reps it takes writes one 1025-point band per case."""
    out = tmp_path / "bands"
    assert main(["study", "--model", "density", "--n", "200", "--reps", "20",
                 "--calib-reps", "2", "--bands", "--out", str(out)]) == 0
    for name in BANDS_CSVS:
        body = (out / name).read_text().splitlines()
        assert body[0] == "x,truth,median,p05,p95"
        assert len(body) == 1 + 1025


def test_study_bands_are_the_bands_command(tmp_path):
    """Each study bands CSV is the bytes `adaseries bands` writes at the calibrated constant."""
    settings = ["--model", "regression", "--n", "200", "--reps", "20", "--seed", "0"]
    assert main(["study", *settings, "--calib-reps", "2", "--bands",
                 "--out", str(tmp_path / "study")]) == 0
    experiments = json.loads((tmp_path / "study" / "metadata.json").read_text())["experiments"]
    assert len(experiments) == 6
    for e in experiments:
        name = f"bands_regression_{e['target']}_case{e['case']}.csv"
        out = tmp_path / name
        assert main(["bands", *settings, "--target", e["target"], "--case", str(e["case"]),
                     "--c-pen", repr(e["c_gl"]), "--out", str(out)]) == 0
        assert (tmp_path / "study" / name).read_bytes() == (out / "bands.csv").read_bytes()


def test_bands_is_not_an_ini_key(tmp_path, capsys):
    """--bands chooses outputs: a [experiment] bands key is unknown, as any other."""
    cfg = tmp_path / "bands.ini"
    cfg.write_text("[experiment]\nbands = false\n")
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unknown key 'bands' in [experiment]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_study_writes_the_table_study_rows(tmp_path):
    """tables.csv is the summary of table_study's rows; metadata.json its settings and configs."""
    out = tmp_path / "study"
    assert main(["study", "--n", "100", "--reps", "4", "--calib-reps", "2", "--seed", "3",
                 "--model", "regression", "--out", str(out)]) == 0
    study = table_study(100, 4, 2, 3, 1, ("regression",))
    write_summary_csv([row for _, rows, _ in study for row in rows], tmp_path / "library.csv")
    assert (out / "tables.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    meta = json.loads((out / "metadata.json").read_text())
    assert {key: meta[key] for key in ("command", "n", "reps", "calib_reps", "seed", "workers",
                                        "models")} == {
        "command": "study", "n": 100, "reps": 4, "calib_reps": 2, "seed": 3, "workers": 1,
        "models": ["regression"]}
    assert [(e["target"], e["case"], e["c_gl"]) for e in meta["experiments"]] == [
        (cfg.target, cfg.case, cfg.c_gl) for cfg, _, _ in study]


def test_study_and_risk_read_the_shared_config(tmp_path, capsys):
    """The one INI file sets study's and risk's options as their flags do."""
    ini = ["--config", _shared_ini(tmp_path)]
    study_dests = ["model", "n", "reps", "seed", "workers", "calib_reps"]
    assert main(["study", *_flags(study_dests), "--out", str(tmp_path / "flags")]) == 0
    assert main(["study", *ini, "--out", str(tmp_path / "ini")]) == 0
    for name in ("tables.csv", "metadata.json"):
        assert ((tmp_path / "flags" / name).read_bytes()
                == (tmp_path / "ini" / name).read_bytes())
    assert json.loads((tmp_path / "ini" / "metadata.json").read_text())["models"] == [
        "regression"]
    capsys.readouterr()
    assert main(["risk", *_flags(["model", "target", "case", "n", "m_max"])]) == 0
    by_flag = capsys.readouterr().out
    assert main(["risk", *ini]) == 0
    assert capsys.readouterr().out == by_flag
    assert by_flag.startswith("regression f2, case 2, n = 64: min_m E ISE(m) = ")


def test_risk_tiny(capsys):
    assert main(["risk", "--n", "500", "--m-max", "30"]) == 0
    assert "min_m E ISE(m)" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["study", "--n", "1"], "need n >= 2"),
    (["study", "--n", "200", "--reps", "3", "--calib-reps", "0", "--model", "density"],
     "need calib_reps >= 1"),
    # refused before calibration, which would reject --calib-reps 0
    (["study", "--bands", "--reps", "19", "--calib-reps", "0"], "at least 20 replications"),
    (["bands", "--model", "density", "--target", "zz", "--case", "1", "--n", "200"],
     "unknown density target 'zz'"),
    (["risk", "--target", "f3"], "unknown density target 'f3'"),
    (["risk", "--model", "regression", "--target", "uniform"],
     "unknown regression target 'uniform'"),
    (["risk", "--case", "3"], "no exact risk for dependence case 3"),
    (["risk", "--n", "0"], "need n >= 1"),
], ids=["tables-n", "tables-calib-reps", "study-bands-reps", "bands-target",
        "risk-density-target", "risk-regression-target", "risk-case-3", "risk-n"])
def test_bad_setting_exits_two_and_writes_nothing(args, message, tmp_path, capsys):
    out = tmp_path / "out"
    takes_out = args[0] != "risk"
    with pytest.raises(SystemExit) as exc:
        main([*args, *(["--out", str(out)] if takes_out else [])])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.startswith(f"usage: adaseries {args[0]} ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("args", [
    SIM_ARGS,
    ["bands", *COMMON, "--reps", "20"],
    ["calibrate", *COMMON, "--calib-reps", "2"],
    ["study", *STUDY_ARGS],
    ["check"],
], ids=lambda args: args[0])
def test_out_that_cannot_be_a_directory_is_a_usage_error(args, under, tmp_path, capsys):
    """An --out that is a file, or lies under one, exits 2 before any work."""
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "sub" if under else taken
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: adaseries {args[0]} ")
    assert f"--out {out}: {taken} is not a directory" in captured.err
    assert captured.out == ""
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("args", [
    ["calibrate", "--model", "density", "--target", "f2", "--case", "2", "--n", "1000",
     "--calib-reps", "20", "--seed", "1"],
    ["study", "--n", "200", "--reps", "3", "--calib-reps", "3", "--model", "density"],
], ids=["calibrate", "study"])
def test_calibration_notes_print_without_a_source_path(args, tmp_path, capsys):
    """A calibration note is one `warning:` line on stderr, the same from any checkout."""
    assert main([*args, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "warning: mean ISE vs c not quasi-convex for gl and ms (density f2 case 2 " in err
    assert all(line.startswith("warning: ") for line in err.splitlines())
    assert ".py:" not in err


def test_check_fast_config_passes(tmp_path):
    cfg = tmp_path / "check.ini"
    cfg.write_text("""
[experiment]
seed = 7

[check]
pens = 0.3,0.1,0.2
""")
    code = main(["check", "--config", str(cfg), "--seed", "0",
                 "--pens", "0.1,0.2,0.3", "--out", str(tmp_path / "rep")])
    assert code == 0
    report = tmp_path / "rep" / "check_report.csv"
    assert report.read_bytes().startswith(b"check,passed,detail\r\n")  # csv's CRLF
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "passed", "detail"]
    assert all(len(row) == 3 for row in rows)
    assert ["orthonormality", "1"] == rows[1][:2]
    assert any("," in row[2] for row in rows[1:])  # quoted details read back whole


def test_check_bad_penalties_exit_one(tmp_path, capsys):
    code = main(["check", "--pens", "0.3,0.1,0.2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "argument error" in out


def test_console_entry_point(tmp_path):
    result = subprocess.run([sys.executable, "-m", "adaseries", "simulate",
                             "--model", "density", "--target", "f2", "--case", "1",
                             "--n", "120", "--reps", "1", "--out", str(tmp_path)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "summary.csv").exists()


def test_console_entry_point_on_two_workers(tmp_path):
    """--workers 2 exits cleanly, and its CSVs equal those of --workers 1."""
    for workers in (1, 2):
        result = subprocess.run([sys.executable, "-m", "adaseries", "simulate",
                                 "--model", "density", "--target", "f1", "--case", "2",
                                 "--n", "200", "--reps", "20", "--workers", str(workers),
                                 "--out", str(tmp_path / str(workers))],
                                capture_output=True, text=True, timeout=120,
                                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
    for name in ("raw.csv", "summary.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
