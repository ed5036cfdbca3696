from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vecfig
from vecfig.cli import run
from vecfig.synth import AxisStyle, SyntheticSpec, build_synthetic_project


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_required_flag(capsys):
    assert run(["extract", "--project", "p"]) == 1


def test_make_project(tmp_path, capsys):
    (tmp_path / "paperA.pdf").write_bytes(b"%PDF")
    code = run(["make-project", "--project", str(tmp_path),
                "--fileFilter", r".*/(.*)\.pdf",
                "--makeProject", r"(\1)/fulltext.pdf"])
    assert code == 0
    assert (tmp_path / "paperA" / "fulltext.pdf").is_file()


def test_extract_all_ok_exit_zero(tmp_path, capsys):
    proj = build_synthetic_project(
        tmp_path / "proj", [SyntheticSpec(seed=s, n_points=4) for s in (1, 2, 3)])
    code = run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if ": ok" in l]
    assert len(lines) == 3
    assert "fig-0001/figure1: ok (4 points)" in out


def test_extract_with_failure_exit_two(tmp_path, capsys):
    proj = build_synthetic_project(tmp_path / "proj", [
        SyntheticSpec(seed=1, n_points=4),
        SyntheticSpec(seed=2, n_points=4, axis_style=AxisStyle.RASTER_BODY)])
    code = run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out")])
    assert code == 2
    assert "raster_body" in capsys.readouterr().out


def test_flag_order_insensitive(tmp_path, capsys):
    proj = build_synthetic_project(tmp_path / "proj",
                                   [SyntheticSpec(seed=1, n_points=4)])
    code_a = run(["extract", "--project", str(proj),
                  "--outputDir", str(tmp_path / "a")])
    code_b = run(["extract", "--outputDir", str(tmp_path / "b"),
                  "--project", str(proj)])
    assert code_a == code_b == 0
    assert ((tmp_path / "a" / "summary.json").read_text()
            == (tmp_path / "b" / "summary.json").read_text())


def test_generate_then_extract_then_evaluate(tmp_path, capsys):
    proj = tmp_path / "proj"
    assert run(["generate", "--outputDir", str(proj),
                "--seed", "5", "--count", "3"]) == 0
    assert run(["extract", "--project", str(proj),
                "--outputDir", str(proj)]) == 0
    assert run(["evaluate", "--outputDir", str(proj)]) == 0
    out = capsys.readouterr().out
    assert "both axes correct: 3/3" in out
    assert (proj / "evaluation.csv").is_file()
    agg = json.loads((proj / "evaluation.json").read_text())
    assert agg["n_both_axes_correct"] == 3


def test_generate_with_spec_file(tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "n_points": 6, "x_range": [0, 5], "y_range": [0, 2],
        "axis_style": "reversed_x"}))
    proj = tmp_path / "proj"
    assert run(["generate", "--outputDir", str(proj),
                "--seed", "9", "--spec", str(spec_file)]) == 0
    assert (proj / "fig-0009" / "figures" / "figure1" / "figure.svg").is_file()


def test_extract_with_config_override(tmp_path, capsys):
    proj = build_synthetic_project(tmp_path / "proj",
                                   [SyntheticSpec(seed=1, n_points=4)])
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("residual_gate_frac = 0.5\n")
    assert run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out"),
                "--config", str(cfg)]) == 0


def test_extract_with_removed_config_key(tmp_path, capsys):
    proj = build_synthetic_project(tmp_path / "proj",
                                   [SyntheticSpec(seed=1, n_points=4)])
    cfg = tmp_path / "old.cfg"
    cfg.write_text("jobs = 2\n")
    assert run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out"), "--config", str(cfg)]) == 1
    assert "unknown config key 'jobs'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1%", "nan", "inf", "0", "-1"])
def test_extract_with_bad_config_value(tmp_path, capsys, value):
    proj = build_synthetic_project(tmp_path / "proj",
                                   [SyntheticSpec(seed=1, n_points=4)])
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"tick_touch_tol = 1.0\nresidual_gate_frac = {value}\n")
    assert run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:2: ")
    assert not (tmp_path / "out").exists()


def test_import_leaves_process_pool_unloaded():
    # the pool modules take tens of ms to import: run_project imports them
    # only when it starts a pool, so that importing the command line does not
    code = ("import sys, vecfig.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(Path(vecfig.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout == "[]\n"
