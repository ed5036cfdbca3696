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
        SyntheticSpec(seed=2, n_points=4, axis_style=AxisStyle.RASTER_BODY),
        SyntheticSpec(seed=3, n_points=4)])
    (proj / "fig-0003" / "figures" / "figure1" / "figure.svg").write_text(
        '<html xmlns="http://www.w3.org/1999/xhtml"><body/></html>')
    code = run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out")])
    assert code == 2
    out = capsys.readouterr().out.splitlines()
    assert "fig-0002/figure1: raster_body (0 points)" in out
    # a root that is not <svg> is parse_error, and its report names the root
    assert "fig-0003/figure1: parse_error (0 points)" in out
    report = json.loads((tmp_path / "out" / "fig-0003" / "figures" / "figure1"
                         / "report.json").read_text(encoding="utf-8"))
    assert report["warnings"][-1] == "root element is <html>, not <svg>"


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
    assert "both axes correct: 3/3\naxes and count correct: 3/3\n" in out
    assert (proj / "evaluation.csv").is_file()
    agg = json.loads((proj / "evaluation.json").read_text())
    assert agg["n_both_axes_correct"] == agg["n_all_correct"] == 3


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


@pytest.mark.parametrize("subcommand", ["extract", "make-project"])
def test_filter_that_does_not_compile(tmp_path, capsys, subcommand):
    proj = build_synthetic_project(tmp_path / "proj", [SyntheticSpec(seed=1, n_points=4)])
    flags = (["--outputDir", str(tmp_path / "out")] if subcommand == "extract"
             else ["--makeProject", r"(\1)/fulltext.pdf"])
    assert run([subcommand, "--project", str(proj), "--fileFilter", "("] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: filter '(' does not compile: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("figure_filter", [
    r"^.*/(?:figure(\d+)/figure|figure\d+/(b))\.svg$", r"^.*/figure1/(\w+)\.svg$"])
def test_filter_whose_index_is_not_an_integer(tmp_path, capsys, figure_filter):
    proj = build_synthetic_project(tmp_path / "proj", [SyntheticSpec(seed=1, n_points=4)])
    fig_dir = proj / "fig-0001" / "figures" / "figure1"
    (fig_dir / "b.svg").write_bytes((fig_dir / "figure.svg").read_bytes())
    assert run(["extract", "--project", str(proj), "--outputDir", str(tmp_path / "out"),
                "--fileFilter", figure_filter]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: figure filter {figure_filter!r}: group 1 of ")
    assert err.endswith(", not an integer index\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("style", ["log_x", "standard"])
def test_generate_style_and_spec_exclude_each_other(tmp_path, capsys, style):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"n_points": 6}')
    assert run(["generate", "--outputDir", str(tmp_path / "proj"),
                "--style", style, "--spec", str(spec_file)]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "proj").exists()


@pytest.mark.parametrize("spec,message", [
    ('{"n_point": 6}', "unknown spec key 'n_point'"),
    ('{"n_points": 6', "Expecting ',' delimiter"),
    ('{"n_points": 0}', "n_points must be >= 1"),
    ('[6]', "expected a JSON object of SyntheticSpec fields"),
    ('{"n_points": "a"}', "n_points must be an integer, got 'a'"),
    ('{"x_range": 5}', "x_range must be two finite numbers, got 5"),
    ('{"n_points": 2.5}', "n_points must be an integer, got 2.5"),
    ('{"marker_radius": "3"}', "marker_radius must be a finite number, got '3'"),
    ('{"canvas": [600]}', "canvas must be two finite numbers, got [600]"),
    ('{"x_range": [0, 1e999]}', "x_range must be two finite numbers, got [0, inf]"),
    ('{"axis_style": "log"}', "'log' is not a valid AxisStyle"),
    ('{"x_range": [-1e308, 1e308]}', "x_range [-1e+308, 1e+308] is too wide"),
    ('{"canvas": [50, 40]}', "canvas must be wider than 85 and taller than 75, got [50, 40]"),
    ('{"axis_style": "log_x", "n_ticks_x": 400}', "n_ticks_x must be <= 309 for log_x, got 400"),
], ids=["unknown-key", "malformed-json", "bad-value", "not-an-object", "string-count",
        "number-for-pair", "float-count", "string-radius", "one-item-pair",
        "infinite-range", "unknown-style", "overflowing-span", "canvas-within-margins",
        "log-ladder-overflow"])
def test_generate_with_bad_spec(tmp_path, capsys, spec, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spec)
    assert run(["generate", "--outputDir", str(tmp_path / "proj"),
                "--spec", str(spec_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "proj").exists()


@pytest.mark.parametrize("target", [
    "figure1", "figure1/figure.csv", "figure1/figure_annotated.svg", "figure1/report.json"],
    ids=["folder-is-a-file", "csv", "svg", "report"])
def test_extract_with_unwritable_figure_output(tmp_path, capsys, target):
    proj = build_synthetic_project(
        tmp_path / "proj", [SyntheticSpec(seed=s, n_points=4) for s in (1, 2)])
    path = tmp_path / "out" / "fig-0001" / "figures" / target
    if target == "figure1":
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
    else:
        path.mkdir(parents=True)
    assert run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == ("fig-0001/figure1: write_error (0 points)\n"
                                       "fig-0002/figure1: ok (4 points)\n")


def test_extract_with_unwritable_summary(tmp_path, capsys):
    proj = build_synthetic_project(
        tmp_path / "proj", [SyntheticSpec(seed=s, n_points=4) for s in (1, 2)])
    (tmp_path / "out" / "summary.json").mkdir(parents=True)
    assert run(["extract", "--project", str(proj),
                "--outputDir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "out" / "summary.json") in err
    assert "Traceback" not in err


def _extracted(tmp_path) -> tuple[Path, Path]:
    """Two figures extracted to a root apart from the one their truth is in."""
    proj = build_synthetic_project(
        tmp_path / "proj", [SyntheticSpec(seed=s, n_points=4) for s in (1, 2)])
    out = tmp_path / "out"
    assert run(["extract", "--project", str(proj), "--outputDir", str(out)]) == 0
    return proj, out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
def test_evaluate_with_bad_tolerance(tmp_path, capsys, tolerance):
    proj, out = _extracted(tmp_path)
    capsys.readouterr()
    assert run(["evaluate", "--outputDir", str(out), "--truthDir", str(proj),
                "--tolerance", tolerance]) == 1
    assert capsys.readouterr().err == (
        f"error: tolerance must be finite and > 0, got {float(tolerance)!r}\n")
    assert not (out / "evaluation.json").exists()


def test_evaluate_with_truth_dir(tmp_path, capsys):
    proj, out = _extracted(tmp_path)
    capsys.readouterr()
    assert run(["evaluate", "--outputDir", str(out), "--truthDir", str(proj)]) == 0
    assert "both axes correct: 2/2" in capsys.readouterr().out
    # without it the truth is looked for beside the outputs, where there is none
    assert run(["evaluate", "--outputDir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: no truth file ")
    assert captured.out == ""


@pytest.mark.parametrize("text,message", [
    ("{}", "missing field 'tree_id'"),
    ("[]", "expected a JSON object, got list"),
    (None, "'bogus' is not a valid Status"),
], ids=["empty-object", "not-an-object", "unknown-status"])
def test_evaluate_with_malformed_report(tmp_path, capsys, text, message):
    proj, out = _extracted(tmp_path)
    stray = out / "stray" / "report.json"
    stray.parent.mkdir()
    if text is None:
        report = json.loads((out / "fig-0001" / "figures" / "figure1"
                             / "report.json").read_text(encoding="utf-8"))
        text = json.dumps({**report, "status": "bogus"})
    stray.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--outputDir", str(out), "--truthDir", str(proj)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {stray}: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name,row,message", [
    ("truth.csv", "1,abc", "could not convert string to float: 'abc'"),
    ("figure.csv", "1,abc,2", "could not convert string to float: 'abc'"),
    ("truth.csv", "5", "expected at least two cells, got '5'"),
    ("truth.csv", "nan,1", "not a finite number in 'nan,1'"),
    ("truth.csv", "1,inf", "not a finite number in '1,inf'"),
    ("figure.csv", "1e999,1,2", "not a finite number in '1e999,1,2'"),
], ids=["truth-bad-cell", "figure-bad-cell", "one-cell-row", "truth-nan", "truth-inf",
        "figure-overflow"])
def test_evaluate_with_unreadable_csv(tmp_path, capsys, name, row, message):
    proj, out = _extracted(tmp_path)
    path = (proj if name == "truth.csv" else out) / "fig-0002" / "figures" / "figure1" / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = row
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--outputDir", str(out), "--truthDir", str(proj)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:3: {message}\n"
    assert captured.out == ""
    assert not (out / "evaluation.json").exists()
