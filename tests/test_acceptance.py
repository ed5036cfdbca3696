"""Acceptance suite: one test per release criterion, with a status line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from test_axis_detection import brute_force_match, random_matching_instance
from vecfig.axis_detection import (AxisSide, calibrate_axis,
                                   match_ticks_to_labels)
from vecfig.config import DEFAULT_CONFIG
from vecfig.errors import NonlinearScale
from vecfig.evaluate import (TABLE_COLUMNS, evaluate_figure, match_points,
                             render_table)
from vecfig.pipeline import (DEFAULT_FIGURE_FILTER, Status, extract_figure,
                             run_project, scan_project)
from vecfig.svg_model import parse_svg
from vecfig.synth import AxisStyle, SyntheticSpec, build_synthetic_project, \
    generate_scatter_svg

from test_axis_detection import STD_BOX, label, tick


def report(name: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def varied_spec(seed: int, style: AxisStyle = AxisStyle.STANDARD,
                max_points: int = 50) -> SyntheticSpec:
    """Deterministic per-seed spec with nice tick values and varied shape."""
    rng = random.Random(seed * 7919 + 17)

    def nice_range(n_ticks: int) -> tuple[float, float]:
        step = rng.choice([1.0, 2.0, 5.0]) * 10.0 ** rng.randint(-2, 3)
        lo = rng.randint(-20, 20) * step
        return (lo, lo + step * (n_ticks - 1))

    n_ticks_x = rng.randint(3, 8)
    n_ticks_y = rng.randint(3, 8)
    return SyntheticSpec(
        n_points=rng.randint(4, max_points),
        x_range=nice_range(n_ticks_x),
        y_range=nice_range(n_ticks_y),
        n_ticks_x=n_ticks_x,
        n_ticks_y=n_ticks_y,
        marker_radius=rng.choice([2.0, 3.0, 4.0]),
        axis_style=style,
        seed=seed,
    )


def run_one(tmp_path: Path, spec: SyntheticSpec):
    svg, truth = generate_scatter_svg(spec)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"figure-{spec.seed}.svg"
    path.write_bytes(svg)
    points, _, rep = extract_figure(path)
    return points, truth, rep


def coords_within_tolerance(points, truth, spec: SyntheticSpec,
                            frac: float = 0.005) -> bool:
    if len(points) != len(truth):
        return False
    extracted = [(p.x, p.y) for p in points]
    sx = spec.x_range[1] - spec.x_range[0]
    sy = spec.y_range[1] - spec.y_range[0]
    matches = match_points(truth, extracted, (sx, sy))
    if len(matches) != len(truth):
        return False
    return all(abs(truth[ti][0] - extracted[ei][0]) <= frac * sx
               and abs(truth[ti][1] - extracted[ei][1]) <= frac * sy
               for ti, ei in matches)


def test_inline_snippet_fidelity():
    start = time.perf_counter()
    data = (b'<svg xmlns="http://www.w3.org/2000/svg" width="300" height="300">'
            b'<circle cx="103.71" cy="121.22" r="25.234" fill-opacity="0" '
            b'stroke="#cf1d35" stroke-width=".26458"/></svg>')
    doc = parse_svg(data)
    elapsed = time.perf_counter() - start
    ok = (len(doc.circles) == 1
          and doc.circles.cx[0] == 103.71
          and doc.circles.cy[0] == 121.22
          and doc.circles.r[0] == 25.234
          and elapsed < 1.0)
    report("inline-snippet fidelity (exact decimals, < 1 s)", ok)


def test_synthetic_round_trip_200(tmp_path):
    start = time.perf_counter()
    good = 0
    total = 200
    for seed in range(1, total + 1):
        spec = varied_spec(seed)
        points, truth, rep = run_one(tmp_path, spec)
        if (rep.status is Status.OK and len(points) == len(truth)
                and coords_within_tolerance(points, truth, spec)):
            good += 1
    elapsed = time.perf_counter() - start
    ok = good >= 0.99 * total and elapsed < 30.0
    report(f"synthetic round-trip: {good}/{total} exact within 0.5% span "
           f"in {elapsed:.1f} s (need >= 99%, < 30 s)", ok)


def test_failure_mode_discrimination(tmp_path):
    start = time.perf_counter()
    n = 20
    log_ok = raster_ok = rev_ok = 0
    for seed in range(1, n + 1):
        points, _, rep = run_one(tmp_path / "log", varied_spec(seed, AxisStyle.LOG_X))
        if rep.status is Status.NONLINEAR_SCALE and not points:
            log_ok += 1
    for seed in range(1, n + 1):
        points, _, rep = run_one(tmp_path / "ras",
                                 varied_spec(seed, AxisStyle.RASTER_BODY))
        if rep.status is Status.RASTER_BODY and not points:
            raster_ok += 1
    for seed in range(1, n + 1):
        spec = varied_spec(seed, AxisStyle.REVERSED_X)
        points, truth, rep = run_one(tmp_path / "rev", spec)
        if (rep.status is Status.OK and rep.x_reversed
                and coords_within_tolerance(points, truth, spec)):
            rev_ok += 1
    elapsed = time.perf_counter() - start
    ok = log_ok == raster_ok == rev_ok == n and elapsed < 10.0
    report(f"failure-mode discrimination: log {log_ok}/{n}, raster {raster_ok}/{n}, "
           f"reversed {rev_ok}/{n} in {elapsed:.1f} s", ok)


def test_calibration_oracle_equivalence():
    rng = random.Random(101)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        xs = rng.sample(range(0, 2000), n)
        a, b = rng.uniform(-100, 100), rng.uniform(-10, 10)
        if b == 0:
            b = 1.0
        span = (max(xs) - min(xs)) * abs(b)
        noise = 0.0 if n == 2 else 0.001 * span
        ys = [a + b * x + rng.uniform(-noise, noise) for x in xs]
        cal = calibrate_axis([(tick(float(x)), label(y, x, 415))
                              for x, y in zip(xs, ys)], AxisSide.X_AXIS)
        design = np.column_stack([np.ones(n), np.array(xs, dtype=float)])
        (icpt_ref, slope_ref), *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
        rms_ref = float(np.sqrt(np.mean((design @ [icpt_ref, slope_ref] - ys) ** 2)))
        scale = max(abs(slope_ref), abs(icpt_ref), 1e-9)
        if (abs(cal.slope - slope_ref) > 1e-9 * max(abs(slope_ref), 1e-9)
                or abs(cal.intercept - icpt_ref) > 1e-9 * max(abs(icpt_ref), scale)
                or abs(cal.rms_residual - rms_ref) > 1e-9 * max(rms_ref, scale)):
            mismatches += 1

    # log-tick fixture: the oracle computes the residual the gate rejects
    xs, ys = [0.0, 100.0, 200.0], [1.0, 10.0, 100.0]
    coeffs = np.polyfit(xs, ys, 1)
    rms_ref = float(np.sqrt(np.mean((np.polyval(coeffs, xs) - ys) ** 2)))
    try:
        calibrate_axis([(tick(x), label(y, x, 415)) for x, y in zip(xs, ys)],
                       AxisSide.X_AXIS)
        rejected = False
    except NonlinearScale as exc:
        rejected = f"{rms_ref:.4g}" in str(exc)
    ok = mismatches == 0 and bool(rejected) and rms_ref > 0.01 * 99
    report(f"calibration oracle equivalence: 1000 sets, {mismatches} mismatches; "
           f"log fixture rejected with rms {rms_ref:.4g}", ok)


def test_matching_oracle_equivalence():
    rng = random.Random(202)
    mismatches = 0
    for _ in range(500):
        ticks, labels = random_matching_instance(rng)
        pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)
        positions = sorted(t.position for t in ticks)
        spacings = sorted(b - a for a, b in zip(positions, positions[1:]))
        med = median(spacings)
        in_window = [l for l in labels
                     if l.anchor.y > 400
                     and abs(l.anchor.y - 400) <= 3 * 4 + 2 * l.glyph_height]
        oracle = brute_force_match(ticks, in_window, lambda l: l.anchor.x, med / 2)
        got = {t.position: l.value for t, l in pairs}
        want = {ticks[ti].position: in_window[li].value for ti, li in oracle.items()}
        if got != want:
            mismatches += 1
    report(f"matching oracle equivalence: 500 instances, {mismatches} mismatches",
           mismatches == 0)


def test_evaluator_table_shape():
    truth22 = [(float(i), float(i % 7)) for i in range(22)]
    extracted24 = truth22 + [(0.0, 0.0), (1.0, 1.0)]  # overlap duplicates
    rec_overlap = evaluate_figure("10.1186/s13027-016-0058-9/figure1",
                                  extracted24, truth22, True)
    rec_none = evaluate_figure("empty/figure1", [],
                               [(1.0, 2.0)] * 5, False)
    table = render_table([rec_overlap, rec_none])
    lines = table.splitlines()
    ok = (lines[0] == ",".join(TABLE_COLUMNS)
          and TABLE_COLUMNS == ("figure", "data_extracted", "n_extracted",
                                "n_truth", "x_axis_correct", "y_axis_correct")
          # 'Data extracted': whether any datafile was generated
          and lines[1].split(",")[1] == "yes" and lines[2].split(",")[1] == "no"
          # '# extracted data points': rows in the datafile
          and lines[1].split(",")[2] == "24" and lines[1].split(",")[3] == "22"
          # 24-vs-22 overlap case judged correct on both axes
          and lines[1].endswith("yes,yes") and lines[2].endswith("no,no"))
    report("evaluator table shape incl. 24/22 overlap fixture", ok)


def _hash_tree(root: Path, skip=("summary.json",)) -> dict[str, str]:
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in skip}


def test_determinism_and_batch_isolation(tmp_path):
    specs = [varied_spec(s, max_points=12) for s in (1, 2, 3)]
    specs.append(varied_spec(4, AxisStyle.RASTER_BODY))
    root = build_synthetic_project(tmp_path / "proj", specs)

    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out1)
    run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out2)
    deterministic = (_hash_tree(out1, skip=()) == _hash_tree(out2, skip=()))

    failing_tree = f"fig-{specs[-1].seed:04d}"
    shutil.rmtree(root / failing_tree)
    out3 = tmp_path / "o3"
    run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out3)
    kept = {k: v for k, v in _hash_tree(out1).items()
            if not k.startswith(failing_tree)}
    isolated = kept == _hash_tree(out3)
    report(f"determinism ({deterministic}) and batch isolation ({isolated})",
           deterministic and isolated)


def test_published_corpus_row_counts():
    corpus = os.environ.get("VECFIG_CORPUS_CLIPPED")
    if not corpus or not Path(corpus).is_dir():
        pytest.skip("published corpus-clipped/ not supplied; "
                    "property suites constitute acceptance")
