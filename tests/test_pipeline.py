from __future__ import annotations

import concurrent.futures
import errno
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import circles_of, glyphs_of, svg_bytes
from vecfig import axis_detection, cli, pipeline
from vecfig.axis_detection import AxisSide, detect_plot_box
from vecfig.config import DEFAULT_CONFIG, PipelineConfig, load_config
from vecfig.errors import BadFilter, DestinationCollision
from vecfig.pipeline import (DEFAULT_FIGURE_FILTER, ExtractionReport, Status,
                             _num, enumerate_figures, extract_figure,
                             make_project, read_csv_points, run_project,
                             scan_project, write_csv)
from vecfig.point_extraction import DataPoint
from vecfig.svg_model import IDENTITY, SVG_NS, parse_svg
from vecfig.synth import (AxisStyle, SyntheticSpec, build_synthetic_project,
                          generate_scatter_svg)


def pt(x, y, r=2.0, sid="a") -> DataPoint:
    return DataPoint(x, y, r, sid)


class TestMakeProject:
    def test_single_pdf(self, tmp_path):
        (tmp_path / "paperA.pdf").write_bytes(b"%PDF")
        project = make_project(tmp_path, r".*/(.*)\.pdf", r"(\1)/fulltext.pdf")
        assert (tmp_path / "paperA" / "fulltext.pdf").is_file()
        assert [t.id for t in project.trees] == ["paperA"]
        assert project.trees[0].fulltext is not None

    def test_empty_root(self, tmp_path):
        project = make_project(tmp_path, r".*/(.*)\.pdf", r"(\1)/fulltext.pdf")
        assert project.trees == []

    def test_collision_aborts_before_moving(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        (tmp_path / "x" / "a.pdf").write_bytes(b"1")
        (tmp_path / "y" / "a.pdf").write_bytes(b"2")
        # oracle: both substitute to a/fulltext.pdf
        substituted = {re.match(r".*/(.*)\.pdf", p.as_posix()).group(1)
                       for p in [tmp_path / "x" / "a.pdf", tmp_path / "y" / "a.pdf"]}
        assert substituted == {"a"}
        with pytest.raises(DestinationCollision):
            make_project(tmp_path, r".*/(.*)\.pdf", r"(\1)/fulltext.pdf")
        assert (tmp_path / "x" / "a.pdf").is_file()  # nothing moved
        assert (tmp_path / "y" / "a.pdf").is_file()

    def test_template_group_out_of_range(self, tmp_path):
        from vecfig.errors import TemplateGroupOutOfRange
        (tmp_path / "a.pdf").write_bytes(b"1")
        with pytest.raises(TemplateGroupOutOfRange):
            make_project(tmp_path, r".*/(.*)\.pdf", r"(\2)/fulltext.pdf")


def make_figure(root: Path, tree: str, index: int, svg: bytes = b"") -> Path:
    fig_dir = root / tree / "figures" / f"figure{index}"
    fig_dir.mkdir(parents=True, exist_ok=True)
    path = fig_dir / "figure.svg"
    path.write_bytes(svg or b'<svg xmlns="http://www.w3.org/2000/svg"/>')
    return path


class TestEnumerateFigures:
    def test_two_figures_one_tree(self, tmp_path):
        make_figure(tmp_path, "t1", 1)
        make_figure(tmp_path, "t1", 2)
        project = scan_project(tmp_path)
        out = enumerate_figures(project, DEFAULT_FIGURE_FILTER)
        assert [(t.id, i) for t, i, _ in out] == [("t1", 1), ("t1", 2)]

    def test_no_matches(self, tmp_path):
        (tmp_path / "t1").mkdir()
        project = scan_project(tmp_path)
        assert enumerate_figures(project, DEFAULT_FIGURE_FILTER) == []

    def test_numeric_ordering(self, tmp_path):
        make_figure(tmp_path, "t1", 10)
        make_figure(tmp_path, "t1", 2)
        project = scan_project(tmp_path)
        out = enumerate_figures(project, DEFAULT_FIGURE_FILTER)
        # numeric, not lexicographic: sorted(["figure10","figure2"]) would invert
        assert [i for _, i, _ in out] == [2, 10]

    def test_bad_filter(self, tmp_path):
        make_figure(tmp_path, "t1", 1)
        project = scan_project(tmp_path)
        with pytest.raises(BadFilter):
            enumerate_figures(project, r".*figure\d+/figure\.svg")

    def test_underscore_suffix_variant(self, tmp_path):
        fig_dir = tmp_path / "t1" / "figures" / "figure3"
        fig_dir.mkdir(parents=True)
        (fig_dir / "figure_1.svg").write_bytes(
            b'<svg xmlns="http://www.w3.org/2000/svg"/>')
        project = scan_project(tmp_path)
        out = enumerate_figures(project, DEFAULT_FIGURE_FILTER)
        assert [i for _, i, _ in out] == [3]

    MIXED_TREE = [
        "t1/figures/figure1/figure.svg",
        "t1/figures/figure1/figure_2.svg",
        "t1/figures/figure10/figure.svg",
        "t1/figures/figure2/figure.svg",
        "t1/figures/figure2/notes.svg",
        "t1/figures/figureX/figure.svg",
        "t1/extra/figures/figure7/figure.svg",
        "t1/figure5.svg",
        "t2/figures/figure3/figure.svg",
        "t2/figures/figure3/figure_1.svg",
        "t2/other.svg",
    ]

    @pytest.mark.parametrize("figure_filter, expected", [
        (DEFAULT_FIGURE_FILTER, [
            ("t1", 1, "t1/figures/figure1/figure.svg"),
            ("t1", 1, "t1/figures/figure1/figure_2.svg"),
            ("t1", 2, "t1/figures/figure2/figure.svg"),
            ("t1", 7, "t1/extra/figures/figure7/figure.svg"),
            ("t1", 10, "t1/figures/figure10/figure.svg"),
            ("t2", 3, "t2/figures/figure3/figure.svg"),
            ("t2", 3, "t2/figures/figure3/figure_1.svg"),
        ]),
        (r"^.*/figures/figure(\d+)/figure\.svg$", [
            ("t1", 1, "t1/figures/figure1/figure.svg"),
            ("t1", 2, "t1/figures/figure2/figure.svg"),
            ("t1", 7, "t1/extra/figures/figure7/figure.svg"),
            ("t1", 10, "t1/figures/figure10/figure.svg"),
            ("t2", 3, "t2/figures/figure3/figure.svg"),
        ]),
        (r"^.*figure(\d+)(/figure_\d+)?\.svg$", [
            ("t1", 1, "t1/figures/figure1/figure_2.svg"),
            ("t1", 5, "t1/figure5.svg"),
            ("t2", 3, "t2/figures/figure3/figure_1.svg"),
        ]),
    ])
    def test_mixed_tree(self, tmp_path, figure_filter, expected):
        for rel in self.MIXED_TREE:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_bytes(b'<svg xmlns="http://www.w3.org/2000/svg"/>')
        out = enumerate_figures(scan_project(tmp_path), figure_filter)
        assert [(t.id, i, p.relative_to(tmp_path).as_posix())
                for t, i, p in out] == expected


class TestWriteCsv:
    def test_single_point(self, tmp_path):
        dest = tmp_path / "out.csv"
        write_csv([pt(10, 0.5, 2)], dest)
        assert dest.read_bytes() == b"x,y,device_radius\n10,0.5,2\n"

    def test_empty_list(self, tmp_path):
        dest = tmp_path / "out.csv"
        write_csv([], dest)
        assert dest.read_bytes() == b"x,y,device_radius\n"

    def test_line_count(self, tmp_path):
        dest = tmp_path / "out.csv"
        write_csv([pt(i, i) for i in range(23)], dest)
        assert len(dest.read_text().splitlines()) == 24

    def test_numbers_round_trip(self, tmp_path):
        dest = tmp_path / "out.csv"
        values = [1 / 3, 1e-7, 123456789.0, -2.5, 0.1]
        write_csv([pt(v, v) for v in values], dest)
        for (x, y, _), v in zip(read_csv_points(dest), values):
            assert x == pytest.approx(v, rel=1e-9)
        body = dest.read_text()
        for cell in body.splitlines()[1:]:
            for num in cell.split(",")[:2]:
                digits = re.sub(r"[^0-9]", "", num.split("e")[0]).lstrip("0")
                assert len(digits) <= 9


def old_num(value: float) -> str:
    """Oracle: the 9-significant-digit value through float, int and repr."""
    target = float(f"{value:.9g}")
    if target == int(target) and abs(target) < 1e16:
        return str(int(target))
    return repr(target)


class TestNumFormat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=2000, deadline=None)
    def test_equals_round_trip_formula(self, value):
        assert _num(value) == old_num(value)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, 1e-5, 1.5e-5, 0.0001234, 123456789.0,
        999999999.5, 1e9 - 0.5, 1e9 + 1, 1234567891.0, 1e16, 1e16 - 2, -1e16, 1e17,
        9999999995.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
    def test_edge_values(self, value):
        assert _num(value) == old_num(value)


class TestExtractFigure:
    def test_synthetic_round_trip(self, tmp_path):
        spec = SyntheticSpec(n_points=7, seed=42)
        svg, truth = generate_scatter_svg(spec)
        path = tmp_path / "figure.svg"
        path.write_bytes(svg)
        points, annotated, report = extract_figure(path)
        assert report.status is Status.OK
        assert len(points) == 7
        xs_true = sorted(x for x, _ in truth)
        xs_got = sorted(p.x for p in points)
        for a, b in zip(xs_true, xs_got):
            assert b == pytest.approx(a, abs=0.005 * 10.0)

    def test_raster_body_status(self, tmp_path):
        svg, _ = generate_scatter_svg(
            SyntheticSpec(seed=1, axis_style=AxisStyle.RASTER_BODY))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg)
        points, _, report = extract_figure(path)
        assert report.status is Status.RASTER_BODY
        assert points == []

    def test_log_axis_status(self, tmp_path):
        svg, _ = generate_scatter_svg(
            SyntheticSpec(seed=1, axis_style=AxisStyle.LOG_X))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg)
        points, _, report = extract_figure(path)
        assert report.status is Status.NONLINEAR_SCALE
        assert points == []

    def test_no_axes_status(self, tmp_path):
        path = tmp_path / "figure.svg"
        path.write_bytes(b'<svg xmlns="http://www.w3.org/2000/svg" '
                         b'width="100" height="100">'
                         b'<circle cx="50" cy="50" r="3"/></svg>')
        points, annotated, report = extract_figure(path)
        assert report.status is Status.NO_AXES
        assert points == []
        assert annotated == path.read_bytes()  # no plot box, nothing to draw

    @pytest.mark.parametrize("drop,status,warning", [
        # no x labels: the y axis's bottom label near the corner is not one
        (rb'<text [^>]* y="416"[^>]*>[^<]*</text>', Status.TOO_FEW_TICKS,
         "x_axis: only 0 tick-label pair(s)"),
        (rb"<circle [^>]*>", Status.NO_DATA_GLYPHS, "figure contains no circles"),
    ])
    def test_stage_error_status(self, tmp_path, drop, status, warning):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(re.sub(drop, b"", svg))
        points, _, report = extract_figure(path)
        assert (points, report.status, report.warnings[-1]) == ([], status, warning)

    @pytest.mark.parametrize("edit,warnings", [
        (lambda svg: svg.replace(b'viewBox="0 0 600 450"', b'viewBox="0 0 1e999 450"'), []),
        (lambda svg: svg.replace(b'viewBox="0 0 600 450"', b'viewBox="1e308 0 1e308 450"'), []),
        (lambda svg: svg.replace(b' viewBox="0 0 600 450"', b"")
         .replace(b'width="600"', b'width="1e999"'),
         ["no viewBox/width/height; canvas from content bounds"]),
    ], ids=["infinite_viewbox_width", "viewbox_end_overflows", "infinite_width"])
    def test_non_finite_canvas_size_passed_over(self, tmp_path, edit, warnings):
        # an infinite canvas used to leave every primitive far out of it
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=3))
        plain, edited = tmp_path / "plain.svg", tmp_path / "edited.svg"
        plain.write_bytes(svg)
        edited.write_bytes(edit(svg))
        want, _, _ = extract_figure(plain)
        got, _, report = extract_figure(edited)
        assert (report.status, report.warnings) == (Status.OK, warnings)
        write_csv(want, tmp_path / "plain.csv")
        write_csv(got, tmp_path / "edited.csv")
        assert (tmp_path / "edited.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert len(got) == 6

    @pytest.mark.parametrize("size", [b"1e155", b"1e308"],
                             ids=["area_overflows", "fractions_underflow"])
    def test_huge_canvas_keeps_the_longest_axes(self, tmp_path, size):
        # a 20 x 30 legend corner below the axes: when every pair scored 0,
        # the tie-break picked it for its lower corner
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=3))
        svg = svg.replace(b"</svg>", b'<line x1="500" y1="440" x2="500" y2="410"/>'
                          b'<line x1="500" y1="440" x2="520" y2="440"/></svg>')
        plain, edited = tmp_path / "plain.svg", tmp_path / "edited.svg"
        plain.write_bytes(svg)
        edited.write_bytes(svg.replace(b'viewBox="0 0 600 450"',
                                       b'viewBox="0 0 ' + size + b" " + size + b'"'))
        want, _, _ = extract_figure(plain)
        got, _, report = extract_figure(edited)
        assert (report.status, report.warnings) == (Status.OK, [])
        assert got == want and len(got) == 6

    @pytest.mark.parametrize("hostile", [
        # math.cos / math.tan of an infinite angle raise a bare ValueError
        lambda svg: svg.replace(b"<circle ", b'<circle transform="rotate(1e400)" ', 1),
        lambda svg: svg.replace(b"<circle ", b'<circle transform="skewX(1e400)" ', 1),
        # deeper than the interpreter's recursion limit
        lambda svg: svg.replace(b"<circle ", b"<g>" * 1200 + b"<circle ", 1).replace(
            b"</svg>", b"</g>" * 1200 + b"</svg>"),
        # each attribute is finite and invertible, their product is not
        lambda svg: svg.replace(
            b"<circle ", b'<g transform="rotate(45) scale(1e200)"><g transform='
            b'"scale(1e200) rotate(45)"><circle cx="1" cy="1" r="1"/></g></g><circle ', 1),
        lambda svg: svg.replace(
            b"<circle ", b'<g transform="scale(1e-100)"><g transform="scale(1e-100)">'
            b'<line x1="1" y1="1" x2="2" y2="2"/></g></g><circle ', 1),
    ], ids=["rotate_inf", "skew_inf", "nested_1200", "composed_overflow",
            "composed_singular"])
    def test_hostile_input_is_parse_error(self, tmp_path, hostile):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(hostile(svg))
        points, annotated, report = extract_figure(path)
        assert (points, report.status) == ([], Status.PARSE_ERROR)
        assert annotated == path.read_bytes()

    def test_global_transform_invariance(self, tmp_path):
        spec = SyntheticSpec(n_points=8, seed=21)
        svg, _ = generate_scatter_svg(spec)
        base = tmp_path / "base.svg"
        base.write_bytes(svg)
        base_points, _, base_report = extract_figure(base)
        assert base_report.status is Status.OK
        for s, tx, ty in ((1.7, 30.0, -12.0), (0.6, -15.0, 40.0)):
            body = svg.split(b">", 2)[2]  # after xml decl and <svg ...>
            head = svg[:len(svg) - len(body) - 1] + b">"
            wrapped = (head
                       + f'<g transform="matrix({s},0,0,{s},{tx},{ty})">'.encode()
                       + body.replace(b"</svg>", b"</g></svg>"))
            moved = tmp_path / f"moved-{s}.svg"
            moved.write_bytes(wrapped)
            points, _, report = extract_figure(moved)
            assert report.status is Status.OK
            assert len(points) == len(base_points)
            for a, b in zip(base_points, points):
                assert b.x == pytest.approx(a.x, rel=1e-6, abs=1e-6)
                assert b.y == pytest.approx(a.y, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("x_labels,status,warned", [
        ((("1", 50), ("100", 500)), Status.OK, True),
        ((("1", 50), ("10", 275), ("100", 500)), Status.NONLINEAR_SCALE, False),
    ])
    def test_two_tick_axis_flagged_unverified(self, tmp_path, x_labels, status, warned):
        # a log x axis: labelled only at its ends it fits a line exactly,
        # with its middle decade the residual gate rejects it
        body = ('<line x1="50" y1="400" x2="50" y2="50"/>'
                '<line x1="50" y1="400" x2="500" y2="400"/>'
                + "".join(f'<line x1="{x}" y1="400" x2="{x}" y2="405"/>'
                          f'<text x="{x - 2}" y="412" font-size="8">{text}</text>'
                          for text, x in x_labels)
                + "".join(f'<line x1="45" y1="{y}" x2="50" y2="{y}"/>'
                          f'<text x="30" y="{y + 3}" font-size="8">{v}</text>'
                          for v, y in ((0, 400), (1, 225), (2, 50)))
                + '<circle cx="100" cy="300" r="3"/><circle cx="300" cy="150" r="3"/>')
        path = tmp_path / "figure.svg"
        path.write_bytes(svg_bytes(body))
        points, _, report = extract_figure(path)
        assert report.status is status
        assert ("linearity_unverified: x_axis" in report.warnings) is warned
        assert "linearity_unverified: y_axis" not in report.warnings
        if warned:
            assert len(points) == 2

    @staticmethod
    def _x_pairs(svg: bytes) -> list:
        doc = parse_svg(svg)
        box = detect_plot_box(doc, DEFAULT_CONFIG)
        ticks = axis_detection.detect_ticks(doc, box)
        labels = [lab for run in doc.texts
                  if (lab := axis_detection.parse_numeric_label(run))]
        return axis_detection.match_ticks_to_labels(ticks, labels, box, AxisSide.X_AXIS)

    def test_unlabelled_x_tick_leaves_y_label_alone(self, tmp_path):
        # the y axis's bottom label "0" sits 3 below the x axis and 30 left
        # of the first x tick, whose own label "5" is gone: it is 3 from its
        # y tick, so it belongs to the y axis
        svg, truth = generate_scatter_svg(
            SyntheticSpec(seed=3, x_range=(5, 15), n_ticks_x=5))
        source = re.sub(rb'<text [^>]* y="416"[^>]*>5</text>', b"", svg)
        assert len(source) < len(svg)
        assert [l.value for _, l in self._x_pairs(source)] == [7.5, 10, 12.5, 15]
        path = tmp_path / "figure.svg"
        path.write_bytes(source)
        points, _, report = extract_figure(path)
        assert report.status is Status.OK
        assert sorted(p.x for p in points) == pytest.approx(
            sorted(x for x, _ in truth), abs=0.005 * 10)

    @pytest.mark.parametrize("old,new", [
        (b'font-size="10"', b'style="font-size: 10.0.1"'),  # tick labels read 10
        (b"<circle ", b'<circle style="font-size: 1.2.3" '),
    ], ids=["text", "circle"])
    def test_malformed_inline_font_size(self, tmp_path, old, new):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg.replace(old, new))
        points, _, report = extract_figure(path)
        assert report.status is Status.OK and len(points) == 5

    def test_annotated_svg_conservatism(self, tmp_path):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg)
        _, annotated, report = extract_figure(path)
        assert report.status is Status.OK
        original = parse_svg(svg)
        redone = parse_svg(annotated)
        orig_circles = set(zip(original.circles.cx, original.circles.cy, original.circles.r))
        new_circles = set(zip(redone.circles.cx, redone.circles.cy, redone.circles.r))
        assert orig_circles <= new_circles  # originals untouched, overlays added
        orig_segs = set(zip(original.segments.x1, original.segments.y1,
                            original.segments.x2, original.segments.y2))
        new_segs = set(zip(redone.segments.x1, redone.segments.y1,
                           redone.segments.x2, redone.segments.y2))
        assert orig_segs <= new_segs


class TestAnnotatedSvg:
    """The overlay is spliced into the source bytes, in device coordinates."""

    @staticmethod
    def _extract(tmp_path, svg: bytes):
        path = tmp_path / "figure.svg"
        path.write_bytes(svg)
        return extract_figure(path)

    @pytest.mark.parametrize("edit", [
        lambda svg: re.sub(rb' id="pt\d+"', b"", svg),
        lambda svg: re.sub(rb"(<circle [^>]*>)",
                           rb'<g transform="matrix(0.98,0,0,0.98,8,-2)">\1</g>', svg),
        lambda svg: svg.replace(
            b"viewBox=", b'transform="translate(10,5) scale(1.2)" viewBox=', 1),
    ], ids=["markers_without_id", "markers_in_transformed_group", "root_transform"])
    def test_overlay_drawn_in_device_space(self, tmp_path, edit):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=11))
        source = edit(svg)
        points, annotated, report = self._extract(tmp_path, source)
        assert report.status is Status.OK and points
        before, after = parse_svg(source), parse_svg(annotated)
        # the overlay closes the root, so its primitives are parsed last
        rings = circles_of(after.circles)[len(before.circles):]
        centers = {c.id: c.center for c in circles_of(before.circles)}
        for p in points:
            center = centers[p.source_id]
            assert any(ring.center.distance_to(center) < 1e-6
                       and ring.radius == pytest.approx(p.device_radius + 1.5, abs=1e-6)
                       for ring in rings)
        inner = detect_plot_box(before, DEFAULT_CONFIG).interior
        corners = [(inner.x0, inner.y0), (inner.x1, inner.y0),
                   (inner.x1, inner.y1), (inner.x0, inner.y1)]
        box_sides = [((s.p1.x, s.p1.y), (s.p2.x, s.p2.y))
                     for s in glyphs_of(after.segments)[len(before.segments):]]
        want = [(corners[k], corners[(k + 1) % 4]) for k in range(4)]
        assert len(box_sides) == 4
        for got, exp in zip(box_sides, want):
            assert [*got[0], *got[1]] == pytest.approx([*exp[0], *exp[1]], abs=1e-6)

    def test_source_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        fromstring = ET.fromstring

        def counting(data, *args, **kwargs):
            calls.append(len(data))
            return fromstring(data, *args, **kwargs)

        monkeypatch.setattr(ET, "fromstring", counting)
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        _, _, report = self._extract(tmp_path, svg)
        assert report.status is Status.OK
        assert calls == [len(svg)]

    @pytest.mark.parametrize("style", list(AxisStyle))
    def test_overlay_spliced_before_root_end_tag(self, tmp_path, style):
        svg, _ = generate_scatter_svg(
            SyntheticSpec(n_points=5, seed=4, axis_style=style))
        _, annotated, _ = self._extract(tmp_path, svg)
        i = svg.rindex(b"</svg>")
        overlay = annotated[i:i + len(annotated) - len(svg)]
        assert annotated == svg[:i] + overlay + svg[i:]
        assert re.fullmatch(rb'<g xmlns="http://www.w3.org/2000/svg" '
                            rb'id="vecfig-overlay" fill="none"><rect [^<>]*/>'
                            rb"(<circle [^<>]*/>)+</g>", overlay)

    def test_prefixed_root_with_nested_svg(self, tmp_path):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=4))
        source = (svg.replace(b"<svg ", b'<s:svg xmlns:s="http://www.w3.org/2000/svg" ', 1)
                  .replace(b"</svg>", b"<svg></svg></s:svg>"))
        _, annotated, report = self._extract(tmp_path, source)
        assert report.status is Status.OK
        i = source.rindex(b"</s:svg>")
        overlay = annotated[i:-len(b"</s:svg>")]
        assert annotated == source[:i] + overlay + source[i:]
        assert overlay.startswith(b'<g xmlns="http://www.w3.org/2000/svg" id="vecfig-overlay"')
        assert (len(parse_svg(annotated).circles)
                == len(parse_svg(source).circles) + overlay.count(b"<circle "))

    def test_source_without_ascii_end_tag_unchanged(self, tmp_path):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        source = (svg.decode("utf-8")
                  .replace('encoding="UTF-8"', 'encoding="UTF-16"').encode("utf-16"))
        points, annotated, report = self._extract(tmp_path, source)
        assert report.status is Status.OK and len(points) == 5
        assert annotated == source


def annotate_svg_oracle(svg_bytes: bytes, detected: pipeline._Detected) -> bytes:
    """The splice as first written: every root end tag found, the last one
    used, and the result built by concatenation."""
    box = detected.box
    ends = [m.start() for m in pipeline._ROOT_END_RE.finditer(svg_bytes)]
    if box is None or not ends:
        return svg_bytes

    def ring(x: float, y: float, r: float, color: str) -> str:
        return (f'<circle cx="{_num(x)}" cy="{_num(y)}" r="{_num(r)}" '
                f'stroke="{color}" stroke-width="0.8"/>')

    inner = box.interior
    transform = ""
    if detected.root_transform != IDENTITY:
        inverse = astuple(detected.root_transform.inverse())
        transform = f' transform="matrix({",".join(map(_num, inverse))})"'
    parts = [f'<g xmlns="{SVG_NS}" id="vecfig-overlay" fill="none"{transform}>',
             f'<rect x="{_num(inner.x0)}" y="{_num(inner.y0)}" '
             f'width="{_num(inner.width)}" height="{_num(inner.height)}" '
             f'stroke="#d62728" stroke-width="1" stroke-dasharray="4 2"/>']
    for tick in detected.ticks:
        if tick.side is AxisSide.X_AXIS:
            parts.append(ring(tick.position, inner.y1, 2, "#2ca02c"))
        else:
            parts.append(ring(inner.x0, tick.position, 2, "#2ca02c"))
    for _, label in detected.labels:
        parts.append(ring(label.anchor.x, label.anchor.y, 3, "#1f77b4"))
    markers = detected.markers
    for x, y, r in zip(markers.cx, markers.cy, markers.r):
        parts.append(ring(x, y, r + 1.5, "#ff7f0e"))
    parts.append("</g>")
    overlay = "".join(parts).encode("ascii")
    i = ends[-1]
    return svg_bytes[:i] + overlay + svg_bytes[i:]


def detected_of(tmp_path: Path, monkeypatch, svg: bytes
                ) -> tuple[Status, pipeline._Detected]:
    """The status of ``svg`` and the structure its overlay draws."""
    seen = []
    annotate = pipeline._annotate_svg
    monkeypatch.setattr(pipeline, "_annotate_svg",
                        lambda source, detected: seen.append(detected)
                        or annotate(source, detected))
    path = tmp_path / "figure.svg"
    path.write_bytes(svg)
    _, _, report = extract_figure(path)
    monkeypatch.setattr(pipeline, "_annotate_svg", annotate)
    return report.status, seen[0]


def _utf16(svg: bytes) -> bytes:
    return (svg.decode("utf-8").replace('encoding="UTF-8"', 'encoding="UTF-16"')
            .encode("utf-16"))


class TestAnnotateSplice:
    """One buffer, the end tag searched back from the end: the same bytes
    as the oracle's scan of every end tag and concatenation."""

    @pytest.mark.parametrize("edit", [
        lambda svg: svg,
        lambda svg: (svg.replace(b"<svg ", b'<svg:svg xmlns:svg="http://www.w3.org/2000/svg" ', 1)
                     .replace(b"</svg>", b"</svg:svg>")),
        lambda svg: svg.replace(b"</svg>", b"<svg><line x1='0' y1='0' x2='1' y2='1'/>"
                                b"</svg></svg>"),
        lambda svg: svg.replace(b"</svg>", b"</svg >"),
        lambda svg: svg.replace(b"</svg>", b"</svg\n\t>"),
        lambda svg: svg + b"\n  \n",
        lambda svg: svg + b"<!-- closes </g> and </svg -->\n",
        lambda svg: svg + b'<?xml-stylesheet href="a.css" type="text/css"?>',
        lambda svg: svg.replace(
            b"viewBox=", b'transform="translate(10,5) scale(1.2)" viewBox=', 1),
        _utf16,
    ], ids=["plain", "prefixed_root", "nested_svg", "space_in_end_tag",
            "newline_tab_in_end_tag", "trailing_whitespace", "trailing_comment",
            "trailing_pi", "root_transform", "utf16"])
    def test_matches_oracle(self, tmp_path, monkeypatch, edit):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=4))
        source = edit(svg)
        status, detected = detected_of(tmp_path, monkeypatch, source)
        assert status is Status.OK and detected.box is not None
        annotated = pipeline._annotate_svg(source, detected)
        assert annotated == annotate_svg_oracle(source, detected)
        assert (annotated == source) == (edit is _utf16)

    @pytest.mark.parametrize("source", [
        b'<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>',
        b'<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/><!-- </g> -->',
        b"",
    ], ids=["self_closing_root", "self_closing_root_and_comment", "empty"])
    def test_no_root_end_tag(self, tmp_path, monkeypatch, source):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=4))
        _, detected = detected_of(tmp_path, monkeypatch, svg)
        assert pipeline._annotate_svg(source, detected) == source
        assert annotate_svg_oracle(source, detected) == source

    def test_no_plot_box(self, tmp_path, monkeypatch):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=4))
        source = re.sub(rb"<line [^>]*>", b"", svg)
        status, detected = detected_of(tmp_path, monkeypatch, source)
        assert status is Status.NO_AXES and detected.box is None
        assert pipeline._annotate_svg(source, detected) is source

    @pytest.mark.parametrize("n_points", [1023, 1024, 1025, 3000])
    def test_ring_pieces_at_and_past_a_write(self, tmp_path, monkeypatch, n_points):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=n_points, seed=2))
        status, detected = detected_of(tmp_path, monkeypatch, svg)
        assert status is Status.OK
        assert len(detected.markers) >= pipeline._RINGS_PER_WRITE - 1
        annotated = pipeline._annotate_svg(svg, detected)
        assert annotated == annotate_svg_oracle(svg, detected)

    @pytest.mark.parametrize("tail", [
        b"<!-- closes </svg> -->",
        b"<?note ends </svg>?>",
        b"<?note a <? b </svg>?>\n<!-- </svg -->",
        b"<?note </svg><?x?>",
    ], ids=["comment", "pi", "pi_holding_pi_start", "pi_holding_end_tag_and_pi_start"])
    def test_end_tag_inside_trailing_comment_or_pi(self, tmp_path, monkeypatch, tail):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=3))
        status, detected = detected_of(tmp_path, monkeypatch, svg + tail)
        assert status is Status.OK
        annotated = pipeline._annotate_svg(svg + tail, detected)
        # the overlay goes before the root's own end tag, the tail stays as it was
        assert annotated == annotate_svg_oracle(svg, detected) + tail
        overlay = ET.fromstring(annotated).find(f"{{{SVG_NS}}}g[@id='vecfig-overlay']")
        assert overlay is not None and len(overlay) > 6

    def test_pi_after_comment_holding_pi_start_spliced(self, tmp_path, monkeypatch):
        # the PI could open at either "<?"; read from the first, which is
        # inside the comment, nothing before it ends with an end tag, so the
        # second is the opening and the overlay goes before the root's end tag
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=3))
        tail = b"<!-- <? --><?note x?>"
        status, detected = detected_of(tmp_path, monkeypatch, svg + tail)
        assert status is Status.OK
        annotated = pipeline._annotate_svg(svg + tail, detected)
        assert annotated == annotate_svg_oracle(svg, detected) + tail

    _HEAD = b'<svg xmlns="http://www.w3.org/2000/svg"><g/></svg>'
    _FRAGMENTS = [b"</svg>", b"</svg >", b"</s:svg>", b"</svg", b"</g>", b"</", b"<", b"/",
                  b">", b"svg", b"x", b" ", b"\n", b"<!-- ", b" -->", b"</svgz>", b"</:svg>"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS), max_size=12),
           st.sampled_from([b"</svg>", b"</svg >", b"</s:svg>", b"</svg\n\t>"]),
           st.lists(st.one_of(
               st.sampled_from([b" ", b"\n", b"\t\r\n"]),
               st.lists(st.sampled_from(_FRAGMENTS), max_size=6)
               .map(lambda body: b"<!--" + b"".join(body) + b"-->"),
               st.lists(st.sampled_from(_FRAGMENTS + [b"<?", b"?"]), max_size=6)
               .map(lambda body: b"<?note " + b"".join(body) + b"?>")), max_size=4))
    def test_root_end_is_last_pattern_match(self, head, end_tag, tail):
        # the last match outside a trailing comment or PI; the tail is
        # well-formed: no "--" in a comment (nor "-" at its end), no "?>"
        # inside a PI
        for item in tail:
            if item.startswith(b"<!--"):
                assume(b"--" not in item[4:-3] and not item[4:-3].endswith(b"-"))
            elif item.startswith(b"<?"):
                assume(b"?>" not in item[2:-2])
        data = b"".join(head) + end_tag + b"".join(tail)
        assert pipeline._root_end(data) == len(b"".join(head))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS + [b"<?", b"?>", b"-->"]), max_size=12))
    def test_root_end_is_a_pattern_match_or_none(self, fragments):
        data = b"".join(fragments)
        end = pipeline._root_end(data)
        assert end == -1 or pipeline._ROOT_END_RE.match(data, end)

    @pytest.mark.parametrize("data, expected", [
        (_HEAD + b"<!-- " + b"<?a " * 100_000 + b" --><?x?>", len(_HEAD) - 6),
        (b"<svg><?" + b" --><?" * 100_000 + b"?>", -1),
    ], ids=["pi_starts_in_comment", "comment_ends_in_pi"])
    def test_root_end_linear_in_tail(self, data, expected):
        # each "<?" is a PI opening to try; one search back to the end tag
        # or to the file's start per try took minutes at this size
        start = time.perf_counter()
        assert pipeline._root_end(data) == expected
        assert time.perf_counter() - start < 3.0

    def test_peak_memory_near_the_result(self, tmp_path, monkeypatch):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20000, seed=5))
        status, detected = detected_of(tmp_path, monkeypatch, svg)
        assert status is Status.OK and len(detected.markers) > 19000
        tracemalloc.start()
        try:
            annotated = pipeline._annotate_svg(svg, detected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # concatenating the whole overlay onto source slices peaks at about
        # 3.15 times the result
        assert peak <= 1.5 * len(annotated)


def _overflow_a_data_value(svg: Path) -> None:
    """Relabel the seed-1, 5-point standard figure so that one marker maps
    past the largest double, which the CSV cannot hold.

    The x labels 0, 5e307, 1e308 and 1.5e308 calibrate exactly, and the
    marker moves near the axis end.
    """
    text = svg.read_text(encoding="utf-8")
    for old, new in [(">2.5<", ">5e307<"), (">5<", ">1e308<"),
                     (">7.5<", ">1.5e308<"), ('font-size="10">10<', 'font-size="10"><'),
                     ('cx="453.343929"', 'cx="570"')]:
        assert old in text
        text = text.replace(old, new)
    svg.write_text(text, encoding="utf-8")


class TestRunProject:
    def _project(self, tmp_path, styles):
        specs = [SyntheticSpec(seed=i + 1, n_points=5, axis_style=style)
                 for i, style in enumerate(styles)]
        return build_synthetic_project(tmp_path / "proj", specs)

    def test_statuses(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD,
                                        AxisStyle.RASTER_BODY])
        project = scan_project(root)
        out = tmp_path / "out"
        reports = run_project(project, DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.OK, Status.OK,
                                               Status.RASTER_BODY]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_figures"] == 3
        assert summary["statuses"]["ok"] == 2

    def test_outputs_beside_mirrored_tree(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD])
        out = tmp_path / "out"
        run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
        fig_out = out / "fig-0001" / "figures" / "figure1"
        assert (fig_out / "figure.csv").is_file()
        assert (fig_out / "figure_annotated.svg").is_file()
        assert (fig_out / "report.json").is_file()
        report = ExtractionReport.from_json((fig_out / "report.json").read_text())
        assert report.status is Status.OK and report.n_points == 5

    def test_empty_project(self, tmp_path):
        (tmp_path / "proj").mkdir()
        out = tmp_path / "out"
        reports = run_project(scan_project(tmp_path / "proj"),
                              DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
        assert reports == []
        assert (out / "summary.json").is_file()

    @staticmethod
    def _hash_outputs(out: Path) -> dict[str, str]:
        return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()}

    def test_determinism(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.REVERSED_X])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out1)
        run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out2)
        assert self._hash_outputs(out1) == self._hash_outputs(out2)

    def test_batch_isolation(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.RASTER_BODY,
                                        AxisStyle.STANDARD])
        out_all = tmp_path / "all"
        run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out_all)
        # drop the failing figure and rerun
        shutil.rmtree(root / "fig-0002")
        out_rest = tmp_path / "rest"
        run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out_rest)
        h_all = {k: v for k, v in self._hash_outputs(out_all).items()
                 if not k.startswith("fig-0002") and k != "summary.json"}
        h_rest = {k: v for k, v in self._hash_outputs(out_rest).items()
                  if k != "summary.json"}
        assert h_all == h_rest

    def test_unwritable_output_does_not_stop_batch(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        out = tmp_path / "out"
        # a directory where the first figure's CSV goes: both writes of it fail
        (out / "fig-0001" / "figures" / "figure1" / "figure.csv").mkdir(parents=True)
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.WRITE_ERROR, Status.OK]
        assert reports[0].warnings[-1].startswith("write failed: cannot write")
        assert (out / "fig-0002" / "figures" / "figure1" / "figure.csv").is_file()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["write_error"] == 1
        assert summary["statuses"]["parse_error"] == 0

    def test_broken_figure_with_unwritable_output_stays_parse_error(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        (root / "fig-0001" / "figures" / "figure1" / "figure.svg").write_bytes(b"<svg")
        out = tmp_path / "out"
        (out / "fig-0001" / "figures" / "figure1" / "figure.csv").mkdir(parents=True)
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.PARSE_ERROR, Status.OK]
        assert reports[0].warnings[0].startswith("unclosed token")
        assert reports[0].warnings[-1].startswith("write failed: cannot write")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["parse_error"] == 1
        assert summary["statuses"]["write_error"] == 0

    def test_non_finite_data_value_does_not_stop_batch(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        _overflow_a_data_value(root / "fig-0001" / "figures" / "figure1" / "figure.svg")
        out = tmp_path / "out"
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.PARSE_ERROR, Status.OK]
        assert reports[0].warnings[0].startswith("unhandled: ")
        first = out / "fig-0001" / "figures" / "figure1"
        assert (first / "figure.csv").read_text(encoding="utf-8") == "x,y,device_radius\n"
        assert not (first / "figure_annotated.svg").exists()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["parse_error"] == 1


class TestRunProjectWorkers:
    """A batch gives the same outputs and reports in one process or in two."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of every pool that run_project starts."""
        started = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        return started

    def test_one_and_two_workers_agree(self, tmp_path, monkeypatch, pools):
        styles = [AxisStyle.STANDARD, AxisStyle.RASTER_BODY, AxisStyle.STANDARD,
                  AxisStyle.LOG_X, AxisStyle.REVERSED_X, AxisStyle.STANDARD,
                  AxisStyle.REVERSED_Y]
        root = build_synthetic_project(tmp_path / "proj", [
            SyntheticSpec(seed=i + 1, n_points=5, axis_style=style)
            for i, style in enumerate(styles)])
        _overflow_a_data_value(root / "fig-0001" / "figures" / "figure1" / "figure.svg")
        (root / "fig-0003" / "figures" / "figure1" / "figure.svg").write_bytes(b"<svg")
        project = scan_project(root)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda n=workers: n)
            # one output path: the write failure's warning names it
            out = tmp_path / "out"
            # a directory where the sixth figure's CSV goes: both writes of it fail
            (out / "fig-0006" / "figures" / "figure1" / "figure.csv").mkdir(parents=True)
            reports = run_project(project, DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
            runs.append((reports, TestRunProject._hash_outputs(out)))
            shutil.rmtree(out)
        assert pools == [2]
        assert runs[0] == runs[1]
        assert [r.status for r in runs[0][0]] == [
            Status.PARSE_ERROR, Status.RASTER_BODY, Status.PARSE_ERROR,
            Status.NONLINEAR_SCALE, Status.OK, Status.WRITE_ERROR, Status.OK]

    @pytest.mark.parametrize("n_figures", [0, 1])
    def test_no_pool_for_fewer_than_two_figures(self, tmp_path, monkeypatch, pools,
                                                 n_figures):
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        root = tmp_path / "proj"
        root.mkdir()
        build_synthetic_project(root, [SyntheticSpec(seed=1, n_points=5)][:n_figures])
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, tmp_path / "out")
        assert [r.status for r in reports] == [Status.OK] * n_figures
        assert pools == []

    def test_figures_sharing_a_directory_keep_the_last_outputs(
            self, tmp_path, monkeypatch, pools):
        # figure.svg and figure_2.svg write the same three files, and serially
        # figure_2.svg's stay; figure.svg is the slower to extract, so in two
        # workers taking one each its files would land last
        root = build_synthetic_project(tmp_path / "proj", [
            SyntheticSpec(seed=1, n_points=3000), SyntheticSpec(seed=2, n_points=5)])
        shared = root / "fig-0001" / "figures" / "figure1"
        second, _ = generate_scatter_svg(SyntheticSpec(seed=3, n_points=7))
        (shared / "figure_2.svg").write_bytes(second)
        project = scan_project(root)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda n=workers: n)
            out = tmp_path / f"out{workers}"
            reports = run_project(project, DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
            runs.append((reports, TestRunProject._hash_outputs(out)))
        assert pools == [2]
        assert runs[0] == runs[1]
        reports = runs[0][0]
        assert [r.n_points for r in reports[:2]] == [3000, 7]
        kept = json.loads((tmp_path / "out2" / "fig-0001" / "figures" / "figure1"
                           / "report.json").read_text())
        assert kept["n_points"] == 7

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers start only by fork")
    @pytest.mark.parametrize("forks_allowed", [0, 1])
    def test_pool_that_cannot_start_runs_serially(self, tmp_path, monkeypatch, capsys,
                                                  forks_allowed):
        root = build_synthetic_project(tmp_path / "proj", [
            SyntheticSpec(seed=seed, n_points=5) for seed in (1, 2, 3, 4)])
        argv = ["extract", "--project", str(root), "--outputDir"]
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
        assert cli.run(argv + [str(tmp_path / "serial")]) == 0
        serial = capsys.readouterr().out
        fork, calls = os.fork, []

        def refusing_fork():
            calls.append(None)
            if len(calls) > forks_allowed:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", refusing_fork)
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 2)
        assert cli.run(argv + [str(tmp_path / "pool")]) == 0
        assert capsys.readouterr().out == serial
        assert len(calls) == forks_allowed + 1
        # a worker that did start was stopped, not left waiting for a task
        # (which would also hang this process's exit)
        stray = multiprocessing.active_children()
        for child in stray:
            child.kill()
        assert stray == []
        assert (TestRunProject._hash_outputs(tmp_path / "pool")
                == TestRunProject._hash_outputs(tmp_path / "serial"))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers start only by fork")
    def test_dead_worker_stops_the_batch(self, tmp_path):
        # run in a child interpreter, so that a hang fails the timeout
        root = build_synthetic_project(tmp_path / "proj", [
            SyntheticSpec(seed=seed, n_points=5) for seed in (1, 2, 3, 4)])
        script = textwrap.dedent("""
            import os, sys
            from vecfig import cli, pipeline
            from vecfig.config import DEFAULT_CONFIG
            from vecfig.errors import WorkerDied

            extract = pipeline.extract_figure

            def extract_or_die(svg, *args, **kwargs):
                if "fig-0002" in str(svg):
                    os._exit(1)
                return extract(svg, *args, **kwargs)

            pipeline.extract_figure = extract_or_die
            pipeline._cpu_count = lambda: 2
            try:
                pipeline.run_project(pipeline.scan_project(sys.argv[1]),
                                     pipeline.DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG,
                                     sys.argv[2])
            except WorkerDied:
                print("worker died")
            print(cli.run(["extract", "--project", sys.argv[1],
                           "--outputDir", sys.argv[3]]))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(root),
                               str(tmp_path / "lib"), str(tmp_path / "cli")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (0, "worker died\n3\n"), done.stderr
        assert done.stderr.startswith("error: a worker process died: ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "cli" / "summary.json").exists()


class TestConfigFile:
    def test_load_overrides(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("# comment\nresidual_gate_frac = 0.02\ntick_touch_tol=2.5\n")
        cfg = load_config(cfg_file)
        assert cfg.residual_gate_frac == 0.02
        assert cfg.tick_touch_tol == 2.5
        assert cfg.corner_gap_tol == DEFAULT_CONFIG.corner_gap_tol

    # only detection tolerances are keys: not execution or output settings
    @pytest.mark.parametrize("line", [
        "no_such_tolerance = 1", "jobs = 3", "csv_columns = y, x",
        "overlay_box_color = #000000"])
    def test_unknown_key(self, tmp_path, line):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(cfg_file)

    @pytest.mark.parametrize("value", ["0.0", "-1", "nan", "inf", "-inf"])
    def test_nonpositive_tolerance_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="finite and > 0"):
            PipelineConfig(tick_touch_tol=float(value))
        # a nan gate never fires: a log axis would come back ok
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"residual_gate_frac = {value}\n")
        with pytest.raises(ValueError, match="finite and > 0"):
            load_config(cfg_file)

    @pytest.mark.parametrize("value,reason", [
        ("1%", "could not convert string to float: '1%'"),
        ("nan", "finite and > 0, got nan"), ("inf", "finite and > 0, got inf"),
        ("0", "finite and > 0, got 0.0"), ("-1", "finite and > 0, got -1.0")])
    def test_bad_value_names_file_and_line(self, tmp_path, value, reason):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text(f"# gates\nresidual_gate_frac = {value}\n")
        with pytest.raises(ValueError) as info:
            load_config(cfg_file)
        assert str(info.value).startswith(f"{cfg_file}:2: ")
        assert str(info.value).endswith(reason)
