from __future__ import annotations

import concurrent.futures
import errno
import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
import textwrap
import time
import tracemalloc
import xml.etree.ElementTree as ET
import xml.parsers.expat
from dataclasses import astuple
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circles_of, glyphs_of, svg_bytes
from vecfig import axis_detection, cli, errors, pipeline, svg_model
from vecfig.axis_detection import AxisSide, PlotBox, TickLabel, TickMark, detect_plot_box
from vecfig.config import DEFAULT_CONFIG, PipelineConfig, load_config
from vecfig.errors import VecfigError, WorkerDied
from vecfig.pipeline import (DEFAULT_FIGURE_FILTER, ExtractionReport, Status,
                             _num, _nums, enumerate_figures, extract_figure,
                             make_project, read_csv_points, run_project,
                             scan_project, write_csv)
from vecfig.point_extraction import DataPoint
from vecfig.svg_model import IDENTITY, SVG_NS, AffineTransform, Markers, parse_svg
from vecfig.synth import (AxisStyle, SyntheticSpec, build_synthetic_project,
                          generate_scatter_svg)


def pt(x, y, r=2.0, sid="a") -> DataPoint:
    return DataPoint(x, y, r, sid)


class TestMakeProject:
    def test_single_pdf(self, tmp_path):
        (tmp_path / "paperA.pdf").write_bytes(b"%PDF")
        project = make_project(tmp_path, r".*/(.*)\.pdf", r"(\1)/fulltext.pdf")
        assert (tmp_path / "paperA" / "fulltext.pdf").is_file()
        assert [t.name for t in project.trees] == ["paperA"]

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
        with pytest.raises(VecfigError, match=r"a\.pdf both map to .*/a/fulltext\.pdf$"):
            make_project(tmp_path, r".*/(.*)\.pdf", r"(\1)/fulltext.pdf")
        assert (tmp_path / "x" / "a.pdf").is_file()  # nothing moved
        assert (tmp_path / "y" / "a.pdf").is_file()

    @pytest.mark.parametrize("files,file_filter,template,source,dest", [
        # a file already at the destination
        ({"t1/fulltext.pdf": "OLD", "t1.raw": "NEW"}, r"^.*/(\w+)\.raw$",
         r"(\1)/fulltext.pdf", "t1.raw", "t1/fulltext.pdf"),
        # another file of the same call: a.raw -> ax.raw, ax.raw -> axx.raw
        ({"a.raw": "A", "ax.raw": "AX"}, r"^.*/(\w+)\.raw$", r"\1x.raw", "a.raw", "ax.raw"),
    ], ids=["existing", "other-source"])
    def test_existing_destination_aborts_before_moving(self, tmp_path, files, file_filter,
                                                        template, source, dest):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        with pytest.raises(VecfigError, match=f"^{re.escape(str(tmp_path / source))} would "
                                              f"overwrite {re.escape(str(tmp_path / dest))}$"):
            make_project(tmp_path, file_filter, template)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()) == sorted(files)  # nothing moved
        assert {name: (tmp_path / name).read_text() for name in files} == files

    @pytest.mark.parametrize("template", [
        r"../escaped/(\1)/fulltext.pdf", r"(\1)/../../escaped.pdf", "{abs}/(\\1)/fulltext.pdf",
    ], ids=["parent", "inner-parent", "absolute"])
    def test_destination_out_of_the_project_aborts_before_moving(self, tmp_path, template):
        root = tmp_path / "proj"
        for name in ("in/a.pdf", "in/b.pdf"):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(name)
        template = template.format(abs=(tmp_path / "abs").as_posix())
        with pytest.raises(VecfigError, match=f"^{re.escape(str(root / 'in' / 'a.pdf'))} "
                                              f"would move out of "):
            make_project(root, r"^.*/(\w+)\.pdf$", template)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()) == ["proj/in/a.pdf", "proj/in/b.pdf"]  # nothing moved

    def test_file_at_its_own_destination_stays(self, tmp_path):
        (tmp_path / "t1").mkdir()
        (tmp_path / "t1" / "fulltext.pdf").write_bytes(b"%PDF")
        project = make_project(tmp_path, r"^.*/(\w+)/fulltext\.pdf$", r"(\1)/fulltext.pdf")
        assert (tmp_path / "t1" / "fulltext.pdf").read_bytes() == b"%PDF"
        assert [t.name for t in project.trees] == ["t1"]

    def test_template_group_out_of_range(self, tmp_path):
        (tmp_path / "a.pdf").write_bytes(b"1")
        with pytest.raises(VecfigError, match="^template references group 2, filter defines 1$"):
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
        assert [(t, i) for t, i, _ in out] == [("t1", 1), ("t1", 2)]

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
        with pytest.raises(VecfigError,
                           match="^figure filter needs a capture group for the index$"):
            enumerate_figures(project, r".*figure\d+/figure\.svg")

    @pytest.mark.parametrize("figure_filter,group", [
        (r"^.*/(?:figure(\d+)/figure|figure\d+/(b))\.svg$", "None"),
        (r"^.*/figure1/(\w+)\.svg$", "'b'"),
    ], ids=["group-did-not-take-part", "group-not-an-integer"])
    def test_index_group_not_an_integer(self, tmp_path, figure_filter, group):
        path = make_figure(tmp_path, "t1", 1).with_name("b.svg")
        path.write_bytes(b'<svg xmlns="http://www.w3.org/2000/svg"/>')
        project = scan_project(tmp_path)
        with pytest.raises(VecfigError) as info:
            enumerate_figures(project, figure_filter)
        assert str(info.value) == (f"figure filter {figure_filter!r}: group 1 of "
                                   f"{path.as_posix()} is {group}, not an integer index")

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
        assert [(t, i, p.relative_to(tmp_path).as_posix())
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


_NUM_EDGES = [
    0.0, -0.0, 1.0, -1.5, 0.1, 1 / 3, 1e-5, 1.5e-5, 0.0001234, 123456789.0,
    999999999.5, 1e9 - 0.5, 1e9 + 1, 1234567891.0, 1e16, 1e16 - 2, -1e16, 1e17,
    9999999995.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def assert_nums_equal_num(values):
    """_nums gives _num's text of every value, or raises where _num does."""
    try:
        want = [_num(v) for v in values]
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            _nums(values)
    else:
        assert _nums(values) == want


class TestNumFormat:
    # blocks _nums formats at once, and blocks mixing every kind of value:
    # nan, infinities, exponents, -0, integral floats around 1e16, 9- and
    # 10-digit integers and subnormals
    @given(st.one_of(
        st.lists(st.one_of(st.floats(-1e6, 1e6).map(lambda v: round(v, 4)),
                           st.integers(-10**9 + 1, 10**9 - 1).map(float))),
        st.lists(st.one_of(
            st.floats(), st.sampled_from(_NUM_EDGES),
            st.integers(-2 * 10**16, 2 * 10**16).map(float),
            st.integers(10**8, 10**10 - 1).map(float),
            st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)))))
    @settings(max_examples=1000, deadline=None)
    def test_equals_round_trip_formula(self, values):
        for value in filter(math.isfinite, values):
            assert _num(value) == old_num(value)
        assert_nums_equal_num(values)

    @pytest.mark.parametrize("value", _NUM_EDGES + [math.nan, math.inf, -math.inf])
    def test_edge_values(self, value):
        if math.isfinite(value):
            assert _num(value) == old_num(value)
        assert_nums_equal_num([value])
        assert_nums_equal_num([0.5, value, 2.0])


class TestExtractFigure:
    def test_one_error_class_per_status(self):
        # extract_figure reports exc.status; the message tells the reasons
        # of one status apart, so a class per reason would add nothing
        assert VecfigError.status is Status.PARSE_ERROR
        statuses = [cls.status.value for cls in vars(errors).values()
                    if isinstance(cls, type) and issubclass(cls, VecfigError)
                    and cls not in (VecfigError, WorkerDied)]
        assert sorted(statuses) == ["no_axes", "no_data_glyphs", "nonlinear_scale",
                                    "too_few_ticks"]

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
         ["non-finite width/height; canvas from content bounds"]),
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

    @pytest.mark.parametrize("shape", [b"polyline", b"polygon"])
    def test_left_axis_as_polyline_or_polygon(self, tmp_path, shape):
        # both are moveto/lineto paths in SVG 1.1; R's svglite draws lines so
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=30, seed=3))
        axis = b'<line x1="60" y1="400" x2="60" y2="25" stroke="black"/>'
        assert axis in svg
        plain, edited = tmp_path / "plain.svg", tmp_path / "edited.svg"
        plain.write_bytes(svg)
        edited.write_bytes(svg.replace(axis, b"<%s points=\"60,400 60,25\" "
                                             b'stroke="black"/>' % shape))
        want, _, _ = extract_figure(plain)
        got, _, report = extract_figure(edited)
        assert (report.status, report.warnings) == (Status.OK, [])
        write_csv(want, tmp_path / "plain.csv")
        write_csv(got, tmp_path / "edited.csv")
        assert (tmp_path / "edited.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert len(got) == 30

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
        # points of odd count, with a command letter, with junk
        lambda svg: svg.replace(b"<circle ", b'<polyline points="0,0 5,0 5"/><circle ', 1),
        lambda svg: svg.replace(b"<circle ", b'<polygon points="0,0 L 5,0"/><circle ', 1),
        lambda svg: svg.replace(b"<circle ", b'<polyline points="0,0 5,0 x"/><circle ', 1),
    ], ids=["rotate_inf", "skew_inf", "nested_1200", "composed_overflow",
            "composed_singular", "points_odd", "points_letter", "points_junk"])
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("style", list(AxisStyle))
    def test_shuffled_root_children_give_the_same_points(self, tmp_path, style, seed):
        svg, _ = generate_scatter_svg(SyntheticSpec(seed=seed, n_points=30, axis_style=style))
        root = ET.fromstring(svg)
        children = list(root)
        random.Random(seed).shuffle(children)
        root[:] = children
        base, shuffled = tmp_path / "base.svg", tmp_path / "shuffled.svg"
        base.write_bytes(svg)
        shuffled.write_bytes(ET.tostring(root))
        want_points, _, want = extract_figure(base)
        points, _, report = extract_figure(shuffled)
        assert report.status is want.status
        assert points == want_points

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("style", list(AxisStyle))
    @pytest.mark.parametrize("transform,origin,k", [
        ("translate(-1000 500)", (-1000, 500), 1),
        ("scale(0.1)", (0, 0), 0.1),
        ("scale(20)", (0, 0), 20),
        # the absolute tick and axis tolerances lose the 0.25-unit ticks
        pytest.param("scale(0.05)", (0, 0), 0.05,
                     marks=pytest.mark.xfail(strict=True, reason="gives too_few_ticks")),
    ])
    def test_moved_document_gives_the_same_points(self, tmp_path, transform, origin, k,
                                                  style, seed):
        # the body wrapped in the transform, with the canvas moved and
        # scaled along: only rounding may tell the points apart
        spec = SyntheticSpec(seed=seed, n_points=30, axis_style=style)
        svg, _ = generate_scatter_svg(spec)
        width, height = spec.canvas
        head_end = svg.index(b">", svg.index(b"<svg")) + 1
        head = svg[:head_end].replace(
            f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}"'.encode(),
            f'width="{k * width:g}" height="{k * height:g}" '
            f'viewBox="{origin[0]} {origin[1]} {k * width:g} {k * height:g}"'.encode())
        assert head != svg[:head_end]
        moved = (head + f'<g transform="{transform}">'.encode()
                 + svg[head_end:].replace(b"</svg>", b"</g></svg>"))
        base, path = tmp_path / "base.svg", tmp_path / "moved.svg"
        base.write_bytes(svg)
        path.write_bytes(moved)
        want_points, _, want = extract_figure(base)
        points, _, report = extract_figure(path)
        assert report.status is want.status
        assert len(points) == len(want_points)
        for a, b in zip(want_points, points):
            assert (b.x, b.y) == pytest.approx((a.x, a.y), rel=0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 16),
           st.sampled_from([AxisStyle.STANDARD, AxisStyle.REVERSED_X, AxisStyle.REVERSED_Y]),
           st.data())
    def test_labels_split_into_tspans_read_the_same(self, tmp_path_factory, seed, style,
                                                    data):
        # every label cut at random character boundaries into unpositioned
        # tspans, with ids in random order or with none, some pieces left
        # bare as the parent's text or a tspan's tail: the pieces share
        # their parent's anchor, so only document order joins them right.
        # A label's first piece may instead be a tspan that repeats only the
        # label's own x: it keeps the label's y, and the pieces after it
        # continue at its anchor (a later piece at that x would overstrike
        # the glyphs before it, so only the first may repeat it).  A curved
        # path after the labels is skipped with a warning that names its id,
        # which the split must not move
        svg, _ = generate_scatter_svg(SyntheticSpec(seed=seed, n_points=20, axis_style=style))
        folder = tmp_path_factory.mktemp("split")

        def extract(text: str) -> tuple[bytes, Status, str]:
            (folder / "figure.svg").write_text(text, encoding="utf-8")
            points, _, report = extract_figure(folder / "figure.svg")
            write_csv(points, folder / "figure.csv")
            return (folder / "figure.csv").read_bytes(), report.status, report.to_json()

        text = svg.decode("utf-8").replace(
            "</svg>", '<path d="M 100 60 C 150 20 200 100 250 60"/></svg>')
        labels = list(re.finditer(r"(<text [^>]*>)([^<]+)</text>", text))
        pieces = []
        for m in labels:
            content = m.group(2)
            cuts = data.draw(st.sets(st.integers(1, len(content) - 1)) if len(content) > 1
                             else st.just(set()))
            bounds = [0, *sorted(cuts), len(content)]
            flags = data.draw(st.lists(st.booleans(), min_size=len(bounds) - 1,
                                      max_size=len(bounds) - 1))
            parts = [(content[a:b], is_bare, "") for a, b, is_bare
                     in zip(bounds, bounds[1:], flags)]
            if data.draw(st.booleans()):
                x = re.search(r' x="[^"]*"', m.group(1)).group(0)
                parts[0] = (parts[0][0], False, x)
            pieces.append(parts)
        order = iter(data.draw(st.permutations(range(sum(map(len, pieces))))))

        def split(with_ids: bool) -> str:
            out, end = [], 0
            for m, parts in zip(labels, pieces):
                spans = "".join(p if is_bare else
                                f'<tspan id="t{next(order)}"{x}>{p}</tspan>' if with_ids
                                else f"<tspan{x}>{p}</tspan>" for p, is_bare, x in parts)
                out += [text[end:m.start()], m.group(1), spans, "</text>"]
                end = m.end()
            return "".join(out + [text[end:]])

        want = extract(text)
        assert want[1] is Status.OK
        assert ": curve exceeds deviation bound, skipped" in want[2]
        assert extract(split(with_ids=False)) == want
        assert extract(split(with_ids=True)) == want

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

    @pytest.mark.parametrize("size", [b'font-size="-10"', b'font-size="-1em"'])
    def test_negative_font_size_sets_nothing(self, tmp_path, size):
        # CSS allows no negative font size: the labels keep the inherited 10
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=30, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg)
        want, _, _ = extract_figure(path)
        assert svg.count(b'font-size="10"') == 10
        path.write_bytes(svg.replace(b'font-size="10"', size))
        points, _, report = extract_figure(path)
        assert (report.status, points) == (Status.OK, want)
        assert len(points) == 30

    @pytest.mark.parametrize("hidden", [
        '<g style="display:none">' + '<circle cx="200" cy="200" r="3"/>' * 2 + "</g>",
        '<g display="none">' + '<circle cx="200" cy="200" r="3"/>' * 2 + "</g>",
        '<g style="fill:red; display: none"><g><circle cx="200" cy="200" r="3"/></g></g>',
    ], ids=["style", "attribute", "nested"])
    def test_hidden_group_is_not_data(self, tmp_path, hidden):
        # an Inkscape hidden layer: circles of the markers' size that draw nothing
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=30, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg.replace(b"</svg>", hidden.encode() + b"</svg>"))
        points, _, report = extract_figure(path)
        assert (report.status, len(points)) == (Status.OK, 30)
        assert report.warnings == ["display:none <g> skipped"]

    @pytest.mark.parametrize("attr", [b' display="none"', b' style="display:none"'])
    def test_hidden_root_is_not_data(self, tmp_path, attr):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=30, seed=3))
        path = tmp_path / "figure.svg"
        path.write_bytes(svg.replace(b"<svg ", b"<svg" + attr + b" ", 1))
        points, _, report = extract_figure(path)
        assert (report.status, points) == (Status.NO_AXES, [])
        assert report.warnings[0] == "display:none <svg> skipped"

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
            assert any(math.dist((ring.center.x, ring.center.y), (center.x, center.y)) < 1e-6
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
        fed = []
        feed = ET.XMLPullParser.feed

        def counting(pull, data):
            fed.append(len(data))
            return feed(pull, data)

        def no_whole_parse(*args, **kwargs):
            raise AssertionError("source parsed whole")

        monkeypatch.setattr(ET.XMLPullParser, "feed", counting)
        monkeypatch.setattr(ET, "fromstring", no_whole_parse)
        # several pieces, so that the walk runs between them
        monkeypatch.setattr(svg_model, "_FEED_BYTES", 256)
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=5, seed=3))
        _, _, report = self._extract(tmp_path, svg)
        assert report.status is Status.OK
        # every source byte goes to the parser once, and the overlay parses nothing
        assert sum(fed) == len(svg)
        assert len(fed) == -(-len(svg) // 256)

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
        # the figure is fine, but its overlay is missing: the report says so
        assert report.warnings[-1] == "overlay not spliced: no root end tag"
        assert report.warnings.count("overlay not spliced: no root end tag") == 1


_ROOT_END_RE = re.compile(rb"</(?:[\w.-]+:)?svg\s*>")


class Overlay(NamedTuple):
    """The arguments of ``pipeline._annotate_svg`` after the source bytes."""
    root_transform: AffineTransform
    box: PlotBox | None
    ticks: list[TickMark]
    pairs: list[tuple[TickMark, TickLabel]]
    markers: Markers


def annotate_svg_oracle(svg_bytes: bytes, root_transform: AffineTransform,
                        box: PlotBox | None, ticks: list[TickMark],
                        pairs: list[tuple[TickMark, TickLabel]], markers: Markers) -> bytes:
    """The splice as first written: every root end tag found, the last one
    used, and the result built by concatenation."""
    ends = [m.start() for m in _ROOT_END_RE.finditer(svg_bytes)]
    if box is None or not ends:
        return svg_bytes

    def ring(x: float, y: float, r: float, color: str) -> str:
        return (f'<circle cx="{_num(x)}" cy="{_num(y)}" r="{_num(r)}" '
                f'stroke="{color}" stroke-width="0.8"/>')

    inner = box.interior
    transform = ""
    if root_transform != IDENTITY:
        inverse = astuple(root_transform.inverse())
        transform = f' transform="matrix({",".join(map(_num, inverse))})"'
    parts = [f'<g xmlns="{SVG_NS}" id="vecfig-overlay" fill="none"{transform}>',
             f'<rect x="{_num(inner.x0)}" y="{_num(inner.y0)}" '
             f'width="{_num(inner.width)}" height="{_num(inner.height)}" '
             f'stroke="#d62728" stroke-width="1" stroke-dasharray="4 2"/>']
    for tick in ticks:
        if tick.side is AxisSide.X_AXIS:
            parts.append(ring(tick.position, inner.y1, 2, "#2ca02c"))
        else:
            parts.append(ring(inner.x0, tick.position, 2, "#2ca02c"))
    for _, label in pairs:
        parts.append(ring(label.anchor.x, label.anchor.y, 3, "#1f77b4"))
    for x, y, r in zip(markers.cx, markers.cy, markers.r):
        parts.append(ring(x, y, r + 1.5, "#ff7f0e"))
    parts.append("</g>")
    overlay = "".join(parts).encode("ascii")
    i = ends[-1]
    return svg_bytes[:i] + overlay + svg_bytes[i:]


def detected_of(tmp_path: Path, monkeypatch, svg: bytes) -> tuple[Status, Overlay]:
    """The status of ``svg`` and the structure its overlay draws."""
    seen = []
    annotate = pipeline._annotate_svg
    monkeypatch.setattr(pipeline, "_annotate_svg",
                        lambda source, *args: seen.append(Overlay(*args))
                        or annotate(source, *args))
    path = tmp_path / "figure.svg"
    path.write_bytes(svg)
    _, _, report = extract_figure(path)
    monkeypatch.setattr(pipeline, "_annotate_svg", annotate)
    return report.status, seen[0]


def expat_root_end(data: bytes) -> int:
    """The offset expat gives for the root's end tag, -1 for a self-closing
    root."""
    parser = xml.parsers.expat.ParserCreate()
    depth, end = 0, -1

    def start(name, attrs):
        nonlocal depth
        depth += 1

    def stop(name):
        nonlocal depth, end
        depth -= 1
        if depth == 0:
            i = parser.CurrentByteIndex
            end = i if data.startswith(b"</", i) else -1

    parser.StartElementHandler = start
    parser.EndElementHandler = stop
    parser.Parse(data, True)
    return end


def _mend(text: bytes, *banned: bytes) -> bytes:
    """``text`` with a space put into each banned sequence."""
    while any(b in text for b in banned):
        for b in banned:
            text = text.replace(b, b[:1] + b" " + b[1:])
    return text


# pieces of text that look like markup; each context keeps those its
# grammar allows
_LOOKALIKES = [b"</svg>", b"</s:svg >", b"<!--", b"<?", b"?>", b"]]>", b"-->", b"<![CDATA[",
               b"[", b"]", b">", b"-", b"'", b'"', b" ", "\u00e9\u2192".encode()]


def _text_without(*chars: bytes) -> st.SearchStrategy[bytes]:
    return (st.lists(st.sampled_from([p for p in _LOOKALIKES
                                      if not any(c in p for c in chars)]), max_size=6)
            .map(b"".join))


_COMMENT = _text_without().map(lambda t: b"<!--" + _mend(t + b"x", b"--") + b"-->")
_PI = (st.tuples(st.sampled_from([b"note", b"a", b"x-y"]), _text_without())
       .map(lambda p: b"<?" + p[0] + b" " + _mend(p[1], b"?>") + b"?>"))
_CDATA = _text_without().map(lambda t: b"<![CDATA[" + _mend(t, b"]]>") + b"]]>")
# character data ends with "x", so two pieces side by side form no "]]>"
_CHARS = _text_without(b"<").map(lambda t: _mend(t, b"]]>") + b"x")
_MISC = st.one_of(_COMMENT, _PI, st.sampled_from([b" ", b"\n", b"\t\r\n"]))
_ATTRS = st.sampled_from([b"", b' id="a"', b" note='>]]>--> ?>/svg>'"])
_SPACE = st.sampled_from([b"", b" ", b"\n\t"])
_ELEMENT = st.recursive(
    st.builds(lambda name, attrs: b"<" + name + attrs + b"/>",
              st.sampled_from([b"g", b"svg", b"s:svg"]), _ATTRS),
    lambda inner: st.builds(
        lambda name, attrs, body, space: (b"<" + name + attrs + b">" + b"".join(body)
                                          + b"</" + name + space + b">"),
        st.sampled_from([b"g", b"text", b"svg", b"s:svg"]), _ATTRS,
        st.lists(st.one_of(_CHARS, _COMMENT, _PI, _CDATA, inner), max_size=4), _SPACE),
    max_leaves=6)
_LITERAL = st.one_of(_text_without(b'"', b"%", b"&").map(lambda t: b'"' + t + b'"'),
                     _text_without(b"'", b"%", b"&").map(lambda t: b"'" + t + b"'"))
_ENTITY = _LITERAL.map(lambda lit: b"<!ENTITY a " + lit + b">")
# entities are drawn twice as often: a subset the scan misreads shows
# mostly through an end tag in an entity literal
_DECL = st.one_of(
    _ENTITY, _COMMENT, _ENTITY, _PI,
    st.sampled_from([b"<!ELEMENT g ANY>", b'<!ATTLIST g note CDATA "a>]">', b"\n"]))
_DOCTYPE = st.builds(
    lambda ext, subset: (b"<!DOCTYPE svg" + ext
                         + (b" [" + b"".join(subset) + b"]" if subset is not None else b"")
                         + b">"),
    st.sampled_from([b"", b" SYSTEM 'a]>[b'",
                     b' PUBLIC "-//W3C//DTD SVG 1.1//EN" "svg11.dtd"']),
    st.none() | st.lists(_DECL, min_size=1, max_size=5))
# a well-formed UTF-8 document: an optional XML declaration, comments, PIs
# and a DOCTYPE before the root, markup of every kind in it, and comments
# and PIs after it
_DOCUMENT = st.builds(
    lambda decl, prolog, doctype, root, attrs, body, space, closed, tail: (
        decl + b"".join(prolog) + doctype + b"<" + root + attrs
        + b' xmlns="http://www.w3.org/2000/svg" xmlns:s="http://www.w3.org/2000/svg"'
        + (b">" + b"".join(body) + b"</" + root + space + b">" if closed else b"/>")
        + b"".join(tail)),
    st.sampled_from([b"", b'<?xml version="1.0" encoding="UTF-8"?>']),
    st.lists(_MISC, max_size=3), st.just(b"") | _DOCTYPE, st.sampled_from([b"svg", b"s:svg"]),
    _ATTRS, st.lists(st.one_of(_CHARS, _COMMENT, _PI, _CDATA, _ELEMENT), max_size=5),
    _SPACE, st.booleans(), st.lists(_MISC, max_size=4))


def _root_closed(head: bytes) -> tuple[bytes, int]:
    """``head`` and the root's end tag after it, with that tag's offset."""
    return head + b"</svg>", len(head)


def _utf16(svg: bytes) -> bytes:
    return (svg.decode("utf-8").replace('encoding="UTF-8"', 'encoding="UTF-16"')
            .encode("utf-16"))


class TestAnnotateSplice:
    """One buffer, the end tag found by one scan from the front: the same
    bytes as the oracle's scan of every end tag and concatenation."""

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
        annotated = pipeline._annotate_svg(source, *detected)
        assert annotated == annotate_svg_oracle(source, *detected)
        assert (annotated == source) == (edit is _utf16)

    @pytest.mark.parametrize("source", [
        b'<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>',
        b'<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/><!-- </g> -->',
        b"",
    ], ids=["self_closing_root", "self_closing_root_and_comment", "empty"])
    def test_no_root_end_tag(self, tmp_path, monkeypatch, source):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=4))
        _, detected = detected_of(tmp_path, monkeypatch, svg)
        assert pipeline._annotate_svg(source, *detected) == source
        assert annotate_svg_oracle(source, *detected) == source

    def test_no_plot_box(self, tmp_path, monkeypatch):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=4))
        source = re.sub(rb"<line [^>]*>", b"", svg)
        status, detected = detected_of(tmp_path, monkeypatch, source)
        assert status is Status.NO_AXES and detected.box is None
        assert pipeline._annotate_svg(source, *detected) is source

    @pytest.mark.parametrize("n_points", [1023, 1024, 1025, 3000])
    def test_ring_pieces_at_and_past_a_write(self, tmp_path, monkeypatch, n_points):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=n_points, seed=2))
        status, detected = detected_of(tmp_path, monkeypatch, svg)
        assert status is Status.OK
        assert len(detected.markers) >= pipeline._RINGS_PER_WRITE - 1
        annotated = pipeline._annotate_svg(svg, *detected)
        assert annotated == annotate_svg_oracle(svg, *detected)

    @pytest.mark.parametrize("edit", [
        lambda svg: svg + b"<!-- closes </svg> -->",
        lambda svg: svg + b"<?note ends </svg>?>",
        lambda svg: svg + b"<?note a <? b </svg>?>\n<!-- </svg -->",
        lambda svg: svg + b"<?note </svg><?x?>",
        lambda svg: svg + b"<!-- <? --><?note x?>",
        lambda svg: svg + b"<!-- </svg><?a --><?b ?>",
        lambda svg: svg + b"<!-- <? </svg> <? --><?b?>",
        lambda svg: (svg.replace(b"</svg>", b"<text><![CDATA[</svg><?]]></text></svg>")
                     + b"<?x?>"),
        lambda svg: svg.replace(
            b"?>\n", b'?>\n<!DOCTYPE svg [<!ENTITY a "<!-- </svg> <?"> <!-- ] </svg> -->]>', 1),
    ], ids=["comment", "pi", "pi_holding_pi_start", "pi_holding_end_tag_and_pi_start",
            "pi_after_comment_holding_pi_start", "pi_start_in_trailing_comment",
            "end_tag_between_pi_starts_in_comment", "cdata_in_body", "doctype_internal_subset"])
    def test_end_tag_text_inside_markup_passed_over(self, tmp_path, monkeypatch, edit):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=6, seed=3))
        source = edit(svg)
        status, detected = detected_of(tmp_path, monkeypatch, source)
        _, annotated, report = extract_figure(tmp_path / "figure.svg")
        assert status is report.status is Status.OK
        # the overlay goes before the root's own end tag, the tail stays as it was
        end = source.index(b">", expat_root_end(source)) + 1
        assert annotated == annotate_svg_oracle(source[:end], *detected) + source[end:]
        overlays = [child for child in ET.fromstring(annotated)
                    if child.get("id") == "vecfig-overlay"]
        assert len(overlays) == 1 and overlays[0].tag == f"{{{SVG_NS}}}g"
        assert len(overlays[0]) > 6

    _OPEN = b'<svg xmlns="http://www.w3.org/2000/svg">'
    _HEAD = _OPEN + b"<g/></svg>"

    @pytest.mark.parametrize("data, expected", [
        (_HEAD + b"<!-- </svg><?a --><?b ?>", 44),
        (_HEAD + b"<!-- <? </svg> <? --><?b?>", 44),
        (_OPEN + b"<text><![CDATA[</svg><?]]></text></svg><?x?>", 73),
        (b'<!DOCTYPE svg [<!-- ] --><!ENTITY a "</svg>">]>' + _OPEN[:-1] + b"/>", -1),
        (b'<!DOCTYPE svg [<?a ] ?><!ENTITY a "</svg>">]>' + _OPEN[:-1] + b"/>", -1),
        (b"<!DOCTYPE svg SYSTEM 'a]>[b' [<!ENTITY a '</svg>'>]>" + _OPEN[:-1] + b"/>", -1),
    ], ids=["pi_start_in_trailing_comment", "end_tag_between_pi_starts_in_comment",
            "cdata_in_body", "subset_comment_holding_bracket", "subset_pi_holding_bracket",
            "system_id_holding_brackets"])
    def test_root_end_offsets(self, data, expected):
        assert pipeline._root_end(data) == expat_root_end(data) == expected

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENT)
    def test_root_end_matches_expat(self, data):
        # a figure only reaches the splice once ET has parsed it
        ET.fromstring(data)
        assert pipeline._root_end(data) == expat_root_end(data)

    _FRAGMENTS = [b"</svg>", b"</svg >", b"</s:svg>", b"</svg", b"</g>", b"</", b"<", b"/",
                  b">", b"svg", b"x", b" ", b"\n", b"<!-- ", b" -->", b"</svgz>", b"</:svg>"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_FRAGMENTS + [b"<?", b"?>", b"-->"]), max_size=12))
    def test_root_end_is_a_pattern_match_or_none(self, fragments):
        data = b"".join(fragments)
        end = pipeline._root_end(data)
        assert end == -1 or _ROOT_END_RE.match(data, end)

    @pytest.mark.parametrize("data, expected", [
        (_HEAD + b"<!-- " + b"<?a " * 100_000 + b" --><?x?>", len(_HEAD) - 6),
        (b"<svg><?" + b" --><?" * 100_000 + b"?>", -1),
        _root_closed(_OPEN + b"<!-- -->" * 200_000),
        _root_closed(_OPEN + b"<text>" + b"<![CDATA[<!--]]>" * 100_000 + b"</text>"),
        _root_closed(b"<!DOCTYPE svg [" + b'<!ENTITY a "<!--<?">' * 50_000 + b"]>" + _OPEN),
    ], ids=["pi_starts_in_comment", "comment_ends_in_pi", "comments_in_body",
            "cdata_holding_comment_starts", "entities_holding_comment_and_pi_starts"])
    def test_root_end_linear_in_tail(self, data, expected):
        # a search for each opening's end from every later "<" would take
        # minutes at this size
        start = time.perf_counter()
        assert pipeline._root_end(data) == expected
        assert time.perf_counter() - start < 3.0

    def test_peak_memory_near_the_result(self, tmp_path, monkeypatch):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20000, seed=5))
        status, detected = detected_of(tmp_path, monkeypatch, svg)
        assert status is Status.OK and len(detected.markers) > 19000
        tracemalloc.start()
        try:
            annotated = pipeline._annotate_svg(svg, *detected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # concatenating the whole overlay onto source slices peaks at about
        # 3.15 times the result
        assert peak <= 1.5 * len(annotated)


def _overflow_a_data_value(svg: Path) -> None:
    """Relabel the x axis of the seed-1, 5-point standard figure 0, 5e307,
    1e308 and 1.5e308, and move one marker near the axis end.

    The sums of the x fit pass the largest double, so its slope, intercept
    and rms residual are all nan: no usable scale.
    """
    text = svg.read_text(encoding="utf-8")
    for old, new in [(">2.5<", ">5e307<"), (">5<", ">1e308<"),
                     (">7.5<", ">1.5e308<"), ('font-size="10">10<', 'font-size="10"><'),
                     ('cx="453.343929"', 'cx="570"')]:
        assert old in text
        text = text.replace(old, new)
    svg.write_text(text, encoding="utf-8")


def _relabel_x_axis(svg: Path, ticks: list[tuple[float, str]]) -> None:
    """Replace the five x ticks of the seed-1, 5-point standard figure by
    one tick and one label per ``(x, label text)``."""
    text, n = re.subn(r'<line x1="([\d.]+)" y1="400" x2="\1" y2="405" stroke="black"/>\n'
                      r'<text [^>]*>[^<]*</text>\n', "", svg.read_text(encoding="utf-8"))
    assert n == 5
    new = "".join(f'<line x1="{x}" y1="400" x2="{x}" y2="405" stroke="black"/>\n'
                  f'<text x="{x - 2}" y="416" font-size="10">{label}</text>\n'
                  for x, label in ticks)
    svg.write_text(text.replace('<circle id="pt0"', new + '<circle id="pt0"'),
                   encoding="utf-8")


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
        assert reports[0].warnings[-1].startswith("write failed: ")
        assert "figure.csv" in reports[0].warnings[-1]
        assert (out / "fig-0002" / "figures" / "figure1" / "figure.csv").is_file()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["write_error"] == 1
        assert summary["statuses"]["parse_error"] == 0

    @pytest.mark.parametrize("target,as_file", [
        ("", True), ("figure.csv", False), ("figure_annotated.svg", False),
        ("report.json", False)], ids=["folder-is-a-file", "csv", "svg", "report"])
    def test_each_unwritable_output_gives_write_error(self, tmp_path, target, as_file):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        out = tmp_path / "out"
        path = out / "fig-0001" / "figures" / "figure1" / target
        if as_file:
            path.parent.mkdir(parents=True)
            path.write_bytes(b"")
        else:
            path.mkdir(parents=True)
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.WRITE_ERROR, Status.OK]
        assert reports[0].warnings[-1].startswith("write failed: ")
        assert str(path) in reports[0].warnings[-1]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["write_error"] == 1
        assert summary["statuses"]["ok"] == 1

    def test_broken_figure_with_unwritable_output_stays_parse_error(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        (root / "fig-0001" / "figures" / "figure1" / "figure.svg").write_bytes(b"<svg")
        out = tmp_path / "out"
        (out / "fig-0001" / "figures" / "figure1" / "figure.csv").mkdir(parents=True)
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.PARSE_ERROR, Status.OK]
        assert reports[0].warnings[0].startswith("unclosed token")
        assert reports[0].warnings[-1].startswith("write failed: ")
        assert "figure.csv" in reports[0].warnings[-1]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["parse_error"] == 1
        assert summary["statuses"]["write_error"] == 0

    def test_non_finite_data_value_does_not_stop_batch(self, tmp_path):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        _overflow_a_data_value(root / "fig-0001" / "figures" / "figure1" / "figure.svg")
        out = tmp_path / "out"
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.NONLINEAR_SCALE, Status.OK]
        assert reports[0].warnings == ["x_axis: non-finite fit, no usable scale"]
        first = out / "fig-0001" / "figures" / "figure1"
        assert (first / "figure.csv").read_text(encoding="utf-8") == "x,y,device_radius\n"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["statuses"]["nonlinear_scale"] == 1

    @pytest.mark.parametrize("ticks, warning", [
        # a log ladder whose residuals, near 1e203, square past the largest double
        ([(60, "1e200"), (188.75, "1e201"), (317.5, "1e202"), (446.25, "1e203"),
          (575, "1e204")], "x_axis: rms residual 2.54e+203 exceeds 1% of span 9.999e+203"),
        # 2**1019 over 8 units: the markers right of x=300 map past the largest double
        ([(64, "0"), (72, "5.617791046444737e+306")], "x_axis: a data value overflows"),
    ], ids=["residual_square", "data_value"])
    def test_overflow_is_nonlinear_scale(self, tmp_path, ticks, warning):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        svg = root / "fig-0001" / "figures" / "figure1" / "figure.svg"
        _relabel_x_axis(svg, ticks)
        points, _, report = extract_figure(svg)
        assert (points, report.status) == ([], Status.NONLINEAR_SCALE)
        assert report.warnings[-1] == warning
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, tmp_path / "out")
        assert [r.status for r in reports] == [Status.NONLINEAR_SCALE, Status.OK]
        assert reports[0].warnings == report.warnings

    def test_even_ladder_of_huge_values_is_ok(self, tmp_path):
        # the standard ladder times 1e200: its rounding residuals, near 1e185,
        # square past the largest double, but it is linear
        root = self._project(tmp_path, [AxisStyle.STANDARD])
        svg = root / "fig-0001" / "figures" / "figure1" / "figure.svg"
        _relabel_x_axis(svg, [(60, "0"), (188.75, "2.5e200"), (317.5, "5e200"),
                              (446.25, "7.5e200"), (575, "1e201")])
        points, _, report = extract_figure(svg)
        assert (report.status, len(points)) == (Status.OK, 5)
        truth = read_csv_points(svg.parent / "truth.csv")
        for p, (x, _) in zip(sorted(points), sorted(truth)):
            assert p.x == pytest.approx(x * 1e200, abs=0.005 * 1e201)

    def test_failed_csv_write_does_not_stop_batch(self, tmp_path, monkeypatch):
        root = self._project(tmp_path, [AxisStyle.STANDARD, AxisStyle.STANDARD])
        write_points = pipeline.write_csv

        def failing(points, path):
            # as a value the CSV cannot hold fails it, in the first figure only
            if points and "fig-0001" in path.as_posix():
                raise ValueError("cannot convert float NaN to integer")
            write_points(points, path)

        monkeypatch.setattr(pipeline, "write_csv", failing)
        out = tmp_path / "out"
        reports = run_project(scan_project(root), DEFAULT_FIGURE_FILTER,
                              DEFAULT_CONFIG, out)
        assert [r.status for r in reports] == [Status.PARSE_ERROR, Status.OK]
        assert reports[0].warnings == ["unhandled: cannot convert float NaN to integer"]
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
            Status.NONLINEAR_SCALE, Status.RASTER_BODY, Status.PARSE_ERROR,
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

    def test_figures_sharing_a_directory_are_refused(self, tmp_path, monkeypatch, capsys,
                                                     pools):
        # figure.svg and figure_2.svg would write the same three files
        root = build_synthetic_project(tmp_path / "proj", [
            SyntheticSpec(seed=1, n_points=3000), SyntheticSpec(seed=2, n_points=5)])
        shared = root / "fig-0001" / "figures" / "figure1"
        second, _ = generate_scatter_svg(SyntheticSpec(seed=3, n_points=7))
        (shared / "figure_2.svg").write_bytes(second)
        out = tmp_path / "out"
        message = (f"{shared / 'figure.svg'} and {shared / 'figure_2.svg'} both write "
                   f"to {out / 'fig-0001' / 'figures' / 'figure1'}")
        for workers in (1, 2):
            monkeypatch.setattr(pipeline, "_cpu_count", lambda n=workers: n)
            with pytest.raises(VecfigError) as exc:
                run_project(scan_project(root), DEFAULT_FIGURE_FILTER, DEFAULT_CONFIG, out)
            assert str(exc.value) == message
            assert not out.exists()
        assert pools == []
        assert cli.run(["extract", "--project", str(root), "--outputDir", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

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

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        cfg_file = tmp_path / "pipeline.cfg"
        cfg_file.write_text("# gates\n\nresidual_gate_frac 0.02\n")
        with pytest.raises(ValueError) as info:
            load_config(cfg_file)
        assert str(info.value) == f"{cfg_file}:3: expected key=value, got 'residual_gate_frac 0.02'"

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
