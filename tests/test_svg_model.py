from __future__ import annotations

import gc
import itertools
import math
import re
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Circle, Segment, circles_of, glyphs_of, markers_of,
                      segments_of, serialize_model, svg_bytes)
from vecfig import svg_model, synth
from vecfig.axis_detection import parse_numeric_label
from vecfig.errors import Status, VecfigError
from vecfig.svg_model import (CANVAS_OVERFLOW_FACTOR, IDENTITY, AffineTransform,
                              FigureDocument, Markers, Point, Rect, Segments,
                              TextRun, _parse_length,
                              compose_text_runs, flatten_path, parse_svg,
                              parse_transform)
from vecfig.synth import SyntheticSpec, generate_scatter_svg


class TestParseCircle:
    def test_inline_snippet(self):
        data = svg_bytes('<circle cx="103.71" cy="121.22" r="25.234" '
                         'fill-opacity="0" stroke="#cf1d35" stroke-width=".26458"/>')
        doc = parse_svg(data)
        assert len(doc.circles) == 1
        c, = circles_of(doc.circles)
        assert c.center == Point(103.71, 121.22)
        assert c.radius == 25.234

    def test_identity_matrix_transform(self):
        plain = parse_svg(svg_bytes('<circle cx="5" cy="6" r="2"/>'))
        wrapped = parse_svg(svg_bytes(
            '<g transform="matrix(1,0,0,1,0,0)"><circle cx="5" cy="6" r="2"/></g>'))
        assert circles_of(plain.circles) == circles_of(wrapped.circles)

    def test_translate_transform(self):
        # independently composed: (5,5) + (10,20) = (15,25)
        doc = parse_svg(svg_bytes(
            '<g transform="translate(10,20)"><circle cx="5" cy="5" r="2"/></g>'))
        c, = circles_of(doc.circles)
        assert c.center == Point(15.0, 25.0)
        assert c.radius == 2.0

    def test_nested_transforms_compose(self):
        doc = parse_svg(svg_bytes(
            '<g transform="translate(10,0)"><g transform="scale(2)">'
            '<circle cx="3" cy="4" r="1"/></g></g>'))
        c, = circles_of(doc.circles)
        assert c.center == Point(16.0, 8.0)
        assert c.radius == pytest.approx(2.0)

    def test_near_circular_ellipse_accepted(self):
        doc = parse_svg(svg_bytes('<ellipse cx="10" cy="10" rx="2.0" ry="1.96"/>'))
        assert len(doc.circles) == 1
        assert doc.circles.r[0] == pytest.approx(math.sqrt(2.0 * 1.96))

    def test_eccentric_ellipse_skipped_with_warning(self):
        doc = parse_svg(svg_bytes('<ellipse cx="10" cy="10" rx="4" ry="2"/>'))
        assert not doc.circles
        assert any("ellipse" in w for w in doc.warnings)

    @pytest.mark.parametrize("snippet", [
        '<circle cx="10" cy="10" r="1e999"/>',
        '<ellipse cx="10" cy="10" rx="1e999" ry="1e999"/>'])
    def test_overflowing_radius_is_degenerate(self, snippet):
        # not an eccentric ellipse: inf times the transform's zeros is nan
        doc = parse_svg(svg_bytes(snippet))
        assert not doc.circles
        assert doc.warnings == ["degenerate circle/ellipse skipped (r=inf,inf)"]

    @pytest.mark.parametrize("snippet,radii", [
        ('<g transform="scale(1e200)"><circle cx="0" cy="0" r="1e200"/></g>', "1e+200,1e+200"),
        # one semi-axis infinite, the other 0 after the solve: a nan radius
        ('<g transform="scale(1e200, 1)"><ellipse cx="0" cy="0" rx="1e200" ry="1"/></g>',
         "1e+200,1.0")])
    def test_radius_overflowing_under_transform_is_degenerate(self, snippet, radii):
        # finite radii whose semi-axes overflow: not a marker out of canvas
        doc = parse_svg(svg_bytes(snippet * 2))
        assert not doc.circles
        assert doc.warnings == [f"degenerate circle/ellipse skipped (r={radii})"] * 2

    def test_nonuniform_scale_turns_circle_elliptical(self):
        doc = parse_svg(svg_bytes(
            '<g transform="scale(3,1)"><circle cx="5" cy="5" r="2"/></g>'))
        assert not doc.circles
        assert any("ellipse" in w for w in doc.warnings)


class TestParseOtherElements:
    def test_line(self):
        doc = parse_svg(svg_bytes('<line x1="0" y1="0" x2="10" y2="0"/>'))
        s, = glyphs_of(doc.segments)
        assert s.p1 == Point(0, 0)
        assert s.p2 == Point(10, 0)

    def test_rect_decomposes_into_four_segments(self):
        doc = parse_svg(svg_bytes('<rect x="1" y="2" width="10" height="5"/>'))
        assert len(doc.segments) == 4
        endpoints = {(s.p1.x, s.p1.y) for s in glyphs_of(doc.segments)}
        assert endpoints == {(1, 2), (11, 2), (11, 7), (1, 7)}

    @pytest.mark.parametrize("id_attr,eid", [(' id="frame"', "frame"), ("", "rect-1")])
    def test_rect_sides_under_transform(self, id_attr, eid):
        # sides in drawing order, each end the transform of a corner exactly
        t_text = "rotate(17) skewX(9) translate(3,4)"
        doc = parse_svg(svg_bytes(f'<g transform="{t_text}"><rect{id_attr} x="30.7" '
                                  f'y="20.3" width="101.9" height="55.1"/></g>'))
        t = parse_transform(t_text)
        x, y, w, h = 30.7, 20.3, 101.9, 55.1
        corners = [t.apply_xy(x, y), t.apply_xy(x + w, y), t.apply_xy(x + w, y + h),
                   t.apply_xy(x, y + h), t.apply_xy(x, y)]
        assert glyphs_of(doc.segments) == [Segment(f"{eid}.{k}", corners[k], corners[k + 1])
                                           for k in range(4)]

    def test_image_becomes_raster(self):
        doc = parse_svg(svg_bytes('<image x="10" y="20" width="100" height="50"/>'))
        assert len(doc.rasters) == 1
        b = doc.rasters[0]
        assert (b.x0, b.y0, b.x1, b.y1) == (10, 20, 110, 70)

    def test_use_warns_and_skips(self):
        doc = parse_svg(svg_bytes('<use xlink:href="#x"/>'))
        assert any("use" in w for w in doc.warnings)

    def test_unsupported_element_warns(self):
        doc = parse_svg(svg_bytes('<foreignObject width="10" height="10"/>'))
        assert any("foreignObject" in w for w in doc.warnings)

    @pytest.mark.parametrize("tag,closing", [("polyline", []), ("polygon", [(20, 30, 10, 20)])])
    def test_polyline_and_polygon_under_transform(self, tag, closing):
        # a moveto and linetos through the transform; the polygon is closed
        doc = parse_svg(svg_bytes(f'<g transform="translate(10,20) scale(2)">'
                                  f'<{tag} points="0,0 5,0, 5 5" id="p"/></g>'))
        sides = [(10, 20, 20, 20), (20, 20, 20, 30)] + closing
        assert glyphs_of(doc.segments) == [
            Segment(f"p.{k}", Point(x1, y1), Point(x2, y2))
            for k, (x1, y1, x2, y2) in enumerate(sides)]
        assert doc.warnings == []

    @pytest.mark.parametrize("tag,attrs", [("polyline", ' points=""'),
                                           ("polygon", ' points="  "'), ("polyline", "")])
    def test_empty_points_warn(self, tag, attrs):
        doc = parse_svg(svg_bytes(f"<{tag}{attrs}/>"))
        assert not doc.segments
        assert doc.warnings == [f"empty {tag} skipped"]

    @pytest.mark.parametrize("points,message", [
        ("0,0 5,0 5", "command 'L' needs 2 numbers"),
        ("0,0 L 5,0", "command letter in points"),
        ("0,0 5,0 x", "unexpected"),
    ], ids=["odd_count", "letter", "junk"])
    @pytest.mark.parametrize("tag", ["polyline", "polygon"])
    def test_bad_points_are_path_syntax(self, tag, points, message):
        with pytest.raises(VecfigError, match=message):
            parse_svg(svg_bytes(f'<{tag} points="{points}"/>'))

    def test_far_out_of_canvas_discarded(self):
        doc = parse_svg(svg_bytes('<circle cx="1e6" cy="1e6" r="2"/>'
                                  '<circle cx="10" cy="10" r="2"/>'))
        assert len(doc.circles) == 1
        assert any("out-of-canvas" in w for w in doc.warnings)

    @pytest.mark.parametrize("ends", ['x1="5" y1="5" x2="1e999" y2="-1e999"',
                                      'x1="1e999" y1="-1e999" x2="5" y2="5"'])
    def test_nan_end_discarded_in_either_order(self, ends):
        # under skewX(45) the infinite end becomes (nan, nan): inf - inf and 0 * inf
        doc = parse_svg(svg_bytes(f'<g transform="skewX(45)"><line {ends}/></g>'))
        assert not doc.segments
        assert doc.warnings == ["1 far-out-of-canvas segments discarded"]

    @pytest.mark.parametrize("stray", [
        '<g transform="skewX(45)"><line x1="1e999" y1="-1e999" x2="5" y2="5"/></g>',
        '<line x1="5" y1="5" x2="1e999" y2="5"/>'], ids=["nan_end", "infinite_end"])
    @pytest.mark.parametrize("first", [True, False])
    def test_content_bounds_from_finite_values(self, stray, first):
        axes = ('<line x1="0" y1="100" x2="0" y2="0"/>'
                '<line x1="0" y1="100" x2="100" y2="100"/>')
        body = stray + axes if first else axes + stray
        doc = parse_svg(f'<svg xmlns="http://www.w3.org/2000/svg">{body}</svg>'.encode())
        assert doc.canvas == Rect(0.0, 0.0, 100.0, 100.0)
        assert doc.warnings == ["no viewBox/width/height; canvas from content bounds",
                                "1 far-out-of-canvas segments discarded"]
        assert len(doc.segments) == 2

    def test_no_finite_content_bounds(self):
        doc = parse_svg(b'<svg xmlns="http://www.w3.org/2000/svg">'
                        b'<line x1="5" y1="1e999" x2="6" y2="-1e999"/></svg>')
        assert doc.canvas == Rect(0.0, 0.0, 1.0, 1.0)
        assert doc.warnings == ["no canvas information; unit canvas assumed",
                                "1 far-out-of-canvas segments discarded"]

    @pytest.mark.parametrize("head,canvas", [
        ('width="600" height="450" viewBox="0 0 1e999 450"', Rect(0.0, 0.0, 600.0, 450.0)),
        ('width="600" height="450" viewBox="0 1e308 10 1e308"', Rect(0.0, 0.0, 600.0, 450.0)),
        ('width="600" height="450" viewBox="0 0 1e308 1e308"', Rect(0.0, 0.0, 1e308, 1e308)),
        ('width="1e999" height="450"', Rect(0.0, 100.0, 100.0, 101.0)),
    ])
    def test_canvas_size_taken_only_when_finite(self, head, canvas):
        doc = parse_svg(f'<svg xmlns="http://www.w3.org/2000/svg" {head}>'
                        '<line x1="0" y1="100" x2="100" y2="100"/></svg>'.encode())
        assert doc.canvas == canvas
        assert len(doc.segments) == 1

    @pytest.mark.parametrize("head,cause", [
        ('viewBox="0 0 1e999 450"', "non-finite viewBox"),
        ('viewBox="0 1e308 10 1e308"', "non-finite viewBox"),
        ('width="1e999" height="450"', "non-finite width/height"),
        ('viewBox="0 0 1e999 450" height="1e999"', "non-finite viewBox/width/height"),
        ('viewBox="0 0 0 450" width="600"', "no viewBox/width/height"),
    ])
    def test_content_bounds_warning_names_the_cause(self, head, cause):
        doc = parse_svg(f'<svg xmlns="http://www.w3.org/2000/svg" {head}>'
                        '<line x1="0" y1="100" x2="0" y2="0"/>'
                        '<line x1="0" y1="100" x2="100" y2="100"/></svg>'.encode())
        assert doc.canvas == Rect(0.0, 0.0, 100.0, 100.0)
        assert doc.warnings == [f"{cause}; canvas from content bounds"]

    def test_line_ids_and_zero_length(self):
        # generated ids count every primitive without an id of its own, in
        # document order; a zero-length line takes no id
        doc = parse_svg(svg_bytes('<line x1="0" y1="0" x2="9" y2="0"/>'
                                  '<line id="" x1="3" y1="3" x2="3" y2="3"/>'
                                  '<circle cx="5" cy="5" r="2"/>'
                                  '<line id="axis" x1="0" y1="0" x2="0" y2="9"/>'
                                  '<line id="" x1="0" y1="1" x2="9" y2="1"/>'))
        assert doc.segments.ids == ["line-1", "axis", "line-3"]
        assert doc.circles.ids == ["circle-2"]
        assert doc.warnings == ["zero-length line skipped"]

    def test_text_run(self):
        doc = parse_svg(svg_bytes('<text x="12" y="34" font-size="8">0.5</text>'))
        assert len(doc.texts) == 1
        run = doc.texts[0]
        assert run.anchor == Point(12, 34)
        assert run.content == "0.5"
        assert run.glyph_height == 8.0


class TestParseErrors:
    def test_malformed_xml(self):
        with pytest.raises(VecfigError, match="^unclosed token: line 1, column 5$") as info:
            parse_svg(b"<svg><circle")
        assert info.value.status is Status.PARSE_ERROR

    def test_not_svg(self):
        with pytest.raises(VecfigError, match="^root element is <html>, not <svg>$") as info:
            parse_svg(b"<html><body/></html>")
        assert info.value.status is Status.PARSE_ERROR

    def test_degenerate_transform(self):
        with pytest.raises(VecfigError,
                           match=r"^zero-determinant transform: 'matrix\(0,0,0,0,1,1\)'$"):
            parse_svg(svg_bytes('<g transform="matrix(0,0,0,0,1,1)">'
                                '<circle cx="1" cy="1" r="1"/></g>'))

    @pytest.mark.parametrize("element", ["defs", "title", "use", "polygon"])
    def test_degenerate_transform_on_element_drawing_nothing(self, element):
        # the transform is composed before the element is dispatched
        with pytest.raises(VecfigError, match=r"^zero-determinant transform: 'scale\(0\)'$"):
            parse_svg(svg_bytes(f'<{element} transform="scale(0)"/>'))

    @pytest.mark.parametrize("transform", [
        "rotate(1e400)", "skewX(1e400)", "skewY(-1e400)", "translate(1e400, 0)",
        "matrix(1,0,0,1,0,1e999)"])
    def test_nonfinite_transform_argument(self, transform):
        with pytest.raises(VecfigError, match="^non-finite transform argument: "):
            parse_transform(transform)

    @pytest.mark.parametrize("groups, message", [
        # one attribute whose own product overflows into inf and nan entries
        (['rotate(45) scale(1e200) scale(1e200) rotate(45)'], "non-finite transform"),
        (['rotate(45) scale(1e200)', 'scale(1e200) rotate(45)'],
         "non-finite composed transform"),
        (['scale(1e-200)', 'scale(1e-200)'], "zero-determinant transform"),
        (['scale(1e-100)', 'scale(1e-100)'], "zero-determinant composed transform"),
        (['translate(1e308)', 'translate(1e308)'], "non-finite composed transform"),
    ])
    @pytest.mark.parametrize("content", ['<circle cx="1" cy="1" r="1"/>',
                                         '<line x1="1" y1="1" x2="2" y2="2"/>',
                                         '<text x="1" y="1"><tspan transform="scale(1)">'
                                         '1</tspan></text>'])
    def test_degenerate_composed_transform(self, groups, message, content):
        body = ("".join(f'<g transform="{t}">' for t in groups) + content
                + "</g>" * len(groups))
        with pytest.raises(VecfigError, match=f"^{message}: "):
            parse_svg(svg_bytes(body))

    def test_degenerate_tspan_and_root_transform(self):
        with pytest.raises(VecfigError, match="^zero-determinant composed transform: "):
            parse_svg(svg_bytes('<text x="1" y="1" transform="scale(1e-100)">'
                                '<tspan transform="scale(1e-100)">1</tspan></text>'))
        with pytest.raises(VecfigError, match="^non-finite transform: "):
            parse_svg(svg_bytes("").replace(
                b"<svg ", b'<svg transform="scale(1e200) scale(1e200) rotate(45)" ', 1))

    def test_nesting_deeper_than_recursion_limit(self):
        body = "<g>" * 1200 + '<circle cx="1" cy="1" r="1"/>' + "</g>" * 1200
        with pytest.raises(VecfigError, match="^elements nested too deeply to walk$") as info:
            parse_svg(svg_bytes(body))
        assert info.value.status is Status.PARSE_ERROR


def cubic_deviation_oracle(p0, p1, p2, p3, n=2001):
    """Dense-sampling oracle: max distance of the cubic from its chord."""
    def bez(t):
        u = 1 - t
        return (u**3 * p0[0] + 3 * u * u * t * p1[0] + 3 * u * t * t * p2[0] + t**3 * p3[0],
                u**3 * p0[1] + 3 * u * u * t * p1[1] + 3 * u * t * t * p2[1] + t**3 * p3[1])
    dx, dy = p3[0] - p0[0], p3[1] - p0[1]
    chord = math.hypot(dx, dy)
    worst = 0.0
    for i in range(n):
        x, y = bez(i / (n - 1))
        worst = max(worst, abs((x - p0[0]) * dy - (y - p0[1]) * dx) / chord)
    return worst


class TestFlattenPath:
    def test_single_line(self):
        segs = glyphs_of(flatten_path("M 0 0 L 10 0"))
        assert len(segs) == 1
        assert (segs[0].p1, segs[0].p2) == (Point(0, 0), Point(10, 0))

    def test_two_lines(self):
        segs = flatten_path("M 0 0 L 10 0 L 10 5")
        assert len(segs) == 2

    def test_close_emits_segment(self):
        segs = glyphs_of(flatten_path("M 0 0 L 10 0 L 10 5 Z"))
        assert len(segs) == 3
        assert segs[-1].p2 == Point(0, 0)

    def test_relative_and_shorthand_commands(self):
        segs = glyphs_of(flatten_path("m 1 1 l 2 0 h 3 v 4"))
        assert [(s.p1, s.p2) for s in segs] == [
            (Point(1, 1), Point(3, 1)),
            (Point(3, 1), Point(6, 1)),
            (Point(6, 1), Point(6, 5)),
        ]

    def test_shallow_cubic_becomes_segment(self):
        # oracle: dense sampling of the cubic's chord deviation
        dev = cubic_deviation_oracle((0, 0), (3, 0.1), (7, 0.1), (10, 0))
        assert dev == pytest.approx(0.075, abs=0.002)
        assert dev <= 0.25
        segs = glyphs_of(flatten_path("M 0 0 C 3 0.1 7 0.1 10 0"))
        assert len(segs) == 1
        assert (segs[0].p1, segs[0].p2) == (Point(0, 0), Point(10, 0))

    def test_deep_cubic_skipped_with_warning(self):
        dev = cubic_deviation_oracle((0, 0), (3, 5), (7, 5), (10, 0))
        assert dev > 0.25
        warnings: list[str] = []
        segs = flatten_path("M 0 0 C 3 5 7 5 10 0", warnings=warnings)
        assert not segs
        assert warnings

    def test_quadratic_threshold(self):
        # quadratic peak deviation is half the control point offset
        segs = flatten_path("M 0 0 Q 5 0.4 10 0")
        assert len(segs) == 1
        warnings: list[str] = []
        segs = flatten_path("M 0 0 Q 5 0.6 10 0", warnings=warnings)
        assert not segs and warnings

    def test_path_syntax_error(self):
        with pytest.raises(VecfigError, match="^command 'L' needs 2 numbers$"):
            flatten_path("M 0 0 L 10")
        with pytest.raises(VecfigError, match="^path data does not start with a command$"):
            flatten_path("10 0 L 1 1")
        with pytest.raises(VecfigError, match="^unexpected text in path data: ' X '$"):
            flatten_path("M 0 0 X 1 1")

    def test_implicit_lineto_after_moveto(self):
        segs = flatten_path("M 0 0 5 5 10 0")
        assert len(segs) == 2


def _oracle_chord_deviation(points):
    start, end = points[0], points[-1]
    dx, dy = end.x - start.x, end.y - start.y
    chord = math.hypot(dx, dy)
    if chord == 0.0:
        return max(math.hypot(p.x - start.x, p.y - start.y) for p in points)
    return max(abs((p.x - start.x) * dy - (p.y - start.y) * dx) / chord
               for p in points)


def _oracle_sample_cubic(p0, p1, p2, p3, n=33):
    pts = []
    for i in range(n):
        t = i / (n - 1)
        u = 1.0 - t
        x = u**3 * p0.x + 3 * u * u * t * p1.x + 3 * u * t * t * p2.x + t**3 * p3.x
        y = u**3 * p0.y + 3 * u * u * t * p1.y + 3 * u * t * t * p2.y + t**3 * p3.y
        pts.append(Point(x, y))
    return pts


def _oracle_sample_quadratic(p0, p1, p2, n=33):
    pts = []
    for i in range(n):
        t = i / (n - 1)
        u = 1.0 - t
        x = u * u * p0.x + 2 * u * t * p1.x + t * t * p2.x
        y = u * u * p0.y + 2 * u * t * p1.y + t * t * p2.y
        pts.append(Point(x, y))
    return pts


def append_segment(segments, *row):
    """Append one segment to the columns of ``segments``, in field order."""
    columns = (segments.ids, segments.x1, segments.y1, segments.x2, segments.y2)
    for column, value in zip(columns, row, strict=True):
        column.append(value)


def flatten_path_oracle(path_data, transform=IDENTITY, id_prefix="path", warnings=None):
    """Oracle: path flattening with a Point per sample, as first written."""
    tokens = svg_model._tokenize_path(path_data)
    warnings = warnings if warnings is not None else []
    segments = Segments()
    ta, tb, tc, td, te, tf = (transform.a, transform.b, transform.c,
                              transform.d, transform.e, transform.f)

    def apply(p):
        return Point(ta * p.x + tc * p.y + te, tb * p.x + td * p.y + tf)

    cur = Point(0.0, 0.0)
    start = Point(0.0, 0.0)
    prev_cubic_ctrl = None
    prev_quad_ctrl = None
    cmd = None
    i = 0
    seg_n = 0

    def emit(p1, p2):
        nonlocal seg_n
        x1 = ta * p1.x + tc * p1.y + te
        y1 = tb * p1.x + td * p1.y + tf
        x2 = ta * p2.x + tc * p2.y + te
        y2 = tb * p2.x + td * p2.y + tf
        if x1 != x2 or y1 != y2:
            append_segment(segments, f"{id_prefix}.{seg_n}", x1, y1, x2, y2)
            seg_n += 1

    def emit_curve(ctrl_points):
        nonlocal seg_n
        devpts = [apply(p) for p in ctrl_points]
        if _oracle_chord_deviation(devpts) <= svg_model.CURVE_DEVIATION_TOL:
            start, end = devpts[0], devpts[-1]
            if start != end:
                append_segment(segments, f"{id_prefix}.{seg_n}",
                               start.x, start.y, end.x, end.y)
                seg_n += 1
        else:
            warnings.append(f"{id_prefix}: curve exceeds deviation bound, skipped")

    def take(n):
        nonlocal i
        if i + n > len(tokens) or any(isinstance(t, str) for t in tokens[i:i + n]):
            raise VecfigError(f"command {cmd!r} needs {n} numbers")
        vals = [float(tokens[j]) for j in range(i, i + n)]
        i += n
        return vals

    while i < len(tokens):
        tok = tokens[i]
        if isinstance(tok, str):
            cmd = tok
            i += 1
            if cmd.upper() == "Z":
                if cur != start:
                    emit(cur, start)
                cur = start
                prev_cubic_ctrl = prev_quad_ctrl = None
                continue
        elif cmd is None:
            raise VecfigError("path data does not start with a command")
        elif cmd in ("M", "m"):
            cmd = "L" if cmd == "M" else "l"
        rel = cmd.islower()
        op = cmd.upper()
        if op == "Z":
            raise VecfigError("Z takes no arguments")
        args = take(svg_model._PATH_ARITY[op])

        if op == "M":
            cur = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
            start = cur
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op == "L":
            nxt = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
            emit(cur, nxt)
            cur = nxt
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op == "H":
            nxt = Point(cur.x + args[0] if rel else args[0], cur.y)
            emit(cur, nxt)
            cur = nxt
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op == "V":
            nxt = Point(cur.x, cur.y + args[0] if rel else args[0])
            emit(cur, nxt)
            cur = nxt
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op in ("C", "S"):
            if op == "C":
                c1 = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
                c2 = Point(cur.x + args[2], cur.y + args[3]) if rel else Point(args[2], args[3])
                end = Point(cur.x + args[4], cur.y + args[5]) if rel else Point(args[4], args[5])
            else:
                c1 = (Point(2 * cur.x - prev_cubic_ctrl.x, 2 * cur.y - prev_cubic_ctrl.y)
                      if prev_cubic_ctrl else cur)
                c2 = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
                end = Point(cur.x + args[2], cur.y + args[3]) if rel else Point(args[2], args[3])
            emit_curve(_oracle_sample_cubic(cur, c1, c2, end))
            prev_cubic_ctrl = c2
            prev_quad_ctrl = None
            cur = end
        elif op in ("Q", "T"):
            if op == "Q":
                c1 = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
                end = Point(cur.x + args[2], cur.y + args[3]) if rel else Point(args[2], args[3])
            else:
                c1 = (Point(2 * cur.x - prev_quad_ctrl.x, 2 * cur.y - prev_quad_ctrl.y)
                      if prev_quad_ctrl else cur)
                end = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
            emit_curve(_oracle_sample_quadratic(cur, c1, end))
            prev_quad_ctrl = c1
            prev_cubic_ctrl = None
            cur = end
        elif op == "A":
            end = Point(cur.x + args[5], cur.y + args[6]) if rel else Point(args[5], args[6])
            warnings.append(f"{id_prefix}: elliptical arc skipped")
            cur = end
            prev_cubic_ctrl = prev_quad_ctrl = None
    return segments


# few distinct values, so that control points often fall on the chord and
# curves are kept as well as skipped; the extremes overflow under a transform
_PATH_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "1", "2", "0.1", "10", ".5", "-3", "100",
                     "1e999", "-1e999", "1e300", "-1e300"]),
    st.floats(-500, 500).map(repr))


@st.composite
def path_data(draw):
    """Path strings over all 20 command letters: implicit repeats, a number
    missing or extra, an optional leading number, Z anywhere."""
    parts = [draw(_PATH_NUMBERS)] if draw(st.integers(0, 9)) == 0 else []
    for _ in range(draw(st.integers(0, 8))):
        letter = draw(st.sampled_from("MmLlHhVvZzCcSsQqTtAa"))
        n = (svg_model._PATH_ARITY[letter.upper()] * draw(st.sampled_from([1, 1, 1, 2, 3]))
             + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])))
        parts.append(letter)
        parts += [draw(_PATH_NUMBERS) for _ in range(max(n, 0))]
    return draw(st.sampled_from([" ", ",", ", ", "\n"])).join(parts)


def _flatten_outcome(flatten, d, transform):
    warnings: list[str] = []
    try:
        segs = flatten(d, transform, id_prefix="p", warnings=warnings)
    except VecfigError as exc:
        return "VecfigError", str(exc), warnings
    return repr((segs.ids, segs.x1, segs.y1, segs.x2, segs.y2)), None, warnings


class TestFlattenPathOracle:
    @given(path_data(), st.sampled_from(["", "scale(2 3) translate(5 -7)", "rotate(30)",
                                         "scale(1e300)"]))
    @settings(max_examples=1000, deadline=None)
    def test_matches_point_per_sample_flattening(self, d, transform_text):
        transform = parse_transform(transform_text)
        assert (_flatten_outcome(flatten_path, d, transform)
                == _flatten_outcome(flatten_path_oracle, d, transform))

    @pytest.mark.parametrize("d", [
        "M 0 0 C 3 0.1 7 0.1 10 0 S 17 -0.1 20 0",  # S after C reflects
        "M 0 0 S 5 0.4 10 0",                          # S with nothing to reflect
        "M 0 0 Q 5 0.4 10 0 T 20 0 t 10 0",            # T after Q and after T
        "M 0 0 T 10 0.5",                              # T with nothing to reflect
        "M 0 0 C 5 0.1 5 0.1 10 0 T 20 0",             # T after C reflects nothing
        "M 1e999 0 l -1e999 0 h 5 Z",                  # nan in user space
        "M 0 1e999 m 0 -1e999 h 5 h -5 Z",             # the same nan at start and end
        "M 0 0 L 10 0 Z L 5 5 z",                      # Z mid-path
        "M 0 0 L 10", "10 0 L 1 1", "M 0 0 Z 1", "M 0 0 A 1 1 0 0 1 5",
    ])
    @pytest.mark.parametrize("transform_text", ["", "rotate(30)", "scale(1e300)"])
    def test_pinned_cases(self, d, transform_text):
        transform = parse_transform(transform_text)
        assert (_flatten_outcome(flatten_path, d, transform)
                == _flatten_outcome(flatten_path_oracle, d, transform))


def compose_text_runs_oracle(raw_glyph_texts):
    """Oracle: each run compared with the first run of every group made so far."""
    if not raw_glyph_texts:
        return []
    pending = sorted(raw_glyph_texts, key=lambda r: (r.anchor.y, r.anchor.x))
    baselines = []
    for run in pending:
        for group in baselines:
            h = max(run.glyph_height, group[0].glyph_height)
            if abs(run.anchor.y - group[0].anchor.y) <= svg_model.RUN_BASELINE_TOL * h:
                group.append(run)
                break
        else:
            baselines.append([run])
    merged = []
    for group in baselines:
        group.sort(key=lambda r: r.anchor.x)
        chain = [group[0]]
        for run in group[1:]:
            last = chain[-1]
            h = max(run.glyph_height, last.glyph_height)
            if run.anchor.x - last.anchor.x <= svg_model.RUN_GAP_TOL * h:
                chain.append(run)
            else:
                merged.append(svg_model._join_chain(chain))
                chain = [run]
        merged.append(svg_model._join_chain(chain))
    merged.sort(key=lambda r: (r.anchor.y, r.anchor.x))
    return merged


class TestComposeTextRuns:
    # tied and nearly tied baselines, glyph heights that are zero, negative
    # (a negative font-size) or infinite (an overflowing one)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, 1.0, 1.5, 1.6, 1.7, 2.0, 3.0, 10.0, 10.2,
                                   math.inf, -math.inf]),
                  st.floats(-50, 50)),
        st.one_of(st.sampled_from([0.0, 4.0, 4.8, 8.0]), st.floats(-50, 50)),
        st.one_of(st.sampled_from([0.0, 1.0, 5.0, 8.0, 8.5, 20.0, -3.0, 8e6, math.inf]),
                  st.floats(0.1, 30)))))
    @settings(max_examples=300, deadline=None)
    def test_equals_all_groups_oracle(self, glyphs):
        runs = [TextRun(Point(x, y), str(i), h)
                for i, (y, x, h) in enumerate(glyphs)]
        assert compose_text_runs(runs) == compose_text_runs_oracle(runs)

    def test_baseline_comparisons_near_linear(self):
        calls = 0

        class CountingFloat(float):
            def __sub__(self, other):
                nonlocal calls
                calls += 1
                return float(self) - float(other)

            def __rsub__(self, other):
                nonlocal calls
                calls += 1
                return float(other) - float(self)

        # one glyph per baseline, each far from the next; then, below them
        # all, one glyph tall enough to reach every baseline
        for n, tall in itertools.product((1000, 4000), (None, 8e6, math.inf)):
            calls = 0
            runs = [TextRun(Point(5.0, CountingFloat(10.0 * i)), "1", 8.0)
                    for i in range(n)]
            if tall:
                runs.append(TextRun(Point(5.0, CountingFloat(10.0 * n)), "2", tall))
            merged = compose_text_runs(runs)
            # the tall glyph joins the first baseline
            assert len(merged) == n
            assert merged[0].content == ("12" if tall else "1")
            # comparing with every group made so far takes n * (n - 1) / 2
            assert calls <= n * (n.bit_length() + 2)

    @pytest.mark.parametrize("y", [math.inf, -math.inf])
    def test_infinite_baselines_stay_apart(self, y):
        # inf - inf is nan, which is no distance within the tolerance
        runs = [TextRun(Point(10, y), "1", 8.0), TextRun(Point(14, y), "2", 8.0)]
        assert [r.content for r in compose_text_runs(runs)] == ["1", "2"]

    def test_infinite_height_reaches_past_an_equal_baseline(self):
        # the second -inf glyph is no distance from the first, which still
        # reaches the finite baseline by its infinite height
        runs = [TextRun(Point(0, -math.inf), "1", math.inf),
                TextRun(Point(0, -math.inf), "2", 8.0), TextRun(Point(0, 0), "3", 8.0)]
        merged = compose_text_runs(runs)
        assert merged == compose_text_runs_oracle(runs)
        assert [r.content for r in merged] == ["13", "2"]

    def test_adjacent_glyphs_merge(self):
        # gap 4 <= 0.6 * 8 = 4.8
        runs = [TextRun(Point(10, 100), "1", 8.0),
                TextRun(Point(14, 100), "0", 8.0)]
        out = compose_text_runs(runs)
        assert len(out) == 1
        assert out[0].content == "10"
        assert out[0].anchor == Point(10, 100)

    def test_single_run_unchanged(self):
        runs = [TextRun(Point(5, 5), "3", 8.0)]
        assert compose_text_runs(runs) == runs

    def test_different_baselines_stay_separate(self):
        # baseline gap 40 > 0.2 * 8
        runs = [TextRun(Point(10, 100), "1", 8.0),
                TextRun(Point(10, 140), "2", 8.0)]
        out = compose_text_runs(runs)
        assert len(out) == 2

    def test_wide_gap_stays_separate(self):
        runs = [TextRun(Point(10, 100), "1", 8.0),
                TextRun(Point(20, 100), "0", 8.0)]  # gap 10 > 4.8
        assert len(compose_text_runs(runs)) == 2

    def test_chain_of_three(self):
        runs = [TextRun(Point(10, 100), "1", 8.0),
                TextRun(Point(14, 100), "2", 8.0),
                TextRun(Point(18, 100), "3", 8.0)]
        out = compose_text_runs(runs)
        assert len(out) == 1
        assert out[0].content == "123"

    def test_output_sorted_by_y_then_x(self):
        runs = [TextRun(Point(50, 200), "b", 8.0),
                TextRun(Point(10, 100), "a", 8.0)]
        out = compose_text_runs(runs)
        assert [r.content for r in out] == ["a", "b"]

    def test_empty_input(self):
        assert compose_text_runs([]) == []

    @pytest.mark.parametrize("body,content,value", [
        ("<tspan>2 </tspan><tspan>5</tspan>", "2 5", None),
        ("<tspan>2</tspan><tspan> </tspan><tspan>5</tspan>", "2 5", None),
        ("2 5", "2 5", None),
        (" 2<tspan>5 </tspan>", "25", 25.0),
        ("<tspan>2</tspan>5", "25", 25.0),
        ("1<tspan>0</tspan>5", "105", 105.0),
        ("1<tspan>0<tspan>5</tspan> </tspan>2", "105 2", None),
        # a link inside text is read as a tspan is
        ("1<a>0</a>5", "105", 105.0),
        ("1<a><tspan>0</tspan></a>5", "105", 105.0),
    ])
    def test_pieces_at_one_anchor_strip_as_one_text(self, body, content, value):
        # the whitespace between unpositioned tspans stays, as in one element,
        # and text after a tspan (its tail) joins the run before it
        doc = parse_svg(svg_bytes(f'<text x="1" y="5">{body}</text>'))
        assert [(r.content, r.anchor) for r in doc.texts] == [(content, Point(1, 5))]
        assert doc.warnings == []
        label = parse_numeric_label(doc.texts[0])
        assert (label and label.value) == value

    @pytest.mark.parametrize("body,runs,n_warnings", [
        # a tail continues where the tspan before it left off
        ('1<tspan x="20" y="5">0</tspan>5', [("1", Point(1, 5)), ("05", Point(20, 5))], 0),
        ('1<tspan x="20" y="5"></tspan>5', [("1", Point(1, 5)), ("5", Point(20, 5))], 0),
        ('1<a x="20" y="5">0</a>5', [("1", Point(1, 5)), ("05", Point(20, 5))], 0),
        # one current text position: a coordinate a tspan does not give is
        # kept, and a later unpositioned tspan continues where it moved to
        ('1<tspan x="50">2</tspan>', [("1", Point(1, 5)), ("2", Point(50, 5))], 0),
        ('1<tspan x="50" y="5">2</tspan><tspan>3</tspan>',
         [("1", Point(1, 5)), ("23", Point(50, 5))], 0),
        ('1<tspan y="120">2</tspan>', [("1", Point(1, 5)), ("2", Point(1, 120))], 0),
        ('1<tspan x="50">2</tspan>3', [("1", Point(1, 5)), ("23", Point(50, 5))], 0),
        # an unsupported child is skipped, with a warning, and its tail read
        ('1<textPath>0</textPath>5', [("15", Point(1, 5))], 1),
    ])
    def test_tail_joins_the_anchor_before_it(self, body, runs, n_warnings):
        doc = parse_svg(svg_bytes(f'<text x="1" y="5">{body}</text>'))
        assert [(r.content, r.anchor) for r in doc.texts] == runs
        assert len(doc.warnings) == n_warnings

    def test_tail_without_anchor_skipped_with_a_warning(self):
        doc = parse_svg(svg_bytes("<text><tspan>2</tspan>5<tspan> </tspan> </text>"))
        assert doc.texts == []
        assert doc.warnings == ["text without anchor skipped"] * 2


class TestTransformParsing:
    def test_rotate_about_point(self):
        t = parse_transform("rotate(90, 10, 10)")
        p = t.apply_xy(20, 10)
        assert p.x == pytest.approx(10)
        assert p.y == pytest.approx(20)

    def test_sequence_composes_left_to_right(self):
        t = parse_transform("translate(10,0) scale(2)")
        assert t.apply_xy(1, 1) == Point(12, 2)

    @pytest.mark.parametrize("text", ["translate(10,5) scale(1.2)",
                                      "rotate(30, 4, -7) skewX(12)",
                                      "matrix(0.5, -2, 3, 1, -40, 25)"])
    def test_inverse_undoes_transform(self, text):
        t = parse_transform(text)
        for composed in (t.then(t.inverse()), t.inverse().then(t)):
            for p in (Point(0, 0), Point(13.5, -8), Point(-250, 400)):
                q = composed.apply_xy(p.x, p.y)
                assert (q.x, q.y) == pytest.approx((p.x, p.y), abs=1e-9)


class TestInvariants:
    @given(st.floats(0.2, 4.0), st.floats(0.2, 4.0),
           st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_transform_composition(self, sx, sy, tx, ty):
        inner = '<circle cx="100" cy="120" r="5"/><line x1="60" y1="60" x2="200" y2="60"/>'
        plain = parse_svg(svg_bytes(inner))
        wrapped = parse_svg(svg_bytes(
            f'<g transform="translate({tx},{ty}) scale({sx},{sx})">{inner}</g>'))
        t = AffineTransform(a=sx, d=sx, e=tx, f=ty)
        # uniform scale keeps circles circular
        center = circles_of(plain.circles)[0].center
        expect = t.apply_xy(center.x, center.y)
        got = circles_of(wrapped.circles)[0].center
        assert math.hypot(expect.x - got.x, expect.y - got.y) < 1e-9 * max(1, abs(tx), abs(ty))
        for ps, ws in zip(glyphs_of(plain.segments), glyphs_of(wrapped.segments)):
            for pp, wp in ((ps.p1, ws.p1), (ps.p2, ws.p2)):
                ep = t.apply_xy(pp.x, pp.y)
                assert math.hypot(ep.x - wp.x, ep.y - wp.y) < 1e-9 * 100
        del sy, ty  # scale must stay uniform for circles; sy unused by design

    def test_idempotent_flattening(self):
        doc = parse_svg(svg_bytes(
            '<circle cx="103.71" cy="121.22" r="25.234"/>'
            '<line x1="50" y1="400" x2="500" y2="400"/>'
            '<text x="48" y="415" font-size="8">0.5</text>'))
        doc2 = parse_svg(serialize_model(doc))
        assert len(doc2.circles) == len(doc.circles)
        for a, b in zip(circles_of(doc.circles), circles_of(doc2.circles)):
            assert abs(a.center.x - b.center.x) < 1e-9
            assert abs(a.center.y - b.center.y) < 1e-9
            assert abs(a.radius - b.radius) < 1e-9
        for a, b in zip(glyphs_of(doc.segments), glyphs_of(doc2.segments)):
            assert abs(a.p1.x - b.p1.x) < 1e-9 and abs(a.p2.y - b.p2.y) < 1e-9
        assert [t.content for t in doc.texts] == [t.content for t in doc2.texts]

    def test_no_primitive_loss(self):
        body = ('<circle cx="10" cy="10" r="2"/>'
                '<ellipse cx="10" cy="10" rx="4" ry="1"/>'  # skipped -> warning
                '<line x1="0" y1="0" x2="5" y2="5"/>'
                '<foreignObject width="1" height="1"/>'     # unsupported -> warning
                '<use xlink:href="#a"/>')                   # unsupported -> warning
        doc = parse_svg(svg_bytes(body))
        n_supported_inputs = 5
        assert len(doc.circles) + len(doc.segments) + len(doc.warnings) == n_supported_inputs


# ---------------------------------------------------------------------------
# the per-marker parse path against the versions it replaced

_NUM_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def regex_parse_length(text):
    """Oracle: the first number the number pattern finds, as before."""
    if text is None:
        return None
    m = _NUM_RE.search(text)
    return float(m.group(0)) if m else None


def rounded_oracle(t, cx, cy, rx, ry, warnings):
    """Oracle: a circle or ellipse through a per-marker scaled matrix."""
    if not (0 < rx < math.inf and 0 < ry < math.inf):
        warnings.append(f"degenerate circle/ellipse skipped (r={rx},{ry})")
        return None
    a, b, c, d = t.a * rx, t.b * rx, t.c * ry, t.d * ry
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    root = math.sqrt(max(0.0, s * s - 4.0 * det * det))
    s1 = math.sqrt(max(0.0, (s + root) / 2.0))
    s2 = math.sqrt(max(0.0, (s - root) / 2.0))
    if s1 == math.inf:
        warnings.append(f"degenerate circle/ellipse skipped (r={rx},{ry})")
        return None
    if s1 <= 0 or (s1 - s2) / s1 > 0.05:
        warnings.append(f"non-circular ellipse skipped (semi-axes {s1:.3g}, {s2:.3g})")
        return None
    return t.apply_xy(cx, cy), math.sqrt(s1 * s2)


def walk_oracle(elem, t, doc, counter):
    """Oracle: the lines, circles and ellipses under ``elem``, each attribute
    read with ``_parse_length(text) or 0.0`` and each marker solved alone."""
    for child in elem:
        tag = child.tag.rsplit("}", 1)[-1]
        own = child.get("transform")
        ct = t.then(parse_transform(own)) if own else t

        def length(name):
            return _parse_length(child.get(name)) or 0.0

        def new_id(kind):
            if child.get("id"):
                return child.get("id")
            counter[0] += 1
            return f"{kind}-{counter[0]}"

        if tag == "g":
            walk_oracle(child, ct, doc, counter)
        elif tag == "line":
            p1 = ct.apply_xy(length("x1"), length("y1"))
            p2 = ct.apply_xy(length("x2"), length("y2"))
            if p1.x == p2.x and p1.y == p2.y:
                doc.warnings.append("zero-length line skipped")
            else:
                append_segment(doc.segments, new_id("line"), p1.x, p1.y, p2.x, p2.y)
        else:
            rx = length("r" if tag == "circle" else "rx")
            ry = length("r" if tag == "circle" else "ry")
            got = rounded_oracle(ct, length("cx"), length("cy"), rx, ry, doc.warnings)
            if got is not None:
                (x, y), radius = astuple(got[0]), got[1]
                markers = doc.circles
                markers.ids.append(new_id("circle"))
                markers.cx.append(x)
                markers.cy.append(y)
                markers.r.append(radius)


def canvas_filter_oracle(doc):
    """Oracle: the overflow test on a Rect per primitive, as before."""
    canvas = doc.canvas
    cx, cy = (canvas.x0 + canvas.x1) / 2.0, (canvas.y0 + canvas.y1) / 2.0
    half_w = canvas.width * CANVAS_OVERFLOW_FACTOR / 2.0
    half_h = canvas.height * CANVAS_OVERFLOW_FACTOR / 2.0

    def within(b: Rect) -> bool:
        return (cx - half_w <= b.x0 and b.x1 <= cx + half_w
                and cy - half_h <= b.y0 and b.y1 <= cy + half_h)
    return {
        "circles": [c for c in circles_of(doc.circles) if within(Rect(
            c.center.x - c.radius, c.center.y - c.radius,
            c.center.x + c.radius, c.center.y + c.radius))],
        "segments": [s for s in glyphs_of(doc.segments) if within(Rect(
            min(s.p1.x, s.p2.x), min(s.p1.y, s.p2.y),
            max(s.p1.x, s.p2.x), max(s.p1.y, s.p2.y)))],
        "rasters": [r for r in doc.rasters if within(r)],
        "texts": [t for t in doc.texts if within(Rect(
            t.anchor.x, t.anchor.y, t.anchor.x, t.anchor.y))],
    }


_LENGTH_PIECES = st.sampled_from(
    ["0", "1", "7", "42", "-", "+", ".", "e", "E", "_", " ", "\t", "px", "%",
     "inf", "nan", "Infinity", "1e999", "-1e999", "1e-400", "١", "٢", "５",
     " ", "x", ","])
_TRANSFORM_STEPS = st.one_of(
    st.tuples(st.just("rotate"), st.floats(-360, 360)),
    st.tuples(st.just("scale"), st.floats(0.05, 20), st.floats(0.05, 20)),
    st.tuples(st.just("skewX"), st.floats(-30, 30)),
    st.tuples(st.just("skewY"), st.floats(-30, 30)),
    st.tuples(st.just("translate"), st.floats(-100, 100), st.floats(-100, 100)),
)


# attribute texts for the walk's number reads: plain numbers, texts float()
# reads otherwise than _parse_length, units, junk and missing attributes
_WALK_NUMBERS = st.one_of(
    st.floats(-500, 500).map(repr),
    st.sampled_from(["1_0", "inf", "nan", "1e999", "-1e999", "-0", "5px", "", None]),
    st.lists(_LENGTH_PIECES, max_size=8).map("".join))
# radius texts repeat, so that runs of markers share them
_WALK_RADII = st.sampled_from(["2", "2.0", "2.05", "3", "0", "-2", "1e999", "1e200",
                               "1_0", "-0", "5px", "", None])
_WALK_ELEMENTS = st.one_of(
    st.tuples(st.just("line"), st.tuples(*[_WALK_NUMBERS] * 4)),
    st.tuples(st.just("circle"), st.tuples(_WALK_RADII, _WALK_NUMBERS, _WALK_NUMBERS)),
    st.tuples(st.just("ellipse"),
              st.tuples(_WALK_RADII, _WALK_RADII, _WALK_NUMBERS, _WALK_NUMBERS)),
    st.tuples(st.sampled_from(["circle", "ellipse"]),
              st.tuples(_WALK_RADII, _WALK_RADII, _WALK_NUMBERS, _WALK_NUMBERS),
              st.sampled_from(["", "skewX(35)", "scale(1e200)", "rotate(90)"]),
              st.sampled_from(["", "m"])),
    # a line under its own transform, between lines under the group's
    st.tuples(st.just("line"), st.tuples(*[_WALK_NUMBERS] * 4),
              st.sampled_from(["", "skewX(35)", "scale(1e200)", "rotate(90)"]),
              st.sampled_from(["", "l"])))
_WALK_ATTRIBUTES = {"line": ("x1", "y1", "x2", "y2"), "circle": ("r", "cx", "cy"),
                    "ellipse": ("rx", "ry", "cx", "cy")}


def _walk_element(element) -> str:
    tag, texts, *own = element
    if own and tag == "circle":
        texts = texts[1:]
    attributes = [f'{name}="{text}"' for name, text in zip(_WALK_ATTRIBUTES[tag], texts)
                  if text is not None]
    if own:
        transform, eid = own
        attributes += [f'transform="{transform}"'] if transform else []
        attributes += [f'id="{eid}"']
    return f'<{tag} {" ".join(attributes)}/>'


def _transform_text(steps) -> str:
    return " ".join(f"{name}({' '.join(repr(v) for v in args)})"
                    for name, *args in steps)


class TestMarkerPathOracles:
    @given(st.one_of(st.lists(_LENGTH_PIECES, max_size=8).map("".join), st.text()))
    @settings(max_examples=500, deadline=None)
    def test_parse_length_equals_number_search(self, text):
        assert _parse_length(text) == regex_parse_length(text)

    @pytest.mark.parametrize("text", ["1_0", "inf", "-inf", "nan", "Infinity",
                                      "1e999", "١٢.٥", "  3.5px", "+.5e-3", "1.2.3",
                                      "", "px", None])
    def test_parse_length_edge_cases(self, text):
        assert _parse_length(text) == regex_parse_length(text)

    @given(st.lists(st.lists(_TRANSFORM_STEPS, min_size=1, max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.floats(-300, 300), st.floats(-300, 300),
                              st.floats(0.1, 20), st.floats(0.1, 20),
                              st.booleans(), st.lists(_TRANSFORM_STEPS, max_size=2)),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_circles_match_per_marker_solve(self, groups, markers):
        """Nested rotate/scale/skew groups, markers with and without their own transform."""
        body = "".join(f'<g transform="{_transform_text(g)}">' for g in groups)
        outer = IDENTITY
        for g in groups:
            outer = outer.then(parse_transform(_transform_text(g)))
        want_warnings: list[str] = []
        want = {}
        for i, (cx, cy, rx, ry, is_circle, own) in enumerate(markers):
            own_attr = f' transform="{_transform_text(own)}"' if own else ""
            t = outer.then(parse_transform(_transform_text(own))) if own else outer
            if is_circle:
                body += f'<circle id="m{i}"{own_attr} cx="{cx!r}" cy="{cy!r}" r="{rx!r}"/>'
                ry = rx
            else:
                body += (f'<ellipse id="m{i}"{own_attr} cx="{cx!r}" cy="{cy!r}" '
                         f'rx="{rx!r}" ry="{ry!r}"/>')
            got = rounded_oracle(t, cx, cy, rx, ry, want_warnings)
            if got is not None:
                want[f"m{i}"] = got
        body += "</g>" * len(groups)
        doc = parse_svg(svg_bytes(body, 1e6, 1e6))
        assert {c.id: (c.center, c.radius) for c in circles_of(doc.circles)} == want
        assert doc.warnings == want_warnings

    @pytest.mark.parametrize("element,warning", [
        ('<circle cx="1" cy="1" r="0"/>', "degenerate circle/ellipse skipped (r=0.0,0.0)"),
        ('<circle cx="1" cy="1" r="-2"/>', "degenerate circle/ellipse skipped (r=-2.0,-2.0)"),
        ('<ellipse cx="1" cy="1" rx="3"/>', "degenerate circle/ellipse skipped (r=3.0,0.0)"),
        ('<ellipse cx="10" cy="10" rx="4" ry="2"/>',
         "non-circular ellipse skipped (semi-axes 4, 2)"),
        ('<g transform="scale(3,1)"><circle cx="5" cy="5" r="2"/></g>',
         "non-circular ellipse skipped (semi-axes 6, 2)"),
        ('<circle transform="skewX(35)" cx="5" cy="5" r="2"/>',
         "non-circular ellipse skipped (semi-axes 2.82, 1.42)"),
    ])
    def test_degenerate_and_eccentric_warnings(self, element, warning):
        # the same marker twice: the second reuses the first one's solve
        doc = parse_svg(svg_bytes(element * 2))
        assert not doc.circles
        assert doc.warnings == [warning, warning]

    def test_one_solve_per_transform(self, monkeypatch):
        calls = []
        solve = svg_model._singular_values

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(svg_model, "_singular_values", counting)
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20_000, seed=5))
        doc = parse_svg(svg)
        assert len(doc.circles) == 20_000
        assert len(calls) == 1
        # markers under three transformed groups: one solve per group
        calls.clear()
        body = "".join(f'<g transform="rotate({k * 20}) scale({k})">'
                       + '<circle cx="5" cy="5" r="2"/>' * 50 + "</g>"
                       for k in (1, 2, 3))
        assert len(parse_svg(svg_bytes(body)).circles) == 150
        assert len(calls) == 3

    @given(st.lists(st.one_of(_WALK_ELEMENTS, st.tuples(
        st.sampled_from(["scale(2)", "rotate(30)", "scale(3,1)", "translate(-0, 5)"]),
        st.lists(_WALK_ELEMENTS, max_size=6))), min_size=1, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_walk_reads_numbers_as_parse_length(self, items):
        """Runs broken by a new radius text or transform, groups, own transforms."""
        body = ""
        for item in items:
            if isinstance(item[1], list):
                group_t, elements = item
                body += f'<g transform="{group_t}">' + "".join(map(_walk_element, elements))
                body += "</g>"
            else:
                body += _walk_element(item)
        data = svg_bytes(body, 1e308, 1e308)
        want = FigureDocument(canvas=Rect(0.0, 0.0, 1e308, 1e308))
        walk_oracle(ET.fromstring(data), IDENTITY, want, [0])
        svg_model._drop_out_of_canvas(want)
        got = parse_svg(data)
        # repr tells -0.0 from 0.0
        for column in ("ids", "cx", "cy", "r"):
            assert (list(map(repr, getattr(got.circles, column)))
                    == list(map(repr, getattr(want.circles, column))))
        for column in ("ids", "x1", "y1", "x2", "y2"):
            assert (list(map(repr, getattr(got.segments, column)))
                    == list(map(repr, getattr(want.segments, column))))
        assert got.warnings == want.warnings

    def test_number_reads_do_not_grow_with_markers(self, monkeypatch):
        calls = {"_parse_length": 0, "_singular_values": 0}
        for name in calls:
            def counting(*args, real=getattr(svg_model, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(svg_model, name, counting)
        counts = []
        for n in (1000, 4000):
            calls.update(dict.fromkeys(calls, 0))
            svg, _ = generate_scatter_svg(SyntheticSpec(n_points=n, seed=5))
            assert len(parse_svg(svg).circles) == n
            counts.append(dict(calls))
        # one radius and plain numbers: the calls read the axes and labels
        assert counts[0] == counts[1]
        assert counts[0]["_singular_values"] == 1

    @given(st.lists(st.tuples(st.sampled_from(["circles", "segments", "rasters", "texts"]),
                              st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
                              st.floats(0, 3000)), max_size=20),
           st.floats(-500, 500), st.floats(-500, 500),
           st.floats(1, 500), st.floats(1, 500))
    @settings(max_examples=300, deadline=None)
    def test_canvas_filter_matches_rect_overflow(self, items, x0, y0, width, height):
        doc = FigureDocument(canvas=Rect(x0, y0, x0 + width, y0 + height))
        circles = []
        segments = []
        for i, (kind, x, y, size) in enumerate(items):
            if kind == "circles":
                circles.append(Circle(f"c{i}", Point(x, y), size))
            elif kind == "segments":
                segments.append(Segment(f"s{i}", Point(x, y),
                                             Point(x + size, y - size)))
            elif kind == "rasters":
                doc.rasters.append(Rect(x, y, x + size, y + size))
            else:
                doc.texts.append(TextRun(Point(x, y), "1", size))
        doc.circles = markers_of(circles)
        doc.segments = segments_of(segments)
        want = canvas_filter_oracle(doc)
        want_warnings = [f"{len(getattr(doc, name)) - len(kept)} far-out-of-canvas "
                         f"{name} discarded"
                         for name, kept in want.items()
                         if len(kept) != len(getattr(doc, name))]
        svg_model._drop_out_of_canvas(doc)
        got = {name: getattr(doc, name) for name in want}
        got["circles"] = circles_of(doc.circles)
        got["segments"] = glyphs_of(doc.segments)
        assert got == want
        assert doc.warnings == want_warnings


    @pytest.mark.parametrize("kind", ["circles", "segments", "rasters", "texts"])
    @pytest.mark.parametrize("edge", [-450.0, 550.0])
    @pytest.mark.parametrize("beyond", [0.0, 1e-9])
    def test_canvas_filter_edges(self, kind, edge, beyond):
        # canvas 0..100: the overflow window is -450..550 on both axes
        x = edge + (beyond if edge > 0 else -beyond)
        doc = FigureDocument(canvas=Rect(0.0, 0.0, 100.0, 100.0))
        if kind == "circles":
            doc.circles = Markers(["c"], [x - 2 if edge > 0 else x + 2], [50], [2.0])
        elif kind == "segments":
            doc.segments = segments_of([Segment("s", Point(x, 50), Point(50, x))])
        elif kind == "rasters":
            doc.rasters.append(Rect(min(x, 50), 50, max(x, 50), 60))
        else:
            doc.texts.append(TextRun(Point(50, x), "1", 8.0))
        want = canvas_filter_oracle(doc)
        svg_model._drop_out_of_canvas(doc)
        assert len(getattr(doc, kind)) == len(want[kind]) == (beyond == 0.0)


    def test_markers_held_without_an_object_each(self):
        # one object per marker was 40k GC-tracked objects for this figure
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20_000, seed=5))
        gc.collect()
        before = len(gc.get_objects())
        doc = parse_svg(svg)
        added = len(gc.get_objects()) - before
        assert len(doc.circles) == 20_000
        assert added < 200

    def test_segments_held_without_an_object_each(self):
        # a segment object and two Points per line were 3,074 GC-tracked
        # objects for this figure
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=50, seed=5))
        grid = "".join(f'<line x1="{60 + i * 1.03}" y1="25" x2="{60 + i * 1.03}" y2="400"/>'
                       f'<line x1="60" y1="{25 + i * 0.75}" x2="575" y2="{25 + i * 0.75}"/>'
                       for i in range(1, 501))
        svg = svg.replace(b"</svg>", grid.encode("ascii") + b"</svg>")
        gc.collect()
        before = len(gc.get_objects())
        doc = parse_svg(svg)
        added = len(gc.get_objects()) - before
        assert len(doc.segments) >= 1000
        assert added < 200

    def test_local_name_once_per_distinct_tag(self, monkeypatch):
        calls = []
        local_name = svg_model._local_name

        def counting(tag):
            calls.append(tag)
            return local_name(tag)

        monkeypatch.setattr(svg_model, "_local_name", counting)
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=50, seed=5))
        grid = "".join(f'<line x1="{60 + i * 1.03}" y1="25" x2="{60 + i * 1.03}" y2="400"/>'
                       f'<line x1="60" y1="{25 + i * 0.75}" x2="575" y2="{25 + i * 0.75}"/>'
                       for i in range(1, 501))
        svg = svg.replace(b"</svg>", f"<g>{grid}</g><text x=\"1\" y=\"2\">a<tspan>b</tspan>"
                          "</text></svg>".encode("ascii"))
        doc = parse_svg(svg)
        assert len(doc.segments) >= 1000
        assert sorted(calls) == sorted({elem.tag for elem in ET.fromstring(svg).iter()})

    def test_parse_leaves_no_reference_cycle(self):
        # a cycle through the parser would keep every document alive until
        # a full garbage collection, which raised peak memory
        gc.disable()
        try:
            doc = parse_svg(svg_bytes('<g><circle cx="5" cy="5" r="2"/></g>'))
            ref = weakref.ref(doc)
            del doc
            assert ref() is None
        finally:
            gc.enable()


class TestFontSize:
    @pytest.mark.parametrize("style,height", [
        ("font-size: 1.2.3", 1.2), ("font-size:7px", 7.0), ("font-size: large", 10.0),
        ("fill: red; font-size: .", 10.0), ("font-size: 14; fill: blue", 14.0),
    ])
    def test_inline_style_font_size(self, style, height):
        doc = parse_svg(svg_bytes(f'<text x="5" y="5" style="{style}">0.5</text>'))
        assert doc.texts[0].glyph_height == height

    def test_read_only_for_containers_and_text(self, monkeypatch):
        calls = []
        presentation = svg_model._presentation

        def counting(elem, inherited):
            calls.append(svg_model._local_name(elem.tag))
            return presentation(elem, inherited)

        monkeypatch.setattr(svg_model, "_presentation", counting)
        parse_svg(svg_bytes('<g><circle cx="5" cy="5" r="2"/><line x1="0" y1="0" x2="9" y2="0"/>'
                            '<text x="1" y="1">a<tspan>b</tspan></text></g>'
                            '<circle cx="7" cy="5" r="2"/>'))
        assert calls == ["svg", "g", "text", "tspan"]

    @pytest.mark.parametrize("root", [' font-size="20"', ' style="font-size:20px"'])
    def test_root_font_size_inherited(self, root):
        doc = parse_svg(b'<svg xmlns="http://www.w3.org/2000/svg" width="600" height="450"'
                        + root.encode() + b'><text x="5" y="5">1</text>'
                        b'<g font-size="8"><text x="300" y="300">2</text></g></svg>')
        assert [r.glyph_height for r in doc.texts] == [20.0, 8.0]

    @pytest.mark.parametrize("style,height", [
        ("font: 30px serif", 30.0), ("font: italic 700 30px/1.2 serif", 30.0),
        ("fill: red; font:12pt 'DejaVu Sans'", 12.0), ("font: 700 15px/2 serif", 15.0),
        ("font: 30px/120% serif", 30.0), ("font: bold 700 serif", 10.0),
        # other properties are not the shorthand
        ("font-family: 3px", 10.0), ("font-weight: 30px", 10.0), ("x-font: 30px", 10.0),
    ])
    def test_font_shorthand_size(self, style, height):
        doc = parse_svg(svg_bytes(f'<g style="{style}"><text x="5" y="5">0.5</text></g>'
                                  f'<text x="300" y="300" style="{style}">1</text>'))
        assert [r.glyph_height for r in doc.texts] == [height, height]

    @pytest.mark.parametrize("attrs,height", [
        # a style declaration beats the presentation attribute
        ('font-size="10" style="font-size:20px"', 20.0),
        # the last declaration wins, a shorthand too
        ('style="font-size: 12px; font: 30px serif"', 30.0),
        ('style="font: 30px serif; font-size: 12px"', 12.0),
        # a declaration without a size does not set one
        ('font-size="14" style="font-size: large"', 14.0),
        ('style="font-size: 12px; font: bold serif"', 12.0),
    ])
    def test_declarations_cascade(self, attrs, height):
        doc = parse_svg(svg_bytes(f'<text x="5" y="5" {attrs}>1</text>'))
        assert doc.texts[0].glyph_height == height

    @pytest.mark.parametrize("attrs", [
        'font-size="1.5em"', 'style="font-size:150%"', 'style="font: 700 1.5em/2 serif"',
    ])
    def test_relative_size_scales_inherited(self, attrs):
        doc = parse_svg(svg_bytes(f'<text x="5" y="5" {attrs}>1</text>'
                                  f'<g font-size="8"><text x="300" y="300" {attrs}>2</text></g>'))
        assert [r.glyph_height for r in doc.texts] == [15.0, 12.0]

    @pytest.mark.parametrize("attrs,height", [
        ('font-size="-10"', 8.0), ('style="font-size: -1em"', 8.0),
        ('style="font: 700 -30px serif"', 8.0),
        # the dropped declaration leaves the attribute's size
        ('font-size="20" style="font-size: -5px"', 20.0),
        ('font-size="0"', 0.0),
    ])
    def test_negative_size_sets_nothing(self, attrs, height):
        doc = parse_svg(svg_bytes(f'<g font-size="8"><text x="5" y="5" {attrs}>1</text></g>'))
        assert doc.texts[0].glyph_height == height

    def test_malformed_style_on_marker_ignored(self):
        doc = parse_svg(svg_bytes('<circle cx="5" cy="5" r="2" style="font-size: 1.2.3"/>'))
        assert len(doc.circles) == 1


class TestDisplayNone:
    def test_hidden_containers_and_text_not_walked(self):
        doc = parse_svg(svg_bytes(
            '<text x="5" y="5" display="none">1</text>'
            '<a style="display:none"><circle cx="5" cy="5" r="2"/></a>'
            '<switch style="fill: red;display : NONE "><text x="5" y="9">2</text></switch>'
            # a declaration beats the attribute, and the last declaration wins
            '<g display="none" style="display: inline"><circle cx="9" cy="9" r="2"/></g>'
            '<g style="display: none; display: block"><circle cx="9" cy="9" r="2"/></g>'
            '<g display="inline" style="display: block; display: none">'
            '<circle cx="9" cy="9" r="2"/></g>'))
        assert len(doc.circles) == 2 and doc.texts == []
        assert doc.warnings == ["display:none <text> skipped", "display:none <a> skipped",
                                "display:none <switch> skipped", "display:none <g> skipped"]

    @pytest.mark.parametrize("body,runs,tag", [
        ('1<tspan display="none">0</tspan>', [("1", 5.0)], "tspan"),
        ('1<a style="display:none">0</a>5', [("15", 5.0)], "a"),
        # a hidden position does not move the anchor
        ('1<tspan x="50" display="none">0</tspan>5', [("15", 5.0)], "tspan"),
        # the tail joins the anchor where the text before it ended
        ('1<tspan x="50" y="5">2</tspan><tspan style="display: none">0</tspan>5',
         [("1", 5.0), ("25", 50.0)], "tspan"),
    ], ids=["tspan", "a-with-tail", "positioned", "after-positioned"])
    def test_hidden_piece_of_text_skipped(self, body, runs, tag):
        doc = parse_svg(svg_bytes(f'<text x="5" y="5">{body}</text>'))
        assert [(r.content, r.anchor.x) for r in doc.texts] == runs
        assert doc.warnings == [f"display:none <{tag}> skipped"]

    @pytest.mark.parametrize("attr", [' display="none"', ' style="fill: red; display:none"'])
    def test_hidden_root_not_walked(self, attr):
        data = svg_bytes('<circle cx="5" cy="5" r="2"/><g><circle cx="9" cy="9" r="2"/></g>'
                         '<text x="5" y="5">1</text>')
        doc = parse_svg(data.replace(b"<svg ", f"<svg{attr} ".encode(), 1))
        assert (len(doc.circles), doc.texts) == (0, [])
        assert doc.warnings == ["display:none <svg> skipped"]

    @pytest.mark.parametrize("data", [
        svg_bytes('<g display="none" transform="scale(0)"><circle cx="5" cy="5" r="2"/></g>'),
        svg_bytes('<text x="5" y="5" display="none" transform="scale(0)">1</text>'),
        svg_bytes('<text x="5" y="5">1<tspan display="none" transform="scale(0)">0</tspan>'
                  '</text>'),
        svg_bytes('<circle cx="5" cy="5" r="2"/>').replace(
            b"<svg ", b'<svg display="none" transform="scale(0)" ', 1),
        # an open hidden layer, its transform read before it closes
        svg_bytes('<g display="none" transform="scale(0)">'
                  + '<circle cx="5" cy="5" r="2"/>' * 40 + "</g>"),
    ], ids=["g", "text", "tspan", "root", "open-layer"])
    def test_bad_transform_of_hidden_element_is_an_error(self, monkeypatch, data):
        for feed in (7, 1 << 30):
            monkeypatch.setattr(svg_model, "_FEED_BYTES", feed)
            with pytest.raises(VecfigError, match="zero-determinant"):
                parse_svg(data)


def parse_svg_oracle(data: bytes) -> FigureDocument:
    """Oracle: the whole element tree built first, then walked from the root."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise VecfigError(str(exc)) from exc
    parser = svg_model._Parser()
    root_name = parser.names[root.tag]
    if root_name != "svg":
        raise VecfigError(f"root element is <{root_name}>, not <svg>")
    root_t_attr = root.get("transform")
    root_t = parse_transform(root_t_attr) if root_t_attr else IDENTITY
    root_fs = svg_model._presentation(root, svg_model.DEFAULT_FONT_SIZE)
    try:
        if root_fs is None:
            parser.doc.warnings.append("display:none <svg> skipped")
        else:
            parser.walk(root, root_t, root_fs)
    except RecursionError:
        raise VecfigError("elements nested too deeply to walk") from None
    doc = parser.doc
    doc.root_transform = root_t
    doc.canvas = svg_model._canvas_rect(root, doc)
    svg_model._drop_out_of_canvas(doc)
    doc.texts = compose_text_runs(doc.texts)
    return doc


def _parse_outcome(parse, data: bytes) -> tuple:
    """The document's fields as text (repr tells -0.0 from 0.0 and shows
    nan), or the type and message of the error the parse raised."""
    try:
        return ("doc", repr(parse(data)))
    except VecfigError as exc:
        return (type(exc), str(exc))


_STREAM_TEXT = st.sampled_from(["", "1", "0.5", " 2 ", "é", "中文", "\n", "😀"])
_STREAM_TRANSFORMS = st.sampled_from(
    ["", "", "", "", "", "translate(3, 4)", "scale(2)", "rotate(30 5 5)", "skewX(20)",
     "matrix(1 0 0 -1 0 400)", "translate(1e3) scale(0.5)", "scale(2, 2.1)",
     "rotate(-90)", "scale(0)", "scale(1e200) scale(1e200) rotate(45)"])
# font sizes, and a display that hides a container or a text
_STREAM_PRESENTATION = st.sampled_from(
    ["", "", "", ' font-size="14"', ' style="font-size: 7px"', ' font-size="large"',
     ' font-size="-4"', ' style="font-size: -1em"',
     ' display="none"', ' style="display: none; font-size: 7px"',
     ' display="none" style="display: inline"'])
_STREAM_LEAVES = st.one_of(
    st.builds('<circle cx="{}" cy="{}" r="{}"/>'.format,
              st.integers(-50, 700), st.integers(-50, 500), st.sampled_from([0, 2, 3])),
    st.builds('<line id="{}" x1="{}" y1="5" x2="{}" y2="5"/>'.format,
              st.sampled_from(["", "l", "ä"]), st.integers(0, 600), st.integers(0, 600)),
    st.sampled_from([
        '<rect x="1" y="2" width="30" height="40"/>', '<rect width="0" height="5"/>',
        '<image x="5" y="5" width="10" height="10"/>',
        '<path d="M 0 0 L 10 0 C 10 5 20 5 20 0 A 1 1 0 0 1 3 3 Z"/>',
        '<path d="M 0 0 L 10 0 20"/>', '<path d=""/>', '<use href="#m"/>', '<polygon/>',
        '<defs><circle id="m" cx="1" cy="1" r="2"/><g><line x1="0" x2="1"/></g></defs>',
        '<style>circle { fill: red }</style>', "<!-- é </svg> -->", '<?pi <g/> ?>',
        '<title>中 &amp; é</title>']),
    st.builds('<text x="{}" y="{}"{}>{}{}</text>'.format,
              st.integers(0, 600), st.integers(0, 450), _STREAM_PRESENTATION, _STREAM_TEXT,
              st.lists(st.builds('<{0}{1}{2}>{3}<![CDATA[{4}]]></{0}>{5}'.format,
                                 st.sampled_from(["tspan", "tspan", "a"]),
                                 st.sampled_from(["", "", ' transform="scale(2)"', ' x="9"',
                                                  ' transform="scale(0)"']),
                                 _STREAM_PRESENTATION, _STREAM_TEXT,
                                 st.sampled_from(["", "<2>", "é"]), _STREAM_TEXT),
                       max_size=3).map("".join)))


def _nested_bodies(bodies):
    """Leaves, ``bodies`` and containers around ``bodies``, one after another.

    A named function, as Hypothesis reads the source of ``extend`` to check
    that it uses its argument, and cannot always read a lambda's."""
    return st.lists(st.one_of(
        _STREAM_LEAVES,
        st.builds(lambda tag, t, fs, body: (f'<{tag}{f" transform={t!r}" if t else ""}'
                                             f'{fs}>{body}</{tag}>'),
                  st.sampled_from(["g", "g", "svg", "a", "switch"]), _STREAM_TRANSFORMS,
                  _STREAM_PRESENTATION, bodies),
        bodies), max_size=6).map("".join)


_STREAM_BODIES = st.recursive(st.lists(_STREAM_LEAVES, max_size=4).map("".join),
                              _nested_bodies, max_leaves=60)


@st.composite
def streamed_documents(draw) -> bytes:
    """Whole documents, now and then cut short, under another root or in
    UTF-16 (whose declared encoding, when there is one, is UTF-8)."""
    head = draw(st.sampled_from(
        ["", '<?xml version="1.0" encoding="UTF-8"?>\n<!-- ü -->\n', "<?pi x?>"]))
    root = draw(st.sampled_from(["svg"] * 7 + ["html"]))
    root_t = draw(st.sampled_from(["", "", "", ' transform="scale(2)"',
                                   ' transform="translate(-5 5) rotate(3)"',
                                   ' transform="scale(0)"']))
    canvas = draw(st.sampled_from(['width="600" height="450"', 'viewBox="0 0 600 450"', ""]))
    root_fs = draw(_STREAM_PRESENTATION)
    data = (f'{head}<{root} xmlns="http://www.w3.org/2000/svg"{root_t}{root_fs} {canvas}>'
            f'{draw(_STREAM_BODIES)}</{root}>\n').encode(
                draw(st.sampled_from(["utf-8"] * 7 + ["utf-16"])))
    if draw(st.sampled_from([False] * 7 + [True])):
        data = data[:len(data) * draw(st.integers(1, 999)) // 1000]
    return data


class TestStreamedParse:
    """parse_svg against the whole-tree oracle, the source fed in pieces
    of several sizes, down to one byte (which splits multibyte text)."""

    FEED_SIZES = (1, 7, 64, 4096, 1 << 30)

    def _assert_as_oracle(self, monkeypatch, data: bytes) -> None:
        want = _parse_outcome(parse_svg_oracle, data)
        for feed in self.FEED_SIZES:
            monkeypatch.setattr(svg_model, "_FEED_BYTES", feed)
            assert _parse_outcome(parse_svg, data) == want, feed

    @given(streamed_documents())
    @settings(max_examples=200, deadline=None)
    def test_equals_whole_tree_oracle(self, data):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_as_oracle(monkeypatch, data)

    @pytest.mark.parametrize("data", [
        # a syntax error after a root that is not svg
        b"<html><body/>" + b"<p>x</p>" * 40 + b"<p></q></html>",
        # a degenerate transform, then a syntax error
        svg_bytes('<g transform="scale(0)"><circle cx="1" cy="1" r="1"/></g>'
                  + '<circle cx="5" cy="5" r="2"/>' * 40 + "<g></a>"),
        svg_bytes('<circle cx="5" cy="5" r="2"/>' * 40 + "<g>").replace(
            b"<svg ", b'<svg transform="scale(0)" ', 1),
        svg_bytes('<path d="M 0 0 L"/>' + '<circle cx="5" cy="5" r="2"/>' * 40)[:-3],
        # nesting deeper than the walk can recurse, closed one level at a time
        svg_bytes("<g>" * 1200 + '<circle cx="1" cy="1" r="1"/>' + "</g>" * 1200),
        svg_bytes("<g>" * 1200 + '<circle cx="1" cy="1" r="1"/>'
                  + '</g><circle cx="2" cy="2" r="1"/>' * 1200),
        svg_bytes("<g>" * 1200 + "</g>" * 1199),
        svg_bytes("<g>" * 1200 + "</g>" * 1200)[:-1],
        # an empty source, and one that ends inside the root's start tag
        b"", svg_bytes("")[:20],
    ], ids=["not-svg-then-syntax", "bad-transform-then-syntax", "bad-root-transform-then-syntax",
            "bad-path-then-truncated", "deep", "deep-with-trailing-siblings",
            "deep-unclosed", "deep-truncated", "empty", "root-tag-cut"])
    def test_malformed_as_oracle(self, monkeypatch, data):
        self._assert_as_oracle(monkeypatch, data)

    @pytest.mark.parametrize("data", [
        svg_bytes(""), svg_bytes('<circle cx="5" cy="5" r="2"/>' * 40), b"<html/>"],
        ids=["empty-body", "markers", "not-svg"])
    def test_events_held_until_close(self, monkeypatch, data):
        # expat from 2.6 may hold back an unfinished token, the root's start
        # tag too, until close(): no event may then come before it
        class HoldingPullParser(ET.XMLPullParser):
            closed = False

            def close(self):
                self.closed = True
                super().close()

            def read_events(self):
                return super().read_events() if self.closed else iter(())

        monkeypatch.setattr(svg_model.ET, "XMLPullParser", HoldingPullParser)
        self._assert_as_oracle(monkeypatch, data)

    @staticmethod
    def _traced_parse(svg: bytes) -> tuple[FigureDocument, int]:
        """The document and the peak traced memory while parsing it."""
        tracemalloc.start()
        try:
            doc = parse_svg(svg)
            return doc, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_follows_the_columns(self):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20_000, seed=5))
        doc, peak = self._traced_parse(svg)
        assert len(doc.circles) == 20_000
        # the whole element tree, built before the walk, peaked at about 8.0
        # times the source; streamed, the columns, one piece and the open
        # elements take about 1.3 times
        assert peak <= 2.0 * len(svg)

    def test_peak_memory_of_a_figure_in_nested_groups(self):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20_000, seed=5))
        head, sep, body = svg.partition(b'viewBox="0 0 600 450">')
        assert sep
        svg = (head + sep + b'<g><g transform="translate(1 1)"><g>'
               + body.replace(b"</svg>", b"</g></g></g></svg>"))
        doc, peak = self._traced_parse(svg)
        assert len(doc.circles) == 20_000
        # the open groups are gone down into after each piece, so their
        # finished children are dropped as those of the root are
        assert peak <= 2.0 * len(svg)

    def test_peak_memory_of_a_hidden_layer(self):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20_000, seed=5))
        circles = b"".join(re.findall(rb"<circle [^>]*/>", svg))
        svg = svg.replace(b"</svg>", b'<g style="display:none"><g>' + circles + b"</g></g></svg>")
        doc, peak = self._traced_parse(svg)
        assert len(doc.circles) == 20_000
        # the hidden layer is not walked, and its finished circles are
        # dropped as they come, not held until it closes
        assert peak <= 2.0 * len(svg)

    def test_peak_memory_of_a_hidden_root(self):
        svg, _ = generate_scatter_svg(SyntheticSpec(n_points=20_000, seed=5))
        svg = svg.replace(b"<svg ", b'<svg style="display:none" ', 1)
        doc, peak = self._traced_parse(svg)
        assert len(doc.circles) == 0
        assert doc.warnings == ["display:none <svg> skipped"]
        # the root is walked as a hidden layer is: its finished children are
        # dropped unread as they come
        assert peak <= 2.0 * len(svg)

    def test_peak_memory_of_a_gridded_figure(self):
        spec = SyntheticSpec(n_points=50, seed=5)
        svg, _ = generate_scatter_svg(spec)
        width, height = spec.canvas
        x0, x1 = synth.MARGIN_LEFT, width - synth.MARGIN_RIGHT
        y0, y1 = synth.MARGIN_TOP, height - synth.MARGIN_BOTTOM
        n = 500
        lines = [f'<line x1="{x:.4f}" y1="{y0:g}" x2="{x:.4f}" y2="{y1:g}" stroke="#ddd"/>'
                 for x in (x0 + i * (x1 - x0) / (n + 1) for i in range(1, n + 1))]
        lines += [f'<line x1="{x0:g}" y1="{y:.4f}" x2="{x1:g}" y2="{y:.4f}" stroke="#ddd"/>'
                  for y in (y0 + i * (y1 - y0) / (n + 1) for i in range(1, n + 1))]
        svg = svg.replace(b"</svg>", "\n".join(lines).encode() + b"</svg>")
        doc, peak = self._traced_parse(svg)
        assert len(doc.segments) >= 2 * n
        # a figure this small fits in a few pieces, so the elements of one
        # piece, not the columns, set the peak: about 12 times the source in
        # 64 KiB pieces, about 5 times in 16 KiB
        assert peak <= 7 * len(svg)
