from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serialize_model, svg_bytes
from vecfig.errors import MalformedXml, NotSvg, PathSyntax
from vecfig.svg_model import (AffineTransform, Point, TextRun, compose_text_runs,
                              flatten_path, parse_svg, parse_transform)


class TestParseCircle:
    def test_inline_snippet(self):
        data = svg_bytes('<circle cx="103.71" cy="121.22" r="25.234" '
                         'fill-opacity="0" stroke="#cf1d35" stroke-width=".26458"/>')
        doc = parse_svg(data)
        assert len(doc.circles) == 1
        c = doc.circles[0]
        assert c.center == Point(103.71, 121.22)
        assert c.radius == 25.234

    def test_identity_matrix_transform(self):
        plain = parse_svg(svg_bytes('<circle cx="5" cy="6" r="2"/>'))
        wrapped = parse_svg(svg_bytes(
            '<g transform="matrix(1,0,0,1,0,0)"><circle cx="5" cy="6" r="2"/></g>'))
        assert plain.circles[0].center == wrapped.circles[0].center
        assert plain.circles[0].radius == wrapped.circles[0].radius

    def test_translate_transform(self):
        # independently composed: (5,5) + (10,20) = (15,25)
        doc = parse_svg(svg_bytes(
            '<g transform="translate(10,20)"><circle cx="5" cy="5" r="2"/></g>'))
        assert doc.circles[0].center == Point(15.0, 25.0)
        assert doc.circles[0].radius == 2.0

    def test_nested_transforms_compose(self):
        doc = parse_svg(svg_bytes(
            '<g transform="translate(10,0)"><g transform="scale(2)">'
            '<circle cx="3" cy="4" r="1"/></g></g>'))
        assert doc.circles[0].center == Point(16.0, 8.0)
        assert doc.circles[0].radius == pytest.approx(2.0)

    def test_near_circular_ellipse_accepted(self):
        doc = parse_svg(svg_bytes('<ellipse cx="10" cy="10" rx="2.0" ry="1.96"/>'))
        assert len(doc.circles) == 1
        assert doc.circles[0].radius == pytest.approx(math.sqrt(2.0 * 1.96))

    def test_eccentric_ellipse_skipped_with_warning(self):
        doc = parse_svg(svg_bytes('<ellipse cx="10" cy="10" rx="4" ry="2"/>'))
        assert not doc.circles
        assert any("ellipse" in w for w in doc.warnings)

    def test_nonuniform_scale_turns_circle_elliptical(self):
        doc = parse_svg(svg_bytes(
            '<g transform="scale(3,1)"><circle cx="5" cy="5" r="2"/></g>'))
        assert not doc.circles
        assert any("ellipse" in w for w in doc.warnings)


class TestParseOtherElements:
    def test_line(self):
        doc = parse_svg(svg_bytes('<line x1="0" y1="0" x2="10" y2="0"/>'))
        assert len(doc.segments) == 1
        assert doc.segments[0].p1 == Point(0, 0)
        assert doc.segments[0].p2 == Point(10, 0)

    def test_rect_decomposes_into_four_segments(self):
        doc = parse_svg(svg_bytes('<rect x="1" y="2" width="10" height="5"/>'))
        assert len(doc.segments) == 4
        endpoints = {(s.p1.x, s.p1.y) for s in doc.segments}
        assert endpoints == {(1, 2), (11, 2), (11, 7), (1, 7)}

    def test_image_becomes_raster(self):
        doc = parse_svg(svg_bytes('<image x="10" y="20" width="100" height="50"/>'))
        assert len(doc.rasters) == 1
        b = doc.rasters[0].bounds
        assert (b.x0, b.y0, b.x1, b.y1) == (10, 20, 110, 70)

    def test_use_warns_and_skips(self):
        doc = parse_svg(svg_bytes('<use xlink:href="#x"/>'))
        assert any("use" in w for w in doc.warnings)

    def test_unsupported_element_warns(self):
        doc = parse_svg(svg_bytes('<polygon points="0,0 1,1 2,0"/>'))
        assert any("polygon" in w for w in doc.warnings)

    def test_far_out_of_canvas_discarded(self):
        doc = parse_svg(svg_bytes('<circle cx="1e6" cy="1e6" r="2"/>'
                                  '<circle cx="10" cy="10" r="2"/>'))
        assert len(doc.circles) == 1
        assert any("out-of-canvas" in w for w in doc.warnings)

    def test_text_run(self):
        doc = parse_svg(svg_bytes('<text x="12" y="34" font-size="8">0.5</text>'))
        assert len(doc.texts) == 1
        run = doc.texts[0]
        assert run.anchor == Point(12, 34)
        assert run.content == "0.5"
        assert run.glyph_height == 8.0


class TestParseErrors:
    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_svg(b"<svg><circle")

    def test_not_svg(self):
        with pytest.raises(NotSvg):
            parse_svg(b"<html><body/></html>")

    def test_degenerate_transform(self):
        from vecfig.errors import DegenerateTransform
        with pytest.raises(DegenerateTransform):
            parse_svg(svg_bytes('<g transform="matrix(0,0,0,0,1,1)">'
                                '<circle cx="1" cy="1" r="1"/></g>'))


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
        segs = flatten_path("M 0 0 L 10 0")
        assert len(segs) == 1
        assert (segs[0].p1, segs[0].p2) == (Point(0, 0), Point(10, 0))

    def test_two_lines(self):
        segs = flatten_path("M 0 0 L 10 0 L 10 5")
        assert len(segs) == 2

    def test_close_emits_segment(self):
        segs = flatten_path("M 0 0 L 10 0 L 10 5 Z")
        assert len(segs) == 3
        assert segs[-1].p2 == Point(0, 0)

    def test_relative_and_shorthand_commands(self):
        segs = flatten_path("m 1 1 l 2 0 h 3 v 4")
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
        segs = flatten_path("M 0 0 C 3 0.1 7 0.1 10 0")
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
        with pytest.raises(PathSyntax):
            flatten_path("M 0 0 L 10")
        with pytest.raises(PathSyntax):
            flatten_path("10 0 L 1 1")
        with pytest.raises(PathSyntax):
            flatten_path("M 0 0 X 1 1")

    def test_implicit_lineto_after_moveto(self):
        segs = flatten_path("M 0 0 5 5 10 0")
        assert len(segs) == 2


class TestComposeTextRuns:
    def test_adjacent_glyphs_merge(self):
        # gap 4 <= 0.6 * 8 = 4.8
        runs = [TextRun("a", Point(10, 100), "1", 8.0),
                TextRun("b", Point(14, 100), "0", 8.0)]
        out = compose_text_runs(runs)
        assert len(out) == 1
        assert out[0].content == "10"
        assert out[0].anchor == Point(10, 100)

    def test_single_run_unchanged(self):
        runs = [TextRun("a", Point(5, 5), "3", 8.0)]
        assert compose_text_runs(runs) == runs

    def test_different_baselines_stay_separate(self):
        # baseline gap 40 > 0.2 * 8
        runs = [TextRun("a", Point(10, 100), "1", 8.0),
                TextRun("b", Point(10, 140), "2", 8.0)]
        out = compose_text_runs(runs)
        assert len(out) == 2

    def test_wide_gap_stays_separate(self):
        runs = [TextRun("a", Point(10, 100), "1", 8.0),
                TextRun("b", Point(20, 100), "0", 8.0)]  # gap 10 > 4.8
        assert len(compose_text_runs(runs)) == 2

    def test_chain_of_three(self):
        runs = [TextRun("a", Point(10, 100), "1", 8.0),
                TextRun("b", Point(14, 100), "2", 8.0),
                TextRun("c", Point(18, 100), "3", 8.0)]
        out = compose_text_runs(runs)
        assert len(out) == 1
        assert out[0].content == "123"

    def test_output_sorted_by_y_then_x(self):
        runs = [TextRun("a", Point(50, 200), "b", 8.0),
                TextRun("b", Point(10, 100), "a", 8.0)]
        out = compose_text_runs(runs)
        assert [r.content for r in out] == ["a", "b"]

    def test_empty_input(self):
        assert compose_text_runs([]) == []


class TestTransformParsing:
    def test_rotate_about_point(self):
        t = parse_transform("rotate(90, 10, 10)")
        p = t.apply(Point(20, 10))
        assert p.x == pytest.approx(10)
        assert p.y == pytest.approx(20)

    def test_sequence_composes_left_to_right(self):
        t = parse_transform("translate(10,0) scale(2)")
        assert t.apply(Point(1, 1)) == Point(12, 2)

    @pytest.mark.parametrize("text", ["translate(10,5) scale(1.2)",
                                      "rotate(30, 4, -7) skewX(12)",
                                      "matrix(0.5, -2, 3, 1, -40, 25)"])
    def test_inverse_undoes_transform(self, text):
        t = parse_transform(text)
        for composed in (t.then(t.inverse()), t.inverse().then(t)):
            for p in (Point(0, 0), Point(13.5, -8), Point(-250, 400)):
                q = composed.apply(p)
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
        expect = t.apply(plain.circles[0].center)
        got = wrapped.circles[0].center
        assert math.hypot(expect.x - got.x, expect.y - got.y) < 1e-9 * max(1, abs(tx), abs(ty))
        for ps, ws in zip(plain.segments, wrapped.segments):
            for pp, wp in ((ps.p1, ws.p1), (ps.p2, ws.p2)):
                ep = t.apply(pp)
                assert math.hypot(ep.x - wp.x, ep.y - wp.y) < 1e-9 * 100
        del sy, ty  # scale must stay uniform for circles; sy unused by design

    def test_idempotent_flattening(self):
        doc = parse_svg(svg_bytes(
            '<circle cx="103.71" cy="121.22" r="25.234"/>'
            '<line x1="50" y1="400" x2="500" y2="400"/>'
            '<text x="48" y="415" font-size="8">0.5</text>'))
        doc2 = parse_svg(serialize_model(doc))
        assert len(doc2.circles) == len(doc.circles)
        for a, b in zip(doc.circles, doc2.circles):
            assert abs(a.center.x - b.center.x) < 1e-9
            assert abs(a.center.y - b.center.y) < 1e-9
            assert abs(a.radius - b.radius) < 1e-9
        for a, b in zip(doc.segments, doc2.segments):
            assert abs(a.p1.x - b.p1.x) < 1e-9 and abs(a.p2.y - b.p2.y) < 1e-9
        assert [t.content for t in doc.texts] == [t.content for t in doc2.texts]

    def test_no_primitive_loss(self):
        body = ('<circle cx="10" cy="10" r="2"/>'
                '<ellipse cx="10" cy="10" rx="4" ry="1"/>'  # skipped -> warning
                '<line x1="0" y1="0" x2="5" y2="5"/>'
                '<polygon points="0,0 1,1"/>'               # unsupported -> warning
                '<use xlink:href="#a"/>')                   # unsupported -> warning
        doc = parse_svg(svg_bytes(body))
        n_supported_inputs = 5
        assert len(doc.circles) + len(doc.segments) + len(doc.warnings) == n_supported_inputs
