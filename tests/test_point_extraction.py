from __future__ import annotations

import random
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfig.axis_detection import AxisCalibration, AxisSide, PlotBox
from vecfig.errors import NoDataGlyphs
from vecfig.point_extraction import (RadiusCluster, detect_raster_body,
                                     map_to_data, select_data_glyphs)
from vecfig.svg_model import (CircleGlyph, FigureDocument, Point, RasterGlyph,
                              Rect, SegmentGlyph)

BOX = PlotBox(
    left_axis=SegmentGlyph("v", Point(50, 400), Point(50, 50)),
    bottom_axis=SegmentGlyph("h", Point(50, 400), Point(500, 400)),
    interior=Rect(50, 50, 500, 400), score=1.0)


def circle(id_, x, y, r) -> CircleGlyph:
    return CircleGlyph(id_, Point(x, y), r)


def cal(side, slope, intercept) -> AxisCalibration:
    reversed_ = slope < 0 if side is AxisSide.X_AXIS else slope > 0
    return AxisCalibration(side, slope, intercept, 0.0, 2, reversed_)


def brute_force_clusters(radii, tol=0.10):
    """Oracle: exhaustive sweep grouping radii within tol of the cluster min."""
    groups = []
    for r in sorted(radii):
        if groups and r <= (1 + tol) * groups[-1][0]:
            groups[-1].append(r)
        else:
            groups.append([r])
    return groups


class TestSelectDataGlyphs:
    def test_marker_population_beats_decoration(self):
        rng = random.Random(1)
        circles = [circle(f"m{i}", rng.uniform(60, 490), rng.uniform(60, 390), 2.0)
                   for i in range(24)]
        circles.append(circle("bullet", 200, 200, 9.0))
        doc = FigureDocument(circles=circles)
        cluster = select_data_glyphs(doc, BOX)
        oracle = max(brute_force_clusters([c.radius for c in circles]), key=len)
        assert len(cluster.members) == len(oracle) == 24
        assert cluster.representative_radius == pytest.approx(2.0)

    def test_single_circle(self):
        doc = FigureDocument(circles=[circle("a", 100, 100, 3.0)])
        cluster = select_data_glyphs(doc, BOX)
        assert len(cluster.members) == 1

    def test_overlapping_duplicates_kept(self):
        doc = FigureDocument(circles=[circle("a", 100, 100, 2.0),
                                      circle("b", 100, 100, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        assert len(cluster.members) == 2

    def test_member_radius_invariant(self):
        rng = random.Random(2)
        circles = [circle(f"c{i}", 100 + i, 100, 2.0 * (1 + rng.uniform(-0.04, 0.04)))
                   for i in range(10)]
        cluster = select_data_glyphs(FigureDocument(circles=circles), BOX)
        rep = cluster.representative_radius
        assert all(abs(c.radius - rep) <= 0.10 * rep for c in cluster.members)

    def test_tie_breaks_to_smaller_radius(self):
        circles = [circle("s1", 100, 100, 2.0), circle("s2", 110, 100, 2.0),
                   circle("b1", 200, 200, 8.0), circle("b2", 210, 200, 8.0)]
        cluster = select_data_glyphs(FigureDocument(circles=circles), BOX)
        assert cluster.representative_radius == pytest.approx(2.0)

    def test_edge_marker_kept_by_interior_expansion(self):
        # center sits on the axis line; expansion by the median radius keeps it
        doc = FigureDocument(circles=[circle("edge", 50, 200, 3.0)])
        cluster = select_data_glyphs(doc, BOX)
        assert len(cluster.members) == 1

    def test_outside_circle_rejected(self):
        doc = FigureDocument(circles=[circle("out", 10, 10, 2.0)])
        with pytest.raises(NoDataGlyphs):
            select_data_glyphs(doc, BOX)

    def test_no_circles(self):
        with pytest.raises(NoDataGlyphs):
            select_data_glyphs(FigureDocument(), BOX)


class TestMapToData:
    def test_corner_maps_to_origin(self):
        doc = FigureDocument(circles=[circle("a", 50, 400, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster,
                          cal(AxisSide.X_AXIS, 1.0, 0.0),
                          cal(AxisSide.Y_AXIS, -1.0, 400.0))
        assert pts[0].x == pytest.approx(50.0)
        assert pts[0].y == pytest.approx(0.0)

    def test_affine_evaluation(self):
        # x: 0.1*150 - 5 = 10 ; y: -0.05*200 + 20 = 10
        doc = FigureDocument(circles=[circle("a", 150, 200, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster,
                          cal(AxisSide.X_AXIS, 0.1, -5.0),
                          cal(AxisSide.Y_AXIS, -0.05, 20.0))
        assert (pts[0].x, pts[0].y) == (pytest.approx(10.0), pytest.approx(10.0))
        assert pts[0].device_radius == 2.0
        assert pts[0].source_id == "a"

    def test_multiplicity_preserved(self):
        n = 5
        doc = FigureDocument(circles=[circle(f"c{i}", 100, 100, 2.0)
                                      for i in range(n)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster, cal(AxisSide.X_AXIS, 1, 0),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert len(pts) == n
        assert len({(p.x, p.y) for p in pts}) == 1

    def test_stable_order(self):
        doc = FigureDocument(circles=[circle("b", 200, 100, 2.0),
                                      circle("a", 100, 100, 2.0),
                                      circle("c", 100, 90, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster, cal(AxisSide.X_AXIS, 1, 0),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert [p.source_id for p in pts] == ["c", "a", "b"]

    def test_monotonic_consistency(self):
        doc = FigureDocument(circles=[circle("a", 100, 100, 2.0),
                                      circle("b", 300, 100, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        fwd = map_to_data(cluster, cal(AxisSide.X_AXIS, 0.5, 0),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert fwd[0].x < fwd[1].x
        rev = map_to_data(cluster, cal(AxisSide.X_AXIS, -0.5, 300),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert rev[0].x > rev[1].x


class TestDetectRasterBody:
    def test_full_cover(self):
        doc = FigureDocument(rasters=[RasterGlyph("img", Rect(50, 50, 500, 400))])
        assert detect_raster_body(doc, BOX)

    def test_no_rasters(self):
        assert not detect_raster_body(FigureDocument(), BOX)

    def test_small_logo_ignored(self):
        # oracle: 90x35 / (450x350) = 2% < 50%
        logo = Rect(60, 60, 150, 95)
        overlap = logo.intersection_area(BOX.interior) / BOX.interior.area
        assert overlap == pytest.approx(0.02, abs=0.001)
        doc = FigureDocument(rasters=[RasterGlyph("logo", logo)])
        assert not detect_raster_body(doc, BOX)

    def test_half_cover_boundary(self):
        half = Rect(50, 50, 275, 400)  # exactly 50%
        doc = FigureDocument(rasters=[RasterGlyph("img", half)])
        assert detect_raster_body(doc, BOX)


def selection_oracle(doc, box, xcal, ycal):
    """Oracle: the in-box test through Rect.expanded and a contains check,
    and the mapping through AxisCalibration.to_data, as before."""
    interior = box.interior.expanded(median(c.radius for c in doc.circles))
    inside = [c for c in doc.circles
              if interior.x0 <= c.center.x <= interior.x1
              and interior.y0 <= c.center.y <= interior.y1]
    return inside, [(xcal.to_data(c.center.x), ycal.to_data(c.center.y))
                    for c in inside]


class TestSelectionOracle:
    @given(st.lists(st.tuples(st.sampled_from([44.0, 45.0, 47.0, 48.0, 50.0, 400.0,
                                               403.0, 405.0, 500.0, 502.0, 503.0]),
                              st.floats(-100, 700)),
                    min_size=1, max_size=30),
           st.sampled_from([2.0, 3.0, 5.0]),
           st.floats(-10, 10), st.floats(-1e3, 1e3), st.floats(-10, 10),
           st.floats(-1e3, 1e3))
    @settings(max_examples=300, deadline=None)
    def test_in_box_and_mapping_match_helpers(self, specs, r, xs, xi, ys, yi):
        # centres on and around the expanded box's edges (50 - r, 400 + r,
        # 500 + r), where <= and < differ; one radius, so one cluster
        circles = [circle(f"c{i}", a, b, r) if i % 2 else circle(f"c{i}", b, a, r)
                   for i, (a, b) in enumerate(specs)]
        doc = FigureDocument(circles=circles)
        xcal, ycal = cal(AxisSide.X_AXIS, xs, xi), cal(AxisSide.Y_AXIS, ys, yi)
        inside, mapped = selection_oracle(doc, BOX, xcal, ycal)
        if not inside:
            with pytest.raises(NoDataGlyphs):
                select_data_glyphs(doc, BOX)
            return
        cluster = select_data_glyphs(doc, BOX)
        assert sorted(c.id for c in cluster.members) == sorted(c.id for c in inside)
        full = RadiusCluster(0.0, inside)
        want = dict(zip((c.id for c in inside), mapped))
        got = map_to_data(full, xcal, ycal)
        assert [p.source_id for p in got] == [c.id for c in sorted(
            inside, key=lambda c: (c.center.x, c.center.y, c.id))]
        assert {p.source_id: (p.x, p.y) for p in got} == want
