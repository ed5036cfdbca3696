from __future__ import annotations

import math
import random
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Circle, circles_of, markers_of
from vecfig.axis_detection import AxisCalibration, AxisSide, PlotBox
from vecfig.config import DEFAULT_CONFIG
from vecfig.errors import NoDataGlyphs, NonlinearScale
from vecfig.point_extraction import (DataPoint, RadiusCluster, detect_raster_body,
                                     map_to_data, select_data_glyphs)
from vecfig.svg_model import FigureDocument, Point, Rect

# selection and mapping read only the interior; no axis segments are built
BOX = PlotBox(left_index=0, bottom_index=1, interior=Rect(50, 50, 500, 400), score=1.0)


def circle(id_, x, y, r) -> Circle:
    return Circle(id_, Point(x, y), r)


def doc_of(circles: list[Circle]) -> FigureDocument:
    return FigureDocument(circles=markers_of(circles))


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
        doc = doc_of(circles)
        cluster = select_data_glyphs(doc, BOX)
        oracle = max(brute_force_clusters([c.radius for c in circles]), key=len)
        assert len(cluster.members) == len(oracle) == 24
        assert cluster.representative_radius == pytest.approx(2.0)

    def test_single_circle(self):
        doc = doc_of([circle("a", 100, 100, 3.0)])
        cluster = select_data_glyphs(doc, BOX)
        assert len(cluster.members) == 1

    def test_overlapping_duplicates_kept(self):
        doc = doc_of([circle("a", 100, 100, 2.0),
                                      circle("b", 100, 100, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        assert len(cluster.members) == 2

    def test_member_radius_invariant(self):
        rng = random.Random(2)
        circles = [circle(f"c{i}", 100 + i, 100, 2.0 * (1 + rng.uniform(-0.04, 0.04)))
                   for i in range(10)]
        cluster = select_data_glyphs(doc_of(circles), BOX)
        rep = cluster.representative_radius
        assert all(abs(r - rep) <= 0.10 * rep for r in cluster.members.r)

    def test_tie_breaks_to_smaller_radius(self):
        circles = [circle("s1", 100, 100, 2.0), circle("s2", 110, 100, 2.0),
                   circle("b1", 200, 200, 8.0), circle("b2", 210, 200, 8.0)]
        cluster = select_data_glyphs(doc_of(circles), BOX)
        assert cluster.representative_radius == pytest.approx(2.0)

    def test_edge_marker_kept_by_interior_expansion(self):
        # center sits on the axis line; expansion by the median radius keeps it
        doc = doc_of([circle("edge", 50, 200, 3.0)])
        cluster = select_data_glyphs(doc, BOX)
        assert len(cluster.members) == 1

    def test_outside_circle_rejected(self):
        doc = doc_of([circle("out", 10, 10, 2.0)])
        with pytest.raises(NoDataGlyphs, match="^no circle center inside the plot interior$"):
            select_data_glyphs(doc, BOX)

    def test_no_circles(self):
        with pytest.raises(NoDataGlyphs, match="^figure contains no circles$"):
            select_data_glyphs(FigureDocument(), BOX)


class TestMapToData:
    def test_corner_maps_to_origin(self):
        doc = doc_of([circle("a", 50, 400, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster,
                          cal(AxisSide.X_AXIS, 1.0, 0.0),
                          cal(AxisSide.Y_AXIS, -1.0, 400.0))
        assert pts[0].x == pytest.approx(50.0)
        assert pts[0].y == pytest.approx(0.0)

    def test_affine_evaluation(self):
        # x: 0.1*150 - 5 = 10 ; y: -0.05*200 + 20 = 10
        doc = doc_of([circle("a", 150, 200, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster,
                          cal(AxisSide.X_AXIS, 0.1, -5.0),
                          cal(AxisSide.Y_AXIS, -0.05, 20.0))
        assert (pts[0].x, pts[0].y) == (pytest.approx(10.0), pytest.approx(10.0))
        assert pts[0].device_radius == 2.0
        assert pts[0].source_id == "a"

    def test_multiplicity_preserved(self):
        n = 5
        doc = doc_of([circle(f"c{i}", 100, 100, 2.0)
                                      for i in range(n)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster, cal(AxisSide.X_AXIS, 1, 0),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert len(pts) == n
        assert len({(p.x, p.y) for p in pts}) == 1

    def test_stable_order(self):
        doc = doc_of([circle("b", 200, 100, 2.0),
                                      circle("a", 100, 100, 2.0),
                                      circle("c", 100, 90, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        pts = map_to_data(cluster, cal(AxisSide.X_AXIS, 1, 0),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert [p.source_id for p in pts] == ["c", "a", "b"]

    def test_monotonic_consistency(self):
        doc = doc_of([circle("a", 100, 100, 2.0),
                                      circle("b", 300, 100, 2.0)])
        cluster = select_data_glyphs(doc, BOX)
        fwd = map_to_data(cluster, cal(AxisSide.X_AXIS, 0.5, 0),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert fwd[0].x < fwd[1].x
        rev = map_to_data(cluster, cal(AxisSide.X_AXIS, -0.5, 300),
                          cal(AxisSide.Y_AXIS, -1, 400))
        assert rev[0].x > rev[1].x

    @pytest.mark.parametrize("side", list(AxisSide))
    @pytest.mark.parametrize("centres", [(-300, -200, -100), (100, 200, 300)],
                             ids=["smallest_centre", "largest_centre"])
    def test_overflowing_value_rejected(self, side, centres):
        # at 1e306 per unit only the centre at -300 or 300 maps past the
        # largest double
        cluster = RadiusCluster(0.0, markers_of(
            [circle(f"c{i}", c, c, 2.0) for i, c in enumerate(centres)]))
        xcal, ycal = (cal(s, 1e306 if s is side else 1.0, 0.0) for s in AxisSide)
        with pytest.raises(NonlinearScale, match=f"^{side.value}: a data value overflows$"):
            map_to_data(cluster, xcal, ycal)


class TestDetectRasterBody:
    def test_full_cover(self):
        doc = FigureDocument(rasters=[Rect(50, 50, 500, 400)])
        assert detect_raster_body(doc, BOX)

    def test_no_rasters(self):
        assert not detect_raster_body(FigureDocument(), BOX)

    def test_small_logo_ignored(self):
        # oracle: 90x35 / (450x350) = 2% < 50%
        logo = Rect(60, 60, 150, 95)
        overlap = logo.intersection_area(BOX.interior) / BOX.interior.area
        assert overlap == pytest.approx(0.02, abs=0.001)
        doc = FigureDocument(rasters=[logo])
        assert not detect_raster_body(doc, BOX)

    def test_half_cover_boundary(self):
        half = Rect(50, 50, 275, 400)  # exactly 50%
        doc = FigureDocument(rasters=[half])
        assert detect_raster_body(doc, BOX)


def selection_oracle(circles, box, xcal, ycal):
    """Oracle: the in-box test through Rect.expanded and a contains check,
    and the mapping through AxisCalibration.to_data, as before."""
    interior = box.interior.expanded(median(c.radius for c in circles))
    inside = [c for c in circles
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
        doc = doc_of(circles)
        xcal, ycal = cal(AxisSide.X_AXIS, xs, xi), cal(AxisSide.Y_AXIS, ys, yi)
        inside, mapped = selection_oracle(circles, BOX, xcal, ycal)
        if not inside:
            with pytest.raises(NoDataGlyphs):
                select_data_glyphs(doc, BOX)
            return
        cluster = select_data_glyphs(doc, BOX)
        assert sorted(cluster.members.ids) == sorted(c.id for c in inside)
        full = RadiusCluster(0.0, markers_of(inside))
        want = dict(zip((c.id for c in inside), mapped))
        got = map_to_data(full, xcal, ycal)
        assert [p.source_id for p in got] == [c.id for c in sorted(
            inside, key=lambda c: (c.center.x, c.center.y, c.id))]
        assert {p.source_id: (p.x, p.y) for p in got} == want


def select_object_oracle(circles, box, cfg=DEFAULT_CONFIG):
    """Oracle: selection over one object per marker, with stable key sorts."""
    if not circles:
        raise NoDataGlyphs("figure contains no circles")
    med_radius = median(c.radius for c in circles)
    interior = box.interior.expanded(med_radius)
    x0, y0, x1, y1 = interior.x0, interior.y0, interior.x1, interior.y1
    inside = [c for c in circles
              if x0 <= c.center.x <= x1 and y0 <= c.center.y <= y1]
    if not inside:
        raise NoDataGlyphs("no circle center inside the plot interior")
    inside.sort(key=lambda c: (c.radius, c.id))
    clusters = []
    for c in inside:
        if clusters and c.radius <= (1.0 + cfg.radius_cluster_tol) * clusters[-1][0].radius:
            clusters[-1].append(c)
        else:
            clusters.append([c])
    clusters.sort(key=lambda cl: (-len(cl), median(c.radius for c in cl)))
    best = clusters[0]
    return median(c.radius for c in best), best


def map_object_oracle(members, xcal, ycal):
    """Oracle: mapping over one object per marker, with a stable key sort."""
    ordered = sorted(members, key=lambda c: (c.center.x, c.center.y, c.id))
    return [(xcal.to_data(c.center.x), ycal.to_data(c.center.y), c.radius, c.id)
            for c in ordered]


# few ids and coordinates, so duplicate ids, identical centres and equal
# (x, y, id) with different radii are common; radii sit on and just past
# the cluster edge (1 + tol) * r0 of the radii they follow
_R0 = (2.0, 3.0, 6.0)
_EDGE_RADII = sorted({r for r0 in _R0 for r in (
    r0, (1.0 + DEFAULT_CONFIG.radius_cluster_tol) * r0,
    math.nextafter((1.0 + DEFAULT_CONFIG.radius_cluster_tol) * r0, math.inf),
    math.nextafter(r0, 0.0))})
_MARKERS = st.lists(st.builds(
    circle, st.sampled_from(["a", "b", "c", "pt1", "pt10", "pt2"]),
    st.one_of(st.sampled_from([47.0, 100.0, 250.0, 500.0, -0.0, 0.0]), st.floats(0, 550)),
    st.one_of(st.sampled_from([100.0, 250.0, 400.0, -0.0, 0.0]), st.floats(0, 450)),
    st.one_of(st.sampled_from(_EDGE_RADII), st.floats(0.5, 12))), max_size=40)


class TestColumnarMarkersMatchObjectOracle:
    @given(_MARKERS, st.floats(-10, 10), st.floats(-1e3, 1e3),
           st.floats(-10, 10), st.floats(-1e3, 1e3))
    @settings(max_examples=400, deadline=None)
    def test_members_and_points_match(self, circles, xs, xi, ys, yi):
        xcal, ycal = cal(AxisSide.X_AXIS, xs, xi), cal(AxisSide.Y_AXIS, ys, yi)
        try:
            want_rep, want_members = select_object_oracle(circles, BOX)
        except NoDataGlyphs as exc:
            with pytest.raises(NoDataGlyphs, match=str(exc)):
                select_data_glyphs(doc_of(circles), BOX)
            return
        cluster = select_data_glyphs(doc_of(circles), BOX)
        assert cluster.representative_radius == want_rep
        assert circles_of(cluster.members) == want_members
        points = map_to_data(cluster, xcal, ycal)
        assert [tuple(p) for p in points] == map_object_oracle(want_members, xcal, ycal)
        # the mapping alone, over every marker in document order
        everything = RadiusCluster(0.0, markers_of(circles))
        assert ([tuple(p) for p in map_to_data(everything, xcal, ycal)]
                == map_object_oracle(circles, xcal, ycal))

    @pytest.mark.parametrize("box", [BOX, PlotBox(
        left_index=0, bottom_index=1, interior=Rect(0, -100, 100, 0), score=1.0)])
    def test_signed_zero_ties_and_ids_against_document_order(self, box):
        # -0.0 == 0.0, so such centres tie and the id decides; equal centres
        # whose ids run against document order come out in id order
        circles = [circle("d", 0.0, -0.0, 2.0), circle("c", -0.0, 0.0, 2.0),
                   circle("b", -0.0, -0.0, 2.0), circle("a", 0.0, 0.0, 2.0),
                   circle("z", 250.0, 250.0, 2.0), circle("y", 250.0, 250.0, 2.0),
                   circle("x", 250.0, 250.0, 2.0), circle("y", 250.0, 250.0, 2.1)]
        xcal, ycal = cal(AxisSide.X_AXIS, 2.0, 0.0), cal(AxisSide.Y_AXIS, -1.0, 0.0)
        everything = map_to_data(RadiusCluster(0.0, markers_of(circles)), xcal, ycal)
        assert [p.source_id for p in everything] == ["a", "b", "c", "d", "x", "y", "y", "z"]
        assert repr(everything) == repr([DataPoint(*row) for row in
                                         map_object_oracle(circles, xcal, ycal)])
        cluster = select_data_glyphs(doc_of(circles), box)
        want_rep, want_members = select_object_oracle(circles, box)
        assert cluster.representative_radius == want_rep
        assert repr(circles_of(cluster.members)) == repr(want_members)
        assert repr(map_to_data(cluster, xcal, ycal)) == repr(
            [DataPoint(*row) for row in map_object_oracle(want_members, xcal, ycal)])

    def test_equal_centre_and_id_rows_follow_member_order(self):
        # equal (x, y, id) with different radii: the rows keep the members'
        # (radius, id) order, as the stable sorts on objects did
        circles = [circle("m", 100, 100, 2.1), circle("m", 100, 100, 2.0),
                   circle("m", 100, 100, 2.05), circle("a", 100, 100, 2.0)]
        cluster = select_data_glyphs(doc_of(circles), BOX)
        assert circles_of(cluster.members) == select_object_oracle(circles, BOX)[1]
        assert [p.device_radius for p in map_to_data(
            cluster, cal(AxisSide.X_AXIS, 1, 0), cal(AxisSide.Y_AXIS, -1, 400))] == [
            2.0, 2.0, 2.05, 2.1]
