from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random
from statistics import median
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import Segment, glyphs_of, segments_of, svg_bytes
from vecfig import axis_detection, svg_model
from vecfig.axis_detection import (AxisSide, PlotBox, TickLabel, TickMark,
                                   calibrate_axis, detect_plot_box, detect_ticks,
                                   match_ticks_to_labels, parse_numeric_label)
from vecfig.config import DEFAULT_CONFIG, PipelineConfig
from vecfig.errors import NoAxesFound, NonlinearScale, TooFewTicks
from vecfig.svg_model import FigureDocument, Point, Rect, TextRun, parse_svg


def seg(id_, x1, y1, x2, y2) -> Segment:
    return Segment(id_, Point(x1, y1), Point(x2, y2))


def doc_with(segments, canvas=Rect(0, 0, 600, 450)) -> FigureDocument:
    return FigureDocument(segments=segments_of(segments), canvas=canvas)


# the documents the tick tests build list these two axes first
STD_LEFT = seg("v", 50, 400, 50, 50)
STD_BOTTOM = seg("h", 50, 400, 500, 400)
STD_BOX = PlotBox(left_index=0, bottom_index=1, interior=Rect(50, 50, 500, 400),
                  score=1.0)


def index_of(glyphs, glyph) -> int:
    """Where ``glyph`` itself (not an equal segment) sits in ``glyphs``."""
    return next(i for i, g in enumerate(glyphs) if g is glyph)


def brute_force_best_pair(doc, cfg=DEFAULT_CONFIG):
    """Independent argmax oracle over all qualifying axis pairs."""
    def from_vert(s):
        return math.degrees(math.atan2(abs(s.p2.x - s.p1.x), abs(s.p2.y - s.p1.y)))

    def from_horiz(s):
        return math.degrees(math.atan2(abs(s.p2.y - s.p1.y), abs(s.p2.x - s.p1.x)))

    best = None
    norm = doc.canvas.width * doc.canvas.height
    glyphs = glyphs_of(doc.segments)
    for v in glyphs:
        if v.length < cfg.min_axis_length or from_vert(v) > cfg.axis_angle_tol_deg:
            continue
        for h in glyphs:
            if h.length < cfg.min_axis_length or from_horiz(h) > cfg.axis_angle_tol_deg:
                continue
            gap, corner = min(
                ((math.dist((ve.x, ve.y), (he.x, he.y)),
                  Point((ve.x + he.x) / 2, (ve.y + he.y) / 2))
                 for ve in (v.p1, v.p2) for he in (h.p1, h.p2)),
                key=lambda t: t[0])
            if gap > cfg.corner_gap_tol:
                continue
            score = min(1.0, v.length * h.length / norm) * max(1 - gap / cfg.corner_gap_tol, 1e-6)
            key = (score, corner.y, -corner.x, v.length + h.length)
            if best is None or key > best[0]:
                best = (key, v, h)
    return None if best is None else (best[1], best[2])


def quadratic_plot_box(doc, cfg=DEFAULT_CONFIG):
    """Reference: the full V x H pairing that detect_plot_box replaces."""
    def from_vert(s):
        return math.degrees(math.atan2(abs(s.p2.x - s.p1.x), abs(s.p2.y - s.p1.y)))

    def from_horiz(s):
        return math.degrees(math.atan2(abs(s.p2.y - s.p1.y), abs(s.p2.x - s.p1.x)))

    def corner_of(v, h):
        best = None
        for ve, v_far in ((v.p1, v.p2), (v.p2, v.p1)):
            for he, h_far in ((h.p1, h.p2), (h.p2, h.p1)):
                gap = math.dist((ve.x, ve.y), (he.x, he.y))
                if best is None or gap < best[3]:
                    mid = Point((ve.x + he.x) / 2.0, (ve.y + he.y) / 2.0)
                    best = (mid, v_far, h_far, gap)
        return best

    glyphs = glyphs_of(doc.segments)
    verticals = [s for s in glyphs if s.length >= cfg.min_axis_length
                 and from_vert(s) <= cfg.axis_angle_tol_deg]
    horizontals = [s for s in glyphs if s.length >= cfg.min_axis_length
                   and from_horiz(s) <= cfg.axis_angle_tol_deg]
    width = max(doc.canvas.width, 1e-6)
    height = max(doc.canvas.height, 1e-6)
    candidates = []
    for v in verticals:
        for h in horizontals:
            corner, v_far, h_far, gap = corner_of(v, h)
            if not gap <= cfg.corner_gap_tol:
                continue
            if v_far.y > corner.y or h_far.x < corner.x:
                continue
            proximity = 1.0 - gap / (cfg.corner_gap_tol + 1e-12)
            score = (min(1.0, math.sqrt(v.length / width) * math.sqrt(h.length / height))
                     * math.sqrt(max(proximity, 1e-6)))
            interior = Rect(min(corner.x, h_far.x), min(corner.y, v_far.y),
                            max(corner.x, h_far.x), max(corner.y, v_far.y))
            candidates.append((score, corner, v, h, interior))
    if not candidates:
        raise NoAxesFound("no qualifying vertical/horizontal axis pair")
    candidates.sort(key=lambda c: (-c[0], -c[1].y, c[1].x,
                                   -(c[2].length + c[3].length),
                                   c[2].id, c[3].id))
    score, _, v, h, interior = candidates[0]
    return PlotBox(left_index=index_of(glyphs, v), bottom_index=index_of(glyphs, h),
                   interior=interior, score=score)


def box_outcome(detect, doc, cfg):
    """The chosen axes (as indices), interior and score."""
    try:
        box = detect(doc, cfg)
    except NoAxesFound:
        return None
    return box.left_index, box.bottom_index, box.interior, box.score


def random_axis_segments(rng: random.Random, tol: float) -> list[Segment]:
    """Axis-like segments whose near ends crowd a few cells of the tol grid.

    Ends sit on anchors (negative ones included) shifted by 0, +-tol,
    +-tol +- 1e-9 or a random fraction of tol; directions go both ways and
    some tilts fall outside the angle tolerance.
    """
    anchors = [(rng.randint(-4, 4) * tol, rng.randint(-4, 4) * tol)
               for _ in range(rng.randint(1, 3))]
    shifts = (0.0, tol, -tol, tol + 1e-9, tol - 1e-9, -tol + 1e-9, -tol - 1e-9)

    def shift():
        return rng.choice(shifts) if rng.random() < 0.6 else rng.uniform(-1.5, 1.5) * tol

    out = []
    for i in range(rng.randint(1, 12)):
        ax, ay = rng.choice(anchors)
        x, y = ax + shift(), ay + shift()
        length = rng.uniform(5.0, 60.0 + 8 * tol)
        sign = rng.choice((-1.0, 1.0))
        tilt = rng.uniform(-0.05, 0.05) * length
        if rng.random() < 0.5:
            out.append(seg(f"s{i}", x, y, x + tilt, y + sign * length))
        else:
            out.append(seg(f"s{i}", x, y, x + sign * length, y + tilt))
    return out


def gridded_segments(n: int, spacing: float, offset: float) -> list[Segment]:
    """Axes meeting at (50, 400) plus n full-length gridlines each way.

    Gridlines start ``offset`` past the far side of the opposite axis and
    are ``spacing`` apart, so several can share one cell.
    """
    x0, y0, x1, y1 = 50.0, 50.0, 500.0, 400.0
    out = [seg("v", x0, y1, x0, y0), seg("h", x0, y1, x1, y1)]
    for i in range(1, n + 1):
        out.append(seg(f"gv{i}", x0 + i * spacing, y1 + offset, x0 + i * spacing, y0))
        out.append(seg(f"gh{i}", x0 - offset, y1 - i * spacing, x1, y1 - i * spacing))
    return out


def corner_bound_segments(rng: random.Random, tol: float) -> list[Segment]:
    """Axis pairs whose ends sit on the bound of the ends that can be a corner.

    Each group has a vertical near end E and partners around it: ends
    ``tol / 2`` and ``tol`` away and one ulp either side of each, far ends
    on the corner midpoint's bound, near-flat segments with long cross
    extents, ends from 8.9e307 to 1.79e308 (where midpoints overflow) and
    infinite and nan ends.
    """
    up, down = math.inf, -math.inf

    def ulps(v):
        return rng.choice((math.nextafter(v, down), v, math.nextafter(v, up)))

    def coord():
        r = rng.random()
        if r < 0.5:  # E within a tol of zero, negative ones included
            return rng.choice((rng.uniform(-1.0, 1.0), rng.randint(-2, 2))) * tol
        if r < 0.85:
            return rng.choice((1.0, -1.0)) * rng.uniform(8.9e307, 1.79e308)
        return rng.choice((math.inf, -math.inf, math.nan))

    def step(v):
        # a coordinate tol / 2 or tol from v, or on the bound's midpoint
        r = rng.random()
        sign = rng.choice((1.0, -1.0))
        if r < 0.4:
            return ulps(v + sign * rng.choice((tol / 2, tol)))
        if r < 0.7:
            edge = ulps(v + sign * rng.choice((tol, math.nextafter(tol, up))))
            return ulps((v + edge) / 2.0)
        if r < 0.85:
            return v + rng.uniform(-1.5, 1.5) * tol
        return rng.choice((v, v + sign * 40.0 * tol, -sign * math.inf, math.nan))

    def cross(v):
        # the other coordinate of a far end: straight, tilted or near-flat
        return rng.choice((v, v + rng.uniform(-0.02, 0.02) * tol,
                           v + rng.choice((1.0, -1.0)) * rng.uniform(2.0, 50.0) * tol,
                           v + rng.uniform(-1.0, 1.0) * 1e308))

    out = []
    for _ in range(rng.randint(1, 2)):
        ex, ey = coord(), coord()
        for i in range(rng.randint(1, 2)):  # verticals near E
            x, y = ex if i == 0 else step(ex), ey if i == 0 else step(ey)
            out.append(seg(f"v{len(out)}", x, y, cross(x), step(y)))
        for _ in range(rng.randint(1, 3)):  # horizontals with an end near E
            x, y = step(ex), step(ey)
            out.append(seg(f"h{len(out)}", x, y, step(x), cross(y)))
    rng.shuffle(out)
    return [s if rng.random() < 0.5 else seg(s.id, s.p2.x, s.p2.y, s.p1.x, s.p1.y)
            for s in out]


class TestPlotBoxGridPairing:
    """The endpoint grid must give what the full V x H pairing gives."""

    @pytest.mark.parametrize("tol", [0.05, 3.0, 50.0, 7.3])
    def test_matches_quadratic_on_random_layouts(self, tol):
        rng = random.Random(f"plot-box:{tol}")
        cfg = PipelineConfig(corner_gap_tol=tol)
        n_found = 0
        for _ in range(500):
            doc = doc_with(random_axis_segments(rng, tol),
                           canvas=Rect(-10 * tol, -10 * tol, 600, 450))
            want = box_outcome(quadratic_plot_box, doc, cfg)
            assert box_outcome(detect_plot_box, doc, cfg) == want
            n_found += want is not None
        assert n_found > 50  # the layouts do produce axis pairs

    @pytest.mark.parametrize("tol", [0.05, 3.0, 50.0])
    @pytest.mark.parametrize("spacing_frac", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("offset_frac", [0.0, 1.0, 1.0 + 1e-9, -1.0 + 1e-9])
    def test_matches_quadratic_on_gridlines(self, tol, spacing_frac, offset_frac):
        cfg = PipelineConfig(corner_gap_tol=tol)
        segments = gridded_segments(40, spacing_frac * tol, offset_frac * tol)
        for order in (segments, segments[::-1]):
            doc = doc_with(order)
            assert box_outcome(detect_plot_box, doc, cfg) == \
                box_outcome(quadratic_plot_box, doc, cfg)

    def test_exact_tie_keeps_list_order(self):
        # same id, same geometry up to direction: only list order decides
        h_fwd = seg("h", 50, 400, 500, 400)
        h_rev = seg("h", 500, 400, 50, 400)
        for segments in ([seg("v", 50, 400, 50, 50), h_fwd, h_rev],
                         [h_rev, seg("v", 50, 400, 50, 50), h_fwd]):
            doc = doc_with(segments)
            box = detect_plot_box(doc)
            assert box.bottom_index == quadratic_plot_box(doc).bottom_index

    @pytest.mark.parametrize("vx,hx", [(-1e-17, 3.0),
                                       (-3.000000000000001, -6.000000000000001)])
    def test_gap_rounded_down_to_tol(self, vx, hx):
        # the computed gap rounds to exactly tol, so the gate accepts the
        # pair; yet the ends sit two cells apart (first case), or one cell
        # apart with vx / 3 - 1 rounding up onto the cell boundary (second)
        v = seg("v", vx, 0, vx, -100)
        h = seg("h", hx, 0, hx + 100, 0)
        assert math.dist((v.p1.x, v.p1.y), (h.p1.x, h.p1.y)) == 3.0
        doc = doc_with([v, h])
        box = detect_plot_box(doc)
        assert (box.left_index, box.bottom_index) == (0, 1)
        assert box_outcome(detect_plot_box, doc, DEFAULT_CONFIG) == \
            box_outcome(quadratic_plot_box, doc, DEFAULT_CONFIG)

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, PipelineConfig(corner_gap_tol=1e-300)])
    def test_infinite_and_huge_ends(self, cfg):
        # ends whose grid coordinate overflows still pair with each other
        segments = [seg("v", 50, 400, 50, -math.inf), seg("h", 50, 400, 500, 400),
                    seg("far", 1e300, 400, 2e300, 400), seg("vfar", 1e300, 400, 1e300, 0)]
        for doc, left in ((doc_with(segments), "v"), (doc_with(segments[1:]), "vfar")):
            assert box_outcome(detect_plot_box, doc, cfg) == \
                box_outcome(quadratic_plot_box, doc, cfg)
            assert doc.segments.ids[detect_plot_box(doc, cfg).left_index] == left

    def test_corner_calls_linear_in_gridlines(self, monkeypatch):
        calls = 0
        real_corner = axis_detection._corner

        def counting_corner(v, h):
            nonlocal calls
            calls += 1
            return real_corner(v, h)

        monkeypatch.setattr(axis_detection, "_corner", counting_corner)
        n = 500  # full-length gridlines each way, strictly inside the box
        doc = doc_with(gridded_segments(n, 350.0 / (n + 1), 0.0))
        box = detect_plot_box(doc)
        assert (doc.segments.ids[box.left_index],
                doc.segments.ids[box.bottom_index]) == ("v", "h")
        # the full pairing makes (n + 1) ** 2 = 251001 calls here
        assert calls <= 2 * (2 * n + 2)

    def test_one_column_search_per_vertical_on_gridlines(self, monkeypatch):
        # each vertical runs up from its lower end, the only end that can be
        # a corner, so the column search runs once per vertical candidate
        calls = 0

        def counting_bisect_left(columns, lo):
            nonlocal calls
            calls += 1
            return bisect.bisect_left(columns, lo)

        monkeypatch.setattr(axis_detection, "bisect_left", counting_bisect_left)
        n = 500
        doc = doc_with(gridded_segments(n, 350.0 / (n + 1), 0.0))
        box = detect_plot_box(doc)
        assert (doc.segments.ids[box.left_index],
                doc.segments.ids[box.bottom_index]) == ("v", "h")
        assert calls == n + 1

    @pytest.mark.parametrize("tol", [1e-300, 0.5, 3.0, 1e300])
    @pytest.mark.parametrize("angle_tol", [2.0, 90.0, 135.0])
    def test_corner_end_bound_matches_quadratic(self, tol, angle_tol):
        # segments of any length count, so that ends tol / 2 apart do too
        cfg = PipelineConfig(corner_gap_tol=tol, axis_angle_tol_deg=angle_tol,
                             min_axis_length=5e-324)
        rng = random.Random(f"corner-end-bound:{tol}:{angle_tol}")
        n_found = 0
        for _ in range(600):
            doc = doc_with(corner_bound_segments(rng, tol),
                           canvas=Rect(-10 * tol, -10 * tol, 600, 450))
            want = box_outcome(quadratic_plot_box, doc, cfg)
            assert same(box_outcome(detect_plot_box, doc, cfg), want)
            n_found += want is not None
        assert n_found > 50  # the layouts do produce axis pairs

    @pytest.mark.parametrize("v,h", [
        # the gap vy - hy = -4 - 2**-51 rounds to -4, so the pair is within
        # tol, yet hy lies past vy + tol = 3 and the midpoint's y rounds to
        # 1 + 2**-52: the far end there passes, although it lies past
        # (vy + (vy + tol)) / 2 = 1
        (seg("v", 0.0, -1.0, 5000.0, 1 + 2 ** -52),
         seg("h", 0.0, 3 + 2 ** -51, 1000.0, 3.001)),
        # the same along x: mx is -1 - 2**-52, below (hx + (hx - tol)) / 2
        (seg("v", -3 - 2 ** -51, 0.0, -3.001, -100.0),
         seg("h", 1.0, 0.0, -1 - 2 ** -52, 5000.0)),
    ])
    def test_gap_rounded_down_past_the_bound(self, v, h):
        cfg = PipelineConfig(corner_gap_tol=4.0, axis_angle_tol_deg=90.0)
        doc = doc_with([v, h], canvas=Rect(-40, -40, 600, 450))
        want = box_outcome(quadratic_plot_box, doc, cfg)
        assert want is not None and want[:2] == (0, 1)
        assert same(box_outcome(detect_plot_box, doc, cfg), want)


class TestDetectPlotBox:
    def test_unique_candidate(self):
        doc = doc_with([seg("v", 50, 400, 50, 50), seg("h", 50, 400, 500, 400)])
        box = detect_plot_box(doc)
        assert doc.segments.ids[box.left_index] == "v"
        assert doc.segments.ids[box.bottom_index] == "h"
        assert (box.interior.x0, box.interior.x1) == (50, 500)
        assert (box.interior.y0, box.interior.y1) == (50, 400)

    def test_short_decorative_segment_ignored(self):
        doc = doc_with([seg("v", 50, 400, 50, 50), seg("h", 50, 400, 500, 400),
                        seg("deco", 10, 10, 20, 10)])
        box = detect_plot_box(doc)
        oracle = brute_force_best_pair(doc)
        ids = doc.segments.ids
        assert (ids[box.left_index], ids[box.bottom_index]) == (oracle[0].id, oracle[1].id)
        assert ids[box.left_index] == "v"

    def test_nested_boxes_outer_wins(self):
        doc = doc_with([
            seg("v_out", 50, 400, 50, 50), seg("h_out", 50, 400, 500, 400),
            seg("v_in", 100, 350, 100, 200), seg("h_in", 100, 350, 250, 350),
        ])
        box = detect_plot_box(doc)
        oracle = brute_force_best_pair(doc)
        ids = doc.segments.ids
        assert (ids[box.left_index], ids[box.bottom_index]) == ("v_out", "h_out")
        assert (oracle[0].id, oracle[1].id) == ("v_out", "h_out")

    def test_no_axes(self):
        with pytest.raises(NoAxesFound):
            detect_plot_box(doc_with([seg("diag", 0, 0, 100, 100)]))

    def test_disconnected_pair_rejected(self):
        # corner gap 20 > 3
        with pytest.raises(NoAxesFound):
            detect_plot_box(doc_with([seg("v", 50, 400, 50, 50),
                                      seg("h", 70, 400, 500, 400)]))

    def test_argmax_invariance_under_short_segments(self):
        rng = random.Random(7)
        base = [seg("v", 50, 400, 50, 50), seg("h", 50, 400, 500, 400)]
        base_doc = doc_with(base)
        chosen = detect_plot_box(base_doc)
        extras = [seg(f"s{i}", x := rng.uniform(0, 600), y := rng.uniform(0, 450),
                      x + rng.uniform(-4, 4), y + rng.uniform(-4, 4))
                  for i in range(30)]
        extras = [s for s in extras if s.p1 != s.p2 and s.length < DEFAULT_CONFIG.min_axis_length]
        doc = doc_with(base + extras)
        box = detect_plot_box(doc)
        assert (doc.segments.ids[box.left_index], doc.segments.ids[box.bottom_index]) == \
            (base_doc.segments.ids[chosen.left_index],
             base_doc.segments.ids[chosen.bottom_index])


def point_axis_gap(seg_, axis):
    """Oracle for the touch predicate: min endpoint-to-axis-segment distance."""
    def dist(p, a, b):
        vx, vy = b.x - a.x, b.y - a.y
        t = max(0.0, min(1.0, ((p.x - a.x) * vx + (p.y - a.y) * vy) / (vx * vx + vy * vy)))
        return math.hypot(p.x - a.x - t * vx, p.y - a.y - t * vy)
    return min(dist(seg_.p1, axis.p1, axis.p2), dist(seg_.p2, axis.p1, axis.p2))


class TestDetectTicks:
    def test_three_x_ticks(self):
        segments = [STD_LEFT, STD_BOTTOM]
        for x in (50, 150, 250):
            segments.append(seg(f"t{x}", x, 400, x, 404))
        ticks = detect_ticks(doc_with(segments), STD_BOX)
        xticks = [t for t in ticks if t.side is AxisSide.X_AXIS]
        assert [t.position for t in xticks] == [50, 150, 250]
        assert all(t.length == 4 for t in xticks)

    def test_detached_stub_excluded(self):
        stub = seg("far", 100, 405, 100, 409)  # gap 5 > 1.0
        assert point_axis_gap(stub, STD_BOTTOM) == pytest.approx(5.0)
        ticks = detect_ticks(doc_with([STD_LEFT, STD_BOTTOM, stub]), STD_BOX)
        assert not ticks

    def test_gridline_excluded_by_length(self):
        # 0.4 * box height = 140 > 0.15 * 350
        grid = seg("grid", 100, 330, 100, 470)
        assert grid.length == pytest.approx(0.4 * STD_BOX.interior.height)
        ticks = detect_ticks(doc_with([STD_LEFT, STD_BOTTOM, grid]), STD_BOX)
        assert not ticks

    def test_y_axis_ticks(self):
        segments = [STD_LEFT, STD_BOTTOM, seg("ty", 45, 100, 50, 100)]
        ticks = detect_ticks(doc_with(segments), STD_BOX)
        assert len(ticks) == 1
        assert ticks[0].side is AxisSide.Y_AXIS
        assert ticks[0].position == 100

    def test_axes_themselves_not_ticks(self):
        ticks = detect_ticks(doc_with([STD_LEFT, STD_BOTTOM]), STD_BOX)
        assert not ticks


# ---------------------------------------------------------------------------
# the column passes against the object-based versions they replaced

def object_plot_box(doc, cfg=DEFAULT_CONFIG):
    """Oracle: the endpoint-grid pairing over one Segment object per segment."""
    def from_vert(s):
        return math.degrees(math.atan2(abs(s.p2.x - s.p1.x), abs(s.p2.y - s.p1.y)))

    def from_horiz(s):
        return math.degrees(math.atan2(abs(s.p2.y - s.p1.y), abs(s.p2.x - s.p1.x)))

    def corner_of(v, h):
        best = None
        for ve, v_far in ((v.p1, v.p2), (v.p2, v.p1)):
            for he, h_far in ((h.p1, h.p2), (h.p2, h.p1)):
                gap = math.dist((ve.x, ve.y), (he.x, he.y))
                if best is None or gap < best[3]:
                    mid = Point((ve.x + he.x) / 2.0, (ve.y + he.y) / 2.0)
                    best = (mid, v_far, h_far, gap)
        return best

    def grid_coord(value, tol):
        return max(-2.0 ** 62, min(2.0 ** 62, value / tol))

    def cell(p, tol):
        return (math.floor(grid_coord(p.x, tol)), math.floor(grid_coord(p.y, tol)))

    def reach(value, tol):
        q = grid_coord(value, tol)
        return range(math.floor(q - 1.0 - 1e-6), math.floor(q + 1.0 + 1e-6) + 1)

    glyphs = glyphs_of(doc.segments)
    verticals = [s for s in glyphs if s.length >= cfg.min_axis_length
                 and from_vert(s) <= cfg.axis_angle_tol_deg]
    horizontals = [s for s in glyphs if s.length >= cfg.min_axis_length
                   and from_horiz(s) <= cfg.axis_angle_tol_deg]
    width = max(doc.canvas.width, 1e-6)
    height = max(doc.canvas.height, 1e-6)
    tol = cfg.corner_gap_tol
    grid = {}
    for i, h in enumerate(horizontals):
        for p in (h.p1, h.p2):
            grid.setdefault(cell(p, tol), []).append(i)
    candidates = []
    for v in verticals:
        near = set()
        for p in (v.p1, v.p2):
            for cx in reach(p.x, tol):
                for cy in reach(p.y, tol):
                    near.update(grid.get((cx, cy), ()))
        for i in sorted(near):
            h = horizontals[i]
            corner, v_far, h_far, gap = corner_of(v, h)
            if not gap <= tol:
                continue
            if v_far.y > corner.y or h_far.x < corner.x:
                continue
            proximity = 1.0 - gap / (tol + 1e-12)
            score = (min(1.0, math.sqrt(v.length / width) * math.sqrt(h.length / height))
                     * math.sqrt(max(proximity, 1e-6)))
            interior = Rect(min(corner.x, h_far.x), min(corner.y, v_far.y),
                            max(corner.x, h_far.x), max(corner.y, v_far.y))
            candidates.append((score, corner, v, h, interior))
    if not candidates:
        raise NoAxesFound("no qualifying vertical/horizontal axis pair")
    candidates.sort(key=lambda c: (-c[0], -c[1].y, c[1].x,
                                   -(c[2].length + c[3].length),
                                   c[2].id, c[3].id))
    score, _, v, h, interior = candidates[0]
    return PlotBox(left_index=index_of(glyphs, v), bottom_index=index_of(glyphs, h),
                   interior=interior, score=score)


def object_ticks(doc, box, cfg=DEFAULT_CONFIG):
    """Oracle: the per-object tick pass, skipping each axis by identity."""
    def from_vert(s):
        return math.degrees(math.atan2(abs(s.p2.x - s.p1.x), abs(s.p2.y - s.p1.y)))

    def from_horiz(s):
        return math.degrees(math.atan2(abs(s.p2.y - s.p1.y), abs(s.p2.x - s.p1.x)))

    def distance(p, a, b):
        vx, vy = b.x - a.x, b.y - a.y
        wx, wy = p.x - a.x, p.y - a.y
        denom = vx * vx + vy * vy
        t = 0.0 if denom == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / denom))
        return math.hypot(p.x - (a.x + t * vx), p.y - (a.y + t * vy))

    def on_axis(axis, side, cross_side_length):
        if side is AxisSide.X_AXIS:
            is_perpendicular = lambda s: from_vert(s) <= cfg.tick_angle_tol_deg
            along = lambda p: p.x
        else:
            is_perpendicular = lambda s: from_horiz(s) <= cfg.tick_angle_tol_deg
            along = lambda p: p.y
        max_len = cfg.tick_max_length_frac * cross_side_length
        out = []
        for s in glyphs:
            if s is axis:
                continue
            length = s.length
            if not (cfg.tick_min_length <= length <= max_len):
                continue
            if not is_perpendicular(s):
                continue
            d1 = distance(s.p1, axis.p1, axis.p2)
            d2 = distance(s.p2, axis.p1, axis.p2)
            if min(d1, d2) > cfg.tick_touch_tol:
                continue
            touching = s.p1 if d1 <= d2 else s.p2
            out.append(TickMark(position=along(touching), side=side, length=length))
        out.sort(key=lambda t: t.position)
        return out

    glyphs = glyphs_of(doc.segments)
    return (on_axis(glyphs[box.bottom_index], AxisSide.X_AXIS, box.interior.height)
            + on_axis(glyphs[box.left_index], AxisSide.Y_AXIS, box.interior.width))


_IDS = st.sampled_from(["a", "b", "v", "h"])
# the clamp of the grid coordinate, in device units at the default corner_gap_tol
_BEYOND = 2.0 ** 62 * DEFAULT_CONFIG.corner_gap_tol


@st.composite
def axis_layouts(draw):
    """(cfg, segments): axis-like segments crowding a few cells of the tol grid.

    Ends sit on cell edges, just either side of one, or anywhere near an
    anchor; segments run either way, some tilt past the angle tolerance,
    some reach huge or infinite coordinates, ids repeat, and some segments
    come twice (reversed or not), so that exact score ties occur.
    """
    tol = draw(st.sampled_from([3.0, 0.5, 7.3, 40.0]))
    cfg = PipelineConfig(corner_gap_tol=tol)
    anchors = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                            min_size=1, max_size=2))
    offsets = st.one_of(st.just(0.0),
                        st.sampled_from([tol, -tol, tol + 1e-9, tol - 1e-9,
                                         -tol + 1e-9, -tol - 1e-9]),
                        st.floats(-1.5 * tol, 1.5 * tol))
    far = st.sampled_from([math.inf, -math.inf, 1e300, -1e300, 2e300])
    out = []
    for _ in range(draw(st.integers(2, 10))):
        ax, ay = draw(st.sampled_from(anchors))
        x, y = ax * tol + draw(offsets), ay * tol + draw(offsets)
        # the length gate's edge, and lengths whose products tie
        length = draw(st.one_of(st.sampled_from([10.0, 20.0, 30.0, 60.0]),
                                st.floats(0.0, 60.0 + 8 * tol)))
        # mostly up for verticals and right for horizontals, as axes run
        sign = draw(st.sampled_from([1.0, 1.0, 1.0, -1.0]))
        tilt = draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.05))) * length
        kind = draw(st.sampled_from(["v", "v", "h", "h", "v_far", "h_far", "any"]))
        if kind == "v":
            end = (x + tilt, y - sign * length)
        elif kind == "h":
            end = (x + sign * length, y + tilt)
        elif kind == "v_far":
            end = (x, draw(far))
        elif kind == "h_far":
            end = (draw(far), y)
        else:
            end = (draw(st.floats(-100, 500)), draw(st.floats(-100, 500)))
        ends = [Point(x, y), Point(*end)]
        if draw(st.booleans()):
            ends.reverse()
        out.append(Segment(draw(_IDS), *ends))
    for k, flip in draw(st.lists(st.tuples(st.integers(0, len(out) - 1), st.booleans()),
                                 max_size=3)):
        s = out[k]
        twin = Segment(s.id, s.p2, s.p1) if flip else s
        out.insert(draw(st.integers(0, len(out))), twin)
    return cfg, out


def same(got, want) -> bool:
    """Equal down to the last bit: reprs, so that nan matches nan and -0.0 not 0.0."""
    return repr(got) == repr(want)


class TestColumnarSegmentsMatchObjectOracle:
    """The column passes give what one Segment object per segment gave."""

    @given(axis_layouts())
    # two boxes tied on score, the lower corner further right
    @example((DEFAULT_CONFIG, [seg("v", 0, 0, 0, -20), seg("h", 0, 0, 30, 0),
                               seg("v2", 100, 100, 100, 70), seg("h2", 100, 100, 120, 100)]))
    # one geometry twice, the ids crossed: only the id order decides
    @example((DEFAULT_CONFIG, [seg("a", 0, 0, 0, -20), seg("b", 0, 0, 0, -20),
                               seg("b", 0, 0, 30, 0), seg("a", 0, 0, 30, 0)]))
    # both ends of v equally far from the near end of h: the first one counts
    @example((PipelineConfig(corner_gap_tol=40.0),
              [seg("v", 0, 0, 0, -10), seg("h", 5, -5, 50, -5)]))
    @settings(max_examples=250, deadline=None)
    def test_plot_box_and_ticks(self, layout):
        cfg, glyphs = layout
        doc = doc_with(glyphs, canvas=Rect(-10 * cfg.corner_gap_tol,
                                           -10 * cfg.corner_gap_tol, 600, 450))
        want = box_outcome(object_plot_box, doc, cfg)
        assert same(box_outcome(detect_plot_box, doc, cfg), want)
        assert same(box_outcome(quadratic_plot_box, doc, cfg), want)
        if want is not None:
            box = detect_plot_box(doc, cfg)
            assert same(detect_ticks(doc, box, cfg), object_ticks(doc, box, cfg))

    @given(st.lists(st.tuples(st.sampled_from(["x", "y"]), st.floats(-10, 55),
                              st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1.0000000000000002,
                                                         -1.0000000000000002]),
                                        st.floats(-3, 3)),
                              st.one_of(st.sampled_from([0.5, 0.49999999999999994, 52.5,
                                                         52.50000000000001, 67.5]),
                                        st.floats(0, 70)),
                              st.one_of(st.just(0.0), st.floats(-0.05, 0.05)),
                              st.sampled_from([1.0, -1.0]), st.booleans(), _IDS),
                    max_size=25),
           st.integers(0, 25), st.integers(0, 25), st.booleans())
    # tilted stubs crossing each axis at their midpoints: both ends touch
    # equally, and the first end gives the position
    @example([("x", 10.0, -1.0, 2.0, 0.01, 1.0, False, "a"),
              ("y", 10.0, -1.0, 2.0, 0.01, 1.0, True, "b")], 0, 1, False)
    @settings(max_examples=200, deadline=None)
    def test_ticks_on_boundaries(self, stubs, left_at, bottom_at, twins):
        # stubs hang off either axis (inward or outward), past its ends too,
        # with lengths, gaps and tilts on both sides of the gates; twins copy
        # the axes themselves, which only the skip by index leaves out
        cfg = DEFAULT_CONFIG
        glyphs = []
        for side, along, gap, length, tilt, way, flip, sid in stubs:
            if side == "x":  # near-vertical, off the bottom axis at y = 400
                x = 50 + 10 * along
                ends = [Point(x, 400 + gap), Point(x + tilt * length, 400 + gap + way * length)]
            else:  # near-horizontal, off the left axis at x = 50
                y = 400 - 10 * along
                ends = [Point(50 + gap, y), Point(50 + gap + way * length, y + tilt * length)]
            if flip:
                ends.reverse()
            glyphs.append(Segment(sid, *ends))
        left, bottom = STD_LEFT, STD_BOTTOM
        glyphs.insert(min(left_at, len(glyphs)), left)
        glyphs.insert(min(bottom_at, len(glyphs)), bottom)
        if twins:
            glyphs += [Segment(left.id, left.p2, left.p1), bottom]
        doc = doc_with(glyphs)
        box = detect_plot_box(doc, cfg)
        assert same(box_outcome(detect_plot_box, doc, cfg),
                    box_outcome(object_plot_box, doc, cfg))
        assert same(detect_ticks(doc, box, cfg), object_ticks(doc, box, cfg))

    @given(st.lists(st.tuples(st.sampled_from([0.0, -450.0, 550.0, 1e300, -1e300,
                                               math.inf, -math.inf, 50.0, 549.9999999999999,
                                               math.nan]),
                              st.sampled_from([0.0, -450.0, 550.0, 1e300, math.inf,
                                               -math.inf, 50.0, -450.00000000000006,
                                               math.nan]),
                              st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.booleans()),
                    max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_canvas_filter_on_huge_and_infinite_ends(self, rows):
        # canvas 0..100: the overflow window is -450..550 on both axes
        glyphs = []
        for i, (a, b, c, d, flip) in enumerate(rows):
            ends = [Point(a, c), Point(d, b)]
            if flip:
                ends.reverse()
            glyphs.append(Segment(f"s{i % 3}", *ends))
        doc = FigureDocument(segments=segments_of(glyphs), canvas=Rect(0, 0, 100, 100))
        # a nan coordinate at either end drops the segment
        want = [s for s in glyphs
                if not any(map(math.isnan, (s.p1.x, s.p1.y, s.p2.x, s.p2.y)))
                and -450 <= min(s.p1.x, s.p2.x) and max(s.p1.x, s.p2.x) <= 550
                and -450 <= min(s.p1.y, s.p2.y) and max(s.p1.y, s.p2.y) <= 550]
        svg_model._drop_out_of_canvas(doc)
        assert glyphs_of(doc.segments) == want
        dropped = len(glyphs) - len(want)
        assert doc.warnings == ([f"{dropped} far-out-of-canvas segments discarded"]
                                if dropped else [])

    @pytest.mark.parametrize("segments", [
        # corners past the clamp on each side: each end there is clamped
        # into the same cell as the other axis's end
        [seg("v", 2 * _BEYOND, 0, 2 * _BEYOND, -30), seg("h", 2 * _BEYOND, 0, math.inf, 0)],
        [seg("v", -2 * _BEYOND, 0, -2 * _BEYOND, -30), seg("h", -2 * _BEYOND, 0, 0, 0)],
        [seg("v", 0, 2 * _BEYOND, 0, -math.inf), seg("h", 0, 2 * _BEYOND, 30, 2 * _BEYOND)],
    ])
    def test_corners_past_the_clamp(self, segments):
        doc = doc_with(segments)
        want = box_outcome(object_plot_box, doc, DEFAULT_CONFIG)
        assert want is not None
        assert same(box_outcome(detect_plot_box, doc, DEFAULT_CONFIG), want)
        assert same(box_outcome(quadratic_plot_box, doc, DEFAULT_CONFIG), want)

    @given(st.sampled_from([3.0, 0.5, 7.3]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_grid_cells_match_clamp_and_floor(self, tol, data):
        # ends far past the clamp, on it, on cell edges and on the edges of
        # a vertical's reach, and 1e-9 either side of each; the oracle keeps
        # the clamp as max(-limit, min(limit, q)) followed by floor
        limit = 2.0 ** 62 * tol
        edges = [k * tol for k in range(-3, 4)] + [(k + 1e-6) * tol for k in (-2, 1)]
        near_edges = st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from([e, e - 1e-9, e + 1e-9]))
        coords = st.one_of(
            st.sampled_from([math.inf, -math.inf, math.nan, limit, -limit,
                             2 * limit, -2 * limit, 1e300, -1e300]),
            near_edges, near_edges)
        # ends drawn from a few values each way, so that corners form
        xs = st.sampled_from(data.draw(st.lists(coords, min_size=1, max_size=3)))
        ys = st.sampled_from(data.draw(st.lists(coords, min_size=1, max_size=3)))
        glyphs = []
        for i in range(data.draw(st.integers(2, 8))):
            x, y = data.draw(xs), data.draw(ys)
            if data.draw(st.booleans()):  # vertical, else horizontal
                far = data.draw(st.one_of(st.just(y - 30.0), st.just(y - 30.0),
                                          st.just(y + 30.0), coords))
                ends = [Point(x, y), Point(x, far)]
            else:
                far = data.draw(st.one_of(st.just(x + 30.0), st.just(x + 30.0),
                                          st.just(x - 30.0), coords))
                ends = [Point(x, y), Point(far, y)]
            if data.draw(st.booleans()):
                ends.reverse()
            glyphs.append(Segment(data.draw(_IDS), *ends))
        cfg = PipelineConfig(corner_gap_tol=tol)
        doc = doc_with(glyphs, canvas=Rect(-100, -100, 100, 100))
        assert same(box_outcome(detect_plot_box, doc, cfg),
                    box_outcome(object_plot_box, doc, cfg))


# ---------------------------------------------------------------------------
# the segment passes: constant angles, sorted columns, one length pass

def old_ticks_on_axis(segments, axis_index, side, cross_side_length, cfg):
    """Oracle: the tick pass as it was, with a hypot and an atan2 per segment."""
    ax, ay = segments.x1[axis_index], segments.y1[axis_index]
    vx, vy = segments.x2[axis_index] - ax, segments.y2[axis_index] - ay
    denom = vx * vx + vy * vy

    def gap(px, py):
        t = 0.0
        if denom != 0:
            t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / denom))
        return math.hypot(px - (ax + t * vx), py - (ay + t * vy))

    x_axis = side is AxisSide.X_AXIS
    max_length = cfg.tick_max_length_frac * cross_side_length
    out = []
    for i, (x1, y1, x2, y2) in enumerate(zip(segments.x1, segments.y1,
                                              segments.x2, segments.y2)):
        length = math.hypot(x1 - x2, y1 - y2)
        if not (cfg.tick_min_length <= length <= max_length) or i == axis_index:
            continue
        dx = abs(x1 - x2)
        dy = abs(y1 - y2)
        angle = math.atan2(dx, dy) if x_axis else math.atan2(dy, dx)
        if not math.degrees(angle) <= cfg.tick_angle_tol_deg:
            continue
        d1 = gap(x1, y1)
        d2 = gap(x2, y2)
        if min(d1, d2) > cfg.tick_touch_tol:
            continue
        if d1 <= d2:
            position = x1 if x_axis else y1
        else:
            position = x2 if x_axis else y2
        out.append(TickMark(position=position, side=side, length=length))
    out.sort(key=lambda t: t.position)
    return out


# zero, subnormal, normal, huge and infinite, of either sign
_NONZERO = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1e300,
                     math.inf, -math.inf]),
    st.floats(-1e-307, 1e-307), st.floats(allow_nan=False),
).filter(lambda v: v != 0.0)
_LIMIT = 2 ** 62  # the clamp of a grid coordinate, as an integer column


class TestSegmentPasses:
    @given(st.sampled_from([0.0, -0.0]), _NONZERO)
    @settings(max_examples=300)
    def test_axis_aligned_angles_are_constants(self, zero, d):
        # detect_plot_box gives a segment whose dx (dy) is zero the angles
        # 0.0 and 90.0 (90.0 and 0.0) that atan2 gives it
        assert math.degrees(math.atan2(abs(zero), abs(d))) == 0.0
        assert math.degrees(math.atan2(abs(d), abs(zero))) == 90.0

    @given(axis_layouts(), st.sampled_from([2.0, 90.0, 135.0]))
    # a vertical with a subnormal run, and segments with both signs of zero
    @example((DEFAULT_CONFIG, [seg("v", 0, 0, 5e-324, -20), seg("h", -0.0, 0, 30, 0.0),
                               seg("v2", -0.0, 0, 0.0, -math.inf)]), 2.0)
    @settings(max_examples=200, deadline=None)
    def test_plot_box_at_angle_tolerances(self, layout, angle_tol):
        cfg, glyphs = layout
        cfg = dataclasses.replace(cfg, axis_angle_tol_deg=angle_tol)
        doc = doc_with(glyphs, canvas=Rect(-10 * cfg.corner_gap_tol,
                                           -10 * cfg.corner_gap_tol, 600, 450))
        assert same(box_outcome(detect_plot_box, doc, cfg),
                    box_outcome(quadratic_plot_box, doc, cfg))

    def test_pair_with_a_nan_gap_is_no_corner(self):
        # the near ends of the first and the last segment sit at one
        # infinite point, so their gap is nan: that pair would score nan,
        # and a nan score must not sort before the pair that scores 1
        cfg = dataclasses.replace(DEFAULT_CONFIG, axis_angle_tol_deg=90.0)
        doc = doc_with([seg("a", -math.inf, 3, 0, 3), seg("b", 0, 0, 0, -10),
                        seg("c", 0, -6, 0, -16), seg("d", -math.inf, -6, 0, -6)],
                       canvas=Rect(-30, -30, 600, 450))
        for detect in (detect_plot_box, quadratic_plot_box, object_plot_box):
            assert same(box_outcome(detect, doc, cfg),
                        (3, 2, Rect(0.0, -6.0, 0.0, -6.0), 1.0)), detect

    @pytest.mark.parametrize("angle_tol", [2.0, 90.0, 135.0])
    def test_gridlines_at_angle_tolerances(self, angle_tol):
        cfg = PipelineConfig(axis_angle_tol_deg=angle_tol)
        segments = gridded_segments(30, 1.0, 0.0)
        for order in (segments, segments[::-1]):
            doc = doc_with(order)
            assert same(box_outcome(detect_plot_box, doc, cfg),
                        box_outcome(quadratic_plot_box, doc, cfg))

    @given(st.sets(st.one_of(st.integers(-6, 6),
                             st.sampled_from([_LIMIT, _LIMIT - 1, _LIMIT - 3,
                                              -_LIMIT, -_LIMIT - 1, -_LIMIT + 2]))),
           st.one_of(st.integers(-8, 8), st.sampled_from([_LIMIT, _LIMIT - 2,
                                                          -_LIMIT - 1, -_LIMIT - 3])),
           st.integers(0, 3))
    def test_sorted_columns_match_isdisjoint(self, columns, lo, width):
        # the pre-check of a vertical endpoint's reach [lo, hi] of columns
        hi = lo + width
        ordered = sorted(columns)
        k = bisect.bisect_left(ordered, lo)
        skipped = k == len(ordered) or ordered[k] > hi
        assert skipped == columns.isdisjoint(range(lo, hi + 1))

    @given(axis_layouts())
    @settings(max_examples=100, deadline=None)
    def test_plot_box_searches_sorted_endpoint_columns(self, layout):
        # every search runs over the sorted columns of the horizontal
        # candidates' endpoints that can be a corner, clamped ones too
        cfg, glyphs = layout
        tol = cfg.corner_gap_tol
        horizontals = [s for s in glyphs if s.length >= cfg.min_axis_length
                       and math.degrees(math.atan2(abs(s.p2.y - s.p1.y),
                                                   abs(s.p2.x - s.p1.x)))
                       <= cfg.axis_angle_tol_deg]
        # only the ends that can be the corner: the far end is not left of
        # the midpoint of this end and any partner end within tol
        reach = math.nextafter(tol, math.inf)
        want = sorted({math.floor(max(-2.0 ** 62, min(2.0 ** 62, p.x / tol)))
                       for h in horizontals
                       for p, far in ((h.p1, h.p2), (h.p2, h.p1))
                       if not far.x < (p.x + (p.x - reach)) / 2.0})
        searched = []

        def spy(columns, lo):
            searched.append(list(columns))
            return bisect.bisect_left(columns, lo)

        doc = doc_with(glyphs, canvas=Rect(-10 * tol, -10 * tol, 600, 450))
        with mock.patch.object(axis_detection, "bisect_left", spy):
            got = box_outcome(detect_plot_box, doc, cfg)
        assert all(columns == want for columns in searched)
        assert same(got, box_outcome(object_plot_box, doc, cfg))

    @given(st.lists(st.tuples(*[st.one_of(
               st.sampled_from([50.0, 49.5, 50.5, 46.0, 54.0, 400.0, 399.5, 400.5,
                                396.0, 404.0, 120.0, math.inf, -math.inf, math.nan]),
               st.floats(40, 410))] * 4), max_size=14),
           st.sampled_from([350.0, math.inf]), st.sampled_from([450.0, math.inf]),
           st.integers(0, 14), st.integers(0, 14))
    # stubs of infinite and nan length off each axis
    @example([(100.0, 400.0, 100.0, math.inf), (50.0, 300.0, -math.inf, 300.0),
              (100.0, 400.0, 100.0, math.nan), (math.nan, 300.0, 46.0, 300.0)],
             math.inf, math.inf, 0, 1)
    @settings(max_examples=200, deadline=None)
    def test_ticks_against_old_pass(self, rows, height, width, left_at, bottom_at):
        glyphs = [Segment(f"s{i}", Point(x1, y1), Point(x2, y2))
                  for i, (x1, y1, x2, y2) in enumerate(rows)]
        glyphs.insert(min(left_at, len(glyphs)), STD_LEFT)
        glyphs.insert(min(bottom_at, len(glyphs)), STD_BOTTOM)
        box = PlotBox(left_index=index_of(glyphs, STD_LEFT),
                      bottom_index=index_of(glyphs, STD_BOTTOM),
                      interior=Rect(50.0, 400.0 - height, 50.0 + width, 400.0), score=1.0)
        doc = doc_with(glyphs)
        cfg = DEFAULT_CONFIG
        want = (old_ticks_on_axis(doc.segments, box.bottom_index, AxisSide.X_AXIS,
                                  box.interior.height, cfg)
                + old_ticks_on_axis(doc.segments, box.left_index, AxisSide.Y_AXIS,
                                    box.interior.width, cfg))
        assert same(detect_ticks(doc, box, cfg), want)


def run(content, x=0.0, y=0.0, h=8.0) -> TextRun:
    return TextRun(Point(x, y), content, h)


class TestParseNumericLabel:
    @pytest.mark.parametrize("text,value", [
        ("0.5", 0.5),
        ("−1.2", -1.2),   # Unicode minus
        ("-3", -3.0),
        ("1e3", 1000.0),
        ("2.5E-2", 0.025),
        (" 7 ", 7.0),
        ("50%", 0.5),
        (".25", 0.25),
        ("−2e−2", -0.02),
    ])
    def test_accepted(self, text, value):
        label = parse_numeric_label(run(text))
        assert label is not None
        assert label.value == pytest.approx(value)
        # reference check: normalized text parses identically via float()
        norm = text.strip().replace("−", "-")
        if norm.endswith("%"):
            assert label.value == pytest.approx(float(norm[:-1]) / 100)
        else:
            assert label.value == pytest.approx(float(norm))

    @pytest.mark.parametrize("text", [
        "OR", "n=34", "1.2.3", "1 000", "--5", "e5", "5%%", "Standard Error",
        "1,5", "(3)", "inf", "nan",
    ])
    def test_rejected(self, text):
        assert parse_numeric_label(run(text)) is None


def tick(pos, side=AxisSide.X_AXIS, length=4.0) -> TickMark:
    return TickMark(pos, side, length)


def label(value, x, y, gh=8.0) -> TickLabel:
    return TickLabel(value, Point(x, y), gh)


def brute_force_match(ticks, labels, along, max_along):
    """Oracle: max-cardinality, min-total-distance injective matching over
    gated pairs, labels resolved toward the smaller along-axis coordinate."""
    gated = [(abs(along(lab) - t.position), along(lab), ti, li)
             for ti, t in enumerate(ticks)
             for li, lab in enumerate(labels)
             if abs(along(lab) - t.position) <= max_along]
    best = None
    n = len(ticks)
    for k in range(min(n, len(labels)), 0, -1):
        for combo in itertools.combinations(gated, k):
            tis = [c[2] for c in combo]
            lis = [c[3] for c in combo]
            if len(set(tis)) < k or len(set(lis)) < k:
                continue
            total = sum(c[0] for c in combo)
            alongs = tuple(sorted(c[1] for c in combo))
            key = (total, alongs)
            if best is None or key < best[0]:
                best = (key, {c[2]: c[3] for c in combo})
        if best is not None:
            return best[1]
    return {}


class TestMatchTicksToLabels:
    def test_basic_pairs(self):
        ticks = [tick(50), tick(150)]
        labels = [label(0, 48, 415), label(10, 146, 415)]
        pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)
        assert [(t.position, l.value) for t, l in pairs] == [(50, 0), (150, 10)]

    def test_inside_top_stray_ignored(self):
        ticks = [tick(50), tick(150), tick(250)]
        labels = [label(0, 48, 415), label(10, 146, 415), label(20, 248, 415),
                  TickLabel(34, Point(300, 30), 8.0)]  # inside-top region
        pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)
        assert len(pairs) == 3
        assert all(l.anchor.y > 400 for _, l in pairs)
        oracle = brute_force_match(ticks, labels[:3], lambda l: l.anchor.x, 50.0)
        assert {t.position: l.value for t, l in pairs} == \
            {ticks[ti].position: labels[li].value for ti, li in oracle.items()}

    def test_equidistant_tie_breaks_leftward(self):
        ticks = [tick(100), tick(200)]
        labels = [label(1, 95, 415), label(2, 105, 415), label(3, 198, 415)]
        pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)
        by_tick = {t.position: l.value for t, l in pairs}
        assert by_tick[100] == 1  # leftward label wins the tie
        assert by_tick[200] == 3

    def test_far_label_dropped_by_spacing_gate(self):
        ticks = [tick(50), tick(150), tick(250)]
        # half median spacing = 50; third label is 60 away from its tick
        labels = [label(0, 49, 415), label(10, 149, 415), label(20, 310, 415)]
        pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)
        assert len(pairs) == 2

    def test_perpendicular_window(self):
        ticks = [tick(50), tick(150)]
        # window = 3*4 + 2*8 = 28 below y=400
        labels = [label(0, 49, 415), label(10, 149, 440)]
        with pytest.raises(TooFewTicks, match=r"^x_axis: only 1 tick-label pair\(s\)$"):
            match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)

    def test_y_axis_side(self):
        ticks = [tick(100, AxisSide.Y_AXIS), tick(300, AxisSide.Y_AXIS)]
        labels = [label(5, 30, 103), label(1, 30, 303)]
        pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.Y_AXIS)
        assert [(t.position, l.value) for t, l in pairs] == [(100, 5), (300, 1)]

    def test_insufficient_ticks(self):
        with pytest.raises(TooFewTicks, match="^x_axis: fewer than 2 ticks$"):
            match_ticks_to_labels([tick(50)], [label(0, 50, 415)],
                                  STD_BOX, AxisSide.X_AXIS)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(100):
            ticks, labels = random_matching_instance(rng)
            pairs = match_ticks_to_labels(ticks, labels, STD_BOX, AxisSide.X_AXIS)
            positions = sorted(t.position for t in ticks)
            spacings = [b - a for a, b in zip(positions, positions[1:])]
            spacings.sort()
            m = len(spacings)
            med = (spacings[m // 2] if m % 2 else
                   (spacings[m // 2 - 1] + spacings[m // 2]) / 2)
            in_window = [l for l in labels
                        if l.anchor.y > 400 and abs(l.anchor.y - 400) <= 3 * 4 + 2 * l.glyph_height]
            oracle = brute_force_match(ticks, in_window, lambda l: l.anchor.x, med / 2)
            got = {t.position: l.value for t, l in pairs}
            want = {ticks[ti].position: in_window[li].value for ti, li in oracle.items()}
            assert got == want


def random_matching_instance(rng: random.Random):
    """Realistic instance: labels perturbed near their ticks plus strays.

    Perturbations stay under a quarter of the minimum spacing so the true
    assignment is the unique optimum for both greedy and brute force.
    """
    n_ticks = rng.randint(2, 6)
    positions = sorted(rng.sample(range(60, 480, 12), n_ticks))
    while min(b - a for a, b in zip(positions, positions[1:])) < 24:
        positions = sorted(rng.sample(range(60, 480, 12), n_ticks))
    min_gap = min(b - a for a, b in zip(positions, positions[1:]))
    ticks = [tick(float(p)) for p in positions]
    n_labeled = rng.randint(2, n_ticks)
    labels = [label(rng.randint(0, 99),
                    p + rng.uniform(-0.24, 0.24) * min_gap, 415)
              for p in rng.sample(positions, n_labeled)]
    n_stray = rng.randint(0, 8 - len(labels))
    for _ in range(n_stray):
        labels.append(label(rng.randint(100, 199), rng.uniform(0, 600),
                            rng.uniform(30, 380)))  # inside/above: filtered out
    rng.shuffle(labels)
    return ticks, labels


def pair(pos, value):
    return (tick(pos), label(value, pos, 415))


# ---------------------------------------------------------------------------
# label matching against the all-pairs matcher it replaced

class OldLabelSide:
    """Where one axis's labels sit: outside the box, within a window of it."""

    def __init__(self, ticks, box, side, cfg):
        self.ticks = [t for t in ticks if t.side is side]
        self.side = side
        self.reach = (cfg.label_window_tick_factor
                      * median(t.length for t in self.ticks)) if self.ticks else 0.0
        self.glyph_factor = cfg.label_window_glyph_factor
        self.axis_coord = box.interior.y1 if side is AxisSide.X_AXIS else box.interior.x0

    def along(self, label):
        return label.anchor.x if self.side is AxisSide.X_AXIS else label.anchor.y

    def admits(self, label):
        if self.side is AxisSide.X_AXIS:
            offset = label.anchor.y - self.axis_coord
        else:
            offset = self.axis_coord - label.anchor.x
        return 0 < offset <= self.reach + self.glyph_factor * label.glyph_height

    def tick_gap(self, label):
        along = self.along(label)
        return min(abs(along - t.position) for t in self.ticks)


def old_match_ticks_to_labels(ticks, labels, box, side, cfg=DEFAULT_CONFIG):
    """Oracle: the matcher as it was, every tick against every label."""
    own = OldLabelSide(ticks, box, side, cfg)
    axis_ticks = own.ticks
    if len(axis_ticks) < 2:
        raise TooFewTicks(f"{side.value}: fewer than 2 ticks")
    other = OldLabelSide(ticks, box, AxisSide.Y_AXIS if side is AxisSide.X_AXIS
                         else AxisSide.X_AXIS, cfg)
    along = own.along
    candidates = [
        l for l in labels
        if own.admits(l) and not (other.ticks and other.admits(l)
                                  and other.tick_gap(l) < own.tick_gap(l))
    ]
    positions = sorted(t.position for t in axis_ticks)
    spacings = [b - a for a, b in zip(positions, positions[1:]) if b > a]
    max_along = (median(spacings) / 2.0) if spacings else math.inf
    pairs = []
    for ti, tick_ in enumerate(axis_ticks):
        for li, label_ in enumerate(candidates):
            dist = abs(along(label_) - tick_.position)
            if dist <= max_along:
                pairs.append((dist, along(label_), tick_.position, ti, li))
    pairs.sort()
    used_ticks, used_labels, matched = set(), set(), []
    for _, _, _, ti, li in pairs:
        if ti in used_ticks or li in used_labels:
            continue
        used_ticks.add(ti)
        used_labels.add(li)
        matched.append((axis_ticks[ti], candidates[li]))
    if len(matched) < 2:
        raise TooFewTicks(
            f"{side.value}: only {len(matched)} tick-label pair(s)")
    matched.sort(key=lambda p: p[0].position)
    return matched


def match_outcome(match, ticks, labels, side):
    """The pairs as the identities of their tick and label, or the error."""
    try:
        pairs = match(ticks, labels, STD_BOX, side)
    except TooFewTicks as exc:
        return str(exc)
    return [(id(t), id(l)) for t, l in pairs]


def _near(base):
    """Coordinates around ``base`` on a lattice of half-steps of 5, so that
    positions repeat and labels fall midway between ticks, plus any float
    near it, the infinities and nan."""
    return st.one_of(st.integers(-4, 16).map(lambda k: base + 2.5 * k),
                     st.floats(base - 10.0, base + 40.0),
                     st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def matching_inputs(draw):
    """(ticks, labels) around the lower-left corner of STD_BOX.

    x ticks sit along x near the left edge, y ticks along y near the
    bottom edge, and labels range over both windows and the corner where
    they overlap.  One axis may have a single distinct position (its
    max_along is then inf), or no ticks at all.
    """
    xs, ys = _near(40.0), _near(370.0)
    lengths = st.sampled_from([4.0, 4.0, 2.0, 10.0, math.inf])
    ticks = []
    for side, along in ((AxisSide.X_AXIS, xs), (AxisSide.Y_AXIS, ys)):
        mode = draw(st.sampled_from(["spread", "spread", "spread", "single", "none"]))
        if mode == "none":
            continue
        n = draw(st.integers(1, 8) if mode == "spread" else st.integers(2, 8))
        if mode == "single":
            position = draw(along)
            positions = [position] * n
        else:
            positions = draw(st.lists(along, min_size=n, max_size=n))
        ticks += [TickMark(p, side, draw(lengths)) for p in positions]
    ticks = draw(st.permutations(ticks))
    labels = [TickLabel(float(i), Point(draw(st.one_of(xs, st.floats(20.0, 50.0))),
                                        draw(st.one_of(ys, st.floats(400.0, 430.0)))),
                        draw(st.sampled_from([8.0, 8.0, 4.0, 0.0, math.inf])))
              for i in range(draw(st.integers(0, 12)))]
    return ticks, labels


class TestMatchAgainstOldMatcher:
    @given(matching_inputs(), st.sampled_from(list(AxisSide)))
    # a label midway between two ticks
    @example(([tick(100.0), tick(110.0)], [label(1, 105.0, 415.0)]), AxisSide.X_AXIS)
    # one distinct position: every label is within reach of every tick
    @example(([tick(100.0), tick(100.0)], [label(1, 90.0, 415.0), label(2, 150.0, 415.0)]),
             AxisSide.X_AXIS)
    # infinite positions and anchors, a corner label in both windows
    @example(([tick(math.inf), tick(-math.inf), tick(60.0), tick(math.inf),
               tick(380.0, AxisSide.Y_AXIS), tick(math.inf, AxisSide.Y_AXIS)],
              [label(1, math.inf, 415.0), label(2, -math.inf, 415.0),
               label(3, 45.0, 405.0), label(4, 45.0, math.inf)]), AxisSide.X_AXIS)
    @settings(max_examples=400, deadline=None)
    def test_same_pairs_as_old_matcher(self, inputs, side):
        ticks, labels = inputs
        assert (match_outcome(match_ticks_to_labels, ticks, labels, side)
                == match_outcome(old_match_ticks_to_labels, ticks, labels, side))

    @pytest.mark.parametrize("along", [math.nan, math.inf, -math.inf, 50.0])
    @pytest.mark.parametrize("first", [math.nan, math.inf, -math.inf, 50.0, 70.0])
    def test_nearest_gap_keeps_min_over_nan(self, along, first):
        # min() keeps a nan first gap and skips later ones
        positions = [first, -math.inf, 40.0, 60.0, math.inf, math.nan, 50.0]
        want = min(abs(along - p) for p in positions)
        got = axis_detection._nearest_gap(
            along, first, sorted(p for p in positions if p == p))
        assert same(got, want)

    def test_distance_evaluations_linear(self, monkeypatch):
        # every x label lies in both axes' windows, so each one also weighs
        # its nearest tick on either axis
        calls = 0

        def counting_abs(value):
            nonlocal calls
            calls += 1
            return abs(value)

        monkeypatch.setattr(axis_detection, "abs", counting_abs, raising=False)
        counts = {}
        for n in (1000, 4000):
            box = PlotBox(left_index=0, bottom_index=1,
                          interior=Rect(n + 1.0, 0.0, 2.0 * n, n + 1.0), score=1.0)
            ticks = [TickMark(float(i), side, 4.0)
                     for side in AxisSide for i in range(1, n + 1)]
            labels = ([label(i, float(i), n + 11.0, gh=n) for i in range(1, n + 1)]
                      + [label(i, n - 9.0, float(i), gh=n) for i in range(1, n + 1)])
            calls = 0
            for side in AxisSide:
                assert len(match_ticks_to_labels(ticks, labels, box, side)) == n
            counts[n] = calls
        # every tick against every label would be 2 * (2n)^2, 128M at n = 4000
        assert counts[4000] <= 4.4 * counts[1000]
        assert counts[1000] <= 20 * 2 * 1000


class TestCalibrateAxis:
    def test_identity(self):
        cal = calibrate_axis([pair(0, 0), pair(100, 100)], AxisSide.X_AXIS)
        assert cal.slope == pytest.approx(1.0)
        assert cal.intercept == pytest.approx(0.0)
        assert cal.rms_residual == pytest.approx(0.0)
        assert not cal.reversed

    def test_three_point_fit(self):
        # normal equations by hand: slope 0.1, intercept -5
        cal = calibrate_axis([pair(50, 0), pair(150, 10), pair(250, 20)],
                             AxisSide.X_AXIS)
        assert cal.slope == pytest.approx(0.1)
        assert cal.intercept == pytest.approx(-5.0)
        assert cal.rms_residual == pytest.approx(0.0, abs=1e-12)
        assert cal.n_ticks == 3

    def test_log_ladder_rejected(self):
        pairs = [pair(0, 1), pair(100, 10), pair(200, 100)]
        # independent fitter confirms the residual exceeds the 1% gate
        coeffs = np.polyfit([0, 100, 200], [1, 10, 100], 1)
        resid = np.array([1, 10, 100]) - np.polyval(coeffs, [0, 100, 200])
        rms = float(np.sqrt(np.mean(resid ** 2)))
        assert rms > 0.01 * 99
        with pytest.raises(NonlinearScale) as exc:
            calibrate_axis(pairs, AxisSide.X_AXIS)
        assert f"{rms:.4g}" in str(exc.value)

    def test_too_few(self):
        with pytest.raises(TooFewTicks, match=r"^x_axis: 1 pair\(s\), need >= 2$"):
            calibrate_axis([pair(0, 0)], AxisSide.X_AXIS)

    def test_collocated(self):
        with pytest.raises(TooFewTicks, match="^x_axis: all tick positions equal$"):
            calibrate_axis([pair(50, 0), pair(50, 10)], AxisSide.X_AXIS)

    def test_constant_values_rejected(self):
        with pytest.raises(NonlinearScale,
                           match="^x_axis: constant tick values, no usable scale$"):
            calibrate_axis([pair(0, 5), pair(100, 5)], AxisSide.X_AXIS)

    @pytest.mark.parametrize("values", [(0, 5e307, 1e308, 1.5e308), (-1e308, 1e308)],
                             ids=["nan-slope", "infinite-slope"])
    def test_non_finite_fit_rejected(self, values):
        # the fit's sums pass the largest double, and a nan rms would pass the gate
        pairs = [pair(100 * i, v) for i, v in enumerate(values)]
        with pytest.raises(NonlinearScale, match="non-finite fit, no usable scale"):
            calibrate_axis(pairs, AxisSide.X_AXIS)

    def test_reversed_flags(self):
        xcal = calibrate_axis([pair(0, 10), pair(100, 0)], AxisSide.X_AXIS)
        assert xcal.reversed  # values fall rightward
        ycal = calibrate_axis([(tick(0, AxisSide.Y_AXIS), label(0, 30, 0)),
                               (tick(100, AxisSide.Y_AXIS), label(10, 30, 100))],
                              AxisSide.Y_AXIS)
        assert ycal.reversed  # values grow downward => reversed y
        ycal2 = calibrate_axis([(tick(0, AxisSide.Y_AXIS), label(10, 30, 0)),
                                (tick(100, AxisSide.Y_AXIS), label(0, 30, 100))],
                               AxisSide.Y_AXIS)
        assert not ycal2.reversed

    def test_matches_numpy_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 10)
            xs = rng.sample(range(0, 1000), n)
            a, b = rng.uniform(-50, 50), rng.uniform(-5, 5)
            while b == 0:
                b = rng.uniform(-5, 5)
            pairs = [pair(x, a + b * x) for x in xs]
            cal = calibrate_axis(pairs, AxisSide.X_AXIS)
            slope_ref, icpt_ref = np.polyfit(xs, [a + b * x for x in xs], 1)
            assert cal.slope == pytest.approx(slope_ref, rel=1e-9)
            assert cal.intercept == pytest.approx(icpt_ref, rel=1e-9, abs=1e-9)

    def test_exact_linear_recovery_property(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = rng.uniform(-100, 100), rng.uniform(-10, 10) or 1.0
            xs = sorted(rng.sample(range(0, 500), rng.randint(2, 8)))
            cal = calibrate_axis([pair(x, a + b * x) for x in xs], AxisSide.X_AXIS)
            assert cal.slope == pytest.approx(b, rel=1e-9)
            assert cal.intercept == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_uniform_scale_equivariance(self):
        base = [(50.0, 0.0), (150.0, 10.0), (250.0, 20.0)]
        cal = calibrate_axis([pair(p, v) for p, v in base], AxisSide.X_AXIS)
        for s in (0.5, 2.0, 7.3):
            scaled = calibrate_axis([pair(p * s, v) for p, v in base],
                                    AxisSide.X_AXIS)
            assert scaled.slope == pytest.approx(cal.slope / s, rel=1e-9)
            assert scaled.intercept == pytest.approx(cal.intercept, rel=1e-9, abs=1e-12)
            for p, v in base:
                assert scaled.to_data(p * s) == pytest.approx(v, rel=1e-9, abs=1e-9)


class TestEndToEndDetection:
    def test_from_parsed_svg(self):
        body = (
            '<line x1="50" y1="400" x2="50" y2="50"/>'
            '<line x1="50" y1="400" x2="500" y2="400"/>'
            '<line x1="50" y1="400" x2="50" y2="405"/>'
            '<line x1="275" y1="400" x2="275" y2="405"/>'
            '<line x1="500" y1="400" x2="500" y2="405"/>'
            '<text x="48" y="412" font-size="8">0</text>'
            '<text x="273" y="412" font-size="8">5</text>'
            '<text x="497" y="412" font-size="8">10</text>'
            '<line x1="45" y1="400" x2="50" y2="400"/>'
            '<line x1="45" y1="225" x2="50" y2="225"/>'
            '<line x1="45" y1="50" x2="50" y2="50"/>'
            '<text x="30" y="403" font-size="8">0</text>'
            '<text x="30" y="228" font-size="8">1</text>'
            '<text x="30" y="53" font-size="8">2</text>'
        )
        doc = parse_svg(svg_bytes(body))
        box = detect_plot_box(doc)
        ticks = detect_ticks(doc, box)
        labels = [l for r in doc.texts if (l := parse_numeric_label(r))]
        xp = match_ticks_to_labels(ticks, labels, box, AxisSide.X_AXIS)
        yp = match_ticks_to_labels(ticks, labels, box, AxisSide.Y_AXIS)
        xcal = calibrate_axis(xp, AxisSide.X_AXIS)
        ycal = calibrate_axis(yp, AxisSide.Y_AXIS)
        assert xcal.to_data(275) == pytest.approx(5.0)
        assert ycal.to_data(225) == pytest.approx(1.0)
        assert ycal.slope < 0 and not ycal.reversed
