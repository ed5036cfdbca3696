"""Plot-box, tick and tick-label detection plus linear axis calibration.

The detector locates the mandatory left and bottom axes, collects tick
marks hanging off them, parses the numeric label ladders and fits a
least-squares line mapping device coordinates to data values.  A residual
gate rejects non-linear (typically logarithmic) axes instead of emitting
wrong data.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from statistics import median

from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import (CollocatedTicks, InsufficientMatches, NoAxesFound,
                     NonlinearScale, TooFewTicks)
from .svg_model import FigureDocument, Point, Rect, SegmentGlyph, TextRun


class AxisSide(enum.Enum):
    X_AXIS = "x_axis"
    Y_AXIS = "y_axis"


@dataclass(frozen=True)
class PlotBox:
    left_axis: SegmentGlyph
    bottom_axis: SegmentGlyph
    interior: Rect
    score: float


@dataclass(frozen=True)
class TickMark:
    position: float  # device units along the axis line
    side: AxisSide
    length: float


@dataclass(frozen=True)
class TickLabel:
    value: float
    anchor: Point
    raw: str
    glyph_height: float


@dataclass(frozen=True)
class AxisCalibration:
    side: AxisSide
    slope: float      # data units per device unit
    intercept: float  # data units
    rms_residual: float
    n_ticks: int
    reversed: bool

    def to_data(self, device_coord: float) -> float:
        return self.intercept + self.slope * device_coord


# ---------------------------------------------------------------------------
# plot-box detection

def _angle_from_vertical(seg: SegmentGlyph) -> float:
    dx = abs(seg.p2.x - seg.p1.x)
    dy = abs(seg.p2.y - seg.p1.y)
    return math.degrees(math.atan2(dx, dy))


def _angle_from_horizontal(seg: SegmentGlyph) -> float:
    dx = abs(seg.p2.x - seg.p1.x)
    dy = abs(seg.p2.y - seg.p1.y)
    return math.degrees(math.atan2(dy, dx))


def _corner(v: SegmentGlyph, h: SegmentGlyph) -> tuple[Point, Point, Point, float]:
    """Nearest endpoint pair: (corner midpoint, far v end, far h end, gap)."""
    best = None
    for ve, v_far in ((v.p1, v.p2), (v.p2, v.p1)):
        for he, h_far in ((h.p1, h.p2), (h.p2, h.p1)):
            gap = ve.distance_to(he)
            if best is None or gap < best[3]:
                mid = Point((ve.x + he.x) / 2.0, (ve.y + he.y) / 2.0)
                best = (mid, v_far, h_far, gap)
    assert best is not None
    return best


# The corner gap is computed in floating point, so a gap the gate accepts
# can exceed corner_gap_tol by a rounding error; the cell search reaches
# this fraction of a cell further so that it never misses such a pair.
_CELL_SLACK = 1e-6
# Grid coordinates are clamped to keep huge or infinite endpoints in an
# integer cell; clamping only merges cells far beyond any real canvas.
_CELL_LIMIT = 2.0 ** 62


def _grid_coord(value: float, tol: float) -> float:
    return max(-_CELL_LIMIT, min(_CELL_LIMIT, value / tol))


def _cell(p: Point, tol: float) -> tuple[int, int]:
    return (math.floor(_grid_coord(p.x, tol)), math.floor(_grid_coord(p.y, tol)))


def _reach(value: float, tol: float) -> range:
    """Cells holding every coordinate within ``tol`` of ``value``."""
    q = _grid_coord(value, tol)
    return range(math.floor(q - 1.0 - _CELL_SLACK),
                 math.floor(q + 1.0 + _CELL_SLACK) + 1)


def detect_plot_box(doc: FigureDocument,
                    cfg: PipelineConfig = DEFAULT_CONFIG) -> PlotBox:
    """Pick the (vertical, horizontal) axis pair with the highest score.

    Score favours long segments that meet at a corner; ties break toward
    the lower-left-most corner, then toward greater total length.  Raises
    NoAxesFound when no qualifying pair exists.

    Pairs are found through an endpoint grid with cells ``corner_gap_tol``
    wide: a vertical is scored only against the horizontals with an
    endpoint in the block of cells around one of its own endpoints, which
    holds every endpoint within ``corner_gap_tol``.  The cost is O(V + H)
    plus the pairs that share a block, not O(V * H), and the result is the
    one the full V x H comparison gives.
    """
    verticals = [s for s in doc.segments
                 if s.length >= cfg.min_axis_length
                 and _angle_from_vertical(s) <= cfg.axis_angle_tol_deg]
    horizontals = [s for s in doc.segments
                   if s.length >= cfg.min_axis_length
                   and _angle_from_horizontal(s) <= cfg.axis_angle_tol_deg]
    canvas = doc.canvas
    norm = max(canvas.width * canvas.height, 1e-12)
    tol = cfg.corner_gap_tol

    grid: dict[tuple[int, int], list[int]] = {}
    for i, h in enumerate(horizontals):
        for p in (h.p1, h.p2):
            grid.setdefault(_cell(p, tol), []).append(i)

    candidates = []
    for v in verticals:
        near: set[int] = set()
        for p in (v.p1, v.p2):
            rows = _reach(p.y, tol)
            for cx in _reach(p.x, tol):
                for cy in rows:
                    near.update(grid.get((cx, cy), ()))
        # original order keeps the candidate list, and so the stable sort's
        # pick among exact ties, the same as the full comparison's
        for i in sorted(near):
            h = horizontals[i]
            corner, v_far, h_far, gap = _corner(v, h)
            if gap > cfg.corner_gap_tol:
                continue
            # left axis goes up from the corner, bottom axis goes right
            if v_far.y > corner.y or h_far.x < corner.x:
                continue
            proximity = 1.0 - gap / (cfg.corner_gap_tol + 1e-12)
            score = min(1.0, v.length * h.length / norm) * max(proximity, 1e-6)
            interior = Rect(min(corner.x, h_far.x), min(corner.y, v_far.y),
                            max(corner.x, h_far.x), max(corner.y, v_far.y))
            candidates.append((score, corner, v, h, interior))
    if not candidates:
        raise NoAxesFound("no qualifying vertical/horizontal axis pair")
    candidates.sort(key=lambda c: (-c[0], -c[1].y, c[1].x,
                                   -(c[2].length + c[3].length),
                                   c[2].id, c[3].id))
    score, _, v, h, interior = candidates[0]
    return PlotBox(left_axis=v, bottom_axis=h, interior=interior, score=score)


# ---------------------------------------------------------------------------
# tick detection

def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    denom = vx * vx + vy * vy
    t = 0.0 if denom == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / denom))
    return math.hypot(p.x - (a.x + t * vx), p.y - (a.y + t * vy))


def detect_ticks(doc: FigureDocument, box: PlotBox,
                 cfg: PipelineConfig = DEFAULT_CONFIG) -> list[TickMark]:
    """Collect short perpendicular stubs touching either axis line."""
    ticks: list[TickMark] = []
    ticks += _ticks_on_axis(doc, box.bottom_axis, AxisSide.X_AXIS,
                            box.interior.height, cfg)
    ticks += _ticks_on_axis(doc, box.left_axis, AxisSide.Y_AXIS,
                            box.interior.width, cfg)
    return ticks


def _ticks_on_axis(doc: FigureDocument, axis: SegmentGlyph, side: AxisSide,
                   cross_side_length: float,
                   cfg: PipelineConfig) -> list[TickMark]:
    # ticks on the x axis are near-vertical stubs and vice versa
    if side is AxisSide.X_AXIS:
        is_perpendicular = lambda s: _angle_from_vertical(s) <= cfg.tick_angle_tol_deg
        along = lambda p: p.x
    else:
        is_perpendicular = lambda s: _angle_from_horizontal(s) <= cfg.tick_angle_tol_deg
        along = lambda p: p.y
    max_len = cfg.tick_max_length_frac * cross_side_length
    out: list[TickMark] = []
    for seg in doc.segments:
        if seg is axis:
            continue
        length = seg.length
        if not (cfg.tick_min_length <= length <= max_len):
            continue
        if not is_perpendicular(seg):
            continue
        d1 = _point_segment_distance(seg.p1, axis.p1, axis.p2)
        d2 = _point_segment_distance(seg.p2, axis.p1, axis.p2)
        if min(d1, d2) > cfg.tick_touch_tol:
            continue
        touching = seg.p1 if d1 <= d2 else seg.p2
        out.append(TickMark(position=along(touching), side=side, length=length))
    out.sort(key=lambda t: t.position)
    return out


# ---------------------------------------------------------------------------
# numeric labels

_NUMERIC_RE = re.compile(
    r"^\s*[-+−]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+−]?\d+)?\s*%?\s*$")


def parse_numeric_label(run: TextRun) -> TickLabel | None:
    """Parse a text run as a tick value; None for anything non-numeric."""
    if not _NUMERIC_RE.match(run.content):
        return None
    text = run.content.strip().replace("−", "-")
    percent = text.endswith("%")
    if percent:
        text = text[:-1].rstrip()
    value = float(text)
    if percent:
        value /= 100.0
    if not math.isfinite(value):
        return None
    return TickLabel(value=value, anchor=run.anchor, raw=run.content,
                     glyph_height=run.glyph_height)


# ---------------------------------------------------------------------------
# tick-label matching

class _LabelSide:
    """Where one axis's labels sit: outside the box, within a window of it."""

    def __init__(self, ticks: list[TickMark], box: PlotBox, side: AxisSide,
                 cfg: PipelineConfig) -> None:
        self.ticks = [t for t in ticks if t.side is side]
        self.side = side
        self.reach = (cfg.label_window_tick_factor
                      * median(t.length for t in self.ticks)) if self.ticks else 0.0
        self.glyph_factor = cfg.label_window_glyph_factor
        # x labels hang below the bottom edge, y labels left of the left edge
        self.axis_coord = box.interior.y1 if side is AxisSide.X_AXIS else box.interior.x0

    def along(self, label: TickLabel) -> float:
        return label.anchor.x if self.side is AxisSide.X_AXIS else label.anchor.y

    def admits(self, label: TickLabel) -> bool:
        if self.side is AxisSide.X_AXIS:
            offset = label.anchor.y - self.axis_coord
        else:
            offset = self.axis_coord - label.anchor.x
        return 0 < offset <= self.reach + self.glyph_factor * label.glyph_height

    def tick_gap(self, label: TickLabel) -> float:
        """Along-axis distance from the label to this axis's nearest tick."""
        along = self.along(label)
        return min(abs(along - t.position) for t in self.ticks)


def match_ticks_to_labels(ticks: list[TickMark], labels: list[TickLabel],
                          box: PlotBox, side: AxisSide,
                          cfg: PipelineConfig = DEFAULT_CONFIG,
                          ) -> list[tuple[TickMark, TickLabel]]:
    """Greedy injective nearest matching of ticks to outside-edge labels.

    Candidate labels sit on the axis's label side (below for x, left of
    the box for y) within a perpendicular window; a label inside both
    axes' windows (near the corner) belongs to the axis whose nearest tick
    it is closer to along that axis.  Matches farther along the axis than
    half the median inter-tick spacing are dropped.  Raises
    InsufficientMatches when fewer than two pairs survive.
    """
    own = _LabelSide(ticks, box, side, cfg)
    axis_ticks = own.ticks
    if len(axis_ticks) < 2:
        raise InsufficientMatches(f"{side.value}: fewer than 2 ticks")
    other = _LabelSide(ticks, box, AxisSide.Y_AXIS if side is AxisSide.X_AXIS
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

    # greedy by ascending along-axis distance; equidistant labels resolve
    # toward the smaller along-axis coordinate (leftward / upward)
    pairs = []
    for ti, tick in enumerate(axis_ticks):
        for li, label in enumerate(candidates):
            dist = abs(along(label) - tick.position)
            if dist <= max_along:
                pairs.append((dist, along(label), tick.position, ti, li))
    pairs.sort()
    used_ticks: set[int] = set()
    used_labels: set[int] = set()
    matched: list[tuple[TickMark, TickLabel]] = []
    for _, _, _, ti, li in pairs:
        if ti in used_ticks or li in used_labels:
            continue
        used_ticks.add(ti)
        used_labels.add(li)
        matched.append((axis_ticks[ti], candidates[li]))
    if len(matched) < 2:
        raise InsufficientMatches(
            f"{side.value}: only {len(matched)} tick-label pair(s)")
    matched.sort(key=lambda p: p[0].position)
    return matched


# ---------------------------------------------------------------------------
# calibration

def calibrate_axis(pairs: list[tuple[TickMark, TickLabel]], side: AxisSide,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> AxisCalibration:
    """Least-squares line value = intercept + slope * position.

    Rejects non-linear ladders via the rms-residual gate (fraction of the
    matched value span), which is what turns a log axis into a
    NonlinearScale error instead of silently wrong data.
    """
    if len(pairs) < 2:
        raise TooFewTicks(f"{side.value}: {len(pairs)} pair(s), need >= 2")
    xs = [t.position for t, _ in pairs]
    ys = [l.value for _, l in pairs]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise CollocatedTicks(f"{side.value}: all tick positions equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    rms = math.sqrt(sum((y - (intercept + slope * x)) ** 2
                        for x, y in zip(xs, ys)) / n)
    span = max(ys) - min(ys)
    if span == 0.0 or slope == 0.0:
        raise NonlinearScale(f"{side.value}: constant tick values, no usable scale")
    if rms > cfg.residual_gate_frac * abs(span):
        raise NonlinearScale(
            f"{side.value}: rms residual {rms:.4g} exceeds "
            f"{cfg.residual_gate_frac:.0%} of span {span:.4g}")
    # reading direction is rightward for x, upward (decreasing device y) for y
    reversed_flag = slope < 0 if side is AxisSide.X_AXIS else slope > 0
    return AxisCalibration(side=side, slope=slope, intercept=intercept,
                           rms_residual=rms, n_ticks=n, reversed=reversed_flag)
