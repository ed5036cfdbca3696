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
from .svg_model import FigureDocument, Point, Rect, Segments, TextRun


class AxisSide(enum.Enum):
    X_AXIS = "x_axis"
    Y_AXIS = "y_axis"


@dataclass(frozen=True)
class PlotBox:
    # the left and bottom axes, by their index in the document's segment
    # columns; tick detection reads the axes from there
    left_index: int
    bottom_index: int
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

def _corner(v: tuple[float, float, float, float],
            h: tuple[float, float, float, float],
            ) -> tuple[float, float, float, float, float, float, float]:
    """Nearest endpoint pair of two ``(x1, y1, x2, y2)`` segments.

    Returns the corner midpoint, the far end of ``v``, the far end of ``h``
    (x then y for each) and the gap between the two near ends.
    """
    vx1, vy1, vx2, vy2 = v
    hx1, hy1, hx2, hy2 = h
    best = None
    for vx, vy, v_far_x, v_far_y in ((vx1, vy1, vx2, vy2), (vx2, vy2, vx1, vy1)):
        for hx, hy, h_far_x, h_far_y in ((hx1, hy1, hx2, hy2), (hx2, hy2, hx1, hy1)):
            gap = math.hypot(vx - hx, vy - hy)
            if best is None or gap < best[6]:
                best = ((vx + hx) / 2.0, (vy + hy) / 2.0,
                        v_far_x, v_far_y, h_far_x, h_far_y, gap)
    assert best is not None
    return best


# The corner gap is computed in floating point, so a gap the gate accepts
# can exceed corner_gap_tol by a rounding error; the cell search reaches
# this fraction of a cell further so that it never misses such a pair.
_CELL_SLACK = 1e-6
# Grid coordinates are clamped to keep huge or infinite endpoints in an
# integer cell; clamping only merges cells far beyond any real canvas.
_CELL_LIMIT = 2.0 ** 62


def detect_plot_box(doc: FigureDocument,
                    cfg: PipelineConfig = DEFAULT_CONFIG) -> PlotBox:
    """Pick the (vertical, horizontal) axis pair with the highest score.

    Score favours long segments that meet at a corner; ties break toward
    the lower-left-most corner, then toward greater total length.  Raises
    NoAxesFound when no qualifying pair exists.

    Pairs are found through an endpoint grid with cells ``corner_gap_tol``
    wide: a vertical is scored only against the horizontals with an
    endpoint in the block of cells around one of its own endpoints, which
    holds every endpoint within ``corner_gap_tol``.  A vertical endpoint
    whose block of columns holds no horizontal endpoint at all is skipped
    before its rows are looked up.  The cost is O(V + H) plus the pairs
    that share a block, not O(V * H), and the result is the one the full
    V x H comparison gives.
    """
    segments = doc.segments
    ids, xs1, ys1 = segments.ids, segments.x1, segments.y1
    xs2, ys2 = segments.x2, segments.y2
    min_length = cfg.min_axis_length
    angle_tol = cfg.axis_angle_tol_deg
    hypot, atan2, degrees = math.hypot, math.atan2, math.degrees
    # axis candidates by column index, each with its length
    v_index: list[int] = []
    v_length: list[float] = []
    h_index: list[int] = []
    h_length: list[float] = []
    for i, (x1, y1, x2, y2) in enumerate(zip(xs1, ys1, xs2, ys2)):
        dx = x1 - x2
        dy = y1 - y2
        length = hypot(dx, dy)
        if not length >= min_length:
            continue
        dx = abs(dx)
        dy = abs(dy)
        if degrees(atan2(dx, dy)) <= angle_tol:
            v_index.append(i)
            v_length.append(length)
        if degrees(atan2(dy, dx)) <= angle_tol:
            h_index.append(i)
            h_length.append(length)
    # a pair scores sqrt(min(1, v/W * h/H) * proximity), the root of each
    # factor taken apart: on a finite but huge canvas W * H overflows and
    # v/W * h/H underflows, and either scored every pair 0
    width = max(doc.canvas.width, 1e-6)
    height = max(doc.canvas.height, 1e-6)
    sqrt = math.sqrt
    tol = cfg.corner_gap_tol
    floor = math.floor
    # a grid coordinate is value / tol clamped to +-limit; nan clamps to
    # +limit, as max(-limit, min(limit, nan)) does
    limit = _CELL_LIMIT
    slack = _CELL_SLACK

    # horizontal endpoints by cell, as positions in the candidate list
    grid: dict[tuple[int, int], list[int]] = {}
    for k, j in enumerate(h_index):
        for x, y in ((xs1[j], ys1[j]), (xs2[j], ys2[j])):
            qx = x / tol
            qx = limit if not qx <= limit else -limit if qx < -limit else qx
            qy = y / tol
            qy = limit if not qy <= limit else -limit if qy < -limit else qy
            grid.setdefault((floor(qx), floor(qy)), []).append(k)
    columns = {cx for cx, _ in grid}

    candidates = []
    for i, v_len in zip(v_index, v_length):
        near: set[int] = set()
        for x, y in ((xs1[i], ys1[i]), (xs2[i], ys2[i])):
            # the cells holding every coordinate within tol of the endpoint
            qx = x / tol
            qx = limit if not qx <= limit else -limit if qx < -limit else qx
            cols = range(floor(qx - 1.0 - slack), floor(qx + 1.0 + slack) + 1)
            if columns.isdisjoint(cols):
                continue
            qy = y / tol
            qy = limit if not qy <= limit else -limit if qy < -limit else qy
            rows = range(floor(qy - 1.0 - slack), floor(qy + 1.0 + slack) + 1)
            for cx in cols:
                for cy in rows:
                    near.update(grid.get((cx, cy), ()))
        if not near:
            continue
        v = (xs1[i], ys1[i], xs2[i], ys2[i])
        # original order keeps the candidate list, and so the stable sort's
        # pick among exact ties, the same as the full comparison's
        for k in sorted(near):
            j = h_index[k]
            mx, my, v_far_x, v_far_y, h_far_x, h_far_y, gap = _corner(
                v, (xs1[j], ys1[j], xs2[j], ys2[j]))
            if gap > tol:
                continue
            # left axis goes up from the corner, bottom axis goes right
            if v_far_y > my or h_far_x < mx:
                continue
            h_len = h_length[k]
            proximity = 1.0 - gap / (tol + 1e-12)
            score = (min(1.0, sqrt(v_len / width) * sqrt(h_len / height))
                     * sqrt(max(proximity, 1e-6)))
            key = (-score, -my, mx, -(v_len + h_len), ids[i], ids[j])
            candidates.append((key, score, i, j, mx, my, v_far_y, h_far_x))
    if not candidates:
        raise NoAxesFound("no qualifying vertical/horizontal axis pair")
    candidates.sort(key=lambda c: c[0])
    _, score, i, j, mx, my, v_far_y, h_far_x = candidates[0]
    interior = Rect(min(mx, h_far_x), min(my, v_far_y),
                    max(mx, h_far_x), max(my, v_far_y))
    return PlotBox(left_index=i, bottom_index=j, interior=interior, score=score)


# ---------------------------------------------------------------------------
# tick detection

def detect_ticks(doc: FigureDocument, box: PlotBox,
                 cfg: PipelineConfig = DEFAULT_CONFIG) -> list[TickMark]:
    """Collect short perpendicular stubs touching either axis line."""
    ticks: list[TickMark] = []
    ticks += _ticks_on_axis(doc.segments, box.bottom_index, AxisSide.X_AXIS,
                            box.interior.height, cfg)
    ticks += _ticks_on_axis(doc.segments, box.left_index, AxisSide.Y_AXIS,
                            box.interior.width, cfg)
    return ticks


def _ticks_on_axis(segments: Segments, axis_index: int, side: AxisSide,
                   cross_side_length: float, cfg: PipelineConfig) -> list[TickMark]:
    """Ticks off the axis at ``axis_index`` in the columns, the axis skipped."""
    ax, ay = segments.x1[axis_index], segments.y1[axis_index]
    vx, vy = segments.x2[axis_index] - ax, segments.y2[axis_index] - ay
    denom = vx * vx + vy * vy

    def gap(px: float, py: float) -> float:
        """Distance from (px, py) to the axis segment."""
        t = 0.0
        if denom != 0:
            t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / denom))
        return math.hypot(px - (ax + t * vx), py - (ay + t * vy))

    # ticks on the x axis are near-vertical stubs and vice versa
    x_axis = side is AxisSide.X_AXIS
    min_length = cfg.tick_min_length
    max_length = cfg.tick_max_length_frac * cross_side_length
    angle_tol = cfg.tick_angle_tol_deg
    hypot, atan2, degrees = math.hypot, math.atan2, math.degrees
    out: list[TickMark] = []
    for i, (x1, y1, x2, y2) in enumerate(zip(segments.x1, segments.y1,
                                              segments.x2, segments.y2)):
        length = hypot(x1 - x2, y1 - y2)
        if not (min_length <= length <= max_length) or i == axis_index:
            continue
        dx = abs(x1 - x2)
        dy = abs(y1 - y2)
        if not degrees(atan2(dx, dy) if x_axis else atan2(dy, dx)) <= angle_tol:
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
