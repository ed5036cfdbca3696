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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import itemgetter, le, sub
from statistics import median

from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import NoAxesFound, NonlinearScale, TooFewTicks
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

    Only the ends that can be the corner are searched.  A vertical end E
    is not looked up, and a horizontal end E not put in the grid, when the
    segment's other end lies below (left of) the corner midpoint of E and
    any partner end within ``corner_gap_tol``: the orientation test would
    reject every pair whose corner is E.  So a segment more than about
    ``corner_gap_tol / 2`` long is searched from one end: a vertical from
    its lower end, a horizontal from its left end.
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
    for i, dx, dy in zip(count(), map(sub, xs1, xs2), map(sub, ys1, ys2)):
        length = hypot(dx, dy)
        if not length >= min_length:
            continue
        # an axis-aligned segment's angles are the ones atan2 gives it,
        # 0.0 and 90.0, whatever its (nonzero) length, infinite too
        if dx == 0.0:
            v_angle, h_angle = 0.0, 90.0
        elif dy == 0.0:
            v_angle, h_angle = 90.0, 0.0
        else:
            dx = abs(dx)
            dy = abs(dy)
            v_angle = degrees(atan2(dx, dy))
            h_angle = degrees(atan2(dy, dx))
        if v_angle <= angle_tol:
            v_index.append(i)
            v_length.append(length)
        if h_angle <= angle_tol:
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
    # a partner end whose gap to E rounds to at most tol lies less than
    # this far from E on each axis (the gap can round down by half an
    # ulp).  The bounds below round as _corner's midpoint does, so an end
    # they drop is never the corner of an accepted pair; a nan or
    # overflowing bound keeps the end
    reach = math.nextafter(tol, math.inf)

    # horizontal endpoints that can be a corner by cell, as positions in
    # the candidate list
    grid: dict[tuple[int, int], list[int]] = {}
    for k, j in enumerate(h_index):
        x1, x2 = xs1[j], xs2[j]
        for x, y, far_x in ((x1, ys1[j], x2), (x2, ys2[j], x1)):
            if far_x < (x + (x - reach)) / 2.0:
                continue
            qx = x / tol
            qx = limit if not qx <= limit else -limit if qx < -limit else qx
            qy = y / tol
            qy = limit if not qy <= limit else -limit if qy < -limit else qy
            grid.setdefault((floor(qx), floor(qy)), []).append(k)
    columns = sorted({cx for cx, _ in grid})

    candidates = []
    for i, v_len in zip(v_index, v_length):
        y1, y2 = ys1[i], ys2[i]
        near: set[int] = set()
        for x, y, far_y in ((xs1[i], y1, y2), (xs2[i], y2, y1)):
            if far_y > (y + (y + reach)) / 2.0:
                continue
            # the cells holding every coordinate within tol of the endpoint
            qx = x / tol
            qx = limit if not qx <= limit else -limit if qx < -limit else qx
            lo = floor(qx - 1.0 - slack)
            hi = floor(qx + 1.0 + slack)
            # the first column at or past lo; none lies in [lo, hi] unless it does
            k = bisect_left(columns, lo)
            if k == len(columns) or columns[k] > hi:
                continue
            cols = range(lo, hi + 1)
            qy = y / tol
            qy = limit if not qy <= limit else -limit if qy < -limit else qy
            rows = range(floor(qy - 1.0 - slack), floor(qy + 1.0 + slack) + 1)
            for cx in cols:
                for cy in rows:
                    near.update(grid.get((cx, cy), ()))
        if not near:
            continue
        v = (xs1[i], y1, xs2[i], y2)
        # original order keeps the candidate list, and so the stable sort's
        # pick among exact ties, the same as the full comparison's
        for k in sorted(near):
            j = h_index[k]
            mx, my, v_far_x, v_far_y, h_far_x, h_far_y, gap = _corner(
                v, (xs1[j], ys1[j], xs2[j], ys2[j]))
            # a nan gap (two near ends at one infinite point) is no corner
            if not gap <= tol:
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
    segments = doc.segments
    # one length per segment, for both axes
    lengths = list(map(math.hypot, map(sub, segments.x1, segments.x2),
                       map(sub, segments.y1, segments.y2)))
    ticks: list[TickMark] = []
    ticks += _ticks_on_axis(segments, lengths, box.bottom_index, AxisSide.X_AXIS,
                            box.interior.height, cfg)
    ticks += _ticks_on_axis(segments, lengths, box.left_index, AxisSide.Y_AXIS,
                            box.interior.width, cfg)
    return ticks


def _ticks_on_axis(segments: Segments, lengths: list[float], axis_index: int,
                   side: AxisSide, cross_side_length: float,
                   cfg: PipelineConfig) -> list[TickMark]:
    """Ticks off the axis at ``axis_index`` in the columns, the axis skipped.

    ``lengths`` holds each segment's length; only the segments whose length
    lies within the tick lengths are visited.
    """
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
    atan2, degrees = math.atan2, math.degrees
    xs1, ys1, xs2, ys2 = segments.x1, segments.y1, segments.x2, segments.y2
    out: list[TickMark] = []
    # gridlines and axes fail the upper bound, so it picks the few to visit
    for i in compress(count(), map(le, lengths, repeat(max_length))):
        length = lengths[i]
        if not min_length <= length or i == axis_index:
            continue
        x1, y1, x2, y2 = xs1[i], ys1[i], xs2[i], ys2[i]
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
    return TickLabel(value=value, anchor=run.anchor, glyph_height=run.glyph_height)


# ---------------------------------------------------------------------------
# tick-label matching

def _nearest_gap(along: float, first: float, positions: list[float]) -> float:
    """``min(abs(along - p) for p in ...)`` over one axis's tick positions.

    ``first`` is the position of the axis's first tick, ``positions`` all
    its positions but nan, sorted.  Starting from the first gap, as min()
    does, keeps a nan first gap and passes over every later nan gap.  The
    rounded ``along - p`` falls as ``p`` grows, so no gap is less than the
    least of the two positions either side of ``along``.  An infinite
    ``along`` is infinitely far from every position but its own, whose gap
    is nan.
    """
    gap = abs(along - first)
    k = bisect_left(positions, along)
    for p in positions[max(k - 1, 0):k + 1]:
        d = abs(along - p)
        if d < gap:
            gap = d
    return gap


def greedy_match(pairs: list[tuple], used_a: set[int], used_b: set[int],
                 matches: list[tuple[int, int]]) -> None:
    """Sort ``pairs`` and append ``(a, b)`` for each whose last two entries,
    the indices ``a`` and ``b``, are in neither used set, adding them there."""
    pairs.sort()
    for a, b in map(itemgetter(-2, -1), pairs):
        if a in used_a or b in used_b:
            continue
        used_a.add(a)
        used_b.add(b)
        matches.append((a, b))


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
    TooFewTicks when fewer than two pairs survive.

    A label finds its nearest tick on either axis, and the ticks within
    reach, by bisection in the axis's sorted positions.  The cost is
    O((ticks + labels) log ticks) plus the pairs formed.
    """
    axis_ticks = [t for t in ticks if t.side is side]
    if len(axis_ticks) < 2:
        raise TooFewTicks(f"{side.value}: fewer than 2 ticks")
    other_ticks = [t for t in ticks if t.side is (
        AxisSide.Y_AXIS if side is AxisSide.X_AXIS else AxisSide.X_AXIS)]
    own_positions = [t.position for t in axis_ticks]
    # the axis's ticks by position, nan left out: it is no distance from anything
    order = sorted((ti for ti, p in enumerate(own_positions) if p == p),
                   key=own_positions.__getitem__)
    own_sorted = [own_positions[ti] for ti in order]
    other_sorted = sorted(p for t in other_ticks if (p := t.position) == p)
    window_factor = cfg.label_window_tick_factor
    own_reach = window_factor * median(t.length for t in axis_ticks)
    other_reach = (window_factor * median(t.length for t in other_ticks)
                   if other_ticks else 0.0)
    glyph_factor = cfg.label_window_glyph_factor
    # x labels hang below the bottom edge, y labels left of the left edge
    bottom, left = box.interior.y1, box.interior.x0
    x_axis = side is AxisSide.X_AXIS
    candidates: list[TickLabel] = []
    alongs: list[float] = []
    for label in labels:
        x, y = label.anchor.x, label.anchor.y
        if x_axis:
            along, other_along, offset, other_offset = x, y, y - bottom, left - x
        else:
            along, other_along, offset, other_offset = y, x, left - x, y - bottom
        window = glyph_factor * label.glyph_height
        if not 0 < offset <= own_reach + window:
            continue
        if (other_ticks and 0 < other_offset <= other_reach + window
                and _nearest_gap(other_along, other_ticks[0].position, other_sorted)
                < _nearest_gap(along, own_positions[0], own_sorted)):
            continue
        candidates.append(label)
        alongs.append(along)

    positions = sorted(own_positions)
    spacings = [b - a for a, b in zip(positions, positions[1:]) if b > a]
    max_along = (median(spacings) / 2.0) if spacings else math.inf

    # the ticks within max_along of a label lie on both sides of it, in a
    # run that ends at the first tick farther away; a tick at the label's
    # own position is 0 away, or nan away when that position is infinite,
    # and a nan label is nan away from every tick
    pairs = []
    n = len(own_sorted)
    for li, along in enumerate(alongs):
        if along != along:
            continue
        lo = bisect_left(own_sorted, along)
        k = lo if along - along == 0.0 else bisect_right(own_sorted, along)
        while k < n and (dist := abs(along - (p := own_sorted[k]))) <= max_along:
            pairs.append((dist, along, p, order[k], li))
            k += 1
        k = lo - 1
        while k >= 0 and (dist := abs(along - (p := own_sorted[k]))) <= max_along:
            pairs.append((dist, along, p, order[k], li))
            k -= 1
    # greedy by ascending along-axis distance; equidistant labels resolve
    # toward the smaller along-axis coordinate (leftward / upward)
    indices: list[tuple[int, int]] = []
    greedy_match(pairs, set(), set(), indices)
    matched = [(axis_ticks[ti], candidates[li]) for ti, li in indices]
    if len(matched) < 2:
        raise TooFewTicks(
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
    # each square is d * d: ** 2 raises OverflowError where * gives inf
    sxx = sum(d * d for d in (x - mx for x in xs))
    if sxx == 0.0:
        raise TooFewTicks(f"{side.value}: all tick positions equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    rms = math.sqrt(sum(d * d for d in (y - (intercept + slope * x)
                                        for x, y in zip(xs, ys))) / n)
    span = max(ys) - min(ys)
    if span == 0.0 or slope == 0.0:
        raise NonlinearScale(f"{side.value}: constant tick values, no usable scale")
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise NonlinearScale(f"{side.value}: non-finite fit, no usable scale")
    if rms == math.inf:  # residuals past 1.3e154 square to inf; their span fractions do not
        rms = abs(span) * math.sqrt(sum(d * d for d in ((y - (intercept + slope * x)) / span
                                                        for x, y in zip(xs, ys))) / n)
    # a nan rms fails the gate, not passes it
    if not rms <= cfg.residual_gate_frac * abs(span):
        raise NonlinearScale(
            f"{side.value}: rms residual {rms:.4g} exceeds "
            f"{cfg.residual_gate_frac:.0%} of span {span:.4g}")
    # reading direction is rightward for x, upward (decreasing device y) for y
    reversed_flag = slope < 0 if side is AxisSide.X_AXIS else slope > 0
    return AxisCalibration(side=side, slope=slope, intercept=intercept,
                           rms_residual=rms, n_ticks=n, reversed=reversed_flag)
