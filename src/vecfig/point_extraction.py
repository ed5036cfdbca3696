"""Select marker circles inside the plot box and remap them to data units.

Markers are isolated by radius clustering (scatter markers in one plot
share a size), then each center goes through the two fitted axis maps.
Overlapping markers are all kept: a vector figure stores coincident shapes
alongside each other, so multiplicity is preserved end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import NamedTuple

from .axis_detection import AxisCalibration, PlotBox
from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import NoDataGlyphs, NonlinearScale
from .svg_model import FigureDocument, Markers


class DataPoint(NamedTuple):
    x: float
    y: float
    device_radius: float
    source_id: str


@dataclass(frozen=True)
class RadiusCluster:
    representative_radius: float
    members: Markers  # in (radius, id) order, ties in document order


def select_data_glyphs(doc: FigureDocument, box: PlotBox,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> RadiusCluster:
    """Cluster in-box circles by radius and return the largest cluster.

    The interior is expanded by one median radius so markers straddling an
    axis line still count.  Ties between clusters break toward the smaller
    radius (markers are small relative to decorations).  Raises
    NoDataGlyphs when nothing lies inside.
    """
    circles = doc.circles
    if not circles:
        raise NoDataGlyphs("figure contains no circles")
    interior = box.interior.expanded(median(circles.r))
    x0, y0, x1, y1 = interior.x0, interior.y0, interior.x1, interior.y1
    radii = circles.r
    inside = [i for i, (x, y) in enumerate(zip(circles.cx, circles.cy))
              if x0 <= x <= x1 and y0 <= y <= y1]
    if not inside:
        raise NoDataGlyphs("no circle center inside the plot interior")
    # (radius, id) order, ties in document order: two stable sorts, the
    # minor key first
    inside.sort(key=circles.ids.__getitem__)
    inside.sort(key=radii.__getitem__)

    # greedy sweep over sorted radii: a cluster spans [r0, (1+tol)*r0]
    grow = 1.0 + cfg.radius_cluster_tol
    clusters: list[list[int]] = []
    edge = 0.0
    for i in inside:
        r = radii[i]
        if clusters and r <= edge:
            clusters[-1].append(i)
        else:
            clusters.append([i])
            edge = grow * r
    # the first of the largest clusters, ties to the smaller median radius
    medians = [median(radii[i] for i in cl) for cl in clusters]
    best = min(range(len(clusters)), key=lambda k: (-len(clusters[k]), medians[k]))
    return RadiusCluster(representative_radius=medians[best],
                         members=circles.take(clusters[best]))


def map_to_data(cluster: RadiusCluster, xcal: AxisCalibration,
                ycal: AxisCalibration) -> list[DataPoint]:
    """Apply both axis maps to every member circle center.

    Output order is stable (device x, device y, id); duplicates are never
    merged, so fully overlapping markers yield repeated rows.
    """
    m = cluster.members
    cx, cy, radii, ids = m.cx, m.cy, m.r, m.ids
    # each map is monotonic: when no end value overflows, no value does
    for cal, column in ((xcal, cx), (ycal, cy)):
        if column and not all(math.isfinite(cal.to_data(c)) for c in (min(column), max(column))):
            raise NonlinearScale(f"{cal.side.value}: a data value overflows")
    # (x, y, id) order, ties in member order: three stable sorts, the minor
    # key first
    order = sorted(range(len(m)), key=ids.__getitem__)
    order.sort(key=cy.__getitem__)
    order.sort(key=cx.__getitem__)
    # AxisCalibration.to_data, inlined: intercept + slope * coordinate
    x_slope, x_intercept = xcal.slope, xcal.intercept
    y_slope, y_intercept = ycal.slope, ycal.intercept
    # tuple.__new__ builds each row in C; DataPoint(...) would go through
    # the named tuple's Python-level __new__
    row = tuple.__new__
    return [row(DataPoint, (x_intercept + x_slope * cx[i], y_intercept + y_slope * cy[i],
                            radii[i], ids[i]))
            for i in order]


def detect_raster_body(doc: FigureDocument, box: PlotBox,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> bool:
    """True when a bitmap covers at least half the plot interior.

    Such figures have selectable vector axes but no recoverable points;
    extraction must abort with a distinct diagnostic.
    """
    area = box.interior.area
    if area <= 0:
        return False
    return any(r.intersection_area(box.interior) / area
               >= cfg.raster_overlap_frac
               for r in doc.rasters)
