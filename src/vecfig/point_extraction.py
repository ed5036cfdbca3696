"""Select marker circles inside the plot box and remap them to data units.

Markers are isolated by radius clustering (scatter markers in one plot
share a size), then each center goes through the two fitted axis maps.
Overlapping markers are all kept: a vector figure stores coincident shapes
alongside each other, so multiplicity is preserved end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import NamedTuple

from .axis_detection import AxisCalibration, PlotBox
from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import NoDataGlyphs
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
    ids = circles.ids
    # (radius, id, index) sorts as a stable sort on (radius, id) would
    inside = sorted((r, ids[i], i) for i, (x, y, r)
                    in enumerate(zip(circles.cx, circles.cy, circles.r))
                    if x0 <= x <= x1 and y0 <= y <= y1)
    if not inside:
        raise NoDataGlyphs("no circle center inside the plot interior")

    # greedy sweep over sorted radii: a cluster spans [r0, (1+tol)*r0]
    clusters: list[list[tuple[float, str, int]]] = []
    for c in inside:
        if clusters and c[0] <= (1.0 + cfg.radius_cluster_tol) * clusters[-1][0][0]:
            clusters[-1].append(c)
        else:
            clusters.append([c])
    # the first of the largest clusters, ties to the smaller median radius
    best = min(clusters, key=lambda cl: (-len(cl), median(r for r, _, _ in cl)))
    return RadiusCluster(representative_radius=median(r for r, _, _ in best),
                         members=circles.take([i for _, _, i in best]))


def map_to_data(cluster: RadiusCluster, xcal: AxisCalibration,
                ycal: AxisCalibration) -> list[DataPoint]:
    """Apply both axis maps to every member circle center.

    Output order is stable (device x, device y, id); duplicates are never
    merged, so fully overlapping markers yield repeated rows.
    """
    m = cluster.members
    radii = m.r
    # AxisCalibration.to_data, inlined: intercept + slope * coordinate
    x_slope, x_intercept = xcal.slope, xcal.intercept
    y_slope, y_intercept = ycal.slope, ycal.intercept
    return [DataPoint(x_intercept + x_slope * x, y_intercept + y_slope * y,
                      radii[i], sid)
            for x, y, sid, i in sorted(zip(m.cx, m.cy, m.ids, range(len(m))))]


def detect_raster_body(doc: FigureDocument, box: PlotBox,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> bool:
    """True when a bitmap covers at least half the plot interior.

    Such figures have selectable vector axes but no recoverable points;
    extraction must abort with a distinct diagnostic.
    """
    area = box.interior.area
    if area <= 0:
        return False
    return any(r.bounds.intersection_area(box.interior) / area
               >= cfg.raster_overlap_frac
               for r in doc.rasters)
