"""Select marker circles inside the plot box and remap them to data units.

Markers are isolated by radius clustering (scatter markers in one plot
share a size), then each center goes through the two fitted axis maps.
Overlapping markers are all kept: a vector figure stores coincident shapes
alongside each other, so multiplicity is preserved end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from .axis_detection import AxisCalibration, PlotBox
from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import NoDataGlyphs
from .svg_model import CircleGlyph, FigureDocument


@dataclass(frozen=True)
class DataPoint:
    x: float
    y: float
    device_radius: float
    source_id: str


@dataclass(frozen=True)
class RadiusCluster:
    representative_radius: float
    members: list[CircleGlyph]


def select_data_glyphs(doc: FigureDocument, box: PlotBox,
                       cfg: PipelineConfig = DEFAULT_CONFIG) -> RadiusCluster:
    """Cluster in-box circles by radius and return the largest cluster.

    The interior is expanded by one median radius so markers straddling an
    axis line still count.  Ties between clusters break toward the smaller
    radius (markers are small relative to decorations).  Raises
    NoDataGlyphs when nothing lies inside.
    """
    if not doc.circles:
        raise NoDataGlyphs("figure contains no circles")
    med_radius = median(c.radius for c in doc.circles)
    interior = box.interior.expanded(med_radius)
    x0, y0, x1, y1 = interior.x0, interior.y0, interior.x1, interior.y1
    inside = [c for c in doc.circles
              if x0 <= c.center.x <= x1 and y0 <= c.center.y <= y1]
    if not inside:
        raise NoDataGlyphs("no circle center inside the plot interior")

    # greedy sweep over sorted radii: a cluster spans [r0, (1+tol)*r0]
    inside.sort(key=lambda c: (c.radius, c.id))
    clusters: list[list[CircleGlyph]] = []
    for c in inside:
        if clusters and c.radius <= (1.0 + cfg.radius_cluster_tol) * clusters[-1][0].radius:
            clusters[-1].append(c)
        else:
            clusters.append([c])
    clusters.sort(key=lambda cl: (-len(cl), median(c.radius for c in cl)))
    best = clusters[0]
    return RadiusCluster(representative_radius=median(c.radius for c in best),
                         members=best)


def map_to_data(cluster: RadiusCluster, xcal: AxisCalibration,
                ycal: AxisCalibration) -> list[DataPoint]:
    """Apply both axis maps to every member circle center.

    Output order is stable (device x, device y, id); duplicates are never
    merged, so fully overlapping markers yield repeated rows.
    """
    ordered = sorted(cluster.members,
                     key=lambda c: (c.center.x, c.center.y, c.id))
    # AxisCalibration.to_data, inlined: intercept + slope * coordinate
    x_slope, x_intercept = xcal.slope, xcal.intercept
    y_slope, y_intercept = ycal.slope, ycal.intercept
    return [DataPoint(x_intercept + x_slope * c.center.x,
                      y_intercept + y_slope * c.center.y, c.radius, c.id)
            for c in ordered]


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
