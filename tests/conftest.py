from __future__ import annotations

import math
import os
from dataclasses import dataclass

import pytest
from hypothesis import settings

from vecfig.svg_model import FigureDocument, Markers, Point, Segments

# CI runs the property tests on a fixed example sequence (HYPOTHESIS_PROFILE=ci),
# so a run fails only on a change; local runs draw fresh examples
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def svg_bytes(body: str, width: float = 600, height: float = 450) -> bytes:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">{body}</svg>'
    ).encode("utf-8")


def serialize_model(doc: FigureDocument) -> bytes:
    """Re-serialize a figure model to SVG for round-trip checks."""
    parts = []
    c = doc.circles
    for cid, x, y, r in zip(c.ids, c.cx, c.cy, c.r):
        parts.append(f'<circle id="{cid}" cx="{x!r}" cy="{y!r}" r="{r!r}"/>')
    g = doc.segments
    for sid, x1, y1, x2, y2 in zip(g.ids, g.x1, g.y1, g.x2, g.y2):
        parts.append(f'<line id="{sid}" x1="{x1!r}" y1="{y1!r}" '
                     f'x2="{x2!r}" y2="{y2!r}"/>')
    for t in doc.texts:
        parts.append(f'<text x="{t.anchor.x!r}" y="{t.anchor.y!r}" '
                     f'font-size="{t.glyph_height!r}">{t.content}</text>')
    return svg_bytes("".join(parts), doc.canvas.width, doc.canvas.height)


@dataclass(frozen=True)
class Circle:
    """One marker as an object, the form the oracles below the columns use."""
    id: str
    center: Point
    radius: float


def markers_of(circles: list[Circle]) -> Markers:
    """The marker columns holding ``circles``, in order."""
    return Markers([c.id for c in circles], [c.center.x for c in circles],
                   [c.center.y for c in circles], [c.radius for c in circles])


def circles_of(markers: Markers) -> list[Circle]:
    """Marker columns back as one object per marker, in order."""
    return [Circle(cid, Point(x, y), r)
            for cid, x, y, r in zip(markers.ids, markers.cx, markers.cy, markers.r)]


@dataclass(frozen=True)
class Segment:
    """One segment as an object, the form the oracles below the columns use."""
    id: str
    p1: Point
    p2: Point

    @property
    def length(self) -> float:
        return math.dist((self.p1.x, self.p1.y), (self.p2.x, self.p2.y))


def segments_of(glyphs: list[Segment]) -> Segments:
    """The segment columns holding ``glyphs``, in order."""
    return Segments([g.id for g in glyphs], [g.p1.x for g in glyphs],
                    [g.p1.y for g in glyphs], [g.p2.x for g in glyphs],
                    [g.p2.y for g in glyphs])


def glyphs_of(segments: Segments) -> list[Segment]:
    """Segment columns back as one object per segment, in order."""
    return [Segment(sid, Point(x1, y1), Point(x2, y2))
            for sid, x1, y1, x2, y2 in zip(segments.ids, segments.x1, segments.y1,
                                           segments.x2, segments.y2)]


@pytest.fixture
def basic_axes_body() -> str:
    """Left axis (50,400)-(50,50), bottom axis (50,400)-(500,400)."""
    return ('<line id="vax" x1="50" y1="400" x2="50" y2="50"/>'
            '<line id="hax" x1="50" y1="400" x2="500" y2="400"/>')
