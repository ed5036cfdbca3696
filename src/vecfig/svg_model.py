"""Flatten an SVG byte stream into a device-space model of primitives.

The model keeps only what downstream detection needs: circles (data
markers), straight segments (axes and ticks), raster images (bitmap plot
bodies) and text runs (tick labels).  All nested transforms are composed
and applied during parsing, so every coordinate in the model is already in
one device space.  Per the SVG convention, y grows downward.

Circle markers and straight segments are parallel columns, not one
object each: :class:`Markers` holds id, centre x, centre y and radius,
:class:`Segments` holds id and the two endpoints.  A dense scatter has
tens of thousands of markers and a gridded one thousands of lines;
selection, mapping, the overlay, plot-box and tick detection read them in
bulk.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import DegenerateTransform, MalformedXml, NotSvg, PathSyntax

SVG_NS = "http://www.w3.org/2000/svg"
XLINK_NS = "http://www.w3.org/1999/xlink"

# Curves whose sampled deviation from the chord stays below this bound are
# treated as straight segments; anything more curved is skipped.
CURVE_DEVIATION_TOL = 0.25
# Ellipses count as circles while the radii differ by at most this ratio.
ELLIPSE_CIRCLE_TOL = 0.05
# Primitives farther out than this many canvas sizes are discarded.
CANVAS_OVERFLOW_FACTOR = 10.0

# Baseline/gap thresholds for glyph-run composition, in glyph heights.
RUN_BASELINE_TOL = 0.2
RUN_GAP_TOL = 0.6

DEFAULT_FONT_SIZE = 10.0


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class AffineTransform:
    """Standard 2x3 matrix: (x, y) -> (a*x + c*y + e, b*x + d*y + f)."""

    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 1.0
    e: float = 0.0
    f: float = 0.0

    def apply(self, p: Point) -> Point:
        return Point(self.a * p.x + self.c * p.y + self.e,
                     self.b * p.x + self.d * p.y + self.f)

    def apply_xy(self, x: float, y: float) -> Point:
        return Point(self.a * x + self.c * y + self.e,
                     self.b * x + self.d * y + self.f)

    def then(self, child: "AffineTransform") -> "AffineTransform":
        """Compose so that ``child`` applies first, then ``self``."""
        return AffineTransform(
            a=self.a * child.a + self.c * child.b,
            b=self.b * child.a + self.d * child.b,
            c=self.a * child.c + self.c * child.d,
            d=self.b * child.c + self.d * child.d,
            e=self.a * child.e + self.c * child.f + self.e,
            f=self.b * child.e + self.d * child.f + self.f,
        )

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "AffineTransform":
        det = self.determinant
        return AffineTransform(a=self.d / det, b=-self.b / det,
                               c=-self.c / det, d=self.a / det,
                               e=(self.c * self.f - self.d * self.e) / det,
                               f=(self.b * self.e - self.a * self.f) / det)


def _singular_values(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Singular values of the 2x2 matrix [[a, c], [b, d]], largest first."""
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    root = math.sqrt(max(0.0, s * s - 4.0 * det * det))
    s1 = math.sqrt(max(0.0, (s + root) / 2.0))
    s2 = math.sqrt(max(0.0, (s - root) / 2.0))
    return s1, s2


IDENTITY = AffineTransform()


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, x0 <= x1 and y0 <= y1."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def expanded(self, margin: float) -> "Rect":
        return Rect(self.x0 - margin, self.y0 - margin,
                    self.x1 + margin, self.y1 + margin)

    def intersection_area(self, other: "Rect") -> float:
        w = min(self.x1, other.x1) - max(self.x0, other.x0)
        h = min(self.y1, other.y1) - max(self.y0, other.y0)
        return w * h if w > 0 and h > 0 else 0.0


@dataclass
class Markers:
    """Circle markers as parallel columns, in device space.

    Marker ``i`` is ``ids[i]``, centred at ``(cx[i], cy[i])`` with radius
    ``r[i]``; the four lists always have the same length.
    """

    ids: list[str] = field(default_factory=list)
    cx: list[float] = field(default_factory=list)
    cy: list[float] = field(default_factory=list)
    r: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices: list[int]) -> "Markers":
        """The markers at ``indices``, in that order."""
        ids, cx, cy, r = self.ids, self.cx, self.cy, self.r
        return Markers([ids[i] for i in indices], [cx[i] for i in indices],
                       [cy[i] for i in indices], [r[i] for i in indices])


@dataclass
class Segments:
    """Straight segments as parallel columns, in device space.

    Segment ``i`` is ``ids[i]``, from ``(x1[i], y1[i])`` to ``(x2[i], y2[i])``;
    the five lists always have the same length.
    """

    ids: list[str] = field(default_factory=list)
    x1: list[float] = field(default_factory=list)
    y1: list[float] = field(default_factory=list)
    x2: list[float] = field(default_factory=list)
    y2: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, sid: str, x1: float, y1: float, x2: float, y2: float) -> None:
        self.ids.append(sid)
        self.x1.append(x1)
        self.y1.append(y1)
        self.x2.append(x2)
        self.y2.append(y2)

    def extend(self, other: "Segments") -> None:
        self.ids += other.ids
        self.x1 += other.x1
        self.y1 += other.y1
        self.x2 += other.x2
        self.y2 += other.y2

    def take(self, indices: list[int]) -> "Segments":
        """The segments at ``indices``, in that order."""
        ids, x1, y1, x2, y2 = self.ids, self.x1, self.y1, self.x2, self.y2
        return Segments([ids[i] for i in indices], [x1[i] for i in indices],
                        [y1[i] for i in indices], [x2[i] for i in indices],
                        [y2[i] for i in indices])


@dataclass(frozen=True)
class SegmentGlyph:
    """One segment as an object: the form a detected axis is reported in."""

    id: str
    p1: Point
    p2: Point

    @property
    def length(self) -> float:
        return self.p1.distance_to(self.p2)


@dataclass(frozen=True)
class RasterGlyph:
    id: str
    bounds: Rect


@dataclass(frozen=True)
class TextRun:
    id: str
    anchor: Point
    content: str
    glyph_height: float


@dataclass
class FigureDocument:
    circles: Markers = field(default_factory=Markers)
    segments: Segments = field(default_factory=Segments)
    rasters: list[RasterGlyph] = field(default_factory=list)
    texts: list[TextRun] = field(default_factory=list)
    canvas: Rect = field(default_factory=lambda: Rect(0.0, 0.0, 1.0, 1.0))
    # the root element's own transform, already applied to every primitive
    root_transform: AffineTransform = IDENTITY
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# transform parsing

_TRANSFORM_RE = re.compile(r"(matrix|translate|scale|rotate|skewX|skewY)\s*\(([^)]*)\)")
_NUM_RE = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def parse_transform(text: str) -> AffineTransform:
    """Parse an SVG ``transform`` attribute into a single matrix."""
    result = IDENTITY
    for name, argtext in _TRANSFORM_RE.findall(text):
        args = [float(m.group(0)) for m in _NUM_RE.finditer(argtext)]
        if not all(map(math.isfinite, args)):
            raise DegenerateTransform(f"non-finite transform argument: {name}({argtext})")
        if name == "matrix" and len(args) == 6:
            t = AffineTransform(*args)
        elif name == "translate" and len(args) in (1, 2):
            tx = args[0]
            ty = args[1] if len(args) == 2 else 0.0
            t = AffineTransform(e=tx, f=ty)
        elif name == "scale" and len(args) in (1, 2):
            sx = args[0]
            sy = args[1] if len(args) == 2 else sx
            t = AffineTransform(a=sx, d=sy)
        elif name == "rotate" and len(args) in (1, 3):
            ang = math.radians(args[0])
            cos, sin = math.cos(ang), math.sin(ang)
            t = AffineTransform(a=cos, b=sin, c=-sin, d=cos)
            if len(args) == 3:
                cx, cy = args[1], args[2]
                t = (AffineTransform(e=cx, f=cy)
                     .then(t)
                     .then(AffineTransform(e=-cx, f=-cy)))
        elif name == "skewX" and len(args) == 1:
            t = AffineTransform(c=math.tan(math.radians(args[0])))
        elif name == "skewY" and len(args) == 1:
            t = AffineTransform(b=math.tan(math.radians(args[0])))
        else:
            raise DegenerateTransform(f"bad transform arguments: {name}({argtext})")
        result = result.then(t)
    return _checked(result, text)


def _checked(t: AffineTransform, text: str, kind: str = "transform") -> AffineTransform:
    """``t``, unless an entry overflowed or it is singular; then raises
    DegenerateTransform naming the ``transform`` attribute ``text``."""
    if not all(map(math.isfinite, (t.a, t.b, t.c, t.d, t.e, t.f))):
        raise DegenerateTransform(f"non-finite {kind}: {text!r}")
    if t.determinant == 0.0:
        raise DegenerateTransform(f"zero-determinant {kind}: {text!r}")
    return t


def _compose(parent: AffineTransform, text: str) -> AffineTransform:
    """``parent`` then the ``transform`` attribute ``text``, checked as a
    whole: nested attributes that are each fine can overflow together."""
    return _checked(parent.then(parse_transform(text)), text, "composed transform")


# ---------------------------------------------------------------------------
# path flattening

_PATH_TOKEN_RE = re.compile(r"([MmLlHhVvZzCcSsQqTtAa])|" + _NUM_RE.pattern)

# number of coordinate values each command consumes per repetition
_PATH_ARITY = {
    "M": 2, "L": 2, "H": 1, "V": 1, "Z": 0,
    "C": 6, "S": 4, "Q": 4, "T": 2, "A": 7,
}


def _tokenize_path(path_data: str) -> list[str | float]:
    tokens: list[str | float] = []
    pos = 0
    for m in _PATH_TOKEN_RE.finditer(path_data):
        between = path_data[pos:m.start()]
        if between.strip(" ,\t\n\r"):
            raise PathSyntax(f"unexpected text in path data: {between!r}")
        pos = m.end()
        tokens.append(m.group(1) if m.group(1) else float(m.group(0)))
    if path_data[pos:].strip(" ,\t\n\r"):
        raise PathSyntax(f"unexpected trailing text: {path_data[pos:]!r}")
    return tokens


def _chord_deviation(points: list[Point]) -> float:
    """Max distance of sampled curve points from the start-end chord."""
    start, end = points[0], points[-1]
    dx, dy = end.x - start.x, end.y - start.y
    chord = math.hypot(dx, dy)
    if chord == 0.0:
        return max(p.distance_to(start) for p in points)
    return max(abs((p.x - start.x) * dy - (p.y - start.y) * dx) / chord
               for p in points)


def _sample_cubic(p0: Point, p1: Point, p2: Point, p3: Point, n: int = 33) -> list[Point]:
    pts = []
    for i in range(n):
        t = i / (n - 1)
        u = 1.0 - t
        x = u**3 * p0.x + 3 * u * u * t * p1.x + 3 * u * t * t * p2.x + t**3 * p3.x
        y = u**3 * p0.y + 3 * u * u * t * p1.y + 3 * u * t * t * p2.y + t**3 * p3.y
        pts.append(Point(x, y))
    return pts


def _sample_quadratic(p0: Point, p1: Point, p2: Point, n: int = 33) -> list[Point]:
    pts = []
    for i in range(n):
        t = i / (n - 1)
        u = 1.0 - t
        x = u * u * p0.x + 2 * u * t * p1.x + t * t * p2.x
        y = u * u * p0.y + 2 * u * t * p1.y + t * t * p2.y
        pts.append(Point(x, y))
    return pts


def flatten_path(path_data: str, transform: AffineTransform = IDENTITY,
                 id_prefix: str = "path",
                 warnings: list[str] | None = None) -> Segments:
    """Decompose path data into straight device-space segments.

    Curves whose sampled deviation from their chord is within
    CURVE_DEVIATION_TOL (after transform) become segments; more strongly
    curved pieces are skipped with a warning.  Raises PathSyntax on a
    malformed grammar.
    """
    tokens = _tokenize_path(path_data)
    warnings = warnings if warnings is not None else []
    segments = Segments()
    ta, tb, tc, td, te, tf = (transform.a, transform.b, transform.c,
                              transform.d, transform.e, transform.f)

    cur = Point(0.0, 0.0)
    start = Point(0.0, 0.0)
    prev_cubic_ctrl: Point | None = None
    prev_quad_ctrl: Point | None = None
    cmd: str | None = None
    i = 0
    seg_n = 0

    def emit(p1: Point, p2: Point) -> None:
        nonlocal seg_n
        x1 = ta * p1.x + tc * p1.y + te
        y1 = tb * p1.x + td * p1.y + tf
        x2 = ta * p2.x + tc * p2.y + te
        y2 = tb * p2.x + td * p2.y + tf
        if x1 != x2 or y1 != y2:
            segments.append(f"{id_prefix}.{seg_n}", x1, y1, x2, y2)
            seg_n += 1

    def emit_curve(ctrl_points: list[Point]) -> None:
        nonlocal seg_n
        devpts = [transform.apply(p) for p in ctrl_points]
        if _chord_deviation(devpts) <= CURVE_DEVIATION_TOL:
            start, end = devpts[0], devpts[-1]
            if start != end:
                segments.append(f"{id_prefix}.{seg_n}", start.x, start.y, end.x, end.y)
                seg_n += 1
        else:
            warnings.append(f"{id_prefix}: curve exceeds deviation bound, skipped")

    def take(n: int) -> list[float]:
        nonlocal i
        if i + n > len(tokens) or any(isinstance(t, str) for t in tokens[i:i + n]):
            raise PathSyntax(f"command {cmd!r} needs {n} numbers")
        vals = [float(tokens[j]) for j in range(i, i + n)]  # type: ignore[arg-type]
        i += n
        return vals

    while i < len(tokens):
        tok = tokens[i]
        if isinstance(tok, str):
            cmd = tok
            i += 1
            if cmd.upper() == "Z":
                if cur != start:
                    emit(cur, start)
                cur = start
                prev_cubic_ctrl = prev_quad_ctrl = None
                continue
        elif cmd is None:
            raise PathSyntax("path data does not start with a command")
        elif cmd in ("M", "m"):
            cmd = "L" if cmd == "M" else "l"  # implicit lineto after moveto
        rel = cmd.islower()
        op = cmd.upper()
        if op == "Z":
            raise PathSyntax("Z takes no arguments")
        args = take(_PATH_ARITY[op])

        if op == "M":
            cur = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
            start = cur
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op == "L":
            nxt = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
            emit(cur, nxt)
            cur = nxt
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op == "H":
            nxt = Point(cur.x + args[0] if rel else args[0], cur.y)
            emit(cur, nxt)
            cur = nxt
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op == "V":
            nxt = Point(cur.x, cur.y + args[0] if rel else args[0])
            emit(cur, nxt)
            cur = nxt
            prev_cubic_ctrl = prev_quad_ctrl = None
        elif op in ("C", "S"):
            if op == "C":
                c1 = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
                c2 = Point(cur.x + args[2], cur.y + args[3]) if rel else Point(args[2], args[3])
                end = Point(cur.x + args[4], cur.y + args[5]) if rel else Point(args[4], args[5])
            else:
                c1 = (Point(2 * cur.x - prev_cubic_ctrl.x, 2 * cur.y - prev_cubic_ctrl.y)
                      if prev_cubic_ctrl else cur)
                c2 = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
                end = Point(cur.x + args[2], cur.y + args[3]) if rel else Point(args[2], args[3])
            emit_curve(_sample_cubic(cur, c1, c2, end))
            prev_cubic_ctrl = c2
            prev_quad_ctrl = None
            cur = end
        elif op in ("Q", "T"):
            if op == "Q":
                c1 = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
                end = Point(cur.x + args[2], cur.y + args[3]) if rel else Point(args[2], args[3])
            else:
                c1 = (Point(2 * cur.x - prev_quad_ctrl.x, 2 * cur.y - prev_quad_ctrl.y)
                      if prev_quad_ctrl else cur)
                end = Point(cur.x + args[0], cur.y + args[1]) if rel else Point(args[0], args[1])
            emit_curve(_sample_quadratic(cur, c1, end))
            prev_quad_ctrl = c1
            prev_cubic_ctrl = None
            cur = end
        elif op == "A":
            # elliptical arcs never approximate ticks/axes; skip to endpoint
            end = Point(cur.x + args[5], cur.y + args[6]) if rel else Point(args[5], args[6])
            warnings.append(f"{id_prefix}: elliptical arc skipped")
            cur = end
            prev_cubic_ctrl = prev_quad_ctrl = None
    return segments


# ---------------------------------------------------------------------------
# glyph-run composition

def compose_text_runs(raw_glyph_texts: list[TextRun]) -> list[TextRun]:
    """Merge per-glyph text elements back into whole runs.

    Runs sharing a baseline (within RUN_BASELINE_TOL glyph heights) and
    separated horizontally by at most RUN_GAP_TOL glyph heights are joined
    left to right.  Output is sorted by (y, x).
    """
    if not raw_glyph_texts:
        return []
    pending = sorted(raw_glyph_texts, key=lambda r: (r.anchor.y, r.anchor.x, r.id))

    # group by shared baseline
    baselines: list[list[TextRun]] = []
    for run in pending:
        for group in baselines:
            h = max(run.glyph_height, group[0].glyph_height)
            if abs(run.anchor.y - group[0].anchor.y) <= RUN_BASELINE_TOL * h:
                group.append(run)
                break
        else:
            baselines.append([run])

    # chain left-to-right within each baseline
    merged: list[TextRun] = []
    for group in baselines:
        group.sort(key=lambda r: (r.anchor.x, r.id))
        chain = [group[0]]
        for run in group[1:]:
            last = chain[-1]
            h = max(run.glyph_height, last.glyph_height)
            if run.anchor.x - last.anchor.x <= RUN_GAP_TOL * h:
                chain.append(run)
            else:
                merged.append(_join_chain(chain))
                chain = [run]
        merged.append(_join_chain(chain))
    merged.sort(key=lambda r: (r.anchor.y, r.anchor.x))
    return merged


def _join_chain(chain: list[TextRun]) -> TextRun:
    if len(chain) == 1:
        return chain[0]
    return TextRun(
        id=chain[0].id,
        anchor=chain[0].anchor,
        content="".join(m.content for m in chain),
        glyph_height=max(m.glyph_height for m in chain),
    )


# ---------------------------------------------------------------------------
# document parsing

def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_length(text: str | None) -> float | None:
    """The first number in ``text`` (units and junk ignored), or None."""
    if text is None:
        return None
    # a plain number is the common case; float() also reads "1_0", "inf"
    # and "nan", where the number search reads something else
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if value - value == 0.0 and "_" not in text:
            return value
    m = _NUM_RE.search(text)
    return float(m.group(0)) if m else None


_FONT_SIZE_RE = re.compile(r"font-size\s*:([^;]*)")


def _font_size(elem: ET.Element, inherited: float) -> float:
    fs = _parse_length(elem.get("font-size"))
    if fs is None:
        m = _FONT_SIZE_RE.search(elem.get("style", ""))
        fs = _parse_length(m.group(1)) if m else None
    return fs if fs is not None else inherited


# elements that draw nothing themselves and are not descended into
_NON_RENDERING = ("defs", "title", "desc", "metadata", "clipPath", "marker",
                  "symbol", "pattern", "linearGradient", "radialGradient",
                  "filter", "mask", "script")


class _LocalNames(dict):
    """Qualified tag -> local name, each tag split once, on first lookup."""

    def __missing__(self, tag: str) -> str:
        name = self[tag] = _local_name(tag)
        return name


class _Parser:
    def __init__(self) -> None:
        self.doc = FigureDocument()
        self._counter = 0
        self.names = _LocalNames()
        # (transform, rx, ry) of the last circle or ellipse, and its semi-axes
        self._shape: tuple[AffineTransform | None, float, float] = (None, 0.0, 0.0)
        self._semi_axes = (0.0, 0.0)

    def _gen_id(self, elem: ET.Element, kind: str) -> str:
        eid = elem.get("id")
        if eid:
            return eid
        self._counter += 1
        return f"{kind}-{self._counter}"

    def walk(self, elem: ET.Element, transform: AffineTransform, font_size: float) -> None:
        """Hand each child its composed transform and the inherited font size.

        Circles, ellipses and lines, the bulk of a dense or gridded figure,
        go straight into the marker and segment columns here, with no
        handler call.
        """
        handlers = self._HANDLERS
        names = self.names
        doc = self.doc
        warn = doc.warnings.append
        markers = doc.circles
        m_id, m_cx, m_cy, m_r = (markers.ids.append, markers.cx.append,
                                 markers.cy.append, markers.r.append)
        segments = doc.segments
        s_id, s_x1, s_y1, s_x2, s_y2 = (segments.ids.append, segments.x1.append,
                                        segments.y1.append, segments.x2.append,
                                        segments.y2.append)
        inf = math.inf
        for child in elem:
            tag = names[child.tag]
            get = child.get
            t_attr = get("transform")
            t = _compose(transform, t_attr) if t_attr else transform
            if tag == "line":
                px1 = _parse_length(get("x1")) or 0.0
                py1 = _parse_length(get("y1")) or 0.0
                px2 = _parse_length(get("x2")) or 0.0
                py2 = _parse_length(get("y2")) or 0.0
                x1 = t.a * px1 + t.c * py1 + t.e
                y1 = t.b * px1 + t.d * py1 + t.f
                x2 = t.a * px2 + t.c * py2 + t.e
                y2 = t.b * px2 + t.d * py2 + t.f
                if x1 == x2 and y1 == y2:
                    warn("zero-length line skipped")
                    continue
                eid = get("id")
                if not eid:
                    self._counter += 1
                    eid = f"line-{self._counter}"
                s_id(eid)
                s_x1(x1)
                s_y1(y1)
                s_x2(x2)
                s_y2(y2)
                continue
            if tag == "circle" or tag == "ellipse":
                if tag == "circle":
                    rx = ry = _parse_length(get("r")) or 0.0
                else:
                    rx = _parse_length(get("rx")) or 0.0
                    ry = _parse_length(get("ry")) or 0.0
                # an overflowing radius is degenerate too: times the transform's
                # zero entries it would give nan semi-axes
                if not (0 < rx < inf and 0 < ry < inf):
                    warn(f"degenerate circle/ellipse skipped (r={rx},{ry})")
                    continue
                # image of the ellipse under the linear part; semi-axes are the
                # singular values of L * diag(rx, ry).  Markers in a row mostly
                # share the transform and the radii, so the solve is redone
                # only when one of them changes.
                shape_t, shape_rx, shape_ry = self._shape
                if t is not shape_t or rx != shape_rx or ry != shape_ry:
                    self._shape = (t, rx, ry)
                    self._semi_axes = _singular_values(t.a * rx, t.b * rx,
                                                       t.c * ry, t.d * ry)
                s1, s2 = self._semi_axes
                # finite radii can still overflow under the transform; s1 is
                # the larger semi-axis and never nan
                if s1 == inf:
                    warn(f"degenerate circle/ellipse skipped (r={rx},{ry})")
                    continue
                if s1 <= 0 or (s1 - s2) / s1 > ELLIPSE_CIRCLE_TOL:
                    warn(f"non-circular ellipse skipped (semi-axes {s1:.3g}, {s2:.3g})")
                    continue
                cx = _parse_length(get("cx")) or 0.0
                cy = _parse_length(get("cy")) or 0.0
                eid = get("id")
                if not eid:
                    self._counter += 1
                    eid = f"circle-{self._counter}"
                m_id(eid)
                m_cx(t.a * cx + t.c * cy + t.e)
                m_cy(t.b * cx + t.d * cy + t.f)
                m_r(math.sqrt(s1 * s2))
                continue
            handler = handlers.get(tag)
            if handler is not None:
                handler(self, child, t, font_size)
            else:
                warn(f"unsupported element <{tag}> skipped")

    # --- element handlers -------------------------------------------------

    def _handle_container(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        self.walk(elem, t, _font_size(elem, fs))

    def _handle_path(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        d = elem.get("d", "")
        if not d.strip():
            self.doc.warnings.append("empty path skipped")
            return
        self.doc.segments.extend(flatten_path(d, t, id_prefix=self._gen_id(elem, "path"),
                                              warnings=self.doc.warnings))

    def _handle_rect(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        x = _parse_length(elem.get("x")) or 0.0
        y = _parse_length(elem.get("y")) or 0.0
        w = _parse_length(elem.get("width")) or 0.0
        h = _parse_length(elem.get("height")) or 0.0
        if w <= 0 or h <= 0:
            self.doc.warnings.append("degenerate rect skipped")
            return
        rid = self._gen_id(elem, "rect")
        corners = [t.apply_xy(x, y), t.apply_xy(x + w, y),
                   t.apply_xy(x + w, y + h), t.apply_xy(x, y + h)]
        for k in range(4):
            p1, p2 = corners[k], corners[(k + 1) % 4]
            self.doc.segments.append(f"{rid}.{k}", p1.x, p1.y, p2.x, p2.y)

    def _handle_image(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        x = _parse_length(elem.get("x")) or 0.0
        y = _parse_length(elem.get("y")) or 0.0
        w = _parse_length(elem.get("width")) or 0.0
        h = _parse_length(elem.get("height")) or 0.0
        if w <= 0 or h <= 0:
            self.doc.warnings.append("degenerate image skipped")
            return
        corners = [t.apply_xy(x, y), t.apply_xy(x + w, y),
                   t.apply_xy(x + w, y + h), t.apply_xy(x, y + h)]
        xs = [p.x for p in corners]
        ys = [p.y for p in corners]
        self.doc.rasters.append(RasterGlyph(
            self._gen_id(elem, "image"),
            Rect(min(xs), min(ys), max(xs), max(ys))))

    def _handle_text(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        self._collect_text(elem, t, _font_size(elem, fs), inherited_anchor=None)

    def _handle_use(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        self.doc.warnings.append("<use> indirection not supported, skipped")

    def _handle_style(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        self.doc.warnings.append("CSS stylesheet ignored")

    def _collect_text(self, elem: ET.Element, t: AffineTransform, fs: float,
                      inherited_anchor: Point | None) -> None:
        x = _parse_length(elem.get("x"))
        y = _parse_length(elem.get("y"))
        if x is not None or y is not None:
            anchor = t.apply_xy(x or 0.0, y or 0.0)
        else:
            anchor = inherited_anchor
        scale = math.sqrt(abs(t.determinant))
        content = (elem.text or "").strip()
        if content and anchor is not None:
            self.doc.texts.append(TextRun(
                self._gen_id(elem, "text"), anchor, content, fs * scale))
        elif content:
            self.doc.warnings.append("text without anchor skipped")
        for child in elem:
            tag = self.names[child.tag]
            if tag == "tspan":
                ct_attr = child.get("transform")
                ct = _compose(t, ct_attr) if ct_attr else t
                self._collect_text(child, ct, _font_size(child, fs), anchor)
            else:
                self.doc.warnings.append(f"unsupported element <{tag}> in text skipped")

    def _skip(self, elem: ET.Element, t: AffineTransform, fs: float) -> None:
        pass

    # plain functions, not bound methods: a table of bound methods on the
    # instance would keep each parser, and its document, in a reference cycle
    _HANDLERS = {
        "path": _handle_path, "rect": _handle_rect,
        "image": _handle_image, "text": _handle_text, "use": _handle_use,
        "style": _handle_style, "g": _handle_container, "svg": _handle_container,
        "a": _handle_container, "switch": _handle_container,
        **dict.fromkeys(_NON_RENDERING, _skip),
    }


def _canvas_rect(root: ET.Element, doc: FigureDocument) -> Rect:
    viewbox = root.get("viewBox")
    if viewbox:
        nums = [float(m.group(0)) for m in _NUM_RE.finditer(viewbox)]
        if len(nums) == 4 and nums[2] > 0 and nums[3] > 0:
            return Rect(nums[0], nums[1], nums[0] + nums[2], nums[1] + nums[3])
    w = _parse_length(root.get("width"))
    h = _parse_length(root.get("height"))
    if w and h and w > 0 and h > 0:
        return Rect(0.0, 0.0, w, h)
    # fall back to content bounds
    xs: list[float] = []
    ys: list[float] = []
    circles = doc.circles
    for x, y, r in zip(circles.cx, circles.cy, circles.r):
        xs += [x - r, x + r]
        ys += [y - r, y + r]
    segments = doc.segments
    for x1, y1, x2, y2 in zip(segments.x1, segments.y1, segments.x2, segments.y2):
        xs += [x1, x2]
        ys += [y1, y2]
    for r in doc.rasters:
        xs += [r.bounds.x0, r.bounds.x1]
        ys += [r.bounds.y0, r.bounds.y1]
    for t in doc.texts:
        xs.append(t.anchor.x)
        ys.append(t.anchor.y)
    # min and max return their first argument against a nan, and an
    # infinite bound makes an infinite canvas: neither may decide it
    xs = list(filter(math.isfinite, xs))
    ys = list(filter(math.isfinite, ys))
    if xs and ys and (max(xs) > min(xs) or max(ys) > min(ys)):
        doc.warnings.append("no viewBox/width/height; canvas from content bounds")
        return Rect(min(xs), min(ys), max(max(xs), min(xs) + 1.0),
                    max(max(ys), min(ys) + 1.0))
    doc.warnings.append("no canvas information; unit canvas assumed")
    return Rect(0.0, 0.0, 1.0, 1.0)


def _drop_out_of_canvas(doc: FigureDocument) -> None:
    canvas = doc.canvas
    cx = (canvas.x0 + canvas.x1) / 2.0
    cy = (canvas.y0 + canvas.y1) / 2.0
    half_w = canvas.width * CANVAS_OVERFLOW_FACTOR / 2.0
    half_h = canvas.height * CANVAS_OVERFLOW_FACTOR / 2.0
    x_lo, x_hi, y_lo, y_hi = cx - half_w, cx + half_w, cy - half_h, cy + half_h

    def fits(x0: float, y0: float, x1: float, y1: float) -> bool:
        return x_lo <= x0 and x1 <= x_hi and y_lo <= y0 and y1 <= y_hi

    circles = doc.circles
    fitting = [i for i, (x, y, r) in enumerate(zip(circles.cx, circles.cy, circles.r))
               if x_lo <= x - r and x + r <= x_hi and y_lo <= y - r and y + r <= y_hi]
    if len(fitting) != len(circles):
        doc.circles = circles.take(fitting)
        doc.warnings.append(
            f"{len(circles) - len(fitting)} far-out-of-canvas circles discarded")
    segments = doc.segments
    # each end on its own, so that a nan coordinate at either end drops it
    fitting = [i for i, (x1, y1, x2, y2)
               in enumerate(zip(segments.x1, segments.y1, segments.x2, segments.y2))
               if x_lo <= x1 <= x_hi and x_lo <= x2 <= x_hi
               and y_lo <= y1 <= y_hi and y_lo <= y2 <= y_hi]
    if len(fitting) != len(segments):
        doc.segments = segments.take(fitting)
        doc.warnings.append(
            f"{len(segments) - len(fitting)} far-out-of-canvas segments discarded")
    # one test per other primitive kind, in the order warnings report them
    tests = {
        "rasters": lambda r: fits(r.bounds.x0, r.bounds.y0, r.bounds.x1, r.bounds.y1),
        "texts": lambda t: fits(t.anchor.x, t.anchor.y, t.anchor.x, t.anchor.y),
    }
    for name, test in tests.items():
        items = getattr(doc, name)
        kept = [item for item in items if test(item)]
        if len(kept) != len(items):
            setattr(doc, name, kept)
            doc.warnings.append(f"{len(items) - len(kept)} far-out-of-canvas {name} discarded")


def parse_svg(data: bytes) -> FigureDocument:
    """Parse SVG bytes into a flat device-space FigureDocument.

    Raw per-glyph text elements are composed into runs before the document
    is returned.  Raises MalformedXml (also for nesting too deep to walk) /
    NotSvg / DegenerateTransform (also for non-finite arguments) / PathSyntax.
    """
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    parser = _Parser()
    root_name = parser.names[root.tag]
    if root_name != "svg":
        raise NotSvg(f"root element is <{root_name}>, not <svg>")
    root_t_attr = root.get("transform")
    root_t = parse_transform(root_t_attr) if root_t_attr else IDENTITY
    try:
        parser.walk(root, root_t, DEFAULT_FONT_SIZE)
    except RecursionError:
        raise MalformedXml("elements nested too deeply to walk") from None
    doc = parser.doc
    doc.root_transform = root_t
    doc.canvas = _canvas_rect(root, doc)
    _drop_out_of_canvas(doc)
    doc.texts = compose_text_runs(doc.texts)
    return doc
