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

import bisect
import collections
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields

from .config import (CANVAS_OVERFLOW_FACTOR, CURVE_DEVIATION_TOL, ELLIPSE_CIRCLE_TOL,
                     RUN_BASELINE_TOL, RUN_GAP_TOL)
from .errors import VecfigError

SVG_NS = "http://www.w3.org/2000/svg"

DEFAULT_FONT_SIZE = 10.0

# the source goes to the XML parser in pieces of this many bytes; what each
# piece finishes is walked and dropped, still in cache, before the next goes
# in.  A piece's elements take many times its bytes and set the parse peak of
# a small figure: 1,000 gridlines peak at 5.1 times their source in 16 KiB
# pieces and 11.8 in 64 KiB; 8 KiB pieces parse no faster
_FEED_BYTES = 1 << 14


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class AffineTransform:
    """Standard 2x3 matrix: (x, y) -> (a*x + c*y + e, b*x + d*y + f)."""

    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 1.0
    e: float = 0.0
    f: float = 0.0

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


class _Columns:
    """Parallel lists, one per dataclass field, that always have one length."""

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices: list[int]):
        """The entries at ``indices``, in that order, as a new column set."""
        columns = [getattr(self, f.name) for f in fields(self)]
        return type(self)(*[[column[i] for i in indices] for column in columns])


@dataclass
class Markers(_Columns):
    """Circle markers as parallel columns, in device space.

    Marker ``i`` is ``ids[i]``, centred at ``(cx[i], cy[i])`` with radius
    ``r[i]``; the four lists always have the same length.
    """

    ids: list[str] = field(default_factory=list)
    cx: list[float] = field(default_factory=list)
    cy: list[float] = field(default_factory=list)
    r: list[float] = field(default_factory=list)


@dataclass
class Segments(_Columns):
    """Straight segments as parallel columns, in device space.

    Segment ``i`` is ``ids[i]``, from ``(x1[i], y1[i])`` to ``(x2[i], y2[i])``;
    the five lists always have the same length.
    """

    ids: list[str] = field(default_factory=list)
    x1: list[float] = field(default_factory=list)
    y1: list[float] = field(default_factory=list)
    x2: list[float] = field(default_factory=list)
    y2: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class TextRun:
    anchor: Point
    content: str
    glyph_height: float


@dataclass
class FigureDocument:
    circles: Markers = field(default_factory=Markers)
    segments: Segments = field(default_factory=Segments)
    # the device-space bounds of each <image>
    rasters: list[Rect] = field(default_factory=list)
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
            raise VecfigError(f"non-finite transform argument: {name}({argtext})")
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
            raise VecfigError(f"bad transform arguments: {name}({argtext})")
        result = result.then(t)
    return _checked(result, text)


def _checked(t: AffineTransform, text: str, kind: str = "transform") -> AffineTransform:
    """``t``, unless an entry overflowed or it is singular; then raises
    VecfigError naming the ``transform`` attribute ``text``."""
    if not all(map(math.isfinite, (t.a, t.b, t.c, t.d, t.e, t.f))):
        raise VecfigError(f"non-finite {kind}: {text!r}")
    if t.determinant == 0.0:
        raise VecfigError(f"zero-determinant {kind}: {text!r}")
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
            raise VecfigError(f"unexpected text in path data: {between!r}")
        pos = m.end()
        tokens.append(m.group(1) if m.group(1) else float(m.group(0)))
    if path_data[pos:].strip(" ,\t\n\r"):
        raise VecfigError(f"unexpected trailing text: {path_data[pos:]!r}")
    return tokens


def _chord_deviation(points: list[tuple[float, float]]) -> float:
    """Max distance of sampled curve points from the start-end chord."""
    (x0, y0), (xn, yn) = points[0], points[-1]
    dx, dy = xn - x0, yn - y0
    chord = math.hypot(dx, dy)
    if chord == 0.0:
        return max(math.hypot(x - x0, y - y0) for x, y in points)
    return max(abs((x - x0) * dy - (y - y0) * dx) / chord for x, y in points)


# (t, 1 - t) at the 33 curve samples, t = 0, 1/32, ..., 1, and the
# Bernstein weights of the control points there
_CURVE_T = [(i / 32, 1.0 - i / 32) for i in range(33)]
_CUBIC_WEIGHTS = [(u**3, 3 * u * u * t, 3 * u * t * t, t**3) for t, u in _CURVE_T]
_QUADRATIC_WEIGHTS = [(u * u, 2 * u * t, t * t) for t, u in _CURVE_T]


def flatten_path(path_data: str, transform: AffineTransform = IDENTITY,
                 id_prefix: str = "path",
                 warnings: list[str] | None = None) -> Segments:
    """Decompose path data into straight device-space segments.

    Curves whose sampled deviation from their chord is within
    CURVE_DEVIATION_TOL (after transform) become segments; more strongly
    curved pieces are skipped with a warning.  Raises VecfigError on a
    malformed grammar.
    """
    return _flatten_tokens(_tokenize_path(path_data), transform, id_prefix,
                           warnings if warnings is not None else [], Segments())


def _flatten_tokens(tokens: list[str | float], transform: AffineTransform, id_prefix: str,
                    warnings: list[str], out: Segments) -> Segments:
    """flatten_path on ready ``tokens``, command letters and floats: appends
    to and returns ``out``.  The one emitter for every straight-edged shape."""
    rows: list[tuple[str, float, float, float, float]] = []
    ta, tb, tc, td, te, tf = (transform.a, transform.b, transform.c,
                              transform.d, transform.e, transform.f)
    # current point, subpath start, and the control points S and T reflect
    cx = cy = sx = sy = 0.0
    prev_cubic: tuple[float, float] | None = None
    prev_quad: tuple[float, float] | None = None
    cmd: str | None = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if isinstance(tok, str):
            cmd = tok
            i += 1
        elif cmd is None:
            raise VecfigError("path data does not start with a command")
        elif cmd in "Zz":
            raise VecfigError("Z takes no arguments")
        elif cmd in "Mm":
            cmd = "L" if cmd == "M" else "l"  # implicit lineto after moveto
        rel = cmd.islower()
        op = cmd.upper()
        if op == "Z":
            # a tuple takes one float object as equal to itself, nan too,
            # which is how the points compared when they were objects
            piece = [(cx, cy), (sx, sy)] if (cx, cy) != (sx, sy) else []
            cx, cy = sx, sy
            prev_cubic = prev_quad = None
        else:
            n = _PATH_ARITY[op]
            args = tokens[i:i + n]
            if len(args) < n or any(isinstance(a, str) for a in args):
                raise VecfigError(f"command {cmd!r} needs {n} numbers")
            i += n
            if op == "A":
                # elliptical arcs never approximate ticks or axes
                args = args[5:]
                warnings.append(f"{id_prefix}: elliptical arc skipped")
            # the points the command names, made absolute
            if op == "H":
                pts = [(cx + args[0] if rel else args[0], cy)]
            elif op == "V":
                pts = [(cx, cy + args[0] if rel else args[0])]
            else:
                pts = [(cx + x, cy + y) if rel else (x, y)
                       for x, y in zip(args[0::2], args[1::2])]
            if op == "S" or op == "T":
                prev = prev_cubic if op == "S" else prev_quad
                pts.insert(0, (2 * cx - prev[0], 2 * cy - prev[1]) if prev else (cx, cy))
            if op == "C" or op == "S":
                (x1, y1), (x2, y2), (x3, y3) = pts
                piece = [(w0 * cx + w1 * x1 + w2 * x2 + w3 * x3,
                          w0 * cy + w1 * y1 + w2 * y2 + w3 * y3)
                         for w0, w1, w2, w3 in _CUBIC_WEIGHTS]
                prev_cubic, prev_quad = pts[1], None
            elif op == "Q" or op == "T":
                (x1, y1), (x2, y2) = pts
                piece = [(w0 * cx + w1 * x1 + w2 * x2, w0 * cy + w1 * y1 + w2 * y2)
                         for w0, w1, w2 in _QUADRATIC_WEIGHTS]
                prev_cubic, prev_quad = None, pts[0]
            else:
                piece = [(cx, cy), pts[0]] if op in "LHV" else []
                prev_cubic = prev_quad = None
            cx, cy = pts[-1]
            if op == "M":
                sx, sy = cx, cy
        if not piece:
            continue
        # one emitter for straight pieces and curve samples alike; only a
        # curve, with its 33 samples, is held to the deviation bound
        device = [(ta * x + tc * y + te, tb * x + td * y + tf) for x, y in piece]
        if len(device) > 2 and not _chord_deviation(device) <= CURVE_DEVIATION_TOL:
            warnings.append(f"{id_prefix}: curve exceeds deviation bound, skipped")
            continue
        (x1, y1), (x2, y2) = device[0], device[-1]
        if x1 != x2 or y1 != y2:
            rows.append((f"{id_prefix}.{len(rows)}", x1, y1, x2, y2))
    for column, values in zip((out.ids, out.x1, out.y1, out.x2, out.y2), zip(*rows)):
        column.extend(values)
    return out


# ---------------------------------------------------------------------------
# glyph-run composition

def compose_text_runs(raw_glyph_texts: list[TextRun]) -> list[TextRun]:
    """Merge per-glyph text elements back into whole runs.

    Runs sharing a baseline (within RUN_BASELINE_TOL glyph heights) and
    separated horizontally by at most RUN_GAP_TOL glyph heights are joined
    left to right, pieces at one anchor in input order.  Output is sorted by (y, x).
    """
    pending = sorted(raw_glyph_texts, key=lambda r: (r.anchor.y, r.anchor.x))

    # group by shared baseline: each run joins the first group, in creation
    # order, whose first run is close enough by the larger of their glyph
    # heights.  Groups are made in y order, so every group whose first run
    # lies within RUN_BASELINE_TOL times the run's own height above it can
    # take the run; bisect finds the first of them, by the same subtraction
    # the test makes.  An earlier group takes it only by its own, larger
    # height: ``live`` holds (index, first y, reach) of the groups whose own
    # reach may still take a run, in creation order, and one that a run is
    # past is out of reach of every later one.  Two equal infinite y
    # subtract to nan, which is neither near nor past.
    baselines: list[list[TextRun]] = []
    first_ys: list[float] = []
    live: collections.deque[tuple[int, float, float]] = collections.deque()
    for run in pending:
        y = run.anchor.y
        reach = RUN_BASELINE_TOL * run.glyph_height
        k = bisect.bisect_left(first_ys, -reach, key=lambda first_y: first_y - y)
        # bisect takes a nan distance as near
        if k < len(first_ys) and not y - first_ys[k] <= reach:
            k = len(first_ys)
        while live and y - live[0][1] > live[0][2]:
            live.popleft()
        if live and live[0][0] < k and y - live[0][1] <= live[0][2]:
            k = live[0][0]
        if k < len(baselines):
            baselines[k].append(run)
        else:
            live.append((k, y, reach))
            baselines.append([run])
            first_ys.append(y)

    # chain left-to-right within each baseline
    merged: list[TextRun] = []
    for group in baselines:
        group.sort(key=lambda r: r.anchor.x)
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


# the size in a ``font`` shorthand's value: its first token with a unit or
# "%" (a bare number there is a weight), up to a "/" that starts the line height
_FONT_RE = re.compile(r"(?<!\S)([\d.]+(?:[a-z]+|%))(?![^\s/])", re.IGNORECASE)
# a size relative to the inherited one: a number, then "em" or "%"
_RELATIVE_SIZE_RE = re.compile(rf"\s*(?:{_NUM_RE.pattern})(em|%)\s*", re.IGNORECASE)


def _presentation(elem: ET.Element, inherited: float) -> float | None:
    """``elem``'s font size, or None when its ``display`` is none.

    The ``display`` and ``font-size`` attributes are read, then the ``style``
    declarations in order: a declaration beats an attribute, and the last
    declaration wins.  The size is the last of ``font-size`` or a ``font``
    shorthand's that gives a number that is not negative; "em" and "%"
    scale ``inherited``, and no size gives ``inherited``.
    """
    display = elem.get("display")
    sizes = [elem.get("font-size")]
    for declaration in elem.get("style", "").split(";"):
        name, _, value = declaration.partition(":")
        name = name.strip().lower()
        if name == "display":
            display = value
        elif name == "font-size":
            sizes.append(value)
        elif name == "font" and (m := _FONT_RE.search(value)):
            sizes.append(m.group(1))
    if display is not None and display.strip().lower() == "none":
        return None
    for text in reversed(sizes):
        size = _parse_length(text)
        # CSS allows no negative size, so such a declaration sets nothing
        if size is not None and size >= 0:
            if relative := _RELATIVE_SIZE_RE.fullmatch(text):
                size *= inherited
                if relative.group(1) == "%":
                    size /= 100
            return size
    return inherited


# elements whose children are walked as if they were the element's
_CONTAINERS = ("g", "svg", "a", "switch")
# elements that draw nothing themselves and are not descended into
_NON_RENDERING = ("defs", "title", "desc", "metadata", "clipPath", "marker",
                  "symbol", "pattern", "linearGradient", "radialGradient",
                  "filter", "mask", "script")


class _LocalNames(dict):
    """Qualified tag -> local name, each tag split once, on first lookup."""

    def __missing__(self, tag: str) -> str:
        name = self[tag] = _local_name(tag)
        return name


def _marker_run(t: AffineTransform, rx_text: str | None, ry_text: str | None,
                ) -> tuple:
    """What every marker of one run shares.

    A run is a row of circles and ellipses under the transform ``t`` whose
    radius texts are ``rx_text`` and ``ry_text`` (a circle's ``r`` twice).
    Returns ``(t, rx_text, ry_text, skip, a, b, c, d, e, f, radius)``:
    ``skip`` is the warning each marker of the run is skipped with, or None;
    ``a`` to ``f`` are the entries of ``t`` and ``radius`` the device radius.
    """
    rx = _parse_length(rx_text) or 0.0
    ry = _parse_length(ry_text) or 0.0
    skip = None
    radius = 0.0
    # an overflowing radius is degenerate too: times the transform's zero
    # entries it would give nan semi-axes
    if not (0 < rx < math.inf and 0 < ry < math.inf):
        skip = f"degenerate circle/ellipse skipped (r={rx},{ry})"
    else:
        # image of the ellipse under the linear part; semi-axes are the
        # singular values of L * diag(rx, ry)
        s1, s2 = _singular_values(t.a * rx, t.b * rx, t.c * ry, t.d * ry)
        # finite radii can still overflow under the transform; s1 is the
        # larger semi-axis and never nan
        if s1 == math.inf:
            skip = f"degenerate circle/ellipse skipped (r={rx},{ry})"
        elif s1 <= 0 or (s1 - s2) / s1 > ELLIPSE_CIRCLE_TOL:
            skip = f"non-circular ellipse skipped (semi-axes {s1:.3g}, {s2:.3g})"
        else:
            radius = math.sqrt(s1 * s2)
    return (t, rx_text, ry_text, skip, t.a, t.b, t.c, t.d, t.e, t.f, radius)


class _Parser:
    def __init__(self) -> None:
        self.doc = FigureDocument()
        self._counter = 0
        self.names = _LocalNames()
        # the run of circles and ellipses the last marker belonged to
        self._run = _marker_run(IDENTITY, None, None)

    def _gen_id(self, elem: ET.Element, kind: str) -> str:
        eid = elem.get("id")
        if eid:
            return eid
        self._counter += 1
        return f"{kind}-{self._counter}"

    def walk(self, elem: ET.Element, transform: AffineTransform, font_size: float | None,
             closed: bool = True) -> None:
        """Read and drop the children of ``elem`` that the parser finished.

        ``transform`` is ``elem``'s composed transform and ``font_size`` its
        font size, None when it is hidden (see _presentation).  Once the
        parser is ``closed`` every child is finished; before, the last may
        still be open, so it waits.  A last child that is a container is gone
        down into, one call per level, so nesting too deep to walk fails
        while open as it would once closed; any other (<text>, <defs>) waits whole.
        A hidden element is not read: once closed it is skipped with a
        warning, and while open its finished descendants are dropped unread.

        Every child is dispatched by one chain of tag tests.  Lines,
        circles and ellipses, the bulk of a dense or gridded figure, come
        first and go straight into the segment and marker columns.  Their
        coordinates are read by float() where it reads them as
        _parse_length does (a plain finite number without "_"), and by
        _parse_length otherwise.  A marker's radius, checks and transform
        entries are worked out once per run (see _marker_run); a line's
        transform entries are read once per transform.  Paths, rects,
        polylines and polygons become segments through _flatten_tokens.
        """
        names = self.names
        doc = self.doc
        warn = doc.warnings.append
        if font_size is None:
            if closed:
                warn(f"display:none <{names[elem.tag]}> skipped")
                return
            while len(elem):
                del elem[:-1]
                elem = elem[-1]
            return
        n = len(elem) if closed else len(elem) - 1
        if n > 0:
            # bound only for a child to read: an open container often has none
            markers = doc.circles
            m_id, m_cx, m_cy, m_r = (markers.ids.append, markers.cx.append,
                                     markers.cy.append, markers.r.append)
            segments = doc.segments
            s_id, s_x1, s_y1, s_x2, s_y2 = (segments.ids.append, segments.x1.append,
                                            segments.y1.append, segments.x2.append,
                                            segments.y2.append)
            run_t, run_rx, run_ry, skip, ma, mb, mc, md, me, mf, radius = self._run
            # the transform the last line was drawn under; its entries are la to lf
            line_t = None
            nan = math.nan
        for child in elem[:n]:
            tag = names[child.tag]
            get = child.get
            t_attr = get("transform")
            t = _compose(transform, t_attr) if t_attr else transform
            if tag == "line":
                x1_text, y1_text = get("x1"), get("y1")
                x2_text, y2_text = get("x2"), get("y2")
                try:
                    px1 = float(x1_text) or 0.0
                    py1 = float(y1_text) or 0.0
                    px2 = float(x2_text) or 0.0
                    py2 = float(y2_text) or 0.0
                except (TypeError, ValueError):
                    px1 = py1 = px2 = py2 = nan
                # a nan or an infinity among them makes the sum nan
                if (px1 - px1 + py1 - py1 + px2 - px2 + py2 - py2 != 0.0 or "_" in x1_text
                        or "_" in y1_text or "_" in x2_text or "_" in y2_text):
                    px1 = _parse_length(x1_text) or 0.0
                    py1 = _parse_length(y1_text) or 0.0
                    px2 = _parse_length(x2_text) or 0.0
                    py2 = _parse_length(y2_text) or 0.0
                if t is not line_t:
                    line_t = t
                    la, lb, lc, ld, le, lf = t.a, t.b, t.c, t.d, t.e, t.f
                x1 = la * px1 + lc * py1 + le
                y1 = lb * px1 + ld * py1 + lf
                x2 = la * px2 + lc * py2 + le
                y2 = lb * px2 + ld * py2 + lf
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
            elif tag == "circle" or tag == "ellipse":
                if tag == "circle":
                    rx_text = ry_text = get("r")
                else:
                    rx_text, ry_text = get("rx"), get("ry")
                if t is not run_t or rx_text != run_rx or ry_text != run_ry:
                    self._run = _marker_run(t, rx_text, ry_text)
                    run_t, run_rx, run_ry, skip, ma, mb, mc, md, me, mf, radius = self._run
                if skip:
                    warn(skip)
                    continue
                cx_text, cy_text = get("cx"), get("cy")
                try:
                    cx = float(cx_text) or 0.0
                    cy = float(cy_text) or 0.0
                except (TypeError, ValueError):
                    cx = cy = nan
                if cx - cx + cy - cy != 0.0 or "_" in cx_text or "_" in cy_text:
                    cx = _parse_length(cx_text) or 0.0
                    cy = _parse_length(cy_text) or 0.0
                eid = get("id")
                if not eid:
                    self._counter += 1
                    eid = f"circle-{self._counter}"
                m_id(eid)
                m_cx(ma * cx + mc * cy + me)
                m_cy(mb * cx + md * cy + mf)
                m_r(radius)
            elif tag in _CONTAINERS:
                self.walk(child, t, _presentation(child, font_size))
            elif tag == "text":
                self._read_text(child, t, _presentation(child, font_size))
            elif tag == "path" or tag == "polyline" or tag == "polygon":
                text = get("d" if tag == "path" else "points", "")
                if not text.strip():
                    warn(f"empty {tag} skipped")
                    continue
                tokens = _tokenize_path(text)
                if tag != "path":
                    if str in map(type, tokens):
                        raise VecfigError(f"command letter in points: {text!r}")
                    tokens = ["M", *tokens, "Z"] if tag == "polygon" else ["M", *tokens]
                _flatten_tokens(tokens, t, self._gen_id(child, tag), doc.warnings, segments)
            elif tag == "rect" or tag == "image":
                x = _parse_length(get("x")) or 0.0
                y = _parse_length(get("y")) or 0.0
                w = _parse_length(get("width")) or 0.0
                h = _parse_length(get("height")) or 0.0
                if w <= 0 or h <= 0:
                    warn(f"degenerate {tag} skipped")
                    continue
                if tag == "rect":
                    # floats, not text: an overflowing x + w stays an infinite side
                    _flatten_tokens(["M", x, y, "L", x + w, y, x + w, y + h, x, y + h, "Z"],
                                    t, self._gen_id(child, tag), doc.warnings, segments)
                    continue
                corners = [t.apply_xy(x, y), t.apply_xy(x + w, y),
                           t.apply_xy(x + w, y + h), t.apply_xy(x, y + h)]
                xs = [p.x for p in corners]
                ys = [p.y for p in corners]
                doc.rasters.append(Rect(min(xs), min(ys), max(xs), max(ys)))
            elif tag == "use":
                warn("<use> indirection not supported, skipped")
            elif tag == "style":
                warn("CSS stylesheet ignored")
            elif tag not in _NON_RENDERING:
                warn(f"unsupported element <{tag}> skipped")
        del elem[:n]
        if len(elem) and names[elem[-1].tag] in _CONTAINERS:
            last = elem[-1]
            t_attr = last.get("transform")
            t = _compose(transform, t_attr) if t_attr else transform
            self.walk(last, t, _presentation(last, font_size), False)

    def _read_text(self, elem: ET.Element, t: AffineTransform, fs: float | None) -> None:
        """Read a <text> as one run per stretch of pieces at one anchor.

        The text keeps one current text position, as SVG does.  A <text>,
        <tspan> or <a> that gives x or y moves it; a coordinate it does not
        give is kept.  The element's text, its children and the text after
        each child (its tail) continue at the position as it stands:
        ``1<tspan x="50">2</tspan><tspan>3</tspan>`` in a <text x="5"
        y="100"> reads "1" at (5, 100) and "23" at (50, 100).  Without
        glyph advances the position is where the stretch began, not where
        its last glyph ended.  The pieces of a stretch join before their
        text is stripped, once, as SVG's default xml:space strips a text as
        a whole: "2 " and "5" read "2 5".  A run takes the largest glyph
        height of its pieces that are not blank.  A hidden piece is skipped
        with a warning and moves nothing.
        """
        stretches: list[list] = []
        self._collect_text(elem, t, fs, stretches, (0.0, 0.0, None))
        for anchor, text, height in stretches:
            content = text.strip()
            if content:
                self.doc.texts.append(TextRun(anchor, content, height))

    def _collect_text(self, elem: ET.Element, t: AffineTransform, fs: float | None,
                      stretches: list[list], position: tuple) -> tuple:
        """Add ``elem``'s pieces to ``stretches``, each [anchor, text, height].

        ``position`` is the current text position, (x, y, anchor): x and y in
        user units, anchor their device point, made once per move and None
        before the first.  Returns the position the text after ``elem``
        continues at; a hidden ``elem`` (``fs`` is None) leaves it as it was.
        """
        if fs is None:
            self.doc.warnings.append(f"display:none <{self.names[elem.tag]}> skipped")
            return position
        x = _parse_length(elem.get("x"))
        y = _parse_length(elem.get("y"))
        if x is not None or y is not None:
            x = position[0] if x is None else x
            y = position[1] if y is None else y
            position = (x, y, t.apply_xy(x, y))
        height = fs * math.sqrt(abs(t.determinant))
        self._add_piece(elem.text, position[2], height, stretches)
        for child in elem:
            tag = self.names[child.tag]
            if tag == "tspan" or tag == "a":
                ct_attr = child.get("transform")
                ct = _compose(t, ct_attr) if ct_attr else t
                position = self._collect_text(child, ct, _presentation(child, fs), stretches,
                                              position)
            else:
                self.doc.warnings.append(f"unsupported element <{tag}> in text skipped")
            self._add_piece(child.tail, position[2], height, stretches)
        return position

    def _add_piece(self, text: str | None, anchor: Point | None, height: float,
                   stretches: list[list]) -> None:
        """Add a piece of text to the stretch at ``anchor``."""
        if not text:
            return
        if anchor is None:
            if not text.isspace():
                self.doc.warnings.append("text without anchor skipped")
            return
        if not (stretches and stretches[-1][0] is anchor):
            stretches.append([anchor, "", None])
        last = stretches[-1]
        last[1] += text
        if not text.isspace():
            last[2] = height if last[2] is None else max(last[2], height)


def _canvas_rect(root: ET.Element, doc: FigureDocument) -> Rect:
    # a canvas with an infinite side would leave every primitive far out of
    # it, so such a size is passed over like a missing one, and named
    non_finite: list[str] = []
    viewbox = root.get("viewBox")
    if viewbox:
        nums = [float(m.group(0)) for m in _NUM_RE.finditer(viewbox)]
        if len(nums) == 4 and nums[2] > 0 and nums[3] > 0:
            x0, y0 = nums[0], nums[1]
            x1, y1 = x0 + nums[2], y0 + nums[3]
            if all(map(math.isfinite, (x0, y0, x1, y1))):
                return Rect(x0, y0, x1, y1)
            non_finite.append("viewBox")
    w = _parse_length(root.get("width"))
    h = _parse_length(root.get("height"))
    if w and h and 0 < w < math.inf and 0 < h < math.inf:
        return Rect(0.0, 0.0, w, h)
    if math.isinf(w or 0) or math.isinf(h or 0):
        non_finite.append("width/height")
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
        xs += [r.x0, r.x1]
        ys += [r.y0, r.y1]
    for t in doc.texts:
        xs.append(t.anchor.x)
        ys.append(t.anchor.y)
    # min and max return their first argument against a nan, and an
    # infinite bound makes an infinite canvas: neither may decide it
    xs = list(filter(math.isfinite, xs))
    ys = list(filter(math.isfinite, ys))
    if xs and ys and (max(xs) > min(xs) or max(ys) > min(ys)):
        cause = ("non-finite " + "/".join(non_finite) if non_finite
                 else "no viewBox/width/height")
        doc.warnings.append(f"{cause}; canvas from content bounds")
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

    # one byte per circle and segment says whether it fits; only when one
    # does not is an index list built and the columns copied
    circles = doc.circles
    fits = bytes(x_lo <= x - r and x + r <= x_hi and y_lo <= y - r and y + r <= y_hi
                 for x, y, r in zip(circles.cx, circles.cy, circles.r))
    if 0 in fits:
        doc.circles = circles.take([i for i, fit in enumerate(fits) if fit])
        doc.warnings.append(f"{fits.count(0)} far-out-of-canvas circles discarded")
    segments = doc.segments
    # each end on its own, so that a nan coordinate at either end drops it
    fits = bytes(x_lo <= x1 <= x_hi and x_lo <= x2 <= x_hi
                 and y_lo <= y1 <= y_hi and y_lo <= y2 <= y_hi
                 for x1, y1, x2, y2 in zip(segments.x1, segments.y1, segments.x2, segments.y2))
    if 0 in fits:
        doc.segments = segments.take([i for i, fit in enumerate(fits) if fit])
        doc.warnings.append(f"{fits.count(0)} far-out-of-canvas segments discarded")
    rasters = doc.rasters
    kept = [r for r in rasters if x_lo <= r.x0 and r.x1 <= x_hi and y_lo <= r.y0 and r.y1 <= y_hi]
    if len(kept) != len(rasters):
        doc.rasters = kept
        doc.warnings.append(f"{len(rasters) - len(kept)} far-out-of-canvas rasters discarded")
    texts = doc.texts
    kept = [t for t in texts if x_lo <= t.anchor.x <= x_hi and y_lo <= t.anchor.y <= y_hi]
    if len(kept) != len(texts):
        doc.texts = kept
        doc.warnings.append(f"{len(texts) - len(kept)} far-out-of-canvas texts discarded")


def parse_svg(data: bytes) -> FigureDocument:
    """Parse SVG bytes into a flat device-space FigureDocument.

    The source is fed to the XML parser _FEED_BYTES at a time, and after
    each piece the elements it finished are walked and dropped, so the
    whole element tree never exists: the traced peak is the columns plus
    about one piece's elements, 1.3 times the source at 20,000 markers and
    5.1 times at 1,000 gridlines.  Errors rank as if the whole source were
    parsed before the walk: a malformed-XML error first, then the first
    error the walk meets.  Raw per-glyph text elements are composed into
    runs before the document is returned.  Raises VecfigError for malformed
    XML (also for nesting too deep to walk), a root that is not <svg>, a
    degenerate transform (also for non-finite arguments) or bad path data.
    """
    parser = _Parser()
    pull = ET.XMLPullParser(events=("start",))
    source = memoryview(data)
    root = root_t = root_fs = failure = None
    try:
        # the pass after the last piece closes the parser: expat may hold
        # back an unfinished token, the root's start tag too, until then
        for start in range(0, len(source) + _FEED_BYTES, _FEED_BYTES):
            closed = start >= len(source)
            if closed:
                pull.close()
            else:
                pull.feed(source[start:start + _FEED_BYTES])
            # a queued event keeps its element alive
            for _, elem in pull.read_events():
                if root is None:
                    root = elem
            # no walk after a failure; the last piece's elements wait for
            # the close, so that a one-piece figure is walked once
            if (root is None or failure is not None
                    or start < len(source) <= start + _FEED_BYTES):
                continue
            try:
                if root_t is None:
                    name = parser.names[root.tag]
                    if name != "svg":
                        raise VecfigError(f"root element is <{name}>, not <svg>")
                    t_attr = root.get("transform")
                    root_t = parse_transform(t_attr) if t_attr else IDENTITY
                    root_fs = _presentation(root, DEFAULT_FONT_SIZE)
                parser.walk(root, root_t, root_fs, closed)
            except RecursionError:
                failure = VecfigError("elements nested too deeply to walk")
            except VecfigError as exc:
                failure = exc
    except ET.ParseError as exc:
        raise VecfigError(str(exc)) from exc
    if failure is not None:
        raise failure
    doc = parser.doc
    doc.root_transform = root_t
    doc.canvas = _canvas_rect(root, doc)
    _drop_out_of_canvas(doc)
    doc.texts = compose_text_runs(doc.texts)
    return doc
