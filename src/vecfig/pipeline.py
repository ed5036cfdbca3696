"""Corpus project model and the figure-to-CSV batch pipeline.

A corpus is a directory of per-document trees, each holding the source
document and one folder per clipped figure
(``<tree>/figures/figure<N>/figure.svg``).  The pipeline restructures raw
input folders into that layout, runs extraction per figure, and writes a
CSV, an annotated SVG and a JSON report next to each source figure.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
import shutil
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

from . import axis_detection, point_extraction, svg_model
from .axis_detection import AxisSide, PlotBox, TickLabel, TickMark
from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import Status, VecfigError, WorkerDied
from .point_extraction import DataPoint
from .svg_model import IDENTITY, AffineTransform, Markers

DEFAULT_FIGURE_FILTER = r"^.*figures/figure(\d+)/figure(_\d+)?\.svg$"


@dataclass(frozen=True)
class CorpusProject:
    root: Path
    trees: list[Path]  # the tree folders, sorted


@dataclass
class ExtractionReport:
    tree_id: str
    figure_index: int
    status: Status
    n_points: int = 0
    x_reversed: bool = False
    y_reversed: bool = False
    x_residual: float = 0.0
    y_residual: float = 0.0
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {**asdict(self), "status": self.status.value}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExtractionReport":
        """Raises ValueError for text that is not a JSON object holding every field."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
        missing = [f.name for f in fields(cls) if f.name not in raw]
        if missing:
            raise ValueError(f"missing field {missing[0]!r}")
        values = {f.name: raw[f.name] for f in fields(cls)}
        return cls(**{**values, "status": Status(raw["status"])})


# ---------------------------------------------------------------------------
# project layout

def scan_project(root: str | Path) -> CorpusProject:
    """Scan an existing corpus directory into a CorpusProject."""
    root = Path(root)
    return CorpusProject(root=root, trees=sorted(p for p in root.iterdir() if p.is_dir()))


_TEMPLATE_GROUP_RE = re.compile(r"\(\\(\d+)\)|\\(\d+)")


def _substitute_template(template: str, match: re.Match) -> str:
    def repl(m: re.Match) -> str:
        group_no = int(m.group(1) or m.group(2))
        if group_no > len(match.groups()):
            raise VecfigError(
                f"template references group {group_no}, filter defines "
                f"{len(match.groups())}")
        return match.group(group_no) or ""
    return _TEMPLATE_GROUP_RE.sub(repl, template)


def make_project(root: str | Path, file_filter: str, template: str) -> CorpusProject:
    """Restructure files under ``root`` into the corpus tree layout.

    Each file whose path matches ``file_filter`` moves to the path built by
    substituting its capture groups into ``template`` (``(\\1)`` or ``\\1``
    syntax), relative to root.  Collisions abort before any file moves: two
    files with one destination, or a destination that exists (another file
    of this call too) and is not the file itself.  So does a destination
    that is absolute or has a ".." part, which could leave the project.
    """
    root = Path(root)
    pattern = _compile_filter(file_filter)
    destinations: dict[Path, Path] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        m = pattern.match(path.as_posix())
        if not m:
            continue
        relative = Path(_substitute_template(template, m))
        if relative.is_absolute() or ".." in relative.parts:
            raise VecfigError(f"{path} would move out of {root} to {relative}")
        dest = root / relative
        if dest in destinations:
            raise VecfigError(
                f"{path} and {destinations[dest]} both map to {dest}")
        if dest != path and dest.exists():
            raise VecfigError(f"{path} would overwrite {dest}")
        destinations[dest] = path
    for dest, src in destinations.items():
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(src), str(dest))
    return scan_project(root)


def _compile_filter(file_filter: str) -> re.Pattern:
    try:
        return re.compile(file_filter)
    except re.error as exc:
        raise VecfigError(f"filter {file_filter!r} does not compile: {exc}") from None


def enumerate_figures(project: CorpusProject, figure_filter: str,
                      ) -> list[tuple[str, int, Path]]:
    """Every SVG under a tree whose path matches the filter, as (tree name, index, path).

    The filter's first capture group must be the numeric figure index.
    """
    pattern = _compile_filter(figure_filter)
    if pattern.groups < 1:
        raise VecfigError("figure filter needs a capture group for the index")
    out: list[tuple[str, int, Path]] = []
    for tree in project.trees:
        for svg in tree.rglob("*.svg"):
            m = pattern.match(svg.as_posix())
            if m:
                try:
                    index = int(m.group(1))
                except (TypeError, ValueError):  # group 1 did not take part, or is text
                    raise VecfigError(
                        f"figure filter {figure_filter!r}: group 1 of {svg.as_posix()} "
                        f"is {m.group(1)!r}, not an integer index") from None
                out.append((tree.name, index, svg))
    out.sort(key=lambda item: (item[0], item[1], item[2].as_posix()))
    return out


# ---------------------------------------------------------------------------
# single-figure extraction

def extract_figure(svg_path: str | Path, config: PipelineConfig = DEFAULT_CONFIG,
                   tree_id: str = "", figure_index: int = 0,
                   ) -> tuple[list[DataPoint], bytes, ExtractionReport]:
    """Run the full detection chain on one figure.

    Stage failures never raise; they surface as the report status, with a
    best-effort annotated SVG of whatever was detected up to that point.
    """
    svg_bytes = Path(svg_path).read_bytes()
    report = ExtractionReport(tree_id=tree_id, figure_index=figure_index,
                              status=Status.PARSE_ERROR)
    # what the overlay draws, each in device space; a failed stage leaves
    # the overlay what the stages before it found
    root_transform, box, ticks, pairs, markers = IDENTITY, None, [], [], Markers()
    points: list[DataPoint] = []
    try:
        doc = svg_model.parse_svg(svg_bytes)
        report.warnings.extend(doc.warnings)
        root_transform = doc.root_transform

        box = axis_detection.detect_plot_box(doc, config)
        ticks = axis_detection.detect_ticks(doc, box, config)
        labels = [lab for run in doc.texts
                  if (lab := axis_detection.parse_numeric_label(run))]
        xpairs = axis_detection.match_ticks_to_labels(
            ticks, labels, box, AxisSide.X_AXIS, config)
        ypairs = axis_detection.match_ticks_to_labels(
            ticks, labels, box, AxisSide.Y_AXIS, config)
        pairs = xpairs + ypairs
        xcal = axis_detection.calibrate_axis(xpairs, AxisSide.X_AXIS, config)
        ycal = axis_detection.calibrate_axis(ypairs, AxisSide.Y_AXIS, config)
        report.x_reversed = xcal.reversed
        report.y_reversed = ycal.reversed
        report.x_residual = xcal.rms_residual
        report.y_residual = ycal.rms_residual
        # a line through two pairs has zero residual, so the gate that
        # rejects log axes cannot have fired on such an axis
        for cal in (xcal, ycal):
            if cal.n_ticks == 2:
                report.warnings.append(f"linearity_unverified: {cal.side.value}")

        if point_extraction.detect_raster_body(doc, box, config):
            report.status = Status.RASTER_BODY
        else:
            cluster = point_extraction.select_data_glyphs(doc, box, config)
            points = point_extraction.map_to_data(cluster, xcal, ycal)
            markers = cluster.members
            report.status = Status.OK
            report.n_points = len(points)
    except VecfigError as exc:
        report.status = exc.status
        report.warnings.append(str(exc))

    annotated = _annotate_svg(svg_bytes, root_transform, box, ticks, pairs, markers)
    if annotated is svg_bytes and box is not None:
        report.warnings.append("overlay not spliced: no root end tag")
    return points, annotated, report


# every kind of markup that may hold an end tag's text, skipped whole, and
# the end tag of an element named svg, captured; all open with the one "<"
# in front, which keeps the search for it fast
_MARKUP_RE = re.compile(
    rb"<(?:(/(?:[\w.-]+:)?svg\s*)|!--.*?--|!\[CDATA\[.*?\]\]|\?.*?\?"
    rb"|!DOCTYPE(?:[^\[>\"']|\"[^\"]*\"|'[^']*')*"
    rb"(?:\[[^\]\"'<]*(?:(?:\"[^\"]*\"|'[^']*'|<!--.*?-->|<\?.*?\?>|<)[^\]\"'<]*)*\]\s*)?"
    rb")>", re.DOTALL)

# marker rings are encoded and written this many at a time, so the overlay
# never exists whole as text
_RINGS_PER_WRITE = 1024


def _root_end(svg_bytes: bytes) -> int:
    """Offset of the root's end tag; -1 when it has none.

    The source is well-formed, as ET.fromstring accepted it, and its root
    is an svg element, as parse_svg accepted it.  Outside markup XML never
    writes "<" literally, so a scan from the front that skips comments,
    CDATA sections, PIs and the DOCTYPE whole sees every end tag, and the
    root's is the last.  A self-closing root has none, and an encoding that
    is not ASCII-compatible shows none.
    """
    end = -1
    for m in _MARKUP_RE.finditer(svg_bytes):
        if m.group(1):
            end = m.start()
    return end


def _annotate_svg(svg_bytes: bytes, root_transform: AffineTransform, box: PlotBox | None,
                  ticks: list[TickMark], pairs: list[tuple[TickMark, TickLabel]],
                  markers: Markers) -> bytes:
    """Splice an overlay of the detected structure into the source bytes.

    One ``<g id="vecfig-overlay">`` goes just before the root's end tag, so
    every source byte is kept.  It draws the plot box dashed red, ticks
    green, labels blue and markers orange, in device coordinates: the group
    undoes the root's own transform, which its children would otherwise
    inherit a second time.  The source object itself comes back when no
    plot box was found, or when it has no root end tag to splice before (a
    self-closing root, an encoding that is not ASCII-compatible).

    The result is written once, into one buffer: the source goes in as
    slices of a memoryview, the overlay in pieces of _RINGS_PER_WRITE rings.
    """
    if box is None:
        return svg_bytes
    end = _root_end(svg_bytes)
    if end < 0:
        return svg_bytes

    def ring_tail(r: float, color: str) -> str:
        return f' r="{_num(r)}" stroke="{color}" stroke-width="0.8"/>'

    inner = box.interior
    transform = ""
    if root_transform != IDENTITY:
        inverse = astuple(root_transform.inverse())
        transform = f' transform="matrix({",".join(map(_num, inverse))})"'
    source = memoryview(svg_bytes)
    out = io.BytesIO()
    out.write(source[:end])
    out.write((f'<g xmlns="{svg_model.SVG_NS}" id="vecfig-overlay" fill="none"{transform}>'
               f'<rect x="{_num(inner.x0)}" y="{_num(inner.y0)}" '
               f'width="{_num(inner.width)}" height="{_num(inner.height)}" '
               f'stroke="#d62728" stroke-width="1" stroke-dasharray="4 2"/>').encode("ascii"))
    # ticks, labels and markers are rings alike: centre columns and a tail
    # per ring; markers mostly share a few radii, so each tail is made once
    on_x = [tick.side is AxisSide.X_AXIS for tick in ticks]
    labels = [label.anchor for _, label in pairs]
    tails = {r: ring_tail(r + 1.5, "#ff7f0e") for r in set(markers.r)}
    rings = [([tick.position if x else inner.x0 for tick, x in zip(ticks, on_x)],
              [inner.y1 if x else tick.position for tick, x in zip(ticks, on_x)],
              itertools.repeat(ring_tail(2, "#2ca02c"))),
             ([p.x for p in labels], [p.y for p in labels],
              itertools.repeat(ring_tail(3, "#1f77b4"))),
             (markers.cx, markers.cy, map(tails.__getitem__, markers.r))]
    for xs, ys, ring_tails in rings:
        for start in range(0, len(xs), _RINGS_PER_WRITE):
            stop = start + _RINGS_PER_WRITE
            out.write("".join([
                f'<circle cx="{x}" cy="{y}"{tail}' for x, y, tail
                in zip(_nums(xs[start:stop]), _nums(ys[start:stop]), ring_tails)
            ]).encode("ascii"))
    out.write(b"</g>")
    out.write(source[end:])
    return out.getvalue()


# ---------------------------------------------------------------------------
# CSV output

def _num(value: float) -> str:
    """Shortest decimal form round-tripping the 9-significant-digit value."""
    text = f"{value:.9g}"
    # with a fraction and no exponent, the 9-digit text is already the
    # shortest form: no shorter decimal is the same double
    if "." in text and "e" not in text:
        return text
    target = float(text)
    if target == int(target) and abs(target) < 1e16:
        return str(int(target))
    return repr(target)


def _nums(values: list[float]) -> list[str]:
    """``[_num(v) for v in values]``, in one %-operation where that is the same.

    The 9-digit text of a value is already its _num text, except with an
    exponent, for nan and inf (where _num raises) and for -0: one search
    of the whole block for "e", "n" and the token "-0" rules those out, and
    only the tokens that hold one go through _num.
    """
    text = ("%.9g " * len(values)) % tuple(values)
    if "e" in text or "n" in text or "-0 " in text:
        return [_num(v) if "e" in t or "n" in t or t == "-0" else t
                for t, v in zip(text.split(), values)]
    return text.split()


def write_csv(points: list[DataPoint], destination: str | Path) -> None:
    """Write ``x,y,device_radius`` rows as UTF-8 CSV with LF endings."""
    lines = ["x,y,device_radius"]
    lines += [f"{x},{y},{r}" for x, y, r in zip(_nums([p.x for p in points]),
                                                _nums([p.y for p in points]),
                                                _nums([p.device_radius for p in points]))]
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_points(path: str | Path) -> list[tuple[float, ...]]:
    """Read back a pipeline or truth CSV as tuples of floats.

    A cell that is not a finite number, or a row of fewer than two cells,
    raises a ValueError that starts with ``<path>:<line>:``.
    """
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    points = []
    for lineno, line in enumerate(rows[1:], 2):
        if not line.strip():
            continue
        try:
            point = tuple(float(cell) for cell in line.split(","))
            if not all(map(math.isfinite, point)):
                raise ValueError(f"not a finite number in {line!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if len(point) < 2:
            raise ValueError(f"{path}:{lineno}: expected at least two cells, got {line!r}")
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# batch runner

def run_project(project: CorpusProject, figure_filter: str,
                config: PipelineConfig, output_root: str | Path,
                ) -> list[ExtractionReport]:
    """Extract every enumerated figure; one failure never stops the batch.

    Outputs mirror the input tree layout under ``output_root``; a summary
    JSON aggregating statuses lands at the output root.  A figure folder
    holds one figure: two sources whose outputs would go to one folder
    raise VecfigError before any figure runs.  Figures run in one worker
    process per CPU this process may run on (see ``_map_guarded``); the
    reports come back in enumeration order, so the outputs and the reports
    are those of a serial run.
    """
    output_root = Path(output_root)
    jobs = []
    sources: dict[Path, Path] = {}
    for tree_id, index, svg in enumerate_figures(project, figure_filter):
        out_dir = output_root / svg.parent.relative_to(project.root)
        if out_dir in sources:
            raise VecfigError(f"{sources[out_dir]} and {svg} both write to {out_dir}")
        sources[out_dir] = svg
        jobs.append((tree_id, index, svg, config, out_dir))
    reports = _map_guarded(jobs)
    summary = {
        "n_figures": len(reports),
        "statuses": {s.value: sum(1 for r in reports if r.status is s)
                     for s in Status},
        "figures": [{"tree_id": r.tree_id, "figure_index": r.figure_index,
                     "status": r.status.value, "n_points": r.n_points}
                    for r in reports],
    }
    output_root.mkdir(parents=True, exist_ok=True)
    (output_root / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return reports


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_guarded(jobs: list[tuple]) -> list[ExtractionReport]:
    """``_run_guarded`` over each job's arguments, the reports in job order.

    The jobs run in forked worker processes, one per CPU and at most one
    per job.  They run here, one after another, with one CPU or one job,
    where ``fork`` is not offered, where this process runs other threads
    (which ``fork`` cannot safely copy) or where the pool cannot start (a
    fork or a pipe refused).  A worker that dies raises ``WorkerDied``.
    """
    workers = min(_cpu_count(), len(jobs))
    if workers > 1:
        # imported here: the pool modules take tens of ms to import, which
        # an import of vecfig and a serial run should not pay
        import multiprocessing
        import threading
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            # fork starts a worker in milliseconds with vecfig imported;
            # spawn and forkserver import it again in every worker
            context = multiprocessing.get_context("fork")
            children = set(multiprocessing.active_children())
            try:
                with ProcessPoolExecutor(workers, mp_context=context) as pool:
                    return list(pool.map(_run_guarded, *zip(*jobs),
                                         chunksize=max(1, len(jobs) // (8 * workers))))
            except BrokenProcessPool as exc:
                raise WorkerDied(f"a worker process died: {exc}") from exc
            except OSError:
                # the workers that did start are stopped: the serial run
                # after this writes every figure's files afresh
                for child in set(multiprocessing.active_children()) - children:
                    child.terminate()
                    child.join()
    return list(itertools.starmap(_run_guarded, jobs))


def _run_guarded(tree_id: str, index: int, svg: Path, config: PipelineConfig,
                 out_dir: Path) -> ExtractionReport:
    annotated: bytes | None = None
    try:
        points, annotated, report = extract_figure(
            svg, config, tree_id=tree_id, figure_index=index)
    except Exception as exc:  # isolation: a broken figure must not kill the batch
        points, report = [], ExtractionReport(tree_id=tree_id, figure_index=index,
                                              status=Status.PARSE_ERROR,
                                              warnings=[f"unhandled: {exc}"])
    try:
        _write_outputs(out_dir, points, annotated, report)
        return report
    except OSError as exc:
        # a figure that could not be read stays parse_error; either way its
        # earlier warnings are kept
        status = (report.status if report.status is Status.PARSE_ERROR
                  else Status.WRITE_ERROR)
        warnings = report.warnings + [f"write failed: {exc}"]
    except Exception as exc:  # no known input: map_to_data rejects a non-finite value first
        status, warnings = Status.PARSE_ERROR, [f"unhandled: {exc}"]
    report = ExtractionReport(tree_id=tree_id, figure_index=index,
                              status=status, warnings=warnings)
    try:
        _write_outputs(out_dir, [], None, report)
    except OSError:
        pass
    return report


def _write_outputs(out_dir: Path, points: list[DataPoint], annotated: bytes | None,
                   report: ExtractionReport) -> None:
    """The figure's CSV, its annotated SVG (unless None) and its report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(points, out_dir / "figure.csv")
    if annotated is not None:
        (out_dir / "figure_annotated.svg").write_bytes(annotated)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
