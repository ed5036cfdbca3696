"""Corpus project model and the figure-to-CSV batch pipeline.

A corpus is a directory of per-document trees, each holding the source
document and one folder per clipped figure
(``<tree>/figures/figure<N>/figure.svg``).  The pipeline restructures raw
input folders into that layout, runs extraction per figure, and writes a
CSV, an annotated SVG and a JSON report next to each source figure.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

from . import axis_detection, point_extraction, svg_model
from .axis_detection import AxisSide, PlotBox, TickLabel, TickMark
from .config import DEFAULT_CONFIG, PipelineConfig
from .errors import (BadFilter, DestinationCollision, IoFailure, Status,
                     TemplateGroupOutOfRange, VecfigError, WorkerDied)
from .point_extraction import DataPoint
from .svg_model import IDENTITY, AffineTransform, Markers

DEFAULT_FIGURE_FILTER = r"^.*figures/figure(\d+)/figure(_\d+)?\.svg$"


@dataclass(frozen=True)
class CTree:
    id: str
    root: Path
    fulltext: Path | None


@dataclass(frozen=True)
class CorpusProject:
    root: Path
    trees: list[CTree]


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
        raw = json.loads(text)
        values = {f.name: raw[f.name] for f in fields(cls)}
        return cls(**{**values, "status": Status(raw["status"])})


# ---------------------------------------------------------------------------
# project layout

def scan_project(root: str | Path) -> CorpusProject:
    """Scan an existing corpus directory into a CorpusProject."""
    root = Path(root)
    trees = []
    for tree_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        fulltext = tree_dir / "fulltext.pdf"
        trees.append(CTree(id=tree_dir.name, root=tree_dir,
                           fulltext=fulltext if fulltext.is_file() else None))
    return CorpusProject(root=root, trees=trees)


_TEMPLATE_GROUP_RE = re.compile(r"\(\\(\d+)\)|\\(\d+)")


def _substitute_template(template: str, match: re.Match) -> str:
    def repl(m: re.Match) -> str:
        group_no = int(m.group(1) or m.group(2))
        if group_no > len(match.groups()):
            raise TemplateGroupOutOfRange(
                f"template references group {group_no}, filter defines "
                f"{len(match.groups())}")
        return match.group(group_no) or ""
    return _TEMPLATE_GROUP_RE.sub(repl, template)


def make_project(root: str | Path, file_filter: str, template: str) -> CorpusProject:
    """Restructure files under ``root`` into the corpus tree layout.

    Each file whose path matches ``file_filter`` moves to the path built by
    substituting its capture groups into ``template`` (``(\\1)`` or ``\\1``
    syntax), relative to root.  Collisions abort before any file moves.
    """
    root = Path(root)
    moves: dict[Path, Path] = {}
    destinations: dict[Path, Path] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        m = re.match(file_filter, path.as_posix())
        if not m:
            continue
        dest = root / _substitute_template(template, m)
        if dest in destinations:
            raise DestinationCollision(
                f"{path} and {destinations[dest]} both map to {dest}")
        destinations[dest] = path
        moves[path] = dest
    for src, dest in moves.items():
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.move(str(src), str(dest))
    return scan_project(root)


def enumerate_figures(project: CorpusProject, figure_filter: str,
                      ) -> list[tuple[CTree, int, Path]]:
    """Every SVG under a tree whose path matches the filter, by (tree id, index, path).

    The filter's first capture group must be the numeric figure index.
    """
    pattern = re.compile(figure_filter)
    if pattern.groups < 1:
        raise BadFilter("figure filter needs a capture group for the index")
    out: list[tuple[CTree, int, Path]] = []
    for tree in project.trees:
        for svg in tree.root.rglob("*.svg"):
            m = pattern.match(svg.as_posix())
            if m:
                out.append((tree, int(m.group(1)), svg))
    out.sort(key=lambda item: (item[0].id, item[1], item[2].as_posix()))
    return out


# ---------------------------------------------------------------------------
# single-figure extraction

@dataclass
class _Detected:
    """What the overlay draws; every coordinate is in device space."""
    root_transform: AffineTransform = IDENTITY
    box: PlotBox | None = None
    ticks: list[TickMark] = field(default_factory=list)
    labels: list[tuple[TickMark, TickLabel]] = field(default_factory=list)
    markers: Markers = field(default_factory=Markers)


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
    detected = _Detected()
    points: list[DataPoint] = []
    try:
        doc = svg_model.parse_svg(svg_bytes)
        report.warnings.extend(doc.warnings)
        detected.root_transform = doc.root_transform

        detected.box = axis_detection.detect_plot_box(doc, config)
        ticks = axis_detection.detect_ticks(doc, detected.box, config)
        detected.ticks = ticks
        labels = [lab for run in doc.texts
                  if (lab := axis_detection.parse_numeric_label(run))]
        xpairs = axis_detection.match_ticks_to_labels(
            ticks, labels, detected.box, AxisSide.X_AXIS, config)
        ypairs = axis_detection.match_ticks_to_labels(
            ticks, labels, detected.box, AxisSide.Y_AXIS, config)
        detected.labels = xpairs + ypairs
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

        if point_extraction.detect_raster_body(doc, detected.box, config):
            report.status = Status.RASTER_BODY
        else:
            cluster = point_extraction.select_data_glyphs(doc, detected.box, config)
            points = point_extraction.map_to_data(cluster, xcal, ycal)
            detected.markers = cluster.members
            report.status = Status.OK
            report.n_points = len(points)
    except VecfigError as exc:
        report.status = exc.status
        report.warnings.append(str(exc))

    annotated = _annotate_svg(svg_bytes, detected)
    return points, annotated, report


_ROOT_END_RE = re.compile(rb"</(?:[\w.-]+:)?svg\s*>")

# marker rings are encoded and written this many at a time, so the overlay
# never exists whole as text; a smaller overlay is one join and one encode
_RINGS_PER_WRITE = 1024


def _root_end(svg_bytes: bytes) -> int:
    """Offset of the root's end tag; -1 when it cannot be told.

    Only whitespace, comments and processing instructions may follow the
    root, so they are read from the end first: an end tag written inside
    one of them is not the root's.  A comment holds no "--", so it opens
    just before the last "--" before its end.  A PI holds no "?>" but may
    hold "<?", so it may open at any "<?" after the "?>" before it: those
    openings are tried from the first, and the first reading whose
    remainder ends with an end tag gives it; an end tag holds no other "<".
    Each offset is read once, and each search stops at the "--", "?>" or
    "<" before it, so the work is linear in the length.
    """
    pending, seen = [len(svg_bytes)], set()
    while pending:
        end = pending.pop()
        while end and svg_bytes[end - 1] in b" \t\r\n":
            end -= 1
        if end in seen:
            continue
        seen.add(end)
        if svg_bytes.endswith(b"-->", 0, end):
            start = svg_bytes.rfind(b"--", 0, end - 3) - 2
            if start >= 0 and svg_bytes.startswith(b"<!", start):
                pending.append(start)
        elif svg_bytes.endswith(b"?>", 0, end):
            opens = []
            before = svg_bytes.rfind(b"?>", 0, end - 2)
            start = before + 2 if before >= 0 else 0
            while (start := svg_bytes.find(b"<?", start, end - 2)) >= 0:
                opens.append(start)
                start += 2
            pending += reversed(opens)
        else:
            start = svg_bytes.rfind(b"<", 0, end)
            if start >= 0 and _ROOT_END_RE.fullmatch(svg_bytes, start, end):
                return start
    return -1


def _annotate_svg(svg_bytes: bytes, detected: _Detected) -> bytes:
    """Splice an overlay of the detected structure into the source bytes.

    One ``<g id="vecfig-overlay">`` goes just before the root's end tag, so
    every source byte is kept.  It draws the plot box dashed red, ticks
    green, labels blue and markers orange, in device coordinates: the group
    undoes the root's own transform, which its children would otherwise
    inherit a second time.  The source comes back unchanged when no plot
    box was found, or when it has no root end tag to splice before (a
    self-closing root, an encoding that is not ASCII-compatible).

    The result is written once, into one buffer: the source goes in as
    slices of a memoryview, the overlay in pieces of _RINGS_PER_WRITE rings.
    """
    box = detected.box
    if box is None:
        return svg_bytes
    end = _root_end(svg_bytes)
    if end < 0:
        return svg_bytes

    def ring_tail(r: float, color: str) -> str:
        return f' r="{_num(r)}" stroke="{color}" stroke-width="0.8"/>'

    def ring(x: float, y: float, r: float, color: str) -> str:
        return f'<circle cx="{_num(x)}" cy="{_num(y)}"{ring_tail(r, color)}'

    inner = box.interior
    transform = ""
    if detected.root_transform != IDENTITY:
        inverse = astuple(detected.root_transform.inverse())
        transform = f' transform="matrix({",".join(map(_num, inverse))})"'
    parts = [f'<g xmlns="{svg_model.SVG_NS}" id="vecfig-overlay" fill="none"{transform}>',
             f'<rect x="{_num(inner.x0)}" y="{_num(inner.y0)}" '
             f'width="{_num(inner.width)}" height="{_num(inner.height)}" '
             f'stroke="#d62728" stroke-width="1" stroke-dasharray="4 2"/>']
    for tick in detected.ticks:
        if tick.side is AxisSide.X_AXIS:
            parts.append(ring(tick.position, inner.y1, 2, "#2ca02c"))
        else:
            parts.append(ring(inner.x0, tick.position, 2, "#2ca02c"))
    for _, label in detected.labels:
        parts.append(ring(label.anchor.x, label.anchor.y, 3, "#1f77b4"))

    source = memoryview(svg_bytes)
    out = io.BytesIO()
    out.write(source[:end])
    markers = detected.markers
    cx, cy, radii = markers.cx, markers.cy, markers.r
    # markers mostly share a few radii: format each ring's tail once
    tails = {r: ring_tail(r + 1.5, "#ff7f0e") for r in set(radii)}
    for start in range(0, len(markers), _RINGS_PER_WRITE):
        if start:
            out.write("".join(parts).encode("ascii"))
            parts.clear()
        stop = start + _RINGS_PER_WRITE
        parts += [f'<circle cx="{_num(x)}" cy="{_num(y)}"{tails[r]}'
                  for x, y, r in zip(cx[start:stop], cy[start:stop], radii[start:stop])]
    parts.append("</g>")
    out.write("".join(parts).encode("ascii"))
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


def write_csv(points: list[DataPoint], destination: str | Path) -> None:
    """Write ``x,y,device_radius`` rows as UTF-8 CSV with LF endings."""
    lines = ["x,y,device_radius"]
    for p in points:
        lines.append(f"{_num(p.x)},{_num(p.y)},{_num(p.device_radius)}")
    try:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {destination}: {exc}") from exc


def read_csv_points(path: str | Path) -> list[tuple[float, ...]]:
    """Read back a pipeline or truth CSV as tuples of floats."""
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    return [tuple(float(cell) for cell in line.split(","))
            for line in rows[1:] if line.strip()]


# ---------------------------------------------------------------------------
# batch runner

def run_project(project: CorpusProject, figure_filter: str,
                config: PipelineConfig, output_root: str | Path,
                ) -> list[ExtractionReport]:
    """Extract every enumerated figure; one failure never stops the batch.

    Outputs mirror the input tree layout under ``output_root``; a summary
    JSON aggregating statuses lands at the output root.  Figures run in one
    worker process per CPU this process may run on (see ``_map_guarded``);
    the reports come back in enumeration order, so the outputs and the
    reports are those of a serial run.
    """
    output_root = Path(output_root)
    reports = _map_guarded(
        [(tree, index, svg, config, output_root / svg.parent.relative_to(project.root))
         for tree, index, svg in enumerate_figures(project, figure_filter)])
    summary = {
        "n_figures": len(reports),
        "statuses": {s.value: sum(1 for r in reports if r.status is s)
                     for s in Status},
        "figures": [{"tree_id": r.tree_id, "figure_index": r.figure_index,
                     "status": r.status.value, "n_points": r.n_points}
                    for r in reports],
    }
    try:
        output_root.mkdir(parents=True, exist_ok=True)
        (output_root / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write summary: {exc}") from exc
    return reports


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_guarded(jobs: list[tuple]) -> list[ExtractionReport]:
    """``_run_guarded`` over each job's arguments, the reports in job order.

    Jobs whose outputs go to one directory write the same three files, so
    they make one task and run in job order: the last one's files stay, as
    in a serial run.  The tasks run in forked worker processes, one per CPU
    and at most one per task (see ``_pool_map``).  With one CPU or one
    task, or where no pool can be used, the jobs run here, one after
    another.
    """
    tasks: dict[Path, list[int]] = {}
    for i, job in enumerate(jobs):
        tasks.setdefault(job[-1], []).append(i)
    workers = min(_cpu_count(), len(tasks))
    done = (_pool_map([[jobs[i] for i in task] for task in tasks.values()], workers)
            if workers > 1 else None)
    if done is None:
        return _run_in_order(jobs)
    reports: list = [None] * len(jobs)
    for task, task_reports in zip(tasks.values(), done):
        for i, report in zip(task, task_reports):
            reports[i] = report
    return reports


def _pool_map(tasks: list[list[tuple]], workers: int,
              ) -> list[list[ExtractionReport]] | None:
    """``_run_in_order`` over the tasks in forked worker processes, in task order.

    None where ``fork`` is not offered, where this process runs other
    threads (which ``fork`` cannot safely copy) or where the pool cannot
    start (a fork or a pipe refused); the caller then runs the jobs itself.
    A worker that dies raises ``WorkerDied``.
    """
    # imported here: the pool modules take tens of ms to import, which an
    # import of vecfig and a serial run should not pay
    import multiprocessing
    import threading
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return None
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # fork starts a worker in milliseconds with vecfig imported; spawn and
    # forkserver import it again in every worker
    context = multiprocessing.get_context("fork")
    children = set(multiprocessing.active_children())
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(_run_in_order, tasks,
                                 chunksize=max(1, len(tasks) // (8 * workers))))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc}") from exc
    except OSError:
        # the workers that did start are stopped: the serial run after
        # this writes every figure's files afresh
        for child in set(multiprocessing.active_children()) - children:
            child.terminate()
            child.join()
        return None


def _run_in_order(jobs: list[tuple]) -> list[ExtractionReport]:
    return [_run_guarded(*job) for job in jobs]


def _run_guarded(tree: CTree, index: int, svg: Path, config: PipelineConfig,
                 out_dir: Path) -> ExtractionReport:
    annotated: bytes | None = None
    try:
        points, annotated, report = extract_figure(
            svg, config, tree_id=tree.id, figure_index=index)
    except Exception as exc:  # isolation: a broken figure must not kill the batch
        points, report = [], ExtractionReport(tree_id=tree.id, figure_index=index,
                                              status=Status.PARSE_ERROR,
                                              warnings=[f"unhandled: {exc}"])
    try:
        _write_outputs(out_dir, points, annotated, report)
        return report
    except (OSError, IoFailure) as exc:
        # a figure that could not be read stays parse_error; either way its
        # earlier warnings are kept
        status = (report.status if report.status is Status.PARSE_ERROR
                  else Status.WRITE_ERROR)
        warnings = report.warnings + [f"write failed: {exc}"]
    except Exception as exc:  # e.g. a non-finite data value the CSV cannot hold
        status, warnings = Status.PARSE_ERROR, [f"unhandled: {exc}"]
    report = ExtractionReport(tree_id=tree.id, figure_index=index,
                              status=status, warnings=warnings)
    try:
        _write_outputs(out_dir, [], None, report)
    except (OSError, IoFailure):
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
