"""Spans around the public functions of vecfig's layers.

The tracer swaps module attributes such as ``svg_model.parse_svg`` for
timing wrappers while it is installed, so every call that vecfig makes
through those names is recorded without editing vecfig.  Only public names
are wrapped: refactors of private helpers leave the trace intact.  A name
that no longer exists is reported as missing and its metrics read 0.

Spans stay in memory; ``write_jsonl`` writes them out when the run ends.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    parent: int | None
    workload: str
    phase: str
    figure: str
    start_ns: int = 0
    end_ns: int = 0
    child_ns: int = 0
    counts: dict[str, object] = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


# Counts taken at a layer boundary: (span, args, kwargs, result) -> None.
def _parse_counts(span, args, kwargs, doc) -> None:
    span.counts["bytes"] = len(args[0])
    span.counts["primitives"] = (len(doc.circles) + len(doc.segments)
                                 + len(doc.rasters) + len(doc.texts))
    span.counts["warnings"] = len(doc.warnings)


def _extract_counts(span, args, kwargs, result) -> None:
    _, annotated, report = result
    span.counts["annotated_bytes"] = len(annotated)
    span.counts["status"] = report.status.value


def _plot_box_counts(span, args, kwargs, result) -> None:
    span.counts["segments_in"] = len(args[0].segments)


def _len_counts(key: str):
    def observe(span, args, kwargs, result) -> None:
        span.counts[key] = len(result)
    return observe


def _select_counts(span, args, kwargs, cluster) -> None:
    span.counts["circles_in"] = len(args[0].circles)
    span.counts["kept"] = len(cluster.members)


def _match_counts(span, args, kwargs, result) -> None:
    span.counts["pairs_in"] = len(args[0]) * len(args[1])


def _extract_figure_id(args, kwargs) -> str | None:
    tree_id = kwargs.get("tree_id", args[2] if len(args) > 2 else "")
    if not tree_id:
        return None
    index = kwargs.get("figure_index", args[3] if len(args) > 3 else 0)
    return f"{tree_id}/figure{index}"


def _evaluate_figure_id(args, kwargs) -> str | None:
    return kwargs.get("figure_id", args[0] if args else None)


# (module, public attribute, counts, figure id from the call's arguments)
LAYER_FUNCTIONS = [
    ("svg_model", "parse_svg", _parse_counts, None),
    ("axis_detection", "detect_plot_box", _plot_box_counts, None),
    ("axis_detection", "detect_ticks", _len_counts("ticks"), None),
    ("axis_detection", "parse_numeric_label", None, None),
    ("axis_detection", "match_ticks_to_labels", _len_counts("pairs"), None),
    ("axis_detection", "calibrate_axis", None, None),
    ("point_extraction", "detect_raster_body", None, None),
    ("point_extraction", "select_data_glyphs", _select_counts, None),
    ("point_extraction", "map_to_data", None, None),
    ("pipeline", "extract_figure", _extract_counts, _extract_figure_id),
    ("pipeline", "write_csv", None, None),
    ("pipeline", "run_project", None, None),
    ("evaluate", "evaluate_output_tree", _len_counts("records"), None),
    ("evaluate", "read_csv_points", None, None),
    ("evaluate", "evaluate_figure", None, _evaluate_figure_id),
    ("evaluate", "match_points", _match_counts, None),
    ("synth", "generate_scatter_svg", None, None),
]


class Tracer:
    """Records spans for one workload; parents are tracked per thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.phase = "setup"
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.figure = ""
        return self._local

    def set_figure(self, figure: str) -> None:
        """Name the figure that the calling thread is about to process."""
        self._state().figure = figure

    def _wrap(self, name: str, original, observe, figure_of):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._state()
            parent = state.stack[-1] if state.stack else None
            figure = (figure_of(args, kwargs) if figure_of else None) or (
                tracer.spans[parent].figure if parent is not None else state.figure)
            span = Span(name, parent, tracer.workload, tracer.phase, figure)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            state.stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                state.stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_ns += span.end_ns - span.start_ns
            if observe is not None:
                observe(span, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, observe, figure_of in LAYER_FUNCTIONS:
            module = importlib.import_module(f"vecfig.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original,
                                             observe, figure_of))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s.name, "parent": s.parent,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "workload": s.workload, "phase": s.phase,
                    "figure": s.figure, **s.counts}) + "\n")


STATUSES = ("ok", "no_axes", "nonlinear_scale", "too_few_ticks", "raster_body",
            "no_data_glyphs", "parse_error")

SELF_TIMES = [f"{m}.{a}" for m, a, _, _ in LAYER_FUNCTIONS
              if (m, a) != ("synth", "generate_scatter_svg")]


def layer_metrics(spans: list[Span], passes: int, setups: int) -> dict[str, float]:
    """Per-layer metrics, each summed over one pass of the input set.

    ``passes`` traced passes and ``setups`` traced set-ups produced the
    spans; sums are divided by these counts.  Ratios carry their base in
    the metric's definition (README.md).
    """
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, Counter] = defaultdict(Counter)
    statuses: Counter = Counter()
    for s in spans:
        if s.phase == "setup":
            if s.name == "synth.generate_scatter_svg":
                self_ns["setup:" + s.name] += s.self_ns
            continue
        self_ns[s.name] += s.self_ns
        for key, value in s.counts.items():
            if key == "status":
                statuses[value] += 1
            else:
                counts[s.name][key] += value

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse_s = self_ns["svg_model.parse_svg"] / 1e9
    out: dict[str, float] = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = per_pass(self_ns[name] / 1e9)
    out["synth.generate_scatter_svg.self_s"] = (
        self_ns["setup:synth.generate_scatter_svg"] / 1e9 / setups)
    parse = counts["svg_model.parse_svg"]
    out["svg_model.bytes_per_s"] = ratio(parse["bytes"], parse_s)
    out["svg_model.primitives"] = per_pass(parse["primitives"])
    out["svg_model.warnings"] = per_pass(parse["warnings"])
    out["pipeline.annotated_bytes"] = per_pass(
        counts["pipeline.extract_figure"]["annotated_bytes"])
    out["axis_detection.segments_in"] = per_pass(
        counts["axis_detection.detect_plot_box"]["segments_in"])
    out["axis_detection.ticks_matched_ratio"] = ratio(
        counts["axis_detection.match_ticks_to_labels"]["pairs"],
        counts["axis_detection.detect_ticks"]["ticks"])
    select = counts["point_extraction.select_data_glyphs"]
    out["point_extraction.selected_ratio"] = ratio(select["kept"],
                                                   select["circles_in"])
    out["evaluate.match_points.pairs_in"] = per_pass(
        counts["evaluate.match_points"]["pairs_in"])
    for status in STATUSES:
        out[f"pipeline.status.{status}"] = per_pass(statuses.pop(status, 0))
    out["pipeline.status.other"] = per_pass(sum(statuses.values()))
    return out
