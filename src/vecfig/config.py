"""Pipeline configuration: the detection tolerances.

Axis detection, calibration and marker selection read their thresholds
from a :class:`PipelineConfig`, so a single flat key=value file can
override any of them for a batch run.  Every key is a finite, positive
float.  Every threshold the extractor applies is defined in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class PipelineConfig:
    # axis detection
    axis_angle_tol_deg: float = 2.0     # max deviation from vertical/horizontal
    min_axis_length: float = 10.0       # device units; shorter segments ignored
    corner_gap_tol: float = 3.0         # max distance between axis endpoints at the corner
    # tick detection
    tick_angle_tol_deg: float = 2.0     # max deviation from perpendicular to the axis
    tick_touch_tol: float = 1.0         # max endpoint distance to the axis line
    tick_min_length: float = 0.5
    tick_max_length_frac: float = 0.15  # of the box side the tick extends along
    # tick-label matching
    label_window_tick_factor: float = 3.0   # x median tick length
    label_window_glyph_factor: float = 2.0  # x label glyph height
    # calibration
    residual_gate_frac: float = 0.01    # rms residual vs matched tick value span
    # data glyph selection
    radius_cluster_tol: float = 0.10    # relative radius spread within a cluster
    raster_overlap_frac: float = 0.5    # interior fraction covered -> raster body

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_tolerance(f.name, getattr(self, f.name))


def _check_tolerance(name: str, value: float) -> float:
    """``value``, unless it is not a finite number above zero (ValueError)."""
    # a nan or infinite tolerance would switch its gate off, not loosen it
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


DEFAULT_CONFIG = PipelineConfig()

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

_KEYS = {f.name for f in fields(PipelineConfig)}


def load_config(path: str | Path) -> PipelineConfig:
    """Read a flat ``key = value`` config file; missing keys keep defaults.

    Lines starting with ``#`` and blank lines are ignored.  Unknown keys
    raise ValueError so that typos do not silently fall back to defaults;
    so does a value that is not a finite number above zero.  Every such
    error starts with ``<path>:<line>:``.
    """
    overrides: dict[str, float] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _check_tolerance(key, float(raw.strip()))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return PipelineConfig(**overrides)
