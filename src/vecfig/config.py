"""Pipeline configuration: the detection tolerances and output settings.

Axis detection, calibration and marker selection read their thresholds
from a :class:`PipelineConfig`, so a single flat key=value file can
override any of them for a batch run.  The SVG parser's own tolerances
(curve flattening, ellipse roundness, canvas overflow, glyph-run joining)
are module constants in :mod:`vecfig.svg_model`, not config keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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
    # execution
    jobs: int = 1
    # outputs
    csv_columns: tuple[str, ...] = ("x", "y", "device_radius")
    overlay_box_color: str = "#d62728"
    overlay_tick_color: str = "#2ca02c"
    overlay_label_color: str = "#1f77b4"
    overlay_glyph_color: str = "#ff7f0e"

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and v <= 0:
                raise ValueError(f"config value {f.name} must be > 0, got {v!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


DEFAULT_CONFIG = PipelineConfig()

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def load_config(path: str | Path) -> PipelineConfig:
    """Read a flat ``key = value`` config file; missing keys keep defaults.

    Lines starting with ``#`` and blank lines are ignored.  Unknown keys
    raise ValueError so that typos do not silently fall back to defaults.
    """
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        ftype = str(_FIELD_TYPES[key])
        if ftype == "int":
            overrides[key] = int(raw)
        elif ftype == "float":
            overrides[key] = float(raw)
        elif ftype.startswith("tuple"):
            overrides[key] = tuple(part.strip() for part in raw.split(",") if part.strip())
        else:
            overrides[key] = raw
    return PipelineConfig(**overrides)  # type: ignore[arg-type]
