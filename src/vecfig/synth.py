"""Synthetic scatter-figure generator with known ground truth.

Produces self-contained SVG figures in the same idiom the extractor
expects (left/bottom axis lines, outward ticks, numeric label ladders,
circle markers) plus the true data values, so round-trip accuracy can be
scored mechanically.  Axis styles cover the documented failure modes:
reversed axes, a log-spaced ladder, and a bitmap plot body.
"""

from __future__ import annotations

import base64
import math
import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class AxisStyle(Enum):
    STANDARD = "standard"
    REVERSED_X = "reversed_x"
    REVERSED_Y = "reversed_y"
    LOG_X = "log_x"
    RASTER_BODY = "raster_body"


def _is_finite_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class SyntheticSpec:
    """One figure's parameters.  Only ``__post_init__`` knows the field types:
    it takes the style by name and each pair as a list, as JSON gives them."""
    n_points: int = 10
    x_range: tuple[float, float] = (0.0, 10.0)
    y_range: tuple[float, float] = (0.0, 1.0)
    n_ticks_x: int = 5
    n_ticks_y: int = 5
    marker_radius: float = 3.0
    canvas: tuple[float, float] = (600.0, 450.0)
    axis_style: AxisStyle = AxisStyle.STANDARD
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_points", "n_ticks_x", "n_ticks_y", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("x_range", "y_range", "canvas"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(map(_is_finite_number, pair))):
                raise ValueError(f"{name} must be two finite numbers, got {pair!r}")
            object.__setattr__(self, name, tuple(pair))
        if not _is_finite_number(self.marker_radius):
            raise ValueError(
                f"marker_radius must be a finite number, got {self.marker_radius!r}")
        object.__setattr__(self, "axis_style", AxisStyle(self.axis_style))
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_ticks_x < 2 or self.n_ticks_y < 2:
            raise ValueError("tick counts must be >= 2")
        # a log_x ladder's top tick is 10 ** (n_ticks_x - 1), finite up to 1e308
        if self.axis_style is AxisStyle.LOG_X and self.n_ticks_x > 309:
            raise ValueError(f"n_ticks_x must be <= 309 for log_x, got {self.n_ticks_x}")
        if self.x_range[0] >= self.x_range[1] or self.y_range[0] >= self.y_range[1]:
            raise ValueError("ranges must satisfy min < max")
        for name, n_ticks in (("x_range", self.n_ticks_x), ("y_range", self.n_ticks_y)):
            low, high = getattr(self, name)
            # the tick ladder takes up to n_ticks - 1 times the span
            if not math.isfinite((n_ticks - 1) * (high - low)):
                raise ValueError(f"{name} {[low, high]} is too wide: its span max - min "
                                 f"times {n_ticks - 1} tick steps is not finite")
        width, height = self.canvas
        if width <= MARGIN_LEFT + MARGIN_RIGHT or height <= MARGIN_TOP + MARGIN_BOTTOM:
            raise ValueError(
                f"canvas must be wider than {MARGIN_LEFT + MARGIN_RIGHT:g} and taller "
                f"than {MARGIN_TOP + MARGIN_BOTTOM:g}, got {[width, height]}")
        if self.marker_radius <= 0:
            raise ValueError("marker_radius must be > 0")


MARGIN_LEFT = 60.0
MARGIN_RIGHT = 25.0
MARGIN_TOP = 25.0
MARGIN_BOTTOM = 50.0
TICK_LENGTH = 5.0
FONT_SIZE = 10.0

# 1x1 grey PNG for raster plot bodies
_PIXEL_PNG = base64.b64encode(bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108020000009077"
    "53de0000000c4944415408d763a8a9a90700033d01b10ef057240000000049"
    "454e44ae426082")).decode("ascii")


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _label(v: float) -> str:
    return f"{float(f'{v:.4g}'):.10g}"


def _ladder(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced tick values from lo to hi, each the value of its label."""
    return [float(_label(lo + i * (hi - lo) / (n - 1))) for i in range(n)]


def generate_scatter_svg(spec: SyntheticSpec) -> tuple[bytes, list[tuple[float, float]]]:
    """Render a synthetic figure; returns (svg bytes, true data points).

    Deterministic in the seed.  Tick labels carry at most 4 significant
    digits; each tick mark sits at the device position of its rounded
    label value so the figure is exactly self-consistent.
    """
    rng = random.Random(spec.seed)
    width, height = spec.canvas
    ax, ax_right = MARGIN_LEFT, width - MARGIN_RIGHT
    ay_top, ay_bottom = MARGIN_TOP, height - MARGIN_BOTTOM
    plot_w, plot_h = ax_right - ax, ay_bottom - ay_top
    (xmin, xmax), (ymin, ymax) = spec.x_range, spec.y_range
    style = spec.axis_style
    log_x = style is AxisStyle.LOG_X
    decades = max(2, spec.n_ticks_x - 1)

    # a reversed axis is the forward map with its ends swapped, to the bit
    x_lo, x_hi = (xmax, xmin) if style is AxisStyle.REVERSED_X else (xmin, xmax)
    y_lo, y_hi = (ymax, ymin) if style is AxisStyle.REVERSED_Y else (ymin, ymax)
    if log_x:
        def dev_x(v: float) -> float:
            return ax + math.log10(v) / decades * plot_w
    else:
        def dev_x(v: float) -> float:
            return ax + (v - x_lo) / (x_hi - x_lo) * plot_w

    def dev_y(v: float) -> float:
        return ay_bottom - (v - y_lo) / (y_hi - y_lo) * plot_h

    # a tick sits at the value of its label, or at its exact power of ten
    x_ticks = ([10.0 ** i for i in range(decades + 1)] if log_x
               else _ladder(xmin, xmax, spec.n_ticks_x))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<text x="{_fmt(width / 2 - 60)}" y="15" font-size="12">'
        f'Synthetic scatter (seed {spec.seed})</text>',
        # axes
        f'<line x1="{_fmt(ax)}" y1="{_fmt(ay_bottom)}" '
        f'x2="{_fmt(ax)}" y2="{_fmt(ay_top)}" stroke="black"/>',
        f'<line x1="{_fmt(ax)}" y1="{_fmt(ay_bottom)}" '
        f'x2="{_fmt(ax_right)}" y2="{_fmt(ay_bottom)}" stroke="black"/>',
    ]
    for v in x_ticks:
        tx = dev_x(v)
        parts += [f'<line x1="{_fmt(tx)}" y1="{_fmt(ay_bottom)}" '
                  f'x2="{_fmt(tx)}" y2="{_fmt(ay_bottom + TICK_LENGTH)}" stroke="black"/>',
                  f'<text x="{_fmt(tx - 2)}" y="{_fmt(ay_bottom + 16)}" '
                  f'font-size="{_fmt(FONT_SIZE)}">{_label(v)}</text>']
    for v in _ladder(ymin, ymax, spec.n_ticks_y):
        ty = dev_y(v)
        parts += [f'<line x1="{_fmt(ax - TICK_LENGTH)}" y1="{_fmt(ty)}" '
                  f'x2="{_fmt(ax)}" y2="{_fmt(ty)}" stroke="black"/>',
                  f'<text x="{_fmt(ax - 30)}" y="{_fmt(ty + 3)}" '
                  f'font-size="{_fmt(FONT_SIZE)}">{_label(v)}</text>']

    # each point draws x, then y, from the one seeded stream
    truth = [(10.0 ** rng.uniform(0.0, decades) if log_x else rng.uniform(xmin, xmax),
              rng.uniform(ymin, ymax)) for _ in range(spec.n_points)]

    if style is AxisStyle.RASTER_BODY:
        parts.append(
            f'<image x="{_fmt(ax + 1)}" y="{_fmt(ay_top + 1)}" '
            f'width="{_fmt(plot_w - 2)}" height="{_fmt(plot_h - 2)}" '
            f'xlink:href="data:image/png;base64,{_PIXEL_PNG}"/>')
    else:
        r = _fmt(spec.marker_radius)
        parts.extend(
            f'<circle id="pt{i}" cx="{dev_x(x):.6f}" cy="{dev_y(y):.6f}" '
            f'r="{r}" fill-opacity="0" stroke="#cf1d35" stroke-width="0.8"/>'
            for i, (x, y) in enumerate(truth))

    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8"), truth


def write_truth_csv(truth: list[tuple[float, float]], destination: str | Path) -> None:
    lines = ["x,y"] + [f"{x!r},{y!r}" for x, y in truth]
    Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8",
                                 newline="\n")


def build_synthetic_project(root: str | Path, specs: list[SyntheticSpec]) -> Path:
    """Write a corpus-layout project of synthetic figures with truth files.

    Each spec becomes one tree ``fig-<seed>`` holding
    ``figures/figure1/figure.svg`` and ``truth.csv`` beside it.
    """
    root = Path(root)
    for spec in specs:
        fig_dir = root / f"fig-{spec.seed:04d}" / "figures" / "figure1"
        fig_dir.mkdir(parents=True, exist_ok=True)
        svg, truth = generate_scatter_svg(spec)
        (fig_dir / "figure.svg").write_bytes(svg)
        write_truth_csv(truth, fig_dir / "truth.csv")
    return root
