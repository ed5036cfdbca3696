"""Seeded inputs for the three workloads and the checks on vecfig's outputs.

Inputs are made with ``vecfig.synth``; vecfig itself only ever sees the
generated files.  The checks here are independent of ``vecfig.evaluate``:
they read the truth that generation returned (or ``truth.csv``) and the
outputs with their own parsers and matching.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from vecfig import synth
from vecfig.synth import AxisStyle, SyntheticSpec

# A recovered point must lie within this fraction of its axis span of the
# truth, as in the 200-figure round-trip acceptance test.
TOLERANCE = 0.005

EXPECTED_STATUS = {AxisStyle.LOG_X: "nonlinear_scale",
                   AxisStyle.RASTER_BODY: "raster_body"}

Pair = tuple[float, float]


@dataclass(frozen=True)
class Figure:
    id: str
    path: Path
    spec: SyntheticSpec
    truth: list[Pair]

    @property
    def expected_status(self) -> str:
        return EXPECTED_STATUS.get(self.spec.axis_style, "ok")

    @property
    def axis_spans(self) -> Pair:
        (x0, x1), (y0, y1) = self.spec.x_range, self.spec.y_range
        return x1 - x0, y1 - y0


def varied_spec(rng: random.Random, seed: int, style: AxisStyle,
                n_points: int) -> SyntheticSpec:
    """A spec with round tick values and a varied range, ladder and radius."""
    def nice_range(n_ticks: int) -> Pair:
        step = rng.choice([1.0, 2.0, 5.0]) * 10.0 ** rng.randint(-2, 3)
        lo = rng.randint(-20, 20) * step
        return (lo, lo + step * (n_ticks - 1))

    n_ticks_x, n_ticks_y = rng.randint(3, 8), rng.randint(3, 8)
    return SyntheticSpec(n_points=n_points, x_range=nice_range(n_ticks_x),
                         y_range=nice_range(n_ticks_y), n_ticks_x=n_ticks_x,
                         n_ticks_y=n_ticks_y,
                         marker_radius=rng.choice([2.0, 3.0, 4.0]),
                         axis_style=style, seed=seed)


def gridlines(spec: SyntheticSpec, n_vertical: int, n_horizontal: int) -> bytes:
    """Evenly spaced full-length gridlines strictly inside the plot box."""
    width, height = spec.canvas
    x0, x1 = synth.MARGIN_LEFT, width - synth.MARGIN_RIGHT
    y0, y1 = synth.MARGIN_TOP, height - synth.MARGIN_BOTTOM
    lines = []
    for i in range(1, n_vertical + 1):
        x = x0 + i * (x1 - x0) / (n_vertical + 1)
        lines.append(f'<line x1="{x:.4f}" y1="{y0:g}" x2="{x:.4f}" y2="{y1:g}" '
                     f'stroke="#dddddd" stroke-width="0.3"/>')
    for i in range(1, n_horizontal + 1):
        y = y0 + i * (y1 - y0) / (n_horizontal + 1)
        lines.append(f'<line x1="{x0:g}" y1="{y:.4f}" x2="{x1:g}" y2="{y:.4f}" '
                     f'stroke="#dddddd" stroke-width="0.3"/>')
    return ("\n".join(lines) + "\n").encode("ascii")


@dataclass(frozen=True)
class InMemorySet:
    """Standalone figure files run one by one through ``extract_figure``."""
    name: str
    n_figures: int
    n_points: int
    n_gridlines: int = 0  # vertical and as many horizontal

    def generate(self, seed: int, root: Path) -> list[Figure]:
        rng = random.Random(f"{self.name}:{seed}")
        root.mkdir(parents=True, exist_ok=True)
        figures = []
        for i in range(self.n_figures):
            spec = varied_spec(rng, rng.randrange(2 ** 31), AxisStyle.STANDARD,
                               self.n_points)
            svg, truth = synth.generate_scatter_svg(spec)
            if self.n_gridlines:
                svg = svg.replace(b"</svg>", gridlines(
                    spec, self.n_gridlines, self.n_gridlines) + b"</svg>")
            path = root / f"{self.name}-{i:03d}.svg"
            path.write_bytes(svg)
            figures.append(Figure(path.stem, path, spec, truth))
        return figures


# Markers per corpus figure, and the style mix out of every ten figures:
# 6 standard, 1 of each other style.
CORPUS_POINTS = (4, 200)
CORPUS_STYLES = ((AxisStyle.STANDARD,) * 6
                 + (AxisStyle.REVERSED_X, AxisStyle.REVERSED_Y,
                    AxisStyle.LOG_X, AxisStyle.RASTER_BODY))


@dataclass(frozen=True)
class CorpusSet:
    """A corpus-layout project of small figures with mixed axis styles."""
    name: str
    n_figures: int  # below 1000, so that synth seeds stay distinct

    def generate(self, seed: int, root: Path) -> list[Figure]:
        rng = random.Random(f"{self.name}:{seed}")
        styles = [CORPUS_STYLES[i % len(CORPUS_STYLES)]
                  for i in range(self.n_figures)]
        rng.shuffle(styles)
        # distinct synth seeds per figure; the tree id is fig-<seed>
        base = rng.randrange(1, 10 ** 6) * 1000
        specs = [varied_spec(rng, base + i, style, rng.randint(*CORPUS_POINTS))
                 for i, style in enumerate(styles)]
        synth.build_synthetic_project(root, specs)
        figures = []
        for spec in specs:
            tree = f"fig-{spec.seed:04d}"
            fig_dir = root / tree / "figures" / "figure1"
            figures.append(Figure(tree, fig_dir / "figure.svg", spec,
                                  read_csv(fig_dir / "truth.csv")))
        return figures


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# checks

def read_csv(path: Path) -> list[Pair]:
    """First two columns of a headed CSV file, as floats."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    out = []
    for row in rows:
        if row.strip():
            cells = row.split(",")
            out.append((float(cells[0]), float(cells[1])))
    return out


def _close(figure: Figure, got: Pair, want: Pair) -> bool:
    sx, sy = figure.axis_spans
    return (abs(got[0] - want[0]) <= TOLERANCE * sx
            and abs(got[1] - want[1]) <= TOLERANCE * sy)


def points_by_id_ok(figure: Figure, status: str, points) -> bool:
    """Check ``extract_figure`` output: marker ``pt<i>`` recovers truth row i."""
    if status != figure.expected_status:
        return False
    if status != "ok":
        return not points
    if len(points) != len(figure.truth):
        return False
    seen = set()
    for p in points:
        digits = p.source_id[2:]
        index = int(digits) if p.source_id[:2] == "pt" and digits.isdigit() else -1
        if not 0 <= index < len(figure.truth) or index in seen:
            return False
        seen.add(index)
        if not _close(figure, (p.x, p.y), figure.truth[index]):
            return False
    return True


def rows_match_truth(figure: Figure, rows: list[Pair]) -> bool:
    """Every truth point has its own CSV row within tolerance, none left over.

    Rows carry no marker id, so each truth point takes the nearest unused
    row inside its tolerance window (rows sorted by x, window by bisection).
    """
    if len(rows) != len(figure.truth):
        return False
    sx, sy = figure.axis_spans
    order = sorted(range(len(rows)), key=lambda j: rows[j][0])
    xs = [rows[j][0] for j in order]
    used = [False] * len(rows)
    for x, y in figure.truth:
        lo = bisect.bisect_left(xs, x - TOLERANCE * sx)
        hi = bisect.bisect_right(xs, x + TOLERANCE * sx)
        best = None
        for k in range(lo, hi):
            gx, gy = rows[order[k]]
            if used[k] or abs(gy - y) > TOLERANCE * sy:
                continue
            d = ((gx - x) / sx) ** 2 + ((gy - y) / sy) ** 2
            if best is None or d < best[0]:
                best = (d, k)
        if best is None:
            return False
        used[best[1]] = True
    return True


def output_dir_ok(figure: Figure, status: str, out_dir: Path) -> bool:
    """Check one ``run_project`` figure: its status and its ``figure.csv``."""
    if status != figure.expected_status:
        return False
    rows = read_csv(out_dir / "figure.csv")
    return rows_match_truth(figure, rows) if status == "ok" else not rows
