"""Score extraction output against ground truth, one record per figure.

Each record mirrors one row of a results table: whether a datafile was
produced, how many rows it holds versus the truth count, and whether the
recovered values agree with the truth on each axis within a tolerance
expressed as a fraction of that axis's value span.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path

from .axis_detection import greedy_match
from .config import _check_tolerance
from .errors import VecfigError
from .pipeline import ExtractionReport, Status, read_csv_points

DEFAULT_TOLERANCE = 0.005  # fraction of axis span

Pair = tuple[float, float]


@dataclass(frozen=True)
class EvalRecord:
    """One row of render_table: the fields are TABLE_COLUMNS, in order."""
    figure_id: str
    data_extracted: bool
    n_extracted: int
    n_truth: int
    x_axis_correct: bool
    y_axis_correct: bool


def _spans(truth: list[Pair]) -> tuple[float, float]:
    xs = [p[0] for p in truth]
    ys = [p[1] for p in truth]
    return (max(xs) - min(xs) or 1.0, max(ys) - min(ys) or 1.0)


# Scoring takes its pairs in bands of normalized distance, through a grid,
# and this is the first band's width.  It is twice the default tolerance, so
# a correct extraction is matched in that band, while a 20k-point figure
# holds only a few such pairs per point.
MATCH_RADIUS = 0.01
# Normalizing and subtracting round; a pair within a band can lie this
# fraction of the largest normalized coordinate further apart in grid terms.
_CELL_SLACK = 1e-12


def match_points(truth: list[Pair], extracted: list[Pair],
                 spans: tuple[float, float]) -> list[tuple[int, int]]:
    """Greedy one-to-one nearest-neighbour matching in normalized space.

    Pairs are taken in ``(distance, truth index, extracted index)`` order,
    each one kept unless either point is already matched.  That order is
    taken in bands: the pairs within MATCH_RADIUS, then within twice that,
    and so on, each band found through a grid with cells as wide over the
    points still unmatched.  A band leaves no pair of two unmatched points
    within it, so the next band holds exactly the pairs that come next in
    the order.  The points still unmatched once a band is wider than any
    two points can lie apart are matched from all their pairs, as is every
    non-finite input.  The matches, and their order, are the ones the
    greedy pass over every pair gives.
    """
    sx, sy = spans
    used_t: set[int] = set()
    used_e: set[int] = set()
    matches: list[tuple[int, int]] = []
    tu = [(tx / sx, ty / sy) for tx, ty in truth]
    eu = [(ex / sx, ey / sy) for ex, ey in extracted]
    coords = [*itertools.chain.from_iterable(tu), *itertools.chain.from_iterable(eu)]
    free_t, free_e = list(range(len(truth))), list(range(len(extracted)))
    # a nan distance has no place in the order and an infinite coordinate
    # no cell: such inputs are matched from all their pairs at once
    if all(map(math.isfinite, (sx, sy, *coords))):
        largest = max(map(abs, coords), default=0.0)
        floor = math.floor
        radius = MATCH_RADIUS
        # two points lie at most sqrt(8) times the largest coordinate apart
        while free_t and free_e and radius < 3 * largest:
            cell = radius + _CELL_SLACK * (radius + largest)
            grid: dict[tuple[int, int], list[int]] = {}
            for ti in free_t:
                u, v = tu[ti]
                grid.setdefault((floor(u / cell), floor(v / cell)), []).append(ti)
            band = []
            for ei in free_e:
                (ex, ey), (u, v) = extracted[ei], eu[ei]
                col, row = floor(u / cell), floor(v / cell)
                for i in (col - 1, col, col + 1):
                    for j in (row - 1, row, row + 1):
                        for ti in grid.get((i, j), ()):
                            tx, ty = truth[ti]
                            d = math.hypot((tx - ex) / sx, (ty - ey) / sy)
                            if d <= radius:
                                band.append((d, ti, ei))
            greedy_match(band, used_t, used_e, matches)
            free_t = [ti for ti in free_t if ti not in used_t]
            free_e = [ei for ei in free_e if ei not in used_e]
            radius *= 2
    if free_t and free_e:
        rest = [(math.hypot((tx - extracted[ei][0]) / sx, (ty - extracted[ei][1]) / sy), ti, ei)
                for ti, (tx, ty) in enumerate(truth) if ti not in used_t
                for ei in free_e]
        greedy_match(rest, used_t, used_e, matches)
    return matches


def evaluate_figure(figure_id: str, extracted: list[Pair], truth: list[Pair],
                    data_extracted: bool,
                    tolerance: float = DEFAULT_TOLERANCE) -> EvalRecord:
    """Compare one figure's extracted points with its truth.

    An axis counts as correct only when every truth point has its own
    matched extracted point within tolerance on that axis; surplus
    extracted points (overlap recovery) do not hurt.
    """
    if not truth:
        raise VecfigError(f"{figure_id}: empty truth")
    if not data_extracted or not extracted:
        return EvalRecord(figure_id, False, len(extracted), len(truth),
                          False, False)
    spans = _spans(truth)
    matches = match_points(truth, extracted, spans)
    all_matched = len(matches) == len(truth)
    x_ok = all_matched and all(
        abs(truth[ti][0] - extracted[ei][0]) <= tolerance * spans[0]
        for ti, ei in matches)
    y_ok = all_matched and all(
        abs(truth[ti][1] - extracted[ei][1]) <= tolerance * spans[1]
        for ti, ei in matches)
    return EvalRecord(figure_id, True, len(extracted), len(truth), x_ok, y_ok)


def aggregate(records: list[EvalRecord]) -> dict:
    """Figure counts; ``n_all_correct`` also wants no surplus extracted point."""
    n = len(records)
    extracted = sum(1 for r in records if r.data_extracted)
    both = [r for r in records if r.x_axis_correct and r.y_axis_correct]
    return {
        "n_figures": n,
        "n_data_extracted": extracted,
        "n_both_axes_correct": len(both),
        "n_all_correct": sum(1 for r in both if r.n_extracted == r.n_truth),
        "fraction_both_axes_correct": len(both) / n if n else 0.0,
    }


TABLE_COLUMNS = ("figure", "data_extracted", "n_extracted", "n_truth",
                 "x_axis_correct", "y_axis_correct")


def render_table(records: list[EvalRecord]) -> str:
    """CSV table, one row per figure, columns in TABLE_COLUMNS order."""
    def cell(v: bool | int | str) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    lines = [",".join(TABLE_COLUMNS)]
    lines += [",".join(map(cell, astuple(r))) for r in records]
    return "\n".join(lines) + "\n"


def evaluate_output_tree(output_root: str | Path,
                         truth_root: str | Path | None = None,
                         tolerance: float = DEFAULT_TOLERANCE,
                         ) -> tuple[list[EvalRecord], dict]:
    """Evaluate every figure directory under an extraction output root.

    A figure directory holds ``report.json`` and ``figure.csv``; the truth
    file ``truth.csv`` is read from the same directory, or from the
    mirrored path under ``truth_root`` when given.  Raises VecfigError, and
    ValueError for a tolerance that is not a finite number above zero or a
    ``report.json`` that does not read as a report.
    """
    _check_tolerance("tolerance", tolerance)
    output_root = Path(output_root)
    records: list[EvalRecord] = []
    for report_path in sorted(output_root.rglob("report.json")):
        fig_dir = report_path.parent
        try:
            report = ExtractionReport.from_json(report_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{report_path}: {exc}") from exc
        csv_path = fig_dir / "figure.csv"
        extracted = ([ (row[0], row[1]) for row in read_csv_points(csv_path)]
                     if csv_path.is_file() else [])
        if truth_root is not None:
            truth_path = Path(truth_root) / fig_dir.relative_to(output_root) / "truth.csv"
        else:
            truth_path = fig_dir / "truth.csv"
        if not truth_path.is_file():
            raise VecfigError(f"no truth file for {fig_dir}")
        truth = [(row[0], row[1]) for row in read_csv_points(truth_path)]
        figure_id = f"{report.tree_id}/figure{report.figure_index}"
        records.append(evaluate_figure(
            figure_id, extracted, truth,
            data_extracted=report.status is Status.OK and len(extracted) > 0,
            tolerance=tolerance))
    return records, aggregate(records)


def write_evaluation(records: list[EvalRecord], agg: dict,
                     destination: str | Path) -> None:
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "evaluation.csv").write_text(render_table(records), encoding="utf-8")
    (dest / "evaluation.json").write_text(
        json.dumps(agg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
