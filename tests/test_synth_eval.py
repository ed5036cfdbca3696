from __future__ import annotations

import itertools
import math
import random

import pytest

from vecfig.errors import MissingTruth
from vecfig.evaluate import (TABLE_COLUMNS, EvalRecord, Pair, aggregate,
                             evaluate_figure, match_points, render_table)
from vecfig.synth import AxisStyle, SyntheticSpec, generate_scatter_svg


class TestGenerator:
    def test_truth_inside_ranges(self):
        spec = SyntheticSpec(n_points=1, x_range=(0, 1), y_range=(0, 1), seed=9)
        _, truth = generate_scatter_svg(spec)
        assert len(truth) == 1
        (x, y), = truth
        assert 0 <= x <= 1 and 0 <= y <= 1

    def test_deterministic(self):
        spec = SyntheticSpec(n_points=12, seed=77)
        svg1, truth1 = generate_scatter_svg(spec)
        svg2, truth2 = generate_scatter_svg(spec)
        assert svg1 == svg2
        assert truth1 == truth2

    def test_different_seeds_differ(self):
        a, _ = generate_scatter_svg(SyntheticSpec(seed=1))
        b, _ = generate_scatter_svg(SyntheticSpec(seed=2))
        assert a != b

    def test_labels_at_most_4_significant_digits(self):
        import re
        svg, _ = generate_scatter_svg(SyntheticSpec(
            x_range=(0.123456, 9.87654), y_range=(-3.33333, 7.77777), seed=1))
        for m in re.finditer(rb"<text[^>]*>([-0-9.e+]+)</text>", svg):
            digits = re.sub(rb"[^0-9]", b"", m.group(1).split(b"e")[0]).lstrip(b"0")
            assert len(digits) <= 4

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_points=0)
        with pytest.raises(ValueError):
            SyntheticSpec(x_range=(1, 1))
        with pytest.raises(ValueError):
            SyntheticSpec(n_ticks_x=1)


class TestEvaluateFigure:
    def test_perfect_extraction(self):
        truth = [(float(i), float(i % 5)) for i in range(23)]
        rec = evaluate_figure("10.1515/med-2016-0052/1", truth, truth, True)
        assert rec.data_extracted
        assert rec.n_extracted == rec.n_truth == 23
        assert rec.x_axis_correct and rec.y_axis_correct

    def test_negated_y_fails_y_only(self):
        truth = [(1.0, 1.0), (2.0, 3.0), (3.0, 5.0)]
        flipped = [(x, -y) for x, y in truth]
        rec = evaluate_figure("f", flipped, truth, True)
        assert rec.x_axis_correct
        assert not rec.y_axis_correct

    def test_empty_extraction(self):
        truth = [(float(i), 0.0) for i in range(5)]
        rec = evaluate_figure("f", [], truth, False)
        assert not rec.data_extracted
        assert rec.n_truth == 5
        assert not rec.x_axis_correct and not rec.y_axis_correct

    def test_surplus_overlap_points_still_correct(self):
        # 24 extracted vs 22 truth: duplicates from overlap recovery
        truth = [(float(i), float(i)) for i in range(22)]
        extracted = truth + [(0.0, 0.0), (1.0, 1.0)]
        rec = evaluate_figure("10.1186/s13027-016-0058-9/1", extracted, truth, True)
        assert rec.n_extracted == 24 and rec.n_truth == 22
        assert rec.x_axis_correct and rec.y_axis_correct

    def test_missing_points_fail(self):
        truth = [(float(i), float(i)) for i in range(5)]
        rec = evaluate_figure("f", truth[:3], truth, True)
        assert not rec.x_axis_correct

    def test_tolerance_scales_with_span(self):
        truth = [(0.0, 0.0), (100.0, 1.0)]
        off = [(0.4, 0.0), (100.0, 1.0)]  # x off by 0.4 < 0.5% of span 100
        rec = evaluate_figure("f", off, truth, True)
        assert rec.x_axis_correct
        off2 = [(0.6, 0.0), (100.0, 1.0)]
        rec2 = evaluate_figure("f", off2, truth, True)
        assert not rec2.x_axis_correct

    def test_missing_truth(self):
        with pytest.raises(MissingTruth):
            evaluate_figure("f", [], [], True)


def match_points_optimal(truth: list[Pair], extracted: list[Pair],
                         spans: tuple[float, float]) -> list[tuple[int, int]]:
    """Brute-force minimum-total-distance matching; small inputs only."""
    sx, sy = spans
    n, m = len(truth), len(extracted)
    k = min(n, m)
    best: tuple[float, list[tuple[int, int]]] | None = None
    for t_subset in itertools.combinations(range(n), k):
        for e_perm in itertools.permutations(range(m), k):
            total = sum(
                math.hypot((truth[ti][0] - extracted[ei][0]) / sx,
                           (truth[ti][1] - extracted[ei][1]) / sy)
                for ti, ei in zip(t_subset, e_perm))
            if best is None or total < best[0] - 1e-12:
                best = (total, list(zip(t_subset, e_perm)))
    return best[1] if best else []


class TestMatching:
    def test_greedy_matches_optimal_small(self):
        rng = random.Random(13)
        for _ in range(60):
            n_truth = rng.randint(1, 6)
            truth = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(n_truth)]
            extracted = [(x + rng.gauss(0, 0.01), y + rng.gauss(0, 0.01))
                         for x, y in truth]
            for _ in range(rng.randint(0, 3)):
                extracted.append((rng.uniform(20, 30), rng.uniform(20, 30)))
            rng.shuffle(extracted)
            spans = (10.0, 10.0)
            greedy = set(match_points(truth, extracted, spans))
            optimal = set(match_points_optimal(truth, extracted, spans))
            assert greedy == optimal


class TestAggregate:
    def _rec(self, x_ok, y_ok, extracted=True):
        return EvalRecord("f", extracted, 5, 5, x_ok and extracted,
                          y_ok and extracted)

    def test_counts_and_fraction(self):
        records = [self._rec(True, True), self._rec(True, False),
                   self._rec(False, False, extracted=False)]
        agg = aggregate(records)
        assert agg["n_figures"] == 3
        assert agg["n_data_extracted"] == 2
        assert agg["n_both_axes_correct"] == 1
        assert agg["fraction_both_axes_correct"] == pytest.approx(1 / 3)

    def test_exhaustive_small_lists(self):
        import itertools
        for bits in itertools.product([False, True], repeat=3):
            records = [self._rec(b, b) for b in bits]
            agg = aggregate(records)
            assert agg["n_both_axes_correct"] == sum(bits)
            assert agg["fraction_both_axes_correct"] == pytest.approx(sum(bits) / 3)

    def test_empty(self):
        agg = aggregate([])
        assert agg["fraction_both_axes_correct"] == 0.0


class TestTable:
    def test_columns_and_yes_no_cells(self):
        records = [EvalRecord("t/figure1", True, 24, 22, True, True),
                   EvalRecord("t/figure2", False, 0, 5, False, False)]
        table = render_table(records)
        lines = table.splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert lines[1] == "t/figure1,yes,24,22,yes,yes"
        assert lines[2] == "t/figure2,no,0,5,no,no"
