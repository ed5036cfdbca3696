from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

from vecfig.errors import VecfigError
from vecfig import evaluate
from vecfig.evaluate import (TABLE_COLUMNS, EvalRecord, Pair, _spans, aggregate,
                             evaluate_figure, match_points, render_table)
from vecfig.synth import AxisStyle, SyntheticSpec, generate_scatter_svg


def _pinned_specs(case: str) -> list[SyntheticSpec]:
    """The figures whose bytes and truth ``test_pinned_output`` pins."""
    if case == "log_x_ticks":
        return [SyntheticSpec(n_points=n, n_ticks_x=t, axis_style=AxisStyle.LOG_X, seed=t)
                for t in range(2, 9) for n in (1, 7, 300)]
    if case == "negative_x_range":
        return [SyntheticSpec(n_points=n, x_range=(-250.5, -0.125), y_range=(-0.003, 0.0171),
                              n_ticks_x=7, axis_style=style, seed=s)
                for style in (AxisStyle.STANDARD, AxisStyle.REVERSED_X)
                for s in (1, 2) for n in (1, 7, 300)]
    return [SyntheticSpec(n_points=n, x_range=(-1.5, 8.25), y_range=(0.0, 1.0 / 3.0),
                          n_ticks_y=4, axis_style=AxisStyle(case), seed=s)
            for s in (0, 1, 2, 3) for n in (1, 7, 300)]


class TestGenerator:
    # SHA-256 over each case's SVG bytes and over the repr of its truth lists;
    # they change only with a deliberate change to the generated figures
    @pytest.mark.parametrize("case,svg_digest,truth_digest", [
        ("standard", "b930ac8b59438b15039c7fa931a61da2400ccd7891c2176540ab4cd8c27ebdb6",
         "13b986eae369c92c0d0c231bf48a90df333231f7601296d27c97af4bd416b2c7"),
        ("reversed_x", "2d2f98ee419aef44a81697ed8ce142c3601eed20a58daca2daedf15fb8da15c7",
         "13b986eae369c92c0d0c231bf48a90df333231f7601296d27c97af4bd416b2c7"),
        ("reversed_y", "e9d0a6e5597b152210edc9f509459e67d31c02bab909e5ddfe37a2d29601b2af",
         "13b986eae369c92c0d0c231bf48a90df333231f7601296d27c97af4bd416b2c7"),
        ("log_x", "7d19cb9f093b21446db9877a0f1e0ee1c28bafeb0cdb6cdc5c8e81e96f63bd75",
         "d5cf9ae75025e06b393a32948a956053d3d79a8b6b0b61fbdd1d9013c808b2c3"),
        ("raster_body", "e12faccbf5e9ab64b30dc4dc34d15bf6a06eccb7f06b477ae664ca9fe87665a0",
         "13b986eae369c92c0d0c231bf48a90df333231f7601296d27c97af4bd416b2c7"),
        ("log_x_ticks", "67b862eec560496718c1f9c798e07c7cdbfe3981fe9a50e794e8577f331dfe0e",
         "c3c33c3b136059cb981cdc5f0d82e0b09245684eac7ae763eeb423147cf7fc98"),
        ("negative_x_range", "c1cba16b8849ffef7a06e7290fc2c9105f0cb2070f5921514513d5ad79715ca6",
         "b02c0233b7cd771a95e216fca62f2b61810a13f0c1d3426f5c71758d55a42c80"),
    ])
    def test_pinned_output(self, case, svg_digest, truth_digest):
        svgs, truths = hashlib.sha256(), hashlib.sha256()
        for spec in _pinned_specs(case):
            svg, truth = generate_scatter_svg(spec)
            svgs.update(svg)
            truths.update(repr(truth).encode())
        assert (svgs.hexdigest(), truths.hexdigest()) == (svg_digest, truth_digest)

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
        with pytest.raises(ValueError, match="^n_points must be >= 1$"):
            SyntheticSpec(n_points=0)
        with pytest.raises(ValueError, match="^ranges must satisfy min < max$"):
            SyntheticSpec(x_range=(1, 1))
        with pytest.raises(ValueError, match="^tick counts must be >= 2$"):
            SyntheticSpec(n_ticks_x=1)
        for radius in (0, -1):
            with pytest.raises(ValueError, match="^marker_radius must be > 0$"):
                SyntheticSpec(marker_radius=radius)
        with pytest.raises(ValueError, match="n_points must be an integer"):
            SyntheticSpec(n_points=True)
        with pytest.raises(ValueError, match="canvas must be two finite numbers"):
            SyntheticSpec(canvas=(600,))
        with pytest.raises(ValueError, match="x_range must be two finite numbers"):
            SyntheticSpec(x_range=(0, math.inf))
        # finite ends whose span, or a tick step's multiple of it, overflows
        with pytest.raises(ValueError, match=r"x_range \[-1e\+308, 1e\+308\] is too wide"):
            SyntheticSpec(x_range=(-1e308, 1e308))
        with pytest.raises(ValueError, match=r"y_range \[-4e\+307, 4e\+307\] is too wide"):
            SyntheticSpec(y_range=(-4e307, 4e307))
        assert SyntheticSpec(y_range=(-2e307, 2e307)).y_range == (-2e307, 2e307)
        # the axes need the margins and at least a point between them
        with pytest.raises(ValueError, match="canvas must be wider than 85 and taller than 75"):
            SyntheticSpec(canvas=(50, 40))
        with pytest.raises(ValueError, match="canvas must be wider than 85"):
            SyntheticSpec(canvas=(85, 450))
        with pytest.raises(ValueError, match="canvas must be wider than 85"):
            SyntheticSpec(canvas=(600, 75))
        assert SyntheticSpec(canvas=(86, 76)).canvas == (86, 76)
        # a log_x tick at 10 ** 309 overflows a float
        with pytest.raises(ValueError, match="n_ticks_x must be <= 309 for log_x, got 310"):
            SyntheticSpec(axis_style=AxisStyle.LOG_X, n_ticks_x=310)
        assert generate_scatter_svg(SyntheticSpec(axis_style=AxisStyle.LOG_X, n_ticks_x=309))

    @pytest.mark.parametrize("fields,message", [
        ({"n_ticks_y": 5.0}, "n_ticks_y must be an integer, got 5.0"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
        ({"y_range": (math.nan, 1)}, "y_range must be two finite numbers, got (nan, 1)"),
        ({"y_range": "01"}, "y_range must be two finite numbers, got '01'"),
        ({"x_range": (False, 1)}, "x_range must be two finite numbers, got (False, 1)"),
        ({"marker_radius": math.nan}, "marker_radius must be a finite number, got nan"),
        ({"marker_radius": None}, "marker_radius must be a finite number, got None"),
        ({"axis_style": "LOG_X"}, "'LOG_X' is not a valid AxisStyle"),
    ])
    def test_wrong_field_types_rejected(self, fields, message):
        with pytest.raises(ValueError) as info:
            SyntheticSpec(**fields)
        assert str(info.value) == message

    def test_style_name_and_list_pairs_as_member_and_tuples(self):
        by_name = SyntheticSpec(n_points=9, x_range=[-2, 3.5], y_range=[0, 1e-3],
                                canvas=[500, 400], axis_style="reversed_y", seed=4)
        as_members = SyntheticSpec(n_points=9, x_range=(-2, 3.5), y_range=(0, 1e-3),
                                   canvas=(500, 400), axis_style=AxisStyle.REVERSED_Y,
                                   seed=4)
        assert by_name == as_members and isinstance(by_name.x_range, tuple)
        assert generate_scatter_svg(by_name) == generate_scatter_svg(as_members)


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
        with pytest.raises(VecfigError, match="^f: empty truth$"):
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


def match_points_all_pairs(truth: list[Pair], extracted: list[Pair],
                           spans: tuple[float, float]) -> list[tuple[int, int]]:
    """The greedy matcher as first written: every pair sorted at once."""
    sx, sy = spans
    dists = []
    for ti, (tx, ty) in enumerate(truth):
        for ei, (ex, ey) in enumerate(extracted):
            d = math.hypot((tx - ex) / sx, (ty - ey) / sy)
            dists.append((d, ti, ei))
    dists.sort()
    used_t: set[int] = set()
    used_e: set[int] = set()
    matches = []
    for _, ti, ei in dists:
        if ti in used_t or ei in used_e:
            continue
        used_t.add(ti)
        used_e.add(ei)
        matches.append((ti, ei))
    return matches


def _lattice_points(rng: random.Random, n: int, step: float, size: int,
                    offset: float) -> list[Pair]:
    """Points on a coarse lattice, so distances repeat and tie exactly."""
    return [(offset + step * rng.randint(0, size), offset + step * rng.randint(0, size))
            for _ in range(n)]


class TestMatching:
    @pytest.mark.parametrize("radius", [evaluate.MATCH_RADIUS, 0.003, 0.05, 0.3])
    @pytest.mark.parametrize("offset", [0.0, -7.5, 1e6])
    def test_same_matches_as_all_pairs(self, monkeypatch, radius, offset):
        monkeypatch.setattr(evaluate, "MATCH_RADIUS", radius)
        rng = random.Random(f"{radius} {offset}")
        for _ in range(150):
            step = rng.choice([radius / 2, radius, 0.01, 0.1, 0.3])
            size = rng.randint(1, 12)
            truth = _lattice_points(rng, rng.randint(1, 12), step, size, offset)
            extracted = _lattice_points(rng, rng.randint(0, 12), step, size, offset)
            # exact duplicates, near copies and points from the other list
            extracted += rng.sample(truth, rng.randint(0, len(truth)))
            extracted += [(x + rng.choice([-1, 1]) * radius, y)
                          for x, y in rng.sample(truth, rng.randint(0, len(truth)))]
            truth += rng.sample(truth, rng.randint(0, min(2, len(truth))))
            rng.shuffle(extracted)
            spans = rng.choice([(1.0, 1.0), _spans(truth), (step, 2 * step)])
            assert (match_points(truth, extracted, spans)
                    == match_points_all_pairs(truth, extracted, spans))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_or_overflowing_input_as_all_pairs(self, bad):
        truth = [(0.0, 0.0), (1.0, 1.0), (0.5, bad), (bad, 0.75), (0.25, 0.25)]
        extracted = [(0.0, 0.0), (bad, 0.5), (1.0, 1.0), (0.25, 0.26), (-1e308, 0.0)]
        for spans in [(1.0, 1.0), (1e-300, 1.0), (math.inf, 1.0)]:
            assert (match_points(truth, extracted, spans)
                    == match_points_all_pairs(truth, extracted, spans))

    def test_infinite_span_as_all_pairs(self):
        # finite coordinates, but a difference overflows and gives a nan
        # distance, which sorts apart from the finite ones
        truth = [(-1e308, 0.0), (0.5, 0.0)]
        extracted = [(1e308, 1e308), (0.25, 1e308), (1.0, 0.0), (1e308, 0.0)]
        spans = (math.inf, math.inf)
        assert (match_points(truth, extracted, spans)
                == match_points_all_pairs(truth, extracted, spans))

    def test_pairs_within_radius_only_from_nearby_cells(self, monkeypatch):
        pairs_seen = []
        greedy = evaluate.greedy_match

        def counting(pairs, *args):
            pairs_seen.append(len(pairs))
            greedy(pairs, *args)

        monkeypatch.setattr(evaluate, "greedy_match", counting)
        rng = random.Random(3)
        truth = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3000)]
        extracted = [(x + 1e-9, y) for x, y in truth[::-1]]
        matches = match_points(truth, extracted, _spans(truth))
        assert sorted(matches) == [(ti, len(truth) - 1 - ti) for ti in range(len(truth))]
        # the first band finds a few pairs per point and matches every one
        assert len(pairs_seen) == 1 and pairs_seen[0] < 20 * len(truth)

    def test_pairs_linear_when_every_point_is_off(self, monkeypatch):
        pairs_seen = []
        greedy = evaluate.greedy_match

        def counting(pairs, *args):
            pairs_seen.append(len(pairs))
            greedy(pairs, *args)

        monkeypatch.setattr(evaluate, "greedy_match", counting)
        rng = random.Random(5)
        truth = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(1000)]
        spans = _spans(truth)
        extracted = [(x + 0.05 * spans[0], y) for x, y in truth]
        assert len(match_points(truth, extracted, spans)) == len(truth)
        assert sum(pairs_seen) <= 50 * len(truth)

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

    def test_surplus_points_not_all_correct(self):
        records = [self._rec(True, True), EvalRecord("f", True, 6, 5, True, True)]
        agg = aggregate(records)
        assert agg["n_both_axes_correct"] == 2
        assert agg["n_all_correct"] == 1


class TestTable:
    def test_columns_and_yes_no_cells(self):
        records = [EvalRecord("t/figure1", True, 24, 22, True, True),
                   EvalRecord("t/figure2", False, 0, 5, False, False)]
        table = render_table(records)
        lines = table.splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert lines[1] == "t/figure1,yes,24,22,yes,yes"
        assert lines[2] == "t/figure2,no,0,5,no,no"
