"""Evaluation metrics against hand-computed and high-precision frozen oracles."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlabel.errors import EmptyInput, FrameMismatch
from seqlabel.labels import Box2D, Dimensions3D, FrameAnnotation, KittiLabelLine
from seqlabel.metrics import (
    BUCKETS,
    DepthReport,
    MatchedPair,
    ViewpointReport,
    _median,
    _pairwise_sum,
    bucket_of,
    depth_metrics,
    format_report_table,
    interval_breakdown,
    match_annotations,
    viewpoint_metrics,
)

from conftest import oracle_depth_stats, oracle_match_annotations, oracle_viewpoint_stats


def _label(category="Car", box=(0, 0, 100, 100), z=20.0, ry=0.0):
    return KittiLabelLine(
        category=category, truncated=0.0, occluded=0, alpha=0.0,
        box2d=Box2D(*box), dims=Dimensions3D(1.5, 1.7, 4.2),
        location=(0.0, 1.6, z), yaw_local=ry,
    )


def _frame(labels, frame_id=0):
    return FrameAnnotation(frame_id, labels)


# The 10-pair fixture.  Expected values computed once with 50-digit
# arithmetic (delta/acc are exact fractions; the rest are frozen decimals).
FIXTURE_PAIRS = [
    (8.0, 8.4, 0.1, 0.15),
    (9.5, 9.0, -0.2, -0.2),
    (12.0, 14.9, 0.5, 1.2),
    (18.0, 22.6, 1.0, 0.2),
    (25.0, 24.0, -1.5, -1.6),
    (29.0, 36.3, 3.0, -3.0),
    (33.0, 33.0, 0.0, 0.0),
    (41.0, 39.5, 2.0, 2.6),
    (47.0, 58.0, -2.8, -2.0),
    (55.0, 50.0, 0.3, 0.25),
]
FIXTURE_EXPECTED = {
    "delta_125": 0.8,
    "abs_rel": 0.125311494905486398837,
    "sqr_rel": 0.6884182473691449655297,
    "rmse": 4.822032766375607841335,
    "rmse_log": 0.1451626695043680314958,
    "acc_pi4": 0.8,
    "acc_pi6": 0.6,
    "mederr": 10.97745043640715595789,
    "bucket_0_10_abs_rel": 0.05131578947368423273078,
    "bucket_0_10_rmse": 0.4527692569068709882613,
    "bucket_40_50_mederr": 40.10704565915762461376,
}


def fixture_pairs():
    return [MatchedPair(z_gt=zg, z_pred=zp, yaw_gt=yg, yaw_pred=yp)
            for zg, zp, yg, yp in FIXTURE_PAIRS]


@st.composite
def _grid_labels(draw):
    """Up to 8 labels on a 10 px grid, so edges touch, boxes have zero width or
    height and IoUs tie; categories mix, and depths include 0 and below.
    rotation_y is the label's index, which tells matched pairs apart."""
    labels = []
    for index in range(draw(st.integers(0, 8))):
        left, top = draw(st.integers(0, 6)) * 10, draw(st.integers(0, 6)) * 10
        width, height = draw(st.integers(0, 3)) * 10, draw(st.integers(0, 3)) * 10
        labels.append(_label(category=draw(st.sampled_from(["Car", "Van"])),
                             box=(left, top, left + width, top + height),
                             z=draw(st.sampled_from([-2.0, 0.0, 8.0, 21.0])), ry=float(index)))
    return labels


class TestMatching:
    @given(_grid_labels(), _grid_labels(),
           st.one_of(st.sampled_from([1e-9, 1 / 3, 0.5, 1.0]),
                     st.floats(0, 1, exclude_min=True)))
    @settings(max_examples=200, deadline=None)
    def test_matches_all_pairs_oracle(self, pred, gt, iou_min):
        assert match_annotations(_frame(pred), _frame(gt), iou_min) \
            == oracle_match_annotations(_frame(pred), _frame(gt), iou_min)

    def test_identical_sets_all_match(self):
        gt = _frame([_label(z=10.0), _label(box=(200, 0, 300, 100), z=30.0)])
        pairs = match_annotations(gt, gt)
        assert len(pairs) == 2
        assert all(p.z_gt == p.z_pred for p in pairs)

    def test_disjoint_no_match(self):
        pred = _frame([_label(box=(0, 0, 50, 50))])
        gt = _frame([_label(box=(500, 500, 600, 600))])
        assert match_annotations(pred, gt) == []

    def test_two_preds_one_gt_highest_iou_wins(self):
        pred = _frame([
            _label(box=(0, 0, 100, 100), z=11.0),
            _label(box=(0, 0, 100, 90), z=12.0),  # IoU 0.9 with gt
        ])
        gt = _frame([_label(box=(0, 0, 100, 100), z=10.0)])
        pairs = match_annotations(pred, gt)
        assert len(pairs) == 1
        assert pairs[0].z_pred == 11.0

    def test_category_must_match(self):
        pred = _frame([_label(category="Van")])
        gt = _frame([_label(category="Car")])
        assert match_annotations(pred, gt) == []

    def test_below_iou_min_no_match(self):
        pred = _frame([_label(box=(0, 0, 100, 100))])
        gt = _frame([_label(box=(60, 0, 160, 100))])  # IoU = 40/160 = 0.25
        assert match_annotations(pred, gt, iou_min=0.5) == []
        assert len(match_annotations(pred, gt, iou_min=0.2)) == 1

    @pytest.mark.parametrize("z_gt", [-3.0, 0.0, -1000.0])
    def test_gt_at_non_positive_depth_never_matches(self, z_gt):
        pred = _frame([_label(box=(0, 0, 100, 100), z=20.0)])
        gt = _frame([_label(box=(0, 0, 100, 100), z=z_gt),
                     _label(box=(0, 0, 100, 80), z=21.0)])  # IoU 0.8, positive depth
        pairs = match_annotations(pred, gt)
        assert [(p.z_gt, p.z_pred) for p in pairs] == [(21.0, 20.0)]

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            match_annotations(_frame([], frame_id=0), _frame([], frame_id=1))

    def test_one_to_one(self):
        # Two gt boxes heavily overlapping one pred: only one pair comes out.
        pred = _frame([_label(box=(0, 0, 100, 100), z=11.0)])
        gt = _frame([_label(box=(0, 0, 100, 100), z=10.0),
                     _label(box=(0, 0, 100, 95), z=20.0)])
        pairs = match_annotations(pred, gt)
        assert len(pairs) == 1
        assert pairs[0].z_gt == 10.0


class TestDepthMetrics:
    def test_single_pair_hand_values(self):
        r = depth_metrics([MatchedPair(10.0, 12.0, 0.0, 0.0)])
        assert r.abs_rel == pytest.approx(0.2, abs=1e-15)
        assert r.sqr_rel == pytest.approx(0.4, abs=1e-15)
        assert r.rmse == pytest.approx(2.0, abs=1e-15)
        assert r.delta_125 == 1.0  # ratio 1.2 < 1.25

    def test_exact_predictions_all_zero(self):
        r = depth_metrics([MatchedPair(z, z, 0.0, 0.0) for z in (5.0, 15.0, 45.0)])
        assert r.abs_rel == 0.0 and r.sqr_rel == 0.0 and r.rmse == 0.0
        assert r.rmse_log == 0.0
        assert r.delta_125 == 1.0

    def test_delta_threshold_is_strict(self):
        assert depth_metrics([MatchedPair(10.0, 13.0, 0, 0)]).delta_125 == 0.0
        assert depth_metrics([MatchedPair(10.0, 12.5, 0, 0)]).delta_125 == 0.0  # exactly 1.25

    def test_non_positive_prediction_excluded_from_log(self):
        r = depth_metrics([MatchedPair(10.0, -1.0, 0, 0), MatchedPair(10.0, 10.0, 0, 0)])
        assert r.log_excluded == 1
        assert r.rmse_log == 0.0
        assert r.delta_125 == 0.5  # the bad pair counts as a miss

    def test_empty(self):
        with pytest.raises(EmptyInput):
            depth_metrics([])


class TestViewpointMetrics:
    def test_exact(self):
        r = viewpoint_metrics([MatchedPair(10.0, 10.0, 1.2, 1.2)])
        assert r.acc_pi4 == 1.0 and r.acc_pi6 == 1.0 and r.mederr == 0.0

    def test_forty_degree_error(self):
        r = viewpoint_metrics([MatchedPair(10.0, 10.0, 0.0, math.radians(40))])
        assert r.acc_pi4 == 1.0   # 40 < 45
        assert r.acc_pi6 == 0.0   # 40 >= 30

    def test_median_by_hand(self):
        pairs = [MatchedPair(10.0, 10.0, 0.0, math.radians(d)) for d in (5, 10, 20)]
        assert viewpoint_metrics(pairs).mederr == pytest.approx(10.0, abs=1e-12)

    def test_wraparound_error(self):
        r = viewpoint_metrics([MatchedPair(10.0, 10.0, 3.0, -3.0)])
        assert r.mederr == pytest.approx(math.degrees(2 * math.pi - 6.0), abs=1e-9)

    @given(st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
                    min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_acc_ordering(self, yaws):
        pairs = [MatchedPair(10.0, 10.0, yg, yp) for yg, yp in yaws]
        r = viewpoint_metrics(pairs)
        assert r.acc_pi6 <= r.acc_pi4


class TestIntervals:
    def test_bucket_of(self):
        assert bucket_of(0.1) == "0-10"
        assert bucket_of(10.0) == "10-20"  # left-closed boundary
        assert bucket_of(49.999) == "40-50"
        assert bucket_of(50.0) == "50+"
        assert bucket_of(500.0) == "50+"

    def test_single_bucket_present(self):
        pairs = [MatchedPair(15.0, 15.0, 0, 0)] * 3
        grouped = interval_breakdown(pairs)
        assert list(grouped) == ["10-20"]

    def test_one_pair_per_bucket(self):
        pairs = [MatchedPair(z, z, 0, 0) for z in (5.0, 15.0, 25.0, 35.0, 45.0, 75.0)]
        grouped = interval_breakdown(pairs)
        assert list(grouped) == list(BUCKETS)
        assert all(len(v) == 1 for v in grouped.values())

    def test_empty_buckets_absent_in_reports(self):
        r = depth_metrics([MatchedPair(15.0, 15.0, 0, 0)])
        assert set(r.intervals) == {"10-20"}

    def test_rmse_recombination(self):
        pairs = fixture_pairs()
        r = depth_metrics(pairs)
        total_sq = 0.0
        total_n = 0
        for sub in r.intervals.values():
            total_sq += sub.rmse**2 * sub.count
            total_n += sub.count
        assert math.sqrt(total_sq / total_n) == pytest.approx(r.rmse, abs=1e-12)
        assert total_n == r.count

    def test_mean_metric_recombination(self):
        r = depth_metrics(fixture_pairs())
        abs_rel = sum(s.abs_rel * s.count for s in r.intervals.values()) / r.count
        assert abs_rel == pytest.approx(r.abs_rel, abs=1e-12)


class TestFrozenFixture:
    def test_depth_fields(self):
        r = depth_metrics(fixture_pairs())
        e = FIXTURE_EXPECTED
        assert r.delta_125 == pytest.approx(e["delta_125"], abs=1e-12)
        assert r.abs_rel == pytest.approx(e["abs_rel"], abs=1e-12)
        assert r.sqr_rel == pytest.approx(e["sqr_rel"], abs=1e-12)
        assert r.rmse == pytest.approx(e["rmse"], abs=1e-12)
        assert r.rmse_log == pytest.approx(e["rmse_log"], abs=1e-12)
        assert r.intervals["0-10"].abs_rel == pytest.approx(e["bucket_0_10_abs_rel"], abs=1e-12)
        assert r.intervals["0-10"].rmse == pytest.approx(e["bucket_0_10_rmse"], abs=1e-12)

    def test_viewpoint_fields(self):
        r = viewpoint_metrics(fixture_pairs())
        e = FIXTURE_EXPECTED
        assert r.acc_pi4 == pytest.approx(e["acc_pi4"], abs=1e-12)
        assert r.acc_pi6 == pytest.approx(e["acc_pi6"], abs=1e-12)
        assert r.mederr == pytest.approx(e["mederr"], abs=1e-12)
        assert r.intervals["40-50"].mederr == pytest.approx(e["bucket_40_50_mederr"], abs=1e-12)

    def test_permutation_invariance(self):
        pairs = fixture_pairs()
        rng = np.random.default_rng(1)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        a = depth_metrics(pairs)
        b = depth_metrics(shuffled)
        assert (a.delta_125, a.abs_rel, a.sqr_rel, a.rmse) == pytest.approx(
            (b.delta_125, b.abs_rel, b.sqr_rel, b.rmse), abs=1e-12
        )
        assert viewpoint_metrics(pairs).mederr == viewpoint_metrics(shuffled).mederr


class TestNumpyOracle:
    """The pure-Python metrics against the numpy bodies they replaced, bit for bit."""

    @given(st.lists(st.floats(-1e12, 1e12), min_size=0, max_size=600),
           st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000, 3000]))
    @settings(max_examples=200)
    def test_pairwise_sum_is_numpy_add_reduce(self, values, pad):
        # pad pushes the length across the 8- and 128-item block edges.
        values = values + [float(v) for v in np.linspace(-3.7, 5.1, pad)]
        want = float(np.add.reduce(np.array(values, dtype=float)))
        assert (0.0 + _pairwise_sum(values)).hex() == want.hex()

    @pytest.mark.parametrize("values", [
        [3.0], [2.5, -1.0, 7.25], [1.0, 2.0], [0.1, 0.2], [4.0, -4.0, 0.0, 1e-300],
        [5.0, 5.0, 5.0, 5.0], [1.0, 1.0, 2.0, 2.0], [-3.5, -1.25, -2.0, -7.0],
        [-0.0, 0.0], [1.7976931348623157e308, 1.7976931348623157e308], [5e-324, 1e-323],
        [0.1 * k for k in range(101)], [math.pi * (-1) ** k / (k + 1) for k in range(100)],
    ])
    def test_median_is_statistics_median(self, values):
        assert _median(values).hex() == statistics.median(values).hex()

    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -1.5, 2.25]),
                    min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_median_matches_statistics_median_on_any_list(self, values):
        # Hypothesis draws odd and even lengths, repeated values, signs and infinities.
        assert _median(values).hex() == statistics.median(values).hex()

    _DEPTH = st.floats(0.05, 120.0)
    # Predictions include non-positive depths, which leave RMSE_log, and
    # depths within 0.1% of the truth, where log(z_gt) - log(z_pred) cancels.
    _PRED = st.one_of(st.floats(0.05, 120.0), st.just(0.0), st.floats(-5.0, -1e-6),
                      st.floats(-1e-3, 1e-3).map(lambda r: ("near", r)))
    # Yaw errors land near +-pi as often as anywhere else.
    _YAW = st.one_of(st.floats(-math.pi, math.pi),
                     st.floats(math.pi - 1e-9, math.pi), st.floats(-math.pi, -math.pi + 1e-9))

    def _pair(self, data):
        z_gt = data.draw(self._DEPTH)
        z_pred = data.draw(self._PRED)
        if isinstance(z_pred, tuple):
            z_pred = z_gt * (1.0 + z_pred[1])
        return MatchedPair(z_gt, z_pred, data.draw(self._YAW), data.draw(self._YAW))

    @given(st.data(), st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 200, 300]))
    @settings(max_examples=60, deadline=None)
    def test_reports_equal_numpy(self, data, n):
        pairs = [self._pair(data) for _ in range(n)]
        depth = depth_metrics(pairs)
        viewpoint = viewpoint_metrics(pairs)
        groups = interval_breakdown(pairs)
        assert list(depth.intervals) == list(viewpoint.intervals) == list(groups)
        for got, group in [(depth, pairs), *((depth.intervals[k], g) for k, g in groups.items())]:
            want = oracle_depth_stats(group)
            for name in ("delta_125", "abs_rel", "sqr_rel", "rmse", "count", "log_excluded"):
                assert getattr(got, name) == getattr(want, name), name
            if want.rmse_log is None:
                assert got.rmse_log is None
            else:
                # math.log and np.log may differ by an ulp, and the difference of
                # two close logs keeps that ulp while shrinking, so the bound is
                # 1e-15 relative or 2 ulps of the largest |log z|, whichever is larger.
                logs = [abs(math.log(z)) for p in group if p.z_pred > 0 for z in (p.z_gt, p.z_pred)]
                assert got.rmse_log == pytest.approx(want.rmse_log, rel=1e-15,
                                                     abs=2 * math.ulp(max(logs)))
        for got, group in [(viewpoint, pairs),
                           *((viewpoint.intervals[k], g) for k, g in groups.items())]:
            want = oracle_viewpoint_stats(group)
            for name in ("acc_pi4", "acc_pi6", "mederr", "count"):
                assert getattr(got, name) == getattr(want, name), name

# The full report tables, byte for byte: the fixture pairs, and pairs whose
# predictions are all non-positive, which leave RMSElog as "-".
FIXTURE_TABLE = """\
Depth estimation
method           d<1.25   AbsRel   SqrRel     RMSE  RMSElog      N
annotated        0.8000   0.1253   0.6884   4.8220   0.1452     10

Depth estimation by interval (m)
0-10             1.0000   0.0513   0.0232   0.4528   0.0515      2
10-20            0.5000   0.2486   0.9382   3.8451   0.2221      2
20-30            0.5000   0.1459   0.9388   5.2101   0.1614      2
30-40            1.0000   0.0000   0.0000   0.0000   0.0000      1
40-50            1.0000   0.1353   1.3147   7.8502   0.1510      2
50+              1.0000   0.0909   0.4545   5.0000   0.0953      1

Viewpoint estimation
method         Acc_pi/4 Acc_pi/6   MedErr      N
annotated        0.8000   0.6000  10.9775     10

Viewpoint estimation by interval (m)
0-10             1.0000   1.0000   1.4324      2
10-20            0.5000   0.0000  42.9718      2
20-30            1.0000   1.0000  10.9775      2
30-40            1.0000   1.0000   0.0000      1
40-50            0.5000   0.0000  40.1070      2
50+              1.0000   1.0000   2.8648      1
"""
NON_POSITIVE_PAIRS = [MatchedPair(8.0, -1.0, 0.1, 0.2), MatchedPair(25.0, 0.0, -1.0, 2.5),
                      MatchedPair(55.0, -3.0, 3.0, -3.0)]
NON_POSITIVE_TABLE = """\
Depth estimation
method           d<1.25   AbsRel   SqrRel     RMSE  RMSElog      N
annotated        0.0000   1.0598  32.0962  36.8330        -      3

Depth estimation by interval (m)
0-10             0.0000   1.1250  10.1250   9.0000        -      1
20-30            0.0000   1.0000  25.0000  25.0000        -      1
50+              0.0000   1.0545  61.1636  58.0000        -      1

Viewpoint estimation
method         Acc_pi/4 Acc_pi/6   MedErr      N
annotated        0.6667   0.6667  16.2253      3

Viewpoint estimation by interval (m)
0-10             1.0000   1.0000   5.7296      1
20-30            0.0000   0.0000 159.4648      1
50+              1.0000   1.0000  16.2253      1
"""


def test_report_table_layout():
    d = depth_metrics(fixture_pairs())
    v = viewpoint_metrics(fixture_pairs())
    table = format_report_table(d, v)
    assert "d<1.25" in table and "AbsRel" in table and "RMSElog" in table
    assert "Acc_pi/4" in table and "MedErr" in table
    # One interval row per non-empty bucket, for both metric families.
    for label in BUCKETS:
        assert table.count(label) == 2
    assert table == FIXTURE_TABLE
    pairs = NON_POSITIVE_PAIRS
    assert format_report_table(depth_metrics(pairs), viewpoint_metrics(pairs)) \
        == NON_POSITIVE_TABLE


def test_report_rows_keep_their_header_width():
    # A metric whose 4 decimals need more than 8 characters prints with an exponent;
    # 999.99996 rounds to 1000.0000, which is one too many.
    depth = DepthReport(delta_125=0.5, abs_rel=999.9999, sqr_rel=999.99996, rmse=4e306,
                        rmse_log=None, count=1)
    viewpoint = ViewpointReport(acc_pi4=1.0, acc_pi6=0.0, mederr=180.0, count=1)
    huge = [MatchedPair(1.0, 1e308, 0.0, 0.0), MatchedPair(20.0, 21.0, 3.0, -3.0)]
    for table in (format_report_table(depth, viewpoint),
                  format_report_table(depth_metrics(huge), viewpoint_metrics(huge))):
        rows = [line for line in table.splitlines()
                if line.startswith(("method", "annotated", *BUCKETS))]
        assert [row.split()[0] for row in rows].count("method") == 2
        width = None
        for row in rows:
            width = len(row) if row.startswith("method") else width
            assert len(row) == width, row
    assert format_report_table(depth, viewpoint).splitlines()[2].split() == [
        "annotated", "0.5000", "999.9999", "1.0e+03", "4.0e+306", "-", "1"]
