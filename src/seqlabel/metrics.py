"""Depth and viewpoint evaluation metrics over matched annotation pairs.

Depth: the delta < 1.25 accuracy, Abs Rel, Sqr Rel, RMSE and RMSE_log.
Viewpoint: Acc at pi/4 and pi/6 plus the median absolute yaw error in
degrees.  Everything is reported overall and per ground-truth depth
interval {[0,10), [10,20), [20,30), [30,40), [40,50), [50,inf)}.

Pure Python, so that evaluate never loads numpy, with numpy's results
bit for bit: every mean is numpy's pairwise float64 sum (_pairwise_sum)
divided by the count, and square roots, degrees and medians are the
correctly rounded stdlib ones.  The one exception is math.log, which may
differ from np.log in the last bit, so rmse_log may move by an ulp.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import EmptyInput, FrameMismatch
from .labels import FrameAnnotation, iou_2d, wrap_angle

BUCKETS = ("0-10", "10-20", "20-30", "30-40", "40-50", "50+")
_BUCKET_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def bucket_of(z_gt: float) -> str:
    """Left-closed depth bucket label for a ground-truth depth."""
    for label, lo in zip(reversed(BUCKETS), reversed(_BUCKET_EDGES)):
        if z_gt >= lo:
            return label
    return BUCKETS[0]


@dataclass(frozen=True)
class MatchedPair:
    """One matched prediction and ground truth; z_gt > 0 (match_annotations ensures it)."""

    z_gt: float
    z_pred: float
    yaw_gt: float
    yaw_pred: float

    @property
    def depth_bucket(self) -> str:
        return bucket_of(self.z_gt)


@dataclass(frozen=True)
class DepthReport:
    delta_125: float
    abs_rel: float
    sqr_rel: float
    rmse: float
    rmse_log: float | None  # None when every prediction was non-positive
    count: int
    log_excluded: int = 0
    intervals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ViewpointReport:
    acc_pi4: float
    acc_pi6: float
    mederr: float  # degrees
    count: int
    intervals: dict = field(default_factory=dict)


def match_annotations(
    pred: FrameAnnotation, gt: FrameAnnotation, iou_min: float = 0.5
) -> list[MatchedPair]:
    """Greedy highest-IoU-first one-to-one matching of same-category entries.

    Entries are read through category, box2d, depth and yaw_local, which
    annotate.AnnotationEntry and labels.KittiLabelLine both provide.

    Pairs below iou_min, which is in (0, 1], never match, nor do
    ground-truth entries at depth <= 0 (such as KITTI DontCare rows), since
    the depth metrics divide by the ground-truth depth.  Ties break on
    (prediction index, ground-truth index) so matching is deterministic.
    """
    if pred.frame_id != gt.frame_id:
        raise FrameMismatch(f"pred frame {pred.frame_id} vs gt frame {gt.frame_id}")
    # Each entry's fields are read once, not once per pair.
    gts = [(j, g.category, g.box2d, g.box2d.area() == 0.0)
           for j, g in enumerate(gt.entries) if not g.depth <= 0]
    candidates = []
    for i, p in enumerate(pred.entries):
        category, box = p.category, p.box2d
        empty = box.area() == 0.0
        for j, g_category, g_box, g_empty in gts:
            if category != g_category or (empty and g_empty):
                continue
            # Boxes that do not overlap have IoU 0, below any iou_min.
            if (box.right <= g_box.left or g_box.right <= box.left
                    or box.bottom <= g_box.top or g_box.bottom <= box.top):
                continue
            iou = iou_2d(box, g_box)
            if iou >= iou_min:
                candidates.append((-iou, i, j))
    candidates.sort()
    used_pred, used_gt = set(), set()
    pairs = []
    for neg_iou, i, j in candidates:
        if i in used_pred or j in used_gt:
            continue
        used_pred.add(i)
        used_gt.add(j)
        pairs.append(
            MatchedPair(
                z_gt=gt.entries[j].depth,
                z_pred=pred.entries[i].depth,
                yaw_gt=gt.entries[j].yaw_local,
                yaw_pred=pred.entries[i].yaw_local,
            )
        )
    return pairs


def interval_breakdown(pairs: Sequence[MatchedPair]) -> dict[str, list[MatchedPair]]:
    """Pairs grouped by ground-truth depth bucket; empty buckets are absent."""
    grouped: dict[str, list[MatchedPair]] = {}
    for pair in pairs:
        grouped.setdefault(pair.depth_bucket, []).append(pair)
    return {label: grouped[label] for label in BUCKETS if label in grouped}


_PAIRWISE_BLOCK = 128  # numpy's PW_BLOCKSIZE


def _pairwise_sum(values: Sequence[float], start: int = 0, n: int | None = None) -> float:
    """Sum of values[start:start + n] in the order of numpy's float64 pairwise sum.

    Under 8 items: one running sum.  Up to 128: 8 interleaved accumulators
    combined as a tree, then the remainder.  Above: the two halves, split
    at n / 2 rounded down to a multiple of 8.
    """
    if n is None:
        n = len(values)
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= _PAIRWISE_BLOCK:
        r = list(values[start:start + 8])
        stop = start + n - n % 8
        for i in range(start + 8, stop, 8):
            for k in range(8):
                r[k] += values[i + k]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(stop, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _mean(values: Sequence[float]) -> float:
    """np.mean of a non-empty float64 sequence: the identity 0.0 plus the pairwise sum."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _depth_stats(pairs: Sequence[MatchedPair]) -> DepthReport:
    err = [p.z_gt - p.z_pred for p in pairs]
    positive = [p for p in pairs if p.z_pred > 0]
    # A non-positive prediction counts as a miss of delta and leaves RMSE_log.
    within = sum(max(p.z_pred / p.z_gt, p.z_gt / p.z_pred) < 1.25 for p in positive)
    log_sq = []
    for p in positive:
        d = math.log(p.z_gt) - math.log(p.z_pred)
        log_sq.append(d * d)
    return DepthReport(
        delta_125=within / len(pairs),
        abs_rel=_mean([abs(e) / p.z_gt for e, p in zip(err, pairs)]),
        sqr_rel=_mean([e * e / p.z_gt for e, p in zip(err, pairs)]),
        rmse=math.sqrt(_mean([e * e for e in err])),
        rmse_log=math.sqrt(_mean(log_sq)) if log_sq else None,
        count=len(pairs),
        log_excluded=len(pairs) - len(positive),
    )


def depth_metrics(pairs: Sequence[MatchedPair]) -> DepthReport:
    """Depth report over all pairs, with per-interval sub-reports."""
    if not pairs:
        raise EmptyInput("no matched pairs")
    overall = _depth_stats(pairs)
    intervals = {
        label: _depth_stats(group) for label, group in interval_breakdown(pairs).items()
    }
    return replace(overall, intervals=intervals)


def _viewpoint_stats(pairs: Sequence[MatchedPair]) -> ViewpointReport:
    err = [abs(wrap_angle(p.yaw_pred - p.yaw_gt)) for p in pairs]
    return ViewpointReport(
        acc_pi4=sum(e < math.pi / 4 for e in err) / len(err),
        acc_pi6=sum(e < math.pi / 6 for e in err) / len(err),
        mederr=math.degrees(statistics.median(err)),
        count=len(pairs),
    )


def viewpoint_metrics(pairs: Sequence[MatchedPair]) -> ViewpointReport:
    """Viewpoint report over all pairs, with per-interval sub-reports."""
    if not pairs:
        raise EmptyInput("no matched pairs")
    overall = _viewpoint_stats(pairs)
    intervals = {
        label: _viewpoint_stats(group) for label, group in interval_breakdown(pairs).items()
    }
    return replace(overall, intervals=intervals)


def _depth_row(r: DepthReport) -> str:
    rmse_log = f"{r.rmse_log:8.4f}" if r.rmse_log is not None else "       -"
    return (
        f"{r.delta_125:10.4f} {r.abs_rel:8.4f} {r.sqr_rel:8.4f} "
        f"{r.rmse:8.4f} {rmse_log} {r.count:6d}"
    )


def _viewpoint_row(r: ViewpointReport) -> str:
    return f"{r.acc_pi4:10.4f} {r.acc_pi6:8.4f} {r.mederr:8.4f} {r.count:6d}"


def format_report_table(depth: DepthReport, viewpoint: ViewpointReport,
                        method: str = "annotated") -> str:
    """Aligned text tables: metric columns across, one row per method/interval."""
    lines = []
    lines.append("Depth estimation")
    lines.append(f"{'method':<12} {'d<1.25':>10} {'AbsRel':>8} {'SqrRel':>8} "
                 f"{'RMSE':>8} {'RMSElog':>8} {'N':>6}")
    lines.append(f"{method:<12} " + _depth_row(depth))
    lines.append("")
    lines.append("Depth estimation by interval (m)")
    for label in BUCKETS:
        if label in depth.intervals:
            lines.append(f"{label:<12} " + _depth_row(depth.intervals[label]))
    lines.append("")
    lines.append("Viewpoint estimation")
    lines.append(f"{'method':<12} {'Acc_pi/4':>10} {'Acc_pi/6':>8} {'MedErr':>8} {'N':>6}")
    lines.append(f"{method:<12} " + _viewpoint_row(viewpoint))
    lines.append("")
    lines.append("Viewpoint estimation by interval (m)")
    for label in BUCKETS:
        if label in viewpoint.intervals:
            lines.append(f"{label:<12} " + _viewpoint_row(viewpoint.intervals[label]))
    return "".join(line + "\n" for line in lines)


def depth_report_to_json(r: DepthReport) -> dict:
    out = {
        "delta_125": r.delta_125,
        "abs_rel": r.abs_rel,
        "sqr_rel": r.sqr_rel,
        "rmse": r.rmse,
        "rmse_log": r.rmse_log,
        "count": r.count,
        "log_excluded": r.log_excluded,
    }
    if r.intervals:
        out["intervals"] = {k: depth_report_to_json(v) for k, v in r.intervals.items()}
    return out


def viewpoint_report_to_json(r: ViewpointReport) -> dict:
    out = {
        "acc_pi4": r.acc_pi4,
        "acc_pi6": r.acc_pi6,
        "mederr": r.mederr,
        "count": r.count,
    }
    if r.intervals:
        out["intervals"] = {k: viewpoint_report_to_json(v) for k, v in r.intervals.items()}
    return out
