"""Depth and viewpoint evaluation metrics over matched annotation pairs.

Depth: the delta < 1.25 accuracy, Abs Rel, Sqr Rel, RMSE and RMSE_log.
Viewpoint: Acc at pi/4 and pi/6 plus the median absolute yaw error in
degrees.  Everything is reported overall and per ground-truth depth
interval {[0,10), [10,20), [20,30), [30,40), [40,50), [50,inf)}.
Both families share one report shape: _by_interval builds the overall
report and its interval sub-reports, format_report_table writes both
tables through one loop, and report_to_json writes either report.

Pure Python, so that evaluate never loads numpy, with numpy's results
bit for bit: every mean is numpy's pairwise float64 sum (_pairwise_sum)
divided by the count, and square roots, degrees and medians are the
correctly rounded stdlib ones.  The one exception is math.log, which may
differ from np.log in the last bit, so rmse_log may move by an ulp.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence, TypeVar

from .errors import EmptyInput, FrameMismatch
from .labels import FrameAnnotation, iou_2d, wrap_angle

BUCKETS = ("0-10", "10-20", "20-30", "30-40", "40-50", "50+")
_BUCKET_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def bucket_of(z_gt: float) -> str:
    """Left-closed depth bucket label for a ground-truth depth."""
    return BUCKETS[max(bisect_right(_BUCKET_EDGES, z_gt) - 1, 0)]


@dataclass(frozen=True)
class MatchedPair:
    """One matched prediction and ground truth; z_gt > 0 (match_annotations ensures it)."""

    z_gt: float
    z_pred: float
    yaw_gt: float
    yaw_pred: float


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


Report = TypeVar("Report", DepthReport, ViewpointReport)


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
        grouped.setdefault(bucket_of(pair.z_gt), []).append(pair)
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


def _by_interval(stats: Callable[[Sequence[MatchedPair]], Report],
                 pairs: Sequence[MatchedPair]) -> Report:
    """stats over all pairs, with stats of each non-empty depth interval as sub-reports."""
    if not pairs:
        raise EmptyInput("no matched pairs")
    return replace(stats(pairs), intervals={
        label: stats(group) for label, group in interval_breakdown(pairs).items()
    })


def depth_metrics(pairs: Sequence[MatchedPair]) -> DepthReport:
    """Depth report over all pairs, with per-interval sub-reports."""
    return _by_interval(_depth_stats, pairs)


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
    return _by_interval(_viewpoint_stats, pairs)


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
    sections = []
    for title, columns, row, report in (
        ("Depth estimation",
         f"{'d<1.25':>10} {'AbsRel':>8} {'SqrRel':>8} {'RMSE':>8} {'RMSElog':>8}",
         _depth_row, depth),
        ("Viewpoint estimation", f"{'Acc_pi/4':>10} {'Acc_pi/6':>8} {'MedErr':>8}",
         _viewpoint_row, viewpoint),
    ):
        lines = [title, f"{'method':<12} {columns} {'N':>6}", f"{method:<12} {row(report)}",
                 "", f"{title} by interval (m)"]
        lines += [f"{label:<12} {row(report.intervals[label])}"
                  for label in BUCKETS if label in report.intervals]
        sections.append("".join(line + "\n" for line in lines))
    return "\n".join(sections)


def report_to_json(r: Report) -> dict:
    """The report's fields in declaration order, with intervals only when there are any."""
    out = {f.name: getattr(r, f.name) for f in fields(r) if f.name != "intervals"}
    if r.intervals:
        out["intervals"] = {k: report_to_json(v) for k, v in r.intervals.items()}
    return out
