"""Depth and viewpoint evaluation metrics over matched annotation pairs.

Depth: the delta < 1.25 accuracy, Abs Rel, Sqr Rel, RMSE and RMSE_log.
Viewpoint: Acc at pi/4 and pi/6 plus the median absolute yaw error in
degrees.  Everything is reported overall and per ground-truth depth
interval {[0,10), [10,20), [20,30), [30,40), [40,50), [50,inf)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .annotate import FrameAnnotation
from .errors import EmptyInput, FrameMismatch
from .geometry import iou_2d, wrap_angle

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

    Pairs below iou_min never match, nor do ground-truth entries at depth
    <= 0 (such as KITTI DontCare rows), since the depth metrics divide by
    the ground-truth depth.  Ties break on (prediction index, ground-truth
    index) so matching is deterministic.
    """
    if pred.frame_id != gt.frame_id:
        raise FrameMismatch(f"pred frame {pred.frame_id} vs gt frame {gt.frame_id}")
    candidates = []
    for i, p in enumerate(pred.entries):
        for j, g in enumerate(gt.entries):
            if p.category != g.category or g.depth <= 0:
                continue
            if p.box2d.area() == 0.0 and g.box2d.area() == 0.0:
                continue
            iou = iou_2d(p.box2d, g.box2d)
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


def _depth_stats(pairs: Sequence[MatchedPair]) -> DepthReport:
    z_gt = np.array([p.z_gt for p in pairs])
    z_pred = np.array([p.z_pred for p in pairs])
    err = z_gt - z_pred

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(z_pred > 0, np.maximum(z_pred / z_gt, z_gt / z_pred), np.inf)
    positive = z_pred > 0
    log_sq = (np.log(z_gt[positive]) - np.log(z_pred[positive])) ** 2
    return DepthReport(
        delta_125=float(np.mean(ratio < 1.25)),
        abs_rel=float(np.mean(np.abs(err) / z_gt)),
        sqr_rel=float(np.mean(err**2 / z_gt)),
        rmse=float(np.sqrt(np.mean(err**2))),
        rmse_log=float(np.sqrt(np.mean(log_sq))) if len(log_sq) else None,
        count=len(pairs),
        log_excluded=int(np.sum(~positive)),
    )


def depth_metrics(pairs: Sequence[MatchedPair]) -> DepthReport:
    """Depth report over all pairs, with per-interval sub-reports."""
    if not pairs:
        raise EmptyInput("no matched pairs")
    overall = _depth_stats(pairs)
    intervals = {
        label: _depth_stats(group) for label, group in interval_breakdown(pairs).items()
    }
    return DepthReport(
        delta_125=overall.delta_125,
        abs_rel=overall.abs_rel,
        sqr_rel=overall.sqr_rel,
        rmse=overall.rmse,
        rmse_log=overall.rmse_log,
        count=overall.count,
        log_excluded=overall.log_excluded,
        intervals=intervals,
    )


def _viewpoint_stats(pairs: Sequence[MatchedPair]) -> ViewpointReport:
    err = np.array([abs(wrap_angle(p.yaw_pred - p.yaw_gt)) for p in pairs])
    return ViewpointReport(
        acc_pi4=float(np.mean(err < math.pi / 4)),
        acc_pi6=float(np.mean(err < math.pi / 6)),
        mederr=float(np.degrees(np.median(err))),
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
    return ViewpointReport(
        acc_pi4=overall.acc_pi4,
        acc_pi6=overall.acc_pi6,
        mederr=overall.mederr,
        count=overall.count,
        intervals=intervals,
    )


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
