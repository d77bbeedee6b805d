"""Shared helpers: a simple projection matrix, detection/observation builders,
the per-matrix rotation projection and per-point back-projection oracles, the
fusion oracle, the per-observation lift and running-fusion oracles, the rows
that association.cost_matrix scores, the association oracle, the scalar
projection and annotation oracles, the numpy metric oracles and the all-pairs
matcher."""

import math
from dataclasses import dataclass, field

import numpy as np

from seqlabel.annotate import (
    CAUSE_BEHIND,
    CAUSE_OFF_IMAGE,
    CAUSE_WINDOW,
    PROVENANCE_OBSERVED,
    PROVENANCE_PROJECTED,
    AnnotationEntry,
)
from seqlabel.association import (Observation, Track, _rows, cost_matrix, lift_detection,
                                  solve_assignment)
from seqlabel.dataio import DetectionRecord
from seqlabel.errors import DegenerateMean, DegenerateProjection, ZeroWeightSum
from seqlabel.geometry import (
    CORNER_SIGNS,
    Pose,
    ProjectionMatrix,
    compose,
    inverse,
    yaw_from_rotation,
    yaw_to_rotation,
)
from seqlabel.labels import Box2D, Dimensions3D, FrameAnnotation, iou_2d, wrap_angle
from seqlabel.metrics import DepthReport, MatchedPair, ViewpointReport

P_SIMPLE = ProjectionMatrix(
    np.array([[700.0, 0, 600, 0], [0, 700, 180, 0], [0, 0, 1, 0]])
)

# A KITTI-like camera whose projection has a non-zero last column.
P_OFFSET = ProjectionMatrix(
    np.array([[721.5, 0, 609.6, 44.9], [0, 721.5, 172.9, 0.22], [0, 0, 1, 0.0027]])
)


def make_detection(
    frame_id=0,
    depth=20.0,
    yaw=0.1,
    u=600.0,
    v=180.0,
    score=0.9,
    sigma=None,
    category="Car",
    dims=(1.5, 1.7, 4.2),
    box=None,
    descriptor=None,
    gt_id=None,
) -> DetectionRecord:
    if box is None:
        # A plausible box around the projected center; tests that care about
        # exact boxes pass their own.
        half_w = 700.0 * dims[2] / (2.0 * max(abs(depth), 1e-6))
        half_h = 700.0 * dims[0] / (2.0 * max(abs(depth), 1e-6))
        box = Box2D(u - half_w, v - half_h, u + half_w, v + half_h)
    return DetectionRecord(
        frame_id=frame_id,
        category=category,
        box2d=box,
        depth=depth,
        yaw=yaw,
        dims=Dimensions3D(*dims),
        center2d=(u, v),
        score=score,
        sigma=sigma,
        descriptor=None if descriptor is None else np.asarray(descriptor, dtype=float),
        gt_id=gt_id,
    )


def make_observation(cam: Pose | None = None, **kwargs) -> Observation:
    return lift_detection(make_detection(**kwargs), P_SIMPLE, cam or Pose.identity())


def make_track(observations, track_id=0) -> Track:
    track = Track(track_id=track_id)
    for obs in observations:
        track.add(obs)
    return track


def oracle_nearest_rotation(m: np.ndarray) -> np.ndarray:
    """One 3x3 matrix projected onto the closest proper rotation by SVD, the
    determinant's sign fixed; DegenerateMean when its two largest singular
    values vanish.  geometry.nearest_rotation must reproduce it bit for bit,
    matrix by matrix, with the same message."""
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    if s[0] < 1e-9 and s[1] < 1e-9:
        raise DegenerateMean(f"rotation mean collapsed (singular values {s})")
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def oracle_back_project(u: float, v: float, depth: float, P: ProjectionMatrix) -> np.ndarray:
    """One pixel lifted on its own: solve M x = depth * [u, v, 1] - p4 where
    P = [M | p4].  geometry.back_project must reproduce it bit for bit."""
    rhs = depth * np.array([u, v, 1.0]) - P.P[:, 3]
    try:
        return np.linalg.solve(P.P[:, :3], rhs)
    except np.linalg.LinAlgError as e:
        raise DegenerateProjection(f"intrinsics block is singular: {e}") from e


def oracle_fuse(observations, weights):
    """Fused (pose, dims) as a plain refit, independent of landmark.fuse_rows.

    The rotation mean is accumulated one rotation at a time and projected by
    SVD; translation and dims are weights @ values / sum(weights).  A single
    observation passes through with its pose rebuilt from its yaw.
    """
    if len(observations) == 1:
        pose = observations[0].global_pose
        return (Pose(yaw_to_rotation(yaw_from_rotation(pose.rotation)), pose.translation),
                observations[0].detection.dims)
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ZeroWeightSum("weights sum to zero")
    m = np.zeros((3, 3))
    for w, o in zip(weights, observations):
        m += (w / total) * o.global_pose.rotation
    u, _, vt = np.linalg.svd(m)
    rotation = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
    ts = np.array([o.global_pose.translation for o in observations])
    hwl = np.array([(o.detection.dims.height, o.detection.dims.width, o.detection.dims.length)
                    for o in observations])
    w = np.asarray(weights)
    pose = Pose(yaw_to_rotation(yaw_from_rotation(rotation)), w @ ts / total)
    return pose, Dimensions3D(*(w @ hwl / total))


def oracle_lift_detection(d: DetectionRecord, P: ProjectionMatrix, cam: Pose) -> Observation:
    """One detection lifted on its own: oracle_back_project its center, build the
    local yaw pose, compose with the camera.  association.lift_detections, and
    so run_association's observations, must reproduce it bit for bit."""
    translation = oracle_back_project(d.center2d[0], d.center2d[1], d.depth, P)
    local = Pose(yaw_to_rotation(d.yaw), translation)
    return Observation(detection=d, global_pose=compose(cam, local))


def oracle_fusion_row(obs: Observation) -> np.ndarray:
    """One observation as a row of the fusion sums: (1, t, R row-major, h, w, l).
    landmark.fusion_rows must reproduce it row by row."""
    pose, dims = obs.global_pose, obs.detection.dims
    return np.concatenate(
        ([1.0], pose.translation, pose.rotation.ravel(), (dims.height, dims.width, dims.length))
    )


@dataclass
class OracleTrack:
    """The running fusion state that oracle_track_add updates."""

    observations: list = field(default_factory=list)
    sums: np.ndarray = field(default_factory=lambda: np.zeros(16))
    fused_pose: Pose | None = None
    fused_dims: Dimensions3D | None = None


def oracle_track_add(track: OracleTrack, obs: Observation) -> None:
    """Add one observation and refit that track alone, with one oracle_nearest_rotation.

    The score-weighted sums and their refit, one observation at a time: the
    running estimate that run_association's rows hold for each track
    (association.refresh_fused) must reproduce it bit for bit.  A single
    observation passes through, its pose rebuilt from its yaw; sums with no
    mean keep the latest observation as is.
    """
    track.observations.append(obs)
    track.sums += obs.detection.score * oracle_fusion_row(obs)
    if len(track.observations) == 1:
        pose = obs.global_pose
        track.fused_pose = Pose(yaw_to_rotation(yaw_from_rotation(pose.rotation)),
                                pose.translation)
        track.fused_dims = obs.detection.dims
        return
    track.fused_pose, track.fused_dims = obs.global_pose, obs.detection.dims
    if track.sums[0] <= 0.0:
        return
    mean = track.sums / track.sums[0]
    try:
        rotation = oracle_nearest_rotation(mean[4:13].reshape(3, 3))
    except DegenerateMean:
        return
    track.fused_pose = Pose(yaw_to_rotation(yaw_from_rotation(rotation)), mean[1:4])
    track.fused_dims = Dimensions3D(*mean[13:16])


def scoring_rows(tracks, observations):
    """The rows association.cost_matrix scores: of the running estimates of tracks
    (OracleTrack), each with its category and latest descriptor, and of observations.
    One codes dict gives both sides the same category codes."""
    codes = {}
    latest = [next((o.detection.descriptor for o in reversed(t.observations)
                    if o.detection.descriptor is not None), None) for t in tracks]
    track_rows = _rows((np.array([t.fused_pose.rotation for t in tracks]),
                        np.array([t.fused_pose.translation for t in tracks])),
                       [t.fused_dims for t in tracks],
                       [t.observations[0].detection.category for t in tracks], latest, codes)
    dets = [o.detection for o in observations]
    return track_rows, _rows((np.array([o.global_pose.rotation for o in observations]),
                              np.array([o.global_pose.translation for o in observations])),
                             [d.dims for d in dets], [d.category for d in dets],
                             [d.descriptor for d in dets], codes, [d.box2d for d in dets])


def oracle_run_association(detections_by_frame, trajectory, P, cfg):
    """association.run_association one object at a time: the reference it must reproduce.

    Frame by frame, each retained detection is lifted on its own
    (oracle_lift_detection), cost_matrix scores the running estimates of the
    live tracks, each an OracleTrack that oracle_track_add refits on every
    add, and every detection left unmatched starts a track.  Track i of the
    result is the run's track i.
    """
    tracks = []
    for f in sorted(detections_by_frame):
        retained = [d for d in detections_by_frame[f] if d.score >= cfg.score_threshold]
        if not retained:
            continue
        cam = trajectory.pose(f)
        observations = [oracle_lift_detection(d, P, cam) for d in retained]
        live = [t for t in tracks if f - t.observations[-1].frame_id <= cfg.max_frame_gap]
        matched = set()
        if live:
            for i, j in solve_assignment(cost_matrix(*scoring_rows(live, observations), P, cam,
                                                     cfg)):
                oracle_track_add(live[i], observations[j])
                matched.add(j)
        for j, obs in enumerate(observations):
            if j not in matched:
                tracks.append(OracleTrack())
                oracle_track_add(tracks[-1], obs)
    return tracks


def oracle_box3d_corners(pose: Pose, dims: Dimensions3D) -> np.ndarray:
    """The 8 cuboid corners in the parent frame of pose, shape (8, 3), one cuboid at a time."""
    return pose.apply(CORNER_SIGNS * (dims.length / 2.0, dims.height, dims.width / 2.0))


def oracle_project_box(corners, P: ProjectionMatrix) -> Box2D | None:
    """Hull of the projected corners in front of the camera, in homogeneous
    coordinates; None when every corner has non-positive depth."""
    pts = np.asarray(corners, dtype=float)
    rows = np.hstack([pts, np.ones((len(pts), 1))]) @ P.P.T
    front = rows[:, 2] > 0
    if not np.any(front):
        return None
    u = rows[front, 0] / rows[front, 2]
    v = rows[front, 1] / rows[front, 2]
    return Box2D(float(u.min()), float(v.min()), float(u.max()), float(v.max()))


def oracle_visible_entry(landmark_id, category, local, dims, score, provenance, P, cfg):
    """(entry, None) or (None, cause) for one candidate, with scalar geometry:
    the reference annotate._pair_annotations must reproduce."""
    depth = float(local.translation[2])
    if depth <= 0.0:
        return None, CAUSE_BEHIND
    raw = oracle_project_box(oracle_box3d_corners(local, dims), P)
    if raw is None:
        return None, CAUSE_BEHIND
    clipped = raw.clip(cfg.image_width, cfg.image_height)
    raw_area = raw.area()
    if clipped is None or raw_area <= 0.0:
        return None, CAUSE_OFF_IMAGE
    if clipped.area() < cfg.min_box_area or clipped.area() / raw_area < cfg.min_visible_fraction:
        return None, CAUSE_OFF_IMAGE
    entry = AnnotationEntry(
        landmark_id=landmark_id,
        category=category,
        local_pose=local,
        box2d=clipped,
        box2d_raw=raw,
        depth=depth,
        yaw_local=yaw_from_rotation(local.rotation),
        dims=dims,
        provenance=provenance,
        score=score,
        visible_fraction=clipped.area() / raw_area,
    )
    return entry, None


def oracle_landmark_to_local(lm, cam: Pose) -> Pose:
    """The landmark pose seen from the camera: inverse(cam) composed with it."""
    return compose(inverse(cam), lm.global_pose)


def oracle_annotate_frame(landmarks, frame_id, cam, P, cfg) -> FrameAnnotation:
    """One frame's annotation one landmark at a time, with scalar geometry: the
    reference annotate.annotate_frame and annotate.annotate_sequence must reproduce.

    Entries and in-window exclusions come in landmark id order, then the
    out-of-window exclusions are merged in by a stable sort on the id.
    """
    annotation = FrameAnnotation(frame_id, [], [])
    out_of_window = []
    for lm in sorted(landmarks, key=lambda l: l.landmark_id):
        if not lm.first_frame - cfg.frame_window <= frame_id <= lm.last_frame + cfg.frame_window:
            out_of_window.append((lm.landmark_id, CAUSE_WINDOW))
            continue
        provenance = (
            PROVENANCE_OBSERVED if frame_id in lm.observed_frames else PROVENANCE_PROJECTED
        )
        entry, cause = oracle_visible_entry(lm.landmark_id, lm.category,
                                            oracle_landmark_to_local(lm, cam), lm.dims,
                                            lm.mean_score, provenance, P, cfg)
        if entry is None:
            annotation.exclusions.append((lm.landmark_id, cause))
        else:
            annotation.entries.append(entry)
    annotation.exclusions.extend(out_of_window)
    annotation.exclusions.sort(key=lambda e: e[0])  # stable: in-window exclusions stay first
    return annotation


def oracle_match_annotations(pred, gt, iou_min):
    """Greedy matching that scores every pair through iou_2d: the reference
    metrics.match_annotations must reproduce."""
    candidates = []
    for i, p in enumerate(pred.entries):
        for j, g in enumerate(gt.entries):
            if p.category != g.category or g.depth <= 0:
                continue
            iou = iou_2d(p.box2d, g.box2d)
            if iou >= iou_min:
                candidates.append((-iou, i, j))
    candidates.sort()
    used_pred, used_gt = set(), set()
    pairs = []
    for _, i, j in candidates:
        if i in used_pred or j in used_gt:
            continue
        used_pred.add(i)
        used_gt.add(j)
        pairs.append(MatchedPair(z_gt=gt.entries[j].depth, z_pred=pred.entries[i].depth,
                                 yaw_gt=gt.entries[j].yaw_local,
                                 yaw_pred=pred.entries[i].yaw_local))
    return pairs


def oracle_depth_stats(pairs) -> DepthReport:
    """The depth report of pairs in numpy, which metrics._depth_stats must reproduce."""
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


def oracle_viewpoint_stats(pairs) -> ViewpointReport:
    """The viewpoint report of pairs in numpy, which metrics._viewpoint_stats must reproduce;
    each yaw is wrapped before the difference."""
    err = np.array([abs(wrap_angle(wrap_angle(p.yaw_pred) - wrap_angle(p.yaw_gt))) for p in pairs])
    return ViewpointReport(
        acc_pi4=float(np.mean(err < math.pi / 4)),
        acc_pi6=float(np.mean(err < math.pi / 6)),
        mederr=float(np.degrees(np.median(err))),
        count=len(pairs),
    )
