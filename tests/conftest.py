"""Shared helpers: a simple projection matrix, detection/observation builders,
the fusion oracle and the scalar projection oracles."""

import numpy as np

from seqlabel.annotate import CAUSE_BEHIND, CAUSE_OFF_IMAGE, AnnotationEntry
from seqlabel.association import Observation, Track, lift_detection
from seqlabel.dataio import DetectionRecord
from seqlabel.errors import ZeroWeightSum
from seqlabel.geometry import (
    CORNER_SIGNS,
    Box2D,
    Dimensions3D,
    Pose,
    ProjectionMatrix,
    yaw_from_rotation,
    yaw_to_rotation,
)

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
    the reference annotate._visible_entries must reproduce."""
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
