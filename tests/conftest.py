"""Shared helpers: a simple projection matrix, detection/observation builders
and the fusion oracle."""

import numpy as np

from seqlabel.association import Observation, Track, lift_detection
from seqlabel.dataio import DetectionRecord
from seqlabel.errors import ZeroWeightSum
from seqlabel.geometry import (
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
