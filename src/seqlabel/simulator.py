"""Deterministic synthetic scenes: camera trajectory, landmarks, noisy detections.

Every random draw comes from its own generator keyed by (seed, frame,
object, draw kind), so adding an object or turning a noise term on never
perturbs the other streams and golden outputs stay stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .annotate import annotate_sequence
from .config import SimConfig, VisibilityConfig
from .dataio import DetectionRecord, TrajectoryFile
from .errors import InfeasibleScene
from .geometry import Pose, ProjectionMatrix, project_point, yaw_from_rotation, yaw_to_rotation
from .labels import Box2D, Dimensions3D, wrap_angle
from .landmark import Landmark

if TYPE_CHECKING:
    from .association import Track

# Draw kinds for the stream keying.
_PLACEMENT, _DROPOUT, _OUTLIER, _NOISE_Z, _NOISE_YAW, _NOISE_PX = range(6)


def _rng(seed: int, frame: int, obj: int, kind: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, frame, obj, kind)))


@dataclass
class GroundTruth:
    landmarks: list[Landmark]
    trajectory: TrajectoryFile
    P: ProjectionMatrix
    visibility: VisibilityConfig


def projection_matrix(cfg: SimConfig) -> ProjectionMatrix:
    return ProjectionMatrix(np.array([
        [cfg.focal, 0.0, cfg.image_width / 2.0, 0.0],
        [0.0, cfg.focal, cfg.image_height / 2.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]))


def make_trajectory(cfg: SimConfig) -> TrajectoryFile:
    """Camera-to-world poses along the configured path."""
    poses = []
    if cfg.trajectory == "straight":
        for k in range(cfg.frames):
            poses.append(Pose(np.eye(3), [0.0, 0.0, k * cfg.speed]))
    elif cfg.trajectory == "arc":
        for k in range(cfg.frames):
            phi = k * cfg.speed / cfg.arc_radius
            t = [cfg.arc_radius * (1.0 - math.cos(phi)), 0.0, cfg.arc_radius * math.sin(phi)]
            poses.append(Pose(yaw_to_rotation(phi), t))
    else:
        pts = [np.asarray(p, dtype=float) for p in cfg.waypoints]
        segments = list(zip(pts, pts[1:]))
        lengths = [float(np.linalg.norm(b - a)) for a, b in segments]
        for k in range(cfg.frames):
            s = k * cfg.speed
            seg_idx = 0
            while seg_idx < len(segments) - 1 and s > lengths[seg_idx]:
                s -= lengths[seg_idx]
                seg_idx += 1
            a, b = segments[seg_idx]
            frac = min(s / lengths[seg_idx], 1.0) if lengths[seg_idx] > 0 else 0.0
            t = a + frac * (b - a)
            heading = math.atan2(b[0] - a[0], b[2] - a[2])
            poses.append(Pose(yaw_to_rotation(heading), t))
    return TrajectoryFile(poses)


def _place_objects(cfg: SimConfig, trajectory: TrajectoryFile) -> list[tuple[Pose, Dimensions3D]]:
    placements = []
    if cfg.objects:
        for spec in cfg.objects:
            x, y, z, yaw = (float(v) for v in spec[:4])
            dims = Dimensions3D(*(float(v) for v in spec[4:7])) if len(spec) >= 7 \
                else Dimensions3D(1.5, 1.7, 4.2)
            placements.append((Pose(yaw_to_rotation(wrap_angle(yaw)), [x, y, z]), dims))
        return placements
    for j in range(cfg.n_objects):
        rng = _rng(cfg.seed, 0, j, _PLACEMENT)
        # Anchor drawn from the object's own stream: placements never move
        # when n_objects changes.
        anchor = int(rng.integers(0, cfg.frames))
        cam = trajectory.pose(anchor)
        local = np.array([rng.uniform(*cfg.lateral_range), 0.0, rng.uniform(*cfg.depth_range)])
        t = cam.apply(local)
        t[1] = cfg.ground_y  # objects sit on the ground plane
        yaw = wrap_angle(yaw_from_rotation(cam.rotation) + rng.uniform(-math.pi, math.pi))
        dims = Dimensions3D(
            1.5 + rng.uniform(-0.1, 0.1),
            1.7 + rng.uniform(-0.1, 0.1),
            4.2 + rng.uniform(-0.4, 0.4),
        )
        placements.append((Pose(yaw_to_rotation(yaw), t), dims))
    return placements


def generate(cfg: SimConfig) -> tuple[GroundTruth, list[DetectionRecord]]:
    """Build the scene and its noisy detection stream.

    Detections are exact reprojections of the ground truth perturbed by
    depth/yaw noise and box jitter, thinned by dropout and occasionally
    replaced by gross outliers.  Each record carries its true object id
    in the gt_id diagnostic field.
    """
    trajectory = make_trajectory(cfg)
    P = projection_matrix(cfg)
    vis = VisibilityConfig(
        image_width=cfg.image_width, image_height=cfg.image_height, frame_window=0,
    )
    placements = _place_objects(cfg, trajectory)

    # Visibility discovery: annotate provisional landmarks spanning all frames.
    provisional = [
        Landmark(
            landmark_id=j, global_pose=pose, dims=dims, support=0,
            first_frame=0, last_frame=cfg.frames - 1, category=cfg.category,
            mean_score=1.0, observed_frames=(),
        )
        for j, (pose, dims) in enumerate(placements)
    ]
    sightings = annotate_sequence(provisional, trajectory, P, vis)
    visible_frames: dict[int, list] = {j: [] for j in range(len(placements))}
    for ann in sightings:
        for entry in ann.entries:
            visible_frames[entry.landmark_id].append((ann.frame_id, entry))

    for j, seen in visible_frames.items():
        if not seen:
            raise InfeasibleScene(f"object {j} is never visible from the trajectory")

    # Ground-truth landmark ids follow the pipeline convention:
    # ordered by (first visible frame, placement index).
    order = sorted(visible_frames, key=lambda j: (visible_frames[j][0][0], j))
    landmarks = []
    detections = []
    for new_id, j in enumerate(order):
        pose, dims = placements[j]
        frames = [k for k, _ in visible_frames[j]]
        scores = [_score(cfg, entry.depth) for _, entry in visible_frames[j]]
        landmarks.append(
            Landmark(
                landmark_id=new_id, global_pose=pose, dims=dims,
                support=len(frames), first_frame=min(frames), last_frame=max(frames),
                category=cfg.category, mean_score=float(np.mean(scores)),
                observed_frames=tuple(frames),
            )
        )
        for (k, entry), score in zip(visible_frames[j], scores):
            det = _emit_detection(cfg, P, new_id, j, k, entry, score)
            if det is not None:
                detections.append(det)

    detections.sort(key=lambda d: (d.frame_id, d.gt_id))
    return GroundTruth(landmarks, trajectory, P, vis), detections


def _score(cfg: SimConfig, depth: float) -> float:
    return min(max(cfg.score_base * math.exp(-cfg.score_decay * depth), 0.0), 1.0)


def _emit_detection(cfg, P, gt_id, obj_index, frame_id, entry, score) -> DetectionRecord | None:
    if _rng(cfg.seed, frame_id, obj_index, _DROPOUT).random() < cfg.dropout_prob:
        return None

    depth = entry.depth
    yaw = entry.yaw_local
    if cfg.sigma_z > 0:
        depth += float(_rng(cfg.seed, frame_id, obj_index, _NOISE_Z).normal(0.0, cfg.sigma_z))
    if cfg.sigma_yaw > 0:
        yaw += float(_rng(cfg.seed, frame_id, obj_index, _NOISE_YAW).normal(0.0, cfg.sigma_yaw))

    out_rng = _rng(cfg.seed, frame_id, obj_index, _OUTLIER)
    if out_rng.random() < cfg.outlier_prob:
        depth += float(out_rng.choice([-1.0, 1.0])) * cfg.outlier_dz
        yaw += float(out_rng.choice([-1.0, 1.0])) * cfg.outlier_dyaw
    if depth <= 0:
        return None  # a detector never reports non-positive depth

    box = entry.box2d_raw
    if cfg.sigma_px > 0:
        jitter = _rng(cfg.seed, frame_id, obj_index, _NOISE_PX).normal(0.0, cfg.sigma_px, size=4)
        l, r = sorted((box.left + jitter[0], box.right + jitter[2]))
        t, b = sorted((box.top + jitter[1], box.bottom + jitter[3]))
        box = Box2D(l, t, r, b)
    box = box.clip(cfg.image_width, cfg.image_height)
    if box is None or box.area() == 0.0:
        return None

    u, v, _ = project_point(entry.local_pose.translation, P)
    sigma = None
    if cfg.sigma_model is not None:
        offset, slope = cfg.sigma_model
        sigma = max(offset + slope * depth, 1e-6)
    return DetectionRecord(
        frame_id=frame_id,
        category=cfg.category,
        box2d=box,
        depth=depth,
        yaw=wrap_angle(yaw),
        dims=entry.dims,
        center2d=(u, v),
        score=score,
        sigma=sigma,
        gt_id=gt_id,
    )


def score_association(tracks: Sequence[Track], n_objects: int) -> dict[str, float]:
    """Purity and coverage against the hidden ground-truth ids.

    purity: per track, the fraction of observations sharing the modal id,
    averaged over tracks.  coverage: fraction of objects that own at
    least one track (the track's modal id).  Modal ties break to the
    smallest id.
    """
    purities = []
    covered = set()
    for track in tracks:
        ids = [o.detection.gt_id for o in track.observations if o.detection.gt_id is not None]
        if not ids:
            continue
        counts = Counter(ids)
        top = max(counts.values())
        modal = min(i for i, c in counts.items() if c == top)
        purities.append(counts[modal] / len(track.observations))
        covered.add(modal)
    purity = float(np.mean(purities)) if purities else 1.0
    coverage = (
        len(covered & set(range(n_objects))) / n_objects if n_objects > 0 else 1.0
    )
    return {"purity": purity, "coverage": coverage}
