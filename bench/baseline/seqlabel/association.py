"""Group per-frame detections into tracks of the same physical object.

Three cues drive the matching: 2D IoU between the detection box and the
track's map-predicted box, distance between global positions, and cosine
similarity of appearance descriptors when both sides carry one.  Costs
are combined convexly and resolved per frame with an optimal one-to-one
assignment, never greedily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataio import DetectionRecord, TrajectoryFile
from .errors import (
    BehindCamera,
    DegenerateMean,
    DegenerateProjection,
    NonPositiveDepth,
    ZeroArea,
)
from .geometry import (
    Dimensions3D,
    Pose,
    ProjectionMatrix,
    back_project,
    box3d_corners,
    compose,
    inverse,
    iou_2d,
    project_box,
    yaw_to_rotation,
)
from .landmark import fuse_pose

INFEASIBLE = math.inf

# Any finite cost is < 1; this dominates so the assignment prefers
# matching every feasible pair before ever touching an infeasible one.
_BIG = 1e6


@dataclass(frozen=True)
class AssociationConfig:
    score_threshold: float = 0.7
    iou_gate: float = 0.3
    dist_gate: float = 3.0
    descriptor_gate: float = 0.5
    max_frame_gap: int = 20
    w_iou: float = 0.5
    w_dist: float = 0.4
    w_desc: float = 0.1

    def __post_init__(self):
        for name in ("score_threshold", "iou_gate", "descriptor_gate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.dist_gate <= 0:
            raise ValueError("dist_gate must be positive")
        if self.max_frame_gap < 0:
            raise ValueError("max_frame_gap must be >= 0")
        if min(self.w_iou, self.w_dist, self.w_desc) < 0:
            raise ValueError("cost weights must be non-negative")
        if abs(self.w_iou + self.w_dist + self.w_desc - 1.0) > 1e-12:
            raise ValueError("cost weights must sum to 1")
        if self.w_iou + self.w_dist == 0:
            raise ValueError("w_iou + w_dist must be positive (descriptors are optional)")


@dataclass(frozen=True)
class Observation:
    """One detection lifted to 3D, in both camera-local and global frames."""

    detection: DetectionRecord
    local_pose: Pose
    global_pose: Pose
    weight: float

    @property
    def frame_id(self) -> int:
        return self.detection.frame_id


@dataclass
class Track:
    """An associated sequence of observations of one physical object.

    fused_pose and fused_dims are running weighted-fusion estimates over
    all observations so far; the predicted box for gating comes from
    reprojecting them, not from the last raw detection.
    """

    track_id: int
    observations: list[Observation] = field(default_factory=list)
    last_seen: int = -1
    fused_pose: Pose | None = None
    fused_dims: Dimensions3D | None = None

    @property
    def category(self) -> str:
        return self.observations[0].detection.category

    @property
    def frames(self) -> list[int]:
        return [o.frame_id for o in self.observations]

    def descriptor(self) -> np.ndarray | None:
        """Most recent appearance descriptor, if any observation carried one."""
        for obs in reversed(self.observations):
            if obs.detection.descriptor is not None:
                return obs.detection.descriptor
        return None

    def add(self, obs: Observation) -> None:
        if self.observations and obs.frame_id <= self.last_seen:
            raise ValueError(
                f"track {self.track_id}: observation for frame {obs.frame_id} "
                f"not after frame {self.last_seen}"
            )
        self.observations.append(obs)
        self.last_seen = obs.frame_id
        self._refresh_fusion()

    def _refresh_fusion(self) -> None:
        weights = [o.weight for o in self.observations]
        try:
            self.fused_pose = fuse_pose(self.observations, weights)
        except DegenerateMean:
            self.fused_pose = self.observations[-1].global_pose
        total = sum(weights)
        hwl = np.array(
            [(o.detection.dims.height, o.detection.dims.width, o.detection.dims.length)
             for o in self.observations]
        )
        h, w, l = np.asarray(weights) @ hwl / total
        self.fused_dims = Dimensions3D(h, w, l)

    def alive(self, frame_id: int, max_frame_gap: int) -> bool:
        return frame_id - self.last_seen <= max_frame_gap


def lift_detection(d: DetectionRecord, P: ProjectionMatrix, cam: Pose) -> Observation:
    """Lift a detection to 3D: back-project its center at the reported depth,
    build the local yaw rotation, then convert to the global frame."""
    if d.depth <= 0:
        raise NonPositiveDepth(f"depth {d.depth} in frame {d.frame_id}")
    translation = back_project(d.center2d[0], d.center2d[1], d.depth, P)
    local = Pose(yaw_to_rotation(d.yaw), translation)
    return Observation(
        detection=d,
        local_pose=local,
        global_pose=compose(cam, local),
        weight=d.score,
    )


def _cosine(a: np.ndarray, b: np.ndarray) -> float | None:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return None
    return float(np.dot(a, b) / (na * nb))


def association_cost(
    track: Track, obs: Observation, P: ProjectionMatrix, cam: Pose, cfg: AssociationConfig
) -> float:
    """Matching cost in [0, 1], or INFEASIBLE.

    A pair is infeasible only when both hard gates fail: projected-box IoU
    below iou_gate AND global distance beyond dist_gate.  Categories never
    mix.  Descriptor similarity below descriptor_gate saturates the
    appearance term at its maximum instead of gating the pair out.
    """
    if track.category != obs.detection.category:
        return INFEASIBLE

    try:
        local = compose(inverse(cam), track.fused_pose)
        box = project_box(box3d_corners(local, track.fused_dims), P)
        iou = iou_2d(box, obs.detection.box2d)
    except (BehindCamera, DegenerateProjection, ZeroArea):
        iou = 0.0

    dist = float(np.linalg.norm(track.fused_pose.translation - obs.global_pose.translation))
    if iou < cfg.iou_gate and dist > cfg.dist_gate:
        return INFEASIBLE

    iou_term = 1.0 - iou
    dist_term = min(1.0, dist / cfg.dist_gate)

    cos = None
    t_desc = track.descriptor()
    o_desc = obs.detection.descriptor
    if t_desc is not None and o_desc is not None:
        cos = _cosine(t_desc, o_desc)
    if cos is None:
        wi = cfg.w_iou / (cfg.w_iou + cfg.w_dist)
        wd = cfg.w_dist / (cfg.w_iou + cfg.w_dist)
        return wi * iou_term + wd * dist_term
    desc_term = 1.0 - min(max(cos, 0.0), 1.0) if cos >= cfg.descriptor_gate else 1.0
    return cfg.w_iou * iou_term + cfg.w_dist * dist_term + cfg.w_desc * desc_term


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment; infeasible (>= _BIG) pairs dropped."""
    rows, cols = linear_sum_assignment(cost)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] < _BIG]


def associate_frame(
    tracks: list[Track],
    frame_detections: list[DetectionRecord],
    P: ProjectionMatrix,
    cam: Pose,
    cfg: AssociationConfig,
) -> tuple[list[Track], list[Track]]:
    """Assign one frame's detections to live tracks, spawning tracks for the rest.

    Matching minimizes total cost over the feasible pairs (optimal
    assignment).  Returns (all tracks, newly created tracks); matched
    tracks are updated in place.
    """
    if not frame_detections:
        return tracks, []
    frame_id = frame_detections[0].frame_id
    observations = [lift_detection(d, P, cam) for d in frame_detections]

    live = [t for t in tracks if t.alive(frame_id, cfg.max_frame_gap)]
    matched_obs = set()
    if live:
        cost = np.full((len(live), len(observations)), _BIG)
        for i, track in enumerate(live):
            for j, obs in enumerate(observations):
                c = association_cost(track, obs, P, cam, cfg)
                if c != INFEASIBLE:
                    cost[i, j] = c
        for i, j in solve_assignment(cost):
            live[i].add(observations[j])
            matched_obs.add(j)

    next_id = max((t.track_id for t in tracks), default=-1) + 1
    new_tracks = []
    for j, obs in enumerate(observations):
        if j not in matched_obs:
            track = Track(track_id=next_id)
            track.add(obs)
            new_tracks.append(track)
            next_id += 1
    tracks.extend(new_tracks)
    return tracks, new_tracks


def run_association(
    detections_by_frame: dict[int, list[DetectionRecord]],
    trajectory: TrajectoryFile,
    P: ProjectionMatrix,
    cfg: AssociationConfig,
) -> list[Track]:
    """Associate a whole sequence, frame by frame in ascending order.

    Detections below score_threshold are dropped before matching; every
    retained detection ends up in exactly one track.
    """
    tracks: list[Track] = []
    for frame_id in sorted(detections_by_frame):
        retained = [d for d in detections_by_frame[frame_id] if d.score >= cfg.score_threshold]
        if not retained:
            continue
        cam = trajectory.pose(frame_id)
        associate_frame(tracks, retained, P, cam, cfg)
    return tracks
