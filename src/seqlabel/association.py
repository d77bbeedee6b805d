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
from typing import Sequence

import numpy as np

from .config import AssociationConfig
from .dataio import DetectionRecord, TrajectoryFile
from .errors import DegenerateMean, NonPositiveDepth, ZeroWeightSum
from .geometry import (
    Dimensions3D,
    Pose,
    ProjectionMatrix,
    back_project,
    compose,
    half_extents,
    project_box,
    yaw_to_rotation,
)
from .landmark import fuse_rows, fusion_row, yaw_only_pose

INFEASIBLE = math.inf

# Any finite cost is < 1; this dominates so the assignment prefers
# matching every feasible pair before ever touching an infeasible one.
_BIG = 1e6


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
    reprojecting them, not from the last raw detection.  They are
    landmark.fuse_rows of a running sum of weighted fusion rows, so adding
    an observation costs the same however long the track is.  They weight
    by detection score whatever the WeightPolicy (see lift_detection);
    only the final fusion (landmark.fuse_track) follows the policy.
    """

    track_id: int
    observations: list[Observation] = field(default_factory=list)
    last_seen: int = -1
    fused_pose: Pose | None = None
    fused_dims: Dimensions3D | None = None
    # sum(w * landmark.fusion_row) over the observations, w the observation weight.
    _sums: np.ndarray = field(default_factory=lambda: np.zeros(16), init=False, repr=False,
                              compare=False)
    _descriptor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def category(self) -> str:
        return self.observations[0].detection.category

    @property
    def frames(self) -> list[int]:
        return [o.frame_id for o in self.observations]

    def descriptor(self) -> np.ndarray | None:
        """Most recent appearance descriptor, if any observation carried one."""
        return self._descriptor

    def add(self, obs: Observation) -> None:
        if self.observations and obs.frame_id <= self.last_seen:
            raise ValueError(
                f"track {self.track_id}: observation for frame {obs.frame_id} "
                f"not after frame {self.last_seen}"
            )
        self.observations.append(obs)
        self.last_seen = obs.frame_id
        if obs.detection.descriptor is not None:
            self._descriptor = obs.detection.descriptor
        self._sums += obs.weight * fusion_row(obs)
        if len(self.observations) == 1:  # a single observation passes through exactly
            pose = obs.global_pose
            self.fused_pose = yaw_only_pose(pose.rotation, pose.translation)
            self.fused_dims = obs.detection.dims
            return
        try:
            self.fused_pose, self.fused_dims = fuse_rows(self._sums)
        except (ZeroWeightSum, DegenerateMean):  # no mean exists: keep the latest
            self.fused_pose, self.fused_dims = obs.global_pose, obs.detection.dims

    def alive(self, frame_id: int, max_frame_gap: int) -> bool:
        return frame_id - self.last_seen <= max_frame_gap


def lift_detection(d: DetectionRecord, P: ProjectionMatrix, cam: Pose) -> Observation:
    """Lift a detection to 3D: back-project its center at the reported depth,
    build the local yaw rotation, then convert to the global frame.

    The observation's weight, used by the running fusion that predicts
    each track's box for gating, is the detection score under either
    WeightPolicy.  The score is always present and bounded in [0, 1],
    while 1/sigma^2 needs a sigma on every detection and reaches
    1/sigma_floor^2, so one overconfident detection would steer the gate
    before outlier rejection has seen the track.  Association, and so the
    set of tracks, also stays the same whichever policy final fusion uses.
    """
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


def _descriptor_rows(descriptors: list[np.ndarray | None]) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors stacked as rows, a missing one as zeros, and the row norms."""
    k = next(len(d) for d in descriptors if d is not None)
    rows = np.array([np.zeros(k) if d is None else d for d in descriptors])
    return rows, np.linalg.norm(rows, axis=1)


def cost_matrix(
    live: Sequence[Track],
    observations: Sequence[Observation],
    P: ProjectionMatrix,
    cam: Pose,
    cfg: AssociationConfig,
) -> np.ndarray:
    """Matching cost of every track against every observation, shape (T, D).

    Each cost is in [0, 1], or _BIG when the pair is infeasible.  A pair is
    infeasible only when both hard gates fail: projected-box IoU below
    iou_gate AND global distance beyond dist_gate.  Categories never mix.
    The IoU is 0 when no corner of the track's box lies in front of the
    camera or both boxes have zero area.  Descriptor similarity below
    descriptor_gate saturates the appearance term at its maximum instead of
    gating the pair out; without a non-zero descriptor on both sides the
    IoU and distance weights are renormalized to sum to 1.
    """
    rot = np.stack([t.fused_pose.rotation for t in live])
    trans = np.stack([t.fused_pose.translation for t in live])

    # Predicted boxes: each track's cuboid in the camera frame, projected.
    cam_rt = cam.rotation.T
    local_rot = cam_rt @ rot
    local_trans = trans @ cam_rt.T - cam_rt @ cam.translation
    half = half_extents(t.fused_dims for t in live)
    tl, tt, tr, tb = project_box(local_rot, local_trans, half, P)[:, :, None]

    dets = [o.detection for o in observations]
    dl, dt, dr, db = np.array([(d.box2d.left, d.box2d.top, d.box2d.right, d.box2d.bottom)
                               for d in dets]).T[:, None, :]
    iw = np.minimum(tr, dr) - np.maximum(tl, dl)
    ih = np.minimum(tb, db) - np.maximum(tt, dt)
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = np.where(overlap, iw * ih, 0.0)
    union = (tr - tl) * (tb - tt) + (dr - dl) * (db - dt) - inter
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=overlap)

    obs_trans = np.stack([o.global_pose.translation for o in observations])
    dist = np.linalg.norm(trans[:, None, :] - obs_trans[None, :, :], axis=2)
    same_category = (np.array([t.category for t in live])[:, None]
                     == np.array([d.category for d in dets])[None, :])
    feasible = same_category & ~((iou < cfg.iou_gate) & (dist > cfg.dist_gate))

    iou_term = 1.0 - iou
    dist_term = np.minimum(1.0, dist / cfg.dist_gate)
    wi = cfg.w_iou / (cfg.w_iou + cfg.w_dist)
    wd = cfg.w_dist / (cfg.w_iou + cfg.w_dist)
    cost = wi * iou_term + wd * dist_term

    track_desc = [t.descriptor() for t in live]
    det_desc = [d.descriptor for d in dets]
    if any(d is not None for d in track_desc) and any(d is not None for d in det_desc):
        a, na = _descriptor_rows(track_desc)
        b, nb = _descriptor_rows(det_desc)
        both = (na[:, None] != 0.0) & (nb[None, :] != 0.0)
        cos = np.divide(a @ b.T, na[:, None] * nb[None, :], out=np.zeros(both.shape), where=both)
        desc_term = np.where(cos >= cfg.descriptor_gate, 1.0 - np.clip(cos, 0.0, 1.0), 1.0)
        with_desc = cfg.w_iou * iou_term + cfg.w_dist * dist_term + cfg.w_desc * desc_term
        cost = np.where(both, with_desc, cost)
    return np.where(feasible, cost, _BIG)


def association_cost(
    track: Track, obs: Observation, P: ProjectionMatrix, cam: Pose, cfg: AssociationConfig
) -> float:
    """Matching cost in [0, 1], or INFEASIBLE: the 1x1 case of cost_matrix."""
    cost = float(cost_matrix([track], [obs], P, cam, cfg)[0, 0])
    return INFEASIBLE if cost >= _BIG else cost


def min_cost_assignment(cost: np.ndarray) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-total-cost one-to-one assignment.

    A pure-Python port of the rectangular shortest-augmenting-path solver
    (Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016) as SciPy's linear_sum_assignment implements it.  It keeps
    SciPy's arithmetic, tie rules and output order, so it picks the same
    pairs; the per-frame matrices are small enough that plain lists beat
    importing SciPy.  Raises ValueError on a NaN or -inf entry and on an
    infeasible matrix.
    """
    cost = np.asarray(cost, dtype=float)
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("cost matrix contains NaN or -inf entries")
    transpose = cost.shape[1] < cost.shape[0]  # a tall matrix is solved transposed
    c = (cost.T if transpose else cost).tolist()
    nr, nc = min(cost.shape), max(cost.shape)
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # Shortest augmenting path from row `cur` to a free column.
        shortest = [math.inf] * nc
        remaining = list(range(nc - 1, -1, -1))  # reversed: a constant matrix gives the identity
        visited_rows, visited_cols = [], []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            visited_rows.append(i)
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # Among equal costs a free column wins: it ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Dual update, then flip the path's assignments.
        u[cur] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        pairs = sorted((r, j) for j, r in enumerate(col4row))
        return [r for r, _ in pairs], [j for _, j in pairs]
    return list(range(nr)), col4row


def solve_assignment(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment; infeasible (>= _BIG) pairs dropped."""
    rows, cols = min_cost_assignment(cost)
    return [(i, j) for i, j in zip(rows, cols) if cost[i, j] < _BIG]


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
        for i, j in solve_assignment(cost_matrix(live, observations, P, cam, cfg)):
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
