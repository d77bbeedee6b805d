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
from .geometry import (Pose, ProjectionMatrix, back_project, half_extents, project_box,
                       yaw_to_rotation)
from .labels import Dimensions3D
from .landmark import fuse_rows, fusion_row, yaw_only_pose

INFEASIBLE = math.inf

# Any finite cost is < 1; this dominates so the assignment prefers
# matching every feasible pair before ever touching an infeasible one.
_BIG = 1e6


@dataclass(frozen=True)
class Observation:
    """One detection lifted to 3D, in the global frame."""

    detection: DetectionRecord
    global_pose: Pose

    @property
    def frame_id(self) -> int:
        return self.detection.frame_id


@dataclass
class Track:
    """An associated sequence of observations of one physical object.

    fused_pose and fused_dims are running weighted-fusion estimates over
    all observations so far; the predicted box for gating comes from
    reprojecting them, not from the last raw detection.  add only adds to
    running sums of weighted fusion rows; refresh_fused refits every track a
    frame touched with one landmark.fuse_rows call.  They weight
    by detection score whatever the WeightPolicy; only the final fusion
    (landmark.fuse_track) follows the policy.  The score is always present
    and bounded in [0, 1], while 1/sigma^2 needs a sigma on every detection
    and reaches 1/sigma_floor^2, so one overconfident detection would steer
    the gate before outlier rejection has seen the track.  Association, and
    so the set of tracks, also stays the same whichever policy final fusion
    uses.
    """

    track_id: int
    observations: list[Observation] = field(default_factory=list)
    last_seen: int = -1
    # Most recent appearance descriptor, if any observation carried one.
    descriptor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # sum(w * landmark.fusion_row) over the observations, w the detection score.
    _sums: np.ndarray = field(default_factory=lambda: np.zeros(16), init=False, repr=False,
                              compare=False)
    # (fused_pose, fused_dims), or None while stale.
    _fused: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def category(self) -> str:
        return self.observations[0].detection.category

    @property
    def frames(self) -> list[int]:
        return [o.frame_id for o in self.observations]

    @property
    def fused_pose(self) -> Pose:
        if self._fused is None:
            refresh_fused([self])
        return self._fused[0]

    @property
    def fused_dims(self) -> Dimensions3D:
        if self._fused is None:
            refresh_fused([self])
        return self._fused[1]

    def add(self, obs: Observation) -> None:
        if self.observations and obs.frame_id <= self.last_seen:
            raise ValueError(
                f"track {self.track_id}: observation for frame {obs.frame_id} "
                f"not after frame {self.last_seen}"
            )
        self.observations.append(obs)
        self.last_seen = obs.frame_id
        if obs.detection.descriptor is not None:
            self.descriptor = obs.detection.descriptor
        with np.errstate(over="ignore"):  # an overflowed sum makes fuse_rows report the mean
            self._sums += obs.detection.score * fusion_row(obs)
        self._fused = None


def refresh_fused(tracks: Sequence[Track]) -> None:
    """Recompute the fused pose and dims of the stale tracks, with one fuse_rows call."""
    stale = [t for t in tracks if t._fused is None]
    multi = [t for t in stale if len(t.observations) > 1]
    for t, fused in zip(multi, fuse_rows(np.array([t._sums for t in multi]).reshape(-1, 16))):
        if isinstance(fused, Exception):  # no mean exists: keep the latest
            fused = t.observations[-1].global_pose, t.observations[-1].detection.dims
        t._fused = fused
    for t in stale:
        if len(t.observations) == 1:  # a single observation passes through exactly
            pose, dims = t.observations[0].global_pose, t.observations[0].detection.dims
            t._fused = yaw_only_pose(pose.rotation, pose.translation), dims


def lift_detections(dets: Sequence[DetectionRecord], P: ProjectionMatrix,
                    cams: Sequence[Pose]) -> list[Observation]:
    """Lift detections to 3D, detection i seen from camera pose cams[i].

    One back_project call lifts every center at its depth, which
    read_detections keeps positive, and stacked matmuls compose the local
    yaw poses with the cameras.
    """
    if not dets:
        return []
    u, v = np.array([d.center2d for d in dets]).T
    local_t = back_project(u, v, np.array([d.depth for d in dets]), P)
    cam_r = np.array([c.rotation for c in cams])
    rotation = cam_r @ np.array([yaw_to_rotation(d.yaw) for d in dets])
    translation = (cam_r @ local_t[..., None])[..., 0] + np.array([c.translation for c in cams])
    return [Observation(d, Pose(r, t)) for d, r, t in zip(dets, rotation, translation)]


def lift_detection(d: DetectionRecord, P: ProjectionMatrix, cam: Pose) -> Observation:
    """Lift one detection to 3D: the one-row case of lift_detections."""
    return lift_detections([d], P, [cam])[0]


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
    obs_trans = np.stack([o.global_pose.translation for o in observations])
    # Edges near 1e308 give an inf or nan union (IoU 0); translations near it, an inf
    # distance.  Only overlapping pairs multiply: a hull with inf edges can meet a box
    # edge-on, an inf width times a 0 height.
    with np.errstate(over="ignore", invalid="ignore"):
        inter = np.multiply(iw, ih, out=np.zeros_like(iw), where=overlap)
        union = (tr - tl) * (tb - tt) + (dr - dl) * (db - dt) - inter
        dist = np.linalg.norm(trans[:, None, :] - obs_trans[None, :, :], axis=2)
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=overlap & np.isfinite(union))
    same_category = (np.array([t.category for t in live])[:, None]
                     == np.array([d.category for d in dets])[None, :])
    feasible = same_category & ~((iou < cfg.iou_gate) & (dist > cfg.dist_gate))

    iou_term = 1.0 - iou
    dist_term = np.minimum(1.0, dist / cfg.dist_gate)
    wi = cfg.w_iou / (cfg.w_iou + cfg.w_dist)
    wd = cfg.w_dist / (cfg.w_iou + cfg.w_dist)
    cost = wi * iou_term + wd * dist_term

    track_desc = [t.descriptor for t in live]
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
    observations: list[Observation],
    P: ProjectionMatrix,
    cam: Pose,
    cfg: AssociationConfig,
) -> tuple[list[Track], list[Track]]:
    """Assign one frame's lifted observations to live tracks, spawning tracks for the rest.

    Matching minimizes total cost over the feasible pairs (optimal
    assignment).  Returns (all tracks, newly created tracks); matched
    tracks are updated in place, then every track the frame touched is refreshed.
    """
    if not observations:
        return tracks, []
    frame_id = observations[0].frame_id

    live = [t for t in tracks if frame_id - t.last_seen <= cfg.max_frame_gap]
    matched = {}
    if live:
        for i, j in solve_assignment(cost_matrix(live, observations, P, cam, cfg)):
            live[i].add(observations[j])
            matched[j] = live[i]

    next_id = max((t.track_id for t in tracks), default=-1) + 1
    new_tracks = []
    for j, obs in enumerate(observations):
        if j not in matched:
            track = Track(track_id=next_id)
            track.add(obs)
            new_tracks.append(track)
            next_id += 1
    tracks.extend(new_tracks)
    refresh_fused([*matched.values(), *new_tracks])
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
    retained = {f: [d for d in detections_by_frame[f] if d.score >= cfg.score_threshold]
                for f in sorted(detections_by_frame)}
    frames = [(trajectory.pose(f), ds) for f, ds in retained.items() if ds]
    lifted = iter(lift_detections([d for _, ds in frames for d in ds], P,
                                  [cam for cam, ds in frames for _ in ds]))
    tracks: list[Track] = []
    for cam, ds in frames:
        associate_frame(tracks, [next(lifted) for _ in ds], P, cam, cfg)
    return tracks
