"""Group per-frame detections into tracks of the same physical object.

Three cues drive the matching: 2D IoU between the detection box and the
track's map-predicted box, distance between global positions, and cosine
similarity of appearance descriptors when both sides carry one.  Costs
are combined convexly and resolved per frame with an optimal one-to-one
assignment, never greedily.

run_association lifts the retained detections of a sequence once into one
table of stacked rows (_Rows), and each frame is a slice of it.  The running
estimate of each track lives only in rows the run owns: each frame's
cost_matrix gathers the live ones, and refresh_fused rewrites those the
frame touched.  A Track is the record of its observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .config import AssociationConfig
from .dataio import DetectionRecord, TrajectoryFile
from .errors import MissingCameraPose, ParseError
from .geometry import (Pose, ProjectionMatrix, back_project, half_extents, project_box, yaw_only,
                       yaw_to_rotations)
from .labels import Dimensions3D
from .landmark import fuse_rows, fusion_rows

INFEASIBLE = math.inf

# Any finite cost is < 1; this dominates so the assignment prefers
# matching every feasible pair before ever touching an infeasible one.
_BIG = 1e6


class Observation(NamedTuple):
    """One detection lifted to 3D, in the global frame."""

    detection: DetectionRecord
    global_pose: Pose

    @property
    def frame_id(self) -> int:
        return self.detection.frame_id


@dataclass
class Track:
    """An associated sequence of observations of one physical object, in frame order."""

    track_id: int
    observations: list[Observation] = field(default_factory=list)

    def add(self, obs: Observation) -> None:
        if self.observations and obs.frame_id <= (last := self.observations[-1].frame_id):
            raise ValueError(
                f"track {self.track_id}: observation for frame {obs.frame_id} "
                f"not after frame {last}"
            )
        self.observations.append(obs)


class _Rows(NamedTuple):
    """Stacked rows of detections or tracks: rotation (n, 3, 3), translation (n, 3), dims
    (n, 3) as (h, w, l), category codes, descriptors (zeros where absent, None when no row
    has one) and, of detections, boxes as (left, top, right, bottom)."""

    rotation: np.ndarray
    translation: np.ndarray
    dims: np.ndarray
    category: np.ndarray
    descriptor: np.ndarray | None
    box: np.ndarray | None = None

    def take(self, index) -> "_Rows":
        return _Rows(*(None if a is None else a[index] for a in self))


def _rows(poses: tuple, dims: Sequence[Dimensions3D], categories: Sequence[str],
          descriptors: Sequence, codes: dict, boxes: Sequence | None = None) -> _Rows:
    """Rows of these (rotations, translations) stacks, dims, categories and descriptors
    (None where absent); codes maps each category to its code and grows with new ones."""
    k = next((len(d) for d in descriptors if d is not None), None)
    return _Rows(*poses, np.array(dims, float).reshape(-1, 3),
                 np.array([codes.setdefault(c, len(codes)) for c in categories]),
                 None if k is None else
                 np.array([np.zeros(k) if d is None else d for d in descriptors]),
                 None if boxes is None else np.array(boxes, float).reshape(-1, 4))


def lift_detections(dets: Sequence[DetectionRecord], P: ProjectionMatrix,
                    cams: Sequence[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Global rotations (n, 3, 3) and translations (n, 3) of detections, detection i
    seen from camera pose cams[i].

    One back_project call lifts every center at its depth, which
    read_detections keeps positive, and stacked matmuls compose the local
    yaw poses with the cameras.
    """
    u, v = np.array([d.center2d for d in dets]).T
    local_t = back_project(u, v, np.array([d.depth for d in dets]), P)
    cam_r = np.array([c.rotation for c in cams])
    rotation = cam_r @ yaw_to_rotations([d.yaw for d in dets])
    return rotation, (cam_r @ local_t[..., None])[..., 0] + np.array([c.translation for c in cams])


def lift_detection(d: DetectionRecord, P: ProjectionMatrix, cam: Pose) -> Observation:
    """Lift one detection to 3D: the one-row case of lift_detections."""
    return Observation(d, Pose(*(a[0] for a in lift_detections([d], P, [cam]))))


def cost_matrix(tracks: _Rows, dets: _Rows, P: ProjectionMatrix, cam: Pose,
                cfg: AssociationConfig) -> np.ndarray:
    """Matching cost of every track's running estimate against every detection, shape (T, D).

    Each cost is in [0, 1], or _BIG when the pair is infeasible.  A pair is
    infeasible only when both hard gates fail: projected-box IoU below
    iou_gate AND global distance beyond dist_gate.  Categories never mix.
    The IoU is 0 when no corner of the track's box lies in front of the
    camera or both boxes have zero area.  Descriptor similarity below
    descriptor_gate saturates the appearance term at its maximum instead of
    gating the pair out; without a non-zero descriptor on both sides the
    IoU and distance weights are renormalized to sum to 1.
    """
    # Predicted boxes: each track's cuboid in the camera frame, projected.
    cam_rt = cam.rotation.T
    local_rot = cam_rt @ tracks.rotation
    local_trans = tracks.translation @ cam_rt.T - cam_rt @ cam.translation
    tl, tt, tr, tb = project_box(local_rot, local_trans, half_extents(tracks.dims), P)[:, :, None]

    dl, dt, dr, db = dets.box.T[:, None, :]
    iw = np.minimum(tr, dr) - np.maximum(tl, dl)
    ih = np.minimum(tb, db) - np.maximum(tt, dt)
    overlap = (iw > 0.0) & (ih > 0.0)
    # Edges near 1e308 give an inf or nan union (IoU 0); translations near it, an inf
    # distance.  Only overlapping pairs multiply: a hull with inf edges can meet a box
    # edge-on, an inf width times a 0 height.
    with np.errstate(over="ignore", invalid="ignore"):
        inter = np.multiply(iw, ih, out=np.zeros_like(iw), where=overlap)
        union = (tr - tl) * (tb - tt) + (dr - dl) * (db - dt) - inter
        dist = np.linalg.norm(tracks.translation[:, None, :] - dets.translation[None, :, :], axis=2)
    iou = np.divide(inter, union, out=np.zeros_like(inter), where=overlap & np.isfinite(union))
    feasible = ((tracks.category[:, None] == dets.category[None, :])
                & ~((iou < cfg.iou_gate) & (dist > cfg.dist_gate)))

    iou_term = 1.0 - iou
    dist_term = np.minimum(1.0, dist / cfg.dist_gate)
    wi = cfg.w_iou / (cfg.w_iou + cfg.w_dist)
    wd = cfg.w_dist / (cfg.w_iou + cfg.w_dist)
    cost = wi * iou_term + wd * dist_term

    if tracks.descriptor is not None and dets.descriptor is not None:
        a, b = tracks.descriptor, dets.descriptor
        na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        both = (na[:, None] != 0.0) & (nb[None, :] != 0.0)
        cos = np.divide(a @ b.T, na[:, None] * nb[None, :], out=np.zeros(both.shape), where=both)
        desc_term = np.where(cos >= cfg.descriptor_gate, 1.0 - np.clip(cos, 0.0, 1.0), 1.0)
        with_desc = cfg.w_iou * iou_term + cfg.w_dist * dist_term + cfg.w_desc * desc_term
        cost = np.where(both, with_desc, cost)
    return np.where(feasible, cost, _BIG)


# Nothing in the package calls this; it stays only for the benchmark tracer's
# association.cost hook, until that hook is re-targeted (ROADMAP item 1).
def association_cost(track: _Rows, det: _Rows, P: ProjectionMatrix, cam: Pose,
                     cfg: AssociationConfig) -> float:
    """Matching cost in [0, 1], or INFEASIBLE, of one track row and one detection row: the
    1x1 case of cost_matrix."""
    cost = float(cost_matrix(track, det, P, cam, cfg)[0, 0])
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


def refresh_fused(fused: _Rows, ks: np.ndarray, seq: _Rows, js: slice, sums: np.ndarray,
                  single: np.ndarray) -> None:
    """Rewrite fused rows ks, of the tracks that took the detections js, with one fuse_rows call.

    sums holds each track's sum of w * landmark.fusion_rows, summed in
    observation order.  A track of a single observation passes through, its
    rotation rebuilt from its yaw; one whose sums have no mean keeps its
    latest detection's row.  w is the detection score whatever the
    WeightPolicy; only the final fusion (landmark.fuse_track) follows the
    policy.  The score is always present and bounded in [0, 1], while
    1/sigma^2 needs a sigma on every detection and reaches
    1/sigma_floor^2, so one overconfident detection would steer the gate
    before outlier rejection has seen the track.  Association, and so the
    set of tracks, also stays the same whichever policy final fusion uses.
    """
    fused.rotation[ks], fused.translation[ks], fused.dims[ks] = (
        seq.rotation[js], seq.translation[js], seq.dims[js])
    if single.any():
        fused.rotation[ks[single]] = yaw_only(seq.rotation[js][single])
    if not single.all():
        multi = ks[~single]
        rotation, translation, dims, errors = fuse_rows(sums[multi])
        kept = np.array([e is not None for e in errors])
        mean = slice(None) if not kept.any() else ~kept  # no mask when all have one
        fused.rotation[multi[mean]], fused.translation[multi[mean]], fused.dims[multi[mean]] = (
            rotation[mean], translation[mean], dims[mean])


def _camera(trajectory: TrajectoryFile, frame_id: int, dets: list[DetectionRecord]) -> Pose:
    """The camera pose of the frame of dets; a frame the trajectory lacks is a ParseError
    at the line of the first of dets, when they were read from a file."""
    try:
        return trajectory.pose(frame_id)
    except MissingCameraPose as e:
        if dets[0].line is None:
            raise
        raise ParseError(dets[0].line, str(e)) from None


def run_association(
    detections_by_frame: dict[int, list[DetectionRecord]],
    trajectory: TrajectoryFile,
    P: ProjectionMatrix,
    cfg: AssociationConfig,
) -> list[Track]:
    """Associate a whole sequence, frame by frame in ascending order.

    Detections below score_threshold are dropped before matching; every
    retained detection ends up in exactly one track.  Each frame matches
    its detections to the tracks seen within max_frame_gap frames at the
    least total cost, and a detection left over starts a track.  A retained
    detection on a frame the trajectory lacks is an error (_camera).
    """
    retained = {f: [d for d in detections_by_frame[f] if d.score >= cfg.score_threshold]
                for f in sorted(detections_by_frame)}
    frames = [(f, _camera(trajectory, f, ds), len(ds)) for f, ds in retained.items() if ds]
    dets = [d for ds in retained.values() for d in ds]
    if not dets:
        return []
    poses = lift_detections(dets, P, [cam for _, cam, n in frames for _ in range(n)])
    observations = [Observation(d, Pose(r, t)) for d, r, t in zip(dets, *poses)]
    seq = _rows(poses, [d.dims for d in dets], [d.category for d in dets],
                [d.descriptor for d in dets], {}, [d.box2d for d in dets])
    described = np.array([d.descriptor is not None for d in dets])
    scores = np.array([d.score for d in dets])
    # One row per track, untouched until it starts: running estimate, sums of w * fusion_rows.
    fused = _Rows(*(None if a is None else np.zeros(a.shape, a.dtype) for a in seq[:5]))
    sums = np.zeros((len(dets), 16))
    last_seen = np.zeros(len(dets), int)
    tracks: list[Track] = []
    start = 0
    for f, cam, n in frames:
        js, start = slice(start, start + n), start + n
        live = np.flatnonzero(f - last_seen[:len(tracks)] <= cfg.max_frame_gap)
        matched = {j: live[i] for i, j in solve_assignment(
            cost_matrix(fused.take(live), seq.take(js), P, cam, cfg))} if live.size else {}
        single = np.array([j not in matched for j in range(n)])
        for j in range(n):
            if j not in matched:
                matched[j] = len(tracks)
                tracks.append(Track(track_id=len(tracks)))
            tracks[matched[j]].add(observations[js.start + j])
        ks = np.array([matched[j] for j in range(n)])
        with np.errstate(over="ignore"):  # an overflowed sum makes fuse_rows report the mean
            sums[ks] += scores[js, None] * fusion_rows(seq.translation[js], seq.rotation[js],
                                                       seq.dims[js])
        last_seen[ks], fused.category[ks] = f, seq.category[js]  # a match keeps its category
        if fused.descriptor is not None:
            fused.descriptor[ks[described[js]]] = seq.descriptor[js][described[js]]
        refresh_fused(fused, ks, seq, js, sums, single)
    return tracks
