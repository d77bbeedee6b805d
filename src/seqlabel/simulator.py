"""Deterministic synthetic scenes: camera trajectory, landmarks, noisy detections.

Every random draw comes from its own stream keyed by (seed, frame, object,
draw kind), so adding an object or turning a noise term on never perturbs
the other streams and golden outputs stay stable.  A stream draws as numpy's
PCG64 seeded from the key does.  The keys of a batch (the placements, then
the noise kinds of every visible pair) are seeded in one vectorised pass,
and one generator is set to each key's state in turn.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Sequence

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

# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hasher(c: int, mult: int):
    """SeedSequence's hash of a uint32 array; its constant c runs on from call to call."""
    def step(v):
        nonlocal c
        v, c = v ^ c, c * mult & _M32
        v = v * c
        return v ^ v >> 16
    return step


def _pcg64_states(keys: list[tuple[int, int, int, int]]) -> dict:
    """key -> the PCG64 bit_generator.state numpy seeds from the key, for ints >= 0.

    SeedSequence's pool mix and generate_state(4, uint64) run on uint32 arrays, one lane
    per key, over keys with as many 32-bit words; PCG64's seed step runs on 128-bit ints."""
    words = {v: [v >> s & _M32 for s in range(0, max(v.bit_length(), 1), 32)]
             for v in {v for key in keys for v in key}}
    entropy = [words[a] + words[b] + words[c] + words[d] for a, b, c, d in keys]
    states = {}
    for n in set(map(len, entropy)):
        rows = [i for i, e in enumerate(entropy) if len(e) == n]
        ent = np.array([entropy[i] for i in rows], dtype=np.uint32).T
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(e) for e in ent[:4]]
        # Each pool word into the others, then each word past the fourth into all four.
        for src, dst in [*itertools.permutations(range(4), 2),
                         *itertools.product(range(4, n), range(4))]:
            r = pool[dst] * _MIX_L - hashmix(pool[src] if src < 4 else ent[src]) * _MIX_R
            pool[dst] = r ^ r >> 16
        hashout = _hasher(_INIT_B, _MULT_B)
        half = [hashout(pool[i % 4]).astype(np.uint64) for i in range(8)]
        w0, w1, w2, w3 = ((half[k] | half[k + 1] << 32).astype(object) for k in (0, 2, 4, 6))
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        for i, s, q in zip(rows, state.tolist(), inc.tolist()):
            states[keys[i]] = {"bit_generator": "PCG64", "state": {"state": s, "inc": q},
                               "has_uint32": 0, "uinteger": 0}
    return states


def _streams(keys: list[tuple[int, int, int, int]]):
    """open(*key): one generator, set to draw as numpy's PCG64 seeded from the key draws.

    Each open re-seeds it, so a stream is used up before the next one opens."""
    states, rng = _pcg64_states(keys), np.random.Generator(np.random.PCG64())

    def open_stream(*key: int) -> np.random.Generator:
        rng.bit_generator.state = states[key]
        return rng
    return open_stream


class GroundTruth(NamedTuple):
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
            poses.append(Pose(np.eye(3), np.array([0.0, 0.0, k * cfg.speed])))
    elif cfg.trajectory == "arc":
        for k in range(cfg.frames):
            phi = k * cfg.speed / cfg.arc_radius
            t = np.array([cfg.arc_radius * (1.0 - math.cos(phi)), 0.0,
                          cfg.arc_radius * math.sin(phi)])
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
            placements.append((Pose(yaw_to_rotation(wrap_angle(yaw)), np.array([x, y, z])), dims))
        return placements
    streams = _streams([(cfg.seed, 0, j, _PLACEMENT) for j in range(cfg.n_objects)])
    for j in range(cfg.n_objects):
        rng = streams(cfg.seed, 0, j, _PLACEMENT)
        # Anchor drawn from the object's own stream: placements never move
        # when n_objects changes.
        anchor = int(rng.integers(0, cfg.frames))
        cam = trajectory.pose(anchor)
        local = np.array([rng.uniform(*cfg.lateral_range), 0.0, rng.uniform(*cfg.depth_range)])
        t = cam.apply(local)
        t[1] = cfg.ground_y  # objects sit on the ground plane
        yaw = wrap_angle(yaw_from_rotation(cam.rotation) + rng.uniform(-math.pi, math.pi))
        dims = Dimensions3D(1.5 + rng.uniform(-0.1, 0.1), 1.7 + rng.uniform(-0.1, 0.1),
                            4.2 + rng.uniform(-0.4, 0.4))
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
    vis = VisibilityConfig(image_width=cfg.image_width, image_height=cfg.image_height,
                           frame_window=0)
    placements = _place_objects(cfg, trajectory)

    # Visibility discovery: annotate provisional landmarks spanning all frames.
    provisional = [Landmark(landmark_id=j, global_pose=pose, dims=dims, support=0, first_frame=0,
                            last_frame=cfg.frames - 1, category=cfg.category, mean_score=1.0,
                            observed_frames=()) for j, (pose, dims) in enumerate(placements)]
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
    streams = _streams([(cfg.seed, k, j, kind) for j in order for k, _ in visible_frames[j]
                        for kind in range(_DROPOUT, _NOISE_PX + 1)])
    landmarks = []
    detections = []
    for new_id, j in enumerate(order):
        pose, dims = placements[j]
        frames = [k for k, _ in visible_frames[j]]
        scores = [_score(cfg, entry.depth) for _, entry in visible_frames[j]]
        landmarks.append(Landmark(
            landmark_id=new_id, global_pose=pose, dims=dims, support=len(frames),
            first_frame=min(frames), last_frame=max(frames), category=cfg.category,
            mean_score=float(np.mean(scores)), observed_frames=tuple(frames)))
        for (k, entry), score in zip(visible_frames[j], scores):
            det = _emit_detection(cfg, P, new_id, k, entry, score,
                                  functools.partial(streams, cfg.seed, k, j))
            if det is not None:
                detections.append(det)

    detections.sort(key=lambda d: (d.frame_id, d.gt_id))
    return GroundTruth(landmarks, trajectory, P, vis), detections


def _score(cfg: SimConfig, depth: float) -> float:
    return min(max(cfg.score_base * math.exp(-cfg.score_decay * depth), 0.0), 1.0)


def _emit_detection(cfg, P, gt_id, frame_id, entry, score, rng) -> DetectionRecord | None:
    """The pair's detection, or None; rng(kind) opens the pair's stream of that kind."""
    if rng(_DROPOUT).random() < cfg.dropout_prob:
        return None

    depth, yaw = entry.depth, entry.yaw_local
    if cfg.sigma_z > 0:
        depth += float(rng(_NOISE_Z).normal(0.0, cfg.sigma_z))
    if cfg.sigma_yaw > 0:
        yaw += float(rng(_NOISE_YAW).normal(0.0, cfg.sigma_yaw))

    out_rng = rng(_OUTLIER)
    if out_rng.random() < cfg.outlier_prob:
        depth += float(out_rng.choice([-1.0, 1.0])) * cfg.outlier_dz
        yaw += float(out_rng.choice([-1.0, 1.0])) * cfg.outlier_dyaw
    if depth <= 0:
        return None  # a detector never reports non-positive depth

    box = entry.box2d_raw
    if cfg.sigma_px > 0:
        jitter = rng(_NOISE_PX).normal(0.0, cfg.sigma_px, size=4)
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
    return DetectionRecord(frame_id=frame_id, category=cfg.category, box2d=box, depth=depth,
                           yaw=wrap_angle(yaw), dims=entry.dims, center2d=(u, v), score=score,
                           sigma=sigma, gt_id=gt_id)


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
    coverage = len(covered & set(range(n_objects))) / n_objects if n_objects > 0 else 1.0
    return {"purity": purity, "coverage": coverage}
