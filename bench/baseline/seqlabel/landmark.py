"""Fuse tracks of observations into static global landmarks.

The pipeline per track: reject depth/yaw outliers around robust weighted
medians, gate on support and on translation variance (dynamic objects),
then average the survivors: per-axis weighted mean for translation, the
SVD projection of the weighted rotation mean for orientation, with the
final rotation rebuilt from its yaw alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DegenerateMean, EmptyInput, MissingSigma, ZeroWeightSum
from .geometry import (
    Dimensions3D,
    Pose,
    wrap_angle,
    yaw_from_rotation,
    yaw_to_rotation,
)

if TYPE_CHECKING:
    from .association import Observation, Track

WEIGHT_MODES = ("score", "inverse_variance")


@dataclass(frozen=True)
class WeightPolicy:
    """How observation weights are derived: detection score or 1/sigma^2."""

    mode: str = "score"
    sigma_floor: float = 1e-3

    def __post_init__(self):
        if self.mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.mode!r}; expected one of {WEIGHT_MODES}")
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")


@dataclass(frozen=True)
class FusionConfig:
    depth_tol: float = 2.0            # meters around the weighted median global z
    yaw_tol: float = math.radians(30)  # radians around the weighted circular median
    min_support: int = 2
    var_gate: float = 1.0             # m^2 per axis; beyond this the track is dynamic

    def __post_init__(self):
        if self.depth_tol <= 0 or self.yaw_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if self.var_gate <= 0:
            raise ValueError("var_gate must be positive")


@dataclass(frozen=True)
class Landmark:
    """A fused static object in the global frame."""

    landmark_id: int
    global_pose: Pose
    dims: Dimensions3D
    support: int
    first_frame: int
    last_frame: int
    category: str
    mean_score: float
    observed_frames: tuple[int, ...]


@dataclass(frozen=True)
class Rejected:
    """Why a track produced no landmark: dynamic, low_support or degenerate_mean."""

    reason: str
    track_id: int
    detail: str = ""


def observation_weight(obs: "Observation", policy: WeightPolicy) -> float:
    """Weight of one observation under the policy."""
    if policy.mode == "score":
        return obs.detection.score
    sigma = obs.detection.sigma
    if sigma is None:
        raise MissingSigma(
            f"inverse_variance weighting needs sigma (frame {obs.detection.frame_id})"
        )
    return 1.0 / max(sigma, policy.sigma_floor) ** 2


def weighted_depth_mean(depths: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted average sum(w_i z_i) / sum(w_i)."""
    if len(depths) == 0:
        raise EmptyInput("no depths to average")
    if len(depths) != len(weights):
        raise ValueError(f"{len(depths)} depths vs {len(weights)} weights")
    if len(depths) == 1:
        return float(depths[0])  # singleton passes through unchanged
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ZeroWeightSum("weights sum to zero")
    return float(np.dot(weights, depths) / total)


def rotation_average(rotations: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """SVD-projected weighted mean of rotation matrices.

    M = sum(w_i R_i) / sum(w_i) = U S V^T; the result U diag(1, 1,
    det(U V^T)) V^T is the closest proper rotation to M, with the sign
    correction guaranteeing det +1 even for widely spread inputs.
    """
    if len(rotations) == 0:
        raise EmptyInput("no rotations to average")
    if len(rotations) == 1:
        return np.array(rotations[0], dtype=float)  # exact for a single input
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ZeroWeightSum("weights sum to zero")
    m = np.zeros((3, 3))
    for w, r in zip(weights, rotations):
        m += (w / total) * np.asarray(r, dtype=float)
    u, s, vt = np.linalg.svd(m)
    if s[0] < 1e-9 and s[1] < 1e-9:
        raise DegenerateMean(f"rotation mean collapsed (singular values {s})")
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def weighted_median(values: Sequence[float], weights: Sequence[float],
                    order_keys: Sequence) -> float:
    """Smallest value whose cumulative weight reaches half the total.

    order_keys break ties between equal values deterministically.
    """
    idx = sorted(range(len(values)), key=lambda i: (values[i], order_keys[i]))
    total = float(np.sum(weights))
    cum = 0.0
    for i in idx:
        cum += weights[i]
        if cum >= 0.5 * total:
            return float(values[i])
    return float(values[idx[-1]])


def weighted_circular_median(angles: Sequence[float], weights: Sequence[float],
                             order_keys: Sequence) -> float:
    """Candidate angle minimizing the weighted sum of wrapped absolute deviations.

    Candidates are the input angles themselves; ties go to the lowest order key.
    """
    best = None
    for j, theta in enumerate(angles):
        cost = sum(
            w * abs(wrap_angle(theta - a)) for w, a in zip(weights, angles)
        )
        key = (cost, order_keys[j])
        if best is None or key < best[0]:
            best = (key, theta)
    return float(best[1])


def reject_outliers(
    observations: Sequence["Observation"],
    cfg: FusionConfig,
    weights: Sequence[float] | None = None,
) -> tuple[list["Observation"], list["Observation"]]:
    """Split observations into (inliers, outliers).

    Inliers sit within depth_tol of the weighted median global z and within
    yaw_tol of the weighted circular median global yaw.
    """
    if len(observations) == 0:
        raise EmptyInput("no observations")
    if weights is None:
        weights = [o.weight for o in observations]
    frames = [o.detection.frame_id for o in observations]
    zs = [float(o.global_pose.translation[2]) for o in observations]
    yaws = [yaw_from_rotation(o.global_pose.rotation) for o in observations]

    z_med = weighted_median(zs, weights, frames)
    yaw_med = weighted_circular_median(yaws, weights, frames)

    inliers, outliers = [], []
    for o, z, yaw in zip(observations, zs, yaws):
        if abs(z - z_med) <= cfg.depth_tol and abs(wrap_angle(yaw - yaw_med)) <= cfg.yaw_tol:
            inliers.append(o)
        else:
            outliers.append(o)
    return inliers, outliers


def fuse_pose(observations: Sequence["Observation"], weights: Sequence[float]) -> Pose:
    """Fused global pose: per-axis weighted mean translation and yaw-only
    rotation rebuilt from the averaged orientation."""
    if len(observations) == 1:
        t = observations[0].global_pose.translation
        r_avg = observations[0].global_pose.rotation
    else:
        total = float(np.sum(weights))
        if total <= 0.0:
            raise ZeroWeightSum("weights sum to zero")
        ts = np.array([o.global_pose.translation for o in observations])
        t = np.asarray(weights) @ ts / total
        r_avg = rotation_average([o.global_pose.rotation for o in observations], weights)
    return Pose(yaw_to_rotation(yaw_from_rotation(r_avg)), t)


def _mean_dims(observations: Sequence["Observation"], weights: Sequence[float]) -> Dimensions3D:
    if len(observations) == 1:
        return observations[0].detection.dims
    total = float(np.sum(weights))
    hwl = np.array(
        [(o.detection.dims.height, o.detection.dims.width, o.detection.dims.length)
         for o in observations]
    )
    h, w, l = np.asarray(weights) @ hwl / total
    return Dimensions3D(h, w, l)


def fuse_track(track: "Track", policy: WeightPolicy, cfg: FusionConfig) -> Landmark | Rejected:
    """Fuse one track into a Landmark, or explain why it was rejected.

    The landmark_id is a placeholder (-1) until assign_landmark_ids runs.
    """
    weights_all = [observation_weight(o, policy) for o in track.observations]
    inliers, _ = reject_outliers(track.observations, cfg, weights=weights_all)
    if len(inliers) < cfg.min_support:
        return Rejected("low_support", track.track_id,
                        f"{len(inliers)} inliers < min_support {cfg.min_support}")

    # Variance gate runs on inliers: gross single-frame outliers must not
    # masquerade as motion, only consistent drift should.
    if len(inliers) > 1:
        ts = np.array([o.global_pose.translation for o in inliers])
        var = ts.var(axis=0, ddof=1)
        if np.any(var > cfg.var_gate):
            return Rejected("dynamic", track.track_id,
                            f"translation variance {var.round(3).tolist()} m^2")

    weights = [observation_weight(o, policy) for o in inliers]
    try:
        pose = fuse_pose(inliers, weights)
    except DegenerateMean as e:
        return Rejected("degenerate_mean", track.track_id, str(e))

    frames = [o.detection.frame_id for o in inliers]
    return Landmark(
        landmark_id=-1,
        global_pose=pose,
        dims=_mean_dims(inliers, weights),
        support=len(inliers),
        first_frame=min(frames),
        last_frame=max(frames),
        category=inliers[0].detection.category,
        mean_score=float(np.mean([o.detection.score for o in inliers])),
        observed_frames=tuple(sorted(frames)),
    )


def fuse_tracks(
    tracks: Iterable["Track"], policy: WeightPolicy, cfg: FusionConfig
) -> tuple[list[Landmark], dict[int, Rejected], dict[int, int]]:
    """Fuse every track; landmark ids are assigned by (first_frame, track_id).

    Returns (landmarks, rejections keyed by track id, source track id
    keyed by landmark id).
    """
    fused = []
    rejected = {}
    for track in tracks:
        result = fuse_track(track, policy, cfg)
        if isinstance(result, Rejected):
            rejected[track.track_id] = result
        else:
            fused.append((result.first_frame, track.track_id, result))
    fused.sort(key=lambda item: (item[0], item[1]))
    landmarks = [
        Landmark(
            landmark_id=i,
            global_pose=lm.global_pose,
            dims=lm.dims,
            support=lm.support,
            first_frame=lm.first_frame,
            last_frame=lm.last_frame,
            category=lm.category,
            mean_score=lm.mean_score,
            observed_frames=lm.observed_frames,
        )
        for i, (_, _, lm) in enumerate(fused)
    ]
    track_of = {i: track_id for i, (_, track_id, _) in enumerate(fused)}
    return landmarks, rejected, track_of


def landmark_to_json(lm: Landmark) -> dict:
    return {
        "id": lm.landmark_id,
        "category": lm.category,
        "pose": [float(v) for v in lm.global_pose.matrix().ravel()],
        "dims": {"h": lm.dims.height, "w": lm.dims.width, "l": lm.dims.length},
        "support": lm.support,
        "first_frame": lm.first_frame,
        "last_frame": lm.last_frame,
        "mean_score": lm.mean_score,
        "observed_frames": list(lm.observed_frames),
    }


def serialize_landmarks(landmarks: Iterable[Landmark]) -> str:
    return "".join(json.dumps(landmark_to_json(lm)) + "\n" for lm in landmarks)


def parse_landmarks(text: str) -> list[Landmark]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        obj = json.loads(line)
        m = np.array(obj["pose"], dtype=float).reshape(3, 4)
        out.append(
            Landmark(
                landmark_id=int(obj["id"]),
                global_pose=Pose(m[:, :3], m[:, 3]),
                dims=Dimensions3D(obj["dims"]["h"], obj["dims"]["w"], obj["dims"]["l"]),
                support=int(obj["support"]),
                first_frame=int(obj["first_frame"]),
                last_frame=int(obj["last_frame"]),
                category=obj["category"],
                mean_score=float(obj["mean_score"]),
                observed_frames=tuple(int(f) for f in obj.get("observed_frames", [])),
            )
        )
    return out
