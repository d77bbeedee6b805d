"""Fuse tracks of observations into static global landmarks.

The pipeline per track: reject depth/yaw outliers around robust weighted
medians, gate on support and on translation variance (dynamic objects),
then average the survivors: per-axis weighted mean for translation and
dims, the SVD projection of the weighted rotation mean for orientation,
with the final rotation rebuilt from its yaw alone.  Every fused estimate,
final (fuse_pose) or running (association.refresh_fused), is fuse_rows of a
weighted sum of fusion_rows.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .config import FusionConfig, WeightPolicy
from .dataio import _check_rotation, _entries, _json_record, _read
from .errors import DegenerateMean, EmptyInput, MissingSigma, ZeroWeightSum
from .geometry import Pose, nearest_rotation, yaw_from_rotations, yaw_only
from .labels import Dimensions3D, _data_lines, dims_error, wrap_angle

if TYPE_CHECKING:
    from .association import Observation, Track

MAP_ROTATION_TOL = 1e-9


class Landmark(NamedTuple):
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


class Rejected(NamedTuple):
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
    m = np.tensordot(np.asarray(weights, dtype=float), np.asarray(rotations, dtype=float), axes=1)
    rotation, (collapsed,) = nearest_rotation(m / total)
    if collapsed is not None:
        raise collapsed
    return rotation


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
    The wrapped deviation min(d, tau - d), d = |theta - a|, equals
    |wrap_angle(theta - a)| exactly for angles in (-pi, pi].
    """
    values = np.asarray(angles, dtype=float)
    w = np.asarray(weights, dtype=float)
    costs = []
    for k in range(0, len(values), 32):  # candidates in blocks of 32 bound the memory
        d = np.abs(values[k:k + 32, None] - values)
        # Each row summed left to right, so the costs and the ties match a plain loop.
        costs += np.cumsum(w * np.minimum(d, math.tau - d), axis=1)[:, -1].tolist()
    return float(angles[min(range(len(costs)), key=lambda j: (costs[j], order_keys[j]))])


def reject_outliers(
    observations: Sequence["Observation"],
    cfg: FusionConfig,
    weights: Sequence[float],
) -> tuple[list["Observation"], list["Observation"]]:
    """Split observations into (inliers, outliers) under the weights.

    Inliers sit within depth_tol of the weighted median global z and within
    yaw_tol of the weighted circular median global yaw.
    """
    if len(observations) == 0:
        raise EmptyInput("no observations")
    frames = [o.detection.frame_id for o in observations]
    zs = [float(o.global_pose.translation[2]) for o in observations]
    yaws = yaw_from_rotations(np.array([o.global_pose.rotation for o in observations]))

    z_med = weighted_median(zs, weights, frames)
    yaw_med = weighted_circular_median(yaws, weights, frames)

    inliers, outliers = [], []
    for o, z, yaw in zip(observations, zs, yaws):
        if abs(z - z_med) <= cfg.depth_tol and abs(wrap_angle(yaw - yaw_med)) <= cfg.yaw_tol:
            inliers.append(o)
        else:
            outliers.append(o)
    return inliers, outliers


def fusion_rows(translation: np.ndarray, rotation: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Rows of the fusion sums, (n, 16): (1, t, R row-major, h, w, l) of each pose and dims."""
    n = len(translation)
    return np.concatenate((np.ones((n, 1)), translation, rotation.reshape(n, 9), dims), axis=1)


def fuse_rows(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Fused rotation, translation and dims of each row of sums, an (n, 16) stack of
    sum(w * fusion_rows): (n, 3, 3), (n, 3) and (n, 3) arrays, dims as (h, w, l), and
    each row's error, None where the row has a mean.

    Translation and dims are the weighted means; the rotation is
    nearest_rotation of the weighted rotation mean, rebuilt from its yaw
    alone.  A row with no mean has ZeroWeightSum when sum(w) <= 0, else a
    DegenerateMean (not finite, dims <= 0 or a collapsed rotation); its values mean nothing.
    """
    total = sums[:, :1]
    mean = sums / np.where(total > 0.0, total, 1.0)  # a row without weight is reported below
    usable = np.isfinite(mean).all(axis=1) & (mean[:, 13:] > 0.0).all(axis=1)
    if not usable.all():
        mean[~usable, 4:13] = 0.0  # an SVD of a non-finite matrix never returns
    rotations, collapsed = nearest_rotation(mean[:, 4:13].reshape(-1, 3, 3))
    errors = [ZeroWeightSum("weights sum to zero") if w <= 0.0
              else DegenerateMean(f"fused mean not finite or dims <= 0 "
                                  f"(dims {mean[i, 13:].tolist()})") if not ok else c
              for i, (w, ok, c) in enumerate(zip(total[:, 0].tolist(), usable.tolist(), collapsed))]
    return yaw_only(rotations), mean[:, 1:4], mean[:, 13:], errors


def fuse_pose(observations: Sequence["Observation"],
              weights: Sequence[float]) -> tuple[Pose, Dimensions3D]:
    """Fused global pose and dims of the observations under the weights.

    A single observation passes through exactly: its pose rebuilt from its
    yaw, and its dims.  Raises fuse_rows' error when no mean exists.
    """
    if len(observations) == 1:
        pose = observations[0].global_pose
        return Pose(yaw_only(pose.rotation)[0], pose.translation), observations[0].detection.dims
    rows = fusion_rows(np.array([o.global_pose.translation for o in observations]),
                       np.array([o.global_pose.rotation for o in observations]),
                       np.array([o.detection.dims for o in observations]))
    with np.errstate(over="ignore", invalid="ignore"):  # fuse_rows reports a non-finite sum
        rotation, translation, dims, (error,) = fuse_rows(
            (np.asarray(weights, dtype=float) @ rows)[None])
    if error is not None:
        raise error
    return Pose(rotation[0], translation[0]), Dimensions3D(*dims[0])


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
        with np.errstate(over="ignore", invalid="ignore"):  # translations near 1e308 overflow
            var = ts.var(axis=0, ddof=1)
        if np.any(var > cfg.var_gate):
            return Rejected("dynamic", track.track_id,
                            f"translation variance {var.round(3).tolist()} m^2")

    weights = [observation_weight(o, policy) for o in inliers]
    try:
        pose, dims = fuse_pose(inliers, weights)
    except (DegenerateMean, ZeroWeightSum) as e:
        return Rejected("degenerate_mean", track.track_id, str(e))

    frames = [o.detection.frame_id for o in inliers]
    return Landmark(
        landmark_id=-1,
        global_pose=pose,
        dims=dims,
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
    landmarks = [lm._replace(landmark_id=i) for i, (_, _, lm) in enumerate(fused)]
    track_of = {i: track_id for i, (_, track_id, _) in enumerate(fused)}
    return landmarks, rejected, track_of


def landmark_to_json(lm: Landmark) -> dict:
    return {
        "id": lm.landmark_id,
        "category": lm.category,
        "pose": [float(v) for v in lm.global_pose.matrix().ravel()],
        "dims": dict(zip("hwl", lm.dims)),
        "support": lm.support,
        "first_frame": lm.first_frame,
        "last_frame": lm.last_frame,
        "mean_score": lm.mean_score,
        "observed_frames": list(lm.observed_frames),
    }


def serialize_landmarks(landmarks: Iterable[Landmark]) -> str:
    return "".join(json.dumps(landmark_to_json(lm)) + "\n" for lm in landmarks)


def parse_landmarks(text: str) -> list[Landmark]:
    """Read a map; rotations are used exactly as read, so they must pass MAP_ROTATION_TOL.

    Every field is read, and checked, as read_detections reads it.
    """
    out = []
    for lineno, line in _data_lines(text):
        obj = _json_record(line, lineno)
        m = np.array(_entries(obj, "pose", lineno, 12)).reshape(3, 4)
        _check_rotation(m[None, :, :3], [lineno], MAP_ROTATION_TOL)
        out.append(
            Landmark(
                landmark_id=_read(obj, "id", lineno, int),
                global_pose=Pose(m[:, :3], m[:, 3]),
                dims=Dimensions3D(*_entries(obj, "dims", lineno, "hwl", rule=dims_error)),
                support=_read(obj, "support", lineno, int),
                first_frame=_read(obj, "first_frame", lineno, int),
                last_frame=_read(obj, "last_frame", lineno, int),
                category=_read(obj, "category", lineno, str),
                mean_score=_read(obj, "mean_score", lineno),
                observed_frames=tuple(_entries(obj, "observed_frames", lineno, None, int)
                                      if "observed_frames" in obj else ()),
            )
        )
    return out
