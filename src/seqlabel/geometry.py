"""Rigid transforms, pinhole projection and cuboid-to-box projection.

Conventions (KITTI camera frame): x right, y down, z forward, all in
meters.  An object pose places the bottom-face center of its cuboid at
the pose translation; yaw is the rotation about the y axis.

project_box, nearest_rotation and back_project are the one stacked kernel
of their operation (cuboid to image box, matrix to rotation, pixel to 3D
point), and every caller goes through them.  The numpy-free box types, 2D
IoU and wrap_angle live in seqlabel.labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateMean, DegenerateProjection

# Off-pattern elements this small mean the matrix is a pure y rotation,
# which allows full-range yaw recovery instead of the folded formula.
_YAW_ONLY_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Pose:
    """Rigid transform: a (3, 3) float rotation with det +1 and a (3,) float translation.

    It checks and converts nothing: the file readers check each rotation as they read it
    (dataio._check_rotation), the only check, and every producer hands over float arrays.
    The arrays may be views shared with other poses, so construction marks them read-only:
    a write through any pose raises instead of changing every pose that shares the buffer."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """The 3x4 [R | t] matrix."""
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) batch."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


class ProjectionMatrix(NamedTuple):
    """3x4 pinhole projection matrix (intrinsics times extrinsics); parse_calib checks a file's."""

    P: np.ndarray


def project_point(p, P: ProjectionMatrix) -> tuple[float, float, float]:
    """Project a 3D point to (u, v, depth) pixels/meters.

    depth is the third row of P @ [x, y, z, 1], sign preserved so callers
    can filter points behind the camera.
    """
    x, y, z = (float(v) for v in p)
    row = P.P @ (x, y, z, 1.0)
    w = row[2]
    if abs(w) < 1e-12:
        raise DegenerateProjection(f"projection denominator {w!r} for point {(x, y, z)}")
    return (row[0] / w, row[1] / w, w)


def back_project(u, v, depth, P: ProjectionMatrix) -> np.ndarray:
    """Invert project_point: the 3D points projecting to (u, v) at depth, (3,) or (n, 3).

    u, v and depth are scalars or equal-length arrays; one broadcast solve of
    M x = depth * [u, v, 1] - p4 where P = [M | p4].  Raises
    DegenerateProjection when M is singular or a point is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point raises below
        rhs = np.stack(np.broadcast_arrays(u, v, 1.0), -1) * np.expand_dims(depth, -1) - P.P[:, 3]
    try:
        points = np.linalg.solve(P.P[:, :3], rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as e:
        raise DegenerateProjection(f"intrinsics block is singular: {e}") from e
    if not np.isfinite(points).all():
        raise DegenerateProjection("back-projected point is not finite")
    return points


def compose(a: Pose, b: Pose) -> Pose:
    """a then b as one transform: rotation R_a R_b, translation R_a t_b + t_a."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    """The transform undoing a: compose(a, inverse(a)) is the identity."""
    rt = a.rotation.T
    return Pose(rt, -(rt @ a.translation))


def nearest_rotation(m: np.ndarray) -> tuple[np.ndarray, list[DegenerateMean | None]]:
    """Project each 3x3 matrix of a (..., 3, 3) stack onto the closest proper rotation.

    SVD projection with the sign of the smallest singular direction fixed
    so the determinant is always +1 (never a reflection).  Also returns, per
    matrix in C order, a DegenerateMean when its two largest singular values
    vanish (a collapsed weighted rotation mean has no direction), else None.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    flip = np.zeros_like(u)
    flip[..., 0, 0] = flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = np.sign(np.linalg.det(u @ vt))
    s = s.reshape(-1, 3)
    collapsed = [DegenerateMean(f"rotation mean collapsed (singular values {s[i]})") if c else None
                 for i, c in enumerate(((s[:, 0] < 1e-9) & (s[:, 1] < 1e-9)).tolist())]
    return u @ flip @ vt, collapsed


def yaw_from_rotation(R: np.ndarray) -> float:
    """Yaw angle of a rotation matrix: the one-matrix case of yaw_from_rotations."""
    return yaw_from_rotations(R)[0]


def yaw_to_rotation(yaw: float) -> np.ndarray:
    """Rotation about the y axis by the given angle: the one-angle case of yaw_to_rotations."""
    return yaw_to_rotations([yaw])[0]


def yaw_from_rotations(rotations: np.ndarray) -> list[float]:
    """Yaw angle of each matrix of an (n, 3, 3) stack, or of one matrix.

    The base formula atan2(-R[2,0], sqrt(R[0,0]^2 + R[1,0]^2)) has a
    non-negative second argument, so it folds yaw into [-pi/2, pi/2] and
    cannot tell theta from pi - theta.  When the matrix is a verified pure
    y rotation we instead recover the full (-pi, pi] range from the
    (sin, cos) pattern directly.  The test is stacked; the angles stay on
    math.atan2, which numpy's arctan2 does not match bit for bit.
    """
    r = np.asarray(rotations, dtype=float).reshape(-1, 9)  # row-major: r[:, 3 * i + j] is R[i, j]
    pure = ((np.abs(r[:, 1::2]) < _YAW_ONLY_TOL).all(axis=1)
            & (np.abs(r[:, 4] - 1.0) < _YAW_ONLY_TOL))
    c = r.T.tolist()
    return [math.atan2(r02, r00) if p else math.atan2(-r20, math.hypot(r00, r10))
            for p, r02, r00, r20, r10 in zip(pure.tolist(), c[2], c[0], c[6], c[3])]


def yaw_to_rotations(yaws: Sequence[float]) -> np.ndarray:
    """Rotations about the y axis by each angle, an (n, 3, 3) stack, on math's cos and sin."""
    out = np.zeros((len(yaws), 3, 3))
    out[:, 0, 0] = out[:, 2, 2] = [math.cos(y) for y in yaws]
    out[:, 0, 2] = [math.sin(y) for y in yaws]
    out[:, 2, 0] = -out[:, 0, 2]
    out[:, 1, 1] = 1.0
    return out


def yaw_only(rotations: np.ndarray) -> np.ndarray:
    """Each matrix of an (n, 3, 3) stack, or one matrix as a stack of one, rebuilt from its
    yaw alone."""
    return yaw_to_rotations(yaw_from_rotations(rotations))


# Corner offsets in the object frame, bottom-centered origin, as multiples
# of (length / 2, height, width / 2).  Order: bottom face (y = 0) going
# (+x,+z) -> (+x,-z) -> (-x,-z) -> (-x,+z), then the top face (y = -height)
# in the same x/z order.
CORNER_SIGNS = np.array(
    [
        [1.0, 0.0, 1.0],
        [1.0, 0.0, -1.0],
        [-1.0, 0.0, -1.0],
        [-1.0, 0.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, -1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
)
CORNER_SIGNS.flags.writeable = False


def half_extents(hwl) -> np.ndarray:
    """(N, 3) half sizes for project_box, (length / 2, height, width / 2), of N (h, w, l) rows."""
    return np.asarray(hwl, dtype=float).reshape(-1, 3)[:, [2, 0, 1]] * (0.5, 1.0, 0.5)


def project_box(rotation: np.ndarray, translation: np.ndarray, half: np.ndarray,
                P: ProjectionMatrix) -> np.ndarray:
    """Image hulls of N cuboids seen from the camera, shape (4, N): left, top, right, bottom.

    Cuboid i has pose (rotation[i], translation[i]) in the camera frame and
    its corners at CORNER_SIGNS * half[i] (see half_extents).  A hull
    covers the corners in front of the camera; with none in front it is
    empty: (+inf, +inf, -inf, -inf).
    """
    # Extreme but finite sizes or poses overflow to inf or nan corners; such a
    # hull is empty or nan, which annotation excludes and association scores as IoU 0.
    with np.errstate(over="ignore", invalid="ignore"):
        corners = (CORNER_SIGNS * half[:, None, :]) @ rotation.transpose(0, 2, 1)
        rows = (corners + translation[:, None, :]) @ P.P[:, :3].T + P.P[:, 3]
        front = rows[..., 2] > 0
        depth = np.where(front, rows[..., 2], 1.0)
        u = rows[..., 0] / depth
        v = rows[..., 1] / depth
    return np.stack([
        np.where(front, u, np.inf).min(axis=1), np.where(front, v, np.inf).min(axis=1),
        np.where(front, u, -np.inf).max(axis=1), np.where(front, v, -np.inf).max(axis=1),
    ])

