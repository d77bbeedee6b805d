"""Rigid transforms, pinhole projection, 3D box corners and 2D IoU.

Conventions (KITTI camera frame): x right, y down, z forward, all in
meters.  An object pose places the bottom-face center of its cuboid at
the pose translation; yaw is the rotation about the y axis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, DegenerateProjection, ZeroArea

log = logging.getLogger(__name__)

ORTHONORMAL_TOL = 1e-9

# Off-pattern elements this small mean the matrix is a pure y rotation,
# which allows full-range yaw recovery instead of the folded formula.
_YAW_ONLY_TOL = 1e-9


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap into (-pi, pi]."""
    r = np.mod(np.asarray(theta, dtype=float) + np.pi, math.tau) - np.pi
    return np.where(r == -np.pi, np.pi, r)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (3x3, orthonormal, det +1) and translation (3,)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        dev = np.abs(r.T @ r - np.eye(3)).max()
        if dev >= ORTHONORMAL_TOL:
            raise ValueError(f"rotation not orthonormal (max |R^T R - I| = {dev:.3e})")
        det = np.linalg.det(r)
        if abs(det - 1.0) >= ORTHONORMAL_TOL:
            raise ValueError(f"rotation determinant {det:.12f} != +1")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Pose":
        """Build from a 3x4 (or 4x4) row-major [R | t] matrix."""
        m = np.asarray(m, dtype=float)
        return cls(m[:3, :3], m[:3, 3])

    def matrix(self) -> np.ndarray:
        """The 3x4 [R | t] matrix."""
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) batch."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation


@dataclass(frozen=True)
class ProjectionMatrix:
    """3x4 pinhole projection matrix (intrinsics times extrinsics)."""

    P: np.ndarray

    def __post_init__(self):
        p = np.array(self.P, dtype=float)
        if p.shape != (3, 4):
            raise ValueError(f"projection matrix must be 3x4, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("projection matrix has non-finite entries")
        if p[2, 2] == 0.0:
            raise ValueError("P[2][2] is zero; depth along the optical axis undefined")
        p.flags.writeable = False
        object.__setattr__(self, "P", p)


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel box; left <= right, top <= bottom."""

    left: float
    top: float
    right: float
    bottom: float

    def __post_init__(self):
        if self.left > self.right or self.top > self.bottom:
            raise ValueError(
                f"invalid box: ({self.left}, {self.top}, {self.right}, {self.bottom})"
            )

    def area(self) -> float:
        return (self.right - self.left) * (self.bottom - self.top)

    def clip(self, width: float, height: float) -> "Box2D | None":
        """Intersect with the image rectangle [0, width] x [0, height].

        Returns None when the box lies entirely outside the image.
        """
        l = max(self.left, 0.0)
        t = max(self.top, 0.0)
        r = min(self.right, width)
        b = min(self.bottom, height)
        if l > r or t > b:
            return None
        return Box2D(l, t, r, b)


@dataclass(frozen=True)
class Dimensions3D:
    """Cuboid extents in meters: height (y), width (z), length (x)."""

    height: float
    width: float
    length: float

    def __post_init__(self):
        if not (self.height > 0 and self.width > 0 and self.length > 0):
            raise ValueError(
                f"dimensions must be strictly positive, got "
                f"({self.height}, {self.width}, {self.length})"
            )


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


def back_project(u: float, v: float, depth: float, P: ProjectionMatrix) -> np.ndarray:
    """Invert project_point: the 3D point projecting to (u, v) at the given depth.

    Solves M x = depth * [u, v, 1] - p4 where P = [M | p4].
    """
    m = P.P[:, :3]
    p4 = P.P[:, 3]
    rhs = depth * np.array([u, v, 1.0]) - p4
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as e:
        raise DegenerateProjection(f"intrinsics block is singular: {e}") from e


def compose(a: Pose, b: Pose) -> Pose:
    """a then b as one transform: rotation R_a R_b, translation R_a t_b + t_a."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(a: Pose) -> Pose:
    """The transform undoing a: compose(a, inverse(a)) is the identity."""
    rt = a.rotation.T
    return Pose(rt, -(rt @ a.translation))


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Project an arbitrary 3x3 matrix onto the closest proper rotation.

    SVD projection with the sign of the smallest singular direction fixed
    so the determinant is always +1 (never a reflection).
    """
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _is_yaw_only(r: np.ndarray) -> bool:
    return (
        abs(r[0, 1]) < _YAW_ONLY_TOL
        and abs(r[1, 0]) < _YAW_ONLY_TOL
        and abs(r[1, 2]) < _YAW_ONLY_TOL
        and abs(r[2, 1]) < _YAW_ONLY_TOL
        and abs(r[1, 1] - 1.0) < _YAW_ONLY_TOL
    )


def yaw_from_rotation(R: np.ndarray) -> float:
    """Yaw angle of a rotation matrix.

    The base formula atan2(-R[2,0], sqrt(R[0,0]^2 + R[1,0]^2)) has a
    non-negative second argument, so it folds yaw into [-pi/2, pi/2] and
    cannot tell theta from pi - theta.  When the matrix is a verified pure
    y rotation we instead recover the full (-pi, pi] range from the
    (sin, cos) pattern directly.
    """
    r = np.asarray(R, dtype=float)
    if _is_yaw_only(r):
        return math.atan2(r[0, 2], r[0, 0])
    if abs(r[1, 0]) > 0.5:
        log.warning(
            "large pitch/roll component (|R[1,0]| = %.3f); yaw extraction is "
            "only meaningful for nearly ground-parallel rotations",
            abs(r[1, 0]),
        )
    return math.atan2(-r[2, 0], math.hypot(r[0, 0], r[1, 0]))


def yaw_to_rotation(yaw: float) -> np.ndarray:
    """Rotation about the y axis by the given angle."""
    c = math.cos(yaw)
    s = math.sin(yaw)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# Corner offsets in the object frame, bottom-centered origin.  Order:
# bottom face (y = 0) going (+x,+z) -> (+x,-z) -> (-x,-z) -> (-x,+z),
# then the top face (y = -height) in the same x/z order.
def box3d_corners(pose: Pose, dims: Dimensions3D) -> np.ndarray:
    """The 8 cuboid corners in the parent frame of pose, shape (8, 3)."""
    hx = dims.length / 2.0
    hz = dims.width / 2.0
    h = dims.height
    offsets = np.array(
        [
            [hx, 0.0, hz],
            [hx, 0.0, -hz],
            [-hx, 0.0, -hz],
            [-hx, 0.0, hz],
            [hx, -h, hz],
            [hx, -h, -hz],
            [-hx, -h, -hz],
            [-hx, -h, hz],
        ]
    )
    return pose.apply(offsets)


def project_box(corners: np.ndarray, P: ProjectionMatrix) -> Box2D:
    """Axis-aligned hull of the projected corners that lie in front of the camera."""
    pts = np.asarray(corners, dtype=float)
    hom = np.hstack([pts, np.ones((len(pts), 1))])
    rows = hom @ P.P.T
    depths = rows[:, 2]
    front = depths > 0
    if not np.any(front):
        raise BehindCamera("all corners have non-positive depth")
    u = rows[front, 0] / depths[front]
    v = rows[front, 1] / depths[front]
    return Box2D(float(u.min()), float(v.min()), float(u.max()), float(v.max()))


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    area_a = a.area()
    area_b = b.area()
    if area_a == 0.0 and area_b == 0.0:
        raise ZeroArea("both boxes have zero area")
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)
