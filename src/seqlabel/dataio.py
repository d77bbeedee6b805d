"""Readers and writers for the on-disk formats.

Formats:
  trajectory  one camera-to-world pose per line, 12 reals (row-major 3x4);
              the frame id is the data-line index starting at 0
  calib       "KEY: v1 ... v12" per line, e.g. "P2: ..."
  detections  JSONL, one record per line: frame_id, category,
              box2d{l,t,r,b}, depth, yaw, dims{h,w,l}, center2d{u,v},
              score, sigma?, descriptor?, gt_id?
  labels      KITTI object labels, 15 whitespace-separated fields per
              line, floats rendered with 2 decimals; the numpy-free
              reader and formatter live in seqlabel.labels

Blank lines and lines starting with '#' are skipped everywhere; reported
line numbers are 1-based positions in the raw file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    MissingCamera,
    MissingCameraPose,
    OrthonormalityError,
    ParseError,
    SchemaError,
)
from .geometry import Pose, ProjectionMatrix, nearest_rotation
from .labels import (
    Box2D,
    Dimensions3D,
    FrameAnnotation,
    KittiLabelLine,
    _data_lines,
    _parse_floats,
    format_label_line,
    parse_kitti_labels,  # re-exported: the acceptance suite reads labels through dataio
    wrap_angle,
)

# Rotation blocks may deviate this much from orthonormal before parsing fails;
# anything accepted is re-projected onto the closest proper rotation.
ROTATION_INPUT_TOL = 1e-3


@dataclass
class TrajectoryFile:
    """Ordered camera-to-world poses, one per frame."""

    poses: list[Pose]

    def __len__(self) -> int:
        return len(self.poses)

    def pose(self, frame_id: int) -> Pose:
        if 0 <= frame_id < len(self.poses):
            return self.poses[frame_id]
        raise MissingCameraPose(frame_id)


@dataclass
class CalibFile:
    """Named 3x4 projection matrices."""

    matrices: dict[str, ProjectionMatrix] = field(default_factory=dict)

    def get(self, key: str) -> ProjectionMatrix:
        try:
            return self.matrices[key]
        except KeyError:
            raise MissingCamera(f"camera {key!r} not in calibration "
                                f"(have: {sorted(self.matrices)})") from None


@dataclass
class DetectionRecord:
    """One detection of one object in one frame, camera-local."""

    frame_id: int
    category: str
    box2d: Box2D
    depth: float
    yaw: float
    dims: Dimensions3D
    center2d: tuple[float, float]
    score: float
    sigma: float | None = None
    descriptor: np.ndarray | None = None
    gt_id: int | None = None  # simulator diagnostic, not produced by detectors


def _check_rotation(r: np.ndarray, lineno: int, tol: float) -> None:
    """OrthonormalityError unless max |R^T R - I| <= tol and det R > 0; NaN fails both."""
    dev = np.abs(r.T @ r - np.eye(3)).max()
    if not dev <= tol:
        raise OrthonormalityError(lineno, f"rotation deviates from orthonormal by {dev:.3e}")
    if not np.linalg.det(r) > 0:
        raise OrthonormalityError(lineno, "rotation block is a reflection (det < 0)")


def parse_trajectory(text: str) -> TrajectoryFile:
    """Parse camera poses; frame k is the k-th data line."""
    rows = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) != 12:
            raise ParseError(lineno, f"expected 12 fields, got {len(fields)}")
        rows.append(np.array(_parse_floats(fields, lineno)).reshape(3, 4))
        _check_rotation(rows[-1][:, :3], lineno, ROTATION_INPUT_TOL)
    # Every rotation passed _check_rotation, so none collapses.
    rotations, _ = nearest_rotation(np.array(rows).reshape(-1, 3, 4)[..., :3])
    return TrajectoryFile([Pose(r, m[:, 3]) for r, m in zip(rotations, rows)])


def serialize_trajectory(trajectory: TrajectoryFile) -> str:
    lines = [
        " ".join(repr(float(v)) for v in pose.matrix().ravel()) for pose in trajectory.poses
    ]
    return "".join(line + "\n" for line in lines)


def parse_calib(text: str) -> CalibFile:
    """Parse "KEY: 12 reals" lines into named projection matrices."""
    matrices = {}
    for lineno, line in _data_lines(text):
        key, sep, rest = line.partition(":")
        if not sep or not key.strip():
            raise ParseError(lineno, "expected 'KEY: v1 ... v12'")
        fields = rest.split()
        if len(fields) != 12:
            raise ParseError(lineno, f"expected 12 matrix values, got {len(fields)}")
        values = _parse_floats(fields, lineno)
        try:
            matrices[key.strip()] = ProjectionMatrix(np.array(values).reshape(3, 4))
        except ValueError as e:
            raise ParseError(lineno, str(e)) from None
    return CalibFile(matrices)


def serialize_calib(calib: CalibFile) -> str:
    lines = [
        f"{key}: " + " ".join(repr(float(v)) for v in calib.matrices[key].P.ravel())
        for key in calib.matrices
    ]
    return "".join(line + "\n" for line in lines)


def _json_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text}")
    return v


def _json_int(text: str) -> int:
    _json_float(text)  # an integer beyond the float range is not finite either
    return int(text)


def _json_record(line: str, lineno: int) -> dict:
    """Decode one JSONL record; NaN, Infinity and out-of-range numbers are errors.

    The same finite-number rule _parse_floats applies to text inputs.
    """
    try:
        obj = json.loads(line, parse_float=_json_float, parse_int=_json_int,
                         parse_constant=_json_float)
    except json.JSONDecodeError as e:
        raise SchemaError(lineno, f"invalid JSON: {e.msg}") from None
    except ValueError as e:
        raise SchemaError(lineno, str(e)) from None
    if not isinstance(obj, dict):
        raise SchemaError(lineno, "record must be a JSON object")
    return obj


def _require(obj: dict, name: str, lineno: int):
    if name not in obj:
        raise SchemaError(lineno, f"missing field {name!r}")
    return obj[name]


def _number(obj: dict, name: str, lineno: int) -> float:
    v = _require(obj, name, lineno)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(lineno, f"field {name!r} must be a number, got {type(v).__name__}")
    return float(v)


def _integer(obj: dict, name: str, lineno: int) -> int:
    v = _require(obj, name, lineno)
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(lineno, f"field {name!r} must be an integer")
    return v


def _detection_from_json(obj: dict, lineno: int, descriptor_len: list) -> DetectionRecord:
    frame_id = _integer(obj, "frame_id", lineno)
    category = _require(obj, "category", lineno)
    if not isinstance(category, str):
        raise SchemaError(lineno, "field 'category' must be a string")

    parts = {}
    for name, keys in (("box2d", "ltrb"), ("dims", "hwl"), ("center2d", "uv")):
        d = _require(obj, name, lineno)
        if not isinstance(d, dict) or set(d) != set(keys):
            raise SchemaError(lineno, f"field {name!r} must be an object with keys {list(keys)}")
        paths = {f"{name}.{k}": d[k] for k in keys}  # so that _number names e.g. box2d.l
        parts[name] = [_number(paths, p, lineno) for p in paths]

    depth = _number(obj, "depth", lineno)
    if not depth > 0:
        raise SchemaError(lineno, f"field 'depth' must be positive, got {depth}")
    score = _number(obj, "score", lineno)
    if not 0.0 <= score <= 1.0:
        raise SchemaError(lineno, f"field 'score' must be in [0, 1], got {score}")

    sigma = None
    if obj.get("sigma") is not None:
        sigma = _number(obj, "sigma", lineno)
        if not (sigma > 0):
            raise SchemaError(lineno, f"field 'sigma' must be positive, got {sigma}")

    descriptor = None
    if obj.get("descriptor") is not None:
        raw = obj["descriptor"]
        if (not isinstance(raw, list) or not raw
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
            raise SchemaError(lineno, "field 'descriptor' must be a non-empty array of numbers")
        if descriptor_len[0] is None:
            descriptor_len[0] = len(raw)
        elif len(raw) != descriptor_len[0]:
            raise SchemaError(
                lineno,
                f"field 'descriptor' length {len(raw)} != {descriptor_len[0]} seen earlier",
            )
        descriptor = np.asarray(raw, dtype=float)

    gt_id = _integer(obj, "gt_id", lineno) if obj.get("gt_id") is not None else None

    try:
        return DetectionRecord(
            frame_id=frame_id,
            category=category,
            box2d=Box2D(*parts["box2d"]),
            depth=depth,
            yaw=wrap_angle(_number(obj, "yaw", lineno)),
            dims=Dimensions3D(*parts["dims"]),
            center2d=tuple(parts["center2d"]),
            score=score,
            sigma=sigma,
            descriptor=descriptor,
            gt_id=gt_id,
        )
    except (TypeError, ValueError) as e:
        raise SchemaError(lineno, str(e)) from None


def read_detections(text: str) -> dict[int, list[DetectionRecord]]:
    """Read detection JSONL grouped by frame id.

    Returns a dict whose keys are ascending frame ids; within each frame
    the input order is preserved.
    """
    groups: dict[int, list[DetectionRecord]] = {}
    descriptor_len = [None]
    for lineno, line in _data_lines(text):
        rec = _detection_from_json(_json_record(line, lineno), lineno, descriptor_len)
        groups.setdefault(rec.frame_id, []).append(rec)
    return {k: groups[k] for k in sorted(groups)}


def detection_to_json(rec: DetectionRecord) -> dict:
    obj = {
        "frame_id": rec.frame_id,
        "category": rec.category,
        "box2d": {"l": rec.box2d.left, "t": rec.box2d.top,
                  "r": rec.box2d.right, "b": rec.box2d.bottom},
        "depth": rec.depth,
        "yaw": rec.yaw,
        "dims": {"h": rec.dims.height, "w": rec.dims.width, "l": rec.dims.length},
        "center2d": {"u": rec.center2d[0], "v": rec.center2d[1]},
        "score": rec.score,
    }
    if rec.sigma is not None:
        obj["sigma"] = rec.sigma
    if rec.descriptor is not None:
        obj["descriptor"] = [float(v) for v in rec.descriptor]
    if rec.gt_id is not None:
        obj["gt_id"] = rec.gt_id
    return obj


def write_detections(records: Iterable[DetectionRecord]) -> str:
    return "".join(json.dumps(detection_to_json(r)) + "\n" for r in records)


def write_kitti_labels(annotation: FrameAnnotation) -> str:
    """Render a frame annotation as KITTI label text, ordered by landmark id.

    alpha follows the KITTI convention rotation_y - arctan(x / z); truncation
    is the off-image fraction of the projected box.
    """
    lines = []
    for entry in sorted(annotation.entries, key=lambda e: e.landmark_id):
        x, y, z = entry.local_pose.translation
        lab = KittiLabelLine(
            type=entry.category,
            truncated=1.0 - entry.visible_fraction,
            occluded=0,
            alpha=wrap_angle(entry.yaw_local - math.atan2(x, z)),
            bbox=entry.box2d,
            dims=entry.dims,
            location=(x, y, z),
            rotation_y=entry.yaw_local,
        )
        lines.append(format_label_line(lab))
    return "".join(line + "\n" for line in lines)

