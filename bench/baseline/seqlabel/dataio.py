"""Readers and writers for the on-disk formats.

Formats:
  trajectory  one camera-to-world pose per line, 12 reals (row-major 3x4);
              the frame id is the data-line index starting at 0
  calib       "KEY: v1 ... v12" per line, e.g. "P2: ..."
  detections  JSONL, one record per line: frame_id, category,
              box2d{l,t,r,b}, depth, yaw, dims{h,w,l}, center2d{u,v},
              score, sigma?, descriptor?, gt_id?
  labels      KITTI object labels, 15 whitespace-separated fields per
              line, floats rendered with 2 decimals

Blank lines and lines starting with '#' are skipped everywhere; reported
line numbers are 1-based positions in the raw file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    MissingCamera,
    MissingCameraPose,
    OrthonormalityError,
    ParseError,
    SchemaError,
)
from .geometry import (
    Box2D,
    Dimensions3D,
    Pose,
    ProjectionMatrix,
    nearest_rotation,
    wrap_angle,
)

if TYPE_CHECKING:
    from .annotate import FrameAnnotation

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


@dataclass
class KittiLabelLine:
    """One KITTI object label: exactly 15 whitespace-separated fields."""

    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: Box2D
    dims: Dimensions3D
    location: tuple[float, float, float]
    rotation_y: float


def _data_lines(text: str) -> Iterable[tuple[int, str]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _parse_floats(fields: list[str], lineno: int) -> list[float]:
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ParseError(lineno, f"non-numeric field in {fields!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ParseError(lineno, "non-finite value")
    return values


def _pose_from_values(values: list[float], lineno: int) -> Pose:
    m = np.array(values, dtype=float).reshape(3, 4)
    r = m[:, :3]
    dev = np.abs(r.T @ r - np.eye(3)).max()
    if dev > ROTATION_INPUT_TOL:
        raise OrthonormalityError(lineno, f"rotation deviates from orthonormal by {dev:.3e}")
    if np.linalg.det(r) < 0:
        raise OrthonormalityError(lineno, "rotation block is a reflection (det < 0)")
    return Pose(nearest_rotation(r), m[:, 3])


def parse_trajectory(text: str) -> TrajectoryFile:
    """Parse camera poses; frame k is the k-th data line."""
    poses = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) != 12:
            raise ParseError(lineno, f"expected 12 fields, got {len(fields)}")
        poses.append(_pose_from_values(_parse_floats(fields, lineno), lineno))
    return TrajectoryFile(poses)


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


def _require(obj: dict, name: str, lineno: int):
    if name not in obj:
        raise SchemaError(lineno, f"missing field {name!r}")
    return obj[name]


def _number(obj: dict, name: str, lineno: int) -> float:
    v = _require(obj, name, lineno)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(lineno, f"field {name!r} must be a number, got {type(v).__name__}")
    return float(v)


def _detection_from_json(obj: dict, lineno: int, descriptor_len: list) -> DetectionRecord:
    frame_id = _require(obj, "frame_id", lineno)
    if isinstance(frame_id, bool) or not isinstance(frame_id, int):
        raise SchemaError(lineno, "field 'frame_id' must be an integer")
    category = _require(obj, "category", lineno)
    if not isinstance(category, str):
        raise SchemaError(lineno, "field 'category' must be a string")

    box = _require(obj, "box2d", lineno)
    dims = _require(obj, "dims", lineno)
    center = _require(obj, "center2d", lineno)
    for name, d, keys in (("box2d", box, "ltrb"), ("dims", dims, "hwl"), ("center2d", center, "uv")):
        if not isinstance(d, dict) or set(d) != set(keys):
            raise SchemaError(lineno, f"field {name!r} must be an object with keys {list(keys)}")

    depth = _number(obj, "depth", lineno)
    if not math.isfinite(depth):
        raise SchemaError(lineno, "field 'depth' must be finite")
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
        if not isinstance(raw, list) or not raw:
            raise SchemaError(lineno, "field 'descriptor' must be a non-empty array")
        if descriptor_len[0] is None:
            descriptor_len[0] = len(raw)
        elif len(raw) != descriptor_len[0]:
            raise SchemaError(
                lineno,
                f"field 'descriptor' length {len(raw)} != {descriptor_len[0]} seen earlier",
            )
        descriptor = np.asarray(raw, dtype=float)

    gt_id = obj.get("gt_id")
    if gt_id is not None and (isinstance(gt_id, bool) or not isinstance(gt_id, int)):
        raise SchemaError(lineno, "field 'gt_id' must be an integer")

    try:
        return DetectionRecord(
            frame_id=frame_id,
            category=category,
            box2d=Box2D(float(box["l"]), float(box["t"]), float(box["r"]), float(box["b"])),
            depth=depth,
            yaw=wrap_angle(_number(obj, "yaw", lineno)),
            dims=Dimensions3D(float(dims["h"]), float(dims["w"]), float(dims["l"])),
            center2d=(float(center["u"]), float(center["v"])),
            score=score,
            sigma=sigma,
            descriptor=descriptor,
            gt_id=gt_id,
        )
    except (TypeError, ValueError) as e:
        raise SchemaError(lineno, str(e)) from None


def read_detections(stream) -> dict[int, list[DetectionRecord]]:
    """Read detection JSONL grouped by frame id.

    Returns a dict whose keys are ascending frame ids; within each frame
    the input order is preserved.  stream may be a file object or a str.
    """
    text = stream if isinstance(stream, str) else stream.read()
    groups: dict[int, list[DetectionRecord]] = {}
    descriptor_len = [None]
    for lineno, line in _data_lines(text):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError(lineno, f"invalid JSON: {e.msg}") from None
        if not isinstance(obj, dict):
            raise SchemaError(lineno, "record must be a JSON object")
        rec = _detection_from_json(obj, lineno, descriptor_len)
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


def _fmt2(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def format_label_line(lab: KittiLabelLine) -> str:
    fields = [
        lab.type,
        _fmt2(lab.truncated),
        str(int(lab.occluded)),
        _fmt2(lab.alpha),
        _fmt2(lab.bbox.left),
        _fmt2(lab.bbox.top),
        _fmt2(lab.bbox.right),
        _fmt2(lab.bbox.bottom),
        _fmt2(lab.dims.height),
        _fmt2(lab.dims.width),
        _fmt2(lab.dims.length),
        _fmt2(lab.location[0]),
        _fmt2(lab.location[1]),
        _fmt2(lab.location[2]),
        _fmt2(lab.rotation_y),
    ]
    return " ".join(fields)


def parse_kitti_labels(text: str) -> list[KittiLabelLine]:
    """Parse KITTI object labels (a trailing 16th score field is tolerated)."""
    out = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) not in (15, 16):
            raise ParseError(lineno, f"expected 15 label fields, got {len(fields)}")
        vals = _parse_floats(fields[1:15], lineno)
        try:
            out.append(
                KittiLabelLine(
                    type=fields[0],
                    truncated=vals[0],
                    occluded=int(vals[1]),
                    alpha=vals[2],
                    bbox=Box2D(vals[3], vals[4], vals[5], vals[6]),
                    dims=Dimensions3D(vals[7], vals[8], vals[9]),
                    location=(vals[10], vals[11], vals[12]),
                    rotation_y=vals[13],
                )
            )
        except ValueError as e:
            raise ParseError(lineno, str(e)) from None
    return out


def write_kitti_labels(annotation: "FrameAnnotation") -> str:
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


def frame_file_name(frame_id: int) -> str:
    return "%06d.txt" % frame_id
