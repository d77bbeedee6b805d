"""Readers and writers for the on-disk formats.

Formats:
  pose        12 reals, [R | t] row-major, written by pose_row: a trajectory
              line, or the "pose" of a map or dump line, which _pose reads
  trajectory  one camera-to-world pose per line; the frame id is the
              data-line index starting at 0
  calib       "KEY: v1 ... v12" per line, e.g. "P2: ..."
  detections  JSONL, one record per line: frame_id, category,
              box2d{l,t,r,b}, depth, yaw, dims{h,w,l}, center2d{u,v},
              score, sigma?, descriptor?, gt_id?
  labels      KITTI object labels, 15 whitespace-separated fields per
              line, floats rendered with 2 decimals; the numpy-free
              reader and writer live in seqlabel.labels

Blank lines and lines starting with '#' are skipped everywhere; reported
line numbers are 1-based positions in the raw file.  Each value is
checked once, where it is read: every field of a detection or map line
goes through _read and _entries, which apply seqlabel.labels' box and
dims rules; the records built from the values check nothing again.  A
number beyond the float range anywhere in a line is an error before any
field is read, although a detection line is decoded with no hook on its
numbers first (_detection_line).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    KINDS,
    _data_lines,
    _parse_floats,
    box_error,
    dims_error,
    is_number,
    parse_kitti_labels,  # re-exported: the acceptance suite reads labels through dataio
    wrap_angle,
    write_kitti_labels,  # re-exported: and writes them through dataio
)

# Rotation blocks may deviate this much from orthonormal before parsing fails;
# anything accepted is re-projected onto the closest proper rotation.
ROTATION_INPUT_TOL = 1e-3
# Map and dump rotations are used exactly as read, so they must be this close.
MAP_ROTATION_TOL = 1e-9


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
    line: int | None = field(default=None, compare=False)  # of the file read_detections read


_FIELDS = DetectionRecord.__dataclass_fields__.keys() - {"line"}  # the keys of a detection line


def _check_rotation(r: np.ndarray, lines: Sequence[int], tol: float) -> None:
    """OrthonormalityError at the first of the (n, 3, 3) blocks r, read from lines, unless
    each has max |R^T R - I| <= tol and det R > 0; NaN fails both."""
    with np.errstate(over="ignore", invalid="ignore"):  # entries near 1e308 give inf or NaN
        dev = np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max(axis=(1, 2))
        det = np.linalg.det(r)
    bad = np.flatnonzero(~((dev <= tol) & (det > 0)))
    if bad.size:
        k = bad[0]
        if not dev[k] <= tol:
            raise OrthonormalityError(lines[k],
                                      f"rotation deviates from orthonormal by {dev[k]:.3e}")
        raise OrthonormalityError(lines[k], "rotation block is a reflection (det < 0)")


def parse_trajectory(text: str) -> TrajectoryFile:
    """Parse camera poses; frame k is the k-th data line.  One _check_rotation call tests
    every block, and one that fails above a line that does not parse is the error."""
    rows, lines = [], []
    try:
        for lineno, line in _data_lines(text):
            fields = line.split()
            if len(fields) != 12:
                raise ParseError(lineno, f"expected 12 fields, got {len(fields)}")
            rows.append(np.array(_parse_floats(fields, lineno)))
            lines.append(lineno)
    finally:
        m = np.array(rows).reshape(-1, 3, 4)
        _check_rotation(m[..., :3], lines, ROTATION_INPUT_TOL)
    rotations, _ = nearest_rotation(m[..., :3])  # every block passed, so none collapses
    return TrajectoryFile([Pose(r, t) for r, t in zip(rotations, m[..., 3])])


def pose_row(pose: Pose) -> list[float]:
    """The 12 numbers of [R | t], row-major, as Python floats: the one stored form of a pose."""
    (r0, r1, r2), t = pose.rotation.tolist(), pose.translation.tolist()
    return [float(v) for v in (*r0, t[0], *r1, t[1], *r2, t[2])]


def serialize_trajectory(trajectory: TrajectoryFile) -> str:
    return "".join(" ".join(map(repr, pose_row(pose))) + "\n" for pose in trajectory.poses)


def parse_calib(text: str) -> CalibFile:
    """Parse "KEY: 12 reals" lines into named projection matrices; P[2][2] must not be 0."""
    matrices = {}
    for lineno, line in _data_lines(text):
        key, sep, rest = line.partition(":")
        if not sep or not key.strip():
            raise ParseError(lineno, "expected 'KEY: v1 ... v12'")
        fields = rest.split()
        if len(fields) != 12:
            raise ParseError(lineno, f"expected 12 matrix values, got {len(fields)}")
        values = _parse_floats(fields, lineno)
        if values[10] == 0.0:
            raise ParseError(lineno, "P[2][2] is zero; depth along the optical axis undefined")
        matrices[key.strip()] = ProjectionMatrix(np.array(values).reshape(3, 4))
    return CalibFile(matrices)


def serialize_calib(calib: CalibFile) -> str:
    lines = [
        f"{key}: " + " ".join(repr(float(v)) for v in calib.matrices[key].P.ravel())
        for key in calib.matrices
    ]
    return "".join(line + "\n" for line in lines)


def _json_number(text: str) -> int | float:
    """json.loads' hook for every number and constant: each must pass labels.is_number."""
    v = float(text)  # an integer beyond the float range is not finite either
    if not is_number(v):
        raise ValueError(f"non-finite number {text}")
    return int(text) if v.is_integer() and text.lstrip("-").isdigit() else v


_PLAIN = json.JSONDecoder(parse_constant=_json_number)  # no hook on numbers; NaN, Infinity fail


def _json_record(line: str, lineno: int) -> dict:
    """Decode one JSONL record; NaN, Infinity and out-of-range numbers are errors.

    The same finite-number rule _parse_floats applies to text inputs.
    """
    try:
        obj = json.loads(line, parse_float=_json_number, parse_int=_json_number,
                         parse_constant=_json_number)
    except json.JSONDecodeError as e:
        raise SchemaError(lineno, f"invalid JSON: {e.msg}") from None
    except ValueError as e:
        raise SchemaError(lineno, str(e)) from None
    except RecursionError:
        raise SchemaError(lineno, "invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise SchemaError(lineno, "record must be a JSON object")
    return obj


def _field(obj, key, lineno: int):
    """obj[key]; a record without the field is a SchemaError."""
    try:
        return obj[key]
    except KeyError:
        raise SchemaError(lineno, f"missing field {key!r}") from None


def _read(obj, key, lineno: int, kind: type = float, parent: str | None = None):
    """obj[key] as kind, named key, or parent.key in an object and parent[key] in an array."""
    v = _field(obj, key, lineno)
    must_be, of_kind = KINDS[kind]
    if not of_kind(v):
        if parent is not None:
            key = f"{parent}.{key}" if isinstance(key, str) else f"{parent}[{key}]"
        raise SchemaError(lineno, f"field {key!r} must be {must_be}, got {type(v).__name__}")
    return kind(v)


def _entries(obj: dict, key: str, lineno: int, shape: str | int | None, kind=float,
             rule=None) -> list:
    """Field key as the list of its entries, each read as kind, checked by rule if given.

    shape is an object's keys in order, such as "hwl" (entries named dims.h),
    or an array's length (entries named pose[3]), None for any length.
    """
    v = _field(obj, key, lineno)
    if isinstance(shape, str):
        if not isinstance(v, dict) or v.keys() != set(shape):
            raise SchemaError(lineno, f"field {key!r} must be an object with keys {list(shape)}")
    elif not isinstance(v, list) or shape not in (None, len(v)):
        count = "" if shape is None else f"{shape} "
        plural = "numbers" if kind is float else "integers"
        raise SchemaError(lineno, f"field {key!r} must be an array of {count}{plural}")
    keys = shape if isinstance(shape, str) else range(len(v))
    values = [_read(v, k, lineno, kind, key) for k in keys]
    error = rule and rule(*values)
    if error:
        raise SchemaError(lineno, error)
    return values


def _pose(obj: dict, key: str, lineno: int) -> Pose:
    """Field key, a pose_row of 12 numbers, as a Pose; its rotation must pass MAP_ROTATION_TOL."""
    m = np.array(_entries(obj, key, lineno, 12)).reshape(3, 4)
    _check_rotation(m[None, :, :3], [lineno], MAP_ROTATION_TOL)
    return Pose(m[:, :3], m[:, 3])


def _detection(obj: dict, lineno: int, descriptor_len: int | None) -> DetectionRecord:
    """The record of one decoded line, each field read by _read or _entries in the
    format's order; the first that breaks a rule is a SchemaError that names it."""
    frame_id, category = _read(obj, "frame_id", lineno, int), _read(obj, "category", lineno, str)
    box = _entries(obj, "box2d", lineno, "ltrb", rule=box_error)
    dims = _entries(obj, "dims", lineno, "hwl", rule=dims_error)
    center = _entries(obj, "center2d", lineno, "uv")
    depth = _read(obj, "depth", lineno)
    if not depth > 0:
        raise SchemaError(lineno, f"field 'depth' must be positive, got {depth}")
    score = _read(obj, "score", lineno)
    if not 0.0 <= score <= 1.0:
        raise SchemaError(lineno, f"field 'score' must be in [0, 1], got {score}")
    sigma = _read(obj, "sigma", lineno) if obj.get("sigma") is not None else None
    if sigma is not None and not sigma > 0:
        raise SchemaError(lineno, f"field 'sigma' must be positive, got {sigma}")
    descriptor = None
    if obj.get("descriptor") is not None:
        descriptor = _entries(obj, "descriptor", lineno, descriptor_len)
        if not descriptor:
            raise SchemaError(lineno, "field 'descriptor' must be a non-empty array of numbers")
    return DetectionRecord(
        frame_id, category, Box2D(*box), depth, wrap_angle(_read(obj, "yaw", lineno)),
        Dimensions3D(*dims), tuple(center), score, sigma,
        None if descriptor is None else np.array(descriptor),
        _read(obj, "gt_id", lineno, int) if obj.get("gt_id") is not None else None, line=lineno)


def _detection_line(line: str, lineno: int, descriptor_len: int | None) -> DetectionRecord:
    """The record of one data line, decoded first with no hook on its numbers.

    A record of the format's keys, each once (one ':' per key, its nine
    nested ones included), whose integers fit a float, has had every number
    of the line through _read, so none lies beyond the float range and
    _json_record would decode the same values.  Any other line is read from
    _json_record, whose error about a number comes before any field's.
    """
    try:
        obj = _PLAIN.decode(line)
        if isinstance(obj, dict) and obj.keys() <= _FIELDS and line.count(":") == len(obj) + 9:
            record = _detection(obj, lineno, descriptor_len)
            if is_number(record.frame_id) and is_number(record.gt_id or 0):
                return record
    except (ValueError, RecursionError, SchemaError):
        pass  # _json_record's hook, then the field reader, names the error
    return _detection(_json_record(line, lineno), lineno, descriptor_len)


def read_detections(text: str) -> dict[int, list[DetectionRecord]]:
    """Read detection JSONL grouped by frame id.

    Returns a dict whose keys are ascending frame ids; within each frame
    the input order is preserved.  Each record keeps its line number.
    """
    groups: dict[int, list[DetectionRecord]] = {}
    descriptor_len = None  # one length per file, set by the first descriptor
    for lineno, line in _data_lines(text):
        record = _detection_line(line, lineno, descriptor_len)
        if record.descriptor is not None:
            descriptor_len = len(record.descriptor)
        groups.setdefault(record.frame_id, []).append(record)
    return {k: groups[k] for k in sorted(groups)}


def detection_to_json(rec: DetectionRecord) -> dict:
    obj = {
        "frame_id": rec.frame_id,
        "category": rec.category,
        "box2d": dict(zip("ltrb", rec.box2d)),
        "depth": rec.depth,
        "yaw": rec.yaw,
        "dims": dict(zip("hwl", rec.dims)),
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
