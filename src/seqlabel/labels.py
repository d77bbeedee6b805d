"""Boxes and the KITTI label format, in pure Python.

This module holds what a label file carries and what evaluation reads:
the pixel box and cuboid extents, 2D IoU, angle wrapping, the KITTI
label line with its parser and formatter, the per-frame annotation, and
the text-input helpers the other readers share.  It imports nothing but
the standard library and seqlabel.errors, so `seqlabel evaluate`, which
needs only this module and seqlabel.metrics, never loads numpy.  Box2D
and Dimensions3D check nothing: the readers that take them in (dataio's
detections and map readers, the label reader below and config's
simulate.objects) apply box_error and dims_error, each rule stated once.

Label format: KITTI object labels, 15 whitespace-separated fields per
line (a 16th score field is tolerated on input), floats rendered with 2
decimals.  Blank lines and lines starting with '#' are skipped; reported
line numbers are 1-based positions in the raw file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ParseError, ZeroArea


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned pixel box; left <= right, top <= bottom."""

    left: float
    top: float
    right: float
    bottom: float

    def area(self) -> float:
        return (self.right - self.left) * (self.bottom - self.top)

    def clip(self, width: float, height: float) -> "Box2D | None":
        """Intersect with the image rectangle [0, width] x [0, height], as float edges.

        Returns None when the box lies entirely outside the image.
        """
        l = max(self.left, 0.0)
        t = max(self.top, 0.0)
        r = min(self.right, width)
        b = min(self.bottom, height)
        if l > r or t > b:
            return None
        return Box2D(float(l), float(t), float(r), float(b))


@dataclass(frozen=True)
class Dimensions3D:
    """Cuboid extents in meters: height (y), width (z), length (x)."""

    height: float
    width: float
    length: float


def box_error(left: float, top: float, right: float, bottom: float) -> str | None:
    """Why the edges make no box (left <= right and top <= bottom), or None."""
    if left > right or top > bottom:
        return f"invalid box: ({left}, {top}, {right}, {bottom})"
    return None


def dims_error(height: float, width: float, length: float) -> str | None:
    """Why the extents make no cuboid (each strictly positive; NaN is not), or None."""
    if not (height > 0 and width > 0 and length > 0):
        return f"dimensions must be strictly positive, got ({height}, {width}, {length})"
    return None


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

    # The fields metrics.match_annotations reads, under their annotate.AnnotationEntry
    # names, so that evaluation matches parsed label lines directly.
    @property
    def category(self) -> str:
        return self.type

    @property
    def box2d(self) -> Box2D:
        return self.bbox

    @property
    def depth(self) -> float:
        return self.location[2]

    @property
    def yaw_local(self) -> float:
        return self.rotation_y


@dataclass
class FrameAnnotation:
    """The entries of one frame: annotate.AnnotationEntry rows, or KittiLabelLine
    rows when evaluation reads a label file; exclusions are (landmark id, cause)."""

    frame_id: int
    entries: list = field(default_factory=list)
    exclusions: list[tuple[int, str]] = field(default_factory=list)


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
    """Parse KITTI labels: a 16th score field is tolerated, box order checked, dims kept."""
    out = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) not in (15, 16):
            raise ParseError(lineno, f"expected 15 label fields, got {len(fields)}")
        vals = _parse_floats(fields[1:15], lineno)
        error = box_error(*vals[3:7])
        if error:
            raise ParseError(lineno, error)
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
    return out


def frame_file_name(frame_id: int) -> str:
    return "%06d.txt" % frame_id
