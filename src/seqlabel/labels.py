"""Boxes and the KITTI label format, in pure Python.

This module holds what a label file carries and what evaluation reads:
the pixel box and cuboid extents, 2D IoU, angle wrapping, the KITTI
label line with its parser and formatter, the per-frame annotation, and
the input rules the other readers share: is_number, is_int and KINDS say
what a number, an integer and a string are in a YAML, JSON or text
input.  It imports nothing but the standard library and seqlabel.errors,
so `seqlabel evaluate`, which needs only this module and
seqlabel.metrics, never loads numpy.  Box2D and Dimensions3D are tuples
in file order, (left, top, right, bottom) and (height, width, length): the
order of the JSON keys, the KITTI columns and the stacked rows numpy makes
of them.  Being tuples, each equals a plain tuple of the same numbers.
They check nothing: the readers that take them in (dataio's detections and
map readers, the label reader below and config's simulate.objects) apply
box_error and dims_error, each rule stated once.

It states the label-file contract between annotate and evaluate once: a
label line has AnnotationEntry's field names, iou_2d is the overlap rule
and frame_id_of, frame_file_name's inverse, is the frame-file rule.

Label format: KITTI object labels, 15 whitespace-separated fields per
line (a 16th score field is tolerated on input), floats rendered with 2
decimals.  Blank lines and lines starting with '#' are skipped; reported
line numbers are 1-based positions in the raw file.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError

_FLOAT_MAX = sys.float_info.max


def is_number(value) -> bool:
    """An int or float that fits a finite float; a boolean is not a number here.

    The one finite-number rule of every input.  The range rules compare with
    < and <=, which a NaN passes, and an int beyond the float range
    overflows where a stage converts it.
    """
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def is_int(value) -> bool:
    """An int; a boolean is not an int here."""
    return type(value) is int


# The kind of an input value -> (what a value of the kind is called, the test it must pass).
KINDS = {float: ("a number", is_number), int: ("an integer", is_int),
         str: ("a string", lambda value: isinstance(value, str))}


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


class Box2D(NamedTuple):
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


class Dimensions3D(NamedTuple):
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
    """Intersection over union of two boxes, in [0, 1]; 0 without positive overlap.

    Each box is unpacked once, as a tuple; its area is Box2D.area's arithmetic.  An
    overlap whose area underflows to 0 counts as none, so 0 / 0 cannot occur."""
    al, at, ar, ab = a
    bl, bt, br, bb = b
    iw = min(ar, br) - max(al, bl)
    ih = min(ab, bb) - max(at, bt)
    inter = iw * ih
    if iw <= 0.0 or ih <= 0.0 or inter == 0.0:
        return 0.0
    return inter / ((ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter)


class KittiLabelLine(NamedTuple):
    """One KITTI object label: 15 fields in column order, those evaluation reads named as in
    AnnotationEntry.

    KITTI's columns type, bbox and rotation_y are category, box2d and yaw_local here;
    depth is location z.
    """

    category: str
    truncated: float
    occluded: int
    alpha: float
    box2d: Box2D
    dims: Dimensions3D
    location: tuple[float, float, float]
    yaw_local: float

    @property
    def depth(self) -> float:
        return self.location[2]


class FrameAnnotation(NamedTuple):
    """The entries of one frame: annotate.AnnotationEntry rows, or KittiLabelLine
    rows when evaluation reads a label file; exclusions are (landmark id, cause).
    Code that appends to them passes fresh lists; the empty defaults are tuples."""

    frame_id: int
    entries: Sequence = ()
    exclusions: Sequence[tuple[int, str]] = ()


def _data_lines(text: str) -> Iterable[tuple[int, str]]:
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def _parse_floats(fields: list[str], lineno: int) -> list[float]:
    try:
        values = list(map(float, fields))
    except ValueError:
        raise ParseError(lineno, f"non-numeric field in {fields!r}") from None
    if not all(map(math.isfinite, values)):  # is_number's rule, for floats
        raise ParseError(lineno, "non-finite value")
    return values


# The 14 fields after the category: floats with 2 decimals, occluded as an integer.
_LABEL_NUMBERS = " %.2f %d" + " %.2f" * 12


def format_label_line(lab: KittiLabelLine) -> str:
    """The label as one line; a value that rounds to zero from below prints as 0.00.

    Every float has two decimals, so " -0.00" is always a whole field."""
    numbers = _LABEL_NUMBERS % (lab.truncated, lab.occluded, lab.alpha, *lab.box2d, *lab.dims,
                                *lab.location, lab.yaw_local)
    return lab.category + numbers.replace(" -0.00", " 0.00")


def parse_kitti_labels(text: str) -> list[KittiLabelLine]:
    """Parse KITTI labels: a 16th score field is tolerated, box order checked, dims kept.

    Each line is split once; its tokens tell a blank or comment line (_data_lines' rule)."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) not in (15, 16):
            raise ParseError(lineno, f"expected 15 label fields, got {len(fields)}")
        (truncated, occluded, alpha, left, top, right, bottom, height, width, length,
         x, y, z, yaw) = _parse_floats(fields[1:15], lineno)
        error = box_error(left, top, right, bottom)
        if error:
            raise ParseError(lineno, error)
        out.append(KittiLabelLine(fields[0], truncated, int(occluded), alpha,
                                  Box2D(left, top, right, bottom),
                                  Dimensions3D(height, width, length), (x, y, z), yaw))
    return out


def frame_file_name(frame_id: int) -> str:
    return "%06d.txt" % frame_id


def frame_id_of(name: str) -> int | None:
    """The frame id of a file name of ASCII digits and ".txt"; None for any other name."""
    stem = name.removesuffix(".txt")
    return int(stem) if stem != name and stem.isascii() and stem.isdigit() else None
