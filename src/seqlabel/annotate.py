"""Project the landmark map back into frames and emit per-frame annotations.

A landmark appears in a frame only when (a) its camera-local depth is
positive, (b) the frame lies within the landmark's observed span padded
by the frame window, and (c) enough of its projected box survives
clipping to the image.  Exclusions are recorded with their cause so the
pipeline can explain every missing entry.

One batched pass serves a single frame (annotate_frame) and a sequence
(annotate_sequence).  Each call sorts and stacks the landmarks once.
Per block of BLOCK_FRAMES frames, stacked matmuls give the camera-local
pose of every (frame, landmark) pair inside the frame window, one
geometry.project_box call projects them all, and the visibility rules
are masks over the hulls.  The blocks bound the memory of a long
sequence.  simulate writes its ground-truth labels with one
annotate_sequence call; the annotate command still calls annotate_frame
once per frame, because the benchmark tracer counts its annotate.*
metrics per call of that name.
"""

from __future__ import annotations

import json
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import VisibilityConfig
from .dataio import (DetectionRecord, TrajectoryFile, _check_rotation, _entries, _field,
                     _json_record, _read)
from .errors import SchemaError
from .geometry import (
    Pose,
    ProjectionMatrix,
    back_project,
    half_extents,
    project_box,
    yaw_from_rotations,
    yaw_to_rotations,
)
from .labels import Box2D, Dimensions3D, FrameAnnotation, _data_lines, box_error, dims_error
from .landmark import MAP_ROTATION_TOL, Landmark

PROVENANCE_OBSERVED = "observed_in_frame"
PROVENANCE_PROJECTED = "map_projected"

CAUSE_BEHIND = "behind_camera"
CAUSE_WINDOW = "out_of_window"
CAUSE_OFF_IMAGE = "off_image"

# Frames per batched projection: bounds the per-pair arrays of a long sequence.
BLOCK_FRAMES = 64


class AnnotationEntry(NamedTuple):
    landmark_id: int
    category: str
    local_pose: Pose
    box2d: Box2D          # clipped to the image
    box2d_raw: Box2D      # projected hull before clipping
    depth: float
    yaw_local: float
    dims: Dimensions3D
    provenance: str
    score: float
    visible_fraction: float


class _Objects(NamedTuple):
    """Per object, in output order: what its entries carry, and the frames it was seen in."""

    ids: Sequence[int]
    categories: Sequence[str]
    dims: Sequence[Dimensions3D]
    half: np.ndarray  # geometry.half_extents of dims
    scores: Sequence[float]
    observed: Sequence  # supports `frame_id in observed[i]`


def _pair_annotations(frame_ids: Sequence[int], bounds: Sequence[int], objects: _Objects,
                      obj: np.ndarray, rotation: np.ndarray, translation: np.ndarray,
                      P: ProjectionMatrix, cfg: VisibilityConfig) -> list[FrameAnnotation]:
    """Entries and exclusions of (frame, object) pairs, one FrameAnnotation per frame.

    Pair p is object obj[p] with camera-local pose (rotation[p],
    translation[p]); frame f owns pairs bounds[f] to bounds[f + 1], and its
    entries and exclusions keep their pair order.
    """
    annotations = [FrameAnnotation(k, [], []) for k in frame_ids]
    if not len(obj):
        return annotations
    hull = project_box(rotation, translation, objects.half[obj], P)
    left, top, right, bottom = hull
    # No corner in front of the camera leaves the hull empty (left > right).
    behind = (translation[:, 2] <= 0.0) | (left > right)
    # Empty hulls give inf - inf, huge ones overflow and zero-area raw boxes x / 0.  The clipped
    # box lies inside the raw one, so area >= min_box_area > 0 implies a positive raw area.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        width = np.minimum(right, cfg.image_width) - np.maximum(left, 0.0)
        height = np.minimum(bottom, cfg.image_height) - np.maximum(top, 0.0)
        area = width * height
        fraction = area / ((right - left) * (bottom - top))
        visible = ((width >= 0.0) & (height >= 0.0) & (area >= cfg.min_box_area)
                   & (fraction >= cfg.min_visible_fraction))
    # Python floats and bools, read once per array instead of once per entry.
    behind, visible, fraction = behind.tolist(), visible.tolist(), fraction.tolist()
    hulls, depths, obj = hull.T.tolist(), translation[:, 2].tolist(), obj.tolist()
    yaws = yaw_from_rotations(rotation)
    for f, annotation in enumerate(annotations):
        for p in range(bounds[f], bounds[f + 1]):
            i = obj[p]
            if behind[p]:
                annotation.exclusions.append((objects.ids[i], CAUSE_BEHIND))
            elif not visible[p]:
                annotation.exclusions.append((objects.ids[i], CAUSE_OFF_IMAGE))
            else:
                raw = Box2D(*hulls[p])
                annotation.entries.append(AnnotationEntry(
                    landmark_id=objects.ids[i],
                    category=objects.categories[i],
                    local_pose=Pose(rotation[p], translation[p]),
                    box2d=raw.clip(cfg.image_width, cfg.image_height),
                    box2d_raw=raw,
                    depth=depths[p],
                    yaw_local=yaws[p],
                    dims=objects.dims[i],
                    provenance=(PROVENANCE_OBSERVED if annotation.frame_id in objects.observed[i]
                                else PROVENANCE_PROJECTED),
                    score=objects.scores[i],
                    visible_fraction=fraction[p],
                ))
    return annotations


def annotate_sequence(
    landmarks: Sequence[Landmark],
    trajectory: TrajectoryFile,
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
    frames: Iterable[int] | None = None,
) -> list[FrameAnnotation]:
    """One FrameAnnotation per listed frame (default: every trajectory frame), in order.

    Each lists the visible landmarks ordered by landmark id, and every
    other landmark as an exclusion with its cause.
    """
    frames = list(range(len(trajectory)) if frames is None else frames)
    return _annotate(landmarks, frames, [trajectory.pose(k) for k in frames], P, cfg)


def annotate_frame(
    landmarks: Sequence[Landmark],
    frame_id: int,
    cam: Pose,
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
) -> FrameAnnotation:
    """All landmarks visible in one frame, ordered by landmark id."""
    return _annotate(landmarks, [frame_id], [cam], P, cfg)[0]


def _annotate(landmarks: Sequence[Landmark], frames: list[int], cams: list[Pose],
              P: ProjectionMatrix, cfg: VisibilityConfig) -> list[FrameAnnotation]:
    """annotate_sequence over frames seen by cams, BLOCK_FRAMES frames at a time."""
    if not landmarks:
        return [FrameAnnotation(k, [], []) for k in frames]
    ordered = sorted(landmarks, key=lambda l: l.landmark_id)
    objects = _Objects(
        ids=[lm.landmark_id for lm in ordered],
        categories=[lm.category for lm in ordered],
        dims=[lm.dims for lm in ordered],
        half=half_extents([lm.dims for lm in ordered]),
        scores=[lm.mean_score for lm in ordered],
        # A set pays for itself only when it is looked up for several frames.
        observed=[lm.observed_frames if len(frames) == 1 else frozenset(lm.observed_frames)
                  for lm in ordered],
    )
    # The window bounds are summed as Python ints, so no map value can wrap around.
    first = np.array([lm.first_frame - cfg.frame_window for lm in ordered])
    last = np.array([lm.last_frame + cfg.frame_window for lm in ordered])
    rotation = np.array([lm.global_pose.rotation for lm in ordered])
    translation = np.array([lm.global_pose.translation for lm in ordered])
    out = []
    for start in range(0, len(frames), BLOCK_FRAMES):
        block = frames[start:start + BLOCK_FRAMES]
        column = np.array(block)[:, None]
        in_window = (first <= column) & (column <= last)  # (frames, landmarks)
        fi, li = np.nonzero(in_window)  # frame-major: each frame's pairs are contiguous
        # compose(inverse(cam), landmark pose), stacked: these matmuls give the
        # scalar path's bits, which np.einsum does not.
        block_cams = cams[start:start + BLOCK_FRAMES]
        inv_R = np.array([c.rotation for c in block_cams]).transpose(0, 2, 1)
        inv_t = -(inv_R @ np.array([c.translation for c in block_cams])[..., None])[..., 0]
        pair_inv_R = inv_R[fi]
        local_R = pair_inv_R @ rotation[li]
        local_t = (pair_inv_R @ translation[li][..., None])[..., 0] + inv_t[fi]
        rows = in_window.tolist()
        bounds = list(accumulate(map(sum, rows), initial=0))
        annotations = _pair_annotations(block, bounds, objects, li, local_R, local_t, P, cfg)
        for annotation, row in zip(annotations, rows):
            out_of_window = [(i, CAUSE_WINDOW) for i, inside in zip(objects.ids, row)
                             if not inside]
            if out_of_window:
                # Stable: among equal ids, the in-window exclusions stay first.
                annotation.exclusions.extend(out_of_window)
                annotation.exclusions.sort(key=itemgetter(0))
        out += annotations
    return out


def annotation_from_detections(
    frame_id: int,
    detections: Sequence[DetectionRecord],
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
) -> FrameAnnotation:
    """Render raw detections through the same geometry as map projections.

    Each detection is lifted to a camera-local pose and re-projected, so
    its entry is directly comparable (and byte-comparable once formatted)
    with a map-based annotation of the same object.
    """
    n = len(detections)
    objects = _Objects(
        ids=range(n),
        categories=[det.category for det in detections],
        dims=[det.dims for det in detections],
        half=half_extents([d.dims for d in detections]),
        scores=[det.score for det in detections],
        observed=[(frame_id,)] * n,  # each detection is observed in its own frame
    )
    rotation = yaw_to_rotations([det.yaw for det in detections])
    u, v = np.array([det.center2d for det in detections]).reshape(n, 2).T
    translation = back_project(u, v, np.array([det.depth for det in detections]), P)
    return _pair_annotations([frame_id], [0, n], objects, np.arange(n), rotation, translation,
                             P, cfg)[0]


def annotation_to_json(ann: FrameAnnotation) -> dict:
    return {
        "frame_id": ann.frame_id,
        "entries": [
            {
                "landmark_id": e.landmark_id,
                "category": e.category,
                "pose": [float(v) for v in e.local_pose.matrix().ravel()],
                "box2d": dict(zip("ltrb", e.box2d)),
                "box2d_raw": dict(zip("ltrb", e.box2d_raw)),
                "depth": e.depth,
                "yaw_local": e.yaw_local,
                "dims": dict(zip("hwl", e.dims)),
                "provenance": e.provenance,
                "score": e.score,
                "visible_fraction": e.visible_fraction,
            }
            for e in ann.entries
        ],
        "exclusions": [[lid, cause] for lid, cause in ann.exclusions],
    }


def write_annotation_dump(annotations: Iterable[FrameAnnotation]) -> str:
    return "".join(json.dumps(annotation_to_json(a)) + "\n" for a in annotations)


def read_annotation_dump(text: str) -> list[FrameAnnotation]:
    """Read write_annotation_dump's lines: fields as read_detections, poses as a map's."""
    out = []
    for lineno, line in _data_lines(text):
        obj = _json_record(line, lineno)
        frame_id = _read(obj, "frame_id", lineno, int)
        raw = _field(obj, "entries", lineno)
        if not isinstance(raw, list) or any(type(e) is not dict for e in raw):
            raise SchemaError(lineno, "field 'entries' must be an array of objects")
        entries = []
        for e in raw:
            m = np.array(_entries(e, "pose", lineno, 12)).reshape(3, 4)
            _check_rotation(m[None, :, :3], [lineno], MAP_ROTATION_TOL)
            entries.append(
                AnnotationEntry(
                    landmark_id=_read(e, "landmark_id", lineno, int),
                    category=_read(e, "category", lineno, str),
                    local_pose=Pose(m[:, :3], m[:, 3]),
                    box2d=Box2D(*_entries(e, "box2d", lineno, "ltrb", rule=box_error)),
                    box2d_raw=Box2D(*_entries(e, "box2d_raw", lineno, "ltrb", rule=box_error)),
                    depth=_read(e, "depth", lineno),
                    yaw_local=_read(e, "yaw_local", lineno),
                    dims=Dimensions3D(*_entries(e, "dims", lineno, "hwl", rule=dims_error)),
                    provenance=_read(e, "provenance", lineno, str),
                    score=_read(e, "score", lineno),
                    visible_fraction=_read(e, "visible_fraction", lineno),
                )
            )
        pairs = _field(obj, "exclusions", lineno)
        if not isinstance(pairs, list) or any(type(p) is not list or len(p) != 2 for p in pairs):
            raise SchemaError(lineno, "field 'exclusions' must be an array of [id, cause] pairs")
        exclusions = [(_read(p, 0, lineno, int, f"exclusions[{i}]"),
                       _read(p, 1, lineno, str, f"exclusions[{i}]"))
                      for i, p in enumerate(pairs)]
        out.append(FrameAnnotation(frame_id, entries, exclusions))
    return out
