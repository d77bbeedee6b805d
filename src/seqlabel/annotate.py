"""Project the landmark map back into frames and emit per-frame annotations.

A landmark appears in a frame only when (a) its camera-local depth is
positive, (b) the frame lies within the landmark's observed span padded
by the frame window, and (c) enough of its projected box survives
clipping to the image.  Exclusions are recorded with their cause so the
pipeline can explain every missing entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataio import DetectionRecord, KittiLabelLine, TrajectoryFile
from .errors import BehindCamera
from .geometry import (
    Box2D,
    Dimensions3D,
    Pose,
    ProjectionMatrix,
    back_project,
    box3d_corners,
    compose,
    inverse,
    project_box,
    yaw_from_rotation,
    yaw_to_rotation,
)
from .landmark import Landmark

PROVENANCE_OBSERVED = "observed_in_frame"
PROVENANCE_PROJECTED = "map_projected"

CAUSE_BEHIND = "behind_camera"
CAUSE_WINDOW = "out_of_window"
CAUSE_OFF_IMAGE = "off_image"


@dataclass(frozen=True)
class VisibilityConfig:
    image_width: float = 1242.0
    image_height: float = 375.0
    min_box_area: float = 100.0        # px^2 after clipping
    frame_window: int = 10             # frames beyond the observed span
    min_visible_fraction: float = 0.25  # clipped / unclipped area

    def __post_init__(self):
        if self.image_width <= 0 or self.image_height <= 0 or self.min_box_area <= 0:
            raise ValueError("image size and min_box_area must be positive")
        if self.frame_window < 0:
            raise ValueError("frame_window must be >= 0")
        if not 0.0 < self.min_visible_fraction <= 1.0:
            raise ValueError("min_visible_fraction must be in (0, 1]")


@dataclass(frozen=True)
class AnnotationEntry:
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


@dataclass
class FrameAnnotation:
    frame_id: int
    entries: list[AnnotationEntry] = field(default_factory=list)
    exclusions: list[tuple[int, str]] = field(default_factory=list)


def landmark_to_local(lm: Landmark, cam: Pose) -> Pose:
    """The landmark pose seen from the camera: inverse(cam) composed with it."""
    return compose(inverse(cam), lm.global_pose)


def _visible_entry(
    landmark_id: int,
    category: str,
    local: Pose,
    dims: Dimensions3D,
    score: float,
    provenance: str,
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
) -> tuple[AnnotationEntry | None, str | None]:
    depth = float(local.translation[2])
    if depth <= 0.0:
        return None, CAUSE_BEHIND
    try:
        raw = project_box(box3d_corners(local, dims), P)
    except BehindCamera:
        return None, CAUSE_BEHIND
    clipped = raw.clip(cfg.image_width, cfg.image_height)
    raw_area = raw.area()
    if clipped is None or raw_area <= 0.0:
        return None, CAUSE_OFF_IMAGE
    if clipped.area() < cfg.min_box_area or clipped.area() / raw_area < cfg.min_visible_fraction:
        return None, CAUSE_OFF_IMAGE
    entry = AnnotationEntry(
        landmark_id=landmark_id,
        category=category,
        local_pose=local,
        box2d=clipped,
        box2d_raw=raw,
        depth=depth,
        yaw_local=yaw_from_rotation(local.rotation),
        dims=dims,
        provenance=provenance,
        score=score,
        visible_fraction=clipped.area() / raw_area,
    )
    return entry, None


def annotate_frame(
    landmarks: Sequence[Landmark],
    frame_id: int,
    cam: Pose,
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
) -> FrameAnnotation:
    """All landmarks visible in one frame, ordered by landmark id."""
    annotation = FrameAnnotation(frame_id=frame_id)
    for lm in sorted(landmarks, key=lambda l: l.landmark_id):
        if not lm.first_frame - cfg.frame_window <= frame_id <= lm.last_frame + cfg.frame_window:
            annotation.exclusions.append((lm.landmark_id, CAUSE_WINDOW))
            continue
        provenance = (
            PROVENANCE_OBSERVED if frame_id in lm.observed_frames else PROVENANCE_PROJECTED
        )
        entry, cause = _visible_entry(
            lm.landmark_id, lm.category, landmark_to_local(lm, cam), lm.dims,
            lm.mean_score, provenance, P, cfg,
        )
        if entry is None:
            annotation.exclusions.append((lm.landmark_id, cause))
        else:
            annotation.entries.append(entry)
    return annotation


def annotate_sequence(
    landmarks: Sequence[Landmark],
    trajectory: TrajectoryFile,
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
    frames: Iterable[int] | None = None,
) -> list[FrameAnnotation]:
    """One FrameAnnotation per trajectory frame, in frame order."""
    if frames is None:
        frames = range(len(trajectory))
    return [annotate_frame(landmarks, k, trajectory.pose(k), P, cfg) for k in frames]


def annotation_from_detections(
    frame_id: int,
    detections: Sequence[DetectionRecord],
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
    start_id: int = 0,
) -> FrameAnnotation:
    """Render raw detections through the same geometry as map projections.

    Each detection is lifted to a camera-local pose and re-projected, so
    its entry is directly comparable (and byte-comparable once formatted)
    with a map-based annotation of the same object.
    """
    annotation = FrameAnnotation(frame_id=frame_id)
    for i, det in enumerate(detections):
        local = Pose(
            yaw_to_rotation(det.yaw),
            back_project(det.center2d[0], det.center2d[1], det.depth, P),
        )
        entry, cause = _visible_entry(
            start_id + i, det.category, local, det.dims, det.score,
            PROVENANCE_OBSERVED, P, cfg,
        )
        if entry is None:
            annotation.exclusions.append((start_id + i, cause))
        else:
            annotation.entries.append(entry)
    return annotation


def annotation_from_labels(frame_id: int, labels: Sequence[KittiLabelLine]) -> FrameAnnotation:
    """Rebuild a frame annotation from parsed KITTI label lines (for evaluation)."""
    annotation = FrameAnnotation(frame_id=frame_id)
    for i, lab in enumerate(labels):
        pose = Pose(yaw_to_rotation(lab.rotation_y), np.array(lab.location))
        annotation.entries.append(
            AnnotationEntry(
                landmark_id=i,
                category=lab.type,
                local_pose=pose,
                box2d=lab.bbox,
                box2d_raw=lab.bbox,
                depth=lab.location[2],
                yaw_local=lab.rotation_y,
                dims=lab.dims,
                provenance=PROVENANCE_OBSERVED,
                score=1.0,
                visible_fraction=1.0 - lab.truncated,
            )
        )
    return annotation


def _box_json(b: Box2D) -> dict:
    return {"l": b.left, "t": b.top, "r": b.right, "b": b.bottom}


def _box_from_json(obj: dict) -> Box2D:
    return Box2D(obj["l"], obj["t"], obj["r"], obj["b"])


def annotation_to_json(ann: FrameAnnotation) -> dict:
    return {
        "frame_id": ann.frame_id,
        "entries": [
            {
                "landmark_id": e.landmark_id,
                "category": e.category,
                "pose": [float(v) for v in e.local_pose.matrix().ravel()],
                "box2d": _box_json(e.box2d),
                "box2d_raw": _box_json(e.box2d_raw),
                "depth": e.depth,
                "yaw_local": e.yaw_local,
                "dims": {"h": e.dims.height, "w": e.dims.width, "l": e.dims.length},
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
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        obj = json.loads(line)
        ann = FrameAnnotation(frame_id=int(obj["frame_id"]))
        for e in obj["entries"]:
            m = np.array(e["pose"], dtype=float).reshape(3, 4)
            ann.entries.append(
                AnnotationEntry(
                    landmark_id=int(e["landmark_id"]),
                    category=e["category"],
                    local_pose=Pose(m[:, :3], m[:, 3]),
                    box2d=_box_from_json(e["box2d"]),
                    box2d_raw=_box_from_json(e["box2d_raw"]),
                    depth=float(e["depth"]),
                    yaw_local=float(e["yaw_local"]),
                    dims=Dimensions3D(e["dims"]["h"], e["dims"]["w"], e["dims"]["l"]),
                    provenance=e["provenance"],
                    score=float(e["score"]),
                    visible_fraction=float(e["visible_fraction"]),
                )
            )
        ann.exclusions = [(int(lid), cause) for lid, cause in obj.get("exclusions", [])]
        out.append(ann)
    return out
