"""Project the landmark map back into frames and emit per-frame annotations.

A landmark appears in a frame only when (a) its camera-local depth is
positive, (b) the frame lies within the landmark's observed span padded
by the frame window, and (c) enough of its projected box survives
clipping to the image.  Exclusions are recorded with their cause so the
pipeline can explain every missing entry.

Per frame, one geometry.project_box call (as in association) projects
every landmark in its window, and the rules are masks over the hulls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataio import DetectionRecord, KittiLabelLine, TrajectoryFile
from .geometry import (
    Box2D,
    Dimensions3D,
    Pose,
    ProjectionMatrix,
    back_project,
    compose,
    half_extents,
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


def _visible_entries(frame_id: int, candidates: Sequence[tuple], P: ProjectionMatrix,
                     cfg: VisibilityConfig) -> FrameAnnotation:
    """Entries and exclusions, in candidate order, of (id, category, camera-local
    pose, dims, score, provenance) candidates."""
    annotation = FrameAnnotation(frame_id=frame_id)
    if not candidates:
        return annotation
    ids, categories, poses, dims, scores, provenances = zip(*candidates)
    translation = np.stack([p.translation for p in poses])
    hull = project_box(np.stack([p.rotation for p in poses]), translation, half_extents(dims), P)
    left, top, right, bottom = hull
    # No corner in front of the camera leaves the hull empty (left > right).
    behind = (translation[:, 2] <= 0.0) | (left > right)
    # Empty hulls give inf - inf and zero-area raw boxes x / 0 here.  The clipped box
    # lies inside the raw one, so area >= min_box_area > 0 implies a positive raw area.
    with np.errstate(invalid="ignore", divide="ignore"):
        width = np.minimum(right, cfg.image_width) - np.maximum(left, 0.0)
        height = np.minimum(bottom, cfg.image_height) - np.maximum(top, 0.0)
        area = width * height
        fraction = area / ((right - left) * (bottom - top))
        visible = ((width >= 0.0) & (height >= 0.0) & (area >= cfg.min_box_area)
                   & (fraction >= cfg.min_visible_fraction))
    for i, landmark_id in enumerate(ids):
        if behind[i]:
            annotation.exclusions.append((landmark_id, CAUSE_BEHIND))
        elif not visible[i]:
            annotation.exclusions.append((landmark_id, CAUSE_OFF_IMAGE))
        else:
            # Box2D.clip keeps an int image size as given, so the written bytes do too.
            raw = Box2D(*(float(x) for x in hull[:, i]))
            annotation.entries.append(AnnotationEntry(
                landmark_id=landmark_id,
                category=categories[i],
                local_pose=poses[i],
                box2d=raw.clip(cfg.image_width, cfg.image_height),
                box2d_raw=raw,
                depth=float(translation[i, 2]),
                yaw_local=yaw_from_rotation(poses[i].rotation),
                dims=dims[i],
                provenance=provenances[i],
                score=scores[i],
                visible_fraction=float(fraction[i]),
            ))
    return annotation


def annotate_frame(
    landmarks: Sequence[Landmark],
    frame_id: int,
    cam: Pose,
    P: ProjectionMatrix,
    cfg: VisibilityConfig,
) -> FrameAnnotation:
    """All landmarks visible in one frame, ordered by landmark id."""
    candidates, out_of_window = [], []
    for lm in sorted(landmarks, key=lambda l: l.landmark_id):
        if not lm.first_frame - cfg.frame_window <= frame_id <= lm.last_frame + cfg.frame_window:
            out_of_window.append((lm.landmark_id, CAUSE_WINDOW))
            continue
        provenance = (
            PROVENANCE_OBSERVED if frame_id in lm.observed_frames else PROVENANCE_PROJECTED
        )
        candidates.append((lm.landmark_id, lm.category, landmark_to_local(lm, cam), lm.dims,
                           lm.mean_score, provenance))
    annotation = _visible_entries(frame_id, candidates, P, cfg)
    annotation.exclusions = sorted(annotation.exclusions + out_of_window, key=lambda e: e[0])
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
    candidates = [
        (start_id + i, det.category,
         Pose(yaw_to_rotation(det.yaw),
              back_project(det.center2d[0], det.center2d[1], det.depth, P)),
         det.dims, det.score, PROVENANCE_OBSERVED)
        for i, det in enumerate(detections)
    ]
    return _visible_entries(frame_id, candidates, P, cfg)


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
