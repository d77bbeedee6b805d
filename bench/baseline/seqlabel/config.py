"""Pipeline configuration: one YAML file with sections, flags win over it.

Angles are written in degrees in the file (yaw_tol_deg, sigma_yaw_deg,
outlier_dyaw_deg, object yaw) and converted to radians on load.  Unknown
keys are rejected so typos fail loudly instead of silently using a
default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .annotate import VisibilityConfig
from .association import AssociationConfig
from .errors import ConfigError
from .landmark import FusionConfig, WeightPolicy
from .simulator import SimConfig


@dataclass
class PipelineConfig:
    trajectory_path: str = ""
    calib_path: str = ""
    detections_path: str = ""
    output_dir: str = "out"
    camera: str = "P2"
    association: AssociationConfig = field(default_factory=AssociationConfig)
    weighting: WeightPolicy = field(default_factory=WeightPolicy)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    visibility: VisibilityConfig = field(default_factory=VisibilityConfig)
    metrics_iou_min: float = 0.5
    include: tuple = ()   # ((start, end), ...) inclusive frame ranges
    exclude: tuple = ()
    simulate: SimConfig | None = None

    def frame_allowed(self, frame_id: int) -> bool:
        if self.include and not any(a <= frame_id <= b for a, b in self.include):
            return False
        return not any(a <= frame_id <= b for a, b in self.exclude)


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _ranges(raw, where: str) -> tuple:
    out = []
    for item in raw or ():
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"{where} entries must be [start, end] pairs")
        out.append((int(item[0]), int(item[1])))
    return tuple(out)


def _build_simulate(section: dict) -> SimConfig:
    allowed = {
        "seed", "n_objects", "frames", "trajectory", "speed", "arc_radius",
        "waypoints", "sigma_z", "sigma_yaw_deg", "sigma_px", "dropout_prob",
        "outlier_prob", "outlier_dz", "outlier_dyaw_deg", "score_base",
        "score_decay", "sigma_model", "objects", "category", "image_width",
        "image_height", "focal", "ground_y", "depth_range", "lateral_range",
    }
    _check_keys(section, allowed, "simulate")
    kwargs = dict(section)
    if "sigma_yaw_deg" in kwargs:
        kwargs["sigma_yaw"] = math.radians(kwargs.pop("sigma_yaw_deg"))
    if "outlier_dyaw_deg" in kwargs:
        kwargs["outlier_dyaw"] = math.radians(kwargs.pop("outlier_dyaw_deg"))
    if kwargs.get("waypoints"):
        kwargs["waypoints"] = tuple(tuple(float(v) for v in p) for p in kwargs["waypoints"])
    if kwargs.get("sigma_model") is not None:
        sm = kwargs["sigma_model"]
        kwargs["sigma_model"] = (float(sm["offset"]), float(sm["slope"]))
    if kwargs.get("objects"):
        objs = []
        for spec in kwargs["objects"]:
            spec = [float(v) for v in spec]
            spec[3] = math.radians(spec[3])  # yaw written in degrees
            objs.append(tuple(spec))
        kwargs["objects"] = tuple(objs)
    if kwargs.get("depth_range"):
        kwargs["depth_range"] = tuple(float(v) for v in kwargs["depth_range"])
    if kwargs.get("lateral_range"):
        kwargs["lateral_range"] = tuple(float(v) for v in kwargs["lateral_range"])
    return SimConfig(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    """Read and validate the YAML pipeline config."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    _check_keys(raw, {"paths", "camera", "association", "weighting", "fusion",
                      "visibility", "metrics", "sequence", "simulate"}, str(path))
    try:
        cfg = PipelineConfig()
        paths = raw.get("paths", {})
        _check_keys(paths, {"trajectory", "calib", "detections", "output"}, "paths")
        cfg.trajectory_path = paths.get("trajectory", "")
        cfg.calib_path = paths.get("calib", "")
        cfg.detections_path = paths.get("detections", "")
        cfg.output_dir = paths.get("output", cfg.output_dir)
        cfg.camera = raw.get("camera", cfg.camera)

        assoc = raw.get("association", {})
        _check_keys(assoc, {"score_threshold", "iou_gate", "dist_gate", "descriptor_gate",
                            "max_frame_gap", "w_iou", "w_dist", "w_desc"}, "association")
        cfg.association = AssociationConfig(**assoc)

        weighting = raw.get("weighting", {})
        _check_keys(weighting, {"mode", "sigma_floor"}, "weighting")
        cfg.weighting = WeightPolicy(**weighting)

        fusion = dict(raw.get("fusion", {}))
        _check_keys(fusion, {"depth_tol", "yaw_tol_deg", "min_support", "var_gate"}, "fusion")
        if "yaw_tol_deg" in fusion:
            fusion["yaw_tol"] = math.radians(fusion.pop("yaw_tol_deg"))
        cfg.fusion = FusionConfig(**fusion)

        vis = raw.get("visibility", {})
        _check_keys(vis, {"image_width", "image_height", "min_box_area",
                          "frame_window", "min_visible_fraction"}, "visibility")
        cfg.visibility = VisibilityConfig(**vis)

        metrics = raw.get("metrics", {})
        _check_keys(metrics, {"iou_min"}, "metrics")
        cfg.metrics_iou_min = float(metrics.get("iou_min", cfg.metrics_iou_min))

        sequence = raw.get("sequence", {})
        _check_keys(sequence, {"include", "exclude"}, "sequence")
        cfg.include = _ranges(sequence.get("include"), "sequence.include")
        cfg.exclude = _ranges(sequence.get("exclude"), "sequence.exclude")

        if raw.get("simulate") is not None:
            cfg.simulate = _build_simulate(raw["simulate"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None
    return cfg


def config_fingerprint(cfg: PipelineConfig) -> str:
    """Short stable hash of the resolved semantic configuration.

    Paths are machine-specific and excluded; input content is covered by
    the per-file digests written next to this hash.
    """
    payload = {
        "camera": cfg.camera,
        "association": asdict(cfg.association),
        "weighting": asdict(cfg.weighting),
        "fusion": asdict(cfg.fusion),
        "visibility": asdict(cfg.visibility),
        "metrics_iou_min": cfg.metrics_iou_min,
        "include": cfg.include,
        "exclude": cfg.exclude,
        "simulate": asdict(cfg.simulate) if cfg.simulate else None,
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]
