"""Pipeline configuration: one YAML file with sections, flags win over it.

This module owns the config dataclass of every stage (AssociationConfig,
WeightPolicy, FusionConfig, VisibilityConfig, SimConfig) and imports no
stage: the stages import their configs from here.  So loading a config
costs PyYAML and the standard library only, and a command that needs no
numpy stage, such as evaluate, never loads numpy.

Angles are written in degrees in the file (yaw_tol_deg, sigma_yaw_deg,
outlier_dyaw_deg, object yaw) and converted to radians on load.  Unknown
keys are rejected so typos fail loudly instead of silently using a
default.  Count fields (seed, frames, n_objects, frame_window,
max_frame_gap, min_support) must be YAML integers, not floats or
booleans, and the simulator's scalar fields (_SIM_NUMBERS) YAML numbers;
each is kept as given, so an int image size stays an int.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError

WEIGHT_MODES = ("score", "inverse_variance")
TRAJECTORY_KINDS = ("straight", "arc", "waypoints")
# Scalar keys of the simulate section that must be YAML numbers.
_SIM_NUMBERS = (
    "speed", "arc_radius", "sigma_z", "sigma_yaw_deg", "sigma_px", "dropout_prob",
    "outlier_prob", "outlier_dz", "outlier_dyaw_deg", "score_base", "score_decay",
    "image_width", "image_height", "focal", "ground_y",
)


def _is_number(value) -> bool:
    """A YAML int or float; a boolean is not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_count(value, name: str, low: int) -> None:
    """ValueError unless value is an int (a bool is not) and at least low."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class AssociationConfig:
    score_threshold: float = 0.7
    iou_gate: float = 0.3
    dist_gate: float = 3.0
    descriptor_gate: float = 0.5
    max_frame_gap: int = 20
    w_iou: float = 0.5
    w_dist: float = 0.4
    w_desc: float = 0.1

    def __post_init__(self):
        for name in ("score_threshold", "iou_gate", "descriptor_gate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.dist_gate <= 0:
            raise ValueError("dist_gate must be positive")
        _check_count(self.max_frame_gap, "max_frame_gap", 0)
        if min(self.w_iou, self.w_dist, self.w_desc) < 0:
            raise ValueError("cost weights must be non-negative")
        if abs(self.w_iou + self.w_dist + self.w_desc - 1.0) > 1e-12:
            raise ValueError("cost weights must sum to 1")
        if self.w_iou + self.w_dist == 0:
            raise ValueError("w_iou + w_dist must be positive (descriptors are optional)")


@dataclass(frozen=True)
class WeightPolicy:
    """How observation weights are derived: detection score or 1/sigma^2."""

    mode: str = "score"
    sigma_floor: float = 1e-3

    def __post_init__(self):
        if self.mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.mode!r}; expected one of {WEIGHT_MODES}")
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")


@dataclass(frozen=True)
class FusionConfig:
    depth_tol: float = 2.0            # meters around the weighted median global z
    yaw_tol: float = math.radians(30)  # radians around the weighted circular median
    min_support: int = 2
    var_gate: float = 1.0             # m^2 per axis; beyond this the track is dynamic

    def __post_init__(self):
        if self.depth_tol <= 0 or self.yaw_tol <= 0:
            raise ValueError("tolerances must be positive")
        _check_count(self.min_support, "min_support", 1)
        if self.var_gate <= 0:
            raise ValueError("var_gate must be positive")


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
        _check_count(self.frame_window, "frame_window", 0)
        if not 0.0 < self.min_visible_fraction <= 1.0:
            raise ValueError("min_visible_fraction must be in (0, 1]")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    n_objects: int = 3
    frames: int = 60
    trajectory: str = "straight"
    speed: float = 1.0                  # meters per frame
    arc_radius: float = 80.0
    waypoints: tuple = ()               # ((x, y, z), ...) when trajectory="waypoints"
    sigma_z: float = 0.0                # depth noise, meters
    sigma_yaw: float = 0.0              # yaw noise, radians
    sigma_px: float = 0.0               # box edge jitter, pixels
    dropout_prob: float = 0.0
    outlier_prob: float = 0.0
    outlier_dz: float = 20.0
    outlier_dyaw: float = math.radians(90.0)
    score_base: float = 0.9
    score_decay: float = 0.002          # per meter of depth
    sigma_model: tuple | None = None    # (offset, slope): sigma = offset + slope * depth
    objects: tuple = ()                 # optional explicit ((x, y, z, yaw[, h, w, l]), ...)
    category: str = "Car"
    image_width: float = 1242.0
    image_height: float = 375.0
    focal: float = 700.0
    ground_y: float = 1.65              # camera height above ground (y points down)
    depth_range: tuple = (12.0, 45.0)
    lateral_range: tuple = (-8.0, 8.0)

    def __post_init__(self):
        _check_count(self.seed, "seed", 0)
        _check_count(self.n_objects, "n_objects", 0)
        _check_count(self.frames, "frames", 1)
        if not isinstance(self.category, str):
            raise ValueError(f"category must be a string, got {self.category!r}")
        for name in ("dropout_prob", "outlier_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("sigma_z", "sigma_yaw", "sigma_px"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.trajectory not in TRAJECTORY_KINDS:
            raise ValueError(f"trajectory must be one of {TRAJECTORY_KINDS}")
        if self.trajectory == "waypoints" and len(self.waypoints) < 2:
            raise ValueError("waypoint trajectory needs at least 2 points")
        if self.trajectory == "arc" and self.arc_radius <= 0:
            raise ValueError("arc_radius must be positive")
        for name in ("depth_range", "lateral_range"):
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"{name} must be [low, high] with low <= high")


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


def _check_finite(node, path: Path, where: str = "") -> None:
    """Reject NaN and infinity anywhere in the raw config, naming the key path.

    The range checks of the config classes compare with < and <=, which a
    NaN passes; the input parsers apply the same rule to their numbers.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, path, f"{where}.{key}" if where else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, path, f"{where}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{path}: {where} must be a finite number, got {node}")


def _ranges(raw, where: str) -> tuple:
    out = []
    for item in raw or ():
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"{where} entries must be [start, end] pairs")
        out.append((int(item[0]), int(item[1])))
    return tuple(out)


def _string(section: dict, key: str, where: str, default: str) -> str:
    value = section.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


def _numbers(value, where: str, sizes: tuple[int, ...]) -> tuple[float, ...]:
    """A list of YAML numbers whose length is one of sizes, as floats."""
    if not isinstance(value, list) or len(value) not in sizes or not all(map(_is_number, value)):
        raise ValueError(f"{where} must be a list of {' or '.join(map(str, sizes))} numbers, "
                         f"got {value!r}")
    return tuple(float(v) for v in value)


def _build_simulate(section: dict) -> SimConfig:
    allowed = {
        "seed", "n_objects", "frames", "trajectory", "speed", "arc_radius",
        "waypoints", "sigma_z", "sigma_yaw_deg", "sigma_px", "dropout_prob",
        "outlier_prob", "outlier_dz", "outlier_dyaw_deg", "score_base",
        "score_decay", "sigma_model", "objects", "category", "image_width",
        "image_height", "focal", "ground_y", "depth_range", "lateral_range",
    }
    _check_keys(section, allowed, "simulate")
    for key in _SIM_NUMBERS:
        if key in section and not _is_number(section[key]):
            raise ValueError(f"simulate.{key} must be a number, got {section[key]!r}")
    kwargs = dict(section)
    if "sigma_yaw_deg" in kwargs:
        kwargs["sigma_yaw"] = math.radians(kwargs.pop("sigma_yaw_deg"))
    if "outlier_dyaw_deg" in kwargs:
        kwargs["outlier_dyaw"] = math.radians(kwargs.pop("outlier_dyaw_deg"))
    if kwargs.get("waypoints"):
        kwargs["waypoints"] = tuple(_numbers(p, f"simulate.waypoints[{i}]", (3,))
                                    for i, p in enumerate(kwargs["waypoints"]))
    if kwargs.get("sigma_model") is not None:
        sm = kwargs["sigma_model"]
        if not isinstance(sm, dict) or set(sm) != {"offset", "slope"}:
            raise ValueError(f"simulate.sigma_model must be a mapping of offset and slope, "
                             f"got {sm!r}")
        kwargs["sigma_model"] = (float(sm["offset"]), float(sm["slope"]))
    if kwargs.get("objects"):
        objs = []
        for i, spec in enumerate(kwargs["objects"]):
            x, y, z, yaw, *dims = _numbers(spec, f"simulate.objects[{i}]", (4, 7))
            objs.append((x, y, z, math.radians(yaw), *dims))  # yaw written in degrees
        kwargs["objects"] = tuple(objs)
    for key in ("depth_range", "lateral_range"):
        if key in kwargs:
            kwargs[key] = _numbers(kwargs[key], f"simulate.{key}", (2,))
    return SimConfig(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    """Read and validate the YAML pipeline config."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not valid UTF-8 ({e.reason})") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: invalid YAML: {e}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    _check_keys(raw, {"paths", "camera", "association", "weighting", "fusion",
                      "visibility", "metrics", "sequence", "simulate"}, str(path))
    _check_finite(raw, path)
    try:
        cfg = PipelineConfig()
        paths = raw.get("paths", {})
        _check_keys(paths, {"trajectory", "calib", "detections", "output"}, "paths")
        cfg.trajectory_path = _string(paths, "trajectory", "paths.trajectory", "")
        cfg.calib_path = _string(paths, "calib", "paths.calib", "")
        cfg.detections_path = _string(paths, "detections", "paths.detections", "")
        cfg.output_dir = _string(paths, "output", "paths.output", cfg.output_dir)
        cfg.camera = _string(raw, "camera", "camera", cfg.camera)

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
        iou_min = metrics.get("iou_min", cfg.metrics_iou_min)
        if not _is_number(iou_min) or not 0 < iou_min <= 1:
            raise ConfigError(f"{path}: metrics.iou_min must be a number in (0, 1], "
                              f"got {iou_min!r}")
        cfg.metrics_iou_min = float(iou_min)

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
