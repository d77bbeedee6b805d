"""Pipeline configuration: one YAML file with sections, flags win over it.

This module owns the config dataclass of every stage (AssociationConfig,
WeightPolicy, FusionConfig, VisibilityConfig, SimConfig) and imports no
stage: the stages import their configs from here.  So loading a config
costs PyYAML, the standard library and seqlabel.labels only, and a
command that needs no numpy stage, such as evaluate, never loads numpy.

Each dataclass is the schema of its section, read by _section: the keys
are its fields, and each value has the kind of the field's default.  An
angle field x is written x_deg, in degrees.  Anything else fails with one
line naming section.key.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigError
from .labels import dims_error

WEIGHT_MODES = ("score", "inverse_variance")
TRAJECTORY_KINDS = ("straight", "arc", "waypoints")


def _is_number(value) -> bool:
    """A YAML int or float that fits a finite float; a boolean is not a number here.

    The range checks of the config classes compare with < and <=, which a
    NaN passes, and an int beyond the float range overflows where a stage
    converts it; the input parsers apply the same finite-number rule.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    """A YAML int; a boolean is not an int here."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if self.max_frame_gap < 0:
            raise ValueError("max_frame_gap must be >= 0")
        if min(self.w_iou, self.w_dist, self.w_desc) < 0:
            raise ValueError("w_iou, w_dist and w_desc must be non-negative")
        if abs(self.w_iou + self.w_dist + self.w_desc - 1.0) > 1e-12:
            raise ValueError("w_iou + w_dist + w_desc must sum to 1")
        if self.w_iou + self.w_dist == 0:
            raise ValueError("w_iou + w_dist must be positive (descriptors are optional)")


@dataclass(frozen=True)
class WeightPolicy:
    """How observation weights are derived: detection score or 1/sigma^2."""

    mode: str = "score"
    sigma_floor: float = 1e-3

    def __post_init__(self):
        if self.mode not in WEIGHT_MODES:
            raise ValueError(f"mode must be one of {WEIGHT_MODES}, got {self.mode!r}")
        if not self.sigma_floor > 0:
            raise ValueError("sigma_floor must be positive")


@dataclass(frozen=True)
class FusionConfig:
    depth_tol: float = 2.0            # meters around the weighted median global z
    yaw_tol: float = math.radians(30)  # radians around the weighted circular median
    min_support: int = 2
    var_gate: float = 1.0             # m^2 per axis; beyond this the track is dynamic

    def __post_init__(self):
        for name in ("depth_tol", "yaw_tol", "var_gate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")


@dataclass(frozen=True)
class VisibilityConfig:
    image_width: float = 1242.0
    image_height: float = 375.0
    min_box_area: float = 100.0        # px^2 after clipping
    frame_window: int = 10             # frames beyond the observed span
    min_visible_fraction: float = 0.25  # clipped / unclipped area

    def __post_init__(self):
        for name in ("image_width", "image_height", "min_box_area"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.frame_window < 0:
            raise ValueError("frame_window must be >= 0")
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
        for name, low in (("seed", 0), ("n_objects", 0), ("frames", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("dropout_prob", "outlier_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("sigma_z", "sigma_yaw", "sigma_px"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.trajectory not in TRAJECTORY_KINDS:
            raise ValueError(f"trajectory must be one of {TRAJECTORY_KINDS}")
        if self.trajectory == "waypoints" and len(self.waypoints) < 2:
            raise ValueError("waypoints must hold at least 2 points for a waypoints trajectory")
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


# The paths section: YAML key -> PipelineConfig field.
_PATHS = {"trajectory": "trajectory_path", "calib": "calib_path",
          "detections": "detections_path", "output": "output_dir"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(map(str, unknown))} in {where}")


# The kind of a field's default -> (its name, the test a YAML value must pass).
_KINDS = {
    float: ("a finite number", _is_number),
    int: ("an integer", _is_int),
    str: ("a string", lambda value: isinstance(value, str)),
}
# Angle fields, written in degrees as <name>_deg.
_DEGREES = ("yaw_tol", "sigma_yaw", "outlier_dyaw")


def _of_kind(value, default, where: str):
    """value if it has the kind of default, else ValueError naming where."""
    kind, ok = _KINDS[type(default)]
    if not ok(value):
        raise ValueError(f"{where} must be {kind}, got {value!r}")
    return value


def _mapping(value, allowed: set, where: str) -> dict:
    """A config section: a mapping (null reads as empty) with no key outside allowed."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a mapping, got {value!r}")
    _check_keys(value, allowed, where)
    return value


def _numbers(value, where: str, sizes: tuple[int, ...]) -> tuple[float, ...]:
    """A list of YAML numbers whose length is one of sizes, as floats."""
    if not isinstance(value, list) or len(value) not in sizes or not all(map(_is_number, value)):
        raise ValueError(f"{where} must be a list of {' or '.join(map(str, sizes))} numbers, "
                         f"got {value!r}")
    return tuple(float(v) for v in value)


def _points(value, where: str, sizes: tuple[int, ...]) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return tuple(_numbers(p, f"{where}[{i}]", sizes) for i, p in enumerate(value))


def _objects(value, where: str) -> tuple:
    """((x, y, z, yaw[, h, w, l]), ...) with yaw written in degrees and positive dims."""
    objects = _points(value, where, (4, 7))
    for i, spec in enumerate(objects):
        error = len(spec) == 7 and dims_error(*spec[4:])
        if error:
            raise ValueError(f"{where}[{i}]: {error}")
    return tuple((x, y, z, math.radians(yaw), *dims) for x, y, z, yaw, *dims in objects)


def _sigma_model(value, where: str) -> tuple | None:
    if value is None:
        return None
    if (not isinstance(value, dict) or set(value) != {"offset", "slope"}
            or not all(map(_is_number, value.values()))):
        raise ValueError(f"{where} must be a mapping of the numbers offset and slope, "
                         f"got {value!r}")
    return float(value["offset"]), float(value["slope"])


# Fields whose YAML value has a shape of its own: field -> converter(value, where).
_SHAPED = {
    "waypoints": lambda value, where: _points(value, where, (3,)),
    "objects": _objects,
    "sigma_model": _sigma_model,
    "depth_range": lambda value, where: _numbers(value, where, (2,)),
    "lateral_range": lambda value, where: _numbers(value, where, (2,)),
}


def _section(cls, raw, where: str):
    """Build the config dataclass cls from its YAML section raw.

    The keys are the fields of cls (an angle field x as x_deg, converted to
    radians); a shaped field goes through its _SHAPED converter, and every
    other value must have the kind of the field's default and is kept as
    given.  The range checks of cls start their messages with the field
    name, so prefixing the section names the key path.
    """
    by_key = {f"{f.name}_deg" if f.name in _DEGREES else f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in _mapping(raw, set(by_key), where).items():
        f = by_key[key]
        if f.name in _SHAPED:
            value = _SHAPED[f.name](value, f"{where}.{key}")
        else:
            value = _of_kind(value, f.default, f"{where}.{key}")
            if f.name in _DEGREES:
                value = math.radians(value)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ValueError(f"{where}.{e}") from None


def _ranges(raw, where: str) -> tuple:
    """((start, end), ...) from a list of [start, end] pairs of YAML ints."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ValueError(f"{where} must be a list of [start, end] pairs, got {raw!r}")
    for item in raw:
        if not isinstance(item, list) or len(item) != 2 or not all(map(_is_int, item)):
            raise ValueError(f"{where} entries must be [start, end] pairs of integers, "
                             f"got {item!r}")
    return tuple(tuple(item) for item in raw)


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
    try:
        cfg = PipelineConfig()
        for key, value in _mapping(raw.get("paths"), set(_PATHS), "paths").items():
            setattr(cfg, _PATHS[key], _of_kind(value, "", f"paths.{key}"))
        cfg.camera = _of_kind(raw.get("camera", cfg.camera), "", "camera")

        cfg.association = _section(AssociationConfig, raw.get("association"), "association")
        cfg.weighting = _section(WeightPolicy, raw.get("weighting"), "weighting")
        cfg.fusion = _section(FusionConfig, raw.get("fusion"), "fusion")
        cfg.visibility = _section(VisibilityConfig, raw.get("visibility"), "visibility")
        if raw.get("simulate") is not None:
            cfg.simulate = _section(SimConfig, raw["simulate"], "simulate")

        metrics = _mapping(raw.get("metrics"), {"iou_min"}, "metrics")
        iou_min = metrics.get("iou_min", cfg.metrics_iou_min)
        if not _is_number(iou_min) or not 0 < iou_min <= 1:
            raise ValueError(f"metrics.iou_min must be a number in (0, 1], got {iou_min!r}")
        cfg.metrics_iou_min = float(iou_min)

        sequence = _mapping(raw.get("sequence"), {"include", "exclude"}, "sequence")
        cfg.include = _ranges(sequence.get("include"), "sequence.include")
        cfg.exclude = _ranges(sequence.get("exclude"), "sequence.exclude")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None
    return cfg


def config_fingerprint(cfg: PipelineConfig) -> str:
    """Short stable hash of the resolved semantic configuration.

    Paths are machine-specific and excluded; input content is covered by
    the per-file digests written next to this hash.
    """
    payload = {k: v for k, v in asdict(cfg).items() if k not in _PATHS.values()}
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]
