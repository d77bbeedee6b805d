"""Pipeline configuration: one YAML file with sections, flags win over it.

This module owns the config record of every stage (AssociationConfig,
WeightPolicy, FusionConfig, VisibilityConfig, SimConfig) and imports no
stage: the stages import their configs from here.  So loading a config
costs PyYAML, the standard library and seqlabel.labels only, and a
command that needs no numpy stage, such as evaluate, never loads numpy.

Each record, a NamedTuple, is the schema of its section, read by
_section: the keys are its fields, and each value has the kind of the
field's default.  An angle field x is written x_deg, in degrees.  The
records check nothing: read_value checks each value once, as it is read,
against its field's range rule in _RULES, and _section checks the rules
over several fields in _SECTION_RULES.  Anything else fails with one line
naming section.key.  A number may have an exponent, as in YAML 1.2 (_Loader).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path
from typing import NamedTuple

import yaml

from .errors import ConfigError
from .labels import KINDS, dims_error, is_int, is_number

WEIGHT_MODES = ("score", "inverse_variance")
TRAJECTORY_KINDS = ("straight", "arc", "waypoints")


class AssociationConfig(NamedTuple):
    score_threshold: float = 0.7
    iou_gate: float = 0.3
    dist_gate: float = 3.0
    descriptor_gate: float = 0.5
    max_frame_gap: int = 20
    w_iou: float = 0.5
    w_dist: float = 0.4
    w_desc: float = 0.1


class WeightPolicy(NamedTuple):
    """How observation weights are derived: detection score or 1/sigma^2."""

    mode: str = "score"
    sigma_floor: float = 1e-3


class FusionConfig(NamedTuple):
    depth_tol: float = 2.0            # meters around the weighted median global z
    yaw_tol: float = math.radians(30)  # radians around the weighted circular median
    min_support: int = 2
    var_gate: float = 1.0             # m^2 per axis; beyond this the track is dynamic


class VisibilityConfig(NamedTuple):
    image_width: float = 1242.0
    image_height: float = 375.0
    min_box_area: float = 100.0        # px^2 after clipping
    frame_window: int = 10             # frames beyond the observed span
    min_visible_fraction: float = 0.25  # clipped / unclipped area


class SimConfig(NamedTuple):
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


class PipelineConfig(NamedTuple):
    trajectory_path: str = ""
    calib_path: str = ""
    detections_path: str = ""
    output_dir: str = "out"
    camera: str = "P2"
    association: AssociationConfig = AssociationConfig()
    weighting: WeightPolicy = WeightPolicy()
    fusion: FusionConfig = FusionConfig()
    visibility: VisibilityConfig = VisibilityConfig()
    metrics_iou_min: float = 0.5
    include: tuple = ()   # ((start, end), ...) inclusive frame ranges
    exclude: tuple = ()
    simulate: SimConfig | None = None

    def frame_allowed(self, frame_id: int) -> bool:
        if self.include and not any(a <= frame_id <= b for a, b in self.include):
            return False
        return not any(a <= frame_id <= b for a, b in self.exclude)


# The sections read into a config record: section -> the record (and PipelineConfig field).
_SECTIONS = {"association": AssociationConfig, "weighting": WeightPolicy, "fusion": FusionConfig,
             "visibility": VisibilityConfig, "simulate": SimConfig}
# The other sections: section -> {YAML key: PipelineConfig field}.
_OWN = {"paths": {"trajectory": "trajectory_path", "calib": "calib_path",
                  "detections": "detections_path", "output": "output_dir"},
        "metrics": {"iou_min": "metrics_iou_min"},
        "sequence": {"include": "include", "exclude": "exclude"}}
# Angle fields, written in degrees as <name>_deg.
_DEGREES = ("yaw_tol", "sigma_yaw", "outlier_dyaw")


def _mapping(value, allowed: set, where: str) -> dict:
    """A config section: a mapping (null reads as empty) with no key outside allowed."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a mapping, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(map(str, unknown))} in {where}")
    return value


def _numbers(value, where: str, sizes: tuple[int, ...]) -> tuple[float, ...]:
    """A list of YAML numbers whose length is one of sizes, as floats."""
    if not isinstance(value, list) or len(value) not in sizes or not all(map(is_number, value)):
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
            or not all(map(is_number, value.values()))):
        raise ValueError(f"{where} must be a mapping of the numbers offset and slope, "
                         f"got {value!r}")
    return float(value["offset"]), float(value["slope"])


def _ranges(raw, where: str) -> tuple:
    """((start, end), ...) from a list of [start, end] pairs of YAML ints, start <= end."""
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ValueError(f"{where} must be a list of [start, end] pairs, got {raw!r}")
    for item in raw:
        if not isinstance(item, list) or len(item) != 2 or not all(map(is_int, item)):
            raise ValueError(f"{where} entries must be [start, end] pairs of integers, "
                             f"got {item!r}")
        if item[0] > item[1]:  # a reversed range holds no frame
            raise ValueError(f"{where} entries must have start <= end, got {item!r}")
    return tuple(tuple(item) for item in raw)


# Fields whose YAML value has a shape of its own: field -> converter(value, where).
_SHAPED = {
    "waypoints": lambda value, where: _points(value, where, (3,)),
    "objects": _objects,
    "sigma_model": _sigma_model,
    "depth_range": lambda value, where: _numbers(value, where, (2,)),
    "lateral_range": lambda value, where: _numbers(value, where, (2,)),
    "include": _ranges,
    "exclude": _ranges,
}
# The range rule of each field: field -> (what its value must be, the test of its value as
# read).  Fields of the same name share one rule, as image_width and image_height do in
# visibility and simulate.
_RULES = {
    **dict.fromkeys(("score_threshold", "iou_gate", "descriptor_gate", "dropout_prob",
                     "outlier_prob"), ("in [0, 1]", lambda v: 0 <= v <= 1)),
    **dict.fromkeys(("min_visible_fraction", "metrics_iou_min"),
                    ("in (0, 1]", lambda v: 0 < v <= 1)),
    **dict.fromkeys(("dist_gate", "depth_tol", "yaw_tol", "var_gate", "image_width",
                     "image_height", "min_box_area"), ("positive", lambda v: v > 0)),
    **dict.fromkeys(("max_frame_gap", "w_iou", "w_dist", "w_desc", "frame_window", "seed",
                     "n_objects", "sigma_z", "sigma_yaw", "sigma_px"), (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("min_support", "frames"), (">= 1", lambda v: v >= 1)),
    **dict.fromkeys(("depth_range", "lateral_range"),
                    ("[low, high] with low <= high", lambda v: v[0] <= v[1])),
    # The floor caps every inverse-variance weight at 1e200, so sums of weights stay finite.
    "sigma_floor": (">= 1e-100", lambda v: v >= 1e-100),
    "mode": (f"one of {WEIGHT_MODES}", WEIGHT_MODES.__contains__),
    "trajectory": (f"one of {TRAJECTORY_KINDS}", TRAJECTORY_KINDS.__contains__),
}
# Rules over several fields of a section, checked once it is built:
# section -> ((message, starting with the key it names; test of the section), ...).
_SECTION_RULES = {
    "association": (
        ("w_iou + w_dist + w_desc must sum to 1",
         lambda c: abs(c.w_iou + c.w_dist + c.w_desc - 1.0) <= 1e-12),
        ("w_iou + w_dist must be positive (descriptors are optional)",
         lambda c: c.w_iou + c.w_dist > 0),
    ),
    "simulate": (
        ("waypoints must hold at least 2 points for a waypoints trajectory",
         lambda c: c.trajectory != "waypoints" or len(c.waypoints) >= 2),
        ("arc_radius must be positive for an arc trajectory",
         lambda c: c.trajectory != "arc" or c.arc_radius > 0),
    ),
}


def read_value(name: str, default, raw, where: str):
    """The YAML value raw of field name, as read; ValueError naming where if it is not valid.

    A shaped field goes through its _SHAPED converter.  Any other value must
    have the kind of default (labels.KINDS) and is kept as given, an angle
    field converted from degrees to radians.  Then the value must pass
    name's rule in _RULES.
    """
    if name in _SHAPED:
        value = _SHAPED[name](raw, where)
    else:
        kind, of_kind = KINDS[type(default)]
        if not of_kind(raw):
            raise ValueError(f"{where} must be {kind}, got {raw!r}")
        value = math.radians(raw) if name in _DEGREES else raw
    must, ok = _RULES.get(name, (None, None))
    if ok is not None and not ok(value):
        raise ValueError(f"{where} must be {must}, got {raw!r}")
    return value


def _section(cls, raw, where: str):
    """Build the config record cls from its YAML section raw.

    The keys are the fields of cls (an angle field x as x_deg), each value
    read by read_value; then the built section must pass its _SECTION_RULES.
    """
    by_key = {f"{name}_deg" if name in _DEGREES else name: name for name in cls._fields}
    kwargs = {}
    for key, value in _mapping(raw, set(by_key), where).items():
        name = by_key[key]
        kwargs[name] = read_value(name, cls._field_defaults[name], value, f"{where}.{key}")
    section = cls(**kwargs)
    for message, ok in _SECTION_RULES.get(where, ()):
        if not ok(section):
            raise ValueError(f"{where}.{message}")
    return section


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that also reads YAML 1.2's exponent floats: 7e-1, 1E3 and 1e-100.

    A number without an exponent stays as YAML 1.1 reads it, so 08 and -.5 are strings.

    Not yaml.CSafeLoader: faster, but it crashes (SIGSEGV) on a config nested 30,000 deep."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path: str | Path) -> PipelineConfig:
    """Read and validate the YAML pipeline config."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_Loader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not valid UTF-8 ({e.reason})") from None
    except yaml.YAMLError as e:  # one line: the problem at its position, else PyYAML's text
        mark, problem = getattr(e, "problem_mark", None), getattr(e, "problem", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark and problem else ""
        text = problem if where else str(e)
        raise ConfigError(f"{path}: invalid YAML{where}: {' '.join(text.split())}") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid YAML: nested too deeply") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    _mapping(raw, {"camera", *_SECTIONS, *_OWN}, str(path))
    defaults = PipelineConfig._field_defaults
    kwargs = {}
    try:
        for section, names in _OWN.items():
            for key, value in _mapping(raw.get(section), set(names), section).items():
                name = names[key]
                kwargs[name] = read_value(name, defaults[name], value, f"{section}.{key}")
        if "metrics_iou_min" in kwargs:  # a YAML 1 hashes as 1.0, as before
            kwargs["metrics_iou_min"] = float(kwargs["metrics_iou_min"])
        if "camera" in raw:
            kwargs["camera"] = read_value("camera", defaults["camera"], raw["camera"], "camera")
        for section, cls in _SECTIONS.items():
            if section != "simulate" or raw.get(section) is not None:  # simulate is optional
                kwargs[section] = _section(cls, raw.get(section), section)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    return PipelineConfig(**kwargs)


def config_fingerprint(cfg: PipelineConfig) -> str:
    """Short stable hash of the resolved semantic configuration.

    Paths are machine-specific and excluded; input content is covered by
    the per-file digests written next to this hash.
    """
    payload = {k: v._asdict() if k in _SECTIONS and v is not None else v
               for k, v in cfg._asdict().items() if k not in _OWN["paths"].values()}
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]
