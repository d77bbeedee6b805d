"""Config loading: each section's record is its schema, and a value of the
wrong kind or out of its range fails with one line naming its key path."""

import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from seqlabel import config
from seqlabel.config import (
    AssociationConfig,
    FusionConfig,
    SimConfig,
    VisibilityConfig,
    WeightPolicy,
    config_fingerprint,
    load_config,
)
from seqlabel.errors import ConfigError

SYNTHETIC = Path(__file__).resolve().parent.parent / "configs" / "synthetic.yaml"
SECTIONS = {
    "association": AssociationConfig,
    "weighting": WeightPolicy,
    "fusion": FusionConfig,
    "visibility": VisibilityConfig,
    "simulate": SimConfig,
}
DEGREES = {"yaw_tol", "sigma_yaw", "outlier_dyaw"}  # written as <name>_deg


def _keys():
    """(section, YAML key, field name, read the loaded value, default) of every key."""
    keys = [
        (section, f"{name}_deg" if name in DEGREES else name, name,
         lambda cfg, s=section, n=name: getattr(getattr(cfg, s), n), cls._field_defaults[name])
        for section, cls in SECTIONS.items() for name in cls._fields
    ]
    keys.append(("metrics", "iou_min", "iou_min", lambda cfg: cfg.metrics_iou_min, 0.5))
    for key, attr in (("trajectory", "trajectory_path"), ("calib", "calib_path"),
                      ("detections", "detections_path"), ("output", "output_dir")):
        keys.append(("paths", key, key, lambda cfg, a=attr: getattr(cfg, a), ""))
    for key in ("include", "exclude"):
        keys.append(("sequence", key, key, lambda cfg, k=key: getattr(cfg, k), ()))
    return keys


KEYS = _keys()

# One out-of-range value per key with a range rule: (section.key, value, what it must be).
RANGE_CASES = [
    ("association.score_threshold", 1.5, "in [0, 1]"),
    ("association.iou_gate", -0.1, "in [0, 1]"),
    ("association.descriptor_gate", 2, "in [0, 1]"),
    ("association.dist_gate", 0, "positive"),
    ("association.max_frame_gap", -1, ">= 0"),
    ("association.w_iou", -0.1, ">= 0"),
    ("association.w_dist", -0.5, ">= 0"),
    ("association.w_desc", -0.1, ">= 0"),
    ("weighting.mode", "magic", "one of ('score', 'inverse_variance')"),
    ("weighting.sigma_floor", 1e-200, ">= 1e-100"),
    ("fusion.depth_tol", 0.0, "positive"),
    ("fusion.yaw_tol_deg", -5.0, "positive"),
    ("fusion.min_support", 0, ">= 1"),
    ("fusion.var_gate", -1.0, "positive"),
    ("visibility.image_width", 0, "positive"),
    ("visibility.image_height", -1, "positive"),
    ("visibility.min_box_area", 0, "positive"),
    ("visibility.frame_window", -1, ">= 0"),
    ("visibility.min_visible_fraction", 0.0, "in (0, 1]"),
    ("metrics.iou_min", 0, "in (0, 1]"),
    ("simulate.seed", -1, ">= 0"),
    ("simulate.n_objects", -1, ">= 0"),
    ("simulate.frames", 0, ">= 1"),
    ("simulate.trajectory", "loop", "one of ('straight', 'arc', 'waypoints')"),
    ("simulate.sigma_z", -0.1, ">= 0"),
    ("simulate.sigma_yaw_deg", -1.0, ">= 0"),
    ("simulate.sigma_px", -1.0, ">= 0"),
    ("simulate.dropout_prob", 1.5, "in [0, 1]"),
    ("simulate.outlier_prob", -0.5, "in [0, 1]"),
    ("simulate.image_width", 0, "positive"),  # exited 1 with a traceback from simulate
    ("simulate.image_height", -1, "positive"),
    ("simulate.depth_range", [45.0, 12.0], "[low, high] with low <= high"),
    ("simulate.lateral_range", [1.0, -1.0], "[low, high] with low <= high"),
]


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _has_kind(value, default) -> bool:
    """Whether a loaded value has the kind of the field's default."""
    if isinstance(default, float):
        return type(value) in (int, float) and math.isfinite(value)
    if isinstance(default, int):
        return type(value) is int
    if isinstance(default, str):
        return type(value) is str
    if default is None and value is None:  # sigma_model
        return True
    return isinstance(value, tuple) and all(type(v) in (int, float) for v in _leaves(value))


HUGE = st.just(10**400)  # an integer beyond the float range
VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(str),  # a quoted number
    st.integers(-5, 10**6).map(str),
    st.just("nan"),
    HUGE,
    st.lists(st.one_of(st.integers(-5, 50), st.floats(-50, 50), st.booleans(), HUGE),
             max_size=4),
    st.lists(st.lists(st.one_of(st.integers(-5, 50), st.floats(-50, 50), HUGE), max_size=4),
             max_size=3),
    st.dictionaries(st.sampled_from(["offset", "slope", "x"]),
                    st.one_of(st.floats(-1, 1), st.just("nan"), st.booleans()), max_size=3),
    st.none(),
    st.integers(-5, 10**6),
    st.floats(),
)


class TestSectionReader:
    def test_synthetic_fingerprint_pinned(self):
        # Every provenance header carries this hash; a reader that converts
        # a value (say an int image size to a float) moves it.
        assert config_fingerprint(load_config(SYNTHETIC)) == "f2c55abc3d2b"

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KEYS), VALUES)
    def test_one_replaced_key_loads_with_its_kind_or_fails_naming_it(
            self, tmp_path_factory, entry, value):
        section, key, name, read, default = entry
        raw = yaml.safe_load(SYNTHETIC.read_text())
        raw.setdefault(section, {})[key] = value
        path = tmp_path_factory.mktemp("config") / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw))
        try:
            cfg = load_config(path)
        except ConfigError as e:
            message = str(e)
            assert "\n" not in message
            assert f"{section}." in message and name in message, message
        else:
            assert _has_kind(read(cfg), default), (section, key, read(cfg))

    def test_non_positive_object_dims_name_the_object(self, tmp_path):
        raw = yaml.safe_load(SYNTHETIC.read_text())
        raw["simulate"]["objects"] = [[0, 1.65, 20, 0, -1.5, 1.7, 4.2]]
        path = tmp_path / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=r"simulate\.objects\[0\]: dimensions must be "
                                              r"strictly positive, got \(-1\.5, 1\.7, 4\.2\)"):
            load_config(path)

    @pytest.mark.parametrize("key, value, must", RANGE_CASES)
    def test_value_out_of_range_fails_naming_key_rule_and_value(self, tmp_path, key, value,
                                                                 must):
        section, name = key.split(".")
        raw = yaml.safe_load(SYNTHETIC.read_text())
        raw.setdefault(section, {})[name] = value
        path = tmp_path / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: {key} must be {must}, got {value!r}"

    def test_every_range_rule_has_a_case(self):
        names = {key.split(".")[1].removesuffix("_deg") for key, _, _ in RANGE_CASES}
        fields = {{"iou_min": "metrics_iou_min"}.get(name, name) for name in names}
        assert fields == set(config._RULES)

    @pytest.mark.parametrize("section, values, message", [
        ("association", {"w_iou": 0.6}, "association.w_iou + w_dist + w_desc must sum to 1"),
        ("association", {"w_iou": 0.0, "w_dist": 0.0, "w_desc": 1.0},
         "association.w_iou + w_dist must be positive"),
        ("simulate", {"trajectory": "waypoints", "waypoints": [[0, 0, 0]]},
         "simulate.waypoints must hold at least 2 points"),
        ("simulate", {"trajectory": "arc", "arc_radius": 0.0},
         "simulate.arc_radius must be positive for an arc trajectory"),
    ])
    def test_section_rule_fails_naming_its_key(self, tmp_path, section, values, message):
        raw = yaml.safe_load(SYNTHETIC.read_text())
        raw[section].update(values)
        path = tmp_path / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)

    def test_readme_option_set_loads_and_names_every_key(self, tmp_path):
        readme = (SYNTHETIC.parent.parent / "README.md").read_text()
        block = readme.split("The full option set:", 1)[1].split("```yaml\n", 1)[1]
        block = block.split("```", 1)[0]
        path = tmp_path / "pipeline.yaml"
        path.write_text(block)
        load_config(path)
        raw = yaml.safe_load(block)
        named = {(section, key) for section, values in raw.items() if isinstance(values, dict)
                 for key in values}
        assert "camera" in raw and named == {(section, key) for section, key, *_ in KEYS}

    @staticmethod
    def _with_literal(tmp_path, key: str, literal: str) -> Path:
        """synthetic.yaml with section.key written as the YAML text literal, unquoted."""
        section, name = key.split(".")
        raw = yaml.safe_load(SYNTHETIC.read_text())
        raw.setdefault(section, {})[name] = "LITERAL"
        path = tmp_path / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw).replace(" LITERAL\n", f" {literal}\n"))
        return path

    @pytest.mark.parametrize("key, literal, value", [
        ("association.score_threshold", "7e-1", 0.7),
        ("association.dist_gate", "1E3", 1000.0),
        ("association.score_threshold", ".5", 0.5),
        ("weighting.sigma_floor", "1e-100", 1e-100),
        ("association.max_frame_gap", "7", 7),
    ])
    def test_numbers_load_as_yaml_1_2_reads_them(self, tmp_path, key, literal, value):
        # YAML 1.1 reads 7e-1, 1E3 and 1e-100 as strings; an integer stays an int.
        section, name = key.split(".")
        got = getattr(getattr(load_config(self._with_literal(tmp_path, key, literal)), section),
                      name)
        assert type(got) is type(value) and got == value

    @pytest.mark.parametrize("key, literal, message", [
        ("weighting.sigma_floor", "-1e-100", "weighting.sigma_floor must be >= 1e-100, "
                                             "got -1e-100"),
        ("association.score_threshold", '"12.5"', "association.score_threshold must be a "
                                                  "number, got '12.5'"),
        # No exponent: YAML 1.1 reads a leading-zero 08 as a string, and so does the loader.
        ("association.max_frame_gap", "08", "association.max_frame_gap must be an integer, "
                                            "got '08'"),
    ])
    def test_exponent_out_of_range_or_quoted_number_fails(self, tmp_path, key, literal,
                                                          message):
        path = self._with_literal(tmp_path, key, literal)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("raw", [{1: 2, "bogus": 3}, {"association": {2: 0.5, "x": 1}}])
    def test_mixed_type_unknown_keys_are_a_config_error(self, tmp_path, raw):
        # Listing unknown keys of mixed types must not compare an int with a str.
        path = tmp_path / "pipeline.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)
